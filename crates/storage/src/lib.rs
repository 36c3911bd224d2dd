//! # ats-storage
//!
//! Out-of-core storage substrate for the `adhoc-ts` workspace.
//!
//! The paper's algorithms are explicitly *streaming*: the data matrix `X`
//! lives on disk, and every computation is phrased as a small number of
//! sequential **passes** over its rows (two passes for plain SVD, three
//! for SVDD — §4.1, Fig. 5), while the query path performs **random**
//! reads of single rows of the compressed `U` matrix ("one disk access
//! per cell", §4.1). This crate provides both access patterns:
//!
//! - [`mod@format`] — the `.atsm` binary file format: a checksummed header
//!   followed by raw little-endian row-major `f64` data;
//! - [`mod@file`] — [`file::MatrixFile`]: positioned (pread-style) row reads
//!   and buffered sequential scans, plus [`file::MatrixFileWriter`];
//! - [`source`] — the [`source::RowSource`] trait abstracting "something
//!   you can make passes over" (disk file or in-memory matrix), so the
//!   compression algorithms in `ats-compress` are oblivious to where the
//!   data lives;
//! - [`pool`] — [`pool::CachedFile`], which serves row reads through a
//!   fixed-capacity LRU of one-row pages with hit/miss accounting — this
//!   is what lets tests *prove* the paper's one-disk-access-per-cell-query
//!   claim instead of asserting it;
//! - [`store_dir`] — the store-directory format: the versioned,
//!   checksummed [`store_dir::ShardedManifest`] (one block) and
//!   [`store_dir::TimeBlockedManifest`] (block table), and the crash-safe
//!   atomic [`store_dir::StoreWriter`] used by `ats-core`'s persistence
//!   layer;
//! - [`synopsis`] — per-shard zone-map synopses (`synopsis.bin`): exact
//!   min/max/sum/count tiles over the *served* values, the pruning index
//!   behind sublinear `where` scans;
//! - [`iostats`] — atomic I/O counters shared by the readers.

pub mod file;
pub mod format;
pub mod iostats;
pub mod pool;
pub mod source;
pub mod store_dir;
pub mod synopsis;

pub use file::{MatrixFile, MatrixFileWriter};
pub use format::Header;
pub use iostats::{IoSnapshot, IoStats};
pub use pool::CachedFile;
pub use source::{ColumnSlice, MemSource, RowSource};
pub use store_dir::{
    ShardEntry, ShardedManifest, StoreWriter, TimeBlockEntry, TimeBlockedManifest,
};
pub use synopsis::{ShardSynopsis, SynopsisBuilder, TileStat, COL_BLOCK, ROW_BLOCK, SYNOPSIS_FILE};
