//! # adhoc-ts
//!
//! Ad hoc queries over compressed time-sequence datasets — a full Rust
//! reproduction of Korn, Jagadish & Faloutsos, *"Efficiently Supporting
//! Ad Hoc Queries in Large Datasets of Time Sequences"* (SIGMOD 1997).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! - [`core`] (`ats-core`) — [`core::SequenceStore`] (build/save/query)
//!   and [`core::TimeBlockedStore`] (what a saved store opens as: the
//!   §4.1 one-disk-access serving architecture, per shard and time block);
//! - [`compress`] (`ats-compress`) — SVD and SVDD, plus the paper's
//!   baselines (DCT, clustering, sampling, LZ), all behind
//!   [`compress::CompressedMatrix`];
//! - [`query`] (`ats-query`) — cell/aggregate queries and the paper's
//!   error metrics (RMSPE, worst-case, `Q_err`);
//! - [`data`] (`ats-data`) — the synthetic `phone*`/`stocks` datasets;
//! - [`linalg`] (`ats-linalg`) — matrices, eigensolvers, SVD;
//! - [`storage`] (`ats-storage`) — matrix files, passes, buffer pool;
//! - [`common`] (`ats-common`) — Bloom filter, bounded heaps, stats.
//!
//! See `examples/quickstart.rs` for a five-minute tour and
//! `crates/bench/src/bin/` for the paper's experiments.

pub use ats_common as common;
pub use ats_compress as compress;
pub use ats_core as core;
pub use ats_data as data;
pub use ats_linalg as linalg;
pub use ats_query as query;
pub use ats_storage as storage;

/// Workspace version, for examples that print a banner.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
