//! # ats-core
//!
//! The public façade of `adhoc-ts` — a compressed, queryable store for
//! large time-sequence datasets, after Korn, Jagadish & Faloutsos
//! (SIGMOD 1997).
//!
//! - [`store`] — [`store::SequenceStore`]: pick SVD or SVDD and a space
//!   budget, compress a dataset, save it, run cell and aggregate queries;
//! - [`shard`] — [`shard::ShardedStore`]: the paper's serving architecture
//!   made literal, one decomposition at a time. `V` and `Λ` are pinned in
//!   memory, rows of `U` live in row-aligned matrix files (one per
//!   row-range shard) behind LRU buffer pools, and deltas sit in hash
//!   tables — so a cold cell query costs exactly **one disk access**
//!   (§4.1), which the tests verify by counting page fetches;
//! - [`timeblock`] — [`timeblock::TimeBlockedStore`]: what every saved
//!   store opens as — a grid of [`shard::ShardedStore`]s along the time
//!   axis (one block for v2/v3 directories), plus the time-axis append;
//! - [`disk`] — the `deltas.bin` codec;
//! - [`viz`] — Appendix A: project every sequence onto the first two
//!   principal components for dataset visualization (the Fig. 11
//!   scatter plots), plus a terminal renderer used by the examples.
//!
//! ## Quickstart
//!
//! ```
//! use ats_core::store::{Method, SequenceStore};
//! use ats_compress::SpaceBudget;
//! use ats_linalg::Matrix;
//!
//! // 200 sequences of 64 points with strong weekly structure.
//! let data = Matrix::from_fn(200, 64, |i, j| {
//!     ((i % 5) + 1) as f64 * if j % 7 < 5 { 1.0 } else { 0.1 }
//! });
//! let store = SequenceStore::builder()
//!     .method(Method::Svdd)
//!     .budget(SpaceBudget::from_percent(10.0))
//!     .build(&data)
//!     .unwrap();
//! let v = store.cell(17, 3).unwrap();           // single-cell query
//! assert!((v - 3.0).abs() < 0.5);               // true value: (17%5+1)·1.0
//! assert!(store.space_ratio() <= 0.10 + 1e-9);  // fits the budget
//! ```

pub mod disk;
pub mod shard;
pub mod store;
pub mod timeblock;
pub mod viz;

pub use shard::{append_rows, AppendReport, ShardedStore};
pub use store::{Method, SequenceStore};
pub use timeblock::{
    append_time_block, retrain_flags, time_block_ranges, TimeAppendReport, TimeBlockedStore,
    TimeGrid, RETRAIN_SSE_FACTOR,
};
