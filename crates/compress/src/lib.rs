//! # ats-compress
//!
//! The compression methods studied by Korn, Jagadish & Faloutsos
//! (SIGMOD 1997): the proposed SVD / SVDD family and every baseline the
//! paper compares against.
//!
//! All lossy methods implement [`method::CompressedMatrix`] — reconstruct
//! any cell in `O(k)` without touching the rest of the dataset — and are
//! built from a [`ats_storage::RowSource`] in a fixed number of
//! sequential passes, never materializing the full matrix:
//!
//! | module | method | paper § | passes |
//! |---|---|---|---|
//! | [`svd`] | plain SVD, top-`k` PCs | §3–4.1 | 2 |
//! | [`svdd`] | SVD with Deltas (the contribution) | §4.2 | 3 |
//! | [`dct`] | row-wise DCT, top-`k` coefficients | §2.3 | 1 |
//! | [`cluster`] | hierarchical (complete-linkage) VQ | §2.2 | in-memory |
//! | [`quantized`] | f32-quantized SVD factors (extension) | §5.1's `b` | 2 |
//! | [`sampling`] | uniform row sampling (aggregates only) | §5.2 | 1 |
//! | [`lz`] | LZSS + canonical Huffman (lossless reference) | §2.1 | n/a |
//!
//! Supporting pieces: [`append`] (the batched-update path of §1: a
//! persistent Gram cache turning rebuilds into a single pass), [`gram`] (the streaming pass-1 Gram accumulation of
//! Fig. 2, as a blocked fold that is bitwise the same at any thread
//! count), [`par`] (the one fork-join every threaded pass runs
//! through), [`delta`] (the open-addressing
//! outlier store with optional Bloom filter of §4.2), and
//! [`method::SpaceBudget`] (the `s%` space accounting of Eq. 9 that all
//! experiments share).

pub mod append;
pub mod cluster;
pub mod dct;
pub mod delta;
pub mod gram;
pub mod lz;
pub mod method;
pub mod par;
pub mod quantized;
pub mod sampling;
pub mod svd;
pub mod svdd;

pub use append::{project_frozen, GramCache};
pub use delta::DeltaStore;
pub use gram::{shard_ranges, GRAM_BLOCK_ROWS};
pub use method::{block_budget, CompressedMatrix, SpaceBudget};
pub use svd::SvdCompressed;
pub use svdd::{SvddCompressed, SvddOptions};
