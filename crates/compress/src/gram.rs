//! Pass 1: streaming accumulation of the Gram matrix `C = XᵀX`.
//!
//! This is Fig. 2 of the paper — read one row at a time, add the outer
//! product of the row with itself into an `M × M` accumulator held in
//! memory — restructured as a blocked fold: `C` is a sum over rows, so
//! each fixed [`GRAM_BLOCK_ROWS`]-row block accumulates its own partial
//! and the partials are added in ascending block order. The blocks of a
//! wave are computed concurrently (through [`crate::par::fork_join`]),
//! the fold stays sequential, so `C` is bitwise the same for any
//! block-aligned row partition and any thread count.
//!
//! Only the upper triangle is accumulated (C is symmetric), halving the
//! inner-loop work relative to the paper's pseudocode.

use crate::par::fork_join;
use ats_common::{AtsError, Result};
use ats_linalg::{vecops, Matrix};
use ats_storage::RowSource;

/// Accumulate one row's outer product into the upper triangle of `c`.
/// The inner sweep is a widened axpy over the row tail `row[j..]` — same
/// per-element op (`c += x_j · x_l`) in the same ascending-`l` order, so
/// the accumulated Gram matrix is bitwise unchanged.
#[inline]
fn accumulate_row(c: &mut Matrix, row: &[f64]) {
    let m = row.len();
    for j in 0..m {
        let xj = row[j];
        if xj == 0.0 {
            continue; // sparse customer-days are common in phone data
        }
        let c_row = c.row_mut(j);
        vecops::axpy(xj, &row[j..], &mut c_row[j..]);
    }
}

/// Mirror the accumulated upper triangle into the lower.
fn symmetrize(c: &mut Matrix) {
    let m = c.rows();
    for j in 0..m {
        for l in (j + 1)..m {
            c[(l, j)] = c[(j, l)];
        }
    }
}

/// Row-block granule of the sharded pass 1: partial Gram matrices are
/// accumulated over fixed 32-row blocks and folded in global block
/// order, so the result is bit-identical for *any* block-aligned row
/// partition (see [`shard_ranges`]) at any thread count.
pub const GRAM_BLOCK_ROWS: usize = 32;

/// Split `n` rows into at most `r` contiguous shards whose boundaries
/// fall on [`GRAM_BLOCK_ROWS`] multiples (except the final row), so the
/// fixed-block pass-1 fold sees the same block sequence regardless of
/// how many shards the rows are grouped into.
///
/// Returns fewer than `r` shards when `n` is too small to give every
/// shard at least one block; never returns an empty shard. `n = 0`
/// yields no shards.
pub fn shard_ranges(n: usize, r: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let blocks = n.div_ceil(GRAM_BLOCK_ROWS);
    let r = r.clamp(1, blocks);
    let mut ranges = Vec::with_capacity(r);
    for t in 0..r {
        let start_block = t * blocks / r;
        let end_block = (t + 1) * blocks / r;
        let start = start_block * GRAM_BLOCK_ROWS;
        let end = (end_block * GRAM_BLOCK_ROWS).min(n);
        ranges.push((start, end));
    }
    ranges
}

/// Sharded pass 1: accumulate one mergeable Gram partial per fixed
/// 32-row block of each shard and fold the partials into a single
/// accumulator in global block order.
///
/// Because every block partial is built row-by-row from zero and the
/// fold visits blocks in ascending row order — iterating `ranges` in
/// order, never pre-folding per shard — the result is **bit-identical**
/// across any block-aligned shard partition (including one shard) and
/// any `threads` value: parallelism only computes partials of the next
/// `threads` blocks concurrently ("waves"), the fold itself stays
/// sequential in block order.
pub fn compute_gram_sharded<S: RowSource + ?Sized>(
    source: &S,
    ranges: &[(usize, usize)],
    threads: usize,
) -> Result<Matrix> {
    let n = source.rows();
    let m = source.cols();
    let mut blocks: Vec<(usize, usize)> = Vec::new();
    let mut expected_start = 0usize;
    for &(start, end) in ranges {
        if start != expected_start || end <= start || end > n {
            return Err(AtsError::InvalidArgument(format!(
                "shard range {start}..{end} is not contiguous within 0..{n}"
            )));
        }
        expected_start = end;
        let mut b = start;
        while b < end {
            let be = (b + GRAM_BLOCK_ROWS).min(end);
            blocks.push((b, be));
            b = be;
        }
    }
    if expected_start != n {
        return Err(AtsError::InvalidArgument(format!(
            "shard ranges cover 0..{expected_start} of {n} rows"
        )));
    }

    let block_partial = |&(start, end): &(usize, usize)| -> Result<Matrix> {
        let mut c = Matrix::zeros(m, m);
        source.scan_range(start, end, &mut |_, row| {
            accumulate_row(&mut c, row);
            Ok(())
        })?;
        Ok(c)
    };
    // Waves of up to `threads` block partials, each folded in block
    // order before the next: the fold sequence is exactly the serial one.
    let mut total = Matrix::zeros(m, m);
    for wave in blocks.chunks(threads.max(1)) {
        for partial in fork_join(wave, "gram block", block_partial)? {
            for (acc, v) in total.as_mut_slice().iter_mut().zip(partial.as_slice()) {
                *acc += v;
            }
        }
    }
    symmetrize(&mut total);
    Ok(total)
}

/// Pass 1 over the whole source as one shard: [`compute_gram_sharded`]
/// with `threads` workers, so the result is bitwise independent of
/// `threads` — the single pass-1 path every build takes.
pub fn compute_gram_parallel<S: RowSource + ?Sized>(source: &S, threads: usize) -> Result<Matrix> {
    compute_gram_sharded(source, &shard_ranges(source.rows(), 1), threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_matrix(n: usize, m: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::from_fn(n, m, |_, _| rng.gen_range(-4.0..4.0))
    }

    #[test]
    fn matches_in_memory_gram() {
        let x = random_matrix(50, 8, 1);
        let c = compute_gram_parallel(&x, 1).unwrap();
        assert!(c.approx_eq(&x.gram(), 1e-9));
    }

    #[test]
    fn parallel_matches_serial() {
        let x = random_matrix(203, 11, 2); // odd N to exercise ragged chunks
        let serial = compute_gram_parallel(&x, 1).unwrap();
        assert!(serial.approx_eq(&x.gram(), 1e-8));
        for threads in [2, 3, 8] {
            let par = compute_gram_parallel(&x, threads).unwrap();
            let bits = |c: &Matrix| c.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&par),
                bits(&serial),
                "threads={threads} not bit-identical"
            );
        }
    }

    #[test]
    fn parallel_falls_back_on_tiny_input() {
        let x = random_matrix(3, 4, 3);
        let par = compute_gram_parallel(&x, 8).unwrap();
        assert!(par.approx_eq(&x.gram(), 1e-10));
    }

    #[test]
    fn gram_of_zero_matrix_is_zero() {
        let x = Matrix::zeros(10, 5);
        let c = compute_gram_parallel(&x, 1).unwrap();
        assert_eq!(c.frobenius_norm(), 0.0);
    }

    #[test]
    fn works_against_disk_source() {
        let dir = ats_common::TestDir::new("ats-gram");
        let path = dir.file("gram.atsm");
        let x = random_matrix(300, 6, 4);
        ats_storage::file::write_matrix(&path, &x).unwrap();
        let f = ats_storage::MatrixFile::open(&path).unwrap();
        let c = compute_gram_parallel(&f, 4).unwrap();
        assert!(c.approx_eq(&x.gram(), 1e-8));
    }

    #[test]
    fn shard_ranges_are_block_aligned_and_cover() {
        for (n, r) in [
            (1usize, 4usize),
            (31, 4),
            (32, 4),
            (100, 1),
            (100, 4),
            (1000, 7),
            (64, 64),
        ] {
            let ranges = shard_ranges(n, r);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= r);
            assert_eq!(ranges.first().unwrap().0, 0);
            assert_eq!(ranges.last().unwrap().1, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "gap in {ranges:?}");
            }
            for &(start, end) in &ranges {
                assert!(end > start, "empty shard in {ranges:?}");
                assert_eq!(start % GRAM_BLOCK_ROWS, 0, "unaligned start in {ranges:?}");
            }
        }
        assert!(shard_ranges(0, 4).is_empty());
    }

    #[test]
    fn sharded_gram_is_bit_identical_across_partitions_and_threads() {
        let x = random_matrix(203, 11, 6);
        let reference = compute_gram_sharded(&x, &shard_ranges(203, 1), 1).unwrap();
        assert!(reference.approx_eq(&x.gram(), 1e-8));
        for r in [1, 2, 4, 7] {
            for threads in [1, 2, 3, 8] {
                let got = compute_gram_sharded(&x, &shard_ranges(203, r), threads).unwrap();
                assert_eq!(
                    got.as_slice(),
                    reference.as_slice(),
                    "shards={r} threads={threads} not bit-identical"
                );
            }
        }
    }

    #[test]
    fn sharded_gram_rejects_bad_ranges() {
        let x = random_matrix(64, 4, 7);
        assert!(compute_gram_sharded(&x, &[(0, 32), (40, 64)], 1).is_err());
        assert!(compute_gram_sharded(&x, &[(0, 32)], 1).is_err());
        assert!(compute_gram_sharded(&x, &[(0, 32), (32, 80)], 1).is_err());
    }

    #[test]
    fn single_pass_io() {
        // The whole point of Fig. 2: exactly one sequential pass.
        let dir = ats_common::TestDir::new("ats-gram1p");
        let path = dir.file("onepass.atsm");
        let x = random_matrix(100, 5, 5);
        ats_storage::file::write_matrix(&path, &x).unwrap();
        let f = ats_storage::MatrixFile::open(&path).unwrap();
        compute_gram_parallel(&f, 1).unwrap();
        assert_eq!(f.stats().logical_reads(), 100, "each row read exactly once");
    }
}
