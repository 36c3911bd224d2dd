//! Batched appends via a persistent Gram cache (extension).
//!
//! The paper assumes "there are no updates on the data matrix, or they
//! are so rare that they can be batched and performed off-line" (§1).
//! The naive off-line rebuild re-runs both passes over *all* rows. But
//! the pass-1 state is just the Gram matrix `C = XᵀX`, and `C` is a sum
//! over rows — so keeping `C` around makes an append cheap:
//!
//! 1. ingest only the **new** rows into the cached `C` (`C += Xₙₑᵥᵥᵀ Xₙₑᵥᵥ`);
//! 2. eigendecompose the updated `C` (in-memory, `O(M³)`);
//! 3. one pass over all rows emits the new `U`.
//!
//! Steps 2–3 are the plain-SVD build's own epilogue
//! ([`SvdCompressed`]'s, after its Gram pass), so a rebuild from the
//! cache costs **one** pass over the full data instead of two and yields
//! the same factors. [`GramCache`] also serializes to the `.atsm` matrix
//! format so the cache survives restarts; a loaded cache is checked,
//! since its file comes from disk.

use crate::gram::compute_gram_parallel;
use crate::method::SpaceBudget;
use crate::svd::{emit_u, SvdCompressed};
use ats_common::codec::usize_from_u64;
use ats_common::{AtsError, Result};
use ats_linalg::kernels::{self, VPanel};
use ats_linalg::{vecops, Matrix};
use ats_storage::RowSource;
use std::path::Path;

/// Largest row count a saved cache records exactly: `2⁵³`, past which
/// an `f64` no longer holds every integer.
const MAX_SAVED_ROWS: f64 = 9_007_199_254_740_992.0;

/// An incrementally-maintained Gram matrix `C = XᵀX` with a row count.
#[derive(Debug, Clone)]
pub struct GramCache {
    c: Matrix,
    rows_seen: usize,
}

impl GramCache {
    /// Empty cache for `M`-column data.
    pub fn new(cols: usize) -> Self {
        GramCache {
            c: Matrix::zeros(cols, cols),
            rows_seen: 0,
        }
    }

    /// Build a cache from an initial source (one pass).
    pub fn from_source<S: RowSource + ?Sized>(source: &S, threads: usize) -> Result<Self> {
        let c = compute_gram_parallel(source, threads.max(1))?;
        Ok(GramCache {
            c,
            rows_seen: source.rows(),
        })
    }

    /// Number of columns (`M`).
    pub fn cols(&self) -> usize {
        self.c.rows()
    }

    /// Rows ingested so far.
    pub fn rows_seen(&self) -> usize {
        self.rows_seen
    }

    /// Ingest a batch of appended rows (one pass over the batch only).
    pub fn ingest<S: RowSource + ?Sized>(&mut self, batch: &S, threads: usize) -> Result<()> {
        if batch.cols() != self.cols() {
            return Err(AtsError::dims(
                "GramCache::ingest",
                (batch.rows(), batch.cols()),
                (batch.rows(), self.cols()),
            ));
        }
        let add = compute_gram_parallel(batch, threads.max(1))?;
        for (acc, v) in self.c.as_mut_slice().iter_mut().zip(add.as_slice()) {
            *acc += v;
        }
        self.rows_seen += batch.rows();
        Ok(())
    }

    /// Finish: compress `full` (which must contain exactly the ingested
    /// rows) to `k` components using the cached `C` — **one** pass.
    pub fn compress<S: RowSource + ?Sized>(&self, full: &S, k: usize) -> Result<SvdCompressed> {
        if full.rows() != self.rows_seen || full.cols() != self.cols() {
            return Err(AtsError::InvalidArgument(format!(
                "cache covers {} rows x {} cols but source is {} x {}",
                self.rows_seen,
                self.cols(),
                full.rows(),
                full.cols()
            )));
        }
        if k == 0 {
            return Err(AtsError::Budget("k = 0 stores nothing".into()));
        }
        SvdCompressed::from_gram(&self.c, full, k, 1)
    }

    /// Budgeted variant of [`GramCache::compress`].
    pub fn compress_budget<S: RowSource + ?Sized>(
        &self,
        full: &S,
        budget: SpaceBudget,
    ) -> Result<SvdCompressed> {
        let k = budget.max_svd_k(full.rows(), full.cols());
        if k == 0 {
            return Err(AtsError::Budget("budget holds no component".into()));
        }
        self.compress(full, k)
    }

    /// Persist the cache (`C` plus the row count encoded as an extra
    /// trailing row) as an `.atsm` file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let m = self.cols();
        let mut with_count = Matrix::zeros(m + 1, m);
        for i in 0..m {
            with_count.row_mut(i).copy_from_slice(self.c.row(i));
        }
        if let Some(count) = with_count.row_mut(m).first_mut() {
            *count = self.rows_seen as f64;
        }
        ats_storage::file::write_matrix(path, &with_count)?;
        Ok(())
    }

    /// Load a cache saved by [`GramCache::save`]. A file of the wrong
    /// shape, or whose row count is not a whole number in `0..=2⁵³`, is
    /// [`AtsError::Corrupt`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let with_count = ats_storage::file::read_matrix(path)?;
        let m = with_count.cols();
        if with_count.rows() != m + 1 {
            return Err(AtsError::Corrupt(format!(
                "gram cache file should be {}x{m}, found {}x{m}",
                m + 1,
                with_count.rows()
            )));
        }
        let count = with_count.try_row(m)?.first().copied().unwrap_or(f64::NAN);
        if !(count.is_finite() && count >= 0.0 && count.fract() == 0.0 && count <= MAX_SAVED_ROWS) {
            return Err(AtsError::Corrupt(format!(
                "gram cache row count {count} is not a whole number in 0..=2^53"
            )));
        }
        // ats-lint: allow(lossy-cast) — checked just above: whole and within 0..=2^53, so exact
        let rows_seen = usize_from_u64(count as u64, "gram cache row count")?;
        let mut c = with_count;
        c.truncate_rows(m);
        Ok(GramCache { c, rows_seen })
    }
}

/// Project a batch of appended rows onto **frozen** global factors
/// `(V, Λ)` without touching pass 1: returns the batch's rows of
/// `U = X V Λ⁻¹` (Eq. 11) plus the sum of squared reconstruction errors
/// the frozen factors incur on the batch.
///
/// This is the cheap half of the §1 batched-update story: a sharded
/// store lands new rows in a fresh shard under the *current* `V/Λ`
/// (no deltas, no re-optimization) and records the returned SSE in the
/// shard's manifest entry, so the error of deferring the rebuild is
/// tracked rather than silent. A later full rebuild — fed by the
/// [`GramCache`] the caller keeps ingesting the same batches into —
/// re-optimizes `V`, `k_opt`, and the delta budget globally.
pub fn project_frozen<S: RowSource + ?Sized>(
    batch: &S,
    v: &Matrix,
    lambda: &[f64],
) -> Result<(Matrix, f64)> {
    let (n, m) = (batch.rows(), batch.cols());
    if v.rows() != m || v.cols() != lambda.len() {
        return Err(AtsError::dims(
            "project_frozen",
            (v.rows(), v.cols()),
            (m, lambda.len()),
        ));
    }
    if n == 0 {
        return Err(AtsError::InvalidArgument("empty append batch".into()));
    }
    let mut u = Matrix::zeros(n, lambda.len());
    emit_u(batch, v, lambda, &mut u, 1)?;
    let vt = VPanel::from_v(v);
    let mut sse = 0.0f64;
    let mut recon = vec![0.0; m];
    batch.for_each_row(&mut |i, row| {
        kernels::reconstruct_row(u.try_row(i)?, lambda, &vt, &mut recon);
        for (&x, &r) in row.iter().zip(&recon) {
            let e = x - r;
            sse = vecops::fmadd(e, e, sse);
        }
        Ok(())
    })?;
    Ok((u, sse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::CompressedMatrix;
    use rand::{Rng, SeedableRng};

    fn random(n: usize, m: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::from_fn(n, m, |_, _| rng.gen_range(-3.0..3.0))
    }

    fn concat(a: &Matrix, b: &Matrix) -> Matrix {
        let mut rows: Vec<Vec<f64>> = a.iter_rows().map(|r| r.to_vec()).collect();
        rows.extend(b.iter_rows().map(|r| r.to_vec()));
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn incremental_equals_full_rebuild() {
        let old = random(60, 8, 1);
        let new = random(20, 8, 2);
        let full = concat(&old, &new);

        let mut cache = GramCache::from_source(&old, 1).unwrap();
        cache.ingest(&new, 1).unwrap();
        let inc = cache.compress(&full, 4).unwrap();
        let scratch = SvdCompressed::compress(&full, 4, 1).unwrap();
        for i in (0..80).step_by(7) {
            for j in 0..8 {
                assert!(
                    (inc.cell(i, j).unwrap() - scratch.cell(i, j).unwrap()).abs() < 1e-8,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn single_pass_for_rebuild() {
        let dir = ats_common::TestDir::new("ats-append");
        let full = random(100, 6, 4);
        let path = dir.file("full.atsm");
        ats_storage::file::write_matrix(&path, &full).unwrap();

        let cache = GramCache::from_source(&full, 1).unwrap();
        let f = ats_storage::MatrixFile::open(&path).unwrap();
        cache.compress(&f, 3).unwrap();
        assert_eq!(
            f.stats().logical_reads(),
            100,
            "rebuild with a cache should cost one pass, not two"
        );
    }

    #[test]
    fn dimension_and_coverage_checks() {
        let mut cache = GramCache::new(5);
        assert!(cache.ingest(&random(3, 4, 5), 1).is_err());
        cache.ingest(&random(10, 5, 6), 1).unwrap();
        // source with mismatched row count rejected
        assert!(cache.compress(&random(9, 5, 7), 2).is_err());
        assert!(cache.compress(&random(10, 5, 7), 0).is_err());
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = ats_common::TestDir::new("ats-gramsave");
        let data = random(30, 7, 8);
        let cache = GramCache::from_source(&data, 1).unwrap();
        let path = dir.file("cache.atsm");
        cache.save(&path).unwrap();
        let back = GramCache::load(&path).unwrap();
        assert_eq!(back.rows_seen(), 30);
        assert_eq!(back.cols(), 7);
        assert!(back.c.approx_eq(&cache.c, 0.0));
        // and it still compresses identically
        let a = cache.compress(&data, 3).unwrap();
        let b = back.compress(&data, 3).unwrap();
        assert!((a.cell(5, 5).unwrap() - b.cell(5, 5).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn load_rejects_a_row_count_that_is_not_a_whole_number_in_range() {
        let dir = ats_common::TestDir::new("ats-gramcount");
        let path = dir.file("cache.atsm");
        GramCache::from_source(&random(12, 3, 14), 1)
            .unwrap()
            .save(&path)
            .unwrap();
        let saved = ats_storage::file::read_matrix(&path).unwrap();
        assert_eq!(GramCache::load(&path).unwrap().rows_seen(), 12);
        for bad in [-1.0, 2.5, f64::NAN, 1e30] {
            let mut patched = saved.clone();
            patched[(3, 0)] = bad;
            ats_storage::file::write_matrix(&path, &patched).unwrap();
            let got = GramCache::load(&path);
            assert!(matches!(got, Err(AtsError::Corrupt(_))), "{bad}: {got:?}");
        }
    }

    #[test]
    fn project_frozen_matches_svd_projection() {
        let old = random(60, 8, 10);
        let svd = SvdCompressed::compress(&old, 4, 1).unwrap();
        // Re-projecting the training rows themselves must reproduce
        // their U rows exactly (same Eq. 11 arithmetic)...
        let (u, sse) = project_frozen(&old, svd.v(), svd.lambda()).unwrap();
        assert_eq!(u.as_slice(), svd.u().as_slice());
        // ...and the SSE must equal the SVD's own residual.
        let mut want = 0.0;
        let mut recon = vec![0.0; 8];
        for i in 0..60 {
            svd.row_into(i, &mut recon).unwrap();
            for (a, b) in recon.iter().zip(old.row(i)) {
                want += (a - b) * (a - b);
            }
        }
        assert!(
            (sse - want).abs() <= 1e-9 * want.max(1.0),
            "{sse} vs {want}"
        );

        // New rows project with finite, recorded error.
        let fresh = random(10, 8, 11);
        let (u2, sse2) = project_frozen(&fresh, svd.v(), svd.lambda()).unwrap();
        assert_eq!(u2.rows(), 10);
        assert!(sse2.is_finite() && sse2 > 0.0);
    }

    #[test]
    fn project_frozen_rejects_bad_shapes() {
        let old = random(20, 6, 12);
        let svd = SvdCompressed::compress(&old, 3, 1).unwrap();
        assert!(project_frozen(&random(5, 7, 13), svd.v(), svd.lambda()).is_err());
        assert!(project_frozen(&Matrix::zeros(0, 6), svd.v(), svd.lambda()).is_err());
    }

    #[test]
    fn budgeted_compress() {
        let data = random(200, 10, 9);
        let cache = GramCache::from_source(&data, 1).unwrap();
        let budget = SpaceBudget::from_percent(20.0);
        let c = cache.compress_budget(&data, budget).unwrap();
        assert!(c.storage_bytes() <= budget.bytes(200, 10));
        assert!(cache
            .compress_budget(&data, SpaceBudget { fraction: 1e-9 })
            .is_err());
    }
}
