//! Plain SVD compression (§3.4, §4.1): the two-pass out-of-core build
//! and the `O(k)`-per-cell reconstruction.
//!
//! - **Pass 1** computes the `M × M` Gram matrix `C = XᵀX` ([`crate::gram`],
//!   Fig. 2) and eigendecomposes it in memory (Lemma 3.2), yielding the
//!   eigenvalues `λᵢ²` and the right singular vectors `V`.
//! - **Pass 2** streams the rows again and emits each row of
//!   `U = X V Λ⁻¹` (Eq. 11, Fig. 3), truncated to `k` columns.
//!
//! The compressed form keeps `U` (`N × k`), the `k` singular values, and
//! `V` (`M × k`) — Eq. 9's `N·k + k + k·M` numbers.

use crate::gram::{compute_gram_sharded, shard_ranges};
use crate::method::{svd_bytes, CompressedMatrix, SpaceBudget};
use crate::par::fork_join;
use ats_common::{AtsError, Result};
use ats_linalg::kernels::{self, VPanel};
use ats_linalg::vecops;
use ats_linalg::{lanczos_top_k, sym_eigen, LanczosOptions, Matrix};
use ats_storage::RowSource;

/// Which solver handles pass 1's `M × M` eigenproblem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EigenEngine {
    /// Dense Householder + QL: all `M` pairs, `O(M³)`. Default.
    #[default]
    Dense,
    /// Lanczos with full reorthogonalization: only the top `k` pairs,
    /// `O(M²·iters)` — wins when `k ≪ M` (see the `eigen` ablation).
    Lanczos,
}

/// A matrix compressed by truncated SVD.
#[derive(Debug, Clone)]
pub struct SvdCompressed {
    /// `N × k` left singular vectors ("customer-to-pattern").
    u: Matrix,
    /// `k` singular values, descending (the paper's λ).
    lambda: Vec<f64>,
    /// `M × k` right singular vectors ("day-to-pattern").
    v: Matrix,
    /// `Vᵀ` as a `k × M` component panel — a serving-time mirror of `v`
    /// feeding the blocked reconstruction kernels. Derived (rebuilt on
    /// construction and truncation), so it does not count toward
    /// [`CompressedMatrix::storage_bytes`]: on disk only `V` is stored.
    vt: VPanel,
}

impl SvdCompressed {
    /// Two-pass compression keeping `k` principal components:
    /// [`SvdCompressed::compress_sharded`] over one shard.
    ///
    /// `threads` parallelizes both passes: pass 1 computes the partials
    /// of `threads` Gram blocks at a time, pass 2 splits the rows of `U`
    /// into disjoint bands written concurrently — bitwise the same
    /// result at any thread count. `k` is clamped to the numerical rank
    /// discovered in pass 1.
    pub fn compress<S: RowSource + ?Sized>(source: &S, k: usize, threads: usize) -> Result<Self> {
        Self::compress_with_engine(source, k, threads, EigenEngine::Dense)
    }

    /// [`SvdCompressed::compress`] with an explicit pass-1 eigensolver.
    pub fn compress_with_engine<S: RowSource + ?Sized>(
        source: &S,
        k: usize,
        threads: usize,
        engine: EigenEngine,
    ) -> Result<Self> {
        Self::build(source, k, threads, &shard_ranges(source.rows(), 1), engine)
    }

    /// Sharded two-pass build: pass 1 accumulates one mergeable Gram
    /// partial per fixed 32-row block of each shard and folds them in
    /// global block order ([`compute_gram_sharded`]), so the factors —
    /// and hence the whole compressed form — are **bit-identical**
    /// across any block-aligned shard partition and any thread count.
    pub fn compress_sharded<S: RowSource + ?Sized>(
        source: &S,
        k: usize,
        threads: usize,
        ranges: &[(usize, usize)],
    ) -> Result<Self> {
        Self::build(source, k, threads, ranges, EigenEngine::Dense)
    }

    /// Compress to fit a space budget: picks the largest `k` allowed by
    /// Eq. 9 for this budget.
    pub fn compress_budget<S: RowSource + ?Sized>(
        source: &S,
        budget: SpaceBudget,
        threads: usize,
    ) -> Result<Self> {
        Self::compress_budget_sharded(source, budget, threads, &shard_ranges(source.rows(), 1))
    }

    /// Sharded variant of [`SvdCompressed::compress_budget`].
    pub fn compress_budget_sharded<S: RowSource + ?Sized>(
        source: &S,
        budget: SpaceBudget,
        threads: usize,
        ranges: &[(usize, usize)],
    ) -> Result<Self> {
        let (n, m) = check_nonempty(source)?;
        let k = budget.max_svd_k(n, m);
        if k == 0 {
            return Err(AtsError::Budget(format!(
                "budget {:.3}% cannot hold even one principal component",
                budget.fraction * 100.0
            )));
        }
        Self::compress_sharded(source, k, threads, ranges)
    }

    /// The one two-pass build behind every entry point: pass 1 (Gram +
    /// eigendecomposition), rank-clamp `k`, truncate the factors, and
    /// pass 2 (`U = X V Λ⁻¹`, Fig. 3).
    fn build<S: RowSource + ?Sized>(
        source: &S,
        k: usize,
        threads: usize,
        ranges: &[(usize, usize)],
        engine: EigenEngine,
    ) -> Result<Self> {
        let (n, m) = check_nonempty(source)?;
        if k == 0 {
            return Err(AtsError::Budget(
                "SVD with k = 0 components stores nothing".into(),
            ));
        }
        let c = compute_gram_sharded(source, ranges, threads)?;
        let eig = match engine {
            EigenEngine::Dense => sym_eigen(&c)?,
            EigenEngine::Lanczos => lanczos_top_k(&c, k.min(m), LanczosOptions::default())?,
        };
        let lambda_all: Vec<f64> = eig.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
        let lmax = lambda_all.first().copied().unwrap_or(0.0);
        // Eigenvalues of XᵀX carry squared error, so the numerical-rank
        // cutoff on singular values is ~sqrt(machine noise) relative.
        let rank = lambda_all
            .iter()
            .take_while(|&&s| s > 1e-6 * lmax.max(1e-300))
            .count();
        let k = k.min(rank.max(1)).min(m);
        let lambda = lambda_all[..k].to_vec();

        let mut v = Matrix::zeros(m, k);
        for j in 0..k {
            for i in 0..m {
                v[(i, j)] = eig.vectors[(i, j)];
            }
        }

        // Pass 2: U = X V Λ⁻¹, one row at a time (Fig. 3).
        let mut u = Matrix::zeros(n, k);
        emit_u(source, &v, &lambda, &mut u, threads)?;

        let vt = VPanel::from_v(&v);
        Ok(SvdCompressed { u, lambda, v, vt })
    }

    /// Assemble from already-computed parts (used by the SVDD builder,
    /// whose pass 3 produces `U` itself).
    pub(crate) fn from_parts(u: Matrix, lambda: Vec<f64>, v: Matrix) -> Self {
        debug_assert_eq!(u.cols(), lambda.len());
        debug_assert_eq!(v.cols(), lambda.len());
        let vt = VPanel::from_v(&v);
        SvdCompressed { u, lambda, v, vt }
    }

    /// Number of retained principal components.
    pub fn k(&self) -> usize {
        self.lambda.len()
    }

    /// The retained singular values.
    pub fn lambda(&self) -> &[f64] {
        &self.lambda
    }

    /// The `N × k` U matrix.
    pub fn u(&self) -> &Matrix {
        &self.u
    }

    /// The `M × k` V matrix.
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// Reconstruct row `i` given an externally supplied row of `U` —
    /// used by `ats-core` when `U` lives on disk and was just fetched.
    /// Routed through the `Vᵀ` panel kernel: `k` sequential axpy sweeps,
    /// no allocation, bitwise identical to the scalar path.
    pub fn reconstruct_row_from_u(&self, u_row: &[f64], out: &mut [f64]) {
        kernels::reconstruct_row(u_row, &self.lambda, &self.vt, out);
    }

    /// Truncate in place to `k` components (used by SVDD's `k_opt`
    /// search; cheap).
    pub fn truncate(&mut self, k: usize) {
        let k = k.min(self.k());
        self.lambda.truncate(k);
        let mut u = Matrix::zeros(self.u.rows(), k);
        for i in 0..self.u.rows() {
            u.row_mut(i).copy_from_slice(&self.u.row(i)[..k]);
        }
        let mut v = Matrix::zeros(self.v.rows(), k);
        for i in 0..self.v.rows() {
            v.row_mut(i).copy_from_slice(&self.v.row(i)[..k]);
        }
        self.u = u;
        self.v = v;
        self.vt = VPanel::from_v(&self.v);
    }
}

/// `u_row[j] = (x · v_j) / λ_j` — Eq. 11 for one row.
#[inline]
pub(crate) fn project_row(x: &[f64], v: &Matrix, lambda: &[f64], u_row: &mut [f64]) {
    let k = lambda.len();
    u_row[..k].fill(0.0);
    // Walk V row-wise (cache-friendly): u_j += x_l * v[l][j]. The widened
    // axpy applies the same op in the same ascending-j order.
    for (l, &xl) in x.iter().enumerate() {
        if xl == 0.0 {
            continue;
        }
        vecops::axpy(xl, &v.row(l)[..k], &mut u_row[..k]);
    }
    for (j, u) in u_row[..k].iter_mut().enumerate() {
        if lambda[j] > 0.0 {
            *u /= lambda[j];
        } else {
            *u = 0.0;
        }
    }
}

/// Reject an empty source before any pass reads it: the one dimension
/// guard every SVD and SVDD build entry point goes through. Returns
/// `(rows, cols)`.
pub(crate) fn check_nonempty<S: RowSource + ?Sized>(source: &S) -> Result<(usize, usize)> {
    let (n, m) = (source.rows(), source.cols());
    if n == 0 || m == 0 {
        return Err(AtsError::InvalidArgument("empty matrix".into()));
    }
    Ok((n, m))
}

/// Emit `U = X V Λ⁻¹` (Eq. 11) for every row of `source` into `u`,
/// splitting the rows into disjoint contiguous bands written by `threads`
/// workers. Each worker owns a `&mut` band of `U`'s storage (via
/// [`Matrix::row_chunks_mut`]) and scans the matching row range of the
/// source, so no synchronization is needed and the output is bitwise
/// identical to the serial emission. Shared by plain-SVD pass 2 and SVDD
/// pass 3.
///
/// One band (a single inline scan) for `threads ≤ 1` or tiny inputs.
pub(crate) fn emit_u<S: RowSource + ?Sized>(
    source: &S,
    v: &Matrix,
    lambda: &[f64],
    u: &mut Matrix,
    threads: usize,
) -> Result<()> {
    let n = source.rows();
    let k = lambda.len();
    debug_assert_eq!(u.rows(), n);
    debug_assert_eq!(u.cols(), k);
    if k == 0 || n == 0 {
        return Ok(());
    }
    let chunk = if threads <= 1 || n < 2 * threads {
        n
    } else {
        n.div_ceil(threads)
    };
    let bands = u.row_chunks_mut(chunk);
    fork_join(bands, "svd projection", |(start, band)| {
        let mut off = 0;
        source.scan_range(start, start + band.len() / k, &mut |_, row| {
            project_row(row, v, lambda, &mut band[off..off + k]);
            off += k;
            Ok(())
        })
    })?;
    Ok(())
}

/// `out[j] = Σ_m λ_m u_m v[j][m]` — Eq. 12 for a whole row, walking `V`
/// row-wise (each output element is a dot over a contiguous `k`-slice).
/// Allocation-free; accumulates in ascending `m`, the canonical order every
/// reconstruction path in the workspace shares. Kept for callers that hold
/// `V` as a plain matrix (the append path); the serving path uses the
/// transposed-panel kernels in [`ats_linalg::kernels`] instead.
#[inline]
pub(crate) fn reconstruct_row(u_row: &[f64], lambda: &[f64], v: &Matrix, out: &mut [f64]) {
    for (j, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for ((&l, &u), &vv) in lambda.iter().zip(u_row).zip(v.row(j)) {
            acc = vecops::fmadd(l * u, vv, acc);
        }
        *o = acc;
    }
}

impl CompressedMatrix for SvdCompressed {
    fn rows(&self) -> usize {
        self.u.rows()
    }

    fn cols(&self) -> usize {
        self.v.rows()
    }

    /// Eq. 12: `x̂ᵢⱼ = Σ_{m=1}^{k} λ_m u_{i,m} v_{j,m}` — `O(k)`.
    fn cell(&self, i: usize, j: usize) -> Result<f64> {
        if i >= self.rows() {
            return Err(AtsError::oob("row", i, self.rows()));
        }
        if j >= self.cols() {
            return Err(AtsError::oob("column", j, self.cols()));
        }
        let ui = self.u.row(i);
        let vj = self.v.row(j);
        let mut acc = 0.0;
        for ((&u, &v), &l) in ui.iter().zip(vj).zip(&self.lambda) {
            acc = vecops::fmadd(l * u, v, acc);
        }
        Ok(acc)
    }

    fn row_into(&self, i: usize, out: &mut [f64]) -> Result<()> {
        if i >= self.rows() {
            return Err(AtsError::oob("row", i, self.rows()));
        }
        if out.len() != self.cols() {
            return Err(AtsError::dims(
                "SvdCompressed::row_into",
                (1, out.len()),
                (1, self.cols()),
            ));
        }
        kernels::reconstruct_row(self.u.row(i), &self.lambda, &self.vt, out);
        Ok(())
    }

    /// One `U`-row lookup, then the fused-coefficient multi-cell kernel
    /// (blocks of four columns share the `λ ⊙ uᵢ` vector).
    fn cells_in_row(&self, i: usize, cols: &[usize], out: &mut [f64]) -> Result<()> {
        if i >= self.rows() {
            return Err(AtsError::oob("row", i, self.rows()));
        }
        if out.len() != cols.len() {
            return Err(AtsError::dims(
                "SvdCompressed::cells_in_row",
                (1, out.len()),
                (1, cols.len()),
            ));
        }
        let m = self.cols();
        for &j in cols {
            if j >= m {
                return Err(AtsError::oob("column", j, m));
            }
        }
        let mut coef = vec![0.0; self.k()];
        kernels::fuse_coefficients(&self.lambda, self.u.row(i), &mut coef);
        kernels::reconstruct_cells(&coef, &self.v, cols, out)
    }

    /// Blocked multi-row reconstruction: [`kernels::BLOCK_ROWS`] `U` rows
    /// are packed into a scratch block and share one sweep over each `Vᵀ`
    /// component slice. All row indices are validated before `out` is
    /// touched.
    fn rows_into(&self, rows: &[usize], out: &mut [f64]) -> Result<()> {
        let m = self.cols();
        if out.len() != rows.len() * m {
            return Err(AtsError::dims(
                "SvdCompressed::rows_into",
                (rows.len(), m),
                (out.len() / m.max(1), m),
            ));
        }
        let n = self.rows();
        for &i in rows {
            if i >= n {
                return Err(AtsError::oob("row", i, n));
            }
        }
        let k = self.k();
        if m == 0 {
            return Ok(());
        }
        if k == 0 {
            out.fill(0.0);
            return Ok(());
        }
        let mut ublock = vec![0.0; kernels::BLOCK_ROWS * k];
        for (rchunk, ochunk) in rows
            .chunks(kernels::BLOCK_ROWS)
            .zip(out.chunks_mut(kernels::BLOCK_ROWS * m))
        {
            let ub = &mut ublock[..rchunk.len() * k];
            for (&i, udst) in rchunk.iter().zip(ub.chunks_mut(k)) {
                udst.copy_from_slice(self.u.row(i));
            }
            kernels::reconstruct_rows(ub, &self.lambda, &self.vt, ochunk)?;
        }
        Ok(())
    }

    fn storage_bytes(&self) -> usize {
        svd_bytes(self.rows(), self.cols(), self.k())
    }

    fn method_name(&self) -> &'static str {
        "svd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_linalg::{Svd, SvdOptions};
    use rand::{Rng, SeedableRng};

    fn random_lowish_rank(n: usize, m: usize, seed: u64) -> Matrix {
        // rank-3 structure + noise
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_fn(n, 3, |_, _| rng.gen_range(-2.0..2.0));
        let b = Matrix::from_fn(3, m, |_, _| rng.gen_range(-2.0..2.0));
        let mut x = a.matmul(&b).unwrap();
        for v in x.as_mut_slice() {
            *v += rng.gen_range(-0.01..0.01);
        }
        x
    }

    #[test]
    fn two_pass_matches_in_memory_svd() {
        let x = random_lowish_rank(60, 10, 1);
        let c = SvdCompressed::compress(&x, 5, 1).unwrap();
        let mut reference = Svd::compute(&x, SvdOptions::default()).unwrap();
        reference.truncate(5);
        for i in 0..60 {
            for j in 0..10 {
                let got = c.cell(i, j).unwrap();
                let want = reference.reconstruct_cell(i, j);
                assert!((got - want).abs() < 1e-6, "({i},{j}): {got} vs {want}");
            }
        }
    }

    #[test]
    fn full_rank_is_near_lossless() {
        let x = random_lowish_rank(40, 8, 2);
        let c = SvdCompressed::compress(&x, 8, 1).unwrap();
        for i in 0..40 {
            let mut row = vec![0.0; 8];
            c.row_into(i, &mut row).unwrap();
            for (a, b) in row.iter().zip(x.row(i)) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn k_clamped_to_rank() {
        // exactly rank-3 data: asking for 7 components keeps only ~3
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = Matrix::from_fn(30, 3, |_, _| rng.gen_range(-2.0..2.0));
        let b = Matrix::from_fn(3, 9, |_, _| rng.gen_range(-2.0..2.0));
        let x = a.matmul(&b).unwrap();
        let c = SvdCompressed::compress(&x, 7, 1).unwrap();
        assert!(c.k() <= 3, "kept {} components for rank-3 data", c.k());
        // ... and still reconstructs exactly (it is the full rank)
        for i in (0..30).step_by(7) {
            for j in 0..9 {
                assert!((c.cell(i, j).unwrap() - x[(i, j)]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn budget_constructor_obeys_space() {
        let x = random_lowish_rank(200, 20, 4);
        let budget = SpaceBudget::from_percent(20.0);
        let c = SvdCompressed::compress_budget(&x, budget, 1).unwrap();
        assert!(c.storage_bytes() <= budget.bytes(200, 20));
        assert!(c.space_ratio() <= 0.20 + 1e-9);
    }

    #[test]
    fn budget_too_small_errors() {
        let x = random_lowish_rank(50, 10, 5);
        let e = SvdCompressed::compress_budget(&x, SpaceBudget { fraction: 1e-6 }, 1);
        assert!(matches!(e, Err(AtsError::Budget(_))));
        assert!(SvdCompressed::compress(&x, 0, 1).is_err());
    }

    #[test]
    fn error_decreases_with_k() {
        let x = random_lowish_rank(80, 12, 6);
        let mut prev = f64::INFINITY;
        for k in [1usize, 2, 3, 6, 12] {
            let c = SvdCompressed::compress(&x, k, 1).unwrap();
            let mut sse = 0.0;
            let mut row = vec![0.0; 12];
            for i in 0..80 {
                c.row_into(i, &mut row).unwrap();
                for (a, b) in row.iter().zip(x.row(i)) {
                    sse += (a - b) * (a - b);
                }
            }
            assert!(sse <= prev + 1e-9, "error increased at k={k}");
            prev = sse;
        }
    }

    #[test]
    fn oob_and_shape_errors() {
        let x = random_lowish_rank(10, 5, 7);
        let c = SvdCompressed::compress(&x, 2, 1).unwrap();
        assert!(c.cell(10, 0).is_err());
        assert!(c.cell(0, 5).is_err());
        let mut wrong = vec![0.0; 4];
        assert!(c.row_into(0, &mut wrong).is_err());
        assert!(c.row_into(10, &mut [0.0; 5]).is_err());
    }

    #[test]
    fn lanczos_engine_matches_dense() {
        let x = random_lowish_rank(120, 16, 21);
        let dense = SvdCompressed::compress_with_engine(&x, 3, 1, EigenEngine::Dense).unwrap();
        let lz = SvdCompressed::compress_with_engine(&x, 3, 1, EigenEngine::Lanczos).unwrap();
        assert_eq!(dense.k(), lz.k());
        for i in (0..120).step_by(11) {
            for j in 0..16 {
                let a = dense.cell(i, j).unwrap();
                let b = lz.cell(i, j).unwrap();
                assert!(
                    (a - b).abs() < 1e-6 * a.abs().max(1.0),
                    "({i},{j}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn parallel_pass1_same_result() {
        let x = random_lowish_rank(150, 9, 8);
        let c1 = SvdCompressed::compress(&x, 4, 1).unwrap();
        let c4 = SvdCompressed::compress(&x, 4, 4).unwrap();
        for i in (0..150).step_by(13) {
            for j in 0..9 {
                assert_eq!(
                    c1.cell(i, j).unwrap().to_bits(),
                    c4.cell(i, j).unwrap().to_bits()
                );
            }
        }
    }

    #[test]
    fn storage_bytes_eq9() {
        let x = random_lowish_rank(100, 10, 9);
        let c = SvdCompressed::compress(&x, 4, 1).unwrap();
        assert_eq!(c.storage_bytes(), (100 * 4 + 4 + 4 * 10) * 8);
        assert_eq!(c.method_name(), "svd");
    }

    #[test]
    fn truncate_reduces_k_and_storage() {
        let x = random_lowish_rank(50, 10, 10);
        let mut c = SvdCompressed::compress(&x, 6, 1).unwrap();
        let before = c.storage_bytes();
        c.truncate(2);
        assert_eq!(c.k(), 2);
        assert!(c.storage_bytes() < before);
        // still works
        c.cell(0, 0).unwrap();
    }

    #[test]
    fn works_from_disk_source_with_two_passes() {
        let dir = ats_common::TestDir::new("ats-svd2p");
        let path = dir.file("x.atsm");
        let x = random_lowish_rank(120, 8, 11);
        ats_storage::file::write_matrix(&path, &x).unwrap();
        let f = ats_storage::MatrixFile::open(&path).unwrap();
        let c = SvdCompressed::compress(&f, 3, 1).unwrap();
        // exactly two sequential passes over N rows
        assert_eq!(f.stats().logical_reads(), 2 * 120);
        let reference = SvdCompressed::compress(&x, 3, 1).unwrap();
        for i in (0..120).step_by(17) {
            for j in 0..8 {
                assert_eq!(
                    c.cell(i, j).unwrap().to_bits(),
                    reference.cell(i, j).unwrap().to_bits()
                );
            }
        }
    }
}
