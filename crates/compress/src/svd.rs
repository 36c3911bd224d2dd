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
//!
//! Every builder (SVD, SVDD, the [`crate::append`] paths, [`crate::quantized`])
//! shares this module's one pass-1 epilogue (`leading_factors`) and one
//! Eq. 11 loop (`emit_u`); Eq. 12 lives in [`ats_linalg::kernels`].

use crate::gram::{compute_gram_sharded, shard_ranges};
use crate::method::{svd_bytes, CompressedMatrix, SpaceBudget};
use crate::par::fork_join;
use ats_common::{AtsError, Result};
use ats_linalg::kernels::{self, VPanel};
use ats_linalg::vecops;
use ats_linalg::{sym_eigen, EigenDecomposition, Matrix};
use ats_storage::RowSource;

/// A matrix compressed by truncated SVD.
///
/// # Examples
///
/// ```
/// use ats_compress::SvdCompressed;
/// use ats_linalg::Matrix;
/// // The paper's Table 1 toy matrix: two "blobs".
/// let x = Matrix::from_rows(vec![
///     vec![1., 1., 1., 0., 0.],
///     vec![2., 2., 2., 0., 0.],
///     vec![1., 1., 1., 0., 0.],
///     vec![5., 5., 5., 0., 0.],
///     vec![0., 0., 0., 2., 2.],
///     vec![0., 0., 0., 3., 3.],
///     vec![0., 0., 0., 1., 1.],
/// ]).unwrap();
/// let svd = SvdCompressed::compress(&x, 5, 1).unwrap();
/// assert_eq!(svd.k(), 2); // weekday + weekend patterns: k clamps to the rank
/// assert!((svd.lambda()[0] - 9.64).abs() < 0.01); // Eq. 5
/// assert!((svd.lambda()[1] - 5.29).abs() < 0.01);
/// ```
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
        Self::compress_sharded(source, k, threads, &shard_ranges(source.rows(), 1))
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
        check_nonempty(source)?;
        if k == 0 {
            return Err(AtsError::Budget(
                "SVD with k = 0 components stores nothing".into(),
            ));
        }
        let c = compute_gram_sharded(source, ranges, threads)?;
        Self::from_gram(&c, source, k, threads)
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

    /// Everything after the Gram pass, for every plain-SVD build: the
    /// eigendecomposition of `c = XᵀX` (Lemma 3.2), `k` clamped to the
    /// numerical rank, the leading factors, and pass 2 over `source`
    /// (`U = X V Λ⁻¹`, Fig. 3) on `threads` workers.
    pub(crate) fn from_gram<S: RowSource + ?Sized>(
        c: &Matrix,
        source: &S,
        k: usize,
        threads: usize,
    ) -> Result<Self> {
        let eig = sym_eigen(c)?;
        let k = k.min(numerical_rank(&eig).max(1)).min(c.rows());
        let (lambda, v) = leading_factors(&eig, k)?;
        let mut u = Matrix::zeros(source.rows(), k);
        emit_u(source, &v, &lambda, &mut u, threads)?;
        Ok(Self::from_parts(u, lambda, v))
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

    /// Truncate in place to the leading `k` components (no-op for
    /// `k ≥ self.k()`).
    pub fn truncate(&mut self, k: usize) -> Result<()> {
        let k = k.min(self.k());
        let lambda = self.lambda[..k].to_vec();
        *self = Self::from_parts(self.u.slice_cols(0, k)?, lambda, self.v.slice_cols(0, k)?);
        Ok(())
    }
}

/// The numerical rank of `XᵀX`'s eigendecomposition: how many singular
/// values `√λ` exceed `1e-6·σ₁`.
///
/// The Gram route computes the eigenvalues of `XᵀX` with absolute error
/// `~eps·σ₁²`, so an exactly rank-deficient `X` shows spurious singular
/// values at `σ ≈ √eps·σ₁ ≈ 1.5e-8·σ₁`; the cut sits two decades above
/// that. A noise component kept past it would blow up `U = X V Λ⁻¹`.
/// Measured against an SVD that never forms `XᵀX` (the test
/// `gram_route_drift_at_kappa_1e7`, κ = 1e7), the kept σ drift by at
/// most `10·eps·(σ₁/σ)²` relative — 5.4e-6 at `σ = 3e-6·σ₁` — while the
/// first dropped one (`1e-7·σ₁`) is already off by 2.7e-3.
///
/// [`SvdCompressed::from_gram`] keeps at least one component even when
/// this is 0 (an all-zero input), because an `N × 0` `U` cannot be
/// saved: `Matrix::iter_rows` cannot chunk zero-width rows (the `.atsm`
/// writer walks them), and the `.atsm` header decoder refuses a file of
/// rows and zero columns as corrupt. A rank-0 input therefore stores
/// one `λ = 0` component and `N` zeros of `U`, and serves `+0.0`
/// everywhere (the golden corpus's all-zero stores).
pub(crate) fn numerical_rank(eig: &EigenDecomposition) -> usize {
    let sigma = |l: f64| l.max(0.0).sqrt();
    let cutoff = 1e-6 * eig.values.first().map_or(0.0, |&l| sigma(l)).max(1e-300);
    eig.values
        .iter()
        .take_while(|&&l| sigma(l) > cutoff)
        .count()
}

/// The pass-1 epilogue: the leading `k` singular values `Λ = √λ` and
/// right singular vectors `V` (`M × k`) of an eigendecomposition of
/// `XᵀX` — the only place `(Λ, V)` are cut from one.
pub(crate) fn leading_factors(eig: &EigenDecomposition, k: usize) -> Result<(Vec<f64>, Matrix)> {
    let v = eig.vectors.slice_cols(0, k)?;
    let lambda = eig
        .values
        .iter()
        .take(k)
        .map(|&l| l.max(0.0).sqrt())
        .collect();
    Ok((lambda, v))
}

/// `u_row[j] = (x · v_j) / λ_j` — Eq. 11 for one row.
#[inline]
fn project_row(x: &[f64], v: &Matrix, lambda: &[f64], u_row: &mut [f64]) {
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
/// identical to the serial emission. The one Eq. 11 loop: every builder
/// and the frozen-factor row projection emit `U` through it.
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
        Ok(kernels::reconstruct_cell(
            &self.lambda,
            self.u.row(i),
            self.v.row(j),
        ))
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
    use ats_common::testutil::jacobi_svd;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The oracle's singular values and `V` (row-major `M × M`) of `x`.
    fn oracle(x: &Matrix) -> (Vec<f64>, Vec<f64>) {
        jacobi_svd(x.as_slice(), x.rows(), x.cols())
    }

    /// The paper's Table 1 toy matrix: two "blobs".
    fn table1() -> Matrix {
        Matrix::from_rows(vec![
            vec![1., 1., 1., 0., 0.],
            vec![2., 2., 2., 0., 0.],
            vec![1., 1., 1., 0., 0.],
            vec![5., 5., 5., 0., 0.],
            vec![0., 0., 0., 2., 2.],
            vec![0., 0., 0., 3., 3.],
            vec![0., 0., 0., 1., 1.],
        ])
        .unwrap()
    }

    fn uniform(n: usize, m: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::from_fn(n, m, |_, _| rng.gen_range(-2.0..2.0))
    }

    /// `cols` orthonormal columns of length `rows`: Gram–Schmidt, run
    /// twice so the columns are orthonormal to working precision.
    fn orthonormal_cols(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut q = uniform(rows, cols, seed);
        for _ in 0..2 {
            for j in 0..cols {
                for p in 0..j {
                    let d: f64 = (0..rows).map(|i| q[(i, j)] * q[(i, p)]).sum();
                    for i in 0..rows {
                        q[(i, j)] -= d * q[(i, p)];
                    }
                }
                let norm = (0..rows).map(|i| q[(i, j)].powi(2)).sum::<f64>().sqrt();
                for i in 0..rows {
                    q[(i, j)] /= norm;
                }
            }
        }
        q
    }

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
        // The oracle's rank-k reconstruction X V_k V_kᵀ, formed without XᵀX.
        let x = random_lowish_rank(60, 10, 1);
        let c = SvdCompressed::compress(&x, 5, 1).unwrap();
        let (_, v) = oracle(&x);
        for i in 0..60 {
            let coord: Vec<f64> = (0..5)
                .map(|l| (0..10).map(|j| x[(i, j)] * v[j * 10 + l]).sum())
                .collect();
            for j in 0..10 {
                let got = c.cell(i, j).unwrap();
                let want: f64 = (0..5).map(|l| coord[l] * v[j * 10 + l]).sum();
                assert!((got - want).abs() < 1e-6, "({i},{j}): {got} vs {want}");
            }
        }
    }

    #[test]
    fn table1_rank_and_singular_values() {
        // Eq. 5 of the paper: λ₁ = 9.64, λ₂ = 5.29.
        let c = SvdCompressed::compress(&table1(), 5, 1).unwrap();
        assert_eq!(c.k(), 2);
        assert!((c.lambda()[0] - 9.643650).abs() < 1e-3);
        assert!((c.lambda()[1] - 5.291502).abs() < 1e-3);
    }

    #[test]
    fn table1_u_matches_paper() {
        // First column of U from Eq. 5: (.18, .36, .18, .90, 0, 0, 0).
        let c = SvdCompressed::compress(&table1(), 5, 1).unwrap();
        let expect0 = [0.1796, 0.3592, 0.1796, 0.8980, 0.0, 0.0, 0.0];
        for (i, want) in expect0.iter().enumerate() {
            let got = c.u()[(i, 0)];
            assert!((got.abs() - want).abs() < 1e-3, "u[{i},0] = {got}");
        }
        // Second pattern: weekend customers (.53, .80, .27).
        let expect1 = [0.0, 0.0, 0.0, 0.0, 0.5345, 0.8018, 0.2673];
        for (i, want) in expect1.iter().enumerate() {
            assert!((c.u()[(i, 1)].abs() - want).abs() < 1e-3);
        }
    }

    #[test]
    fn table1_v_matches_paper() {
        // V column 1 ≈ (.58,.58,.58,0,0); column 2 ≈ (0,0,0,.71,.71).
        let c = SvdCompressed::compress(&table1(), 5, 1).unwrap();
        let v = c.v();
        for j in 0..3 {
            assert!((v[(j, 0)].abs() - 0.5774).abs() < 1e-3);
            assert!(v[(j, 1)].abs() < 1e-8);
        }
        for j in 3..5 {
            assert!(v[(j, 0)].abs() < 1e-8);
            assert!((v[(j, 1)].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        }
    }

    #[test]
    fn u_and_v_column_orthonormal() {
        let x = uniform(40, 7, 8);
        let c = SvdCompressed::compress(&x, 7, 1).unwrap();
        let eye = Matrix::identity(c.k());
        assert!(c
            .u()
            .transpose()
            .matmul(c.u())
            .unwrap()
            .approx_eq(&eye, 1e-7));
        assert!(c
            .v()
            .transpose()
            .matmul(c.v())
            .unwrap()
            .approx_eq(&eye, 1e-7));
    }

    #[test]
    fn zero_matrix_rank_zero() {
        // No component carries energy, and every cell is +0.0, not -0.0.
        // One λ = 0 component stays (see `numerical_rank`'s doc).
        let c = SvdCompressed::compress(&Matrix::zeros(5, 3), 3, 1).unwrap();
        assert_eq!(c.k(), 1);
        assert!(c.lambda().iter().all(|&l| l == 0.0));
        for i in 0..5 {
            for j in 0..3 {
                assert_eq!(c.cell(i, j).unwrap().to_bits(), 0.0f64.to_bits());
            }
        }
    }

    #[test]
    fn oracle_agrees_with_lambda_on_well_conditioned_inputs() {
        for x in [
            table1(),
            uniform(40, 7, 8),
            uniform(20, 6, 5),
            uniform(30, 8, 7),
        ] {
            let c = SvdCompressed::compress(&x, x.cols(), 1).unwrap();
            let (sigma, _) = oracle(&x);
            for (j, (&got, &want)) in c.lambda().iter().zip(&sigma).enumerate() {
                let rel = (got - want).abs() / want;
                assert!(rel < 1e-10, "σ{j}: {got} vs {want}, rel {rel:.1e}");
            }
        }
    }

    #[test]
    fn gram_route_drift_at_kappa_1e7() {
        // X = P Σ Qᵀ with σ from 1 down to 1e-7 (κ = 1e7, κ(XᵀX) = 1e14).
        let known = [1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 3e-6, 1e-7];
        let (p, q) = (orthonormal_cols(40, 8, 21), orthonormal_cols(8, 8, 22));
        let x = Matrix::from_fn(40, 8, |i, j| {
            (0..8).map(|l| p[(i, l)] * known[l] * q[(j, l)]).sum()
        });
        // The oracle recovers every σ, the smallest to 3.6e-11 relative.
        let (sigma, _) = oracle(&x);
        for (l, (&got, &want)) in sigma.iter().zip(&known).enumerate() {
            assert!((got - want).abs() < 1e-9 * want, "oracle σ{l}: {got}");
        }
        // The Gram route's eigenvalues carry ~eps·σ₁² absolute error, so
        // its σ drift by ~eps·(σ₁/σ)² relative: measured 1.8e-6 (x.gram())
        // and 5.4e-6 (the production build) at σ = 3e-6, 2.7e-3 at 1e-7.
        let eig = sym_eigen(&x.gram()).unwrap();
        let c = SvdCompressed::compress(&x, 8, 1).unwrap();
        // The 1e-6·σ₁ cut keeps the seven components above it, ...
        assert_eq!(numerical_rank(&eig), 7);
        assert_eq!(c.k(), 7);
        let drift = |got: f64, l: usize| (got - sigma[l]).abs() / sigma[l];
        for l in 0..7 {
            let bound = (10.0 * f64::EPSILON * (sigma[0] / sigma[l]).powi(2)).min(1e-4);
            let gram = eig.values[l].sqrt();
            assert!(
                drift(gram, l) <= bound,
                "σ{l}: Gram drift {:.1e}",
                drift(gram, l)
            );
            let built = c.lambda()[l];
            assert!(
                drift(built, l) <= bound,
                "σ{l}: built drift {:.1e}",
                drift(built, l)
            );
        }
        // ... and drops the one the Gram route no longer resolves.
        assert!(drift(eig.values[7].max(0.0).sqrt(), 7) > 1e-4);
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
        c.truncate(2).unwrap();
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

    fn rectangular(max_n: usize, max_m: usize) -> impl Strategy<Value = Matrix> {
        (1usize..max_n, 1usize..max_m).prop_flat_map(|(n, m)| {
            proptest::collection::vec(-50.0f64..50.0, n * m)
                .prop_map(move |data| Matrix::from_vec(n, m, data).unwrap())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn svd_full_rank_roundtrip(x in rectangular(12, 8)) {
            let c = SvdCompressed::compress(&x, x.cols(), 1).unwrap();
            let scale = x.max_abs().max(1.0);
            let mut row = vec![0.0; x.cols()];
            for i in 0..x.rows() {
                c.row_into(i, &mut row).unwrap();
                for (a, b) in row.iter().zip(x.row(i)) {
                    prop_assert!((a - b).abs() <= 1e-7 * scale);
                }
            }
        }

        #[test]
        fn svd_projection_norm_bounded(x in rectangular(12, 8)) {
            // A row's principal-component coordinates (UΛ)ᵢ = xᵢ V have
            // ‖xᵢ V‖ ≤ ‖xᵢ‖, since V has orthonormal columns.
            let c = SvdCompressed::compress(&x, x.cols(), 1).unwrap();
            let norm = |v: &mut dyn Iterator<Item = f64>| v.map(|e| e * e).sum::<f64>().sqrt();
            for i in 0..x.rows() {
                let pn = norm(&mut c.u().row(i).iter().zip(c.lambda()).map(|(u, l)| u * l));
                let rn = norm(&mut x.row(i).iter().copied());
                prop_assert!(pn <= rn * (1.0 + 1e-9) + 1e-9);
            }
        }
    }
}
