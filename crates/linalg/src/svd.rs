//! Singular value decomposition via the Gram-matrix route.
//!
//! This is the in-memory form of the paper's §4.1 algorithm. By Lemma 3.2
//! the eigenvectors of `C = XᵀX` are the right singular vectors `V` of `X`
//! and its eigenvalues are `λᵢ²`; given those, `U = X V Λ⁻¹` (Eq. 10).
//! This route costs `O(N M²)` to form `C` plus `O(M³)` for the small
//! eigenproblem — the right trade-off when `N ≫ M` (Eq. 1), and the only
//! one compatible with the two-pass out-of-core computation.
//!
//! Truncation to the top `k` terms (Eq. 8) and cell reconstruction
//! (Eq. 12) are provided on the resulting [`Svd`].

use crate::eigen::sym_eigen;
use crate::matrix::Matrix;
use crate::vecops;
use ats_common::{AtsError, Result};

/// Options controlling [`Svd::compute`].
#[derive(Debug, Clone, Copy)]
pub struct SvdOptions {
    /// Relative rank cutoff: singular values below
    /// `rank_tol × σ_max` are treated as zero and dropped.
    pub rank_tol: f64,
}

impl Default for SvdOptions {
    fn default() -> Self {
        // The Gram route computes eigenvalues of XᵀX with absolute error
        // ~eps·λ₁², so spurious singular values appear at
        // σ ≈ sqrt(eps)·σ₁ ≈ 1.5e-8·σ₁. Cut two decades above that.
        SvdOptions { rank_tol: 1e-6 }
    }
}

/// A (possibly truncated) singular value decomposition `X ≈ U Σ Vᵀ`.
///
/// `U` is `N × r` column-orthonormal, `sigma` holds the `r` singular
/// values in descending order, `V` is `M × r` column-orthonormal — the
/// paper's `U`, `Λ`, `V` (Theorem 3.1).
///
/// # Examples
///
/// ```
/// use ats_linalg::{Matrix, Svd, SvdOptions};
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
/// let svd = Svd::compute(&x, SvdOptions::default()).unwrap();
/// assert_eq!(svd.rank(), 2); // weekday + weekend patterns
/// assert!((svd.sigma()[0] - 9.64).abs() < 0.01); // Eq. 5
/// assert!((svd.sigma()[1] - 5.29).abs() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct Svd {
    u: Matrix,
    sigma: Vec<f64>,
    v: Matrix,
}

impl Svd {
    /// Compute the SVD of `x` via `C = XᵀX` (in memory).
    ///
    /// Near-zero singular values (per [`SvdOptions::rank_tol`]) are
    /// dropped, so `rank()` reports the numerical rank. An all-zero matrix
    /// yields rank 0.
    pub fn compute(x: &Matrix, opts: SvdOptions) -> Result<Self> {
        if !x.is_finite() {
            return Err(AtsError::Numerical(
                "Svd::compute: input contains NaN or infinity".into(),
            ));
        }
        let eig = sym_eigen(&x.gram())?;
        Self::from_gram_eigen(x, &eig.values, &eig.vectors, opts)
    }

    /// Assemble the SVD from a precomputed eigendecomposition of the Gram
    /// matrix (`values` = λ², `vectors` = V columns, both sorted
    /// descending). This is the entry point for the out-of-core two-pass
    /// path, where the caller computed the Gram matrix in a streaming pass.
    pub fn from_gram_eigen(
        x: &Matrix,
        values: &[f64],
        vectors: &Matrix,
        opts: SvdOptions,
    ) -> Result<Self> {
        let m = x.cols();
        if values.len() != m || vectors.shape() != (m, m) {
            return Err(AtsError::dims(
                "Svd::from_gram_eigen",
                vectors.shape(),
                (m, m),
            ));
        }
        let sigma_all: Vec<f64> = values.iter().map(|&l| l.max(0.0).sqrt()).collect();
        let smax = sigma_all.first().copied().unwrap_or(0.0);
        let cutoff = opts.rank_tol * smax;
        let r = sigma_all
            .iter()
            .take_while(|&&s| s > cutoff && s > 0.0)
            .count();

        let mut v = Matrix::zeros(m, r);
        for j in 0..r {
            for i in 0..m {
                v[(i, j)] = vectors[(i, j)];
            }
        }
        // U = X V Σ⁻¹, one row of X at a time (Eq. 11).
        let n = x.rows();
        let mut u = Matrix::zeros(n, r);
        for i in 0..n {
            let xi = x.row(i);
            let ui = u.row_mut(i);
            for j in 0..r {
                let mut acc = 0.0;
                for l in 0..m {
                    acc = vecops::fmadd(xi[l], v[(l, j)], acc);
                }
                ui[j] = acc / sigma_all[j];
            }
        }
        Ok(Svd {
            u,
            sigma: sigma_all[..r].to_vec(),
            v,
        })
    }

    /// The left singular vectors (`N × r`, "customer-to-pattern
    /// similarity", Observation 3.1).
    pub fn u(&self) -> &Matrix {
        &self.u
    }

    /// The singular values, descending (the paper's λᵢ).
    pub fn sigma(&self) -> &[f64] {
        &self.sigma
    }

    /// The right singular vectors (`M × r`, "day-to-pattern similarity",
    /// Observation 3.2).
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// Number of retained components.
    pub fn rank(&self) -> usize {
        self.sigma.len()
    }

    /// Truncate to the top `k` principal components (Eq. 8). A `k` larger
    /// than the current rank is a no-op.
    pub fn truncate(&mut self, k: usize) {
        let k = k.min(self.rank());
        self.sigma.truncate(k);
        let (n, m) = (self.u.rows(), self.v.rows());
        let mut u = Matrix::zeros(n, k);
        for i in 0..n {
            u.row_mut(i).copy_from_slice(&self.u.row(i)[..k]);
        }
        let mut v = Matrix::zeros(m, k);
        for i in 0..m {
            v.row_mut(i).copy_from_slice(&self.v.row(i)[..k]);
        }
        self.u = u;
        self.v = v;
    }

    /// Reconstruct cell `(i, j)` — Eq. 12: `Σ_m λ_m u_{i,m} v_{j,m}`.
    /// `O(k)` time, independent of `N` and `M`.
    #[inline]
    pub fn reconstruct_cell(&self, i: usize, j: usize) -> f64 {
        let ui = self.u.row(i);
        let vj = self.v.row(j);
        ui.iter()
            .zip(vj)
            .zip(&self.sigma)
            .fold(0.0, |acc, ((&u, &v), &s)| vecops::fmadd(s * u, v, acc))
    }

    /// Reconstruct row `i` into `out` (length `M`).
    ///
    /// Allocation-free: each output element is a `k`-term dot over the
    /// contiguous row `j` of `V`, accumulated in ascending component order —
    /// the same FP sequence as [`Svd::reconstruct_cell`], so the two agree
    /// bitwise (a regression test in `tests/alloc_regression.rs` pins the
    /// zero-allocation property).
    pub fn reconstruct_row_into(&self, i: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.v.rows());
        let ui = self.u.row(i);
        for (j, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for ((&s, &uim), &vjm) in self.sigma.iter().zip(ui).zip(self.v.row(j)) {
                acc = vecops::fmadd(s * uim, vjm, acc);
            }
            *o = acc;
        }
    }

    /// Reconstruct the full matrix `X̂ = U Σ Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        let n = self.u.rows();
        let m = self.v.rows();
        let mut out = Matrix::zeros(n, m);
        for i in 0..n {
            let mut row = vec![0.0; m];
            self.reconstruct_row_into(i, &mut row);
            out.row_mut(i).copy_from_slice(&row);
        }
        out
    }

    /// Fraction of total "energy" `Σλᵢ²` captured by the first `k`
    /// components — the usual guide for picking the cutoff.
    pub fn energy(&self, k: usize) -> f64 {
        let total: f64 = self.sigma.iter().map(|s| s * s).sum();
        if total == 0.0 {
            return 1.0;
        }
        let head: f64 = self.sigma.iter().take(k).map(|s| s * s).sum();
        head / total
    }

    /// Project a new `M`-vector into the `k`-dimensional PC space
    /// (coordinates `x·v_j` — Observation 3.4 divided by nothing; these
    /// are the `U Λ` coordinates used for visualization, Appendix A).
    pub fn project(&self, x: &[f64], k: usize) -> Result<Vec<f64>> {
        if x.len() != self.v.rows() {
            return Err(AtsError::dims(
                "Svd::project",
                (x.len(), 1),
                (self.v.rows(), 1),
            ));
        }
        let k = k.min(self.rank());
        Ok((0..k)
            .map(|j| (0..x.len()).map(|l| x[l] * self.v[(l, j)]).sum())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn table1_rank_and_singular_values() {
        // Eq. 5 of the paper: λ₁ = 9.64, λ₂ = 5.29.
        let svd = Svd::compute(&table1(), SvdOptions::default()).unwrap();
        assert_eq!(svd.rank(), 2);
        assert!((svd.sigma()[0] - 9.643650).abs() < 1e-3);
        assert!((svd.sigma()[1] - 5.291502).abs() < 1e-3);
    }

    #[test]
    fn table1_u_matches_paper() {
        // First column of U from Eq. 5: (.18, .36, .18, .90, 0, 0, 0).
        let svd = Svd::compute(&table1(), SvdOptions::default()).unwrap();
        let expect0 = [0.1796, 0.3592, 0.1796, 0.8980, 0.0, 0.0, 0.0];
        for (i, want) in expect0.iter().enumerate() {
            assert!(
                (svd.u()[(i, 0)].abs() - want).abs() < 1e-3,
                "u[{i},0] = {}",
                svd.u()[(i, 0)]
            );
        }
        // Second pattern: weekend customers (.53, .80, .27).
        let expect1 = [0.0, 0.0, 0.0, 0.0, 0.5345, 0.8018, 0.2673];
        for (i, want) in expect1.iter().enumerate() {
            assert!((svd.u()[(i, 1)].abs() - want).abs() < 1e-3);
        }
    }

    #[test]
    fn table1_v_matches_paper() {
        // V column 1 ≈ (.58,.58,.58,0,0); column 2 ≈ (0,0,0,.71,.71).
        let svd = Svd::compute(&table1(), SvdOptions::default()).unwrap();
        let v = svd.v();
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
    fn full_rank_reconstruction_exact() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let x = Matrix::from_fn(20, 6, |_, _| rng.gen_range(-3.0..3.0));
        let svd = Svd::compute(&x, SvdOptions::default()).unwrap();
        assert_eq!(svd.rank(), 6);
        assert!(svd.reconstruct().approx_eq(&x, 1e-8));
    }

    #[test]
    fn cell_reconstruction_matches_full() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let x = Matrix::from_fn(10, 5, |_, _| rng.gen_range(0.0..10.0));
        let svd = Svd::compute(&x, SvdOptions::default()).unwrap();
        let full = svd.reconstruct();
        for i in 0..10 {
            for j in 0..5 {
                assert!((svd.reconstruct_cell(i, j) - full[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn truncation_is_best_rank_k_energy() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let x = Matrix::from_fn(30, 8, |_, _| rng.gen_range(-1.0..1.0));
        let svd_full = Svd::compute(&x, SvdOptions::default()).unwrap();
        // Eckart–Young: truncation error equals sqrt of tail eigenvalue sum.
        for k in 1..8 {
            let mut t = svd_full.clone();
            t.truncate(k);
            assert_eq!(t.rank(), k);
            let err = t.reconstruct().sub(&x).unwrap().frobenius_norm();
            let tail: f64 = svd_full.sigma()[k..].iter().map(|s| s * s).sum();
            assert!(
                (err - tail.sqrt()).abs() < 1e-6,
                "k={k}: {err} vs {}",
                tail.sqrt()
            );
        }
    }

    #[test]
    fn u_and_v_column_orthonormal() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let x = Matrix::from_fn(40, 7, |_, _| rng.gen_range(-2.0..2.0));
        let svd = Svd::compute(&x, SvdOptions::default()).unwrap();
        let r = svd.rank();
        let utu = svd.u().transpose().matmul(svd.u()).unwrap();
        assert!(utu.approx_eq(&Matrix::identity(r), 1e-7));
        let vtv = svd.v().transpose().matmul(svd.v()).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(r), 1e-7));
    }

    #[test]
    fn zero_matrix_rank_zero() {
        let svd = Svd::compute(&Matrix::zeros(5, 3), SvdOptions::default()).unwrap();
        assert_eq!(svd.rank(), 0);
        assert!(svd.reconstruct().approx_eq(&Matrix::zeros(5, 3), 1e-15));
        assert_eq!(svd.reconstruct_cell(4, 2), 0.0);
        assert_eq!(svd.energy(0), 1.0);
    }

    #[test]
    fn rank_deficient_detected() {
        // Two identical columns => rank 1 for a rank-1 construction.
        let x = Matrix::from_fn(10, 4, |i, _| (i + 1) as f64);
        let svd = Svd::compute(&x, SvdOptions::default()).unwrap();
        assert_eq!(svd.rank(), 1);
        assert!(svd.reconstruct().approx_eq(&x, 1e-8));
    }

    #[test]
    fn energy_monotone_to_one() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let x = Matrix::from_fn(20, 5, |_, _| rng.gen_range(0.0..4.0));
        let svd = Svd::compute(&x, SvdOptions::default()).unwrap();
        let mut prev = 0.0;
        for k in 0..=svd.rank() {
            let e = svd.energy(k);
            assert!(e >= prev - 1e-12);
            prev = e;
        }
        assert!((svd.energy(svd.rank()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn project_gives_u_lambda_coordinates() {
        let x = table1();
        let svd = Svd::compute(&x, SvdOptions::default()).unwrap();
        // Projection of row i onto PC j equals (UΛ)_{ij}.
        for i in 0..x.rows() {
            let p = svd.project(x.row(i), 2).unwrap();
            for (j, &got) in p.iter().enumerate().take(2) {
                let expect = svd.u()[(i, j)] * svd.sigma()[j];
                assert!((got - expect).abs() < 1e-8, "row {i} pc {j}");
            }
        }
        assert!(svd.project(&[1.0], 2).is_err());
    }

    #[test]
    fn rejects_nan_input() {
        let mut x = table1();
        x[(0, 0)] = f64::INFINITY;
        assert!(Svd::compute(&x, SvdOptions::default()).is_err());
    }

    #[test]
    fn reconstruct_row_matches_cells() {
        let svd = Svd::compute(&table1(), SvdOptions::default()).unwrap();
        let mut row = vec![0.0; 5];
        for i in 0..svd.u().rows() {
            svd.reconstruct_row_into(i, &mut row);
            for (j, &got) in row.iter().enumerate() {
                // Bitwise, not approximate: the row path accumulates each
                // element in the same canonical component order as the cell
                // path.
                assert_eq!(got.to_bits(), svd.reconstruct_cell(i, j).to_bits());
            }
        }
    }
}
