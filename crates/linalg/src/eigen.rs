//! The symmetric eigensolver.
//!
//! The paper's two-pass SVD (§4.1) reduces the whole decomposition to one
//! in-memory eigendecomposition of the `M × M` Gram matrix `C = XᵀX`
//! (Lemma 3.2: `C = V Λ² Vᵀ`). [`sym_eigen`] is that step: Householder
//! tridiagonalization (`tred2`) followed by implicit-shift QL iteration
//! (`tqli`), `O(n³)` with a small constant, `M` in the hundreds in
//! milliseconds. It returns eigenpairs **sorted by descending
//! eigenvalue**, matching the paper's convention that `λ₁ ≥ λ₂ ≥ …`
//! (§3.3).
//!
//! Its tests check it against a cyclic Jacobi solver, derived completely
//! differently, that is compiled into the test build only.

use crate::matrix::Matrix;
use ats_common::{AtsError, Result};

/// Result of a symmetric eigendecomposition `A = Q diag(values) Qᵀ`.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues, sorted descending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, stored as **columns**; column `j`
    /// corresponds to `values[j]`.
    pub vectors: Matrix,
}

/// Maximum QL iterations per eigenvalue before declaring non-convergence.
const MAX_QL_ITERS: usize = 50;

/// Eigendecomposition of a symmetric matrix via Householder
/// tridiagonalization + implicit-shift QL.
///
/// Errors if `a` is not square, contains non-finite values, or the QL
/// iteration fails to converge (essentially never for finite symmetric
/// input). Asymmetry is tolerated up to roundoff: the upper triangle wins.
pub fn sym_eigen(a: &Matrix) -> Result<EigenDecomposition> {
    let n = a.rows();
    if a.cols() != n {
        return Err(AtsError::dims("sym_eigen", a.shape(), (n, n)));
    }
    if !a.is_finite() {
        return Err(AtsError::Numerical(
            "sym_eigen: input contains NaN or infinity".into(),
        ));
    }
    if n == 0 {
        return Ok(EigenDecomposition {
            values: vec![],
            vectors: Matrix::zeros(0, 0),
        });
    }
    let mut z = a.clone();
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n];
    tred2(&mut z, &mut d, &mut e);
    tqli(&mut d, &mut e, &mut z)?;
    Ok(sorted_desc(d, z))
}

/// Householder reduction of symmetric `a` (overwritten with the
/// accumulated orthogonal transform `Q`) to tridiagonal form:
/// `d` receives the diagonal, `e` the subdiagonal (`e[0]` unused = 0).
///
/// Port of the classic `tred2` (Numerical Recipes / EISPACK lineage),
/// 0-indexed.
fn tred2(a: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0f64;
        if l > 0 {
            let mut scale = 0.0f64;
            for k in 0..=l {
                scale += a[(i, k)].abs();
            }
            if scale == 0.0 {
                e[i] = a[(i, l)];
            } else {
                for k in 0..=l {
                    let v = a[(i, k)] / scale;
                    a[(i, k)] = v;
                    h += v * v;
                }
                let f = a[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                a[(i, l)] = f - g;
                let mut ff = 0.0f64;
                for j in 0..=l {
                    a[(j, i)] = a[(i, j)] / h;
                    let mut g = 0.0f64;
                    for k in 0..=j {
                        g += a[(j, k)] * a[(i, k)];
                    }
                    for k in (j + 1)..=l {
                        g += a[(k, j)] * a[(i, k)];
                    }
                    e[j] = g / h;
                    ff += e[j] * a[(i, j)];
                }
                let hh = ff / (h + h);
                for j in 0..=l {
                    let f = a[(i, j)];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    for k in 0..=j {
                        let delta = f * e[k] + g * a[(i, k)];
                        a[(j, k)] -= delta;
                    }
                }
            }
        } else {
            e[i] = a[(i, l)];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    for i in 0..n {
        if d[i] != 0.0 {
            for j in 0..i {
                let mut g = 0.0f64;
                for k in 0..i {
                    g += a[(i, k)] * a[(k, j)];
                }
                for k in 0..i {
                    let delta = g * a[(k, i)];
                    a[(k, j)] -= delta;
                }
            }
        }
        d[i] = a[(i, i)];
        a[(i, i)] = 1.0;
        for j in 0..i {
            a[(j, i)] = 0.0;
            a[(i, j)] = 0.0;
        }
    }
}

/// `sqrt(a² + b²)` without destructive overflow/underflow.
fn pythag(a: f64, b: f64) -> f64 {
    let (absa, absb) = (a.abs(), b.abs());
    if absa > absb {
        let r = absb / absa;
        absa * (1.0 + r * r).sqrt()
    } else if absb == 0.0 {
        0.0
    } else {
        let r = absa / absb;
        absb * (1.0 + r * r).sqrt()
    }
}

/// Implicit-shift QL iteration on a tridiagonal matrix (`d` diagonal, `e`
/// subdiagonal with `e[0]` unused), accumulating rotations into `z`.
fn tqli(d: &mut [f64], e: &mut [f64], z: &mut Matrix) -> Result<()> {
    let n = d.len();
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    // Absolute split floor: rank-deficient Gram matrices tridiagonalize
    // into blocks of denormals (≈1e-322) next to huge entries; a purely
    // relative criterion never splits those blocks (eps·denormal
    // underflows to zero) and the QL iteration spins forever. Any
    // subdiagonal below eps·‖T‖ is numerically zero for this matrix.
    let anorm = (0..n)
        .map(|i| d[i].abs() + e[i].abs())
        .fold(0.0f64, f64::max);
    let thresh = f64::EPSILON * anorm;
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small subdiagonal element to split the matrix.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd || e[m].abs() <= thresh {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_QL_ITERS {
                return Err(AtsError::NoConvergence {
                    routine: "tqli",
                    iterations: MAX_QL_ITERS,
                });
            }
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = pythag(g, 1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = pythag(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                for k in 0..n {
                    f = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * f;
                    z[(k, i)] = c * z[(k, i)] - s * f;
                }
            }
            if r == 0.0 && m > l {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Sort eigenpairs by descending eigenvalue, permuting the columns of `q`,
/// and canonicalize each eigenvector's sign (largest-magnitude component
/// positive) so decompositions are comparable across solvers.
fn sorted_desc(d: Vec<f64>, q: Matrix) -> EigenDecomposition {
    let n = d.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| d[b].partial_cmp(&d[a]).unwrap_or(std::cmp::Ordering::Equal));
    let values: Vec<f64> = idx.iter().map(|&i| d[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (newj, &oldj) in idx.iter().enumerate() {
        // find sign of the largest-magnitude component
        let mut best = 0.0f64;
        let mut sign = 1.0f64;
        for i in 0..n {
            let v = q[(i, oldj)];
            if v.abs() > best {
                best = v.abs();
                sign = if v >= 0.0 { 1.0 } else { -1.0 };
            }
        }
        for i in 0..n {
            vectors[(i, newj)] = sign * q[(i, oldj)];
        }
    }
    EigenDecomposition { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The helpers below check a decomposition; only tests call them.
    impl EigenDecomposition {
        /// Borrow eigenvector `j` as an owned column vector.
        fn vector(&self, j: usize) -> Vec<f64> {
            self.vectors.col(j)
        }

        /// Reconstruct `A = Q Λ Qᵀ`.
        fn reconstruct(&self) -> Matrix {
            let n = self.values.len();
            let q = &self.vectors;
            Matrix::from_fn(n, n, |i, l| {
                (0..n).map(|j| q[(i, j)] * self.values[j] * q[(l, j)]).sum()
            })
        }

        /// The worst residual `‖A q_j − λ_j q_j‖` over every pair. Errors
        /// if `a`'s dimensions do not match the decomposition.
        fn residual(&self, a: &Matrix) -> Result<f64> {
            let n = self.values.len();
            let mut worst = 0.0f64;
            for j in 0..n {
                let q = self.vector(j);
                let aq = a.matvec(&q)?;
                let mut r = 0.0;
                for i in 0..n {
                    let d = aq[i] - self.values[j] * q[i];
                    r += d * d;
                }
                worst = worst.max(r.sqrt());
            }
            Ok(worst)
        }
    }

    /// Cyclic Jacobi eigensolver — the independent oracle.
    ///
    /// Sweeps all off-diagonal pairs with plane rotations until the
    /// off-diagonal Frobenius mass drops below `1e-13 · ‖A‖_F`, or 64 sweeps.
    fn sym_eigen_jacobi(a: &Matrix) -> Result<EigenDecomposition> {
        let n = a.rows();
        if a.cols() != n {
            return Err(AtsError::dims("sym_eigen_jacobi", a.shape(), (n, n)));
        }
        if !a.is_finite() {
            return Err(AtsError::Numerical(
                "sym_eigen_jacobi: input contains NaN or infinity".into(),
            ));
        }
        if n == 0 {
            return Ok(EigenDecomposition {
                values: vec![],
                vectors: Matrix::zeros(0, 0),
            });
        }
        let mut s = a.clone();
        let mut q = Matrix::identity(n);
        let norm = a.frobenius_norm().max(f64::MIN_POSITIVE);
        let tol = 1e-13 * norm;
        for _sweep in 0..64 {
            let mut off = 0.0f64;
            for p in 0..n {
                for r in (p + 1)..n {
                    off += s[(p, r)] * s[(p, r)];
                }
            }
            if (2.0 * off).sqrt() <= tol {
                let d: Vec<f64> = (0..n).map(|i| s[(i, i)]).collect();
                return Ok(sorted_desc(d, q));
            }
            for p in 0..n {
                for r in (p + 1)..n {
                    let apq = s[(p, r)];
                    if apq.abs() <= tol / (n as f64) {
                        continue;
                    }
                    let app = s[(p, p)];
                    let aqq = s[(r, r)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let sn = t * c;
                    // Apply rotation G(p, r, θ)ᵀ S G(p, r, θ)
                    for k in 0..n {
                        let skp = s[(k, p)];
                        let skq = s[(k, r)];
                        s[(k, p)] = c * skp - sn * skq;
                        s[(k, r)] = sn * skp + c * skq;
                    }
                    for k in 0..n {
                        let spk = s[(p, k)];
                        let sqk = s[(r, k)];
                        s[(p, k)] = c * spk - sn * sqk;
                        s[(r, k)] = sn * spk + c * sqk;
                    }
                    for k in 0..n {
                        let qkp = q[(k, p)];
                        let qkq = q[(k, r)];
                        q[(k, p)] = c * qkp - sn * qkq;
                        q[(k, r)] = sn * qkp + c * qkq;
                    }
                }
            }
        }
        Err(AtsError::NoConvergence {
            routine: "jacobi",
            iterations: 64,
        })
    }

    fn sym_from(rows: Vec<Vec<f64>>) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn two_by_two_known() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let a = sym_from(vec![vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = sym_eigen(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        assert!(e.residual(&a).unwrap() < 1e-10);
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a = sym_from(vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 5.0, 0.0],
            vec![0.0, 0.0, 3.0],
        ]);
        let e = sym_eigen(&a).unwrap();
        assert_eq!(e.values.len(), 3);
        assert!((e.values[0] - 5.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        assert!((e.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identity_all_ones() {
        let e = sym_eigen(&Matrix::identity(6)).unwrap();
        for v in &e.values {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_matrix() {
        let e = sym_eigen(&Matrix::zeros(4, 4)).unwrap();
        for v in &e.values {
            assert!(v.abs() < 1e-14);
        }
        // eigenvectors still orthonormal
        check_orthonormal(&e.vectors, 1e-10);
    }

    #[test]
    fn empty_matrix() {
        let e = sym_eigen(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.values.is_empty());
    }

    #[test]
    fn one_by_one() {
        let a = sym_from(vec![vec![-7.5]]);
        let e = sym_eigen(&a).unwrap();
        assert_eq!(e.values, vec![-7.5]);
        assert!((e.vectors[(0, 0)].abs() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn rejects_non_square_and_nan() {
        assert!(sym_eigen(&Matrix::zeros(2, 3)).is_err());
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = f64::NAN;
        assert!(sym_eigen(&a).is_err());
        assert!(sym_eigen_jacobi(&Matrix::zeros(2, 3)).is_err());
    }

    fn check_orthonormal(q: &Matrix, tol: f64) {
        let n = q.rows();
        let qtq = q.transpose().matmul(q).unwrap();
        assert!(
            qtq.approx_eq(&Matrix::identity(n), tol),
            "QᵀQ deviates from I by {}",
            qtq.sub(&Matrix::identity(n)).unwrap().max_abs()
        );
    }

    fn random_symmetric(n: usize, seed: u64) -> Matrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v: f64 = rng.gen_range(-10.0..10.0);
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    #[test]
    fn random_matrices_reconstruct() {
        for (n, seed) in [(3usize, 1u64), (8, 2), (20, 3), (50, 4)] {
            let a = random_symmetric(n, seed);
            let e = sym_eigen(&a).unwrap();
            check_orthonormal(&e.vectors, 1e-9);
            let back = e.reconstruct();
            assert!(
                back.approx_eq(&a, 1e-8 * a.max_abs().max(1.0)),
                "n={n} reconstruction error {}",
                back.sub(&a).unwrap().max_abs()
            );
            // sorted descending
            for w in e.values.windows(2) {
                assert!(w[0] >= w[1] - 1e-12);
            }
        }
    }

    #[test]
    fn ql_and_jacobi_agree() {
        for (n, seed) in [(5usize, 10u64), (16, 11), (40, 12)] {
            let a = random_symmetric(n, seed);
            let e1 = sym_eigen(&a).unwrap();
            let e2 = sym_eigen_jacobi(&a).unwrap();
            for (v1, v2) in e1.values.iter().zip(&e2.values) {
                assert!(
                    (v1 - v2).abs() < 1e-7 * a.max_abs().max(1.0),
                    "n={n}: {v1} vs {v2}"
                );
            }
            assert!(e2.residual(&a).unwrap() < 1e-7 * a.max_abs().max(1.0));
        }
    }

    #[test]
    fn gram_matrix_eigenvalues_nonnegative() {
        // Eigenvalues of XᵀX must be ≥ 0 (they are squared singular values,
        // Lemma 3.2) — a key numerical invariant for the SVD route.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let x = Matrix::from_fn(30, 12, |_, _| rng.gen_range(-5.0..5.0));
        let e = sym_eigen(&x.gram()).unwrap();
        for &v in &e.values {
            assert!(v >= -1e-8, "negative eigenvalue {v}");
        }
    }

    #[test]
    fn degenerate_eigenvalues_handled() {
        // A matrix with a repeated eigenvalue: [[2,0,0],[0,2,0],[0,0,1]].
        let a = sym_from(vec![
            vec![2.0, 0.0, 0.0],
            vec![0.0, 2.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        let e = sym_eigen(&a).unwrap();
        assert!((e.values[0] - 2.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] - 1.0).abs() < 1e-12);
        check_orthonormal(&e.vectors, 1e-10);
    }

    #[test]
    fn negative_eigenvalues_sorted_correctly() {
        let a = sym_from(vec![vec![-3.0, 0.0], vec![0.0, -1.0]]);
        let e = sym_eigen(&a).unwrap();
        assert!((e.values[0] + 1.0).abs() < 1e-12);
        assert!((e.values[1] + 3.0).abs() < 1e-12);
    }

    #[test]
    fn rank_one_matrix() {
        // outer product vvᵀ with v = (1,2,3): eigenvalues (14, 0, 0)
        let v = [1.0, 2.0, 3.0];
        let a = Matrix::from_fn(3, 3, |i, j| v[i] * v[j]);
        let e = sym_eigen(&a).unwrap();
        assert!((e.values[0] - 14.0).abs() < 1e-10);
        assert!(e.values[1].abs() < 1e-10);
        assert!(e.values[2].abs() < 1e-10);
        // dominant eigenvector parallel to v
        let q0 = e.vector(0);
        let scale = q0[0] / (v[0] / 14.0f64.sqrt());
        for i in 0..3 {
            assert!((q0[i] - scale * v[i] / 14.0f64.sqrt()).abs() < 1e-9);
        }
    }

    #[test]
    fn trace_preserved() {
        let a = random_symmetric(25, 77);
        let trace: f64 = (0..25).map(|i| a[(i, i)]).sum();
        let e = sym_eigen(&a).unwrap();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-8);
    }

    /// Random symmetric matrix strategy.
    fn symmetric(max_n: usize) -> impl Strategy<Value = Matrix> {
        (1usize..max_n).prop_flat_map(|n| {
            proptest::collection::vec(-50.0f64..50.0, n * n).prop_map(move |data| {
                let mut a = Matrix::from_vec(n, n, data).unwrap();
                for i in 0..n {
                    for j in (i + 1)..n {
                        let v = a[(i, j)];
                        a[(j, i)] = v;
                    }
                }
                a
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn eigen_reconstructs_input(a in symmetric(16)) {
            let e = sym_eigen(&a).unwrap();
            let back = e.reconstruct();
            let scale = a.max_abs().max(1.0);
            prop_assert!(back.approx_eq(&a, 1e-8 * scale));
        }

        #[test]
        fn ql_and_jacobi_agree_on_spectra(a in symmetric(12)) {
            let e1 = sym_eigen(&a).unwrap();
            let e2 = sym_eigen_jacobi(&a).unwrap();
            let scale = a.max_abs().max(1.0);
            for (v1, v2) in e1.values.iter().zip(&e2.values) {
                prop_assert!((v1 - v2).abs() < 1e-7 * scale);
            }
        }
    }
}
