//! Property-based tests for the numerical core: invariants that must
//! hold for arbitrary inputs, plus cross-solver agreement.

use ats_common::testutil::jacobi_svd;
use ats_linalg::{lanczos_top_k, sym_eigen, LanczosOptions, Matrix};
use proptest::prelude::*;

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

fn rectangular(max_n: usize, max_m: usize) -> impl Strategy<Value = Matrix> {
    (1usize..max_n, 1usize..max_m).prop_flat_map(|(n, m)| {
        proptest::collection::vec(-50.0f64..50.0, n * m)
            .prop_map(move |data| Matrix::from_vec(n, m, data).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn eigen_trace_and_frobenius_invariants(a in symmetric(16)) {
        let e = sym_eigen(&a).unwrap();
        let n = a.rows();
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-7 * trace.abs().max(1.0));
        // ‖A‖_F² = Σ λᵢ²
        let f2 = a.frobenius_norm().powi(2);
        let l2: f64 = e.values.iter().map(|v| v * v).sum();
        prop_assert!((f2 - l2).abs() < 1e-6 * f2.max(1.0));
    }

    #[test]
    fn svd_singular_values_nonneg_sorted(x in rectangular(16, 10)) {
        // The oracle's σ never pass through XᵀX; their squares are the
        // Gram matrix's eigenvalues (Lemma 3.2), up to the eps·σ₁² error
        // the eigensolver carries.
        let (sigma, _) = jacobi_svd(x.as_slice(), x.rows(), x.cols());
        for w in sigma.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        prop_assert!(sigma.iter().all(|&s| s >= 0.0));
        // σ₁ ≤ ‖X‖_F always; equality iff rank 1
        prop_assert!(sigma[0] <= x.frobenius_norm() * (1.0 + 1e-9));
        let eig = sym_eigen(&x.gram()).unwrap();
        let scale = sigma[0] * sigma[0];
        for (s, l) in sigma.iter().zip(&eig.values) {
            prop_assert!((s * s - l).abs() <= 1e-12 * scale, "σ² {} vs λ {l}", s * s);
        }
    }

    #[test]
    fn lanczos_top_eigenvalue_matches_dense(x in rectangular(14, 8)) {
        let c = x.gram();
        let dense = sym_eigen(&c).unwrap();
        if dense.values[0] <= 1e-9 {
            return Ok(()); // zero matrix: nothing to compare
        }
        let top = lanczos_top_k(&c, 1, LanczosOptions::default()).unwrap();
        let rel = (top.values[0] - dense.values[0]).abs() / dense.values[0];
        prop_assert!(rel < 1e-7, "rel err {rel}");
    }

    #[test]
    fn matmul_associates_with_transpose(x in rectangular(8, 6)) {
        // (XᵀX)ᵀ = XᵀX
        let g = x.gram();
        prop_assert!(g.transpose().approx_eq(&g, 1e-9));
    }
}
