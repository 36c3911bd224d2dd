//! # ats-linalg
//!
//! Dense linear algebra for the `adhoc-ts` workspace, written from scratch
//! (no external linear-algebra crates): the substrate beneath the paper's
//! SVD/SVDD compression (Korn, Jagadish & Faloutsos, SIGMOD 1997, §3–4).
//!
//! What lives here:
//!
//! - [`matrix::Matrix`] — a dense, row-major `f64` matrix with the handful
//!   of operations the paper's algorithms need (products, transpose, Gram
//!   matrices, norms);
//! - [`vecops`] — tight kernels over `&[f64]` (dot, axpy, scaled outer
//!   products, fused 4-way variants) used by the hot reconstruction paths;
//! - [`kernels`] — blocked reconstruction kernels over a transposed `V`
//!   panel ([`kernels::VPanel`]): multi-row and multi-cell Eq. 12
//!   evaluation, bitwise identical to the scalar path;
//! - [`eigen`] — the symmetric eigensolver the paper's SVD runs on
//!   (Lemma 3.2: eigendecompose `C = XᵀX = V Λ² Vᵀ`): Householder
//!   tridiagonalization + implicit-shift QL, `O(M³)`, checked in its
//!   tests against a cyclic Jacobi solver that exists only there; plus a
//!   Lanczos top-`k` engine ([`lanczos`]) for the regime where only a
//!   few extremal pairs are needed.
//!
//! The SVD itself — the two-pass, out-of-core Gram route (§4.1) with its
//! truncation (Eq. 8) and `U = X V Λ⁻¹` (Eq. 10) — is written once, as
//! `ats-compress`'s `SvdCompressed`; its tests check it against
//! `ats_common::testutil::jacobi_svd`, which never forms `XᵀX`.

pub mod eigen;
pub mod kernels;
pub mod lanczos;
pub mod matrix;
pub mod vecops;

pub use eigen::{sym_eigen, EigenDecomposition};
pub use kernels::VPanel;
pub use lanczos::{lanczos_top_k, LanczosOptions};
pub use matrix::Matrix;
