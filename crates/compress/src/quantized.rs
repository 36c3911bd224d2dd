//! f32-quantized SVD storage (extension).
//!
//! The paper charges `b` bytes per stored number (§5.1) and stores
//! doubles. Since `U` and `V` hold *unit-vector coordinates* (all in
//! `[−1, 1]`), they carry far less dynamic range than raw data, and an
//! `f32` representation (b = 4) halves their footprint — which at a
//! fixed byte budget buys roughly **twice the principal components**.
//! This module implements that trade and lets the ablation experiment
//! measure whether the quantization noise or the extra components win
//! (spoiler, as for most datasets: the components win).
//!
//! `Λ` stays f64 (it is `k` numbers; its magnitude spans the data's full
//! range and quantizing it would scale whole components).
//!
//! The build is the plain two-pass SVD's, whose `U` and `V` are then
//! cast: the f32 factors are exactly the f64 ones rounded once. Serving
//! keeps its own f32 Eq. 12 loops, since the shared kernels take f64.

use crate::method::{CompressedMatrix, SpaceBudget};
use crate::svd::SvdCompressed;
use ats_common::{AtsError, Result};
use ats_linalg::Matrix;
use ats_storage::RowSource;

/// Bytes per quantized number.
const QUANT_BYTES: usize = 4;
/// Bytes per `Λ` entry (kept at full precision).
const LAMBDA_BYTES: usize = 8;

/// A truncated SVD whose `U` and `V` factors are stored as `f32`.
#[derive(Debug, Clone)]
pub struct QuantizedSvd {
    /// `N × k`, row-major, f32.
    u: Vec<f32>,
    /// `M × k`, row-major, f32.
    v: Vec<f32>,
    lambda: Vec<f64>,
    n: usize,
    m: usize,
}

impl QuantizedSvd {
    /// The two-pass [`SvdCompressed::compress`] build, its `U` and `V`
    /// then cast to f32. `k` is clamped to the numerical rank, as there:
    /// noise singular values (σ ≈ sqrt(eps)·σ₁ from the Gram route) would
    /// produce huge `U` coordinates that can overflow f32.
    pub fn compress<S: RowSource + ?Sized>(source: &S, k: usize, threads: usize) -> Result<Self> {
        let (n, m) = (source.rows(), source.cols());
        if k == 0 || k > m {
            return Err(AtsError::InvalidArgument(format!(
                "component count k={k} must be in 1..={m}"
            )));
        }
        let svd = SvdCompressed::compress(source, k, threads)?;
        let f32s = |x: &Matrix| x.as_slice().iter().map(|&x| x as f32).collect();
        Ok(QuantizedSvd {
            u: f32s(svd.u()),
            v: f32s(svd.v()),
            lambda: svd.lambda().to_vec(),
            n,
            m,
        })
    }

    /// Build at a space budget: with 4-byte factors,
    /// `(N·k + k·M)·4 + k·8 ≤ budget`, i.e. roughly twice the `k` of the
    /// f64 form.
    pub fn compress_budget<S: RowSource + ?Sized>(
        source: &S,
        budget: SpaceBudget,
        threads: usize,
    ) -> Result<Self> {
        let (n, m) = (source.rows(), source.cols());
        let k = Self::max_k(budget, n, m);
        if k == 0 {
            return Err(AtsError::Budget(format!(
                "budget {:.3}% cannot hold even one quantized component",
                budget.fraction * 100.0
            )));
        }
        Self::compress(source, k, threads)
    }

    /// Largest `k` fitting the budget under quantized accounting.
    pub fn max_k(budget: SpaceBudget, n: usize, m: usize) -> usize {
        if n == 0 || m == 0 {
            return 0;
        }
        let per_k = ((n + m) * QUANT_BYTES + LAMBDA_BYTES) as f64;
        ((budget.bytes(n, m) as f64 / per_k).floor() as usize).min(m)
    }

    /// Retained component count.
    pub fn k(&self) -> usize {
        self.lambda.len()
    }
}

impl CompressedMatrix for QuantizedSvd {
    fn rows(&self) -> usize {
        self.n
    }

    fn cols(&self) -> usize {
        self.m
    }

    fn cell(&self, i: usize, j: usize) -> Result<f64> {
        if i >= self.n {
            return Err(AtsError::oob("row", i, self.n));
        }
        if j >= self.m {
            return Err(AtsError::oob("column", j, self.m));
        }
        let k = self.k();
        let ui = &self.u[i * k..(i + 1) * k];
        let vj = &self.v[j * k..(j + 1) * k];
        Ok(ui
            .iter()
            .zip(vj)
            .zip(&self.lambda)
            .map(|((&u, &v), &l)| l * f64::from(u) * f64::from(v))
            .sum())
    }

    fn row_into(&self, i: usize, out: &mut [f64]) -> Result<()> {
        if i >= self.n {
            return Err(AtsError::oob("row", i, self.n));
        }
        if out.len() != self.m {
            return Err(AtsError::dims(
                "QuantizedSvd::row_into",
                (1, out.len()),
                (1, self.m),
            ));
        }
        let k = self.k();
        let ui = &self.u[i * k..(i + 1) * k];
        let coef: Vec<f64> = ui
            .iter()
            .zip(&self.lambda)
            .map(|(&u, &l)| l * f64::from(u))
            .collect();
        for (j, o) in out.iter_mut().enumerate() {
            let vj = &self.v[j * k..(j + 1) * k];
            *o = coef.iter().zip(vj).map(|(&c, &v)| c * f64::from(v)).sum();
        }
        Ok(())
    }

    fn storage_bytes(&self) -> usize {
        (self.n * self.k() + self.m * self.k()) * QUANT_BYTES + self.k() * LAMBDA_BYTES
    }

    fn method_name(&self) -> &'static str {
        "svd-f32"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn data(n: usize, m: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_fn(n, 3, |_, _| rng.gen_range(0.0..2.0));
        let b = Matrix::from_fn(3, m, |_, _| rng.gen_range(0.0..2.0));
        a.matmul(&b).unwrap()
    }

    #[test]
    fn quantization_noise_is_small() {
        let x = data(100, 16, 1);
        let q = QuantizedSvd::compress(&x, 3, 1).unwrap();
        let f = SvdCompressed::compress(&x, 3, 1).unwrap();
        for i in (0..100).step_by(9) {
            for j in 0..16 {
                let a = q.cell(i, j).unwrap();
                let b = f.cell(i, j).unwrap();
                assert!(
                    (a - b).abs() < 1e-4 * b.abs().max(1.0),
                    "({i},{j}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn half_the_bytes_per_component() {
        let x = data(200, 20, 2);
        let q = QuantizedSvd::compress(&x, 3, 1).unwrap();
        let f = SvdCompressed::compress(&x, 3, 1).unwrap();
        // same k: quantized ≈ half the storage (Λ overhead aside)
        assert!(q.storage_bytes() < f.storage_bytes() * 6 / 10);
    }

    #[test]
    fn budget_buys_more_components() {
        let budget = SpaceBudget::from_percent(10.0);
        let (n, m) = (2000usize, 100usize);
        let k32 = QuantizedSvd::max_k(budget, n, m);
        let k64 = budget.max_svd_k(n, m);
        assert!(
            k32 >= 2 * k64 - 1,
            "quantization should ~double k: {k32} vs {k64}"
        );
    }

    #[test]
    fn quantized_beats_f64_at_equal_budget_on_rich_data() {
        // Data with > k64 meaningful components: more PCs beat precision.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = Matrix::from_fn(400, 12, |_, _| rng.gen_range(-1.0..1.0));
        let b = Matrix::from_fn(12, 40, |_, _| rng.gen_range(-1.0..1.0));
        let x = a.matmul(&b).unwrap();
        let budget = SpaceBudget::from_percent(3.0);
        let q = QuantizedSvd::compress_budget(&x, budget, 1).unwrap();
        let f = SvdCompressed::compress_budget(&x, budget, 1).unwrap();
        assert!(q.k() > f.k());
        let sse = |c: &dyn CompressedMatrix| {
            let mut t = 0.0;
            let mut row = vec![0.0; 40];
            for i in 0..400 {
                c.row_into(i, &mut row).unwrap();
                for (p, q) in row.iter().zip(x.row(i)) {
                    t += (p - q) * (p - q);
                }
            }
            t
        };
        assert!(
            sse(&q) < sse(&f),
            "more quantized components should win: {} vs {}",
            sse(&q),
            sse(&f)
        );
        assert!(q.storage_bytes() <= budget.bytes(400, 40));
    }

    #[test]
    fn bounds_and_errors() {
        let x = data(20, 8, 4);
        let q = QuantizedSvd::compress(&x, 2, 1).unwrap();
        assert!(q.cell(20, 0).is_err());
        assert!(q.cell(0, 8).is_err());
        assert!(QuantizedSvd::compress(&x, 0, 1).is_err());
        assert!(QuantizedSvd::compress(&x, 9, 1).is_err());
        assert_eq!(q.method_name(), "svd-f32");
    }
}
