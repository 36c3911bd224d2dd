//! Synthetic daily stock closing prices (the `stocks` dataset).
//!
//! The paper's `stocks` dataset is 381 stocks × 128 daily closing prices.
//! Two of its properties drive the paper's observations:
//!
//! 1. Successive prices are highly correlated (stocks are "modeled well
//!    as random walks", §5.1), which is why DCT is competitive on this
//!    dataset (Fig. 6b) unlike on phone data;
//! 2. most stocks "followed the general pattern of the stock market"
//!    (Appendix A): in SVD space nearly all rows hug the first
//!    eigenvector, explaining the excellent compression and the absence
//!    of natural clusters.
//!
//! The generator produces geometric random walks sharing a common market
//! factor: `log p_i(t) = log s_i + β_i · m(t) + idio_i(t)`, with `m` a
//! persistent market walk, `β_i ≈ 1`, and a small idiosyncratic walk.

use crate::dataset::Dataset;
use crate::perm::mix_stream;
use ats_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reserved RNG stream for the shared market walk (row streams use the
/// row index itself, which can never reach this value).
pub(crate) const MARKET_STREAM: u64 = u64::MAX - 2;

/// Configuration for [`generate_stocks`].
#[derive(Debug, Clone)]
pub struct StocksConfig {
    /// Number of stocks (`N`). Paper: 381.
    pub stocks: usize,
    /// Number of trading days (`M`). Paper: 128.
    pub days: usize,
    /// RNG seed.
    pub seed: u64,
    /// Daily volatility of the shared market factor.
    pub market_vol: f64,
    /// Daily idiosyncratic volatility per stock.
    pub idio_vol: f64,
}

impl Default for StocksConfig {
    fn default() -> Self {
        StocksConfig {
            stocks: 381,
            days: 128,
            seed: 1729,
            market_vol: 0.01,
            idio_vol: 0.004,
        }
    }
}

impl StocksConfig {
    /// The paper's `stocks` configuration (381 × 128).
    pub fn paper() -> Self {
        StocksConfig::default()
    }

    /// A small configuration for fast tests.
    pub fn small() -> Self {
        StocksConfig {
            stocks: 60,
            days: 64,
            ..StocksConfig::default()
        }
    }
}

/// The market factor shared by every stock: a persistent random walk
/// with slight drift, drawn from its own reserved RNG stream so it is
/// independent of any row's stream.
pub(crate) fn market_walk(cfg: &StocksConfig) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(mix_stream(cfg.seed, MARKET_STREAM));
    let mut market = vec![0.0f64; cfg.days];
    let drift = 0.0004;
    for t in 1..cfg.days {
        let z = normal(&mut rng);
        market[t] = market[t - 1] + drift + cfg.market_vol * z;
    }
    market
}

/// Fill one stock's row (`out.len() == cfg.days`). Deterministic in
/// `(cfg, i)` given the shared `market` walk; both [`generate_stocks`]
/// and the streaming source call this, which is what makes their
/// outputs bitwise identical.
pub(crate) fn fill_stock_row(cfg: &StocksConfig, market: &[f64], i: usize, out: &mut [f64]) {
    let mut rng = StdRng::seed_from_u64(mix_stream(cfg.seed, i as u64));
    // Price levels span roughly $5 – $500, log-uniformly.
    let base: f64 = (rng.gen_range(5.0f64.ln()..500.0f64.ln())).exp();
    let beta: f64 = rng.gen_range(0.7..1.3);
    let mut idio = 0.0f64;
    for ((t, cell), &market_t) in out.iter_mut().enumerate().zip(market) {
        if t > 0 {
            idio += cfg.idio_vol * normal(&mut rng);
        }
        let logp = base.ln() + beta * market_t + idio;
        *cell = (logp.exp() * 100.0).round() / 100.0; // cents
    }
}

/// Generate a synthetic stocks dataset. Deterministic in `cfg`, and row
/// `i` equals row `i` of [`crate::streaming::StreamingStocks`] bit for
/// bit (both run the same per-row fill function).
pub fn generate_stocks(cfg: &StocksConfig) -> Dataset {
    let n = cfg.stocks;
    let m = cfg.days;
    let market = market_walk(cfg);
    let mut matrix = Matrix::zeros(n, m);
    for i in 0..n {
        fill_stock_row(cfg, &market, i, matrix.row_mut(i));
    }
    Dataset::new("stocks".to_string(), matrix)
}

pub(crate) fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_linalg::sym_eigen;

    #[test]
    fn deterministic_and_shaped() {
        let a = generate_stocks(&StocksConfig::small());
        let b = generate_stocks(&StocksConfig::small());
        assert!(a.matrix().approx_eq(b.matrix(), 0.0));
        assert_eq!(a.rows(), 60);
        assert_eq!(a.cols(), 64);
    }

    #[test]
    fn prices_positive_and_finite() {
        let d = generate_stocks(&StocksConfig::small());
        assert!(d
            .matrix()
            .as_slice()
            .iter()
            .all(|&v| v > 0.0 && v.is_finite()));
    }

    #[test]
    fn successive_prices_highly_correlated() {
        // Lag-1 autocorrelation of each row should be very high — the
        // random-walk property that favours DCT (§5.1).
        let d = generate_stocks(&StocksConfig::small());
        for row in d.matrix().iter_rows().take(10) {
            let m = row.len();
            let mean = row.iter().sum::<f64>() / m as f64;
            let var: f64 = row.iter().map(|v| (v - mean).powi(2)).sum();
            if var < 1e-9 {
                continue;
            }
            let cov: f64 = (0..m - 1)
                .map(|t| (row[t] - mean) * (row[t + 1] - mean))
                .sum();
            assert!(cov / var > 0.7, "lag-1 autocorr {}", cov / var);
        }
    }

    #[test]
    fn first_pc_dominates() {
        // "Most of the points are very close to the horizontal axis"
        // (Appendix A): the first principal component carries almost all
        // the energy.
        let d = generate_stocks(&StocksConfig::small());
        // Energy: the share of Σσ² = trace(XᵀX) in the top eigenvalue.
        let lambda = sym_eigen(&d.matrix().gram()).unwrap().values;
        let e1 = lambda[0] / lambda.iter().map(|l| l.max(0.0)).sum::<f64>();
        assert!(e1 > 0.95, "first-PC energy only {e1}");
    }

    #[test]
    fn price_levels_span_wide_range() {
        let d = generate_stocks(&StocksConfig::paper());
        let first_col = d.matrix().col(0);
        let max = first_col.iter().fold(0.0f64, |a, &b| a.max(b));
        let min = first_col.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        assert!(max / min > 10.0, "price range too narrow: {min}..{max}");
        assert_eq!(d.rows(), 381);
        assert_eq!(d.cols(), 128);
    }
}
