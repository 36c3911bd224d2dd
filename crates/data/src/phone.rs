//! Synthetic customer calling-pattern data (the `phone*` datasets).
//!
//! The paper's `phone100K` dataset (AT&T daily call volumes) is
//! proprietary. This generator reproduces the structural properties the
//! paper's experiments depend on:
//!
//! 1. **Low-rank day structure.** Customers are mixtures of a handful of
//!    behavioural archetypes over the week (weekday-business,
//!    weekend-residential, uniform, bursty) modulated by shared weekly
//!    and annual seasonality — so the dominant principal components carry
//!    most of the energy, which is what makes SVD compression work at all
//!    (Fig. 6a).
//! 2. **Zipf-heavy volumes.** Per-customer total volume follows a
//!    Zipf-like law; a few huge customers dominate, the majority are
//!    small — the skew visible in the paper's Fig. 11 scatter plot and
//!    the reason worst-case errors of plain SVD explode with `N`
//!    (Table 4).
//! 3. **Sparse spikes.** A small fraction of cells get multiplicative
//!    spikes (an unusual calling day). These are precisely the outliers
//!    SVDD patches with deltas (Fig. 8's steep error drop-off).
//! 4. **All-zero customers.** A configurable fraction made no calls at
//!    all (§6.2's "practical issue").

use crate::dataset::Dataset;
use crate::perm::{mix_stream, RankShuffle};
use ats_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reserved RNG stream for the volume-rank permutation keys (row streams
/// use the row index itself, which can never reach this value).
pub(crate) const PHONE_PERM_STREAM: u64 = u64::MAX - 1;

/// Configuration for [`generate_phone`].
#[derive(Debug, Clone)]
pub struct PhoneConfig {
    /// Number of customers (`N`). Paper: up to 100 000.
    pub customers: usize,
    /// Number of days (`M`). Paper: 366.
    pub days: usize,
    /// RNG seed — generation is fully deterministic given the config.
    pub seed: u64,
    /// Zipf exponent for the customer volume distribution (≈0.8–1.2).
    pub zipf_exponent: f64,
    /// Base daily volume of the largest customer, in dollars.
    pub top_volume: f64,
    /// Per-cell probability of a multiplicative spike.
    pub spike_prob: f64,
    /// Fraction of customers with no calls at all (§6.2).
    pub zero_fraction: f64,
    /// Multiplicative log-normal noise scale (0 = noiseless).
    pub noise: f64,
}

impl Default for PhoneConfig {
    fn default() -> Self {
        PhoneConfig {
            customers: 2_000,
            days: 366,
            seed: 42,
            zipf_exponent: 1.0,
            top_volume: 500.0,
            spike_prob: 0.002,
            zero_fraction: 0.01,
            noise: 0.25,
        }
    }
}

impl PhoneConfig {
    /// The paper's `phone2000` benchmark configuration.
    pub fn phone2000() -> Self {
        PhoneConfig::default()
    }

    /// The paper's full `phone100K` configuration (large: ~0.3 GB as f64).
    pub fn phone100k() -> Self {
        PhoneConfig {
            customers: 100_000,
            ..PhoneConfig::default()
        }
    }

    /// A small configuration for fast tests.
    pub fn small() -> Self {
        PhoneConfig {
            customers: 200,
            days: 56,
            ..PhoneConfig::default()
        }
    }
}

/// Weekly archetypes: relative intensity per day-of-week (Mon..Sun).
const ARCHETYPES: [[f64; 7]; 4] = [
    // business: strong weekdays, near-silent weekends
    [1.0, 1.05, 1.0, 0.95, 0.9, 0.05, 0.03],
    // residential: quiet weekdays, busy weekends
    [0.15, 0.15, 0.2, 0.25, 0.4, 1.0, 0.9],
    // uniform: steady all week
    [0.6, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6],
    // evening/burst: mid-week heavy
    [0.3, 0.7, 1.2, 0.7, 0.3, 0.2, 0.2],
];

/// Annual seasonality shared by everyone: mild sinusoid + holiday dip.
/// Deterministic in `m` alone (no RNG draws).
pub(crate) fn season_profile(m: usize) -> Vec<f64> {
    (0..m)
        .map(|d| {
            let t = d as f64 / 366.0;
            let base = 1.0 + 0.15 * (2.0 * std::f64::consts::PI * t).sin();
            // end-of-year slowdown for business traffic
            let holiday = if m > 300 && d >= m - 10 { 0.7 } else { 1.0 };
            base * holiday
        })
        .collect()
}

/// The volume-rank permutation for a dataset of `n` customers. Replaces
/// the old sequential Fisher–Yates shuffle with a bijective
/// [`RankShuffle`] so row `i`'s volume is computable in `O(1)` — the
/// multiset of assigned volumes is identical (every rank `1..=n` appears
/// exactly once), just scattered by a different pseudo-random bijection.
pub(crate) fn volume_permutation(cfg: &PhoneConfig) -> RankShuffle {
    RankShuffle::new(cfg.customers, mix_stream(cfg.seed, PHONE_PERM_STREAM))
}

/// Base daily volume of customer `i`: Zipf over the permuted rank.
pub(crate) fn customer_volume(cfg: &PhoneConfig, perm: &RankShuffle, i: usize) -> f64 {
    let rank = perm.apply(i as u64) + 1;
    cfg.top_volume / (rank as f64).powf(cfg.zipf_exponent)
}

/// The per-row RNG stream: every customer draws from an independent
/// generator seeded from `(dataset seed, row index)`, so any row is
/// computable without simulating its predecessors — the property the
/// streaming source ([`crate::streaming::StreamingPhone`]) relies on.
pub(crate) fn row_rng(seed: u64, i: usize) -> StdRng {
    StdRng::seed_from_u64(mix_stream(seed, i as u64))
}

/// Fill one customer's row (`out.len() == cfg.days`). Deterministic in
/// `(cfg, i)`; both [`generate_phone`] and the streaming source call
/// this, which is what makes their outputs bitwise identical.
pub(crate) fn fill_phone_row(
    cfg: &PhoneConfig,
    perm: &RankShuffle,
    season: &[f64],
    i: usize,
    out: &mut [f64],
) {
    out.fill(0.0);
    let mut rng = row_rng(cfg.seed, i);
    if rng.gen_bool(cfg.zero_fraction.clamp(0.0, 1.0)) {
        return; // an all-zero customer
    }
    let vol = customer_volume(cfg, perm, i);
    // Each customer is a mixture of one dominant archetype plus a
    // small admixture of another — keeps effective rank low but > 4.
    let a = rng.gen_range(0..ARCHETYPES.len());
    let b = rng.gen_range(0..ARCHETYPES.len());
    let mix: f64 = rng.gen_range(0.0..0.25);
    let phase: usize = rng.gen_range(0..7); // which weekday day 0 is
    for ((d, cell), &season_d) in out.iter_mut().enumerate().zip(season) {
        let dow = (d + phase) % 7;
        let pattern = ARCHETYPES[a][dow] * (1.0 - mix) + ARCHETYPES[b][dow] * mix;
        let mut v = vol * pattern * season_d;
        if cfg.noise > 0.0 {
            // log-normal multiplicative noise, mean ≈ 1
            let z: f64 = sample_standard_normal(&mut rng);
            v *= (cfg.noise * z - 0.5 * cfg.noise * cfg.noise).exp();
        }
        if cfg.spike_prob > 0.0 && rng.gen_bool(cfg.spike_prob) {
            v *= rng.gen_range(5.0..25.0);
        }
        *cell = (v.max(0.0) * 100.0).round() / 100.0; // cents
    }
}

/// Generate a synthetic phone dataset. Deterministic in `cfg`, and row
/// `i` equals row `i` of [`crate::streaming::StreamingPhone`] bit for
/// bit (both run the same per-row fill function).
pub fn generate_phone(cfg: &PhoneConfig) -> Dataset {
    let n = cfg.customers;
    let m = cfg.days;
    let season = season_profile(m);
    let perm = volume_permutation(cfg);
    let mut matrix = Matrix::zeros(n, m);
    for i in 0..n {
        fill_phone_row(cfg, &perm, &season, i, matrix.row_mut(i));
    }
    Dataset::new(format!("phone{n}"), matrix)
}

/// Box–Muller standard normal (avoids depending on rand_distr).
pub(crate) fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_linalg::sym_eigen;

    fn gen_small(seed: u64) -> Dataset {
        generate_phone(&PhoneConfig {
            seed,
            ..PhoneConfig::small()
        })
    }

    #[test]
    fn deterministic_given_seed() {
        let a = gen_small(7);
        let b = gen_small(7);
        assert!(a.matrix().approx_eq(b.matrix(), 0.0));
        let c = gen_small(8);
        assert!(!a.matrix().approx_eq(c.matrix(), 1e-9));
    }

    #[test]
    fn dimensions_and_nonnegativity() {
        let d = gen_small(1);
        assert_eq!(d.rows(), 200);
        assert_eq!(d.cols(), 56);
        assert!(d
            .matrix()
            .as_slice()
            .iter()
            .all(|&v| v >= 0.0 && v.is_finite()));
    }

    #[test]
    fn has_zero_customers() {
        let d = generate_phone(&PhoneConfig {
            zero_fraction: 0.2,
            ..PhoneConfig::small()
        });
        let zeros = d
            .matrix()
            .iter_rows()
            .filter(|r| r.iter().all(|&v| v == 0.0))
            .count();
        assert!(zeros >= 10, "expected ≥10 all-zero customers, got {zeros}");
    }

    #[test]
    fn volume_distribution_is_heavy_tailed() {
        let d = gen_small(3);
        let mut totals: Vec<f64> = d.matrix().iter_rows().map(|r| r.iter().sum()).collect();
        totals.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top = totals[0];
        let median = totals[totals.len() / 2];
        assert!(
            top > 20.0 * median.max(1e-9),
            "Zipf skew missing: top {top}, median {median}"
        );
    }

    #[test]
    fn low_rank_structure() {
        // Most energy in the first few PCs: the property SVD compression
        // exploits. With 4 archetypes + seasonality + noise, the top 8
        // components should carry the bulk of the variance.
        let d = generate_phone(&PhoneConfig {
            noise: 0.15,
            spike_prob: 0.0,
            ..PhoneConfig::small()
        });
        // Energy: the share of Σσ² = trace(XᵀX) in the top 8 eigenvalues.
        let lambda = sym_eigen(&d.matrix().gram()).unwrap().values;
        let e8 = lambda[..8].iter().sum::<f64>() / lambda.iter().map(|l| l.max(0.0)).sum::<f64>();
        assert!(e8 > 0.85, "top-8 energy only {e8}");
    }

    #[test]
    fn spikes_create_outlier_cells() {
        // Count cells that exceed 8× their own row's mean: with spikes
        // enabled this count should grow dramatically (these are the cells
        // SVDD stores deltas for).
        let count_outliers = |d: &Dataset| -> usize {
            d.matrix()
                .iter_rows()
                .map(|r| {
                    let mean = r.iter().sum::<f64>() / r.len() as f64;
                    if mean <= 0.0 {
                        return 0;
                    }
                    r.iter().filter(|&&v| v > 8.0 * mean).count()
                })
                .sum()
        };
        let no_spikes = generate_phone(&PhoneConfig {
            spike_prob: 0.0,
            seed: 9,
            ..PhoneConfig::small()
        });
        let spikes = generate_phone(&PhoneConfig {
            spike_prob: 0.02,
            seed: 9,
            ..PhoneConfig::small()
        });
        let (base, spiked) = (count_outliers(&no_spikes), count_outliers(&spikes));
        assert!(
            spiked > base + 20,
            "spikes did not create outliers: {base} -> {spiked}"
        );
    }

    #[test]
    fn weekly_periodicity_visible() {
        // Autocorrelation at lag 7 of the column-sum series should beat
        // lag 3 (weekly rhythm dominates).
        let d = generate_phone(&PhoneConfig {
            zero_fraction: 0.0,
            spike_prob: 0.0,
            noise: 0.1,
            ..PhoneConfig::small()
        });
        let m = d.cols();
        let colsum: Vec<f64> = (0..m)
            .map(|j| d.matrix().col(j).iter().sum::<f64>())
            .collect();
        let mean = colsum.iter().sum::<f64>() / m as f64;
        let ac = |lag: usize| -> f64 {
            (0..m - lag)
                .map(|t| (colsum[t] - mean) * (colsum[t + lag] - mean))
                .sum::<f64>()
        };
        assert!(ac(7) > ac(3), "lag-7 autocorr {} ≤ lag-3 {}", ac(7), ac(3));
    }

    #[test]
    fn phone2000_config_shape() {
        let cfg = PhoneConfig::phone2000();
        assert_eq!(cfg.customers, 2000);
        assert_eq!(cfg.days, 366);
        let cfg_big = PhoneConfig::phone100k();
        assert_eq!(cfg_big.customers, 100_000);
    }
}
