//! Online and summary statistics.
//!
//! The paper's error metric (Def. 5.1, "RMSPE") normalizes the root sum of
//! squared reconstruction errors by the root sum of squared deviations from
//! the dataset mean — i.e. by `(N·M − adjust)^{1/2}` times the standard
//! deviation. Computing that over a dataset that does not fit in memory
//! requires a single-pass, numerically stable accumulator: Welford's
//! algorithm, provided here as [`OnlineStats`]. [`Summary`] adds min/max
//! and quantile extraction for in-memory slices (used for the median-vs-
//! mean observation under Fig. 8).

/// Welford single-pass accumulator for count / mean / variance / min / max.
///
/// Numerically stable: the classic `E[x²]−E[x]²` formulation catastrophically
/// cancels for data with large mean and small spread (exactly the shape of
/// per-customer call volumes); Welford's recurrence does not.
///
/// # Examples
///
/// ```
/// use ats_common::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineStats {
    /// Fresh, empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Add every value of a slice.
    pub fn push_slice(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Merge another accumulator into this one (Chan et al. parallel
    /// combination) — lets passes be computed per-thread then reduced.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Population variance `M2/n` (0 if empty).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sum of squared deviations from the mean, `Σ(x−x̄)²` — the
    /// denominator (squared) of the paper's RMSPE.
    pub fn sum_squared_deviations(&self) -> f64 {
        self.m2
    }

    /// Minimum observed value (`+∞` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observed value (`−∞` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Summary statistics of an in-memory sample, including quantiles.
#[derive(Debug, Clone)]
pub struct Summary {
    sorted: Vec<f64>,
    stats: OnlineStats,
}

impl Summary {
    /// Build from a sample; NaNs are dropped.
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = values.into_iter().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        let mut stats = OnlineStats::new();
        stats.push_slice(&sorted);
        Summary { sorted, stats }
    }

    /// Number of (non-NaN) observations.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Mean of the sample.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Population standard deviation of the sample.
    pub fn std_dev(&self) -> f64 {
        self.stats.population_std_dev()
    }

    /// Linear-interpolation quantile, `q ∈ [0, 1]`. Returns 0 for an empty
    /// sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.sorted[lo]
        } else {
            let w = pos - lo as f64;
            self.sorted[lo] * (1.0 - w) + self.sorted[hi] * w
        }
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Largest observation (0 for an empty sample).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// Smallest observation (0 for an empty sample).
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zeroish() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
    }

    #[test]
    fn single_value() {
        let mut s = OnlineStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn stable_with_large_offset() {
        // 1e9 + small noise: naive E[x²]−E[x]² loses all precision here.
        let mut s = OnlineStats::new();
        for i in 0..1000 {
            s.push(1e9 + f64::from(i % 10));
        }
        let v = s.population_variance();
        assert!((v - 8.25).abs() < 1e-6, "variance {v}");
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.7 - 3.0).collect();
        let mut whole = OnlineStats::new();
        whole.push_slice(&data);

        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        a.push_slice(&data[..37]);
        b.push_slice(&data[37..]);
        a.merge(&b);

        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.m2 - whole.m2).abs() < 1e-6);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push_slice(&[1.0, 2.0, 3.0]);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e.count(), 3);
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_quantiles() {
        let s = Summary::from_values((1..=100).map(f64::from));
        assert_eq!(s.median(), 50.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert!((s.quantile(0.25) - 25.75).abs() < 1e-9);
    }

    #[test]
    fn summary_drops_nans() {
        let s = Summary::from_values(vec![1.0, f64::NAN, 3.0]);
        assert_eq!(s.count(), 2);
        assert_eq!(s.median(), 2.0);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::from_values(std::iter::empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn sum_squared_deviations_matches_direct() {
        let data = [1.0, 4.0, 9.0, 16.0, 25.0];
        let mut s = OnlineStats::new();
        s.push_slice(&data);
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let direct: f64 = data.iter().map(|x| (x - mean).powi(2)).sum();
        assert!((s.sum_squared_deviations() - direct).abs() < 1e-9);
    }
}
