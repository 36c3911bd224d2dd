//! Summary arithmetic: medians, the tail-percentile rule, segment-median
//! throughput and the quartile spread the acceptance check uses.

/// Percentiles a tail may be reported at, ascending.
pub const LADDER: [f64; 6] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// Throughput is the median over this many equal-count segments of a phase.
pub const SEGMENTS: usize = 20;

/// Median of `v` (mean of the middle two when even). Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `p·n` samples at or below it.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest ladder percentile, no higher than `design`, that still has at
/// least ten samples beyond it; the median when none has.
pub fn tail_percentile(n: usize, design: f64) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| p <= design && samples_beyond(n, p) >= 10)
        .unwrap_or(0.50)
}

/// Median throughput, in completions per second, over up to [`SEGMENTS`]
/// segments of equal completion count (±1). `ends_ns` are completion times
/// measured from the start of the phase.
pub fn segment_median_per_s(ends_ns: &[u64]) -> f64 {
    median(&segment_rates_per_s(ends_ns))
}

/// The per-segment rates [`segment_median_per_s`] takes the median of.
pub fn segment_rates_per_s(ends_ns: &[u64]) -> Vec<f64> {
    let mut ends = ends_ns.to_vec();
    ends.sort_unstable();
    let n = ends.len();
    assert!(n > 0, "throughput of no completions");
    let segs = SEGMENTS.min(n);
    let mut rates = Vec::with_capacity(segs);
    let (mut prev_idx, mut prev_t) = (0usize, 0u64);
    for s in 1..=segs {
        let idx = s * n / segs;
        let t = ends[idx - 1];
        let dt = t.saturating_sub(prev_t).max(1);
        rates.push((idx - prev_idx) as f64 * 1e9 / dt as f64);
        (prev_idx, prev_t) = (idx, t);
    }
    rates
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)` gives
/// them (the exclusive method). Needs at least two samples.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1), q(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    (q3 - q1).abs() / median(v).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 0.999), 100);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(tail_percentile(1000, 0.999), 0.99);
        assert_eq!(tail_percentile(999, 0.999), 0.95);
        // The design percentile caps the choice.
        assert_eq!(tail_percentile(1_000_000, 0.95), 0.95);
        // 40 samples: p75 leaves 10; 39 leaves 9 and falls to the median.
        assert_eq!(tail_percentile(40, 0.99), 0.75);
        assert_eq!(tail_percentile(39, 0.99), 0.50);
        assert_eq!(tail_percentile(3, 0.99), 0.50);
    }

    #[test]
    fn segment_median_ignores_one_stall() {
        // 100 completions 1 ms apart, with one 500 ms stall in the middle:
        // the mean rate halves, the segment median stays at 1000/s.
        let mut t = 0u64;
        let ends: Vec<u64> = (0..100)
            .map(|i| {
                t += if i == 50 { 500_000_000 } else { 1_000_000 };
                t
            })
            .collect();
        let r = segment_median_per_s(&ends);
        assert!((r - 1000.0).abs() < 1e-6, "{r}");
    }

    #[test]
    fn segment_median_with_few_completions() {
        // Fewer completions than segments: every completion is a segment.
        let r = segment_median_per_s(&[2_000_000_000, 1_000_000_000, 3_000_000_000]);
        assert!((r - 1.0).abs() < 1e-12, "{r}");
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 4.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
