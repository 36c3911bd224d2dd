//! Seeded request-stream generators. The benchmark owns its generator so a
//! change to the library's `rand` stand-in cannot move the request streams.

/// SplitMix64: one 64-bit state, full period, good enough for load shapes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `stream` separates independent uses of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with weight `1/(r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            let z = Zipf::new(1000, 1.0);
            let perm = permutation(1000, &mut r);
            (0..64).map(|_| perm[z.sample(&mut r)]).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(257, &mut Rng::new(3, 0));
        p.sort_unstable();
        assert!(p.iter().copied().eq(0..257));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut r = Rng::new(11, 0);
        let mut hits = [0usize; 100];
        for _ in 0..20_000 {
            hits[z.sample(&mut r)] += 1;
        }
        // Rank 0 carries 1/H(100) ≈ 19 % of the mass, rank 99 a hundredth of that.
        assert!(hits[0] > 3_000 && hits[0] < 4_600, "{}", hits[0]);
        assert!(hits[0] > 20 * hits[99].max(1));
        assert!(hits.iter().sum::<usize>() == 20_000);
    }
}
