//! Bloom filter.
//!
//! §4.2 of the paper suggests a main-memory Bloom filter in front of the
//! SVDD delta hash table, "which would predict the majority of
//! non-outliers, and thus save several probes into the hash table", and
//! §6.2 suggests the same structure to flag all-zero customers.
//!
//! This is a standard partitioned-by-double-hashing Bloom filter with a
//! power-of-two bit array, sized from a target false-positive rate.

use crate::hash::double_hash_positions;

/// A fixed-size Bloom filter over `u64` keys.
///
/// # Examples
///
/// ```
/// use ats_common::BloomFilter;
/// let mut bf = BloomFilter::with_capacity(1_000, 0.01);
/// bf.insert(42);
/// assert!(bf.contains(42));
/// ```
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    /// Number of addressable bits; always a power of two.
    nbits: usize,
    /// Number of hash functions.
    k: usize,
    inserted: usize,
}

impl BloomFilter {
    /// Create a filter sized for `expected_items` with roughly
    /// `target_fp_rate` false positives (clamped to `[1e-6, 0.5]`).
    ///
    /// Uses the standard sizing `m = -n ln p / (ln 2)^2` rounded up to a
    /// power of two, and `k = (m/n) ln 2` hash functions.
    pub fn with_capacity(expected_items: usize, target_fp_rate: f64) -> Self {
        let n = expected_items.max(1) as f64;
        let p = target_fp_rate.clamp(1e-6, 0.5);
        let ln2 = std::f64::consts::LN_2;
        let m = (-n * p.ln() / (ln2 * ln2)).ceil().max(64.0);
        let nbits = (m as usize).next_power_of_two();
        let k = ((nbits as f64 / n) * ln2).round().clamp(1.0, 16.0) as usize;
        Self::sized(nbits, k)
    }

    /// Create a filter with an explicit number of bits (rounded up to a
    /// power of two, minimum 64) and hash functions.
    pub fn with_bits(nbits: usize, k: usize) -> Self {
        Self::sized(nbits.max(64).next_power_of_two(), k.clamp(1, 16))
    }

    /// The one place a filter comes into being: `nbits` is a power of
    /// two of at least one word, which is what lets
    /// [`double_hash_positions`] mask instead of divide.
    fn sized(nbits: usize, k: usize) -> Self {
        assert!(
            nbits.is_power_of_two() && nbits >= 64,
            "bloom filter of {nbits} bits: the size must be a power of two >= 64"
        );
        BloomFilter {
            bits: vec![0u64; nbits / 64],
            nbits,
            k,
            inserted: 0,
        }
    }

    /// Insert a key.
    pub fn insert(&mut self, key: u64) {
        for pos in double_hash_positions(key, self.k, self.nbits) {
            self.bits[pos / 64] |= 1u64 << (pos % 64);
        }
        self.inserted += 1;
    }

    /// Query a key. `false` is definitive; `true` may be a false positive.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        double_hash_positions(key, self.k, self.nbits)
            .all(|pos| self.bits[pos / 64] & (1u64 << (pos % 64)) != 0)
    }

    /// Number of keys inserted so far (double-inserts counted twice).
    pub fn len(&self) -> usize {
        self.inserted
    }

    /// Whether nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.inserted == 0
    }

    /// Size of the bit array in bits.
    pub fn nbits(&self) -> usize {
        self.nbits
    }

    /// Number of hash functions.
    pub fn num_hashes(&self) -> usize {
        self.k
    }

    /// Bytes of memory consumed by the bit array.
    pub fn storage_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Estimated false-positive rate given the current fill, using
    /// `(1 - e^{-kn/m})^k`.
    pub fn estimated_fp_rate(&self) -> f64 {
        let kn = (self.k * self.inserted) as f64;
        let m = self.nbits as f64;
        (1.0 - (-kn / m).exp()).powi(self.k as i32)
    }

    /// Fraction of bits set — a direct saturation measure.
    pub fn fill_ratio(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        f64::from(set) / self.nbits as f64
    }

    /// Clear all bits.
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.inserted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::with_capacity(10_000, 0.01);
        for key in (0..10_000u64).map(|i| i * 7 + 3) {
            bf.insert(key);
        }
        for key in (0..10_000u64).map(|i| i * 7 + 3) {
            assert!(bf.contains(key), "false negative for {key}");
        }
    }

    #[test]
    fn fp_rate_near_target() {
        let mut bf = BloomFilter::with_capacity(10_000, 0.01);
        for key in 0..10_000u64 {
            bf.insert(key);
        }
        // Probe 100k keys guaranteed absent.
        let fps = (1_000_000..1_100_000u64)
            .filter(|&k| bf.contains(k))
            .count();
        let rate = fps as f64 / 100_000.0;
        assert!(rate < 0.05, "observed fp rate {rate}");
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let bf = BloomFilter::with_capacity(100, 0.01);
        assert!(bf.is_empty());
        assert!((0..1000u64).all(|k| !bf.contains(k)));
    }

    #[test]
    fn clear_resets() {
        let mut bf = BloomFilter::with_capacity(100, 0.01);
        bf.insert(5);
        assert!(bf.contains(5));
        bf.clear();
        assert!(!bf.contains(5));
        assert!(bf.is_empty());
        assert_eq!(bf.fill_ratio(), 0.0);
    }

    #[test]
    fn sizing_is_power_of_two() {
        for n in [1usize, 10, 1000, 123_456] {
            let bf = BloomFilter::with_capacity(n, 0.01);
            assert!(bf.nbits().is_power_of_two());
            assert!(bf.num_hashes() >= 1 && bf.num_hashes() <= 16);
        }
    }

    #[test]
    fn with_bits_respects_minimum() {
        let bf = BloomFilter::with_bits(1, 0);
        assert_eq!(bf.nbits(), 64);
        assert_eq!(bf.num_hashes(), 1);
    }

    #[test]
    fn estimated_fp_tracks_fill() {
        let mut bf = BloomFilter::with_capacity(1000, 0.01);
        let before = bf.estimated_fp_rate();
        for k in 0..1000 {
            bf.insert(k);
        }
        let after = bf.estimated_fp_rate();
        assert!(before < after);
        assert!(after < 0.05);
    }

    #[test]
    fn storage_bytes_matches_bits() {
        let bf = BloomFilter::with_bits(1 << 20, 7);
        assert_eq!(bf.storage_bytes(), (1 << 20) / 8);
    }
}
