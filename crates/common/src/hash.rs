//! Seedable 64-bit mixing hashes.
//!
//! The delta hash table of SVDD (§4.2) keys outlier cells by their
//! row-major ordinal `row * M + col`; the Bloom filter in front of it needs
//! several independent hash functions of the same key. Both are served by
//! [`mix64`] / [`hash_u64`], a SplitMix64-style finalizer with excellent
//! avalanche behaviour and no allocation, plus [`hash_bytes`], an FNV-1a
//! variant strengthened with a final mix (used for file checksums).

/// SplitMix64 finalizer: a bijective mixing of a 64-bit value.
///
/// Every input bit affects every output bit (full avalanche). Because the
/// function is a bijection, distinct cell ordinals can never collide before
/// reduction to a table slot.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash a 64-bit key with a seed, producing independent streams per seed.
#[inline]
pub fn hash_u64(key: u64, seed: u64) -> u64 {
    mix64(key ^ mix64(seed))
}

/// FNV-1a over a byte slice, strengthened with a final [`mix64`].
///
/// Used for file integrity checksums in `ats-storage`; not cryptographic.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = ByteHasher::new();
    h.update(bytes);
    h.finish()
}

/// The incremental form of [`hash_bytes`]: feeding a byte stream through
/// [`ByteHasher::update`] in chunks of any size yields the checksum of
/// the concatenation, so a file can be checksummed through a fixed
/// buffer instead of being read whole.
#[derive(Debug, Clone, Copy)]
pub struct ByteHasher(u64);

impl ByteHasher {
    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

    /// A hasher that has seen no bytes yet.
    pub fn new() -> Self {
        ByteHasher(Self::FNV_OFFSET)
    }

    /// Absorb the next chunk of the stream.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(Self::FNV_PRIME);
        }
        self.0 = h;
    }

    /// The checksum of every byte absorbed so far.
    pub fn finish(&self) -> u64 {
        mix64(self.0)
    }
}

impl Default for ByteHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Derive `n` bloom-filter bit positions for `key` using double hashing
/// (Kirsch–Mitzenmacher): `h1 + i*h2 mod m`.
///
/// `m` must be a power of two (every [`crate::BloomFilter`] constructor
/// rounds its bit count up to one and asserts it), so the modulus is a
/// mask — no 64-bit division on the delta-probe path.
#[inline]
pub fn double_hash_positions(key: u64, n: usize, m: usize) -> impl Iterator<Item = usize> {
    debug_assert!(m.is_power_of_two(), "bloom bit count {m} is not 2^x");
    let h1 = hash_u64(key, 0x5151_5151);
    let h2 = hash_u64(key, 0xA3A3_A3A3) | 1; // odd => full period for power-of-two m
    let mask = (m as u64).wrapping_sub(1);
    (0..n as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) & mask) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mix64_is_deterministic() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
    }

    #[test]
    fn mix64_zero_is_not_zero() {
        // A common failure mode of weak mixers: fixed point at zero.
        assert_ne!(mix64(0), 0);
    }

    #[test]
    fn seeded_streams_differ() {
        let a: Vec<u64> = (0..100).map(|k| hash_u64(k, 1)).collect();
        let b: Vec<u64> = (0..100).map(|k| hash_u64(k, 2)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn mix64_no_collisions_small_domain() {
        // bijectivity implies no collisions; spot-check 100k inputs.
        let mut seen = HashSet::new();
        for k in 0..100_000u64 {
            assert!(seen.insert(mix64(k)), "collision at {k}");
        }
    }

    #[test]
    fn hash_bytes_sensitive_to_each_byte() {
        let base = hash_bytes(b"hello world");
        assert_ne!(base, hash_bytes(b"hello worlc"));
        assert_ne!(base, hash_bytes(b"iello world"));
        assert_ne!(base, hash_bytes(b"hello worl"));
    }

    #[test]
    fn hash_bytes_empty_ok() {
        // Empty slices hash deterministically without panicking.
        assert_eq!(hash_bytes(b""), hash_bytes(b""));
    }

    #[test]
    fn chunked_hash_equals_one_shot_at_every_split() {
        let bytes: Vec<u8> = (0..97u32).map(|i| (i * 37 % 251) as u8).collect();
        let whole = hash_bytes(&bytes);
        for a in 0..=bytes.len() {
            for b in a..=bytes.len() {
                let mut h = ByteHasher::new();
                h.update(&bytes[..a]);
                h.update(&bytes[a..b]);
                h.update(&bytes[b..]);
                assert_eq!(h.finish(), whole, "split at {a}/{b}");
            }
        }
        assert_eq!(ByteHasher::new().finish(), hash_bytes(b""));
    }

    #[test]
    fn double_hash_positions_in_range() {
        for key in [0u64, 1, 999, u64::MAX] {
            for p in double_hash_positions(key, 7, 1024) {
                assert!(p < 1024);
            }
        }
    }

    #[test]
    fn mask_equals_modulus_for_power_of_two_sizes() {
        // The positions existing filters were built with: `% m`. Masking
        // must reproduce them exactly, or a filter saved in memory by one
        // build would answer differently under the next.
        for shift in [6u32, 7, 10, 17, 20, 31] {
            let m = 1usize << shift;
            for t in 0..2_000u64 {
                let key = mix64(t).wrapping_mul(t | 1) ^ (t << 40);
                let h1 = hash_u64(key, 0x5151_5151);
                let h2 = hash_u64(key, 0xA3A3_A3A3) | 1;
                let by_modulus: Vec<usize> = (0..16u64)
                    .map(|i| (h1.wrapping_add(i.wrapping_mul(h2)) % m as u64) as usize)
                    .collect();
                let by_mask: Vec<usize> = double_hash_positions(key, 16, m).collect();
                assert_eq!(by_mask, by_modulus, "key {key:#x} m 2^{shift}");
            }
        }
    }

    #[test]
    fn double_hash_positions_count() {
        assert_eq!(double_hash_positions(12345, 5, 64).count(), 5);
        assert_eq!(double_hash_positions(12345, 0, 64).count(), 0);
    }

    #[test]
    fn avalanche_rough_check() {
        // Flipping one input bit should flip ~32 of the 64 output bits.
        let mut total = 0u32;
        let trials = 256;
        for i in 0..trials {
            let x = mix64(i) ^ 0xDEAD_BEEF; // arbitrary spread of inputs
            let flipped = x ^ (1 << (i % 64));
            total += (mix64(x) ^ mix64(flipped)).count_ones();
        }
        let avg = f64::from(total) / f64::from(u32::try_from(trials).unwrap());
        assert!((20.0..44.0).contains(&avg), "avalanche average {avg}");
    }
}
