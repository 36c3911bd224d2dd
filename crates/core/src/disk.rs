//! The `deltas.bin` codec: how a shard's SVDD outlier triplets (§4.2)
//! are laid out on disk.
//!
//! "Assuming that `V` and `Λ` are already pinned in memory, that the
//! matrix `U` is stored row-wise on disk, and that an entire row fits in
//! one disk block, only a single disk access is required to perform this
//! reconstruction." [`crate::shard::ShardedStore`] is that serving
//! architecture; this module is the one component file format it owns
//! that is not an `.atsm` matrix. Deltas are small by construction
//! (`γ·16` bytes within the space budget), so each shard's file is
//! loaded whole into the in-memory hash table on first touch — behind a
//! total decoder, because the bytes come from disk.

use ats_common::codec::{
    get_f64, get_u64, get_varint, put_f64, put_u64, put_varint, u64_from_usize, usize_from_u64,
};
use ats_common::{AtsError, Result};
use ats_compress::delta::DeltaStore;
use std::path::Path;

const DELTA_MAGIC: &[u8; 8] = b"ATSDELT1";

/// Minimum encoded size of one delta triplet: two varints (≥ 1 byte
/// each) plus an 8-byte delta value.
const MIN_TRIPLET_BYTES: usize = 10;

/// One stored outlier: `(row, column, delta value)` as serialized in
/// `deltas.bin`.
pub type DeltaTriplet = (u64, u64, f64);

/// Serialize delta triplets into the `deltas.bin` byte image: the magic,
/// the column count, the triplet count, then a varint row, a varint
/// column, and a little-endian `f64` per triplet.
pub fn encode_deltas(cols: u64, triplets: &[DeltaTriplet]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(24 + triplets.len() * 12);
    buf.extend_from_slice(DELTA_MAGIC);
    put_u64(&mut buf, cols);
    put_u64(&mut buf, u64_from_usize(triplets.len()));
    for &(r, c, d) in triplets {
        put_varint(&mut buf, r);
        put_varint(&mut buf, c);
        put_f64(&mut buf, d);
    }
    buf
}

/// Parse a `deltas.bin` byte image; returns `(cols, triplets)`.
///
/// Total on every input: truncated, oversized-count, and trailing-garbage
/// images all yield [`AtsError::Corrupt`], never a panic or an
/// attacker-sized allocation.
pub fn decode_deltas(buf: &[u8]) -> Result<(u64, Vec<DeltaTriplet>)> {
    if buf.len() < 24 || buf.get(..8) != Some(DELTA_MAGIC.as_slice()) {
        return Err(AtsError::Corrupt("bad delta file header".into()));
    }
    let cols = get_u64(buf, 8)?;
    let count_raw = get_u64(buf, 16)?;
    // Validate the count against the bytes actually present *before*
    // sizing any allocation: a corrupt count must not trigger a multi-GB
    // `with_capacity` only to fail at the first varint.
    let remaining = buf.len() - 24;
    if count_raw > u64_from_usize(remaining / MIN_TRIPLET_BYTES) {
        return Err(AtsError::Corrupt(format!(
            "delta file claims {count_raw} triplets but holds only {remaining} payload bytes"
        )));
    }
    let count = usize_from_u64(count_raw, "delta triplet count")?;
    let mut triplets = Vec::with_capacity(count);
    let mut p = 24usize;
    for _ in 0..count {
        let (r, used) = get_varint(buf, p)?;
        p += used;
        let (c, used) = get_varint(buf, p)?;
        p += used;
        let d = get_f64(buf, p)?;
        p += 8;
        triplets.push((r, c, d));
    }
    if p != buf.len() {
        return Err(AtsError::Corrupt(format!(
            "delta file has {} trailing bytes after {count} triplets",
            buf.len() - p
        )));
    }
    Ok((cols, triplets))
}

pub(crate) fn read_deltas(
    path: &Path,
    expected_cols: usize,
    with_bloom: bool,
) -> Result<DeltaStore> {
    let buf = std::fs::read(path)?;
    let (cols_raw, raw) = decode_deltas(&buf)?;
    let cols = usize_from_u64(cols_raw, "delta column count")?;
    if cols != expected_cols {
        return Err(AtsError::Corrupt(format!(
            "delta file claims {cols} columns, store has {expected_cols}"
        )));
    }
    let mut triplets = Vec::with_capacity(raw.len());
    for (r, c, d) in raw {
        triplets.push((
            usize_from_u64(r, "delta row")?,
            usize_from_u64(c, "delta column")?,
            d,
        ));
    }
    DeltaStore::build(cols, triplets, with_bloom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_common::TestDir;

    #[test]
    fn corrupt_delta_count_rejected_without_allocation() {
        // A truncated/corrupt deltas.bin claiming billions of triplets
        // must be rejected by the length check, not by a multi-GB
        // `Vec::with_capacity` attempt.
        let tmp = TestDir::new("ats-disk");
        let path = tmp.file("deltas.bin");
        let mut buf = Vec::new();
        buf.extend_from_slice(DELTA_MAGIC);
        put_u64(&mut buf, 10); // cols
        put_u64(&mut buf, u64::MAX / 2); // absurd count
        buf.extend_from_slice(&[0u8; 30]); // a few payload bytes
        std::fs::write(&path, &buf).unwrap();
        let err = read_deltas(&path, 10, true).unwrap_err();
        assert!(matches!(err, AtsError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("triplets"), "{err}");
    }

    #[test]
    fn delta_trailing_garbage_rejected() {
        let tmp = TestDir::new("ats-disk");
        let path = tmp.file("deltas.bin");
        let mut bytes = encode_deltas(10, &[(1, 2, 3.0)]);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_deltas(&path, 10, false).unwrap().len(), 1);
        bytes.extend_from_slice(b"junk");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_deltas(&path, 10, false),
            Err(AtsError::Corrupt(_))
        ));
    }
}
