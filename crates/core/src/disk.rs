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

/// Decode one shard's `deltas.bin` image — the bytes the caller has
/// just checked against the manifest's CRC — into its serving store.
///
/// `shard_rows × expected_cols` is the geometry the caller trusts (the
/// validated manifest, cross-checked against `u.atsm`'s own header): a
/// triplet outside it is [`AtsError::Corrupt`], and it is rejected here,
/// on the decoded numbers, *before* [`DeltaStore::build`] sizes its row
/// offsets by them — a crafted row of 2⁴⁰ must not become an allocation.
pub(crate) fn read_deltas(
    buf: &[u8],
    shard_rows: usize,
    expected_cols: usize,
    with_bloom: bool,
) -> Result<DeltaStore> {
    let (cols_raw, raw) = decode_deltas(buf)?;
    let cols = usize_from_u64(cols_raw, "delta column count")?;
    if cols != expected_cols {
        return Err(AtsError::Corrupt(format!(
            "delta file claims {cols} columns, store has {expected_cols}"
        )));
    }
    let mut triplets = Vec::with_capacity(raw.len());
    for (r, c, d) in raw {
        let row = usize_from_u64(r, "delta row")?;
        let col = usize_from_u64(c, "delta column")?;
        if row >= shard_rows || col >= cols {
            return Err(AtsError::Corrupt(format!(
                "delta ({row}, {col}) lies outside the shard's {shard_rows}x{cols} cells"
            )));
        }
        triplets.push((row, col, d));
    }
    // What is left for the build to refuse is a duplicated cell.
    DeltaStore::build(cols, triplets, with_bloom).map_err(|e| match e {
        AtsError::InvalidArgument(msg) => AtsError::Corrupt(format!("delta file: {msg}")),
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_delta_count_rejected_without_allocation() {
        // A truncated/corrupt deltas.bin claiming billions of triplets
        // must be rejected by the length check, not by a multi-GB
        // `Vec::with_capacity` attempt.
        let mut buf = Vec::new();
        buf.extend_from_slice(DELTA_MAGIC);
        put_u64(&mut buf, 10); // cols
        put_u64(&mut buf, u64::MAX / 2); // absurd count
        buf.extend_from_slice(&[0u8; 30]); // a few payload bytes
        let err = read_deltas(&buf, 100, 10, true).unwrap_err();
        assert!(matches!(err, AtsError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("triplets"), "{err}");
    }

    #[test]
    fn delta_trailing_garbage_rejected() {
        let mut bytes = encode_deltas(10, &[(1, 2, 3.0)]);
        assert_eq!(read_deltas(&bytes, 100, 10, false).unwrap().len(), 1);
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            read_deltas(&bytes, 100, 10, false),
            Err(AtsError::Corrupt(_))
        ));
    }

    #[test]
    fn out_of_range_delta_row_is_corrupt_before_anything_is_sized_by_it() {
        // A well-formed image (valid varints, exact length) whose one row
        // index is 2^40: indexing rows by it would ask for terabytes. The
        // loader must refuse on the decoded number; what it may allocate
        // is bounded by the 30-odd bytes of input.
        let hostile = encode_deltas(10, &[(0, 3, 1.0), (1 << 40, 2, -1.0)]);
        assert!(hostile.len() < 64);
        let err = read_deltas(&hostile, 8, 10, true).unwrap_err();
        assert!(matches!(err, AtsError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("outside the shard"), "{err}");
        // The boundary itself: the last row is fine, one past is not; a
        // column past the width and a repeated cell are corrupt as well.
        let image = |t: &[DeltaTriplet]| encode_deltas(10, t);
        assert_eq!(
            read_deltas(&image(&[(7, 9, 1.0)]), 8, 10, false)
                .unwrap()
                .len(),
            1
        );
        for bad in [
            vec![(8, 9, 1.0)],
            vec![(7, 10, 1.0)],
            vec![(2, 2, 1.0), (2, 2, 3.0)],
        ] {
            let err = read_deltas(&image(&bad), 8, 10, false).unwrap_err();
            assert!(matches!(err, AtsError::Corrupt(_)), "{bad:?}: {err}");
        }
        // Unsorted but otherwise valid triplets still load (older
        // writers made no order promise) and serve the same cells.
        let unsorted = image(&[(5, 1, 2.0), (0, 4, 3.0), (5, 0, 4.0)]);
        let store = read_deltas(&unsorted, 8, 10, true).unwrap();
        assert_eq!(store.row(5), (&[0u32, 1][..], &[4.0, 2.0][..]));
        assert_eq!(store.probe(0, 4), Some(3.0));
    }
}
