//! Little-endian byte codecs for the on-disk formats.
//!
//! `ats-storage` lays matrices out as raw little-endian IEEE-754 doubles;
//! the SVDD delta file stores `(row, col, delta)` triplets; headers carry
//! fixed-width integers. These helpers centralize the encoding so every
//! file format in the workspace agrees on byte order and width, and so the
//! hot row-decode path (`read_f64_slice_into`) is a single tight loop.

use crate::error::{AtsError, Result};

/// Append a `u32` little-endian.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` little-endian.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` little-endian.
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a whole `f64` slice little-endian.
pub fn put_f64_slice(buf: &mut Vec<u8>, vs: &[f64]) {
    buf.reserve(vs.len() * 8);
    for &v in vs {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Read a `u32` at `offset`, or error if out of range.
#[inline]
pub fn get_u32(buf: &[u8], offset: usize) -> Result<u32> {
    let end = offset
        .checked_add(4)
        .ok_or_else(|| AtsError::Corrupt("u32 offset overflow".into()))?;
    let bytes = buf
        .get(offset..end)
        .ok_or_else(|| AtsError::Corrupt(format!("u32 read at {offset} past end {}", buf.len())))?;
    let arr: [u8; 4] = bytes
        .try_into()
        .map_err(|_| AtsError::Corrupt("u32 slice width".into()))?;
    Ok(u32::from_le_bytes(arr))
}

/// Read a `u64` at `offset`, or error if out of range.
#[inline]
pub fn get_u64(buf: &[u8], offset: usize) -> Result<u64> {
    let end = offset
        .checked_add(8)
        .ok_or_else(|| AtsError::Corrupt("u64 offset overflow".into()))?;
    let bytes = buf
        .get(offset..end)
        .ok_or_else(|| AtsError::Corrupt(format!("u64 read at {offset} past end {}", buf.len())))?;
    let arr: [u8; 8] = bytes
        .try_into()
        .map_err(|_| AtsError::Corrupt("u64 slice width".into()))?;
    Ok(u64::from_le_bytes(arr))
}

/// Read an `f64` at `offset`, or error if out of range.
#[inline]
pub fn get_f64(buf: &[u8], offset: usize) -> Result<f64> {
    Ok(f64::from_bits(get_u64(buf, offset)?))
}

/// Decode `out.len()` doubles starting at `offset`. Errors if the buffer
/// is too short.
pub fn read_f64_slice_into(buf: &[u8], offset: usize, out: &mut [f64]) -> Result<()> {
    let need = out.len() * 8;
    let end = offset
        .checked_add(need)
        .ok_or_else(|| AtsError::Corrupt("f64 slice offset overflow".into()))?;
    let src = buf.get(offset..end).ok_or_else(|| {
        AtsError::Corrupt(format!(
            "f64 slice read of {need} bytes at {offset} past end {}",
            buf.len()
        ))
    })?;
    for (dst, chunk) in out.iter_mut().zip(src.chunks_exact(8)) {
        let arr: [u8; 8] = chunk
            .try_into()
            .map_err(|_| AtsError::Corrupt("f64 chunk width".into()))?;
        *dst = f64::from_le_bytes(arr);
    }
    Ok(())
}

/// LEB128-style variable-length encoding of a `u64` (used by the LZ
/// container and delta files where most rows/cols are small).
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        // ats-lint: allow(lossy-cast) — masked to the low 7 bits, always fits in u8
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decode a varint at `offset`; returns `(value, bytes_consumed)`.
pub fn get_varint(buf: &[u8], offset: usize) -> Result<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().skip(offset).enumerate() {
        if shift >= 64 {
            return Err(AtsError::Corrupt("varint longer than 10 bytes".into()));
        }
        v |= u64::from(byte & 0x7F)
            .checked_shl(shift)
            .ok_or_else(|| AtsError::Corrupt("varint shift overflow".into()))?;
        if byte & 0x80 == 0 {
            return Ok((v, i + 1));
        }
        shift += 7;
    }
    Err(AtsError::Corrupt("varint truncated".into()))
}

/// Convert a disk/CLI-originated `u64` to `usize`, erroring instead of
/// truncating when the value does not fit (32-bit targets, or a corrupt
/// header claiming an absurd count). `what` names the field for the
/// error message.
#[inline]
pub fn usize_from_u64(v: u64, what: &'static str) -> Result<usize> {
    usize::try_from(v).map_err(|_| AtsError::Corrupt(format!("{what} {v} does not fit in usize")))
}

/// Widen a `usize` to `u64` for on-disk headers and offsets. Lossless on
/// every supported target (`usize` is at most 64 bits).
#[inline]
pub fn u64_from_usize(v: usize) -> u64 {
    // ats-lint: allow(lossy-cast) — widening usize→u64 is lossless on all supported targets
    v as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        assert_eq!(get_u32(&buf, 0).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn u64_roundtrip() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX - 7);
        assert_eq!(get_u64(&buf, 0).unwrap(), u64::MAX - 7);
    }

    #[test]
    fn f64_roundtrip_preserves_bits() {
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE, 1e300] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            assert_eq!(get_f64(&buf, 0).unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn slice_into_with_offset() {
        let mut buf = vec![0xAA; 3]; // 3 bytes of junk prefix
        put_f64_slice(&mut buf, &[1.0, 2.0]);
        let mut out = [0.0; 2];
        read_f64_slice_into(&buf, 3, &mut out).unwrap();
        assert_eq!(out, [1.0, 2.0]);
    }

    #[test]
    fn short_reads_error() {
        let buf = vec![0u8; 7];
        assert!(get_u64(&buf, 0).is_err());
        assert!(get_u32(&buf, 5).is_err());
        let mut out = [0.0; 1];
        assert!(read_f64_slice_into(&buf, 0, &mut out).is_err());
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let (got, used) = get_varint(&buf, 0).unwrap();
            assert_eq!(got, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn varint_truncated_errors() {
        let buf = vec![0x80, 0x80]; // continuation bits but no terminator
        assert!(get_varint(&buf, 0).is_err());
        assert!(get_varint(&[], 0).is_err());
    }

    #[test]
    fn varint_sizes() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_varint(&mut buf, 128);
        assert_eq!(buf.len(), 2);
        buf.clear();
        put_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn offset_overflow_is_error_not_panic() {
        let buf = vec![0u8; 16];
        assert!(get_u32(&buf, usize::MAX - 1).is_err());
        assert!(get_u64(&buf, usize::MAX - 2).is_err());
    }

    #[test]
    fn checked_width_conversions() {
        assert_eq!(usize_from_u64(42, "count").unwrap(), 42);
        assert_eq!(u64_from_usize(42), 42);
        #[cfg(target_pointer_width = "32")]
        assert!(usize_from_u64(u64::MAX, "count").is_err());
    }
}
