//! Per-shard zone-map synopses: tiny min/max/sum/count tiles over the
//! *reconstructed* matrix, persisted next to `U` so selective `where`
//! scans can prune whole tiles without touching a single `U` page.
//!
//! The synopsis partitions a shard's local `rows × cols` rectangle into
//! fixed [`ROW_BLOCK`]`×`[`COL_BLOCK`] tiles (edge tiles are smaller)
//! and stores, per tile, the exact min/max/sum/count of the values the
//! store would serve — i.e. the SVD reconstruction *after* delta
//! patching. Tracking deltas exactly at emit time (rather than widening
//! bounds by the largest |δ|) keeps the bounds tight and makes the
//! pruning argument trivial: a tile's `[min, max]` interval contains
//! every value a query could ever reconstruct from it, so a predicate
//! that is false on the whole interval is false on every cell.
//!
//! `NaN` poisons a tile's bounds (`min`/`max` become `NaN`); the query
//! layer treats non-finite bounds as "maybe" and reconstructs the tile,
//! so pruning stays sound on pathological data.
//!
//! On disk (`synopsis.bin`, one per shard, CRC-pinned by the manifest):
//! an 8-byte magic, five `u64` header fields (rows, cols, row_block,
//! col_block, tile count), then 32 bytes per tile (`f64` min, `f64`
//! max, `f64` sum, `u64` count), all little-endian. The decoder is
//! total: truncated, oversized-count, and trailing-garbage images all
//! yield [`AtsError::Corrupt`], never a panic or an attacker-sized
//! allocation.

use ats_common::codec::{get_f64, get_u64, put_f64, put_u64, u64_from_usize, usize_from_u64};
use ats_common::{AtsError, Result};

/// File name of the per-shard synopsis component inside a shard
/// directory (sibling of `u.atsm` / `deltas.bin`).
pub const SYNOPSIS_FILE: &str = "synopsis.bin";

/// Tile height in rows. Matches the query engine's blocked-kernel row
/// chunk (`AGG_BLOCK_ROWS`), so a straddling tile reconstructs through
/// one kernel call per tile-row, not ragged fragments.
pub const ROW_BLOCK: usize = 8;

/// Tile width in columns.
pub const COL_BLOCK: usize = 16;

const SYNOPSIS_MAGIC: &[u8; 8] = b"ATSSYNO1";

/// Encoded size of one tile record: min, max, sum (`f64`) + count (`u64`).
const TILE_BYTES: usize = 32;

/// Header: magic + rows + cols + row_block + col_block + tile count.
const HEADER_BYTES: usize = 48;

/// Exact statistics of one tile of reconstructed values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileStat {
    /// Smallest served value in the tile (`NaN` if any cell is `NaN`).
    pub min: f64,
    /// Largest served value in the tile (`NaN` if any cell is `NaN`).
    pub max: f64,
    /// Sum of the tile's values (diagnostic; not used for pruning).
    pub sum: f64,
    /// Number of cells in the tile.
    pub count: u64,
}

/// Zone-map synopsis of one shard: a row-major grid of [`TileStat`]s
/// over the shard's local `rows × cols` rectangle.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSynopsis {
    rows: usize,
    cols: usize,
    row_block: usize,
    col_block: usize,
    tiles: Vec<TileStat>,
}

/// Tile-grid shape for a `rows × cols` rectangle under `rb × cb` tiles.
fn grid(rows: usize, cols: usize, rb: usize, cb: usize) -> (usize, usize) {
    (rows.div_ceil(rb), cols.div_ceil(cb))
}

impl ShardSynopsis {
    /// Shard height in rows (local, i.e. `end - start`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Shard width in columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Tile height in rows.
    pub fn row_block(&self) -> usize {
        self.row_block
    }

    /// Tile width in columns.
    pub fn col_block(&self) -> usize {
        self.col_block
    }

    /// Number of tile rows in the grid.
    pub fn tile_rows(&self) -> usize {
        grid(self.rows, self.cols, self.row_block, self.col_block).0
    }

    /// Number of tile columns in the grid.
    pub fn tile_cols(&self) -> usize {
        grid(self.rows, self.cols, self.row_block, self.col_block).1
    }

    /// All tiles, row-major.
    pub fn tiles(&self) -> &[TileStat] {
        &self.tiles
    }

    /// The tile covering local rows `tr·row_block ..` and columns
    /// `tc·col_block ..`, or `None` outside the grid.
    pub fn tile(&self, tr: usize, tc: usize) -> Option<&TileStat> {
        let (_, tcols) = grid(self.rows, self.cols, self.row_block, self.col_block);
        if tr >= self.tile_rows() || tc >= tcols {
            return None;
        }
        self.tiles.get(tr * tcols + tc)
    }

    /// Encoded byte size of this synopsis (header + tiles).
    pub fn storage_bytes(&self) -> usize {
        HEADER_BYTES + self.tiles.len() * TILE_BYTES
    }

    /// Serialize into the `synopsis.bin` byte image.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.storage_bytes());
        buf.extend_from_slice(SYNOPSIS_MAGIC);
        put_u64(&mut buf, u64_from_usize(self.rows));
        put_u64(&mut buf, u64_from_usize(self.cols));
        put_u64(&mut buf, u64_from_usize(self.row_block));
        put_u64(&mut buf, u64_from_usize(self.col_block));
        put_u64(&mut buf, u64_from_usize(self.tiles.len()));
        for t in &self.tiles {
            put_f64(&mut buf, t.min);
            put_f64(&mut buf, t.max);
            put_f64(&mut buf, t.sum);
            put_u64(&mut buf, t.count);
        }
        buf
    }

    /// Parse a `synopsis.bin` byte image.
    ///
    /// Total on every input: the claimed tile count is validated against
    /// both the payload bytes actually present and the count the header's
    /// own geometry implies *before* any allocation is sized, and the
    /// per-tile cell counts must tile the rectangle exactly.
    pub fn decode(buf: &[u8]) -> Result<ShardSynopsis> {
        Self::decode_into(buf, Vec::new())
    }

    /// Tiles in the synopsis of a `rows × cols` shard (saturating).
    pub fn tile_count(rows: usize, cols: usize) -> usize {
        let (trows, tcols) = grid(rows, cols, ROW_BLOCK, COL_BLOCK);
        trows.saturating_mul(tcols)
    }

    /// Bytes of the `synopsis.bin` image of a `rows × cols` shard
    /// (saturating).
    pub fn encoded_len(rows: usize, cols: usize) -> usize {
        Self::tile_count(rows, cols)
            .saturating_mul(TILE_BYTES)
            .saturating_add(HEADER_BYTES)
    }

    /// [`ShardSynopsis::decode`] into tile storage the caller already
    /// holds (its contents are discarded; it grows if it is too small).
    pub fn decode_into(buf: &[u8], mut tiles: Vec<TileStat>) -> Result<ShardSynopsis> {
        if buf.len() < HEADER_BYTES || buf.get(..8) != Some(SYNOPSIS_MAGIC.as_slice()) {
            return Err(AtsError::Corrupt("bad synopsis file header".into()));
        }
        let rows = usize_from_u64(get_u64(buf, 8)?, "synopsis row count")?;
        let cols = usize_from_u64(get_u64(buf, 16)?, "synopsis column count")?;
        let row_block = usize_from_u64(get_u64(buf, 24)?, "synopsis row block")?;
        let col_block = usize_from_u64(get_u64(buf, 32)?, "synopsis column block")?;
        let count_raw = get_u64(buf, 40)?;
        if rows == 0 || cols == 0 || row_block == 0 || col_block == 0 {
            return Err(AtsError::Corrupt(format!(
                "synopsis geometry {rows}x{cols} in {row_block}x{col_block} tiles is degenerate"
            )));
        }
        // Validate the count against the bytes actually present *before*
        // sizing any allocation: a corrupt count must not trigger a
        // multi-GB `Vec::with_capacity` only to fail at the first tile.
        let remaining = buf.len() - HEADER_BYTES;
        if count_raw > u64_from_usize(remaining / TILE_BYTES) {
            return Err(AtsError::Corrupt(format!(
                "synopsis file claims {count_raw} tiles but holds only {remaining} payload bytes"
            )));
        }
        let (trows, tcols) = grid(rows, cols, row_block, col_block);
        let expected = trows.checked_mul(tcols).ok_or_else(|| {
            AtsError::Corrupt(format!(
                "synopsis tile grid {trows}x{tcols} overflows a tile count"
            ))
        })?;
        let count = usize_from_u64(count_raw, "synopsis tile count")?;
        if count != expected {
            return Err(AtsError::Corrupt(format!(
                "synopsis file claims {count} tiles, geometry {rows}x{cols} in \
                 {row_block}x{col_block} tiles implies {expected}"
            )));
        }
        tiles.clear();
        tiles.reserve(count);
        let mut p = HEADER_BYTES;
        let mut cells = 0u64;
        for _ in 0..count {
            let t = TileStat {
                min: get_f64(buf, p)?,
                max: get_f64(buf, p + 8)?,
                sum: get_f64(buf, p + 16)?,
                count: get_u64(buf, p + 24)?,
            };
            p += TILE_BYTES;
            cells = cells
                .checked_add(t.count)
                .ok_or_else(|| AtsError::Corrupt("synopsis cell counts overflow a u64".into()))?;
            tiles.push(t);
        }
        if p != buf.len() {
            return Err(AtsError::Corrupt(format!(
                "synopsis file has {} trailing bytes after {count} tiles",
                buf.len() - p
            )));
        }
        let total = u64_from_usize(rows)
            .checked_mul(u64_from_usize(cols))
            .ok_or_else(|| AtsError::Corrupt("synopsis rows*cols overflows a u64".into()))?;
        if cells != total {
            return Err(AtsError::Corrupt(format!(
                "synopsis tile counts sum to {cells} cells, geometry {rows}x{cols} has {total}"
            )));
        }
        Ok(ShardSynopsis {
            rows,
            cols,
            row_block,
            col_block,
            tiles,
        })
    }
}

/// Streaming builder: fed one local row of *served* values at a time (in
/// row order, reconstructed and delta-patched exactly as queries would),
/// it accumulates the tile grid without ever holding more than one row.
#[derive(Debug)]
pub struct SynopsisBuilder {
    rows: usize,
    cols: usize,
    next_row: usize,
    tcols: usize,
    tiles: Vec<TileStat>,
}

impl SynopsisBuilder {
    /// Start a synopsis of a `rows × cols` shard under the default
    /// [`ROW_BLOCK`]`×`[`COL_BLOCK`] tile geometry.
    pub fn new(rows: usize, cols: usize) -> Result<SynopsisBuilder> {
        if rows == 0 || cols == 0 {
            return Err(AtsError::InvalidArgument(format!(
                "cannot build a synopsis of an empty {rows}x{cols} shard"
            )));
        }
        let (trows, tcols) = grid(rows, cols, ROW_BLOCK, COL_BLOCK);
        Ok(SynopsisBuilder {
            rows,
            cols,
            next_row: 0,
            tcols,
            tiles: vec![
                TileStat {
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                    sum: 0.0,
                    count: 0,
                };
                trows * tcols
            ],
        })
    }

    /// Fold the next local row's served values into the grid. Rows must
    /// arrive in order, exactly `rows` of them, each `cols` wide.
    pub fn push_row(&mut self, values: &[f64]) -> Result<()> {
        if self.next_row >= self.rows {
            return Err(AtsError::InvalidArgument(format!(
                "synopsis already holds all {} rows",
                self.rows
            )));
        }
        if values.len() != self.cols {
            return Err(AtsError::dims(
                "SynopsisBuilder::push_row",
                (1, values.len()),
                (1, self.cols),
            ));
        }
        let tr = self.next_row / ROW_BLOCK;
        for (j, &v) in values.iter().enumerate() {
            // ats-lint: allow(slice-index) — tr < tile_rows (next_row < rows checked above), j / COL_BLOCK < tcols (j < cols)
            let t = &mut self.tiles[tr * self.tcols + j / COL_BLOCK];
            // f64::min/max would *discard* a NaN already in the bound, so
            // poison explicitly: once any cell is NaN the bounds stay NaN
            // and the query layer falls back to reconstructing the tile.
            if v.is_nan() || t.min.is_nan() {
                t.min = f64::NAN;
                t.max = f64::NAN;
            } else {
                t.min = t.min.min(v);
                t.max = t.max.max(v);
            }
            t.sum += v;
            t.count += 1;
        }
        self.next_row += 1;
        Ok(())
    }

    /// Finish the synopsis; errors unless exactly `rows` rows arrived.
    pub fn finish(self) -> Result<ShardSynopsis> {
        if self.next_row != self.rows {
            return Err(AtsError::InvalidArgument(format!(
                "synopsis got {} of {} rows",
                self.next_row, self.rows
            )));
        }
        Ok(ShardSynopsis {
            rows: self.rows,
            cols: self.cols,
            row_block: ROW_BLOCK,
            col_block: COL_BLOCK,
            tiles: self.tiles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic "served values" for an r×c shard.
    fn served(rows: usize, cols: usize) -> Vec<Vec<f64>> {
        (0..rows)
            .map(|i| {
                (0..cols)
                    .map(|j| ((i * 31 + j * 7) % 23) as f64 - 11.0)
                    .collect()
            })
            .collect()
    }

    fn build(rows: usize, cols: usize) -> ShardSynopsis {
        let mut b = SynopsisBuilder::new(rows, cols).unwrap();
        for row in served(rows, cols) {
            b.push_row(&row).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn builder_matches_naive_tile_stats() {
        for (rows, cols) in [(1, 1), (8, 16), (17, 33), (24, 16), (9, 5)] {
            let s = build(rows, cols);
            let data = served(rows, cols);
            assert_eq!(s.tile_rows(), rows.div_ceil(ROW_BLOCK));
            assert_eq!(s.tile_cols(), cols.div_ceil(COL_BLOCK));
            let mut cells = 0u64;
            for tr in 0..s.tile_rows() {
                for tc in 0..s.tile_cols() {
                    let t = s.tile(tr, tc).unwrap();
                    let (mut mn, mut mx, mut sum, mut n) =
                        (f64::INFINITY, f64::NEG_INFINITY, 0.0, 0u64);
                    let rband = tr * ROW_BLOCK..((tr + 1) * ROW_BLOCK).min(rows);
                    let cband = tc * COL_BLOCK..((tc + 1) * COL_BLOCK).min(cols);
                    for row in &data[rband] {
                        for &v in &row[cband.clone()] {
                            mn = mn.min(v);
                            mx = mx.max(v);
                            sum += v;
                            n += 1;
                        }
                    }
                    assert_eq!(t.min.to_bits(), mn.to_bits(), "({rows},{cols}) [{tr},{tc}]");
                    assert_eq!(t.max.to_bits(), mx.to_bits());
                    assert_eq!(t.sum.to_bits(), sum.to_bits());
                    assert_eq!(t.count, n);
                    cells += n;
                }
            }
            assert_eq!(cells, (rows * cols) as u64);
            assert!(s.tile(s.tile_rows(), 0).is_none());
            assert!(s.tile(0, s.tile_cols()).is_none());
        }
    }

    #[test]
    fn nan_poisons_tile_bounds_permanently() {
        let mut b = SynopsisBuilder::new(3, 2).unwrap();
        b.push_row(&[1.0, 2.0]).unwrap();
        b.push_row(&[f64::NAN, 3.0]).unwrap();
        // A later finite value must not un-poison the bounds (f64::min
        // would silently drop the NaN).
        b.push_row(&[5.0, 4.0]).unwrap();
        let s = b.finish().unwrap();
        let t = s.tile(0, 0).unwrap();
        assert!(t.min.is_nan() && t.max.is_nan());
        assert_eq!(t.count, 6);
    }

    #[test]
    fn builder_rejects_misuse() {
        assert!(SynopsisBuilder::new(0, 5).is_err());
        assert!(SynopsisBuilder::new(5, 0).is_err());
        let mut b = SynopsisBuilder::new(2, 3).unwrap();
        assert!(b.push_row(&[1.0, 2.0]).is_err()); // wrong width
        b.push_row(&[1.0, 2.0, 3.0]).unwrap();
        let half = b;
        assert!(half.finish().is_err()); // short a row
        let mut b = SynopsisBuilder::new(1, 3).unwrap();
        b.push_row(&[1.0, 2.0, 3.0]).unwrap();
        assert!(b.push_row(&[1.0, 2.0, 3.0]).is_err()); // too many rows
    }

    #[test]
    fn roundtrip_is_bitwise() {
        for (rows, cols) in [(1, 1), (8, 16), (17, 33), (100, 7)] {
            let s = build(rows, cols);
            let bytes = s.encode();
            assert_eq!(bytes.len(), s.storage_bytes());
            let back = ShardSynopsis::decode(&bytes).unwrap();
            assert_eq!(back.rows(), rows);
            assert_eq!(back.cols(), cols);
            assert_eq!(back.tiles().len(), s.tiles().len());
            for (a, b) in s.tiles().iter().zip(back.tiles()) {
                assert_eq!(a.min.to_bits(), b.min.to_bits());
                assert_eq!(a.max.to_bits(), b.max.to_bits());
                assert_eq!(a.sum.to_bits(), b.sum.to_bits());
                assert_eq!(a.count, b.count);
            }
            assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn nan_bounds_survive_the_disk_roundtrip() {
        let mut b = SynopsisBuilder::new(2, 2).unwrap();
        b.push_row(&[f64::NAN, 1.0]).unwrap();
        b.push_row(&[2.0, 3.0]).unwrap();
        let s = b.finish().unwrap();
        let back = ShardSynopsis::decode(&s.encode()).unwrap();
        assert!(back.tile(0, 0).unwrap().min.is_nan());
    }

    #[test]
    fn corrupt_tile_count_rejected_without_allocation() {
        // An image claiming billions of tiles must be rejected by the
        // length check, not by a multi-GB `Vec::with_capacity` attempt.
        let mut buf = Vec::new();
        buf.extend_from_slice(SYNOPSIS_MAGIC);
        for v in [1u64 << 40, 1 << 40, 8, 16, u64::MAX / 2] {
            put_u64(&mut buf, v);
        }
        buf.extend_from_slice(&[0u8; 64]); // a few payload bytes
        let err = ShardSynopsis::decode(&buf).unwrap_err();
        assert!(matches!(err, AtsError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("tiles"), "{err}");
    }

    #[test]
    fn tile_count_must_match_geometry() {
        // Right amount of payload, wrong count for the claimed dims.
        let s = build(8, 16); // exactly 1 tile
        let mut buf = s.encode();
        // Claim 2 tiles and append one more tile's bytes.
        buf[40..48].copy_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&[0u8; TILE_BYTES]);
        let err = ShardSynopsis::decode(&buf).unwrap_err();
        assert!(matches!(err, AtsError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("implies"), "{err}");
    }

    #[test]
    fn cell_counts_must_tile_the_rectangle() {
        let s = build(8, 16);
        let mut buf = s.encode();
        let off = buf.len() - 8; // the single tile's count field
        buf[off..].copy_from_slice(&127u64.to_le_bytes());
        let err = ShardSynopsis::decode(&buf).unwrap_err();
        assert!(err.to_string().contains("sum to"), "{err}");
    }

    #[test]
    fn degenerate_geometry_rejected() {
        for zero_at in 0..4 {
            let mut buf = Vec::new();
            buf.extend_from_slice(SYNOPSIS_MAGIC);
            for (i, v) in [4u64, 4, 8, 16].iter().enumerate() {
                put_u64(&mut buf, if i == zero_at { 0 } else { *v });
            }
            put_u64(&mut buf, 0);
            let err = ShardSynopsis::decode(&buf).unwrap_err();
            assert!(err.to_string().contains("degenerate"), "{err}");
        }
    }

    #[test]
    fn every_strict_prefix_errors() {
        let bytes = build(17, 33).encode();
        for len in 0..bytes.len() {
            assert!(
                ShardSynopsis::decode(&bytes[..len]).is_err(),
                "prefix of {len} bytes must not decode"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = build(8, 16).encode();
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            ShardSynopsis::decode(&bytes),
            Err(AtsError::Corrupt(_))
        ));
    }

    #[test]
    fn byte_soup_never_panics() {
        // Deterministic pseudo-random soups of assorted lengths: decode
        // must return (almost surely an error), never panic.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in [0usize, 7, 8, 47, 48, 49, 80, 333] {
            let mut buf = vec![0u8; len];
            for b in &mut buf {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (state >> 56) as u8;
            }
            let _ = ShardSynopsis::decode(&buf);
        }
    }
}
