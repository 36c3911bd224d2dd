//! The SVDD outlier store (§4.2).
//!
//! SVDD keeps `(row, column, delta)` triplets for the worst-reconstructed
//! cells "in a hash table, where the key is the combination of
//! `row·M + column`, that is, the order of the cell in the row-major
//! scanning", optionally fronted by "a main-memory Bloom filter, which
//! would predict the majority of non-outliers, and thus save several
//! probes into the hash table". [`DeltaStore`] is exactly that: an
//! open-addressing (linear-probing) hash table over `u64` cell ordinals
//! built once from the chosen outliers, plus the optional Bloom filter.
//! [`DeltaStore::probe`] is the paper's access path and what a single
//! cell query pays.
//!
//! Beside the table sits a **row-major view** of the same triplets:
//! the deltas sorted by `(row, column)` as two parallel runs (columns,
//! values) and one offset per row saying where that row's run starts.
//! A consumer that reconstructs a *row* — a full row, a block of rows,
//! or several cells of one row — does not ask the table "is cell
//! `(i, j)` an outlier?" once per column (`M` Bloom checks for a table
//! that holds a few percent of the cells); it looks the row up once
//! ([`DeltaStore::row`], one offset compare when the row has no deltas)
//! and walks its run ([`DeltaStore::patch_row`],
//! [`DeltaStore::patch_cells`]). Both paths add the same delta to the
//! same cell with the same `+=`, so they are interchangeable bit for
//! bit; which one runs is decided by the shape of the request, never by
//! a setting.
//!
//! Space accounting (a delta costs [`DELTA_BYTES`]) matches the paper's
//! "`O(b)` bytes for each delta stored"; the row-major view, like the
//! Bloom filter, is main-memory metadata rebuilt at load.

use ats_common::codec::u64_from_usize;
use ats_common::hash::hash_u64;
use ats_common::{AtsError, BloomFilter, Result};

/// Bytes charged per stored delta: a packed 8-byte cell ordinal plus an
/// 8-byte delta value.
pub const DELTA_BYTES: usize = 16;

const EMPTY: u64 = u64::MAX;

/// Immutable store of cell deltas: the §4.2 hash table (plus optional
/// Bloom filter) for cell-shaped lookups and a row-major view of the
/// same triplets for row-shaped ones.
#[derive(Debug, Clone)]
pub struct DeltaStore {
    /// Slot keys (cell ordinal `row·M + col`), `EMPTY` for vacant.
    keys: Vec<u64>,
    /// Slot values (deltas), parallel to `keys`.
    values: Vec<f64>,
    /// Table length − 1 (the length is a power of two).
    mask: usize,
    len: usize,
    cols: u64,
    bloom: Option<BloomFilter>,
    /// The lowest row that carries a delta: `row_starts` is indexed by
    /// `row − first_row`, so the index is sized by the span of rows that
    /// have deltas, not by how large a row number is.
    first_row: usize,
    /// `row_starts[r]..row_starts[r + 1]` is the run of row
    /// `first_row + r` in `run_cols`/`run_vals`; one entry more than the
    /// span, empty for an empty store.
    row_starts: Vec<u32>,
    /// Delta columns in `(row, column)` order.
    run_cols: Vec<u32>,
    /// Delta values, parallel to `run_cols`.
    run_vals: Vec<f64>,
}

impl DeltaStore {
    /// Build from `(row, col, delta)` triplets for an `N × M` matrix.
    ///
    /// `with_bloom` attaches the §4.2 Bloom filter sized for a ~1% false
    /// positive rate. Duplicate cells are rejected. The table is sized at
    /// load factor ≤ 0.7 so probes stay short.
    ///
    /// Triplets already in `(row, col)` order — how `deltas.bin` stores
    /// them — are indexed in one pass; any other order is sorted first.
    ///
    /// What the build allocates is bounded by its input: the table and
    /// the runs by the number of triplets, the row offsets by the span
    /// `last row − first row` of the triplets themselves. That span, the
    /// triplet count and `cols` must each fit the 32-bit offsets
    /// ([`AtsError::InvalidArgument`] otherwise). A caller decoding
    /// triplets from disk must bound the rows by the geometry it trusts
    /// *before* calling (the shard loader rejects `row ≥ shard rows` as
    /// corrupt), so that span is never an attacker's number.
    pub fn build(
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
        with_bloom: bool,
    ) -> Result<Self> {
        let mut triplets: Vec<(usize, usize, f64)> = triplets.into_iter().collect();
        let n = triplets.len();
        let too_wide = |what: &str, v: usize| {
            AtsError::InvalidArgument(format!("{what} {v} does not fit the 32-bit delta index"))
        };
        u32::try_from(cols).map_err(|_| too_wide("column count", cols))?;
        let n32 = u32::try_from(n).map_err(|_| too_wide("delta count", n))?;
        if let Some(&(_, col, _)) = triplets.iter().find(|t| t.1 >= cols) {
            return Err(AtsError::oob("delta column", col, cols));
        }
        if !triplets.windows(2).all(|w| match w {
            [a, b] => (a.0, a.1) < (b.0, b.1),
            _ => true,
        }) {
            triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        }
        let first_row = triplets.first().map_or(0, |t| t.0);
        let span = triplets.last().map_or(0, |t| t.0 - first_row + 1);
        if u32::try_from(span).is_err() {
            return Err(too_wide("delta row span", span));
        }

        // ⌈n / 0.7⌉ slots, rounded up to a power of two.
        let capacity = n.saturating_mul(10).div_ceil(7).max(8).next_power_of_two();
        let mut store = DeltaStore {
            keys: vec![EMPTY; capacity],
            values: vec![0.0; capacity],
            mask: capacity - 1,
            len: 0,
            cols: u64_from_usize(cols),
            bloom: if with_bloom {
                Some(BloomFilter::with_capacity(n.max(1), 0.01))
            } else {
                None
            },
            first_row,
            row_starts: Vec::with_capacity(if n == 0 { 0 } else { span + 1 }),
            run_cols: Vec::with_capacity(n),
            run_vals: Vec::with_capacity(n),
        };
        for &(row, col, delta) in &triplets {
            // Open the run of `row`, closing (as empty) every row since
            // the previous triplet's.
            let at = u32::try_from(store.run_cols.len()).unwrap_or(n32);
            while store.row_starts.len() <= row - first_row {
                store.row_starts.push(at);
            }
            store.run_cols.push(u32::try_from(col).unwrap_or(u32::MAX));
            store.run_vals.push(delta);
            let key = u64_from_usize(row)
                .checked_mul(store.cols)
                .and_then(|k| k.checked_add(u64_from_usize(col)))
                .filter(|&k| k != EMPTY)
                .ok_or_else(|| {
                    AtsError::InvalidArgument(format!(
                        "cell ordinal of delta ({row}, {col}) overflows 64 bits"
                    ))
                })?;
            store.insert(key, delta)?;
        }
        if n > 0 {
            store.row_starts.push(n32);
        }
        Ok(store)
    }

    fn insert(&mut self, key: u64, delta: f64) -> Result<()> {
        let mut slot = self.slot_of(key);
        loop {
            match self.keys.get(slot).copied() {
                Some(EMPTY) => break,
                Some(k) if k == key => {
                    return Err(AtsError::InvalidArgument(format!(
                        "duplicate delta for cell ordinal {key}"
                    )))
                }
                Some(_) => slot = (slot + 1) & self.mask,
                None => return Err(AtsError::internal("delta table probe left the table")),
            }
        }
        if let (Some(k), Some(v)) = (self.keys.get_mut(slot), self.values.get_mut(slot)) {
            *k = key;
            *v = delta;
        }
        self.len += 1;
        if let Some(b) = &mut self.bloom {
            b.insert(key);
        }
        Ok(())
    }

    /// The slot a key's probe sequence starts at.
    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // ats-lint: allow(lossy-cast) — only the hash's low bits survive the mask; truncating first is the same slot
        (hash_u64(key, 0) as usize) & self.mask
    }

    /// Probe for a delta at cell `(i, j)`. The Bloom filter (when
    /// present) short-circuits the common non-outlier case.
    #[inline]
    pub fn probe(&self, i: usize, j: usize) -> Option<f64> {
        let key = u64_from_usize(i)
            .wrapping_mul(self.cols)
            .wrapping_add(u64_from_usize(j));
        if let Some(b) = &self.bloom {
            if !b.contains(key) {
                return None;
            }
        }
        let mut slot = self.slot_of(key);
        loop {
            let k = *self.keys.get(slot)?;
            if k == key {
                return self.values.get(slot).copied();
            }
            if k == EMPTY {
                return None;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// The deltas of row `i`: its columns, ascending, and the delta of
    /// each. Both empty for a row that has none, whatever `i` is.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let run = i
            .checked_sub(self.first_row)
            .and_then(|r| self.row_starts.get(r..)?.get(..2))
            .and_then(|w| match *w {
                [a, b] => {
                    let (a, b) = (usize::try_from(a).ok()?, usize::try_from(b).ok()?);
                    Some((self.run_cols.get(a..b)?, self.run_vals.get(a..b)?))
                }
                _ => None,
            });
        run.unwrap_or((&[], &[]))
    }

    /// Add row `i`'s deltas onto its reconstruction `out` (indexed by
    /// column): for every column `j` exactly the `out[j] += delta` that
    /// `probe(i, j)` per column performs.
    #[inline]
    pub fn patch_row(&self, i: usize, out: &mut [f64]) {
        let (cols, vals) = self.row(i);
        for (&c, &d) in cols.iter().zip(vals) {
            if let Some(o) = usize::try_from(c).ok().and_then(|j| out.get_mut(j)) {
                *o += d;
            }
        }
    }

    /// Add row `i`'s deltas onto the reconstructions `out[t]` of the
    /// requested cells `(i, cols[t])` — columns in any order, repeats
    /// allowed: exactly the `out[t] += delta` that `probe(i, cols[t])`
    /// per request performs. A row without deltas returns at once.
    #[inline]
    pub fn patch_cells(&self, i: usize, cols: &[usize], out: &mut [f64]) {
        let (run_cols, run_vals) = self.row(i);
        if run_cols.is_empty() {
            return;
        }
        for (&j, o) in cols.iter().zip(out.iter_mut()) {
            let hit = u32::try_from(j)
                .ok()
                .and_then(|j| run_cols.binary_search(&j).ok())
                .and_then(|p| run_vals.get(p));
            if let Some(&d) = hit {
                *o += d;
            }
        }
    }

    /// Number of stored deltas (the paper's `γ`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no deltas.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the Bloom filter is attached.
    pub fn has_bloom(&self) -> bool {
        self.bloom.is_some()
    }

    /// Bytes charged against the space budget: [`DELTA_BYTES`] per delta.
    /// (The Bloom filter is main-memory metadata in the paper's model and
    /// is reported separately by [`DeltaStore::bloom_bytes`].)
    pub fn storage_bytes(&self) -> usize {
        self.len * DELTA_BYTES
    }

    /// Memory consumed by the optional Bloom filter.
    pub fn bloom_bytes(&self) -> usize {
        self.bloom.as_ref().map_or(0, |b| b.storage_bytes())
    }

    /// Iterate stored `(row, col, delta)` triplets in `(row, col)`
    /// order — the order `deltas.bin` is written in.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let rows = self.row_starts.len().saturating_sub(1);
        (0..rows).flat_map(move |r| {
            let row = self.first_row + r;
            let (cols, vals) = self.row(row);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &d)| (row, usize::try_from(c).unwrap_or(usize::MAX), d))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_probe() {
        let store =
            DeltaStore::build(10, vec![(0, 1, 2.5), (3, 7, -1.0), (99, 9, 0.125)], false).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.probe(0, 1), Some(2.5));
        assert_eq!(store.probe(3, 7), Some(-1.0));
        assert_eq!(store.probe(99, 9), Some(0.125));
        assert_eq!(store.probe(0, 2), None);
        assert_eq!(store.probe(4, 7), None);
    }

    #[test]
    fn empty_store() {
        let store = DeltaStore::build(5, vec![], true).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.probe(0, 0), None);
        assert_eq!(store.storage_bytes(), 0);
    }

    #[test]
    fn duplicate_cell_rejected() {
        let r = DeltaStore::build(10, vec![(1, 1, 1.0), (1, 1, 2.0)], false);
        assert!(r.is_err());
    }

    #[test]
    fn column_bound_checked() {
        assert!(DeltaStore::build(10, vec![(0, 10, 1.0)], false).is_err());
    }

    #[test]
    fn bloom_agrees_with_table() {
        let triplets: Vec<(usize, usize, f64)> =
            (0..500).map(|i| (i * 3, i % 20, i as f64)).collect();
        let with = DeltaStore::build(20, triplets.clone(), true).unwrap();
        let without = DeltaStore::build(20, triplets, false).unwrap();
        assert!(with.has_bloom() && !without.has_bloom());
        for i in 0..1600 {
            for j in 0..20 {
                assert_eq!(with.probe(i, j), without.probe(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn dense_load_many_keys() {
        // Stress the linear probing: 10_000 deltas, all retrievable.
        let triplets: Vec<(usize, usize, f64)> = (0..10_000usize)
            .map(|i| (i / 366, i % 366, (i as f64) * 0.5 - 7.0))
            .collect();
        let store = DeltaStore::build(366, triplets.clone(), true).unwrap();
        assert_eq!(store.len(), 10_000);
        for &(r, c, d) in &triplets {
            assert_eq!(store.probe(r, c), Some(d));
        }
    }

    #[test]
    fn iter_returns_all_triplets() {
        let mut triplets = vec![(0usize, 0usize, 1.0), (5, 3, 2.0), (2, 9, 3.0)];
        let store = DeltaStore::build(10, triplets.clone(), false).unwrap();
        let mut got: Vec<_> = store.iter().collect();
        got.sort_by_key(|a| (a.0, a.1));
        triplets.sort_by_key(|a| (a.0, a.1));
        assert_eq!(got, triplets);
    }

    #[test]
    fn storage_accounting() {
        let store = DeltaStore::build(10, vec![(0, 0, 1.0), (1, 1, 2.0)], true).unwrap();
        assert_eq!(store.storage_bytes(), 2 * DELTA_BYTES);
        assert!(store.bloom_bytes() > 0);
    }

    #[test]
    fn large_row_indices_no_overflow() {
        // row * M + col for big N must not collide or wrap surprisingly.
        let store = DeltaStore::build(
            366,
            vec![(10_000_000, 365, 9.0), (10_000_001, 0, 8.0)],
            false,
        )
        .unwrap();
        assert_eq!(store.probe(10_000_000, 365), Some(9.0));
        assert_eq!(store.probe(10_000_001, 0), Some(8.0));
        assert_eq!(store.probe(10_000_000, 364), None);
    }
    #[test]
    fn row_view_lists_each_row_ascending_whatever_the_input_order() {
        let store = DeltaStore::build(
            10,
            vec![
                (7, 9, 1.0),
                (3, 2, 2.0),
                (7, 0, 3.0),
                (3, 8, 4.0),
                (5, 5, 5.0),
            ],
            false,
        )
        .unwrap();
        assert_eq!(store.row(3), (&[2u32, 8][..], &[2.0, 4.0][..]));
        assert_eq!(store.row(5), (&[5u32][..], &[5.0][..]));
        assert_eq!(store.row(7), (&[0u32, 9][..], &[3.0, 1.0][..]));
        // Before the first delta row, between rows, past the last, and
        // at the far end of `usize`: all empty, none a panic.
        for i in [0usize, 2, 4, 6, 8, 1_000_000, usize::MAX] {
            assert_eq!(store.row(i), (&[][..], &[][..]), "row {i}");
        }
        // iter() walks the view in (row, col) order.
        let got: Vec<_> = store.iter().collect();
        assert_eq!(
            got,
            vec![
                (3, 2, 2.0),
                (3, 8, 4.0),
                (5, 5, 5.0),
                (7, 0, 3.0),
                (7, 9, 1.0)
            ]
        );
        let empty = DeltaStore::build(10, vec![], true).unwrap();
        assert_eq!(empty.row(0), (&[][..], &[][..]));
        assert_eq!(empty.iter().count(), 0);
    }

    #[test]
    fn row_index_is_sized_by_the_span_of_delta_rows_not_by_their_magnitude() {
        // `large_row_indices_no_overflow`'s store: rows ten million and
        // ten million and one. Two deltas, three offsets.
        let store = DeltaStore::build(
            366,
            vec![(10_000_001, 0, 8.0), (10_000_000, 365, 9.0)],
            true,
        )
        .unwrap();
        assert_eq!(store.row_starts, vec![0, 1, 2]);
        assert_eq!(store.row(10_000_000), (&[365u32][..], &[9.0][..]));
        // An ordinal past 64 bits is refused, not wrapped into another
        // cell's key.
        let err = DeltaStore::build(1 << 20, vec![(usize::MAX >> 8, 0, 1.0)], false).unwrap_err();
        assert!(matches!(err, AtsError::InvalidArgument(_)), "{err}");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The row-major view and the §4.2 table hold the same triplets:
        /// patching a row (or any multiset of its cells, in any order)
        /// from the view performs exactly the additions the per-cell
        /// probe loop performs.
        #[test]
        fn row_patches_equal_per_cell_probes(
            cols in 1usize..40,
            first in 0usize..5_000,
            span in 1usize..30,
            fill in 0usize..200,
            bloom in any::<bool>(),
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Distinct cells of rows first..first+span, in random order;
            // sparse enough that many rows stay empty.
            let mut cells: Vec<(usize, usize)> = (0..span)
                .flat_map(|r| (0..cols).map(move |c| (first + r, c)))
                .collect();
            for i in (1..cells.len()).rev() {
                cells.swap(i, rng.gen_range(0..=i));
            }
            cells.truncate(fill.min(cells.len()));
            let triplets: Vec<(usize, usize, f64)> = cells
                .iter()
                .map(|&(r, c)| (r, c, rng.gen_range(-100.0..100.0)))
                .collect();
            let store = DeltaStore::build(cols, triplets.clone(), bloom).unwrap();
            prop_assert_eq!(store.len(), triplets.len());

            // Rows before the first, every row of the span, and rows
            // past the last delta.
            let rows = (first.saturating_sub(2)..first + span + 3).chain([usize::MAX - 1]);
            for i in rows {
                let base: Vec<f64> = (0..cols).map(|j| (j as f64) * 0.5 - 3.0).collect();
                let mut want = base.clone();
                for (j, o) in want.iter_mut().enumerate() {
                    if let Some(d) = store.probe(i, j) {
                        *o += d;
                    }
                }
                let mut got = base.clone();
                store.patch_row(i, &mut got);
                prop_assert_eq!(bits(&got), bits(&want), "row {}", i);

                // Requested cells: repeats, any order, possibly none.
                let req: Vec<usize> =
                    (0..rng.gen_range(0..2 * cols)).map(|_| rng.gen_range(0..cols)).collect();
                let mut want: Vec<f64> = req.iter().map(|&j| base[j]).collect();
                for (&j, o) in req.iter().zip(want.iter_mut()) {
                    if let Some(d) = store.probe(i, j) {
                        *o += d;
                    }
                }
                let mut got: Vec<f64> = req.iter().map(|&j| base[j]).collect();
                store.patch_cells(i, &req, &mut got);
                prop_assert_eq!(bits(&got), bits(&want), "cells of row {}", i);
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
