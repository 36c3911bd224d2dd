//! The query engine: cell and aggregate queries over a compressed matrix.
//!
//! §1 names the two query classes this system must serve:
//!
//! - "queries on specific cells of the data matrix" — answered by one
//!   `O(k)` reconstruction (plus, for SVDD, one delta probe);
//! - "aggregate queries on selected rows and columns" — an aggregate
//!   function `f()` (`sum()`, `avg()`, `stddev()`, …, §5.2) folded over
//!   every reconstructed cell of a [`Selection`].
//!
//! The engine reconstructs whole rows where it can (one `U`-row fetch
//! amortized over all selected columns) rather than per-cell, and per
//! scanned cell it pays the reconstruction kernel plus one
//! [`OnlineStats::push`] — the same fold for every aggregate, so a scan
//! costs the same whichever function is asked for. Everything else —
//! routing, `U` fetches, delta lookups, tile classification — is paid per
//! row, per block of rows or per tile band.

use crate::predicate::{Predicate, TileTruth};
use crate::selection::Selection;
use ats_common::{AtsError, OnlineStats, Result};
use ats_compress::par::fork_join;
use ats_compress::CompressedMatrix;
use ats_linalg::Matrix;
use ats_storage::ShardSynopsis;
use std::sync::Arc;

/// Aggregate functions supported by [`QueryEngine::aggregate`] (the
/// paper's `f()`, §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateFn {
    /// Sum of the selected cells.
    Sum,
    /// Arithmetic mean of the selected cells.
    Avg,
    /// Number of selected cells.
    Count,
    /// Minimum cell value.
    Min,
    /// Maximum cell value.
    Max,
    /// Population standard deviation of the selected cells.
    StdDev,
}

impl AggregateFn {
    /// All supported functions (handy for exhaustive experiment sweeps).
    pub const ALL: [AggregateFn; 6] = [
        AggregateFn::Sum,
        AggregateFn::Avg,
        AggregateFn::Count,
        AggregateFn::Min,
        AggregateFn::Max,
        AggregateFn::StdDev,
    ];

    /// Short name for experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            AggregateFn::Sum => "sum",
            AggregateFn::Avg => "avg",
            AggregateFn::Count => "count",
            AggregateFn::Min => "min",
            AggregateFn::Max => "max",
            AggregateFn::StdDev => "stddev",
        }
    }

    fn finish(&self, stats: &OnlineStats) -> Result<f64> {
        // Every aggregate of zero cells is rejected, not defaulted: Min/Max
        // have no identity, and a silent 0.0 from Sum/Avg/StdDev is
        // indistinguishable from real data.
        ensure_nonempty(stats)?;
        Ok(match self {
            AggregateFn::Sum => stats.sum(),
            AggregateFn::Avg => stats.mean(),
            AggregateFn::Count => stats.count() as f64,
            AggregateFn::Min => stats.min(),
            AggregateFn::Max => stats.max(),
            AggregateFn::StdDev => stats.population_std_dev(),
        })
    }
}

/// Reject aggregates over empty selections: `min()`/`max()` of nothing has
/// no value, and returning a default `0.0` (the old behavior) silently
/// fabricated data for every function.
fn ensure_nonempty(stats: &OnlineStats) -> Result<()> {
    if stats.count() == 0 {
        return Err(AtsError::InvalidArgument(
            "aggregate over an empty selection (0 cells) is undefined".into(),
        ));
    }
    Ok(())
}

/// `Some(a..b)` when `cols` is the unbroken ascending run
/// `a, a+1, …, b−1` — as `cols all` and every time range are — so a
/// scan can read a reconstructed row's selected cells as the slice
/// `row[a..b]` instead of gathering them through the list.
fn col_run(cols: &[usize]) -> Option<std::ops::Range<usize>> {
    let (&a, &z) = (cols.first()?, cols.last()?);
    (cols.iter().zip(a..).all(|(&j, want)| j == want)).then_some(a..z + 1)
}

/// Fold the cells of the reconstructed row `row` under the selected
/// `cols` (`run` is their [`col_run`]) that pass `keep`, in ascending
/// selected-column order.
#[inline]
fn fold_row(
    stats: &mut OnlineStats,
    row: &[f64],
    cols: &[usize],
    run: &Option<std::ops::Range<usize>>,
    keep: impl Fn(f64) -> bool,
) {
    let mut push = |v: f64| {
        if keep(v) {
            stats.push(v);
        }
    };
    match run {
        Some(run) => row[run.clone()].iter().copied().for_each(&mut push),
        None => cols.iter().map(|&j| row[j]).for_each(&mut push),
    }
}

/// How a [`QueryEngine`] holds its matrix: borrowed for the classic
/// one-shot CLI/experiment path, or behind an `Arc` so the engine itself
/// is `'static`, `Clone`, and shareable across server threads.
///
/// Reconstruction is read-only ([`CompressedMatrix`] is `Send + Sync` by
/// trait bound; the paged store keeps its interior mutability behind the
/// buffer-pool mutex and atomic I/O counters), so both shapes execute the
/// same code with the same determinism guarantees.
#[derive(Clone)]
pub(crate) enum MatrixHandle<'a> {
    /// Borrow — the engine lives no longer than the matrix.
    Borrowed(&'a dyn CompressedMatrix),
    /// Shared ownership — the engine can outlive the creating scope and
    /// hop across threads (the `ats serve` daemon path).
    Shared(Arc<dyn CompressedMatrix>),
}

/// A query engine over any compressed matrix.
#[derive(Clone)]
pub struct QueryEngine<'a> {
    pub(crate) handle: MatrixHandle<'a>,
    pub(crate) threads: usize,
    /// Whether `where` scans consult the store's zone-map synopses to
    /// prune tiles. Defaults on (`ATS_TEST_SYNOPSIS=off` flips the
    /// default for CI's exact-scan leg); [`QueryEngine::with_synopsis`]
    /// overrides per engine. Pruning never changes results — only which
    /// tiles are reconstructed — so this knob exists for fallback
    /// pinning and benchmarks, not correctness.
    pub(crate) synopsis: bool,
}

/// Default for the synopsis-pruning knob: on, unless the environment
/// pins the exact-scan fallback (`ATS_TEST_SYNOPSIS=off`).
fn synopsis_default() -> bool {
    std::env::var("ATS_TEST_SYNOPSIS").map_or(true, |v| v != "off")
}

/// Rows fetched per [`CompressedMatrix::rows_into`] call by the dense
/// scans — one kernel block ([`ats_linalg::kernels::BLOCK_ROWS`]) per
/// fetch, so a disk store reads a block's consecutive `U` rows with one
/// positioned read and the scratch buffer stays a few KiB.
pub(crate) const AGG_BLOCK_ROWS: usize = 8;

impl<'a> QueryEngine<'a> {
    /// Wrap a compressed matrix (single-threaded scans).
    pub fn new(matrix: &'a dyn CompressedMatrix) -> Self {
        QueryEngine {
            handle: MatrixHandle::Borrowed(matrix),
            threads: 1,
            synopsis: synopsis_default(),
        }
    }

    /// Wrap a shared compressed matrix. The returned engine is
    /// `'static`, `Send + Sync`, and `Clone` — every connection thread
    /// of a long-lived server can hold its own cheap handle to the same
    /// store and page pool.
    pub fn shared(matrix: Arc<dyn CompressedMatrix>) -> QueryEngine<'static> {
        QueryEngine {
            handle: MatrixHandle::Shared(matrix),
            threads: 1,
            synopsis: synopsis_default(),
        }
    }

    /// The underlying matrix, whichever way it is held.
    pub(crate) fn matrix(&self) -> &dyn CompressedMatrix {
        match &self.handle {
            MatrixHandle::Borrowed(m) => *m,
            MatrixHandle::Shared(m) => m.as_ref(),
        }
    }

    /// Use up to `threads` workers for aggregate scans. Selected rows are
    /// split into contiguous chunks, each folded into a private
    /// [`OnlineStats`] (reconstruction is read-only — `CompressedMatrix`
    /// is `Sync`), and the partials are merged in chunk order, so results
    /// are deterministic for a given thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enable or disable zone-map pruning for `where` scans (see the
    /// [`QueryEngine::aggregate_where`] docs). Off forces the exact
    /// tile-by-tile scan even when the store carries synopses — the
    /// fallback legacy stores always take. Results are bitwise
    /// identical either way.
    pub fn with_synopsis(mut self, on: bool) -> Self {
        self.synopsis = on;
        self
    }

    /// Number of rows of the underlying matrix.
    pub fn rows(&self) -> usize {
        self.matrix().rows()
    }

    /// Number of columns of the underlying matrix.
    pub fn cols(&self) -> usize {
        self.matrix().cols()
    }

    /// Cell query: the reconstructed value at `(i, j)`.
    pub fn cell(&self, i: usize, j: usize) -> Result<f64> {
        self.matrix().cell(i, j)
    }

    /// Aggregate query over a selection.
    ///
    /// Reconstructs each selected row once and folds the selected columns
    /// into a single-pass accumulator (or one per worker — see
    /// [`QueryEngine::with_threads`]).
    pub fn aggregate(&self, sel: &Selection, f: AggregateFn) -> Result<f64> {
        let m = self.matrix().cols();
        sel.validate(self.matrix().rows(), m)?;
        let cols: Vec<usize> = sel.cols.to_vec(m);
        // Heuristic: if most of the row is selected, reconstruct the whole
        // row; otherwise reconstruct only the selected cells.
        let dense_cols = cols.len() * 3 >= m;
        let stats = self.selection_stats(sel, dense_cols)?;
        f.finish(&stats)
    }

    /// Evaluate every aggregate function at once over one selection scan.
    /// Errors on an empty selection, like [`QueryEngine::aggregate`].
    pub fn aggregate_all(&self, sel: &Selection) -> Result<AggregateRow> {
        let stats = self.selection_stats(sel, true)?;
        ensure_nonempty(&stats)?;
        Ok(AggregateRow {
            sum: stats.sum(),
            avg: stats.mean(),
            count: stats.count(),
            min: stats.min(),
            max: stats.max(),
            stddev: stats.population_std_dev(),
        })
    }

    /// Fold the selected cells into one [`OnlineStats`] through the
    /// partition walk ([`QueryEngine::walk`]), each unit scanned by
    /// [`QueryEngine::stats_over_rows`].
    ///
    /// `dense_cols` decides, for a single-decomposition matrix, whether
    /// whole rows are reconstructed. Inside a time-blocked matrix the
    /// heuristic is re-evaluated against each block's own width: a
    /// range covering most of one block should reconstruct whole block
    /// rows even when it is a sliver of the full matrix.
    fn selection_stats(&self, sel: &Selection, dense_cols: bool) -> Result<OnlineStats> {
        let (n, m) = (self.matrix().rows(), self.matrix().cols());
        sel.validate(n, m)?;
        let cols: Vec<usize> = sel.cols.to_vec(m);
        let rows: Vec<usize> = sel.rows.iter(n).collect();
        let blocked = self.matrix().time_block_starts().len() > 1;
        self.walk(&rows, &cols, "selection stats", |block, local, unit| {
            let dense = if blocked {
                local.len() * 3 >= block.matrix().cols()
            } else {
                dense_cols
            };
            block.stats_over_rows(unit.rows, local, dense)
        })
    }

    /// The partition walk every aggregate scan takes, generic over the
    /// partial it folds (`OnlineStats`, `WhereStats`):
    ///
    /// 1. **Blocks.** Over a time-blocked matrix
    ///    ([`CompressedMatrix::time_block_starts`] returns more than one
    ///    entry) the selected *columns* are grouped by owning block and
    ///    rebased to block-local indices; each overlapping block is
    ///    scanned through its own decomposition (`leaf` receives an
    ///    engine over that block). Blocks the selection never touches
    ///    see no I/O at all — the pruning the per-block `IoStats`
    ///    assertions pin down. Any other matrix is its own single block.
    /// 2. **Units.** Inside a block the selected *rows* are grouped by
    ///    owning shard when the block is sharded
    ///    ([`CompressedMatrix::shard_starts`] returns more than one
    ///    entry; a shard owning none of them is no unit, so nothing of
    ///    it — not even its synopsis — is read), otherwise split into `self.threads` contiguous chunks
    ///    when there are enough of them to be worth it.
    /// 3. **Run.** Units run through `leaf` in waves of `self.threads`.
    /// 4. **Merge.** Unit partials merge in unit (shard or chunk) order
    ///    into the block's partial, block partials in ascending block
    ///    order into the answer — one deterministic value for a given
    ///    layout, independent of the thread count when sharded.
    ///
    /// This is the one place a query trace would hook in: the block
    /// loop sees which blocks a query touched, the unit list which
    /// shards, and `leaf` is where rows, tiles and `U` pages are spent.
    fn walk<P: Partial>(
        &self,
        rows: &[usize],
        cols: &[usize],
        what: &str,
        leaf: impl Fn(&QueryEngine<'_>, &[usize], &Unit<'_>) -> Result<P> + Sync,
    ) -> Result<P> {
        let top = self.matrix();
        let tstarts = top.time_block_starts();
        let mut blocks: Vec<(&dyn CompressedMatrix, Vec<usize>)> = Vec::new();
        if tstarts.len() > 1 {
            let groups = group_by_start(cols, &tstarts, true);
            for (b, local) in groups.into_iter().enumerate() {
                if local.is_empty() {
                    continue;
                }
                let block = top.time_block(b).ok_or_else(|| {
                    AtsError::internal(format!("time block {b} advertised but not served"))
                })?;
                blocks.push((block, local));
            }
        } else {
            blocks.push((top, cols.to_vec()));
        }

        let mut answer = P::empty();
        for (matrix, local) in &blocks {
            let block = QueryEngine {
                handle: MatrixHandle::Borrowed(*matrix),
                threads: self.threads,
                synopsis: self.synopsis,
            };
            let starts = matrix.shard_starts();
            let sharded = starts.len() > 1;
            let by_shard = if sharded {
                group_by_start(rows, &starts, false)
            } else {
                Vec::new()
            };
            let units: Vec<Unit<'_>> = if sharded {
                (by_shard.iter().zip(&starts).enumerate())
                    .filter(|(_, (rows, _))| !rows.is_empty())
                    .map(|(shard, (rows, &start))| Unit { shard, start, rows })
                    .collect()
            } else {
                let chunk = if self.threads <= 1 || rows.len() < 2 * self.threads {
                    rows.len().max(1)
                } else {
                    rows.len().div_ceil(self.threads)
                };
                (rows.chunks(chunk).map(|rows| Unit {
                    shard: 0,
                    start: 0,
                    rows,
                }))
                .collect()
            };
            let mut partial = P::empty();
            for wave in units.chunks(self.threads) {
                for unit_partial in fork_join(wave, what, |unit| leaf(&block, local, unit))? {
                    partial.absorb(&unit_partial);
                }
            }
            answer.absorb(&partial);
        }
        Ok(answer)
    }

    /// Serial scan kernel: fold the selected columns of `rows` into one
    /// accumulator. Each caller (worker) brings its own scratch.
    ///
    /// The dense path fetches [`AGG_BLOCK_ROWS`] rows per
    /// [`CompressedMatrix::rows_into`] call, so implementations with a
    /// blocked multi-row kernel reconstruct several rows per sweep over
    /// `V`; the sparse path asks for the selected cells of one row at a
    /// time through [`CompressedMatrix::cells_in_row`] — one `U` fetch
    /// per row, not per cell. Either way values are pushed row by row in
    /// ascending selected-column order — the accumulation sequence of
    /// the cell-at-a-time scan, so results are bitwise unchanged.
    fn stats_over_rows(
        &self,
        rows: &[usize],
        cols: &[usize],
        dense_cols: bool,
    ) -> Result<OnlineStats> {
        let mut stats = OnlineStats::new();
        let m = self.matrix().cols();
        if cols.is_empty() || m == 0 {
            return Ok(stats);
        }
        if dense_cols {
            let run = col_run(cols);
            let mut block = vec![0.0f64; AGG_BLOCK_ROWS * m];
            for rchunk in rows.chunks(AGG_BLOCK_ROWS) {
                let out = &mut block[..rchunk.len() * m];
                self.matrix().rows_into(rchunk, out)?;
                for row_buf in out.chunks(m) {
                    fold_row(&mut stats, row_buf, cols, &run, |_| true);
                }
            }
        } else {
            let mut vals = vec![0.0f64; cols.len()];
            for &i in rows {
                self.matrix().cells_in_row(i, cols, &mut vals)?;
                stats.push_slice(&vals);
            }
        }
        Ok(stats)
    }

    /// Predicate-filtered aggregate: fold `f` over the selected cells
    /// whose reconstructed value satisfies `pred`.
    ///
    /// When the store carries zone-map synopses (and pruning is on —
    /// [`QueryEngine::with_synopsis`]), each row's column tiles are
    /// classified three-valued against the predicate before any
    /// reconstruction: tiles proved `False` are skipped without touching
    /// `U` (a row all of whose selected tiles are `False` costs zero
    /// I/O), tiles proved `True` feed `count` straight from the number
    /// of selected cells, and only `Maybe` tiles — plus `True` tiles of
    /// value-carrying aggregates, which need the actual values — are
    /// reconstructed and tested cell by cell.
    ///
    /// Pruned and exact scans traverse matching cells in the identical
    /// order (rows in selection order, columns ascending within each
    /// row, partials merged in time-block → shard → chunk order), so
    /// the result is **bitwise equal** with pruning on, off, or absent,
    /// at any shards × time-blocks × threads combination. `Sum`, `Avg`,
    /// `Min`, `Max`, and `StdDev` deliberately never substitute a
    /// tile's stored `(sum, count)` even when the tile is all-`True`:
    /// the tile sum was accumulated in tile order, not scan order, and
    /// would re-associate the floats.
    ///
    /// Zero matching cells is an error for every aggregate except
    /// `Count`, which answers `0` — an empty *match set* is an answer,
    /// unlike an empty selection, which is rejected up front.
    pub fn aggregate_where(
        &self,
        sel: &Selection,
        f: AggregateFn,
        pred: &Predicate,
    ) -> Result<f64> {
        let (n, m) = (self.matrix().rows(), self.matrix().cols());
        sel.validate(n, m)?;
        let rows: Vec<usize> = sel.rows.iter(n).collect();
        let cols: Vec<usize> = sel.cols.to_vec(m);
        if rows.is_empty() || cols.is_empty() {
            return Err(AtsError::InvalidArgument(
                "aggregate over an empty selection (0 cells) is undefined".into(),
            ));
        }
        let count_only = matches!(f, AggregateFn::Count);
        // Each unit classifies against its own shard's synopsis (tile
        // columns are block-local, tile rows shard-local).
        let ws = self.walk(&rows, &cols, "where scan", |block, local, unit| {
            let syn = block.pruning_synopsis(unit.shard, unit.start)?;
            block.where_over_rows(unit.rows, local, pred, count_only, syn)
        })?;
        match f {
            AggregateFn::Count => {
                let total = ws
                    .stats
                    .count()
                    .checked_add(ws.proved)
                    .ok_or_else(|| AtsError::internal("where-count overflows u64"))?;
                Ok(total as f64)
            }
            _ => {
                if ws.stats.count() == 0 {
                    return Err(AtsError::InvalidArgument(format!(
                        "no selected cell satisfies `{pred}`; {}() over an empty match set \
                         is undefined (count is defined, and 0)",
                        f.name()
                    )));
                }
                f.finish(&ws.stats)
            }
        }
    }

    /// The synopsis to prune shard `shard` with (whose rows start at
    /// absolute row `start`), or `None` when pruning is off or the
    /// store carries none — the exact-scan fallback either way. A
    /// synopsis the store has but cannot vouch for fails the query.
    fn pruning_synopsis(
        &self,
        shard: usize,
        start: usize,
    ) -> Result<Option<(&ShardSynopsis, usize)>> {
        if !self.synopsis {
            return Ok(None);
        }
        Ok(self.matrix().shard_synopsis(shard)?.map(|s| (s, start)))
    }

    /// Serial `where` kernel: scan the selected columns of `rows`,
    /// pushing values that satisfy `pred` into one accumulator.
    ///
    /// With a synopsis, each tile band (`local row / ROW_BLOCK`) is
    /// planned once ([`BandPlan`]: the tile of every selected column is
    /// classified) and the plan reused for the band's rows: selected
    /// columns in `False` tiles are dropped before
    /// reconstruction — rows left with nothing to fetch do **zero** I/O
    /// — and, for `count`, columns in `True` tiles are tallied without
    /// reconstruction. Without one, a single plan fetches every
    /// selected column of every row.
    ///
    /// Rows are taken in groups of up to [`AGG_BLOCK_ROWS`] consecutive
    /// selected rows that share a band, hence a plan. When the plan's
    /// fetch list is dense in the block's width (the `len · 3 ≥ M_b`
    /// rule of the plain scan) the group is reconstructed through
    /// [`CompressedMatrix::rows_into`] — the blocked kernel and, on
    /// disk, one run read of `U` — and the planned columns are read out
    /// of each row; a sparse list asks for just its cells, row by row,
    /// through [`CompressedMatrix::cells_in_row`]. Both are chosen from
    /// what the scan observes (band membership, fetch density), and
    /// both push the same values in the same order: fetched values are
    /// always tested through [`Predicate::eval`] (for a `True` tile the
    /// bounds guarantee the test passes), so the pushed sequence is
    /// that of the no-synopsis scan and results stay bitwise equal.
    ///
    /// Defensive: rows outside the synopsis grid (a hand-rolled
    /// [`CompressedMatrix`] lying about its geometry — disk stores
    /// cross-check when they load a synopsis) are planned unpruned, degrading to the
    /// exact scan, never to a wrong answer.
    fn where_over_rows(
        &self,
        rows: &[usize],
        cols: &[usize],
        pred: &Predicate,
        count_only: bool,
        syn: Option<(&ShardSynopsis, usize)>,
    ) -> Result<WhereStats> {
        let mut ws = WhereStats::new();
        let m = self.matrix().cols();
        if cols.is_empty() || m == 0 {
            return Ok(ws);
        }
        // The tile band of row `i` and the rows that share it. Rows with
        // no band (no synopsis, or outside its grid) are planned
        // unpruned: all alike without a synopsis, one by one outside one.
        let band_of = |i: usize| -> (Option<usize>, std::ops::RangeInclusive<usize>) {
            let Some((s, start)) = syn else {
                return (None, 0..=usize::MAX);
            };
            let rb = s.row_block();
            match i.checked_sub(start).map(|local| local / rb) {
                Some(tr) if tr < s.tile_rows() => {
                    (Some(tr), start + tr * rb..=start + tr * rb + (rb - 1))
                }
                _ => (None, i..=i),
            }
        };
        let mut plan = BandPlan::unpruned(cols, m);
        let mut block: Vec<f64> = Vec::new();
        let mut vals = vec![0.0f64; cols.len()];
        let mut rest = rows;
        while let Some(&first) = rest.first() {
            let (band, band_rows) = band_of(first);
            if band != plan.band {
                plan.replan(syn.map(|(s, _)| s).zip(band), cols, m, pred, count_only);
            }
            let len = rest
                .iter()
                .take(AGG_BLOCK_ROWS)
                .take_while(|&i| band_rows.contains(i))
                .count();
            let (group, tail) = rest.split_at(len);
            rest = tail;
            ws.proved += plan.proved * group.len() as u64;
            if plan.fetch.is_empty() {
                continue; // every selected tile proved: zero I/O for these rows
            }
            if plan.dense {
                block.resize(AGG_BLOCK_ROWS * m, 0.0);
                let out = &mut block[..group.len() * m];
                self.matrix().rows_into(group, out)?;
                for row_buf in out.chunks(m) {
                    fold_row(&mut ws.stats, row_buf, &plan.fetch, &plan.run, |v| {
                        pred.eval(v)
                    });
                }
            } else {
                let out = vals
                    .get_mut(..plan.fetch.len())
                    .ok_or_else(|| AtsError::internal("where scan scratch undersized"))?;
                for &i in group {
                    self.matrix().cells_in_row(i, &plan.fetch, out)?;
                    for &v in out.iter().filter(|&&v| pred.eval(v)) {
                        ws.stats.push(v);
                    }
                }
            }
        }
        Ok(ws)
    }
}

/// What a `where` scan does with the rows of one tile band, decided
/// once per band — not per row — by classifying the tile of every
/// selected column.
struct BandPlan {
    /// The planned band: a tile row of the shard's synopsis, or `None`
    /// for rows planned unpruned (no synopsis, or outside its grid).
    band: Option<usize>,
    /// Selected columns to reconstruct and test, ascending as selected.
    fetch: Vec<usize>,
    /// The [`col_run`] of `fetch`.
    run: Option<std::ops::Range<usize>>,
    /// Selected cells per row proved matching by all-`True` tiles that
    /// a `count` never reconstructs.
    proved: u64,
    /// Whether `fetch` covers enough of the block's width that whole
    /// rows through the blocked kernel beat cell-by-cell fetches.
    dense: bool,
}

impl BandPlan {
    /// The plan of a scan that cannot prune: fetch every selected
    /// column.
    fn unpruned(cols: &[usize], m: usize) -> Self {
        BandPlan {
            band: None,
            fetch: cols.to_vec(),
            run: col_run(cols),
            proved: 0,
            dense: cols.len() * 3 >= m,
        }
    }

    /// Plan band `tile.1` of synopsis `tile.0` (`None`: unpruned) for
    /// the selected `cols` of an `m`-column block, in place.
    fn replan(
        &mut self,
        tile: Option<(&ShardSynopsis, usize)>,
        cols: &[usize],
        m: usize,
        pred: &Predicate,
        count_only: bool,
    ) {
        self.band = tile.map(|(_, tr)| tr);
        let Some((s, tr)) = tile else {
            *self = BandPlan::unpruned(cols, m);
            return;
        };
        self.fetch.clear();
        self.proved = 0;
        for &j in cols {
            let truth = s
                .tile(tr, j / s.col_block())
                .map_or(TileTruth::Maybe, |t| pred.classify(t.min, t.max));
            match truth {
                TileTruth::False => {}
                TileTruth::True if count_only => self.proved += 1,
                _ => self.fetch.push(j),
            }
        }
        self.run = col_run(&self.fetch);
        self.dense = self.fetch.len() * 3 >= m;
    }
}

/// Accumulator of a `where` scan: the Welford fold over reconstructed
/// matching cells, plus the cells *proved* matching by all-`True` tiles
/// that a `count`-only scan never reconstructed.
#[derive(Debug, Clone)]
struct WhereStats {
    stats: OnlineStats,
    proved: u64,
}

impl WhereStats {
    fn new() -> Self {
        WhereStats {
            stats: OnlineStats::new(),
            proved: 0,
        }
    }
}

/// A partial aggregate the partition walk can fold: an identity and an
/// order-sensitive merge (units merge in shard/chunk order, blocks in
/// block order, so a layout fixes the float association).
trait Partial: Send {
    fn empty() -> Self;
    fn absorb(&mut self, other: &Self);
}

impl Partial for OnlineStats {
    fn empty() -> Self {
        OnlineStats::new()
    }
    fn absorb(&mut self, other: &Self) {
        // Chan et al. combine.
        self.merge(other);
    }
}

impl Partial for WhereStats {
    fn empty() -> Self {
        WhereStats::new()
    }
    fn absorb(&mut self, other: &Self) {
        self.stats.merge(&other.stats);
        self.proved += other.proved;
    }
}

/// One unit of the partition walk: the selected rows one worker scans
/// inside one block — an owning shard's rows (`shard` indexes
/// [`CompressedMatrix::shard_starts`], `start` is its first absolute
/// row) or, in an unsharded block, a contiguous chunk of shard 0.
struct Unit<'a> {
    shard: usize,
    start: usize,
    rows: &'a [usize],
}

/// Group ascending-or-not `items` by owning partition, where `starts`
/// is ascending with `starts[0] == 0` and an item belongs to the last
/// partition whose start is ≤ it; `rebase` subtracts the partition
/// start. Every partition gets a (possibly empty) group.
fn group_by_start(items: &[usize], starts: &[usize], rebase: bool) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); starts.len()];
    for &x in items {
        let idx = match starts.binary_search(&x) {
            Ok(p) => p,
            Err(p) => p.saturating_sub(1),
        };
        let base = if rebase {
            starts.get(idx).copied().unwrap_or(0)
        } else {
            0
        };
        if let Some(g) = groups.get_mut(idx) {
            g.push(x - base);
        }
    }
    groups
}

/// All aggregates of one selection, computed in a single scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateRow {
    /// Sum of selected cells.
    pub sum: f64,
    /// Mean of selected cells.
    pub avg: f64,
    /// Number of selected cells.
    pub count: u64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

/// Ground truth: evaluate an aggregate directly on an uncompressed
/// matrix (used by the experiments to compute `Q_err`). Rejects empty
/// selections exactly like [`QueryEngine::aggregate`], so engine-vs-exact
/// comparisons agree on the error case too.
pub fn aggregate_exact(x: &Matrix, sel: &Selection, f: AggregateFn) -> Result<f64> {
    let (n, m) = x.shape();
    sel.validate(n, m)?;
    let cols: Vec<usize> = sel.cols.to_vec(m);
    let mut stats = OnlineStats::new();
    for i in sel.rows.iter(n) {
        let row = x.row(i);
        for &j in &cols {
            stats.push(row[j]);
        }
    }
    f.finish(&stats)
}

/// An exact (lossless, in-memory) [`CompressedMatrix`] — the identity
/// "compression". Useful as a ground-truth adapter and in tests.
#[derive(Debug, Clone)]
pub struct ExactMatrix(pub Matrix);

impl CompressedMatrix for ExactMatrix {
    fn rows(&self) -> usize {
        self.0.rows()
    }
    fn cols(&self) -> usize {
        self.0.cols()
    }
    fn cell(&self, i: usize, j: usize) -> Result<f64> {
        self.0.get(i, j)
    }
    fn row_into(&self, i: usize, out: &mut [f64]) -> Result<()> {
        if i >= self.0.rows() {
            return Err(AtsError::oob("row", i, self.0.rows()));
        }
        if out.len() != self.0.cols() {
            return Err(AtsError::dims(
                "ExactMatrix::row_into",
                (1, out.len()),
                (1, self.0.cols()),
            ));
        }
        out.copy_from_slice(self.0.row(i));
        Ok(())
    }
    fn storage_bytes(&self) -> usize {
        self.0.rows() * self.0.cols() * crate::engine::BYTES_PER_NUMBER_LOCAL
    }
    fn method_name(&self) -> &'static str {
        "exact"
    }
}

pub(crate) const BYTES_PER_NUMBER_LOCAL: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::Axis;

    fn x() -> Matrix {
        Matrix::from_rows(vec![
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ])
        .unwrap()
    }

    #[test]
    fn cell_query() {
        let e = ExactMatrix(x());
        let q = QueryEngine::new(&e);
        assert_eq!(q.cell(1, 2).unwrap(), 6.0);
        assert!(q.cell(3, 0).is_err());
    }

    #[test]
    fn aggregates_over_all() {
        let e = ExactMatrix(x());
        let q = QueryEngine::new(&e);
        let sel = Selection::all();
        assert_eq!(q.aggregate(&sel, AggregateFn::Sum).unwrap(), 45.0);
        assert_eq!(q.aggregate(&sel, AggregateFn::Avg).unwrap(), 5.0);
        assert_eq!(q.aggregate(&sel, AggregateFn::Count).unwrap(), 9.0);
        assert_eq!(q.aggregate(&sel, AggregateFn::Min).unwrap(), 1.0);
        assert_eq!(q.aggregate(&sel, AggregateFn::Max).unwrap(), 9.0);
        let sd = q.aggregate(&sel, AggregateFn::StdDev).unwrap();
        assert!((sd - (60.0f64 / 9.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn aggregates_over_subrectangle() {
        let e = ExactMatrix(x());
        let q = QueryEngine::new(&e);
        let sel = Selection {
            rows: Axis::Range(1, 3),
            cols: Axis::set(vec![0, 2]),
        };
        // cells: 4, 6, 7, 9
        assert_eq!(q.aggregate(&sel, AggregateFn::Sum).unwrap(), 26.0);
        assert_eq!(q.aggregate(&sel, AggregateFn::Avg).unwrap(), 6.5);
        assert_eq!(q.aggregate(&sel, AggregateFn::Min).unwrap(), 4.0);
    }

    #[test]
    fn sparse_column_path_matches_dense() {
        // One selected column of a wide matrix exercises the per-cell path.
        let wide = Matrix::from_fn(5, 30, |i, j| (i * 30 + j) as f64);
        let e = ExactMatrix(wide.clone());
        let q = QueryEngine::new(&e);
        let sel = Selection::col(7);
        let got = q.aggregate(&sel, AggregateFn::Sum).unwrap();
        let expect: f64 = (0..5).map(|i| (i * 30 + 7) as f64).sum();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_selection_errors_for_every_aggregate() {
        let e = ExactMatrix(x());
        let q = QueryEngine::new(&e);
        // Empty in the row axis, and empty in the column axis.
        let empties = [
            Selection {
                rows: Axis::Range(1, 1),
                cols: Axis::All,
            },
            Selection {
                rows: Axis::All,
                cols: Axis::set(vec![]),
            },
        ];
        for sel in &empties {
            for f in AggregateFn::ALL {
                let err = q.aggregate(sel, f).unwrap_err();
                assert!(
                    matches!(err, AtsError::InvalidArgument(_)),
                    "{}: {err}",
                    f.name()
                );
            }
            assert!(q.aggregate_all(sel).is_err());
            for f in AggregateFn::ALL {
                assert!(aggregate_exact(&x(), sel, f).is_err(), "{}", f.name());
            }
        }
    }

    #[test]
    fn empty_selection_errors_on_threaded_and_sharded_paths() {
        // The guard must fire after the merge on every execution shape,
        // not just the serial monolithic scan.
        let m = bumpy(97, 17);
        let empty = Selection {
            rows: Axis::Range(50, 50),
            cols: Axis::All,
        };
        for threads in [1, 3, 8] {
            let e = ExactMatrix(m.clone());
            let q = QueryEngine::new(&e).with_threads(threads);
            assert!(q.aggregate(&empty, AggregateFn::Min).is_err());
            assert!(q.aggregate_all(&empty).is_err());
            let sharded = ShardedExact(m.clone(), vec![0, 32, 64]);
            let qs = QueryEngine::new(&sharded).with_threads(threads);
            assert!(qs.aggregate(&empty, AggregateFn::Max).is_err());
            assert!(qs.aggregate_all(&empty).is_err());
        }
    }

    #[test]
    fn invalid_selection_rejected() {
        let e = ExactMatrix(x());
        let q = QueryEngine::new(&e);
        let sel = Selection {
            rows: Axis::Set(vec![5]),
            cols: Axis::All,
        };
        assert!(q.aggregate(&sel, AggregateFn::Sum).is_err());
    }

    #[test]
    fn aggregate_all_consistent_with_individual() {
        let e = ExactMatrix(x());
        let q = QueryEngine::new(&e);
        let sel = Selection {
            rows: Axis::Range(0, 2),
            cols: Axis::Range(1, 3),
        };
        let all = q.aggregate_all(&sel).unwrap();
        assert_eq!(all.sum, q.aggregate(&sel, AggregateFn::Sum).unwrap());
        assert_eq!(all.avg, q.aggregate(&sel, AggregateFn::Avg).unwrap());
        assert_eq!(
            all.count as f64,
            q.aggregate(&sel, AggregateFn::Count).unwrap()
        );
        assert_eq!(all.min, q.aggregate(&sel, AggregateFn::Min).unwrap());
        assert_eq!(all.max, q.aggregate(&sel, AggregateFn::Max).unwrap());
        assert_eq!(all.stddev, q.aggregate(&sel, AggregateFn::StdDev).unwrap());
    }

    #[test]
    fn exact_aggregate_matches_engine_on_exact_matrix() {
        let m = x();
        let e = ExactMatrix(m.clone());
        let q = QueryEngine::new(&e);
        let sel = Selection {
            rows: Axis::set(vec![0, 2]),
            cols: Axis::Range(0, 2),
        };
        for f in AggregateFn::ALL {
            assert_eq!(
                q.aggregate(&sel, f).unwrap(),
                aggregate_exact(&m, &sel, f).unwrap(),
                "{}",
                f.name()
            );
        }
    }

    #[test]
    fn shared_engine_is_send_sync_clone_and_answers_identically() {
        // The serve daemon hands one engine to many threads: the shared
        // handle must be 'static + Send + Sync + Clone, and answer the
        // same bits as the borrowed engine over the same matrix.
        fn assert_shareable<T: Send + Sync + Clone + 'static>() {}
        assert_shareable::<QueryEngine<'static>>();
        let m = Arc::new(ExactMatrix(x()));
        let shared = QueryEngine::shared(m.clone());
        let borrowed = QueryEngine::new(m.as_ref());
        let sel = Selection::all();
        assert_eq!(
            shared.cell(1, 2).unwrap().to_bits(),
            borrowed.cell(1, 2).unwrap().to_bits()
        );
        for f in AggregateFn::ALL {
            assert_eq!(
                shared.aggregate(&sel, f).unwrap().to_bits(),
                borrowed.aggregate(&sel, f).unwrap().to_bits(),
                "{}",
                f.name()
            );
        }
        // Clones observe the same underlying store.
        let clone = shared.clone().with_threads(3);
        assert_eq!(clone.rows(), 3);
        let handle = std::thread::spawn(move || clone.cell(0, 0).unwrap());
        assert_eq!(handle.join().unwrap(), 1.0);
    }

    #[test]
    fn names() {
        assert_eq!(AggregateFn::Sum.name(), "sum");
        assert_eq!(AggregateFn::StdDev.name(), "stddev");
        assert_eq!(AggregateFn::ALL.len(), 6);
    }

    /// A matrix with enough irregularity that every aggregate is
    /// non-trivial, plus negative values and repeated extremes.
    fn bumpy(n: usize, m: usize) -> Matrix {
        Matrix::from_fn(n, m, |i, j| ((i * 31 + j * 7) % 23) as f64 - 11.0)
    }

    fn selections() -> Vec<Selection> {
        vec![
            Selection::all(),
            Selection {
                rows: Axis::Range(3, 90),
                cols: Axis::set(vec![0, 5, 16]),
            },
            Selection {
                rows: Axis::set(vec![0, 7, 13, 14, 15, 40, 96]),
                cols: Axis::Range(2, 17),
            },
            Selection::col(7),
        ]
    }

    #[test]
    fn threaded_aggregates_match_serial() {
        let e = ExactMatrix(bumpy(97, 17));
        let serial = QueryEngine::new(&e);
        for sel in selections() {
            for threads in [2, 3, 8, 64] {
                let par = QueryEngine::new(&e).with_threads(threads);
                for f in AggregateFn::ALL {
                    let a = serial.aggregate(&sel, f).unwrap();
                    let b = par.aggregate(&sel, f).unwrap();
                    match f {
                        // Order-independent folds must agree exactly.
                        AggregateFn::Count | AggregateFn::Min | AggregateFn::Max => {
                            assert_eq!(a, b, "{} threads={threads}", f.name())
                        }
                        // Welford merges reassociate floating point.
                        _ => assert!(
                            (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                            "{} threads={threads}: {a} vs {b}",
                            f.name()
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn threaded_aggregate_all_matches_serial() {
        let e = ExactMatrix(bumpy(97, 17));
        let serial = QueryEngine::new(&e);
        for sel in selections() {
            let a = serial.aggregate_all(&sel).unwrap();
            for threads in [2, 5] {
                let b = QueryEngine::new(&e)
                    .with_threads(threads)
                    .aggregate_all(&sel)
                    .unwrap();
                assert_eq!(a.count, b.count);
                assert_eq!(a.min, b.min);
                assert_eq!(a.max, b.max);
                for (x, y) in [(a.sum, b.sum), (a.avg, b.avg), (a.stddev, b.stddev)] {
                    assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0), "{x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn threaded_aggregate_equals_shard_merge_exactly() {
        // The parallel path must implement precisely "split the selected
        // rows into contiguous chunks, fold each into its own
        // OnlineStats, merge in chunk order" — reproduce that by hand
        // and demand bit-for-bit equality.
        let m = bumpy(67, 9);
        let e = ExactMatrix(m.clone());
        let sel = Selection {
            rows: Axis::Range(1, 60),
            cols: Axis::Range(0, 9),
        };
        let threads = 4;
        let rows: Vec<usize> = (1..60).collect();
        let chunk = rows.len().div_ceil(threads);
        let mut expect = OnlineStats::new();
        for shard_rows in rows.chunks(chunk) {
            let mut shard = OnlineStats::new();
            for &i in shard_rows {
                for j in 0..9 {
                    shard.push(m[(i, j)]);
                }
            }
            expect.merge(&shard);
        }
        let got = QueryEngine::new(&e)
            .with_threads(threads)
            .aggregate_all(&sel)
            .unwrap();
        assert_eq!(got.sum, expect.sum());
        assert_eq!(got.avg, expect.mean());
        assert_eq!(got.count, expect.count());
        assert_eq!(got.min, expect.min());
        assert_eq!(got.max, expect.max());
        assert_eq!(got.stddev, expect.population_std_dev());
    }

    /// The exact adapter wearing a shard layout: same cells, but
    /// `shard_starts` advertises row-range shards so the engine takes
    /// the fan-out path.
    struct ShardedExact(Matrix, Vec<usize>);

    impl CompressedMatrix for ShardedExact {
        fn rows(&self) -> usize {
            self.0.rows()
        }
        fn cols(&self) -> usize {
            self.0.cols()
        }
        fn cell(&self, i: usize, j: usize) -> Result<f64> {
            self.0.get(i, j)
        }
        fn storage_bytes(&self) -> usize {
            0
        }
        fn method_name(&self) -> &'static str {
            "sharded-exact"
        }
        fn shard_starts(&self) -> Vec<usize> {
            self.1.clone()
        }
    }

    #[test]
    fn sharded_aggregate_merges_in_shard_order_exactly() {
        // The fan-out path must implement precisely "group selected rows
        // by owning shard, fold each group, merge in shard order" —
        // reproduce that by hand and demand bit-for-bit equality, at
        // every thread count (the shard partition, not the thread count,
        // determines the merge tree).
        let m = bumpy(97, 17);
        let starts = vec![0usize, 32, 64];
        let e = ShardedExact(m.clone(), starts.clone());
        for sel in selections() {
            let rows: Vec<usize> = sel.rows.iter(97).collect();
            let cols: Vec<usize> = sel.cols.to_vec(17);
            let mut expect = OnlineStats::new();
            for (gi, &start) in starts.iter().enumerate() {
                let end = starts.get(gi + 1).copied().unwrap_or(97);
                let mut shard = OnlineStats::new();
                for &i in rows.iter().filter(|&&i| i >= start && i < end) {
                    for &j in &cols {
                        shard.push(m[(i, j)]);
                    }
                }
                expect.merge(&shard);
            }
            for threads in [1, 2, 3, 8] {
                let got = QueryEngine::new(&e)
                    .with_threads(threads)
                    .aggregate_all(&sel)
                    .unwrap();
                assert_eq!(got.sum, expect.sum(), "threads={threads}");
                assert_eq!(got.avg, expect.mean(), "threads={threads}");
                assert_eq!(got.count, expect.count(), "threads={threads}");
                assert_eq!(got.stddev, expect.population_std_dev(), "threads={threads}");
            }
        }
    }

    /// One time block of the exact adapter: an owned column slice that
    /// counts every reconstruction call, so tests can prove pruning.
    struct CountingBlock {
        data: Matrix,
        calls: std::sync::atomic::AtomicU64,
        /// Row-range shard starts the block advertises (empty: one shard).
        shards: Vec<usize>,
    }

    impl CountingBlock {
        fn touch(&self) {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        fn calls(&self) -> u64 {
            self.calls.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl CompressedMatrix for CountingBlock {
        fn rows(&self) -> usize {
            self.data.rows()
        }
        fn cols(&self) -> usize {
            self.data.cols()
        }
        fn cell(&self, i: usize, j: usize) -> Result<f64> {
            self.touch();
            self.data.get(i, j)
        }
        fn row_into(&self, i: usize, out: &mut [f64]) -> Result<()> {
            self.touch();
            if out.len() != self.data.cols() {
                return Err(AtsError::dims(
                    "CountingBlock::row_into",
                    (1, out.len()),
                    (1, self.data.cols()),
                ));
            }
            out.copy_from_slice(self.data.row(i));
            Ok(())
        }
        fn storage_bytes(&self) -> usize {
            0
        }
        fn method_name(&self) -> &'static str {
            "counting-block"
        }
        fn shard_starts(&self) -> Vec<usize> {
            self.shards.clone()
        }
    }

    /// The exact adapter wearing a time-block layout: same cells as the
    /// source matrix, but partitioned into per-block column slices that
    /// the engine must route to (and prune) itself.
    struct TimeBlockedExact {
        blocks: Vec<CountingBlock>,
        starts: Vec<usize>,
        cols: usize,
    }

    impl TimeBlockedExact {
        fn split(m: &Matrix, starts: Vec<usize>) -> Self {
            Self::split_sharded(m, starts, Vec::new())
        }

        /// `split`, with every block advertising the row shards `shards`.
        fn split_sharded(m: &Matrix, starts: Vec<usize>, shards: Vec<usize>) -> Self {
            let cols = m.cols();
            let blocks = starts
                .iter()
                .enumerate()
                .map(|(b, &s)| {
                    let e = starts.get(b + 1).copied().unwrap_or(cols);
                    CountingBlock {
                        data: Matrix::from_fn(m.rows(), e - s, |i, j| m[(i, s + j)]),
                        calls: std::sync::atomic::AtomicU64::new(0),
                        shards: shards.clone(),
                    }
                })
                .collect();
            TimeBlockedExact {
                blocks,
                starts,
                cols,
            }
        }

        fn route(&self, j: usize) -> (usize, usize) {
            let idx = match self.starts.binary_search(&j) {
                Ok(p) => p,
                Err(p) => p - 1,
            };
            (idx, self.starts[idx])
        }
    }

    impl CompressedMatrix for TimeBlockedExact {
        fn rows(&self) -> usize {
            self.blocks[0].rows()
        }
        fn cols(&self) -> usize {
            self.cols
        }
        fn cell(&self, i: usize, j: usize) -> Result<f64> {
            if j >= self.cols {
                return Err(AtsError::oob("column", j, self.cols));
            }
            let (b, s) = self.route(j);
            self.blocks[b].cell(i, j - s)
        }
        fn storage_bytes(&self) -> usize {
            0
        }
        fn method_name(&self) -> &'static str {
            "timeblocked-exact"
        }
        fn shard_starts(&self) -> Vec<usize> {
            self.blocks[0].shard_starts()
        }
        fn time_block_starts(&self) -> Vec<usize> {
            self.starts.clone()
        }
        fn time_block(&self, b: usize) -> Option<&dyn CompressedMatrix> {
            self.blocks.get(b).map(|blk| blk as &dyn CompressedMatrix)
        }
    }

    #[test]
    fn timeblocked_aggregate_merges_in_block_order_exactly() {
        // The time-block path must implement precisely "group selected
        // columns by owning block, fold each block, merge in block
        // order" — reproduce that by hand and demand bit-for-bit
        // equality at every thread count.
        let m = bumpy(60, 24);
        let starts = vec![0usize, 7, 16];
        let e = TimeBlockedExact::split(&m, starts.clone());
        for sel in [
            Selection::all(),
            Selection::time_range(Axis::Range(5, 50), 3, 20),
            Selection {
                rows: Axis::set(vec![0, 9, 17, 58]),
                cols: Axis::set(vec![2, 6, 7, 15, 16, 23]),
            },
            Selection::time_range(Axis::All, 7, 16), // exactly block 1
        ] {
            let rows: Vec<usize> = sel.rows.iter(60).collect();
            let cols: Vec<usize> = sel.cols.to_vec(24);
            let mut expect = OnlineStats::new();
            for (b, &s) in starts.iter().enumerate() {
                let end = starts.get(b + 1).copied().unwrap_or(24);
                let block_cols: Vec<usize> = cols
                    .iter()
                    .copied()
                    .filter(|&j| j >= s && j < end)
                    .collect();
                if block_cols.is_empty() {
                    continue;
                }
                let mut part = OnlineStats::new();
                for &i in &rows {
                    for &j in &block_cols {
                        part.push(m[(i, j)]);
                    }
                }
                expect.merge(&part);
            }
            // Single-threaded the engine's within-block fold matches
            // the hand reduction exactly, so block-order merge must be
            // bit-for-bit; threaded runs re-associate within a block
            // and get a float tolerance instead.
            let got = QueryEngine::new(&e)
                .with_threads(1)
                .aggregate_all(&sel)
                .unwrap();
            assert_eq!(got.sum, expect.sum());
            assert_eq!(got.count, expect.count());
            assert_eq!(got.min, expect.min());
            assert_eq!(got.max, expect.max());
            assert_eq!(got.stddev, expect.population_std_dev());
            let got3 = QueryEngine::new(&e)
                .with_threads(3)
                .aggregate_all(&sel)
                .unwrap();
            assert_eq!(got3.count, expect.count());
            assert_eq!(got3.min, expect.min());
            assert_eq!(got3.max, expect.max());
            let tol = 1e-9 * expect.sum().abs().max(1.0);
            assert!((got3.sum - expect.sum()).abs() <= tol, "threads=3 sum");
        }
    }

    #[test]
    fn each_aggregate_is_bitwise_its_field_of_aggregate_all() {
        // `aggregate(sel, f)` and `aggregate_all` take the same scan and
        // the same fold. Over every layout of the partition walk the two
        // must agree to the bit — and so must an always-true `where`,
        // whose leaf pushes the same cells.
        let everything = Predicate::new(CmpOp::Gt, -1e9).unwrap();
        for nan in [false, true] {
            let mut m = bumpy(61, 24);
            if nan {
                m[(33, 9)] = f64::NAN;
            }
            for shards in [vec![], vec![0usize, 20, 45]] {
                for blocks in [vec![0usize], vec![0, 5, 11, 20]] {
                    let e = TimeBlockedExact::split_sharded(&m, blocks.clone(), shards.clone());
                    for threads in [1, 3] {
                        let q = QueryEngine::new(&e).with_threads(threads);
                        for sel in [
                            Selection::all(),
                            Selection::time_range(Axis::Range(3, 58), 4, 21),
                            Selection {
                                rows: Axis::set(vec![0, 1, 2, 19, 20, 44, 60]),
                                cols: Axis::set(vec![1, 9, 12, 23]), // sparse path
                            },
                        ] {
                            let all = q.aggregate_all(&sel).unwrap();
                            let fields = [
                                all.sum,
                                all.avg,
                                all.count as f64,
                                all.min,
                                all.max,
                                all.stddev,
                            ];
                            let ctx = format!(
                                "nan={nan} shards={} blocks={} threads={threads} {sel:?}",
                                shards.len().max(1),
                                blocks.len()
                            );
                            for (f, want) in AggregateFn::ALL.into_iter().zip(fields) {
                                let got = q.aggregate(&sel, f).unwrap();
                                assert_eq!(got.to_bits(), want.to_bits(), "{} {ctx}", f.name());
                                if !nan {
                                    let w = q.aggregate_where(&sel, f, &everything).unwrap();
                                    assert_eq!(
                                        w.to_bits(),
                                        want.to_bits(),
                                        "where {} {ctx}",
                                        f.name()
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn timeblocked_aggregate_prunes_untouched_blocks() {
        // A range confined to block 1 must leave blocks 0 and 2 with
        // zero reconstruction calls — the engine-level pruning that the
        // store-level IoStats tests pin against real disk I/O.
        let m = bumpy(40, 30);
        let e = TimeBlockedExact::split(&m, vec![0, 10, 20]);
        let sel = Selection::time_range(Axis::All, 12, 18);
        let got = QueryEngine::new(&e)
            .aggregate(&sel, AggregateFn::Sum)
            .unwrap();
        let expect: f64 = {
            let mut s = OnlineStats::new();
            for i in 0..40 {
                for j in 12..18 {
                    s.push(m[(i, j)]);
                }
            }
            s.sum()
        };
        assert_eq!(got, expect);
        assert_eq!(e.blocks[0].calls(), 0, "block 0 must stay cold");
        assert!(e.blocks[1].calls() > 0);
        assert_eq!(e.blocks[2].calls(), 0, "block 2 must stay cold");
        // A block-edge-spanning range touches exactly the two overlapped
        // blocks.
        let e2 = TimeBlockedExact::split(&m, vec![0, 10, 20]);
        let edge = Selection::time_range(Axis::All, 8, 12);
        QueryEngine::new(&e2)
            .aggregate(&edge, AggregateFn::Avg)
            .unwrap();
        assert!(e2.blocks[0].calls() > 0);
        assert!(e2.blocks[1].calls() > 0);
        assert_eq!(e2.blocks[2].calls(), 0);
    }

    #[test]
    fn timeblocked_empty_and_boundary_ranges() {
        let m = bumpy(20, 12);
        let e = TimeBlockedExact::split(&m, vec![0, 4, 8]);
        let q = QueryEngine::new(&e);
        // Empty time range: InvalidArgument, never a panic.
        let empty = Selection::time_range(Axis::All, 5, 5);
        for f in AggregateFn::ALL {
            assert!(matches!(
                q.aggregate(&empty, f),
                Err(AtsError::InvalidArgument(_))
            ));
        }
        // Single-column range.
        let one = Selection::time_range(Axis::All, 7, 8);
        let got = q.aggregate(&one, AggregateFn::Sum).unwrap();
        let expect: f64 = (0..20).map(|i| m[(i, 7)]).sum::<f64>();
        assert!((got - expect).abs() <= 1e-9 * expect.abs().max(1.0));
        // Range ending exactly on a block edge.
        let edge = Selection::time_range(Axis::All, 2, 4);
        q.aggregate(&edge, AggregateFn::Max).unwrap();
        // Range past the end: refused.
        let over = Selection::time_range(Axis::All, 8, 13);
        assert!(q.aggregate(&over, AggregateFn::Sum).is_err());
    }

    use crate::predicate::CmpOp;

    /// Brute-force `where` baseline: per-cell reconstruction and
    /// evaluation in rows-then-ascending-columns order — the order the
    /// engine documents — over an uncompressed matrix.
    fn where_exact(m: &Matrix, sel: &Selection, f: AggregateFn, pred: &Predicate) -> Result<f64> {
        let (n, mm) = m.shape();
        sel.validate(n, mm)?;
        let mut stats = OnlineStats::new();
        for i in sel.rows.iter(n) {
            for j in sel.cols.to_vec(mm) {
                let v = m[(i, j)];
                if pred.eval(v) {
                    stats.push(v);
                }
            }
        }
        if let AggregateFn::Count = f {
            return Ok(stats.count() as f64);
        }
        f.finish(&stats)
    }

    /// The exact adapter wearing a zone-map synopsis: same cells, plus
    /// a [`ShardSynopsis`] built from the data and a counter of rows
    /// fetched — through `cells_in_row` or, a row at a time under the
    /// default `rows_into`, through `row_into` (a row is the unit of `U`
    /// I/O the pruning saves, whichever entry point reads it).
    struct SynopticExact {
        data: Matrix,
        syn: ShardSynopsis,
        fetches: std::sync::atomic::AtomicU64,
    }

    impl SynopticExact {
        fn build(data: Matrix) -> Self {
            let mut b = ats_storage::SynopsisBuilder::new(data.rows(), data.cols()).unwrap();
            for i in 0..data.rows() {
                b.push_row(data.row(i)).unwrap();
            }
            let syn = b.finish().unwrap();
            SynopticExact {
                data,
                syn,
                fetches: std::sync::atomic::AtomicU64::new(0),
            }
        }

        fn fetches(&self) -> u64 {
            self.fetches.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl CompressedMatrix for SynopticExact {
        fn rows(&self) -> usize {
            self.data.rows()
        }
        fn cols(&self) -> usize {
            self.data.cols()
        }
        fn cell(&self, i: usize, j: usize) -> Result<f64> {
            self.data.get(i, j)
        }
        fn cells_in_row(&self, i: usize, cols: &[usize], out: &mut [f64]) -> Result<()> {
            self.fetches
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            for (&j, o) in cols.iter().zip(out.iter_mut()) {
                *o = self.data.get(i, j)?;
            }
            Ok(())
        }
        fn row_into(&self, i: usize, out: &mut [f64]) -> Result<()> {
            self.fetches
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            out.copy_from_slice(self.data.row(i));
            Ok(())
        }
        fn storage_bytes(&self) -> usize {
            0
        }
        fn method_name(&self) -> &'static str {
            "synoptic-exact"
        }
        fn shard_synopsis(&self, shard: usize) -> Result<Option<&ShardSynopsis>> {
            Ok((shard == 0).then_some(&self.syn))
        }
    }

    /// Rows carry their index as value, so each 8-row tile band has
    /// bounds [8t, 8t+7]: a threshold mid-band makes some bands prove
    /// False, some True, one straddle — all three classifications live.
    fn banded(n: usize, m: usize) -> Matrix {
        Matrix::from_fn(n, m, |i, j| i as f64 + (j % 4) as f64 * 0.01)
    }

    #[test]
    fn where_matches_brute_force_on_plain_matrix() {
        // No synopsis anywhere: the pure fallback path, every operator
        // and aggregate, bitwise against the hand scan.
        let m = bumpy(50, 13);
        let e = ExactMatrix(m.clone());
        let q = QueryEngine::new(&e);
        let sel = Selection {
            rows: Axis::Range(3, 47),
            cols: Axis::Range(1, 12),
        };
        for op in [CmpOp::Gt, CmpOp::Ge, CmpOp::Lt, CmpOp::Le, CmpOp::Eq] {
            let pred = Predicate::new(op, 2.0).unwrap();
            for f in AggregateFn::ALL {
                match (
                    q.aggregate_where(&sel, f, &pred),
                    where_exact(&m, &sel, f, &pred),
                ) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits(), "{:?} {}", op, f.name())
                    }
                    (a, b) => assert!(
                        a.is_err() && b.is_err(),
                        "{:?} {}: engine {a:?} vs exact {b:?}",
                        op,
                        f.name()
                    ),
                }
            }
        }
    }

    #[test]
    fn where_pruned_equals_fallback_bitwise_and_skips_fetches() {
        let e = SynopticExact::build(banded(48, 20));
        let sel = Selection::all();
        let pred = Predicate::new(CmpOp::Gt, 30.0).unwrap();
        // Bands [0..8) … [24..32) hold values ≤ 31.03: bands 0-2 prove
        // False, band 3 (rows 24..32, max 31.03) straddles, bands 4-5
        // prove True.
        let baseline: Vec<f64> = AggregateFn::ALL
            .iter()
            .map(|&f| {
                QueryEngine::new(&e)
                    .with_synopsis(false)
                    .aggregate_where(&sel, f, &pred)
                    .unwrap()
            })
            .collect();
        let unpruned = e.fetches(); // 48 rows × 6 aggregates
        assert_eq!(unpruned, 48 * 6);
        for (&f, &want) in AggregateFn::ALL.iter().zip(&baseline) {
            let before = e.fetches();
            let got = QueryEngine::new(&e)
                .with_synopsis(true)
                .aggregate_where(&sel, f, &pred)
                .unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{}", f.name());
            let spent = e.fetches() - before;
            match f {
                // count needs only the straddling band reconstructed.
                AggregateFn::Count => assert_eq!(spent, 8, "count fetches"),
                // value aggregates reconstruct True bands too, but the
                // three False bands (24 rows) still cost nothing.
                _ => assert_eq!(spent, 48 - 24, "{} fetches", f.name()),
            }
        }
        // Sanity on the actual value: count of cells > 30.
        let expect = where_exact(&e.data, &sel, AggregateFn::Count, &pred).unwrap();
        assert_eq!(baseline[2], expect);
    }

    #[test]
    fn where_zero_matches_counts_zero_and_errors_elsewhere() {
        let e = SynopticExact::build(banded(16, 8));
        let pred = Predicate::new(CmpOp::Gt, 1e6).unwrap(); // nothing matches
        let sel = Selection::all();
        for on in [true, false] {
            let q = QueryEngine::new(&e).with_synopsis(on);
            assert_eq!(
                q.aggregate_where(&sel, AggregateFn::Count, &pred).unwrap(),
                0.0
            );
            for f in [AggregateFn::Sum, AggregateFn::Min, AggregateFn::StdDev] {
                let err = q.aggregate_where(&sel, f, &pred).unwrap_err();
                assert!(matches!(err, AtsError::InvalidArgument(_)), "{err}");
                assert!(err.to_string().contains("count is defined"), "{err}");
            }
        }
        // With pruning on, the all-False store does zero fetches.
        let before = e.fetches();
        QueryEngine::new(&e)
            .with_synopsis(true)
            .aggregate_where(&sel, AggregateFn::Count, &pred)
            .unwrap();
        assert_eq!(e.fetches(), before, "all-False scan must not reconstruct");
        // An empty *selection* is still rejected, count included.
        let empty = Selection {
            rows: Axis::Range(3, 3),
            cols: Axis::All,
        };
        assert!(QueryEngine::new(&e)
            .aggregate_where(&empty, AggregateFn::Count, &pred)
            .is_err());
    }

    #[test]
    fn where_handles_nan_cells_identically_with_and_without_pruning() {
        let mut m = banded(24, 10);
        m[(20, 3)] = f64::NAN; // poisons tile (2, 0): True band degrades to Maybe
        let e = SynopticExact::build(m.clone());
        let sel = Selection::all();
        let pred = Predicate::new(CmpOp::Gt, 10.0).unwrap();
        for f in [AggregateFn::Count, AggregateFn::Sum, AggregateFn::Max] {
            let pruned = QueryEngine::new(&e)
                .with_synopsis(true)
                .aggregate_where(&sel, f, &pred)
                .unwrap();
            let fallback = QueryEngine::new(&e)
                .with_synopsis(false)
                .aggregate_where(&sel, f, &pred)
                .unwrap();
            assert_eq!(pruned.to_bits(), fallback.to_bits(), "{}", f.name());
            assert!(pruned.is_finite(), "NaN must be excluded, not aggregated");
        }
        // The NaN cell itself is never a match.
        let count = QueryEngine::new(&e)
            .aggregate_where(&sel, AggregateFn::Count, &pred)
            .unwrap();
        let expect = where_exact(&m, &sel, AggregateFn::Count, &pred).unwrap();
        assert_eq!(count, expect);
    }

    #[test]
    fn where_threaded_and_sharded_paths_agree_with_serial() {
        // Thread chunking and shard fan-out must answer what the serial
        // scan answers (bitwise for order-independent aggregates, to
        // tolerance for Welford merges), synopsis on or off.
        let m = bumpy(97, 17);
        let pred = Predicate::new(CmpOp::Ge, 0.0).unwrap();
        let plain = ExactMatrix(m.clone());
        let sharded = ShardedExact(m.clone(), vec![0, 32, 64]);
        let sel = Selection::all();
        let serial = QueryEngine::new(&plain)
            .aggregate_where(&sel, AggregateFn::Sum, &pred)
            .unwrap();
        let count = QueryEngine::new(&plain)
            .aggregate_where(&sel, AggregateFn::Count, &pred)
            .unwrap();
        for threads in [1, 3, 8] {
            for on in [true, false] {
                let qp = QueryEngine::new(&plain)
                    .with_threads(threads)
                    .with_synopsis(on);
                let qs = QueryEngine::new(&sharded)
                    .with_threads(threads)
                    .with_synopsis(on);
                for q in [&qp, &qs] {
                    let s = q.aggregate_where(&sel, AggregateFn::Sum, &pred).unwrap();
                    assert!((s - serial).abs() <= 1e-9 * serial.abs().max(1.0));
                    let c = q.aggregate_where(&sel, AggregateFn::Count, &pred).unwrap();
                    assert_eq!(c, count, "threads={threads} synopsis={on}");
                }
            }
        }
    }

    #[test]
    fn where_routes_time_blocks_and_prunes_untouched_ones() {
        let m = bumpy(40, 30);
        let e = TimeBlockedExact::split(&m, vec![0, 10, 20]);
        let sel = Selection::time_range(Axis::All, 12, 18);
        let pred = Predicate::new(CmpOp::Lt, 100.0).unwrap(); // everything matches
        let got = QueryEngine::new(&e)
            .aggregate_where(&sel, AggregateFn::Sum, &pred)
            .unwrap();
        let expect: f64 = {
            let mut s = OnlineStats::new();
            for i in 0..40 {
                for j in 12..18 {
                    s.push(m[(i, j)]);
                }
            }
            s.sum()
        };
        assert_eq!(got.to_bits(), expect.to_bits());
        assert_eq!(e.blocks[0].calls(), 0, "block 0 must stay cold");
        assert_eq!(e.blocks[2].calls(), 0, "block 2 must stay cold");
    }

    #[test]
    fn single_shard_matrix_keeps_monolithic_path() {
        // shard_starts = [0] means "one shard": the result must equal
        // the monolithic engine bit-for-bit at one thread.
        let m = bumpy(60, 8);
        let sharded = ShardedExact(m.clone(), vec![0]);
        let plain = ExactMatrix(m);
        let sel = Selection::all();
        let a = QueryEngine::new(&sharded).aggregate_all(&sel).unwrap();
        let b = QueryEngine::new(&plain).aggregate_all(&sel).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn store_level_threading_on_compressed_matrix() {
        // The threaded path also runs over a real compressed matrix
        // (Sync reconstruction), not just the exact adapter.
        let x = bumpy(120, 10);
        let c = ats_compress::SvdCompressed::compress(&x, 4, 1).unwrap();
        let sel = Selection {
            rows: Axis::Range(0, 120),
            cols: Axis::Range(0, 10),
        };
        let serial = QueryEngine::new(&c)
            .aggregate(&sel, AggregateFn::Sum)
            .unwrap();
        let par = QueryEngine::new(&c)
            .with_threads(4)
            .aggregate(&sel, AggregateFn::Sum)
            .unwrap();
        assert!((serial - par).abs() <= 1e-9 * serial.abs().max(1.0));
    }
}
