//! [`TimeBlockedStore`]: the row-shard × time-block grid (store format
//! v4), and the time-axis growth path the paper lacks.
//!
//! The paper's decomposition is global along time: one `(U, Λ, V)` over
//! all `M` columns. That leaves two gaps the Zoom-SVD line of work
//! closes by *blocking the time axis*: no query can restrict its I/O to
//! a time range, and new time points cannot be absorbed without a full
//! rebuild (projecting under a frozen `V` is only sound for new *rows*).
//! Here the time axis is partitioned into column blocks, each carrying
//! its own complete decomposition — per-block `(U_b, Λ_b, V_b)`, its own
//! row-range shards and delta sets — stored as a nested v3 store under
//! `tblock-NNNN/`:
//!
//! ```text
//! store/
//!   manifest.txt            # v4: block column ranges, SSEs, nested CRCs
//!   tblock-0000/            # a full v3 store over cols 0..W
//!     manifest.txt  v.atsm  lambda.atsm
//!     shard-0000/ u.atsm deltas.bin
//!   tblock-0001/            # cols W..2W
//! ```
//!
//! Cell `(i, j)` routes to the block owning column `j` and reconstructs
//! there — still `O(k_b)` with one `U_b`-row fetch from the owning
//! shard, other blocks untouched. A range query `[t1..t2]` therefore
//! reads only the blocks overlapping the range (per-block [`IoSnapshot`]
//! counters prove it), and a query confined to one block is bitwise
//! what a standalone store over that column slice would answer, because
//! it *is* that store. Cross-block answers stitch per-block partials in
//! block order; since blocks partition the columns, the squared
//! reconstruction error of any stitched slice is bounded by the sum of
//! the overlapped blocks' recorded SSEs.
//!
//! New time points land via [`append_time_block`]: a fresh block with
//! its own decomposition — never a projection under some frozen
//! unrelated `V` — staged and published with the same
//! crash-discipline as the row-append path. Each block's manifest entry
//! records its reconstruction SSE at build time, the principled
//! retrain trigger (`ats info` flags blocks past a threshold).
//!
//! A v2/v3 directory is exactly a one-block v4 store whose block
//! directory is the store directory itself; [`TimeBlockedStore::open`]
//! serves it through the same code with zero behavioral change. An open
//! reads and cross-checks the manifests — the block table pins each
//! nested manifest's CRC, each nested manifest pins its component files
//! — and each block then checksums a component the first time a query
//! reads it ([`crate::shard`]): a query pays, in integrity bytes as in
//! `U` pages, only for the blocks its range overlaps.
//!
//! One routing type serves both lives of a store: [`TimeGrid`] over
//! in-memory decompositions is what [`crate::store::StoreBuilder`]
//! returns for a multi-block build, and [`TimeGrid`] over
//! [`ShardedStore`]s ([`TimeBlockedStore`]) is what every saved store —
//! one block or many — opens as.

use crate::shard::{write_sharded_components, ShardedStore};
use ats_common::{AtsError, Result};
use ats_compress::method::block_budget;
use ats_compress::{
    shard_ranges, CompressedMatrix, DeltaStore, SpaceBudget, SvdCompressed, SvddCompressed,
    SvddOptions,
};
use ats_storage::store_dir::{
    file_crc, publish_manifest, tblock_dir_name, write_sharded_manifest_into,
    write_timeblocked_manifest_into, MANIFEST_FILE, TIMEBLOCKED_STORE_VERSION,
};
use ats_storage::{
    IoSnapshot, RowSource, ShardSynopsis, StoreWriter, TimeBlockEntry, TimeBlockedManifest,
};
use std::path::Path;
use std::sync::Arc;

/// Column ranges of `b` time blocks over `cols` columns: contiguous,
/// ascending, near-even, covering exactly `0..cols`. Unlike the
/// row-shard ranges ([`ats_compress::shard_ranges`]) there is no pass
/// blocking to align to, so narrow matrices still split.
pub fn time_block_ranges(cols: usize, b: usize) -> Vec<(usize, usize)> {
    if cols == 0 {
        return Vec::new();
    }
    let b = b.clamp(1, cols);
    (0..b).map(|t| (t * cols / b, (t + 1) * cols / b)).collect()
}

/// Exact sum of squared reconstruction errors of `c` against `source`,
/// in one streaming pass (the per-block figure recorded in the v4
/// manifest; for SVDD it is the error *after* delta patching).
pub fn reconstruction_sse<S: RowSource + ?Sized>(
    source: &S,
    c: &dyn CompressedMatrix,
) -> Result<f64> {
    if source.rows() != c.rows() || source.cols() != c.cols() {
        return Err(AtsError::dims(
            "reconstruction_sse",
            (source.rows(), source.cols()),
            (c.rows(), c.cols()),
        ));
    }
    let mut buf = vec![0.0f64; c.cols()];
    let mut sse = 0.0f64;
    source.for_each_row(&mut |i, row| {
        c.row_into(i, &mut buf)?;
        for (x, xh) in row.iter().zip(buf.iter()) {
            let d = x - xh;
            sse += d * d;
        }
        Ok(())
    })?;
    Ok(sse)
}

/// A freshly built decomposition over one column block: what a store
/// holds between [`crate::store::StoreBuilder::build`] and
/// [`crate::store::SequenceStore::save`], and what
/// [`append_time_block`] builds before landing it.
pub(crate) struct BuiltBlock {
    data: Decomposition,
    /// Reconstruction SSE against the block's source slice (after delta
    /// patching for SVDD) — measured for the blocks of a time-blocked
    /// store, whose manifest records it; `None` for a one-block build.
    sse: Option<f64>,
}

enum Decomposition {
    Svd(Arc<SvdCompressed>),
    Svdd(Arc<SvddCompressed>),
}

impl BuiltBlock {
    /// Run the build passes for `method` (`"svd"` or `"svdd"`) over
    /// `source` with row-range shards `ranges`, measuring the
    /// reconstruction SSE in one more pass only when `measure_sse`.
    pub(crate) fn build<S: RowSource + ?Sized>(
        method: &str,
        source: &S,
        budget: SpaceBudget,
        threads: usize,
        with_bloom: bool,
        ranges: &[(usize, usize)],
        measure_sse: bool,
    ) -> Result<Self> {
        let data = match method {
            "svd" => Decomposition::Svd(Arc::new(SvdCompressed::compress_budget_sharded(
                source, budget, threads, ranges,
            )?)),
            "svdd" => {
                let mut opts = SvddOptions::new(budget);
                opts.threads = threads;
                opts.with_bloom = with_bloom;
                Decomposition::Svdd(Arc::new(SvddCompressed::compress_sharded(
                    source, &opts, ranges,
                )?))
            }
            other => {
                return Err(AtsError::Corrupt(format!(
                    "method {other:?} is not a disk-servable store (svd|svdd)"
                )))
            }
        };
        let mut block = BuiltBlock { data, sse: None };
        if measure_sse {
            block.sse = Some(reconstruction_sse(source, block.matrix().as_ref())?);
        }
        Ok(block)
    }

    /// The block as a servable matrix (shared with this handle).
    pub(crate) fn matrix(&self) -> Arc<dyn CompressedMatrix> {
        match &self.data {
            Decomposition::Svd(c) => Arc::clone(c) as Arc<dyn CompressedMatrix>,
            Decomposition::Svdd(c) => Arc::clone(c) as Arc<dyn CompressedMatrix>,
        }
    }

    fn svd(&self) -> &SvdCompressed {
        match &self.data {
            Decomposition::Svd(c) => c,
            Decomposition::Svdd(c) => c.svd(),
        }
    }

    fn deltas(&self) -> Option<&DeltaStore> {
        match &self.data {
            Decomposition::Svd(_) => None,
            Decomposition::Svdd(c) => Some(c.deltas()),
        }
    }
}

/// The block table describing `blocks` laid side by side in time order:
/// column ranges accumulating from 0 and each block's measured SSE,
/// nested-manifest CRCs unfilled (the commit computes them).
pub(crate) fn block_table(method: &str, blocks: &[BuiltBlock]) -> TimeBlockedManifest {
    let mut entries = Vec::with_capacity(blocks.len());
    let mut start = 0usize;
    for b in blocks {
        let end = start + b.svd().cols();
        entries.push(TimeBlockEntry {
            start,
            end,
            sse: b.sse,
            crc_manifest: 0,
        });
        start = end;
    }
    TimeBlockedManifest {
        method: method.to_string(),
        rows: blocks.first().map_or(0, |b| b.svd().rows()),
        cols: start,
        bloom: blocks
            .first()
            .and_then(BuiltBlock::deltas)
            .is_some_and(DeltaStore::has_bloom),
        blocks: entries,
        source_version: TIMEBLOCKED_STORE_VERSION,
    }
}

/// Persist freshly built blocks into `dir`, atomically: one block lands
/// as a sharded (v3) directory, several as a time-blocked (v4) directory
/// whose every block is a complete nested v3 tree (components plus
/// CRC-filled nested manifest) under a block table. Everything is staged
/// inside one [`StoreWriter`] temp directory and exposed by its single
/// all-or-nothing commit — a torn save never exposes a half-written
/// store. `row_ranges` are the shard ranges the build passes ran over.
pub(crate) fn save_blocks(
    dir: &Path,
    blocks: &[BuiltBlock],
    method: &str,
    row_ranges: &[(usize, usize)],
) -> Result<()> {
    let writer = StoreWriter::begin(dir)?;
    let stage = |bdir: &Path, b: &BuiltBlock| {
        let manifest = write_sharded_components(bdir, b.svd(), b.deltas(), method, row_ranges)?;
        write_sharded_manifest_into(bdir, manifest)
    };
    if let [only] = blocks {
        stage(writer.path(), only)?;
    } else {
        for (i, b) in blocks.iter().enumerate() {
            let bdir = writer.path().join(tblock_dir_name(i));
            std::fs::create_dir(&bdir)?;
            stage(&bdir, b)?;
        }
        write_timeblocked_manifest_into(writer.path(), block_table(method, blocks))?;
    }
    writer.commit_dir()
}

/// A column-partitioned grid of compressed matrices serving as one:
/// the routing behind both a freshly built multi-block store
/// (`B = Arc<dyn CompressedMatrix>`) and every opened one
/// ([`TimeBlockedStore`], `B = ShardedStore`).
///
/// Every query routes to the owning block(s) with columns rebased to
/// block-local indices; a single-block grid delegates straight through,
/// so a monolithic store served through here changes nothing.
pub struct TimeGrid<B> {
    /// The block table: column ranges and recorded SSEs. For an opened
    /// store this is the validated top-level manifest (normalized for
    /// v2/v3 directories).
    table: TimeBlockedManifest,
    blocks: Vec<B>,
}

/// An opened store directory of any format: one lazily-validated,
/// lazily-paged [`ShardedStore`] per time block behind the routing grid. Opening a
/// v2/v3 directory yields a single-block grid that delegates straight
/// through — legacy stores serve unchanged.
pub type TimeBlockedStore = TimeGrid<ShardedStore>;

impl<B: AsRef<dyn CompressedMatrix>> TimeGrid<B> {
    /// Assemble a grid from blocks in time order under the table that
    /// describes them: every block must span the table's rows and
    /// exactly its entry's columns.
    pub(crate) fn new(table: TimeBlockedManifest, blocks: Vec<B>) -> Result<Self> {
        if blocks.is_empty() || blocks.len() != table.blocks.len() {
            return Err(AtsError::InvalidArgument(format!(
                "a time-blocked grid needs one block per table entry, got {} for {}",
                blocks.len(),
                table.blocks.len()
            )));
        }
        for (b, entry) in blocks.iter().zip(&table.blocks) {
            let b = b.as_ref();
            if b.rows() != table.rows || b.cols() != entry.cols() || entry.cols() == 0 {
                return Err(AtsError::dims(
                    "TimeGrid::new",
                    (b.rows(), b.cols()),
                    (table.rows, entry.cols()),
                ));
            }
        }
        Ok(TimeGrid { table, blocks })
    }

    /// The block owning absolute column `j`, with the block's start.
    fn route(&self, j: usize) -> Result<(&dyn CompressedMatrix, &TimeBlockEntry)> {
        self.table
            .block_of_col(j)
            .and_then(|idx| Some((self.blocks.get(idx)?.as_ref(), self.table.blocks.get(idx)?)))
            .ok_or_else(|| AtsError::oob("column", j, self.table.cols))
    }

    /// Blocks paired with their table entries, in time order.
    fn entries(&self) -> impl Iterator<Item = (&dyn CompressedMatrix, &TimeBlockEntry)> + '_ {
        let blocks = self
            .blocks
            .iter()
            .map(|b| -> &dyn CompressedMatrix { b.as_ref() });
        blocks.zip(&self.table.blocks)
    }
}

impl<B: AsRef<dyn CompressedMatrix> + Send + Sync> CompressedMatrix for TimeGrid<B> {
    fn rows(&self) -> usize {
        self.table.rows
    }

    fn cols(&self) -> usize {
        self.table.cols
    }

    fn cell(&self, i: usize, j: usize) -> Result<f64> {
        let (block, entry) = self.route(j)?;
        block.cell(i, j - entry.start)
    }

    fn row_into(&self, i: usize, out: &mut [f64]) -> Result<()> {
        if out.len() != self.table.cols {
            return Err(AtsError::dims(
                "TimeGrid::row_into",
                (1, out.len()),
                (1, self.table.cols),
            ));
        }
        for (b, e) in self.entries() {
            let slot = out
                .get_mut(e.start..e.end)
                .ok_or_else(|| AtsError::internal("row_into output undersized"))?;
            b.row_into(i, slot)?;
        }
        Ok(())
    }

    /// Group the requested columns into consecutive same-block runs and
    /// answer each run with one call into the owning block (columns
    /// rebased), so the owning shard's one-`U`-fetch amortization
    /// applies per touched block and untouched blocks see no I/O.
    fn cells_in_row(&self, i: usize, cols: &[usize], out: &mut [f64]) -> Result<()> {
        if out.len() != cols.len() {
            return Err(AtsError::dims(
                "TimeGrid::cells_in_row",
                (1, out.len()),
                (1, cols.len()),
            ));
        }
        if let [only] = self.blocks.as_slice() {
            return only.as_ref().cells_in_row(i, cols, out);
        }
        for &j in cols {
            if j >= self.table.cols {
                return Err(AtsError::oob("column", j, self.table.cols));
            }
        }
        let mut pos = 0usize;
        while pos < cols.len() {
            let first = *cols
                .get(pos)
                .ok_or_else(|| AtsError::internal("cells_in_row cursor out of range"))?;
            let (block, entry) = self.route(first)?;
            let mut len = 1usize;
            while cols
                .get(pos + len)
                .is_some_and(|&j| j >= entry.start && j < entry.end)
            {
                len += 1;
            }
            let run = cols
                .get(pos..pos + len)
                .ok_or_else(|| AtsError::internal("cells_in_row run out of range"))?;
            let local: Vec<usize> = run.iter().map(|&j| j - entry.start).collect();
            let slot = out
                .get_mut(pos..pos + len)
                .ok_or_else(|| AtsError::internal("cells_in_row output undersized"))?;
            block.cells_in_row(i, &local, slot)?;
            pos += len;
        }
        Ok(())
    }

    fn rows_into(&self, rows: &[usize], out: &mut [f64]) -> Result<()> {
        let m = self.table.cols;
        if out.len() != rows.len() * m {
            return Err(AtsError::dims(
                "TimeGrid::rows_into",
                (rows.len(), m),
                (out.len() / m.max(1), m),
            ));
        }
        if let [only] = self.blocks.as_slice() {
            return only.as_ref().rows_into(rows, out);
        }
        for &i in rows {
            if i >= self.table.rows {
                return Err(AtsError::oob("row", i, self.table.rows));
            }
        }
        if m == 0 {
            return Ok(());
        }
        for (b, e) in self.entries() {
            let width = e.cols();
            let mut buf = vec![0.0f64; rows.len() * width];
            b.rows_into(rows, &mut buf)?;
            for (orow, brow) in out.chunks_mut(m).zip(buf.chunks(width)) {
                let slot = orow
                    .get_mut(e.start..e.end)
                    .ok_or_else(|| AtsError::internal("rows_into output undersized"))?;
                slot.copy_from_slice(brow);
            }
        }
        Ok(())
    }

    fn storage_bytes(&self) -> usize {
        self.entries().map(|(b, _)| b.storage_bytes()).sum()
    }

    fn method_name(&self) -> &'static str {
        self.entries()
            .next()
            .map_or("timeblocked", |(b, _)| b.method_name())
    }

    fn shard_starts(&self) -> Vec<usize> {
        self.entries()
            .next()
            .map_or_else(Vec::new, |(b, _)| b.shard_starts())
    }

    fn time_block_starts(&self) -> Vec<usize> {
        self.table.blocks.iter().map(|e| e.start).collect()
    }

    fn time_block(&self, b: usize) -> Option<&dyn CompressedMatrix> {
        self.blocks.get(b).map(AsRef::as_ref)
    }

    /// A single-block grid delegates straight through — serving a
    /// monolithic store through the grid changes nothing, including its
    /// synopses. A multi-block grid exposes none at the top level: each
    /// block's synopses describe *block-local* columns, so pruning
    /// happens per block via [`CompressedMatrix::time_block`].
    fn shard_synopsis(&self, shard: usize) -> Result<Option<&ShardSynopsis>> {
        match self.blocks.as_slice() {
            [only] => only.as_ref().shard_synopsis(shard),
            _ => Ok(None),
        }
    }
}

impl TimeBlockedStore {
    /// Open a store directory of any format (v2, v3, or v4): the top
    /// manifest and every block's nested manifest are read, self-checked
    /// and cross-checked (nested CRC pinned by the block table, geometry,
    /// method) — and no component file is. Each component is verified
    /// against the CRC its manifest pins the first time a query reads it
    /// (see [`crate::shard`]), so an open costs the manifests and a query
    /// pays for the blocks and shards it touches; run
    /// [`ats_storage::store_dir::validate_timeblocked_store_dir`] to check
    /// everything now.
    /// `pool_pages` bounds the total `U` buffer-pool budget, split evenly
    /// across blocks (then across each block's shards).
    pub fn open(dir: impl AsRef<Path>, pool_pages: usize) -> Result<Self> {
        let dir = dir.as_ref();
        let manifest = TimeBlockedManifest::read(dir)?;
        let nested = manifest.read_blocks(dir)?;
        let per_block = (pool_pages / nested.len().max(1)).max(1);
        let mut blocks = Vec::new();
        for (i, block_manifest) in nested.into_iter().enumerate() {
            blocks.push(ShardedStore::from_manifest(
                &manifest.block_dir(dir, i),
                block_manifest,
                per_block,
            )?);
        }
        TimeGrid::new(manifest, blocks)
    }

    /// The top-level manifest (normalized for v2/v3 stores).
    pub fn manifest(&self) -> &TimeBlockedManifest {
        &self.table
    }

    /// The nested store of every time block, in block order.
    pub fn blocks(&self) -> &[ShardedStore] {
        &self.blocks
    }

    /// Total stored deltas across all blocks.
    pub fn num_deltas(&self) -> usize {
        self.blocks.iter().map(ShardedStore::num_deltas).sum()
    }

    /// Per-shard I/O counters flattened block-major: block 0's shards,
    /// then block 1's, … Cold shards (and whole cold blocks) report
    /// all-zero counters — the basis of the block-pruning assertions.
    pub fn shard_io_snapshots(&self) -> Vec<IoSnapshot> {
        self.blocks
            .iter()
            .flat_map(|b| b.shard_io_snapshots())
            .collect()
    }

    /// One rolled-up I/O snapshot per time block, in block order.
    pub fn block_io_snapshots(&self) -> Vec<IoSnapshot> {
        self.blocks.iter().map(|b| b.io_snapshot()).collect()
    }

    /// All blocks' I/O counters rolled into one snapshot.
    pub fn io_snapshot(&self) -> IoSnapshot {
        let mut total = IoSnapshot::default();
        for s in self.block_io_snapshots() {
            total.merge(&s);
        }
        total
    }

    /// Positioned-read system calls issued across all blocks (see
    /// [`ShardedStore::read_calls`]).
    pub fn read_calls(&self) -> u64 {
        self.blocks.iter().map(ShardedStore::read_calls).sum()
    }

    /// Component bytes checksummed so far across all blocks (see
    /// [`ShardedStore::checked_bytes`]).
    pub fn checked_bytes(&self) -> u64 {
        self.blocks.iter().map(ShardedStore::checked_bytes).sum()
    }
}

/// Default multiple of the store-wide mean per-cell squared error past
/// which a block is flagged for retraining (`ats info` marks it
/// `RETRAIN`): the block's approximation has drifted to twice the
/// store's average, so its decomposition no longer earns its rank.
pub const RETRAIN_SSE_FACTOR: f64 = 2.0;

/// Which blocks' recorded SSEs exceed the retrain threshold: block `b`
/// is flagged when its *per-cell* squared error exceeds `factor` times
/// the store-wide mean per-cell squared error. Comparing per cell (not
/// per block) keeps wide and narrow blocks on one scale; blocks with no
/// recorded SSE (normalized v2/v3 stores never measured one) are never
/// flagged.
pub fn retrain_flags(blocks: &[TimeBlockEntry], rows: usize, factor: f64) -> Vec<bool> {
    let mut cells = 0usize;
    let mut total = 0.0f64;
    for b in blocks {
        if let Some(sse) = b.sse {
            cells = cells.saturating_add(rows.saturating_mul(b.cols()));
            total += sse;
        }
    }
    if cells == 0 || total.is_nan() || total <= 0.0 {
        return vec![false; blocks.len()];
    }
    let mean = total / cells as f64;
    blocks
        .iter()
        .map(|b| {
            let bc = rows.saturating_mul(b.cols());
            match b.sse {
                Some(sse) if bc > 0 => sse / bc as f64 > factor * mean,
                _ => false,
            }
        })
        .collect()
}

/// What [`append_time_block`] did: which block the new time points
/// landed in, how many columns it holds, and its exact build-time
/// reconstruction SSE (also recorded in the manifest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeAppendReport {
    /// Index of the freshly-created time block.
    pub block_index: usize,
    /// Columns (time points) appended.
    pub cols: usize,
    /// Sum of squared reconstruction errors of the new block against
    /// the batch it was built from.
    pub sse: f64,
}

/// Extend the time axis of an on-disk v4 store: the batch of new time
/// points (`N × T`, one new column slice for all sequences) becomes a
/// **fresh block with its own decomposition** — never a projection
/// under a frozen `V`, which is only sound for new rows. The block is
/// built with the store's method and the per-block budget floor
/// ([`ats_compress::method::block_budget`]), staged and renamed in
/// crash-safely, and only then published by an atomic manifest replace:
/// until the new manifest lands the store opens exactly as before, and
/// an interrupted append leaves at worst an unreferenced orphan block.
///
/// v2/v3 directories are refused ([`AtsError::InvalidArgument`]):
/// re-save the store with `--time-blocks` first.
pub fn append_time_block<S: RowSource + ?Sized>(
    dir: impl AsRef<Path>,
    batch: &S,
    budget: SpaceBudget,
    threads: usize,
) -> Result<TimeAppendReport> {
    let dir = dir.as_ref();
    let manifest = TimeBlockedManifest::read(dir)?;
    if manifest.source_version != TIMEBLOCKED_STORE_VERSION {
        return Err(AtsError::InvalidArgument(
            "cannot extend the time axis of a legacy (v2/v3) store directory: \
             re-save it as a time-blocked (v4) store first (ats save --time-blocks)"
                .into(),
        ));
    }
    let nested = manifest.read_blocks(dir)?;
    if batch.rows() != manifest.rows {
        return Err(AtsError::dims(
            "append_time_block",
            (batch.rows(), batch.cols()),
            (manifest.rows, batch.cols()),
        ));
    }
    let t = batch.cols();
    if t == 0 {
        return Err(AtsError::InvalidArgument(
            "cannot append an empty batch of time points".into(),
        ));
    }

    // Build the new block with the same method and row-shard count as
    // the existing store, under the per-block budget floor, and measure
    // it.
    let shards = nested.first().map_or(1, |m| m.shards.len());
    let ranges = shard_ranges(manifest.rows, shards);
    let block = BuiltBlock::build(
        &manifest.method,
        batch,
        block_budget(budget, manifest.rows, t),
        threads,
        manifest.bloom,
        &ranges,
        true,
    )?;
    let sse = block
        .sse
        .ok_or_else(|| AtsError::internal("appended block built without its SSE"))?;

    // Land it as a complete nested v3 store (the save stages, fsyncs,
    // renames in, and clears any orphan); publish only afterwards by
    // replacing the top manifest atomically.
    let index = manifest.blocks.len();
    let target = dir.join(tblock_dir_name(index));
    save_blocks(&target, &[block], &manifest.method, &ranges)?;

    let mut next = manifest;
    let start = next.cols;
    next.blocks.push(TimeBlockEntry {
        start,
        end: start + t,
        sse: Some(sse),
        crc_manifest: file_crc(target.join(MANIFEST_FILE))?,
    });
    next.cols = start + t;
    publish_manifest(dir, &next.encode())?;

    Ok(TimeAppendReport {
        block_index: index,
        cols: t,
        sse,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Method, SequenceStore};
    use ats_common::testutil::LAYOUTS;
    use ats_common::TestDir;
    use ats_linalg::Matrix;
    use ats_storage::ColumnSlice;

    /// Structured but full-rank-ish data: low-rank weekly pattern plus a
    /// small deterministic ripple, so every block has nonzero SSE.
    fn wavy(n: usize, m: usize) -> Matrix {
        let mut x = Matrix::from_fn(n, m, |i, j| {
            ((i % 5) + 1) as f64 * if j % 7 < 5 { 2.0 } else { 0.2 }
                + ((i * 7 + j * 13) % 11) as f64 * 0.05
        });
        x[(2, 1)] += 80.0;
        x[(n - 1, m - 1)] += 60.0;
        x
    }

    /// The shard counts of the time-blocked [`LAYOUTS`]: the tests
    /// below pin their own time-block counts and run under each.
    fn layout_shards() -> impl Iterator<Item = usize> {
        LAYOUTS
            .iter()
            .filter(|l| l.time_blocks > 1)
            .map(|l| l.shards)
    }

    #[test]
    fn time_block_ranges_partition_evenly() {
        assert_eq!(time_block_ranges(10, 1), vec![(0, 10)]);
        assert_eq!(time_block_ranges(10, 3), vec![(0, 3), (3, 6), (6, 10)]);
        assert_eq!(time_block_ranges(3, 8), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(time_block_ranges(0, 4), Vec::new());
        // Always contiguous and covering.
        for (cols, b) in [(97, 4), (8, 8), (1000, 7)] {
            let r = time_block_ranges(cols, b);
            let mut next = 0;
            for &(s, e) in &r {
                assert_eq!(s, next);
                assert!(e > s);
                next = e;
            }
            assert_eq!(next, cols);
        }
    }

    #[test]
    fn block_local_queries_bitwise_match_standalone_slice_store() {
        // The tentpole invariant: a query confined to one time block
        // answers bitwise what a standalone store built over that
        // column slice (same per-block budget) answers — in memory and
        // through the v4 disk layout.
        for shards in layout_shards() {
            let x = wavy(120, 24);
            let pct = SpaceBudget::from_percent(15.0);
            let blocked = SequenceStore::builder()
                .shards(shards)
                .budget(pct)
                .time_blocks(3)
                .build(&x)
                .unwrap();
            assert_eq!(blocked.time_blocks(), 3);
            let (c0, c1) = (8usize, 16usize); // block 1 of 3 over 24 cols
            let slice = ColumnSlice::new(&x, c0, c1).unwrap();
            let standalone = SequenceStore::builder()
                .shards(shards)
                .budget(block_budget(pct, 120, c1 - c0))
                .time_blocks(1)
                .build(&slice)
                .unwrap();
            for i in (0..120).step_by(7) {
                for j in c0..c1 {
                    assert_eq!(
                        blocked.cell(i, j).unwrap().to_bits(),
                        standalone.cell(i, j - c0).unwrap().to_bits(),
                        "({i},{j})"
                    );
                }
            }
            // Same through disk: v4 store vs v3 slice store.
            let tmp = TestDir::new("ats-tblock");
            let (d4, d3) = (tmp.file("v4"), tmp.file("v3"));
            blocked.save(&d4).unwrap();
            standalone.save(&d3).unwrap();
            let o4 = SequenceStore::open(&d4, 64).unwrap();
            let o3 = SequenceStore::open(&d3, 64).unwrap();
            assert_eq!(o4.time_blocks(), 3);
            assert_eq!(o3.time_blocks(), 1);
            for i in (0..120).step_by(13) {
                for j in c0..c1 {
                    assert_eq!(
                        o4.cell(i, j).unwrap().to_bits(),
                        o3.cell(i, j - c0).unwrap().to_bits(),
                        "({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn v4_roundtrip_serves_bitwise_and_full_rows() {
        for shards in layout_shards() {
            let x = wavy(90, 21);
            let built = SequenceStore::builder()
                .shards(shards)
                .budget(SpaceBudget::from_percent(20.0))
                .time_blocks(4)
                .threads(2)
                .build(&x)
                .unwrap();
            let tmp = TestDir::new("ats-tblock");
            let dir = tmp.file("store");
            built.save(&dir).unwrap();
            let opened = SequenceStore::open(&dir, 64).unwrap();
            assert_eq!(opened.method(), Method::Svdd);
            assert_eq!((opened.rows(), opened.cols()), (90, 21));
            assert_eq!(opened.time_blocks(), 4);
            assert_eq!(opened.storage_bytes(), built.storage_bytes());
            for i in (0..90).step_by(7) {
                for j in 0..21 {
                    assert_eq!(
                        opened.cell(i, j).unwrap().to_bits(),
                        built.cell(i, j).unwrap().to_bits()
                    );
                }
            }
            // Full-row reconstruction stitches across every block and
            // agrees with the per-cell path exactly.
            let seq = opened.sequence(47).unwrap();
            for (j, &got) in seq.iter().enumerate() {
                assert_eq!(got.to_bits(), opened.cell(47, j).unwrap().to_bits());
            }
        }
    }

    #[test]
    fn queries_in_one_block_leave_other_blocks_cold() {
        for shards in layout_shards() {
            let x = wavy(96, 30);
            let built = SequenceStore::builder()
                .shards(shards)
                .budget(SpaceBudget::from_percent(20.0))
                .time_blocks(3)
                .build(&x)
                .unwrap();
            let tmp = TestDir::new("ats-tblock");
            let dir = tmp.file("store");
            built.save(&dir).unwrap();
            let store = TimeBlockedStore::open(&dir, 96).unwrap();
            assert_eq!(store.blocks().len(), 3);
            // Touch only columns 10..20 — block 1 of [0..10, 10..20, 20..30].
            for i in (0..96).step_by(9) {
                for j in 12..18 {
                    store.cell(i, j).unwrap();
                }
            }
            let per_block = store.block_io_snapshots();
            assert_eq!(per_block.len(), 3);
            assert!(per_block[1].physical_reads > 0);
            for (b, snap) in per_block.iter().enumerate() {
                if b != 1 {
                    assert_eq!(snap.physical_reads, 0, "block {b} must stay cold");
                    assert_eq!(snap.logical_reads, 0, "block {b} must stay cold");
                }
            }
        }
    }

    #[test]
    fn block_sses_sum_to_total_and_bound_any_slice() {
        // The stitching error argument: blocks partition the columns,
        // so (a) the recorded per-block SSEs sum to the whole store's
        // reconstruction SSE, and (b) the exact squared error of any
        // column slice is bounded by the sum of the SSEs of the blocks
        // it overlaps.
        for shards in layout_shards() {
            let x = wavy(80, 24);
            let built = SequenceStore::builder()
                .shards(shards)
                .budget(SpaceBudget::from_percent(15.0))
                .time_blocks(3)
                .build(&x)
                .unwrap();
            let tmp = TestDir::new("ats-tblock");
            let dir = tmp.file("store");
            built.save(&dir).unwrap();
            let store = TimeBlockedStore::open(&dir, 64).unwrap();
            let sses: Vec<f64> = store
                .manifest()
                .blocks
                .iter()
                .map(|b| b.sse.expect("v4 blocks record SSE"))
                .collect();
            assert!(sses.iter().all(|s| s.is_finite() && *s >= 0.0));
            let total = reconstruction_sse(&x, &store).unwrap();
            let sum: f64 = sses.iter().sum();
            assert!(
                (total - sum).abs() <= 1e-9 * sum.max(1.0),
                "total {total} vs per-block sum {sum}"
            );
            // A slice spanning the block 1/2 boundary (cols 12..20 of
            // [0..8, 8..16, 16..24]) errs at most the two blocks' SSEs.
            let slice = ColumnSlice::new(&x, 12, 20).unwrap();
            let mut buf = vec![0.0f64; 24];
            let mut slice_sse = 0.0f64;
            slice
                .for_each_row(&mut |i, row| {
                    store.row_into(i, &mut buf)?;
                    for (x, xh) in row.iter().zip(buf.get(12..20).into_iter().flatten()) {
                        let d = x - xh;
                        slice_sse += d * d;
                    }
                    Ok(())
                })
                .unwrap();
            let bound = sses[1] + sses[2];
            assert!(
                slice_sse <= bound * (1.0 + 1e-12) + 1e-12,
                "slice sse {slice_sse} exceeds stitching bound {bound}"
            );
        }
    }

    #[test]
    fn retrain_flags_compare_per_cell_error() {
        let entry = |start: usize, end: usize, sse: Option<f64>| TimeBlockEntry {
            start,
            end,
            sse,
            crc_manifest: 0,
        };
        // Equal widths, one block 4x worse than the others: flagged at
        // the default factor, the rest not.
        let blocks = vec![
            entry(0, 10, Some(1.0)),
            entry(10, 20, Some(8.0)),
            entry(20, 30, Some(1.0)),
        ];
        assert_eq!(
            retrain_flags(&blocks, 50, RETRAIN_SSE_FACTOR),
            vec![false, true, false]
        );
        // A wide block with proportionally larger SSE is *not* worse per
        // cell and must not be flagged.
        let blocks = vec![entry(0, 10, Some(1.0)), entry(10, 40, Some(3.0))];
        assert_eq!(retrain_flags(&blocks, 50, 2.0), vec![false, false]);
        // Legacy stores without SSEs never flag; nor do all-zero SSEs.
        assert_eq!(retrain_flags(&[entry(0, 10, None)], 50, 2.0), vec![false]);
        assert_eq!(
            retrain_flags(
                &[entry(0, 10, Some(0.0)), entry(10, 20, Some(0.0))],
                50,
                2.0
            ),
            vec![false, false]
        );
    }

    #[test]
    fn append_time_block_grows_the_time_axis() {
        for shards in layout_shards() {
            let x = wavy(100, 16);
            let built = SequenceStore::builder()
                .shards(shards)
                .budget(SpaceBudget::from_percent(20.0))
                .time_blocks(2)
                .build(&x)
                .unwrap();
            let tmp = TestDir::new("ats-tblock");
            let dir = tmp.file("store");
            built.save(&dir).unwrap();
            let before: Vec<u64> = (0..100)
                .step_by(11)
                .map(|i| built.cell(i, 5).unwrap().to_bits())
                .collect();

            // Nine new time points for every sequence: a fresh block with
            // its own decomposition.
            let batch =
                Matrix::from_fn(100, 9, |i, j| ((i % 4) + 1) as f64 * ((j % 3) as f64 + 0.5));
            let report =
                append_time_block(&dir, &batch, SpaceBudget::from_percent(20.0), 1).unwrap();
            assert_eq!(report.block_index, 2);
            assert_eq!(report.cols, 9);
            assert!(report.sse.is_finite() && report.sse >= 0.0);

            let store = TimeBlockedStore::open(&dir, 64).unwrap();
            assert_eq!(store.cols(), 25);
            assert_eq!(store.blocks().len(), 3);
            // The SSE survives the manifest round trip bit-exactly.
            assert_eq!(
                store.manifest().blocks[2].sse.map(f64::to_bits),
                Some(report.sse.to_bits())
            );
            // Old columns serve exactly as before the append.
            for (i, &bits) in (0..100).step_by(11).zip(&before) {
                assert_eq!(store.cell(i, 5).unwrap().to_bits(), bits);
            }
            // New columns answer from the new block's own decomposition.
            for i in (0..100).step_by(17) {
                let got = store.cell(i, 16 + 4).unwrap();
                let truth = batch[(i, 4)];
                assert!((got - truth).abs() < 1.0, "{got} vs {truth}");
            }
            // A second append stacks another block.
            let report2 =
                append_time_block(&dir, &batch, SpaceBudget::from_percent(20.0), 1).unwrap();
            assert_eq!(report2.block_index, 3);
            assert_eq!(TimeBlockedStore::open(&dir, 64).unwrap().cols(), 34);
        }
    }

    #[test]
    fn append_time_block_refuses_legacy_and_bad_shapes() {
        for shards in layout_shards() {
            let x = wavy(60, 12);
            let built = SequenceStore::builder()
                .shards(shards)
                .budget(SpaceBudget::from_percent(20.0))
                .time_blocks(1)
                .build(&x)
                .unwrap();
            let tmp = TestDir::new("ats-tblock");
            let dir = tmp.file("v3only");
            built.save(&dir).unwrap();
            let batch = Matrix::from_fn(60, 4, |i, j| (i + j) as f64);
            let err =
                append_time_block(&dir, &batch, SpaceBudget::from_percent(20.0), 1).unwrap_err();
            assert!(matches!(err, AtsError::InvalidArgument(_)), "{err}");
            assert!(err.to_string().contains("--time-blocks"), "{err}");

            // Re-save time-blocked, then bad shapes are refused cleanly.
            let dir4 = tmp.file("v4");
            SequenceStore::builder()
                .shards(shards)
                .budget(SpaceBudget::from_percent(20.0))
                .time_blocks(2)
                .build(&x)
                .unwrap()
                .save(&dir4)
                .unwrap();
            let wrong_rows = Matrix::from_fn(61, 4, |i, j| (i + j) as f64);
            assert!(
                append_time_block(&dir4, &wrong_rows, SpaceBudget::from_percent(20.0), 1).is_err()
            );
            let empty = Matrix::zeros(60, 0);
            assert!(append_time_block(&dir4, &empty, SpaceBudget::from_percent(20.0), 1).is_err());
            // And the store is unchanged by the refused appends.
            assert_eq!(TimeBlockedStore::open(&dir4, 16).unwrap().cols(), 12);
        }
    }

    #[test]
    fn interrupted_time_append_leaves_store_intact() {
        for shards in layout_shards() {
            let x = wavy(64, 10);
            let built = SequenceStore::builder()
                .shards(shards)
                .budget(SpaceBudget::from_percent(25.0))
                .time_blocks(2)
                .build(&x)
                .unwrap();
            let tmp = TestDir::new("ats-tblock");
            let dir = tmp.file("crash");
            built.save(&dir).unwrap();
            let baseline = TimeBlockedStore::open(&dir, 16)
                .unwrap()
                .cell(30, 7)
                .unwrap();

            // Crash after the block dir landed but before the manifest was
            // replaced: an unreferenced orphan; the store serves old data
            // and a retried append succeeds over the orphan.
            let orphan = dir.join(tblock_dir_name(2));
            std::fs::create_dir(&orphan).unwrap();
            std::fs::write(orphan.join("manifest.txt"), b"half-written").unwrap();
            let store = TimeBlockedStore::open(&dir, 16).unwrap();
            assert_eq!(store.cols(), 10);
            assert_eq!(store.cell(30, 7).unwrap().to_bits(), baseline.to_bits());
            drop(store);
            let batch = Matrix::from_fn(64, 3, |i, j| (i * j) as f64 + 1.0);
            let report =
                append_time_block(&dir, &batch, SpaceBudget::from_percent(25.0), 1).unwrap();
            assert_eq!(report.block_index, 2);
            assert_eq!(TimeBlockedStore::open(&dir, 16).unwrap().cols(), 13);
        }
    }
}
