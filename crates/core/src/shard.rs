//! [`ShardedStore`]: the §4.1 serving architecture scaled out to
//! row-range shards (store format v3).
//!
//! The factors are global — every shard reconstructs against the same
//! `V`/`Λ`, pinned in memory from the first read on — while `U` rows and
//! delta triplets partition by row range into per-shard subdirectories:
//!
//! ```text
//! store/
//!   manifest.txt          # v3 manifest: shard row ranges + CRCs
//!   v.atsm  lambda.atsm   # shared factors
//!   shard-0000/ u.atsm deltas.bin
//!   shard-0001/ u.atsm deltas.bin
//! ```
//!
//! Opening reads the manifest and nothing else; every component file is
//! checked against the CRC the manifest pins the first time a query
//! reads it — *before* any value derived from it is served — and the
//! bytes that are checksummed are the bytes that get decoded:
//!
//! | component | first touched by | checked how |
//! |---|---|---|
//! | `v.atsm`, `lambda.atsm` | any cell/row read of the store | read whole → CRC → decode |
//! | `shard-NNNN/u.atsm` | a read of a row the shard owns | streamed through the CRC, then paged |
//! | `shard-NNNN/deltas.bin` | the same | read whole → CRC → decode |
//! | `shard-NNNN/synopsis.bin` | a `where` scan planning the shard | read whole → CRC → decode |
//!
//! A failed check is [`AtsError::Corrupt`] and is not cached: the next
//! touch checks again. A caller that wants everything checked *now* runs
//! [`ats_storage::store_dir::validate_sharded_store_dir`], which loops
//! the same per-component check over the whole directory. The
//! buffer-pool page budget is split evenly across shards. A v2
//! directory is exactly a one-shard v3 store (delta rows are stored
//! relative to the shard start, and a v2 store starts at row 0), so
//! legacy stores open here unchanged.
//!
//! The append path (`§1`: updates are rare and batched) lands new rows
//! in a fresh shard under the *frozen* global `V`: each new row is
//! projected onto the existing principal components and its exact
//! reconstruction SSE is recorded in the manifest (`append-sse`), so
//! the error introduced by not re-deriving the factors is tracked, not
//! hidden. The shard directory is staged, fsynced, and renamed in
//! before the manifest is atomically replaced — a crash leaves the old
//! store or an unreferenced orphan directory, never a torn store.

use crate::disk::{encode_deltas, read_deltas, DeltaTriplet};
use ats_common::codec::{u64_from_usize, usize_from_u64};
use ats_common::{AtsError, Result};
use ats_compress::delta::DELTA_BYTES;
use ats_compress::method::BYTES_PER_NUMBER;
use ats_compress::{project_frozen, CompressedMatrix, DeltaStore, GramCache, SvdCompressed};
use ats_linalg::kernels::{self, VPanel};
use ats_linalg::Matrix;
use ats_storage::file::{
    matrix_from_bytes, read_matrix, write_matrix, MatrixFile, MatrixFileWriter,
};
use ats_storage::store_dir::{
    file_crc, publish_manifest, shard_dir_name, validate_sharded_store_dir, Component,
    SHARDED_STORE_VERSION,
};
use ats_storage::synopsis::{ShardSynopsis, SynopsisBuilder, TileStat, SYNOPSIS_FILE};
use ats_storage::{
    CachedFile, IoSnapshot, IoStats, RowSource, ShardEntry, ShardedManifest, StoreWriter,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Write one decomposition's component files (shared factors plus
/// per-shard `U` slices, delta partitions, and synopses) into `dir` in
/// the v3 layout, returning its manifest with CRCs unfilled (the commit
/// path computes them from the staged files). `ranges` lists the row
/// range of each shard, contiguous and ascending, covering exactly
/// `0..rows` — the same ranges the sharded build passes ran over (see
/// [`ats_compress::shard_ranges`]).
///
/// Pass 3 of the build, made literal: one `U` file per shard (the rows
/// of the already-computed global `U` sliced by range) and one delta
/// partition per shard, with delta rows stored relative to the shard
/// start and sorted by `(row, col)` so the byte image is deterministic.
pub(crate) fn write_sharded_components(
    dir: &Path,
    svd: &SvdCompressed,
    deltas: Option<&DeltaStore>,
    method: &str,
    ranges: &[(usize, usize)],
) -> Result<ShardedManifest> {
    let rows = svd.rows();
    let cols = svd.cols();
    check_ranges(ranges, rows)?;

    // Partition the delta triplets by owning shard, rebased to
    // shard-local rows. `DeltaStore::iter` walks in `(row, col)` order,
    // so each bucket fills in the order its file is written in.
    let mut buckets: Vec<Vec<DeltaTriplet>> = vec![Vec::new(); ranges.len()];
    if let Some(d) = deltas {
        for (r, c, v) in d.iter() {
            let idx = ranges
                .iter()
                .position(|&(s, e)| r >= s && r < e)
                .ok_or_else(|| AtsError::oob("delta row", r, rows))?;
            if let (Some(bucket), Some(&(start, _))) = (buckets.get_mut(idx), ranges.get(idx)) {
                bucket.push((u64_from_usize(r - start), u64_from_usize(c), v));
            }
        }
    }
    write_matrix(dir.join("v.atsm"), svd.v())?;
    let lambda_m = Matrix::from_vec(1, svd.lambda().len(), svd.lambda().to_vec())?;
    write_matrix(dir.join("lambda.atsm"), &lambda_m)?;

    let vt = VPanel::from_v(svd.v());
    let mut shards = Vec::with_capacity(ranges.len());
    for (idx, (&(start, end), bucket)) in ranges.iter().zip(&buckets).enumerate() {
        let sdir = dir.join(shard_dir_name(idx));
        std::fs::create_dir(&sdir)?;
        emit_shard(&sdir, svd.u(), start..end, svd.lambda(), &vt, bucket)?;
        shards.push(ShardEntry {
            start,
            end,
            deltas: bucket.len(),
            crc_u: 0,
            crc_deltas: 0,
            crc_synopsis: None, // pinned from the staged file at commit
            append_sse: None,
        });
    }
    Ok(ShardedManifest {
        method: method.to_string(),
        rows,
        cols,
        k: svd.k(),
        deltas: deltas.map_or(0, DeltaStore::len),
        bloom: deltas.is_some_and(DeltaStore::has_bloom),
        crc_v: 0,
        crc_lambda: 0,
        shards,
        source_version: SHARDED_STORE_VERSION,
    })
}

/// Emit one shard's three files into `sdir`: rows `rows` of `u` as
/// `u.atsm`, `deltas` (shard-local rows, sorted by `(row, col)`) as
/// `deltas.bin`, and the zone-map synopsis of the rows *as served*.
///
/// The emit is already walking every row of `U`, so each is
/// reconstructed through the same panel kernel the serving path uses
/// and the shard's deltas are patched in: the synopsis bounds the
/// served values exactly — no widening slack for deltas is needed.
fn emit_shard(
    sdir: &Path,
    u: &Matrix,
    rows: std::ops::Range<usize>,
    lambda: &[f64],
    vt: &VPanel,
    deltas: &[DeltaTriplet],
) -> Result<()> {
    let cols = vt.cols();
    let mut w = MatrixFileWriter::create(sdir.join("u.atsm"), u.cols())?;
    for i in rows.clone() {
        w.append_row(u.row(i))?;
    }
    w.finish()?;
    std::fs::write(
        sdir.join("deltas.bin"),
        encode_deltas(u64_from_usize(cols), deltas),
    )?;
    let mut synopsis = SynopsisBuilder::new(rows.len(), cols)?;
    let mut served = vec![0.0f64; cols];
    let mut cursor = 0usize;
    for (local, i) in rows.enumerate() {
        kernels::reconstruct_row(u.row(i), lambda, vt, &mut served);
        let local_u = u64_from_usize(local);
        while let Some(&(r, c, dv)) = deltas.get(cursor) {
            if r != local_u {
                break;
            }
            let j = usize_from_u64(c, "delta column")?;
            if let Some(slot) = served.get_mut(j) {
                *slot += dv;
            }
            cursor += 1;
        }
        synopsis.push_row(&served)?;
    }
    std::fs::write(sdir.join(SYNOPSIS_FILE), synopsis.finish()?.encode())?;
    Ok(())
}

/// Reject shard ranges that are not contiguous, ascending, non-empty,
/// and covering exactly `0..rows`.
fn check_ranges(ranges: &[(usize, usize)], rows: usize) -> Result<()> {
    let mut next = 0usize;
    for &(start, end) in ranges {
        if start != next || end <= start {
            return Err(AtsError::InvalidArgument(format!(
                "shard range {start}..{end} breaks coverage at row {next}"
            )));
        }
        next = end;
    }
    if next != rows {
        return Err(AtsError::InvalidArgument(format!(
            "shard ranges cover 0..{next}, store has {rows} rows"
        )));
    }
    Ok(())
}

/// The first-touch rule of every lazily loaded component: the value in
/// `slot`, loading it when the slot is empty. A failed `load` is
/// returned and *not* cached — the next touch loads (and checks) again —
/// and when several threads race a first touch, one load is kept.
fn first_touch<T>(slot: &OnceLock<T>, load: impl FnOnce() -> Result<T>) -> Result<&T> {
    if let Some(loaded) = slot.get() {
        return Ok(loaded);
    }
    let loaded = load()?;
    Ok(slot.get_or_init(|| loaded))
}

/// A shard's disk-backed serving state, instantiated on first touch.
struct ShardState {
    /// The shard's `U` partition behind its own LRU buffer pool.
    u: CachedFile,
    /// The shard's delta table, keyed by *shard-local* rows.
    deltas: DeltaStore,
    /// Memory for loading the shard's synopsis, claimed with the rest of
    /// the shard's long-lived memory — capacity only: nothing is read
    /// and no page is touched until a `where` plan loads the synopsis.
    synopsis_buffers: Mutex<SynopsisBuffers>,
}

/// Where a shard's `synopsis.bin` is read to and decoded to.
///
/// Allocating these at load time instead — two 24 KB blocks per shard,
/// in the middle of whatever else the process allocates by then — is
/// measurable: in `atsbench`'s `where_*` set-up (a 23 MB transient
/// buffer is freed between first touch and first plan) they carved up
/// the freed region, glibc could not reuse it for the next such buffer,
/// and 15 of 62 runs peaked 22 MiB higher (0 of 140 with both buffers
/// claimed at first touch, 12 of 110 with only the tiles).
#[derive(Default)]
struct SynopsisBuffers {
    file: Vec<u8>,
    tiles: Vec<TileStat>,
}

impl SynopsisBuffers {
    /// Buffers for the synopsis of a `rows × cols` shard. Best effort:
    /// a reservation the allocator refuses is made by the load instead.
    fn reserve(rows: usize, cols: usize) -> Self {
        let mut buffers = SynopsisBuffers::default();
        let _ = (buffers.file).try_reserve_exact(ShardSynopsis::encoded_len(rows, cols));
        let _ = (buffers.tiles).try_reserve_exact(ShardSynopsis::tile_count(rows, cols));
        buffers
    }
}

/// One row-range shard: its manifest entry and what has been loaded of
/// it so far.
struct ShardHandle {
    entry: ShardEntry,
    state: OnceLock<ShardState>,
    /// The shard's zone-map synopsis, filled by the first `where` plan
    /// that asks for it. Stays empty for shards whose manifest entry
    /// pins none (legacy stores): queries over those take the exact scan.
    synopsis: OnceLock<ShardSynopsis>,
}

/// The shared factors, loaded by the first read of any cell.
struct Factors {
    v: Matrix,
    /// `Vᵀ` as a `k × M` component panel (derived from `v` at load),
    /// feeding the blocked reconstruction kernels on the row and batch
    /// paths. Not part of the on-disk format.
    vt: VPanel,
    lambda: Vec<f64>,
}

/// An opened sharded store: the manifest verified at open, everything
/// else — shared `V`/`Λ`, per-shard `U` pagers, delta tables and
/// synopses — checked against its pinned CRC and instantiated on first
/// touch.
///
/// Serving preserves the §4.1 invariant *per shard*: a cold cell query
/// touches exactly one page of the owning shard's `U` file — other
/// shards are not opened, let alone read.
pub struct ShardedStore {
    dir: PathBuf,
    manifest: ShardedManifest,
    factors: OnceLock<Factors>,
    shards: Vec<ShardHandle>,
    /// Buffer-pool page budget per shard (the open-time budget split
    /// evenly, minimum one page).
    pool_pages: usize,
    /// Component bytes this handle has checksummed so far.
    checked: AtomicU64,
}

impl ShardedStore {
    /// Open a sharded (v3) store directory — or a legacy v2 directory,
    /// which is served as a single shard with identical semantics.
    ///
    /// Only the manifest is read (self-checksum, schema, geometry); no
    /// component file is. Each component is verified against its
    /// recorded CRC when a query first reads it (see the module docs).
    /// `pool_pages` bounds the *total* `U` buffer-pool budget; each of
    /// `R` shards gets `max(pool_pages / R, 1)` pages.
    pub fn open(dir: impl AsRef<Path>, pool_pages: usize) -> Result<Self> {
        let dir = dir.as_ref();
        Self::from_manifest(dir, ShardedManifest::read(dir)?, pool_pages)
    }

    /// Serve `dir` under its parsed manifest (the store directory's own,
    /// or one block's nested manifest of a time-blocked store, whose CRC
    /// the block table pins).
    pub(crate) fn from_manifest(
        dir: &Path,
        manifest: ShardedManifest,
        pool_pages: usize,
    ) -> Result<Self> {
        if manifest.method != "svd" && manifest.method != "svdd" {
            return Err(AtsError::Corrupt(format!(
                "manifest method {:?} is not a disk-servable store (svd|svdd)",
                manifest.method
            )));
        }
        let shards: Vec<ShardHandle> = manifest
            .shards
            .iter()
            .map(|entry| ShardHandle {
                entry: entry.clone(),
                state: OnceLock::new(),
                synopsis: OnceLock::new(),
            })
            .collect();
        let pool_pages = (pool_pages / shards.len().max(1)).max(1);
        Ok(ShardedStore {
            dir: dir.to_path_buf(),
            manifest,
            factors: OnceLock::new(),
            shards,
            pool_pages,
            checked: AtomicU64::new(0),
        })
    }

    /// Read component `c` whole, checked against its pinned CRC.
    fn read_checked(&self, c: Component) -> Result<Vec<u8>> {
        let bytes = self.manifest.read_component(&self.dir, c)?;
        self.checked
            .fetch_add(u64_from_usize(bytes.len()), Ordering::Relaxed);
        Ok(bytes)
    }

    /// The shared factors, loaded on first touch: `v.atsm` and
    /// `lambda.atsm` read once each, checksummed, decoded from the
    /// checked bytes and cross-checked against the manifest's
    /// dimensions.
    fn factors(&self) -> Result<&Factors> {
        first_touch(&self.factors, || self.load_factors())
    }

    fn load_factors(&self) -> Result<Factors> {
        let manifest = &self.manifest;
        let v = matrix_from_bytes(&self.read_checked(Component::V)?)?;
        let lambda_m = matrix_from_bytes(&self.read_checked(Component::Lambda)?)?;
        if lambda_m.rows() != 1 {
            return Err(AtsError::Corrupt(format!(
                "lambda.atsm must be a single row, has {}",
                lambda_m.rows()
            )));
        }
        let lambda = lambda_m.row(0).to_vec();
        let k = lambda.len();
        if v.cols() != k {
            return Err(AtsError::Corrupt(format!(
                "inconsistent store: V has {} columns, Λ has {k}",
                v.cols()
            )));
        }
        if manifest.cols != v.rows() || manifest.k != k {
            return Err(AtsError::Corrupt(format!(
                "manifest says {}x{} k={}, factors hold cols={} k={k}",
                manifest.rows,
                manifest.cols,
                manifest.k,
                v.rows()
            )));
        }
        let vt = VPanel::from_v(&v);
        Ok(Factors { v, vt, lambda })
    }

    /// Number of retained principal components.
    pub fn k(&self) -> usize {
        self.manifest.k
    }

    /// Total number of stored deltas across all shards.
    pub fn num_deltas(&self) -> usize {
        self.manifest.deltas
    }

    /// Whether the delta tables carry the §4.2 Bloom filter.
    pub fn has_bloom(&self) -> bool {
        self.manifest.bloom
    }

    /// Number of row-range shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The manifest this store was opened from.
    pub fn manifest(&self) -> &ShardedManifest {
        &self.manifest
    }

    /// Per-shard I/O counters of the `U` page caches, in shard order.
    /// Shards never touched report all-zero counters — lazily-opened
    /// shards that stayed cold did no I/O, and the snapshot proves it.
    pub fn shard_io_snapshots(&self) -> Vec<IoSnapshot> {
        self.shards
            .iter()
            .map(|h| {
                h.state
                    .get()
                    .map_or_else(IoSnapshot::default, |s| s.u.stats().snapshot())
            })
            .collect()
    }

    /// All shards' I/O counters rolled into one snapshot.
    pub fn io_snapshot(&self) -> IoSnapshot {
        let mut total = IoSnapshot::default();
        for s in self.shard_io_snapshots() {
            total.merge(&s);
        }
        total
    }

    /// Positioned-read system calls all shards' `U` readers have issued:
    /// the figure a run read lowers while the page counts of
    /// [`ShardedStore::io_snapshot`] stay put.
    pub fn read_calls(&self) -> u64 {
        self.shards
            .iter()
            .filter_map(|h| h.state.get())
            .map(|s| s.u.stats().read_calls())
            .sum()
    }

    /// Component bytes this handle has checksummed so far: 0 after
    /// `open`, then the sizes of exactly the files its queries made it
    /// read — the cost model of lazy validation, as a counter.
    pub fn checked_bytes(&self) -> u64 {
        self.checked.load(Ordering::Relaxed)
    }

    /// The shard's serving state, instantiating it on first touch.
    fn state(&self, index: usize) -> Result<&ShardState> {
        let h = self
            .shards
            .get(index)
            .ok_or_else(|| AtsError::oob("shard", index, self.shards.len()))?;
        first_touch(&h.state, || self.load_shard(h, index))
    }

    fn load_shard(&self, h: &ShardHandle, index: usize) -> Result<ShardState> {
        // `u.atsm` is paged, never held whole: stream it through the
        // checksum before a pager over it exists.
        let u_bytes = self
            .manifest
            .check_component(&self.dir, Component::U(index))?;
        self.checked.fetch_add(u_bytes, Ordering::Relaxed);
        let stats = IoStats::new();
        let u_file = Arc::new(MatrixFile::open_with_stats(
            self.manifest.component_path(&self.dir, Component::U(index)),
            Arc::clone(&stats),
        )?);
        if u_file.rows() != h.entry.rows() || u_file.cols() != self.k() {
            return Err(AtsError::Corrupt(format!(
                "shard {index}: manifest says {} rows k={}, u.atsm holds {}x{}",
                h.entry.rows(),
                self.k(),
                u_file.rows(),
                u_file.cols()
            )));
        }
        // Delta rows are shard-local; the loader refuses one beyond the
        // shard (the file belongs to a different geometry) before it
        // indexes anything by row.
        let deltas = read_deltas(
            &self.read_checked(Component::Deltas(index))?,
            h.entry.rows(),
            self.manifest.cols,
            self.manifest.bloom,
        )?;
        if deltas.len() != h.entry.deltas {
            return Err(AtsError::Corrupt(format!(
                "shard {index}: manifest says {} deltas, file holds {}",
                h.entry.deltas,
                deltas.len()
            )));
        }
        let synopsis_buffers = match h.entry.crc_synopsis {
            Some(_) => SynopsisBuffers::reserve(h.entry.rows(), self.manifest.cols),
            None => SynopsisBuffers::default(),
        };
        Ok(ShardState {
            u: CachedFile::row_aligned(u_file, self.pool_pages),
            deltas,
            synopsis_buffers: Mutex::new(synopsis_buffers),
        })
    }

    /// Shard `index`'s synopsis, loaded on first touch: `synopsis.bin`
    /// read once, checksummed, decoded from the checked bytes and its
    /// geometry cross-checked against the shard it claims to describe.
    fn load_synopsis(&self, h: &ShardHandle, index: usize) -> Result<ShardSynopsis> {
        // The buffers first touch claimed, if the shard has been touched
        // (and no earlier load took them).
        let SynopsisBuffers { file, tiles } = (h.state.get())
            .and_then(|st| {
                st.synopsis_buffers
                    .lock()
                    .ok()
                    .map(|mut b| std::mem::take(&mut *b))
            })
            .unwrap_or_default();
        let c = Component::Synopsis(index);
        let bytes = self.manifest.read_component_into(&self.dir, c, file)?;
        self.checked
            .fetch_add(u64_from_usize(bytes.len()), Ordering::Relaxed);
        let syn = ShardSynopsis::decode_into(&bytes, tiles)?;
        if syn.rows() != h.entry.rows() || syn.cols() != self.manifest.cols {
            return Err(AtsError::Corrupt(format!(
                "shard {index}: synopsis covers {}x{}, shard holds {} rows of {} columns",
                syn.rows(),
                syn.cols(),
                h.entry.rows(),
                self.manifest.cols
            )));
        }
        Ok(syn)
    }

    /// Locate the shard owning absolute row `i` and its local row index.
    fn route(&self, i: usize) -> Result<(usize, usize)> {
        let idx = self
            .manifest
            .shard_of_row(i)
            .ok_or_else(|| AtsError::oob("row", i, self.manifest.rows))?;
        let start = self
            .shards
            .get(idx)
            .map(|h| h.entry.start)
            .unwrap_or_default();
        Ok((idx, i - start))
    }
}

impl AsRef<dyn CompressedMatrix> for ShardedStore {
    fn as_ref(&self) -> &(dyn CompressedMatrix + 'static) {
        self
    }
}

impl CompressedMatrix for ShardedStore {
    fn rows(&self) -> usize {
        self.manifest.rows
    }

    fn cols(&self) -> usize {
        self.manifest.cols
    }

    fn cell(&self, i: usize, j: usize) -> Result<f64> {
        if j >= self.manifest.cols {
            return Err(AtsError::oob("column", j, self.manifest.cols));
        }
        let (idx, local) = self.route(i)?;
        let f = self.factors()?;
        let st = self.state(idx)?;
        let mut u_row = vec![0.0f64; self.k()];
        st.u.read_row_into(local, &mut u_row)?; // ≤ 1 disk access, owning shard only
        let base: f64 = f
            .lambda
            .iter()
            .zip(&u_row)
            .zip(f.v.row(j))
            .map(|((&lam, &uv), &vv)| lam * uv * vv)
            .sum();
        Ok(match st.deltas.probe(local, j) {
            Some(d) => base + d,
            None => base,
        })
    }

    fn row_into(&self, i: usize, out: &mut [f64]) -> Result<()> {
        if out.len() != self.manifest.cols {
            return Err(AtsError::dims(
                "ShardedStore::row_into",
                (1, out.len()),
                (1, self.manifest.cols),
            ));
        }
        let (idx, local) = self.route(i)?;
        let f = self.factors()?;
        let st = self.state(idx)?;
        let mut u_row = vec![0.0f64; self.k()];
        st.u.read_row_into(local, &mut u_row)?;
        // Panel kernel: k sequential axpy sweeps over Vᵀ component slices,
        // bitwise identical to the scalar per-column dot it replaced.
        kernels::reconstruct_row(&u_row, &f.lambda, &f.vt, out);
        st.deltas.patch_row(local, out);
        Ok(())
    }

    /// Many cells of one row for one `U`-row fetch: the whole group routes
    /// to the owning shard once, reads that shard's `U` row through the
    /// pool once (one logical read; one cold page on the row-aligned
    /// layout), reconstructs every requested column with the fused
    /// multi-cell kernel, and looks the row's deltas up once for all of
    /// them.
    fn cells_in_row(&self, i: usize, cols: &[usize], out: &mut [f64]) -> Result<()> {
        if out.len() != cols.len() {
            return Err(AtsError::dims(
                "ShardedStore::cells_in_row",
                (1, out.len()),
                (1, cols.len()),
            ));
        }
        let m = self.manifest.cols;
        for &j in cols {
            if j >= m {
                return Err(AtsError::oob("column", j, m));
            }
        }
        let (idx, local) = self.route(i)?;
        let f = self.factors()?;
        let st = self.state(idx)?;
        let k = self.k();
        let mut u_row = vec![0.0f64; k];
        st.u.read_row_into(local, &mut u_row)?; // the one fetch for the whole group
        let mut coef = vec![0.0f64; k];
        kernels::fuse_coefficients(&f.lambda, &u_row, &mut coef);
        kernels::reconstruct_cells(&coef, &f.v, cols, out)?;
        st.deltas.patch_cells(local, cols, out);
        Ok(())
    }

    /// Blocked multi-row reconstruction across shards: every row is routed
    /// (and thereby validated) before any I/O, then each block of
    /// [`kernels::BLOCK_ROWS`] rows fetches its `U` vectors from the
    /// owning shards — one logical read per row — reconstructs through
    /// the shared `Vᵀ` panel, and patches each row's delta run in.
    ///
    /// **The run-read rule.** Inside a kernel block, a maximal run of
    /// two or more *consecutive rows of one shard* is fetched with one
    /// positioned read past the pool ([`CachedFile::read_run_into`]): a
    /// scan visits each `U` row once, so the LRU has nothing to offer it
    /// and should not be churned by it. A row with no such neighbour —
    /// any non-consecutive request — goes through the pool like a cell
    /// query. The rule reads only the request's own shape, and either
    /// way a row costs one logical and (cold) one physical page.
    fn rows_into(&self, rows: &[usize], out: &mut [f64]) -> Result<()> {
        let m = self.manifest.cols;
        if out.len() != rows.len() * m {
            return Err(AtsError::dims(
                "ShardedStore::rows_into",
                (rows.len(), m),
                (out.len() / m.max(1), m),
            ));
        }
        let mut routed = Vec::with_capacity(rows.len());
        for &i in rows {
            routed.push(self.route(i)?);
        }
        if m == 0 || rows.is_empty() {
            return Ok(());
        }
        let f = self.factors()?;
        let k = self.k();
        if k == 0 {
            out.fill(0.0);
        }
        let mut ublock = vec![0.0f64; kernels::BLOCK_ROWS * k];
        let mut raw = Vec::new();
        for (rchunk, ochunk) in routed
            .chunks(kernels::BLOCK_ROWS)
            .zip(out.chunks_mut(kernels::BLOCK_ROWS * m))
        {
            if k > 0 {
                let ub = ublock
                    .get_mut(..rchunk.len() * k)
                    .ok_or_else(|| AtsError::internal("rows_into U scratch undersized"))?;
                let mut at = 0usize;
                while let Some(&(idx, first)) = rchunk.get(at) {
                    let run = rchunk
                        .get(at..)
                        .unwrap_or_default()
                        .iter()
                        .zip(first..)
                        .take_while(|&(&(i, l), next)| i == idx && l == next)
                        .count();
                    let dst = ub
                        .get_mut(at * k..(at + run) * k)
                        .ok_or_else(|| AtsError::internal("rows_into U run out of range"))?;
                    let u = &self.state(idx)?.u;
                    if run > 1 {
                        u.read_run_into(first, dst, &mut raw)?;
                    } else {
                        u.read_row_into(first, dst)?;
                    }
                    at += run;
                }
                kernels::reconstruct_rows(ub, &f.lambda, &f.vt, ochunk)?;
            }
            for (&(idx, local), orow) in rchunk.iter().zip(ochunk.chunks_mut(m)) {
                self.state(idx)?.deltas.patch_row(local, orow);
            }
        }
        Ok(())
    }

    fn storage_bytes(&self) -> usize {
        (self.manifest.rows * self.k() + self.k() + self.manifest.cols * self.k())
            * BYTES_PER_NUMBER
            + self.manifest.deltas * DELTA_BYTES
    }

    fn method_name(&self) -> &'static str {
        if self.manifest.method == "svd" {
            "disk-svd"
        } else {
            "disk-svdd"
        }
    }

    fn shard_starts(&self) -> Vec<usize> {
        self.shards.iter().map(|h| h.entry.start).collect()
    }

    /// Loaded on first touch and, like every component, not before its
    /// bytes matched the manifest's CRC — a damaged `synopsis.bin` is an
    /// error, never a silently unpruned scan.
    fn shard_synopsis(&self, shard: usize) -> Result<Option<&ShardSynopsis>> {
        let Some(h) = self.shards.get(shard) else {
            return Ok(None);
        };
        if h.entry.crc_synopsis.is_none() {
            return Ok(None);
        }
        first_touch(&h.synopsis, || self.load_synopsis(h, shard)).map(Some)
    }
}

/// What [`append_rows`] did: which shard the batch landed in, how many
/// rows it holds, and the exact reconstruction SSE of those rows under
/// the frozen global factors (also recorded in the manifest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppendReport {
    /// Index of the freshly-created shard.
    pub shard_index: usize,
    /// Rows appended.
    pub rows: usize,
    /// Sum of squared reconstruction errors of the appended rows under
    /// the frozen `V`/`Λ` (they carry no deltas).
    pub sse: f64,
}

/// Append a batch of new sequences to an existing sharded (v3) store
/// on disk, without rebuilding: the rows are projected onto the frozen
/// global `V`/`Λ` (`U_new = X_new · V · Λ⁻¹`, the §3.3 reconstruction
/// identity run forward) and land in a fresh shard whose manifest entry
/// records the batch's exact reconstruction SSE.
///
/// Crash-safe: the shard directory is staged hidden, fsynced, and
/// renamed in *before* the manifest is atomically replaced — until the
/// new manifest is in place the store opens exactly as before, and an
/// interrupted append leaves at worst an unreferenced orphan directory.
///
/// Legacy v2 directories are refused ([`AtsError::InvalidArgument`]):
/// re-save the store in the sharded layout first. Pass a [`GramCache`]
/// to keep the §1 single-pass rebuild path warm — the batch is folded
/// into the cache after the store is durable.
pub fn append_rows<S: RowSource + ?Sized>(
    dir: impl AsRef<Path>,
    batch: &S,
    threads: usize,
    cache: Option<&mut GramCache>,
) -> Result<AppendReport> {
    let dir = dir.as_ref();
    let manifest = validate_sharded_store_dir(dir)?;
    if manifest.source_version != SHARDED_STORE_VERSION {
        return Err(AtsError::InvalidArgument(
            "cannot append to a legacy (v2) store directory: open and re-save it \
             in the sharded (v3) layout first"
                .into(),
        ));
    }
    if batch.cols() != manifest.cols {
        return Err(AtsError::dims(
            "append_rows",
            (batch.rows(), batch.cols()),
            (batch.rows(), manifest.cols),
        ));
    }
    let v = read_matrix(dir.join("v.atsm"))?;
    let lambda_m = read_matrix(dir.join("lambda.atsm"))?;
    if lambda_m.rows() != 1 || lambda_m.cols() != manifest.k || v.cols() != manifest.k {
        return Err(AtsError::Corrupt(format!(
            "factors disagree with manifest: V is {}x{}, Λ is {}x{}, manifest k={}",
            v.rows(),
            v.cols(),
            lambda_m.rows(),
            lambda_m.cols(),
            manifest.k
        )));
    }
    let lambda = lambda_m.row(0).to_vec();
    let (u_new, sse) = project_frozen(batch, &v, &lambda)?;

    let index = manifest.shards.len();
    let start = manifest.rows;
    let end = start
        .checked_add(batch.rows())
        .ok_or_else(|| AtsError::InvalidArgument("appended row count overflows".into()))?;

    // Stage the new shard hidden, make it durable, then rename it in
    // (over any orphan a crashed append left at that index — the
    // manifest does not reference it, so it is dead weight, not data).
    // Appended rows serve as reconstructions under the frozen factors
    // with no deltas, so the emitted synopsis bounds exactly what
    // queries will see.
    let target = dir.join(shard_dir_name(index));
    let writer = StoreWriter::begin(&target)?;
    emit_shard(
        writer.path(),
        &u_new,
        0..u_new.rows(),
        &lambda,
        &VPanel::from_v(&v),
        &[],
    )?;
    writer.commit_dir()?;

    // Publish: extend the manifest and replace it atomically.
    let mut next = manifest;
    next.rows = end;
    next.shards.push(ShardEntry {
        start,
        end,
        deltas: 0,
        crc_u: file_crc(target.join("u.atsm"))?,
        crc_deltas: file_crc(target.join("deltas.bin"))?,
        crc_synopsis: Some(file_crc(target.join(SYNOPSIS_FILE))?),
        append_sse: Some(sse),
    });
    publish_manifest(dir, &next.encode())?;

    if let Some(cache) = cache {
        cache.ingest(batch, threads)?;
    }
    Ok(AppendReport {
        shard_index: index,
        rows: batch.rows(),
        sse,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::disk::decode_deltas;
    use ats_common::TestDir;
    use ats_compress::{shard_ranges, SpaceBudget, SvddCompressed, SvddOptions};

    /// Stage and commit `svdd` as a v3 directory over `ranges`.
    fn save_sharded(dir: &Path, svdd: &SvddCompressed, ranges: &[(usize, usize)]) -> Result<()> {
        let w = StoreWriter::begin(dir)?;
        let m =
            write_sharded_components(w.path(), svdd.svd(), Some(svdd.deltas()), "svdd", ranges)?;
        w.commit_sharded(m)
    }

    /// A scratch copy of the golden v2 directory (real bytes from the
    /// retired v2 writer: phone 40 × 24, seed 7, 25 %), and the values
    /// it must serve: scalar Eq. 12 over the fixture's own `U`/`Λ`/`V`
    /// in ascending component order, plus its own deltas.
    pub(crate) fn v2_fixture(tmp: &TestDir) -> (PathBuf, Matrix) {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../storage/tests/fixtures/v2-store");
        let dir = tmp.copy_of(src, "v2");
        let (u, v) = (
            read_matrix(dir.join("u.atsm")).unwrap(),
            read_matrix(dir.join("v.atsm")).unwrap(),
        );
        let lambda = read_matrix(dir.join("lambda.atsm")).unwrap();
        let mut truth = Matrix::from_fn(u.rows(), v.rows(), |i, j| {
            (0..lambda.cols())
                .map(|t| lambda[(0, t)] * u[(i, t)] * v[(j, t)])
                .sum()
        });
        let (_, deltas) = decode_deltas(&std::fs::read(dir.join("deltas.bin")).unwrap()).unwrap();
        for (r, c, d) in deltas {
            truth[(r as usize, c as usize)] += d;
        }
        (dir, truth)
    }

    /// The interior-mutability audit behind the `ats serve` daemon, as a
    /// compile-time fact: the opened store (lazy `OnceLock` shard states,
    /// mutex-guarded page pools, atomic I/O counters) is `Send + Sync`,
    /// so one `Arc<ShardedStore>` may back every connection thread.
    #[test]
    fn sharded_store_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedStore>();
        assert_send_sync::<std::sync::Arc<ShardedStore>>();
    }

    fn spiky(n: usize, m: usize) -> Matrix {
        let mut x = Matrix::from_fn(n, m, |i, j| {
            ((i % 4) + 1) as f64 * if j % 7 < 5 { 3.0 } else { 0.5 }
        });
        x[(3, 2)] += 500.0;
        x[(n - 1, m - 1)] += 300.0;
        x
    }

    fn svdd_sharded(x: &Matrix, pct: f64, r: usize) -> SvddCompressed {
        let ranges = shard_ranges(x.rows(), r);
        SvddCompressed::compress_sharded(
            x,
            &SvddOptions::new(SpaceBudget::from_percent(pct)),
            &ranges,
        )
        .unwrap()
    }

    #[test]
    fn sharded_roundtrip_bit_identical() {
        let x = spiky(203, 17);
        let svdd = svdd_sharded(&x, 15.0, 3);
        let ranges = shard_ranges(203, 3);
        let tmp = TestDir::new("ats-shard");
        let dir = tmp.file("rt");
        save_sharded(&dir, &svdd, &ranges).unwrap();
        let store = ShardedStore::open(&dir, 64).unwrap();
        assert_eq!(store.shard_count(), 3);
        assert_eq!(store.rows(), 203);
        assert_eq!(store.cols(), 17);
        assert_eq!(store.k(), svdd.k_opt());
        assert_eq!(store.num_deltas(), svdd.num_deltas());
        assert_eq!(store.storage_bytes(), svdd.storage_bytes());
        assert_eq!(
            store.shard_starts(),
            ranges.iter().map(|r| r.0).collect::<Vec<_>>()
        );
        for i in (0..203).step_by(7) {
            for j in 0..17 {
                assert_eq!(
                    store.cell(i, j).unwrap(),
                    svdd.cell(i, j).unwrap(),
                    "({i},{j}) must reconstruct exactly"
                );
            }
        }
        let mut row = vec![0.0; 17];
        store.row_into(100, &mut row).unwrap();
        for (j, &got) in row.iter().enumerate() {
            assert_eq!(got, store.cell(100, j).unwrap());
        }
    }

    #[test]
    fn v2_store_opens_as_single_shard() {
        let tmp = TestDir::new("ats-shard");
        let (dir, truth) = v2_fixture(&tmp);
        let store = ShardedStore::open(&dir, 32).unwrap();
        assert_eq!(store.shard_count(), 1);
        assert_eq!(store.shard_starts(), vec![0]);
        assert_eq!(store.manifest().source_version, 2);
        assert_eq!((store.rows(), store.cols(), store.k()), (40, 24, 2));
        assert_eq!(store.num_deltas(), 55);
        assert_eq!(store.method_name(), "disk-svdd");
        let mut row = vec![0.0; 24];
        for i in 0..40 {
            store.row_into(i, &mut row).unwrap();
            for j in 0..24 {
                assert_eq!(
                    store.cell(i, j).unwrap().to_bits(),
                    truth[(i, j)].to_bits(),
                    "({i},{j})"
                );
                assert_eq!(row[j].to_bits(), truth[(i, j)].to_bits(), "row ({i},{j})");
            }
        }
        // One page of the one top-level U file per cold row.
        assert_eq!(store.io_snapshot().physical_reads, 40);
    }

    #[test]
    fn per_shard_one_disk_access_and_cold_shards_untouched() {
        let x = spiky(256, 13);
        let svdd = svdd_sharded(&x, 15.0, 4);
        let ranges = shard_ranges(256, 4);
        let tmp = TestDir::new("ats-shard");
        let dir = tmp.file("1io");
        save_sharded(&dir, &svdd, &ranges).unwrap();
        let store = ShardedStore::open(&dir, 256).unwrap();
        // Query 10 distinct rows of shard 1 only, all cold.
        let (s1_start, s1_end) = ranges[1];
        for i in s1_start..(s1_start + 10).min(s1_end) {
            store.cell(i, 3).unwrap();
        }
        let per_shard = store.shard_io_snapshots();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(per_shard[1].physical_reads, 10, "one access per cold row");
        for (idx, snap) in per_shard.iter().enumerate() {
            if idx != 1 {
                assert_eq!(snap.physical_reads, 0, "shard {idx} must stay cold");
                assert_eq!(snap.logical_reads, 0);
            }
        }
        // Re-read the same rows: hits, no new physical I/O anywhere.
        for i in s1_start..(s1_start + 10).min(s1_end) {
            store.cell(i, 5).unwrap();
        }
        let rolled = store.io_snapshot();
        assert_eq!(rolled.physical_reads, 10);
        assert_eq!(rolled.cache_hits, 10);
    }

    /// The emitted synopses describe the *served* values exactly: every
    /// cell the store reconstructs (deltas included) falls inside its
    /// tile's bounds, and per-tile sum/count match a naive recount.
    #[test]
    fn synopses_bound_served_values_exactly() {
        let x = spiky(96, 21); // spikes land as deltas under svdd
        let svdd = svdd_sharded(&x, 15.0, 3);
        let ranges = shard_ranges(96, 3);
        let tmp = TestDir::new("ats-shard");
        let dir = tmp.file("syn");
        save_sharded(&dir, &svdd, &ranges).unwrap();
        let store = ShardedStore::open(&dir, 64).unwrap();
        for (s, &(start, end)) in ranges.iter().enumerate() {
            let syn = store
                .shard_synopsis(s)
                .unwrap()
                .expect("fresh store has synopses");
            assert_eq!((syn.rows(), syn.cols()), (end - start, 21));
            let mut row = vec![0.0; 21];
            let mut sums = vec![0.0f64; syn.tile_rows() * syn.tile_cols()];
            let mut counts = vec![0u64; sums.len()];
            for local in 0..(end - start) {
                store.row_into(start + local, &mut row).unwrap();
                for (j, &v) in row.iter().enumerate() {
                    let (tr, tc) = (local / 8, j / 16);
                    let t = syn.tile(tr, tc).unwrap();
                    assert!(
                        t.min <= v && v <= t.max,
                        "cell {v} outside [{}, {}]",
                        t.min,
                        t.max
                    );
                    sums[tr * syn.tile_cols() + tc] += v;
                    counts[tr * syn.tile_cols() + tc] += 1;
                }
            }
            for (i, t) in syn.tiles().iter().enumerate() {
                assert_eq!(t.sum.to_bits(), sums[i].to_bits(), "tile {i} sum");
                assert_eq!(t.count, counts[i], "tile {i} count");
            }
        }
        // A v2 store opens with no synopses and serves unchanged.
        let (v2, _) = v2_fixture(&tmp);
        let legacy = ShardedStore::open(&v2, 16).unwrap();
        assert!(legacy.shard_synopsis(0).unwrap().is_none());
        assert!(legacy.shard_synopsis(7).unwrap().is_none());
    }

    #[test]
    fn append_emits_synopsis_for_the_fresh_shard() {
        let x = spiky(80, 12);
        let svdd = svdd_sharded(&x, 20.0, 2);
        let tmp = TestDir::new("ats-shard");
        let dir = tmp.file("append-syn");
        save_sharded(&dir, &svdd, &shard_ranges(80, 2)).unwrap();
        let batch = Matrix::from_fn(10, 12, |i, j| (i as f64) - (j as f64) * 0.25);
        append_rows(&dir, &batch, 1, None).unwrap();
        let store = ShardedStore::open(&dir, 32).unwrap();
        let syn = store
            .shard_synopsis(2)
            .unwrap()
            .expect("appended shard has a synopsis");
        assert_eq!((syn.rows(), syn.cols()), (10, 12));
        assert!(store.manifest().shards[2].crc_synopsis.is_some());
        let mut row = vec![0.0; 12];
        for local in 0..10 {
            store.row_into(80 + local, &mut row).unwrap();
            for (j, &v) in row.iter().enumerate() {
                let t = syn.tile(local / 8, j / 16).unwrap();
                assert!(t.min <= v && v <= t.max);
            }
        }
    }

    #[test]
    fn save_sharded_rejects_bad_ranges() {
        let x = spiky(96, 9);
        let svdd = svdd_sharded(&x, 20.0, 1);
        let tmp = TestDir::new("ats-shard");
        for ranges in [
            vec![(0usize, 40usize), (50, 96)], // gap
            vec![(0, 96), (96, 96)],           // empty shard
            vec![(0, 40)],                     // short coverage
        ] {
            let err = save_sharded(&tmp.file("bad"), &svdd, &ranges).unwrap_err();
            assert!(matches!(err, AtsError::InvalidArgument(_)), "{err}");
        }
    }

    #[test]
    fn append_lands_in_fresh_shard_with_tracked_sse() {
        let x = spiky(160, 14);
        let svdd = svdd_sharded(&x, 20.0, 2);
        let ranges = shard_ranges(160, 2);
        let tmp = TestDir::new("ats-shard");
        let dir = tmp.file("append");
        save_sharded(&dir, &svdd, &ranges).unwrap();

        let batch = Matrix::from_fn(24, 14, |i, j| ((i % 3) + 2) as f64 * ((j % 5) as f64 + 0.5));
        let mut cache = GramCache::from_source(&x, 1).unwrap();
        let report = append_rows(&dir, &batch, 1, Some(&mut cache)).unwrap();
        assert_eq!(report.shard_index, 2);
        assert_eq!(report.rows, 24);
        assert!(report.sse.is_finite() && report.sse > 0.0);
        assert_eq!(cache.rows_seen(), 160 + 24);

        let store = ShardedStore::open(&dir, 64).unwrap();
        assert_eq!(store.rows(), 184);
        assert_eq!(store.shard_count(), 3);
        let entry = &store.manifest().shards[2];
        assert_eq!((entry.start, entry.end, entry.deltas), (160, 184, 0));
        // The SSE survives the manifest round trip bit-exactly.
        assert_eq!(
            entry.append_sse.map(f64::to_bits),
            Some(report.sse.to_bits())
        );
        // Old rows serve exactly as before the append.
        for i in (0..160).step_by(17) {
            assert_eq!(store.cell(i, 6).unwrap(), svdd.cell(i, 6).unwrap());
        }
        // Appended rows reconstruct under the frozen factors.
        let (u_new, _) = project_frozen(&batch, svdd.svd().v(), svdd.svd().lambda()).unwrap();
        let mut expect = vec![0.0; 14];
        svdd.svd().reconstruct_row_from_u(u_new.row(5), &mut expect);
        let mut got = vec![0.0; 14];
        store.row_into(165, &mut got).unwrap();
        for (a, b) in got.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // A second append stacks another shard.
        let report2 = append_rows(&dir, &batch, 1, None).unwrap();
        assert_eq!(report2.shard_index, 3);
        assert_eq!(ShardedStore::open(&dir, 64).unwrap().rows(), 208);
    }

    #[test]
    fn append_refuses_v2_and_bad_shapes() {
        let tmp = TestDir::new("ats-shard");
        let (v2, _) = v2_fixture(&tmp);
        let batch = Matrix::from_fn(8, 24, |i, j| (i + j) as f64);
        let err = append_rows(&v2, &batch, 1, None).unwrap_err();
        assert!(matches!(err, AtsError::InvalidArgument(_)), "{err}");
        assert!(err.to_string().contains("v2"), "{err}");
        assert_eq!(ShardedStore::open(&v2, 16).unwrap().rows(), 40);

        // Against a v3 store a wrong-width batch is refused.
        let dir = tmp.file("v3");
        save_sharded(
            &dir,
            &svdd_sharded(&spiky(80, 10), 20.0, 2),
            &shard_ranges(80, 2),
        )
        .unwrap();
        let wrong = Matrix::from_fn(8, 9, |i, j| (i + j) as f64);
        assert!(append_rows(&dir, &wrong, 1, None).is_err());
        // And the store is unchanged by the refused append.
        assert_eq!(ShardedStore::open(&dir, 16).unwrap().rows(), 80);
    }

    #[test]
    fn interrupted_append_leaves_store_intact() {
        let x = spiky(100, 12);
        let svdd = svdd_sharded(&x, 20.0, 2);
        let ranges = shard_ranges(100, 2);
        let tmp = TestDir::new("ats-shard");
        let dir = tmp.file("crash");
        save_sharded(&dir, &svdd, &ranges).unwrap();
        let baseline = ShardedStore::open(&dir, 16).unwrap().cell(50, 4).unwrap();

        // Crash after the shard dir was renamed in but before the
        // manifest was replaced: an unreferenced orphan, store serves old
        // data, and a retried append succeeds over the orphan.
        let orphan = dir.join(shard_dir_name(2));
        std::fs::create_dir(&orphan).unwrap();
        std::fs::write(orphan.join("u.atsm"), b"half-written").unwrap();
        let store = ShardedStore::open(&dir, 16).unwrap();
        assert_eq!(store.rows(), 100);
        assert_eq!(store.cell(50, 4).unwrap(), baseline);
        let batch = Matrix::from_fn(8, 12, |i, j| (i * j) as f64 + 1.0);
        let report = append_rows(&dir, &batch, 1, None).unwrap();
        assert_eq!(report.shard_index, 2);
        assert_eq!(ShardedStore::open(&dir, 16).unwrap().rows(), 108);

        // Crash with a stale staged temp dir lying around: ignored and
        // cleaned by the next append at that index.
        let staged = dir.join(format!(".{}.tmp-999", shard_dir_name(3)));
        std::fs::create_dir(&staged).unwrap();
        std::fs::write(staged.join("u.atsm"), b"junk").unwrap();
        assert_eq!(ShardedStore::open(&dir, 16).unwrap().rows(), 108);
    }

    #[test]
    fn manifest_dimension_mismatch_detected_at_first_touch() {
        // A manifest that parses and whose CRCs all check out, but which
        // disagrees with a component file's own header, must not serve:
        // graft a 60-row U into a 40-row store and "bless" the graft
        // with a recomputed CRC.
        let tmp = TestDir::new("ats-shard");
        let (d1, d2) = (tmp.file("s1"), tmp.file("s2"));
        save_sharded(&d1, &svdd_sharded(&spiky(40, 7), 25.0, 1), &[(0, 40)]).unwrap();
        save_sharded(&d2, &svdd_sharded(&spiky(60, 7), 25.0, 1), &[(0, 60)]).unwrap();
        let u1 = d1.join(shard_dir_name(0)).join("u.atsm");
        std::fs::copy(d2.join(shard_dir_name(0)).join("u.atsm"), &u1).unwrap();
        // The stale CRC catches the graft the first time the shard is
        // touched — the open reads the manifest only — and again on the
        // next touch: a failed check is not cached…
        let store = ShardedStore::open(&d1, 4).unwrap();
        for _ in 0..2 {
            assert!(matches!(store.cell(0, 0), Err(AtsError::Corrupt(_))));
        }
        // …and with the CRC recomputed (rows still 40) the header
        // cross-check refuses the shard the first time it is touched.
        let mut manifest = ShardedManifest::read(&d1).unwrap();
        manifest.shards[0].crc_u = file_crc(&u1).unwrap();
        std::fs::write(d1.join("manifest.txt"), manifest.encode()).unwrap();
        let store = ShardedStore::open(&d1, 4).unwrap();
        match store.cell(0, 0) {
            Err(AtsError::Corrupt(_)) => {}
            other => panic!("dimension mismatch must not serve: {other:?}"),
        }
    }
}
