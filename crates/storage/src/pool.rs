//! LRU buffer pool and page-cached file reads.
//!
//! The query path of the paper assumes `V` and `Λ` are pinned in memory
//! while rows of `U` are fetched from disk on demand (§4.1,
//! "Reconstruction"). Real systems put a page cache between the two;
//! [`BufferPool`] is that cache — a fixed-capacity LRU over fixed-size
//! pages with hit/miss accounting — and [`CachedFile`] serves row reads
//! of a [`MatrixFile`] through it. The pool uses an index-linked LRU list
//! (no per-access allocation) guarded by a single `parking_lot` mutex;
//! page loads happen under the lock, which is the right trade-off for the
//! pool sizes exercised here and keeps the eviction logic obviously
//! correct.

use crate::file::MatrixFile;
use crate::iostats::IoStats;
use ats_common::codec::{u64_from_usize, usize_from_u64};
use ats_common::{AtsError, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

const NIL: usize = usize::MAX;

struct Frame {
    page_no: u64,
    data: Vec<u8>,
    prev: usize,
    next: usize,
}

struct PoolInner {
    frames: Vec<Frame>,
    map: HashMap<u64, usize>,
    /// Most-recently-used frame index, or NIL.
    head: usize,
    /// Least-recently-used frame index, or NIL.
    tail: usize,
    free: Vec<usize>,
}

impl PoolInner {
    // The LRU links use `NIL` (`usize::MAX`) as the null sentinel, so
    // `frames.get(NIL)` is naturally `None` and every link update below
    // is total — no indexing, no panics, even on a corrupted chain.
    fn detach(&mut self, idx: usize) {
        let Some(frame) = self.frames.get(idx) else {
            return;
        };
        let (prev, next) = (frame.prev, frame.next);
        match self.frames.get_mut(prev) {
            Some(p) => p.next = next,
            None => self.head = next,
        }
        match self.frames.get_mut(next) {
            Some(n) => n.prev = prev,
            None => self.tail = prev,
        }
        if let Some(frame) = self.frames.get_mut(idx) {
            frame.prev = NIL;
            frame.next = NIL;
        }
    }

    fn push_front(&mut self, idx: usize) {
        let head = self.head;
        if let Some(frame) = self.frames.get_mut(idx) {
            frame.prev = NIL;
            frame.next = head;
        }
        if let Some(old_head) = self.frames.get_mut(head) {
            old_head.prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// A fixed-capacity LRU cache of fixed-size pages keyed by page number.
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    capacity: usize,
    page_size: usize,
    stats: Arc<IoStats>,
}

impl BufferPool {
    /// Create a pool holding up to `capacity` pages of `page_size` bytes.
    pub fn new(capacity: usize, page_size: usize, stats: Arc<IoStats>) -> Self {
        BufferPool {
            inner: Mutex::new(PoolInner {
                frames: Vec::new(),
                map: HashMap::new(),
                head: NIL,
                tail: NIL,
                free: Vec::new(),
            }),
            capacity: capacity.max(1),
            page_size: page_size.max(1),
            stats,
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Maximum number of resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident pages.
    pub fn resident(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Fetch page `page_no`, loading it via `load` on a miss, and hand a
    /// borrow of its bytes to `consume`. `load` must fill the provided
    /// buffer (zero-padded beyond EOF by the caller's loader).
    pub fn with_page<R>(
        &self,
        page_no: u64,
        load: impl FnOnce(&mut [u8]) -> Result<()>,
        consume: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let mut inner = self.inner.lock();
        if let Some(&idx) = inner.map.get(&page_no) {
            self.stats.record_hit();
            inner.detach(idx);
            inner.push_front(idx);
            let frame = inner
                .frames
                .get(idx)
                .ok_or_else(|| AtsError::internal("pool map points at a missing frame"))?;
            return Ok(consume(&frame.data));
        }
        // Miss: find a frame (free, new, or evict LRU).
        let idx = if let Some(idx) = inner.free.pop() {
            idx
        } else if inner.frames.len() < self.capacity {
            inner.frames.push(Frame {
                page_no: u64::MAX,
                data: vec![0u8; self.page_size],
                prev: NIL,
                next: NIL,
            });
            inner.frames.len() - 1
        } else {
            let victim = inner.tail;
            debug_assert_ne!(victim, NIL, "capacity >= 1 guarantees a tail");
            inner.detach(victim);
            if let Some(old) = inner.frames.get(victim).map(|f| f.page_no) {
                inner.map.remove(&old);
            }
            victim
        };
        {
            let frame = inner
                .frames
                .get_mut(idx)
                .ok_or_else(|| AtsError::internal("pool allocated an out-of-range frame"))?;
            frame.page_no = page_no;
            frame.data.iter_mut().for_each(|b| *b = 0);
            load(&mut frame.data)?;
        }
        self.stats.record_physical(u64_from_usize(self.page_size));
        inner.map.insert(page_no, idx);
        inner.push_front(idx);
        let frame = inner
            .frames
            .get(idx)
            .ok_or_else(|| AtsError::internal("pool lost the frame it just filled"))?;
        Ok(consume(&frame.data))
    }
}

/// A [`MatrixFile`] whose row reads are served through a [`BufferPool`].
///
/// Pages are aligned regions of the *data area* (so page 0 starts at the
/// first cell, not at the file header); a row maps to
/// `ceil(row_bytes / page_size)` pages, and with `page_size ≥ row_bytes`
/// to at most 2 (or exactly 1 when rows pack evenly) — the experimental
/// backing for the paper's "single disk access" reconstruction claim.
pub struct CachedFile {
    file: Arc<MatrixFile>,
    pool: BufferPool,
    stats: Arc<IoStats>,
}

impl CachedFile {
    /// Wrap `file` with a pool of `capacity` pages of `page_size` bytes.
    pub fn new(file: Arc<MatrixFile>, capacity: usize, page_size: usize) -> Self {
        let stats = IoStats::new();
        CachedFile {
            pool: BufferPool::new(capacity, page_size, Arc::clone(&stats)),
            file,
            stats,
        }
    }

    /// Wrap with a page size equal to the row size, so each row occupies
    /// exactly one page — the paper's "an entire row fits in one disk
    /// block" assumption, made true by construction.
    pub fn row_aligned(file: Arc<MatrixFile>, capacity: usize) -> Self {
        let row_bytes = file.header().row_bytes().max(1);
        let stats = IoStats::new();
        CachedFile {
            pool: BufferPool::new(capacity, row_bytes, Arc::clone(&stats)),
            file,
            stats,
        }
    }

    /// The pool's I/O counters (hits, physical page loads).
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Number of rows in the underlying file.
    pub fn rows(&self) -> usize {
        self.file.rows()
    }

    /// Number of columns in the underlying file.
    pub fn cols(&self) -> usize {
        self.file.cols()
    }

    /// Whether pages are row-aligned (each row within a single page).
    fn row_aligned_layout(&self) -> bool {
        self.pool.page_size() >= self.file.header().row_bytes()
            && self
                .pool
                .page_size()
                .is_multiple_of(self.file.header().row_bytes().max(1))
    }

    /// Read row `i` through the page cache.
    pub fn read_row_into(&self, i: usize, out: &mut [f64]) -> Result<()> {
        let header = *self.file.header();
        if i >= header.rows {
            return Err(AtsError::oob("row", i, header.rows));
        }
        if out.len() != header.cols {
            return Err(AtsError::dims(
                "CachedFile::read_row_into",
                (1, out.len()),
                (1, header.cols),
            ));
        }
        self.stats.record_logical();
        let row_bytes = header.row_bytes();
        let page_size = self.pool.page_size();
        let page_size_u64 = u64_from_usize(page_size);
        // offset within the data area
        let start = u64_from_usize(i) * u64_from_usize(row_bytes);
        let data_len = header.file_len() - u64_from_usize(crate::format::HEADER_LEN);
        if self.row_aligned_layout() {
            // Fast path: the whole row sits inside one page, so decode
            // straight from the page slice — no scratch allocation.
            let page_no = start / page_size_u64;
            let in_page = usize_from_u64(start % page_size_u64, "in-page offset")?;
            let file = Arc::clone(&self.file);
            return self.pool.with_page(
                page_no,
                |buf| load_page(&file, page_no, page_size, data_len, buf),
                |buf| -> Result<()> {
                    let row = buf
                        .get(in_page..in_page + row_bytes)
                        .ok_or_else(|| AtsError::internal("aligned row span escapes its page"))?;
                    crate::file::decode_cells(row, header.is_f32(), out);
                    Ok(())
                },
            )?;
        }
        // Slow path: the row may straddle pages; assemble it through a
        // scratch buffer before decoding.
        let mut row_buf = vec![0u8; row_bytes];
        let mut copied = 0usize;
        while copied < row_bytes {
            let abs = start + u64_from_usize(copied);
            let page_no = abs / page_size_u64;
            let in_page = usize_from_u64(abs % page_size_u64, "in-page offset")?;
            let take = (page_size - in_page).min(row_bytes - copied);
            let file = Arc::clone(&self.file);
            let dst = row_buf
                .get_mut(copied..copied + take)
                .ok_or_else(|| AtsError::internal("row scratch slice out of range"))?;
            self.pool.with_page(
                page_no,
                |buf| load_page(&file, page_no, page_size, data_len, buf),
                |buf| -> Result<()> {
                    let src = buf
                        .get(in_page..in_page + take)
                        .ok_or_else(|| AtsError::internal("straddled row span escapes its page"))?;
                    dst.copy_from_slice(src);
                    Ok(())
                },
            )??;
            copied += take;
        }
        crate::file::decode_cells(&row_buf, header.is_f32(), out);
        Ok(())
    }

    /// Read row `i`, allocating.
    pub fn read_row(&self, i: usize) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.file.cols()];
        self.read_row_into(i, &mut out)?;
        Ok(out)
    }

    /// Read several rows through the page cache: row `rows[r]` lands in
    /// `out[r·cols .. (r+1)·cols]`.
    ///
    /// The batched-query read path: exactly one logical read (and, on a
    /// row-aligned layout, at most one physical page load) per entry of
    /// `rows`, whatever the order or duplication. All row indices are
    /// validated before anything is fetched, so a bad index never leaves
    /// partial output.
    pub fn read_rows_into(&self, rows: &[usize], out: &mut [f64]) -> Result<()> {
        let header = *self.file.header();
        if out.len() != rows.len() * header.cols {
            return Err(AtsError::dims(
                "CachedFile::read_rows_into",
                (rows.len(), header.cols),
                (out.len() / header.cols.max(1), header.cols),
            ));
        }
        for &i in rows {
            if i >= header.rows {
                return Err(AtsError::oob("row", i, header.rows));
            }
        }
        if header.cols == 0 {
            return Ok(());
        }
        for (&i, orow) in rows.iter().zip(out.chunks_mut(header.cols)) {
            self.read_row_into(i, orow)?;
        }
        Ok(())
    }

    /// Read the `out.len() / cols` consecutive rows starting at `first`
    /// with **one positioned read that bypasses the pool**: the
    /// sequential-scan read path. A scan visits each row once, so it
    /// neither profits from the LRU nor should evict what point queries
    /// keep hot there; `BufferPool::resident` is unchanged by this call.
    ///
    /// Accounting keeps the page as its unit: `n` rows add `n` logical
    /// and `n` physical reads and `n · row_bytes` bytes — what `n`
    /// single-row misses add — and **one** [`IoStats::read_calls`].
    /// The run is validated against the file's row count before anything
    /// is read, so a run past EOF leaves `out` untouched. `bytes` is the
    /// caller's reusable raw-byte scratch.
    pub fn read_run_into(&self, first: usize, out: &mut [f64], bytes: &mut Vec<u8>) -> Result<()> {
        let header = *self.file.header();
        if header.cols == 0 || !out.len().is_multiple_of(header.cols) {
            return Err(AtsError::dims(
                "CachedFile::read_run_into",
                (out.len() / header.cols.max(1), header.cols),
                (1, header.cols),
            ));
        }
        let rows = out.len() / header.cols;
        let end = first
            .checked_add(rows)
            .filter(|&end| end <= header.rows)
            .ok_or_else(|| AtsError::oob("row run end", first.saturating_add(rows), header.rows))?;
        if end == first {
            return Ok(());
        }
        // `rows ≤ header.rows`, and the file was checked at open to hold
        // exactly `header.rows · row_bytes` data bytes: the scratch is
        // bounded by bytes that exist on disk.
        bytes.clear();
        bytes.resize(rows * header.row_bytes(), 0);
        self.file.raw_read_at(header.row_offset(first), bytes)?;
        self.stats
            .record_run(u64_from_usize(rows), u64_from_usize(bytes.len()));
        crate::file::decode_cells(bytes, header.is_f32(), out);
        Ok(())
    }

    /// Worst-case number of page fetches a single cold row read can incur
    /// under the current layout (1 when row-aligned).
    pub fn max_pages_per_row(&self) -> usize {
        if self.row_aligned_layout() {
            1
        } else {
            // A row of `rb` bytes starting at an arbitrary offset covers
            // `ceil(rb / ps)` full pages' worth of bytes plus at most one
            // extra page for the misaligned start.
            let rb = self.file.header().row_bytes();
            let ps = self.pool.page_size();
            rb.div_ceil(ps) + 1
        }
    }
}

/// Load one page of the data area into `buf`; pages extending past EOF
/// stay zero-padded (the pool hands us a zeroed buffer).
fn load_page(
    file: &MatrixFile,
    page_no: u64,
    page_size: usize,
    data_len: u64,
    buf: &mut [u8],
) -> Result<()> {
    let page_off = page_no * u64_from_usize(page_size);
    let avail = usize_from_u64(
        data_len
            .saturating_sub(page_off)
            .min(u64_from_usize(page_size)),
        "page fill length",
    )?;
    if avail > 0 {
        let dst = buf
            .get_mut(..avail)
            .ok_or_else(|| AtsError::internal("page buffer smaller than fill length"))?;
        read_data_at(file, page_off, dst)?;
    }
    Ok(())
}

fn read_data_at(file: &MatrixFile, data_offset: u64, buf: &mut [u8]) -> Result<()> {
    // Positioned read relative to the data area (which starts after the
    // fixed-size header).
    file.raw_read_at(data_offset + u64_from_usize(crate::format::HEADER_LEN), buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::write_matrix;
    use ats_linalg::Matrix;

    fn setup(n: usize, m: usize, name: &str) -> (Matrix, Arc<MatrixFile>, ats_common::TestDir) {
        let dir = ats_common::TestDir::new("ats-pool");
        let path = dir.file(name);
        let mat = Matrix::from_fn(n, m, |i, j| (i * 100 + j) as f64 * 0.25);
        write_matrix(&path, &mat).unwrap();
        (mat, Arc::new(MatrixFile::open(&path).unwrap()), dir)
    }

    #[test]
    fn cached_rows_match_file() {
        let (mat, file, _dir) = setup(40, 6, "match.atsm");
        let cf = CachedFile::row_aligned(file, 8);
        for i in 0..40 {
            assert_eq!(cf.read_row(i).unwrap(), mat.row(i));
        }
    }

    #[test]
    fn row_aligned_one_physical_read_per_cold_row() {
        let (_, file, _dir) = setup(20, 7, "cold.atsm");
        let cf = CachedFile::row_aligned(file, 32);
        assert_eq!(cf.max_pages_per_row(), 1);
        for i in 0..20 {
            cf.read_row(i).unwrap();
        }
        // 20 cold rows => exactly 20 physical page loads: the paper's
        // one-disk-access-per-query claim, measured.
        assert_eq!(cf.stats().physical_reads(), 20);
        assert_eq!(cf.stats().cache_hits(), 0);
    }

    #[test]
    fn repeated_reads_hit_cache() {
        let (_, file, _dir) = setup(10, 4, "hits.atsm");
        let cf = CachedFile::row_aligned(file, 16);
        cf.read_row(3).unwrap();
        let phys_before = cf.stats().physical_reads();
        for _ in 0..5 {
            cf.read_row(3).unwrap();
        }
        assert_eq!(cf.stats().physical_reads(), phys_before);
        assert_eq!(cf.stats().cache_hits(), 5);
    }

    #[test]
    fn eviction_under_pressure() {
        let (mat, file, _dir) = setup(32, 4, "evict.atsm");
        let cf = CachedFile::row_aligned(file, 4); // only 4 resident pages
                                                   // Sweep all rows twice: second sweep re-misses because capacity 4 < 32.
        for _ in 0..2 {
            for i in 0..32 {
                assert_eq!(cf.read_row(i).unwrap(), mat.row(i));
            }
        }
        assert_eq!(cf.stats().physical_reads(), 64);
        assert_eq!(cf.stats().cache_hits(), 0);
    }

    #[test]
    fn lru_keeps_hot_page() {
        let (_, file, _dir) = setup(8, 2, "lru.atsm");
        let cf = CachedFile::row_aligned(file, 2);
        cf.read_row(0).unwrap(); // load A
        cf.read_row(1).unwrap(); // load B
        cf.read_row(0).unwrap(); // hit A (A now MRU)
        cf.read_row(2).unwrap(); // load C, evicts B (LRU)
        let phys = cf.stats().physical_reads();
        cf.read_row(0).unwrap(); // still resident
        assert_eq!(cf.stats().physical_reads(), phys);
        cf.read_row(1).unwrap(); // B was evicted: miss
        assert_eq!(cf.stats().physical_reads(), phys + 1);
    }

    #[test]
    fn small_pages_split_rows() {
        let (mat, file, _dir) = setup(10, 16, "split.atsm"); // 128-byte rows
        let cf = CachedFile::new(file, 64, 64); // 64-byte pages: 2 per row
        for i in 0..10 {
            assert_eq!(cf.read_row(i).unwrap(), mat.row(i));
        }
        // Exactly ceil(128/64) + 1 = 3: two full pages of bytes plus one
        // extra when the row starts mid-page.
        assert_eq!(cf.max_pages_per_row(), 3);
    }

    #[test]
    fn max_pages_per_row_exact_across_geometries() {
        // (cols, page_size, expected): rows are cols*8 bytes.
        for (cols, ps, expect) in [
            (16usize, 64usize, 3usize), // 128B rows, 64B pages: 128/64+1
            (10, 48, 3),                // 80B rows, 48B pages: ceil(80/48)+1
            (10, 100, 2),               // 80B rows, 100B pages, misaligned
            (6, 13, 5),                 // 48B rows, 13B pages: ceil(48/13)+1
        ] {
            let (mat, file, _dir) = setup(12, cols, "geom.atsm");
            let cf = CachedFile::new(file, 32, ps);
            assert_eq!(cf.max_pages_per_row(), expect, "cols={cols} ps={ps}");
            // The bound must hold empirically: a cold row read never
            // fetches more pages than advertised.
            for i in 0..12 {
                let before = cf.stats().physical_reads();
                assert_eq!(cf.read_row(i).unwrap(), mat.row(i));
                let fetched = (cf.stats().physical_reads() - before) as usize;
                assert!(fetched <= expect, "row {i} fetched {fetched} > {expect}");
            }
        }
    }

    #[test]
    fn out_of_bounds_row_rejected() {
        let (_, file, _dir) = setup(5, 3, "oob.atsm");
        let cf = CachedFile::row_aligned(file, 4);
        assert!(cf.read_row(5).is_err());
        let mut wrong = vec![0.0; 2];
        assert!(cf.read_row_into(0, &mut wrong).is_err());
    }

    #[test]
    fn concurrent_cached_reads() {
        let (mat, file, _dir) = setup(64, 5, "conc.atsm");
        let cf = Arc::new(CachedFile::row_aligned(file, 16));
        std::thread::scope(|s| {
            for t in 0..4 {
                let cf = Arc::clone(&cf);
                let mat = &mat;
                s.spawn(move || {
                    for i in (t..64).step_by(4) {
                        assert_eq!(cf.read_row(i).unwrap(), mat.row(i));
                    }
                });
            }
        });
        assert_eq!(
            cf.stats().logical_reads(),
            64,
            "each row requested exactly once"
        );
    }

    #[test]
    fn read_rows_into_batches_with_one_logical_read_per_row() {
        let (mat, file, _dir) = setup(24, 5, "batch.atsm");
        let cf = CachedFile::row_aligned(file, 32);
        // Unsorted with a duplicate: 6 requests over 5 distinct rows.
        let rows = [19usize, 2, 7, 2, 11, 0];
        let mut out = vec![0.0; rows.len() * 5];
        cf.read_rows_into(&rows, &mut out).unwrap();
        for (&i, orow) in rows.iter().zip(out.chunks(5)) {
            assert_eq!(orow, mat.row(i));
        }
        assert_eq!(cf.stats().logical_reads(), 6);
        // 5 distinct row-aligned pages fetched; the duplicate hits cache.
        assert_eq!(cf.stats().physical_reads(), 5);
        assert_eq!(cf.stats().cache_hits(), 1);
        // Bad index validated before any fetch.
        let phys = cf.stats().physical_reads();
        let mut out2 = vec![0.0; 2 * 5];
        assert!(cf.read_rows_into(&[0, 24], &mut out2).is_err());
        assert_eq!(cf.stats().physical_reads(), phys);
        assert!(out2.iter().all(|&x| x == 0.0), "no partial work");
        let mut wrong = vec![0.0; 3];
        assert!(cf.read_rows_into(&[0], &mut wrong).is_err());
    }

    #[test]
    fn run_read_is_n_row_reads_in_one_call_past_the_pool() {
        let (mat, file, _dir) = setup(24, 5, "run.atsm");
        let cf = CachedFile::row_aligned(Arc::clone(&file), 4);
        cf.read_row(2).unwrap(); // one resident page the run must not disturb
        let resident = cf.pool.resident();
        let before = cf.stats().snapshot();
        let calls = cf.stats().read_calls();

        let (first, n) = (7usize, 9usize);
        let mut run = vec![0.0; n * 5];
        let mut bytes = Vec::new();
        cf.read_run_into(first, &mut run, &mut bytes).unwrap();
        // The bytes of n single-row reads, taken through a second handle
        // so this one's counters see only the run.
        let single = CachedFile::row_aligned(file, 4);
        for (r, got) in run.chunks(5).enumerate() {
            assert_eq!(got, single.read_row(first + r).unwrap());
            assert_eq!(got, mat.row(first + r));
        }
        let after = cf.stats().snapshot();
        let n64 = n as u64;
        assert_eq!(after.logical_reads - before.logical_reads, n64);
        assert_eq!(after.physical_reads - before.physical_reads, n64);
        assert_eq!(after.bytes_read - before.bytes_read, n64 * 5 * 8);
        assert_eq!(after.cache_hits, before.cache_hits);
        assert_eq!(cf.stats().read_calls() - calls, 1, "one system call");
        assert_eq!(cf.pool.resident(), resident, "the pool is bypassed");

        // A run past EOF is refused before anything is read or written.
        let mut past = vec![-1.0; 3 * 5];
        let err = cf.read_run_into(22, &mut past, &mut bytes).unwrap_err();
        assert!(matches!(err, AtsError::IndexOutOfBounds { .. }), "{err}");
        assert!(past.iter().all(|&x| x == -1.0), "no partial output");
        assert!(cf.read_run_into(usize::MAX, &mut past, &mut bytes).is_err());
        assert_eq!(cf.stats().snapshot(), after, "a refused run costs no I/O");
        // A buffer that is not a whole number of rows is a shape error.
        assert!(cf.read_run_into(0, &mut [0.0; 7], &mut bytes).is_err());
    }

    #[test]
    fn pool_resident_bounded_by_capacity() {
        let (_, file, _dir) = setup(32, 4, "bound.atsm");
        let cf = CachedFile::row_aligned(file, 4);
        for i in 0..32 {
            cf.read_row(i).unwrap();
        }
        assert!(cf.pool.resident() <= 4);
    }
}
