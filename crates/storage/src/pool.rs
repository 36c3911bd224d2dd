//! LRU buffer pool and page-cached `U`-row reads.
//!
//! The query path of the paper assumes `V` and `Λ` are pinned in memory
//! while rows of `U` are fetched from disk on demand, a whole row in one
//! disk block (§4.1, "Reconstruction"). Real systems put a page cache
//! between the two; here a page *is* one row: [`CachedFile`] serves row
//! reads of a [`MatrixFile`] through a fixed-capacity LRU of row-sized
//! pages with hit/miss accounting, and a miss is one positioned read of
//! the row's bytes. The pool uses an index-linked LRU list (no
//! per-access allocation) guarded by a single `parking_lot` mutex; page
//! loads happen under the lock, which is the right trade-off for the
//! pool sizes exercised here and keeps the eviction logic obviously
//! correct.

use crate::file::MatrixFile;
use crate::iostats::IoStats;
use ats_common::codec::u64_from_usize;
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

/// A fixed-capacity LRU cache of fixed-size pages keyed by a `u64` (a
/// row's file offset, for [`CachedFile`]).
pub(crate) struct BufferPool {
    inner: Mutex<PoolInner>,
    capacity: usize,
    page_size: usize,
    stats: Arc<IoStats>,
}

impl BufferPool {
    /// Create a pool holding up to `capacity` pages of `page_size` bytes.
    pub(crate) fn new(capacity: usize, page_size: usize, stats: Arc<IoStats>) -> Self {
        BufferPool {
            inner: Mutex::new(PoolInner {
                frames: Vec::new(),
                map: HashMap::new(),
                head: NIL,
                tail: NIL,
                free: Vec::new(),
            }),
            capacity: capacity.max(1),
            page_size,
            stats,
        }
    }

    /// Current number of resident pages.
    #[cfg(test)]
    fn resident(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Fetch page `page_no`, loading it via `load` on a miss, and hand a
    /// borrow of its bytes to `consume`. `load` must fill the whole
    /// buffer; if it fails, the frame goes back to the free list and the
    /// page stays absent.
    pub(crate) fn with_page<R>(
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
        let frame = inner
            .frames
            .get_mut(idx)
            .ok_or_else(|| AtsError::internal("pool allocated an out-of-range frame"))?;
        frame.page_no = page_no;
        if let Err(e) = load(&mut frame.data) {
            // Neither mapped nor linked: without this the frame would be
            // lost, and `capacity` failed loads would leave no frame at all.
            inner.free.push(idx);
            return Err(e);
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

/// A [`MatrixFile`] whose row reads are served through a pool of
/// row-sized pages.
///
/// A page is one row, keyed by the row's file offset: a cold row costs
/// exactly one positioned read of its bytes and a warm one none — the
/// paper's "an entire row fits in one disk block" assumption, made true
/// by construction. (A zero-width file has one empty page, which reads
/// nothing.)
pub struct CachedFile {
    file: Arc<MatrixFile>,
    pool: BufferPool,
    stats: Arc<IoStats>,
}

impl CachedFile {
    /// Wrap `file` with a pool of `capacity` one-row pages.
    pub fn row_aligned(file: Arc<MatrixFile>, capacity: usize) -> Self {
        let row_bytes = file.header().row_bytes();
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

    /// Read row `i` through the page cache, decoding straight from the
    /// page — no scratch allocation.
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
        let offset = header.row_offset(i);
        self.pool.with_page(
            offset,
            |page| self.file.raw_read_at(offset, page),
            |row| crate::file::decode_cells(row, header.is_f32(), out),
        )
    }

    /// Read row `i`, allocating.
    pub fn read_row(&self, i: usize) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.file.cols()];
        self.read_row_into(i, &mut out)?;
        Ok(out)
    }

    /// Read the `out.len() / cols` consecutive rows starting at `first`
    /// with **one positioned read that bypasses the pool**: the
    /// sequential-scan read path. A scan visits each row once, so it
    /// neither profits from the LRU nor should evict what point queries
    /// keep hot there; the resident pages are unchanged by this call.
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

    #[test]
    fn failed_loads_return_their_frames() {
        // Three times the capacity in failed loads, then a good one: a
        // frame lost per failure would leave none for the good load.
        let pool = BufferPool::new(2, 8, IoStats::new());
        for page in 0..6 {
            let failed = pool.with_page(page, |_| Err(AtsError::internal("boom")), |_| ());
            assert!(failed.is_err(), "page {page}");
        }
        assert_eq!(pool.resident(), 0, "a failed load maps nothing");
        let first = pool.with_page(
            9,
            |page| {
                page.fill(7);
                Ok(())
            },
            |page| page[0],
        );
        assert_eq!(first.unwrap(), 7);
        assert_eq!(pool.resident(), 1);
    }

    #[test]
    fn truncated_file_fails_past_the_cut_and_still_reads_before_it() {
        let dir = ats_common::TestDir::new("ats-pool");
        let path = dir.file("cut.atsm");
        let mat = Matrix::from_fn(10, 4, |i, j| (i * 100 + j) as f64 * 0.25);
        write_matrix(&path, &mat).unwrap();
        let file = Arc::new(MatrixFile::open(&path).unwrap());
        let cf = CachedFile::row_aligned(Arc::clone(&file), 2);
        // Cut the file under the open handle, halfway through row 6.
        let cut = file.header().row_offset(6) + 16;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();
        assert!(cf.read_row(8).is_err());
        assert!(cf.read_row(6).is_err());
        assert_eq!(cf.read_row(5).unwrap(), mat.row(5));
        assert_eq!(cf.stats().physical_reads(), 1, "only the good load counts");
    }
}
