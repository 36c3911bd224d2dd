//! Atomic I/O accounting.
//!
//! The paper's central efficiency claim is operational: a cell query needs
//! "1 or 2 disk accesses" (§1) — one row of `U` plus possibly one delta
//! probe. Rather than assert that in prose, the readers in this crate
//! count every physical and logical access through a shared [`IoStats`],
//! and the integration tests assert the claim numerically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe I/O counters.
///
/// "Logical" reads are row/page requests regardless of cache outcome;
/// "physical" reads are the *pages* of those requests that had to come
/// from the file (pool misses, or every page of a run read, which
/// bypasses the pool). Pages are the unit of the paper's cost model, so
/// they are what the four [`IoSnapshot`] fields count. How many
/// positioned-read system calls fetched those pages is a separate
/// figure, [`IoStats::read_calls`]: one per pool miss, one per run.
#[derive(Debug, Default)]
pub struct IoStats {
    physical_reads: AtomicU64,
    logical_reads: AtomicU64,
    bytes_read: AtomicU64,
    cache_hits: AtomicU64,
    read_calls: AtomicU64,
}

impl IoStats {
    /// Fresh zeroed counters behind an `Arc` for sharing with readers.
    pub fn new() -> Arc<Self> {
        Arc::new(IoStats::default())
    }

    /// Record a physical read of `bytes` bytes: one page, one call.
    pub fn record_physical(&self, bytes: u64) {
        self.physical_reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.read_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one positioned read that fetched `pages` requested pages
    /// (`bytes` bytes in all) past the pool: `pages` logical and
    /// physical reads — the page accounting of `pages` single misses —
    /// for one call.
    pub fn record_run(&self, pages: u64, bytes: u64) {
        self.logical_reads.fetch_add(pages, Ordering::Relaxed);
        self.physical_reads.fetch_add(pages, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.read_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a logical read request.
    pub fn record_logical(&self) {
        self.logical_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a buffer-pool hit.
    pub fn record_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of physical reads so far.
    pub fn physical_reads(&self) -> u64 {
        self.physical_reads.load(Ordering::Relaxed)
    }

    /// Number of logical read requests so far.
    pub fn logical_reads(&self) -> u64 {
        self.logical_reads.load(Ordering::Relaxed)
    }

    /// Total bytes physically read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Buffer-pool hits.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Positioned-read system calls behind the physical reads. Equal to
    /// [`IoStats::physical_reads`] until a run read fetches several
    /// pages with one call.
    pub fn read_calls(&self) -> u64 {
        self.read_calls.load(Ordering::Relaxed)
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.physical_reads.store(0, Ordering::Relaxed);
        self.logical_reads.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.read_calls.store(0, Ordering::Relaxed);
    }

    /// Hit ratio over logical reads (0 when no logical reads yet).
    pub fn hit_ratio(&self) -> f64 {
        let l = self.logical_reads();
        if l == 0 {
            0.0
        } else {
            self.cache_hits() as f64 / l as f64
        }
    }

    /// A point-in-time copy of the four page counters — the mergeable
    /// value a sharded store rolls its per-shard counters up into.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            physical_reads: self.physical_reads(),
            logical_reads: self.logical_reads(),
            bytes_read: self.bytes_read(),
            cache_hits: self.cache_hits(),
        }
    }
}

/// A plain, mergeable copy of [`IoStats`] counters.
///
/// Each shard of a sharded store owns live atomic [`IoStats`]; query
/// code snapshots them and folds the snapshots into one total with
/// [`IoSnapshot::merge`], so the paper's "1–2 disk accesses per cell"
/// invariant can be asserted per shard *and* for the store as a whole.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Physical reads (`pread` syscalls / pool misses).
    pub physical_reads: u64,
    /// Logical row/page requests.
    pub logical_reads: u64,
    /// Bytes physically read.
    pub bytes_read: u64,
    /// Buffer-pool hits.
    pub cache_hits: u64,
}

impl IoSnapshot {
    /// Fold another snapshot into this one (saturating).
    pub fn merge(&mut self, other: &IoSnapshot) {
        self.physical_reads = self.physical_reads.saturating_add(other.physical_reads);
        self.logical_reads = self.logical_reads.saturating_add(other.logical_reads);
        self.bytes_read = self.bytes_read.saturating_add(other.bytes_read);
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_logical();
        s.record_logical();
        s.record_physical(4096);
        s.record_hit();
        assert_eq!(s.logical_reads(), 2);
        assert_eq!(s.physical_reads(), 1);
        assert_eq!(s.bytes_read(), 4096);
        assert_eq!(s.cache_hits(), 1);
        assert_eq!(s.read_calls(), 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_run_counts_its_pages_and_one_call() {
        let s = IoStats::new();
        s.record_run(8, 8 * 16);
        assert_eq!(
            s.snapshot(),
            IoSnapshot {
                physical_reads: 8,
                logical_reads: 8,
                bytes_read: 128,
                cache_hits: 0,
            }
        );
        assert_eq!(s.read_calls(), 1);
        s.reset();
        assert_eq!(s.read_calls(), 0);
    }

    #[test]
    fn snapshots_merge() {
        let a = IoStats::new();
        a.record_logical();
        a.record_physical(64);
        let b = IoStats::new();
        b.record_logical();
        b.record_hit();
        let mut total = a.snapshot();
        total.merge(&b.snapshot());
        assert_eq!(total.logical_reads, 2);
        assert_eq!(total.physical_reads, 1);
        assert_eq!(total.bytes_read, 64);
        assert_eq!(total.cache_hits, 1);
    }

    #[test]
    fn reset_zeroes() {
        let s = IoStats::new();
        s.record_physical(10);
        s.record_logical();
        s.reset();
        assert_eq!(s.physical_reads(), 0);
        assert_eq!(s.logical_reads(), 0);
        assert_eq!(s.bytes_read(), 0);
        assert_eq!(s.hit_ratio(), 0.0);
    }

    #[test]
    fn concurrent_updates() {
        let s = IoStats::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.record_physical(1);
                    }
                });
            }
        });
        assert_eq!(s.physical_reads(), 8000);
        assert_eq!(s.bytes_read(), 8000);
    }
}
