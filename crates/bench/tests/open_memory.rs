//! Peak-heap regression test for opening a saved store.
//!
//! Opening validates every component file against its manifest CRC. The
//! checksum is streamed through a fixed buffer, so the heap an open
//! needs is the pinned factors (`V`, `Λ`), the zone-map synopses, and
//! that buffer — never a `u.atsm`, which is what gets *paged*. A
//! high-water-mark global allocator pins this: if validation goes back
//! to reading whole files (`hash_bytes(&fs::read(path)?)`), the peak
//! jumps past the size of the largest `U` file and this test fails.
//!
//! The allocator needs `unsafe impl GlobalAlloc`; the allow below scopes
//! that exemption to this test binary only.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ats_compress::{CompressedMatrix, SpaceBudget};
use ats_core::store::{Method, SequenceStore};
use ats_core::timeblock::TimeBlockedStore;
use ats_data::{PhoneConfig, StreamingPhone};
use ats_storage::store_dir::validate_timeblocked_store_dir;

/// Tracks live heap bytes and their high-water mark.
struct HighWaterAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for HighWaterAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: HighWaterAlloc = HighWaterAlloc;

/// Single test so no sibling test thread can allocate concurrently and
/// pollute the high-water mark.
#[test]
fn open_and_validate_peak_heap_stays_below_the_largest_u_file() {
    const N: usize = 40_000;
    const M: usize = 32;
    const MIB: usize = 1024 * 1024;

    // Plain SVD at a generous budget: k ≈ 17 of 32, so the single
    // shard's u.atsm is N·k·8 ≈ 5 MiB while V, Λ and the synopsis (one
    // 32-byte tile per 8 × 16 cells) stay in the hundreds of KiB.
    let tmp = ats_common::TestDir::new("ats-open-memory");
    let dir = tmp.file("store");
    SequenceStore::builder()
        .method(Method::Svd)
        .budget(SpaceBudget::from_percent(55.0))
        .shards(1)
        .time_blocks(1)
        .build(&StreamingPhone::new(PhoneConfig {
            customers: N,
            days: M,
            ..PhoneConfig::default()
        }))
        .unwrap()
        .save(&dir)
        .unwrap();
    let u_bytes = std::fs::metadata(dir.join("shard-0000/u.atsm"))
        .unwrap()
        .len() as usize;
    assert!(
        u_bytes >= 4 * MIB,
        "u.atsm is only {u_bytes} B: not a meaningful bound"
    );

    // Reset the window: measure the high-water mark of validate + open
    // alone, relative to what is live right now.
    let baseline = LIVE.load(Ordering::SeqCst);
    PEAK.store(baseline, Ordering::SeqCst);

    validate_timeblocked_store_dir(&dir).unwrap();
    let store = TimeBlockedStore::open(&dir, 1024).unwrap();

    let peak_delta = PEAK.load(Ordering::SeqCst).saturating_sub(baseline);
    assert_eq!((store.rows(), store.cols()), (N, M));
    assert!(
        peak_delta < MIB,
        "validating and opening peaked at {peak_delta} B above baseline with a \
         {u_bytes} B u.atsm on disk — a component file is being read whole"
    );
}
