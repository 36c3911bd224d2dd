//! Peak-heap and bytes-read regression test for validating and opening
//! a saved store.
//!
//! The validator checks every component file against its manifest CRC
//! through a fixed streaming buffer — never holding a `u.atsm`, which is
//! what gets *paged*. A high-water-mark global allocator pins this: if
//! validation goes back to reading whole files
//! (`hash_bytes(&fs::read(path)?)`), the peak jumps past the size of the
//! largest `U` file and the first case fails.
//!
//! An open reads manifests only, and a query then checks and loads just
//! the components it touches, each read once. The second case pins both
//! on a 4 × 4 store: the heap of `open` + one cold `cell` stays below one
//! component, whatever the store holds, and the bytes the process reads
//! are the manifests plus what `checked_bytes` reports — a second read
//! of a component to decode it would show.
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

/// Single test so no sibling test thread can allocate (or read files)
/// concurrently and pollute the high-water mark and the byte counter.
#[test]
fn open_and_validate_peak_heap_stays_below_the_largest_u_file() {
    validator_streams_a_large_u_file();
    open_plus_one_cold_cell_scales_with_what_is_touched();
}

const MIB: usize = 1024 * 1024;

/// Heap high-water mark of `f` above what is live when it starts.
fn peak_heap_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let baseline = LIVE.load(Ordering::SeqCst);
    PEAK.store(baseline, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst).saturating_sub(baseline))
}

fn validator_streams_a_large_u_file() {
    const N: usize = 40_000;
    const M: usize = 32;

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

    let (store, peak) = peak_heap_of(|| {
        validate_timeblocked_store_dir(&dir).unwrap();
        TimeBlockedStore::open(&dir, 1024).unwrap()
    });
    assert_eq!((store.rows(), store.cols()), (N, M));
    assert!(
        peak < MIB,
        "validating and opening peaked at {peak} B above baseline with a \
         {u_bytes} B u.atsm on disk — a component file is being read whole"
    );
}

/// Bytes this process has read through `read`-family system calls.
#[cfg(target_os = "linux")]
fn process_bytes_read() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    io.lines()
        .find_map(|l| l.strip_prefix("rchar: "))?
        .trim()
        .parse()
        .ok()
}

#[cfg(not(target_os = "linux"))]
fn process_bytes_read() -> Option<u64> {
    None
}

/// What `open` + one cold `cell` cost on the 4 × 4 store at `dir`.
struct ColdCell {
    /// Heap high-water mark of the two calls.
    peak: usize,
    /// Bytes the process read meanwhile, where the platform counts them.
    read: Option<u64>,
    /// Manifests + `checked_bytes` + one `U` header + one `U` row.
    read_model: u64,
    /// Size of the largest component file, and of all of them.
    largest: usize,
    total: usize,
}

fn open_and_one_cold_cell(dir: &std::path::Path, (i, j): (usize, usize)) -> ColdCell {
    let len = |p: std::path::PathBuf| std::fs::metadata(p).unwrap().len() as usize;
    let (top, nested) = validate_timeblocked_store_dir(dir).unwrap();
    assert_eq!((nested.len(), nested[0].shards.len()), (4, 4));
    let (mut largest, mut total) = (0usize, 0usize);
    let mut manifests = len(dir.join("manifest.txt"));
    for (b, m) in nested.iter().enumerate() {
        let bdir = top.block_dir(dir, b);
        manifests += len(bdir.join("manifest.txt"));
        for c in m.components() {
            let bytes = len(m.component_path(&bdir, c));
            largest = largest.max(bytes);
            total += bytes;
        }
    }
    let read_before = process_bytes_read();
    let (store, peak) = peak_heap_of(|| {
        let store = TimeBlockedStore::open(dir, 1024).unwrap();
        assert!(store.cell(i, j).unwrap().is_finite());
        store
    });
    let read = read_before.and_then(|before| Some(process_bytes_read()? - before));
    let k = nested[top.block_of_col(j).unwrap()].k;
    ColdCell {
        peak,
        read,
        read_model: (manifests + 48 + 8 * k) as u64 + store.checked_bytes(),
        largest,
        total,
    }
}

fn open_plus_one_cold_cell_scales_with_what_is_touched() {
    const M: usize = 64;
    const KIB: usize = 1024;
    let tmp = ats_common::TestDir::new("ats-open-memory");
    let save = |name: &str, method: Method, percent: f64, n: usize| {
        let dir = tmp.file(name);
        SequenceStore::builder()
            .method(method)
            .budget(SpaceBudget::from_percent(percent))
            .shards(4)
            .time_blocks(4)
            .build(&StreamingPhone::new(PhoneConfig {
                customers: n,
                days: M,
                ..PhoneConfig::default()
            }))
            .unwrap()
            .save(&dir)
            .unwrap();
        dir
    };

    // Plain SVD, so the 16 `u.atsm` files (≈ 320 KiB each) are the store:
    // the heap must follow the one unit touched, not the 5 MiB on disk.
    let n = 20_000;
    let cold = open_and_one_cold_cell(&save("svd", Method::Svd, 55.0, n), (n / 4 + 17, 35));
    assert!(
        cold.total > 8 * (cold.largest + 128 * KIB),
        "store of {} B vs largest component {} B: not a meaningful bound",
        cold.total,
        cold.largest
    );
    assert!(
        cold.peak < cold.largest + 128 * KIB,
        "open + one cold cell peaked at {} B; the largest component is {} B and the \
         store {} B — memory must follow what is touched",
        cold.peak,
        cold.largest,
        cold.total
    );

    // SVDD, so `deltas.bin` is worth reading twice by mistake: the bytes
    // read are the manifests, each checked component *once*, one `U`
    // header and one `U` row. The slack covers reading /proc/self/io
    // and is smaller than any file a second read would add.
    let n = 4_000;
    let dir = save("svdd", Method::Svdd, 10.0, n);
    let deltas = std::fs::metadata(dir.join("tblock-0002/shard-0001/deltas.bin")).unwrap();
    assert!(deltas.len() > 1024, "deltas.bin is only {} B", deltas.len());
    let cold = open_and_one_cold_cell(&dir, (n / 4 + 17, 35));
    if let Some(read) = cold.read {
        assert!(
            (cold.read_model..cold.read_model + 512).contains(&read),
            "open + one cold cell read {read} B; manifests + checked bytes + one row is {} B",
            cold.read_model
        );
    }
}
