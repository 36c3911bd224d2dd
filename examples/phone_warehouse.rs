//! A warehouse-style deployment: compress once to disk, serve queries
//! with one disk access per cell (the paper's §4.1 architecture).
//!
//! Run with:
//! ```sh
//! cargo run --release --example phone_warehouse
//! ```
//!
//! Simulates the paper's motivating setting — customer calling volumes
//! too large to keep uncompressed — end to end:
//!
//! 1. stream the raw dataset to a row-major `.atsm` file (the "tape");
//! 2. build an SVDD store from the *file* in exactly three sequential
//!    passes (Fig. 5), never holding the matrix in memory;
//! 3. persist `U`/`Λ`/`V`/deltas; reopen as a [`TimeBlockedStore`] with
//!    `V`, `Λ` and the delta hash table pinned in memory and `U` paged
//!    from disk;
//! 4. run decision-support queries and print the measured disk-access
//!    counts next to the paper's claim.

use adhoc_ts::compress::{CompressedMatrix, SpaceBudget};
use adhoc_ts::core::store::SequenceStore;
use adhoc_ts::core::timeblock::TimeBlockedStore;
use adhoc_ts::data::{generate_phone, PhoneConfig};
use adhoc_ts::query::engine::{AggregateFn, QueryEngine};
use adhoc_ts::query::selection::{Axis, Selection};
use adhoc_ts::storage::MatrixFile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("adhoc-ts-warehouse");
    std::fs::create_dir_all(&dir)?;

    // 1. the raw "warehouse extract" on disk
    let dataset = generate_phone(&PhoneConfig {
        customers: 5_000,
        days: 180,
        ..PhoneConfig::default()
    });
    let raw_path = dir.join("phone5000.atsm");
    dataset.save(&raw_path)?;
    println!(
        "raw extract: {} ({:.1} MB)",
        raw_path.display(),
        std::fs::metadata(&raw_path)?.len() as f64 / 1e6
    );

    // 2. three-pass SVDD build straight from the file
    let raw = MatrixFile::open(&raw_path)?;
    let t0 = std::time::Instant::now();
    let built = SequenceStore::builder()
        .budget(SpaceBudget::from_percent(10.0))
        .threads(4)
        .time_blocks(1)
        .build(&raw)?;
    println!(
        "SVDD build: {:.2}% space, {:?} ({} row reads = 3 passes x N)",
        built.space_ratio() * 100.0,
        t0.elapsed(),
        raw.stats().logical_reads(),
    );

    // 3. persist + reopen as the serving store
    let store_dir = dir.join("store");
    built.save(&store_dir)?;
    let store = TimeBlockedStore::open(&store_dir, 512)?;
    println!(
        "disk store: k = {}, {} deltas, U paged from disk, V+lambda pinned\n",
        store.blocks()[0].k(),
        store.num_deltas()
    );

    // 4. decision support queries
    let engine = QueryEngine::new(&store);

    // (a) spot checks on individual customer-days
    println!("cell queries (customer, day) -> value  [one disk access each]:");
    for &(i, j) in &[(17usize, 3usize), (1234, 90), (4999, 179), (42, 0)] {
        let v = engine.cell(i, j)?;
        let truth = dataset.matrix()[(i, j)];
        println!("  ({i:5}, {j:3})  approx {v:9.2}   true {truth:9.2}");
    }
    println!(
        "  -> physical disk reads: {} for 4 cold queries (paper: 'a single disk access')\n",
        store.io_snapshot().physical_reads
    );

    // (b) an aggregate: total weekday spend of a customer segment
    let sel = Selection {
        rows: Axis::Range(1000, 2000),
        cols: Axis::Range(0, 90),
    };
    let total = engine.aggregate(&sel, AggregateFn::Sum)?;
    let avg = engine.aggregate(&sel, AggregateFn::Avg)?;
    println!("segment query: 1000 customers x 90 days  sum = {total:.0}, avg = {avg:.2}");

    // (c) top-spender scan via reconstructed rows
    let mut best = (0usize, f64::MIN);
    let mut row = vec![0.0; store.cols()];
    for i in (0..store.rows()).step_by(50) {
        store.row_into(i, &mut row)?;
        let s: f64 = row.iter().sum();
        if s > best.1 {
            best = (i, s);
        }
    }
    println!(
        "largest sampled customer: #{} with reconstructed annual volume {:.0}",
        best.0, best.1
    );

    let io = store.io_snapshot();
    println!(
        "\ncache behaviour: {} logical reads, {} physical, {:.1}% hit rate",
        io.logical_reads,
        io.physical_reads,
        io.cache_hits as f64 / io.logical_reads.max(1) as f64 * 100.0
    );
    Ok(())
}
