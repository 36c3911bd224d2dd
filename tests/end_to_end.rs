//! End-to-end integration: the full paper pipeline across every crate.
//!
//! raw data → `.atsm` file → 3-pass out-of-core SVDD → persisted store →
//! `TimeBlockedStore` serving cell + aggregate queries with one disk
//! access.

use adhoc_ts::compress::{CompressedMatrix, SpaceBudget, SvddCompressed, SvddOptions};
use adhoc_ts::core::store::SequenceStore;
use adhoc_ts::core::timeblock::TimeBlockedStore;
use adhoc_ts::data::{generate_phone, PhoneConfig};
use adhoc_ts::query::engine::{aggregate_exact, AggregateFn, QueryEngine};
use adhoc_ts::query::metrics::error_report;
use adhoc_ts::query::selection::{Axis, Selection};
use adhoc_ts::storage::MatrixFile;
use ats_common::testutil::LAYOUTS;

fn workdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("adhoc-ts-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn full_pipeline_from_disk_to_disk() {
    let dir = workdir("pipeline");
    let dataset = generate_phone(&PhoneConfig {
        customers: 800,
        days: 84,
        ..PhoneConfig::default()
    });
    let raw_path = dir.join("raw.atsm");
    dataset.save(&raw_path).unwrap();

    // The one-block layouts of `LAYOUTS`, by their shard counts.
    for shards in LAYOUTS
        .iter()
        .filter(|l| l.time_blocks == 1)
        .map(|l| l.shards)
    {
        // Out-of-core 3-pass SVDD build (one time block: a blocked build
        // makes its passes once per block, plus one to record each SSE).
        let raw = MatrixFile::open(&raw_path).unwrap();
        let budget = SpaceBudget::from_percent(10.0);
        let built = SequenceStore::builder()
            .budget(budget)
            .shards(shards)
            .time_blocks(1)
            .build(&raw)
            .unwrap();
        assert_eq!(
            raw.stats().logical_reads(),
            3 * 800,
            "exactly three sequential passes (Fig. 5)"
        );
        assert!(built.storage_bytes() <= budget.bytes(800, 84));

        // Persist, reopen, serve.
        let store_dir = dir.join(format!("store-{shards}"));
        built.save(&store_dir).unwrap();
        let store = TimeBlockedStore::open(&store_dir, 256).unwrap();

        // Disk store answers identically to the in-memory compressed form.
        for i in (0..800).step_by(97) {
            for j in (0..84).step_by(13) {
                let a = store.cell(i, j).unwrap();
                let b = built.cell(i, j).unwrap();
                assert_eq!(a.to_bits(), b.to_bits(), "({i},{j})");
            }
        }

        // At most one disk access per cell query (§4.1), measured. (Row 0
        // was cached by the earlier spot checks, so it hits.)
        let before = store.io_snapshot();
        for i in 0..100 {
            store.cell(i, i % 84).unwrap();
        }
        let after = store.io_snapshot();
        let physical = after.physical_reads - before.physical_reads;
        assert_eq!(after.logical_reads - before.logical_reads, 100);
        assert_eq!(
            physical + (after.cache_hits - before.cache_hits),
            100,
            "every query served by exactly one page (fetched or resident)"
        );
        assert!(physical >= 98);

        // Accuracy: RMSPE under 15% at 10% space on phone-like data.
        let report = error_report(dataset.matrix(), &store).unwrap();
        assert!(report.rmspe < 0.15, "rmspe {}", report.rmspe);

        // Aggregate queries much more accurate than single cells (§5.2).
        let engine = QueryEngine::new(&store);
        let sel = Selection {
            rows: Axis::Range(100, 500),
            cols: Axis::Range(0, 42),
        };
        // (Zipf-skewed data: the mean is small relative to the std dev, so
        // the relative aggregate error is looser than RMSPE suggests; the
        // paper-style aggregate experiment lives in exp_fig9.)
        let exact = aggregate_exact(dataset.matrix(), &sel, AggregateFn::Avg).unwrap();
        let approx = engine.aggregate(&sel, AggregateFn::Avg).unwrap();
        let q_err = (exact - approx).abs() / exact.abs();
        assert!(q_err < 0.10, "aggregate error {q_err}");
    }
}

#[test]
fn subsets_mirror_paper_scaleup_protocol() {
    // phone1000-style prefixes of one generated dataset behave
    // consistently: error roughly flat across N (Fig. 10's observation).
    let full = generate_phone(&PhoneConfig {
        customers: 1_200,
        days: 60,
        ..PhoneConfig::default()
    });
    let budget = SpaceBudget::from_percent(10.0);
    let mut rmspes = Vec::new();
    for n in [300usize, 600, 1200] {
        let sub = full.subset(n).unwrap();
        let svdd = SvddCompressed::compress(sub.matrix(), &SvddOptions::new(budget)).unwrap();
        let report = error_report(sub.matrix(), &svdd).unwrap();
        rmspes.push(report.rmspe);
    }
    for w in rmspes.windows(2) {
        let ratio = w[1] / w[0].max(1e-12);
        assert!(
            (0.3..3.0).contains(&ratio),
            "error should be roughly insensitive to N: {rmspes:?}"
        );
    }
}

#[test]
fn zero_customers_reconstruct_to_zero() {
    // §6.2's practical issue: all-zero customers should come back ~0.
    let dataset = generate_phone(&PhoneConfig {
        customers: 400,
        days: 56,
        zero_fraction: 0.1,
        ..PhoneConfig::default()
    });
    let svdd = SvddCompressed::compress(
        dataset.matrix(),
        &SvddOptions::new(SpaceBudget::from_percent(15.0)),
    )
    .unwrap();
    for i in 0..400 {
        if dataset.matrix().row(i).iter().all(|&v| v == 0.0) {
            for j in (0..56).step_by(7) {
                let v = svdd.cell(i, j).unwrap();
                assert!(v.abs() < 1e-6, "zero customer {i} reconstructed {v}");
            }
        }
    }
}
