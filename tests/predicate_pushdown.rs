//! Integration tests for predicate pushdown (`where value > x`) over
//! saved stores: pruned scans must answer bitwise what the exact scan
//! answers at any shards × time-blocks × threads combination, agree
//! with a per-cell baseline, and — on a store whose zone-map synopses
//! prove most tiles out — touch only the straddling tiles' U pages
//! (IoStats-asserted). Appended shards emit synopses too, so pruning
//! keeps working after growth.
//!
//! Every engine here pins `.with_synopsis(..)` explicitly: the tests
//! must assert the same thing whether or not the CI leg exporting
//! `ATS_TEST_SYNOPSIS=off` is running.

use adhoc_ts::compress::{CompressedMatrix, SpaceBudget};
use adhoc_ts::core::shard::append_rows;
use adhoc_ts::core::store::SequenceStore;
use adhoc_ts::core::timeblock::TimeBlockedStore;
use adhoc_ts::linalg::Matrix;
use adhoc_ts::query::engine::{AggregateFn, QueryEngine};
use adhoc_ts::query::predicate::{CmpOp, Predicate};
use adhoc_ts::query::selection::{Axis, Selection};
use ats_common::{OnlineStats, TestDir};
use proptest::prelude::*;

/// Structured but not perfectly low-rank data, seeded so every case is
/// deterministic.
fn wavy(n: usize, m: usize, seed: u64) -> Matrix {
    Matrix::from_fn(n, m, |i, j| {
        let s = seed as usize % 7 + 1;
        ((i % 5) + 1) as f64 * if (j + s) % 7 < 5 { 2.0 } else { 0.3 }
            + ((i * 7 + j * 13 + s) % 11) as f64 * 0.05
    })
}

/// Sum the per-shard U physical/logical reads of an opened store.
fn u_reads(store: &TimeBlockedStore) -> (u64, u64) {
    let mut phys = 0;
    let mut logi = 0;
    for s in store.shard_io_snapshots() {
        phys += s.physical_reads;
        logi += s.logical_reads;
    }
    (phys, logi)
}

#[test]
fn selective_where_touches_only_straddling_tiles_u_pages() {
    // 64 x 64, one shard, one block: an 8x4 = 32-tile grid. One spiked
    // cell (an svdd delta, so the synopsis bounds it exactly) makes a
    // `> 500` predicate ~0.02% selective: every tile except the spike's
    // proves False, so the pruned scan may touch only that tile's band
    // of U rows — all other rows cost zero I/O.
    let base = wavy(64, 64, 11);
    let x = Matrix::from_fn(64, 64, |i, j| {
        if (i, j) == (20, 10) {
            1000.0
        } else {
            base.get(i, j).unwrap()
        }
    });
    let tmp = TestDir::new("ats-predpush");
    let dir = tmp.file("store");
    SequenceStore::builder()
        .budget(SpaceBudget::from_percent(15.0))
        .build(&x)
        .unwrap()
        .save(&dir)
        .unwrap();

    let pred = Predicate::new(CmpOp::Gt, 500.0).unwrap();
    let sel = Selection {
        rows: Axis::All,
        cols: Axis::All,
    };

    // Exact scan (pruning off): reads every U page the selection spans.
    let store = TimeBlockedStore::open(&dir, 128).unwrap();
    let engine = QueryEngine::new(&store).with_synopsis(false);
    let exact_count = engine
        .aggregate_where(&sel, AggregateFn::Count, &pred)
        .unwrap();
    let exact_sum = engine
        .aggregate_where(&sel, AggregateFn::Sum, &pred)
        .unwrap();
    let (exact_phys, exact_logi) = u_reads(&store);
    assert_eq!(exact_count, 1.0, "only the spiked cell passes");
    assert!(exact_phys > 0);

    // Pruned scan: bitwise-equal answers, strictly fewer U pages — and
    // no more than the straddling band's share (8 of 64 rows, +1 page
    // for a band that straddles a page boundary).
    let store = TimeBlockedStore::open(&dir, 128).unwrap();
    let engine = QueryEngine::new(&store).with_synopsis(true);
    let pruned_count = engine
        .aggregate_where(&sel, AggregateFn::Count, &pred)
        .unwrap();
    let pruned_sum = engine
        .aggregate_where(&sel, AggregateFn::Sum, &pred)
        .unwrap();
    let (pruned_phys, pruned_logi) = u_reads(&store);
    assert_eq!(pruned_count.to_bits(), exact_count.to_bits());
    assert_eq!(pruned_sum.to_bits(), exact_sum.to_bits());
    assert!(
        pruned_phys < exact_phys,
        "pruned {pruned_phys} pages vs exact {exact_phys}"
    );
    assert!(
        pruned_phys <= exact_phys / 8 + 1,
        "pruned scan read {pruned_phys} pages; the straddling band is 1/8 \
         of {exact_phys}"
    );
    assert!(pruned_logi < exact_logi);

    // A predicate no cell can satisfy proves every tile False: the
    // pruned scan answers count = 0 with ZERO U I/O.
    let store = TimeBlockedStore::open(&dir, 128).unwrap();
    let engine = QueryEngine::new(&store).with_synopsis(true);
    let none = Predicate::new(CmpOp::Gt, 2000.0).unwrap();
    let c = engine
        .aggregate_where(&sel, AggregateFn::Count, &none)
        .unwrap();
    assert_eq!(c, 0.0);
    let (phys, logi) = u_reads(&store);
    assert_eq!((phys, logi), (0, 0), "all-False scan must not touch U");
}

#[test]
fn appended_shards_emit_synopses_and_keep_pruning() {
    // Rows appended under the frozen factors land in a fresh shard with
    // its own synopsis: a selective `where` over the grown store still
    // answers bitwise against the exact scan, and the fresh shard's
    // entry carries a synopsis CRC.
    let x = wavy(40, 24, 7);
    let tmp = TestDir::new("ats-predpush-append");
    let dir = tmp.file("store");
    SequenceStore::builder()
        .budget(SpaceBudget::from_percent(20.0))
        .shards(2)
        .time_blocks(1) // row append only supports single-block stores
        .build(&x)
        .unwrap()
        .save(&dir)
        .unwrap();
    let batch = wavy(8, 24, 13);
    append_rows(&dir, &batch, 1, None).unwrap();

    let store = TimeBlockedStore::open(&dir, 128).unwrap();
    let shards = &store.blocks().first().unwrap().manifest().shards;
    assert_eq!(shards.len(), 3);
    assert!(
        shards.iter().all(|s| s.crc_synopsis.is_some()),
        "every shard, including the appended one, carries a synopsis"
    );

    let sel = Selection {
        rows: Axis::All,
        cols: Axis::All,
    };
    let pred = Predicate::new(CmpOp::Ge, 6.0).unwrap();
    let pruned = QueryEngine::new(&store).with_synopsis(true);
    let exact = QueryEngine::new(&store).with_synopsis(false);
    for f in AggregateFn::ALL {
        let a = pruned.aggregate_where(&sel, f, &pred).unwrap();
        let b = exact.aggregate_where(&sel, f, &pred).unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "{f:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Over arbitrary (rows, cols, time blocks, shards, threads) and an
    /// arbitrary predicate whose threshold is a served cell value (so
    /// selectivity actually varies and `=` sometimes matches), the
    /// pruned scan answers bitwise what the exact scan answers for every
    /// aggregate, and both agree with a per-cell baseline.
    #[test]
    fn where_aggregates_bitwise_equal_exact_scan(
        rows in 8usize..28,
        cols in 4usize..22,
        braw in 1usize..6,
        shards in 1usize..4,
        threads in 1usize..4,
        seed in 0u64..1000,
        opi in 0usize..5,
        qraw in 0usize..1000,
    ) {
        let b = 1 + braw % (cols / 4).max(1);
        let x = wavy(rows, cols, seed);
        let tmp = TestDir::new("ats-predpush-prop");
        let dir = tmp.file("store");
        SequenceStore::builder()
            .budget(SpaceBudget::from_percent(60.0))
            .time_blocks(b)
            .shards(shards)
            .build(&x)
            .unwrap()
            .save(&dir)
            .unwrap();
        let store = TimeBlockedStore::open(&dir, 128).unwrap();

        let ops = [CmpOp::Gt, CmpOp::Ge, CmpOp::Lt, CmpOp::Le, CmpOp::Eq];
        let (ti, tj) = (qraw % rows, (qraw / 7) % cols);
        let threshold = store.cell(ti, tj).unwrap();
        prop_assert!(threshold.is_finite());
        let pred = Predicate::new(ops[opi], threshold).unwrap();
        let sel = Selection { rows: Axis::All, cols: Axis::All };

        // Per-cell baseline over the store's own served values.
        let mut matched = OnlineStats::new();
        for i in 0..rows {
            for j in 0..cols {
                let v = store.cell(i, j).unwrap();
                if pred.eval(v) {
                    matched.push(v);
                }
            }
        }

        let pruned = QueryEngine::new(&store).with_threads(threads).with_synopsis(true);
        let exact = QueryEngine::new(&store).with_threads(threads).with_synopsis(false);
        for f in AggregateFn::ALL {
            let a = pruned.aggregate_where(&sel, f, &pred);
            let b = exact.aggregate_where(&sel, f, &pred);
            match (a, b) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?}", f),
                (Err(_), Err(_)) => {} // zero matches: both refuse alike
                (a, b) => prop_assert!(false, "{:?}: pruned {:?} vs exact {:?}", f, a, b),
            }
        }

        // Count, min, max agree bitwise with the per-cell fold; sum is
        // merge-order sensitive, so it gets a tolerance.
        let n = matched.count() as f64;
        prop_assert_eq!(
            pruned.aggregate_where(&sel, AggregateFn::Count, &pred).unwrap().to_bits(),
            n.to_bits()
        );
        if matched.count() > 0 {
            prop_assert_eq!(
                pruned.aggregate_where(&sel, AggregateFn::Min, &pred).unwrap().to_bits(),
                matched.min().to_bits()
            );
            prop_assert_eq!(
                pruned.aggregate_where(&sel, AggregateFn::Max, &pred).unwrap().to_bits(),
                matched.max().to_bits()
            );
            let got = pruned.aggregate_where(&sel, AggregateFn::Sum, &pred).unwrap();
            prop_assert!(
                (got - matched.sum()).abs() <= 1e-9 * matched.sum().abs().max(1.0),
                "sum {} vs {}", got, matched.sum()
            );
        }
    }
}
