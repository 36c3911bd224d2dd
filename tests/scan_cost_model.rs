//! The aggregate scans held against their cost model: per scanned cell a
//! scan pays the reconstruction kernel and one `OnlineStats::push`;
//! deltas, `U` fetches and tile classification are paid per row, per run
//! of rows or per tile band. Each mechanism behind that has an
//! equivalence it must keep, and each test here fails when its mechanism
//! is wrong:
//!
//! - a row patched from the delta store's row-major view is the row the
//!   per-cell probe serves (in memory and from disk, full rows, row
//!   blocks and arbitrary cell lists);
//! - a run read of `U` costs the pages of the single-row reads it
//!   replaces and far fewer system calls;
//! - a dense `where` block never fetches a row of a band its zone map
//!   proved empty;
//! - a sparse-column aggregate fetches `U` once per row, not per cell.
//!
//! Layouts are pinned with `.shards(..)`/`.time_blocks(..)` and every
//! engine pins `.with_synopsis(..)`, so the CI legs that move the
//! defaults assert the same thing.

use adhoc_ts::compress::{CompressedMatrix, SpaceBudget, SvddCompressed, SvddOptions};
use adhoc_ts::core::shard::ShardedStore;
use adhoc_ts::core::store::SequenceStore;
use adhoc_ts::core::timeblock::TimeBlockedStore;
use adhoc_ts::linalg::Matrix;
use adhoc_ts::query::engine::{AggregateFn, QueryEngine};
use adhoc_ts::query::predicate::{CmpOp, Predicate};
use adhoc_ts::query::selection::{Axis, Selection};
use ats_common::{OnlineStats, TestDir};
use proptest::prelude::*;

/// Rows fetched per `rows_into` call by the dense scans
/// (`ats_query::engine::AGG_BLOCK_ROWS`, crate-private).
const AGG_BLOCK_ROWS: usize = 8;

/// Low-rank data plus `spikes` seeded outliers — the cells an SVDD build
/// keeps as deltas — scattered so that some rows carry several, most
/// none, and the last rows (past the last delta) none at all.
fn spiky(n: usize, m: usize, spikes: usize, seed: u64) -> Matrix {
    let mut x = Matrix::from_fn(n, m, |i, j| {
        ((i % 5) + 1) as f64
            * if (j + seed as usize) % 7 < 5 {
                2.0
            } else {
                0.3
            }
    });
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..spikes {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let i = (state % (n as u64 * 3 / 4).max(1)) as usize;
        let j = ((state >> 20) % m as u64) as usize;
        x[(i, j)] += 100.0 + (state % 50) as f64;
    }
    x
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every row-shaped read of `c` against its own per-cell reads: the
/// full row, a block of rows (unsorted, repeated), and a cell list with
/// repeats in no order.
fn assert_row_reads_equal_cell_reads(c: &dyn CompressedMatrix, seed: u64) {
    let (n, m) = (c.rows(), c.cols());
    let cell_row = |i: usize| -> Vec<f64> { (0..m).map(|j| c.cell(i, j).unwrap()).collect() };
    let mut row = vec![0.0; m];
    for i in 0..n {
        c.row_into(i, &mut row).unwrap();
        assert_eq!(bits(&row), bits(&cell_row(i)), "row_into({i})");
    }
    // Consecutive runs, a jump, a repeat, a descent.
    let picks: Vec<usize> = [0, 1, 2, 3, n - 1, n / 2, n / 2 + 1, 3, 2, n - 2, n - 1]
        .into_iter()
        .map(|i| i % n)
        .collect();
    let mut block = vec![0.0; picks.len() * m];
    c.rows_into(&picks, &mut block).unwrap();
    for (&i, got) in picks.iter().zip(block.chunks(m)) {
        assert_eq!(bits(got), bits(&cell_row(i)), "rows_into row {i}");
    }
    for i in 0..n {
        let req: Vec<usize> = (0..m + 3)
            .map(|t| (t * 7 + i * 3 + seed as usize) % m)
            .rev()
            .collect();
        let mut got = vec![0.0; req.len()];
        c.cells_in_row(i, &req, &mut got).unwrap();
        let want: Vec<f64> = req.iter().map(|&j| c.cell(i, j).unwrap()).collect();
        assert_eq!(bits(&got), bits(&want), "cells_in_row({i})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10 })]

    /// Row patch ≡ per-cell probe, end to end: the in-memory SVDD and the
    /// sharded store opened from its saved bytes serve every row-shaped
    /// request bitwise as their own `cell()` does.
    #[test]
    fn row_shaped_reads_equal_per_cell_reads(
        rows in 24usize..70,
        cols in 6usize..30,
        spikes in 0usize..60,
        shards in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let x = spiky(rows, cols, spikes, seed);
        let mem = SvddCompressed::compress(
            &x,
            &SvddOptions::new(SpaceBudget::from_percent(30.0)),
        )
        .unwrap();
        assert_row_reads_equal_cell_reads(&mem, seed);

        let tmp = TestDir::new("ats-scan-cost-prop");
        let dir = tmp.file("store");
        SequenceStore::builder()
            .budget(SpaceBudget::from_percent(30.0))
            .shards(shards)
            .time_blocks(1)
            .build(&x)
            .unwrap()
            .save(&dir)
            .unwrap();
        // A 4-page pool: run reads and pool reads interleave and evict.
        let disk = ShardedStore::open(&dir, 4).unwrap();
        assert_row_reads_equal_cell_reads(&disk, seed);
    }
}

/// Save `x` under the given layout and reopen it.
fn saved(
    tmp: &TestDir,
    x: &Matrix,
    shards: usize,
    blocks: usize,
    pool_pages: usize,
) -> TimeBlockedStore {
    let dir = tmp.file(format!("store-{shards}x{blocks}"));
    SequenceStore::builder()
        .budget(SpaceBudget::from_percent(25.0))
        .shards(shards)
        .time_blocks(blocks)
        .build(x)
        .unwrap()
        .save(&dir)
        .unwrap();
    TimeBlockedStore::open(&dir, pool_pages).unwrap()
}

#[test]
fn dense_scan_reads_each_block_of_consecutive_rows_with_one_call() {
    let x = spiky(150, 32, 40, 5);
    let tmp = TestDir::new("ats-scan-cost-runs");
    for (shards, blocks) in [(1usize, 1usize), (3, 4)] {
        let store = saved(&tmp, &x, shards, blocks, 16);
        QueryEngine::new(&store)
            .aggregate(&Selection::all(), AggregateFn::Sum)
            .unwrap();
        let io = store.io_snapshot();
        // Pages are counted as before: one logical and one physical read
        // per (row, time block), none of them a pool hit.
        let pages = (150 * blocks) as u64;
        assert_eq!(
            (io.logical_reads, io.physical_reads, io.cache_hits),
            (pages, pages, 0),
            "{shards}x{blocks}"
        );
        // System calls are not: at most one per block of AGG_BLOCK_ROWS
        // rows in each (shard, time block).
        let budget: usize = store
            .blocks()
            .iter()
            .flat_map(|b| b.manifest().shards.iter())
            .map(|s| s.rows().div_ceil(AGG_BLOCK_ROWS))
            .sum();
        let calls = store.read_calls();
        assert!(
            calls as usize <= budget && calls < pages / 4,
            "{shards}x{blocks}: {calls} read calls for {pages} pages (budget {budget})"
        );

        // The run reads went past the pool: a point query now misses,
        // then hits — the pool holds what point queries put there.
        store.cell(5, 3).unwrap();
        store.cell(5, 4).unwrap();
        let after = store.io_snapshot();
        assert_eq!(after.physical_reads, pages + 1);
        assert_eq!(after.cache_hits, 1);

        // A scattered selection has no runs: every row is its own call,
        // and the answer is the per-cell fold's.
        let store = saved(&tmp, &x, shards, blocks, 16);
        let scattered: Vec<usize> = (0..150).step_by(3).collect();
        let sel = Selection {
            rows: Axis::set(scattered.clone()),
            cols: Axis::All,
        };
        let got = QueryEngine::new(&store)
            .aggregate(&sel, AggregateFn::Sum)
            .unwrap();
        assert_eq!(
            store.read_calls(),
            store.io_snapshot().physical_reads,
            "non-consecutive rows stay on the pool path"
        );
        if (shards, blocks) == (1, 1) {
            let mut want = OnlineStats::new();
            for &i in &scattered {
                for j in 0..32 {
                    want.push(store.cell(i, j).unwrap());
                }
            }
            assert_eq!(got.to_bits(), want.sum().to_bits());
        }
    }
}

#[test]
fn dense_where_block_never_fetches_a_band_proved_false() {
    // 8-row bands alternate low (≈ 1–10) and high (≈ 1000+): `> 500`
    // proves the low bands False and the high bands True, so a value
    // aggregate fetches the high bands whole (a dense fetch list: the
    // rows_into path) and must not touch one row of a low band — though
    // the selection starts mid-band, so blocks of AGG_BLOCK_ROWS
    // selected rows straddle band edges.
    let x = Matrix::from_fn(96, 40, |i, j| {
        let base = ((i % 5) + 1) as f64 * if j % 7 < 5 { 2.0 } else { 0.3 };
        if (i / 8) % 2 == 1 {
            base + 1000.0
        } else {
            base
        }
    });
    let tmp = TestDir::new("ats-scan-cost-bands");
    let pred = Predicate::new(CmpOp::Gt, 500.0).unwrap();
    let sel = Selection {
        rows: Axis::Range(4, 92),
        cols: Axis::All,
    };
    // Selected rows in high bands: bands 1, 3, 5, 7, 9 whole (40) and
    // rows 88..92 of band 11.
    let high_rows = 5 * 8 + 4;
    for (shards, blocks) in [(1usize, 1usize), (3, 2)] {
        let exact_store = saved(&tmp, &x, shards, blocks, 64);
        let exact = QueryEngine::new(&exact_store).with_synopsis(false);
        let store = saved(&tmp, &x, shards, blocks, 64);
        let pruned = QueryEngine::new(&store).with_synopsis(true);
        for f in [AggregateFn::Sum, AggregateFn::Avg, AggregateFn::Max] {
            let before = store.io_snapshot();
            let got = pruned.aggregate_where(&sel, f, &pred).unwrap();
            let want = exact.aggregate_where(&sel, f, &pred).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{f:?} {shards}x{blocks}");
            let after = store.io_snapshot();
            let pages = (high_rows * blocks) as u64;
            assert_eq!(
                after.logical_reads - before.logical_reads,
                pages,
                "{f:?} {shards}x{blocks}: only rows of True bands are fetched"
            );
            assert!(after.physical_reads - before.physical_reads <= pages);
        }
        // The dense side was taken: fewer calls than pages. (Runs are
        // cut at band and shard edges, so not one per eight rows.)
        assert!(
            store.read_calls() < store.io_snapshot().physical_reads,
            "{shards}x{blocks}: {} calls",
            store.read_calls()
        );
        // `count` proves the True bands from their tile counts too: no
        // I/O at all, and the exact count.
        let store = saved(&tmp, &x, shards, blocks, 64);
        let n = QueryEngine::new(&store)
            .with_synopsis(true)
            .aggregate_where(&sel, AggregateFn::Count, &pred)
            .unwrap();
        assert_eq!(n, (high_rows * 40) as f64);
        let io = store.io_snapshot();
        assert_eq!((io.logical_reads, io.physical_reads), (0, 0));
    }
}

#[test]
fn sparse_column_aggregate_fetches_u_once_per_row() {
    // Two of block 0's twelve columns: the sparse side of the 1/3 rule.
    let x = spiky(64, 24, 30, 9);
    let tmp = TestDir::new("ats-scan-cost-sparse");
    let store = saved(&tmp, &x, 1, 2, 256);
    let sel = Selection {
        rows: Axis::Range(0, 64),
        cols: Axis::set(vec![3, 7]),
    };
    let got = QueryEngine::new(&store)
        .aggregate(&sel, AggregateFn::Sum)
        .unwrap();
    let per_block = store.block_io_snapshots();
    assert_eq!(
        per_block[0].logical_reads, 64,
        "one U fetch per row for both cells, not one per cell"
    );
    assert_eq!(per_block[1].logical_reads, 0, "the other block is not read");
    let mut want = OnlineStats::new();
    for i in 0..64 {
        for j in [3, 7] {
            want.push(store.cell(i, j).unwrap());
        }
    }
    assert_eq!(got.to_bits(), want.sum().to_bits());
}

#[test]
fn each_aggregate_equals_aggregate_all_and_an_always_true_where_on_saved_stores() {
    // The engine-level matrix of this equivalence (layouts × threads ×
    // NaN) runs on exact mocks in `ats-query`; here the same identity on
    // real stores, where the two leaves run the blocked kernel, run
    // reads and delta patches: each aggregate, the matching field of
    // `aggregate_all`, and an always-true `where` agree to the bit.
    let x = spiky(90, 28, 50, 3);
    let tmp = TestDir::new("ats-scan-cost-folds");
    let everything = Predicate::new(CmpOp::Gt, -1e12).unwrap();
    for (shards, blocks) in [(1usize, 1usize), (3, 4)] {
        let store = saved(&tmp, &x, shards, blocks, 32);
        for threads in [1usize, 3] {
            let q = QueryEngine::new(&store).with_threads(threads);
            for sel in [
                Selection::all(),
                Selection::time_range(Axis::Range(5, 83), 3, 25),
                Selection {
                    rows: Axis::Range(0, 90),
                    cols: Axis::set(vec![2, 20]),
                },
            ] {
                let all = q.aggregate_all(&sel).unwrap();
                let fields = [
                    all.sum,
                    all.avg,
                    all.count as f64,
                    all.min,
                    all.max,
                    all.stddev,
                ];
                for (f, want) in AggregateFn::ALL.into_iter().zip(fields) {
                    let ctx = format!("{f:?} {shards}x{blocks} threads={threads} {sel:?}");
                    let got = q.aggregate(&sel, f).unwrap();
                    assert_eq!(got.to_bits(), want.to_bits(), "{ctx}");
                    for synopsis in [true, false] {
                        let w = q
                            .clone()
                            .with_synopsis(synopsis)
                            .aggregate_where(&sel, f, &everything)
                            .unwrap();
                        assert_eq!(w.to_bits(), want.to_bits(), "where {ctx}");
                    }
                }
            }
        }
    }
}
