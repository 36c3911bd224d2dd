//! Sharded-store scaling: cell routing and aggregate fan-out latency as
//! the shard count grows, against the same dataset and budget. The build
//! is bit-identical at every shard count (the sharded three-pass build
//! chooses `k_opt` and the delta set globally), so any latency difference
//! is pure serving overhead: per-shard pagers, routing, and the
//! shard-order merge of aggregate partials.
//!
//! The `open_oneshot` group times what a one-shot `ats query` pays on a
//! 4-shard × 4-block store, layer by layer: the eager validator (every
//! component checksummed), `open` (manifests only), and `open` plus one
//! cold `cell` (manifests, then the one unit's files).

// ats-lint: allow(lint-table) — criterion_group! generates undocumented glue fns; scoped to this bench target
#![allow(missing_docs)]

use ats_compress::SpaceBudget;
use ats_core::store::{Method, SequenceStore};
use ats_linalg::Matrix;
use ats_query::engine::AggregateFn;
use ats_query::selection::{Axis, Selection};
use ats_storage::store_dir::validate_timeblocked_store_dir;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

fn dataset() -> Matrix {
    Matrix::from_fn(2_000, 128, |i, j| {
        ((i % 7) + 1) as f64 * if j % 7 < 5 { 2.0 } else { 0.3 }
    })
}

/// Build, save, and reopen one store per shard count (pool split across
/// shards at open, exactly as production serving does).
fn opened_stores(pool_pages: usize) -> Vec<(usize, SequenceStore, tempdir::Keep)> {
    let x = dataset();
    SHARD_COUNTS
        .iter()
        .map(|&r| {
            let dir = tempdir::Keep::new(&format!("ats-bench-shards-{r}"));
            let built = SequenceStore::builder()
                .method(Method::Svdd)
                .budget(SpaceBudget::from_percent(10.0))
                .threads(4)
                .shards(r)
                .build(&x)
                .expect("build");
            built.save(dir.path()).expect("save");
            let store = SequenceStore::open(dir.path(), pool_pages).expect("open");
            (r, store, dir)
        })
        .collect()
}

fn bench_sharded_cell(c: &mut Criterion) {
    let stores = opened_stores(4_096);
    let mut group = c.benchmark_group("sharded_cell");
    for (r, store, _dir) in &stores {
        group.bench_with_input(BenchmarkId::from_parameter(r), store, |b, store| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 997) % 2_000;
                black_box(store.cell(i, i % 128).expect("cell"))
            })
        });
    }
    group.finish();
}

fn bench_sharded_aggregate(c: &mut Criterion) {
    let stores = opened_stores(4_096);
    let sel = Selection {
        rows: Axis::All,
        cols: Axis::Range(0, 64),
    };
    let mut group = c.benchmark_group("sharded_aggregate_avg_all_rows");
    group.sample_size(10);
    for (r, store, _dir) in &stores {
        group.bench_with_input(BenchmarkId::from_parameter(r), store, |b, store| {
            b.iter(|| black_box(store.aggregate(&sel, AggregateFn::Avg).expect("agg")))
        });
    }
    group.finish();
}

/// Tiny per-shard pools: worst case for routing, every shard churns.
fn bench_sharded_cell_churning_pool(c: &mut Criterion) {
    let stores = opened_stores(32);
    let mut group = c.benchmark_group("sharded_cell_churning_pool");
    for (r, store, _dir) in &stores {
        group.bench_with_input(BenchmarkId::from_parameter(r), store, |b, store| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 997) % 2_000;
                black_box(store.cell(i, i % 128).expect("cell"))
            })
        });
    }
    group.finish();
}

fn bench_open_oneshot(c: &mut Criterion) {
    let dir = tempdir::Keep::new("ats-bench-open-oneshot");
    SequenceStore::builder()
        .method(Method::Svdd)
        .budget(SpaceBudget::from_percent(10.0))
        .shards(4)
        .time_blocks(4)
        .build(&dataset())
        .expect("build")
        .save(dir.path())
        .expect("save");
    let mut group = c.benchmark_group("open_oneshot");
    group.bench_function("validate_everything", |b| {
        b.iter(|| black_box(validate_timeblocked_store_dir(dir.path()).expect("validate")))
    });
    group.bench_function("open", |b| {
        b.iter(|| black_box(SequenceStore::open(dir.path(), 1_024).expect("open")))
    });
    group.bench_function("open_plus_cold_cell", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 997) % 2_000;
            let store = SequenceStore::open(dir.path(), 1_024).expect("open");
            black_box(store.cell(i, i % 128).expect("cell"))
        })
    });
    group.finish();
}

/// Minimal self-cleaning temp-dir holder (no external crates).
mod tempdir {
    pub struct Keep(std::path::PathBuf);

    impl Keep {
        pub fn new(tag: &str) -> Self {
            let p = std::env::temp_dir().join(format!("{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&p);
            Keep(p)
        }

        pub fn path(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for Keep {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

criterion_group!(
    benches,
    bench_sharded_cell,
    bench_sharded_aggregate,
    bench_sharded_cell_churning_pool,
    bench_open_oneshot
);
criterion_main!(benches);
