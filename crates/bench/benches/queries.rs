//! Query-engine latency: cell queries and aggregate queries of varying
//! selectivity over an SVDD-compressed matrix, the disk-backed store's
//! cached-read path, and the daemon's round trip over loopback.

// ats-lint: allow(lint-table) — criterion_group! generates undocumented glue fns; scoped to this bench target
#![allow(missing_docs)]

use ats_common::Result;
use ats_compress::{CompressedMatrix, SpaceBudget, SvddCompressed, SvddOptions};
use ats_core::store::SequenceStore;
use ats_core::timeblock::TimeBlockedStore;
use ats_linalg::Matrix;
use ats_query::engine::{AggregateFn, QueryEngine};
use ats_query::selection::{Axis, Selection};
use ats_query::serve::{client, serve, ServeConfig};
use ats_query::BatchRequest;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::net::TcpStream;
use std::sync::Arc;

fn dataset() -> Matrix {
    Matrix::from_fn(2_000, 128, |i, j| {
        ((i % 7) + 1) as f64 * if j % 7 < 5 { 2.0 } else { 0.3 }
    })
}

fn bench_aggregate_selectivity(c: &mut Criterion) {
    let x = dataset();
    let svdd = SvddCompressed::compress(&x, &SvddOptions::new(SpaceBudget::from_percent(10.0)))
        .expect("svdd");
    let mut group = c.benchmark_group("aggregate_avg_by_rows_selected");
    group.sample_size(10);
    for rows in [10usize, 100, 1000] {
        let sel = Selection {
            rows: Axis::Range(0, rows),
            cols: Axis::Range(0, 64),
        };
        group.bench_with_input(BenchmarkId::from_parameter(rows), &sel, |b, sel| {
            let engine = QueryEngine::new(&svdd);
            b.iter(|| black_box(engine.aggregate(sel, AggregateFn::Avg).expect("agg")))
        });
    }
    group.finish();
}

/// Build the bench dataset at the pinned 10 % budget and save it as a
/// one-block store under `name`, returning the in-memory store too.
fn saved_store(name: &str) -> (SequenceStore, std::path::PathBuf) {
    let built = SequenceStore::builder()
        .budget(SpaceBudget::from_percent(10.0))
        .shards(1)
        .time_blocks(1)
        .build(&dataset())
        .expect("build");
    let dir = std::env::temp_dir().join(format!("ats-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    built.save(&dir).expect("save");
    (built, dir)
}

fn bench_disk_store_cell(c: &mut Criterion) {
    let (_, dir) = saved_store("disk");
    let mut group = c.benchmark_group("disk_store_cell");
    // Hot: pool big enough for everything — measures the cached path.
    let hot = TimeBlockedStore::open(&dir, 4_096).expect("open");
    group.bench_function("hot_cache", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 997) % 2000;
            black_box(hot.cell(i, i % 128).expect("cell"))
        })
    });
    // Cold-ish: tiny pool forces page churn (still OS-cached I/O).
    let cold = TimeBlockedStore::open(&dir, 4).expect("open");
    group.bench_function("churning_pool", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 997) % 2000;
            black_box(cold.cell(i, i % 128).expect("cell"))
        })
    });
    group.finish();
}

fn bench_in_memory_vs_disk_row(c: &mut Criterion) {
    let (built, dir) = saved_store("row");
    let mem = built.compressed();
    let disk = TimeBlockedStore::open(&dir, 4_096).expect("open");

    let mut group = c.benchmark_group("row_reconstruction_backends");
    let mut out = vec![0.0; 128];
    group.bench_function("in_memory", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 997) % 2000;
            mem.row_into(i, &mut out).expect("row");
            black_box(out[0])
        })
    });
    group.bench_function("disk_backed", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 997) % 2000;
            disk.row_into(i, &mut out).expect("row");
            black_box(out[0])
        })
    });
    group.finish();
}

/// Forwards only the required trait methods (plus the shard layout), so
/// every batch entry point runs its default per-cell implementation —
/// the scalar baseline the blocked kernels are measured against.
struct ScalarOnly<'a>(&'a dyn CompressedMatrix);

impl CompressedMatrix for ScalarOnly<'_> {
    fn rows(&self) -> usize {
        self.0.rows()
    }
    fn cols(&self) -> usize {
        self.0.cols()
    }
    fn cell(&self, i: usize, j: usize) -> Result<f64> {
        self.0.cell(i, j)
    }
    fn storage_bytes(&self) -> usize {
        self.0.storage_bytes()
    }
    fn method_name(&self) -> &'static str {
        self.0.method_name()
    }
    fn shard_starts(&self) -> Vec<usize> {
        self.0.shard_starts()
    }
}

/// Build a saved SVDD store split into `shards` row-range shards and
/// reopen it disk-paged.
fn sharded_store(x: &Matrix, shards: usize, tag: &str) -> TimeBlockedStore {
    let dir = std::env::temp_dir().join(format!("ats-bench-{tag}-{shards}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SequenceStore::builder()
        .budget(SpaceBudget::from_percent(10.0))
        .shards(shards)
        .build(x)
        .expect("build")
        .save(&dir)
        .expect("save");
    TimeBlockedStore::open(&dir, 4_096).expect("open")
}

fn bench_batch_cells(c: &mut Criterion) {
    let x = dataset();
    // 256 requests over 64 distinct rows: duplicated columns, unsorted
    // rows scattered across every shard.
    let cells: Vec<(usize, usize)> = (0..256usize)
        .map(|t| ((t * 37 % 64) * 31 % 2_000, t * 53 % 128))
        .collect();
    let req = BatchRequest::new(cells.clone());
    let mut group = c.benchmark_group("batch_cells");
    group.sample_size(10);
    for shards in [1usize, 4, 8] {
        let store = sharded_store(&x, shards, "batch");
        let engine = QueryEngine::new(&store);
        group.bench_with_input(BenchmarkId::new("batched", shards), &req, |b, req| {
            b.iter(|| black_box(engine.batch_cells(req).expect("batch")))
        });
        group.bench_with_input(
            BenchmarkId::new("per_cell_loop", shards),
            &cells,
            |b, cells| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for &(i, j) in cells {
                        acc += engine.cell(i, j).expect("cell");
                    }
                    black_box(acc)
                })
            },
        );
    }
    group.finish();
}

fn bench_blocked_aggregate(c: &mut Criterion) {
    let x = dataset();
    let sel = Selection {
        rows: Axis::Range(0, 1_000),
        cols: Axis::Range(0, 128),
    };
    let mut group = c.benchmark_group("blocked_aggregate");
    group.sample_size(10);
    for shards in [1usize, 4, 8] {
        let store = sharded_store(&x, shards, "agg");
        group.bench_with_input(BenchmarkId::new("kernel", shards), &sel, |b, sel| {
            let engine = QueryEngine::new(&store);
            b.iter(|| black_box(engine.aggregate(sel, AggregateFn::Avg).expect("agg")))
        });
        let scalar = ScalarOnly(&store);
        group.bench_with_input(BenchmarkId::new("scalar", shards), &sel, |b, sel| {
            let engine = QueryEngine::new(&scalar);
            b.iter(|| black_box(engine.aggregate(sel, AggregateFn::Avg).expect("agg")))
        });
    }
    group.finish();
}

/// The fold is what a scanned cell pays beyond its reconstruction, and
/// every aggregate pays the same one (`OnlineStats::push`): `sum` and
/// `avg` over the same disk store must read alike. `atsbench` draws its
/// scan queries from five aggregates on that assumption.
fn bench_aggregate_fold(c: &mut Criterion) {
    let store = sharded_store(&dataset(), 4, "fold");
    let engine = QueryEngine::new(&store);
    let sel = Selection::all();
    let mut group = c.benchmark_group("aggregate_fold");
    group.sample_size(10);
    for f in [AggregateFn::Sum, AggregateFn::Avg] {
        group.bench_with_input(BenchmarkId::from_parameter(f.name()), &sel, |b, sel| {
            b.iter(|| black_box(engine.aggregate(sel, f).expect("agg")))
        });
    }
    group.finish();
}

/// The daemon over loopback with its default configuration: what one
/// request costs a waiting client (depth-1 `PING` is the socket and
/// thread floor, depth-1 `cell` adds the hand-offs through the batcher)
/// and what a pipelined one costs (32 cells in flight, as `atsbench`'s
/// `serve_mixed` drives it).
fn bench_serve_round_trip(c: &mut Criterion) {
    const DEPTH: usize = 32;
    let store = Arc::new(sharded_store(&dataset(), 1, "serve"));
    let handle = serve(QueryEngine::shared(store), ServeConfig::default(), None).expect("serve");
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_nodelay(true).expect("nodelay");
    let mut group = c.benchmark_group("serve_round_trip");
    group.bench_function("ping_depth_1", |b| {
        b.iter(|| black_box(client::round_trip(&mut s, "PING").expect("ping")))
    });
    group.bench_function("cell_depth_1", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 997) % 2000;
            black_box(client::round_trip(&mut s, &format!("cell {i} {}", i % 128)).expect("cell"))
        })
    });
    group.bench_function("cells_pipelined_32", |b| {
        let mut i = 0usize;
        b.iter(|| {
            for _ in 0..DEPTH {
                i = (i + 997) % 2000;
                client::send(&mut s, &format!("cell {i} {}", i % 128)).expect("send");
            }
            for _ in 0..DEPTH {
                black_box(client::recv(&mut s).expect("recv"));
            }
        })
    });
    group.finish();
    drop(s);
    handle.join().expect("join");
}

criterion_group!(
    benches,
    bench_aggregate_selectivity,
    bench_disk_store_cell,
    bench_in_memory_vs_disk_row,
    bench_batch_cells,
    bench_blocked_aggregate,
    bench_aggregate_fold,
    bench_serve_round_trip
);
criterion_main!(benches);
