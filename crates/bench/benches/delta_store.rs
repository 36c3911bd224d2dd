//! Delta-store probe cost: the §4.2 Bloom-filter ablation.
//!
//! The paper suggests the Bloom filter "would predict the majority of
//! non-outliers, and thus save several probes into the hash table".
//! Measured here: hit and miss probes with and without the filter, at
//! outlier densities bracketing real SVDD stores — and what a *row*
//! costs to patch from the store's row-major view against probing each
//! of its columns.

// ats-lint: allow(lint-table) — criterion_group! generates undocumented glue fns; scoped to this bench target
#![allow(missing_docs)]

use ats_compress::delta::DeltaStore;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

const COLS: usize = 366;

fn build(outliers: usize, bloom: bool) -> DeltaStore {
    DeltaStore::build(
        COLS,
        (0..outliers).map(|i| (i * 7 / COLS, (i * 7) % COLS, i as f64)),
        bloom,
    )
    .expect("delta store")
}

fn bench_miss_probes(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta_probe_miss");
    for &outliers in &[1_000usize, 50_000] {
        for &bloom in &[false, true] {
            let store = build(outliers, bloom);
            let label = format!("{outliers}_{}", if bloom { "bloom" } else { "nobloom" });
            group.bench_with_input(BenchmarkId::from_parameter(label), &store, |b, s| {
                let mut i = 1_000_000usize; // guaranteed misses
                b.iter(|| {
                    i += 1;
                    black_box(s.probe(i, i % COLS))
                })
            });
        }
    }
    group.finish();
}

fn bench_hit_probes(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta_probe_hit");
    for &bloom in &[false, true] {
        let store = build(50_000, bloom);
        let label = if bloom { "bloom" } else { "nobloom" };
        group.bench_with_input(BenchmarkId::from_parameter(label), &store, |b, s| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 7) % 50_000;
                black_box(s.probe(i * 7 / COLS, (i * 7) % COLS))
            })
        });
    }
    group.finish();
}

/// Patching one reconstructed 366-cell row: one walk of the row's run in
/// the row-major view vs. 366 Bloom-plus-table probes, over a 2 000-row
/// store with 1 % and 5 % of its cells outliers.
fn bench_row_patch(c: &mut Criterion) {
    const ROWS: usize = 2_000;
    let mut group = c.benchmark_group("row_patch");
    for &percent in &[1usize, 5] {
        // Every (100 / percent)-th cell in row-major order is an outlier.
        let stride = 100 / percent;
        let store = DeltaStore::build(
            COLS,
            (0..ROWS * COLS)
                .step_by(stride)
                .map(|o| (o / COLS, o % COLS, o as f64)),
            true,
        )
        .expect("delta store");
        let mut row = vec![0.0f64; COLS];
        group.bench_with_input(
            BenchmarkId::new("row_view", format!("{percent}pct")),
            &store,
            |b, s| {
                let mut i = 0usize;
                b.iter(|| {
                    i = (i + 7) % ROWS;
                    s.patch_row(i, &mut row);
                    black_box(row[0])
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("probe_per_cell", format!("{percent}pct")),
            &store,
            |b, s| {
                let mut i = 0usize;
                b.iter(|| {
                    i = (i + 7) % ROWS;
                    for (j, o) in row.iter_mut().enumerate() {
                        if let Some(d) = s.probe(i, j) {
                            *o += d;
                        }
                    }
                    black_box(row[0])
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_miss_probes,
    bench_hit_probes,
    bench_row_patch
);
criterion_main!(benches);
