//! Streaming-pass throughput and the SVDD 3-pass-vs-naive ablation.
//!
//! - pass-1 Gram accumulation (Fig. 2), the one blocked fold at 1/2/4
//!   workers;
//! - full plain-SVD 2-pass build;
//! - the paper's headline algorithmic win: the 3-pass SVDD (Fig. 5)
//!   against the straightforward `3·k_max`-pass algorithm (Fig. 4);
//! - thread scaling of the whole SVDD build (passes 2 and 3 dominate
//!   once pass 1 is parallel) at 1/2/4/8 workers.

// ats-lint: allow(lint-table) — criterion_group! generates undocumented glue fns; scoped to this bench target
#![allow(missing_docs)]

use ats_compress::gram::compute_gram_parallel;
use ats_compress::{SpaceBudget, SvdCompressed, SvddCompressed, SvddOptions};
use ats_linalg::Matrix;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn structured(n: usize, m: usize) -> Matrix {
    Matrix::from_fn(n, m, |i, j| {
        ((i % 7) + 1) as f64 * if j % 7 < 5 { 2.0 } else { 0.3 }
    })
}

fn bench_gram(c: &mut Criterion) {
    let x = structured(5_000, 128);
    let mut group = c.benchmark_group("gram_pass1");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| black_box(compute_gram_parallel(&x, t).expect("gram")))
        });
    }
    group.finish();
}

fn bench_svd_build(c: &mut Criterion) {
    let x = structured(2_000, 128);
    let mut group = c.benchmark_group("svd_two_pass_build");
    group.sample_size(10);
    for k in [8usize, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| black_box(SvdCompressed::compress(&x, k, 1).expect("svd")))
        });
    }
    group.finish();
}

fn bench_svdd_three_pass_vs_naive(c: &mut Criterion) {
    // Small enough that the naive 3·k_max-pass variant finishes, large
    // enough that the gap is visible.
    let x = structured(600, 64);
    let opts = SvddOptions::new(SpaceBudget::from_percent(15.0));
    let mut group = c.benchmark_group("svdd_build");
    group.sample_size(10);
    group.bench_function("three_pass_fig5", |b| {
        b.iter(|| black_box(SvddCompressed::compress(&x, &opts).expect("svdd")))
    });
    group.bench_function("naive_fig4", |b| {
        b.iter(|| black_box(SvddCompressed::compress_naive(&x, &opts).expect("svdd")))
    });
    group.finish();
}

/// Full-spectrum input for the SVDD scaling bench. `structured` is exactly
/// rank 1, which collapses the candidate-k list to a point and makes the
/// pass-2 error sweep trivially cheap; mixing incommensurate waves keeps
/// every principal direction alive so the sweep does representative work.
fn wavy(n: usize, m: usize) -> Matrix {
    Matrix::from_fn(n, m, |i, j| {
        let (i, j) = (i as f64, j as f64);
        (i * 0.37).sin() * (j * 0.53).cos() + (i * j * 0.011).sin() + (i * 0.05 + j * 0.91).cos()
    })
}

fn bench_svdd_thread_scaling(c: &mut Criterion) {
    // Pass-2/3 scaling: 4096×64 keeps pass 1 (64×64 Gram + eigen) cheap,
    // so the timing is dominated by the row-partitioned error sweep and
    // U emission the thread knob actually spreads out.
    let x = wavy(4_096, 64);
    let mut group = c.benchmark_group("svdd_build_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let mut opts = SvddOptions::new(SpaceBudget::from_percent(15.0));
        opts.threads = threads;
        group.bench_with_input(BenchmarkId::from_parameter(threads), &opts, |b, opts| {
            b.iter(|| black_box(SvddCompressed::compress(&x, opts).expect("svdd")))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gram,
    bench_svd_build,
    bench_svdd_three_pass_vs_naive,
    bench_svdd_thread_scaling
);
criterion_main!(benches);
