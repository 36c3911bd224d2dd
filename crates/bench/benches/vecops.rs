//! Kernel-width microbenches: narrow dot/axpy vs the fused 4- and
//! 8-wide variants on identical data.
//!
//! The widened kernels exist to amortize the shared-operand stream
//! (`x` for axpy, `a` for dot) across independent lanes; these benches
//! make the claimed win (or parity, on narrow machines) measurable per
//! commit. `atsbench`'s `linalg.*` probes sample the same kernels on
//! every benchmark run; this Criterion target is the interactive view.

// ats-lint: allow(lint-table) — criterion_group! generates undocumented glue fns; scoped to this bench target
#![allow(missing_docs)]

use ats_linalg::vecops;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const LEN: usize = 4096;
const LANES: usize = 8;

fn lanes_data() -> (Vec<f64>, Vec<Vec<f64>>) {
    let a: Vec<f64> = (0..LEN).map(|i| (i as f64 * 0.37).sin()).collect();
    let bs: Vec<Vec<f64>> = (0..LANES)
        .map(|l| {
            (0..LEN)
                .map(|i| ((i + l * 17) as f64 * 0.21).cos())
                .collect()
        })
        .collect();
    (a, bs)
}

fn bench_dot_widths(c: &mut Criterion) {
    let (a, bs) = lanes_data();
    let mut group = c.benchmark_group("dot_width");
    group.throughput(Throughput::Elements((LANES * LEN) as u64));

    group.bench_function(BenchmarkId::from_parameter("narrow_x8"), |bch| {
        bch.iter(|| {
            let mut acc = 0.0;
            for b in &bs {
                acc += vecops::dot(black_box(&a), black_box(b));
            }
            acc
        })
    });
    group.bench_function(BenchmarkId::from_parameter("dot4_x2"), |bch| {
        bch.iter(|| {
            let lo = vecops::dot4(black_box(&a), &bs[0], &bs[1], &bs[2], &bs[3]);
            let hi = vecops::dot4(black_box(&a), &bs[4], &bs[5], &bs[6], &bs[7]);
            (lo, hi)
        })
    });
    group.bench_function(BenchmarkId::from_parameter("dot8"), |bch| {
        bch.iter(|| {
            let refs: [&[f64]; 8] = std::array::from_fn(|l| bs[l].as_slice());
            vecops::dot8(black_box(&a), refs)
        })
    });
    group.finish();
}

fn bench_axpy_widths(c: &mut Criterion) {
    let (a, _) = lanes_data();
    let alpha: [f64; 8] = std::array::from_fn(|l| 0.5 + l as f64 * 0.125);
    let mut ys: Vec<Vec<f64>> = vec![vec![0.0; LEN]; LANES];
    let mut group = c.benchmark_group("axpy_width");
    group.throughput(Throughput::Elements((LANES * LEN) as u64));

    group.bench_function(BenchmarkId::from_parameter("narrow_x8"), |bch| {
        bch.iter(|| {
            for (l, y) in ys.iter_mut().enumerate() {
                vecops::axpy(alpha[l], black_box(&a), y);
            }
        })
    });
    group.bench_function(BenchmarkId::from_parameter("axpy8"), |bch| {
        bch.iter(|| {
            let mut it = ys.iter_mut();
            let mut refs: [&mut [f64]; 8] =
                std::array::from_fn(|_| it.next().map(|v| v.as_mut_slice()).expect("8 lanes"));
            vecops::axpy8(alpha, black_box(&a), &mut refs);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dot_widths, bench_axpy_widths);
criterion_main!(benches);
