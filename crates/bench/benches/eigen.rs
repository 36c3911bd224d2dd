//! The production tridiagonal-QL eigensolver across the `M` range the
//! paper cares about (`M` is "of the order of hundreds").

// ats-lint: allow(lint-table) — criterion_group! generates undocumented glue fns; scoped to this bench target
#![allow(missing_docs)]

use ats_linalg::{sym_eigen, Matrix};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};

fn gram_like(m: usize, seed: u64) -> Matrix {
    // A realistic Gram matrix: XᵀX of a structured 4·m × m matrix.
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let x = Matrix::from_fn(4 * m, m, |i, j| {
        ((i % 5) + 1) as f64 * if j % 7 < 5 { 1.0 } else { 0.2 } + rng.gen_range(-0.1..0.1)
    });
    x.gram()
}

fn bench_ql(c: &mut Criterion) {
    let mut group = c.benchmark_group("sym_eigen_ql");
    group.sample_size(10);
    for m in [64usize, 128, 256, 366] {
        let a = gram_like(m, 1);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| black_box(sym_eigen(&a).expect("eigen")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ql);
criterion_main!(benches);
