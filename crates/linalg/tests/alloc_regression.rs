//! Allocation-count regression test for the hot reconstruction kernels.
//!
//! A row reconstruction once allocated a fresh `Vec` per component per
//! row (a strided column gather of `V`); the panel kernels that serve
//! every store must stay allocation-free once their scratch is set up. A
//! counting global allocator pins that: any future allocation in these
//! loops fails the test rather than silently regressing throughput.
//!
//! The counting allocator needs `unsafe impl GlobalAlloc`; the allow below
//! scopes that exemption to this test binary only — library code stays under
//! the workspace-wide `unsafe_code = "deny"`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ats_linalg::kernels::{self, VPanel};
use ats_linalg::{sym_eigen, Matrix};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> usize {
    ALLOCS.load(Ordering::SeqCst)
}

/// Single test so no sibling test thread can allocate concurrently and
/// pollute the counter.
#[test]
fn reconstruction_hot_paths_do_not_allocate() {
    // The factors of X's Gram route (Lemma 3.2); the rows of X stand in
    // for U, whose values the allocation count does not depend on.
    let x = Matrix::from_fn(16, 12, |i, j| ((i * 7 + j * 3) as f64).sin() * 4.0);
    let eig = sym_eigen(&x.gram()).unwrap();
    let v = eig.vectors;
    let lambda: Vec<f64> = eig.values.iter().map(|l| l.max(0.0).sqrt()).collect();
    let k = lambda.len();
    let mut out = vec![0.0; 12];

    // Scratch is provided by the caller, the kernels themselves must not
    // touch the allocator.
    let panel = VPanel::from_v(&v);
    let mut coef = vec![0.0; k];
    let mut block = vec![0.0; 16 * 12];
    let cols = [0usize, 5, 11, 3, 3, 7, 1];
    let mut cells = vec![0.0; cols.len()];

    // Warm-up outside the measured window.
    kernels::reconstruct_row(x.row(0), &lambda, &panel, &mut out);
    let before = alloc_count();
    for i in 0..16 {
        kernels::reconstruct_row(x.row(i), &lambda, &panel, &mut out);
        kernels::fuse_coefficients(&lambda, x.row(i), &mut coef);
        kernels::reconstruct_cells(&coef, &v, &cols, &mut cells).unwrap();
    }
    kernels::reconstruct_rows(x.as_slice(), &lambda, &panel, &mut block).unwrap();
    let grew = alloc_count() - before;
    assert_eq!(grew, 0, "panel kernels allocated {grew} times");
}
