//! Contract tests: every `CompressedMatrix` implementation must honour
//! the same behavioural contract, checked uniformly through trait
//! objects (the way `ats-query` actually consumes them).

use ats_compress::cluster::ClusterCompressed;
use ats_compress::dct::DctCompressed;
use ats_compress::quantized::QuantizedSvd;
use ats_compress::sampling::SampleCompressed;
use ats_compress::{CompressedMatrix, SpaceBudget, SvdCompressed, SvddCompressed, SvddOptions};
use ats_linalg::Matrix;

fn dataset() -> Matrix {
    Matrix::from_fn(240, 32, |i, j| {
        ((i % 6) + 1) as f64 * if j % 8 < 5 { 2.0 } else { 0.4 } + (i as f64 * 0.01)
    })
}

fn all_methods(x: &Matrix) -> Vec<Box<dyn CompressedMatrix>> {
    let budget = SpaceBudget::from_percent(25.0);
    vec![
        Box::new(SvdCompressed::compress_budget(x, budget, 1).unwrap()),
        Box::new(SvddCompressed::compress(x, &SvddOptions::new(budget)).unwrap()),
        Box::new(DctCompressed::compress_budget(x, budget).unwrap()),
        Box::new(QuantizedSvd::compress_budget(x, budget, 1).unwrap()),
        Box::new(ClusterCompressed::compress_budget(x, budget).unwrap()),
        Box::new(SampleCompressed::compress_budget(x, budget, 1).unwrap()),
    ]
}

#[test]
fn dimensions_reported_consistently() {
    let x = dataset();
    for c in all_methods(&x) {
        assert_eq!(c.rows(), 240, "{}", c.method_name());
        assert_eq!(c.cols(), 32, "{}", c.method_name());
    }
}

#[test]
fn row_into_agrees_with_cell() {
    let x = dataset();
    for c in all_methods(&x) {
        let mut row = vec![0.0; 32];
        for i in [0usize, 119, 239] {
            c.row_into(i, &mut row).unwrap();
            for (j, &got) in row.iter().enumerate() {
                let cell = c.cell(i, j).unwrap();
                assert!(
                    (got - cell).abs() < 1e-9,
                    "{} ({i},{j}): row {got} vs cell {cell}",
                    c.method_name()
                );
            }
        }
    }
}

#[test]
fn out_of_bounds_is_an_error_everywhere() {
    let x = dataset();
    for c in all_methods(&x) {
        assert!(c.cell(240, 0).is_err(), "{} row oob", c.method_name());
        assert!(c.cell(0, 32).is_err(), "{} col oob", c.method_name());
        let mut short = vec![0.0; 31];
        assert!(
            c.row_into(0, &mut short).is_err(),
            "{} short buffer",
            c.method_name()
        );
    }
}

#[test]
fn budget_respected_everywhere() {
    let x = dataset();
    let limit = SpaceBudget::from_percent(25.0).bytes(240, 32);
    for c in all_methods(&x) {
        assert!(
            c.storage_bytes() <= limit,
            "{}: {} > {limit}",
            c.method_name(),
            c.storage_bytes()
        );
        assert!(c.space_ratio() <= 0.25 + 1e-9, "{}", c.method_name());
        assert!(c.space_ratio() > 0.0, "{}", c.method_name());
    }
}

#[test]
fn reconstructions_are_finite() {
    let x = dataset();
    for c in all_methods(&x) {
        let mut row = vec![0.0; 32];
        for i in (0..240).step_by(37) {
            c.row_into(i, &mut row).unwrap();
            assert!(
                row.iter().all(|v| v.is_finite()),
                "{} row {i} non-finite",
                c.method_name()
            );
        }
    }
}

#[test]
fn names_unique() {
    let x = dataset();
    let names: Vec<&str> = all_methods(&x).iter().map(|c| c.method_name()).collect();
    let set: std::collections::HashSet<&str> = names.iter().copied().collect();
    assert_eq!(set.len(), names.len(), "duplicate method names: {names:?}");
}
