//! Quickstart: compress a time-sequence dataset, query it, check errors.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the paper's whole pipeline on a small synthetic calling-pattern
//! dataset: compress with SVDD at a 10% space budget, answer the two
//! query classes of §1 (cell + aggregate), compare against ground truth,
//! and reproduce the Table 1 / Eq. 5 toy decomposition.

use adhoc_ts::compress::{SpaceBudget, SvdCompressed};
use adhoc_ts::core::store::{Method, SequenceStore};
use adhoc_ts::data::{generate_phone, PhoneConfig};
use adhoc_ts::linalg::Matrix;
use adhoc_ts::query::engine::{aggregate_exact, AggregateFn};
use adhoc_ts::query::selection::{Axis, Selection};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("adhoc-ts v{} — quickstart\n", adhoc_ts::VERSION);

    // ------------------------------------------------ 1. a dataset ----
    let dataset = generate_phone(&PhoneConfig {
        customers: 1_000,
        days: 120,
        ..PhoneConfig::default()
    });
    println!(
        "dataset {}: {} customers x {} days ({} KB uncompressed)",
        dataset.name(),
        dataset.rows(),
        dataset.cols(),
        dataset.uncompressed_bytes(8) / 1024
    );

    // ------------------------------------- 2. compress with SVDD ------
    let store = SequenceStore::builder()
        .method(Method::Svdd)
        .budget(SpaceBudget::from_percent(10.0))
        .threads(4) // parallel build passes and aggregate-query scans
        .build(dataset.matrix())?;
    println!(
        "compressed with {} to {:.2}% of original ({} KB)\n",
        store.method().name(),
        store.space_ratio() * 100.0,
        store.storage_bytes() / 1024
    );

    // ------------------------------------------- 3. cell queries ------
    // "what was the amount of sales to customer 42 on day 17?"
    let truth = dataset.matrix()[(42, 17)];
    let approx = store.cell(42, 17)?;
    println!("cell (42, 17): true {truth:10.2}   reconstructed {approx:10.2}");

    // -------------------------------------- 4. aggregate queries ------
    // "average spend of customers 100..200 on the first 30 days"
    let sel = Selection {
        rows: Axis::Range(100, 200),
        cols: Axis::Range(0, 30),
    };
    let exact = aggregate_exact(dataset.matrix(), &sel, AggregateFn::Avg)?;
    let est = store.aggregate(&sel, AggregateFn::Avg)?;
    println!(
        "avg over 100 customers x 30 days: true {exact:10.4}  approx {est:10.4}  (Q_err {:.4}%)",
        100.0 * (exact - est).abs() / exact.abs()
    );

    // -------------------------------------------- 5. error report -----
    let report = store.error_report(dataset.matrix())?;
    println!(
        "\nerror report: RMSPE {:.2}%   worst cell {:.1}% of sigma   median << mean",
        report.rmspe * 100.0,
        report.max_normalized_error * 100.0
    );

    // -------------------------- 6. the paper's Table 1 toy matrix -----
    println!("\nTable 1 toy matrix (paper Eq. 5):");
    let toy = Matrix::from_rows(vec![
        vec![1., 1., 1., 0., 0.],
        vec![2., 2., 2., 0., 0.],
        vec![1., 1., 1., 0., 0.],
        vec![5., 5., 5., 0., 0.],
        vec![0., 0., 0., 2., 2.],
        vec![0., 0., 0., 3., 3.],
        vec![0., 0., 0., 1., 1.],
    ])?;
    let svd = SvdCompressed::compress(&toy, 2, 1)?;
    println!(
        "  k = {} (two 'blobs': weekday + weekend patterns)",
        svd.k()
    );
    println!(
        "  singular values: {:.2}, {:.2}  (paper: 9.64, 5.29)",
        svd.lambda()[0],
        svd.lambda()[1]
    );

    // SVDD round-trip sanity: every stored value is queryable.
    let mut max_err: f64 = 0.0;
    for i in 0..dataset.rows() {
        for j in [0usize, dataset.cols() / 2, dataset.cols() - 1] {
            let e = (store.cell(i, j)? - dataset.matrix()[(i, j)]).abs();
            max_err = max_err.max(e);
        }
    }
    println!("\nsampled worst absolute error: {max_err:.2}");
    println!("done.");
    Ok(())
}
