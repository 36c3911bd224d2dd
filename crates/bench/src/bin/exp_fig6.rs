//! E1 — Figure 6: reconstruction error (RMSPE) vs disk storage (s%)
//! for clustering, DCT, SVD, and SVDD, on `phone2000` and `stocks`.
//!
//! ```sh
//! cargo run -p ats-bench --release --bin exp_fig6
//! ```
//!
//! Expected shape (paper §5.1): SVDD strictly best everywhere; DCT worst
//! on phone data but competitive on stocks; SVD ≈ clustering in between;
//! SVDD ≡ SVD at very small s (k_opt = k_max, no deltas).

use ats_bench::{fmt, phone2000, stocks, ResultTable};
use ats_compress::cluster::ClusterCompressed;
use ats_compress::dct::DctCompressed;
use ats_compress::{CompressedMatrix, SpaceBudget, SvdCompressed, SvddCompressed, SvddOptions};
use ats_data::Dataset;
use ats_query::metrics::error_report;

fn rmspe(x: &ats_linalg::Matrix, c: &dyn CompressedMatrix) -> f64 {
    error_report(x, c).expect("dims match").rmspe
}

fn run(dataset: &Dataset, csv_name: &str) {
    let x = dataset.matrix();
    let (n, m) = x.shape();
    println!(
        "\ndataset {}: N={n}, M={m}, sigma={:.2}",
        dataset.name(),
        dataset.std_dev()
    );

    let mut table = ResultTable::new(
        format!("Fig. 6 — RMSPE vs space, {}", dataset.name()),
        &["s%", "hc", "dct", "svd", "svdd", "svdd_k", "svdd_deltas"],
    );

    for pct in [1.0, 2.0, 3.0, 5.0, 7.5, 10.0, 15.0, 20.0, 25.0] {
        let budget = SpaceBudget::from_percent(pct);

        let hc = ClusterCompressed::compress_budget(x, budget).map(|c| rmspe(x, &c));
        let dct = DctCompressed::compress_budget(x, budget).map(|c| rmspe(x, &c));
        let svd = SvdCompressed::compress_budget(x, budget, 1).map(|c| rmspe(x, &c));
        let svdd = SvddCompressed::compress(x, &SvddOptions::new(budget));

        let (svdd_err, svdd_k, svdd_d) = match &svdd {
            Ok(c) => (
                fmt(rmspe(x, c) * 100.0, 3),
                c.k_opt().to_string(),
                c.num_deltas().to_string(),
            ),
            Err(_) => ("-".into(), "-".into(), "-".into()),
        };
        let cell = |r: Result<f64, _>| match r {
            Ok(v) => fmt(v * 100.0, 3),
            Err(_) => "-".into(),
        };
        table.row(vec![
            fmt(pct, 1),
            cell(hc),
            cell(dct),
            cell(svd),
            svdd_err,
            svdd_k,
            svdd_d,
        ]);
    }
    table.emit(csv_name);
}

fn main() {
    println!("E1 / Figure 6: accuracy vs space trade-off (errors in % RMSPE)");
    run(&phone2000(), "fig6_phone2000");
    run(&stocks(), "fig6_stocks");
}
