//! Ablations beyond the paper's tables: the design choices DESIGN.md
//! calls out, measured.
//!
//! ```sh
//! cargo run -p ats-bench --release --bin exp_ablation
//! ```
//!
//! - **A1 — f32-quantized factors** (b=4) vs f64 (b=8) at equal byte
//!   budget — does halving precision to double `k` pay off?
//! - **A3 — Bloom filter** in front of the delta table: measured fraction
//!   of non-outlier probes short-circuited (§4.2's "save several probes").
//! - **A4 — Lanczos vs dense QL** for pass 1's top-k eigenpairs: time and
//!   agreement at M = 366.

use ats_bench::{fmt, phone2000, timed, ResultTable};
use ats_common::BloomFilter;
use ats_compress::gram::compute_gram_parallel;
use ats_compress::quantized::QuantizedSvd;
use ats_compress::{SpaceBudget, SvdCompressed};
use ats_linalg::{lanczos_top_k, sym_eigen, LanczosOptions};
use ats_query::metrics::error_report;

fn main() {
    println!("Ablations (extensions beyond the paper's tables)\n");
    quantized_vs_f64();
    bloom_probe_savings();
    lanczos_vs_dense();
}

fn quantized_vs_f64() {
    let dataset = phone2000();
    let x = dataset.matrix();
    let mut table = ResultTable::new(
        "A1 — f32-quantized SVD vs f64 SVD at equal bytes (phone2000)",
        &["s%", "k_f64", "rmspe_f64%", "k_f32", "rmspe_f32%"],
    );
    for pct in [2.0, 5.0, 10.0, 20.0] {
        let budget = SpaceBudget::from_percent(pct);
        let f = SvdCompressed::compress_budget(x, budget, 1).expect("svd");
        let q = QuantizedSvd::compress_budget(x, budget, 1).expect("qsvd");
        table.row(vec![
            fmt(pct, 0),
            f.k().to_string(),
            fmt(error_report(x, &f).expect("r").rmspe * 100.0, 3),
            q.k().to_string(),
            fmt(error_report(x, &q).expect("r").rmspe * 100.0, 3),
        ]);
    }
    table.emit("ablation_quantized");
}

fn bloom_probe_savings() {
    // How many hash-table probes does the Bloom filter avoid for
    // non-outlier cells, at realistic outlier densities?
    let mut table = ResultTable::new(
        "A3 — Bloom filter short-circuit rate on non-outlier probes",
        &["outliers", "bits", "hashes", "fp_rate%", "probes_avoided%"],
    );
    for outliers in [1_000usize, 15_000, 100_000] {
        let bf = {
            let mut bf = BloomFilter::with_capacity(outliers, 0.01);
            for i in 0..outliers as u64 {
                bf.insert(i * 37 + 5);
            }
            bf
        };
        let misses = 200_000u64;
        let avoided = (0..misses)
            .map(|i| i * 37 + 6) // guaranteed absent
            .filter(|&k| !bf.contains(k))
            .count();
        table.row(vec![
            outliers.to_string(),
            bf.nbits().to_string(),
            bf.num_hashes().to_string(),
            fmt(bf.estimated_fp_rate() * 100.0, 3),
            fmt(100.0 * avoided as f64 / misses as f64, 2),
        ]);
    }
    table.emit("ablation_bloom");
}

fn lanczos_vs_dense() {
    let dataset = phone2000();
    let c = compute_gram_parallel(dataset.matrix(), 1).expect("gram");
    let mut table = ResultTable::new(
        "A4 — top-k eigensolver: dense QL vs Lanczos (M = 366)",
        &["k", "dense_s", "lanczos_s", "max_rel_diff"],
    );
    let (dense, dense_s) = timed(|| sym_eigen(&c).expect("dense"));
    for k in [4usize, 16, 37] {
        let (top, lz_s) =
            timed(|| lanczos_top_k(&c, k, LanczosOptions::default()).expect("lanczos"));
        let mut worst = 0.0f64;
        for j in 0..k {
            worst = worst.max((top.values[j] - dense.values[j]).abs() / dense.values[0]);
        }
        table.row(vec![
            k.to_string(),
            fmt(dense_s, 3),
            fmt(lz_s, 3),
            format!("{worst:.2e}"),
        ]);
    }
    table.emit("ablation_lanczos");
    println!(
        "(dense time is the one full decomposition both columns share; Lanczos\n\
         wins when k ≪ M and the matrix-vector products dominate)"
    );
}
