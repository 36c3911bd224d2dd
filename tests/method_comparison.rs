//! Cross-method integration tests: the orderings the paper's Fig. 6/7
//! claims, verified on synthetic data at equal space budgets.

use adhoc_ts::compress::cluster::ClusterCompressed;
use adhoc_ts::compress::dct::DctCompressed;
use adhoc_ts::compress::{
    CompressedMatrix, SpaceBudget, SvdCompressed, SvddCompressed, SvddOptions,
};
use adhoc_ts::data::{generate_phone, generate_stocks, PhoneConfig, StocksConfig};
use adhoc_ts::query::metrics::error_report;

#[test]
fn svdd_dominates_on_phone_data() {
    // Fig. 6(a): SVDD best on calling-pattern data at equal space.
    let data = generate_phone(&PhoneConfig {
        customers: 600,
        days: 91,
        ..PhoneConfig::default()
    });
    let x = data.matrix();
    let budget = SpaceBudget::from_percent(10.0);

    let svdd = SvddCompressed::compress(x, &SvddOptions::new(budget)).unwrap();
    let svd = SvdCompressed::compress_budget(x, budget, 1).unwrap();
    let dct = DctCompressed::compress_budget(x, budget).unwrap();

    let e_svdd = error_report(x, &svdd).unwrap();
    let e_svd = error_report(x, &svd).unwrap();
    let e_dct = error_report(x, &dct).unwrap();

    assert!(
        e_svdd.rmspe <= e_svd.rmspe * 1.0001,
        "svdd {} vs svd {}",
        e_svdd.rmspe,
        e_svd.rmspe
    );
    assert!(
        e_svd.rmspe < e_dct.rmspe,
        "SVD (data-optimal basis) must beat DCT (fixed basis) on phone data: {} vs {}",
        e_svd.rmspe,
        e_dct.rmspe
    );
    // Fig. 7 / Table 3: SVDD's worst case is far below plain SVD's.
    assert!(
        e_svdd.max_normalized_error < e_svd.max_normalized_error * 0.8,
        "svdd worst {} vs svd worst {}",
        e_svdd.max_normalized_error,
        e_svd.max_normalized_error
    );
}

#[test]
fn dct_competitive_on_stocks() {
    // §5.1: "DCT performs better for the 'stocks' dataset" because
    // successive prices are highly correlated. It should land within a
    // small factor of SVD there (while being far worse on phone data).
    let stocks = generate_stocks(&StocksConfig::small());
    let x = stocks.matrix();
    let budget = SpaceBudget::from_percent(20.0);
    let svd = SvdCompressed::compress_budget(x, budget, 1).unwrap();
    let dct = DctCompressed::compress_budget(x, budget).unwrap();
    let e_svd = error_report(x, &svd).unwrap();
    let e_dct = error_report(x, &dct).unwrap();
    assert!(
        e_dct.rmspe < e_svd.rmspe * 25.0,
        "DCT should be in SVD's ballpark on random-walk data: {} vs {}",
        e_dct.rmspe,
        e_svd.rmspe
    );
}

#[test]
fn all_methods_respect_equal_budget() {
    let data = generate_phone(&PhoneConfig {
        customers: 400,
        days: 56,
        ..PhoneConfig::default()
    });
    let x = data.matrix();
    let budget = SpaceBudget::from_percent(15.0);
    let limit = budget.bytes(400, 56);

    let svdd = SvddCompressed::compress(x, &SvddOptions::new(budget)).unwrap();
    let svd = SvdCompressed::compress_budget(x, budget, 1).unwrap();
    let dct = DctCompressed::compress_budget(x, budget).unwrap();
    let hc = ClusterCompressed::compress_budget(x, budget).unwrap();

    for (name, bytes) in [
        ("svdd", svdd.storage_bytes()),
        ("svd", svd.storage_bytes()),
        ("dct", dct.storage_bytes()),
        ("cluster", hc.storage_bytes()),
    ] {
        assert!(bytes <= limit, "{name}: {bytes} > {limit}");
    }
}

#[test]
fn svdd_outlier_cells_exact_and_bounded() {
    // Table 3's shape: at 10%+ space the worst SVDD cell error stays
    // bounded while plain SVD's explodes on spiky data.
    let data = generate_phone(&PhoneConfig {
        customers: 500,
        days: 70,
        spike_prob: 0.01,
        ..PhoneConfig::default()
    });
    let x = data.matrix();
    for pct in [10.0, 20.0] {
        let budget = SpaceBudget::from_percent(pct);
        let svdd = SvddCompressed::compress(x, &SvddOptions::new(budget)).unwrap();
        let svd = SvdCompressed::compress_budget(x, budget, 1).unwrap();
        let e_svdd = error_report(x, &svdd).unwrap();
        let e_svd = error_report(x, &svd).unwrap();
        assert!(
            e_svdd.max_abs_error <= e_svd.max_abs_error,
            "{pct}%: {} vs {}",
            e_svdd.max_abs_error,
            e_svd.max_abs_error
        );
    }
}

#[test]
fn error_decreases_with_space_for_every_method() {
    // The basic Fig. 6 monotonicity: more space, less error.
    let data = generate_phone(&PhoneConfig {
        customers: 300,
        days: 56,
        ..PhoneConfig::default()
    });
    let x = data.matrix();
    let budgets = [5.0, 10.0, 20.0, 40.0];

    let mut prev_svdd = f64::INFINITY;
    let mut prev_dct = f64::INFINITY;
    for pct in budgets {
        let b = SpaceBudget::from_percent(pct);
        let svdd = SvddCompressed::compress(x, &SvddOptions::new(b)).unwrap();
        let e = error_report(x, &svdd).unwrap().rmspe;
        assert!(e <= prev_svdd * 1.05, "svdd error rose at {pct}%: {e}");
        prev_svdd = e;

        let dct = DctCompressed::compress_budget(x, b).unwrap();
        let e = error_report(x, &dct).unwrap().rmspe;
        assert!(e <= prev_dct * 1.05, "dct error rose at {pct}%: {e}");
        prev_dct = e;
    }
}
