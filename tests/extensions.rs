//! Integration tests for the beyond-the-paper extensions, composed the
//! way a downstream user would: batched appends through the Gram cache
//! and quantized storage.

use adhoc_ts::compress::append::GramCache;
use adhoc_ts::compress::quantized::QuantizedSvd;
use adhoc_ts::compress::{CompressedMatrix, SpaceBudget, SvdCompressed};
use adhoc_ts::data::{generate_phone, PhoneConfig};
use adhoc_ts::linalg::Matrix;
use adhoc_ts::query::metrics::error_report;
use ats_common::TestDir;

#[test]
fn nightly_append_workflow() {
    // Day 1: compress the initial extract, keep the Gram cache.
    let day1 = generate_phone(&PhoneConfig {
        customers: 400,
        days: 56,
        seed: 1,
        ..PhoneConfig::default()
    });
    let mut cache = GramCache::from_source(day1.matrix(), 1).unwrap();

    // Day 2: a new batch of customers arrives; ingest only the batch.
    let day2 = generate_phone(&PhoneConfig {
        customers: 100,
        days: 56,
        seed: 2,
        ..PhoneConfig::default()
    });
    cache.ingest(day2.matrix(), 1).unwrap();

    // Rebuild from the concatenation with ONE pass; must equal a
    // from-scratch 2-pass build.
    let mut rows: Vec<Vec<f64>> = day1.matrix().iter_rows().map(<[f64]>::to_vec).collect();
    rows.extend(day2.matrix().iter_rows().map(<[f64]>::to_vec));
    let full = Matrix::from_rows(rows).unwrap();
    let incremental = cache.compress(&full, 6).unwrap();
    let scratch = SvdCompressed::compress(&full, 6, 1).unwrap();
    for i in (0..500).step_by(41) {
        for j in (0..56).step_by(7) {
            assert!(
                (incremental.cell(i, j).unwrap() - scratch.cell(i, j).unwrap()).abs() < 1e-7,
                "({i},{j})"
            );
        }
    }

    // The cache itself survives a round trip to disk.
    let dir = TestDir::new("ats-ext");
    let path = dir.file("gram.atsm");
    cache.save(&path).unwrap();
    let reloaded = GramCache::load(&path).unwrap();
    assert_eq!(reloaded.rows_seen(), 500);
}

#[test]
fn quantized_store_at_scale() {
    let data = generate_phone(&PhoneConfig {
        customers: 800,
        days: 91,
        ..PhoneConfig::default()
    });
    let x = data.matrix();
    let budget = SpaceBudget::from_percent(10.0);
    let q = QuantizedSvd::compress_budget(x, budget, 1).unwrap();
    let f = SvdCompressed::compress_budget(x, budget, 1).unwrap();
    let rq = error_report(x, &q).unwrap();
    let rf = error_report(x, &f).unwrap();
    // At equal bytes, the f32 variant holds ~2x the components and must
    // not be worse on genuinely multi-component data.
    assert!(q.storage_bytes() <= budget.bytes(800, 91));
    assert!(
        rq.rmspe <= rf.rmspe * 1.05,
        "quantized {} vs f64 {}",
        rq.rmspe,
        rf.rmspe
    );
}
