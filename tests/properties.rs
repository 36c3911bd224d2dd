//! Cross-crate property-based tests: invariants that must hold for *any*
//! input, checked with proptest-generated matrices.

use adhoc_ts::common::testutil::jacobi_svd;
use adhoc_ts::common::TopK;
use adhoc_ts::compress::{
    lz, CompressedMatrix, SpaceBudget, SvdCompressed, SvddCompressed, SvddOptions,
};
use adhoc_ts::core::disk::{decode_deltas, encode_deltas};
use adhoc_ts::linalg::{sym_eigen, Matrix};
use adhoc_ts::query::engine::{aggregate_exact, AggregateFn, ExactMatrix, QueryEngine};
use adhoc_ts::query::selection::{Axis, Selection};
use proptest::prelude::*;

/// Random matrix strategy: n×m in bounded ranges with bounded values.
fn matrix_strategy(max_n: usize, max_m: usize) -> impl Strategy<Value = Matrix> {
    (2usize..max_n, 2usize..max_m).prop_flat_map(|(n, m)| {
        proptest::collection::vec(-100.0f64..100.0, n * m)
            .prop_map(move |data| Matrix::from_vec(n, m, data).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn svd_reconstruction_error_bounded_by_tail(x in matrix_strategy(24, 10)) {
        svd_error_matches_tail(&x);
    }

    #[test]
    fn gram_eigenvalues_nonnegative_and_trace_consistent(x in matrix_strategy(20, 8)) {
        gram_spectrum_is_consistent(&x);
    }

    #[test]
    fn svdd_never_worse_than_svd_in_sse(x in matrix_strategy(30, 8)) {
        svdd_sse_at_most_svd(&x);
    }

    #[test]
    fn aggregates_on_exact_matrix_are_exact(x in matrix_strategy(16, 8)) {
        exact_aggregates_are_exact(&x);
    }

    #[test]
    fn lz_roundtrips_matrix_bytes(x in matrix_strategy(12, 8)) {
        lz_roundtrips(&x);
    }

    #[test]
    fn disk_roundtrip_preserves_cells(x in matrix_strategy(20, 6)) {
        disk_roundtrip_is_bitwise(&x);
    }

    #[test]
    fn delta_codec_roundtrips_arbitrary_triplets(
        cols in any::<u64>(),
        triplets in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), -1e12f64..1e12),
            0..64,
        ),
    ) {
        let buf = encode_deltas(cols, &triplets);
        let (got_cols, got) = decode_deltas(&buf).unwrap();
        prop_assert_eq!(got_cols, cols);
        prop_assert_eq!(got.len(), triplets.len());
        for (a, b) in got.iter().zip(&triplets) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1, b.1);
            prop_assert_eq!(a.2.to_bits(), b.2.to_bits());
        }
    }

    #[test]
    fn delta_decode_never_panics_on_mangled_input(
        cols in any::<u64>(),
        triplets in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), -1e12f64..1e12),
            0..32,
        ),
        cut_raw in any::<usize>(),
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let buf = encode_deltas(cols, &triplets);
        // Every strict prefix is missing bytes the header promises, so
        // decode must report corruption rather than panic or misread.
        let cut = cut_raw % buf.len().max(1);
        prop_assert!(decode_deltas(&buf[..cut]).is_err());
        // Trailing garbage must be rejected too (exact-consumption check).
        if !garbage.is_empty() {
            let mut padded = buf.clone();
            padded.extend_from_slice(&garbage);
            prop_assert!(decode_deltas(&padded).is_err());
        }
        // Arbitrary byte soup: any outcome is fine except a panic.
        let _ = decode_deltas(&garbage);
    }

    #[test]
    fn topk_merge_equals_global_scan(
        items in proptest::collection::vec(-1e6f64..1e6, 0..200),
        capacity in 0usize..24,
        splits in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        // One queue fed every item...
        let mut global = TopK::new(capacity);
        for (i, &p) in items.iter().enumerate() {
            global.offer(p, i);
        }
        // ...versus per-shard queues over an arbitrary partition, merged.
        let mut cuts: Vec<usize> = splits.iter().map(|ix| ix % (items.len() + 1)).collect();
        cuts.push(0);
        cuts.push(items.len());
        cuts.sort_unstable();
        let mut merged = TopK::new(capacity);
        for w in cuts.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let mut shard = TopK::new(capacity);
            for (i, &p) in items.iter().enumerate().take(hi).skip(lo) {
                shard.offer(p, i);
            }
            merged.merge(shard);
        }
        // Ties at the boundary may retain different *items*, but the
        // multiset of retained priorities is fully determined.
        let sorted = |t: TopK<usize>| -> Vec<f64> {
            t.into_sorted_vec().into_iter().map(|(p, _)| p).collect()
        };
        prop_assert_eq!(sorted(global), sorted(merged));
    }
}

/// The one case proptest ever recorded for these properties (its shrunk
/// failure, as printed): a 2 × 4 matrix of rank 2, so the eigenproblem of
/// its 4 × 4 Gram matrix has two zero eigenvalues below the rank cutoff.
/// Every `x: Matrix` property runs on it on every test run.
#[test]
fn recorded_rank_two_case_holds_every_matrix_property() {
    let x = Matrix::from_rows(vec![
        vec![-36.4834, 0.0, -99.9019, 94.4494],
        vec![-42.9387, 23.3300, 81.8937, 94.1981],
    ])
    .unwrap();
    svd_error_matches_tail(&x);
    gram_spectrum_is_consistent(&x);
    svdd_sse_at_most_svd(&x);
    exact_aggregates_are_exact(&x);
    lz_roundtrips(&x);
    disk_roundtrip_is_bitwise(&x);
}

fn svd_error_matches_tail(x: &Matrix) {
    // Eckart–Young across the whole pipeline: the two-pass build's
    // rank-k SSE equals the tail σ² mass of an SVD that never forms XᵀX.
    // Singular *subspaces* are conditioned by the spectral gap at the
    // cut, so skip near-degenerate cuts where the identity holds only to
    // O(ε/gap).
    let (sigma, _) = jacobi_svd(x.as_slice(), x.rows(), x.cols());
    let rank = sigma.iter().take_while(|&&s| s > 1e-6 * sigma[0]).count();
    let k = (rank / 2).max(1);
    if k >= rank {
        return;
    }
    let gap = sigma[k - 1] - sigma[k];
    if gap < 1e-3 * sigma[0] {
        return;
    }
    let c = SvdCompressed::compress(x, k, 1).unwrap();
    assert_eq!(c.k(), k);
    let mut row = vec![0.0; x.cols()];
    let mut sse = 0.0;
    for i in 0..x.rows() {
        c.row_into(i, &mut row).unwrap();
        sse += row
            .iter()
            .zip(x.row(i))
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>();
    }
    let err = sse.sqrt();
    let tail: f64 = sigma[k..].iter().map(|s| s * s).sum();
    assert!(
        (err - tail.sqrt()).abs() < 1e-6 * (1.0 + err),
        "err {err}, tail {}, gap {gap}",
        tail.sqrt()
    );
}

fn gram_spectrum_is_consistent(x: &Matrix) {
    let c = x.gram();
    let eig = sym_eigen(&c).unwrap();
    let trace: f64 = (0..c.rows()).map(|i| c[(i, i)]).sum();
    let sum: f64 = eig.values.iter().sum();
    assert!((trace - sum).abs() < 1e-6 * trace.abs().max(1.0));
    for &v in &eig.values {
        assert!(v > -1e-7 * trace.abs().max(1.0));
    }
}

fn svdd_sse_at_most_svd(x: &Matrix) {
    let (n, m) = x.shape();
    let budget = SpaceBudget::from_percent(40.0);
    if budget.max_svd_k(n, m) == 0 {
        return;
    }
    let svdd = SvddCompressed::compress(x, &SvddOptions::new(budget)).unwrap();
    let svd = SvdCompressed::compress_budget(x, budget, 1).unwrap();
    let sse = |c: &dyn CompressedMatrix| -> f64 {
        let mut total = 0.0;
        let mut row = vec![0.0; m];
        for i in 0..n {
            c.row_into(i, &mut row).unwrap();
            for (a, b) in row.iter().zip(x.row(i)) {
                total += (a - b) * (a - b);
            }
        }
        total
    };
    assert!(sse(&svdd) <= sse(&svd) * (1.0 + 1e-9) + 1e-9);
    assert!(svdd.storage_bytes() <= budget.bytes(n, m));
}

fn exact_aggregates_are_exact(x: &Matrix) {
    let (n, m) = x.shape();
    let e = ExactMatrix(x.clone());
    let q = QueryEngine::new(&e);
    let sel = Selection {
        rows: Axis::Range(0, n / 2 + 1),
        cols: Axis::Range(0, m / 2 + 1),
    };
    for f in [
        AggregateFn::Sum,
        AggregateFn::Avg,
        AggregateFn::Min,
        AggregateFn::Max,
    ] {
        let got = q.aggregate(&sel, f).unwrap();
        let want = aggregate_exact(x, &sel, f).unwrap();
        assert!((got - want).abs() < 1e-9, "{}: {got} vs {want}", f.name());
    }
}

fn lz_roundtrips(x: &Matrix) {
    let bytes = ats_common_bytes(x);
    let c = lz::compress(&bytes);
    assert_eq!(lz::decompress(&c).unwrap(), bytes);
}

fn disk_roundtrip_is_bitwise(x: &Matrix) {
    let (n, m) = x.shape();
    let budget = SpaceBudget::from_percent(50.0);
    if budget.max_svd_k(n, m) == 0 {
        return;
    }
    for layout in ats_common::testutil::LAYOUTS {
        let built = adhoc_ts::core::store::SequenceStore::builder()
            .budget(budget)
            .shards(layout.shards)
            .time_blocks(layout.time_blocks)
            .build(x)
            .unwrap();
        // A directory of its own per call: the pinned case and a generated
        // one of the same shape may run at once.
        let tmp = ats_common::TestDir::new("adhoc-ts-prop");
        let dir = tmp.file("store");
        built.save(&dir).unwrap();
        let store = adhoc_ts::core::timeblock::TimeBlockedStore::open(&dir, 8).unwrap();
        for i in (0..n).step_by(3) {
            for j in (0..m).step_by(2) {
                let a = store.cell(i, j).unwrap();
                let b = built.cell(i, j).unwrap();
                assert_eq!(a.to_bits(), b.to_bits(), "{layout:?} ({i},{j})");
            }
        }
        // One page per distinct cold row, summed over blocks and shards.
        let touched = n.div_ceil(3) as u64 * store.manifest().blocks.len() as u64;
        assert!(store.io_snapshot().physical_reads <= touched, "{layout:?}");
    }
}

fn ats_common_bytes(x: &Matrix) -> Vec<u8> {
    ats_common_codec_encode(x.as_slice())
}

fn ats_common_codec_encode(vs: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vs.len() * 8);
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

#[test]
fn table1_matches_paper_exactly() {
    // The one ground-truth the paper prints in full (Eq. 5).
    let x = Matrix::from_rows(vec![
        vec![1., 1., 1., 0., 0.],
        vec![2., 2., 2., 0., 0.],
        vec![1., 1., 1., 0., 0.],
        vec![5., 5., 5., 0., 0.],
        vec![0., 0., 0., 2., 2.],
        vec![0., 0., 0., 3., 3.],
        vec![0., 0., 0., 1., 1.],
    ])
    .unwrap();
    let svd = SvdCompressed::compress(&x, 5, 1).unwrap();
    assert_eq!(svd.k(), 2);
    assert!((svd.lambda()[0] - 9.64).abs() < 0.01);
    assert!((svd.lambda()[1] - 5.29).abs() < 0.01);
    // and the reconstruction is exact at full rank
    let mut row = vec![0.0; 5];
    for i in 0..x.rows() {
        svd.row_into(i, &mut row).unwrap();
        assert!(row.iter().zip(x.row(i)).all(|(a, b)| (a - b).abs() <= 1e-9));
    }
}
