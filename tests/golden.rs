//! The golden corpus: "same bytes, same answers" as a committed file.
//!
//! Every layout in [`LAYOUTS`] × {svd, svdd} is built from an
//! integer-only input (and the mono layout also from an all-zero one), saved, reopened, appended to (rows, then a time
//! block; each layout takes one of the two and records the other's
//! refusal) and reopened again.
//! `tests/golden/stores.txt` records, per state, the length and CRC of
//! every store component that is new or changed and the `f64` bits of a
//! fixed list of answers. A change that moves one stored byte or one
//! answered bit fails here, naming the first line that differs.
//!
//! Regenerating is a declared act: the test always writes the full file
//! it computed under `CARGO_TARGET_TMPDIR`; copy that file over
//! `tests/golden/stores.txt` and say in the change which lines moved and
//! why.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use adhoc_ts::compress::{CompressedMatrix, SpaceBudget};
use adhoc_ts::core::store::{Method, SequenceStore};
use adhoc_ts::core::{append_rows, append_time_block};
use adhoc_ts::linalg::Matrix;
use adhoc_ts::query::engine::{AggregateFn, QueryEngine};
use adhoc_ts::query::predicate::{CmpOp, Predicate};
use adhoc_ts::query::selection::{Axis, Selection};
use adhoc_ts::storage::store_dir::file_crc;
use ats_common::testutil::{Layout, LAYOUTS};
use ats_common::TestDir;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/stores.txt");

/// Input shape: 100 rows are four 32-row Gram blocks (so 4 shards
/// exist), 12 columns are four 3-column time blocks.
const ROWS: usize = 100;
const COLS: usize = 12;
/// Rows in the row-append batch, columns in the time-append batch.
const NEW_ROWS: usize = 10;
const NEW_COLS: usize = 3;
const PERCENT: f64 = 40.0;
const POOL_PAGES: usize = 64;

const HEADER: &str = "\
# Golden corpus of tests/golden.rs: stored bytes and answered bits of
# every layout x {svd, svdd}, saved, reopened and appended to.
# `<path> <len> <crc>`: a store component that is new or changed since
# the store's previous state (`<path> gone` if removed); `<name> <hex>...`:
# the f64 bits of answers (`err` for an error); `err <text>`: an error.
# Pins the default build: without target_feature = \"fma\"
# (crates/linalg/src/vecops.rs `fmadd`). The write path's one libm call
# is Bloom sizing's `ln` under `ceil` (crates/common/src/bloom.rs).
# Regenerate by copying the file a failing run writes under
# CARGO_TARGET_TMPDIR over this one.
";

/// A 64-bit integer mix of a cell's coordinates (splitmix64 finaliser).
fn mix(i: usize, j: usize) -> u64 {
    let mut z = (i as u64) << 32 ^ j as u64;
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether cell `(i, j)` carries a spike (never on a zero row).
fn is_spike(i: usize, j: usize) -> bool {
    i % 13 != 5 && mix(i, j).is_multiple_of(53)
}

/// The value of cell `(i, j)` of the corpus, from integer arithmetic
/// only (every value is an exactly representable integer): a rank-2
/// pattern, small noise, an all-zero row every 13 rows, and sparse
/// spikes that SVDD keeps as deltas.
fn value(i: usize, j: usize) -> f64 {
    const PATTERN: [i64; 6] = [3, 5, 8, 6, 2, 1];
    if i % 13 == 5 {
        return 0.0;
    }
    let h = mix(i, j);
    let base = (i % 7 + 1) as i64 * PATTERN[j % 6] + (i % 3) as i64 * ((j % 4) as i64 - 1);
    let noise = ((h >> 20) % 5) as i64;
    let spike = if is_spike(i, j) { 400 } else { 0 };
    (base * 8 + noise + spike) as f64
}

fn input(rows: std::ops::Range<usize>, cols: std::ops::Range<usize>) -> Matrix {
    Matrix::from_fn(rows.len(), cols.len(), |i, j| {
        value(rows.start + i, cols.start + j)
    })
}

/// The all-zero input of the same shape: a rank-0 matrix.
fn zeros(rows: std::ops::Range<usize>, cols: std::ops::Range<usize>) -> Matrix {
    Matrix::zeros(rows.len(), cols.len())
}

/// One answer line: `name` and each answer's `f64` bits, or `err` for
/// an answer that is an error.
fn put(out: &mut String, name: &str, answers: &[ats_common::Result<f64>]) {
    let cells: Vec<String> = answers
        .iter()
        .map(|a| match a {
            Ok(v) => format!("{:016x}", v.to_bits()),
            Err(_) => "err".to_string(),
        })
        .collect();
    writeln!(out, "{name} {}", cells.join(" ")).unwrap();
}

/// `(relative path, (length, crc))` of every file under `dir`.
fn components(dir: &Path) -> BTreeMap<String, (u64, u64)> {
    fn walk(base: &Path, dir: &Path, out: &mut BTreeMap<String, (u64, u64)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(base, &path, out);
            } else {
                let rel = path
                    .strip_prefix(base)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                let len = std::fs::metadata(&path).unwrap().len();
                out.insert(rel, (len, file_crc(&path).unwrap()));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

/// Record one state of the store in `dir`: the components that are
/// new, changed or gone since `files` (then updated), and the answers
/// of the reopened store.
fn state(out: &mut String, label: &str, dir: &Path, files: &mut BTreeMap<String, (u64, u64)>) {
    writeln!(out, "-- {label}").unwrap();
    let now = components(dir);
    for (path, &(len, crc)) in &now {
        if files.get(path) != Some(&(len, crc)) {
            writeln!(out, "{path} {len} {crc:016x}").unwrap();
        }
    }
    for path in files.keys().filter(|p| !now.contains_key(*p)) {
        writeln!(out, "{path} gone").unwrap();
    }
    *files = now;
    let store = SequenceStore::open(dir, POOL_PAGES).unwrap();
    answers(out, store.compressed());
}

/// The fixed query list over a reopened store.
fn answers(out: &mut String, m: &dyn CompressedMatrix) {
    let (n, cols) = (m.rows(), m.cols());
    // Cells: a corner, two zero rows, the middle, three spikes, and the
    // far corners (the newest row and column after an append).
    let spikes = (0..ROWS * COLS)
        .map(|c| (c / COLS, c % COLS))
        .filter(|&(i, j)| is_spike(i, j))
        .take(3);
    let cells: Vec<_> = [(0, 0), (5, 0), (18, COLS - 1), (n / 2, cols / 2)]
        .into_iter()
        .chain(spikes)
        .chain([(0, cols - 1), (n - 1, cols - 1)])
        .map(|(i, j)| m.cell(i, j))
        .collect();
    put(out, "cells", &cells);
    let mut row = vec![0.0; cols];
    m.row_into(7, &mut row).unwrap();
    put(out, "row", &row.iter().map(|&v| Ok(v)).collect::<Vec<_>>());

    let pruned = QueryEngine::new(m).with_synopsis(true);
    let exact = QueryEngine::new(m).with_synopsis(false);
    let sel = Selection {
        rows: Axis::Range(3, n - 2),
        cols: Axis::Range(1, cols - 1),
    };
    let aggs: Vec<_> = AggregateFn::ALL
        .iter()
        .map(|&f| pruned.aggregate(&sel, f))
        .collect();
    put(out, "agg", &aggs);
    for (name, op, x) in [
        ("where>300", CmpOp::Gt, 300.0),
        ("where<=0", CmpOp::Le, 0.0),
    ] {
        let pred = Predicate::new(op, x).unwrap();
        let got: Vec<_> = AggregateFn::ALL
            .iter()
            .map(|&f| {
                let a = pruned.aggregate_where(&Selection::all(), f, &pred);
                let b = exact.aggregate_where(&Selection::all(), f, &pred);
                assert_eq!(
                    a.as_ref().ok().map(|v| v.to_bits()),
                    b.as_ref().ok().map(|v| v.to_bits()),
                    "{name} {f:?}: pruning moved the answer"
                );
                a
            })
            .collect();
        put(out, name, &got);
    }
    // Columns 2..8 span the first three of the four time blocks.
    let r = pruned
        .aggregate_all(&Selection::time_range(Axis::All, 2, 8))
        .unwrap();
    let range = [r.sum, r.avg, r.count as f64, r.min, r.max, r.stddev];
    put(out, "range", &range.map(Ok));
    let errors = [
        m.cell(n, 0).unwrap_err(),
        m.cell(0, cols).unwrap_err(),
        m.row_into(n, &mut row).unwrap_err(),
        pruned
            .aggregate(
                &Selection::time_range(Axis::All, cols - 2, cols + 1),
                AggregateFn::Sum,
            )
            .unwrap_err(),
    ];
    for e in errors {
        writeln!(out, "err {e}").unwrap();
    }
}

/// An input of the corpus: a cell range to the matrix holding it.
type Input = fn(std::ops::Range<usize>, std::ops::Range<usize>) -> Matrix;

/// Build `input` under `layout`, save and append to it, recording every
/// state under the heading `== <name> <method>`.
fn record(
    out: &mut String,
    name: &str,
    layout: Layout,
    method: Method,
    input: Input,
    tmp: &TestDir,
) {
    let dir = tmp.file(format!("{name}-{}", method.name()));
    writeln!(out, "== {name} {}", method.name()).unwrap();
    let budget = SpaceBudget::from_percent(PERCENT);
    SequenceStore::builder()
        .method(method)
        .budget(budget)
        .shards(layout.shards)
        .time_blocks(layout.time_blocks)
        .build(&input(0..ROWS, 0..COLS))
        .unwrap()
        .save(&dir)
        .unwrap();
    let mut files = BTreeMap::new();
    state(out, "saved", &dir, &mut files);
    match append_rows(&dir, &input(ROWS..ROWS + NEW_ROWS, 0..COLS), 1, None) {
        Ok(report) => {
            put(out, "append-rows sse", &[Ok(report.sse)]);
            state(out, "rows appended", &dir, &mut files);
        }
        Err(e) => writeln!(out, "err {e}").unwrap(),
    }
    match append_time_block(&dir, &input(0..ROWS, COLS..COLS + NEW_COLS), budget, 1) {
        Ok(report) => {
            put(out, "append-time sse", &[Ok(report.sse)]);
            state(out, "time appended", &dir, &mut files);
        }
        Err(e) => writeln!(out, "err {e}").unwrap(),
    }
}

#[test]
fn stores_and_answers_match_the_golden_file() {
    let tmp = TestDir::new("ats-golden");
    let mut actual = HEADER.to_string();
    for layout in LAYOUTS {
        for method in [Method::Svd, Method::Svdd] {
            record(&mut actual, layout.name, layout, method, input, &tmp);
        }
    }
    // Rank 0: no component carries energy.
    for method in [Method::Svd, Method::Svdd] {
        record(
            &mut actual,
            "all-zero mono",
            LAYOUTS[0],
            method,
            zeros,
            &tmp,
        );
    }
    let written = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-stores.txt");
    std::fs::write(&written, &actual).unwrap();
    if cfg!(target_feature = "fma") {
        // The file pins the two-rounding `fmadd`; a fused build rounds
        // differently by design. The pruned/exact check above still ran.
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if let Some((at, (want, got))) = expected
        .lines()
        .chain(std::iter::repeat("<end of file>"))
        .zip(actual.lines().chain(std::iter::repeat("<end of file>")))
        .take(expected.lines().count().max(actual.lines().count()))
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "tests/golden/stores.txt line {}:\n  golden: {want}\n  actual: {got}\n\
             the full actual file is {}; copy it over the golden file only if the \
             change means to move these bytes or answers",
            at + 1,
            written.display()
        );
    }
}
