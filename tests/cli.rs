//! Integration tests for the `ats` command-line tool: the full
//! generate → info → save → query → verify flow, the crash-safe save →
//! info lifecycle, and every verb that takes a store over every layout,
//! driven through the actual binary.

use adhoc_ts::core::shard::ShardedStore;
use adhoc_ts::core::store::SequenceStore;
use adhoc_ts::core::timeblock::TimeBlockedStore;
use adhoc_ts::query::serve::client;
use ats_common::testutil::LAYOUTS;
use ats_common::TestDir;
use std::io::BufRead as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn ats() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ats"))
}

/// Run `ats args`, asserting it exits 0; returns its stdout.
fn run_ok(args: &[&str]) -> String {
    let out = ats().args(args).output().unwrap();
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A saved store every store-taking verb must read as undamaged, with
/// a data file of its shape (for `verify`) and batches to append.
struct StoreInput {
    name: String,
    dir: PathBuf,
    data: PathBuf,
    more_rows: PathBuf,
    more_time: PathBuf,
}

/// Generate a phone matrix file of `rows × cols` at `path`.
fn generate(path: &std::path::Path, rows: usize, cols: usize) {
    let (rows, cols) = (rows.to_string(), cols.to_string());
    run_ok(&[
        "generate",
        "phone",
        "--rows",
        &rows,
        "--cols",
        &cols,
        "--out",
        path.to_str().unwrap(),
    ]);
}

#[test]
fn full_cli_flow() {
    let dir = TestDir::new("ats-cli");
    let data = dir.file("data.atsm");
    let store = dir.file("store");

    // generate
    let out = ats()
        .args([
            "generate",
            "phone",
            "--rows",
            "300",
            "--cols",
            "60",
            "--out",
            data.to_str().unwrap(),
        ])
        .output()
        .expect("run ats");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // info
    let out = ats()
        .args(["info", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("300 rows x 60 cols"), "{text}");

    // save: the one-block layout on disk
    let out = ats()
        .args([
            "save",
            data.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
            "--percent",
            "15",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("svdd: 300 x 60, 1 shards"));
    assert!(store.join("shard-0000/u.atsm").exists());
    assert!(store.join("shard-0000/deltas.bin").exists());
    assert!(!store.join("u.atsm").exists(), "v2 is never written");

    // query: a cell and an aggregate both parse to numbers
    for q in [
        "cell 42 17",
        "avg rows 0..100 cols all",
        "sum rows 1,5 cols 0..10",
    ] {
        let out = ats()
            .args(["query", store.to_str().unwrap(), q])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "query {q}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let val: f64 = String::from_utf8_lossy(&out.stdout).trim().parse().unwrap();
        assert!(val.is_finite());
    }

    // verify reports a small error
    let out = ats()
        .args(["verify", data.to_str().unwrap(), store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rmspe"), "{text}");
}

#[test]
fn cli_errors_are_clean() {
    // unknown subcommand
    let out = ats().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    // `open` and `compress` are gone: `info` checks a store, `save`
    // builds one
    for gone in ["open", "compress"] {
        let out = ats().args([gone, "/nonexistent/store"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{gone}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("usage: ats <generate|info|save|append|query|serve|verify|help>"),
            "{gone}: {err}"
        );
    }

    // query against a missing store
    let out = ats()
        .args(["query", "/nonexistent/store", "cell 0 0"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // bad query text against a real store is rejected by the parser
    let dir = TestDir::new("ats-cli");
    let data = dir.file("d.atsm");
    let store = dir.file("s");
    ats()
        .args([
            "generate",
            "stocks",
            "--rows",
            "50",
            "--cols",
            "32",
            "--out",
            data.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    ats()
        .args([
            "save",
            data.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
            "--percent",
            "20",
        ])
        .status()
        .unwrap();
    let out = ats()
        .args(["query", store.to_str().unwrap(), "median rows all cols all"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown aggregate"));
}

#[test]
fn cli_svd_method() {
    let dir = TestDir::new("ats-cli");
    let data = dir.file("svd-data.atsm");
    let store = dir.file("svd-store");
    assert!(ats()
        .args([
            "generate",
            "phone",
            "--rows",
            "200",
            "--cols",
            "40",
            "--out",
            data.to_str().unwrap()
        ])
        .status()
        .unwrap()
        .success());
    let out = ats()
        .args([
            "save",
            data.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
            "--percent",
            "20",
            "--method",
            "svd",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("svd:"));
    // the svd store opens and serves queries (its deltas.bin is empty)
    let out = ats()
        .args(["query", store.to_str().unwrap(), "cell 0 0"])
        .output()
        .unwrap();
    assert!(out.status.success());
}

#[test]
fn cli_method_other_than_svd_or_svdd_is_a_usage_error() {
    // A store is svd or svdd; the paper's baselines are library types.
    // The name is checked before the input is opened: the input here
    // does not exist, so reading it first would exit 1, not 2.
    let dir = TestDir::new("ats-cli");
    for method in ["hc", "kmeans", "dct", "sampling", "bogus"] {
        let store = dir.file(format!("store-{method}"));
        let out = ats()
            .args([
                "save",
                dir.file("absent.atsm").to_str().unwrap(),
                "--out",
                store.to_str().unwrap(),
                "--method",
                method,
            ])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{method}: {stderr}");
        assert!(stderr.contains("svd, svdd"), "{method}: {stderr}");
        assert!(!store.exists(), "{method}");
    }
}

#[test]
fn cli_save_open_flow() {
    let dir = TestDir::new("ats-cli");
    let data = dir.file("data.atsm");
    let store = dir.file("store");

    assert!(ats()
        .args([
            "generate",
            "phone",
            "--rows",
            "250",
            "--cols",
            "50",
            "--out",
            data.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());

    // save builds a SequenceStore and persists it in the sharded v3
    // layout: shared factors at the top level, U and deltas per shard
    let out = ats()
        .args([
            "save",
            data.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
            "--percent",
            "15",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("svdd"));
    for f in [
        "manifest.txt",
        "v.atsm",
        "lambda.atsm",
        "shard-0000/u.atsm",
        "shard-0000/deltas.bin",
    ] {
        assert!(store.join(f).exists(), "missing {f}");
    }

    // info validates the whole store and summarizes it
    let out = ats()
        .args(["info", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("svdd store"), "{text}");
    assert!(text.contains("250 x 50"), "{text}");
    assert!(text.contains("bloom=true"), "{text}");

    // the saved store serves queries
    let out = ats()
        .args(["query", store.to_str().unwrap(), "avg rows 0..50 cols all"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let val: f64 = String::from_utf8_lossy(&out.stdout).trim().parse().unwrap();
    assert!(val.is_finite());

    // corrupting a component makes info fail cleanly, not crash
    let u = store.join("shard-0000").join("u.atsm");
    let mut bytes = std::fs::read(&u).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&u, &bytes).unwrap();
    let out = ats()
        .args(["info", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error"), "{err}");
}

/// A store's layout comes from `save`'s flags alone: variables in the
/// caller's environment that once set the library's default shard and
/// time-block counts leave the saved store the one-shard v3 layout.
#[test]
fn cli_save_ignores_ambient_layout_env() {
    let dir = TestDir::new("ats-cli");
    let store = dir.file("store");
    let out = ats()
        .args([
            "save",
            "--generate",
            "phone",
            "--rows",
            "200",
            "--cols",
            "40",
        ])
        .args(["--out", store.to_str().unwrap()])
        .env("ATS_TEST_SHARDS", "4")
        .env("ATS_TEST_TBLOCKS", "4")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 shards, 1 time blocks"), "{stdout}");
    let manifest = std::fs::read_to_string(store.join("manifest.txt")).unwrap();
    assert!(manifest.starts_with("ats-store-version=3\n"), "{manifest}");
    assert!(manifest.contains("\nshards=1\n"), "{manifest}");
    assert!(!store.join("tblock-0000").exists() && !store.join("shard-0001").exists());
}

/// Which commands vouch for the whole directory and which check what
/// they read: with one byte flipped in one unit's `u.atsm`, `query`
/// answers cells of every other unit exactly as before and fails — naming
/// the component — on a cell of that unit; `info` and `serve` refuse
/// the store outright.
#[test]
fn cli_damaged_unit_fails_its_queries_and_the_eager_commands_only() {
    let dir = TestDir::new("ats-cli");
    let store = dir.file("store");
    let store_arg = store.to_str().unwrap();
    let out = ats()
        .args([
            "save",
            "--generate",
            "phone",
            "--rows",
            "400",
            "--cols",
            "60",
        ])
        .args(["--shards", "3", "--time-blocks", "4", "--out", store_arg])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let query = |q: &str| ats().args(["query", store_arg, q]).output().unwrap();
    // Row 399 lives in the last shard; columns 15..30 are block 1.
    let elsewhere = ["cell 0 20", "cell 399 50", "cell 200 3"];
    let before: Vec<Vec<u8>> = elsewhere.iter().map(|q| query(q).stdout).collect();
    assert!(query("cell 399 20").status.success());

    let u = store.join("tblock-0001/shard-0002/u.atsm");
    let mut bytes = std::fs::read(&u).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&u, &bytes).unwrap();

    for (q, want) in elsewhere.iter().zip(&before) {
        let out = query(q);
        assert!(out.status.success(), "{q} reads no damaged byte");
        assert_eq!(&out.stdout, want, "{q}");
    }
    let out = query("cell 399 20");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "no value from a damaged unit");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("shard 2 u.atsm"), "{err}");
    assert!(err.contains("tblock-0001"), "{err}");
    // An aggregate whose selection crosses the unit fails the same way.
    assert!(!query("sum rows all cols all").status.success());

    let out = ats().args(["info", store_arg]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "info must refuse");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("shard 2 u.atsm"), "info: {err}");
    // The daemon refuses at start, before it binds or serves anything
    // (were it to start, the closed stdin would stop it with exit 0).
    let out = ats()
        .args(["serve", store_arg, "--addr", "127.0.0.1:0"])
        .stdin(std::process::Stdio::null())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("listening"));
}

#[test]
fn cli_batch_query_flow() {
    let dir = TestDir::new("ats-cli");
    let data = dir.file("data.atsm");
    let store = dir.file("store");
    let batch = dir.file("cells.txt");

    assert!(ats()
        .args([
            "generate",
            "phone",
            "--rows",
            "120",
            "--cols",
            "30",
            "--out",
            data.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    assert!(ats()
        .args([
            "save",
            data.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
            "--percent",
            "15",
            "--shards",
            "3",
        ])
        .status()
        .unwrap()
        .success());

    // mixed spellings, comments, duplicates, unsorted rows across shards
    let cells = [(97usize, 3usize), (5, 12), (97, 3), (40, 0), (5, 29)];
    std::fs::write(
        &batch,
        "# exploratory cells\ncell 97 3\n5 12\n\ncell 97 3\n40 0\n  5 29\n",
    )
    .unwrap();
    let out = ats()
        .args([
            "query",
            store.to_str().unwrap(),
            "--batch-file",
            batch.to_str().unwrap(),
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(got.len(), cells.len());

    // each printed value matches the corresponding single-cell query exactly
    for ((i, j), line) in cells.iter().zip(&got) {
        let one = ats()
            .args(["query", store.to_str().unwrap(), &format!("cell {i} {j}")])
            .output()
            .unwrap();
        assert!(one.status.success());
        assert_eq!(
            String::from_utf8_lossy(&one.stdout).trim(),
            line.as_str(),
            "cell {i} {j}"
        );
    }

    // a malformed line is a runtime failure (exit 1) naming the line
    std::fs::write(&batch, "cell 1 2\nsum rows all cols all\n").unwrap();
    let out = ats()
        .args([
            "query",
            store.to_str().unwrap(),
            "--batch-file",
            batch.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));

    // a query string AND --batch-file together is a usage error (exit 2)
    let out = ats()
        .args([
            "query",
            store.to_str().unwrap(),
            "cell 0 0",
            "--batch-file",
            batch.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // an out-of-range cell in an otherwise valid batch is exit 1
    std::fs::write(&batch, "cell 0 0\ncell 4000 0\n").unwrap();
    let out = ats()
        .args([
            "query",
            store.to_str().unwrap(),
            "--batch-file",
            batch.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn cli_sharded_save_info_append_flow() {
    let dir = TestDir::new("ats-cli");
    let data = dir.file("data.atsm");
    let more = dir.file("more.atsm");
    let store = dir.file("store");

    for (path, rows) in [(&data, "200"), (&more, "30")] {
        assert!(ats()
            .args([
                "generate",
                "phone",
                "--rows",
                rows,
                "--cols",
                "40",
                "--out",
                path.to_str().unwrap(),
            ])
            .status()
            .unwrap()
            .success());
    }

    // save with an explicit shard count
    let out = ats()
        .args([
            "save",
            data.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
            "--percent",
            "15",
            "--shards",
            "4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("4 shards"));
    for i in 0..4 {
        assert!(store.join(format!("shard-{i:04}/u.atsm")).exists());
    }

    // info on the store directory prints the validated manifest
    let out = ats()
        .args(["info", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("format v3"), "{text}");
    assert!(text.contains("svdd store"), "{text}");
    assert!(text.contains("200 x 40"), "{text}");
    assert!(text.contains("4 shards"), "{text}");
    assert!(text.contains("shard 0: rows 0.."), "{text}");
    assert!(text.contains("shard 3: rows "), "{text}");

    // a query spanning every shard still answers
    let out = ats()
        .args(["query", store.to_str().unwrap(), "avg rows all cols all"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let val: f64 = String::from_utf8_lossy(&out.stdout).trim().parse().unwrap();
    assert!(val.is_finite());

    // append lands the new rows in a fresh shard, visible to info
    let out = ats()
        .args(["append", store.to_str().unwrap(), more.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("shard 4"));
    let out = ats()
        .args(["info", store.to_str().unwrap()])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("230 x 40"), "{text}");
    assert!(text.contains("5 shards"), "{text}");
    assert!(text.contains("append sse"), "{text}");

    // the appended rows are queryable
    let out = ats()
        .args(["query", store.to_str().unwrap(), "cell 229 0"])
        .output()
        .unwrap();
    assert!(out.status.success());

    // info on a corrupt store exits 1 with a corruption message
    let u = store.join("shard-0002").join("u.atsm");
    let mut bytes = std::fs::read(&u).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&u, &bytes).unwrap();
    let out = ats()
        .args(["info", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error"), "{err}");
    assert!(err.contains("shard 2") || err.contains("checksum"), "{err}");
}

#[test]
fn cli_timeblocked_save_info_query_append_flow() {
    let dir = TestDir::new("ats-cli");
    let data = dir.file("data.atsm");
    let more = dir.file("more.atsm");
    let store = dir.file("store");

    // 160 sequences of 48 points, plus a 12-point extension batch.
    for (path, cols) in [(&data, "48"), (&more, "12")] {
        assert!(ats()
            .args([
                "generate",
                "phone",
                "--rows",
                "160",
                "--cols",
                cols,
                "--out",
                path.to_str().unwrap(),
            ])
            .status()
            .unwrap()
            .success());
    }

    // save with time blocks AND row shards: the v4 grid on disk.
    let out = ats()
        .args([
            "save",
            data.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
            "--percent",
            "15",
            "--shards",
            "2",
            "--time-blocks",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 shards"), "{text}");
    assert!(text.contains("3 time blocks"), "{text}");
    for b in 0..3 {
        assert!(store
            .join(format!("tblock-{b:04}/shard-0001/u.atsm"))
            .exists());
    }

    // info prints the validated block table: ranges, k, SSE, deltas.
    let out = ats()
        .args(["info", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("format v4"), "{text}");
    assert!(text.contains("160 x 48"), "{text}");
    assert!(text.contains("3 time blocks"), "{text}");
    assert!(text.contains("tblock 0: cols 0..16"), "{text}");
    assert!(text.contains("tblock 2: cols 32..48"), "{text}");
    assert!(text.contains("k="), "{text}");
    assert!(text.contains("sse "), "{text}");
    assert!(text.contains("deltas"), "{text}");

    // A time-range aggregate answers, as do plain queries and cells.
    for q in [
        "avg rows all in time [10..30]",
        "sum rows 0..40 in time [16..32]",
        "avg rows all cols all",
        "cell 7 20",
    ] {
        let out = ats()
            .args(["query", store.to_str().unwrap(), q])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{q}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let val: f64 = String::from_utf8_lossy(&out.stdout).trim().parse().unwrap();
        assert!(val.is_finite(), "{q}");
    }

    // An empty time range is a usage-level runtime error, not a panic.
    let out = ats()
        .args([
            "query",
            store.to_str().unwrap(),
            "avg rows all in time [9..9]",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));

    // verify runs the error report against the original file.
    let out = ats()
        .args(["verify", data.to_str().unwrap(), store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("rmspe"));

    // append --time grows the time axis with a fresh block…
    let out = ats()
        .args([
            "append",
            store.to_str().unwrap(),
            more.to_str().unwrap(),
            "--time",
            "--percent",
            "15",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("12 time points"), "{text}");
    assert!(text.contains("block 3"), "{text}");

    // …visible to info and queryable end to end.
    let out = ats()
        .args(["info", store.to_str().unwrap()])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("160 x 60"), "{text}");
    assert!(text.contains("4 time blocks"), "{text}");
    assert!(text.contains("tblock 3: cols 48..60"), "{text}");
    let out = ats()
        .args([
            "query",
            store.to_str().unwrap(),
            "avg rows all in time [48..60]",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --time on a legacy (v3) store is refused with the re-save hint.
    let v3 = dir.file("v3store");
    assert!(ats()
        .args([
            "save",
            data.to_str().unwrap(),
            "--out",
            v3.to_str().unwrap(),
            "--percent",
            "15",
        ])
        .status()
        .unwrap()
        .success());
    let out = ats()
        .args([
            "append",
            v3.to_str().unwrap(),
            more.to_str().unwrap(),
            "--time",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--time-blocks"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --percent without --time is a usage error (exit 2).
    let out = ats()
        .args([
            "append",
            store.to_str().unwrap(),
            more.to_str().unwrap(),
            "--percent",
            "15",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // Tampering with a nested block manifest is caught by info (exit 1).
    let nested = store.join("tblock-0001").join("manifest.txt");
    let mut bytes = std::fs::read(&nested).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&nested, &bytes).unwrap();
    let out = ats()
        .args(["info", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("checksum") || err.contains("manifest") || err.contains("block"),
        "{err}"
    );
}

#[test]
fn cli_legacy_v2_store_info_open_query() {
    // Real bytes from the retired v2 writer: `info` and `query` serve
    // the golden directory through the one store family.
    let dir = TestDir::new("ats-cli");
    let store = dir.copy_of(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/crates/storage/tests/fixtures/v2-store"
        ),
        "v2",
    );
    let store = store.to_str().unwrap();
    let info = run_ok(&["info", store]);
    for want in [
        "format v2",
        "40 x 24",
        "k=2",
        "55 deltas",
        "1 shards",
        "1 time blocks, 1 shards",
        "synopsis none",
    ] {
        assert!(info.contains(want), "missing {want:?} in {info}");
    }
    let cell: f64 = run_ok(&["query", store, "cell 3 5"])
        .trim()
        .parse()
        .unwrap();
    assert!(cell.is_finite());
    // A legacy directory is read-only at the edge: appends are refused.
    let batch = dir.file("batch.atsm");
    run_ok(&[
        "generate",
        "phone",
        "--rows",
        "4",
        "--cols",
        "24",
        "--out",
        batch.to_str().unwrap(),
    ]);
    let out = ats()
        .args(["append", store, batch.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("v2"));
}

/// The stores of the verb and count checks: a scratch copy of the v2
/// fixture (its data file is a stand-in of its shape), a one-block v3
/// store saved with the defaults, and one store per [`LAYOUTS`] entry.
fn store_inputs(tmp: &TestDir) -> Vec<StoreInput> {
    const ROWS: usize = 128;
    const COLS: usize = 24;
    let more_rows = tmp.file("more-rows.atsm");
    generate(&more_rows, 8, COLS);
    let data = tmp.file("data.atsm");
    generate(&data, ROWS, COLS);
    let more_time = tmp.file("more-time.atsm");
    generate(&more_time, ROWS, 6);
    let v2_data = tmp.file("v2-data.atsm");
    generate(&v2_data, 40, COLS);
    let v2_time = tmp.file("v2-time.atsm");
    generate(&v2_time, 40, 6);
    let mut inputs = vec![StoreInput {
        name: "v2 fixture".into(),
        dir: tmp.copy_of(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/crates/storage/tests/fixtures/v2-store"
            ),
            "v2",
        ),
        data: v2_data,
        more_rows: more_rows.clone(),
        more_time: v2_time,
    }];
    let default_dir = tmp.file("v3-default");
    run_ok(&[
        "save",
        data.to_str().unwrap(),
        "--out",
        default_dir.to_str().unwrap(),
    ]);
    inputs.push(StoreInput {
        name: "v3 default save".into(),
        dir: default_dir,
        data: data.clone(),
        more_rows: more_rows.clone(),
        more_time: more_time.clone(),
    });
    for (i, layout) in LAYOUTS.iter().enumerate() {
        let dir = tmp.file(format!("layout-{i}"));
        let (shards, blocks) = (layout.shards.to_string(), layout.time_blocks.to_string());
        run_ok(&[
            "save",
            data.to_str().unwrap(),
            "--out",
            dir.to_str().unwrap(),
            "--shards",
            &shards,
            "--time-blocks",
            &blocks,
        ]);
        inputs.push(StoreInput {
            name: layout.name.into(),
            dir,
            data: data.clone(),
            more_rows: more_rows.clone(),
            more_time: more_time.clone(),
        });
    }
    inputs
}

/// An undamaged store is never `Corrupt`: the verb exits 0, or 1 with
/// an invalid-argument refusal, and says nothing of corruption.
fn assert_reads_as_valid(what: &str, out: &Output) {
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    for text in [&stdout, &stderr] {
        assert!(
            !text.to_lowercase().contains("corrupt"),
            "{what}: {stdout}{stderr}"
        );
    }
    match out.status.code() {
        Some(0) => {}
        Some(1) => assert!(stderr.contains("invalid argument"), "{what}: {stderr}"),
        other => panic!("{what}: exit {other:?}: {stderr}"),
    }
}

/// `ats serve DIR` starts, answers `PING`, and shuts down on `SHUTDOWN`.
fn serve_ping_shutdown(what: &str, dir: &str) {
    let mut child = ats()
        .args(["serve", dir, "--addr", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Held until the daemon exits: its closing summary goes to stdout.
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let Some(addr) = banner.trim().strip_prefix("listening on ") else {
        let out = child.wait_with_output().unwrap();
        assert_reads_as_valid(what, &out);
        panic!(
            "{what}: no banner, {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    assert_eq!(client::round_trip(&mut s, "PING").unwrap(), "OK pong");
    assert_eq!(
        client::round_trip(&mut s, "SHUTDOWN").unwrap(),
        "OK shutting down"
    );
    drop(s);
    let mut out = child.wait_with_output().unwrap();
    std::io::Read::read_to_end(&mut stdout, &mut out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{what}");
    assert_reads_as_valid(what, &out);
}

/// Every verb that takes a store, over every layout and format: a valid
/// store is answered or refused as an invalid argument, never reported
/// as corrupt — the converse of "any corrupt byte surfaces as
/// `Corrupt`". A row append on a time-blocked store is such a refusal.
#[test]
fn cli_every_store_verb_reads_an_undamaged_store_as_valid() {
    let tmp = TestDir::new("ats-cli");
    for input in store_inputs(&tmp) {
        let dir = input.dir.to_str().unwrap();
        let (data, rows, time) = (
            input.data.to_str().unwrap(),
            input.more_rows.to_str().unwrap(),
            input.more_time.to_str().unwrap(),
        );
        for args in [
            vec!["info", dir],
            vec!["query", dir, "cell 0 0"],
            vec!["verify", data, dir],
            vec!["append", dir, rows],
            vec!["append", dir, time, "--time"],
        ] {
            let out = ats().args(&args).output().unwrap();
            assert_reads_as_valid(&format!("{}: {args:?}", input.name), &out);
        }
        serve_ping_shutdown(&format!("{}: serve", input.name), dir);
    }
}

/// `ats info`'s header counts what the library counts: time blocks,
/// row shards per block, deltas and compressed megabytes.
#[test]
fn cli_info_header_counts_what_the_library_counts() {
    let tmp = TestDir::new("ats-cli");
    for input in store_inputs(&tmp) {
        let info = run_ok(&["info", input.dir.to_str().unwrap()]);
        let header = info.lines().next().unwrap_or_default();
        let store = SequenceStore::open(&input.dir, 64).unwrap();
        let deltas: usize = TimeBlockedStore::open(&input.dir, 64)
            .unwrap()
            .blocks()
            .iter()
            .map(ShardedStore::num_deltas)
            .sum();
        let want = [
            format!(", {deltas} deltas, "),
            format!(
                ", {} time blocks, {} shards, {:.2} MB compressed",
                store.time_blocks(),
                store.shards(),
                store.storage_bytes() as f64 / 1e6
            ),
        ];
        for w in want {
            assert!(header.contains(&w), "{}: {w:?} not in {header}", input.name);
        }
    }
}
