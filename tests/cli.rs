//! Integration tests for the `ats` command-line tool: the full
//! generate → info → save (under its old name, `compress`) → query →
//! verify flow, plus the crash-safe save → open lifecycle, driven
//! through the actual binary.

use ats_common::TestDir;
use std::process::Command;

fn ats() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ats"));
    // These tests assert exact on-disk layouts and exit codes, so the
    // workspace-wide store-shape knobs must not leak into the binary;
    // shard and time-block counts are always passed explicitly here.
    cmd.env_remove("ATS_TEST_SHARDS");
    cmd.env_remove("ATS_TEST_TBLOCKS");
    cmd
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

    // compress: the old spelling of `save`, same layout on disk
    let out = ats()
        .args([
            "compress",
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
            "compress",
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
            "compress",
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

    // open validates the manifest and summarizes the store
    let out = ats()
        .args(["open", store.to_str().unwrap()])
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

    // corrupting a component makes open fail cleanly, not crash
    let u = store.join("shard-0000").join("u.atsm");
    let mut bytes = std::fs::read(&u).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&u, &bytes).unwrap();
    let out = ats()
        .args(["open", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error"), "{err}");
}

/// Which commands vouch for the whole directory and which check what
/// they read: with one byte flipped in one unit's `u.atsm`, `query`
/// answers cells of every other unit exactly as before and fails — naming
/// the component — on a cell of that unit; `open`, `info` and `serve`
/// refuse the store outright.
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

    for cmd in ["open", "info"] {
        let out = ats().args([cmd, store_arg]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{cmd} must refuse");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("shard 2 u.atsm"), "{cmd}: {err}");
    }
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

    // open reports the shard count too
    let out = ats()
        .args(["open", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("4 shards"));

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

    // open serves the v4 directory.
    let out = ats()
        .args(["open", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("3 time blocks"), "{text}");

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
    // Real bytes from the retired v2 writer: `info`, `open` and `query`
    // serve the golden directory through the one store family.
    let dir = TestDir::new("ats-cli");
    let store = dir.copy_of(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/crates/storage/tests/fixtures/v2-store"
        ),
        "v2",
    );
    let run = |args: &[&str]| {
        let out = ats().args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let store = store.to_str().unwrap();
    let info = run(&["info", store]);
    for want in [
        "format v2",
        "40 x 24",
        "k=2",
        "55 deltas",
        "1 shards",
        "synopsis none",
    ] {
        assert!(info.contains(want), "missing {want:?} in {info}");
    }
    let opened = run(&["open", store]);
    assert!(
        opened.contains("1 time blocks, 1 shards"),
        "open summary: {opened}"
    );
    let cell: f64 = run(&["query", store, "cell 3 5"]).trim().parse().unwrap();
    assert!(cell.is_finite());
    // A legacy directory is read-only at the edge: appends are refused.
    let batch = dir.file("batch.atsm");
    run(&[
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
