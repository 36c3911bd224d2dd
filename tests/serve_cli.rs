//! CLI-level tests for the two new `ats` entry points: the `serve`
//! daemon driven through the actual binary over a real socket, and
//! `save --generate`, which must build a store bitwise identical to
//! generating the `.atsm` file first and saving that.

use adhoc_ts::query::serve::client;
use ats_common::TestDir;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn ats() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ats"))
}

fn run_ok(args: &[&str]) -> String {
    let out = ats().args(args).output().expect("run ats");
    assert!(
        out.status.success(),
        "ats {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn serve_daemon_answers_over_a_socket_and_shuts_down_cleanly() {
    let dir = TestDir::new("ats-serve-cli");
    let data = dir.file("data.atsm");
    let store = dir.file("store");
    run_ok(&[
        "generate",
        "phone",
        "--rows",
        "80",
        "--cols",
        "24",
        "--out",
        data.to_str().unwrap(),
    ]);
    run_ok(&[
        "save",
        data.to_str().unwrap(),
        "--out",
        store.to_str().unwrap(),
        "--shards",
        "2",
    ]);
    // The daemon's answer must be bitwise identical to single-shot
    // `ats query` — same engine, same text rendering.
    let single_shot = run_ok(&["query", store.to_str().unwrap(), "cell 42 17"]);
    let single_agg = run_ok(&["query", store.to_str().unwrap(), "avg rows 0..80 cols all"]);

    let mut child = ats()
        .args(["serve", store.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ats serve");

    // The first stdout line announces the resolved address.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_string();

    let mut s = TcpStream::connect(&addr).expect("connect to daemon");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(client::round_trip(&mut s, "PING").unwrap(), "OK pong");
    let cell = client::round_trip(&mut s, "cell 42 17").unwrap();
    assert_eq!(cell, format!("OK {}", single_shot.trim()));
    let agg = client::round_trip(&mut s, "avg rows 0..80 cols all").unwrap();
    assert_eq!(agg, format!("OK {}", single_agg.trim()));
    let bad = client::round_trip(&mut s, "cell 9999 0").unwrap();
    assert!(bad.starts_with("ERR "), "{bad}");
    assert_eq!(
        client::round_trip(&mut s, "SHUTDOWN").unwrap(),
        "OK shutting down"
    );
    drop(s);

    let out = child.wait_with_output().expect("daemon exit");
    assert!(
        out.status.success(),
        "daemon exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("served "), "{rest}");
}

#[test]
fn serve_defaults_answer_a_lone_cell_without_a_timer() {
    let dir = TestDir::new("ats-serve-cli");
    let store = dir.file("store");
    run_ok(&[
        "save",
        "--generate",
        "phone",
        "--rows",
        "80",
        "--cols",
        "24",
        "--out",
        store.to_str().unwrap(),
        "--shards",
        "2",
    ]);
    // The CLI runs the library's default policy.
    let mut child = ats()
        .args(["serve", store.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ats serve");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_string();

    let mut s = TcpStream::connect(&addr).expect("connect to daemon");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // 51 depth-1 round trips: ~0.1 ms each when the batcher takes what is
    // queued, at least 2 ms each behind a 2 ms admission timer. Three
    // tries ride out a noisy machine; a timer fails all of them.
    let mut replies = Vec::new();
    let mut median = || {
        let mut rtts: Vec<Duration> = (0..51)
            .map(|t| {
                let t0 = Instant::now();
                let reply = client::round_trip(&mut s, &format!("cell {} 17", t % 80)).unwrap();
                let rtt = t0.elapsed();
                replies.push((t % 80, reply));
                rtt
            })
            .collect();
        rtts.sort();
        rtts[rtts.len() / 2]
    };
    let best = (0..3).map(|_| median()).min().unwrap();
    assert!(best < Duration::from_millis(1), "median {best:?}");
    assert_eq!(
        client::round_trip(&mut s, "SHUTDOWN").unwrap(),
        "OK shutting down"
    );
    drop(s);
    assert!(child.wait().expect("daemon exit").success());

    // Same answers as single-shot `ats query`, bit for bit.
    for row in [0usize, 42, 79] {
        let single = run_ok(&["query", store.to_str().unwrap(), &format!("cell {row} 17")]);
        for (_, reply) in replies.iter().filter(|(r, _)| *r == row) {
            assert_eq!(reply, &format!("OK {}", single.trim()));
        }
    }
}

#[test]
fn serve_removed_batching_flags_are_usage_errors() {
    let dir = TestDir::new("ats-serve-cli");
    let store = dir.file("store");
    run_ok(&[
        "save",
        "--generate",
        "phone",
        "--rows",
        "40",
        "--cols",
        "24",
        "--out",
        store.to_str().unwrap(),
    ]);
    // The batcher has no timer and no size cap left to tune: each flag
    // that used to set one is refused before anything is bound.
    for (flag, value) in [("--window-ms", "1"), ("--batch-max", "8")] {
        let out = ats()
            .args(["serve", store.to_str().unwrap(), "--addr", "127.0.0.1:0"])
            .args([flag, value])
            .stdin(Stdio::null())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{flag}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("listening on"), "{flag}: {stdout}");
    }
}

#[test]
fn serve_shuts_down_on_stdin_quit() {
    let dir = TestDir::new("ats-serve-cli");
    let data = dir.file("data.atsm");
    let store = dir.file("store");
    run_ok(&[
        "generate",
        "phone",
        "--rows",
        "30",
        "--cols",
        "12",
        "--out",
        data.to_str().unwrap(),
    ]);
    run_ok(&[
        "save",
        data.to_str().unwrap(),
        "--out",
        store.to_str().unwrap(),
        "--percent",
        "25",
    ]);
    let mut child = ats()
        .args(["serve", store.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ats serve");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    assert!(line.starts_with("listening on "), "{line:?}");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"quit\n")
        .expect("write quit");
    let status = child.wait().expect("daemon exit");
    assert!(status.success(), "{status:?}");
}

#[test]
fn save_generate_is_bitwise_identical_to_file_then_save() {
    let dir = TestDir::new("ats-save-gen");
    let data = dir.file("data.atsm");
    let via_file = dir.file("via-file");
    let direct = dir.file("direct");

    // Path A: generate a .atsm, then save it.
    run_ok(&[
        "generate",
        "stocks",
        "--rows",
        "60",
        "--cols",
        "32",
        "--seed",
        "9",
        "--out",
        data.to_str().unwrap(),
    ]);
    run_ok(&[
        "save",
        data.to_str().unwrap(),
        "--out",
        via_file.to_str().unwrap(),
        "--shards",
        "2",
    ]);

    // Path B: stream the generator straight into the build.
    run_ok(&[
        "save",
        "--generate",
        "stocks",
        "--rows",
        "60",
        "--cols",
        "32",
        "--seed",
        "9",
        "--out",
        direct.to_str().unwrap(),
        "--shards",
        "2",
    ]);

    // Every store component must match byte for byte (the store is a
    // directory tree: manifest + per-shard subdirectories).
    fn walk(root: &std::path::Path, rel: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for e in std::fs::read_dir(root.join(rel)).unwrap() {
            let e = e.unwrap();
            let rel = rel.join(e.file_name());
            if e.file_type().unwrap().is_dir() {
                walk(root, &rel, out);
            } else {
                out.push(rel);
            }
        }
    }
    let mut names = Vec::new();
    walk(&via_file, std::path::Path::new(""), &mut names);
    names.sort();
    assert!(names.len() >= 3, "only found {names:?}");
    for name in &names {
        let a = std::fs::read(via_file.join(name)).unwrap();
        let b = std::fs::read(direct.join(name)).unwrap();
        assert_eq!(
            a,
            b,
            "{} differs between the two build paths",
            name.display()
        );
    }

    // And the direct store answers queries.
    let v = run_ok(&["query", direct.to_str().unwrap(), "cell 10 10"]);
    let w = run_ok(&["query", via_file.to_str().unwrap(), "cell 10 10"]);
    assert_eq!(v, w);
}

#[test]
fn save_flag_validation() {
    let dir = TestDir::new("ats-save-gen");
    // FILE and --generate together is a usage error (exit 2)…
    let out = ats()
        .args([
            "save",
            "x.atsm",
            "--generate",
            "phone",
            "--out",
            dir.file("s").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // …as is --rows without --generate, and neither FILE nor --generate.
    let out = ats()
        .args([
            "save",
            "x.atsm",
            "--rows",
            "5",
            "--out",
            dir.file("s").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = ats()
        .args(["save", "--out", dir.file("s").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
