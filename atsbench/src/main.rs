//! `atsbench`: this repository's benchmark.
//!
//! ```text
//! atsbench [run] --workload NAME --seed N --seconds S --trace 0|1 [--out FILE] [--smoke]
//! atsbench compare BASE.jsonl NEW.jsonl
//! atsbench spec
//! ```
//!
//! A run prints every metric as `name value unit`, then one JSON object as
//! its last line. See `README.md` beside this crate.

mod compare;
mod fixture;
mod json;
mod probes;
mod rng;
mod spec;
mod stats;
mod trace;
mod workloads;

use fixture::{Cx, QueryFixture, Scratch, Sizes, DEFAULT_POOL_PAGES};
use json::Value;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Note, Outcome, Workload};

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !spec::WORKLOADS.iter().any(|s| s.name == w) {
                    let names: Vec<_> = spec::WORKLOADS.iter().map(|s| s.name).collect();
                    return Err(format!("unknown workload {w:?}; one of {names:?}"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// What one run of one workload found.
struct Report {
    workload: &'static str,
    attempted: u64,
    failed: u64,
    /// Every metric the contract asks for, by name.
    metrics: Vec<(String, f64)>,
    /// Further `name value unit` lines for the reader.
    notes: Vec<Note>,
    violations: Vec<String>,
}

impl Report {
    /// Every check passed (operations that failed are counted apart).
    fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Set up (several times), measure with tracing off, check, and report the
/// end-to-end metrics.
fn run_end_to_end<W: Workload>(
    cx: &Cx,
    name: &'static str,
    seconds: f64,
) -> ats_common::Result<Report> {
    let mut setups = Vec::new();
    let mut current: Option<(W, PathBuf)> = None;
    for round in 0..SETUP_REPEATS {
        if let Some((w, dir)) = current.take() {
            w.finish()?;
            std::fs::remove_dir_all(dir)?;
        }
        let dir = cx.scratch.join(format!("{name}-{round}"));
        let t0 = Instant::now();
        let w = W::setup(cx, &dir)?;
        setups.push(t0.elapsed().as_secs_f64());
        current = Some((w, dir));
    }
    let (mut w, _) = current.expect("SETUP_REPEATS is at least one");
    let out = w.measure(Duration::from_secs_f64(seconds), false)?;
    let mut notes = Vec::new();
    let mut violations = w.verify(&mut notes)?;
    let Outcome {
        latency_ns,
        completed_ns,
        attempted,
        failed,
        violations: during,
        notes: phase_notes,
        ..
    } = out;
    violations.extend(during);
    notes.extend(phase_notes);

    let latency = sorted(latency_ns);
    let tail_pct = stats::tail_percentile(latency.len(), W::TAIL_DESIGN);
    notes.push((
        "op_tail_percentile".into(),
        format!(
            "{} pct ({} samples, {} beyond)",
            tail_pct * 100.0,
            latency.len(),
            stats::samples_beyond(latency.len(), tail_pct)
        ),
    ));
    let mut rates = stats::segment_rates_per_s(&completed_ns);
    rates.sort_by(f64::total_cmp);
    notes.push((
        "ops_per_s_segments".into(),
        format!(
            "{:.4} min, {:.4} max, {} segments",
            rates[0],
            rates[rates.len() - 1],
            rates.len()
        ),
    ));
    let data = w.data();
    let raw_bytes = (data.rows() * data.cols() * 8) as f64;
    let store_dir = w.store_dir();
    let saved = ats_core::timeblock::TimeBlockedStore::open(&store_dir, DEFAULT_POOL_PAGES)?;
    let accuracy = ats_query::metrics::error_report(data, &saved)?;
    notes.push((
        "worst_abs_error".into(),
        format!("{} value", accuracy.max_abs_error),
    ));
    let metrics = vec![
        (
            "op_p50_ms".into(),
            ms(stats::percentile_sorted(&latency, 0.50)),
        ),
        (
            "op_tail_ms".into(),
            ms(stats::percentile_sorted(&latency, tail_pct)),
        ),
        (
            "ops_per_s".into(),
            stats::segment_median_per_s(&completed_ns),
        ),
        (
            "store_space_ratio".into(),
            fixture::store_bytes(&store_dir)?.total as f64 / raw_bytes,
        ),
        ("rmspe_pct".into(), accuracy.rmspe * 100.0),
        ("peak_rss_mb".into(), fixture::peak_rss_mb()?),
        ("setup_s".into(), stats::median(&setups)),
    ];
    drop(saved);
    w.finish()?;
    Ok(Report {
        workload: name,
        attempted,
        failed,
        metrics,
        notes,
        violations,
    })
}

/// Set up once, measure half the time with tracing off and half with it on,
/// run the per-layer probes, write the trace, and report the per-layer metrics.
fn run_traced<W: Workload>(
    cx: &Cx,
    name: &'static str,
    seconds: f64,
) -> ats_common::Result<Report> {
    let dir = cx.scratch.join(name);
    let mut w = W::setup(cx, &dir)?;
    let half = Duration::from_secs_f64(seconds / 2.0);
    let plain = w.measure(half, false)?;
    let traced = w.measure(half, true)?;
    let mut notes = Vec::new();
    let mut violations = w.verify(&mut notes)?;
    violations.extend(plain.violations);
    violations.extend(traced.violations);

    let p50 = |o: &[u64]| stats::percentile_sorted(&sorted(o.to_vec()), 0.50) as f64;
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let io = traced.io;
    let cells = traced.cells.max(1) as f64;
    let lookups = (io.cache_hits + io.physical_reads).max(1) as f64;
    metrics.push((
        "storage.pool_hit_ratio".into(),
        io.cache_hits as f64 / lookups,
    ));
    metrics.push((
        "storage.logical_reads_per_cell".into(),
        io.logical_reads as f64 / cells,
    ));
    metrics.push((
        "storage.physical_reads_per_cell".into(),
        io.physical_reads as f64 / cells,
    ));
    metrics.push((
        "storage.bytes_read_per_cell".into(),
        io.bytes_read as f64 / cells,
    ));
    metrics.push((
        "storage.reads_over_model".into(),
        io.logical_reads as f64 / traced.model_pairs.max(1) as f64,
    ));

    let spans = &traced.spans;
    let summary = trace::summarize(spans);
    metrics.push((
        "trace.overhead_pct".into(),
        (p50(&traced.latency_ns) / p50(&plain.latency_ns) - 1.0) * 100.0,
    ));
    metrics.push(("trace.spans".into(), spans.len() as f64));
    metrics.push(("trace.sampled_ops".into(), summary.sampled_ops as f64));
    metrics.push((
        "trace.self_sum_over_root".into(),
        summary.self_sum_over_roots,
    ));
    metrics.push(("trace.harness_self_share".into(), summary.root_self_share));
    metrics.push(("trace.replay_over_e2e".into(), summary.replay_over_e2e));
    if (summary.self_sum_over_roots - 1.0).abs() > 0.05 {
        violations.push(format!(
            "span self times sum to {} of their root spans",
            summary.self_sum_over_roots
        ));
    }
    for (span, t) in trace::totals_by_name(spans) {
        notes.push((
            format!("trace.span.{span}"),
            format!(
                "{} count, {:.3} ms total, {:.3} ms self",
                t.count,
                ms(t.total_ns),
                ms(t.self_ns)
            ),
        ));
    }
    if traced.spans_dropped > 0 {
        notes.push((
            "trace.spans_dropped".into(),
            format!("{} count", traced.spans_dropped),
        ));
    }
    let path = fixture::target_dir()?
        .join("atsbench")
        .join(format!("{name}.trace.jsonl"));
    trace::write_jsonl(&path, spans)?;
    notes.push(("trace.file".into(), path.display().to_string()));

    // The probes time calls into each layer on this run's dataset and store;
    // a workload without a query store of its own gets one built here.
    match w.query_fixture() {
        Some(fx) => probes::run(cx, fx, &mut metrics, &mut notes)?,
        None => {
            let fx = QueryFixture::build(cx, &cx.scratch.join("probe-store"), DEFAULT_POOL_PAGES)?;
            probes::run(cx, &fx, &mut metrics, &mut notes)?;
        }
    }
    w.finish()?;
    Ok(Report {
        workload: name,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
        notes,
        violations,
    })
}

fn run_workload(
    cx: &Cx,
    name: &'static str,
    seconds: f64,
    traced: bool,
) -> ats_common::Result<Report> {
    use workloads::{build::BuildMono, oneshot::Oneshot, point::Point, scan, serve::Serve};
    fn go<W: Workload>(
        cx: &Cx,
        name: &'static str,
        seconds: f64,
        traced: bool,
    ) -> ats_common::Result<Report> {
        if traced {
            run_traced::<W>(cx, name, seconds)
        } else {
            run_end_to_end::<W>(cx, name, seconds)
        }
    }
    match name {
        "point_hot" => go::<Point<true>>(cx, name, seconds, traced),
        "point_cold" => go::<Point<false>>(cx, name, seconds, traced),
        "oneshot_cell" => go::<Oneshot>(cx, name, seconds, traced),
        "scan_full" => go::<scan::Scan<{ scan::FULL }>>(cx, name, seconds, traced),
        "where_rare" => go::<scan::Scan<{ scan::RARE }>>(cx, name, seconds, traced),
        "where_all" => go::<scan::Scan<{ scan::ALL }>>(cx, name, seconds, traced),
        "serve_mixed" => go::<Serve>(cx, name, seconds, traced),
        "build_mono" => go::<BuildMono>(cx, name, seconds, traced),
        other => Err(ats_common::AtsError::InvalidArgument(format!(
            "workload {other:?} has no implementation"
        ))),
    }
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(r: &Report, traced: bool) -> Result<Value, String> {
    let table: Vec<&spec::Metric> = if traced {
        spec::PER_LAYER.iter().collect()
    } else {
        spec::END_TO_END.iter().map(|(m, _)| m).collect()
    };
    let mut metrics = Vec::new();
    for m in table {
        let (_, v) = r.metrics.iter().find(|(n, _)| n == m.name).ok_or(format!(
            "{}: metric {} was not measured",
            r.workload, m.name
        ))?;
        if !v.is_finite() {
            return Err(format!("{}: metric {} is {v}", r.workload, m.name));
        }
        metrics.push((
            m.name.to_string(),
            Value::Obj(vec![
                ("value".into(), Value::Num(*v)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]),
        ));
    }
    Ok(Value::Obj(vec![
        ("correct".into(), Value::Bool(r.correct())),
        ("attempted".into(), Value::Num(r.attempted as f64)),
        ("failed".into(), Value::Num(r.failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]))
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .map(|(m, _)| m)
        .chain(spec::PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

fn run(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    let scratch = Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    let cx = Cx {
        seed: args.seed,
        sizes: if args.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        },
        scratch: scratch.path.clone(),
    };
    let mut all_correct = true;
    for w in spec::WORKLOADS {
        if args.workload.as_deref().is_some_and(|only| only != w.name) {
            continue;
        }
        let report = run_workload(&cx, w.name, args.seconds, args.trace)
            .map_err(|e| format!("{}: {e}", w.name))?;
        let result = result_json(&report, args.trace)?;
        println!(
            "workload {} seed {} seconds {} trace {}",
            w.name,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        println!("ops {} count", report.attempted);
        println!("failed {} count", report.failed);
        for (name, value) in &report.metrics {
            println!("{name} {value} {}", unit_of(name));
        }
        for (name, text) in &report.notes {
            println!("{name} {text}");
        }
        for v in &report.violations {
            println!("VIOLATION {v}");
        }
        if let Some(path) = &args.out {
            let mut line = vec![
                ("workload".to_string(), Value::Str(w.name.into())),
                ("seed".to_string(), Value::Num(args.seed as f64)),
                ("seconds".to_string(), Value::Num(args.seconds)),
                ("trace".to_string(), Value::Bool(args.trace)),
                ("smoke".to_string(), Value::Bool(args.smoke)),
            ];
            line.extend(
                result
                    .as_obj()
                    .expect("result is an object")
                    .iter()
                    .cloned(),
            );
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            writeln!(f, "{}", Value::Obj(line).render()).map_err(|e| e.to_string())?;
        }
        println!("{}", result.render());
        all_correct &= report.correct() && report.failed == 0;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => compare::run(&argv[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json_text());
            Ok(true)
        }
        Some("run") => run(&argv[1..]),
        _ => run(&argv),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("atsbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&args(
            "--workload point_cold --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("point_cold"));
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (7, 3.0, true, false));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--trace yes")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
    }

    /// Every workload, end to end and traced, at the smoke size: keeps the
    /// harness compiling, running and passing its own correctness gate, and
    /// checks that both runs emit exactly the metrics `BENCHMARK.json` lists.
    #[test]
    fn smoke_runs_every_workload() {
        let scratch = Scratch::create().unwrap();
        let cx = Cx {
            seed: 3,
            sizes: Sizes::SMOKE,
            scratch: scratch.path.clone(),
        };
        for w in spec::WORKLOADS {
            for traced in [false, true] {
                let r = run_workload(&cx, w.name, 0.25, traced).unwrap();
                assert!(
                    r.correct(),
                    "{} traced={traced}: {:?}",
                    w.name,
                    r.violations
                );
                assert_eq!(r.failed, 0, "{}", w.name);
                assert!(r.attempted >= 1, "{}", w.name);
                let doc = result_json(&r, traced).unwrap();
                let keys: Vec<&str> = doc
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let want = if traced {
                    spec::PER_LAYER.len()
                } else {
                    spec::END_TO_END.len()
                };
                assert_eq!(doc.get("metrics").unwrap().as_obj().unwrap().len(), want);
                if !traced {
                    for (name, v) in &r.metrics {
                        assert!(*v > 0.0, "{}: {name} = {v}", w.name);
                    }
                }
            }
        }
    }
}
