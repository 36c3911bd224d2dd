//! `atsbench compare BASE.jsonl NEW.jsonl`: do two sets of runs agree?
//!
//! Each file holds the lines `--out` appended, one per run. For every pair of
//! end-to-end metric and workload it prints both medians, their ratio, the
//! metric's bound and a verdict, then the failed share of each workload.

use crate::json::{self, Value};
use crate::spec::{self, Better};
use crate::stats;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side disagree by more than the bound, so the medians
    /// cannot show a change of that size.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One set of runs: metric values by (workload, metric), and operation counts.
#[derive(Debug, Default)]
pub struct RunSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    /// (attempted, failed) by workload.
    ops: BTreeMap<String, (f64, f64)>,
}

pub fn parse_runs(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    for (ln, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", ln + 1))?;
        let field = |k: &str| doc.get(k).ok_or(format!("line {}: no {k:?}", ln + 1));
        if field("trace")? != &Value::Bool(false) {
            continue;
        }
        let workload = field("workload")?
            .as_str()
            .ok_or("workload is not a string")?;
        let ops = set.ops.entry(workload.to_string()).or_default();
        ops.0 += field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")?;
        ops.1 += field("failed")?.as_f64().ok_or("failed is not a number")?;
        for (name, m) in field("metrics")?
            .as_obj()
            .ok_or("metrics is not an object")?
        {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("line {}: metric {name} has no value", ln + 1))?;
            set.values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok(set)
}

/// Spread of one side's runs; a single run has none.
fn spread(v: &[f64]) -> f64 {
    if v.len() >= 2 {
        stats::spread(v)
    } else {
        0.0
    }
}

/// Share by which `new` is worse than `base` (negative when better).
fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

pub fn judge(better: Better, bound: f64, base: &[f64], new: &[f64]) -> Verdict {
    if spread(base).max(spread(new)) > bound {
        // Resolved all the same when every new run beats every base run.
        let all_better = new
            .iter()
            .all(|n| base.iter().all(|b| worse_by(better, *b, *n) < 0.0));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by(better, stats::median(base), stats::median(new)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The comparison table and whether anything regressed.
pub fn compare(base: &RunSet, new: &RunSet) -> (String, bool) {
    let mut out = String::from(
        "workload        metric               base          new           new/base  bound  spread(base,new)  verdict\n",
    );
    let mut regressed = false;
    for ((workload, metric), b) in &base.values {
        let (Some(n), Some((m, bound))) = (
            new.values.get(&(workload.clone(), metric.clone())),
            spec::end_to_end(metric),
        ) else {
            continue;
        };
        let verdict = judge(m.better, *bound, b, n);
        regressed |= verdict == Verdict::Regressed;
        let (mb, mn) = (stats::median(b), stats::median(n));
        out.push_str(&format!(
            "{workload:<15} {metric:<20} {mb:<13.6} {mn:<13.6} {:<9.4} {bound:<6} {:.4},{:.4} (n={},{})  {}\n",
            mn / mb,
            spread(b),
            spread(n),
            b.len(),
            n.len(),
            verdict.as_str(),
        ));
    }
    for (workload, (attempted, failed)) in &base.ops {
        let (na, nf) = new.ops.get(workload).copied().unwrap_or((0.0, 0.0));
        out.push_str(&format!(
            "{workload:<15} failed share         {:<13.6} {:<13.6}\n",
            failed / attempted.max(1.0),
            nf / na.max(1.0),
        ));
    }
    (out, regressed)
}

pub fn run(argv: &[String]) -> Result<bool, String> {
    let [base, new] = argv else {
        return Err("usage: atsbench compare BASE.jsonl NEW.jsonl".into());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| parse_runs(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (table, regressed) = compare(&read(base)?, &read(new)?);
    print!("{table}");
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, p50: f64, qps: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"seconds\": 10, \"trace\": false, \"smoke\": false, \
             \"correct\": true, \"attempted\": 100, \"failed\": 0, \"metrics\": {{\
             \"op_p50_ms\": {{\"value\": {p50}, \"unit\": \"ms\"}}, \
             \"ops_per_s\": {{\"value\": {qps}, \"unit\": \"1/s\"}}}}}}\n"
        )
    }

    #[test]
    fn verdicts() {
        // Within the bound either way.
        assert_eq!(
            judge(Better::Lower, 0.10, &[1.0, 1.01, 0.99], &[1.05, 1.06, 1.04]),
            Verdict::Ok
        );
        // Slower by more than the bound, runs tight: regressed.
        assert_eq!(
            judge(Better::Lower, 0.10, &[1.0, 1.01, 0.99], &[1.2, 1.21, 1.19]),
            Verdict::Regressed
        );
        // Higher is better: a drop is the regression, a rise is not.
        assert_eq!(
            judge(
                Better::Higher,
                0.10,
                &[100.0, 101.0, 99.0],
                &[80.0, 81.0, 79.0]
            ),
            Verdict::Regressed
        );
        assert_eq!(
            judge(
                Better::Higher,
                0.10,
                &[100.0, 101.0, 99.0],
                &[120.0, 121.0, 119.0]
            ),
            Verdict::Ok
        );
        // One side's own runs differ by more than the bound: unresolved ...
        assert_eq!(
            judge(Better::Lower, 0.10, &[1.0, 1.3, 0.8], &[1.1, 1.1, 1.1]),
            Verdict::Unresolved
        );
        // ... unless every new run beats every base run.
        assert_eq!(
            judge(Better::Lower, 0.10, &[1.0, 1.3, 0.8], &[0.5, 0.6, 0.7]),
            Verdict::Ok
        );
        // Single runs have no spread and compare directly.
        assert_eq!(
            judge(Better::Lower, 0.10, &[1.0], &[1.2]),
            Verdict::Regressed
        );
    }

    #[test]
    fn table_rows_and_exit() {
        let base = parse_runs(
            &[
                line("a", 1.0, 500.0),
                line("a", 1.02, 505.0),
                line("a", 0.98, 495.0),
            ]
            .concat(),
        )
        .unwrap();
        let same = parse_runs(
            &[
                line("a", 1.01, 501.0),
                line("a", 1.0, 499.0),
                line("a", 1.03, 507.0),
            ]
            .concat(),
        )
        .unwrap();
        let slow = parse_runs(
            &[
                line("a", 1.5, 300.0),
                line("a", 1.52, 305.0),
                line("a", 1.49, 295.0),
            ]
            .concat(),
        )
        .unwrap();
        let (table, regressed) = compare(&base, &same);
        assert!(!regressed, "{table}");
        assert_eq!(table.matches(" ok\n").count(), 2, "{table}");
        assert!(table.contains("failed share"));
        let (table, regressed) = compare(&base, &slow);
        assert!(regressed);
        assert_eq!(table.matches(" regressed\n").count(), 2, "{table}");
    }

    #[test]
    fn traced_lines_are_skipped_and_garbage_is_an_error() {
        let traced = line("a", 1.0, 1.0).replace("\"trace\": false", "\"trace\": true");
        assert!(parse_runs(&traced).unwrap().values.is_empty());
        assert!(parse_runs("{\"workload\": 3}").is_err());
        assert!(parse_runs("not json").is_err());
    }
}
