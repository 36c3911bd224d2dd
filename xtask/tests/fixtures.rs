//! Golden corpus for the lint rules.
//!
//! Every fixture in `tests/fixtures/` is named `<rule>_tp*.rs` (must
//! trip exactly that rule) or `<rule>_tn*.rs` (must not trip it), with
//! underscores standing in for the rule name's dashes. The first line
//! carries a `//# lint-path: <path>` directive giving the virtual
//! workspace-relative path the file is linted under — that is how a
//! fixture opts into path-scoped rules (untrusted surfaces, float hot
//! files) without living at those paths.
//!
//! Two guarantees, both asserted by name: each fixture behaves as its
//! name claims, and every rule in [`rules::RULES`] has at
//! least one true-positive and one true-negative fixture.

use std::collections::BTreeSet;
use std::path::PathBuf;
use xtask::rules::{self, lint_source};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// `(fixture file name, rule name, is true positive, source text)`.
fn corpus() -> Vec<(String, String, bool, String)> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(fixtures_dir()).expect("fixtures dir");
    for entry in entries {
        let path = entry.expect("fixture entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("fixture name")
            .to_string();
        if !name.ends_with(".rs") {
            continue;
        }
        let stem = name.trim_end_matches(".rs");
        let (rule_part, tp) = if let Some(r) = stem.split_once("_tp").map(|(r, _)| r) {
            (r, true)
        } else if let Some(r) = stem.split_once("_tn").map(|(r, _)| r) {
            (r, false)
        } else {
            panic!("fixture {name} is neither a _tp nor a _tn case");
        };
        let rule = rule_part.replace('_', "-");
        assert!(
            rules::RULES.iter().any(|&(n, _)| n == rule),
            "fixture {name} names unknown rule {rule:?}"
        );
        let src = std::fs::read_to_string(&path).expect("read fixture");
        out.push((name, rule, tp, src));
    }
    assert!(!out.is_empty(), "fixture corpus is empty");
    out
}

/// The virtual path the fixture is linted under.
fn lint_path(name: &str, src: &str) -> String {
    src.lines()
        .next()
        .and_then(|l| l.strip_prefix("//# lint-path:"))
        .unwrap_or_else(|| panic!("{name}: first line must be `//# lint-path: <path>`"))
        .trim()
        .to_string()
}

#[test]
fn every_fixture_behaves_as_its_name_claims() {
    for (name, rule, tp, src) in corpus() {
        let path = lint_path(&name, &src);
        let findings = lint_source(&path, &src);
        let hits: Vec<_> = findings.iter().filter(|f| f.rule == rule).collect();
        if tp {
            assert!(
                !hits.is_empty(),
                "{name}: expected a {rule} finding, got {findings:?}"
            );
        } else {
            assert!(
                hits.is_empty(),
                "{name}: expected no {rule} findings, got {hits:?}"
            );
        }
    }
}

#[test]
fn true_positive_fixtures_trip_only_their_own_rule() {
    // A TP fixture that also trips unrelated rules is demonstrating the
    // wrong thing; keep each one a minimal reproduction.
    for (name, rule, tp, src) in corpus() {
        if !tp {
            continue;
        }
        let findings = lint_source(&lint_path(&name, &src), &src);
        let others: Vec<_> = findings.iter().filter(|f| f.rule != rule).collect();
        assert!(others.is_empty(), "{name}: unrelated findings {others:?}");
    }
}

#[test]
fn true_negative_fixtures_are_fully_clean() {
    for (name, _, tp, src) in corpus() {
        if tp {
            continue;
        }
        let findings = lint_source(&lint_path(&name, &src), &src);
        assert!(findings.is_empty(), "{name}: {findings:?}");
    }
}

#[test]
fn every_rule_has_a_tp_and_a_tn_fixture() {
    let mut tps = BTreeSet::new();
    let mut tns = BTreeSet::new();
    for (_, rule, tp, _) in corpus() {
        if tp {
            tps.insert(rule);
        } else {
            tns.insert(rule);
        }
    }
    for &(rule, _) in rules::RULES {
        assert!(
            tps.contains(rule),
            "rule {rule} has no true-positive fixture"
        );
        assert!(
            tns.contains(rule),
            "rule {rule} has no true-negative fixture"
        );
    }
}
