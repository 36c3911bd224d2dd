//! Workspace automation for the ad-hoc time-sequence store.
//!
//! `cargo xtask lint` (or `cargo run -p xtask -- lint`) walks every
//! workspace crate and enforces the repo-specific invariants described
//! in DESIGN.md §"Error-handling and invariants": panic-free library
//! code, checked conversions on untrusted input, `AtsError` on public
//! fallible APIs, a single workspace-level lint table, and (since the
//! block-scoped pass) lock discipline in the daemon, canonical float
//! accumulation in the numeric hot files, and bound-checked allocations
//! on untrusted surfaces.
//!
//! Output formats: `--format text` (default), `--format json` (full
//! report including the lock-order graph), `--format github` (workflow
//! annotations for PR diffs). `--json-out PATH` writes the JSON report
//! alongside whichever format is printed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use xtask::graph::{build_lock_graph, LockGraph};
use xtask::output::{render_github, render_json};
use xtask::rules::{self, Finding};

/// Source roots scanned for `.rs` files, relative to the workspace root.
const SOURCE_ROOTS: &[&str] = &["crates", "src"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("rules") if args.len() == 1 => {
            for (name, what) in rules::RULES {
                println!("{name:<20} {what}");
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: cargo xtask <lint [--format text|json|github] [--json-out PATH] | rules>"
            );
            ExitCode::from(2)
        }
    }
}

/// Whole-workspace lint must stay interactive-fast: a linter slow enough
/// to annoy is a linter people stop running, so `lint` fails past this.
const LINT_WALL_BUDGET_MS: u128 = 2000;

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/xtask, so the workspace root is our parent.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().unwrap_or(manifest).to_path_buf()
}

/// The full workspace lint pass: per-file rules, manifest checks, and
/// the cross-file lock-order graph. Returns findings sorted and deduped.
fn lint_workspace(root: &Path) -> Result<(Vec<Finding>, LockGraph, usize), String> {
    let mut findings = Vec::new();
    let mut files = Vec::new();
    for src_root in SOURCE_ROOTS {
        collect_rs_files(&root.join(src_root), &mut files);
    }
    files.sort();
    let mut scanned = 0usize;
    let mut graph_sources: Vec<(String, String)> = Vec::new();
    for path in &files {
        let rel = rel_path(root, path);
        // Test trees exercise panics on purpose; xtask polices, it is
        // not itself part of the serving path.
        if rel.contains("/tests/") || rel.starts_with("xtask/") {
            continue;
        }
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {rel}: {e}"))?;
        scanned += 1;
        findings.extend(rules::lint_source(&rel, &src));
        if rules::LOCK_GRAPH_FILES.contains(&rel.as_str()) {
            graph_sources.push((rel, src));
        }
    }

    // Cross-file pass: assemble the lock-order graph and reject cycles.
    let (graph, graph_findings) = build_lock_graph(&graph_sources);
    findings.extend(graph_findings);

    // Manifest checks: workspace lint table + member opt-in.
    let text = std::fs::read_to_string(root.join("Cargo.toml"))
        .map_err(|e| format!("cannot read Cargo.toml: {e}"))?;
    findings.extend(rules::lint_workspace_manifest(&text));
    let mut manifests = Vec::new();
    collect_member_manifests(root, &mut manifests);
    for m in manifests {
        let rel = rel_path(root, &m);
        let text = std::fs::read_to_string(&m).map_err(|e| format!("cannot read {rel}: {e}"))?;
        findings.extend(rules::lint_member_manifest(&rel, &text));
    }

    findings.sort();
    findings.dedup();
    Ok((findings, graph, scanned))
}

fn run_lint(flags: &[String]) -> ExitCode {
    let format = flags
        .iter()
        .position(|a| a == "--format")
        .and_then(|i| flags.get(i + 1))
        .map_or("text", String::as_str);
    if !matches!(format, "text" | "json" | "github") {
        eprintln!("xtask lint: unknown --format {format:?} (text|json|github)");
        return ExitCode::from(2);
    }
    let json_out = flags
        .iter()
        .position(|a| a == "--json-out")
        .and_then(|i| flags.get(i + 1));

    let root = workspace_root();
    let t0 = Instant::now();
    let (findings, graph, scanned) = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask: {e}");
            return ExitCode::from(2);
        }
    };
    let wall_ms = t0.elapsed().as_millis();

    if let Some(out_path) = json_out {
        let json = render_json(&findings, &graph, scanned, wall_ms);
        let p = PathBuf::from(out_path);
        let p = if p.is_absolute() { p } else { root.join(p) };
        if let Err(e) = std::fs::write(&p, json) {
            eprintln!("xtask: cannot write {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }

    match format {
        "json" => print!("{}", render_json(&findings, &graph, scanned, wall_ms)),
        "github" => {
            print!("{}", render_github(&findings));
            eprintln!(
                "xtask lint: {} finding(s) in {scanned} files ({} lock nodes, {} edges)",
                findings.len(),
                graph.nodes.len(),
                graph.edges.len()
            );
        }
        _ => {
            for f in &findings {
                println!("{f}");
            }
        }
    }
    if findings.is_empty() {
        if format == "text" {
            eprintln!(
                "xtask lint: {scanned} files clean ({} lock nodes, {} edges, {wall_ms} ms)",
                graph.nodes.len(),
                graph.edges.len()
            );
        }
        if wall_ms > LINT_WALL_BUDGET_MS {
            eprintln!(
                "xtask lint: wall time {wall_ms} ms exceeds the {LINT_WALL_BUDGET_MS} ms budget"
            );
            return ExitCode::FAILURE;
        }
        ExitCode::SUCCESS
    } else {
        if format == "text" {
            eprintln!(
                "xtask lint: {} finding(s) in {scanned} files",
                findings.len()
            );
        }
        ExitCode::FAILURE
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn collect_member_manifests(root: &Path, out: &mut Vec<PathBuf>) {
    let crates = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates) else {
        return;
    };
    for entry in entries.flatten() {
        let manifest = entry.path().join("Cargo.toml");
        if manifest.is_file() {
            out.push(manifest);
        }
    }
    let xtask = root.join("xtask/Cargo.toml");
    if xtask.is_file() {
        out.push(xtask);
    }
    out.sort();
}
