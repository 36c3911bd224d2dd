//! What the benchmark measures: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the root of
//! the repository is `atsbench spec` written to a file; a test keeps the two
//! from drifting apart.

use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// How long one driver run measures.
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "point_hot",
        why: "256-cell batches, Zipf rows, every U row resident: storage I/O is bypassed, so batch sort/group, cell kernels, delta probe and the pool hit path are what is timed",
    },
    Workload {
        name: "point_cold",
        why: "the same batch stream on the default 1024-page pool (under 2 % of the U rows): eviction, one pread per miss and the pool split do the work",
    },
    Workload {
        name: "oneshot_cell",
        why: "open the saved store, answer one `cell i j`, close: what every `ats query` pays, dominated by manifest validation, CRCs and synopsis decode",
    },
    Workload {
        name: "scan_full",
        why: "`<agg> rows all cols all` as query text on 2 threads: blocked kernels and the block/shard walk over one sequential pass of every U row",
    },
    Workload {
        name: "where_rare",
        why: "`<agg> rows all where value > x` matching 0.1 % of cells: zone maps prune most tiles, so routing and synopsis classification dominate",
    },
    Workload {
        name: "where_all",
        why: "the same `where` scan with an always-true predicate: nothing can be pruned, so it is the full scan plus the predicate path",
    },
    Workload {
        name: "serve_mixed",
        why: "the `ats serve` daemon over 2 connections: a depth-1 interactive mix gives the latency, 32-deep pipelined cells give the capacity",
    },
    Workload {
        name: "build_mono",
        why: "write path: the paper's 3-pass SVDD build (1 shard, 1 time block, 1 thread, the CLI default) plus crash-safe save, from a file on disk",
    },
];

/// End-to-end metrics, each with the share of the parent's median it may
/// worsen by before a change counts as a regression.
pub const END_TO_END: &[(Metric, f64)] = &[
    (
        Metric {
            name: "op_p50_ms",
            unit: "ms",
            better: Better::Lower,
        },
        0.25,
    ),
    (
        Metric {
            name: "op_tail_ms",
            unit: "ms",
            better: Better::Lower,
        },
        0.25,
    ),
    (
        Metric {
            name: "ops_per_s",
            unit: "1/s",
            better: Better::Higher,
        },
        0.25,
    ),
    (
        Metric {
            name: "store_space_ratio",
            unit: "ratio",
            better: Better::Lower,
        },
        0.01,
    ),
    (
        Metric {
            name: "rmspe_pct",
            unit: "%",
            better: Better::Lower,
        },
        0.01,
    ),
    (
        Metric {
            name: "peak_rss_mb",
            unit: "MiB",
            better: Better::Lower,
        },
        0.15,
    ),
    (
        Metric {
            name: "setup_s",
            unit: "s",
            better: Better::Lower,
        },
        0.25,
    ),
];

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics; layers are the library crates. The README lists which
/// end-to-end metric each should move, and on which workload.
pub const PER_LAYER: &[Metric] = &[
    // ats-linalg: timed calls into the kernels at the store's own shapes.
    lower("linalg.reconstruct_rows_block_ns_per_cell", "ns/cell"),
    lower("linalg.reconstruct_rows_mono_ns_per_cell", "ns/cell"),
    lower("linalg.reconstruct_cells_1col_ns_per_cell", "ns/cell"),
    lower("linalg.reconstruct_cells_8col_ns_per_cell", "ns/cell"),
    lower("linalg.sym_eigen_ms", "ms"),
    higher("linalg.dot8_melem_per_s", "Melem/s"),
    higher("linalg.axpy8_melem_per_s", "Melem/s"),
    // ats-storage: pool counters around the workload's own phase ...
    higher("storage.pool_hit_ratio", "ratio"),
    lower("storage.logical_reads_per_cell", "1/cell"),
    lower("storage.physical_reads_per_cell", "1/cell"),
    lower("storage.bytes_read_per_cell", "B/cell"),
    lower("storage.reads_over_model", "ratio"),
    // ... and timed calls.
    lower("storage.read_row_hit_ns", "ns"),
    lower("storage.read_row_miss_ns", "ns"),
    lower("storage.validate_ms", "ms"),
    lower("storage.synopsis_decode_us", "us"),
    higher("storage.scan_range_mb_per_s", "MB/s"),
    higher("storage.write_source_mb_per_s", "MB/s"),
    lower("storage.store_bytes", "bytes"),
    lower("storage.u_bytes", "bytes"),
    lower("storage.delta_bytes", "bytes"),
    lower("storage.synopsis_bytes", "bytes"),
    // ats-compress
    lower("compress.gram_ms", "ms"),
    lower("compress.gram_time_over_model", "ratio"),
    lower("compress.svdd_compress_ms", "ms"),
    lower("compress.k_opt", "count"),
    lower("compress.deltas", "count"),
    lower("compress.delta_probe_hit_ns", "ns"),
    lower("compress.delta_probe_miss_ns", "ns"),
    lower("compress.mem_cell_ns", "ns"),
    // ats-query
    lower("query.parse_cell_ns", "ns"),
    lower("query.parse_agg_ns", "ns"),
    lower("query.parse_where_ns", "ns"),
    lower("query.mem_batch_ns_per_cell", "ns/cell"),
    lower("query.batch_distinct_row_ratio", "ratio"),
    lower("query.mem_aggregate_ns_per_cell", "ns/cell"),
    lower("query.range_ms", "ms"),
    lower("query.where_pages_rare", "count"),
    lower("query.where_pages_all", "count"),
    lower("query.where_pages_exact", "count"),
    lower("query.where_pruned_over_exact_rare", "ratio"),
    lower("query.where_pruned_over_exact_all", "ratio"),
    lower("query.threads2_over_threads1_full", "ratio"),
    // ats-core
    lower("core.single_cell_hot_ns", "ns"),
    lower("core.single_cell_cold_ns", "ns"),
    lower("core.disk_hot_over_mem_batch", "ratio"),
    lower("core.open_ms", "ms"),
    lower("core.open_validate_share", "ratio"),
    lower("core.range_blocks_touched", "count"),
    lower("core.range_over_full", "ratio"),
    lower("core.build_blocked_ms", "ms"),
    lower("core.save_ms", "ms"),
    lower("core.append_rows_ms", "ms"),
    lower("core.append_time_ms", "ms"),
    lower("core.threads2_over_threads1_mono_build", "ratio"),
    lower("core.sharded4_over_mono_build", "ratio"),
    lower("core.rmspe_mono_pct", "%"),
    lower("core.worst_abs_blocked", "value"),
    lower("core.worst_abs_mono", "value"),
    lower("core.q_err_full_avg", "ratio"),
    // ats_query::serve, from a short scripted session on the daemon
    lower("serve.batches", "count"),
    higher("serve.cells_per_batch_interactive", "cells"),
    higher("serve.cells_per_batch_saturated", "cells"),
    lower("serve.agg_scans", "count"),
    higher("serve.aggs_per_scan", "ratio"),
    lower("serve.busy", "count"),
    lower("serve.errors", "count"),
    lower("serve.server_mean_latency_us", "us"),
    lower("serve.ping_rtt_us", "us"),
    lower("serve.admission_wait_share", "ratio"),
    lower("serve.cpu_us_per_req", "us"),
    lower("serve.over_5ms_ratio", "ratio"),
    // the traced run itself
    lower("trace.overhead_pct", "%"),
    lower("trace.spans", "count"),
    lower("trace.sampled_ops", "count"),
    lower("trace.self_sum_over_root", "ratio"),
    lower("trace.harness_self_share", "ratio"),
    lower("trace.replay_over_e2e", "ratio"),
];

/// An end-to-end metric and its bound, by name.
pub fn end_to_end(name: &str) -> Option<&'static (Metric, f64)> {
    END_TO_END.iter().find(|(m, _)| m.name == name)
}

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> Value {
    let s = |v: &str| Value::Str(v.to_string());
    let command = [
        "cargo",
        "run",
        "--quiet",
        "--release",
        "--manifest-path",
        "atsbench/Cargo.toml",
        "--",
    ];
    Value::Obj(vec![
        (
            "command".into(),
            Value::Arr(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths".into(), Value::Arr(vec![s("atsbench")])),
        ("run_seconds".into(), Value::Num(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::Obj(vec![("name".into(), s(w.name)), ("why".into(), s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|(m, bound)| {
                        Value::Obj(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.as_str())),
                            ("bound".into(), Value::Num(*bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::Obj(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `BENCHMARK.json` as committed: one workload or metric per line.
pub fn benchmark_json_text() -> String {
    let doc = benchmark_json();
    let mut out = String::from("{\n");
    let fields = doc.as_obj().expect("the document is an object");
    for (i, (key, value)) in fields.iter().enumerate() {
        let last = i + 1 == fields.len();
        match value {
            Value::Arr(items) if matches!(items.first(), Some(Value::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 == items.len() { "" } else { "," };
                    out.push_str(&format!("    {}{comma}\n", item.render()));
                }
                out.push_str("  ]");
            }
            other => out.push_str(&format!("  \"{key}\": {}", other.render())),
        }
        out.push_str(if last { "\n" } else { ",\n" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.as_bytes()[0].is_ascii_alphanumeric()
            && n.bytes()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|(m, _)| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in WORKLOADS {
            assert!(
                w.why.chars().count() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
        for m in END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit.bytes().all(|c| c.is_ascii_alphanumeric()
                        || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-')),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
        }
        for (m, bound) in END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", m.name);
        }
        let (setup, bound) = END_TO_END
            .iter()
            .find(|(m, _)| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|(_, b)| b <= bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(
            text,
            benchmark_json_text(),
            "regenerate it with `atsbench spec`"
        );
    }
}
