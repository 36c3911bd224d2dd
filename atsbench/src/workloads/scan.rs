//! `scan_full`, `where_rare`, `where_all`: whole-matrix aggregates sent as
//! query text, one closed-loop client, default pool.

use super::{check_bits, sub, Note, Outcome, Workload};
use crate::fixture::{Cx, QueryFixture, DEFAULT_POOL_PAGES, THREADS};
use crate::rng::Rng;
use crate::trace::Tracer;
use ats_common::{AtsError, Result};
use ats_query::engine::aggregate_exact;
use ats_query::selection::Axis;
use ats_query::{parse_query, run_query, AggregateFn, Query, QueryEngine, Selection};
use ats_storage::{IoSnapshot, MatrixFile, RowSource};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `<agg> rows all cols all`.
pub const FULL: u8 = 0;
/// `<agg> rows all where value > x`, `x` the 99.9 % quantile of served values.
pub const RARE: u8 = 1;
/// The same with `x` below every served value.
pub const ALL: u8 = 2;

/// Aggregates the seed picks from; one scan costs the same for each.
const AGGS: [&str; 5] = ["sum", "avg", "min", "max", "stddev"];
/// Length of the seeded sequence of queries; the loop cycles through it.
const STREAM_OPS: usize = 1024;
/// How far the served full average may be from the exact one. The store is
/// lossy: at the 10 % budget the phone data's average reads 1.7 % low.
const Q_ERR_LIMIT: f64 = 0.05;
/// Share of cells the rare predicate keeps.
pub const RARE_SHARE: f64 = 0.001;

pub struct Scan<const KIND: u8> {
    fx: QueryFixture,
    engine: QueryEngine<'static>,
    /// Query text with the answer its first run gave; every repeat must
    /// reproduce it, and `verify` checks it against an independent route.
    queries: Vec<(String, Option<f64>)>,
    order: Vec<usize>,
    ops_done: u64,
}

/// `<agg> rows all where value > x`.
pub fn where_text(agg: &str, x: f64) -> String {
    format!("{agg} rows all where value > {x}")
}

/// The query texts of one scan kind over `fx`.
fn query_texts(kind: u8, fx: &QueryFixture) -> Result<Vec<String>> {
    let text: Box<dyn Fn(&str) -> String> = match kind {
        FULL => Box::new(|agg| format!("{agg} rows all cols all")),
        RARE => {
            let x = fx.served_quantiles(&[1.0 - RARE_SHARE])?[0];
            Box::new(move |agg| where_text(agg, x))
        }
        _ => {
            let x = fx.served_quantiles(&[0.0])?[0] - 1.0;
            Box::new(move |agg| where_text(agg, x))
        }
    };
    Ok(AGGS.iter().map(|agg| text(agg)).collect())
}

impl<const KIND: u8> Workload for Scan<KIND> {
    // A scan takes tens of milliseconds, so a phase completes tens of them.
    const TAIL_DESIGN: f64 = if KIND == RARE { 0.95 } else { 0.75 };

    fn setup(cx: &Cx, dir: &Path) -> Result<Self> {
        let fx = QueryFixture::build(cx, dir, DEFAULT_POOL_PAGES)?;
        let engine = QueryEngine::shared(fx.store.clone()).with_threads(THREADS);
        let queries: Vec<(String, Option<f64>)> = query_texts(KIND, &fx)?
            .into_iter()
            .map(|text| (text, None))
            .collect();
        // One untimed scan, so the first timed one finds the files cached.
        run_query(&engine, &queries[0].0)?;
        let mut rng = Rng::new(cx.seed, 0x5CA7 + u64::from(KIND));
        let order = (0..STREAM_OPS).map(|_| rng.below(queries.len())).collect();
        Ok(Scan {
            fx,
            engine,
            queries,
            order,
            ops_done: 0,
        })
    }

    fn measure(&mut self, dur: Duration, traced: bool) -> Result<Outcome> {
        let mut out = Outcome::default();
        let mut tr = Tracer::new(traced);
        let blocks = self.fx.store.manifest().blocks.clone();
        let mut replay_io = IoSnapshot::default();
        let io0 = self.fx.store.io_snapshot();
        let start = Instant::now();
        while start.elapsed() < dur {
            let op = self.ops_done;
            let (text, first) = &mut self.queries[self.order[op as usize % self.order.len()]];
            let root = tr.begin("op", 0, op);
            let t0 = Instant::now();
            let got = tr.span("query.run_query", root, op, || {
                run_query(&self.engine, text)
            })?;
            out.latency_ns.push(t0.elapsed().as_nanos() as u64);
            if tr.sampled(out.latency_ns.len() as u64 - 1) {
                // The same query one time block at a time: the blocks' scans
                // should add up to the whole, the rest is routing and merge.
                let before = self.fx.store.io_snapshot();
                let replay = tr.begin("replay", root, op);
                let parsed = tr.span("query.parse", replay, op, || parse_query(text))?;
                for b in &blocks {
                    let sel = Selection::time_range(Axis::All, b.start, b.end);
                    tr.span("core.block_scan", replay, op, || match &parsed {
                        Query::Aggregate(f, _) => self.engine.aggregate(&sel, *f),
                        Query::AggregateWhere(f, _, pred) => {
                            self.engine.aggregate_where(&sel, *f, pred)
                        }
                        Query::Cell(..) => Err(AtsError::internal("scan stream holds a cell")),
                    })?;
                }
                tr.end(replay);
                replay_io.merge(&sub(&self.fx.store.io_snapshot(), &before));
            }
            tr.end(root);
            out.completed_ns.push(start.elapsed().as_nanos() as u64);
            let want = *first.get_or_insert(got);
            if got.to_bits() != want.to_bits() {
                check_bits(
                    &mut out.violations,
                    &format!("repeat of `{text}`"),
                    got,
                    want,
                );
                out.failed += 1;
            }
            self.ops_done += 1;
        }
        out.io = sub(&sub(&self.fx.store.io_snapshot(), &io0), &replay_io);
        out.attempted = out.latency_ns.len() as u64;
        out.cells = out.attempted * (self.fx.rows() * self.fx.cols()) as u64;
        if traced {
            out.model_pairs = out.attempted * (self.fx.rows() * blocks.len()) as u64;
        }
        out.take_spans(tr);
        Ok(out)
    }

    fn verify(&mut self, notes: &mut Vec<Note>) -> Result<Vec<String>> {
        let mut violations = Vec::new();
        // An independent route to each answer: one thread for the plain scan,
        // zone-map pruning off for the predicate scans.
        let other = if KIND == FULL {
            self.engine.clone().with_threads(1)
        } else {
            self.engine.clone().with_synopsis(false)
        };
        for (text, answer) in &self.queries {
            let Some(answer) = answer else { continue };
            check_bits(
                &mut violations,
                &format!(
                    "`{text}` vs the {} scan",
                    if KIND == FULL { "1-thread" } else { "unpruned" }
                ),
                *answer,
                run_query(&other, text)?,
            );
        }
        if KIND == FULL {
            // The store is lossy; the full average must still be close.
            let raw = self.fx.data.to_matrix()?;
            let exact = aggregate_exact(&raw, &Selection::all(), AggregateFn::Avg)?;
            let served = self.engine.aggregate(&Selection::all(), AggregateFn::Avg)?;
            let q_err = (served - exact).abs() / exact.abs();
            notes.push(("q_err_full_avg".into(), format!("{q_err:e} ratio")));
            if q_err.is_nan() || q_err > Q_ERR_LIMIT {
                violations.push(format!(
                    "full avg {served} is {q_err:e} off the exact {exact}"
                ));
            }
        }
        notes.push(("answers_checked".into(), format!("{} count", self.ops_done)));
        Ok(violations)
    }

    fn query_fixture(&self) -> Option<&QueryFixture> {
        Some(&self.fx)
    }

    fn data(&self) -> &MatrixFile {
        &self.fx.data
    }

    fn store_dir(&self) -> PathBuf {
        self.fx.store_dir.clone()
    }
}
