//! `oneshot_cell`: open the saved store, answer one cell, close — the work
//! of one `ats query DIR "cell i j"` minus process start.

use super::{check_bits, sub, Note, Outcome, Workload};
use crate::fixture::{Cx, QueryFixture, DEFAULT_POOL_PAGES};
use crate::rng::Rng;
use crate::trace::Tracer;
use ats_common::Result;
use ats_compress::CompressedMatrix;
use ats_core::store::SequenceStore;
use ats_core::timeblock::TimeBlockedStore;
use ats_query::{parse_query, run_query};
use ats_storage::store_dir::validate_timeblocked_store_dir;
use ats_storage::MatrixFile;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Distinct queries generated per seed; the loop cycles through them.
const STREAM_QUERIES: usize = 4096;

pub struct Oneshot {
    fx: QueryFixture,
    /// Query text with the answer the long-lived store gives for it.
    queries: Vec<(String, f64)>,
    ops_done: u64,
}

impl Workload for Oneshot {
    const TAIL_DESIGN: f64 = 0.95;

    fn setup(cx: &Cx, dir: &Path) -> Result<Self> {
        let fx = QueryFixture::build(cx, dir, DEFAULT_POOL_PAGES)?;
        let mut rng = Rng::new(cx.seed, 0x0E5407);
        let queries = (0..STREAM_QUERIES)
            .map(|_| {
                let (i, j) = (rng.below(fx.rows()), rng.below(fx.cols()));
                Ok((format!("cell {i} {j}"), fx.store.cell(i, j)?))
            })
            .collect::<Result<Vec<_>>>()?;
        // One untimed round, so the first timed open does not pay for
        // first-touch effects the second would not.
        let s = SequenceStore::open(&fx.store_dir, DEFAULT_POOL_PAGES)?;
        run_query(&s.engine(), &queries[0].0)?;
        Ok(Oneshot {
            fx,
            queries,
            ops_done: 0,
        })
    }

    fn measure(&mut self, dur: Duration, traced: bool) -> Result<Outcome> {
        let mut out = Outcome::default();
        let mut tr = Tracer::new(traced);
        let dir = &self.fx.store_dir;
        let start = Instant::now();
        while start.elapsed() < dur {
            let op = self.ops_done;
            let (text, want) = &self.queries[op as usize % self.queries.len()];
            let root = tr.begin("op", 0, op);
            let t0 = Instant::now();
            let store = tr.span("core.open", root, op, || {
                SequenceStore::open(dir, DEFAULT_POOL_PAGES)
            })?;
            let got = tr.span("query.run_query", root, op, || {
                run_query(&store.engine(), text)
            })?;
            tr.span("core.close", root, op, || drop(store));
            out.latency_ns.push(t0.elapsed().as_nanos() as u64);
            if tr.sampled(out.latency_ns.len() as u64 - 1) {
                // The same steps one layer down, and the pool counters a
                // `SequenceStore` does not expose.
                let replay = tr.begin("replay", root, op);
                tr.span("storage.validate", replay, op, || {
                    validate_timeblocked_store_dir(dir)
                })?;
                let parsed = tr.span("query.parse", replay, op, || parse_query(text))?;
                let probe = TimeBlockedStore::open(dir, DEFAULT_POOL_PAGES)?;
                let before = probe.io_snapshot();
                if let ats_query::Query::Cell(i, j) = parsed {
                    tr.span("core.cell", replay, op, || probe.cell(i, j))?;
                }
                out.io.merge(&sub(&probe.io_snapshot(), &before));
                out.cells += 1;
                out.model_pairs += 1;
                tr.end(replay);
            }
            tr.end(root);
            out.completed_ns.push(start.elapsed().as_nanos() as u64);
            if got.to_bits() != want.to_bits() {
                check_bits(
                    &mut out.violations,
                    &format!("one-shot `{text}`"),
                    got,
                    *want,
                );
                out.failed += 1;
            }
            self.ops_done += 1;
        }
        out.attempted = out.latency_ns.len() as u64;
        out.take_spans(tr);
        Ok(out)
    }

    fn verify(&mut self, notes: &mut Vec<Note>) -> Result<Vec<String>> {
        // Every answer was compared while the phase ran; what is left is that
        // the directory still validates after thousands of opens.
        validate_timeblocked_store_dir(&self.fx.store_dir)?;
        notes.push(("answers_checked".into(), format!("{} count", self.ops_done)));
        Ok(Vec::new())
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
