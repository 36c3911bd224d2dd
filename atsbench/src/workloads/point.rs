//! `point_hot` / `point_cold`: batched cell lookups, one closed-loop client.

use super::{check_bits, sub, Note, Outcome, Workload};
use crate::fixture::{touch_every_u_row, Cx, QueryFixture, DEFAULT_POOL_PAGES, THREADS};
use crate::rng::{permutation, Rng, Zipf};
use crate::trace::Tracer;
use ats_common::Result;
use ats_compress::CompressedMatrix;
use ats_query::{BatchRequest, QueryEngine};
use ats_storage::{IoSnapshot, MatrixFile};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Cells per `batch_cells` call.
pub const BATCH: usize = 256;
/// Distinct batches generated per seed; the loop cycles through them. Their
/// rows cover far more `U` rows than the cold pool holds, so a second cycle
/// is as cold as the first.
const STREAM_BATCHES: usize = 2048;
/// One answer in this many is kept and compared with `cell` afterwards.
const CHECK_EVERY: u64 = 1000;
/// Batches whose answers are folded into `answers_xor`.
const XOR_BATCHES: usize = 64;

/// `HOT` opens the store with a pool that holds every `U` row and touches
/// them all before timing; otherwise the pool is the CLI default.
pub struct Point<const HOT: bool> {
    fx: QueryFixture,
    engine: QueryEngine<'static>,
    batches: Vec<Vec<(usize, usize)>>,
    ops_done: u64,
    kept: Vec<((usize, usize), f64)>,
}

/// Rows Zipf(1.0) over a seeded permutation of the customers, columns uniform.
pub fn batch_stream(
    rows: usize,
    cols: usize,
    seed: u64,
    batches: usize,
) -> Vec<Vec<(usize, usize)>> {
    let mut rng = Rng::new(seed, 0xB47C);
    let by_rank = permutation(rows, &mut rng);
    let zipf = Zipf::new(rows, 1.0);
    (0..batches)
        .map(|_| {
            (0..BATCH)
                .map(|_| (by_rank[zipf.sample(&mut rng)], rng.below(cols)))
                .collect()
        })
        .collect()
}

impl<const HOT: bool> Point<HOT> {
    fn run_batch(&self, cells: &[(usize, usize)]) -> Result<Vec<f64>> {
        // What `SequenceStore::batch_cells` does: copy the request, run it.
        let req = BatchRequest::new(cells.to_vec());
        Ok(self.engine.batch_cells(&req)?.into_values())
    }
}

impl<const HOT: bool> Workload for Point<HOT> {
    const TAIL_DESIGN: f64 = 0.99;

    fn setup(cx: &Cx, dir: &Path) -> Result<Self> {
        let pool = if HOT {
            QueryFixture::resident_pool_pages(&cx.sizes)
        } else {
            DEFAULT_POOL_PAGES
        };
        let fx = QueryFixture::build(cx, dir, pool)?;
        let engine = QueryEngine::shared(fx.store.clone()).with_threads(THREADS);
        let batches = batch_stream(fx.rows(), fx.cols(), cx.seed, STREAM_BATCHES);
        if HOT {
            touch_every_u_row(&fx.store)?;
        }
        let w = Point {
            fx,
            engine,
            batches,
            ops_done: 0,
            kept: Vec::new(),
        };
        for cells in &w.batches[..XOR_BATCHES] {
            std::hint::black_box(w.run_batch(cells)?);
        }
        Ok(w)
    }

    fn measure(&mut self, dur: Duration, traced: bool) -> Result<Outcome> {
        let mut out = Outcome::default();
        let mut tr = Tracer::new(traced);
        let manifest = self.fx.store.manifest().clone();
        let mut replay_io = IoSnapshot::default();
        let io0 = self.fx.store.io_snapshot();
        let start = Instant::now();
        while start.elapsed() < dur {
            let op = self.ops_done;
            let cells = &self.batches[op as usize % self.batches.len()];
            let root = tr.begin("op", 0, op);
            let t0 = Instant::now();
            let values = tr.span("query.batch_cells", root, op, || self.run_batch(cells))?;
            out.latency_ns.push(t0.elapsed().as_nanos() as u64);
            if tr.sampled(out.latency_ns.len() as u64 - 1) {
                // Replay the batch one distinct row at a time through the
                // store: what is left of the end-to-end call is the query
                // layer's own sort, group and scatter.
                let before = self.fx.store.io_snapshot();
                let replay = tr.begin("replay", root, op);
                let mut sorted = cells.clone();
                sorted.sort_unstable();
                let mut scratch = vec![0.0; BATCH];
                for group in sorted.chunk_by(|a, b| a.0 == b.0) {
                    let cols: Vec<usize> = group.iter().map(|c| c.1).collect();
                    tr.span("core.cells_in_row", replay, op, || {
                        self.fx
                            .store
                            .cells_in_row(group[0].0, &cols, &mut scratch[..cols.len()])
                    })?;
                }
                tr.end(replay);
                replay_io.merge(&sub(&self.fx.store.io_snapshot(), &before));
            }
            tr.end(root);
            out.completed_ns.push(start.elapsed().as_nanos() as u64);
            if tr.enabled() {
                let mut pairs: Vec<(usize, Option<usize>)> = cells
                    .iter()
                    .map(|&(i, j)| (i, manifest.block_of_col(j)))
                    .collect();
                pairs.sort_unstable();
                pairs.dedup();
                out.model_pairs += pairs.len() as u64;
            }
            let first = (CHECK_EVERY - op * BATCH as u64 % CHECK_EVERY) % CHECK_EVERY;
            if let Some(&v) = values.get(first as usize) {
                self.kept.push((cells[first as usize], v));
            }
            self.ops_done += 1;
        }
        out.io = sub(&sub(&self.fx.store.io_snapshot(), &io0), &replay_io);
        out.attempted = out.latency_ns.len() as u64;
        out.cells = out.attempted * BATCH as u64;
        out.take_spans(tr);
        Ok(out)
    }

    fn verify(&mut self, notes: &mut Vec<Note>) -> Result<Vec<String>> {
        let mut violations = Vec::new();
        for &((i, j), v) in &self.kept {
            check_bits(
                &mut violations,
                &format!("batch answer for cell ({i}, {j}) vs cell()"),
                v,
                self.fx.store.cell(i, j)?,
            );
        }
        notes.push((
            "answers_checked".into(),
            format!("{} count", self.kept.len()),
        ));
        // The same for hot and cold at one seed: the pool must not change answers.
        let mut xor = 0u64;
        for cells in &self.batches[..XOR_BATCHES] {
            for v in self.run_batch(cells)? {
                xor ^= v.to_bits();
            }
        }
        notes.push(("answers_xor".into(), format!("{xor:#018x} bits")));
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
