//! `build_mono`: the write path — the paper's three-pass SVDD build as the
//! CLI runs it by default (1 shard, 1 time block, 1 thread) from a dataset
//! file, followed by the crash-safe save.

use super::{sub, Note, Outcome, Workload};
use crate::fixture::{builder, write_dataset, Cx, DEFAULT_POOL_PAGES};
use crate::trace::Tracer;
use ats_common::Result;
use ats_compress::gram::compute_gram_parallel;
use ats_core::store::SequenceStore;
use ats_core::timeblock::TimeBlockedStore;
use ats_linalg::sym_eigen;
use ats_query::metrics::error_report;
use ats_storage::MatrixFile;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub struct BuildMono {
    data: MatrixFile,
    dir: PathBuf,
    ops_done: u64,
    /// RMSPE of the first store built, which every rebuild must reproduce.
    recorded_rmspe: Option<f64>,
}

impl BuildMono {
    fn build(&self) -> Result<SequenceStore> {
        builder()
            .shards(1)
            .time_blocks(1)
            .threads(1)
            .build(&self.data)
    }

    /// Builds alternate between two directories, so a save always replaces
    /// an older store, as a rebuild in place does.
    fn target(&self, op: u64) -> PathBuf {
        self.dir.join(format!("mono-{}", op % 2))
    }
}

impl Workload for BuildMono {
    // A build takes a few hundred milliseconds: a phase completes a few tens.
    const TAIL_DESIGN: f64 = 0.75;

    /// Set-up is generation only: the build is what is measured.
    fn setup(cx: &Cx, dir: &Path) -> Result<Self> {
        std::fs::create_dir_all(dir)?;
        let data = write_dataset(
            &dir.join("data.atsm"),
            cx.sizes.build_rows,
            cx.sizes.cols,
            cx.seed,
        )?;
        Ok(BuildMono {
            data,
            dir: dir.to_path_buf(),
            ops_done: 0,
            recorded_rmspe: None,
        })
    }

    fn measure(&mut self, dur: Duration, traced: bool) -> Result<Outcome> {
        let mut out = Outcome::default();
        let mut tr = Tracer::new(traced);
        let start = Instant::now();
        while start.elapsed() < dur {
            let op = self.ops_done;
            let target = self.target(op);
            let root = tr.begin("op", 0, op);
            let t0 = Instant::now();
            let store = tr.span("core.build", root, op, || self.build())?;
            tr.span("core.save", root, op, || store.save(&target))?;
            out.latency_ns.push(t0.elapsed().as_nanos() as u64);
            if tr.sampled(out.latency_ns.len() as u64 - 1) {
                // Pass 1 and the eigensolve on their own; passes 2 and 3 are
                // what is left of `core.build`.
                let replay = tr.begin("replay", root, op);
                let gram = tr.span("compress.gram", replay, op, || {
                    compute_gram_parallel(&self.data, 1)
                })?;
                tr.span("linalg.sym_eigen", replay, op, || sym_eigen(&gram))?;
                tr.end(replay);
            }
            tr.end(root);
            out.completed_ns.push(start.elapsed().as_nanos() as u64);
            if self.recorded_rmspe.is_none() {
                self.recorded_rmspe = Some(store.error_report(&self.data)?.rmspe);
            }
            self.ops_done += 1;
        }
        out.attempted = out.latency_ns.len() as u64;
        // The read side of a build is the read-back that verifies it: one
        // pass over the last saved store through the default pool.
        let saved = TimeBlockedStore::open(self.store_dir(), DEFAULT_POOL_PAGES)?;
        let before = saved.io_snapshot();
        let report = error_report(&self.data, &saved)?;
        out.io = sub(&saved.io_snapshot(), &before);
        out.cells = report.cells;
        out.model_pairs = self.data.rows() as u64;
        if Some(report.rmspe.to_bits()) != self.recorded_rmspe.map(f64::to_bits) {
            out.violations.push(format!(
                "rebuilt store reopens with RMSPE {} but the first build recorded {:?}",
                report.rmspe, self.recorded_rmspe
            ));
            out.failed += 1;
        }
        out.take_spans(tr);
        Ok(out)
    }

    fn verify(&mut self, notes: &mut Vec<Note>) -> Result<Vec<String>> {
        let mut violations = Vec::new();
        // Both directories hold complete stores that open through the
        // library's front door and answer like a fresh in-memory build.
        let fresh = self.build()?;
        for op in 0..self.ops_done.min(2) {
            let opened = SequenceStore::open(self.target(op), DEFAULT_POOL_PAGES)?;
            for (i, j) in [(0, 0), (self.data.rows() - 1, self.data.cols() - 1)] {
                super::check_bits(
                    &mut violations,
                    &format!("reopened build {op}, cell ({i}, {j})"),
                    opened.cell(i, j)?,
                    fresh.cell(i, j)?,
                );
            }
        }
        notes.push(("builds_checked".into(), format!("{} count", self.ops_done)));
        Ok(violations)
    }

    fn data(&self) -> &MatrixFile {
        &self.data
    }

    fn store_dir(&self) -> PathBuf {
        self.target(self.ops_done.saturating_sub(1))
    }
}
