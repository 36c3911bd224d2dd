//! The workloads, behind one interface the driver in `main.rs` runs.

pub mod build;
pub mod oneshot;
pub mod point;
pub mod scan;
pub mod serve;

use crate::fixture::{Cx, QueryFixture};
use crate::trace::{Span, Tracer};
use ats_common::Result;
use ats_storage::{IoSnapshot, MatrixFile};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Caller-observed latency of every operation that has one.
    pub latency_ns: Vec<u64>,
    /// Completion times, from the start of the phase, of the operations that
    /// count towards throughput.
    pub completed_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Pool counters of the store over the phase.
    pub io: IoSnapshot,
    /// Cells the phase asked for, and the distinct `(row, time block)` pairs
    /// they fall in: the model says one logical `U` read per pair. The pair
    /// count is only taken on a traced phase.
    pub cells: u64,
    pub model_pairs: u64,
    /// Correctness violations found while the phase ran.
    pub violations: Vec<String>,
    /// Extra `name value unit` lines for the human-readable report.
    pub notes: Vec<Note>,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
}

impl Outcome {
    /// Move a finished tracer's spans into the outcome.
    pub fn take_spans(&mut self, tr: Tracer) {
        self.spans_dropped += tr.dropped;
        self.spans.extend(tr.into_spans());
    }
}

/// One extra line of the human-readable report: name and rendered value.
pub type Note = (String, String);

pub trait Workload: Sized {
    /// Highest percentile the tail is reported at; the ten-beyond rule may
    /// lower it when a phase completes fewer operations than expected.
    const TAIL_DESIGN: f64;

    /// Everything before the first timed operation.
    fn setup(cx: &Cx, dir: &Path) -> Result<Self>;

    /// Run operations for `dur`; `traced` records spans.
    fn measure(&mut self, dur: Duration, traced: bool) -> Result<Outcome>;

    /// Correctness checks that need no timing; returns the violations.
    fn verify(&mut self, notes: &mut Vec<Note>) -> Result<Vec<String>>;

    /// Stop whatever the workload started.
    fn finish(self) -> Result<()> {
        Ok(())
    }

    /// The query store the per-layer probes can share, if the workload has one.
    fn query_fixture(&self) -> Option<&QueryFixture> {
        None
    }

    /// The dataset and the saved store the cost columns are taken from.
    fn data(&self) -> &MatrixFile;
    fn store_dir(&self) -> PathBuf;
}

pub fn sub(a: &IoSnapshot, b: &IoSnapshot) -> IoSnapshot {
    IoSnapshot {
        physical_reads: a.physical_reads - b.physical_reads,
        logical_reads: a.logical_reads - b.logical_reads,
        bytes_read: a.bytes_read - b.bytes_read,
        cache_hits: a.cache_hits - b.cache_hits,
    }
}

/// The correctness gate's one comparison: answers must agree bit for bit.
pub fn check_bits(violations: &mut Vec<String>, what: &str, got: f64, want: f64) {
    if got.to_bits() != want.to_bits() {
        violations.push(format!(
            "{what}: got {got:e} ({:#018x}), want {want:e} ({:#018x})",
            got.to_bits(),
            want.to_bits()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_fails_closed_on_one_flipped_bit() {
        let want = 1234.5678_f64;
        let mut v = Vec::new();
        check_bits(&mut v, "same", want, want);
        assert!(v.is_empty());
        for bit in [0, 31, 52, 63] {
            let flipped = f64::from_bits(want.to_bits() ^ (1 << bit));
            check_bits(&mut v, "flipped", flipped, want);
        }
        assert_eq!(v.len(), 4, "{v:?}");
        // -0.0 == 0.0 and NaN != NaN numerically; the gate compares bits.
        check_bits(&mut v, "zero sign", -0.0, 0.0);
        assert_eq!(v.len(), 5);
        check_bits(&mut v, "nan", f64::NAN, f64::NAN);
        assert_eq!(v.len(), 5);
    }
}
