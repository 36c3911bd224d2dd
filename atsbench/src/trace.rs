//! Spans recorded from outside the library: one around every call the
//! harness makes into a layer, kept in memory and written when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans one tracer keeps before it stops recording (and counts the rest).
const CAPACITY: usize = 1 << 19;

/// Every `SAMPLE_EVERY`-th request also replays its per-layer calls.
pub const SAMPLE_EVERY: u64 = 64;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// Request identifier shared by every span of one request.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span buffer owned by one thread. Off, it records nothing and `span`
/// is a plain call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// High bits of every id, so tracers of different threads never collide.
    id_base: u64,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            id_base: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// The tracer of a single-threaded phase: recording from now, or off.
    pub fn new(traced: bool) -> Self {
        if traced {
            Tracer::on(Instant::now(), 0)
        } else {
            Tracer::off()
        }
    }

    /// A recording tracer; `lane` distinguishes tracers that share an epoch.
    pub fn on(epoch: Instant, lane: u64) -> Self {
        Tracer {
            on: true,
            epoch,
            id_base: (lane + 1) << 40,
            spans: Vec::with_capacity(CAPACITY),
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Whether request `req` is one of the sampled ones that replay layers.
    pub fn sampled(&self, req: u64) -> bool {
        self.on && req.is_multiple_of(SAMPLE_EVERY)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id (0 when off or full), to pass as a parent
    /// and to [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: u64, req: u64) -> u64 {
        if !self.on {
            return 0;
        }
        if self.spans.len() == CAPACITY {
            self.dropped += 1;
            return 0;
        }
        let id = self.id_base + self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn end(&mut self, id: u64) {
        if id != 0 {
            let now = self.now_ns();
            self.spans[(id - self.id_base - 1) as usize].end_ns = now;
        }
    }

    /// Run `f` inside a child span of `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, req);
        let r = f();
        self.end(id);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the duration of its direct
/// children (children of one parent run one after another on one thread).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut own: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.dur_ns())).collect();
    for s in spans.iter().filter(|s| s.parent != 0) {
        if let Some(p) = own.get_mut(&s.parent) {
            *p = p.saturating_sub(s.dur_ns());
        }
    }
    own
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own[&s.id];
    }
    by_name
}

/// Sum of all self times over sum of root durations: 1.0 when every child
/// lies inside its parent and siblings do not overlap.
pub fn self_sum_over_roots(spans: &[Span]) -> f64 {
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(Span::dur_ns)
        .sum();
    let selfs: u64 = self_times(spans).values().sum();
    selfs as f64 / roots.max(1) as f64
}

/// What a traced phase adds up to.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Requests that also replayed their per-layer calls.
    pub sampled_ops: u64,
    pub self_sum_over_roots: f64,
    /// Share of root time inside no child span: the harness's own glue.
    pub root_self_share: f64,
    /// Over the sampled requests: time of the replayed layer calls over the
    /// time of the end-to-end calls they decompose.
    pub replay_over_e2e: f64,
}

/// Spans that hold replayed calls instead of being part of the operation.
fn is_replay(name: &str) -> bool {
    name == "replay" || name == "query.direct"
}

pub fn summarize(spans: &[Span]) -> Summary {
    use std::collections::BTreeSet;
    let own = self_times(spans);
    let roots = || spans.iter().filter(|s| s.parent == 0);
    let root_total: u64 = roots().map(Span::dur_ns).sum();
    let root_self: u64 = roots().map(|s| own[&s.id]).sum();
    let groups: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == "replay")
        .map(|s| s.id)
        .collect();
    let sampled: BTreeSet<u64> = spans
        .iter()
        .filter(|s| is_replay(s.name))
        .map(|s| s.parent)
        .collect();
    let replayed: u64 = spans
        .iter()
        .filter(|s| groups.contains(&s.parent) || s.name == "query.direct")
        .map(Span::dur_ns)
        .sum();
    let e2e: u64 = spans
        .iter()
        .filter(|s| sampled.contains(&s.parent) && !is_replay(s.name))
        .map(Span::dur_ns)
        .sum();
    Summary {
        sampled_ops: sampled.len() as u64,
        self_sum_over_roots: self_sum_over_roots(spans),
        root_self_share: root_self as f64 / root_total.max(1) as f64,
        replay_over_e2e: replayed as f64 / e2e.max(1) as f64,
    }
}

/// One JSON object per line: `id`, `parent`, `req`, `name`, `start_ns`, `end_ns`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        // Span names are identifiers chosen in this crate: no escaping needed.
        writeln!(
            w,
            "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "core.open", 10, 40),
            span(3, 1, "query.run", 50, 90),
            span(4, 3, "storage.read", 60, 70),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 30 - 40);
        assert_eq!(own[&2], 30);
        assert_eq!(own[&3], 40 - 10);
        assert_eq!(own[&4], 10);
        assert_eq!(own.values().sum::<u64>(), 100);
        assert!((self_sum_over_roots(&spans) - 1.0).abs() < 1e-12);
        let by = totals_by_name(&spans);
        assert_eq!(by["query.run"].total_ns, 40);
        assert_eq!(by["query.run"].self_ns, 30);
    }

    #[test]
    fn summary_compares_replays_with_the_calls_they_decompose() {
        let spans = [
            // A sampled request: 40 of end-to-end work, replayed as 10 + 20.
            span(1, 0, "op", 0, 100),
            span(2, 1, "query.batch_cells", 0, 40),
            span(3, 1, "replay", 50, 90),
            span(4, 3, "core.cells_in_row", 50, 60),
            span(5, 3, "core.cells_in_row", 60, 80),
            // An unsampled one.
            span(6, 0, "op", 100, 150),
            span(7, 6, "query.batch_cells", 100, 150),
        ];
        let s = summarize(&spans);
        assert_eq!(s.sampled_ops, 1);
        assert!((s.replay_over_e2e - 30.0 / 40.0).abs() < 1e-12);
        assert!((s.root_self_share - 20.0 / 150.0).abs() < 1e-12);
        assert!((s.self_sum_over_roots - 1.0).abs() < 1e-12);
        assert_eq!(summarize(&[]), Summary::default());
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("op", 0, 0);
        assert_eq!(id, 0);
        assert_eq!(t.span("x", id, 0, || 7), 7);
        assert!(!t.sampled(0));
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn on_tracer_nests_and_keeps_ids_apart() {
        let epoch = Instant::now();
        let mut a = Tracer::on(epoch, 0);
        let mut b = Tracer::on(epoch, 1);
        let root = a.begin("op", 0, 64);
        a.span("child", root, 64, || std::hint::black_box(1 + 1));
        a.end(root);
        let other = b.begin("op", 0, 1);
        b.end(other);
        assert!(a.sampled(64) && !a.sampled(65));
        let (sa, sb) = (a.into_spans(), b.into_spans());
        assert_eq!(sa.len(), 2);
        assert_eq!(sa[1].parent, sa[0].id);
        assert!(sa[0].start_ns <= sa[1].start_ns && sa[1].end_ns <= sa[0].end_ns);
        assert_ne!(sa[0].id, sb[0].id);
    }
}
