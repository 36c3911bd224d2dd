//! `serve_mixed`: the `ats serve` daemon in-process with its default
//! configuration, driven over two connections by one client thread each.
//!
//! Closed loop, because a daemon's callers each wait for their reply. The
//! first half of a phase is *interactive* — one request in flight per
//! connection — and gives the latency a user on an idle daemon feels; the
//! second half is *saturated* — 32 cell requests in flight per connection, 64
//! in all, which is `batch_max`, so the admission window never idles — and
//! gives the capacity.

use super::{check_bits, Note, Outcome, Workload};
use crate::fixture::{process_cpu_us, Cx, QueryFixture, DEFAULT_POOL_PAGES};
use crate::rng::Rng;
use crate::trace::{Span, Tracer};
use crate::workloads::scan::RARE_SHARE;
use ats_common::{AtsError, Result};
use ats_compress::CompressedMatrix;
use ats_core::timeblock::TimeBlockedStore;
use ats_query::serve::{client, serve, MetricsSnapshot, ServeConfig, ServerHandle};
use ats_query::{run_query, QueryEngine};
use ats_storage::MatrixFile;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;
/// Cell requests each connection keeps in flight while saturating.
const PIPELINE_DEPTH: usize = 32;
/// Distinct requests generated per connection and phase.
const STREAM_REQUESTS: usize = 8192;
/// One reply in this many is kept and compared with the direct answer.
const CHECK_EVERY: usize = 100;
/// Latency limit of the interactive phase.
const LIMIT: Duration = Duration::from_millis(5);

/// Counters of the last measured phase, for the per-layer report.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    pub interactive: MetricsSnapshot,
    pub saturated: MetricsSnapshot,
    pub interactive_requests: u64,
    pub saturated_requests: u64,
    /// Interactive requests that missed [`LIMIT`], failures included.
    pub over_limit: u64,
    /// Process CPU time over the saturated half (clients and daemon).
    pub saturated_cpu_us: u64,
    pub ping_rtt_us: f64,
    /// Over the sampled interactive requests of a traced phase: client
    /// latency, and the time the engine needs for the same requests directly.
    pub sampled_latency_ns: u64,
    pub sampled_direct_ns: u64,
}

/// A running daemon with its two client connections and request streams.
pub struct Session {
    store: Arc<TimeBlockedStore>,
    engine: QueryEngine<'static>,
    handle: Option<ServerHandle>,
    conns: Vec<TcpStream>,
    interactive: Vec<Vec<Request>>,
    cells: Vec<Vec<Request>>,
    sent: [usize; CONNECTIONS],
    kept: Vec<(String, String)>,
    stats: ServeStats,
}

/// One request of a stream: its text, the cells it selects and the distinct
/// `(row, time block)` pairs they fall in (the storage model's read count).
struct Request {
    text: String,
    cells: u64,
    pairs: u64,
}

#[derive(Default)]
struct ClientOut {
    cells: u64,
    pairs: u64,
    latency_ns: Vec<u64>,
    completed_ns: Vec<u64>,
    failed: u64,
    kept: Vec<(String, String)>,
    sampled_latency_ns: u64,
    sampled_direct_ns: u64,
    spans: Vec<Span>,
    spans_dropped: u64,
    sent: usize,
}

fn minus(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        connections: a.connections - b.connections,
        queries: a.queries - b.queries,
        cells: a.cells - b.cells,
        aggregates: a.aggregates - b.aggregates,
        errors: a.errors - b.errors,
        busy: a.busy - b.busy,
        batches: a.batches - b.batches,
        coalesced_cells: a.coalesced_cells - b.coalesced_cells,
        agg_scans: a.agg_scans - b.agg_scans,
        coalesced_aggs: a.coalesced_aggs - b.coalesced_aggs,
        latency_usec: a.latency_usec - b.latency_usec,
    }
}

impl Session {
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// One request in flight: send, wait, repeat.
    fn interactive_client(&self, conn: usize, dur: Duration, mut tr: Tracer) -> Result<ClientOut> {
        let mut stream = self.conns[conn].try_clone()?;
        let pool = &self.interactive[conn];
        let mut out = ClientOut::new(self.sent[conn]);
        let start = Instant::now();
        while start.elapsed() < dur {
            let request = &pool[out.sent % pool.len()];
            let text = &request.text;
            let req = ((conn as u64) << 32) | out.sent as u64;
            let root = tr.begin("op", 0, req);
            let t0 = Instant::now();
            tr.span("serve.send", root, req, || client::send(&mut stream, text))?;
            let reply = tr.span("serve.wait_recv", root, req, || client::recv(&mut stream))?;
            let latency = t0.elapsed().as_nanos() as u64;
            if tr.sampled(out.latency_ns.len() as u64) {
                let t1 = Instant::now();
                tr.span("query.direct", root, req, || run_query(&self.engine, text))?;
                out.sampled_direct_ns += t1.elapsed().as_nanos() as u64;
                out.sampled_latency_ns += latency;
            }
            tr.end(root);
            out.latency_ns.push(latency);
            out.sent += 1;
            out.record(request, reply);
        }
        out.spans_dropped = tr.dropped;
        out.spans = tr.into_spans();
        Ok(out)
    }

    /// [`PIPELINE_DEPTH`] cell requests in flight: one reply in, one request out.
    fn saturating_client(&self, conn: usize, dur: Duration, mut tr: Tracer) -> Result<ClientOut> {
        let mut stream = self.conns[conn].try_clone()?;
        let pool = &self.cells[conn];
        let mut out = ClientOut::new(self.sent[conn]);
        let mut in_flight: VecDeque<(usize, u64)> = VecDeque::with_capacity(PIPELINE_DEPTH);
        let start = Instant::now();
        loop {
            let open = start.elapsed() < dur;
            while open && in_flight.len() < PIPELINE_DEPTH {
                let req = ((conn as u64) << 32) | out.sent as u64;
                let span = tr.begin("op", 0, req);
                client::send(&mut stream, &pool[out.sent % pool.len()].text)?;
                in_flight.push_back((out.sent, span));
                out.sent += 1;
            }
            let Some((sent, span)) = in_flight.pop_front() else {
                break;
            };
            let reply = client::recv(&mut stream)?;
            tr.end(span);
            out.completed_ns.push(start.elapsed().as_nanos() as u64);
            out.record(&pool[sent % pool.len()], reply);
        }
        out.spans_dropped = tr.dropped;
        out.spans = tr.into_spans();
        Ok(out)
    }

    /// Run `client` on every connection at once and fold the results.
    fn run_clients(
        &mut self,
        out: &mut Outcome,
        traced: Option<(Instant, u64)>,
        client: impl Fn(&Session, usize, Tracer) -> Result<ClientOut> + Sync,
    ) -> Result<()> {
        let this = &*self;
        let results: Vec<Result<ClientOut>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|conn| {
                    let tr = traced.map_or_else(Tracer::off, |(epoch, lane)| {
                        Tracer::on(epoch, lane + conn as u64)
                    });
                    let client = &client;
                    s.spawn(move || client(this, conn, tr))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(AtsError::internal("client thread panicked")))
                })
                .collect()
        });
        for (conn, r) in results.into_iter().enumerate() {
            let c = r?;
            self.sent[conn] = c.sent;
            out.latency_ns.extend(c.latency_ns);
            out.completed_ns.extend(c.completed_ns);
            out.failed += c.failed;
            out.cells += c.cells;
            out.model_pairs += c.pairs;
            self.kept.extend(c.kept);
            self.stats.sampled_latency_ns += c.sampled_latency_ns;
            self.stats.sampled_direct_ns += c.sampled_direct_ns;
            out.spans.extend(c.spans);
            out.spans_dropped += c.spans_dropped;
        }
        Ok(())
    }

    fn server(&self) -> Result<&ServerHandle> {
        self.handle
            .as_ref()
            .ok_or_else(|| AtsError::internal("daemon already stopped"))
    }
}

impl ClientOut {
    fn new(sent: usize) -> Self {
        ClientOut {
            sent,
            ..ClientOut::default()
        }
    }

    /// Count a reply; anything but `OK …` is a failed operation.
    fn record(&mut self, request: &Request, reply: String) {
        if !reply.starts_with("OK ") {
            self.failed += 1;
        }
        self.cells += request.cells;
        self.pairs += request.pairs;
        let n = self.latency_ns.len() + self.completed_ns.len();
        if n.is_multiple_of(CHECK_EVERY) {
            self.kept.push((request.text.clone(), reply));
        }
    }
}

impl Session {
    /// Start the daemon over `store` as `ats serve DIR` does — default
    /// window, batch size and threads, per-shard I/O counters wired into
    /// `STATS` — connect, and draw the request streams from `seed`. `rare` is
    /// the threshold of the interactive mix's `where` requests.
    pub fn start(store: Arc<TimeBlockedStore>, seed: u64, rare: f64) -> Result<Session> {
        let engine = QueryEngine::shared(store.clone());
        let io_store = store.clone();
        let handle = serve(
            engine.clone(),
            ServeConfig::default(),
            Some(Box::new(move || io_store.shard_io_snapshots())),
        )?;
        let conns = (0..CONNECTIONS)
            .map(|_| {
                let s = TcpStream::connect(handle.addr())?;
                s.set_nodelay(true)?;
                Ok(s)
            })
            .collect::<Result<Vec<_>>>()?;
        let (n, m) = (store.rows(), store.cols());
        let manifest = store.manifest();
        let block_of = |col: usize| manifest.block_of_col(col).unwrap_or(0) as u64;
        let blocks = manifest.blocks.len() as u64;
        let mut interactive = Vec::new();
        let mut cells = Vec::new();
        for conn in 0..CONNECTIONS {
            let mut rng = Rng::new(seed, 0x5E4E + conn as u64);
            let cell = |rng: &mut Rng| Request {
                text: format!("cell {} {}", rng.below(n), rng.below(m)),
                cells: 1,
                pairs: 1,
            };
            // 90 % cells, 8 % short range sums, 2 % selective counts.
            interactive.push(
                (0..STREAM_REQUESTS)
                    .map(|_| match rng.below(100) {
                        0..=89 => cell(&mut rng),
                        90..=97 => {
                            let (a, t) = (rng.below(n - 64), rng.below(m - 30));
                            Request {
                                text: format!("sum rows {a}..{} in time [{t}..{}]", a + 64, t + 30),
                                cells: 64 * 30,
                                pairs: 64 * (block_of(t + 29) - block_of(t) + 1),
                            }
                        }
                        _ => {
                            let a = rng.below(n - 512);
                            Request {
                                text: format!("count rows {a}..{} where value > {rare}", a + 512),
                                cells: 512 * m as u64,
                                pairs: 512 * blocks,
                            }
                        }
                    })
                    .collect(),
            );
            cells.push((0..STREAM_REQUESTS).map(|_| cell(&mut rng)).collect());
        }
        let mut session = Session {
            store,
            engine,
            handle: Some(handle),
            conns,
            interactive,
            cells,
            sent: [0; CONNECTIONS],
            kept: Vec::new(),
            stats: ServeStats::default(),
        };
        // Warm both connections and the daemon's threads before timing.
        let mut warm = Outcome::default();
        session.run_clients(&mut warm, None, |s, conn, tr| {
            s.interactive_client(conn, Duration::from_millis(50), tr)
        })?;
        session.kept.clear();
        Ok(session)
    }

    /// Half of `dur` interactive, half saturated.
    pub fn measure(&mut self, dur: Duration, traced: bool) -> Result<Outcome> {
        let mut out = Outcome::default();
        let epoch = traced.then(Instant::now);
        // Tracer lanes keep span ids of the two phases and connections apart.
        let lanes = |phase: u64| epoch.map(|e| (e, phase * CONNECTIONS as u64));
        self.stats = ServeStats::default();
        if traced {
            let mut stream = self.conns[0].try_clone()?;
            let mut rtts: Vec<f64> = (0..200)
                .map(|_| {
                    let t0 = Instant::now();
                    client::round_trip(&mut stream, "PING")?;
                    Ok(t0.elapsed().as_nanos() as f64 / 1e3)
                })
                .collect::<Result<_>>()?;
            rtts.sort_by(f64::total_cmp);
            self.stats.ping_rtt_us = rtts[rtts.len() / 2];
        }
        let io0 = self.store.io_snapshot();
        let m0 = self.server()?.metrics();
        self.run_clients(&mut out, lanes(0), |s, conn, tr| {
            s.interactive_client(conn, dur / 2, tr)
        })?;
        let m1 = self.server()?.metrics();
        let interactive_failed = out.failed;
        let cpu0 = process_cpu_us()?;
        self.run_clients(&mut out, lanes(1), |s, conn, tr| {
            s.saturating_client(conn, dur / 2, tr)
        })?;
        let m2 = self.server()?.metrics();
        self.stats.saturated_cpu_us = process_cpu_us()? - cpu0;
        self.stats.interactive = minus(&m1, &m0);
        self.stats.saturated = minus(&m2, &m1);
        self.stats.interactive_requests = out.latency_ns.len() as u64;
        self.stats.saturated_requests = out.completed_ns.len() as u64;
        let limit = LIMIT.as_nanos() as u64;
        let slow = out.latency_ns.iter().filter(|&&l| l > limit).count() as u64;
        self.stats.over_limit = slow + interactive_failed;
        out.io = super::sub(&self.store.io_snapshot(), &io0);
        out.attempted = self.stats.interactive_requests + self.stats.saturated_requests;
        let per_batch = |m: &MetricsSnapshot| m.coalesced_cells as f64 / m.batches.max(1) as f64;
        out.notes = vec![
            (
                "interactive_requests".into(),
                format!("{} count", self.stats.interactive_requests),
            ),
            (
                "saturated_requests".into(),
                format!("{} count", self.stats.saturated_requests),
            ),
            (
                "cells_per_batch_interactive".into(),
                format!("{:.3} cells", per_batch(&self.stats.interactive)),
            ),
            (
                "cells_per_batch_saturated".into(),
                format!("{:.3} cells", per_batch(&self.stats.saturated)),
            ),
            (
                "over_5ms".into(),
                format!("{} count", self.stats.over_limit),
            ),
        ];
        Ok(out)
    }

    /// The kept sample of replies against the engine's direct answers.
    pub fn verify(&mut self, notes: &mut Vec<Note>) -> Result<Vec<String>> {
        let mut violations = Vec::new();
        for (text, reply) in &self.kept {
            match reply
                .strip_prefix("OK ")
                .and_then(|v| v.parse::<f64>().ok())
            {
                Some(got) => check_bits(
                    &mut violations,
                    &format!("daemon reply to `{text}` vs the engine"),
                    got,
                    run_query(&self.engine, text)?,
                ),
                None => violations.push(format!("daemon replied `{reply}` to `{text}`")),
            }
        }
        notes.push((
            "answers_checked".into(),
            format!("{} count", self.kept.len()),
        ));
        Ok(violations)
    }

    /// Close the connections and wait for every daemon thread to end.
    pub fn stop(mut self) -> Result<()> {
        self.conns.clear();
        match self.handle.take() {
            Some(h) => h.join().map(|_| ()),
            None => Ok(()),
        }
    }
}

pub struct Serve {
    fx: QueryFixture,
    session: Session,
}

impl Workload for Serve {
    const TAIL_DESIGN: f64 = 0.99;

    fn setup(cx: &Cx, dir: &Path) -> Result<Self> {
        let fx = QueryFixture::build(cx, dir, DEFAULT_POOL_PAGES)?;
        let rare = fx.served_quantiles(&[1.0 - RARE_SHARE])?[0];
        let session = Session::start(fx.store.clone(), cx.seed, rare)?;
        Ok(Serve { fx, session })
    }

    fn measure(&mut self, dur: Duration, traced: bool) -> Result<Outcome> {
        self.session.measure(dur, traced)
    }

    fn verify(&mut self, notes: &mut Vec<Note>) -> Result<Vec<String>> {
        self.session.verify(notes)
    }

    fn finish(self) -> Result<()> {
        self.session.stop()
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
