//! A long-lived TCP query daemon with coalesced batch execution.
//!
//! The paper's premise is *ad hoc* queries arriving continuously against a
//! compressed store; a one-process-per-query CLI pays a store open (and a
//! cold page cache) per question. This module keeps one
//! [`QueryEngine`] — and therefore one `ShardedStore` page pool — alive
//! behind a TCP listener, so the batching argument of [`crate::batch`]
//! extends *across clients*: cell queries that are queued together are
//! executed as one [`QueryEngine::batch_cells`] run, making N clients
//! asking about the same row cost one `U`-row fetch per shard instead
//! of N.
//!
//! ## Batching by backlog
//!
//! One batcher thread executes whatever is queued the moment it is free;
//! what arrives while a batch executes is the next batch. The batch size
//! is therefore worked out from the load: an idle daemon answers a lone
//! request at once (no timer is waited out), a busy one coalesces as
//! many requests as one execution takes to answer. [`ServeConfig::window`]
//! — zero by default — is the *extra* time the batcher lingers for
//! company once it has work, cut short at [`ServeConfig::batch_max`].
//!
//! Aggregate queries ride the same queue: requests taken in one batch
//! are grouped by identical `(aggregate, selection, predicate)` and each
//! distinct group is scanned **once**, the result fanned out to every
//! requester — N clients asking for the same time-range average cost one
//! block scan, not N (the `STATS` counters `coalesced_aggs` / `agg_scans`
//! expose the sharing factor).
//!
//! Each connection moves a *burst* of frames per syscall: its reader
//! parses frames out of a 16 KiB buffer (`READ_BUF`) filled by one
//! `read`, and its writer appends resolved replies to one buffer that is
//! written out whenever the writer is about to block (so no reply ever
//! waits in user space) or passes 32 KiB (`WRITE_BUF`).
//!
//! ## Wire protocol
//!
//! Both directions speak length-prefixed frames: a 4-byte big-endian
//! payload length followed by that many bytes of UTF-8. Request payloads
//! are query lines in the [`crate::parse`] grammar (`cell 42 17`,
//! `avg rows 0..100 cols all`) or one of three verbs: `PING` (liveness),
//! `STATS` (per-connection and server-wide metrics, latency
//! distributions, queue depth and I/O counters), `SHUTDOWN` (graceful
//! drain). Responses are `OK …` or `ERR …`; a malformed, oversized, or
//! unparseable request earns an `ERR` frame and the connection stays
//! healthy — the daemon never panics on input.
//!
//! ## Shutdown semantics
//!
//! Shutdown (the `SHUTDOWN` verb, or [`ServerHandle::begin_shutdown`]
//! from the hosting process — the CLI wires stdin EOF / `quit` to it)
//! stops accepting connections, lets every in-flight request finish and
//! its response be written whole, and drains any requests still queued
//! through one final batch. Responses are never torn: a connection
//! thread only re-checks the flag *between* frames.

use crate::batch::BatchRequest;
use crate::engine::{AggregateFn, QueryEngine};
use crate::parse::{parse_query, Query};
use crate::predicate::Predicate;
use crate::selection::Selection;
use ats_common::{AtsError, Result};
use ats_storage::IoSnapshot;
use std::io::{BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Callback handing the server a fresh per-shard I/O snapshot for the
/// `STATS` verb (the query crate cannot name `ShardedStore` directly —
/// the core crate depends on this one, not the other way around).
pub type IoSnapshotFn = Box<dyn Fn() -> Vec<IoSnapshot> + Send + Sync>;

/// Tuning knobs for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, `host:port` (port 0 picks a free port; see
    /// [`ServerHandle::addr`] for the resolved one).
    pub addr: String,
    /// Worker threads for aggregate scans and batch execution.
    pub threads: usize,
    /// Extra time the batcher lingers for company once it has work.
    /// Zero (the default) batches by backlog: whatever is queued when
    /// the batcher is free is the batch.
    pub window: Duration,
    /// Stop lingering as soon as this many requests are queued, even if
    /// the window has not expired.
    pub batch_max: usize,
    /// Largest accepted request payload in bytes; longer frames earn an
    /// `ERR` response (the payload is drained so the connection survives).
    pub max_frame: usize,
    /// Most cell queries one connection may have waiting in the batcher
    /// at once. A client pipelining faster than the batcher drains gets
    /// `ERR busy` replies beyond this depth instead of growing the
    /// batcher's queue without bound.
    pub pending_max: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            window: Duration::ZERO,
            batch_max: 64,
            max_frame: 1 << 20,
            pending_max: 64,
        }
    }
}

/// Point-in-time copy of the server-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Connections accepted so far.
    pub connections: u64,
    /// Queries answered with `OK` (cells + aggregates).
    pub queries: u64,
    /// Cell queries answered (each went through the batcher).
    pub cells: u64,
    /// Aggregate queries answered.
    pub aggregates: u64,
    /// `ERR` responses written (parse errors, bad frames, out-of-range).
    pub errors: u64,
    /// `ERR busy` responses: cells refused because the connection already
    /// had `pending_max` cells waiting in the batcher.
    pub busy: u64,
    /// `batch_cells` executions — the number of cell batches run.
    pub batches: u64,
    /// Cells answered across all batches (`cells / batches` is the
    /// coalescing factor).
    pub coalesced_cells: u64,
    /// Distinct `(aggregate, selection)` scans executed by the batcher.
    pub agg_scans: u64,
    /// Aggregate requests admitted through batches (`coalesced_aggs /
    /// agg_scans` is the aggregate sharing factor).
    pub coalesced_aggs: u64,
    /// Summed request latency in microseconds (admission wait included).
    pub latency_usec: u64,
}

/// Live atomic counters behind the snapshot.
#[derive(Debug, Default)]
struct ServerMetrics {
    connections: AtomicU64,
    queries: AtomicU64,
    cells: AtomicU64,
    aggregates: AtomicU64,
    errors: AtomicU64,
    busy: AtomicU64,
    batches: AtomicU64,
    coalesced_cells: AtomicU64,
    agg_scans: AtomicU64,
    coalesced_aggs: AtomicU64,
    latency_usec: AtomicU64,
}

impl ServerMetrics {
    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            cells: self.cells.load(Ordering::Relaxed),
            aggregates: self.aggregates.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            coalesced_cells: self.coalesced_cells.load(Ordering::Relaxed),
            agg_scans: self.agg_scans.load(Ordering::Relaxed),
            coalesced_aggs: self.coalesced_aggs.load(Ordering::Relaxed),
            latency_usec: self.latency_usec.load(Ordering::Relaxed),
        }
    }
}

/// The kind of query a latency sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// `cell i j`.
    Cell,
    /// An aggregate over a selection, no predicate.
    Aggregate,
    /// An aggregate with a `where` predicate.
    Where,
}

impl QueryClass {
    const ALL: [QueryClass; 3] = [QueryClass::Cell, QueryClass::Aggregate, QueryClass::Where];

    /// The name `STATS` prints.
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Cell => "cell",
            QueryClass::Aggregate => "aggregate",
            QueryClass::Where => "where",
        }
    }
}

/// The part of a batched request's life a latency sample covers. What a
/// request spends beyond the two — the hand-off to the connection's
/// writer — is in [`MetricsSnapshot::latency_usec`] only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Frame read → taken off the queue by the batcher.
    AdmissionWait,
    /// Taken off the queue → answered by the batcher.
    Execute,
}

impl Stage {
    /// The name `STATS` prints.
    pub fn name(self) -> &'static str {
        match self {
            Stage::AdmissionWait => "wait",
            Stage::Execute => "execute",
        }
    }
}

/// One `class × stage` latency distribution, in microseconds. The
/// quantiles come from log₂ buckets: each is the upper edge of the
/// bucket holding that rank (never above `max_us`), so it overstates the
/// true quantile by less than 2×.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Which queries.
    pub class: QueryClass,
    /// Which part of their life.
    pub stage: Stage,
    /// Samples recorded.
    pub n: u64,
    /// Median.
    pub p50_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Largest sample.
    pub max_us: u64,
    /// Sum of all samples.
    pub sum_us: u64,
}

const LATENCY_BUCKETS: usize = 32;

/// Log₂-bucketed microsecond histogram. Bucket `b` counts the samples
/// whose bit length is `b` — 0 µs in bucket 0, `[2^(b-1), 2^b)` µs in
/// bucket `b` — and the last bucket is open-ended (≥ 2³⁰ µs, 18 minutes).
#[derive(Debug, Default)]
struct Histogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Histogram {
    fn bucket_of(us: u64) -> usize {
        let bits = u64::BITS.saturating_sub(us.leading_zeros());
        usize::try_from(bits)
            .unwrap_or(usize::MAX)
            .min(LATENCY_BUCKETS.saturating_sub(1))
    }

    /// Largest value bucket `b` can hold.
    fn upper_edge(b: usize) -> u64 {
        if b.saturating_add(1) >= LATENCY_BUCKETS {
            u64::MAX
        } else {
            (1u64 << b).saturating_sub(1)
        }
    }

    fn record(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        if let Some(slot) = self.buckets.get(Self::bucket_of(us)) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    fn summary(&self, class: QueryClass, stage: Stage) -> LatencySummary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let n: u64 = counts.iter().sum();
        let max_us = self.max_us.load(Ordering::Relaxed);
        // Smallest bucket edge with at least `num/den` of the samples at
        // or below it.
        let quantile = |num: u64, den: u64| {
            let rank = n.saturating_mul(num).div_ceil(den).max(1);
            let mut seen = 0u64;
            for (b, count) in counts.iter().enumerate() {
                seen = seen.saturating_add(*count);
                if seen >= rank {
                    return Self::upper_edge(b).min(max_us);
                }
            }
            max_us
        };
        LatencySummary {
            class,
            stage,
            n,
            p50_us: quantile(1, 2),
            p99_us: quantile(99, 100),
            max_us,
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

/// The two stage histograms of one query class.
#[derive(Debug, Default)]
struct StageLatency {
    wait: Histogram,
    execute: Histogram,
}

/// Latency distributions of every batched request, per class and stage.
#[derive(Debug, Default)]
struct Latency {
    cell: StageLatency,
    aggregate: StageLatency,
    filtered: StageLatency,
}

impl Latency {
    fn of(&self, class: QueryClass) -> &StageLatency {
        match class {
            QueryClass::Cell => &self.cell,
            QueryClass::Aggregate => &self.aggregate,
            QueryClass::Where => &self.filtered,
        }
    }

    fn summaries(&self) -> Vec<LatencySummary> {
        QueryClass::ALL
            .iter()
            .flat_map(|&class| {
                let stages = self.of(class);
                [
                    stages.wait.summary(class, Stage::AdmissionWait),
                    stages.execute.summary(class, Stage::Execute),
                ]
            })
            .collect()
    }
}

/// What the batcher sends back for one request: the value or a rendered
/// error message, and the two instants that split the request's latency
/// into [`Stage`]s. The connection's writer blocks on the channel until
/// the batcher answers.
struct BatchReply {
    result: std::result::Result<f64, String>,
    taken: Instant,
    answered: Instant,
}

/// One cell query waiting in the batcher's queue.
struct Pending {
    row: usize,
    col: usize,
    tx: mpsc::Sender<BatchReply>,
}

/// One aggregate query waiting in the batcher's queue. Identical
/// `(f, sel, pred)` triples taken in the same batch share one scan
/// (`pred` is `None` for plain aggregates, `Some` for `where` forms).
struct PendingAgg {
    f: AggregateFn,
    sel: Selection,
    pred: Option<Predicate>,
    tx: mpsc::Sender<BatchReply>,
}

/// The batcher's queue: cells and aggregates waiting for the next batch.
#[derive(Default)]
struct BatchQueue {
    items: Vec<Pending>,
    aggs: Vec<PendingAgg>,
    /// Set by the batcher on exit: late arrivals are refused instead of
    /// waiting forever on a reply that will never come.
    closed: bool,
}

impl BatchQueue {
    fn len(&self) -> usize {
        self.items.len().saturating_add(self.aggs.len())
    }
}

/// State shared by the acceptor, the batcher, and every connection.
struct Shared {
    engine: QueryEngine<'static>,
    window: Duration,
    batch_max: usize,
    max_frame: usize,
    pending_max: usize,
    shutdown: AtomicBool,
    /// Where a loopback connection reaches our own listener — what wakes
    /// the acceptor out of `accept` at shutdown.
    wake_addr: SocketAddr,
    /// Whether the acceptor may still be blocked in `accept`.
    accepting: AtomicBool,
    queue: Mutex<BatchQueue>,
    queue_cv: Condvar,
    metrics: ServerMetrics,
    latency: Latency,
    io_snapshots: Option<IoSnapshotFn>,
    conns: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Lock a mutex, recovering the guard if a holder panicked — the daemon
/// keeps serving; a poisoned queue is still structurally valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        // No signal machinery exists in safe std (and `unsafe` is denied
        // workspace-wide), so the acceptor is woken by a connection: it
        // re-checks the flag after every `accept`. Repeated calls retry
        // until the acceptor has gone.
        if self.accepting.load(Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        }
    }

    fn queue_depth(&self) -> usize {
        lock(&self.queue).len()
    }
}

/// A running server: the resolved address plus the handles needed to
/// stop it. Dropping the handle does *not* stop the server — call
/// [`ServerHandle::join`] (or [`ServerHandle::begin_shutdown`] followed
/// by `join`) for a graceful drain.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    batcher: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (with the real port when `addr` asked
    /// for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to shut down: stop accepting, finish in-flight
    /// requests, drain the batcher's queue. Returns promptly;
    /// [`ServerHandle::join`] waits for the drain.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether shutdown has been requested (by this handle or by a
    /// client's `SHUTDOWN` verb).
    pub fn is_shutdown(&self) -> bool {
        self.shared.is_shutdown()
    }

    /// Current server-wide counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Latency distributions of the batched requests answered so far,
    /// one entry per query class and stage — the numbers `STATS` prints.
    pub fn latency(&self) -> Vec<LatencySummary> {
        self.shared.latency.summaries()
    }

    /// Requests waiting in the batcher's queue right now.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue_depth()
    }

    /// Shut down (if not already requested) and wait for the acceptor,
    /// the batcher, and every connection thread to finish. Returns the
    /// final counters.
    pub fn join(mut self) -> Result<MetricsSnapshot> {
        self.shared.begin_shutdown();
        for h in self.accept.take().into_iter().chain(self.batcher.take()) {
            h.join()
                .map_err(|_| AtsError::internal("server thread panicked"))?;
        }
        // Take the handles inside a scoped block so the conns guard is
        // dropped before the (blocking) joins below.
        let conns = {
            let mut held = lock(&self.shared.conns);
            std::mem::take(&mut *held)
        };
        for h in conns {
            h.join()
                .map_err(|_| AtsError::internal("connection thread panicked"))?;
        }
        Ok(self.shared.metrics.snapshot())
    }
}

/// A cloneable trigger that requests shutdown from another thread —
/// the CLI hands one to its stdin watcher so EOF / `quit` drains the
/// daemon exactly like the `SHUTDOWN` verb does.
#[derive(Clone)]
pub struct ShutdownSwitch(Arc<Shared>);

impl ShutdownSwitch {
    /// Request the graceful drain (idempotent).
    pub fn trigger(&self) {
        self.0.begin_shutdown();
    }
}

impl ServerHandle {
    /// A detachable shutdown trigger for watcher threads.
    pub fn shutdown_switch(&self) -> ShutdownSwitch {
        ShutdownSwitch(Arc::clone(&self.shared))
    }
}

/// Start the daemon: bind `cfg.addr`, spawn the acceptor and the batch
/// executor, and return a [`ServerHandle`]. `io_snapshots`, when given,
/// feeds per-shard I/O counters into the `STATS` verb.
///
/// The engine must be the shared (`'static`) shape from
/// [`QueryEngine::shared`] so every connection thread can hold a clone;
/// its thread knob is overridden by `cfg.threads`.
pub fn serve(
    engine: QueryEngine<'static>,
    cfg: ServeConfig,
    io_snapshots: Option<IoSnapshotFn>,
) -> Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr).map_err(AtsError::Io)?;
    let addr = listener.local_addr().map_err(AtsError::Io)?;
    let wake_ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let shared = Arc::new(Shared {
        engine: engine.with_threads(cfg.threads.max(1)),
        window: cfg.window,
        batch_max: cfg.batch_max.max(1),
        max_frame: cfg.max_frame.max(16),
        pending_max: cfg.pending_max.max(1),
        shutdown: AtomicBool::new(false),
        wake_addr: SocketAddr::new(wake_ip, addr.port()),
        accepting: AtomicBool::new(true),
        queue: Mutex::new(BatchQueue::default()),
        queue_cv: Condvar::new(),
        metrics: ServerMetrics::default(),
        latency: Latency::default(),
        io_snapshots,
        conns: Mutex::new(Vec::new()),
    });
    let batcher = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || run_batcher(&shared))
    };
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || run_acceptor(&listener, &shared))
    };
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        batcher: Some(batcher),
    })
}

/// Accept loop: block in `accept` until shutdown, handing each stream to
/// its own thread (registered for join-on-shutdown). The connection that
/// arrives after the flag is raised — [`Shared::begin_shutdown`]'s wake-up
/// call, or a client too late to be served — is dropped unanswered.
fn run_acceptor(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.is_shutdown() {
        match listener.accept() {
            Ok(_) if shared.is_shutdown() => break,
            Ok((stream, _peer)) => {
                shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || handle_connection(&conn_shared, stream));
                lock(&shared.conns).push(handle);
            }
            // Transient accept errors (EMFILE, resets): keep serving the
            // connections we have.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    shared.accepting.store(false, Ordering::SeqCst);
}

/// The coalescing executor: take everything that is queued, run the
/// cells as one [`QueryEngine::batch_cells`] call and each distinct
/// aggregate as one scan, scatter the replies, repeat — whatever arrived
/// meanwhile is the next batch. With a non-zero `window` it first lingers
/// for company, up to `batch_max` requests. On shutdown the remaining
/// queue is drained through the same path before the thread exits.
fn run_batcher(shared: &Shared) {
    loop {
        let (pending, aggs) = {
            let mut q = lock(&shared.queue);
            // Phase 1: wait for work (or shutdown + empty queue = done).
            while q.len() == 0 && !shared.is_shutdown() {
                let (guard, _timed_out) = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
            }
            if q.len() == 0 {
                q.closed = true;
                return;
            }
            // Phase 2, only when asked to linger: collect more requests
            // until the deadline, the size cap, or shutdown (which
            // executes immediately so the drain finishes promptly).
            if !shared.window.is_zero() {
                let deadline = Instant::now() + shared.window;
                while q.len() < shared.batch_max && !shared.is_shutdown() {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, _timed_out) = shared
                        .queue_cv
                        .wait_timeout(q, deadline - now)
                        .unwrap_or_else(|p| p.into_inner());
                    q = guard;
                }
            }
            (std::mem::take(&mut q.items), std::mem::take(&mut q.aggs))
        };
        let taken = Instant::now();
        execute_batch(shared, pending, taken);
        execute_aggs(shared, aggs, taken);
    }
}

/// Run one batch's cells as a single [`QueryEngine::batch_cells`] call
/// and reply to every waiting connection. Cells were bounds-checked at
/// admission, so a batch error here is environmental (I/O, corrupt page)
/// and is fanned out to every requester rather than failing silently.
fn execute_batch(shared: &Shared, pending: Vec<Pending>, taken: Instant) {
    if pending.is_empty() {
        return;
    }
    shared.metrics.batches.fetch_add(1, Ordering::Relaxed);
    let count = u64::try_from(pending.len()).unwrap_or(u64::MAX);
    shared
        .metrics
        .coalesced_cells
        .fetch_add(count, Ordering::Relaxed);
    let req = BatchRequest::new(pending.iter().map(|p| (p.row, p.col)).collect());
    let res = shared.engine.batch_cells(&req);
    let answered = Instant::now();
    let reply = |result| BatchReply {
        result,
        taken,
        answered,
    };
    match res {
        Ok(res) => {
            for (p, v) in pending.iter().zip(res.values()) {
                let _ = p.tx.send(reply(Ok(*v)));
            }
        }
        Err(e) => {
            let msg = e.to_string();
            for p in &pending {
                let _ = p.tx.send(reply(Err(msg.clone())));
            }
        }
    }
}

/// Run one batch's aggregates: group identical `(f, sel, pred)`
/// requests, scan each distinct group exactly once, and fan the result
/// out to every waiting requester. A failed scan errs only its own
/// group — the other groups in the batch still answer.
fn execute_aggs(shared: &Shared, pending: Vec<PendingAgg>, taken: Instant) {
    if pending.is_empty() {
        return;
    }
    let count = u64::try_from(pending.len()).unwrap_or(u64::MAX);
    shared
        .metrics
        .coalesced_aggs
        .fetch_add(count, Ordering::Relaxed);
    let mut groups: Vec<(
        AggregateFn,
        Selection,
        Option<Predicate>,
        Vec<mpsc::Sender<_>>,
    )> = Vec::new();
    for p in pending {
        match groups
            .iter_mut()
            .find(|(f, sel, pred, _)| *f == p.f && *sel == p.sel && *pred == p.pred)
        {
            Some((_, _, _, txs)) => txs.push(p.tx),
            None => groups.push((p.f, p.sel, p.pred, vec![p.tx])),
        }
    }
    for (f, sel, pred, txs) in groups {
        shared.metrics.agg_scans.fetch_add(1, Ordering::Relaxed);
        let res = match &pred {
            Some(pred) => shared.engine.aggregate_where(&sel, f, pred),
            None => shared.engine.aggregate(&sel, f),
        };
        let result = res.map_err(|e| e.to_string());
        let answered = Instant::now();
        for tx in txs {
            let _ = tx.send(BatchReply {
                result: result.clone(),
                taken,
                answered,
            });
        }
    }
}

/// What one attempt to read a request frame produced.
enum FrameRead {
    /// A complete payload of at most `max_frame` bytes.
    Payload(Vec<u8>),
    /// The client declared a frame longer than `max_frame`; the payload
    /// was drained and discarded so the connection stays usable.
    Oversized(usize),
    /// Clean end of stream (or mid-frame disconnect) — close quietly.
    Closed,
    /// Shutdown was requested while waiting between frames.
    ShuttingDown,
}

/// Read exactly `buf.len()` bytes, riding out read timeouts so the
/// shutdown flag is polled between them. Returns `false` on EOF, a hard
/// I/O error, or shutdown-while-waiting (the caller closes either way —
/// except that `started` frames ride out shutdown so an already-sent
/// request is still answered, never torn).
fn read_full(stream: &mut impl Read, buf: &mut [u8], shared: &Shared, started: bool) -> bool {
    let mut filled = 0usize;
    while filled < buf.len() {
        let Some(rest) = buf.get_mut(filled..) else {
            return false;
        };
        match stream.read(rest) {
            Ok(0) => return false,
            Ok(n) => filled = filled.saturating_add(n),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Between frames (`!started`, nothing read yet) shutdown
                // closes the connection; inside a frame we keep reading
                // so a request already on the wire gets its response.
                if shared.is_shutdown() && !started && filled == 0 {
                    return false;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Read one length-prefixed frame.
fn read_frame(stream: &mut impl Read, shared: &Shared) -> FrameRead {
    let mut header = [0u8; 4];
    if !read_full(stream, &mut header, shared, false) {
        return if shared.is_shutdown() {
            FrameRead::ShuttingDown
        } else {
            FrameRead::Closed
        };
    }
    let len = match usize::try_from(u32::from_be_bytes(header)) {
        Ok(len) => len,
        Err(_) => return FrameRead::Closed,
    };
    if len > shared.max_frame {
        // Drain the declared payload in bounded chunks so the stream
        // stays framed; give up (close) only on EOF or error.
        let mut remaining = len;
        let mut sink = vec![0u8; 8192.min(len)];
        while remaining > 0 {
            let take = sink.len().min(remaining);
            let Some(chunk) = sink.get_mut(..take) else {
                return FrameRead::Closed;
            };
            if !read_full(stream, chunk, shared, true) {
                return FrameRead::Closed;
            }
            remaining = remaining.saturating_sub(take);
        }
        return FrameRead::Oversized(len);
    }
    let mut payload = vec![0u8; len];
    if !read_full(stream, &mut payload, shared, true) {
        return FrameRead::Closed;
    }
    FrameRead::Payload(payload)
}

/// Bytes one connection reads from its socket at a time: a burst of
/// pipelined request frames costs one `read`, not two per frame.
const READ_BUF: usize = 16 << 10;

/// A connection's reply buffer is written out once it holds this much
/// (and, whatever it holds, before its writer blocks).
const WRITE_BUF: usize = 32 << 10;

/// Append one whole length-prefixed frame to `out`.
fn push_frame(out: &mut Vec<u8>, payload: &str) -> std::io::Result<()> {
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too long"))?;
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(bytes);
    Ok(())
}

/// Write one length-prefixed frame: a single `write_all` of header +
/// payload.
fn write_frame(stream: &mut TcpStream, payload: &str) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(payload.len().saturating_add(4));
    push_frame(&mut frame, payload)?;
    stream.write_all(&frame)?;
    stream.flush()
}

/// Per-connection counters, reported by this connection's `STATS`.
/// Atomics: the reader thread counts verbs/aggregates/errors, the writer
/// thread counts cell replies as it resolves them.
#[derive(Default)]
struct ConnMetrics {
    queries: AtomicU64,
    errors: AtomicU64,
    latency_usec: AtomicU64,
}

/// One entry in a connection's in-order reply queue. The reader pushes
/// one item per request frame; the writer resolves and writes them in
/// FIFO order, so pipelined replies are never reordered.
enum WriterItem {
    /// A pre-rendered reply line (verbs, aggregates, errors) — already
    /// counted by the reader.
    Line(String),
    /// A cell or aggregate admitted to the batcher: wait for its
    /// result, count it, then write.
    Batched {
        rx: mpsc::Receiver<BatchReply>,
        started: Instant,
        /// Cells count into `cells`, the other two into `aggregates`.
        class: QueryClass,
    },
    /// The `SHUTDOWN` ack: write it, then raise the flag — the requester
    /// always hears the acknowledgment before the drain begins.
    Shutdown(String),
}

/// Serve one connection. Requests pipeline: a dedicated writer thread
/// owns the response side of the socket and resolves replies in FIFO
/// order, so a client may have up to `pending_max` cell queries in the
/// batcher at once — beyond that depth new cells earn `ERR busy` instead
/// of growing the batcher's queue. If the peer also stops *reading*
/// (so even `ERR busy` lines would pile up), the reader stops dispatching
/// frames once the reply queue is twice `pending_max` deep — at most one
/// [`READ_BUF`] of undispatched bytes sits in user space — and lets TCP
/// backpressure stall the flood.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    // Short read timeouts make the loop poll the shutdown flag; they are
    // retried inside `read_full`, invisible to the protocol.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(ConnMetrics::default());
    // Unresolved cells this connection has in the batcher (ERR-busy cap).
    let cells_in_flight = Arc::new(AtomicU64::new(0));
    // Reply-queue depth (hard backpressure cap).
    let queued = Arc::new(AtomicU64::new(0));
    let (wtx, wrx) = mpsc::channel::<WriterItem>();
    let writer = {
        let shared = Arc::clone(shared);
        let conn = Arc::clone(&conn);
        let cells_in_flight = Arc::clone(&cells_in_flight);
        let queued = Arc::clone(&queued);
        std::thread::spawn(move || {
            run_writer(&shared, &conn, write_half, &wrx, &cells_in_flight, &queued)
        })
    };
    let backpressure = u64::try_from(shared.pending_max.saturating_mul(2)).unwrap_or(u64::MAX);
    // One `read` fetches every frame the peer has sent so far.
    let mut stream = BufReader::with_capacity(READ_BUF, stream);
    loop {
        // Hard backpressure: a peer that writes but never reads fills the
        // reply queue; stop taking frames and let the kernel's TCP
        // window push back instead of buffering `ERR busy` lines forever.
        while queued.load(Ordering::Acquire) >= backpressure && !shared.is_shutdown() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let payload = match read_frame(&mut stream, shared) {
            FrameRead::Payload(p) => p,
            FrameRead::Oversized(len) => {
                conn.errors.fetch_add(1, Ordering::Relaxed);
                shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                let msg = format!(
                    "ERR frame of {len} bytes exceeds the {} byte limit",
                    shared.max_frame
                );
                queued.fetch_add(1, Ordering::Release);
                if wtx.send(WriterItem::Line(msg)).is_err() {
                    break;
                }
                continue;
            }
            FrameRead::Closed | FrameRead::ShuttingDown => break,
        };
        let started = Instant::now();
        let item = match std::str::from_utf8(&payload) {
            Ok(text) => dispatch(shared, &conn, &cells_in_flight, text, started),
            Err(_) => immediate_err(
                shared,
                &conn,
                "request payload is not valid UTF-8".to_string(),
                started,
            ),
        };
        let done = matches!(item, WriterItem::Shutdown(_));
        queued.fetch_add(1, Ordering::Release);
        if wtx.send(item).is_err() || done {
            break;
        }
    }
    // Close the reply queue and let the writer drain it: replies for
    // cells still in the batcher are written before the thread exits.
    drop(wtx);
    let _ = writer.join();
}

/// The write side of one connection: whole reply frames gathered in one
/// reused buffer and written out together, so a frame is never torn and a
/// burst of replies costs one `write`. After a socket error it discards
/// instead, so the writer keeps resolving in-flight receivers.
struct ReplyBuf {
    stream: TcpStream,
    out: Vec<u8>,
    broken: bool,
}

impl ReplyBuf {
    fn push(&mut self, line: &str) {
        if push_frame(&mut self.out, line).is_err() {
            self.broken = true;
        }
        if self.out.len() >= WRITE_BUF {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if !self.broken && !self.out.is_empty() && self.stream.write_all(&self.out).is_err() {
            self.broken = true;
        }
        self.out.clear();
    }
}

/// Receive from `rx`; if that means blocking, write `replies` out first —
/// no resolved reply sits in user space while its writer sleeps.
fn recv_flushing<T>(
    rx: &mpsc::Receiver<T>,
    replies: &mut ReplyBuf,
) -> std::result::Result<T, mpsc::RecvError> {
    rx.try_recv().or_else(|_| {
        replies.flush();
        rx.recv()
    })
}

/// The writer half of one connection: resolve queued replies in FIFO
/// order and write them a burst at a time. Keeps draining (without
/// writing) after a socket error so in-flight cell receivers still
/// resolve.
fn run_writer(
    shared: &Shared,
    conn: &ConnMetrics,
    stream: TcpStream,
    wrx: &mpsc::Receiver<WriterItem>,
    cells_in_flight: &AtomicU64,
    queued: &AtomicU64,
) {
    let mut replies = ReplyBuf {
        stream,
        out: Vec::new(),
        broken: false,
    };
    while let Ok(item) = recv_flushing(wrx, &mut replies) {
        let (line, done) = match item {
            WriterItem::Line(s) => (s, false),
            WriterItem::Batched { rx, started, class } => {
                let reply = recv_flushing(&rx, &mut replies);
                if let Ok(reply) = &reply {
                    let stages = shared.latency.of(class);
                    stages
                        .wait
                        .record(reply.taken.saturating_duration_since(started));
                    stages
                        .execute
                        .record(reply.answered.saturating_duration_since(reply.taken));
                }
                let line = match reply.map_or_else(
                    |_| Err("batch executor dropped the request".to_string()),
                    |reply| reply.result,
                ) {
                    Ok(v) => {
                        conn.queries.fetch_add(1, Ordering::Relaxed);
                        shared.metrics.queries.fetch_add(1, Ordering::Relaxed);
                        let counter = match class {
                            QueryClass::Cell => &shared.metrics.cells,
                            QueryClass::Aggregate | QueryClass::Where => &shared.metrics.aggregates,
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                        format!("OK {v}")
                    }
                    Err(msg) => {
                        conn.errors.fetch_add(1, Ordering::Relaxed);
                        shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                        format!("ERR {msg}")
                    }
                };
                cells_in_flight.fetch_sub(1, Ordering::Release);
                count_latency(shared, conn, started);
                (line, false)
            }
            WriterItem::Shutdown(s) => (s, true),
        };
        queued.fetch_sub(1, Ordering::Release);
        replies.push(&line);
        if done {
            replies.flush();
            shared.begin_shutdown();
            return;
        }
    }
}

/// Record an immediately-known `ERR` reply (reader side).
fn immediate_err(shared: &Shared, conn: &ConnMetrics, msg: String, started: Instant) -> WriterItem {
    conn.errors.fetch_add(1, Ordering::Relaxed);
    shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
    count_latency(shared, conn, started);
    WriterItem::Line(format!("ERR {msg}"))
}

fn count_latency(shared: &Shared, conn: &ConnMetrics, started: Instant) {
    let elapsed = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    conn.latency_usec.fetch_add(elapsed, Ordering::Relaxed);
    shared
        .metrics
        .latency_usec
        .fetch_add(elapsed, Ordering::Relaxed);
}

/// Execute one request line (reader side): a protocol verb (answered on
/// the spot), or a cell or aggregate (admitted to the batcher, reply
/// resolved later by the writer).
fn dispatch(
    shared: &Shared,
    conn: &ConnMetrics,
    cells_in_flight: &AtomicU64,
    text: &str,
    started: Instant,
) -> WriterItem {
    let line = text.trim();
    if line.eq_ignore_ascii_case("ping") {
        count_latency(shared, conn, started);
        return WriterItem::Line("OK pong".to_string());
    }
    if line.eq_ignore_ascii_case("shutdown") {
        count_latency(shared, conn, started);
        return WriterItem::Shutdown("OK shutting down".to_string());
    }
    if line.eq_ignore_ascii_case("stats") {
        count_latency(shared, conn, started);
        return WriterItem::Line(format!("OK {}", render_stats(shared, conn)));
    }
    match parse_query(line) {
        Ok(Query::Cell(i, j)) => cell_via_batcher(shared, conn, cells_in_flight, i, j, started),
        Ok(Query::Aggregate(f, sel)) => {
            agg_via_batcher(shared, conn, cells_in_flight, f, sel, None, started)
        }
        Ok(Query::AggregateWhere(f, sel, pred)) => {
            agg_via_batcher(shared, conn, cells_in_flight, f, sel, Some(pred), started)
        }
        Err(e) => immediate_err(shared, conn, e.to_string(), started),
    }
}

/// Admit one cell query into the batcher's queue; the writer thread
/// waits for the batch that answers it. Bounds are checked *here*, per
/// request — a bad cell earns its own `ERR` without poisoning the batch
/// the other clients' queries land in ([`QueryEngine::batch_cells`]
/// fails whole batches on any invalid cell, so invalid cells must never
/// be enqueued). A connection already at `pending_max` unresolved cells
/// is refused with `ERR busy` — the batcher's queue cannot be grown
/// without bound by one flooding peer.
fn cell_via_batcher(
    shared: &Shared,
    conn: &ConnMetrics,
    cells_in_flight: &AtomicU64,
    row: usize,
    col: usize,
    started: Instant,
) -> WriterItem {
    let (n, m) = (shared.engine.rows(), shared.engine.cols());
    if row >= n {
        return immediate_err(
            shared,
            conn,
            AtsError::oob("row", row, n).to_string(),
            started,
        );
    }
    if col >= m {
        return immediate_err(
            shared,
            conn,
            AtsError::oob("column", col, m).to_string(),
            started,
        );
    }
    let pending_max = u64::try_from(shared.pending_max).unwrap_or(u64::MAX);
    if cells_in_flight.load(Ordering::Acquire) >= pending_max {
        shared.metrics.busy.fetch_add(1, Ordering::Relaxed);
        return immediate_err(
            shared,
            conn,
            format!("busy: {pending_max} cell queries already in flight on this connection"),
            started,
        );
    }
    let (tx, rx) = mpsc::channel();
    let admitted = {
        let mut q = lock(&shared.queue);
        if q.closed {
            false
        } else {
            q.items.push(Pending { row, col, tx });
            true
        }
    };
    if !admitted {
        return immediate_err(shared, conn, "server is shutting down".to_string(), started);
    }
    cells_in_flight.fetch_add(1, Ordering::Release);
    shared.queue_cv.notify_all();
    WriterItem::Batched {
        rx,
        started,
        class: QueryClass::Cell,
    }
}

/// Admit one aggregate query into the batcher's queue; identical
/// `(aggregate, selection, predicate)` requests taken in the same batch
/// share one scan. The selection is bounds-checked at admission
/// so a bad request earns its own immediate `ERR`; in-flight aggregates
/// count against the same per-connection `pending_max` cap as cells.
fn agg_via_batcher(
    shared: &Shared,
    conn: &ConnMetrics,
    cells_in_flight: &AtomicU64,
    f: AggregateFn,
    sel: Selection,
    pred: Option<Predicate>,
    started: Instant,
) -> WriterItem {
    if let Err(e) = sel.validate(shared.engine.rows(), shared.engine.cols()) {
        return immediate_err(shared, conn, e.to_string(), started);
    }
    let pending_max = u64::try_from(shared.pending_max).unwrap_or(u64::MAX);
    if cells_in_flight.load(Ordering::Acquire) >= pending_max {
        shared.metrics.busy.fetch_add(1, Ordering::Relaxed);
        return immediate_err(
            shared,
            conn,
            format!("busy: {pending_max} queries already in flight on this connection"),
            started,
        );
    }
    let class = if pred.is_some() {
        QueryClass::Where
    } else {
        QueryClass::Aggregate
    };
    let (tx, rx) = mpsc::channel();
    let admitted = {
        let mut q = lock(&shared.queue);
        if q.closed {
            false
        } else {
            q.aggs.push(PendingAgg { f, sel, pred, tx });
            true
        }
    };
    if !admitted {
        return immediate_err(shared, conn, "server is shutting down".to_string(), started);
    }
    cells_in_flight.fetch_add(1, Ordering::Release);
    shared.queue_cv.notify_all();
    WriterItem::Batched { rx, started, class }
}

/// Render the `STATS` response: one `stats` marker line, then
/// `key value` lines for the server-wide counters, this connection's
/// counters, the queue depth, one latency distribution per query class
/// and stage, and (when wired) the per-shard and total I/O snapshots.
fn render_stats(shared: &Shared, conn: &ConnMetrics) -> String {
    let m = shared.metrics.snapshot();
    let mut out = String::from("stats\n");
    out.push_str(&format!(
        "server connections={} queries={} cells={} aggregates={} errors={} busy={} \
         batches={} coalesced_cells={} agg_scans={} coalesced_aggs={} latency_usec={}\n",
        m.connections,
        m.queries,
        m.cells,
        m.aggregates,
        m.errors,
        m.busy,
        m.batches,
        m.coalesced_cells,
        m.agg_scans,
        m.coalesced_aggs,
        m.latency_usec
    ));
    out.push_str(&format!(
        "conn queries={} errors={} latency_usec={}\n",
        conn.queries.load(Ordering::Relaxed),
        conn.errors.load(Ordering::Relaxed),
        conn.latency_usec.load(Ordering::Relaxed)
    ));
    out.push_str(&format!("queue depth={}\n", shared.queue_depth()));
    for l in shared.latency.summaries() {
        out.push_str(&format!(
            "latency class={} stage={} n={} p50_us={} p99_us={} max_us={} sum_us={}\n",
            l.class.name(),
            l.stage.name(),
            l.n,
            l.p50_us,
            l.p99_us,
            l.max_us,
            l.sum_us
        ));
    }
    if let Some(io) = &shared.io_snapshots {
        let mut total = IoSnapshot::default();
        for (idx, s) in io().iter().enumerate() {
            total.merge(s);
            out.push_str(&format!(
                "io shard={idx} physical={} logical={} bytes={} hits={}\n",
                s.physical_reads, s.logical_reads, s.bytes_read, s.cache_hits
            ));
        }
        out.push_str(&format!(
            "io total physical={} logical={} bytes={} hits={}\n",
            total.physical_reads, total.logical_reads, total.bytes_read, total.cache_hits
        ));
    }
    out
}

/// Client-side frame helpers, shared by the integration tests and the
/// CI smoke client (`ats serve` is driven over a real socket in both).
pub mod client {
    use super::*;

    /// Hard cap on a response frame the client will buffer. The server
    /// never legitimately sends more (large query results stream as
    /// multiple frames); a corrupt or hostile peer declaring a huge
    /// length must not drive an allocation on the client.
    pub const MAX_RESPONSE_LEN: usize = 64 << 20;

    /// Send one request payload as a length-prefixed frame.
    pub fn send(stream: &mut TcpStream, payload: &str) -> Result<()> {
        write_frame(stream, payload).map_err(AtsError::Io)
    }

    /// Read one response frame (blocking until the peer answers).
    pub fn recv(stream: &mut TcpStream) -> Result<String> {
        let mut header = [0u8; 4];
        stream.read_exact(&mut header).map_err(AtsError::Io)?;
        let len = usize::try_from(u32::from_be_bytes(header))
            .map_err(|_| AtsError::internal("response length does not fit in usize"))?;
        if len > MAX_RESPONSE_LEN {
            return Err(AtsError::Corrupt(format!(
                "response frame declares {len} bytes (cap {MAX_RESPONSE_LEN})"
            )));
        }
        let mut payload = vec![0u8; len];
        stream.read_exact(&mut payload).map_err(AtsError::Io)?;
        String::from_utf8(payload)
            .map_err(|_| AtsError::Corrupt("response frame is not UTF-8".to_string()))
    }

    /// Send `payload` and wait for the reply — one round trip.
    pub fn round_trip(stream: &mut TcpStream, payload: &str) -> Result<String> {
        send(stream, payload)?;
        recv(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExactMatrix;
    use ats_compress::CompressedMatrix;
    use ats_linalg::Matrix;

    fn start(window_ms: u64, batch_max: usize) -> (ServerHandle, QueryEngine<'static>) {
        let m = Arc::new(ExactMatrix(Matrix::from_fn(12, 9, |i, j| {
            ((i * 13 + j * 5) % 17) as f64 - 4.0
        })));
        let engine = QueryEngine::shared(m);
        let cfg = ServeConfig {
            window: Duration::from_millis(window_ms),
            batch_max,
            ..ServeConfig::default()
        };
        let handle = serve(engine.clone(), cfg, None).unwrap();
        (handle, engine)
    }

    fn connect(handle: &ServerHandle) -> TcpStream {
        TcpStream::connect(handle.addr()).unwrap()
    }

    #[test]
    fn ping_query_stats_shutdown_round_trip() {
        let (handle, engine) = start(1, 8);
        let mut c = connect(&handle);
        assert_eq!(client::round_trip(&mut c, "PING").unwrap(), "OK pong");
        let cell = client::round_trip(&mut c, "cell 3 4").unwrap();
        let want = engine.cell(3, 4).unwrap();
        assert_eq!(cell, format!("OK {want}"));
        let agg = client::round_trip(&mut c, "sum rows all cols all").unwrap();
        assert!(agg.starts_with("OK "), "{agg}");
        let stats = client::round_trip(&mut c, "STATS").unwrap();
        assert!(stats.contains("server connections=1"), "{stats}");
        assert!(stats.contains("conn queries=2"), "{stats}");
        let bye = client::round_trip(&mut c, "SHUTDOWN").unwrap();
        assert_eq!(bye, "OK shutting down");
        let m = handle.join().unwrap();
        assert_eq!(m.cells, 1);
        assert_eq!(m.aggregates, 1);
        assert_eq!(m.batches, 1);
    }

    #[test]
    fn parse_and_range_errors_keep_connection_alive() {
        let (handle, _engine) = start(1, 8);
        let mut c = connect(&handle);
        for bad in ["definitely not a query", "cell 99 0", "cell 0 99", ""] {
            let r = client::round_trip(&mut c, bad).unwrap();
            assert!(r.starts_with("ERR "), "{bad:?} -> {r}");
        }
        // Still healthy afterwards.
        assert_eq!(client::round_trip(&mut c, "PING").unwrap(), "OK pong");
        handle.begin_shutdown();
        let m = handle.join().unwrap();
        assert_eq!(m.errors, 4);
    }

    #[test]
    fn oversized_frame_is_refused_but_survivable() {
        let (handle, _engine) = start(1, 8);
        let mut c = connect(&handle);
        // Frame longer than max_frame: declared len 2 MiB, fully sent.
        let huge = vec![b'x'; 2 << 20];
        let len = u32::try_from(huge.len()).unwrap();
        c.write_all(&len.to_be_bytes()).unwrap();
        c.write_all(&huge).unwrap();
        let r = client::recv(&mut c).unwrap();
        assert!(r.starts_with("ERR frame of"), "{r}");
        assert_eq!(client::round_trip(&mut c, "PING").unwrap(), "OK pong");
        handle.begin_shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn shutdown_drains_pending_window() {
        // A huge window with a huge cap: the batch would sit for 30s —
        // shutdown must flush it instead, and the client still gets the
        // right answer.
        let (handle, engine) = start(30_000, 1024);
        let mut c = connect(&handle);
        client::send(&mut c, "cell 2 7").unwrap();
        std::thread::sleep(Duration::from_millis(150));
        handle.begin_shutdown();
        let r = client::recv(&mut c).unwrap();
        assert_eq!(r, format!("OK {}", engine.cell(2, 7).unwrap()));
        let m = handle.join().unwrap();
        assert_eq!(m.cells, 1);
        assert_eq!(m.batches, 1);
    }

    #[test]
    fn identical_aggregates_share_one_scan() {
        // Three clients ask the same range aggregate plus one distinct
        // one inside a single window: the batcher must run exactly two
        // scans and fan the shared answer out.
        let (handle, engine) = start(30_000, 4);
        let mut clients: Vec<TcpStream> = (0..4).map(|_| connect(&handle)).collect();
        let queries = [
            "sum rows all cols 2..6",
            "sum rows all cols 2..6",
            "sum rows all cols 2..6",
            "max rows all cols all",
        ];
        for (c, q) in clients.iter_mut().zip(queries) {
            client::send(c, q).unwrap();
        }
        let mut replies = Vec::new();
        for c in &mut clients {
            replies.push(client::recv(c).unwrap());
        }
        let want_sum = engine
            .aggregate(
                &Selection {
                    rows: crate::selection::Axis::All,
                    cols: crate::selection::Axis::Range(2, 6),
                },
                AggregateFn::Sum,
            )
            .unwrap();
        for r in replies.iter().take(3) {
            assert_eq!(r, &format!("OK {want_sum}"));
        }
        assert!(replies[3].starts_with("OK "), "{}", replies[3]);
        handle.begin_shutdown();
        let m = handle.join().unwrap();
        assert_eq!(m.aggregates, 4);
        assert_eq!(m.coalesced_aggs, 4);
        assert_eq!(m.agg_scans, 2, "three identical + one distinct = two scans");
        assert_eq!(m.batches, 0, "no cell batches ran");
    }

    #[test]
    fn where_aggregates_coalesce_by_predicate() {
        // Two identical `where` queries share one scan; the same
        // selection with a different threshold — and the predicate-free
        // form of the same selection — each get their own.
        let (handle, engine) = start(30_000, 4);
        let mut clients: Vec<TcpStream> = (0..4).map(|_| connect(&handle)).collect();
        let queries = [
            "count rows all where value > 3",
            "count rows all where value > 3",
            "count rows all where value > 5",
            "count rows all cols all",
        ];
        for (c, q) in clients.iter_mut().zip(queries) {
            client::send(c, q).unwrap();
        }
        let mut replies = Vec::new();
        for c in &mut clients {
            replies.push(client::recv(c).unwrap());
        }
        let sel = Selection {
            rows: crate::selection::Axis::All,
            cols: crate::selection::Axis::All,
        };
        let want = engine
            .aggregate_where(
                &sel,
                AggregateFn::Count,
                &Predicate::new(crate::predicate::CmpOp::Gt, 3.0).unwrap(),
            )
            .unwrap();
        assert_eq!(replies[0], format!("OK {want}"));
        assert_eq!(replies[1], format!("OK {want}"));
        assert!(replies[2].starts_with("OK "), "{}", replies[2]);
        assert_ne!(replies[2], replies[0]);
        assert_eq!(replies[3], "OK 108", "12x9 cells unfiltered");
        handle.begin_shutdown();
        let m = handle.join().unwrap();
        assert_eq!(m.aggregates, 4);
        assert_eq!(m.coalesced_aggs, 4);
        assert_eq!(
            m.agg_scans, 3,
            "two identical where + distinct threshold + plain = three scans"
        );
    }

    #[test]
    fn aggregate_errors_err_only_their_group() {
        // An empty-selection aggregate that passes bounds validation
        // still fails at scan time; sharing a window with a healthy
        // group must not poison the healthy answers.
        let (handle, _engine) = start(30_000, 2);
        let mut a = connect(&handle);
        let mut b = connect(&handle);
        client::send(&mut a, "avg rows all cols 4..4").unwrap();
        client::send(&mut b, "avg rows all cols all").unwrap();
        let ra = client::recv(&mut a).unwrap();
        let rb = client::recv(&mut b).unwrap();
        assert!(ra.starts_with("ERR "), "{ra}");
        assert!(rb.starts_with("OK "), "{rb}");
        handle.begin_shutdown();
        let m = handle.join().unwrap();
        assert_eq!(m.aggregates, 1);
        assert_eq!(m.errors, 1);
        assert_eq!(m.agg_scans, 2);
    }

    #[test]
    fn batch_max_fires_without_waiting_for_window() {
        let (handle, engine) = start(30_000, 3);
        let mut clients: Vec<TcpStream> = (0..3).map(|_| connect(&handle)).collect();
        for (t, c) in clients.iter_mut().enumerate() {
            client::send(c, &format!("cell 5 {t}")).unwrap();
        }
        for (t, c) in clients.iter_mut().enumerate() {
            let r = client::recv(c).unwrap();
            assert_eq!(r, format!("OK {}", engine.cell(5, t).unwrap()));
        }
        handle.begin_shutdown();
        let m = handle.join().unwrap();
        assert_eq!(m.batches, 1, "three cells must share one batch");
        assert_eq!(m.coalesced_cells, 3);
    }

    #[test]
    fn histogram_buckets_quantiles_and_stage_sums() {
        // Bucket edges: 0 | 1 | 2–3 | 4–7 | 8–15 …, the last open-ended.
        for (us, bucket) in [(0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4)] {
            assert_eq!(Histogram::bucket_of(us), bucket, "{us} µs");
            assert!(us <= Histogram::upper_edge(bucket));
        }
        assert_eq!(Histogram::bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
        assert_eq!(Histogram::upper_edge(4), 15);
        assert_eq!(Histogram::upper_edge(LATENCY_BUCKETS - 1), u64::MAX);

        // 90 samples of 10 µs and 10 of 1 000 µs: the median is the edge
        // of 10's bucket, p99 lands among the slow ones, capped by max.
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(Duration::from_micros(10));
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(1_000));
        }
        let s = h.summary(QueryClass::Cell, Stage::Execute);
        assert_eq!((s.n, s.p50_us, s.p99_us, s.max_us), (100, 15, 1_000, 1_000));
        assert_eq!(s.sum_us, 90 * 10 + 10 * 1_000);
        let empty = Histogram::default().summary(QueryClass::Where, Stage::AdmissionWait);
        assert_eq!((empty.n, empty.p50_us, empty.max_us), (0, 0, 0));

        // Through a daemon: every batched request lands in its class,
        // once per stage, and the two stages never exceed the total.
        let (handle, _engine) = start(0, 8);
        let mut c = connect(&handle);
        for q in ["cell 1 2", "cell 3 4", "sum rows all cols all"] {
            assert!(client::round_trip(&mut c, q).unwrap().starts_with("OK "));
        }
        let r = client::round_trip(&mut c, "count rows all where value > 3").unwrap();
        assert!(r.starts_with("OK "), "{r}");
        assert_eq!(handle.queue_depth(), 0);
        let stats = client::round_trip(&mut c, "STATS").unwrap();
        assert!(stats.contains("\nqueue depth=0\n"), "{stats}");
        assert!(
            stats.contains("\nlatency class=cell stage=wait n=2 p50_us="),
            "{stats}"
        );
        assert!(
            stats.contains("\nlatency class=where stage=execute n=1 p50_us="),
            "{stats}"
        );
        let latency = handle.latency();
        let n: Vec<u64> = latency.iter().map(|l| l.n).collect();
        assert_eq!(n, [2, 2, 1, 1, 1, 1], "{latency:?}");
        let staged: u64 = latency.iter().map(|l| l.sum_us).sum();
        handle.begin_shutdown();
        let m = handle.join().unwrap();
        assert!(staged <= m.latency_usec, "{staged} > {}", m.latency_usec);
    }

    /// An exact matrix whose cells cannot be read until the gate opens;
    /// `entered` hears of every attempt.
    struct Gated {
        inner: ExactMatrix,
        open: Mutex<bool>,
        opened: Condvar,
        entered: Mutex<mpsc::Sender<()>>,
    }

    impl CompressedMatrix for Gated {
        fn rows(&self) -> usize {
            self.inner.rows()
        }
        fn cols(&self) -> usize {
            self.inner.cols()
        }
        fn cell(&self, i: usize, j: usize) -> Result<f64> {
            let _ = lock(&self.entered).send(());
            let mut open = lock(&self.open);
            while !*open {
                open = self.opened.wait(open).unwrap();
            }
            drop(open);
            self.inner.cell(i, j)
        }
        fn storage_bytes(&self) -> usize {
            self.inner.storage_bytes()
        }
        fn method_name(&self) -> &'static str {
            "gated"
        }
    }

    #[test]
    fn backlog_of_one_execution_is_the_next_batch() {
        // No window and no size trigger: while the first batch is held
        // inside the engine, K cells of one row queue up behind it, and
        // the batcher must take them as ONE batch when it comes back.
        const K: usize = 6;
        let (entered_tx, entered) = mpsc::channel();
        let gated = Arc::new(Gated {
            inner: ExactMatrix(Matrix::from_fn(12, 9, |i, j| {
                (i * 9 + j) as f64 * 0.37 - 11.0
            })),
            open: Mutex::new(false),
            opened: Condvar::new(),
            entered: Mutex::new(entered_tx),
        });
        let handle = serve(
            QueryEngine::shared(gated.clone()),
            ServeConfig::default(),
            None,
        )
        .unwrap();

        let mut first = connect(&handle);
        client::send(&mut first, "cell 0 0").unwrap();
        entered
            .recv_timeout(Duration::from_secs(10))
            .expect("the batcher never took the first cell");
        let mut clients: Vec<TcpStream> = (0..K).map(|_| connect(&handle)).collect();
        for (col, c) in clients.iter_mut().enumerate() {
            client::send(c, &format!("cell 7 {col}")).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.queue_depth() < K {
            assert!(
                Instant::now() < deadline,
                "only {} queued",
                handle.queue_depth()
            );
            std::thread::yield_now();
        }
        *lock(&gated.open) = true;
        gated.opened.notify_all();

        let want = |i, j| format!("OK {}", gated.inner.cell(i, j).unwrap());
        assert_eq!(client::recv(&mut first).unwrap(), want(0, 0));
        for (col, c) in clients.iter_mut().enumerate() {
            assert_eq!(client::recv(c).unwrap(), want(7, col));
        }
        handle.begin_shutdown();
        let m = handle.join().unwrap();
        assert_eq!(m.batches, 2, "{m:?}");
        assert_eq!(m.coalesced_cells, K as u64 + 1, "{m:?}");
    }

    #[test]
    fn idle_daemon_shuts_down_promptly() {
        // The acceptor blocks in `accept`; shutdown has to wake it. One
        // served connection first: the acceptor is past its start-up
        // check of the flag and back in `accept` when the flag is raised.
        let (handle, _engine) = start(0, 8);
        let mut c = connect(&handle);
        assert_eq!(client::round_trip(&mut c, "PING").unwrap(), "OK pong");
        drop(c);
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            handle.begin_shutdown();
            let _ = tx.send(handle.join());
        });
        rx.recv_timeout(Duration::from_secs(1))
            .expect("join did not return within 1 s")
            .unwrap();
    }

    #[test]
    fn fresh_connection_is_noticed_at_once() {
        // Connect, then ask: a polling acceptor adds its sleep (2.5 ms on
        // average at 5 ms) before the first frame is read. Three tries
        // ride out a noisy machine; a poll loop fails all of them.
        let (handle, _engine) = start(0, 8);
        let median = || {
            let mut rtts: Vec<Duration> = (0..32)
                .map(|_| {
                    let t0 = Instant::now();
                    let mut c = connect(&handle);
                    c.set_nodelay(true).unwrap();
                    assert_eq!(client::round_trip(&mut c, "PING").unwrap(), "OK pong");
                    t0.elapsed()
                })
                .collect();
            rtts.sort();
            rtts[rtts.len() / 2]
        };
        let best = (0..3).map(|_| median()).min().unwrap();
        assert!(best < Duration::from_millis(1), "median {best:?}");
        handle.begin_shutdown();
        let m = handle.join().unwrap();
        assert_eq!(m.connections, 96, "the wake-up call is not a client");
    }
}
