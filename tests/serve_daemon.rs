//! End-to-end tests for the `ats serve` daemon over a real TCP socket:
//! concurrent clients must get bitwise-identical answers to a serial
//! per-query loop at every shard × thread count; concurrently arriving
//! cell queries for the same row must coalesce into one `U`-row fetch
//! per shard (IoStats-asserted); a client killed mid-conversation must
//! not disturb the server; and `SHUTDOWN` must drain, not tear.

use adhoc_ts::compress::{CompressedMatrix, SpaceBudget};
use adhoc_ts::core::store::SequenceStore;
use adhoc_ts::core::timeblock::TimeBlockedStore;
use adhoc_ts::data::{generate_phone, PhoneConfig};
use adhoc_ts::linalg::Matrix;
use adhoc_ts::query::engine::QueryEngine;
use adhoc_ts::query::parse::run_query;
use adhoc_ts::query::serve::{client, serve, ServeConfig, ServerHandle};
use adhoc_ts::storage::ShardSynopsis;
use ats_common::testutil::for_each_layout;
use ats_common::{Result, TestDir};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn phone(rows: usize, cols: usize, seed: u64) -> Matrix {
    generate_phone(&PhoneConfig {
        customers: rows,
        days: cols,
        seed,
        ..PhoneConfig::default()
    })
    .matrix()
    .clone()
}

/// Build, save, and reopen a paged store with the given shard count.
fn saved_store(dir: &TestDir, x: &Matrix, shards: usize) -> Arc<TimeBlockedStore> {
    // Pinned to one time block: the daemon fixture serves the v3 sharded
    // layout (time-blocked serving is covered separately below).
    SequenceStore::builder()
        .budget(SpaceBudget::from_percent(15.0))
        .shards(shards)
        .time_blocks(1)
        .build(x)
        .unwrap()
        .save(dir.file("store"))
        .unwrap();
    Arc::new(TimeBlockedStore::open(dir.file("store"), 256).unwrap())
}

/// Start a daemon over `store` with the given knobs; port 0 picks a free
/// port so parallel tests never collide.
fn start(store: &Arc<TimeBlockedStore>, threads: usize, cfg: ServeConfig) -> ServerHandle {
    start_over(store.clone(), store, threads, cfg)
}

/// Start a daemon serving `matrix` — `store` itself or a wrapper around
/// it — with `store`'s per-shard I/O counters behind `STATS`.
fn start_over(
    matrix: Arc<dyn CompressedMatrix>,
    store: &Arc<TimeBlockedStore>,
    threads: usize,
    cfg: ServeConfig,
) -> ServerHandle {
    let io = Arc::clone(store);
    serve(
        QueryEngine::shared(matrix).with_threads(threads),
        cfg,
        Some(Box::new(move || io.shard_io_snapshots())),
    )
    .unwrap()
}

/// The serial baseline: the same shared engine the daemon wraps, asked
/// directly, one query at a time.
fn baseline(store: &Arc<TimeBlockedStore>) -> QueryEngine<'static> {
    QueryEngine::shared(store.clone())
}

/// A store whose `cells_in_row` — the batcher's way to read cells —
/// first waits for its gate to open and then sleeps `delay`; everything
/// else passes straight through. A closed gate holds the batcher on one
/// cell while a backlog queues behind it (see [`hold`]); a delay makes
/// every cell batch slow.
struct Held {
    inner: Arc<dyn CompressedMatrix>,
    delay: Duration,
    open: Mutex<bool>,
    opened: Condvar,
    entered: Mutex<mpsc::Sender<()>>,
}

impl Held {
    /// Wrap `inner`; `entered` hears of every cell read.
    fn new(
        inner: Arc<dyn CompressedMatrix>,
        open: bool,
        delay: Duration,
    ) -> (Arc<Self>, mpsc::Receiver<()>) {
        let (tx, entered) = mpsc::channel();
        let held = Held {
            inner,
            delay,
            open: Mutex::new(open),
            opened: Condvar::new(),
            entered: Mutex::new(tx),
        };
        (Arc::new(held), entered)
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

impl CompressedMatrix for Held {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    fn cell(&self, i: usize, j: usize) -> Result<f64> {
        self.inner.cell(i, j)
    }
    fn row_into(&self, i: usize, out: &mut [f64]) -> Result<()> {
        self.inner.row_into(i, out)
    }
    fn cells_in_row(&self, i: usize, cols: &[usize], out: &mut [f64]) -> Result<()> {
        let _ = self.entered.lock().unwrap().send(());
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
        drop(open);
        std::thread::sleep(self.delay);
        self.inner.cells_in_row(i, cols, out)
    }
    fn rows_into(&self, rows: &[usize], out: &mut [f64]) -> Result<()> {
        self.inner.rows_into(rows, out)
    }
    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }
    fn method_name(&self) -> &'static str {
        self.inner.method_name()
    }
    fn shard_starts(&self) -> Vec<usize> {
        self.inner.shard_starts()
    }
    fn time_block_starts(&self) -> Vec<usize> {
        self.inner.time_block_starts()
    }
    fn time_block(&self, b: usize) -> Option<&dyn CompressedMatrix> {
        self.inner.time_block(b)
    }
    fn shard_synopsis(&self, shard: usize) -> Result<Option<&ShardSynopsis>> {
        self.inner.shard_synopsis(shard)
    }
}

/// Hold the batcher of a daemon over a closed [`Held`] inside the engine
/// with `cell {row} 0`, asked on the returned connection: every request
/// sent from now on queues until [`Held::open`].
fn hold(handle: &ServerHandle, entered: &mpsc::Receiver<()>, row: usize) -> TcpStream {
    let mut holder = connect(handle);
    client::send(&mut holder, &format!("cell {row} 0")).unwrap();
    entered
        .recv_timeout(Duration::from_secs(10))
        .expect("the batcher never took the holding cell");
    holder
}

/// Wait until `k` requests are queued behind the held batch.
fn wait_for_backlog(handle: &ServerHandle, k: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.queue_depth() < k {
        assert!(
            Instant::now() < deadline,
            "only {} queued",
            handle.queue_depth()
        );
        std::thread::yield_now();
    }
}

fn connect(handle: &ServerHandle) -> TcpStream {
    TcpStream::connect(handle.addr()).unwrap()
}

/// Parse an `OK <f64>` response back to bits. f64's `Display` is the
/// shortest round-trip form, so this is lossless.
fn ok_value(resp: &str) -> f64 {
    resp.strip_prefix("OK ")
        .unwrap_or_else(|| panic!("expected OK, got {resp:?}"))
        .parse()
        .unwrap()
}

/// All six aggregate queries over one rectangle, as wire text.
fn aggregate_queries() -> Vec<String> {
    ["sum", "avg", "count", "min", "max", "stddev"]
        .iter()
        .map(|f| format!("{f} rows 10..38 cols 3..14"))
        .collect()
}

#[test]
fn concurrent_clients_match_serial_loop_bitwise_across_shards_and_threads() {
    let x = phone(90, 24, 31);
    for shards in [1usize, 3] {
        let dir = TestDir::new("ats-serve");
        let store = saved_store(&dir, &x, shards);
        for threads in [1usize, 4] {
            let handle = start(&store, threads, ServeConfig::default());

            let engine = baseline(&store);
            let cells: Vec<(usize, usize)> =
                vec![(0, 0), (89, 23), (45, 11), (30, 5), (61, 7), (2, 19)];
            let mut questions: Vec<String> = cells
                .iter()
                .map(|&(i, j)| format!("cell {i} {j}"))
                .collect();
            questions.extend(aggregate_queries());
            let expect: Vec<u64> = questions
                .iter()
                .map(|q| run_query(&engine, q).unwrap().to_bits())
                .collect();

            // Six concurrent clients each run the full question list.
            let workers: Vec<_> = (0..6)
                .map(|_| {
                    let addr = handle.addr();
                    let questions = questions.clone();
                    std::thread::spawn(move || {
                        let mut s = TcpStream::connect(addr).unwrap();
                        questions
                            .iter()
                            .map(|q| ok_value(&client::round_trip(&mut s, q).unwrap()).to_bits())
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            for w in workers {
                let got = w.join().unwrap();
                assert_eq!(got, expect, "shards={shards} threads={threads}");
            }
            handle.join().unwrap();
        }
    }
}

#[test]
fn coalesced_same_row_queries_do_one_u_fetch_per_shard() {
    const K: usize = 5;
    let dir = TestDir::new("ats-serve");
    let x = phone(120, 24, 7);
    let store = saved_store(&dir, &x, 3);
    let (held, entered) = Held::new(store.clone(), false, Duration::ZERO);
    let handle = start_over(held.clone(), &store, 1, ServeConfig::default());

    // The store was never queried, so every I/O counter starts at 0.
    for snap in store.shard_io_snapshots() {
        assert_eq!(snap.logical_reads, 0);
    }

    // The batcher is held on a row of shard 0 (rows 0..40 | 40..80 |
    // 80..120) while K clients ask for K different columns of the SAME
    // row of shard 1: all K must queue and run as the next batch —
    // deterministically, not racily.
    let mut holder = hold(&handle, &entered, 3);
    let row = 50usize;
    let workers: Vec<_> = (0..K)
        .map(|col| {
            let addr = handle.addr();
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                ok_value(&client::round_trip(&mut s, &format!("cell {row} {col}")).unwrap())
            })
        })
        .collect();
    wait_for_backlog(&handle, K);
    held.open();
    let answers: Vec<f64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    ok_value(&client::recv(&mut holder).unwrap());

    // The acceptance bound: K concurrent clients on one row = one batch,
    // one U-row fetch, in exactly the owning shard (shard 0's one fetch
    // is the holding cell's, in a batch of its own).
    let m = handle.metrics();
    assert_eq!(m.batches, 2, "{m:?}");
    assert_eq!(m.coalesced_cells, K as u64 + 1, "{m:?}");
    let per_shard: Vec<u64> = store
        .shard_io_snapshots()
        .iter()
        .map(|s| s.logical_reads)
        .collect();
    assert_eq!(per_shard, vec![1, 1, 0]);

    // And each client's answer equals the serial loop bit for bit.
    let engine = baseline(&store);
    for (col, got) in answers.into_iter().enumerate() {
        assert_eq!(got.to_bits(), engine.cell(row, col).unwrap().to_bits());
    }
    handle.join().unwrap();
}

#[test]
fn killed_client_mid_conversation_leaves_server_healthy() {
    let dir = TestDir::new("ats-serve");
    let x = phone(40, 16, 3);
    let store = saved_store(&dir, &x, 2);
    let handle = start(&store, 1, ServeConfig::default());

    // Client A sends a request and vanishes without reading the answer;
    // client B abandons a half-written frame (header only) mid-stream.
    {
        let mut a = connect(&handle);
        client::send(&mut a, "cell 1 1").unwrap();
        drop(a);
        let mut b = connect(&handle);
        use std::io::Write as _;
        b.write_all(&[0, 0]).unwrap();
        drop(b);
    }

    // The server must still answer new clients correctly.
    let engine = baseline(&store);
    let mut c = connect(&handle);
    let got = ok_value(&client::round_trip(&mut c, "cell 7 3").unwrap());
    assert_eq!(got.to_bits(), engine.cell(7, 3).unwrap().to_bits());
    let pong = client::round_trip(&mut c, "PING").unwrap();
    assert_eq!(pong, "OK pong");
    drop(c);
    handle.join().unwrap();
}

#[test]
fn stats_verb_reports_server_connection_and_io_counters() {
    let dir = TestDir::new("ats-serve");
    let x = phone(40, 16, 13);
    let store = saved_store(&dir, &x, 2);
    let handle = start(&store, 1, ServeConfig::default());

    let mut s = connect(&handle);
    client::round_trip(&mut s, "cell 3 2").unwrap();
    client::round_trip(&mut s, "sum rows all cols all").unwrap();
    let err = client::round_trip(&mut s, "cell 99 0").unwrap();
    assert!(err.starts_with("ERR "), "{err}");
    let resp = client::round_trip(&mut s, "STATS").unwrap();
    let stats = resp.strip_prefix("OK ").unwrap();
    assert!(stats.starts_with("stats\n"), "{stats}");
    assert!(stats.contains("server connections=1"), "{stats}");
    assert!(stats.contains("cells=1 aggregates=1 errors=1"), "{stats}");
    assert!(stats.contains("conn queries=2 errors=1"), "{stats}");
    // The IoStats hook is wired: per-shard lines plus the merged total.
    assert!(stats.contains("io shard=0 "), "{stats}");
    assert!(stats.contains("io shard=1 "), "{stats}");
    assert!(stats.contains("io total "), "{stats}");
    drop(s);
    handle.join().unwrap();
}

/// Process peak RSS in bytes (`VmHWM`); the daemon runs in-process, so
/// this high-water mark covers the server's buffers too.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn flooding_client_gets_err_busy_and_cannot_grow_server_rss() {
    const FLOOD: usize = 3_000;
    const PENDING_MAX: usize = 8;
    let dir = TestDir::new("ats-serve");
    let x = phone(120, 24, 41);
    let store = saved_store(&dir, &x, 2);
    // A deliberately slow drain — every cell batch takes 10 ms to read —
    // so a flooder saturates its `pending_max` in-flight slots almost
    // immediately and cells past them come back `ERR busy` instead of
    // queueing. (Past 2×`pending_max` queued replies the server stops
    // reading the flooder's frames entirely, so the steady state is
    // ~half admitted, ~half bounced per batch.)
    let (slow, _entered) = Held::new(store.clone(), true, Duration::from_millis(10));
    let handle = start_over(
        slow,
        &store,
        1,
        ServeConfig {
            pending_max: PENDING_MAX,
            ..ServeConfig::default()
        },
    );

    let hwm_before = peak_rss_bytes();

    // The flooder pipelines FLOOD cell frames from one thread while a
    // second thread drains the replies (so TCP backpressure never stalls
    // the writes), tallying OK vs busy.
    let flood_addr = handle.addr();
    let flooder = std::thread::spawn(move || {
        let mut wr = TcpStream::connect(flood_addr).unwrap();
        let mut rd = wr.try_clone().unwrap();
        let reader = std::thread::spawn(move || {
            let (mut ok, mut busy) = (0usize, 0usize);
            for _ in 0..FLOOD {
                let resp = client::recv(&mut rd).unwrap();
                if resp.starts_with("OK ") {
                    ok += 1;
                } else {
                    assert!(resp.starts_with("ERR busy"), "{resp}");
                    busy += 1;
                }
            }
            (ok, busy)
        });
        for _ in 0..FLOOD {
            client::send(&mut wr, "cell 1 1").unwrap();
        }
        reader.join().unwrap()
    });

    // While the flood runs, a well-behaved connection keeps getting
    // correct answers: verbs, aggregates, and batched cells alike.
    let engine = baseline(&store);
    let mut healthy = connect(&handle);
    for _ in 0..10 {
        assert_eq!(client::round_trip(&mut healthy, "PING").unwrap(), "OK pong");
        let agg = ok_value(&client::round_trip(&mut healthy, "sum rows 0..20 cols all").unwrap());
        assert_eq!(
            agg.to_bits(),
            run_query(&engine, "sum rows 0..20 cols all")
                .unwrap()
                .to_bits()
        );
        let got = ok_value(&client::round_trip(&mut healthy, "cell 7 3").unwrap());
        assert_eq!(got.to_bits(), engine.cell(7, 3).unwrap().to_bits());
    }

    let (ok, busy) = flooder.join().unwrap();
    assert_eq!(ok + busy, FLOOD);
    assert!(ok > 0, "some flooded cells must still be answered");
    assert!(
        busy > FLOOD / 4,
        "a flood outpacing the batcher must largely bounce: ok={ok} busy={busy}"
    );

    // Refusal is bounded memory: FLOOD pipelined frames moved through the
    // server without its queues (or this process) growing materially.
    if let (Some(before), Some(after)) = (hwm_before, peak_rss_bytes()) {
        assert!(
            after - before < 32 * 1024 * 1024,
            "flood grew peak RSS by {} bytes",
            after - before
        );
    }

    let m = handle.metrics();
    assert_eq!(m.busy, busy as u64, "{m:?}");
    drop(healthy);
    handle.join().unwrap();
}

#[test]
fn shutdown_verb_acknowledges_then_drains() {
    let dir = TestDir::new("ats-serve");
    let x = phone(40, 16, 23);
    let store = saved_store(&dir, &x, 1);
    let handle = start(&store, 1, ServeConfig::default());

    let mut s = connect(&handle);
    let engine = baseline(&store);
    let got = ok_value(&client::round_trip(&mut s, "cell 5 5").unwrap());
    assert_eq!(got.to_bits(), engine.cell(5, 5).unwrap().to_bits());
    let ack = client::round_trip(&mut s, "SHUTDOWN").unwrap();
    assert_eq!(ack, "OK shutting down");
    drop(s);
    let m = handle.join().unwrap();
    assert_eq!(m.queries, 1);
}

#[test]
fn coalesced_range_aggregates_share_one_block_scan() {
    // A time-blocked (v4) store: 4 blocks of 8 columns each.
    let x = phone(80, 32, 77);
    let dir = TestDir::new("ats-serve");
    SequenceStore::builder()
        .budget(SpaceBudget::from_percent(15.0))
        .shards(2)
        .time_blocks(4)
        .build(&x)
        .unwrap()
        .save(dir.file("store"))
        .unwrap();
    let store = Arc::new(TimeBlockedStore::open(dir.file("store"), 256).unwrap());
    assert_eq!(store.blocks().len(), 4);

    // The batcher is held on a cell of block 0 while the five requests
    // below queue: they run as the next batch, together.
    let (held, entered) = Held::new(store.clone(), false, Duration::ZERO);
    let io = Arc::clone(&store);
    let handle = serve(
        QueryEngine::shared(held.clone()).with_threads(1),
        ServeConfig::default(),
        Some(Box::new(move || io.shard_io_snapshots())),
    )
    .unwrap();
    let mut holder = hold(&handle, &entered, 0);

    // Five clients ask the identical range aggregate confined to block 1
    // (columns 10..14 of blocks [0..8, 8..16, 16..24, 24..32]).
    let q = "avg rows all in time [10..14]";
    let mut clients: Vec<TcpStream> = (0..5).map(|_| connect(&handle)).collect();
    for c in &mut clients {
        client::send(c, q).unwrap();
    }
    wait_for_backlog(&handle, 5);
    held.open();
    ok_value(&client::recv(&mut holder).unwrap());
    let replies: Vec<f64> = clients
        .iter_mut()
        .map(|c| ok_value(&client::recv(c).unwrap()))
        .collect();
    for w in replies.windows(2) {
        assert_eq!(w[0].to_bits(), w[1].to_bits());
    }

    // IoStats: the five requests shared ONE scan, and that scan touched
    // only the overlapping block — every other block stayed cold.
    let per_block = store.block_io_snapshots();
    assert_eq!(per_block.len(), 4);
    assert!(per_block[1].physical_reads > 0, "block 1 must have served");
    for (b, snap) in per_block.iter().enumerate() {
        // Block 0's one row is the holding cell's.
        let cold = u64::from(b == 0);
        if b != 1 {
            assert_eq!(snap.physical_reads, cold, "block {b} must stay cold");
            assert_eq!(snap.logical_reads, cold, "block {b} must stay cold");
        }
    }
    let scan_reads = per_block[1].physical_reads;

    handle.begin_shutdown();
    let m = handle.join().unwrap();
    assert_eq!(m.aggregates, 5);
    assert_eq!(m.coalesced_aggs, 5);
    assert_eq!(m.agg_scans, 1, "five identical aggregates, one scan");

    // The answer matches a direct engine ask bitwise, and a second,
    // uncoalesced run of the same scan on a fresh store does the same
    // physical I/O — so sharing saved 4 of the 5 scans' worth.
    let fresh = Arc::new(TimeBlockedStore::open(dir.file("store"), 256).unwrap());
    let engine = QueryEngine::shared(fresh.clone());
    let want = run_query(&engine, q).unwrap();
    assert_eq!(want.to_bits(), replies[0].to_bits());
    assert_eq!(fresh.block_io_snapshots()[1].physical_reads, scan_reads);
}

/// One raw frame: 4-byte big-endian length + payload bytes.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = u32::try_from(payload.len()).unwrap().to_be_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

#[test]
fn pipelined_burst_is_answered_in_order_and_whole() {
    use std::io::Write as _;
    const FRAMES: usize = 2_000;
    const MAX_FRAME: usize = 64;
    let x = phone(60, 20, 5);
    for_each_layout(|layout, synopsis| {
        let dir = TestDir::new("ats-serve");
        SequenceStore::builder()
            .budget(SpaceBudget::from_percent(15.0))
            .shards(layout.shards)
            .time_blocks(layout.time_blocks)
            .build(&x)
            .unwrap()
            .save(dir.file("store"))
            .unwrap();
        let engine = SequenceStore::open(dir.file("store"), 256)
            .unwrap()
            .engine()
            .with_synopsis(synopsis);
        // Deep enough that nothing bounces as `ERR busy`: every reply below
        // is the query's own answer.
        let handle = serve(
            engine.clone(),
            ServeConfig {
                max_frame: MAX_FRAME,
                pending_max: 2 * FRAMES,
                ..ServeConfig::default()
            },
            None,
        )
        .unwrap();

        // The request stream, with what each frame must be answered by.
        let mut wire = Vec::new();
        let mut expect: Vec<String> = Vec::new();
        let ask = |wire: &mut Vec<u8>, expect: &mut Vec<String>, q: &str| {
            wire.extend(frame(q.as_bytes()));
            expect.push(format!("OK {}", run_query(&engine, q).unwrap()));
        };
        for t in 0..FRAMES {
            match t % 97 {
                13 => {
                    wire.extend(frame(b"PING"));
                    expect.push("OK pong".to_string());
                }
                29 => ask(&mut wire, &mut expect, "sum rows 5..25 cols 2..9"),
                41 => ask(&mut wire, &mut expect, "count rows all where value > 1"),
                53 => {
                    wire.extend(frame(format!("cell 60 {}", t % 20).as_bytes()));
                    expect.push("ERR row index 60 out of bounds".to_string());
                }
                67 => {
                    wire.extend(frame(&[0xff, 0xfe, b'x']));
                    expect.push("ERR request payload is not valid UTF-8".to_string());
                }
                83 => {
                    wire.extend(frame(&[b'y'; MAX_FRAME + 9]));
                    expect.push(format!("ERR frame of {} bytes exceeds", MAX_FRAME + 9));
                }
                _ => ask(
                    &mut wire,
                    &mut expect,
                    &format!("cell {} {}", (t * 7) % 60, (t * 3) % 20),
                ),
            }
        }

        // A handful of writes, cut at arbitrary byte offsets — inside headers
        // and payloads alike — then every reply, in request order.
        let mut s = connect(&handle);
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        for chunk in wire.chunks(wire.len() / 5 + 1) {
            s.write_all(chunk).unwrap();
        }
        for (t, want) in expect.iter().enumerate() {
            let got = client::recv(&mut s).unwrap();
            if want.starts_with("ERR ") {
                assert!(
                    got.starts_with(want.as_str()),
                    "frame {t}: {got:?} vs {want:?}"
                );
            } else {
                assert_eq!(&got, want, "frame {t}");
            }
        }
        assert_eq!(client::round_trip(&mut s, "PING").unwrap(), "OK pong");
        drop(s);
        let m = handle.join().unwrap();
        assert_eq!(m.busy, 0, "{m:?}");
    });
}

#[test]
fn depth_one_client_never_waits_for_a_buffered_reply() {
    // One request in flight, cells (resolved by the batcher) alternating
    // with PINGs (resolved by the reader): a writer that kept a resolved
    // reply in its buffer while it slept on the next one would leave
    // this client waiting for ever — the read timeout turns that red.
    let dir = TestDir::new("ats-serve");
    let x = phone(40, 16, 19);
    let store = saved_store(&dir, &x, 1);
    let handle = start(&store, 1, ServeConfig::default());
    let engine = baseline(&store);
    let mut s = connect(&handle);
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    for t in 0..200usize {
        let (i, j) = (t % 40, t % 16);
        let got = ok_value(&client::round_trip(&mut s, &format!("cell {i} {j}")).unwrap());
        assert_eq!(got.to_bits(), engine.cell(i, j).unwrap().to_bits());
        assert_eq!(client::round_trip(&mut s, "PING").unwrap(), "OK pong");
    }
    drop(s);
    handle.join().unwrap();
}

#[test]
fn peer_that_never_reads_stalls_alone() {
    use std::io::Write as _;
    let dir = TestDir::new("ats-serve");
    let x = phone(120, 24, 43);
    let store = saved_store(&dir, &x, 2);
    let handle = start(&store, 1, ServeConfig::default());
    let hwm_before = peak_rss_bytes();

    // Write cell frames until the socket takes no more: the daemon's
    // writer is blocked on our full receive buffer, its reader has
    // stopped dispatching, and the kernel's window has pushed back.
    let mut stalled = connect(&handle);
    stalled
        .set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let burst: Vec<u8> = (0..512).flat_map(|_| frame(b"cell 1 1")).collect();
    let mut sent = 0usize;
    while stalled.write_all(&burst).is_ok() {
        sent += burst.len();
        assert!(sent < 1 << 30, "the daemon never pushed back");
    }

    // Everyone else is served as if the stalled peer were not there.
    let engine = baseline(&store);
    let mut healthy = connect(&handle);
    healthy
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for t in 0..50usize {
        let (i, j) = (t % 120, t % 24);
        let got = ok_value(&client::round_trip(&mut healthy, &format!("cell {i} {j}")).unwrap());
        assert_eq!(got.to_bits(), engine.cell(i, j).unwrap().to_bits());
    }
    if let (Some(before), Some(after)) = (hwm_before, peak_rss_bytes()) {
        assert!(
            after - before < 32 * 1024 * 1024,
            "a stalled peer grew peak RSS by {} bytes",
            after - before
        );
    }

    // The peer goes away (a socket error for its writer, which keeps
    // draining) and the daemon still shuts down.
    drop(stalled);
    drop(healthy);
    handle.join().unwrap();
}
