//! Per-layer probes: timed calls into each crate's public functions, on
//! inputs taken from the run's own dataset and saved store, and counts read
//! from the library's counters. They are measured from outside; spans inside
//! the library are a later change.
//!
//! Every probe reads the same three things whatever the workload — the
//! dataset file, the saved store directory and the freshly built in-memory
//! store — and opens its own store handles, so a probe reads the same on
//! every workload's traced run.

use crate::fixture::{
    builder, store_bytes, touch_every_u_row, Cx, QueryFixture, BUDGET_PERCENT, DEFAULT_POOL_PAGES,
    SHARDS, THREADS, TIME_BLOCKS,
};
use crate::rng::Rng;
use crate::workloads::point::batch_stream;
use crate::workloads::scan::{where_text, RARE_SHARE};
use crate::workloads::serve::Session;
use crate::workloads::Note;
use ats_common::Result;
use ats_compress::gram::compute_gram_parallel;
use ats_compress::{CompressedMatrix, SpaceBudget, SvddCompressed, SvddOptions};
use ats_core::shard::append_rows;
use ats_core::store::SequenceStore;
use ats_core::timeblock::{append_time_block, TimeBlockedStore};
use ats_linalg::kernels::{fuse_coefficients, reconstruct_cells, reconstruct_rows};
use ats_linalg::{sym_eigen, vecops, Matrix, VPanel};
use ats_query::metrics::error_report;
use ats_query::selection::Axis;
use ats_query::{parse_query, AggregateFn, BatchRequest, Query, QueryEngine, Selection};
use ats_storage::file::{read_matrix, write_source};
use ats_storage::store_dir::{validate_timeblocked_store_dir, TimeBlockedManifest};
use ats_storage::{CachedFile, ColumnSlice, MatrixFile, MemSource, RowSource, ShardSynopsis};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Metrics = Vec<(String, f64)>;

/// Times the probes' calls; repetition counts are divided by `0` (the smoke
/// size's divisor), never below one.
#[derive(Clone, Copy)]
struct Timer(usize);

impl Timer {
    fn scaled(self, count: usize) -> usize {
        (count / self.0).max(1)
    }

    /// Median wall time of one call, in seconds, over `reps` calls.
    fn secs<R>(self, reps: usize, mut f: impl FnMut() -> Result<R>) -> Result<f64> {
        let reps = self.scaled(reps);
        let mut t = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            black_box(f()?);
            t.push(t0.elapsed().as_secs_f64());
        }
        Ok(crate::stats::median(&t))
    }

    /// Median nanoseconds per call of a cheap operation: five rounds of
    /// `iters` calls each, `f` taking the call's index.
    fn ns<R>(self, iters: usize, mut f: impl FnMut(usize) -> R) -> f64 {
        let iters = self.scaled(iters);
        let rounds: Vec<f64> = (0..self.scaled(5))
            .map(|_| {
                let t0 = Instant::now();
                for i in 0..iters {
                    black_box(f(i));
                }
                t0.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        crate::stats::median(&rounds)
    }
}

/// `V`, `Λ` and the first shard's `U` of one decomposition on disk.
struct Factors {
    v: Matrix,
    lambda: Vec<f64>,
    u: Matrix,
    u_path: PathBuf,
}

fn factors(block_dir: &Path) -> Result<Factors> {
    let u_path = block_dir.join("shard-0000").join("u.atsm");
    Ok(Factors {
        v: read_matrix(block_dir.join("v.atsm"))?,
        lambda: read_matrix(block_dir.join("lambda.atsm"))?.row(0).to_vec(),
        u: read_matrix(&u_path)?,
        u_path,
    })
}

/// The first `rows` rows of `data`, in memory.
fn head(data: &MatrixFile, rows: usize) -> Result<MemSource> {
    let mut flat = Vec::with_capacity(rows * data.cols());
    data.scan_range(0, rows, &mut |_, row| {
        flat.extend_from_slice(row);
        Ok(())
    })?;
    MemSource::new(rows, data.cols(), flat)
}

pub fn run(cx: &Cx, fx: &QueryFixture, m: &mut Metrics, notes: &mut Vec<Note>) -> Result<()> {
    let t = Timer(cx.sizes.probe_divisor);
    let dir = cx.scratch.join("probes");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let budget = SpaceBudget::from_percent(BUDGET_PERCENT);
    let (n, mcols) = (fx.rows(), fx.cols());
    let cells_total = (n * mcols) as f64;
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v));

    // --- the monolithic decomposition of the build workload's size ---------
    let small = head(&fx.data, cx.sizes.build_rows.min(n))?;
    let mono_build = |shards: usize, threads: usize| {
        t.secs(1, || {
            builder()
                .shards(shards)
                .time_blocks(1)
                .threads(threads)
                .build(&small)
        })
    };
    let mono_t1 = mono_build(1, 1)?;
    put(
        "core.threads2_over_threads1_mono_build",
        mono_build(1, 2)? / mono_t1,
    );
    put("core.sharded4_over_mono_build", mono_build(4, 1)? / mono_t1);
    let mono = builder()
        .shards(1)
        .time_blocks(1)
        .threads(1)
        .build(&small)?;
    let mono_dir = dir.join("mono");
    mono.save(&mono_dir)?;
    let mono_report = mono.error_report(&small)?;
    put("core.rmspe_mono_pct", mono_report.rmspe * 100.0);
    put("core.worst_abs_mono", mono_report.max_abs_error);
    let tenth = head(&fx.data, (small.rows() / 10).max(1))?;
    let t0 = Instant::now();
    append_rows(&mono_dir, &tenth, 1, None)?;
    put("core.append_rows_ms", t0.elapsed().as_secs_f64() * 1e3);

    // --- ats-linalg --------------------------------------------------------
    let manifest = TimeBlockedManifest::read(&fx.store_dir)?;
    let block = factors(&manifest.block_dir(&fx.store_dir, 0))?;
    let whole = factors(&mono_dir)?;
    for (name, f) in [
        ("linalg.reconstruct_rows_block_ns_per_cell", &block),
        ("linalg.reconstruct_rows_mono_ns_per_cell", &whole),
    ] {
        let k = f.lambda.len();
        let panel = VPanel::from_v(&f.v);
        let u_rows: Vec<f64> = (0..8).flat_map(|i| f.u.row(i).to_vec()).collect();
        let mut out = vec![0.0; 8 * panel.cols()];
        assert_eq!(u_rows.len(), 8 * k);
        let ns = t.ns(2_000, |_| {
            reconstruct_rows(black_box(&u_rows), &f.lambda, &panel, &mut out)
        });
        put(name, ns / out.len() as f64);
    }
    {
        let k = block.lambda.len();
        let mut coef = vec![0.0; k];
        let width = block.v.rows();
        let mut rng = Rng::new(cx.seed, 0x11A6);
        let cols: Vec<usize> = (0..8).map(|_| rng.below(width)).collect();
        let mut out = [0.0; 8];
        for (name, take) in [
            ("linalg.reconstruct_cells_1col_ns_per_cell", 1),
            ("linalg.reconstruct_cells_8col_ns_per_cell", 8),
        ] {
            let ns = t.ns(20_000, |i| {
                fuse_coefficients(&block.lambda, block.u.row(i % block.u.rows()), &mut coef);
                reconstruct_cells(&coef, &block.v, &cols[..take], &mut out[..take])
            });
            put(name, ns / take as f64);
        }
    }
    let len = 4096;
    let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin()).collect();
    let lanes: Vec<Vec<f64>> = (0..8)
        .map(|l| {
            (0..len)
                .map(|i| ((i + l * 17) as f64 * 0.21).cos())
                .collect()
        })
        .collect();
    let refs: [&[f64]; 8] = std::array::from_fn(|l| lanes[l].as_slice());
    let dot8_ns = t.ns(2_000, |_| vecops::dot8(black_box(&a), refs));
    let dot8_melem = (8 * len) as f64 / dot8_ns * 1e3;
    put("linalg.dot8_melem_per_s", dot8_melem);
    let mut ys = vec![vec![0.0; len]; 8];
    let alpha: [f64; 8] = std::array::from_fn(|l| 0.5 + l as f64 * 0.125);
    let axpy8_ns = t.ns(2_000, |_| {
        let mut it = ys.iter_mut();
        let mut out: [&mut [f64]; 8] =
            std::array::from_fn(|_| it.next().map(Vec::as_mut_slice).expect("8 lanes"));
        vecops::axpy8(alpha, black_box(&a), &mut out);
    });
    put(
        "linalg.axpy8_melem_per_s",
        (8 * len) as f64 / axpy8_ns * 1e3,
    );

    // --- ats-compress ------------------------------------------------------
    let mut gram = None;
    let gram_s = t.secs(3, || {
        gram = Some(compute_gram_parallel(&fx.data, THREADS)?);
        Ok(())
    })?;
    put("compress.gram_ms", gram_s * 1e3);
    // Model: N·M² multiply-adds at the rate the dot8 kernel sustains.
    let model_s = cells_total * mcols as f64 / (dot8_melem * 1e6);
    put("compress.gram_time_over_model", gram_s / model_s);
    let gram = gram.expect("timed at least once");
    put("linalg.sym_eigen_ms", t.secs(3, || sym_eigen(&gram))? * 1e3);
    let mut svdd = None;
    let svdd_s = t.secs(1, || {
        svdd = Some(SvddCompressed::compress(&small, &SvddOptions::new(budget))?);
        Ok(())
    })?;
    let svdd = svdd.expect("timed once");
    put("compress.svdd_compress_ms", svdd_s * 1e3);
    put("compress.k_opt", svdd.k_opt() as f64);
    put("compress.deltas", svdd.num_deltas() as f64);
    {
        let mut rng = Rng::new(cx.seed, 0xDE17A);
        let hits: Vec<(usize, usize)> = svdd
            .deltas()
            .iter()
            .take(4096)
            .map(|(i, j, _)| (i, j))
            .collect();
        let misses: Vec<(usize, usize)> =
            std::iter::repeat_with(|| (rng.below(small.rows()), rng.below(mcols)))
                .filter(|&(i, j)| svdd.deltas().probe(i, j).is_none())
                .take(4096)
                .collect();
        let any: Vec<(usize, usize)> = (0..4096)
            .map(|_| (rng.below(small.rows()), rng.below(mcols)))
            .collect();
        let probe = |set: &[(usize, usize)]| {
            t.ns(50_000, |t| {
                let (i, j) = set[t % set.len()];
                svdd.deltas().probe(i, j)
            })
        };
        // A store too small to afford a delta has no hit to probe.
        put(
            "compress.delta_probe_hit_ns",
            if hits.is_empty() { 0.0 } else { probe(&hits) },
        );
        put("compress.delta_probe_miss_ns", probe(&misses));
        put(
            "compress.mem_cell_ns",
            t.ns(50_000, |t| {
                let (i, j) = any[t % any.len()];
                svdd.cell(i, j)
            }),
        );
    }

    // --- ats-storage -------------------------------------------------------
    {
        let u = Arc::new(MatrixFile::open(&block.u_path)?);
        let rows = u.rows();
        let mut row = vec![0.0; u.cols()];
        let resident = CachedFile::row_aligned(u.clone(), rows);
        for i in 0..rows {
            resident.read_row_into(i, &mut row)?;
        }
        put(
            "storage.read_row_hit_ns",
            t.ns(50_000, |t| resident.read_row_into(t * 7 % rows, &mut row)),
        );
        let one_page = CachedFile::row_aligned(u, 1);
        put(
            "storage.read_row_miss_ns",
            t.ns(20_000, |t| one_page.read_row_into(t * 7 % rows, &mut row)),
        );
    }
    let validate_s = t.secs(5, || validate_timeblocked_store_dir(&fx.store_dir))?;
    put("storage.validate_ms", validate_s * 1e3);
    let synopsis = std::fs::read(
        manifest
            .block_dir(&fx.store_dir, 0)
            .join("shard-0000")
            .join(ats_storage::SYNOPSIS_FILE),
    )?;
    put(
        "storage.synopsis_decode_us",
        t.secs(9, || ShardSynopsis::decode(&synopsis))? * 1e6,
    );
    let data_mb = std::fs::metadata(&fx.data_path)?.len() as f64 / 1e6;
    let scan_s = t.secs(3, || {
        fx.data.scan_range(0, n, &mut |_, row| {
            black_box(row);
            Ok(())
        })
    })?;
    put("storage.scan_range_mb_per_s", data_mb / scan_s);
    let copy = dir.join("copy.atsm");
    put(
        "storage.write_source_mb_per_s",
        data_mb / t.secs(3, || write_source(&copy, &fx.data))?,
    );
    std::fs::remove_file(&copy)?;
    let bytes = store_bytes(&fx.store_dir)?;
    put("storage.store_bytes", bytes.total as f64);
    put("storage.u_bytes", bytes.u as f64);
    put("storage.delta_bytes", bytes.deltas as f64);
    put("storage.synopsis_bytes", bytes.synopsis as f64);

    // --- ats-query ---------------------------------------------------------
    // One pass over the served values for both `where` thresholds.
    let thresholds = fx.served_quantiles(&[1.0 - RARE_SHARE, 0.0])?;
    let rare = thresholds[0];
    let rare_text = where_text("sum", rare);
    let all_text = where_text("sum", thresholds[1] - 1.0);
    for (name, text) in [
        ("query.parse_cell_ns", "cell 4242 117"),
        ("query.parse_agg_ns", "avg rows all in time [183..228]"),
        ("query.parse_where_ns", rare_text.as_str()),
    ] {
        put(name, t.ns(20_000, |_| parse_query(black_box(text))));
    }
    let stream = batch_stream(n, mcols, cx.seed, 64);
    let stream_cells = (stream.len() * stream[0].len()) as f64;
    let batch_ns_per_cell = |engine: &QueryEngine<'_>| -> Result<(f64, f64)> {
        let mut distinct = 0usize;
        let s = t.secs(5, || {
            distinct = 0;
            for cells in &stream {
                distinct += engine
                    .batch_cells(&BatchRequest::new(cells.clone()))?
                    .distinct_rows();
            }
            Ok(())
        })?;
        Ok((s * 1e9 / stream_cells, distinct as f64 / stream_cells))
    };
    let mem_engine = QueryEngine::new(fx.mem.compressed()).with_threads(THREADS);
    let (mem_batch, distinct_ratio) = batch_ns_per_cell(&mem_engine)?;
    put("query.mem_batch_ns_per_cell", mem_batch);
    put("query.batch_distinct_row_ratio", distinct_ratio);
    let everything = Selection::all();
    put(
        "query.mem_aggregate_ns_per_cell",
        t.secs(3, || mem_engine.aggregate(&everything, AggregateFn::Avg))? * 1e9 / cells_total,
    );

    let open = |pool: usize| -> Result<Arc<TimeBlockedStore>> {
        Ok(Arc::new(TimeBlockedStore::open(&fx.store_dir, pool)?))
    };
    let cold = open(DEFAULT_POOL_PAGES)?;
    let cold_engine = QueryEngine::shared(cold.clone()).with_threads(THREADS);
    let full_s = t.secs(5, || cold_engine.aggregate(&everything, AggregateFn::Avg))?;
    let one_thread = cold_engine.clone().with_threads(1);
    put(
        "query.threads2_over_threads1_full",
        full_s / t.secs(5, || one_thread.aggregate(&everything, AggregateFn::Avg))?,
    );
    // An eighth of the time axis, away from block edges: [183..228] of 366.
    let range = Selection::time_range(Axis::All, mcols / 2, mcols / 2 + mcols / 8);
    let range_s = t.secs(9, || cold_engine.aggregate(&range, AggregateFn::Avg))?;
    put("query.range_ms", range_s * 1e3);
    put("core.range_over_full", range_s / full_s);
    {
        let fresh = open(DEFAULT_POOL_PAGES)?;
        QueryEngine::shared(fresh.clone())
            .with_threads(THREADS)
            .aggregate(&range, AggregateFn::Avg)?;
        let touched = fresh
            .block_io_snapshots()
            .iter()
            .filter(|s| s.logical_reads > 0)
            .count();
        put("core.range_blocks_touched", touched as f64);
    }
    let served = cold_engine.aggregate(&everything, AggregateFn::Avg)?;
    let mut sum = 0.0;
    fx.data.scan_range(0, n, &mut |_, row| {
        sum += row.iter().sum::<f64>();
        Ok(())
    })?;
    let exact = sum / cells_total;
    put("core.q_err_full_avg", (served - exact).abs() / exact.abs());
    put(
        "core.worst_abs_blocked",
        error_report(&fx.data, cold.as_ref())?.max_abs_error,
    );

    for (pages_name, ratio_name, text) in [
        (
            "query.where_pages_rare",
            "query.where_pruned_over_exact_rare",
            &rare_text,
        ),
        (
            "query.where_pages_all",
            "query.where_pruned_over_exact_all",
            &all_text,
        ),
    ] {
        let Query::AggregateWhere(f, sel, pred) = parse_query(text)? else {
            unreachable!("where_text builds `where` queries");
        };
        // Physical U reads of one scan on a cold pool ...
        let pages = |synopsis: bool| -> Result<f64> {
            let fresh = open(DEFAULT_POOL_PAGES)?;
            QueryEngine::shared(fresh.clone())
                .with_threads(THREADS)
                .with_synopsis(synopsis)
                .aggregate_where(&sel, f, &pred)?;
            Ok(fresh.io_snapshot().physical_reads as f64)
        };
        put(pages_name, pages(true)?);
        if pages_name == "query.where_pages_rare" {
            put("query.where_pages_exact", pages(false)?);
        }
        // ... and wall time with pruning on over pruning off.
        let exact_engine = cold_engine.clone().with_synopsis(false);
        let pruned_s = t.secs(5, || cold_engine.aggregate_where(&sel, f, &pred))?;
        let exact_s = t.secs(5, || exact_engine.aggregate_where(&sel, f, &pred))?;
        put(ratio_name, pruned_s / exact_s);
    }

    // --- ats-core ----------------------------------------------------------
    let hot = open(QueryFixture::resident_pool_pages(&cx.sizes))?;
    touch_every_u_row(&hot)?;
    let flat: Vec<(usize, usize)> = stream.iter().flatten().copied().collect();
    for (name, store) in [
        ("core.single_cell_hot_ns", &hot),
        ("core.single_cell_cold_ns", &cold),
    ] {
        put(
            name,
            t.ns(flat.len(), |t| {
                let (i, j) = flat[t];
                store.cell(i, j)
            }),
        );
    }
    let (hot_batch, _) = batch_ns_per_cell(&QueryEngine::shared(hot).with_threads(THREADS))?;
    put("core.disk_hot_over_mem_batch", hot_batch / mem_batch);
    let open_s = t.secs(9, || SequenceStore::open(&fx.store_dir, DEFAULT_POOL_PAGES))?;
    put("core.open_ms", open_s * 1e3);
    put("core.open_validate_share", validate_s / open_s);
    let mut rebuilt = None;
    let build_s = t.secs(1, || {
        rebuilt = Some(
            builder()
                .shards(SHARDS)
                .time_blocks(TIME_BLOCKS)
                .threads(THREADS)
                .build(&fx.data)?,
        );
        Ok(())
    })?;
    put("core.build_blocked_ms", build_s * 1e3);
    let blocked_dir = dir.join("blocked");
    let rebuilt = rebuilt.expect("timed once");
    put(
        "core.save_ms",
        t.secs(1, || rebuilt.save(&blocked_dir))? * 1e3,
    );
    // A new time block as wide as the others, taken from the first columns.
    let width = mcols / TIME_BLOCKS;
    let batch = ColumnSlice::new(&fx.data, 0, width)?;
    let t0 = Instant::now();
    append_time_block(&blocked_dir, &batch, budget, THREADS)?;
    put("core.append_time_ms", t0.elapsed().as_secs_f64() * 1e3);

    // --- ats_query::serve --------------------------------------------------
    let mut session = Session::start(open(DEFAULT_POOL_PAGES)?, cx.seed, rare)?;
    let outcome = session.measure(Duration::from_secs_f64(cx.sizes.probe_serve_seconds), true)?;
    let s = session.stats();
    session.stop()?;
    let both =
        |f: fn(&ats_query::MetricsSnapshot) -> u64| (f(&s.interactive) + f(&s.saturated)) as f64;
    put("serve.batches", both(|m| m.batches));
    put(
        "serve.cells_per_batch_interactive",
        s.interactive.coalesced_cells as f64 / s.interactive.batches.max(1) as f64,
    );
    put(
        "serve.cells_per_batch_saturated",
        s.saturated.coalesced_cells as f64 / s.saturated.batches.max(1) as f64,
    );
    put("serve.agg_scans", both(|m| m.agg_scans));
    put(
        "serve.aggs_per_scan",
        both(|m| m.coalesced_aggs) / both(|m| m.agg_scans).max(1.0),
    );
    put("serve.busy", both(|m| m.busy));
    put("serve.errors", both(|m| m.errors) + outcome.failed as f64);
    put(
        "serve.server_mean_latency_us",
        both(|m| m.latency_usec) / (both(|m| m.queries) + both(|m| m.errors)).max(1.0),
    );
    put("serve.ping_rtt_us", s.ping_rtt_us);
    put(
        "serve.admission_wait_share",
        1.0 - s.sampled_direct_ns as f64 / s.sampled_latency_ns.max(1) as f64,
    );
    put(
        "serve.cpu_us_per_req",
        s.saturated_cpu_us as f64 / s.saturated_requests.max(1) as f64,
    );
    put(
        "serve.over_5ms_ratio",
        s.over_limit as f64 / s.interactive_requests.max(1) as f64,
    );

    // --- the CLI, when it was built into the same target directory ----------
    let ats = std::env::current_exe()?.with_file_name("ats");
    if ats.is_file() {
        let ms = t.secs(30, || {
            let out = std::process::Command::new(&ats)
                .arg("query")
                .arg(&fx.store_dir)
                .arg("cell 42 17")
                .output()?;
            if out.status.success() {
                Ok(())
            } else {
                Err(ats_common::AtsError::internal("`ats query` failed"))
            }
        })? * 1e3;
        notes.push(("cli.query_cell_ms".into(), format!("{ms} ms")));
    } else {
        notes.push((
            "cli.query_cell_ms".into(),
            format!("skipped: no `ats` binary at {}", ats.display()),
        ));
    }
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
