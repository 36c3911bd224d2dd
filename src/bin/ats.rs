//! `ats` — command-line front end for adhoc-ts.
//!
//! ```text
//! ats generate phone --rows 2000 --cols 366 --out data.atsm
//! ats generate stocks --out stocks.atsm
//! ats info data.atsm                  # matrix file header
//! ats info store/                     # full integrity check + summary
//! ats save data.atsm --out store/ --percent 10 [--method svdd] [--threads 4]
//! ats save data.atsm --out store/ --shards 4 --time-blocks 8
//! ats append store/ more-rows.atsm    # new rows land in a fresh shard
//! ats append store/ more-days.atsm --time  # new time points, a fresh block
//! ats query store/ "cell 42 17"
//! ats query store/ "avg rows 0..100 cols all"
//! ats query store/ --batch-file cells.txt
//! ats query store/ --batch-file cells.txt --threads 4
//! ats verify data.atsm store/         # RMSPE / worst-case report
//! ```
//!
//! The store directory is the paper's §4.1 layout scaled out to
//! row-range shards (format v3, one time block) and time blocks (format
//! v4, a block table over nested v3 stores): each block's
//! `v.atsm`/`lambda.atsm` pinned, and each shard's `u.atsm` paged from
//! disk, from first touch on. Legacy v2 directories are never written,
//! and open as a single block with a single shard.
//!
//! Exit codes: 0 on success, 1 on a runtime failure (I/O, corrupt store,
//! failed compression), 2 on a usage error (unknown subcommand or flag,
//! missing argument, malformed flag value).

use adhoc_ts::compress::delta::DELTA_BYTES;
use adhoc_ts::compress::method::svd_bytes;
use adhoc_ts::compress::SpaceBudget;
use adhoc_ts::core::shard::append_rows;
use adhoc_ts::core::store::{method_by_name, SequenceStore};
use adhoc_ts::core::timeblock::{
    append_time_block, retrain_flags, TimeBlockedStore, RETRAIN_SSE_FACTOR,
};
use adhoc_ts::data::{
    generate_phone, generate_stocks, PhoneConfig, StocksConfig, StreamingPhone, StreamingStocks,
};
use adhoc_ts::query::engine::QueryEngine;
use adhoc_ts::query::metrics::error_report;
use adhoc_ts::query::parse::{parse_batch_file, run_query};
use adhoc_ts::query::serve::{serve, ServeConfig};
use adhoc_ts::storage::file::write_source;
use adhoc_ts::storage::store_dir::{
    validate_timeblocked_store_dir, Component, ShardedManifest, TimeBlockedManifest,
};
use adhoc_ts::storage::MatrixFile;
use adhoc_ts::storage::RowSource;
use adhoc_ts::storage::ShardSynopsis;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
ats — ad hoc queries over compressed time sequences (SIGMOD '97 SVDD)

USAGE:
  ats generate <phone|stocks> [--rows N] [--cols M] [--seed S] --out FILE
                                 rows stream straight to FILE in O(cols)
                                 memory, so N can exceed RAM (the 10M-row
                                 scale ladder); --summary materializes the
                                 dataset in memory first and prints cell
                                 statistics (mean/std dev) — small N only
  ats info <FILE|DIR>            matrix-file header, or the full
                                 integrity check of a store directory of
                                 any format (every manifest and every
                                 component file is checksummed, as
                                 `serve` does at start) and its summary,
                                 without paging any U data: format
                                 version, method, N x M, deltas, bloom,
                                 time blocks, row shards per block and
                                 compressed MB; per time block its
                                 column range, k, deltas, shards,
                                 reconstruction SSE and a RETRAIN flag
                                 on blocks whose per-cell SSE exceeds
                                 the threshold; per shard its row range,
                                 deltas, append SSE and zone-map
                                 synopsis (tiles, bytes, avg bound width
                                 vs the store's value spread — `synopsis
                                 none` on legacy stores)
  ats save FILE --out DIR [--percent P] [--method svd|svdd] [--threads T]
                                 build a SequenceStore and persist it
                                 crash-safely (format v3 for one time
                                 block);
                                 --shards R splits the build and the
                                 store into R row-range shards (results
                                 are bit-identical for any R);
                                 --time-blocks B partitions the *time*
                                 axis into B column blocks, each with its
                                 own decomposition (format v4) so range
                                 queries read only overlapping blocks;
                                 --no-bloom to drop the delta Bloom
                                 filter
  ats save --generate <phone|stocks> [--rows N] [--cols M] [--seed S] --out DIR
                                 build straight from the streaming
                                 generator — no intermediate .atsm file,
                                 O(cols) memory per pass; bit-identical
                                 to generating the file and saving it
  ats append DIR FILE            append FILE's rows to a single-time-block
                                 store: they land in a fresh shard under
                                 the frozen factors, with the batch's
                                 reconstruction SSE recorded
  ats append DIR FILE --time [--percent P]
                                 append FILE's *columns* as new time
                                 points to a time-blocked (v4) store:
                                 they become a fresh block with its own
                                 decomposition (never a projection under
                                 a frozen V), published atomically
  ats query DIR \"<query>\"       e.g. \"cell 42 17\", \"avg rows 0..100 cols all\",
                                 \"sum rows all in time [30..90]\" — a
                                 query checksums the manifests and then
                                 only the component files it reads (a
                                 cell: one block's factors, one shard's
                                 U and deltas), failing if one of those
                                 is damaged; a
                                 time-range aggregate reads only the
                                 blocks overlapping [t1..t2); a `where`
                                 clause (\"count rows all where value >
                                 450\", \"avg rows 0..100 where value <=
                                 1.5 in time [30..90]\") filters cells by
                                 their reconstructed value, pruning
                                 whole tiles through the store's
                                 zone-map synopses before touching U
  ats query DIR --batch-file F [--threads T]
                                 answer a file of cell queries (`cell i j`
                                 or bare `i j`, one per line, `#` comments)
                                 in one batched pass: results print one per
                                 line in input order; each distinct row's
                                 U vector is fetched exactly once per shard
  ats serve DIR [--addr A] [--threads T] [--pool-pages N]
                [--max-frame F] [--pending-max P]
                                 long-lived TCP query daemon over one
                                 shared store/page pool: length-prefixed
                                 frames carrying query lines (plus PING,
                                 STATS, SHUTDOWN verbs); cell queries
                                 that are queued together coalesce into
                                 one batched run: the batch is whatever
                                 arrived while the previous one executed,
                                 with no timer. Each connection may keep P
                                 cell queries waiting in the batcher
                                 (default 64); past that depth it gets
                                 `ERR busy` replies. --addr defaults to
                                 127.0.0.1:7878 (port 0 picks a free
                                 port). Shuts down on the SHUTDOWN verb
                                 or stdin EOF / a `quit` line, draining
                                 in-flight batches first
  ats verify FILE DIR            compare a store against the original data
  ats help                       print this message
";

/// The one-line usage hint printed with every usage error (exit code 2).
const USAGE_LINE: &str =
    "usage: ats <generate|info|save|append|query|serve|verify|help> — run `ats help` for details";

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["no-bloom", "summary", "time"];

/// A CLI failure, split by whose fault it is: bad invocation (exit 2)
/// versus a runtime error in a well-formed command (exit 1).
enum CliError {
    Usage(String),
    Runtime(String),
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn rt(e: impl std::fmt::Display) -> CliError {
    CliError::Runtime(e.to_string())
}

/// Split args into positionals and `--flag value` pairs. A value-taking
/// flag with nothing after it is a usage error, not an empty default.
fn parse_flags(args: &[String]) -> Result<(Vec<String>, HashMap<String, String>), CliError> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = if BOOL_FLAGS.contains(&name) {
                String::new()
            } else {
                it.next()
                    .cloned()
                    .ok_or_else(|| usage(format!("--{name} expects a value")))?
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(usage(format!("--{name} given more than once")));
            }
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, flags))
}

/// Reject any flag the subcommand does not define.
fn check_flags(
    cmd: &str,
    flags: &HashMap<String, String>,
    allowed: &[&str],
) -> Result<(), CliError> {
    for k in flags.keys() {
        if !allowed.contains(&k.as_str()) {
            return Err(usage(format!("unknown flag --{k} for `ats {cmd}`")));
        }
    }
    Ok(())
}

/// `--key`'s value as a number, or `default` when the flag is absent.
fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, CliError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| usage(format!("--{key} expects a number, got {v:?}"))),
    }
}

/// The streaming generator `kind` sized by `--rows`, `--cols` and
/// `--seed`, with the name `generate` reports it by.
fn generator(
    kind: &str,
    flags: &HashMap<String, String>,
) -> Result<(String, Box<dyn RowSource>), CliError> {
    let seed = flag(flags, "seed", 42)?;
    match kind {
        "phone" => {
            let cfg = PhoneConfig {
                customers: flag(flags, "rows", 2_000)?,
                days: flag(flags, "cols", 366)?,
                seed,
                ..PhoneConfig::default()
            };
            let name = format!("phone{}", cfg.customers);
            Ok((name, Box::new(StreamingPhone::new(cfg))))
        }
        "stocks" => {
            let cfg = StocksConfig {
                stocks: flag(flags, "rows", 381)?,
                days: flag(flags, "cols", 128)?,
                seed,
                ..StocksConfig::default()
            };
            Ok(("stocks".to_string(), Box::new(StreamingStocks::new(cfg))))
        }
        other => Err(usage(format!("unknown generator {other:?}"))),
    }
}

/// Facts about one shard's zone-map synopsis for the `ats info` table,
/// read from `synopsis.bin` alone — `info` never serves a U page.
struct SynopsisInfo {
    tiles: usize,
    bytes: usize,
    /// Sum of per-tile `max - min` over tiles with finite bounds, and
    /// how many such tiles there are (NaN-poisoned tiles are skipped).
    width_sum: f64,
    bounded: usize,
    /// Extremes over the same tiles, pooled into the store-wide spread.
    lo: f64,
    hi: f64,
}

/// Shard `s`'s synopsis in the block at `bdir`, read and checked
/// through the block's manifest.
fn read_synopsis(block: &ShardedManifest, bdir: &Path, s: usize) -> Result<SynopsisInfo, CliError> {
    let bytes = block
        .read_component(bdir, Component::Synopsis(s))
        .map_err(rt)?;
    let syn = ShardSynopsis::decode(&bytes).map_err(rt)?;
    let mut info = SynopsisInfo {
        tiles: syn.tiles().len(),
        bytes: syn.storage_bytes(),
        width_sum: 0.0,
        bounded: 0,
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
    };
    for t in syn.tiles() {
        if t.min.is_nan() || t.max.is_nan() {
            continue;
        }
        info.width_sum += t.max - t.min;
        info.bounded += 1;
        info.lo = info.lo.min(t.min);
        info.hi = info.hi.max(t.max);
    }
    Ok(info)
}

/// Render one `synopsis …` cell: tile count, footprint, and the mean
/// tile bound width as a fraction of the store-wide value spread — the
/// number that says how often predicate pruning can prove a tile in or
/// out without reconstructing it. Legacy shards print `synopsis none`.
fn synopsis_cell(info: Option<&SynopsisInfo>, spread: f64) -> String {
    let Some(s) = info else {
        return "synopsis none".to_string();
    };
    let avg = if s.bounded > 0 {
        s.width_sum / s.bounded as f64
    } else {
        f64::NAN
    };
    if spread > 0.0 && avg.is_finite() {
        format!(
            "synopsis {} tiles, {} B, avg bound width {:.3} ({:.1}% of store spread)",
            s.tiles,
            s.bytes,
            avg,
            100.0 * avg / spread
        )
    } else {
        format!(
            "synopsis {} tiles, {} B, avg bound width {avg:.3}",
            s.tiles, s.bytes
        )
    }
}

/// Per-block, per-shard synopsis facts (`None` for legacy shards).
type SynopsisGrid = Vec<Vec<Option<SynopsisInfo>>>;

/// Read every shard's synopsis across all blocks up front: the
/// bound-width column is reported relative to the *store-wide* value
/// spread, which needs every tile before any line prints. Returns the
/// per-block, per-shard facts plus that spread.
fn collect_synopses(
    base: &Path,
    top: &TimeBlockedManifest,
    nested: &[ShardedManifest],
) -> Result<(SynopsisGrid, f64), CliError> {
    let mut per_block = Vec::new();
    for (i, n) in nested.iter().enumerate() {
        let bdir = top.block_dir(base, i);
        let mut per_shard = Vec::new();
        for (s, entry) in n.shards.iter().enumerate() {
            per_shard.push(match entry.crc_synopsis {
                Some(_) => Some(read_synopsis(n, &bdir, s)?),
                None => None,
            });
        }
        per_block.push(per_shard);
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for s in per_block.iter().flatten().flatten() {
        lo = lo.min(s.lo);
        hi = hi.max(s.hi);
    }
    Ok((per_block, hi - lo))
}

/// `ats info DIR`: check every manifest and component file of a store
/// directory of any format, then describe it — one header, one line per
/// time block, one per shard. A v2/v3 store is one block. The counts are
/// the library's: row shards per block (what `ats save` prints), and the
/// space of every block's factors (`svd_bytes`) plus its deltas.
fn describe_store(path: &str) -> Result<(), CliError> {
    let (top, nested) = validate_timeblocked_store_dir(path).map_err(rt)?;
    let (syn, spread) = collect_synopses(Path::new(path), &top, &nested)?;
    let deltas: usize = nested.iter().map(|b| b.deltas).sum();
    let bytes: usize = nested
        .iter()
        .map(|b| svd_bytes(b.rows, b.cols, b.k) + b.deltas * DELTA_BYTES)
        .sum();
    println!(
        "{path}: format v{}, {} store, {} x {}, {deltas} deltas, bloom={}, {} time blocks, {} shards, {:.2} MB compressed",
        top.source_version,
        top.method,
        top.rows,
        top.cols,
        top.bloom,
        top.blocks.len(),
        nested.first().map_or(0, |b| b.shards.len()),
        bytes as f64 / 1e6
    );
    let flags = retrain_flags(&top.blocks, top.rows, RETRAIN_SSE_FACTOR);
    for (i, ((b, n), flagged)) in top.blocks.iter().zip(&nested).zip(&flags).enumerate() {
        let sse = b
            .sse
            .map_or("sse n/a".to_string(), |s| format!("sse {s:.4}"));
        let mark = if *flagged { "  RETRAIN" } else { "" };
        println!(
            "  tblock {i}: cols {}..{}, k={}, {} deltas, {} shards, {sse}{mark}",
            b.start,
            b.end,
            n.k,
            n.deltas,
            n.shards.len(),
        );
        let block_syn = syn.get(i).map(Vec::as_slice).unwrap_or(&[]);
        for (s, (entry, info)) in n.shards.iter().zip(block_syn).enumerate() {
            let sse = entry
                .append_sse
                .map_or(String::new(), |x| format!(", append sse {x:.4}"));
            println!(
                "    shard {s}: rows {}..{}, {} deltas{sse}, {}",
                entry.start,
                entry.end,
                entry.deltas,
                synopsis_cell(info.as_ref(), spread)
            );
        }
    }
    Ok(())
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return Ok(());
    }
    let (pos, flags) = parse_flags(&args)?;
    match pos.first().map(String::as_str) {
        Some("generate") => {
            check_flags(
                "generate",
                &flags,
                &["rows", "cols", "seed", "out", "summary"],
            )?;
            let kind = pos
                .get(1)
                .ok_or_else(|| usage("generate needs phone|stocks"))?;
            let out = flags
                .get("out")
                .ok_or_else(|| usage("generate needs --out FILE"))?;
            let seed = flag(&flags, "seed", 42)?;
            let summary = flags.contains_key("summary");
            // Rows stream straight into the file writer — the dataset is
            // never materialized, so N is bounded by disk, not RAM. The
            // in-memory generators produce bit-identical rows; --summary
            // uses them to also report cell statistics (small N only).
            let (name, src) = generator(kind, &flags)?;
            let (rows, cols) = (src.rows(), src.cols());
            if summary {
                let dataset = match kind.as_str() {
                    "phone" => generate_phone(&PhoneConfig {
                        customers: rows,
                        days: cols,
                        seed,
                        ..PhoneConfig::default()
                    }),
                    _ => generate_stocks(&StocksConfig {
                        stocks: rows,
                        days: cols,
                        seed,
                        ..StocksConfig::default()
                    }),
                };
                dataset.save(out).map_err(rt)?;
                let stats = dataset.cell_stats();
                println!(
                    "wrote {name} ({rows} x {cols}, {:.1} MB) to {out}  mean {:.3}  std {:.3}",
                    (rows * cols * 8) as f64 / 1e6,
                    stats.mean(),
                    stats.population_std_dev()
                );
            } else {
                write_source(out, src.as_ref()).map_err(rt)?;
                println!(
                    "wrote {name} ({rows} x {cols}, {:.1} MB, streamed) to {out}",
                    (rows * cols * 8) as f64 / 1e6
                );
            }
            Ok(())
        }
        Some("info") => {
            check_flags("info", &flags, &[])?;
            let path = pos
                .get(1)
                .ok_or_else(|| usage("info needs FILE or store DIR"))?;
            if Path::new(path).is_dir() {
                describe_store(path)?;
            } else {
                let f = MatrixFile::open(path).map_err(rt)?;
                println!(
                    "{path}: {} rows x {} cols, cell {} bytes, data {:.1} MB",
                    f.rows(),
                    f.cols(),
                    f.header().cell_bytes(),
                    (f.rows() * f.header().row_bytes()) as f64 / 1e6
                );
            }
            Ok(())
        }
        Some("save") => {
            check_flags(
                "save",
                &flags,
                &[
                    "out",
                    "percent",
                    "method",
                    "threads",
                    "shards",
                    "time-blocks",
                    "no-bloom",
                    "generate",
                    "rows",
                    "cols",
                    "seed",
                ],
            )?;
            let out = flags
                .get("out")
                .ok_or_else(|| usage("save needs --out DIR"))?;
            let pct = flag(&flags, "percent", 10.0)?;
            let threads = flag(&flags, "threads", 1)?;
            let method = flags.get("method").map(String::as_str).unwrap_or("svdd");
            let method = method_by_name(method).map_err(|e| usage(e.to_string()))?;
            // The build pass reads any RowSource: a matrix file, or the
            // streaming generator itself — no intermediate .atsm round
            // trip (closes the PR 6 leftover).
            let source: Box<dyn RowSource> = match (flags.get("generate"), pos.get(1)) {
                (Some(_), Some(_)) => {
                    return Err(usage("save takes either FILE or --generate, not both"))
                }
                (None, None) => return Err(usage("save needs FILE or --generate phone|stocks")),
                (None, Some(input)) => {
                    for k in ["rows", "cols", "seed"] {
                        if flags.contains_key(k) {
                            return Err(usage(format!("--{k} only applies with --generate")));
                        }
                    }
                    Box::new(MatrixFile::open(input).map_err(rt)?)
                }
                (Some(kind), None) => generator(kind, &flags)?.1,
            };
            let t0 = std::time::Instant::now();
            let store = SequenceStore::builder()
                .method(method)
                .budget(SpaceBudget::from_percent(pct))
                .threads(threads)
                .bloom(!flags.contains_key("no-bloom"))
                .shards(flag(&flags, "shards", 1)?)
                .time_blocks(flag(&flags, "time-blocks", 1)?)
                .build(source.as_ref())
                .map_err(rt)?;
            store.save(out).map_err(rt)?;
            println!(
                "{}: {} x {}, {} shards, {} time blocks, {:.2}% space, {:.1}s -> {out}",
                store.method().name(),
                store.rows(),
                store.cols(),
                store.shards(),
                store.time_blocks(),
                100.0 * store.space_ratio(),
                t0.elapsed().as_secs_f64()
            );
            Ok(())
        }
        Some("append") => {
            check_flags("append", &flags, &["threads", "time", "percent"])?;
            let dir = pos.get(1).ok_or_else(|| usage("append needs DIR FILE"))?;
            let input = pos.get(2).ok_or_else(|| usage("append needs DIR FILE"))?;
            let threads = flag(&flags, "threads", 1)?;
            let batch = MatrixFile::open(input).map_err(rt)?;
            if flags.contains_key("time") {
                // New *time points*: a fresh block with its own
                // decomposition, never a projection under a frozen V.
                let budget = SpaceBudget::from_percent(flag(&flags, "percent", 10.0)?);
                let report = append_time_block(dir, &batch, budget, threads).map_err(rt)?;
                println!(
                    "appended {} time points as block {} of {dir} (block sse {:.4})",
                    report.cols, report.block_index, report.sse
                );
            } else {
                if flags.contains_key("percent") {
                    return Err(usage("--percent only applies with --time"));
                }
                let report = append_rows(dir, &batch, threads, None).map_err(rt)?;
                println!(
                    "appended {} rows into shard {} of {dir} (frozen-V sse {:.4})",
                    report.rows, report.shard_index, report.sse
                );
            }
            Ok(())
        }
        Some("query") => {
            check_flags("query", &flags, &["batch-file", "threads"])?;
            let dir = pos.get(1).ok_or_else(|| usage("query needs DIR"))?;
            let threads = flag(&flags, "threads", 1)?;
            match (flags.get("batch-file"), pos.get(2)) {
                (Some(_), Some(_)) => Err(usage(
                    "query takes either a query string or --batch-file, not both",
                )),
                (None, None) => Err(usage("query needs a query string or --batch-file FILE")),
                (None, Some(q)) => {
                    let store = TimeBlockedStore::open(dir, 1024).map_err(rt)?;
                    let engine = QueryEngine::new(&store).with_threads(threads);
                    let v = run_query(&engine, q).map_err(rt)?;
                    println!("{v}");
                    Ok(())
                }
                (Some(file), None) => {
                    let text = std::fs::read_to_string(file)
                        .map_err(|e| rt(format!("cannot read batch file {file}: {e}")))?;
                    let req = parse_batch_file(&text).map_err(rt)?;
                    let store = TimeBlockedStore::open(dir, 1024).map_err(rt)?;
                    let engine = QueryEngine::new(&store).with_threads(threads);
                    let res = engine.batch_cells(&req).map_err(rt)?;
                    let mut out = String::new();
                    for v in res.values() {
                        out.push_str(&format!("{v}\n"));
                    }
                    print!("{out}");
                    Ok(())
                }
            }
        }
        Some("serve") => {
            check_flags(
                "serve",
                &flags,
                &["addr", "threads", "pool-pages", "max-frame", "pending-max"],
            )?;
            let dir = pos.get(1).ok_or_else(|| usage("serve needs DIR"))?;
            let pool = flag(&flags, "pool-pages", 1024)?;
            // The library's defaults are the CLI's: only the listen
            // address differs (a fixed port to find the daemon at).
            let defaults = ServeConfig::default();
            let cfg = ServeConfig {
                addr: flags
                    .get("addr")
                    .cloned()
                    .unwrap_or_else(|| "127.0.0.1:7878".to_string()),
                threads: flag(&flags, "threads", defaults.threads)?,
                max_frame: flag(&flags, "max-frame", defaults.max_frame)?,
                pending_max: flag(&flags, "pending-max", defaults.pending_max)?,
            };
            // Refuse a damaged store at start rather than at whichever
            // request first reads the damaged file (`query` and `verify`
            // check what they read). One store, one page pool: every
            // connection and every batch shares the same Arc'd store
            // through a 'static engine.
            validate_timeblocked_store_dir(dir).map_err(rt)?;
            let store = Arc::new(TimeBlockedStore::open(dir, pool).map_err(rt)?);
            let io_store = Arc::clone(&store);
            let engine = QueryEngine::shared(store).with_threads(cfg.threads);
            let handle = serve(
                engine,
                cfg,
                Some(Box::new(move || io_store.shard_io_snapshots())),
            )
            .map_err(rt)?;
            println!("listening on {}", handle.addr());
            use std::io::Write as _;
            std::io::stdout().flush().ok();
            // No signal machinery exists in safe std, so shutdown rides on
            // the SHUTDOWN verb or the controlling terminal: EOF or a
            // quit/exit/shutdown line on stdin trips the switch.
            let switch = handle.shutdown_switch();
            std::thread::spawn(move || {
                let stdin = std::io::stdin();
                let mut line = String::new();
                loop {
                    line.clear();
                    match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {
                            let word = line.trim().to_ascii_lowercase();
                            if matches!(word.as_str(), "quit" | "exit" | "shutdown") {
                                break;
                            }
                        }
                    }
                }
                switch.trigger();
            });
            while !handle.is_shutdown() {
                std::thread::sleep(Duration::from_millis(50));
            }
            let m = handle.join().map_err(rt)?;
            println!(
                "served {} queries ({} cells in {} batches, {} aggregates), {} errors, {} connections",
                m.queries, m.cells, m.batches, m.aggregates, m.errors, m.connections
            );
            Ok(())
        }
        Some("verify") => {
            check_flags("verify", &flags, &[])?;
            let data = pos.get(1).ok_or_else(|| usage("verify needs FILE DIR"))?;
            let dir = pos.get(2).ok_or_else(|| usage("verify needs FILE DIR"))?;
            let source = MatrixFile::open(data).map_err(rt)?;
            let store = TimeBlockedStore::open(dir, 1024).map_err(rt)?;
            let r = error_report(&source, &store).map_err(rt)?;
            println!(
                "cells {}  rmspe {:.3}%  worst_abs {:.4}  worst/sigma {:.2}%  mean_abs {:.5}",
                r.cells,
                r.rmspe * 100.0,
                r.max_abs_error,
                r.max_normalized_error * 100.0,
                r.mean_abs_error
            );
            Ok(())
        }
        Some("help") => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(usage(format!("unknown subcommand {other:?}"))),
        None => Err(usage("missing subcommand")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE_LINE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
