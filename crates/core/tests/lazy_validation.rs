//! The lazy-validation contract of DESIGN.md §5c, tested as written:
//!
//! - **C1** `open` succeeds iff the manifests are intact and agree — it
//!   reads no component file.
//! - **C2** no value derived from a component's bytes is returned before
//!   *those bytes* matched the CRC the manifest pins; a mismatch, a
//!   truncation and a missing file are `Corrupt`, never a value.
//! - **C3** a failed check is not cached: restore the bytes and the *same
//!   handle* answers.
//! - **C4** the eager validators fail on every such damage — they are the
//!   same per-component check, looped over the directory.
//!
//! Plus the counter that makes the cost model of an open visible
//! (`checked_bytes`), and first touch raced by real threads.

use ats_common::testutil::LAYOUTS;
use ats_common::{AtsError, Result, TestDir};
use ats_compress::{CompressedMatrix, SpaceBudget};
use ats_core::store::SequenceStore;
use ats_core::timeblock::TimeBlockedStore;
use ats_linalg::Matrix;
use ats_query::selection::Axis;
use ats_query::{AggregateFn, BatchRequest, CmpOp, Predicate, QueryEngine, Selection};
use ats_storage::store_dir::{validate_timeblocked_store_dir, Component};
use ats_storage::IoSnapshot;
use std::path::{Path, PathBuf};
use std::sync::Barrier;

/// Low-rank weekly pattern, a ripple so every block keeps some error,
/// and spikes that land as deltas in several shards.
fn wavy(n: usize, m: usize) -> Matrix {
    let mut x = Matrix::from_fn(n, m, |i, j| {
        ((i % 5) + 1) as f64 * if j % 7 < 5 { 2.0 } else { 0.2 }
            + ((i * 7 + j * 13) % 11) as f64 * 0.05
    });
    for t in 0..n / 9 {
        x[(t * 9, (t * 5) % m)] += 40.0 + t as f64;
    }
    x
}

fn save(dir: &Path, x: &Matrix, shards: usize, time_blocks: usize) {
    SequenceStore::builder()
        .budget(SpaceBudget::from_percent(20.0))
        .shards(shards)
        .time_blocks(time_blocks)
        .build(x)
        .unwrap()
        .save(dir)
        .unwrap();
}

/// One (time block, row shard) cell of the store grid.
type Unit = (usize, usize);

/// The grid of an opened store: column range per block, row range per
/// shard, and which units carry a synopsis.
struct Grid {
    blocks: Vec<(usize, usize)>,
    shards: Vec<(usize, usize)>,
    synopsis: Vec<Unit>,
}

impl Grid {
    fn of(store: &TimeBlockedStore) -> Grid {
        let blocks = store.manifest().blocks.iter().map(|b| (b.start, b.end));
        let first = store.blocks()[0].manifest();
        let mut synopsis = Vec::new();
        for (b, block) in store.blocks().iter().enumerate() {
            for (s, entry) in block.manifest().shards.iter().enumerate() {
                if entry.crc_synopsis.is_some() {
                    synopsis.push((b, s));
                }
            }
        }
        Grid {
            blocks: blocks.collect(),
            shards: first.shards.iter().map(|s| (s.start, s.end)).collect(),
            synopsis,
        }
    }

    fn units(&self) -> Vec<Unit> {
        (0..self.blocks.len())
            .flat_map(|b| (0..self.shards.len()).map(move |s| (b, s)))
            .collect()
    }

    /// The rectangle of unit `(b, s)` as a selection.
    fn rect(&self, (b, s): Unit) -> Selection {
        let ((c0, c1), (r0, r1)) = (self.blocks[b], self.shards[s]);
        Selection::time_range(Axis::Range(r0, r1), c0, c1)
    }

    /// A cell in the middle of unit `(b, s)`.
    fn mid(&self, (b, s): Unit) -> (usize, usize) {
        let ((c0, c1), (r0, r1)) = (self.blocks[b], self.shards[s]);
        ((r0 + r1) / 2, (c0 + c1) / 2)
    }
}

type Answer = Result<Vec<u64>>;

/// One query form, with the units its answer is derived from.
struct Probe {
    name: String,
    /// Units whose `U` rows — hence deltas and block factors — it reads.
    reads: Vec<Unit>,
    /// Units whose synopsis it plans with.
    plans: Vec<Unit>,
    run: Box<dyn Fn(&TimeBlockedStore) -> Answer>,
}

impl Probe {
    fn new(
        name: String,
        reads: Vec<Unit>,
        plans: Vec<Unit>,
        run: impl Fn(&TimeBlockedStore) -> Answer + 'static,
    ) -> Probe {
        Probe {
            name,
            reads,
            plans,
            run: Box::new(run),
        }
    }

    /// Whether the answer is derived from component `c` of block `block`.
    fn depends_on(&self, block: usize, c: Component) -> bool {
        match c {
            Component::V | Component::Lambda => self.reads.iter().any(|&(b, _)| b == block),
            Component::U(s) | Component::Deltas(s) => self.reads.contains(&(block, s)),
            Component::Synopsis(s) => self.plans.contains(&(block, s)),
        }
    }
}

fn bits(v: f64) -> Vec<u64> {
    vec![v.to_bits()]
}

/// Every query form over every unit, block and shard of the grid.
fn probes(grid: &Grid) -> Vec<Probe> {
    let all_true = Predicate::new(CmpOp::Gt, -1e300).unwrap();
    let all_false = Predicate::new(CmpOp::Gt, 1e300).unwrap();
    let with_synopsis = |units: &[Unit]| -> Vec<Unit> {
        (units.iter().copied())
            .filter(|u| grid.synopsis.contains(u))
            .collect()
    };
    let mut out = Vec::new();
    for unit in grid.units() {
        let (i, j) = grid.mid(unit);
        out.push(Probe::new(
            format!("cell {unit:?}"),
            vec![unit],
            vec![],
            move |s| s.cell(i, j).map(bits),
        ));
        let rect = grid.rect(unit);
        out.push(Probe::new(
            format!("sum over {unit:?}"),
            vec![unit],
            vec![],
            move |s| {
                QueryEngine::new(s)
                    .aggregate(&rect, AggregateFn::Sum)
                    .map(bits)
            },
        ));
    }
    for (s_idx, &(r0, r1)) in grid.shards.iter().enumerate() {
        let row = (r0 + r1) / 2;
        let reads = (0..grid.blocks.len()).map(|b| (b, s_idx)).collect();
        out.push(Probe::new(format!("row {row}"), reads, vec![], move |s| {
            let mut buf = vec![0.0; s.cols()];
            s.row_into(row, &mut buf)?;
            Ok(buf.iter().map(|v| v.to_bits()).collect())
        }));
    }
    for (b, &(c0, c1)) in grid.blocks.iter().enumerate() {
        let units: Vec<Unit> = (0..grid.shards.len()).map(|s| (b, s)).collect();
        // A batch with a repeated row and a cell of every shard.
        let mut cells: Vec<(usize, usize)> = units.iter().map(|&u| grid.mid(u)).collect();
        cells.push((cells[0].0, c0));
        out.push(Probe::new(
            format!("batch_cells in block {b}"),
            units.clone(),
            vec![],
            move |s| {
                let res = QueryEngine::new(s).batch_cells(&BatchRequest::new(cells.clone()))?;
                Ok(res.values().iter().map(|v| v.to_bits()).collect())
            },
        ));
        let range = Selection::time_range(Axis::All, c0, c1);
        let sel = range.clone();
        out.push(Probe::new(
            format!("avg in time [{c0}..{c1})"),
            units.clone(),
            vec![],
            move |s| {
                QueryEngine::new(s)
                    .aggregate(&sel, AggregateFn::Avg)
                    .map(bits)
            },
        ));
        // `where`, pruned and not. An always-true `sum` reads every row
        // either way; the pruned form also plans with the synopses.
        for pruned in [true, false] {
            let (sel, pred) = (range.clone(), all_true);
            let plans = if pruned {
                with_synopsis(&units)
            } else {
                vec![]
            };
            out.push(Probe::new(
                format!("sum where true in block {b}, synopsis {pruned}"),
                units.clone(),
                plans,
                move |s| {
                    QueryEngine::new(s)
                        .with_synopsis(pruned)
                        .aggregate_where(&sel, AggregateFn::Sum, &pred)
                        .map(bits)
                },
            ));
        }
        // A pruned count nothing can match is answered from the synopses
        // alone: it reads `U` only where there is no synopsis to prove it.
        let (sel, pred) = (range, all_false);
        let plans = with_synopsis(&units);
        let reads = (units.iter().copied())
            .filter(|u| !plans.contains(u))
            .collect();
        out.push(Probe::new(
            format!("pruned count where false in block {b}"),
            reads,
            plans,
            move |s| {
                QueryEngine::new(s)
                    .with_synopsis(true)
                    .aggregate_where(&sel, AggregateFn::Count, &pred)
                    .map(bits)
            },
        ));
    }
    let everything = grid.units();
    out.push(Probe::new(
        "stddev of everything".into(),
        everything,
        vec![],
        |s| {
            QueryEngine::new(s)
                .aggregate(&Selection::all(), AggregateFn::StdDev)
                .map(bits)
        },
    ));
    out
}

/// Every component file of the store: its block, its name in the block's
/// manifest, its path.
fn component_files(dir: &Path, store: &TimeBlockedStore) -> Vec<(usize, Component, PathBuf)> {
    let mut out = Vec::new();
    for (b, block) in store.blocks().iter().enumerate() {
        let bdir = store.manifest().block_dir(dir, b);
        for c in block.manifest().components() {
            out.push((b, c, block.manifest().component_path(&bdir, c)));
        }
    }
    out
}

#[derive(Debug, Clone, Copy)]
enum Damage {
    Truncate(usize),
    Delete,
    FlipBit(usize),
}

/// Five truncation lengths, the deletion, and 64 sampled bit flips (the
/// first and last bit among them) of a `len`-byte file.
fn damages(len: usize) -> Vec<Damage> {
    let mut cuts = vec![0, 1, len / 3, len / 2, len - 1];
    cuts.dedup();
    let mut out: Vec<Damage> = cuts.into_iter().map(Damage::Truncate).collect();
    out.push(Damage::Delete);
    let nbits = len * 8;
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ len as u64;
    out.extend([Damage::FlipBit(0), Damage::FlipBit(nbits - 1)]);
    for _ in 0..62 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.push(Damage::FlipBit((state >> 33) as usize % nbits));
    }
    out
}

fn apply(path: &Path, original: &[u8], damage: Damage) {
    match damage {
        Damage::Truncate(len) => std::fs::write(path, &original[..len]).unwrap(),
        Damage::Delete => std::fs::remove_file(path).unwrap(),
        Damage::FlipBit(bit) => {
            let mut bytes = original.to_vec();
            bytes[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(path, bytes).unwrap();
        }
    }
}

/// C1–C4 over every component file × every damage × every query form of
/// the store at `dir`, and the converse on the undamaged directory.
fn check_contract(dir: &Path) {
    // The converse: the validator passes, so no query may fail.
    validate_timeblocked_store_dir(dir).unwrap();
    let clean = TimeBlockedStore::open(dir, 256).unwrap();
    let probes = probes(&Grid::of(&clean));
    let baseline: Vec<Vec<u64>> = probes
        .iter()
        .map(|p| (p.run)(&clean).unwrap_or_else(|e| panic!("undamaged `{}`: {e}", p.name)))
        .collect();

    for (block, c, path) in component_files(dir, &clean) {
        let original = std::fs::read(&path).unwrap();
        for damage in damages(original.len()) {
            let what = format!("block {block} {c} {damage:?}");
            apply(&path, &original, damage);
            // C4: the eager validator is the same check, run now.
            match validate_timeblocked_store_dir(dir) {
                Err(AtsError::Corrupt(_)) => {}
                other => panic!("{what}: validator said {other:?}"),
            }
            // C1: the manifests are intact, so the open succeeds.
            let store = TimeBlockedStore::open(dir, 256)
                .unwrap_or_else(|e| panic!("{what}: open must read manifests only: {e}"));
            // C2: Corrupt where the answer derives from the damaged
            // bytes, the undamaged store's bits everywhere else.
            for (p, want) in probes.iter().zip(&baseline) {
                match ((p.run)(&store), p.depends_on(block, c)) {
                    (Err(AtsError::Corrupt(_)), true) => {}
                    (Ok(got), false) => assert_eq!(&got, want, "{what}: `{}`", p.name),
                    (got, depends) => {
                        panic!("{what}: `{}` (depends: {depends}) gave {got:?}", p.name)
                    }
                }
            }
            // C3: nothing was cached about the failure.
            std::fs::write(&path, &original).unwrap();
            for (p, want) in probes.iter().zip(&baseline) {
                let got = (p.run)(&store)
                    .unwrap_or_else(|e| panic!("{what}: restored, `{}` still fails: {e}", p.name));
                assert_eq!(&got, want, "{what}: restored `{}`", p.name);
            }
        }
    }
    validate_timeblocked_store_dir(dir).unwrap();
}

#[test]
fn contract_holds_on_a_three_by_three_v4_store() {
    let tmp = TestDir::new("ats-lazy");
    let dir = tmp.file("v4");
    save(&dir, &wavy(120, 24), 3, 3);
    let store = TimeBlockedStore::open(&dir, 64).unwrap();
    assert_eq!(
        (store.blocks().len(), store.blocks()[0].shard_count()),
        (3, 3)
    );
    check_contract(&dir);
}

#[test]
fn contract_holds_on_a_one_block_v3_store() {
    let tmp = TestDir::new("ats-lazy");
    let dir = tmp.file("v3");
    save(&dir, &wavy(96, 20), 2, 1);
    assert_eq!(TimeBlockedStore::open(&dir, 64).unwrap().blocks().len(), 1);
    check_contract(&dir);
}

#[test]
fn contract_holds_on_the_v2_golden_fixture() {
    let tmp = TestDir::new("ats-lazy");
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../storage/tests/fixtures/v2-store");
    let dir = tmp.copy_of(fixture, "v2");
    let store = TimeBlockedStore::open(&dir, 64).unwrap();
    assert_eq!(store.blocks()[0].manifest().source_version, 2);
    check_contract(&dir);
}

fn file_len(path: impl AsRef<Path>) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

/// `checked_bytes` is the cost model of lazy validation: an open checks
/// nothing, a query checks exactly the files it reads, once.
#[test]
fn checked_bytes_counts_exactly_the_files_a_query_reads() {
    let tmp = TestDir::new("ats-lazy");
    let dir = tmp.file("store");
    save(&dir, &wavy(120, 24), 3, 3);
    let store = TimeBlockedStore::open(&dir, 256).unwrap();
    assert_eq!(store.checked_bytes(), 0, "an open checksums no component");
    let grid = Grid::of(&store);
    let files = component_files(&dir, &store);
    let size_of = |keep: &dyn Fn(usize, Component) -> bool| -> u64 {
        (files.iter())
            .filter(|(b, c, _)| keep(*b, *c))
            .map(|(_, _, path)| file_len(path))
            .sum()
    };
    let engine = QueryEngine::new(&store).with_synopsis(true);

    // One cold cell: its block's factors, its shard's U and deltas.
    let (i, j) = grid.mid((1, 2));
    store.cell(i, j).unwrap();
    let one_cell = size_of(&|b, c| {
        b == 1
            && matches!(
                c,
                Component::V | Component::Lambda | Component::U(2) | Component::Deltas(2)
            )
    });
    assert_eq!(store.checked_bytes(), one_cell);
    store.cell(i, j).unwrap();
    assert_eq!(
        store.checked_bytes(),
        one_cell,
        "a warm cell checks nothing"
    );

    // A time-range aggregate over block 0 adds block 0's files, less its
    // synopses, and nothing of block 2.
    let (c0, c1) = grid.blocks[0];
    let range = Selection::time_range(Axis::All, c0, c1);
    engine.aggregate(&range, AggregateFn::Sum).unwrap();
    let block0 = size_of(&|b, c| b == 0 && !matches!(c, Component::Synopsis(_)));
    assert_eq!(store.checked_bytes(), one_cell + block0);
    engine.aggregate(&range, AggregateFn::Sum).unwrap();
    assert_eq!(store.checked_bytes(), one_cell + block0);

    // A pruned `where` adds the synopses of the units it plans — here
    // one shard's rows of block 0 — and only those.
    let pred = Predicate::new(CmpOp::Gt, 3.0).unwrap();
    let shard1 = grid.rect((0, 1));
    engine
        .aggregate_where(&shard1, AggregateFn::Count, &pred)
        .unwrap();
    let synopsis01 = size_of(&|b, c| b == 0 && c == Component::Synopsis(1));
    assert!(synopsis01 > 0);
    assert_eq!(store.checked_bytes(), one_cell + block0 + synopsis01);
    engine
        .aggregate_where(&shard1, AggregateFn::Count, &pred)
        .unwrap();
    assert_eq!(store.checked_bytes(), one_cell + block0 + synopsis01);

    // Touch everything: the sum is what the eager validator reads.
    engine
        .aggregate_where(&Selection::all(), AggregateFn::Sum, &pred)
        .unwrap();
    let mut validator_reads = 0u64;
    for (b, block) in store.blocks().iter().enumerate() {
        let bdir = store.manifest().block_dir(&dir, b);
        for c in block.manifest().components() {
            validator_reads += block.manifest().check_component(&bdir, c).unwrap();
        }
    }
    assert_eq!(validator_reads, size_of(&|_, _| true));
    assert_eq!(store.checked_bytes(), validator_reads);
}

const THREADS: usize = 8;

/// What one thread does to its unit: a cell, a kernel block of rows read
/// through the owning block's `rows_into`, and a pruned `where` over the
/// unit's rectangle.
fn touch(store: &TimeBlockedStore, grid: &Grid, unit: Unit) -> Answer {
    let (i, j) = grid.mid(unit);
    let mut out = bits(store.cell(i, j)?);
    let block = &store.blocks()[unit.0];
    let r0 = grid.shards[unit.1].0;
    let rows: Vec<usize> = (r0..r0 + 8).collect();
    let mut buf = vec![0.0; rows.len() * block.cols()];
    block.rows_into(&rows, &mut buf)?;
    out.extend(buf.iter().map(|v| v.to_bits()));
    let pred = Predicate::new(CmpOp::Gt, 3.0).unwrap();
    let sum = QueryEngine::new(store)
        .with_synopsis(true)
        .aggregate_where(&grid.rect(unit), AggregateFn::Sum, &pred)?;
    out.extend(bits(sum));
    Ok(out)
}

/// Run `touch` on `targets[t]` from thread `t`, all released together on a
/// fresh handle; returns each thread's answer and the handle's counters.
fn race(dir: &Path, grid: &Grid, targets: &[Unit]) -> (Vec<Answer>, IoSnapshot) {
    let store = TimeBlockedStore::open(dir, 4096).unwrap();
    let barrier = Barrier::new(targets.len());
    let answers = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter()
            .map(|&unit| {
                let (store, barrier) = (&store, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    touch(store, grid, unit)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (answers, store.io_snapshot())
}

/// The same touches, one after another on one fresh handle.
fn serially(dir: &Path, grid: &Grid, targets: &[Unit]) -> (Vec<Answer>, IoSnapshot) {
    let store = TimeBlockedStore::open(dir, 4096).unwrap();
    let answers = targets.iter().map(|&u| touch(&store, grid, u)).collect();
    (answers, store.io_snapshot())
}

/// First touch raced by real threads: every thread sees the answers and
/// the store the page counts of a serially warmed handle; with one unit
/// damaged, exactly the threads touching it see `Corrupt`.
fn check_first_touch_under_threads(dir: &Path) {
    let grid = Grid::of(&TimeBlockedStore::open(dir, 64).unwrap());
    let units = grid.units();
    let one_unit = vec![units[units.len() / 2]; THREADS];
    let spread: Vec<Unit> = (0..THREADS).map(|t| units[t % units.len()]).collect();
    for targets in [&one_unit, &spread] {
        let (want, want_io) = serially(dir, &grid, targets);
        let (got, got_io) = race(dir, &grid, targets);
        for ((g, w), unit) in got.iter().zip(&want).zip(targets) {
            assert_eq!(g.as_ref().unwrap(), w.as_ref().unwrap(), "unit {unit:?}");
        }
        assert_eq!(got_io, want_io, "targets {targets:?}");
    }

    let victim = spread[THREADS - 1];
    let store = TimeBlockedStore::open(dir, 64).unwrap();
    let block = store.blocks()[victim.0].manifest();
    let bdir = store.manifest().block_dir(dir, victim.0);
    let path = block.component_path(&bdir, Component::U(victim.1));
    let original = std::fs::read(&path).unwrap();
    apply(&path, &original, Damage::FlipBit(original.len() * 4));
    for targets in [&one_unit, &spread, &vec![victim; THREADS]] {
        let (want, _) = serially(dir, &grid, targets);
        let (got, _) = race(dir, &grid, targets);
        for ((g, w), &unit) in got.iter().zip(&want).zip(targets.iter()) {
            match (g, unit == victim) {
                (Err(AtsError::Corrupt(_)), true) => assert!(w.is_err()),
                (Ok(g), false) => assert_eq!(g, w.as_ref().unwrap(), "unit {unit:?}"),
                (g, _) => panic!("unit {unit:?} (victim {victim:?}) gave {g:?}"),
            }
        }
    }
    std::fs::write(&path, &original).unwrap();
}

#[test]
fn first_touch_under_real_threads_eight_units() {
    let tmp = TestDir::new("ats-lazy");
    let dir = tmp.file("store");
    save(&dir, &wavy(160, 32), 4, 2);
    check_first_touch_under_threads(&dir);
}

/// The same on every layout of [`LAYOUTS`]: the mono store is one unit,
/// where all eight threads race one first touch.
#[test]
fn first_touch_under_real_threads_default_layout() {
    for layout in LAYOUTS {
        let tmp = TestDir::new("ats-lazy");
        let dir = tmp.file("store");
        save(&dir, &wavy(160, 32), layout.shards, layout.time_blocks);
        check_first_touch_under_threads(&dir);
    }
}
