//! Inputs every workload shares: the scratch directory, the dataset file,
//! the saved store, and the process counters read from `/proc`.

use crate::rng::{permutation, Rng};
use ats_common::{AtsError, Result};
use ats_compress::SpaceBudget;
use ats_core::store::{SequenceStore, StoreBuilder};
use ats_core::timeblock::TimeBlockedStore;
use ats_data::{PhoneConfig, StreamingPhone};
use ats_linalg::Matrix;
use ats_storage::file::write_source;
use ats_storage::{MatrixFile, RowSource};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The dataset is one fixed draw of the phone generator; `--seed` permutes
/// its rows and drives every request stream. A fresh generator seed per run
/// would flip `k_opt` of single time blocks between 1 and 2, moving every
/// timing by up to a fifth and RMSPE by a tenth: wider than any bound.
const DATA_SEED: u64 = 42;

/// Space budget of every store the benchmark builds, as the CLI defaults.
pub const BUDGET_PERCENT: f64 = 10.0;
pub const SHARDS: usize = 4;
pub const TIME_BLOCKS: usize = 8;
/// Pinned wherever the library takes a thread count (`nproc` is 2 here).
pub const THREADS: usize = 2;
/// `ats query` / `ats serve` default `--pool-pages`.
pub const DEFAULT_POOL_PAGES: usize = 1024;

/// Problem sizes; `--smoke` shrinks them so the whole suite runs in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows of the dataset behind every query workload.
    pub rows: usize,
    pub cols: usize,
    /// Rows of the dataset the monolithic build workload compresses.
    pub build_rows: usize,
    /// Length of the daemon session the per-layer probes run.
    pub probe_serve_seconds: f64,
    /// The probes' repetition counts are divided by this.
    pub probe_divisor: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        rows: 8_000,
        cols: 366,
        build_rows: 1_000,
        probe_serve_seconds: 2.0,
        probe_divisor: 1,
    };
    pub const SMOKE: Sizes = Sizes {
        rows: 1_000,
        cols: 366,
        build_rows: 400,
        probe_serve_seconds: 0.2,
        probe_divisor: 10,
    };
}

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Cx {
    pub seed: u64,
    pub sizes: Sizes,
    pub scratch: PathBuf,
}

/// A directory under the build's target directory, removed on drop: the
/// benchmark reads and writes only inside its checkout.
pub struct Scratch {
    pub path: PathBuf,
}

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        // Unique per call as well as per process: tests run in parallel.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = target_dir()?.join("atsbench-scratch").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Cargo's target directory: the executable lives in `<target>/<profile>/`
/// (tests one level deeper, in `deps/`).
pub fn target_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let mut dir = exe.parent().unwrap_or(Path::new(".")).to_path_buf();
    if dir.ends_with("deps") {
        dir.pop();
    }
    dir.pop();
    Ok(dir)
}

/// Rows of a matrix served in a permuted order.
struct PermutedRows<'a> {
    matrix: &'a Matrix,
    order: &'a [usize],
}

impl RowSource for PermutedRows<'_> {
    fn rows(&self) -> usize {
        self.order.len()
    }
    fn cols(&self) -> usize {
        self.matrix.cols()
    }
    fn scan_range(
        &self,
        start: usize,
        end: usize,
        f: &mut dyn FnMut(usize, &[f64]) -> Result<()>,
    ) -> Result<()> {
        for i in start..end {
            f(i, self.matrix.row(self.order[i]))?;
        }
        Ok(())
    }
}

/// Generate the phone dataset and write it with `write_source`, customers in
/// an order drawn from `seed`.
pub fn write_dataset(path: &Path, rows: usize, cols: usize, seed: u64) -> Result<MatrixFile> {
    let matrix = StreamingPhone::new(PhoneConfig {
        customers: rows,
        days: cols,
        seed: DATA_SEED,
        ..PhoneConfig::default()
    })
    .to_matrix()?;
    let order = permutation(rows, &mut Rng::new(seed, 0xDA7A));
    write_source(
        path,
        &PermutedRows {
            matrix: &matrix,
            order: &order,
        },
    )?;
    MatrixFile::open(path)
}

pub fn builder() -> StoreBuilder {
    SequenceStore::builder().budget(SpaceBudget::from_percent(BUDGET_PERCENT))
}

/// The store every query workload runs against: dataset file → blocked build
/// → save → open, as a user of `ats save` + `ats query`/`ats serve` has it.
pub struct QueryFixture {
    pub data_path: PathBuf,
    pub data: MatrixFile,
    /// The freshly built store, still in memory (the probes compare the disk
    /// path against it).
    pub mem: SequenceStore,
    pub store_dir: PathBuf,
    pub store: Arc<TimeBlockedStore>,
}

impl QueryFixture {
    pub fn build(cx: &Cx, dir: &Path, pool_pages: usize) -> Result<QueryFixture> {
        std::fs::create_dir_all(dir)?;
        let data_path = dir.join("data.atsm");
        let data = write_dataset(&data_path, cx.sizes.rows, cx.sizes.cols, cx.seed)?;
        let mem = builder()
            .shards(SHARDS)
            .time_blocks(TIME_BLOCKS)
            .threads(THREADS)
            .build(&data)?;
        let store_dir = dir.join("store");
        mem.save(&store_dir)?;
        let store = Arc::new(TimeBlockedStore::open(&store_dir, pool_pages)?);
        Ok(QueryFixture {
            data_path,
            data,
            mem,
            store_dir,
            store,
        })
    }

    pub fn rows(&self) -> usize {
        self.data.rows()
    }

    pub fn cols(&self) -> usize {
        self.data.cols()
    }

    /// Pool size that keeps every `U` row of every block resident.
    pub fn resident_pool_pages(sizes: &Sizes) -> usize {
        2 * sizes.rows * TIME_BLOCKS
    }

    /// The value below which a share `q` of all served cells lies.
    pub fn served_quantiles(&self, qs: &[f64]) -> Result<Vec<f64>> {
        let (n, m) = (self.rows(), self.cols());
        let mut vals = vec![0.0f64; n * m];
        for (i, row) in vals.chunks_exact_mut(m).enumerate() {
            ats_compress::CompressedMatrix::row_into(self.store.as_ref(), i, row)?;
        }
        Ok(qs
            .iter()
            .map(|q| {
                let idx = (((vals.len() - 1) as f64) * q) as usize;
                *vals.select_nth_unstable_by(idx, f64::total_cmp).1
            })
            .collect())
    }
}

/// Read one cell of every `U` row of every time block, so a pool large
/// enough holds them all afterwards.
pub fn touch_every_u_row(store: &TimeBlockedStore) -> Result<()> {
    use ats_compress::CompressedMatrix;
    for start in store.time_block_starts() {
        for i in 0..store.rows() {
            store.cell(i, start)?;
        }
    }
    Ok(())
}

/// On-disk bytes of a saved store, split by what the files hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreBytes {
    pub total: u64,
    pub u: u64,
    pub deltas: u64,
    pub synopsis: u64,
}

pub fn store_bytes(dir: &Path) -> std::io::Result<StoreBytes> {
    let mut b = StoreBytes::default();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            if meta.is_dir() {
                stack.push(entry.path());
                continue;
            }
            b.total += meta.len();
            match entry.file_name().to_str() {
                Some("u.atsm") => b.u += meta.len(),
                Some("deltas.bin") => b.deltas += meta.len(),
                Some(ats_storage::SYNOPSIS_FILE) => b.synopsis += meta.len(),
                _ => {}
            }
        }
    }
    Ok(b)
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64> {
    proc_status_kb("VmHWM:")
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| AtsError::internal("no VmHWM in /proc/self/status"))
}

/// CPU time (user + system) this process has used, in microseconds.
pub fn process_cpu_us() -> Result<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, in clock ticks (100 per second on Linux).
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| AtsError::internal("unparsable /proc/self/stat"))?;
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<u64>().ok());
    match (tick(), tick()) {
        (Some(u), Some(s)) => Ok((u + s) * 10_000),
        _ => Err(AtsError::internal("unparsable /proc/self/stat")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_rows_are_a_seeded_permutation_of_one_draw() {
        let scratch = Scratch::create().unwrap();
        let a = write_dataset(&scratch.path.join("a.atsm"), 60, 14, 1).unwrap();
        let a2 = write_dataset(&scratch.path.join("a2.atsm"), 60, 14, 1).unwrap();
        let b = write_dataset(&scratch.path.join("b.atsm"), 60, 14, 2).unwrap();
        let rows = |f: &MatrixFile| -> Vec<Vec<u64>> {
            (0..f.rows())
                .map(|i| f.read_row(i).unwrap().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let (ra, ra2, rb) = (rows(&a), rows(&a2), rows(&b));
        assert_eq!(ra, ra2, "same seed, same file");
        assert_ne!(ra, rb, "another seed, another order");
        let sorted = |mut r: Vec<Vec<u64>>| {
            r.sort();
            r
        };
        assert_eq!(sorted(ra), sorted(rb), "the same customers either way");
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mb().unwrap() > 1.0);
        process_cpu_us().unwrap();
    }
}
