//! [`SequenceStore`]: build once, query forever.
//!
//! The full lifecycle is first-class: [`StoreBuilder::build`] compresses
//! with SVD or SVDD ([`Method`]), [`SequenceStore::save`] persists the
//! result crash-safely to a store directory (one block → format v3,
//! several → v4; see [`crate::timeblock`]), and [`SequenceStore::open`] serves the saved
//! store back with `U` paged from disk — without callers reaching into
//! the storage internals. An open reads the manifests; each component
//! file is checksummed when a query first reads it (see
//! [`crate::shard`]), so opening costs the same whatever the store
//! holds and a query pays for the blocks and shards it touches.

use crate::shard::ShardedStore;
use crate::timeblock::{
    block_table, save_blocks, time_block_ranges, BuiltBlock, TimeBlockedStore, TimeGrid,
};
use ats_common::{AtsError, Result};
use ats_compress::method::block_budget;
use ats_compress::{shard_ranges, CompressedMatrix, SpaceBudget};
use ats_linalg::Matrix;
use ats_query::engine::{AggregateFn, QueryEngine};
use ats_query::metrics::{error_report, ErrorReport};
use ats_query::selection::Selection;
use ats_storage::ColumnSlice;
use ats_storage::RowSource;
use std::path::Path;
use std::sync::Arc;

/// The decomposition behind a [`SequenceStore`] — the two methods a
/// store directory persists. The paper's baselines are library types
/// measured against these (`DctCompressed`, `ClusterCompressed` and
/// `SampleCompressed` in [`ats_compress`]), not store methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Plain truncated SVD (§3.4).
    Svd,
    /// SVD with deltas — the paper's proposal (§4.2). Default.
    Svdd,
}

impl Method {
    /// Short method name, as written in the store manifest.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Svd => "svd",
            Method::Svdd => "svdd",
        }
    }
}

/// Builder for [`SequenceStore`].
#[derive(Debug, Clone)]
pub struct StoreBuilder {
    method: Method,
    budget: SpaceBudget,
    threads: usize,
    with_bloom: bool,
    shards: usize,
    time_blocks: usize,
}

impl StoreBuilder {
    /// Compression method (default [`Method::Svdd`]).
    pub fn method(mut self, m: Method) -> Self {
        self.method = m;
        self
    }

    /// Space budget (default 10%).
    pub fn budget(mut self, b: SpaceBudget) -> Self {
        self.budget = b;
        self
    }

    /// Worker threads (default 1). One knob for both sides: the build's
    /// streaming passes and the store's aggregate query scans.
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = t.max(1);
        self
    }

    /// Attach a Bloom filter to the SVDD delta table (default true).
    pub fn bloom(mut self, on: bool) -> Self {
        self.with_bloom = on;
        self
    }

    /// Number of row-range shards for the build passes and the saved
    /// store layout (default 1, or the `ATS_TEST_SHARDS`
    /// environment variable when set). Sharding never changes results:
    /// pass 1 folds per-block partial Grams in a fixed global order and
    /// pass 2 merges per-shard outlier heaps globally, so `k_opt`, the
    /// delta set, and every reconstructed cell are bit-identical to the
    /// single-shard build.
    pub fn shards(mut self, r: usize) -> Self {
        self.shards = r.max(1);
        self
    }

    /// Number of time blocks the column axis is partitioned into
    /// (default 1, or the `ATS_TEST_TBLOCKS` environment variable when
    /// set). With `B > 1` the build runs once per column block
    /// — each block gets its own `(U_b, Λ_b, V_b)` and delta set under a
    /// per-block budget ([`ats_compress::method::block_budget`]) — and
    /// [`SequenceStore::save`] writes the time-blocked (v4) layout.
    /// Unlike row sharding this IS a semantics knob: per-block
    /// decompositions differ from the global one (that is the point —
    /// time-range queries touch only overlapping blocks). A query
    /// confined to one block answers bitwise what a standalone store
    /// built over that column slice would. `B = 1` is exactly the
    /// single-decomposition build and the v3 layout.
    pub fn time_blocks(mut self, b: usize) -> Self {
        self.time_blocks = b.max(1);
        self
    }

    /// One decomposition per column block of the source (a
    /// [`ColumnSlice`] pass set each, under the block's share of the
    /// budget), served through a routing [`TimeGrid`] when there are
    /// several. A one-block build is the plain global decomposition.
    fn build_blocks<S: RowSource + ?Sized>(
        &self,
        source: &S,
    ) -> Result<(Arc<dyn CompressedMatrix>, Vec<BuiltBlock>)> {
        let row_ranges = shard_ranges(source.rows(), self.shards);
        let (method, threads, bloom) = (self.method.name(), self.threads, self.with_bloom);
        let col_ranges = time_block_ranges(source.cols(), self.time_blocks);
        if col_ranges.len() <= 1 {
            let only = BuiltBlock::build(
                method,
                source,
                self.budget,
                threads,
                bloom,
                &row_ranges,
                false,
            )?;
            return Ok((only.matrix(), vec![only]));
        }
        let mut blocks = Vec::new();
        for &(c0, c1) in &col_ranges {
            let slice = ColumnSlice::new(source, c0, c1)?;
            let budget = block_budget(self.budget, source.rows(), c1 - c0);
            blocks.push(BuiltBlock::build(
                method,
                &slice,
                budget,
                threads,
                bloom,
                &row_ranges,
                true,
            )?);
        }
        let grid = TimeGrid::new(
            block_table(method, &blocks),
            blocks.iter().map(BuiltBlock::matrix).collect(),
        )?;
        Ok((Arc::new(grid), blocks))
    }

    /// Compress from any [`RowSource`] (disk file or in-memory matrix)
    /// in the method's streaming passes.
    pub fn build<S: RowSource + ?Sized>(self, source: &S) -> Result<SequenceStore> {
        let (compressed, persist) = self.build_blocks(source)?;
        Ok(SequenceStore {
            compressed,
            method: self.method,
            threads: self.threads,
            shards: self.shards,
            time_blocks: persist.len(),
            persist,
        })
    }
}

/// A compressed, queryable time-sequence store.
pub struct SequenceStore {
    compressed: Arc<dyn CompressedMatrix>,
    method: Method,
    threads: usize,
    shards: usize,
    time_blocks: usize,
    /// The freshly built decomposition of every time block — what
    /// [`SequenceStore::save`] writes. Empty for an opened store (already
    /// on disk).
    persist: Vec<BuiltBlock>,
}

impl SequenceStore {
    /// Start building a store. The default shard count is 1 unless the
    /// `ATS_TEST_SHARDS` environment variable names another, and the
    /// default time-block count is 1 unless `ATS_TEST_TBLOCKS` names
    /// another (the CI hooks that rerun the whole suite in sharded and
    /// time-blocked modes).
    pub fn builder() -> StoreBuilder {
        let env_knob = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or(1)
                .max(1)
        };
        StoreBuilder {
            method: Method::Svdd,
            budget: SpaceBudget::from_percent(10.0),
            threads: 1,
            with_bloom: true,
            shards: env_knob("ATS_TEST_SHARDS"),
            time_blocks: env_knob("ATS_TEST_TBLOCKS"),
        }
    }

    /// Persist this store into `dir` as a crash-safe store directory
    /// (temp-dir staging + fsync + atomic rename; see
    /// [`ats_storage::store_dir`]): the sharded (v3) layout for a
    /// one-block store, the time-blocked (v4) layout for several. The
    /// on-disk shard ranges are the same block-aligned ranges the build
    /// passes ran over ([`StoreBuilder::shards`]).
    ///
    /// A store returned by [`SequenceStore::open`] is already on disk and
    /// returns [`AtsError::InvalidArgument`].
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<()> {
        if self.persist.is_empty() {
            return Err(AtsError::InvalidArgument(
                "cannot save an opened store: it is already on disk".into(),
            ));
        }
        save_blocks(
            dir.as_ref(),
            &self.persist,
            self.method.name(),
            &shard_ranges(self.rows(), self.shards),
        )
    }

    /// Open a store directory written by [`SequenceStore::save`] — the
    /// time-blocked v4 layout, the sharded v3 layout, or a legacy v2
    /// directory; the latter two are served as a single time block with
    /// identical semantics.
    ///
    /// Every manifest is validated here; every component file is
    /// checked against the CRC its manifest pins when a query first
    /// reads it, before any value derived from it is returned — a
    /// damaged file fails the queries that touch it with
    /// [`AtsError::Corrupt`] and no others
    /// ([`ats_storage::store_dir::validate_timeblocked_store_dir`]
    /// checks the whole directory up front). `pool_pages` bounds the
    /// total `U` buffer-pool budget, split across blocks and then
    /// shards. The returned store answers the same cell/sequence/aggregate queries
    /// as the in-memory one — `U` rows are paged in from the owning
    /// block's owning shard on demand, and range queries touch only the
    /// time blocks overlapping the range.
    pub fn open(dir: impl AsRef<Path>, pool_pages: usize) -> Result<SequenceStore> {
        let store = TimeBlockedStore::open(dir, pool_pages)?;
        let method = method_by_name(&store.manifest().method)
            .map_err(|e| AtsError::Corrupt(format!("manifest: {e}")))?;
        let shards = store.blocks().first().map_or(1, ShardedStore::shard_count);
        let time_blocks = store.blocks().len();
        Ok(SequenceStore {
            compressed: Arc::new(store),
            method,
            threads: 1,
            shards,
            time_blocks,
            persist: Vec::new(),
        })
    }

    /// The method used.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Number of sequences (`N`).
    pub fn rows(&self) -> usize {
        self.compressed.rows()
    }

    /// Sequence length (`M`).
    pub fn cols(&self) -> usize {
        self.compressed.cols()
    }

    /// Cell query: reconstruct the value at `(i, j)`.
    pub fn cell(&self, i: usize, j: usize) -> Result<f64> {
        self.compressed.cell(i, j)
    }

    /// Reconstruct a full sequence.
    pub fn sequence(&self, i: usize) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.cols()];
        self.compressed.row_into(i, &mut out)?;
        Ok(out)
    }

    /// Worker threads used for aggregate query scans (the builder's
    /// [`StoreBuilder::threads`] knob).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of row-range shards (the builder's
    /// [`StoreBuilder::shards`] knob; for an opened store, the shard
    /// count recorded in the manifest).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of time blocks (the builder's
    /// [`StoreBuilder::time_blocks`] knob; for an opened store, the
    /// block count recorded in the manifest).
    pub fn time_blocks(&self) -> usize {
        self.time_blocks
    }

    /// A `'static`, `Send + Sync`, `Clone` query engine sharing this
    /// store's compressed matrix (and, for an opened store, its page
    /// pool). This is the handle a long-lived server hands to its
    /// connection threads; it answers bitwise identically to the
    /// borrowed per-call engines the convenience methods below build.
    pub fn engine(&self) -> QueryEngine<'static> {
        QueryEngine::shared(Arc::clone(&self.compressed)).with_threads(self.threads)
    }

    /// Aggregate query over a selection, scanned with the store's
    /// configured thread count.
    pub fn aggregate(&self, sel: &Selection, f: AggregateFn) -> Result<f64> {
        self.engine().aggregate(sel, f)
    }

    /// Predicate-filtered aggregate (`where value > x`) over a
    /// selection, scanned with the store's configured thread count.
    /// Over a store carrying zone-map synopses, tiles the predicate's
    /// bounds prove all-out are skipped without reconstruction — the
    /// answer is bitwise identical either way.
    pub fn aggregate_where(
        &self,
        sel: &Selection,
        f: AggregateFn,
        pred: &ats_query::Predicate,
    ) -> Result<f64> {
        self.engine().aggregate_where(sel, f, pred)
    }

    /// Every aggregate function at once, over a single selection scan.
    pub fn aggregate_all(&self, sel: &Selection) -> Result<ats_query::engine::AggregateRow> {
        self.engine().aggregate_all(sel)
    }

    /// Batched cell queries: answers arrive in request order, computed
    /// with one `U`-row fetch per distinct requested row (the requests
    /// are sorted by `(row, column)` internally and grouped per row —
    /// see [`ats_query::BatchRequest`]), scanned with the store's
    /// configured thread count. Bitwise identical to calling
    /// [`SequenceStore::cell`] per request.
    pub fn batch_cells(&self, cells: &[(usize, usize)]) -> Result<Vec<f64>> {
        let req = ats_query::BatchRequest::new(cells.to_vec());
        Ok(self.engine().batch_cells(&req)?.into_values())
    }

    /// Compressed size in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.compressed.storage_bytes()
    }

    /// Space ratio vs the uncompressed matrix (Eq. 9's `s`).
    pub fn space_ratio(&self) -> f64 {
        self.compressed.space_ratio()
    }

    /// Borrow the underlying compressed matrix (for the experiment
    /// harness and persistence helpers).
    pub fn compressed(&self) -> &dyn CompressedMatrix {
        self.compressed.as_ref()
    }

    /// Compare this store against the original data (one streaming pass).
    pub fn error_report(&self, original: &dyn RowSource) -> Result<ErrorReport> {
        error_report(original, self.compressed.as_ref())
    }

    /// Batched append (§1 assumes updates are rare and batched): rebuild
    /// the store from a source containing old + new rows, keeping method
    /// and budget semantics. Returns the fresh store.
    pub fn rebuild_with<S: RowSource + ?Sized>(
        &self,
        source: &S,
        budget: SpaceBudget,
        threads: usize,
    ) -> Result<SequenceStore> {
        SequenceStore::builder()
            .method(self.method)
            .budget(budget)
            .threads(threads)
            .shards(self.shards)
            .time_blocks(self.time_blocks)
            .build(source)
    }
}

/// Convenience: compress an in-memory matrix with defaults (SVDD @ 10%).
pub fn compress_default(x: &Matrix) -> Result<SequenceStore> {
    SequenceStore::builder().build(x)
}

/// The method a name (a `--method` value, a manifest's `method` key)
/// denotes: the inverse of [`Method::name`].
pub fn method_by_name(name: &str) -> Result<Method> {
    match name {
        "svd" => Ok(Method::Svd),
        "svdd" => Ok(Method::Svdd),
        other => Err(AtsError::InvalidArgument(format!(
            "unknown method {other:?} (a store is one of: svd, svdd)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_query::selection::Axis;

    fn structured(n: usize, m: usize) -> Matrix {
        Matrix::from_fn(n, m, |i, j| {
            ((i % 5) + 1) as f64 * if j % 7 < 5 { 2.0 } else { 0.2 }
        })
    }

    #[test]
    fn builds_every_method() {
        let x = structured(300, 28);
        for method in [Method::Svd, Method::Svdd] {
            let store = SequenceStore::builder()
                .method(method)
                .budget(SpaceBudget::from_percent(25.0))
                .build(&x)
                .unwrap_or_else(|e| panic!("{method:?}: {e}"));
            assert_eq!(store.rows(), 300);
            assert_eq!(store.cols(), 28);
            assert!(store.space_ratio() <= 0.25 + 1e-9, "{method:?}");
            store.cell(0, 0).unwrap();
        }
    }

    #[test]
    fn svdd_default_reconstructs_structured_data() {
        let x = structured(300, 28);
        let store = compress_default(&x).unwrap();
        assert_eq!(store.method(), Method::Svdd);
        let r = store.error_report(&x).unwrap();
        assert!(r.rmspe < 0.05, "rmspe {}", r.rmspe);
    }

    #[test]
    fn aggregate_queries_close_to_truth() {
        let x = structured(300, 28);
        let store = SequenceStore::builder()
            .budget(SpaceBudget::from_percent(15.0))
            .build(&x)
            .unwrap();
        let sel = Selection {
            rows: Axis::Range(10, 200),
            cols: Axis::Range(0, 14),
        };
        let approx = store.aggregate(&sel, AggregateFn::Avg).unwrap();
        let exact = ats_query::engine::aggregate_exact(&x, &sel, AggregateFn::Avg).unwrap();
        assert!(
            (approx - exact).abs() / exact.abs() < 0.01,
            "{approx} vs {exact}"
        );
    }

    #[test]
    fn sequence_reconstruction() {
        let x = structured(100, 14);
        let store = SequenceStore::builder()
            .budget(SpaceBudget::from_percent(30.0))
            .build(&x)
            .unwrap();
        let seq = store.sequence(42).unwrap();
        assert_eq!(seq.len(), 14);
        for (a, b) in seq.iter().zip(x.row(42)) {
            assert!((a - b).abs() < 0.3);
        }
        assert!(store.sequence(100).is_err());
    }

    #[test]
    fn threads_knob_covers_build_and_query() {
        // One builder knob drives both the parallel build passes and the
        // threaded aggregate scans; results stay within float-merge noise
        // of the single-threaded store.
        let x = structured(300, 28);
        let budget = SpaceBudget::from_percent(20.0);
        let serial = SequenceStore::builder().budget(budget).build(&x).unwrap();
        let par = SequenceStore::builder()
            .budget(budget)
            .threads(4)
            .build(&x)
            .unwrap();
        assert_eq!(serial.threads(), 1);
        assert_eq!(par.threads(), 4);
        let sel = Selection {
            rows: Axis::Range(5, 280),
            cols: Axis::Range(0, 28),
        };
        for f in AggregateFn::ALL {
            let a = serial.aggregate(&sel, f).unwrap();
            let b = par.aggregate(&sel, f).unwrap();
            assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0), "{a} vs {b}");
        }
        let all = par.aggregate_all(&sel).unwrap();
        assert_eq!(all.count, 275 * 28);
    }

    #[test]
    fn method_names_parse() {
        for method in [Method::Svd, Method::Svdd] {
            assert_eq!(method_by_name(method.name()).unwrap(), method);
        }
        for other in ["zstd", "hc", "dct", "sampling", "SVDD"] {
            assert!(method_by_name(other).is_err(), "{other}");
        }
    }

    #[test]
    fn rebuild_with_appended_rows() {
        let x = structured(100, 14);
        let store = SequenceStore::builder()
            .budget(SpaceBudget::from_percent(20.0))
            .build(&x)
            .unwrap();
        let bigger = structured(150, 14);
        let rebuilt = store
            .rebuild_with(&bigger, SpaceBudget::from_percent(20.0), 1)
            .unwrap();
        assert_eq!(rebuilt.rows(), 150);
        assert_eq!(rebuilt.method(), Method::Svdd);
    }

    #[test]
    fn save_open_lifecycle_svdd_and_svd() {
        let x = structured(150, 21);
        for method in [Method::Svdd, Method::Svd] {
            let built = SequenceStore::builder()
                .method(method)
                .budget(SpaceBudget::from_percent(20.0))
                .build(&x)
                .unwrap();
            let tmp = ats_common::TestDir::new("ats-store-lifecycle");
            let dir = tmp.file("store");
            built.save(&dir).unwrap();
            let opened = SequenceStore::open(&dir, 64).unwrap();
            assert_eq!(opened.method(), method);
            assert_eq!(opened.rows(), 150);
            assert_eq!(opened.cols(), 21);
            assert_eq!(opened.storage_bytes(), built.storage_bytes());
            assert_eq!(
                opened.compressed().method_name(),
                format!("disk-{}", method.name())
            );
            // Bit-identical serving: same U/V/Λ bytes, same arithmetic.
            for i in (0..150).step_by(13) {
                for j in 0..21 {
                    assert_eq!(
                        opened.cell(i, j).unwrap(),
                        built.cell(i, j).unwrap(),
                        "{method:?} ({i},{j})"
                    );
                }
            }
            // Aggregates work against the disk-backed store too.
            let sel = Selection {
                rows: Axis::Range(0, 100),
                cols: Axis::Range(0, 10),
            };
            let a = built.aggregate(&sel, AggregateFn::Sum).unwrap();
            let b = opened.aggregate(&sel, AggregateFn::Sum).unwrap();
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
        }
    }

    #[test]
    fn open_missing_store_errors() {
        let tmp = ats_common::TestDir::new("ats-store-lifecycle");
        assert!(SequenceStore::open(tmp.file("absent"), 8).is_err());
    }

    #[test]
    fn bloom_knob_survives_save_open() {
        let x = structured(100, 14);
        for bloom in [false, true] {
            let built = SequenceStore::builder()
                .bloom(bloom)
                .budget(SpaceBudget::from_percent(15.0))
                .build(&x)
                .unwrap();
            let tmp = ats_common::TestDir::new("ats-store-lifecycle");
            let dir = tmp.file("store");
            built.save(&dir).unwrap();
            let opened = SequenceStore::open(&dir, 16).unwrap();
            assert_eq!(
                opened.storage_bytes(),
                built.storage_bytes(),
                "bloom={bloom}"
            );
            let manifest = TimeBlockedStore::open(&dir, 16).unwrap().manifest().clone();
            assert_eq!(manifest.bloom, bloom, "flag restored from the manifest");
        }
    }

    #[test]
    fn sharded_build_equivalent_to_monolithic() {
        // The whole point of the sharded refactor: R is a layout knob,
        // not a semantics knob. shards(1) and shards(4) must agree on
        // k_opt, the delta set, and every reconstructed cell — bit for
        // bit — for both SVD and SVDD, in memory and through disk.
        let x = structured(300, 28);
        for method in [Method::Svd, Method::Svdd] {
            let mono = SequenceStore::builder()
                .method(method)
                .budget(SpaceBudget::from_percent(20.0))
                .shards(1)
                .build(&x)
                .unwrap();
            let sharded = SequenceStore::builder()
                .method(method)
                .budget(SpaceBudget::from_percent(20.0))
                .shards(4)
                .threads(3)
                .build(&x)
                .unwrap();
            // Same k and delta count fall out of equal storage bytes.
            assert_eq!(mono.storage_bytes(), sharded.storage_bytes(), "{method:?}");
            for i in 0..300 {
                for j in 0..28 {
                    assert_eq!(
                        mono.cell(i, j).unwrap(),
                        sharded.cell(i, j).unwrap(),
                        "{method:?} ({i},{j})"
                    );
                }
            }
            // And the two on-disk layouts serve identically.
            let tmp = ats_common::TestDir::new("ats-store-shardeq");
            let (d1, d4) = (tmp.file("r1"), tmp.file("r4"));
            mono.save(&d1).unwrap();
            sharded.save(&d4).unwrap();
            let o1 = SequenceStore::open(&d1, 64).unwrap();
            let o4 = SequenceStore::open(&d4, 64).unwrap();
            assert_eq!(o1.shards(), 1, "{method:?}");
            assert_eq!(o4.shards(), 4, "{method:?}");
            for i in (0..300).step_by(13) {
                for j in 0..28 {
                    assert_eq!(o1.cell(i, j).unwrap(), o4.cell(i, j).unwrap());
                    assert_eq!(o1.cell(i, j).unwrap(), mono.cell(i, j).unwrap());
                }
            }
        }
    }

    #[test]
    fn legacy_v2_store_opens_as_single_shard() {
        // A v2 directory written by the retired legacy writer is exactly
        // a one-shard, one-block store: SequenceStore::open serves the
        // committed golden bytes unchanged, cells, batches and
        // aggregates alike.
        let tmp = ats_common::TestDir::new("ats-store-v2compat");
        let (dir, truth) = crate::shard::tests::v2_fixture(&tmp);
        let opened = SequenceStore::open(&dir, 64).unwrap();
        assert_eq!(opened.method(), Method::Svdd);
        assert_eq!((opened.shards(), opened.time_blocks()), (1, 1));
        assert_eq!((opened.rows(), opened.cols()), (40, 24));
        let mut cells = Vec::new();
        let mut sum = ats_common::OnlineStats::new();
        for i in 0..40 {
            for j in 0..24 {
                assert_eq!(
                    opened.cell(i, j).unwrap().to_bits(),
                    truth[(i, j)].to_bits()
                );
                cells.push((i, j));
                sum.push(truth[(i, j)]);
            }
        }
        for (&(i, j), got) in cells.iter().zip(opened.batch_cells(&cells).unwrap()) {
            assert_eq!(got.to_bits(), truth[(i, j)].to_bits(), "batch ({i},{j})");
        }
        let total = opened
            .aggregate(&Selection::all(), AggregateFn::Sum)
            .unwrap();
        assert_eq!(total.to_bits(), sum.sum().to_bits());
        // Already on disk, and not in a layout this build writes.
        assert!(opened.save(tmp.file("resave")).is_err());
    }
}
