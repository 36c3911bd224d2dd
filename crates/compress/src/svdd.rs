//! SVDD — SVD with Deltas (§4.2): the paper's contribution.
//!
//! Plain SVD has excellent *average* error but terrible *worst-case*
//! error: a handful of cells (spiky customer-days) reconstruct wildly
//! wrong, and the worst case grows with `N` (Table 4). SVDD trades some
//! principal components for explicit `(row, col, delta)` corrections on
//! exactly those cells, solving:
//!
//! > **Given** a space budget `s%`, **find** the cutoff `k_opt`
//! > minimizing total reconstruction error when the leftover space holds
//! > `γ_k` cell deltas.
//!
//! The build is the paper's **three-pass algorithm** (Fig. 5):
//!
//! 1. **Pass 1** — accumulate `C = XᵀX`, eigendecompose, keep `k_max`
//!    eigenvectors; size `γ_k` for every candidate `k`; create one
//!    bounded priority queue per candidate.
//! 2. **Pass 2** — for each row, compute its projections once and sweep
//!    the reconstruction cumulatively in `k`, offering each cell's
//!    squared error to every candidate queue and accumulating per-`k`
//!    SSE. Pick `k_opt` minimizing `SSE_k − (error mass of the γ_k kept
//!    outliers)`.
//! 3. **Pass 3** — emit `U` truncated to `k_opt` (Eq. 11) and freeze the
//!    winning queue into the [`DeltaStore`] (hash table + Bloom filter).
//!
//! There is one build, [`SvddCompressed::compress_sharded`], and
//! [`SvddCompressed::compress`] is that build over a single shard. All
//! three passes are row-partitioned and run their workers through
//! [`fork_join`]: pass 1 folds fixed-block partial Gram matrices in
//! block order ([`compute_gram_sharded`]), pass 2 gives each job private
//! per-candidate [`TopK`] queues and per-block SSE partials over a
//! disjoint row range (merged in row order with [`TopK::merge`] — the
//! retained outlier set is identical to a single scan), and pass 3 hands
//! each worker a disjoint `&mut` band of `U`. The result is bitwise the
//! same for every block-aligned shard count and every thread count, and
//! each pass still reads every row exactly once, so the Fig. 5 I/O bound
//! (three sequential passes) is preserved.
//!
//! The naive alternative (Fig. 4) — recompute an SVD per candidate `k` —
//! is provided as [`SvddCompressed::compress_naive`] for tests and the
//! ablation benchmark.

use crate::delta::{DeltaStore, DELTA_BYTES};
use crate::gram::{compute_gram_sharded, shard_ranges, GRAM_BLOCK_ROWS};
use crate::method::{svd_bytes, CompressedMatrix, SpaceBudget};
use crate::par::fork_join;
use crate::svd::{check_nonempty, emit_u, leading_factors, SvdCompressed};
use ats_common::{AtsError, Result, TopK};
use ats_linalg::{sym_eigen, vecops, Matrix};
use ats_storage::RowSource;

/// Options for [`SvddCompressed::compress`].
#[derive(Debug, Clone)]
pub struct SvddOptions {
    /// The space budget the compressed form must fit in.
    pub budget: SpaceBudget,
    /// Upper bound on candidate cutoffs; defaults to the largest `k`
    /// the budget could hold with zero deltas (`k_max` in the paper).
    pub k_max: Option<usize>,
    /// Attach the §4.2 Bloom filter in front of the delta hash table.
    pub with_bloom: bool,
    /// Worker threads for all three passes.
    pub threads: usize,
    /// Soft cap on the total number of queue entries across all candidate
    /// `k` values during pass 2. If exceeded, the candidate set is
    /// thinned (smallest-`k` candidates, which have the largest `γ_k`,
    /// are dropped first). Bounds pass-2 memory on huge datasets.
    ///
    /// With `threads > 1` each worker holds a private copy of the queues
    /// (a merge needs full-capacity shards to stay exact), so the peak
    /// entry count is `threads ×` this cap. Thinning itself depends only
    /// on the γ sizes, never on `threads`, so the candidate set — and
    /// hence `k_opt` — is the same at any thread count.
    pub max_queue_entries: usize,
}

impl SvddOptions {
    /// Defaults for a given budget.
    pub fn new(budget: SpaceBudget) -> Self {
        SvddOptions {
            budget,
            k_max: None,
            with_bloom: true,
            threads: 1,
            max_queue_entries: 8_000_000,
        }
    }
}

/// Per-candidate diagnostics from the `k_opt` search.
#[derive(Debug, Clone, Copy)]
pub struct KCandidate {
    /// Candidate cutoff.
    pub k: usize,
    /// Outliers affordable at this cutoff (`γ_k`).
    pub gamma: usize,
    /// Total squared reconstruction error before deltas.
    pub sse_raw: f64,
    /// Squared error remaining after the `γ_k` kept outliers are patched.
    pub sse_after_deltas: f64,
}

/// A matrix compressed by SVD-with-deltas.
#[derive(Debug, Clone)]
pub struct SvddCompressed {
    svd: SvdCompressed,
    deltas: DeltaStore,
    candidates: Vec<KCandidate>,
}

/// Queue item: (row, col, delta).
type Outlier = (u32, u32, f64);

/// One worker's pass-2 output: a bounded queue per candidate `k` plus
/// per-candidate SSE partials, kept **per [`GRAM_BLOCK_ROWS`]-row block**
/// (`blocks[b][ci]` covers rows `start + b·B .. start + (b+1)·B`). Folding
/// the blocks in ascending global row order reproduces the same summation
/// order for every block-aligned partitioning of the scan, which is what
/// makes the `k_opt` choice bit-identical between a monolithic and a
/// sharded build.
type Pass2Shard = (Vec<TopK<Outlier>>, Vec<Vec<f64>>);

/// Pass-2 kernel over rows `[start, end)`: offer every cell's squared
/// reconstruction error to private per-candidate queues and accumulate
/// per-candidate SSE. Each pass-2 job runs this over its own disjoint
/// range.
///
/// Per-cell errors depend only on the row, so shards produce exactly the
/// values a single scan would. SSE is accumulated per fixed 32-row block
/// and each cell is offered with its global ordinal as a tie-break rank,
/// so as long as every worker range starts on a block boundary, the
/// folded SSE *and* the retained outlier set are bit-identical for any
/// partitioning of the rows — across thread counts and shard counts.
///
/// `candidate_ks` is ascending in `k`, so the cumulative-k sweep walks
/// the candidates directly, accumulating each span `(k_prev, k]` once and
/// never touching components beyond the largest candidate. Rows of all
/// zeros reconstruct exactly at every `k` and are skipped outright, and
/// zero-error cells are never offered (they would burn delta slots on
/// no-op corrections).
fn pass2_range<S: RowSource + ?Sized>(
    source: &S,
    v_full: &Matrix,
    candidate_ks: &[(usize, usize)],
    start: usize,
    end: usize,
) -> Result<Pass2Shard> {
    let k_hi = candidate_ks.last().map_or(0, |&(k, _)| k);
    let mut queues: Vec<TopK<Outlier>> = candidate_ks
        .iter()
        .map(|&(_, gamma)| TopK::new(gamma))
        .collect();
    let num_blocks = (end - start).div_ceil(GRAM_BLOCK_ROWS).max(1);
    let mut sse_blocks = vec![vec![0.0f64; candidate_ks.len()]; num_blocks];
    let mut proj = vec![0.0f64; k_hi];
    source.scan_range(start, end, &mut |i, row| {
        // proj[j] = x · v_j = λ_j u_{i,j}
        proj.fill(0.0);
        let mut all_zero = true;
        for (l, &xl) in row.iter().enumerate() {
            if xl == 0.0 {
                continue;
            }
            all_zero = false;
            // Widened axpy: same op (`p += x_l · v_{l,j}`), same
            // ascending-j order, bitwise unchanged.
            vecops::axpy(xl, &v_full.row(l)[..k_hi], &mut proj);
        }
        if all_zero {
            return Ok(());
        }
        let block = (i - start) / GRAM_BLOCK_ROWS;
        let ord_base = (i as u64) * (row.len() as u64);
        for (j, &x) in row.iter().enumerate() {
            let v_row = v_full.row(j);
            let mut acc = 0.0f64;
            let mut k_prev = 0usize;
            let ord = ord_base + j as u64;
            for (ci, &(k, _)) in candidate_ks.iter().enumerate() {
                // `acc` carries across candidate spans, so this MUST stay
                // an incremental scalar chain — a per-span dot would
                // reassociate the sum and break the bitwise equivalence
                // between sharded and monolithic builds.
                for t in k_prev..k {
                    acc = vecops::fmadd(proj[t], v_row[t], acc);
                }
                k_prev = k;
                let err = x - acc;
                let sq = err * err;
                sse_blocks[block][ci] += sq;
                if sq > 0.0 && queues[ci].would_accept_ranked(sq, ord) {
                    queues[ci].offer_ranked(sq, ord, (i as u32, j as u32, err));
                }
            }
        }
        Ok(())
    })?;
    Ok((queues, sse_blocks))
}

/// Fold one worker's per-block SSE partials into the global accumulator.
/// Callers fold workers in ascending row order, so the overall summation
/// order is "block 0, block 1, …" no matter how the scan was partitioned.
fn fold_sse(sse: &mut [f64], blocks: Vec<Vec<f64>>) {
    for block in blocks {
        for (a, s) in sse.iter_mut().zip(block) {
            *a += s;
        }
    }
}

/// Candidate sizing and thinning. Depends only on dimensions, budget,
/// and `max_queue_entries` — never on the row partition or thread
/// count, so `k_opt`'s candidate set is identical for any sharding.
fn size_candidates(
    n: usize,
    m: usize,
    opts: &SvddOptions,
    k_max: usize,
) -> Result<Vec<(usize, usize)>> {
    // γ_k for every candidate k (k where the SVD alone busts the
    // budget are infeasible).
    let mut candidate_ks: Vec<(usize, usize)> = (1..=k_max)
        .filter_map(|k| {
            let sb = svd_bytes(n, m, k);
            if sb > opts.budget.bytes(n, m) {
                None
            } else {
                Some((k, opts.budget.deltas_affordable(n, m, sb, DELTA_BYTES)))
            }
        })
        .collect();
    if candidate_ks.is_empty() {
        return Err(AtsError::Budget(
            "no feasible cutoff k under this budget".into(),
        ));
    }
    // Thin candidates if the queues would take too much memory:
    // drop the largest-γ candidate (always among the smallest k)
    // until the rest fit, always keeping at least one. Sorting a
    // drop order once is O(C log C) where the old repeated
    // max-scan-and-remove was O(C²); ties drop the larger k first,
    // exactly as the repeated scan did.
    let mut total: usize = candidate_ks.iter().map(|&(_, g)| g).sum();
    if total > opts.max_queue_entries && candidate_ks.len() > 1 {
        let mut order: Vec<usize> = (0..candidate_ks.len()).collect();
        order.sort_by(|&a, &b| {
            let (ka, ga) = candidate_ks[a];
            let (kb, gb) = candidate_ks[b];
            gb.cmp(&ga).then(kb.cmp(&ka))
        });
        let mut keep = vec![true; candidate_ks.len()];
        let mut remaining = candidate_ks.len();
        for &i in &order {
            if total <= opts.max_queue_entries || remaining == 1 {
                break;
            }
            keep[i] = false;
            remaining -= 1;
            total -= candidate_ks[i].1;
        }
        let mut idx = 0usize;
        candidate_ks.retain(|_| {
            let kept = keep.get(idx).copied().unwrap_or(true);
            idx += 1;
            kept
        });
    }
    Ok(candidate_ks)
}

impl SvddCompressed {
    /// Shared guard + `k_max` sizing for every build.
    fn check_dims(source: &(impl RowSource + ?Sized), opts: &SvddOptions) -> Result<usize> {
        let (n, m) = check_nonempty(source)?;
        let budget_k_max = opts.budget.max_svd_k(n, m);
        let k_max = opts.k_max.unwrap_or(budget_k_max).min(m);
        if k_max == 0 {
            return Err(AtsError::Budget(format!(
                "budget {:.3}% cannot hold even one principal component",
                opts.budget.fraction * 100.0
            )));
        }
        Ok(k_max)
    }

    /// The paper's three-pass build (Fig. 5):
    /// [`SvddCompressed::compress_sharded`] over one shard.
    pub fn compress<S: RowSource + ?Sized>(source: &S, opts: &SvddOptions) -> Result<Self> {
        Self::compress_sharded(source, opts, &shard_ranges(source.rows(), 1))
    }

    /// The three-pass build along the row ranges `ranges`, so the store
    /// layer can partition `U` and the delta set per shard.
    ///
    /// - **Pass 1** accumulates one mergeable Gram partial per fixed
    ///   32-row block and folds in global block order
    ///   ([`compute_gram_sharded`]), so `V/Λ` are **bit-identical** for
    ///   any block-aligned partition — `shards(1)` and `shards(4)` see
    ///   the same factors.
    /// - **Pass 2** keeps per-shard `TopK` heaps and per-block SSE
    ///   partials, merged globally in shard order with [`TopK::merge`]:
    ///   per-cell errors depend only on the row and the (identical)
    ///   factors, cells are ranked by their global ordinal so boundary
    ///   ties resolve the same way under any partitioning, and the SSE
    ///   folds in fixed block order — so `k_opt` and the delta set are
    ///   chosen globally and **bit-identically** to the one-shard build.
    /// - **Pass 3** emits `U` over disjoint row bands (bitwise
    ///   independent of both partitioning and threads); the caller
    ///   slices it per shard.
    pub fn compress_sharded<S: RowSource + ?Sized>(
        source: &S,
        opts: &SvddOptions,
        ranges: &[(usize, usize)],
    ) -> Result<Self> {
        let (n, m) = (source.rows(), source.cols());
        let k_max = Self::check_dims(source, opts)?;
        let threads = opts.threads.max(1);

        // ---- Pass 1: blocked Gram fold, eigendecomposition ----
        let c = compute_gram_sharded(source, ranges, threads)?;
        // No rank clamp: SVDD keeps `k_max` pairs and lets pass 2 choose.
        let (lambda_all, v_full) = leading_factors(&sym_eigen(&c)?, k_max)?;
        let candidate_ks = size_candidates(n, m, opts, k_max)?;

        // ---- Pass 2: one heap set per shard, merged in shard order ----
        // Shards short on parallelism are subdivided so ~`threads` jobs
        // run at once; jobs execute in waves and always merge in
        // ascending row order. Sub-job boundaries are rounded up to block
        // multiples, so with block-aligned `ranges` (what [`shard_ranges`]
        // produces) every job starts on a block boundary and the blocked
        // SSE fold — hence the `k_opt` choice and the retained delta set —
        // is bit-identical for every shard count and thread count.
        let mut jobs: Vec<(usize, usize)> = Vec::new();
        for &(start, end) in ranges {
            let split = threads.div_ceil(ranges.len().max(1)).max(1);
            let len = end - start;
            let split = split.min(len);
            let chunk = len.div_ceil(split.max(1)).next_multiple_of(GRAM_BLOCK_ROWS);
            let mut s = start;
            while s < end {
                let e = (s + chunk).min(end);
                jobs.push((s, e));
                s = e;
            }
        }
        let mut queues: Vec<TopK<Outlier>> = candidate_ks
            .iter()
            .map(|&(_, gamma)| TopK::new(gamma))
            .collect();
        let mut sse = vec![0.0f64; candidate_ks.len()];
        for wave in jobs.chunks(threads) {
            let shards = fork_join(wave, "svdd pass-2", |&(start, end)| {
                pass2_range(source, &v_full, &candidate_ks, start, end)
            })?;
            for (qs, blocks) in shards {
                for (acc, q) in queues.iter_mut().zip(qs) {
                    acc.merge(q);
                }
                fold_sse(&mut sse, blocks);
            }
        }

        // Pick k_opt: smallest residual after the kept outliers go exact.
        let mut candidates = Vec::with_capacity(candidate_ks.len());
        let mut best = 0usize;
        let mut best_eps = f64::INFINITY;
        for (ci, &(k, gamma)) in candidate_ks.iter().enumerate() {
            let eps = sse[ci] - queues[ci].priority_sum();
            candidates.push(KCandidate {
                k,
                gamma,
                sse_raw: sse[ci],
                sse_after_deltas: eps,
            });
            if eps < best_eps {
                best_eps = eps;
                best = ci;
            }
        }
        let (k_opt, _) = candidate_ks[best];
        let winner = queues.swap_remove(best);

        // ---- Pass 3: emit U truncated to k_opt ----
        let lambda = lambda_all[..k_opt].to_vec();
        let v = v_full.slice_cols(0, k_opt)?;
        let mut u = Matrix::zeros(n, k_opt);
        emit_u(source, &v, &lambda, &mut u, threads)?;

        let deltas = DeltaStore::build(
            m,
            winner
                .into_sorted_vec()
                .into_iter()
                .map(|(_, (r, c, d))| (r as usize, c as usize, d)),
            opts.with_bloom,
        )?;

        Ok(SvddCompressed {
            svd: SvdCompressed::from_parts(u, lambda, v),
            deltas,
            candidates,
        })
    }

    /// The straightforward, inefficient algorithm of Fig. 4: one full SVD
    /// compression and one full error pass **per candidate `k`**
    /// (`3·k_max` passes total). Exists to validate the 3-pass algorithm
    /// and to measure its speedup; picks the same `k_opt` up to ties.
    pub fn compress_naive<S: RowSource + ?Sized>(source: &S, opts: &SvddOptions) -> Result<Self> {
        let (n, m) = (source.rows(), source.cols());
        let k_max = Self::check_dims(source, opts)?;
        let mut best: Option<(f64, SvdCompressed, TopK<Outlier>, Vec<KCandidate>)> = None;
        let mut all_candidates = Vec::new();
        for k in 1..=k_max {
            let sb = svd_bytes(n, m, k);
            if sb > opts.budget.bytes(n, m) {
                continue;
            }
            let gamma = opts.budget.deltas_affordable(n, m, sb, DELTA_BYTES);
            let svd = SvdCompressed::compress(source, k, opts.threads.max(1))?;
            let mut queue: TopK<Outlier> = TopK::new(gamma);
            let mut sse_raw = 0.0;
            let mut recon = vec![0.0; m];
            source.for_each_row(&mut |i, row| {
                svd.row_into(i, &mut recon)?;
                for (j, (&x, &r)) in row.iter().zip(recon.iter()).enumerate() {
                    let err = x - r;
                    let sq = err * err;
                    sse_raw += sq;
                    // Same zero-error guard as the 3-pass kernel, so both
                    // algorithms keep comparable delta sets.
                    if sq > 0.0 && queue.would_accept(sq) {
                        queue.offer(sq, (i as u32, j as u32, err));
                    }
                }
                Ok(())
            })?;
            let eps = sse_raw - queue.priority_sum();
            all_candidates.push(KCandidate {
                k,
                gamma,
                sse_raw,
                sse_after_deltas: eps,
            });
            let better = best.as_ref().is_none_or(|(b, ..)| eps < *b);
            if better {
                best = Some((eps, svd, queue, all_candidates.clone()));
            }
        }
        let (_, svd, queue, _) =
            best.ok_or_else(|| AtsError::Budget("no feasible cutoff k".into()))?;
        let deltas = DeltaStore::build(
            m,
            queue
                .into_sorted_vec()
                .into_iter()
                .map(|(_, (r, c, d))| (r as usize, c as usize, d)),
            opts.with_bloom,
        )?;
        Ok(SvddCompressed {
            svd,
            deltas,
            candidates: all_candidates,
        })
    }

    /// The chosen cutoff `k_opt`.
    pub fn k_opt(&self) -> usize {
        self.svd.k()
    }

    /// Number of stored deltas (`γ_{k_opt}` actually used).
    pub fn num_deltas(&self) -> usize {
        self.deltas.len()
    }

    /// The underlying truncated SVD.
    pub fn svd(&self) -> &SvdCompressed {
        &self.svd
    }

    /// The delta store.
    pub fn deltas(&self) -> &DeltaStore {
        &self.deltas
    }

    /// Diagnostics of the `k_opt` search (one entry per candidate `k`).
    pub fn candidates(&self) -> &[KCandidate] {
        &self.candidates
    }
}

impl CompressedMatrix for SvddCompressed {
    fn rows(&self) -> usize {
        self.svd.rows()
    }

    fn cols(&self) -> usize {
        self.svd.cols()
    }

    /// SVD reconstruction (Eq. 12) plus one hash probe; outlier cells
    /// "enjoy error-free reconstruction" (§4.2).
    fn cell(&self, i: usize, j: usize) -> Result<f64> {
        let base = self.svd.cell(i, j)?;
        Ok(match self.deltas.probe(i, j) {
            Some(delta) => base + delta,
            None => base,
        })
    }

    fn row_into(&self, i: usize, out: &mut [f64]) -> Result<()> {
        self.svd.row_into(i, out)?;
        self.deltas.patch_row(i, out);
        Ok(())
    }

    /// SVD multi-cell kernel, then the row's deltas looked up once and
    /// matched to the requested cells — nothing more than one offset
    /// compare when the row has none.
    fn cells_in_row(&self, i: usize, cols: &[usize], out: &mut [f64]) -> Result<()> {
        self.svd.cells_in_row(i, cols, out)?;
        self.deltas.patch_cells(i, cols, out);
        Ok(())
    }

    /// SVD blocked multi-row kernel, then each row's delta run patched
    /// in — the same additions as [`CompressedMatrix::row_into`] per row.
    fn rows_into(&self, rows: &[usize], out: &mut [f64]) -> Result<()> {
        self.svd.rows_into(rows, out)?;
        let m = self.cols();
        if m == 0 {
            return Ok(());
        }
        for (&i, orow) in rows.iter().zip(out.chunks_mut(m)) {
            self.deltas.patch_row(i, orow);
        }
        Ok(())
    }

    fn storage_bytes(&self) -> usize {
        self.svd.storage_bytes() + self.deltas.storage_bytes()
    }

    fn method_name(&self) -> &'static str {
        "svdd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Low-rank data + a few huge spikes: the shape SVDD is built for.
    fn spiky_matrix(n: usize, m: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_fn(n, 2, |_, _| rng.gen_range(0.0..2.0));
        let b = Matrix::from_fn(2, m, |_, _| rng.gen_range(0.0..2.0));
        let mut x = a.matmul(&b).unwrap();
        for _ in 0..(n * m / 50).max(3) {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..m);
            x[(i, j)] += rng.gen_range(50.0..200.0);
        }
        x
    }

    fn sse(c: &dyn CompressedMatrix, x: &Matrix) -> f64 {
        let mut total = 0.0;
        let mut row = vec![0.0; x.cols()];
        for i in 0..x.rows() {
            c.row_into(i, &mut row).unwrap();
            for (a, b) in row.iter().zip(x.row(i)) {
                total += (a - b) * (a - b);
            }
        }
        total
    }

    fn max_err(c: &dyn CompressedMatrix, x: &Matrix) -> f64 {
        let mut worst = 0.0f64;
        let mut row = vec![0.0; x.cols()];
        for i in 0..x.rows() {
            c.row_into(i, &mut row).unwrap();
            for (a, b) in row.iter().zip(x.row(i)) {
                worst = worst.max((a - b).abs());
            }
        }
        worst
    }

    #[test]
    fn beats_plain_svd_at_equal_space() {
        let x = spiky_matrix(120, 20, 1);
        let budget = SpaceBudget::from_percent(20.0);
        let svdd = SvddCompressed::compress(&x, &SvddOptions::new(budget)).unwrap();
        let svd = SvdCompressed::compress_budget(&x, budget, 1).unwrap();
        assert!(svdd.storage_bytes() <= budget.bytes(120, 20));
        let (e_svdd, e_svd) = (sse(&svdd, &x), sse(&svd, &x));
        assert!(
            e_svdd <= e_svd * 1.0001,
            "SVDD {e_svdd} worse than SVD {e_svd}"
        );
        // Worst case must be dramatically better (Fig. 7/Table 3 shape).
        assert!(max_err(&svdd, &x) < max_err(&svd, &x));
    }

    #[test]
    fn outlier_cells_reconstruct_exactly() {
        let x = spiky_matrix(60, 10, 2);
        let svdd = SvddCompressed::compress(&x, &SvddOptions::new(SpaceBudget::from_percent(25.0)))
            .unwrap();
        assert!(svdd.num_deltas() > 0, "no deltas kept");
        for (i, j, _) in svdd.deltas().iter() {
            let got = svdd.cell(i, j).unwrap();
            assert!(
                (got - x[(i, j)]).abs() < 1e-9,
                "outlier ({i},{j}) not exact: {got} vs {}",
                x[(i, j)]
            );
        }
    }

    #[test]
    fn respects_budget() {
        // N ≫ M so even a 5% budget affords a component (Eq. 1's regime).
        let x = spiky_matrix(500, 30, 3);
        for pct in [5.0, 10.0, 20.0, 40.0] {
            let b = SpaceBudget::from_percent(pct);
            let svdd = SvddCompressed::compress(&x, &SvddOptions::new(b)).unwrap();
            assert!(
                svdd.storage_bytes() <= b.bytes(500, 30),
                "{pct}%: {} > {}",
                svdd.storage_bytes(),
                b.bytes(500, 30)
            );
        }
    }

    #[test]
    fn matches_naive_algorithm() {
        let x = spiky_matrix(50, 8, 4);
        let opts = SvddOptions::new(SpaceBudget::from_percent(30.0));
        let fast = SvddCompressed::compress(&x, &opts).unwrap();
        let naive = SvddCompressed::compress_naive(&x, &opts).unwrap();
        // Same candidate diagnostics...
        assert_eq!(fast.candidates().len(), naive.candidates().len());
        for (a, b) in fast.candidates().iter().zip(naive.candidates()) {
            assert_eq!(a.k, b.k);
            assert_eq!(a.gamma, b.gamma);
            assert!(
                (a.sse_raw - b.sse_raw).abs() <= 1e-6 * a.sse_raw.max(1.0),
                "k={}: {} vs {}",
                a.k,
                a.sse_raw,
                b.sse_raw
            );
        }
        // ...and the same chosen cutoff.
        assert_eq!(fast.k_opt(), naive.k_opt());
        assert!((sse(&fast, &x) - sse(&naive, &x)).abs() < 1e-6 * sse(&fast, &x).max(1.0));
    }

    #[test]
    fn three_passes_exactly() {
        let dir = ats_common::TestDir::new("ats-svdd3p");
        let path = dir.file("x.atsm");
        let x = spiky_matrix(80, 10, 5);
        ats_storage::file::write_matrix(&path, &x).unwrap();
        let f = ats_storage::MatrixFile::open(&path).unwrap();
        SvddCompressed::compress(&f, &SvddOptions::new(SpaceBudget::from_percent(20.0))).unwrap();
        assert_eq!(
            f.stats().logical_reads(),
            3 * 80,
            "Fig. 5 promises exactly three passes"
        );
    }

    #[test]
    fn tiny_budget_uses_all_space_for_pcs() {
        // §5.1: "for very small storage sizes ... it turned out best to
        // devote all the available storage to keeping as many principal
        // components as possible". With a budget of ~1 PC, k_opt is k_max
        // and γ is tiny/zero.
        let x = spiky_matrix(1500, 80, 6);
        let b = SpaceBudget::from_percent(1.5); // fits exactly one PC
        assert_eq!(b.max_svd_k(1500, 80), 1);
        let svdd = SvddCompressed::compress(&x, &SvddOptions::new(b)).unwrap();
        assert_eq!(svdd.k_opt(), 1);
        assert!(svdd.storage_bytes() <= b.bytes(1500, 80));
    }

    #[test]
    fn budget_too_small_errors() {
        let x = spiky_matrix(50, 10, 7);
        let r = SvddCompressed::compress(&x, &SvddOptions::new(SpaceBudget { fraction: 1e-7 }));
        assert!(matches!(r, Err(AtsError::Budget(_))));
    }

    #[test]
    fn bloom_filter_optional_and_equivalent() {
        let x = spiky_matrix(60, 12, 8);
        let b = SpaceBudget::from_percent(25.0);
        let mut o1 = SvddOptions::new(b);
        o1.with_bloom = true;
        let mut o2 = SvddOptions::new(b);
        o2.with_bloom = false;
        let c1 = SvddCompressed::compress(&x, &o1).unwrap();
        let c2 = SvddCompressed::compress(&x, &o2).unwrap();
        assert!(c1.deltas().has_bloom());
        assert!(!c2.deltas().has_bloom());
        for i in (0..60).step_by(7) {
            for j in 0..12 {
                assert_eq!(c1.cell(i, j).unwrap(), c2.cell(i, j).unwrap());
            }
        }
    }

    #[test]
    fn queue_thinning_still_works() {
        let x = spiky_matrix(100, 16, 9);
        let mut opts = SvddOptions::new(SpaceBudget::from_percent(30.0));
        opts.max_queue_entries = 50; // absurdly small: forces thinning
        let svdd = SvddCompressed::compress(&x, &opts).unwrap();
        assert!(!svdd.candidates().is_empty());
        assert!(svdd.storage_bytes() <= opts.budget.bytes(100, 16));
    }

    #[test]
    fn candidate_diagnostics_consistent() {
        let x = spiky_matrix(80, 10, 10);
        let svdd = SvddCompressed::compress(&x, &SvddOptions::new(SpaceBudget::from_percent(20.0)))
            .unwrap();
        for c in svdd.candidates() {
            assert!(c.sse_after_deltas <= c.sse_raw + 1e-9);
            assert!(c.sse_after_deltas >= -1e-6);
        }
        // k_opt is the argmin of sse_after_deltas
        let best = svdd
            .candidates()
            .iter()
            .min_by(|a, b| a.sse_after_deltas.partial_cmp(&b.sse_after_deltas).unwrap())
            .unwrap();
        assert_eq!(best.k, svdd.k_opt());
    }

    #[test]
    fn empty_matrix_rejected() {
        let x = Matrix::zeros(0, 0);
        assert!(
            SvddCompressed::compress(&x, &SvddOptions::new(SpaceBudget::from_percent(10.0)))
                .is_err()
        );
    }

    #[test]
    fn every_build_entry_point_rejects_empty_input() {
        let b = SpaceBudget::from_percent(40.0);
        for x in [Matrix::zeros(0, 5), Matrix::zeros(5, 0)] {
            let (opts, one) = (SvddOptions::new(b), shard_ranges(x.rows(), 1));
            let errors = [
                SvddCompressed::compress(&x, &opts).err(),
                SvddCompressed::compress_sharded(&x, &opts, &one).err(),
                SvddCompressed::compress_naive(&x, &opts).err(),
                SvdCompressed::compress(&x, 2, 1).err(),
                SvdCompressed::compress_sharded(&x, 2, 1, &one).err(),
                SvdCompressed::compress_budget(&x, b, 1).err(),
                SvdCompressed::compress_budget_sharded(&x, b, 1, &one).err(),
            ];
            for (entry, e) in errors.into_iter().enumerate() {
                assert!(
                    matches!(e, Some(AtsError::InvalidArgument(_))),
                    "entry point {entry} on {}×{}: {e:?}",
                    x.rows(),
                    x.cols()
                );
            }
        }
    }

    /// Delta set as a sorted, comparable list of (row, col, delta).
    fn sorted_deltas(c: &SvddCompressed) -> Vec<(usize, usize, f64)> {
        let mut d: Vec<_> = c.deltas().iter().collect();
        d.sort_by_key(|a| (a.0, a.1));
        d
    }

    #[test]
    fn parallel_build_matches_serial() {
        // Odd N to exercise ragged chunks at every thread count.
        let x = spiky_matrix(203, 12, 12);
        let opts = SvddOptions::new(SpaceBudget::from_percent(20.0));
        let serial = SvddCompressed::compress(&x, &opts).unwrap();
        for threads in [2, 3, 4, 8] {
            let mut par_opts = opts.clone();
            par_opts.threads = threads;
            let par = SvddCompressed::compress(&x, &par_opts).unwrap();
            // Same cutoff, the identical delta set and the identical SSE:
            // the blocked folds of passes 1 and 2 do not depend on the
            // thread count.
            assert_eq!(par.k_opt(), serial.k_opt(), "threads={threads}");
            assert_eq!(
                sorted_deltas(&par),
                sorted_deltas(&serial),
                "threads={threads}"
            );
            assert_eq!(par.candidates().len(), serial.candidates().len());
            for (a, b) in par.candidates().iter().zip(serial.candidates()) {
                assert_eq!(a.k, b.k);
                assert_eq!(a.gamma, b.gamma);
                assert_eq!(
                    a.sse_raw.to_bits(),
                    b.sse_raw.to_bits(),
                    "threads={threads} k={}",
                    a.k
                );
            }
        }
    }

    #[test]
    fn more_threads_than_rows_falls_back() {
        let x = spiky_matrix(6, 8, 13);
        let b = SpaceBudget::from_percent(40.0);
        let serial = SvddCompressed::compress(&x, &SvddOptions::new(b)).unwrap();
        let mut opts = SvddOptions::new(b);
        opts.threads = 64;
        let par = SvddCompressed::compress(&x, &opts).unwrap();
        assert_eq!(par.k_opt(), serial.k_opt());
        // Fewer rows than one Gram block: every wave holds one job, which
        // runs inline, and the result is bitwise identical.
        assert_eq!(sorted_deltas(&par), sorted_deltas(&serial));
    }

    #[test]
    fn parallel_thinning_independent_of_threads() {
        let x = spiky_matrix(100, 16, 9);
        let mut opts = SvddOptions::new(SpaceBudget::from_percent(30.0));
        opts.max_queue_entries = 50; // forces thinning
        let serial = SvddCompressed::compress(&x, &opts).unwrap();
        opts.threads = 4;
        let par = SvddCompressed::compress(&x, &opts).unwrap();
        // The candidate set (hence γ sizing and k_opt) never depends on
        // the thread count, only on the γ totals.
        let ks = |c: &SvddCompressed| c.candidates().iter().map(|c| c.k).collect::<Vec<_>>();
        assert_eq!(ks(&par), ks(&serial));
        assert_eq!(par.k_opt(), serial.k_opt());
    }

    #[test]
    fn parallel_build_from_disk_still_three_passes() {
        let dir = ats_common::TestDir::new("ats-svdd3p-par");
        let path = dir.file("x.atsm");
        let x = spiky_matrix(80, 10, 5);
        ats_storage::file::write_matrix(&path, &x).unwrap();
        let f = ats_storage::MatrixFile::open(&path).unwrap();
        let mut opts = SvddOptions::new(SpaceBudget::from_percent(20.0));
        opts.threads = 4;
        let par = SvddCompressed::compress(&f, &opts).unwrap();
        // Disjoint worker ranges still read every row exactly once per
        // pass — the Fig. 5 I/O bound holds at any thread count.
        assert_eq!(f.stats().logical_reads(), 3 * 80);
        let serial =
            SvddCompressed::compress(&x, &SvddOptions::new(SpaceBudget::from_percent(20.0)))
                .unwrap();
        assert_eq!(par.k_opt(), serial.k_opt());
        assert_eq!(
            sorted_deltas(&par),
            sorted_deltas(&serial),
            "disk vs memory"
        );
    }

    /// The builds the partition-invariance tests compare bitwise against
    /// the one-shard, one-thread build: `compress_sharded` over
    /// `shard_ranges(n, r)` (`Some(r)`) or `compress` (`None`), each at
    /// one and three threads.
    fn builds() -> Vec<(Option<usize>, usize)> {
        let mut out = Vec::new();
        for threads in [1, 3] {
            out.push((None, threads));
            for r in [1, 2, 4, 5, 6] {
                out.push((Some(r), threads));
            }
        }
        out
    }

    #[test]
    fn sharded_build_is_partition_invariant() {
        // The property the sharded store depends on: the same input and
        // budget produce the same k_opt, the bitwise-identical delta
        // set, and the bitwise-identical U for ANY shard count and
        // thread count — pass 1's blocked fold makes V/Λ bit-identical,
        // and everything downstream is deterministic given the factors.
        let x = spiky_matrix(203, 12, 14);
        let opts = SvddOptions::new(SpaceBudget::from_percent(20.0));
        let mono = SvddCompressed::compress_sharded(&x, &opts, &shard_ranges(203, 1)).unwrap();
        for (r, threads) in builds() {
            let mut o = opts.clone();
            o.threads = threads;
            let s = match r {
                Some(r) => SvddCompressed::compress_sharded(&x, &o, &shard_ranges(203, r)),
                None => SvddCompressed::compress(&x, &o),
            }
            .unwrap();
            let ctx = format!("shards={r:?} threads={threads}");
            assert_eq!(s.k_opt(), mono.k_opt(), "{ctx}");
            assert_eq!(sorted_deltas(&s), sorted_deltas(&mono), "{ctx}");
            assert_eq!(
                s.svd().u().as_slice(),
                mono.svd().u().as_slice(),
                "{ctx}: U not bit-identical"
            );
            assert_eq!(s.svd().lambda(), mono.svd().lambda(), "{ctx}");
            assert_eq!(s.svd().v().as_slice(), mono.svd().v().as_slice(), "{ctx}");
        }
    }

    #[test]
    fn sharded_build_is_partition_invariant_under_ties() {
        // Highly structured data: whole row classes repeat, so thousands
        // of cells tie *exactly* on reconstruction error and the TopK
        // boundary falls inside a tie class. The ordinal tie-break and
        // the blocked SSE fold must still keep k_opt, the retained cell
        // set, and the SSE bit-identical across partitionings.
        let x = Matrix::from_fn(300, 28, |i, j| {
            ((i % 5) + 1) as f64 * if j % 7 < 5 { 2.0 } else { 0.2 }
        });
        let opts = SvddOptions::new(SpaceBudget::from_percent(15.0));
        let mono = SvddCompressed::compress_sharded(&x, &opts, &shard_ranges(300, 1)).unwrap();
        for (r, threads) in builds() {
            let mut o = opts.clone();
            o.threads = threads;
            let s = match r {
                Some(r) => SvddCompressed::compress_sharded(&x, &o, &shard_ranges(300, r)),
                None => SvddCompressed::compress(&x, &o),
            }
            .unwrap();
            let ctx = format!("shards={r:?} threads={threads}");
            assert_eq!(s.k_opt(), mono.k_opt(), "{ctx}");
            assert_eq!(sorted_deltas(&s), sorted_deltas(&mono), "{ctx}");
            for (a, b) in s.candidates().iter().zip(mono.candidates()) {
                assert_eq!(a.sse_raw.to_bits(), b.sse_raw.to_bits(), "{ctx} k={}", a.k);
                assert_eq!(
                    a.sse_after_deltas.to_bits(),
                    b.sse_after_deltas.to_bits(),
                    "{ctx} k={}",
                    a.k
                );
            }
        }
    }

    #[test]
    fn method_name_and_ratio() {
        let x = spiky_matrix(50, 10, 11);
        let b = SpaceBudget::from_percent(20.0);
        let svdd = SvddCompressed::compress(&x, &SvddOptions::new(b)).unwrap();
        assert_eq!(svdd.method_name(), "svdd");
        assert!(svdd.space_ratio() <= 0.2 + 1e-9);
        assert!(svdd.space_ratio() > 0.0);
    }
}
