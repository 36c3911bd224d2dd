//! The [`CompressedMatrix`] trait and the shared space accounting.
//!
//! The paper compares methods at equal *space*, expressed as `s%` — the
//! compressed size as a percentage of the uncompressed `N × M × b` bytes
//! (`b` bytes per stored number; §5.1 and Eq. 9). [`SpaceBudget`]
//! centralizes that arithmetic so every method and every experiment
//! counts bytes the same way.

use ats_common::Result;

/// Bytes per stored number used throughout the experiments (`b` in §5.1).
/// We store `f64`s, so 8.
pub const BYTES_PER_NUMBER: usize = 8;

/// A lossy-compressed `N × M` matrix supporting `O(k)` random access to
/// any cell — the paper's definition of a representation that "supports
/// ad hoc querying".
pub trait CompressedMatrix: Send + Sync {
    /// Number of rows (`N`).
    fn rows(&self) -> usize;

    /// Number of columns (`M`).
    fn cols(&self) -> usize;

    /// Reconstruct the value of cell `(i, j)`.
    fn cell(&self, i: usize, j: usize) -> Result<f64>;

    /// Reconstruct row `i` into `out` (length `M`). The default calls
    /// [`CompressedMatrix::cell`] per column; implementations override
    /// this with something that amortizes per-row work.
    fn row_into(&self, i: usize, out: &mut [f64]) -> Result<()> {
        if i >= self.rows() {
            return Err(ats_common::AtsError::oob("row", i, self.rows()));
        }
        if out.len() != self.cols() {
            return Err(ats_common::AtsError::dims(
                "row_into",
                (1, out.len()),
                (1, self.cols()),
            ));
        }
        for (j, o) in out.iter_mut().enumerate() {
            *o = self.cell(i, j)?;
        }
        Ok(())
    }

    /// Reconstruct the selected cells of row `i`: `out[t] = x̂[i][cols[t]]`.
    ///
    /// The batch entry point for "many cells of one row": implementations
    /// that page `U` from disk override this to fetch the row's `U` vector
    /// once and reuse it for every requested column (the batched-query I/O
    /// bound: one `U`-row fetch per *distinct* row, not per cell). Column
    /// indices may repeat and arrive in any order; results land in request
    /// order. The default calls [`CompressedMatrix::cell`] per entry and is
    /// bitwise identical to the per-cell loop — overrides must preserve
    /// that (canonical ascending-component accumulation per cell).
    fn cells_in_row(&self, i: usize, cols: &[usize], out: &mut [f64]) -> Result<()> {
        if i >= self.rows() {
            return Err(ats_common::AtsError::oob("row", i, self.rows()));
        }
        if out.len() != cols.len() {
            return Err(ats_common::AtsError::dims(
                "cells_in_row",
                (1, out.len()),
                (1, cols.len()),
            ));
        }
        for (&j, o) in cols.iter().zip(out.iter_mut()) {
            *o = self.cell(i, j)?;
        }
        Ok(())
    }

    /// Reconstruct several full rows back to back: row `rows[r]` lands in
    /// `out[r·M .. (r+1)·M]`.
    ///
    /// The batch entry point for blocked aggregate evaluation: overrides
    /// route through a multi-row kernel (several reconstruction
    /// accumulators sharing one sweep over `V`) and validate *all* row
    /// indices before touching `out`, so a bad index never leaves partial
    /// work. Rows may repeat and arrive in any order. The default calls
    /// [`CompressedMatrix::row_into`] per row; overrides must stay bitwise
    /// identical to it.
    fn rows_into(&self, rows: &[usize], out: &mut [f64]) -> Result<()> {
        let m = self.cols();
        if out.len() != rows.len() * m {
            return Err(ats_common::AtsError::dims(
                "rows_into",
                (rows.len(), m),
                (out.len() / m.max(1), m),
            ));
        }
        let n = self.rows();
        for &i in rows {
            if i >= n {
                return Err(ats_common::AtsError::oob("row", i, n));
            }
        }
        if m == 0 {
            return Ok(());
        }
        for (&i, orow) in rows.iter().zip(out.chunks_mut(m)) {
            self.row_into(i, orow)?;
        }
        Ok(())
    }

    /// Bytes consumed by the compressed representation, at
    /// [`BYTES_PER_NUMBER`] bytes per stored number plus any auxiliary
    /// structures (delta tables, assignment arrays, Bloom filters).
    fn storage_bytes(&self) -> usize;

    /// Short method name for experiment output (`"svd"`, `"svdd"`, …).
    fn method_name(&self) -> &'static str;

    /// Space ratio `s` = compressed bytes / uncompressed bytes (Eq. 9).
    fn space_ratio(&self) -> f64 {
        let total = self.rows() * self.cols() * BYTES_PER_NUMBER;
        if total == 0 {
            0.0
        } else {
            self.storage_bytes() as f64 / total as f64
        }
    }

    /// Start rows of this matrix's row-range shards, ascending (the
    /// first is always 0). Monolithic implementations — the default —
    /// return an empty vec, which query engines treat as "one shard";
    /// sharded stores return one entry per shard so aggregates can be
    /// partitioned by owning shard and merged in shard order.
    fn shard_starts(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Start columns of this matrix's time blocks, ascending (the first
    /// is always 0). Single-decomposition implementations — the default
    /// — return an empty vec, which query engines treat as "one block";
    /// time-blocked stores return one entry per column block so range
    /// queries can prune non-overlapping blocks and merge per-block
    /// partials in block order.
    fn time_block_starts(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Borrow time block `b` as a compressed matrix over its own column
    /// slice (all rows, columns rebased to 0). `None` for
    /// single-decomposition implementations and out-of-range indices.
    fn time_block(&self, b: usize) -> Option<&dyn CompressedMatrix> {
        let _ = b;
        None
    }

    /// Borrow the zone-map synopsis of row-range shard `shard` (indices
    /// follow [`CompressedMatrix::shard_starts`]; a monolithic store is
    /// shard 0). The tiles bound the *served* values — reconstruction
    /// plus deltas — so a query engine may prune any tile whose bounds
    /// prove a predicate false without touching `U`. `Ok(None)` — the
    /// default — means "no synopsis here": legacy stores, out-of-range
    /// indices, and implementations that never emit synopses all fall
    /// back to the exact scan. `Err` means there *is* one and it could
    /// not be trusted (a disk store loads and checksums it on first
    /// use): the query fails — an engine must not turn that into an
    /// unpruned scan.
    fn shard_synopsis(&self, shard: usize) -> Result<Option<&ats_storage::ShardSynopsis>> {
        let _ = shard;
        Ok(None)
    }
}

/// Per-block space budget for a time-blocked build: the same global
/// fraction, floored so that a narrow column block can always afford at
/// least a rank-1 decomposition (Eq. 9 with `k = 1` over `n × m_b`).
/// Without the floor, splitting a viable global budget across B blocks
/// can leave a thin block with `max_svd_k = 0` and fail the build.
pub fn block_budget(global: SpaceBudget, n: usize, m_b: usize) -> SpaceBudget {
    if n == 0 || m_b == 0 {
        return global;
    }
    let rank1 = (n + m_b + 1) as f64 / (n * m_b) as f64;
    SpaceBudget {
        fraction: global.fraction.max(rank1 * (1.0 + 1e-9)),
    }
}

/// A space budget expressed the way the paper sweeps it: a fraction of
/// the uncompressed dataset size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceBudget {
    /// Target compressed size as a fraction of the original (e.g. `0.10`
    /// for the paper's "10% storage").
    pub fraction: f64,
}

impl SpaceBudget {
    /// Budget from a percentage (`10.0` → fraction `0.10`).
    pub fn from_percent(pct: f64) -> Self {
        SpaceBudget {
            fraction: pct / 100.0,
        }
    }

    /// Total byte allowance for an `n × m` dataset.
    pub fn bytes(&self, n: usize, m: usize) -> usize {
        (self.fraction * (n * m * BYTES_PER_NUMBER) as f64).floor() as usize
    }

    /// Largest `k` such that a rank-`k` SVD fits: Eq. 9 —
    /// `(N·k + k + k·M) · b ≤ fraction · N·M·b`, i.e.
    /// `k ≤ fraction·N·M / (N + M + 1)`.
    pub fn max_svd_k(&self, n: usize, m: usize) -> usize {
        if n == 0 || m == 0 {
            return 0;
        }
        let k = (self.fraction * (n * m) as f64 / (n + m + 1) as f64).floor() as usize;
        k.min(m)
    }

    /// Largest per-row coefficient count for DCT: `N·k·b ≤ fraction·N·M·b`.
    pub fn max_dct_k(&self, m: usize) -> usize {
        ((self.fraction * m as f64).floor() as usize).min(m)
    }

    /// Largest cluster count `k` for VQ storage
    /// `(k·M + N)·b ≤ fraction·N·M·b`.
    pub fn max_clusters(&self, n: usize, m: usize) -> usize {
        if m == 0 {
            return 0;
        }
        let numer = self.fraction * (n * m) as f64 - n as f64;
        if numer <= 0.0 {
            0
        } else {
            ((numer / m as f64).floor() as usize).min(n)
        }
    }

    /// Number of outlier deltas affordable after spending
    /// `svd_bytes` on the principal components, with each delta costing
    /// `delta_bytes` (`γ_k` in §4.2).
    pub fn deltas_affordable(
        &self,
        n: usize,
        m: usize,
        svd_bytes: usize,
        delta_bytes: usize,
    ) -> usize {
        let total = self.bytes(n, m);
        total.saturating_sub(svd_bytes) / delta_bytes.max(1)
    }
}

/// Bytes of a rank-`k` SVD of an `n × m` matrix (Eq. 9 numerator).
pub fn svd_bytes(n: usize, m: usize, k: usize) -> usize {
    (n * k + k + k * m) * BYTES_PER_NUMBER
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_conversion() {
        let b = SpaceBudget::from_percent(10.0);
        assert!((b.fraction - 0.1).abs() < 1e-12);
    }

    #[test]
    fn bytes_budget() {
        let b = SpaceBudget::from_percent(10.0);
        // 1000 x 100 doubles = 800_000 bytes; 10% = 80_000
        assert_eq!(b.bytes(1000, 100), 80_000);
    }

    #[test]
    fn max_svd_k_respects_eq9() {
        let b = SpaceBudget::from_percent(10.0);
        let (n, m) = (2000usize, 366usize);
        let k = b.max_svd_k(n, m);
        assert!(svd_bytes(n, m, k) <= b.bytes(n, m));
        assert!(svd_bytes(n, m, k + 1) > b.bytes(n, m));
        // s ≈ k/M (paper's approximation): k ≈ 0.1*366 ≈ 36 for N >> M
        assert!((30..=37).contains(&k), "k = {k}");
    }

    #[test]
    fn max_svd_k_clamped_to_m() {
        let b = SpaceBudget { fraction: 10.0 }; // absurd budget
        assert_eq!(b.max_svd_k(100, 20), 20);
        assert_eq!(b.max_svd_k(0, 20), 0);
    }

    #[test]
    fn max_dct_k() {
        let b = SpaceBudget::from_percent(25.0);
        assert_eq!(b.max_dct_k(128), 32);
        assert_eq!(SpaceBudget { fraction: 2.0 }.max_dct_k(10), 10);
    }

    #[test]
    fn max_clusters_accounting() {
        let b = SpaceBudget::from_percent(10.0);
        let (n, m) = (2000usize, 100usize);
        let k = b.max_clusters(n, m);
        // (k*M + N)*8 ≤ 0.1*N*M*8
        assert!((k * m + n) * BYTES_PER_NUMBER <= b.bytes(n, m));
        assert!(((k + 1) * m + n) * BYTES_PER_NUMBER > b.bytes(n, m));
    }

    #[test]
    fn max_clusters_zero_when_assignment_alone_blows_budget() {
        // With fraction so small that even the N-entry assignment array
        // does not fit, no clusters are affordable.
        let b = SpaceBudget { fraction: 0.001 };
        assert_eq!(b.max_clusters(1000, 10), 0);
    }

    #[test]
    fn block_budget_floors_at_rank_one() {
        let g = SpaceBudget::from_percent(15.0);
        // Wide block: global fraction already affords k ≥ 1, unchanged.
        assert_eq!(block_budget(g, 100, 50), g);
        assert!(block_budget(g, 100, 50).max_svd_k(100, 50) >= 1);
        // Narrow block (100×4 at 15%): global fraction gives k = 0;
        // the floor raises it to exactly rank 1.
        assert_eq!(g.max_svd_k(100, 4), 0);
        let b = block_budget(g, 100, 4);
        assert_eq!(b.max_svd_k(100, 4), 1);
    }

    #[test]
    fn deltas_affordable_subtracts_svd_cost() {
        let b = SpaceBudget::from_percent(10.0);
        let (n, m) = (1000usize, 100usize);
        let sb = svd_bytes(n, m, 5);
        let g = b.deltas_affordable(n, m, sb, 16);
        assert_eq!(g, (b.bytes(n, m) - sb) / 16);
        // SVD over budget => zero deltas, no underflow panic.
        assert_eq!(b.deltas_affordable(n, m, usize::MAX / 2, 16), 0);
    }
}
