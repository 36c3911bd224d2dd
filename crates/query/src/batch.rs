//! Batched cell queries: many `(row, column)` lookups answered with one
//! `U`-row fetch per distinct row.
//!
//! Ad hoc workloads arrive as *batches* of cells, not single probes. The
//! per-cell path pays one `U`-row fetch (≈ 1 disk access on a paged store)
//! per cell even when many cells share a row. [`QueryEngine::batch_cells`]
//! sorts the requests by `(row, column)`, groups them into distinct-row
//! runs, and answers each run with a single
//! [`CompressedMatrix::cells_in_row`] call — so the I/O bound becomes one
//! `U`-row fetch per *distinct* requested row per shard (shard grouping
//! falls out of the row sort: shards are ascending row ranges). Results are
//! scattered back in request order and are bitwise identical to the
//! per-cell loop, whatever the request order, duplication, or thread count.

use crate::engine::QueryEngine;
use ats_common::{AtsError, Result};
use ats_compress::par::fork_join;
use ats_compress::CompressedMatrix;

/// An ordered list of cell queries. Duplicates and any ordering are fine;
/// results come back in request order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchRequest {
    cells: Vec<(usize, usize)>,
}

impl BatchRequest {
    /// Wrap a list of `(row, column)` queries.
    pub fn new(cells: Vec<(usize, usize)>) -> Self {
        BatchRequest { cells }
    }

    /// The requested cells, in request order.
    pub fn cells(&self) -> &[(usize, usize)] {
        &self.cells
    }

    /// Number of requested cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the request is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// The answers to a [`BatchRequest`], aligned with the request order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    values: Vec<f64>,
    distinct_rows: usize,
}

impl BatchResult {
    /// Reconstructed values, `values()[t]` answering `cells()[t]`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consume into the value vector.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Number of distinct rows the batch touched — the number of `U`-row
    /// fetches the execution performed (the batch I/O bound).
    pub fn distinct_rows(&self) -> usize {
        self.distinct_rows
    }
}

/// One distinct-row run of the sorted request order: `order[span]` all name
/// row `row`.
struct RowGroup {
    row: usize,
    span: std::ops::Range<usize>,
}

impl QueryEngine<'_> {
    /// Answer a batch of cell queries with one `U`-row fetch per distinct
    /// requested row.
    ///
    /// Every cell is validated up front, so an out-of-range request fails
    /// the whole batch before any reconstruction or I/O happens — no
    /// partial work. With `threads > 1` the distinct-row groups are split
    /// into contiguous chunks executed concurrently; each worker scatters
    /// into a private list merged back in chunk order, and since every
    /// output cell is computed independently, the values are identical to
    /// the serial execution bit for bit.
    pub fn batch_cells(&self, req: &BatchRequest) -> Result<BatchResult> {
        let (n, m) = (self.matrix().rows(), self.matrix().cols());
        for &(i, j) in req.cells() {
            if i >= n {
                return Err(AtsError::oob("row", i, n));
            }
            if j >= m {
                return Err(AtsError::oob("column", j, m));
            }
        }
        // Sort request positions by (row, column, position): rows cluster
        // into distinct-row runs (and shards, being ascending row ranges,
        // cluster too); columns sort within a row so delta probes walk in
        // column order; position last keeps the sort total and stable.
        let mut order: Vec<usize> = (0..req.len()).collect();
        let cells = req.cells();
        order.sort_unstable_by_key(|&t| {
            let (i, j) = cells[t];
            (i, j, t)
        });
        let mut groups: Vec<RowGroup> = Vec::new();
        for (pos, &t) in order.iter().enumerate() {
            let (row, _) = cells[t];
            match groups.last_mut() {
                Some(g) if g.row == row => g.span.end = pos + 1,
                _ => groups.push(RowGroup {
                    row,
                    span: pos..pos + 1,
                }),
            }
        }
        let mut values = vec![0.0f64; req.len()];
        if self.threads <= 1 || groups.len() < 2 * self.threads {
            let mut scatter = Vec::new();
            for g in &groups {
                run_group(self.matrix(), cells, &order, g, &mut scatter)?;
                for &(t, v) in &scatter {
                    values[t] = v;
                }
            }
        } else {
            let chunk = groups.len().div_ceil(self.threads);
            let parts = fork_join(groups.chunks(chunk), "batch cell", |gs| {
                let mut out = Vec::new();
                let mut scatter = Vec::new();
                for g in gs.iter() {
                    run_group(self.matrix(), cells, &order, g, &mut scatter)?;
                    out.extend_from_slice(&scatter);
                }
                Ok(out)
            })?;
            // Chunk-order merge; each (position, value) pair is disjoint,
            // so the scatter is deterministic regardless of thread count.
            for (t, v) in parts.into_iter().flatten() {
                values[t] = v;
            }
        }
        Ok(BatchResult {
            values,
            distinct_rows: groups.len(),
        })
    }
}

/// Answer one distinct-row group with a single
/// [`CompressedMatrix::cells_in_row`] call (one `U`-row fetch), leaving
/// `(request position, value)` pairs in `scatter`.
fn run_group(
    matrix: &dyn CompressedMatrix,
    cells: &[(usize, usize)],
    order: &[usize],
    g: &RowGroup,
    scatter: &mut Vec<(usize, f64)>,
) -> Result<()> {
    scatter.clear();
    let span = order
        .get(g.span.clone())
        .ok_or_else(|| AtsError::internal("batch group span out of order bounds"))?;
    let cols: Vec<usize> = span
        .iter()
        .map(|&t| cells.get(t).map(|&(_, j)| j))
        .collect::<Option<_>>()
        .ok_or_else(|| AtsError::internal("batch group position out of request bounds"))?;
    let mut vals = vec![0.0f64; cols.len()];
    matrix.cells_in_row(g.row, &cols, &mut vals)?;
    scatter.extend(span.iter().copied().zip(vals));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExactMatrix;
    use ats_linalg::Matrix;

    fn engine_matrix() -> ExactMatrix {
        ExactMatrix(Matrix::from_fn(13, 7, |i, j| {
            ((i * 31 + j * 17) % 23) as f64 - 9.0
        }))
    }

    #[test]
    fn batch_matches_per_cell_loop_bitwise() {
        let e = engine_matrix();
        // Unsorted, duplicated, row-crossing requests.
        let req = BatchRequest::new(vec![
            (12, 6),
            (0, 0),
            (5, 3),
            (5, 3),
            (0, 6),
            (5, 0),
            (12, 6),
            (7, 2),
        ]);
        for threads in [1, 3] {
            let q = QueryEngine::new(&e).with_threads(threads);
            let res = q.batch_cells(&req).unwrap();
            assert_eq!(res.values().len(), req.len());
            assert_eq!(res.distinct_rows(), 4); // rows {0, 5, 7, 12}
            for (&(i, j), &got) in req.cells().iter().zip(res.values()) {
                assert_eq!(got.to_bits(), q.cell(i, j).unwrap().to_bits());
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let e = engine_matrix();
        let res = QueryEngine::new(&e)
            .batch_cells(&BatchRequest::default())
            .unwrap();
        assert!(res.values().is_empty());
        assert_eq!(res.distinct_rows(), 0);
        assert!(BatchRequest::default().is_empty());
    }

    #[test]
    fn out_of_range_rejected_up_front() {
        let e = engine_matrix();
        let q = QueryEngine::new(&e);
        assert!(q
            .batch_cells(&BatchRequest::new(vec![(0, 0), (13, 0)]))
            .is_err());
        assert!(q
            .batch_cells(&BatchRequest::new(vec![(0, 7), (1, 1)]))
            .is_err());
    }
}
