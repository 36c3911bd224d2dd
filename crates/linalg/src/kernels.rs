//! Vectorized reconstruction kernels over a transposed `V` panel.
//!
//! The paper's Eq. 12 reconstructs a cell as `x̂[i][j] = Σ_m λ[m]·u[i][m]·v[j][m]`,
//! and a whole row as the panel product `(λ ⊙ uᵢ)ᵀ · Vᵀ`. The scalar path walks
//! `V` row-by-row (one contiguous `k`-slice per output column), which is fine
//! for a single cell but gathers `V` column-wise when reconstructing rows. The
//! kernels here flip the layout once — [`VPanel`] stores `Vᵀ` as `k`
//! contiguous length-`M` component slices — so row reconstruction becomes `k`
//! sequential axpy sweeps and multi-row blocks share each component slice
//! across [`BLOCK_ROWS`] accumulator rows (see [`crate::vecops::axpy4`]).
//!
//! Bitwise contract: every kernel accumulates each output element in the
//! canonical order the scalar path uses — component index `m` ascending,
//! starting from `0.0`, each term formed as `(λ[m]·u[m])·v[m]` — so results
//! are bitwise identical to the per-cell loop, not merely close. Tests below
//! assert `==` on bits, never a tolerance.

use crate::matrix::Matrix;
use crate::vecops;
use ats_common::{AtsError, Result};

/// Rows reconstructed per unrolled block in [`reconstruct_rows`].
///
/// Eight accumulator rows share one sequential sweep over each component
/// slice (see [`vecops::axpy8`]): every widening of the block halves the
/// number of passes over the `V` panel per reconstructed row, and eight
/// rows is the widest block that still fits the accumulator registers of
/// mainstream x86-64/aarch64 without spilling. Measured by `atsbench`'s
/// `linalg.*` probes; blocks that don't fill to 8 fall back to
/// [`vecops::axpy4`] and then to single rows.
pub const BLOCK_ROWS: usize = 8;

/// Rows per fallback sub-block when fewer than [`BLOCK_ROWS`] remain.
const HALF_BLOCK: usize = 4;

/// `Vᵀ` stored as `k` contiguous component slices of length `M`.
///
/// Component `m` holds `[v[0][m], v[1][m], …, v[M-1][m]]` — the stride-`k`
/// column gather of the row-major `M × k` matrix `V`, paid once at
/// construction instead of once per reconstructed row.
#[derive(Debug, Clone)]
pub struct VPanel {
    /// Row-major `k × M` storage: component `m` occupies `data[m·M .. (m+1)·M]`.
    data: Vec<f64>,
    /// Sequence length `M` (panel columns).
    m: usize,
}

impl VPanel {
    /// Transpose the row-major `M × k` matrix `V` into a component panel.
    pub fn from_v(v: &Matrix) -> VPanel {
        let data = v.transpose().into_vec();
        VPanel { data, m: v.rows() }
    }

    /// Sequence length `M`.
    #[inline]
    pub fn cols(&self) -> usize {
        self.m
    }

    /// Iterate the component slices in ascending `m` order, each of length
    /// [`VPanel::cols`]. Yields nothing when `k == 0`.
    #[inline]
    pub fn components(&self) -> impl Iterator<Item = &[f64]> {
        // `.max(1)` keeps chunks_exact legal for 0-column panels, whose
        // backing storage is empty and yields no slices anyway.
        self.data.chunks_exact(self.m.max(1))
    }
}

/// Reconstruct one cell: `Σ_m lambda[m]·u_row[m]·v_row[m]` (Eq. 12), with
/// `v_row` the cell's row of the row-major `M × k` matrix `V`.
///
/// The canonical order itself — ascending `m`, each `(λ·u)·v` term folded
/// into an accumulator that starts at `+0.0` — so a lone cell is bitwise
/// the value the row, batch and multi-cell kernels produce for it.
#[inline]
pub fn reconstruct_cell(lambda: &[f64], u_row: &[f64], v_row: &[f64]) -> f64 {
    let mut acc = 0.0;
    for ((&l, &u), &v) in lambda.iter().zip(u_row).zip(v_row) {
        acc = vecops::fmadd(l * u, v, acc);
    }
    acc
}

/// Fuse the per-component coefficients `coef[m] = lambda[m] · u_row[m]`.
///
/// Precomputing the product is bitwise-safe: multiplication is performed once
/// either way, and the scalar path already associates `(λ·u)·v`.
#[inline]
pub fn fuse_coefficients(lambda: &[f64], u_row: &[f64], coef: &mut [f64]) {
    for ((c, &l), &u) in coef.iter_mut().zip(lambda).zip(u_row) {
        *c = l * u;
    }
}

/// Reconstruct one full row: `out = Σ_m (lambda[m]·u_row[m]) · panel[m]`.
///
/// `k` sequential axpy sweeps over contiguous component slices — no
/// allocation, no strided access. Accumulation per output element runs in
/// ascending `m`, matching the scalar per-cell loop bitwise.
pub fn reconstruct_row(u_row: &[f64], lambda: &[f64], panel: &VPanel, out: &mut [f64]) {
    debug_assert_eq!(out.len(), panel.cols());
    out.fill(0.0);
    for ((&l, &u), comp) in lambda.iter().zip(u_row).zip(panel.components()) {
        vecops::axpy(l * u, comp, out);
    }
}

/// Reconstruct `B` rows at once from a packed `B × k` block of `U` rows.
///
/// `u_rows` holds the `U` rows back to back (`B·k` values); `out` receives the
/// reconstructed rows back to back (`B·M` values). Full [`BLOCK_ROWS`]-row
/// blocks run through [`vecops::axpy8`] so all eight accumulator rows share
/// one sequential sweep per component slice; a remainder of four or more rows
/// goes through [`vecops::axpy4`], and the rest falls back to
/// [`reconstruct_row`]. Every output element still accumulates in ascending
/// `m` from `0.0`, so the result is bitwise identical to reconstructing each
/// row alone.
///
/// Errors if `u_rows`/`out` lengths are inconsistent with `lambda.len()` and
/// the panel width.
pub fn reconstruct_rows(
    u_rows: &[f64],
    lambda: &[f64],
    panel: &VPanel,
    out: &mut [f64],
) -> Result<()> {
    let k = lambda.len();
    let m = panel.cols();
    if k == 0 {
        out.fill(0.0);
        return Ok(());
    }
    if !u_rows.len().is_multiple_of(k) || out.len() != (u_rows.len() / k) * m {
        return Err(AtsError::dims(
            "reconstruct_rows",
            (u_rows.len() / k.max(1), k),
            (out.len() / m.max(1), m),
        ));
    }
    if m == 0 {
        return Ok(());
    }
    for (ub, ob) in u_rows
        .chunks(BLOCK_ROWS * k)
        .zip(out.chunks_mut(BLOCK_ROWS * m))
    {
        if ub.len() == BLOCK_ROWS * k {
            let (u0, rest) = ub.split_at(k);
            let (u1, rest) = rest.split_at(k);
            let (u2, rest) = rest.split_at(k);
            let (u3, rest) = rest.split_at(k);
            let (u4, rest) = rest.split_at(k);
            let (u5, rest) = rest.split_at(k);
            let (u6, u7) = rest.split_at(k);
            let (o0, rest) = ob.split_at_mut(m);
            let (o1, rest) = rest.split_at_mut(m);
            let (o2, rest) = rest.split_at_mut(m);
            let (o3, rest) = rest.split_at_mut(m);
            let (o4, rest) = rest.split_at_mut(m);
            let (o5, rest) = rest.split_at_mut(m);
            let (o6, o7) = rest.split_at_mut(m);
            let mut outs: [&mut [f64]; 8] = [o0, o1, o2, o3, o4, o5, o6, o7];
            for o in outs.iter_mut() {
                o.fill(0.0);
            }
            for (((((((((&l, comp), &a0), &a1), &a2), &a3), &a4), &a5), &a6), &a7) in lambda
                .iter()
                .zip(panel.components())
                .zip(u0)
                .zip(u1)
                .zip(u2)
                .zip(u3)
                .zip(u4)
                .zip(u5)
                .zip(u6)
                .zip(u7)
            {
                vecops::axpy8(
                    [
                        l * a0,
                        l * a1,
                        l * a2,
                        l * a3,
                        l * a4,
                        l * a5,
                        l * a6,
                        l * a7,
                    ],
                    comp,
                    &mut outs,
                );
            }
        } else {
            reconstruct_rows_tail(ub, lambda, panel, ob, k, m);
        }
    }
    Ok(())
}

/// Remainder path of [`reconstruct_rows`]: a 4-row sub-block through
/// [`vecops::axpy4`] when possible, single rows otherwise. Same canonical
/// accumulation order as the full 8-row block.
fn reconstruct_rows_tail(
    ub: &[f64],
    lambda: &[f64],
    panel: &VPanel,
    ob: &mut [f64],
    k: usize,
    m: usize,
) {
    let (head_u, tail_u) = if ub.len() >= HALF_BLOCK * k {
        ub.split_at(HALF_BLOCK * k)
    } else {
        ub.split_at(0)
    };
    let (head_o, tail_o) = if head_u.is_empty() {
        ob.split_at_mut(0)
    } else {
        ob.split_at_mut(HALF_BLOCK * m)
    };
    if !head_u.is_empty() {
        let (u0, rest) = head_u.split_at(k);
        let (u1, rest) = rest.split_at(k);
        let (u2, u3) = rest.split_at(k);
        let (o0, rest) = head_o.split_at_mut(m);
        let (o1, rest) = rest.split_at_mut(m);
        let (o2, o3) = rest.split_at_mut(m);
        o0.fill(0.0);
        o1.fill(0.0);
        o2.fill(0.0);
        o3.fill(0.0);
        for (((((&l, comp), &a0), &a1), &a2), &a3) in lambda
            .iter()
            .zip(panel.components())
            .zip(u0)
            .zip(u1)
            .zip(u2)
            .zip(u3)
        {
            vecops::axpy4([l * a0, l * a1, l * a2, l * a3], comp, o0, o1, o2, o3);
        }
    }
    for (ur, or) in tail_u.chunks(k).zip(tail_o.chunks_mut(m)) {
        reconstruct_row(ur, lambda, panel, or);
    }
}

/// Reconstruct selected cells of one row: `out[t] = coef · v.row(cols[t])`.
///
/// `coef` is the fused `λ ⊙ uᵢ` vector (see [`fuse_coefficients`]); `v` is the
/// row-major `M × k` matrix, whose rows are contiguous `k`-slices — the
/// cell-friendly layout. Column indices are processed in blocks of eight
/// through [`vecops::dot8`] (a four-wide [`vecops::dot4`] sub-block, then
/// single dots, on the tail) so the shared `coef` slice is loaded once per
/// block. Each dot accumulates in ascending `m` from `0.0`, bitwise identical
/// to the per-cell loop.
///
/// Errors if `out.len() != cols.len()` or any column index is out of range.
pub fn reconstruct_cells(coef: &[f64], v: &Matrix, cols: &[usize], out: &mut [f64]) -> Result<()> {
    if out.len() != cols.len() {
        return Err(AtsError::dims(
            "reconstruct_cells",
            (cols.len(), 1),
            (out.len(), 1),
        ));
    }
    for (cblk, oblk) in cols.chunks(8).zip(out.chunks_mut(8)) {
        match (cblk, oblk) {
            ([j0, j1, j2, j3, j4, j5, j6, j7], [o0, o1, o2, o3, o4, o5, o6, o7]) => {
                let [s0, s1, s2, s3, s4, s5, s6, s7] = vecops::dot8(
                    coef,
                    [
                        v.try_row(*j0)?,
                        v.try_row(*j1)?,
                        v.try_row(*j2)?,
                        v.try_row(*j3)?,
                        v.try_row(*j4)?,
                        v.try_row(*j5)?,
                        v.try_row(*j6)?,
                        v.try_row(*j7)?,
                    ],
                );
                *o0 = s0;
                *o1 = s1;
                *o2 = s2;
                *o3 = s3;
                *o4 = s4;
                *o5 = s5;
                *o6 = s6;
                *o7 = s7;
            }
            (tail_js, tail_os) => {
                for (js, os) in tail_js.chunks(4).zip(tail_os.chunks_mut(4)) {
                    match (js, os) {
                        ([j0, j1, j2, j3], [o0, o1, o2, o3]) => {
                            let [s0, s1, s2, s3] = vecops::dot4(
                                coef,
                                v.try_row(*j0)?,
                                v.try_row(*j1)?,
                                v.try_row(*j2)?,
                                v.try_row(*j3)?,
                            );
                            *o0 = s0;
                            *o1 = s1;
                            *o2 = s2;
                            *o3 = s3;
                        }
                        (js, os) => {
                            for (j, o) in js.iter().zip(os) {
                                *o = vecops::dot(coef, v.try_row(*j)?);
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical scalar reconstruction of one cell: ascending `m`,
    /// accumulating `(λ·u)·v` terms from `0.0` through the canonical
    /// [`vecops::fmadd`] op (plain `acc + a·b` on default builds, fused
    /// on `fma`-feature builds — same op the kernels use either way).
    fn scalar_cell(u_row: &[f64], lambda: &[f64], v: &Matrix, j: usize) -> f64 {
        let mut acc = 0.0;
        for ((&l, &u), &vv) in lambda.iter().zip(u_row).zip(v.row(j)) {
            acc = vecops::fmadd(l * u, vv, acc);
        }
        acc
    }

    fn fixture(n: usize, m: usize, k: usize) -> (Matrix, Vec<f64>, Matrix) {
        // Deterministic, full-spectrum-ish values; exact numbers don't matter,
        // only that they exercise non-trivial rounding.
        let u = Matrix::from_fn(n, k, |i, c| ((i * 31 + c * 17) as f64).sin() * 2.5);
        let lambda: Vec<f64> = (0..k).map(|c| 10.0 / (c as f64 + 1.0).sqrt()).collect();
        let v = Matrix::from_fn(m, k, |j, c| ((j * 13 + c * 7) as f64).cos() * 1.5);
        (u, lambda, v)
    }

    #[test]
    fn panel_row_matches_scalar_bitwise() {
        let (u, lambda, v) = fixture(9, 23, 5);
        let panel = VPanel::from_v(&v);
        let mut out = vec![0.0; 23];
        for i in 0..9 {
            reconstruct_row(u.row(i), &lambda, &panel, &mut out);
            for (j, &got) in out.iter().enumerate() {
                let want = scalar_cell(u.row(i), &lambda, &v, j);
                assert_eq!(got.to_bits(), want.to_bits(), "row {i} col {j}");
            }
        }
    }

    #[test]
    fn blocked_rows_match_scalar_bitwise() {
        // Row counts straddling every block shape: full 8-blocks, the
        // 4-row sub-block, single-row tails, and combinations.
        for n in [1usize, 3, 4, 5, 7, 8, 9, 11, 12, 15, 16, 19] {
            let (u, lambda, v) = fixture(n, 17, 4);
            let panel = VPanel::from_v(&v);
            let mut out = vec![0.0; n * 17];
            reconstruct_rows(u.as_slice(), &lambda, &panel, &mut out).unwrap();
            for (i, row) in out.chunks(17).enumerate() {
                for (j, &got) in row.iter().enumerate() {
                    let want = scalar_cell(u.row(i), &lambda, &v, j);
                    assert_eq!(got.to_bits(), want.to_bits(), "n {n} row {i} col {j}");
                }
            }
        }
    }

    #[test]
    fn blocked_cells_match_scalar_bitwise() {
        let (u, lambda, v) = fixture(6, 23, 3);
        // Unsorted columns with duplicates; 13 of them → one dot8 block,
        // a dot4 sub-block, then a single-dot tail.
        let cols = [18usize, 0, 5, 5, 11, 2, 18, 22, 7, 1, 19, 3, 9];
        let mut coef = vec![0.0; 3];
        let mut out = vec![0.0; cols.len()];
        for i in 0..6 {
            fuse_coefficients(&lambda, u.row(i), &mut coef);
            reconstruct_cells(&coef, &v, &cols, &mut out).unwrap();
            for (&j, &got) in cols.iter().zip(&out) {
                let want = scalar_cell(u.row(i), &lambda, &v, j);
                assert_eq!(got.to_bits(), want.to_bits(), "row {i} col {j}");
            }
        }
        // Every tail length 0..=8 hits its intended cascade arm.
        for len in 0..=8usize {
            let cols: Vec<usize> = (0..len).map(|t| (t * 5) % 23).collect();
            let mut out = vec![0.0; len];
            fuse_coefficients(&lambda, u.row(0), &mut coef);
            reconstruct_cells(&coef, &v, &cols, &mut out).unwrap();
            for (&j, &got) in cols.iter().zip(&out) {
                let want = scalar_cell(u.row(0), &lambda, &v, j);
                assert_eq!(got.to_bits(), want.to_bits(), "len {len} col {j}");
            }
        }
    }

    #[test]
    fn reconstruct_cells_rejects_bad_inputs() {
        let (_, lambda, v) = fixture(2, 5, 2);
        let coef = vec![0.0; lambda.len()];
        let mut out = vec![0.0; 1];
        assert!(reconstruct_cells(&coef, &v, &[0, 1], &mut out).is_err());
        let mut out2 = vec![0.0; 1];
        assert!(reconstruct_cells(&coef, &v, &[5], &mut out2).is_err());
    }

    #[test]
    fn reconstruct_rows_rejects_bad_shapes() {
        let (u, lambda, v) = fixture(4, 6, 3);
        let panel = VPanel::from_v(&v);
        let mut short = vec![0.0; 4 * 6 - 1];
        assert!(reconstruct_rows(u.as_slice(), &lambda, &panel, &mut short).is_err());
    }

    #[test]
    fn zero_component_panel_reconstructs_zeros() {
        let v = Matrix::zeros(7, 0);
        let panel = VPanel::from_v(&v);
        assert_eq!(panel.cols(), 7);
        assert_eq!(panel.components().count(), 0);
        let mut out = vec![1.0; 14];
        reconstruct_rows(&[], &[], &panel, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0.0));
    }
}
