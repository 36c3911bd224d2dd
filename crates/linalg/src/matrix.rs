//! Dense row-major matrix.
//!
//! The paper's data model is an `N × M` matrix `X` of `N` time sequences
//! (rows) by `M` time points (columns), with `N ≫ M` (Eq. 1). Row-major
//! layout is therefore the natural one: every streaming pass of the
//! compression algorithms reads `X` one row at a time, and cell
//! reconstruction fetches one row of `U`.

use ats_common::{AtsError, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use ats_linalg::Matrix;
/// let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// An all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a flat row-major vector. Errors if the length is not
    /// `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(AtsError::dims(
                "Matrix::from_vec",
                (data.len(), 1),
                (rows * cols, 1),
            ));
        }
        Ok(Matrix { data, rows, cols })
    }

    /// Build from nested row vectors. Errors on ragged input or zero rows.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(AtsError::InvalidArgument(
                "Matrix::from_rows: no rows".into(),
            ));
        }
        let ncols = rows[0].len();
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(AtsError::dims(
                    format!("Matrix::from_rows row {i}"),
                    (1, r.len()),
                    (1, ncols),
                ));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            data,
            rows: nrows,
            cols: ncols,
        })
    }

    /// Build a `rows × cols` matrix by evaluating `f(i, j)` at every cell.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows (`N` in the paper).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (`M` in the paper).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow row `i` as a slice. Panics if out of bounds (use
    /// [`Matrix::try_row`] for a checked variant).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Checked row access.
    pub fn try_row(&self, i: usize) -> Result<&[f64]> {
        if i >= self.rows {
            return Err(AtsError::oob("row", i, self.rows));
        }
        Ok(self.row(i))
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` out into a vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Checked cell read.
    pub fn get(&self, i: usize, j: usize) -> Result<f64> {
        if i >= self.rows {
            return Err(AtsError::oob("row", i, self.rows));
        }
        if j >= self.cols {
            return Err(AtsError::oob("column", j, self.cols));
        }
        Ok(self[(i, j)])
    }

    /// Iterate over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// Split the matrix into disjoint mutable bands of at most
    /// `rows_per_chunk` consecutive rows, yielding `(first_row, band)`
    /// pairs. The bands borrow non-overlapping regions of the underlying
    /// storage, so each can be handed to a different worker thread — the
    /// safe `&mut` partitioning behind the parallel passes that write
    /// disjoint row ranges of `U`.
    ///
    /// Panics if `rows_per_chunk == 0`. A `0 × m` matrix yields nothing.
    pub fn row_chunks_mut(
        &mut self,
        rows_per_chunk: usize,
    ) -> impl ExactSizeIterator<Item = (usize, &mut [f64])> {
        assert!(rows_per_chunk > 0, "row_chunks_mut: zero chunk size");
        let cols = self.cols;
        // `.max(1)` keeps chunks_mut legal for 0-column matrices, whose
        // backing storage is empty and yields no bands anyway.
        self.data
            .chunks_mut((rows_per_chunk * cols).max(1))
            .enumerate()
            .map(move |(c, band)| (c * rows_per_chunk, band))
    }

    /// The underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the underlying row-major storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Transpose (allocates).
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                t[(j, i)] = v;
            }
        }
        t
    }

    /// Matrix product `self × rhs`. Errors on inner-dimension mismatch.
    ///
    /// Uses the cache-friendly `i-k-j` loop order: the innermost loop walks
    /// contiguous rows of both the output and `rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(AtsError::dims(
                "matmul",
                (rhs.rows, rhs.cols),
                (self.cols, rhs.cols),
            ));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = rhs.row(k);
                let o_row = out.row_mut(i);
                for (j, &b_kj) in b_row.iter().enumerate() {
                    o_row[j] += a_ik * b_kj;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self × v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(AtsError::dims("matvec", (v.len(), 1), (self.cols, 1)));
        }
        Ok(self
            .iter_rows()
            .map(|row| crate::vecops::dot(row, v))
            .collect())
    }

    /// The Gram (column-to-column similarity) matrix `C = XᵀX` (Lemma 3.2),
    /// computed directly without materializing the transpose.
    ///
    /// This is the in-memory twin of the paper's pass-1 algorithm (Fig. 2):
    /// for each row, add the outer product of the row with itself into `C`.
    /// Only the upper triangle is accumulated; symmetry fills the rest.
    pub fn gram(&self) -> Matrix {
        let m = self.cols;
        let mut c = Matrix::zeros(m, m);
        for row in self.iter_rows() {
            for j in 0..m {
                let xj = row[j];
                if xj == 0.0 {
                    continue;
                }
                let c_row = c.row_mut(j);
                for (l, &xl) in row.iter().enumerate().skip(j) {
                    c_row[l] += xj * xl;
                }
            }
        }
        // mirror upper triangle into the lower
        for j in 0..m {
            for l in (j + 1)..m {
                c[(l, j)] = c[(j, l)];
            }
        }
        c
    }

    /// Scale every element in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Element-wise difference `self − rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(AtsError::dims("sub", rhs.shape(), self.shape()));
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Frobenius norm `‖A‖_F = (Σ a_{ij}²)^{1/2}`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |acc, v| acc.max(v.abs()))
    }

    /// Mean of all cells (`x̄` in Def. 5.1). Zero for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f64>() / self.data.len() as f64
        }
    }

    /// True when all elements are finite (no NaN/±∞).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Whether `self` and `other` agree element-wise within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Keep only the first `n` rows (cheap truncation: just shortens the
    /// backing vector).
    pub fn truncate_rows(&mut self, n: usize) {
        let n = n.min(self.rows);
        self.data.truncate(n * self.cols);
        self.rows = n;
    }

    /// Copy a sub-block of columns `[j0, j1)` of every row.
    pub fn slice_cols(&self, j0: usize, j1: usize) -> Result<Matrix> {
        if j0 > j1 || j1 > self.cols {
            return Err(AtsError::InvalidArgument(format!(
                "slice_cols [{j0}, {j1}) out of 0..{}",
                self.cols
            )));
        }
        let w = j1 - j0;
        let mut out = Matrix::zeros(self.rows, w);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[j0..j1]);
        }
        Ok(out)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for i in 0..show {
            write!(f, "  [")?;
            for (j, v) in self.row(i).iter().take(10).enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:9.4}")?;
            }
            if self.cols > 10 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show {
            writeln!(f, "  … {} more rows", self.rows - show)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Matrix {
        Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let m = small();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
    }

    #[test]
    fn ragged_rows_rejected() {
        assert!(Matrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Matrix::from_rows(vec![]).is_err());
    }

    #[test]
    fn from_vec_length_checked() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn transpose_involutive() {
        let m = small();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = small(); // 2x3
        let b = Matrix::from_rows(vec![vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]).unwrap(); // 3x2
        let c = a.matmul(&b).unwrap();
        let expect = Matrix::from_rows(vec![vec![58.0, 64.0], vec![139.0, 154.0]]).unwrap();
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = small();
        assert!(a.matmul(&small()).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let a = small();
        let i3 = Matrix::identity(3);
        assert!(a.matmul(&i3).unwrap().approx_eq(&a, 1e-15));
        let i2 = Matrix::identity(2);
        assert!(i2.matmul(&a).unwrap().approx_eq(&a, 1e-15));
    }

    #[test]
    fn row_chunks_mut_covers_disjointly() {
        // 7 rows in bands of 3: starts 0, 3, 6 with a ragged final band.
        let mut m = Matrix::zeros(7, 4);
        let mut starts = Vec::new();
        for (start, band) in m.row_chunks_mut(3) {
            assert_eq!(band.len() % 4, 0);
            starts.push((start, band.len() / 4));
            for v in band.iter_mut() {
                *v += 1.0; // each cell must be visited exactly once
            }
        }
        assert_eq!(starts, vec![(0, 3), (3, 3), (6, 1)]);
        assert!(m.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn row_chunks_mut_edge_shapes() {
        // Chunk size beyond the row count: one band with everything.
        let mut m = Matrix::zeros(2, 3);
        let bands: Vec<(usize, usize)> = m.row_chunks_mut(10).map(|(s, b)| (s, b.len())).collect();
        assert_eq!(bands, vec![(0, 6)]);

        // Degenerate shapes yield no bands at all.
        let mut empty_rows = Matrix::zeros(0, 5);
        assert_eq!(empty_rows.row_chunks_mut(2).count(), 0);
        let mut empty_cols = Matrix::zeros(5, 0);
        assert_eq!(empty_cols.row_chunks_mut(2).count(), 0);
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let a = Matrix::from_fn(7, 4, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        let direct = a.transpose().matmul(&a).unwrap();
        assert!(a.gram().approx_eq(&direct, 1e-9));
    }

    #[test]
    fn gram_is_symmetric_and_psd_diagonal() {
        let a = Matrix::from_fn(5, 3, |i, j| (i as f64 - j as f64) * 0.5);
        let c = a.gram();
        for i in 0..3 {
            assert!(c[(i, i)] >= 0.0);
            for j in 0..3 {
                assert!((c[(i, j)] - c[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = small();
        let v = vec![1.0, 0.5, -1.0];
        let got = a.matvec(&v).unwrap();
        assert!((got[0] - (1.0 + 1.0 - 3.0)).abs() < 1e-12);
        assert!((got[1] - (4.0 + 2.5 - 6.0)).abs() < 1e-12);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn norms_and_mean() {
        let m = Matrix::from_rows(vec![vec![3.0, 4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
        assert!((m.mean() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn sub_and_shape_check() {
        let a = small();
        let d = a.sub(&a).unwrap();
        assert_eq!(d.frobenius_norm(), 0.0);
        assert!(a.sub(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn checked_accessors() {
        let m = small();
        assert!(m.get(0, 0).is_ok());
        assert!(m.get(2, 0).is_err());
        assert!(m.get(0, 3).is_err());
        assert!(m.try_row(1).is_ok());
        assert!(m.try_row(2).is_err());
    }

    #[test]
    fn truncate_rows_shortens() {
        let mut m = small();
        m.truncate_rows(1);
        assert_eq!(m.shape(), (1, 3));
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        m.truncate_rows(100); // no-op beyond current size
        assert_eq!(m.rows(), 1);
    }

    #[test]
    fn slice_cols_extracts_block() {
        let m = small();
        let s = m.slice_cols(1, 3).unwrap();
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), &[2.0, 3.0]);
        assert!(m.slice_cols(2, 1).is_err());
        assert!(m.slice_cols(0, 4).is_err());
    }

    #[test]
    fn col_extraction() {
        let m = small();
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = small();
        assert!(m.is_finite());
        m[(0, 0)] = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn from_fn_fills_cells() {
        let m = Matrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(2, 1)], 21.0);
    }

    #[test]
    fn debug_format_does_not_panic() {
        let m = Matrix::from_fn(20, 20, |i, j| (i + j) as f64);
        let s = format!("{m:?}");
        assert!(s.contains("more rows"));
    }
}
