//! Row-major dense matrix used throughout the workspace.
//!
//! The KV cache, weight matrices and attention score matrices are all stored
//! in this format. Row-major `(l, d)` storage is exactly the "uniform KV
//! format" VEDA relies on: a whole key or value vector lives at one address
//! range, so the accelerator never needs a physical transpose.

use crate::error::{ShapeError, TensorResult};
use std::fmt;

/// A dense row-major `rows × cols` matrix of `f32`.
///
/// ```
/// use veda_tensor::Matrix;
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 2);
/// assert_eq!(m[(1, 0)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> TensorResult<Self> {
        if data.len() != rows * cols {
            return Err(ShapeError::new("Matrix::from_vec", vec![rows, cols], vec![data.len()]));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for r in rows {
            assert_eq!(r.len(), n_cols, "inconsistent row length in Matrix::from_rows");
            data.extend_from_slice(r);
        }
        Self { rows: n_rows, cols: n_cols, data }
    }

    /// Creates an identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `[rows, cols]`.
    pub fn shape(&self) -> [usize; 2] {
        [self.rows, self.cols]
    }

    /// Borrow of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row index {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row index {i} out of bounds ({} rows)", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh vector (columns are strided in
    /// row-major storage; this is the access pattern the paper calls
    /// *memory access irregularity*).
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f32> {
        assert!(j < self.cols, "col index {j} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|i| self.data[i * self.cols + j]).collect()
    }

    /// Copies column `j` into `out` (`out.len() == rows`) — the
    /// allocation-free gather of a token's embedding from a transposed
    /// `(D, V)` table.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols` or `out.len() != rows`.
    pub fn col_into(&self, j: usize, out: &mut [f32]) {
        assert!(j < self.cols, "col index {j} out of bounds ({} cols)", self.cols);
        assert_eq!(out.len(), self.rows, "col_into: output length {} vs {} rows", out.len(), self.rows);
        for (o, &v) in out.iter_mut().zip(self.data.iter().skip(j).step_by(self.cols)) {
            *o = v;
        }
    }

    /// Appends a row to the bottom of the matrix (used by the growing KV
    /// cache during generation).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `row.len() != cols` (unless the matrix
    /// is empty, in which case the row defines the width).
    pub fn push_row(&mut self, row: &[f32]) -> TensorResult<()> {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        } else if row.len() != self.cols {
            return Err(ShapeError::new("Matrix::push_row", vec![self.rows, self.cols], vec![row.len()]));
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Removes row `i`, shifting later rows up (KV eviction).
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn remove_row(&mut self, i: usize) {
        assert!(i < self.rows, "row index {i} out of bounds ({} rows)", self.rows);
        let start = i * self.cols;
        self.data.drain(start..start + self.cols);
        self.rows -= 1;
    }

    /// Removes every row in `sorted_rows` in one stable compaction pass
    /// (multi-slot KV eviction: budget shrink evicts several residents in
    /// a single tick).
    ///
    /// Surviving rows keep their relative order, so the result is
    /// bit-identical to calling [`Matrix::remove_row`] once per index —
    /// but the data is moved once (O(rows · cols) total) instead of once
    /// per removal.
    ///
    /// # Panics
    ///
    /// Panics if `sorted_rows` is not strictly ascending or any index is
    /// out of bounds.
    pub fn remove_rows(&mut self, sorted_rows: &[usize]) {
        let Some(&first) = sorted_rows.first() else { return };
        assert!(
            sorted_rows.windows(2).all(|w| w[0] < w[1]),
            "remove_rows: indices must be strictly ascending, got {sorted_rows:?}"
        );
        let last = *sorted_rows.last().expect("non-empty");
        assert!(last < self.rows, "row index {last} out of bounds ({} rows)", self.rows);
        let cols = self.cols;
        let mut dst = first;
        let mut next_victim = 0;
        for src in first..self.rows {
            if next_victim < sorted_rows.len() && sorted_rows[next_victim] == src {
                next_victim += 1;
                continue;
            }
            if dst != src {
                self.data.copy_within(src * cols..(src + 1) * cols, dst * cols);
            }
            dst += 1;
        }
        self.data.truncate(dst * cols);
        self.rows = dst;
    }

    /// Reserves backing storage for at least `rows` total rows of `cols`
    /// columns (the KV cache pre-sizes for prompt + generation budget so
    /// [`Matrix::push_row`] never reallocates during decode). When the
    /// matrix already has a width, `cols` is ignored in favour of it.
    pub fn reserve_rows(&mut self, rows: usize, cols: usize) {
        let cols = if self.cols > 0 { self.cols } else { cols };
        let need = rows * cols;
        if need > self.data.len() {
            self.data.reserve(need - self.data.len());
        }
    }

    /// Returns the transposed matrix (fresh allocation).
    pub fn transposed(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for (j, t_row) in t.data.chunks_exact_mut(self.rows.max(1)).enumerate() {
            self.col_into(j, t_row);
        }
        t
    }

    /// Dense matrix product `self × rhs`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> TensorResult<Matrix> {
        if self.cols != rhs.rows {
            return Err(ShapeError::new(
                "Matrix::matmul",
                vec![self.rows, self.cols],
                vec![rhs.rows, rhs.cols],
            ));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for (a_row, orow) in self.iter_rows().zip(out.data.chunks_exact_mut(rhs.cols.max(1))) {
            for (&a, rrow) in a_row.iter().zip(rhs.iter_rows()) {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in orow.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Flat row-major view of the backing storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the flat backing storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            for i in 0..self.rows {
                write!(f, "\n  {:?}", self.row(i))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), [3, 4]);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn identity_matmul_is_noop() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i).unwrap(), m);
        assert_eq!(i.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_rejects_mismatched_inner_dim() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transposed();
        assert_eq!(t.shape(), [3, 2]);
        assert_eq!(t.transposed(), a);
    }

    #[test]
    fn push_and_remove_row_model_kv_growth_and_eviction() {
        let mut m = Matrix::default();
        m.push_row(&[1.0, 2.0]).unwrap();
        m.push_row(&[3.0, 4.0]).unwrap();
        m.push_row(&[5.0, 6.0]).unwrap();
        assert_eq!(m.rows(), 3);
        m.remove_row(1);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[5.0, 6.0]);
    }

    #[test]
    fn remove_rows_matches_sequential_remove_row() {
        let rows: Vec<Vec<f32>> = (0..8).map(|i| vec![i as f32, 10.0 + i as f32]).collect();
        let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        for victims in [vec![], vec![0], vec![7], vec![1, 4, 5], vec![0, 1, 2, 3, 4, 5, 6, 7]] {
            let mut single = Matrix::from_rows(&refs);
            // Descending order keeps single-removal indices stable.
            for &v in victims.iter().rev() {
                single.remove_row(v);
            }
            let mut batch = Matrix::from_rows(&refs);
            batch.remove_rows(&victims);
            assert_eq!(batch, single, "victims {victims:?}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn remove_rows_rejects_unsorted_indices() {
        let mut m = Matrix::zeros(4, 2);
        m.remove_rows(&[2, 1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn remove_rows_rejects_out_of_bounds() {
        let mut m = Matrix::zeros(4, 2);
        m.remove_rows(&[1, 4]);
    }

    #[test]
    fn reserve_rows_prevents_push_row_reallocation() {
        let mut m = Matrix::default();
        m.reserve_rows(16, 3);
        let buffer = m.as_slice().as_ptr();
        for i in 0..16 {
            m.push_row(&[i as f32, 0.0, 1.0]).unwrap();
        }
        assert_eq!(m.as_slice().as_ptr(), buffer, "no reallocation during growth");
        assert_eq!(m.rows(), 16);
    }

    #[test]
    fn push_row_rejects_wrong_width() {
        let mut m = Matrix::zeros(1, 3);
        assert!(m.push_row(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn col_extracts_strided_elements() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.col(1), vec![2.0, 4.0, 6.0]);
        let mut out = [0.0; 3];
        m.col_into(1, &mut out);
        assert_eq!(out, [2.0, 4.0, 6.0]);
    }

    #[test]
    fn iter_rows_yields_all_rows() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let rows: Vec<&[f32]> = m.iter_rows().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }

    #[test]
    fn frobenius_norm_matches_manual() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        Matrix::zeros(2, 2).row(2);
    }
}
