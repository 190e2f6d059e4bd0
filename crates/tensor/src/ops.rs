//! Vector kernels and the two GEMV interpretations (Fig. 4 of the paper).
//!
//! A matrix-vector product `(1,k) × (k,n) = (1,n)` can be computed two ways:
//!
//! * **inner product** ([`gemv_inner`]): the whole input vector is dotted
//!   against the matrix column by column — the output is produced element by
//!   element. VEDA uses this for `q × Kᵀ`, mapping the sequence length to
//!   time.
//! * **outer product** ([`gemv_outer`]): one input element at a time is
//!   multiplied against a whole matrix row and accumulated into a partial
//!   output vector. VEDA uses this for `s' × V`, again mapping the sequence
//!   length to time and consuming `s'` element-serially.
//!
//! Both produce bit-identical results up to f32 summation order; property
//! tests in this module check they agree within tolerance.

use crate::error::{ShapeError, TensorResult};
use crate::matrix::Matrix;

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch {} vs {}", x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scales a slice in place.
pub fn scale(alpha: f32, x: &mut [f32]) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// Euclidean norm.
pub fn norm2(x: &[f32]) -> f32 {
    x.iter().map(|v| v * v).sum::<f32>().sqrt()
}

/// Element-wise addition, returning a fresh vector.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "add: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Element-wise product (Hadamard), returning a fresh vector.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn hadamard(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "hadamard: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).collect()
}

/// Inner-product GEMV against the **rows** of `m`: `out[i] = q · m.row(i)`.
///
/// This computes `q × mᵀ` — exactly the attention-score kernel
/// `q × Kᵀ = s` with `m = K` stored in `(l, d)` format. Each output element
/// consumes one `(1, d)` row of `m`; the row count (sequence length) is free
/// to vary, which is the "flexible" dimension of the inner-product
/// interpretation.
///
/// # Panics
///
/// Panics if `q.len() != m.cols()`.
///
/// ```
/// use veda_tensor::{Matrix, ops::gemv_inner};
/// let k = Matrix::from_rows(&[&[1.0, 0.0], &[0.5, 0.5]]);
/// assert_eq!(gemv_inner(&[2.0, 4.0], &k), vec![2.0, 3.0]);
/// ```
pub fn gemv_inner(q: &[f32], m: &Matrix) -> Vec<f32> {
    assert_eq!(q.len(), m.cols(), "gemv_inner: q length {} vs matrix cols {}", q.len(), m.cols());
    m.iter_rows().map(|row| dot(q, row)).collect()
}

/// Outer-product GEMV against the rows of `m`: `out = Σ_i s[i] · m.row(i)`.
///
/// This computes `s × m` — exactly the attention-output kernel
/// `s' × V = o` with `m = V` stored in `(l, d)` format. Each step consumes one
/// scalar of `s` and one `(1, d)` row of `m`, accumulating a partial output of
/// the final size; the row count is again the flexible dimension.
///
/// # Panics
///
/// Panics if `s.len() != m.rows()`.
///
/// ```
/// use veda_tensor::{Matrix, ops::gemv_outer};
/// let v = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
/// assert_eq!(gemv_outer(&[0.25, 0.75], &v), vec![0.25, 0.75]);
/// ```
pub fn gemv_outer(s: &[f32], m: &Matrix) -> Vec<f32> {
    assert_eq!(s.len(), m.rows(), "gemv_outer: s length {} vs matrix rows {}", s.len(), m.rows());
    let mut out = vec![0.0; m.cols()];
    for (i, &si) in s.iter().enumerate() {
        axpy(si, m.row(i), &mut out);
    }
    out
}

/// In-place variant of [`gemv_inner`]: writes `q × mᵀ` into `out`,
/// reusing its allocation (the vector is cleared and refilled; capacity is
/// retained across calls). Bit-identical to [`gemv_inner`] — the summation
/// order of every dot product is unchanged.
///
/// This is the allocation-free kernel of the decode hot path
/// (`ForwardScratch` in `veda-model` threads reusable buffers through it).
///
/// # Panics
///
/// Panics if `q.len() != m.cols()`.
pub fn gemv_inner_into(q: &[f32], m: &Matrix, out: &mut Vec<f32>) {
    assert_eq!(q.len(), m.cols(), "gemv_inner: q length {} vs matrix cols {}", q.len(), m.cols());
    out.clear();
    out.extend(m.iter_rows().map(|row| dot(q, row)));
}

/// In-place variant of [`gemv_outer`]: accumulates `Σ_i s[i] · m.row(i)`
/// into `out`, reusing its allocation. Bit-identical to [`gemv_outer`] —
/// rows are accumulated in the same order.
///
/// # Panics
///
/// Panics if `s.len() != m.rows()`.
pub fn gemv_outer_into(s: &[f32], m: &Matrix, out: &mut Vec<f32>) {
    assert_eq!(s.len(), m.rows(), "gemv_outer: s length {} vs matrix rows {}", s.len(), m.rows());
    out.clear();
    out.resize(m.cols(), 0.0);
    gemm_outer_into(s, m, 0.0, out);
}

/// Output floats one column tile of [`gemm_outer_into`] keeps live: 16 KiB,
/// half a typical L1 data cache, so a tile's accumulators stay resident
/// while the weight rows stream past them.
const TILE_FLOATS: usize = 4096;

/// Row-batched outer-product GEMM: for every row `x_r` of the row-major
/// batch `x` (`rows × m.rows()`), writes `init + Σ_i x_r[i] · m.row(i)`
/// into row `r` of `out` (`rows × m.cols()`).
///
/// Each weight row is read once per column tile and accumulated into
/// every batch row, so a batch streams the matrix once instead of once
/// per row. Every output element still adds its terms one at a time in
/// ascending `i`, starting from `init`, which fixes its bits:
///
/// * with `init = 0.0` each row equals [`gemv_outer_into`] (the `axpy`
///   accumulation order);
/// * with `init = -0.0` over a transposed matrix each element equals
///   [`dot`] of `x_r` with the original row — f32 `Sum` starts from
///   `-0.0`, the additive identity that keeps a `-0.0` product intact.
///
/// Columns are processed in tiles of at most `TILE_FLOATS / rows`
/// (rounded to a multiple of 16, at least 64), so all accumulators of
/// a tile stay in L1 however wide the matrix is. Weight rows are
/// consumed four at a time: each accumulator is loaded once, takes its
/// four terms in order in a register, and is stored once. Neither
/// choice reorders the sum of any element.
///
/// # Panics
///
/// Panics if `x` and `out` do not hold the same whole number of rows of
/// `m.rows()` and `m.cols()` floats respectively.
///
/// ```
/// use veda_tensor::{Matrix, ops::gemm_outer_into};
/// let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
/// let mut out = [0.0; 4];
/// gemm_outer_into(&[1.0, 1.0, 3.0, 0.5], &m, 0.0, &mut out);
/// assert_eq!(out, [1.0, 2.0, 3.0, 1.0]);
/// ```
pub fn gemm_outer_into(x: &[f32], m: &Matrix, init: f32, out: &mut [f32]) {
    let (k, n) = (m.rows(), m.cols());
    let rows = out.len().checked_div(n).unwrap_or(0);
    assert!(
        out.len() == rows * n && x.len() == rows * k,
        "gemm_outer: {} inputs and {} outputs are not whole rows of a {k}x{n} matrix",
        x.len(),
        out.len()
    );
    out.fill(init);
    if rows == 0 || k == 0 {
        return;
    }
    let tile = (TILE_FLOATS / rows / 16 * 16).max(64);
    let quads = k / 4 * 4;
    for start in (0..n).step_by(tile) {
        let end = (start + tile).min(n);
        let w_tile = |i: usize| &m.row(i)[start..end];
        for i in (0..quads).step_by(4) {
            let (w0, w1, w2, w3) = (w_tile(i), w_tile(i + 1), w_tile(i + 2), w_tile(i + 3));
            for (x_row, out_row) in x.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
                let &[a0, a1, a2, a3] = &x_row[i..i + 4] else { unreachable!("four inputs per quad") };
                let lanes = out_row[start..end].iter_mut().zip(w0).zip(w1).zip(w2).zip(w3);
                for ((((o, &v0), &v1), &v2), &v3) in lanes {
                    // Left-associative: the four terms land in ascending `i`.
                    *o = *o + a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
                }
            }
        }
        for i in quads..k {
            let w = w_tile(i);
            for (x_row, out_row) in x.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
                let a = x_row[i];
                for (o, &wv) in out_row[start..end].iter_mut().zip(w) {
                    *o += a * wv;
                }
            }
        }
    }
}

/// Checked variant of [`gemv_inner`].
///
/// # Errors
///
/// Returns a [`ShapeError`] instead of panicking on mismatched shapes.
pub fn try_gemv_inner(q: &[f32], m: &Matrix) -> TensorResult<Vec<f32>> {
    if q.len() != m.cols() {
        return Err(ShapeError::new("gemv_inner", vec![q.len()], vec![m.rows(), m.cols()]));
    }
    Ok(gemv_inner(q, m))
}

/// Checked variant of [`gemv_outer`].
///
/// # Errors
///
/// Returns a [`ShapeError`] instead of panicking on mismatched shapes.
pub fn try_gemv_outer(s: &[f32], m: &Matrix) -> TensorResult<Vec<f32>> {
    if s.len() != m.rows() {
        return Err(ShapeError::new("gemv_outer", vec![s.len()], vec![m.rows(), m.cols()]));
    }
    Ok(gemv_outer(s, m))
}

/// Classic column-access GEMV `out[j] = Σ_i x[i]·m[i][j]` computed per
/// column. Functionally identical to [`gemv_outer`], but touches memory in
/// the strided pattern a fixed inner-product engine would need — kept for
/// modelling and for differential testing.
pub fn gemv_by_columns(x: &[f32], m: &Matrix) -> Vec<f32> {
    assert_eq!(x.len(), m.rows(), "gemv_by_columns: x length {} vs matrix rows {}", x.len(), m.rows());
    (0..m.cols()).map(|j| x.iter().enumerate().map(|(i, &xi)| xi * m[(i, j)]).sum()).collect()
}

/// Maximum absolute difference between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_known_value() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(0.5, &mut x);
        assert_eq!(x, vec![0.5, -1.0]);
    }

    #[test]
    fn inner_and_outer_agree_on_square() {
        // q × Mᵀ via inner == Mᵀ applied via outer on the transposed matrix.
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let q = [0.5, -1.0];
        let inner = gemv_inner(&q, &m); // q · each row => q × Mᵀ, len 3
        let outer = gemv_outer(&q, &m.transposed()); // q × Mᵀ via outer
        assert!(max_abs_diff(&inner, &outer) < 1e-6);
    }

    #[test]
    fn outer_equals_column_gemv() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 1.0, 2.0]]);
        let s = [0.3, 0.7];
        assert!(max_abs_diff(&gemv_outer(&s, &m), &gemv_by_columns(&s, &m)) < 1e-6);
    }

    #[test]
    fn into_variants_match_allocating_kernels_bit_for_bit() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[3.0, -4.0, 0.25], &[5.0, 6.0, -0.125]]);
        let q = [0.5, -1.0, 2.0];
        let mut out = vec![9.0; 7]; // stale content must be overwritten
        gemv_inner_into(&q, &m, &mut out);
        assert_eq!(out, gemv_inner(&q, &m));
        gemv_outer_into(&q, &m, &mut out);
        assert_eq!(out, gemv_outer(&q, &m));
        // Reuse without reallocation once capacity is warm.
        let cap = out.capacity();
        gemv_outer_into(&q, &m, &mut out);
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn gemm_outer_matches_per_row_kernels_bit_for_bit() {
        // Wide enough to span several column tiles at 24 rows; `k` = 7
        // exercises both the four-row groups and the leftover rows.
        let (k, n, rows) = (7, 300, 24);
        let m = Matrix::from_vec(k, n, (0..k * n).map(|i| ((i * 37) % 101) as f32 / 13.0 - 3.5).collect())
            .expect("sized");
        let x: Vec<f32> = (0..rows * k).map(|i| ((i * 53) % 29) as f32 / 7.0 - 2.0).collect();
        let mut out = vec![0.0; rows * n];
        gemm_outer_into(&x, &m, 0.0, &mut out);
        for (x_row, out_row) in x.chunks_exact(k).zip(out.chunks_exact(n)) {
            assert_eq!(out_row, gemv_outer(x_row, &m).as_slice());
        }
        // Seeded with -0.0 over the transpose, every element is a `dot`.
        let mt = m.transposed();
        let mut head = vec![0.0; rows * k];
        let y: Vec<f32> = (0..rows * n).map(|i| ((i * 11) % 17) as f32 / 5.0 - 1.5).collect();
        gemm_outer_into(&y, &mt, -0.0, &mut head);
        for (y_row, out_row) in y.chunks_exact(n).zip(head.chunks_exact(k)) {
            let want: Vec<u32> = m.iter_rows().map(|r| dot(y_row, r).to_bits()).collect();
            assert_eq!(out_row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn gemm_outer_keeps_negative_zero_only_with_a_negative_zero_seed() {
        let m = Matrix::from_rows(&[&[-0.0], &[0.0]]);
        let mut out = [1.0];
        gemm_outer_into(&[1.0, -1.0], &m, -0.0, &mut out);
        assert_eq!(out[0].to_bits(), dot(&[1.0, -1.0], &[-0.0, 0.0]).to_bits());
        assert!(out[0].is_sign_negative());
        gemm_outer_into(&[1.0, -1.0], &m, 0.0, &mut out);
        assert!(out[0].is_sign_positive());
    }

    #[test]
    fn try_variants_report_shape_errors() {
        let m = Matrix::zeros(3, 2);
        assert!(try_gemv_inner(&[1.0, 2.0, 3.0], &m).is_err());
        assert!(try_gemv_inner(&[1.0, 2.0], &m).is_ok());
        assert!(try_gemv_outer(&[1.0, 2.0], &m).is_err());
        assert!(try_gemv_outer(&[1.0, 2.0, 3.0], &m).is_ok());
    }

    #[test]
    fn norm2_of_pythagorean_triple() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn hadamard_and_add() {
        assert_eq!(hadamard(&[1.0, 2.0], &[3.0, 4.0]), vec![3.0, 8.0]);
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
