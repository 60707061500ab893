use serde::{Deserialize, Serialize};

use crate::ShapeError;

/// A dense, row-major `f32` matrix.
///
/// `Matrix` is the workhorse container behind the neural-network layers in
/// `agsfl-ml`: weight matrices, activation batches and gradients are all
/// stored in this type. It deliberately offers only the operations the
/// simulator needs and keeps all of them allocation-transparent (methods that
/// allocate return a new `Matrix`, in-place methods take `&mut self`).
///
/// # Examples
///
/// ```
/// use agsfl_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
/// assert_eq!(a.shape(), (2, 3));
/// assert_eq!(a.get(1, 2), 6.0);
///
/// let at = a.transpose();
/// assert_eq!(at.shape(), (3, 2));
/// assert_eq!(at.get(2, 1), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// # use agsfl_tensor::Matrix;
    /// let m = Matrix::zeros(2, 4);
    /// assert_eq!(m.shape(), (2, 4));
    /// assert!(m.as_slice().iter().all(|&x| x == 0.0));
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// # use agsfl_tensor::Matrix;
    /// let i = Matrix::identity(3);
    /// assert_eq!(i.get(1, 1), 1.0);
    /// assert_eq!(i.get(0, 2), 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of equally long rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix where element `(i, j)` is `f(i, j)`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use agsfl_tensor::Matrix;
    /// let m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f32);
    /// assert_eq!(m.get(1, 0), 10.0);
    /// ```
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as a `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements (`rows * cols`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying row-major data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `j >= cols`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        self.data[i * self.cols + j]
    }

    /// Sets element `(i, j)` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `j >= cols`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f32) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        self.data[i * self.cols + j] = value;
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row {i} out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterates over the rows of the matrix as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns column `j` as an owned vector.
    pub fn col(&self, j: usize) -> Vec<f32> {
        assert!(j < self.cols, "column {j} out of bounds");
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Reshapes the matrix to `rows x cols` **without clearing its
    /// contents**: slots that existed before keep their old values and any
    /// newly grown slots are zero.
    ///
    /// This is the scratch-buffer primitive behind the im2col workspace in
    /// `agsfl-ml`: buffers that are fully overwritten by their producer pass
    /// (the column lowering, [`Matrix::matmul_into`]) reuse their allocation
    /// across calls instead of reallocating per batch. Callers that need a
    /// cleared buffer should follow up with [`Matrix::fill`].
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Backing-store capacity in elements (for memory audits of reusable
    /// workspaces, which are grow-only).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Matrix multiplication `self * rhs`, panicking on shape mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`. Use [`Matrix::try_matmul`] for a
    /// fallible variant.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.try_matmul(rhs).expect("matmul shape mismatch")
    }

    /// Matrix multiplication `self * rhs` written into `out`, reusing `out`'s
    /// allocation (the buffer is reshaped with [`Matrix::resize_for_overwrite`]
    /// and fully overwritten).
    ///
    /// Bit-identical to [`Matrix::matmul`]: both run the same blocked kernel
    /// (see the `gemm_into` comment for the fixed accumulation order).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul_into shape mismatch: {:?} * {:?}",
            self.shape(),
            rhs.shape()
        );
        out.resize_for_overwrite(self.rows, rhs.cols);
        out.fill(0.0);
        gemm_into(
            self.rows,
            self.cols,
            &self.data,
            rhs.cols,
            &rhs.data,
            &mut out.data,
        );
    }

    /// Matrix multiplication accumulated into an existing matrix:
    /// `out += self * rhs`, without clearing `out` first.
    ///
    /// Same blocked kernel as [`Matrix::matmul`]; the pre-seeded `out` acts
    /// as the fold's starting value (the im2col convolution seeds it with
    /// the bias, matching the scalar reference's bias-first accumulation).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()` or `out` has the wrong shape.
    pub fn matmul_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul_acc shape mismatch: {:?} * {:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.cols),
            "matmul_acc output shape mismatch"
        );
        gemm_into(
            self.rows,
            self.cols,
            &self.data,
            rhs.cols,
            &rhs.data,
            &mut out.data,
        );
    }

    /// Accumulates `self * rhs^T` into the row-major slice `out` (shape
    /// `self.rows() x rhs.rows()`), without materialising the transpose and
    /// without clearing `out` first.
    ///
    /// The accumulate-into-slice form exists for gradient computation: a
    /// model's flat gradient vector contains the weight block as a
    /// contiguous row-major region, so the backward matmul can add straight
    /// into it with no temporary.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()` or `out` has the wrong length.
    pub fn matmul_transpose_acc(&self, rhs: &Matrix, out: &mut [f32]) {
        assert_eq!(
            self.cols,
            rhs.cols,
            "matmul_transpose_acc shape mismatch: {:?} * {:?}^T",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(
            out.len(),
            self.rows * rhs.rows,
            "matmul_transpose_acc output length {} does not match {}x{}",
            out.len(),
            self.rows,
            rhs.rows
        );
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out[i * rhs.rows..(i + 1) * rhs.rows];
            for (j, o) in out_row.iter_mut().enumerate() {
                *o += dot_unrolled(a_row, rhs.row(j));
            }
        }
    }

    /// Accumulates `self^T * rhs` into the row-major slice `out` (shape
    /// `self.cols() x rhs.cols()`), without materialising the transpose and
    /// without clearing `out` first.
    ///
    /// Accumulation runs over `self`'s rows (the batch dimension in
    /// backpropagation) in ascending order within a fixed 4-row blocking —
    /// the deterministic sample-major order documented on the `Model` trait
    /// in `agsfl-ml`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()` or `out` has the wrong length.
    pub fn transpose_matmul_acc(&self, rhs: &Matrix, out: &mut [f32]) {
        assert_eq!(
            self.rows,
            rhs.rows,
            "transpose_matmul_acc shape mismatch: {:?}^T * {:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(
            out.len(),
            self.cols * rhs.cols,
            "transpose_matmul_acc output length {} does not match {}x{}",
            out.len(),
            self.cols,
            rhs.cols
        );
        // Four batch rows per sweep over the output block: the output row is
        // the hot operand (it is read and written every step), so blocking
        // the batch dimension cuts its memory traffic 4x. Accumulation stays
        // ascending in `k` within a fixed deterministic blocking.
        let n = rhs.cols;
        let mut k = 0;
        while k + 4 <= self.rows {
            let b0 = rhs.row(k);
            let b1 = rhs.row(k + 1);
            let b2 = rhs.row(k + 2);
            let b3 = rhs.row(k + 3);
            for i in 0..self.cols {
                let a0 = self.data[k * self.cols + i];
                let a1 = self.data[(k + 1) * self.cols + i];
                let a2 = self.data[(k + 2) * self.cols + i];
                let a3 = self.data[(k + 3) * self.cols + i];
                if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                    continue;
                }
                let out_row = &mut out[i * n..(i + 1) * n];
                for (j, o) in out_row.iter_mut().enumerate() {
                    *o += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                }
            }
            k += 4;
        }
        while k < self.rows {
            let a_row = self.row(k);
            let b_row = rhs.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
            k += 1;
        }
    }

    /// Matrix multiplication `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `self.cols() != rhs.rows()`.
    pub fn try_matmul(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != rhs.rows {
            return Err(ShapeError::new("matmul", self.shape(), rhs.shape()));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        gemm_into(
            self.rows,
            self.cols,
            &self.data,
            rhs.cols,
            &rhs.data,
            &mut out.data,
        );
        Ok(out)
    }

    /// Multiplies `self` by the transpose of `rhs` (i.e. `self * rhs^T`)
    /// without materialising the transpose.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `self.cols() != rhs.cols()`.
    pub fn matmul_transpose(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != rhs.cols {
            return Err(ShapeError::new(
                "matmul_transpose",
                self.shape(),
                rhs.shape(),
            ));
        }
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..rhs.rows {
                let b_row = rhs.row(j);
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                out.set(i, j, acc);
            }
        }
        Ok(out)
    }

    /// Multiplies the transpose of `self` by `rhs` (i.e. `self^T * rhs`)
    /// without materialising the transpose.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `self.rows() != rhs.rows()`.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.rows != rhs.rows {
            return Err(ShapeError::new(
                "transpose_matmul",
                self.shape(),
                rhs.shape(),
            ));
        }
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = rhs.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Element-wise addition, returning a new matrix.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the shapes differ.
    pub fn try_add(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::new("add", self.shape(), rhs.shape()));
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix::from_vec(self.rows, self.cols, data))
    }

    /// In-place element-wise addition `self += rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// In-place scalar multiplication `self *= s`.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&v| f(v)).collect(),
        )
    }

    /// Adds a row vector (broadcast over rows), used for bias addition.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length must equal cols");
        for i in 0..self.rows {
            for (v, b) in self.row_mut(i).iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
    }

    /// Sums the rows of the matrix into a single vector of length `cols`.
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for i in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(i).iter()) {
                *o += v;
            }
        }
        out
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

/// The shared row-major gemm kernel behind [`Matrix::matmul`] and
/// [`Matrix::matmul_into`]: `out += a * b` with `out` pre-zeroed by the
/// callers.
///
/// ikj loop order (stream over `b`'s rows) with the `k` dimension blocked
/// four at a time: the output row is the hot operand — it is read and
/// written on every `k` step — so the blocking cuts its memory traffic 4x,
/// which is what the larger layers of the im2col CNN are bound by. The
/// accumulation order is fixed and deterministic (ascending `k` within the
/// 4-way blocking), independent of threads or call site, but it is *not*
/// the scalar left fold: code comparing against a scalar reference (the
/// `agsfl_ml::reference` equivalence tests) must compare within a small
/// relative tolerance.
fn gemm_into(a_rows: usize, a_cols: usize, a: &[f32], b_cols: usize, b: &[f32], out: &mut [f32]) {
    // Two output rows per sweep: each streamed `b` block feeds both rows, so
    // i-blocking halves `b`'s memory traffic and doubles the number of
    // independent accumulation chains. It does not change any output
    // element's fold order (rows are independent), so the single-row tail
    // below produces the same bits as the paired path.
    let mut i = 0;
    while i + 2 <= a_rows {
        let (out_row0, out_row1) = out[i * b_cols..(i + 2) * b_cols].split_at_mut(b_cols);
        let a_row0 = &a[i * a_cols..(i + 1) * a_cols];
        let a_row1 = &a[(i + 1) * a_cols..(i + 2) * a_cols];
        let mut k = 0;
        while k + 4 <= a_cols {
            let b0 = &b[k * b_cols..(k + 1) * b_cols];
            let b1 = &b[(k + 1) * b_cols..(k + 2) * b_cols];
            let b2 = &b[(k + 2) * b_cols..(k + 3) * b_cols];
            let b3 = &b[(k + 3) * b_cols..(k + 4) * b_cols];
            let (x0, x1, x2, x3) = (a_row0[k], a_row0[k + 1], a_row0[k + 2], a_row0[k + 3]);
            let (y0, y1, y2, y3) = (a_row1[k], a_row1[k + 1], a_row1[k + 2], a_row1[k + 3]);
            for (((((o0, o1), &v0), &v1), &v2), &v3) in out_row0
                .iter_mut()
                .zip(out_row1.iter_mut())
                .zip(b0.iter())
                .zip(b1.iter())
                .zip(b2.iter())
                .zip(b3.iter())
            {
                *o0 += x0 * v0 + x1 * v1 + x2 * v2 + x3 * v3;
                *o1 += y0 * v0 + y1 * v1 + y2 * v2 + y3 * v3;
            }
            k += 4;
        }
        while k < a_cols {
            let b0 = &b[k * b_cols..(k + 1) * b_cols];
            let x = a_row0[k];
            let y = a_row1[k];
            if x != 0.0 || y != 0.0 {
                for ((o0, o1), &v) in out_row0.iter_mut().zip(out_row1.iter_mut()).zip(b0.iter()) {
                    *o0 += x * v;
                    *o1 += y * v;
                }
            }
            k += 1;
        }
        i += 2;
    }
    if i < a_rows {
        let a_row = &a[i * a_cols..(i + 1) * a_cols];
        let out_row = &mut out[i * b_cols..(i + 1) * b_cols];
        let mut k = 0;
        while k + 4 <= a_cols {
            let (a0, a1, a2, a3) = (a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]);
            if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
                let b0 = &b[k * b_cols..(k + 1) * b_cols];
                let b1 = &b[(k + 1) * b_cols..(k + 2) * b_cols];
                let b2 = &b[(k + 2) * b_cols..(k + 3) * b_cols];
                let b3 = &b[(k + 3) * b_cols..(k + 4) * b_cols];
                for ((((o, &v0), &v1), &v2), &v3) in out_row
                    .iter_mut()
                    .zip(b0.iter())
                    .zip(b1.iter())
                    .zip(b2.iter())
                    .zip(b3.iter())
                {
                    *o += a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
                }
            }
            k += 4;
        }
        while k < a_cols {
            let a0 = a_row[k];
            if a0 != 0.0 {
                let b0 = &b[k * b_cols..(k + 1) * b_cols];
                for (o, &v) in out_row.iter_mut().zip(b0.iter()) {
                    *o += a0 * v;
                }
            }
            k += 1;
        }
    }
}

/// Dot product with eight independent accumulators, so the additions
/// pipeline instead of forming one serial dependency chain (a plain fold is
/// bound by FP-add latency on long vectors). Deterministic: the lane
/// assignment depends only on the input length.
fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut a_chunks = a.chunks_exact(8);
    let mut b_chunks = b.chunks_exact(8);
    for (ca, cb) in (&mut a_chunks).zip(&mut b_chunks) {
        for l in 0..8 {
            lanes[l] += ca[l] * cb[l];
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in a_chunks.remainder().iter().zip(b_chunks.remainder().iter()) {
        tail += x * y;
    }
    (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
        + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_filled() {
        let z = Matrix::zeros(3, 2);
        assert_eq!(z.len(), 6);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let f = Matrix::filled(2, 2, 7.5);
        assert!(f.as_slice().iter().all(|&x| x == 7.5));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.try_matmul(&b).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_into_matches_matmul_and_reuses_buffer() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(4, 5, |i, j| (i + 2 * j) as f32 * 0.25 - 1.0);
        let mut out = Matrix::filled(7, 7, f32::NAN); // stale garbage, wrong shape
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // A second call on the (now right-sized) buffer gives the same bits.
        let first = out.clone();
        a.matmul_into(&b, &mut out);
        assert_eq!(out, first);
    }

    #[test]
    fn matmul_transpose_acc_accumulates() {
        let a = Matrix::from_fn(2, 3, |i, j| (i + j) as f32 + 0.5);
        let b = Matrix::from_fn(4, 3, |i, j| (i * j) as f32 - 1.0);
        let expected = a.matmul_transpose(&b).unwrap();
        let mut out = vec![1.0f32; 2 * 4];
        a.matmul_transpose_acc(&b, &mut out);
        for (o, &e) in out.iter().zip(expected.as_slice().iter()) {
            assert!((o - (e + 1.0)).abs() < 1e-6, "{o} vs {e} + 1");
        }
    }

    #[test]
    fn transpose_matmul_acc_accumulates() {
        let a = Matrix::from_fn(5, 2, |i, j| (i as f32) - (j as f32) * 0.25);
        let b = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f32);
        let expected = a.transpose_matmul(&b).unwrap();
        let mut out = vec![0.0f32; 2 * 3];
        a.transpose_matmul_acc(&b, &mut out);
        assert_eq!(out.as_slice(), expected.as_slice());
    }

    #[test]
    fn resize_for_overwrite_keeps_allocation_and_fill_clears() {
        let mut m = Matrix::filled(2, 3, 7.0);
        m.resize_for_overwrite(3, 2);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.as_slice()[0], 7.0, "old contents survive the reshape");
        m.fill(0.0);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic]
    fn matmul_transpose_acc_bad_out_len_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 3);
        let mut out = vec![0.0f32; 3];
        a.matmul_transpose_acc(&b, &mut out);
    }

    #[test]
    fn matmul_transpose_matches_explicit_transpose() {
        let a = Matrix::from_fn(2, 3, |i, j| (i + j) as f32 + 0.5);
        let b = Matrix::from_fn(4, 3, |i, j| (i * j) as f32 - 1.0);
        let via_helper = a.matmul_transpose(&b).unwrap();
        let via_explicit = a.matmul(&b.transpose());
        assert_eq!(via_helper, via_explicit);
    }

    #[test]
    fn transpose_matmul_matches_explicit_transpose() {
        let a = Matrix::from_fn(5, 2, |i, j| (i as f32) - (j as f32) * 0.25);
        let b = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f32);
        let via_helper = a.transpose_matmul(&b).unwrap();
        let via_explicit = a.transpose().matmul(&b);
        assert_eq!(via_helper, via_explicit);
    }

    #[test]
    fn add_and_scale() {
        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        let mut c = a.try_add(&b).unwrap();
        assert!(c.as_slice().iter().all(|&x| x == 3.0));
        c.scale(2.0);
        assert!(c.as_slice().iter().all(|&x| x == 6.0));
    }

    #[test]
    fn add_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 2);
        assert!(a.try_add(&b).is_err());
    }

    #[test]
    fn row_broadcast_and_sum_rows() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(a.sum_rows(), vec![3.0, 6.0]);
    }

    #[test]
    fn rows_and_cols_accessors() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.col(2), vec![3.0, 6.0]);
        assert_eq!(a.iter_rows().count(), 2);
    }

    #[test]
    fn frobenius_norm_known_value() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn map_and_map_inplace_agree() {
        let a = Matrix::from_fn(2, 3, |i, j| (i + j) as f32);
        let mapped = a.map(|x| x * 2.0 + 1.0);
        let mut inplace = a.clone();
        inplace.map_inplace(|x| x * 2.0 + 1.0);
        assert_eq!(mapped, inplace);
    }

    #[test]
    #[should_panic]
    fn get_out_of_bounds_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a.get(2, 0);
    }

    #[test]
    fn clone_is_deep() {
        let a = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f32);
        let mut b = a.clone();
        b.set(0, 0, 99.0);
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(b.get(0, 0), 99.0);
    }
}
