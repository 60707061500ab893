use serde::{Deserialize, Serialize};

use crate::product::MatrixView;

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
/// let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// assert_eq!(a.shape(), (2, 3));
/// assert_eq!(a.row(1)[2], 6.0);
///
/// let b = Matrix::from_vec(3, 1, vec![1.0, 0.0, -1.0]);
/// let mut c = Matrix::default();
/// a.matmul_into(&b, &mut c);
/// assert_eq!(c.as_slice(), &[-2.0, -2.0]);
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

    /// Creates a matrix where element `(i, j)` is `f(i, j)`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use agsfl_tensor::Matrix;
    /// let m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f32);
    /// assert_eq!(m.row(1)[0], 10.0);
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

    /// Reshapes the matrix to `rows x cols` **without clearing its
    /// contents**: slots that existed before keep their old values and any
    /// newly grown slots are zero.
    ///
    /// This is the scratch-buffer primitive behind the CNN workspace in
    /// `agsfl-ml`: buffers that are fully overwritten by their producer pass
    /// (the pooled activations, [`Matrix::matmul_into`]) reuse their allocation
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

    /// Borrows the matrix as a [`MatrixView`], the operand type of the
    /// product kernels.
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView::new(self.rows, self.cols, &self.data)
    }

    /// Matrix multiplication `self * rhs` written into `out`, reusing `out`'s
    /// allocation (the buffer is reshaped with [`Matrix::resize_for_overwrite`]
    /// and fully overwritten).
    ///
    /// [`MatrixView::matmul_acc`] on a zeroed output.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        out.resize_for_overwrite(self.rows, rhs.cols);
        out.fill(0.0);
        self.view().matmul_acc(rhs.view(), &mut out.data);
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
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_all_zero() {
        let z = Matrix::zeros(3, 2);
        assert_eq!(z.len(), 6);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn matmul_into_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut c = Matrix::default();
        a.matmul_into(&b, &mut c);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_into_overwrites_a_stale_buffer_and_reuses_it() {
        // Quarter-integer operands: every product and sum is exact, so the
        // textbook loop gives the kernel's bits whatever its fold order.
        let a = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(4, 5, |i, j| (i + 2 * j) as f32 * 0.25 - 1.0);
        let expected =
            Matrix::from_fn(3, 5, |i, j| (0..4).map(|l| a.row(i)[l] * b.row(l)[j]).sum());
        // Stale garbage of the wrong shape.
        let mut out = Matrix::from_vec(7, 7, vec![f32::NAN; 49]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, expected);
        // A second call on the (now right-sized) buffer gives the same bits.
        let first = out.clone();
        a.matmul_into(&b, &mut out);
        assert_eq!(out, first);
    }

    #[test]
    fn resize_for_overwrite_keeps_allocation_and_fill_clears() {
        let mut m = Matrix::from_vec(2, 3, vec![7.0; 6]);
        m.resize_for_overwrite(3, 2);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.as_slice()[0], 7.0, "old contents survive the reshape");
        m.fill(0.0);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn scale_multiplies_every_element() {
        let mut c = Matrix::from_vec(2, 2, vec![3.0; 4]);
        c.scale(2.0);
        assert!(c.as_slice().iter().all(|&x| x == 6.0));
    }

    #[test]
    fn row_broadcast_and_sum_rows() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(a.sum_rows(), vec![3.0, 6.0]);
    }

    #[test]
    fn rows_and_cols_accessors() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.iter_rows().count(), 2);
    }

    #[test]
    fn map_inplace_applies_to_every_element() {
        let mut a = Matrix::from_vec(2, 3, vec![0.0, 1.0, 2.0, 1.0, 2.0, 3.0]);
        a.map_inplace(|x| x * 2.0 + 1.0);
        assert_eq!(a.as_slice(), &[1.0, 3.0, 5.0, 3.0, 5.0, 7.0]);
    }

    #[test]
    #[should_panic]
    fn row_out_of_bounds_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a.row(2);
    }

    #[test]
    fn clone_is_deep() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 2.0, 3.0]);
        let mut b = a.clone();
        b.as_mut_slice()[0] = 99.0;
        assert_eq!(a.row(0)[0], 0.0);
        assert_eq!(b.row(0)[0], 99.0);
    }
}
