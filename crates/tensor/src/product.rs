//! Matrix products over borrowed row-major views.
//!
//! A model's weights live inside its flat parameter vector and its weight
//! gradients land inside a flat gradient vector or straight in a client's
//! residual, so the products take their operands as [`MatrixView`]s over
//! any `&[f32]` and write into any `&mut [f32]`: nothing is copied into a
//! [`Matrix`](crate::Matrix) first.
//!
//! # The fold-order contract
//!
//! Every product fixes, per output element, the exact sequence of IEEE
//! multiplications and additions that produces it — that sequence is what
//! the golden trajectories pin, and it does not depend on the vector width
//! the kernels run at (see [`crate::dispatch`]), on the batch an output row
//! is computed in, or on threads. The executable statement of each order
//! is the scalar loop of the same name in [`crate::reference`]; in words:
//!
//! * [`MatrixView::matmul_acc`] — `out[i][j]` starts from its current value
//!   and adds one term per group of four contraction indices,
//!   `((a₀b₀ + a₁b₁) + a₂b₂) + a₃b₃`, in ascending order, then one term
//!   `a·b` per leftover index. Rows are paired from the top; in a paired
//!   row no group is skipped and a leftover index is skipped when the lhs
//!   element is zero in *both* rows of the pair; in an unpaired last row a
//!   group is skipped when all four lhs elements are zero and a leftover
//!   index when its lhs element is zero.
//! * [`MatrixView::transpose_matmul_grouped`] — `out[i][j]`'s fold starts
//!   from `+0.0` and adds the same four-way grouped terms over the shared
//!   row (batch) index; a group is skipped when all four lhs elements are
//!   zero, a leftover row when its lhs element is zero.
//! * [`MatrixView::transpose_matmul`] — the fold starts from `+0.0` and
//!   adds `a·b` per shared row in ascending order, skipping rows whose lhs
//!   element is zero.
//! * [`MatrixView::matmul_transpose_acc`] — `out[i][j] += dot`, where the
//!   dot product keeps eight lane sums (index `p` goes to lane `p mod 8`
//!   for `p` below the last multiple of eight), one sequential tail sum
//!   for the rest, and combines them as
//!   `(((l₀+l₁)+(l₂+l₃)) + ((l₄+l₅)+(l₆+l₇))) + tail`.
//! * [`MatrixView::matmul_transpose_into`] — `out[i][j]` is the plain
//!   left-to-right dot product starting from `+0.0`.
//!
//! Both `aᵀ·b` folds reach `out` through a [`Store`]: [`Store::Overwrite`]
//! writes the fold `g`, [`Store::Add`] writes `out[i][j] + g` — one
//! addition per element after the whole fold, so `residual[j] += g[j]` on
//! a gradient that never exists on its own is the same addition as on one
//! that does. That is not the fold seeded with `out`
//! (`(out + t₀) + t₁ ≠ out + (t₀ + t₁)` in general).
//!
//! A skipped term is not the same as adding zero (`-0.0 + 0.0` is `+0.0`),
//! so the skip rules are part of the order.

use crate::dispatch::{self, Level};

/// A borrowed row-major `rows x cols` matrix over a flat `f32` slice.
///
/// # Examples
///
/// ```
/// use agsfl_tensor::MatrixView;
///
/// // Multiply straight out of a flat parameter vector: a 2x3 weight block
/// // followed by other parameters.
/// let params = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0, 9.0];
/// let w = MatrixView::new(2, 3, &params[..6]);
/// let x = MatrixView::new(1, 2, &[1.0, -1.0]);
/// let mut out = [0.0f32; 3];
/// x.matmul_acc(w, &mut out);
/// assert_eq!(out, [-3.0, -3.0, -3.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

/// How an `aᵀ · b` product puts its fold `g` into `out` (see the [module
/// docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Store {
    /// `out = g`, whatever `out` held.
    Overwrite,
    /// `out = out + g`, one addition per element after the fold.
    Add,
}

/// The five products, named by the method of [`MatrixView`] that runs them,
/// the two `aᵀ · b` folds with their [`Store`]. Each has its own fold order
/// (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Product {
    /// [`MatrixView::matmul_acc`]: `out += a · b`.
    MatmulAcc,
    /// [`MatrixView::transpose_matmul_grouped`]: `aᵀ · b`, four-way grouped.
    TransposeMatmulGrouped(Store),
    /// [`MatrixView::transpose_matmul`]: `aᵀ · b`, one shared row at a time.
    TransposeMatmul(Store),
    /// [`MatrixView::matmul_transpose_acc`]: `out += a · bᵀ`, eight-lane
    /// dot tree.
    MatmulTransposeAcc,
    /// [`MatrixView::matmul_transpose_into`]: `out = a · bᵀ`, sequential
    /// dot.
    MatmulTransposeInto,
}

impl Product {
    /// All five products, both stores of each `aᵀ · b` fold, for tests and
    /// reports that sweep them.
    pub const ALL: [Product; 7] = [
        Product::MatmulAcc,
        Product::TransposeMatmulGrouped(Store::Overwrite),
        Product::TransposeMatmulGrouped(Store::Add),
        Product::TransposeMatmul(Store::Overwrite),
        Product::TransposeMatmul(Store::Add),
        Product::MatmulTransposeAcc,
        Product::MatmulTransposeInto,
    ];

    /// Shape `(rows, cols)` of the product of `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes do not fit the product.
    pub fn output_shape(self, a: MatrixView<'_>, b: MatrixView<'_>) -> (usize, usize) {
        match self {
            Product::MatmulAcc => {
                assert_eq!(
                    a.cols,
                    b.rows,
                    "{self:?}: {:?} · {:?}",
                    a.shape(),
                    b.shape()
                );
                (a.rows, b.cols)
            }
            Product::TransposeMatmulGrouped(_) | Product::TransposeMatmul(_) => {
                assert_eq!(
                    a.rows,
                    b.rows,
                    "{self:?}: {:?}ᵀ · {:?}",
                    a.shape(),
                    b.shape()
                );
                (a.cols, b.cols)
            }
            Product::MatmulTransposeAcc | Product::MatmulTransposeInto => {
                assert_eq!(
                    a.cols,
                    b.cols,
                    "{self:?}: {:?} · {:?}ᵀ",
                    a.shape(),
                    b.shape()
                );
                (a.rows, b.rows)
            }
        }
    }
}

impl<'a> MatrixView<'a> {
    /// Views `data` as a row-major `rows x cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a [f32]) -> Self {
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

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &'a [f32] {
        self.data
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f32] {
        assert!(i < self.rows, "row {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The contiguous block of rows `rows.start..rows.end` as a view.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the view.
    pub fn row_block(&self, rows: std::ops::Range<usize>) -> MatrixView<'a> {
        MatrixView::new(
            rows.len(),
            self.cols,
            &self.data[rows.start * self.cols..rows.end * self.cols],
        )
    }

    /// `out += self · rhs` (`out` row-major `self.rows() x rhs.cols()`),
    /// on top of whatever `out` holds — a bias seed, or zeros.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()` or `out` has the wrong length.
    pub fn matmul_acc(self, rhs: MatrixView<'_>, out: &mut [f32]) {
        self.product(Product::MatmulAcc, rhs, out);
    }

    /// `selfᵀ · rhs` (`out` row-major `self.cols() x rhs.cols()`) without
    /// materialising the transpose, stored as `store` says: the
    /// weight-gradient product, folded over the batch rows in four-row
    /// groups.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()` or `out` has the wrong length.
    pub fn transpose_matmul_grouped(self, rhs: MatrixView<'_>, out: &mut [f32], store: Store) {
        self.product(Product::TransposeMatmulGrouped(store), rhs, out);
    }

    /// `selfᵀ · rhs`, stored as `store` says, folded over the batch rows
    /// one at a time (the order the linear and MLP models' goldens were
    /// recorded with).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()` or `out` has the wrong length.
    pub fn transpose_matmul(self, rhs: MatrixView<'_>, out: &mut [f32], store: Store) {
        self.product(Product::TransposeMatmul(store), rhs, out);
    }

    /// `out += self · rhsᵀ` (`out` row-major `self.rows() x rhs.rows()`)
    /// without materialising the transpose, each element through the
    /// eight-lane dot tree.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()` or `out` has the wrong length.
    pub fn matmul_transpose_acc(self, rhs: MatrixView<'_>, out: &mut [f32]) {
        self.product(Product::MatmulTransposeAcc, rhs, out);
    }

    /// `out = self · rhsᵀ`, overwriting `out`, each element a sequential
    /// dot product.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()` or `out` has the wrong length.
    pub fn matmul_transpose_into(self, rhs: MatrixView<'_>, out: &mut [f32]) {
        self.product(Product::MatmulTransposeInto, rhs, out);
    }

    /// Runs `op` at the detected level ([`dispatch::run`] checks shapes).
    fn product(self, op: Product, rhs: MatrixView<'_>, out: &mut [f32]) {
        dispatch::run(Level::detect(), op, self, rhs, out);
    }
}
