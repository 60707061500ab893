//! The CNN's convolution layer as two kernels: the forward — a 3x3 valid
//! convolution, the bias, ReLU and 2x2 average pooling in a single pass over
//! the images — and its backward, the weight and bias gradients in a single
//! pass over the images and the pooled gradient.
//!
//! A convolution lowered to a matrix product (im2col) writes every
//! pre-activation to a buffer that a second pass reads back to apply ReLU
//! and pool — at the paper's shape (32 images of 28x28, 40 filters) that is
//! 3.5 MB written and re-read per forward. [`ConvLayer::relu_pool`] keeps a
//! pooling window's four pre-activations in vector registers from the bias
//! seed to the pooled value, so a forward writes only the pooled
//! activations. The backward pass, which needs to know where ReLU was
//! active, asks for that too (`relu_mask`): one *bit* per pre-activation.
//!
//! The lowered backward wrote the gradient at every pre-activation (`dpre`,
//! another 3.5 MB), summed it per filter for the bias, and contracted it
//! against the column matrix for the weights. [`ConvLayer::relu_pool_backward`]
//! recomputes each `dpre` value where it is used, from the pooled gradient
//! and the mask, and reads each tap straight from the image: no
//! pre-activation gradient and no column matrix exist.
//!
//! # The fold-order contract
//!
//! Every output is bit-identical to the im2col path it replaced, which is
//! also how [`crate::reference::conv_relu_pool`] states it: lower the
//! images to columns, seed each pre-activation with its filter's bias, run
//! [`MatrixView::matmul_acc`] (filters as lhs rows, the `9·C` patch index
//! as the contraction), then pool. Per pre-activation that is
//!
//! * the bias seed;
//! * one term `((w₀x₀ + w₁x₁) + w₂x₂) + w₃x₃` per group of four patch
//!   indices, in ascending order (patch index `(c·3 + ky)·3 + kx`, so
//!   groups cross channel boundaries);
//! * one term `w·x` per leftover index;
//! * filters paired from the first: in a paired filter no group is skipped
//!   and a leftover index is skipped when both filters of the pair weigh it
//!   zero; in an unpaired last filter (odd filter count) a group is skipped
//!   when all four weights are zero and a leftover index when its weight
//!   is.
//!
//! Each pooled value is then `(((r₀₀ + r₀₁) + r₁₀) + r₁₁) / 4` with
//! `r_dy,dx = ops::relu(pre at (2·py + dy, 2·px + dx))`; the kernels
//! multiply by `0.25` instead, which is the same IEEE result as dividing
//! by four (both are the correctly rounded exact quarter). A trailing odd
//! convolution row or column is covered by no window and never computed.
//!
//! The backward keeps the lowering's folds too, which
//! [`crate::reference::conv_relu_pool_backward`] states: the gradient at
//! the pre-activation of filter `o` at column index `p = b·P + y·cw + x`
//! (`P = ch·cw` positions per image) is `dpre = (g / 4) · m`, with `g` the
//! pooled gradient of the window covering `(y, x)` and `m` its mask bit as
//! `0.0` or `1.0` — and `+0.0` at a position no window covers. Then
//!
//! * `dbias[o]` is one serial chain from `+0.0` over `p` ascending:
//!   `((0 + dpre₀) + dpre₁) + …`;
//! * `dweights[o][t]`, `t` the patch index, is the dot product of `dpre`
//!   with the tap's column (`x_t(p)` = input pixel `(c, y + ky, x + kx)` of
//!   sample `b`) in [`MatrixView::matmul_transpose_acc`]'s order, landed on
//!   `+0.0`: eight lane sums from `+0.0`, the term at `p` going to lane
//!   `p mod 8` for `p` below the last multiple of eight of `B·P`, each
//!   lane in ascending `p`; a sequential tail sum over the rest; combined
//!   as `0 + ((((l₀+l₁)+(l₂+l₃)) + ((l₄+l₅)+(l₆+l₇))) + tail)`.
//!
//! Terms of zero are added, not skipped: an uncovered or masked-off
//! position adds `+0.0 · x`, which is NaN where `x` is infinite.
//!
//! # Layouts
//!
//! * images: `B x (C·H·W)`, channel-major (`(c, y, x)` at
//!   `c·H·W + y·W + x`);
//! * weights and their gradient: `[O][C][3][3]`; bias and its gradient:
//!   `[O]`;
//! * pooled and its gradient: `B x (O·ph·pw)`, `(o, py, px)` at
//!   `(o·ph + py)·pw + px`;
//! * relu_mask: `B x (4·G·O)` bytes ([`ConvShape::mask_dim`]), the
//!   `ph·pw` windows of an image in `G = ⌈ph·pw / 8⌉` groups of eight.
//!   Window `w = py·pw + px` at position `q = 2·dy + dx` of filter `o` is
//!   bit `w mod 8` of byte `(q·G + w / 8)·O + o`: `ops::relu_grad` (1 or
//!   0) of the pre-activation at convolution position
//!   `(2·py + dy, 2·px + dx)` — 1 iff it is `> 0`. Bits past the last
//!   window are 0. A group's bytes for all filters are adjacent, so the
//!   backward reads a vector of filters at one position in one load.

use crate::dispatch::{self, Level};
use crate::product::MatrixView;

/// Side of the square convolution kernel.
pub const KERNEL: usize = 3;

/// Geometry of a 3x3 valid convolution with 2x2 average pooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvShape {
    /// Input channels `C`.
    pub channels: usize,
    /// Image height `H` (at least 3).
    pub height: usize,
    /// Image width `W` (at least 3).
    pub width: usize,
    /// Filters (output channels) `O`.
    pub filters: usize,
}

impl ConvShape {
    /// Length of one flattened image, `C·H·W`.
    pub fn input_dim(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Length of a flattened receptive field, `C·3·3`: the contraction of
    /// the convolution product.
    pub fn patch_dim(&self) -> usize {
        self.channels * KERNEL * KERNEL
    }

    /// Spatial size of the convolution output, `(H - 2, W - 2)`.
    pub fn conv_size(&self) -> (usize, usize) {
        (self.height + 1 - KERNEL, self.width + 1 - KERNEL)
    }

    /// Spatial size after 2x2 average pooling.
    pub fn pooled_size(&self) -> (usize, usize) {
        let (ch, cw) = self.conv_size();
        (ch / 2, cw / 2)
    }

    /// Pooled activations per image, `O·ph·pw`.
    pub fn pooled_dim(&self) -> usize {
        let (ph, pw) = self.pooled_size();
        self.filters * ph * pw
    }

    /// Bytes of one image's ReLU mask, `4·⌈ph·pw / 8⌉·O`: one bit per
    /// pre-activation under a pooling window (see the [module docs](self)).
    pub fn mask_dim(&self) -> usize {
        let (ph, pw) = self.pooled_size();
        4 * (ph * pw).div_ceil(8) * self.filters
    }
}

/// A convolution layer's geometry and its parameters, borrowed from a flat
/// parameter vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvLayer<'a> {
    shape: ConvShape,
    weights: &'a [f32],
    bias: &'a [f32],
}

impl<'a> ConvLayer<'a> {
    /// Pairs `shape` with its `[O][C][3][3]` weights and `[O]` biases.
    ///
    /// # Panics
    ///
    /// Panics if the image is smaller than the kernel or a parameter block
    /// has the wrong length.
    pub fn new(shape: ConvShape, weights: &'a [f32], bias: &'a [f32]) -> Self {
        assert!(
            shape.height >= KERNEL && shape.width >= KERNEL,
            "image {}x{} is smaller than the {KERNEL}x{KERNEL} kernel",
            shape.height,
            shape.width
        );
        assert_eq!(
            weights.len(),
            shape.filters * shape.patch_dim(),
            "convolution weight length"
        );
        assert_eq!(bias.len(), shape.filters, "convolution bias length");
        Self {
            shape,
            weights,
            bias,
        }
    }

    /// The layer's geometry.
    pub fn shape(&self) -> ConvShape {
        self.shape
    }

    /// The `[O][C][3][3]` weights, row `o` a filter.
    pub fn weights(&self) -> &'a [f32] {
        self.weights
    }

    /// The `[O]` biases.
    pub fn bias(&self) -> &'a [f32] {
        self.bias
    }

    /// Writes the pooled activations of every image row of `images` into
    /// `pooled`, and — when asked — where ReLU was active into `relu_mask`
    /// (layouts in the [module docs](self)), at the level [`Level::detect`]
    /// picks.
    ///
    /// # Panics
    ///
    /// Panics if `images` rows are not [`ConvShape::input_dim`] long or an
    /// output has the wrong length.
    pub fn relu_pool(
        self,
        images: MatrixView<'_>,
        scratch: &mut ConvScratch,
        pooled: &mut [f32],
        relu_mask: Option<&mut [u8]>,
    ) {
        dispatch::conv_relu_pool(Level::detect(), self, images, scratch, pooled, relu_mask);
    }

    /// Writes the gradients of the layer's weights and biases into
    /// `dweights` and `dbias` (overwritten), from the gradient `dpooled` at
    /// the pooled activations of `images` and the ReLU mask
    /// [`ConvLayer::relu_pool`] kept for them (layouts and fold order in
    /// the [module docs](self)), at the level [`Level::detect`] picks. The
    /// layer's parameters themselves are not read.
    ///
    /// # Panics
    ///
    /// Panics if `images` rows are not [`ConvShape::input_dim`] long or an
    /// input or output has the wrong length.
    pub fn relu_pool_backward(
        self,
        images: MatrixView<'_>,
        dpooled: &[f32],
        relu_mask: &[u8],
        scratch: &mut ConvScratch,
        dweights: &mut [f32],
        dbias: &mut [f32],
    ) {
        dispatch::conv_relu_pool_backward(
            Level::detect(),
            self.shape,
            images,
            dpooled,
            relu_mask,
            scratch,
            dweights,
            dbias,
        );
    }
}

/// The fused kernels' workspace. The forward's: one image split into even-
/// and odd-column planes, the input every pooling window meets at each
/// patch index and window position (one contiguous run per pair), and one
/// block's operand vectors. The backward's: one image's pooled gradient,
/// quartered and laid out window-major with the filters padded to the
/// widest vector, and the lane sums of every output, carried from image to
/// image. Grow-only and stateless between calls: every element a call
/// reads was written by that call, or only reaches vector lanes that are
/// never stored.
#[derive(Debug, Clone, Default)]
pub struct ConvScratch {
    buf: Vec<f32>,
    /// The backward's table of where each convolution position reads.
    table: Vec<[usize; TABLE_STRIDE]>,
    /// The backward's copy of one image's ReLU mask, with a padded row of
    /// zero bytes behind it so every vector load of it is whole.
    mask: Vec<u8>,
}

/// The widest vector any level uses, in lanes.
pub(crate) const MAX_LANES: usize = 16;

impl ConvScratch {
    /// Creates an empty workspace; it is sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Elements currently reserved (for capacity tests).
    pub fn capacity(&self) -> usize {
        self.buf.capacity() + TABLE_STRIDE * self.table.capacity() + self.mask.capacity()
    }

    /// The forward's workspace for `shape`, grown if it is too small: the
    /// planes region first ([`plane_len`] plus a vector's overhang), then
    /// one operand run per patch index and window position, then one
    /// block's operand vectors.
    pub(crate) fn reserve(&mut self, shape: ConvShape) -> &mut [f32] {
        let len =
            plane_len(shape) + 2 * MAX_LANES + 4 * shape.patch_dim() * (run_len(shape) + MAX_LANES);
        if self.buf.len() < len {
            self.buf.resize(len, 0.0);
        }
        &mut self.buf[..len]
    }

    /// The backward's workspace for `shape`, grown if it is too small: one
    /// image's window-major pooled gradient ([`padded_filters`] per window,
    /// and a zero row for the positions no window covers), then [`SLOTS`]
    /// lane-sum vectors per filter and patch index, then the bias chains;
    /// the table of offsets, one row per convolution position; and one
    /// image's mask bytes and a padded row of zeros, zeroed.
    pub(crate) fn reserve_backward(
        &mut self,
        shape: ConvShape,
    ) -> (&mut [f32], &mut [[usize; TABLE_STRIDE]], &mut [u8]) {
        let (ph, pw) = shape.pooled_size();
        let (ch, cw) = shape.conv_size();
        let filters = padded_filters(shape);
        let table = ch * cw;
        if self.table.len() < table {
            self.table.resize(table, [0; TABLE_STRIDE]);
        }
        let len = filters * (ph * pw + 1 + SLOTS * shape.patch_dim() + 1);
        if self.buf.len() < len {
            self.buf.resize(len, 0.0);
        }
        self.mask.clear();
        self.mask.resize(shape.mask_dim() + filters, 0);
        (
            &mut self.buf[..len],
            &mut self.table[..table],
            &mut self.mask,
        )
    }
}

/// Lane sums the backward keeps per weight gradient: the eight of the dot
/// tree and the sequential tail.
pub(crate) const SLOTS: usize = 9;

/// Offsets the backward's table holds per convolution position: its first
/// tap in a channel of the image, its window's row of the pooled gradient,
/// and its mask byte (times eight) plus bit.
pub(crate) const TABLE_STRIDE: usize = 3;

/// The filter count rounded up to the widest vector: the row length of the
/// backward's window-major pooled gradient, so every vector load of it is
/// whole.
pub(crate) fn padded_filters(shape: ConvShape) -> usize {
    shape.filters.div_ceil(MAX_LANES) * MAX_LANES
}

/// Floats of one image's column planes: every row of every channel as its
/// even columns then its odd columns, each `⌈W/2⌉` long.
pub(crate) fn plane_len(shape: ConvShape) -> usize {
    shape.channels * shape.height * 2 * shape.width.div_ceil(2)
}

/// Floats of one operand run: an image's `ph·pw` windows rounded up to the
/// widest vector, plus a vector of slack for the whole-vector row copies.
pub(crate) fn run_len(shape: ConvShape) -> usize {
    let (ph, pw) = shape.pooled_size();
    (ph * pw).div_ceil(MAX_LANES) * MAX_LANES + MAX_LANES
}
