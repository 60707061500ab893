//! The products' fold orders, written once as scalar loops, and the fused
//! convolution layer's forward and backward as the im2col lowering they
//! replaced.
//!
//! Mirroring `agsfl_sparse::reference`, this module is the executable
//! specification of [`crate::product`]'s and [`crate::conv`]'s fold-order
//! contracts: the streaming loops the golden trajectories were recorded
//! with, kept exactly as they were. Nothing on the product path calls it —
//! the equivalence proptests (`crates/tensor/tests/product_equivalence.rs`,
//! `crates/tensor/tests/conv_equivalence.rs`) compare every dispatch level
//! against it bit for bit, and `bench-report` asserts its product and
//! convolution rows against it before timing them.

use crate::conv::{ConvLayer, ConvShape, KERNEL};
use crate::ops;
use crate::product::{MatrixView, Product, Store};

/// Runs `op` through its scalar spec.
///
/// # Panics
///
/// Panics if the operand shapes do not fit `op` or `out` is not the
/// product's `rows * cols` long.
pub fn run(op: Product, a: MatrixView<'_>, b: MatrixView<'_>, out: &mut [f32]) {
    let (rows, cols) = op.output_shape(a, b);
    assert_eq!(out.len(), rows * cols, "{op:?}: output length");
    match op {
        Product::MatmulAcc => matmul_acc(a, b, out),
        Product::TransposeMatmulGrouped(store) => {
            stored(a, b, out, store, transpose_matmul_grouped)
        }
        Product::TransposeMatmul(store) => stored(a, b, out, store, transpose_matmul),
        Product::MatmulTransposeAcc => matmul_transpose_acc(a, b, out),
        Product::MatmulTransposeInto => matmul_transpose_into(a, b, out),
    }
}

/// `out += a · b`: ikj order, the contraction blocked four at a time, two
/// output rows per sweep. Pairing does not change a row's additions, but
/// it does change which all-zero terms are skipped (see the contract).
fn matmul_acc(a: MatrixView<'_>, b: MatrixView<'_>, out: &mut [f32]) {
    let (a_rows, a_cols, b_cols) = (a.rows(), a.cols(), b.cols());
    let (a, b) = (a.as_slice(), b.as_slice());
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

/// An `aᵀ · b` fold `g` from a zeroed buffer, put into `out` by `store`:
/// copied over it, or added to it — `out[j] + g[j]`, once per element.
fn stored(
    a: MatrixView<'_>,
    b: MatrixView<'_>,
    out: &mut [f32],
    store: Store,
    fold: fn(MatrixView<'_>, MatrixView<'_>, &mut [f32]),
) {
    let mut g = vec![0.0f32; out.len()];
    fold(a, b, &mut g);
    match store {
        Store::Overwrite => out.copy_from_slice(&g),
        Store::Add => {
            for (o, &g) in out.iter_mut().zip(&g) {
                *o += g;
            }
        }
    }
}

/// `out += aᵀ · b`: four shared (batch) rows per sweep over the output
/// block, ascending.
fn transpose_matmul_grouped(a: MatrixView<'_>, b: MatrixView<'_>, out: &mut [f32]) {
    let (rows, cols, n) = (a.rows(), a.cols(), b.cols());
    let data = a.as_slice();
    let mut k = 0;
    while k + 4 <= rows {
        let b0 = b.row(k);
        let b1 = b.row(k + 1);
        let b2 = b.row(k + 2);
        let b3 = b.row(k + 3);
        for i in 0..cols {
            let a0 = data[k * cols + i];
            let a1 = data[(k + 1) * cols + i];
            let a2 = data[(k + 2) * cols + i];
            let a3 = data[(k + 3) * cols + i];
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
    while k < rows {
        let a_row = a.row(k);
        let b_row = b.row(k);
        for (i, &x) in a_row.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &y) in out_row.iter_mut().zip(b_row.iter()) {
                *o += x * y;
            }
        }
        k += 1;
    }
}

/// `out += aᵀ · b`: one shared row at a time.
fn transpose_matmul(a: MatrixView<'_>, b: MatrixView<'_>, out: &mut [f32]) {
    let n = b.cols();
    for k in 0..a.rows() {
        let a_row = a.row(k);
        let b_row = b.row(k);
        for (i, &x) in a_row.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &y) in out_row.iter_mut().zip(b_row.iter()) {
                *o += x * y;
            }
        }
    }
}

/// `out += a · bᵀ` through [`dot_unrolled`].
fn matmul_transpose_acc(a: MatrixView<'_>, b: MatrixView<'_>, out: &mut [f32]) {
    let n = b.rows();
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let out_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            *o += dot_unrolled(a_row, b.row(j));
        }
    }
}

/// `out = a · bᵀ`, each element a sequential dot product.
fn matmul_transpose_into(a: MatrixView<'_>, b: MatrixView<'_>, out: &mut [f32]) {
    let n = b.rows();
    for i in 0..a.rows() {
        let a_row = a.row(i);
        for j in 0..n {
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b.row(j).iter()) {
                acc += x * y;
            }
            out[i * n + j] = acc;
        }
    }
}

/// Dot product with eight lane sums and a sequential tail; the lane a
/// term goes to depends only on its index.
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

/// The fused convolution layer ([`ConvLayer::relu_pool`]) as the im2col
/// lowering it replaced, the statement of [`crate::conv`]'s contract: the
/// images unrolled into a `C·9 x B·P` column matrix, one bias-seeded
/// scalar [`Product::MatmulAcc`] against the filters into an `O x B·P`
/// pre-activation matrix, then a ReLU + 2x2 average-pool pass reading it
/// back, which also writes the `ops::relu_grad` mask in the module's bit
/// layout.
///
/// # Panics
///
/// Panics on the shape mismatches [`ConvLayer::relu_pool`] panics on.
pub fn conv_relu_pool(
    layer: ConvLayer<'_>,
    images: MatrixView<'_>,
    pooled: &mut [f32],
    mut relu_mask: Option<&mut [u8]>,
) {
    let shape = layer.shape();
    let filters = shape.filters;
    let (ch, cw) = shape.conv_size();
    let (ph, pw) = shape.pooled_size();
    let (patch, positions, batch) = (shape.patch_dim(), ch * cw, images.rows());
    let (mask_dim, groups) = (shape.mask_dim(), (ph * pw).div_ceil(8));
    assert_eq!(pooled.len(), batch * shape.pooled_dim(), "pooled length");
    if let Some(relu_mask) = relu_mask.as_deref_mut() {
        assert_eq!(relu_mask.len(), batch * mask_dim, "mask length");
        relu_mask.fill(0);
    }
    let cols = im2col(shape, images);
    let mut pre = Vec::with_capacity(filters * batch * positions);
    for &bias in layer.bias() {
        pre.extend(std::iter::repeat_n(bias, batch * positions));
    }
    matmul_acc(
        MatrixView::new(filters, patch, layer.weights()),
        MatrixView::new(patch, batch * positions, &cols),
        &mut pre,
    );

    // ReLU + pooling over the window (dy, dx) in (0, 0), (0, 1), (1, 0),
    // (1, 1), the mask's quadrant order.
    for b in 0..batch {
        for o in 0..filters {
            let pre = &pre[(o * batch + b) * positions..][..positions];
            for py in 0..ph {
                for px in 0..pw {
                    let w = py * pw + px;
                    let window = [(0, 0), (0, 1), (1, 0), (1, 1)]
                        .map(|(dy, dx)| pre[(2 * py + dy) * cw + 2 * px + dx]);
                    pooled[(b * filters + o) * ph * pw + w] = (ops::relu(window[0])
                        + ops::relu(window[1])
                        + ops::relu(window[2])
                        + ops::relu(window[3]))
                        / 4.0;
                    if let Some(relu_mask) = relu_mask.as_deref_mut() {
                        let mask = &mut relu_mask[b * mask_dim..][..mask_dim];
                        for (q, &z) in window.iter().enumerate() {
                            let bit = ops::relu_grad(z) as u8;
                            mask[(q * groups + w / 8) * filters + o] |= bit << (w % 8);
                        }
                    }
                }
            }
        }
    }
}

/// The fused backward ([`ConvLayer::relu_pool_backward`]) as the im2col
/// lowering it replaced, the statement of the backward's half of
/// [`crate::conv`]'s contract: the pre-activations' gradient written out
/// from the pooled gradient and the mask, each row summed for the bias,
/// and contracted against the columns by the scalar
/// [`Product::MatmulTransposeAcc`] for the weights. Both outputs are
/// overwritten.
///
/// # Panics
///
/// Panics on the length mismatches [`ConvLayer::relu_pool_backward`]
/// panics on.
pub fn conv_relu_pool_backward(
    shape: ConvShape,
    images: MatrixView<'_>,
    dpooled: &[f32],
    relu_mask: &[u8],
    dweights: &mut [f32],
    dbias: &mut [f32],
) {
    let filters = shape.filters;
    let (ch, cw) = shape.conv_size();
    let (ph, pw) = shape.pooled_size();
    let (patch, positions, batch) = (shape.patch_dim(), ch * cw, images.rows());
    let groups = (ph * pw).div_ceil(8);
    assert_eq!(dpooled.len(), batch * shape.pooled_dim(), "dpooled length");
    assert_eq!(relu_mask.len(), batch * shape.mask_dim(), "mask length");
    assert_eq!(dweights.len(), filters * patch, "dweights length");
    assert_eq!(dbias.len(), filters, "dbias length");
    let cols = im2col(shape, images);

    // The pool and ReLU backward: a quarter of the window's gradient
    // where the mask is set, at each covered position; an uncovered
    // one (odd trailing row or column) keeps `+0.0`.
    let rows = batch * positions;
    let mut dpre = vec![0.0f32; filters * rows];
    for b in 0..batch {
        let mask = &relu_mask[b * shape.mask_dim()..][..shape.mask_dim()];
        for o in 0..filters {
            let dpre = &mut dpre[o * rows + b * positions..][..positions];
            for py in 0..ph {
                for px in 0..pw {
                    let w = py * pw + px;
                    let g = dpooled[(b * filters + o) * ph * pw + w];
                    for (q, (dy, dx)) in [(0, 0), (0, 1), (1, 0), (1, 1)].into_iter().enumerate() {
                        let m = (mask[(q * groups + w / 8) * filters + o] >> (w % 8)) & 1;
                        dpre[(2 * py + dy) * cw + 2 * px + dx] = (g / 4.0) * f32::from(m);
                    }
                }
            }
        }
    }

    // The bias: one serial chain per row.
    for (o, sum) in dbias.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for &g in &dpre[o * rows..][..rows] {
            acc += g;
        }
        *sum = acc;
    }
    dweights.fill(0.0);
    matmul_transpose_acc(
        MatrixView::new(filters, rows, &dpre),
        MatrixView::new(patch, rows, &cols),
        dweights,
    );
}

/// `images` unrolled into the `C·9 x B·P` column matrix: column
/// `b·P + y·cw + x`, row `(c·3 + ky)·3 + kx` holds input pixel
/// `(c, y + ky, x + kx)` of sample `b`.
fn im2col(shape: ConvShape, images: MatrixView<'_>) -> Vec<f32> {
    let (height, width) = (shape.height, shape.width);
    let (ch, cw) = shape.conv_size();
    let (positions, batch) = (ch * cw, images.rows());
    assert_eq!(images.cols(), shape.input_dim(), "image length");
    let mut cols = vec![0.0f32; shape.patch_dim() * batch * positions];
    for c in 0..shape.channels {
        for ky in 0..KERNEL {
            for kx in 0..KERNEL {
                let row = (c * KERNEL + ky) * KERNEL + kx;
                for b in 0..batch {
                    let sample = images.row(b);
                    for y in 0..ch {
                        let src = &sample[(c * height + y + ky) * width + kx..][..cw];
                        let at = (row * batch + b) * positions + y * cw;
                        cols[at..at + cw].copy_from_slice(src);
                    }
                }
            }
        }
    }
    cols
}
