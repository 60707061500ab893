//! Reusable workspace for the CNN's convolution layer and classifier.
//!
//! [`SimpleCnn`]'s forward runs the convolution, bias, ReLU and 2x2 average
//! pooling as one fused kernel straight from the images
//! ([`agsfl_tensor::ConvLayer::relu_pool`]); only the pooled activations
//! reach memory. The gradient additionally keeps the kernel's optional
//! second output, a ReLU mask of one bit per pre-activation, and its
//! backward is one fused kernel too
//! ([`agsfl_tensor::ConvLayer::relu_pool_backward`]): the convolution's
//! weight and bias gradients come straight from the images, the pooled
//! gradient and the mask, so neither the gradient at the pre-activations
//! nor a column matrix of receptive fields is ever built.
//!
//! The weights themselves are never staged: every product reads them as a
//! borrowed view of the flat parameter vector.
//!
//! [`CnnScratch`] owns every intermediate of both passes. Like every
//! workspace of the round engine (`SelectionScratch` in `agsfl-sparse`
//! among them), it is grow-only: each pass reshapes the buffers it needs
//! for the call's geometry, reusing their allocations (every active slot is
//! either fully overwritten by its producer pass or explicitly cleared).
//! Each buffer is sized to the largest geometry seen and never shrinks, so
//! a caller that holds one scratch across rounds runs the CNN hot path
//! allocation-free in steady state — including a round that follows its
//! batch-32 gradient with batch-1 probe losses. The geometry a forward pass
//! presents is its row *block* ([`SimpleCnn::FORWARD_BLOCK`] rows at most),
//! not its batch: a 256-row evaluation chunk leaves the buffers exactly as
//! large as a 32-row one, and a forward touches none of the backward
//! buffers. No buffer is sized by the batch's pre-activations: the largest,
//! the pooled activations and their gradient, hold a quarter of them. The
//! workspace carries no state between calls: two identical calls on a
//! shared scratch return identical results (pinned by the reference
//! proptests in `crates/ml/tests/cnn_equivalence.rs`).
//!
//! [`SimpleCnn`]: crate::model::SimpleCnn
//! [`SimpleCnn::FORWARD_BLOCK`]: crate::model::SimpleCnn::FORWARD_BLOCK

use agsfl_tensor::{ConvScratch, Matrix};

/// Reusable buffers for [`SimpleCnn`]'s forward and backward passes: the
/// fused convolution kernels' workspace, the pooled activations, and — for
/// the gradient only — the ReLU mask and the backward's gradients.
///
/// Create one with [`CnnScratch::new`] and pass it to
/// [`SimpleCnn::forward_with`] / [`SimpleCnn::loss_and_grad_with`]; the
/// buffers are sized on first use and reused afterwards. See the module docs
/// for what each pass computes.
///
/// # Examples
///
/// ```
/// use agsfl_ml::model::{CnnScratch, Model, SimpleCnn};
/// use agsfl_tensor::Matrix;
///
/// let cnn = SimpleCnn::new(1, 6, 6, 2, 3);
/// let params = vec![0.01; cnn.num_params()];
/// let x = Matrix::zeros(4, cnn.input_dim());
///
/// let mut scratch = CnnScratch::new();
/// let a = cnn.forward_with(&params, x.view(), &mut scratch);
/// let b = cnn.forward_with(&params, x.view(), &mut scratch); // allocation-free reuse
/// assert_eq!(a, b);
/// ```
///
/// [`SimpleCnn`]: crate::model::SimpleCnn
/// [`SimpleCnn::forward_with`]: crate::model::SimpleCnn::forward_with
/// [`SimpleCnn::loss_and_grad_with`]: crate::model::SimpleCnn::loss_and_grad_with
#[derive(Debug, Clone, Default)]
pub struct CnnScratch {
    /// The fused convolution kernels' workspace (the forward's column
    /// planes and receptive fields, the backward's window-major pooled
    /// gradient and lane sums).
    pub(crate) conv: ConvScratch,
    /// Backward: where each pre-activation under a pooling window was
    /// positive, `B x mask_dim` bytes of bits in [`agsfl_tensor::conv`]'s
    /// mask layout.
    pub(crate) relu_mask: Vec<u8>,
    /// Pooled activations, shape `B x (O·ph·pw)` — the fully connected
    /// layer's input batch.
    pub(crate) pooled: Matrix,
    /// Backward: gradient at the pooled activations, `B x (O·ph·pw)`.
    pub(crate) dpooled: Matrix,
    /// Backward: the convolution block's gradient, `conv_w | conv_b`
    /// (`O·C·9 + O` values), before it lands in the gradient or residual.
    pub(crate) conv_grad: Vec<f32>,
}

impl CnnScratch {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, SimpleCnn};

    /// Backing capacity of every buffer, in elements: the ReLU mask,
    /// `pooled`, `dpooled`, the convolution block's gradient, then the
    /// convolution kernels' workspace.
    fn capacities(scratch: &CnnScratch) -> [usize; 5] {
        [
            scratch.relu_mask.capacity(),
            scratch.pooled.capacity(),
            scratch.dpooled.capacity(),
            scratch.conv_grad.capacity(),
            scratch.conv.capacity(),
        ]
    }

    #[test]
    fn steady_state_capacity_is_stable() {
        let mut scratch = CnnScratch::new();
        scratch.pooled.resize_for_overwrite(64, 1024);
        scratch.pooled.resize_for_overwrite(64, 1024);
        let settled = capacities(&scratch);
        for _ in 0..50 {
            scratch.pooled.resize_for_overwrite(64, 1024);
        }
        assert_eq!(capacities(&scratch), settled);
    }

    /// The round's own traffic: a batch-32 gradient followed by batch-1
    /// probe forwards, every round. Nothing may be released in between —
    /// the next gradient would only have to allocate and zero it again.
    #[test]
    fn capacity_is_constant_under_alternating_gradient_and_probe_batches() {
        let cnn = SimpleCnn::new(1, 12, 12, 8, 10);
        let params = vec![0.01; cnn.num_params()];
        let batch = Matrix::from_fn(32, cnn.input_dim(), |i, j| ((i + j) % 7) as f32 * 0.1);
        let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
        let sample = Matrix::from_fn(1, cnn.input_dim(), |_, j| (j % 5) as f32 * 0.2);
        let mut scratch = CnnScratch::new();
        let mut grad = Vec::new();
        let mut cycle = |scratch: &mut CnnScratch| {
            let _ = cnn.loss_and_grad_with(&params, &batch, &labels, scratch, &mut grad);
            let after_gradient = capacities(scratch);
            // Two clients' worth of three-vector probe losses.
            for _ in 0..6 {
                let _ = cnn.forward_with(&params, sample.view(), scratch);
            }
            assert_eq!(
                capacities(scratch),
                after_gradient,
                "the probe's batch-1 forwards released gradient capacity"
            );
            after_gradient
        };
        cycle(&mut scratch);
        let settled = cycle(&mut scratch);
        // The gradient builds neither the pre-activations' gradient
        // (`O·B·P` values) nor the column matrix (`9C·B·P`): no buffer
        // reaches either size.
        let (ch, cw) = cnn.conv_output_size();
        let lowered = 32 * ch * cw * cnn.filters().min(9 * cnn.in_channels());
        assert!(
            settled.iter().all(|&capacity| capacity < lowered),
            "a gradient buffer is sized like the im2col lowering: {settled:?} vs {lowered}"
        );
        for _ in 0..20 {
            assert_eq!(cycle(&mut scratch), settled);
        }
    }

    /// The geometry is the block: a 256-row forward sizes every buffer the
    /// forward pass touches exactly as a 32-row one does (and the backward
    /// buffers not at all), and equals the per-row forward bit for bit at
    /// every block remainder.
    #[test]
    fn forward_is_row_blocked_and_row_independent() {
        let cnn = SimpleCnn::new(1, 12, 12, 8, 10);
        let params: Vec<f32> = (0..cnn.num_params())
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.004)
            .collect();
        let x = Matrix::from_fn(256, cnn.input_dim(), |i, j| {
            ((i * 31 + j * 7) % 23) as f32 * 0.05 - 0.5
        });
        let mut one_block = CnnScratch::new();
        let _ = cnn.forward_with(
            &params,
            x.view().row_block(0..SimpleCnn::FORWARD_BLOCK),
            &mut one_block,
        );
        let block_sized = capacities(&one_block);
        assert_eq!(
            [block_sized[0], block_sized[2], block_sized[3]],
            [0, 0, 0],
            "a forward needs no backward buffer"
        );

        let mut per_row_scratch = CnnScratch::new();
        let per_row: Vec<Matrix> = (0..256)
            .map(|i| cnn.forward_with(&params, x.view().row_block(i..i + 1), &mut per_row_scratch))
            .collect();
        for rows in [1usize, 31, 33, 256] {
            let mut scratch = CnnScratch::new();
            let logits = cnn.forward_with(&params, x.view().row_block(0..rows), &mut scratch);
            assert_eq!(logits.shape(), (rows, 10));
            for (i, single) in per_row.iter().take(rows).enumerate() {
                for (a, b) in logits.row(i).iter().zip(single.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "row {i} of a {rows}-row forward");
                }
            }
            if rows >= SimpleCnn::FORWARD_BLOCK {
                assert_eq!(
                    capacities(&scratch),
                    block_sized,
                    "a {rows}-row forward must size the scratch by its block"
                );
            }
        }
    }
}
