//! Reference-equivalence proptests for the CNN fast path.
//!
//! `SimpleCnn` runs its convolution layer as one fused kernel
//! (`agsfl_tensor::ConvLayer::relu_pool`: convolution, bias, ReLU and 2x2
//! average pooling in one pass) and its backward as another
//! (`ConvLayer::relu_pool_backward`), on a reused workspace (`CnnScratch`);
//! the seed scalar-loop implementation
//! survives in `agsfl_ml::reference` as the executable specification, and
//! these tests pin the two against each other over random geometries,
//! batches and weights.
//!
//! **Tolerance, not byte equality.** Unlike the selection kernels in
//! `agsfl-sparse` (whose folds reproduce the seed's association
//! order-exactly and are pinned bit-identical), the fast path reassociates
//! floating-point sums against the seed loops: each convolution
//! pre-activation and the fully connected product accumulate the
//! contraction in a fixed 4-way blocking (with paired output rows), and the
//! fully connected bias is broadcast after the fold instead of seeding it.
//! Those are ULP-level reassociation differences, so equivalence is asserted
//! within a small relative tolerance:
//!
//! > `|a − b| ≤ ATOL + RTOL · max(|a|, |b|)` with `ATOL = 1e-4`,
//! > `RTOL = 1e-3`
//!
//! which is orders of magnitude tighter than the finite-difference gradient
//! check but loose enough to absorb any IEEE reassociation of the summands.
//! What *is* exact: the fused convolution layer and its backward against
//! the im2col lowering they replaced (bias-seeded `matmul_acc`, then ReLU
//! and the four-term pool; the pre-activation gradient's row sums and its
//! eight-lane dot tree against the columns), at every dispatch level —
//! pinned in `agsfl-tensor`'s `conv_equivalence` and, through whole FL
//! runs, by the CNN golden in `agsfl-fl`'s `golden_trajectory`; the
//! pooling fold (same four-term order as the reference); and repeated calls
//! on a shared scratch (observational purity, asserted bit-identical
//! below).

use agsfl_ml::model::{CnnScratch, Model, SimpleCnn};
use agsfl_ml::reference;
use agsfl_tensor::Matrix;
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const ATOL: f32 = 1e-4;
const RTOL: f32 = 1e-3;

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= ATOL + RTOL * a.abs().max(b.abs())
}

fn assert_all_close(fast: &[f32], slow: &[f32], what: &str) {
    assert_eq!(fast.len(), slow.len(), "{what}: length mismatch");
    for (i, (a, b)) in fast.iter().zip(slow.iter()).enumerate() {
        assert!(
            close(*a, *b),
            "{what}[{i}] diverged: fused {a} vs reference {b}"
        );
    }
}

/// Builds a random CNN, weights and batch from the proptest parameters.
fn build_case(
    seed: u64,
    channels: usize,
    height: usize,
    width: usize,
    filters: usize,
    classes: usize,
    batch: usize,
) -> (SimpleCnn, Vec<f32>, Matrix, Vec<usize>) {
    let model = SimpleCnn::new(channels, height, width, filters, classes);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let params = model.init_params(&mut rng);
    let x = Matrix::from_fn(batch, model.input_dim(), |_, _| rng.gen_range(-1.5f32..1.5));
    let labels = (0..batch)
        .map(|i| (i * 7 + seed as usize) % classes)
        .collect();
    (model, params, x, labels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Forward pass: fused logits match the scalar reference within the
    /// documented tolerance, for random geometries (odd and even
    /// convolution outputs, so uncovered pooling edges are exercised).
    #[test]
    fn prop_fused_forward_matches_reference(
        seed in 0u64..10_000,
        channels in 1usize..3,
        height in 3usize..9,
        width in 3usize..9,
        filters in 1usize..5,
        classes in 2usize..5,
        batch in 1usize..6,
    ) {
        let (model, params, x, _) = build_case(seed, channels, height, width, filters, classes, batch);
        let fast = model.forward(&params, &x);
        let slow = reference::cnn_forward(&model, &params, &x);
        assert_all_close(fast.as_slice(), slow.as_slice(), "logits");
    }

    /// Backward pass: loss and every gradient coordinate match the scalar
    /// reference within the documented tolerance.
    #[test]
    fn prop_fused_backward_matches_reference(
        seed in 0u64..10_000,
        channels in 1usize..3,
        height in 3usize..9,
        width in 3usize..9,
        filters in 1usize..5,
        classes in 2usize..5,
        batch in 1usize..6,
    ) {
        let (model, params, x, labels) =
            build_case(seed, channels, height, width, filters, classes, batch);
        let (fast_loss, fast_grad) = model.loss_and_grad(&params, &x, &labels);
        let (slow_loss, slow_grad) = reference::cnn_loss_and_grad(&model, &params, &x, &labels);
        prop_assert!(
            close(fast_loss, slow_loss),
            "loss diverged: fused {fast_loss} vs reference {slow_loss}"
        );
        assert_all_close(&fast_grad, &slow_grad, "grad");
    }

    /// Scratch reuse is observationally pure even across alternating
    /// geometries: a workspace warmed on one model must produce bit-equal
    /// results (vs a fresh workspace) on another.
    #[test]
    fn prop_scratch_reuse_across_geometries_is_pure(
        seed in 0u64..10_000,
        height_a in 3usize..9,
        width_a in 3usize..9,
        height_b in 3usize..9,
        width_b in 3usize..9,
        filters in 1usize..5,
        batch in 1usize..5,
    ) {
        let (model_a, params_a, x_a, labels_a) =
            build_case(seed, 1, height_a, width_a, filters, 3, batch);
        let (model_b, params_b, x_b, labels_b) =
            build_case(seed ^ 0xDEAD, 2, height_b, width_b, filters, 4, batch);
        let mut scratch = CnnScratch::new();
        // One gradient buffer across both geometries: each call finds the
        // other model's gradient in it, at the other model's length.
        let mut grad = Vec::new();
        for _ in 0..2 {
            let loss_a =
                model_a.loss_and_grad_with(&params_a, &x_a, &labels_a, &mut scratch, &mut grad);
            prop_assert_eq!(
                (loss_a, grad.clone()),
                model_a.loss_and_grad(&params_a, &x_a, &labels_a)
            );
            let loss_b =
                model_b.loss_and_grad_with(&params_b, &x_b, &labels_b, &mut scratch, &mut grad);
            prop_assert_eq!(
                (loss_b, grad.clone()),
                model_b.loss_and_grad(&params_b, &x_b, &labels_b)
            );
            let fwd = model_a.forward_with(&params_a, x_a.view(), &mut scratch);
            prop_assert_eq!(fwd, model_a.forward(&params_a, &x_a));
        }
    }
}
