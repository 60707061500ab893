//! Every dispatch level of the fused convolution layer, forward and
//! backward, equals its scalar spec, bit for bit.
//!
//! `agsfl_tensor::reference::conv_relu_pool` states the layer as the im2col
//! lowering it replaced — columns, a bias-seeded scalar `matmul_acc`, then
//! ReLU and the four-term pool — and the fused kernel behind
//! `ConvLayer::relu_pool` must reproduce its pooled activations and its
//! ReLU mask (one bit per pre-activation under a pooling window, set where
//! it is positive) exactly at every vector width the host can run
//! (`dispatch::Level::available`). The sweep covers random geometries
//! (one to four channels, odd and even images, odd filter counts, pooled
//! widths on both sides of every vector width), the skip rules the filter
//! pairing implies — leftover weights zero in both filters of a pair or in
//! one only, an all-zero group in an unpaired last filter — and `-0.0`,
//! NaN, ±∞ and subnormal inputs, so the vector ReLU is held to
//! `ops::relu`.
//!
//! `agsfl_tensor::reference::conv_relu_pool_backward` states the backward
//! the same way — the pre-activation gradient written out, a serial row sum
//! for the bias, the columns and the scalar eight-lane dot tree for the
//! weights — and `ConvLayer::relu_pool_backward` must reproduce both
//! gradients at every level: over random geometries, filter counts on both
//! sides of every vector width, batches whose column count `B·P` is below
//! eight or not a multiple of it (the dot tree's tail), and planted `-0.0`,
//! NaN, ±∞ and subnormal pooled gradients, with infinite pixels where only
//! an uncovered position's `+0.0` term meets them.

use agsfl_tensor::dispatch::{self, Level};
use agsfl_tensor::{ops, reference, ConvLayer, ConvScratch, ConvShape, MatrixView};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const GENERATORS: usize = 5;

/// `len` values of the requested flavour.
fn values(rng: &mut ChaCha8Rng, generator: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| match generator {
            // Dense, mixed signs.
            0 => rng.gen_range(-2.0f32..2.0),
            // Half exact zeros of both signs: skipped terms, and ±0
            // pre-activations for ReLU.
            1 => match rng.gen_range(0..4) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-2.0f32..2.0),
            },
            // Almost all zeros: whole groups skip in an unpaired filter.
            2 => match rng.gen_range(0..12) {
                0 => rng.gen_range(-2.0f32..2.0),
                1..=5 => -0.0,
                _ => 0.0,
            },
            // Small integers: exact cancellation to ±0 mid-fold.
            3 => rng.gen_range(-3i32..=3) as f32,
            // Every bit pattern: subnormals, infinities and NaNs.
            _ => f32::from_bits(rng.gen::<u32>()),
        })
        .collect()
}

/// `to_bits`, with every NaN folded to one value: which NaN payload an
/// invalid operation or a NaN operand produces is the one thing IEEE
/// leaves to the instruction selected.
fn bits(out: &[f32]) -> Vec<u32> {
    out.iter()
        .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
        .collect()
}

/// Runs the layer through the spec and through every available level, on
/// one scratch that earlier cases left dirty.
fn assert_levels_match_spec(
    shape: ConvShape,
    batch: usize,
    weights: &[f32],
    bias: &[f32],
    images: &[f32],
    scratch: &mut ConvScratch,
    case: &str,
) {
    let layer = ConvLayer::new(shape, weights, bias);
    let images = MatrixView::new(batch, shape.input_dim(), images);
    let mut pooled = vec![f32::NAN; batch * shape.pooled_dim()];
    let mut mask = vec![7u8; batch * shape.mask_dim()];
    reference::conv_relu_pool(layer, images, &mut pooled, Some(&mut mask));
    for level in Level::available() {
        let mut got_pooled = vec![1.5f32; pooled.len()];
        let mut got_mask = vec![9u8; mask.len()];
        dispatch::conv_relu_pool(
            level,
            layer,
            images,
            scratch,
            &mut got_pooled,
            Some(&mut got_mask),
        );
        assert_eq!(
            bits(&got_pooled),
            bits(&pooled),
            "pooled at {} differs from the spec: {shape:?}, batch {batch}, {case}",
            level.name()
        );
        assert_eq!(
            got_mask,
            mask,
            "ReLU mask at {} differs from the spec: {shape:?}, batch {batch}, {case}",
            level.name()
        );
        let mut forward_only = vec![1.5f32; pooled.len()];
        dispatch::conv_relu_pool(level, layer, images, scratch, &mut forward_only, None);
        assert_eq!(
            bits(&forward_only),
            bits(&pooled),
            "pooled without the mask at {} differs: {shape:?}, {case}",
            level.name()
        );
    }
}

/// A random case: generator flavours for weights, bias and images.
fn random_case(
    shape: ConvShape,
    batch: usize,
    generators: (usize, usize, usize),
    seed: u64,
    scratch: &mut ConvScratch,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let weights = values(&mut rng, generators.0, shape.filters * shape.patch_dim());
    let bias = values(&mut rng, generators.1, shape.filters);
    let images = values(&mut rng, generators.2, batch * shape.input_dim());
    assert_levels_match_spec(
        shape,
        batch,
        &weights,
        &bias,
        &images,
        scratch,
        &format!("generators {generators:?}, seed {seed}"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_every_level_matches_the_scalar_spec(
        seed in 0u64..1_000_000,
        channels in 1usize..5,
        height in 3usize..24,
        width in 3usize..40,
        filters in 0usize..8,
        batch in 0usize..4,
        generators in (0usize..GENERATORS, 0usize..GENERATORS, 0usize..GENERATORS),
    ) {
        let shape = ConvShape { channels, height, width, filters };
        random_case(shape, batch, generators, seed, &mut ConvScratch::new());
    }
}

/// Paper-like and edge geometries on one shared scratch: the paper's
/// 1x28x28 with 40 filters, 3x32x32 (27 patch indices: six groups and
/// three leftovers), pooled widths of 0, 1, 8, 16, 17 and 33 against 4-,
/// 8- and 16-lane vectors, 64 pooling windows, and a single filter.
#[test]
fn named_geometries_match_the_scalar_spec() {
    let mut scratch = ConvScratch::new();
    let geometries = [
        (1, 28, 28, 40),
        (3, 32, 32, 5),
        (2, 3, 3, 3),
        (1, 4, 5, 1),
        (1, 5, 20, 2),
        (2, 7, 36, 3),
        (1, 6, 37, 7),
        (1, 4, 68, 4),
        (4, 9, 9, 9),
        (1, 18, 18, 2),
    ];
    for (case, &(channels, height, width, filters)) in geometries.iter().enumerate() {
        let shape = ConvShape {
            channels,
            height,
            width,
            filters,
        };
        for generators in [(0, 0, 0), (1, 1, 1), (2, 0, 3), (0, 1, 4), (4, 4, 0)] {
            random_case(shape, 3, generators, 0xC0DE + case as u64, &mut scratch);
        }
    }
}

/// The skip rules, planted: for a 1-channel layer the ninth weight is the
/// one leftover index; a filter pair with it zero in both rows (skipped),
/// in one row only (added, a `-0.0`/`∞` product of the other row's term
/// included), and an unpaired last filter with an all-zero first group
/// (skipped) and a zero leftover (skipped). The images hold ±∞ and NaN
/// where the skipped weights meet them, so a term added by mistake turns
/// an output NaN.
#[test]
fn planted_skip_rules_match_the_scalar_spec() {
    let mut scratch = ConvScratch::new();
    for channels in [1usize, 3] {
        let shape = ConvShape {
            channels,
            height: 9,
            width: 11,
            filters: 5,
        };
        let patch = shape.patch_dim();
        let mut rng = ChaCha8Rng::seed_from_u64(41 + channels as u64);
        let mut weights = values(&mut rng, 0, shape.filters * patch);
        let last_leftover = patch - 1;
        // Pair (0, 1): leftover zero in both rows.
        weights[last_leftover] = 0.0;
        weights[patch + last_leftover] = -0.0;
        // Pair (2, 3): leftover zero in filter 2 only.
        weights[2 * patch + last_leftover] = 0.0;
        // Filter 4, unpaired: first group all zero, leftover zero.
        for w in &mut weights[4 * patch..4 * patch + 4] {
            *w = -0.0;
        }
        weights[4 * patch + last_leftover] = 0.0;
        let bias = vec![-0.0, 0.5, -0.0, -1.0, -0.0];
        for special in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0, 1e-40] {
            let mut images = values(&mut rng, 0, 2 * shape.input_dim());
            for (i, v) in images.iter_mut().enumerate() {
                if i % 5 == 0 {
                    *v = special;
                }
            }
            assert_levels_match_spec(
                shape,
                2,
                &weights,
                &bias,
                &images,
                &mut scratch,
                &format!("planted skips, {channels} channels, special {special}"),
            );
        }
    }
}

/// The vector ReLU is `ops::relu` on the inputs where `max` is ambiguous:
/// an all-`-0.0` window pools to `+0.0` and a NaN pre-activation to the
/// ReLU of its neighbours, through the spec and every level alike.
#[test]
fn relu_edge_inputs_match_ops_relu() {
    assert_eq!(ops::relu(-0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(ops::relu(f32::NAN).to_bits(), 0.0f32.to_bits());
    assert_eq!(ops::relu(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
    assert_eq!(ops::relu(f32::INFINITY), f32::INFINITY);
    assert_eq!(ops::relu(1e-40), 1e-40);
    let shape = ConvShape {
        channels: 1,
        height: 6,
        width: 38,
        filters: 3,
    };
    let mut scratch = ConvScratch::new();
    // Zero weights and a `-0.0` bias: filter 2 is unpaired and skips every
    // term, so its pre-activations are exactly the `-0.0` bias.
    let weights = vec![0.0f32; shape.filters * shape.patch_dim()];
    for bias in [-0.0f32, f32::NAN, f32::NEG_INFINITY, -1e-40, 1e-40] {
        let images = vec![1.0f32; 2 * shape.input_dim()];
        assert_levels_match_spec(
            shape,
            2,
            &weights,
            &[bias; 3],
            &images,
            &mut scratch,
            &format!("bias {bias}"),
        );
        let mut pooled = vec![0.0f32; 2 * shape.pooled_dim()];
        ConvLayer::new(shape, &weights, &[bias; 3]).relu_pool(
            MatrixView::new(2, shape.input_dim(), &images),
            &mut scratch,
            &mut pooled,
            None,
        );
        let r = ops::relu(bias);
        let want = (((r + r) + r) + r) / 4.0;
        let pooled_dim = shape.pooled_dim();
        let last_filter = &pooled[2 * pooled_dim / 3..pooled_dim];
        assert!(
            last_filter.iter().all(|v| v.to_bits() == want.to_bits()),
            "bias {bias}: unpaired filter pooled to {last_filter:?}, want {want}"
        );
    }
}

#[test]
#[should_panic(expected = "pooled output length")]
fn wrong_pooled_length_panics() {
    let shape = ConvShape {
        channels: 1,
        height: 4,
        width: 4,
        filters: 2,
    };
    let weights = vec![0.0f32; 18];
    let images = vec![0.0f32; 16];
    let mut pooled = vec![0.0f32; 3];
    ConvLayer::new(shape, &weights, &[0.0, 0.0]).relu_pool(
        MatrixView::new(1, 16, &images),
        &mut ConvScratch::new(),
        &mut pooled,
        None,
    );
}

/// Runs the backward through the spec and through every available level,
/// on one scratch that earlier cases left dirty, into outputs that start
/// out dirty.
fn assert_backward_levels_match_spec(
    shape: ConvShape,
    batch: usize,
    images: &[f32],
    dpooled: &[f32],
    mask: &[u8],
    scratch: &mut ConvScratch,
    case: &str,
) {
    let images = MatrixView::new(batch, shape.input_dim(), images);
    let mut dweights = vec![f32::NAN; shape.filters * shape.patch_dim()];
    let mut dbias = vec![f32::NAN; shape.filters];
    reference::conv_relu_pool_backward(shape, images, dpooled, mask, &mut dweights, &mut dbias);
    for level in Level::available() {
        let mut got_dweights = vec![-1.5f32; dweights.len()];
        let mut got_dbias = vec![-1.5f32; dbias.len()];
        dispatch::conv_relu_pool_backward(
            level,
            shape,
            images,
            dpooled,
            mask,
            scratch,
            &mut got_dweights,
            &mut got_dbias,
        );
        assert_eq!(
            bits(&got_dweights),
            bits(&dweights),
            "weight gradient at {} differs from the spec: {shape:?}, batch {batch}, {case}",
            level.name()
        );
        assert_eq!(
            bits(&got_dbias),
            bits(&dbias),
            "bias gradient at {} differs from the spec: {shape:?}, batch {batch}, {case}",
            level.name()
        );
    }
}

/// A random backward case: generator flavours for the pooled gradient and
/// the images, and a random mask — every byte, bits past the last window
/// included, which nothing may read.
fn random_backward_case(
    shape: ConvShape,
    batch: usize,
    generators: (usize, usize),
    seed: u64,
    scratch: &mut ConvScratch,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dpooled = values(&mut rng, generators.0, batch * shape.pooled_dim());
    let images = values(&mut rng, generators.1, batch * shape.input_dim());
    let mask: Vec<u8> = (0..batch * shape.mask_dim())
        .map(|_| rng.gen::<u32>() as u8)
        .collect();
    assert_backward_levels_match_spec(
        shape,
        batch,
        &images,
        &dpooled,
        &mask,
        scratch,
        &format!("generators {generators:?}, seed {seed}"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_every_backward_level_matches_the_scalar_spec(
        seed in 0u64..1_000_000,
        channels in 1usize..4,
        height in 3usize..20,
        width in 3usize..24,
        filters in 0usize..42,
        batch in 0usize..4,
        generators in (0usize..GENERATORS, 0usize..GENERATORS),
    ) {
        let shape = ConvShape { channels, height, width, filters };
        random_backward_case(shape, batch, generators, seed, &mut ConvScratch::new());
    }
}

/// Channel counts 1–3, filter counts 1, 15, 16, 17 and 40 against 4-, 8-
/// and 16-lane vectors, the paper's 1x28x28 at batch 32, and batches whose
/// `B·P` column count is below eight (1x3x4: two positions a sample) or
/// not a multiple of it (1x5x5: nine), on one shared scratch.
#[test]
fn named_backward_geometries_match_the_scalar_spec() {
    let mut scratch = ConvScratch::new();
    let mut cases = vec![(1, 28, 28, 40, 32)];
    for channels in [1, 2, 3] {
        for filters in [1, 15, 16, 17, 40] {
            cases.push((channels, 9, 11, filters, 3));
        }
    }
    cases.extend([
        (1, 3, 4, 3, 1),
        (1, 3, 4, 17, 3),
        (1, 4, 4, 2, 1),
        (1, 5, 5, 16, 1),
        (2, 5, 5, 17, 3),
        (1, 3, 3, 40, 7),
    ]);
    for (case, &(channels, height, width, filters, batch)) in cases.iter().enumerate() {
        let shape = ConvShape {
            channels,
            height,
            width,
            filters,
        };
        for generators in [(0, 0), (1, 3), (2, 1), (4, 0), (0, 4)] {
            random_backward_case(shape, batch, generators, 0xBAC + case as u64, &mut scratch);
        }
    }
}

/// Planted pooled gradients: `-0.0`, NaN, ±∞ and subnormals spread over
/// every window, under a mask that sets some bits and clears others, so a
/// masked-off `∞` or NaN gradient still turns its terms NaN and a `-0.0`
/// one still adds its signed zeros.
#[test]
fn planted_pooled_gradients_match_the_scalar_spec() {
    let mut scratch = ConvScratch::new();
    let specials = [
        -0.0,
        0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-40,
        -1e-40,
        f32::MIN_POSITIVE,
    ];
    for (channels, filters) in [(1, 40), (3, 17), (2, 5)] {
        let shape = ConvShape {
            channels,
            height: 10,
            width: 13,
            filters,
        };
        let batch = 3;
        let mut rng = ChaCha8Rng::seed_from_u64(71 + filters as u64);
        for every in [1, 3, 7] {
            let mut dpooled = values(&mut rng, 0, batch * shape.pooled_dim());
            for (i, g) in dpooled.iter_mut().enumerate() {
                if i % every == 0 {
                    *g = specials[i / every % specials.len()];
                }
            }
            let images = values(&mut rng, 0, batch * shape.input_dim());
            let mask: Vec<u8> = (0..batch * shape.mask_dim())
                .map(|_| rng.gen::<u32>() as u8)
                .collect();
            assert_backward_levels_match_spec(
                shape,
                batch,
                &images,
                &dpooled,
                &mask,
                &mut scratch,
                &format!("planted gradients every {every}, {channels} channels"),
            );
        }
    }
}

/// An infinite pixel that only positions outside every pooling window reach
/// (the last column of an image whose convolution output is 7 wide, the
/// last row of one 7 high): the lowering adds `+0.0 · ∞` there, so the
/// weight gradients of the taps that meet it are NaN — at every level too.
#[test]
fn an_uncovered_infinite_pixel_still_gives_nan() {
    let mut scratch = ConvScratch::new();
    let shape = ConvShape {
        channels: 1,
        height: 9,
        width: 9,
        filters: 17,
    };
    let batch = 2;
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let dpooled = values(&mut rng, 0, batch * shape.pooled_dim());
    let mask = vec![0xFFu8; batch * shape.mask_dim()];
    for (y, x) in [(4, 8), (8, 4), (8, 8)] {
        let mut images = values(&mut rng, 0, batch * shape.input_dim());
        images[shape.input_dim() + y * shape.width + x] = f32::INFINITY;
        assert_backward_levels_match_spec(
            shape,
            batch,
            &images,
            &dpooled,
            &mask,
            &mut scratch,
            &format!("infinite pixel at ({y}, {x})"),
        );
        let mut dweights = vec![0.0f32; shape.filters * shape.patch_dim()];
        let mut dbias = vec![0.0f32; shape.filters];
        ConvLayer::new(shape, &vec![0.0; dweights.len()], &dbias.clone()).relu_pool_backward(
            MatrixView::new(batch, shape.input_dim(), &images),
            &dpooled,
            &mask,
            &mut scratch,
            &mut dweights,
            &mut dbias,
        );
        // Tap (2, 2) meets pixel (y, x) at position (y - 2, x - 2), which
        // is uncovered: the convolution output is 7x7, the windows cover
        // 6x6.
        assert!(
            (0..shape.filters).all(|o| dweights[o * 9 + 8].is_nan()),
            "pixel ({y}, {x}): tap (2, 2) must be NaN"
        );
        assert!(dbias.iter().all(|b| b.is_finite()));
    }
}
