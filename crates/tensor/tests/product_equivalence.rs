//! Every dispatch level of every product equals the scalar spec, bit for
//! bit.
//!
//! `agsfl_tensor::reference` spells out each product's per-element fold
//! order as the scalar loops the golden trajectories were recorded with;
//! the register-tiled kernels behind `MatrixView`'s product methods must
//! reproduce it exactly at every vector width the host can run
//! (`dispatch::Level::available`). The sweep
//! covers row/column/contraction remainders against every tile and strip
//! width (1, 7 x 13 x 29, 62 output columns, a contraction of 9, batches of
//! 1/31/32/33), pre-seeded outputs, and — because a skipped all-zero term
//! is not the same as an added zero — exact zeros and `-0.0` in the operand
//! the skip rules read. The `aᵀ·b` folds run with both stores; an `Add`
//! lands on dirty residuals (±0, ±∞, subnormals), and one planted case
//! shows that adding the fold is not folding from the residual.

use agsfl_tensor::dispatch::{self, Level};
use agsfl_tensor::{reference, MatrixView, Product, Store};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Output rows / output columns / contraction lengths: every remainder
/// against 2- and 4-row tiles, 4/8/16-lane vectors, strips of 1–8 vectors,
/// 4-way groups and 8-lane dot chunks.
const DIMS: [usize; 22] = [
    0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 15, 16, 17, 29, 31, 32, 33, 62, 63, 64, 65, 131,
];

const GENERATORS: usize = 6;

/// The generator of a dirty residual: what `Store::Add` lands on.
const DIRTY: usize = 5;

/// `len` values of the requested flavour.
fn values(rng: &mut ChaCha8Rng, generator: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| match generator {
            // Dense, mixed signs.
            0 => rng.gen_range(-2.0f32..2.0),
            // Half exact zeros of both signs: runs of skipped terms.
            1 => match rng.gen_range(0..4) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-2.0f32..2.0),
            },
            // Almost all zeros: whole groups (and row pairs) skip.
            2 => match rng.gen_range(0..12) {
                0 => rng.gen_range(-2.0f32..2.0),
                1..=5 => -0.0,
                _ => 0.0,
            },
            // Small integers: exact cancellation to ±0 mid-fold.
            3 => rng.gen_range(-3i32..=3) as f32,
            // A client's residual after rounds of resets and lossy error
            // feedback: signed zeros, infinities, subnormals and ordinary
            // values side by side.
            DIRTY => match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                4 => f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
                5 => -f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
                _ => rng.gen_range(-2.0f32..2.0),
            },
            // Every finite exponent, subnormals and the odd infinity; sums
            // may overflow or turn into NaN, which must happen identically.
            _ => {
                let v = f32::from_bits(rng.gen::<u32>());
                if v.is_nan() {
                    f32::INFINITY
                } else {
                    v
                }
            }
        })
        .collect()
}

/// Operand shapes `(a, b)` for an `rows x cols` output contracted over
/// `inner`.
fn operand_shapes(
    op: Product,
    rows: usize,
    cols: usize,
    inner: usize,
) -> ((usize, usize), (usize, usize)) {
    match op {
        Product::MatmulAcc => ((rows, inner), (inner, cols)),
        Product::TransposeMatmulGrouped(_) | Product::TransposeMatmul(_) => {
            ((inner, rows), (inner, cols))
        }
        Product::MatmulTransposeAcc | Product::MatmulTransposeInto => {
            ((rows, inner), (cols, inner))
        }
    }
}

/// `to_bits`, with every NaN folded to one value: which NaN payload an
/// invalid operation or a NaN operand produces is the one thing IEEE
/// leaves to the instruction selected.
fn bits(out: &[f32]) -> Vec<u32> {
    out.iter()
        .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
        .collect()
}

/// Runs `op` through the spec and through every available level on the
/// same operands and the same pre-seeded output.
fn assert_levels_match_spec(
    op: Product,
    (rows, cols, inner): (usize, usize, usize),
    generators: (usize, usize, usize),
    seed: u64,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (a_shape, b_shape) = operand_shapes(op, rows, cols, inner);
    let a_data = values(&mut rng, generators.0, a_shape.0 * a_shape.1);
    let b_data = values(&mut rng, generators.1, b_shape.0 * b_shape.1);
    let seed_out = values(&mut rng, generators.2, rows * cols);
    let a = MatrixView::new(a_shape.0, a_shape.1, &a_data);
    let b = MatrixView::new(b_shape.0, b_shape.1, &b_data);
    let mut expected = seed_out.clone();
    reference::run(op, a, b, &mut expected);
    for level in Level::available() {
        let mut got = seed_out.clone();
        dispatch::run(level, op, a, b, &mut got);
        assert_eq!(
            bits(&got),
            bits(&expected),
            "{op:?} at {} differs from the spec: {rows}x{cols} over {inner}, generators {generators:?}, seed {seed}",
            level.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn prop_every_level_matches_the_scalar_spec(
        seed in 0u64..1_000_000,
        op_idx in 0usize..Product::ALL.len(),
        rows_idx in 0usize..DIMS.len(),
        cols_idx in 0usize..DIMS.len(),
        inner_idx in 0usize..DIMS.len(),
        generators in (0usize..GENERATORS, 0usize..GENERATORS, 0usize..GENERATORS),
    ) {
        assert_levels_match_spec(
            Product::ALL[op_idx],
            (DIMS[rows_idx], DIMS[cols_idx], DIMS[inner_idx]),
            generators,
            seed,
        );
    }
}

/// The shapes the issue names, each with dense operands and with zeros of
/// both signs in the operand the skip rules read, on a pre-seeded output
/// that itself holds `-0.0`.
#[test]
fn named_remainder_shapes_match_the_scalar_spec() {
    let shapes = [
        (1, 1, 1),
        (7, 13, 29),
        (29, 7, 13),
        // The CNN's products at reduced width: 62 classes, a 3x3 patch.
        (1, 62, 200),
        (31, 62, 200),
        (32, 62, 200),
        (33, 62, 200),
        (40, 676, 9),
        (40, 9, 1352),
        (200, 62, 32),
        (200, 62, 33),
        (32, 200, 62),
        (33, 200, 62),
    ];
    for (case, &shape) in shapes.iter().enumerate() {
        for op in Product::ALL {
            for generators in [(0, 0, 0), (1, 0, 1), (2, 3, 2), (3, 3, 3), (1, 0, DIRTY)] {
                assert_levels_match_spec(op, shape, generators, 0xA65F + case as u64);
            }
        }
    }
}

/// The paper's two largest products at full size, once: enough contraction
/// steps (6760, 21,632) that a wrong chunk boundary cannot hide.
#[test]
fn paper_shapes_match_the_scalar_spec() {
    assert_levels_match_spec(Product::MatmulAcc, (32, 62, 6760), (1, 0, 0), 7);
    assert_levels_match_spec(Product::MatmulAcc, (1, 62, 6760), (1, 0, 0), 8);
    for store in [Store::Overwrite, Store::Add] {
        let grouped = Product::TransposeMatmulGrouped(store);
        assert_levels_match_spec(grouped, (6760, 62, 32), (1, 0, DIRTY), 9);
        // The linear model's weight gradient: batch 8, 6751 features.
        let ungrouped = Product::TransposeMatmul(store);
        assert_levels_match_spec(ungrouped, (6751, 62, 8), (0, 0, DIRTY), 13);
    }
    assert_levels_match_spec(Product::MatmulTransposeAcc, (32, 6760, 62), (0, 0, 1), 10);
    assert_levels_match_spec(Product::MatmulTransposeAcc, (40, 9, 21_632), (1, 0, 0), 11);
    assert_levels_match_spec(Product::MatmulAcc, (40, 21_632, 9), (0, 0, 0), 12);
}

/// `Store::Add` adds the finished fold to the residual once. At 2²⁴, where
/// `f32`s are 2 apart, the fold seeded with the residual would round each
/// `+1` term away, while the terms' sum survives the one addition. The
/// ungrouped fold has one term per row; the grouped one a four-row group's
/// term and then one per leftover row.
#[test]
fn add_is_not_the_fold_seeded_with_the_residual() {
    let residual = 16_777_216.0f32;
    let cases: [(Product, usize, &[f32]); 2] = [
        (Product::TransposeMatmul(Store::Add), 2, &[1.0, 1.0]),
        (
            Product::TransposeMatmulGrouped(Store::Add),
            6,
            &[4.0, 1.0, 1.0],
        ),
    ];
    for (op, rows, terms) in cases {
        let seeded = terms.iter().fold(residual, |v, &t| v + t);
        let added = residual + terms.iter().fold(0.0f32, |g, &t| g + t);
        assert_ne!(seeded, added, "{op:?}: the plant must tell them apart");
        let ones = vec![1.0f32; rows];
        let view = MatrixView::new(rows, 1, &ones);
        let mut expected = [residual];
        reference::run(op, view, view, &mut expected);
        assert_eq!(expected, [added], "{op:?}: the spec adds the fold once");
        for level in Level::available() {
            let mut got = [residual];
            dispatch::run(level, op, view, view, &mut got);
            assert_eq!(got, expected, "{op:?} at {}", level.name());
        }
    }
}

/// `MatrixView`'s methods run the detected level and check shapes.
#[test]
fn view_methods_dispatch_to_the_detected_level() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let a_data = values(&mut rng, 1, 9 * 13);
    let b_data = values(&mut rng, 0, 13 * 21);
    let (a, b) = (
        MatrixView::new(9, 13, &a_data),
        MatrixView::new(13, 21, &b_data),
    );
    let mut expected = vec![0.5f32; 9 * 21];
    dispatch::run(Level::detect(), Product::MatmulAcc, a, b, &mut expected);
    let mut got = vec![0.5f32; 9 * 21];
    a.matmul_acc(b, &mut got);
    assert_eq!(bits(&got), bits(&expected));
}

#[test]
#[should_panic(expected = "MatmulAcc")]
fn mismatched_shapes_panic() {
    let data = [0.0f32; 12];
    let mut out = [0.0f32; 9];
    MatrixView::new(3, 4, &data).matmul_acc(MatrixView::new(3, 4, &data), &mut out);
}

#[test]
#[should_panic(expected = "output length")]
fn wrong_output_length_panics() {
    let data = [0.0f32; 12];
    let mut out = [0.0f32; 8];
    MatrixView::new(3, 4, &data).matmul_acc(MatrixView::new(4, 3, &data), &mut out);
}
