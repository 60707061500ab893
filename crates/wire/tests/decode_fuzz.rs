//! Decode fuzzing: hostile bytes never panic the codec layer.
//!
//! The fault model injects corruption *between* encode and decode, so the
//! decoders are the trust boundary of the whole wire path: whatever arrives
//! — a bit-flipped frame, a truncated frame, pure garbage — `decode_into`
//! and `decode_frame` must either return entries whose indices lie inside
//! the declared dimension, or a typed [`WireError`]. Never a panic, never
//! an out-of-range index, never a huge speculative allocation.

use agsfl_sparse::SparseGradient;
use agsfl_wire::{decode_frame, Codec, CodecSpec, WireError, WireScratch};
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn codecs() -> Vec<Codec> {
    CodecSpec::all()
        .into_iter()
        .chain(CodecSpec::lossy())
        .map(|spec| spec.build_seeded(9))
        .collect()
}

/// Decodes `frame` through the frame dispatcher and through every concrete
/// codec, asserting the contract: `Ok` yields strictly increasing indices
/// below the declared dimension; anything else is a typed `WireError`.
fn assert_decode_is_total(frame: &[u8]) {
    let mut out = Vec::new();
    match decode_frame(frame, &mut out) {
        Ok((dim, _)) => assert_entries_valid(dim, &out, "decode_frame"),
        Err(e) => assert_is_wire_error(&e),
    }
    for codec in codecs() {
        out.clear();
        match codec.decode_into(frame, &mut out) {
            Ok(dim) => assert_entries_valid(dim, &out, codec.name()),
            Err(e) => assert_is_wire_error(&e),
        }
    }
}

fn assert_entries_valid(dim: usize, entries: &[(usize, f32)], who: &str) {
    let mut prev: Option<usize> = None;
    for &(j, _) in entries {
        assert!(j < dim, "{who}: index {j} outside dim {dim}");
        if let Some(p) = prev {
            assert!(j > p, "{who}: indices not strictly increasing");
        }
        prev = Some(j);
    }
}

fn assert_is_wire_error(e: &WireError) {
    // Force the Display path too — error formatting must not panic either.
    let _ = e.to_string();
}

/// A valid frame for every codec over a seeded message, so mutations start
/// from realistic bytes rather than noise.
fn valid_frames(seed: u64, dim: usize, k: usize) -> Vec<Vec<u8>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let entries: Vec<(usize, f32)> = {
        let mut idx: Vec<usize> = (0..dim).collect();
        // Seeded subset of k indices, kept sorted.
        for i in 0..dim {
            let j = rng.gen_range(0..dim);
            idx.swap(i, j);
        }
        let mut picked: Vec<usize> = idx.into_iter().take(k.min(dim)).collect();
        picked.sort_unstable();
        picked
            .into_iter()
            .map(|j| (j, rng.gen_range(-5.0f32..5.0)))
            .collect()
    };
    let g = SparseGradient::from_sorted_entries(dim, entries);
    let mut scratch = WireScratch::new();
    codecs()
        .iter()
        .map(|c| c.encode_into(dim, g.entries(), &mut scratch).to_vec())
        .collect()
}

#[test]
fn empty_and_tiny_inputs_are_rejected_not_panicked() {
    assert_decode_is_total(&[]);
    for b in 0u8..=255 {
        assert_decode_is_total(&[b]);
        assert_decode_is_total(&[b, 0xFF]);
        assert_decode_is_total(&[0x00, b, 0xFF, 0xFF]);
    }
}

#[test]
fn every_truncation_of_every_valid_frame_is_total() {
    for frame in valid_frames(7, 300, 40) {
        for cut in 0..frame.len() {
            assert_decode_is_total(&frame[..cut]);
        }
    }
}

#[test]
fn length_prefixes_cannot_demand_absurd_allocations() {
    // Frames whose headers promise far more entries / dimension than the
    // payload carries: the decoders must bail with a typed error instead of
    // reserving memory for the promised count.
    for frame in valid_frames(13, 64, 8) {
        let mut huge = frame.clone();
        // Saturate every byte that could be part of a length or dim field.
        for b in huge.iter_mut().skip(1).take(10) {
            *b = 0xFF;
        }
        assert_decode_is_total(&huge);
    }
}

/// A valid lossy frame with one-byte `dim`/`nnz` varints, so the
/// quantization header sits at a known offset (byte 3) for surgical
/// corruption.
fn small_lossy_frame(codec: Codec, n: usize) -> Vec<u8> {
    let entries: Vec<(usize, f32)> = (0..n).map(|i| (i * 7, 1.5 - i as f32)).collect();
    let mut scratch = WireScratch::new();
    let frame = codec.encode_into(64, &entries, &mut scratch).to_vec();
    let mut out = Vec::new();
    decode_frame(&frame, &mut out).expect("pristine lossy frame must decode");
    frame
}

#[test]
fn qlinear8_malformed_bounds_yield_typed_errors() {
    let frame = small_lossy_frame(CodecSpec::QLinear8.build_seeded(3), 8);
    let mut out = Vec::new();
    // lo occupies bytes 3..7, hi bytes 7..11.
    for bad in [
        (3, f32::NAN),          // non-finite lo
        (7, f32::INFINITY),     // non-finite hi
        (7, f32::NEG_INFINITY), // hi below lo
        (3, 1.0e30),            // lo above hi
    ] {
        let mut corrupt = frame.clone();
        corrupt[bad.0..bad.0 + 4].copy_from_slice(&bad.1.to_le_bytes());
        let err = decode_frame(&corrupt, &mut out).unwrap_err();
        assert!(
            matches!(err, WireError::InvalidQuantization(_)),
            "expected InvalidQuantization, got {err:?}"
        );
        assert_decode_is_total(&corrupt);
    }
}

#[test]
fn sign_norm_malformed_magnitude_and_padding_yield_typed_errors() {
    // n = 5 leaves three padding bits in the single sign byte at offset 7.
    let frame = small_lossy_frame(CodecSpec::SignNorm.build(), 5);
    let mut out = Vec::new();
    for bad_magnitude in [f32::NAN, f32::INFINITY, -1.0f32] {
        let mut corrupt = frame.clone();
        corrupt[3..7].copy_from_slice(&bad_magnitude.to_le_bytes());
        let err = decode_frame(&corrupt, &mut out).unwrap_err();
        assert!(
            matches!(err, WireError::InvalidQuantization(_)),
            "expected InvalidQuantization, got {err:?}"
        );
        assert_decode_is_total(&corrupt);
    }
    let mut corrupt = frame.clone();
    corrupt[7] |= 0b1110_0000; // set the padding bits above the 5 sign bits
    let err = decode_frame(&corrupt, &mut out).unwrap_err();
    assert!(
        matches!(err, WireError::InvalidQuantization(_)),
        "expected InvalidQuantization, got {err:?}"
    );
    assert_decode_is_total(&corrupt);
}

#[test]
fn truncated_quantization_headers_are_truncation_errors() {
    let mut out = Vec::new();
    for (codec, header_end) in [
        (CodecSpec::QLinear8.build_seeded(3), 11usize), // id + dim + nnz + lo + hi
        (CodecSpec::F16.build(), 3),                    // id + dim + nnz
        (CodecSpec::SignNorm.build(), 8),               // id + dim + nnz + magnitude + signs
    ] {
        let frame = small_lossy_frame(codec, 8);
        for cut in 3..header_end.min(frame.len()) {
            let err = decode_frame(&frame[..cut], &mut out).unwrap_err();
            assert_eq!(err, WireError::Truncated, "{} cut at {cut}", codec.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Single- and multi-byte mutations of valid frames decode totally.
    #[test]
    fn prop_mutated_frames_never_panic(
        seed in 0u64..50,
        dim in 1usize..400,
        k_raw in 0usize..60,
        flips in proptest::collection::vec((0usize..4096, 0u32..256), 1..8),
    ) {
        let k = k_raw % (dim + 1);
        for frame in valid_frames(seed, dim, k) {
            let mut mutated = frame.clone();
            for &(pos, val) in &flips {
                if !mutated.is_empty() {
                    let p = pos % mutated.len();
                    mutated[p] ^= val as u8;
                }
            }
            assert_decode_is_total(&mutated);
        }
    }

    /// Truncation composed with mutation (the corruption the fault model
    /// actually injects) decodes totally.
    #[test]
    fn prop_truncated_mutations_never_panic(
        seed in 0u64..50,
        dim in 1usize..300,
        k_raw in 0usize..40,
        cut_frac in 0.0f64..1.0,
        flip in (0usize..4096, 1u32..256),
    ) {
        let k = k_raw % (dim + 1);
        for frame in valid_frames(seed, dim, k) {
            let cut = ((frame.len() as f64) * cut_frac) as usize;
            let mut mutated = frame[..cut.min(frame.len())].to_vec();
            if !mutated.is_empty() {
                let p = flip.0 % mutated.len();
                mutated[p] ^= flip.1 as u8;
            }
            assert_decode_is_total(&mutated);
        }
    }

    /// Pure garbage decodes totally.
    #[test]
    fn prop_garbage_never_panics(raw in proptest::collection::vec(0u32..256, 0..512)) {
        let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        assert_decode_is_total(&bytes);
    }
}
