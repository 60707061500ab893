//! Quantize→dequantize property tests for the lossy codec tier.
//!
//! Per codec: the per-entry reconstruction error is bounded by the codec's
//! step size, values that are exactly representable round-trip exactly,
//! and the edge cases — all-zero frames, single entries, max-magnitude
//! values, subnormal `f32`s — never panic. The allocating `reference`
//! encoders stay byte-identical to the scratch fast paths, including the
//! seed-keyed stochastic rounding stream.

use agsfl_wire::{decode_frame, f16_bits_to_f32, reference, Codec, CodecSpec, WireScratch};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn lossy_codecs() -> [Codec; 3] {
    CodecSpec::lossy().map(|spec| spec.build_seeded(41))
}

fn qlinear8(seed: u64) -> Codec {
    CodecSpec::QLinear8.build_seeded(seed)
}

/// Canonicalizes proptest-generated raw pairs into a sorted, deduplicated
/// entry list over `dim`.
fn sorted_entries(dim: usize, raw: Vec<(usize, f32)>) -> Vec<(usize, f32)> {
    let mut map = BTreeMap::new();
    for (j, v) in raw {
        map.insert(j % dim, v);
    }
    map.into_iter().collect()
}

/// Encodes, checks the length contract, decodes through the frame
/// dispatcher, and checks that index positions survive exactly (only
/// values are lossy).
fn encode_decode(codec: Codec, dim: usize, entries: &[(usize, f32)]) -> Vec<(usize, f32)> {
    let mut scratch = WireScratch::new();
    let frame = codec.encode_into(dim, entries, &mut scratch).to_vec();
    assert_eq!(
        frame.len(),
        codec.encoded_len(dim, entries),
        "{}",
        codec.name()
    );
    let mut out = Vec::new();
    let (frame_dim, id) = decode_frame(&frame, &mut out).unwrap();
    assert_eq!(frame_dim, dim, "{}", codec.name());
    assert_eq!(id, codec.choose(dim, entries), "{}", codec.name());
    assert_eq!(out.len(), entries.len(), "{}", codec.name());
    for (&(j, _), &(dj, _)) in entries.iter().zip(&out) {
        assert_eq!(j, dj, "{}: indices must be exact", codec.name());
    }
    out
}

#[test]
fn edge_case_messages_never_panic() {
    let subnormal = f32::from_bits(0x0000_0001); // smallest positive subnormal
    let cases: Vec<(usize, Vec<(usize, f32)>)> = vec![
        (10, vec![]),
        (1, vec![(0, 0.0)]),
        (16, (0..16).map(|j| (j, 0.0)).collect()), // all-zero frame
        (16, (0..16).map(|j| (j, -0.0)).collect()),
        (4, vec![(3, f32::MAX)]), // single max-magnitude entry
        (4, vec![(0, f32::MIN), (3, f32::MAX)]), // the full finite range
        (4, vec![(1, subnormal), (2, -subnormal)]),
        (8, vec![(7, f32::MIN_POSITIVE)]),
        (3, vec![(0, -1.0e38), (1, 0.0), (2, 1.0e38)]),
    ];
    for codec in lossy_codecs() {
        for (dim, entries) in &cases {
            let decoded = encode_decode(codec, *dim, entries);
            assert!(
                decoded.iter().all(|&(_, v)| v.is_finite()),
                "{}: lossy reconstruction must stay finite",
                codec.name()
            );
        }
    }
}

#[test]
fn zero_error_messages_reconstruct_exactly() {
    // Messages whose values are exactly representable in every tier:
    // levels of a [0, 255] range for QLinear8, small integers for F16,
    // and a constant magnitude for SignNorm.
    let entries: Vec<(usize, f32)> = vec![(0, 0.0), (3, 51.0), (9, 204.0), (11, 255.0)];
    let decoded = encode_decode(qlinear8(5), 12, &entries);
    for (&(_, v), &(_, d)) in entries.iter().zip(&decoded) {
        assert_eq!(v.to_bits(), d.to_bits(), "qlinear8 level values are exact");
    }
    let decoded = encode_decode(CodecSpec::F16.build(), 12, &entries);
    for (&(_, v), &(_, d)) in entries.iter().zip(&decoded) {
        assert_eq!(v.to_bits(), d.to_bits(), "f16 small integers are exact");
    }
    let constant: Vec<(usize, f32)> = vec![(1, 2.5), (4, -2.5), (7, 2.5)];
    let decoded = encode_decode(CodecSpec::SignNorm.build(), 8, &constant);
    for (&(_, v), &(_, d)) in constant.iter().zip(&decoded) {
        assert_eq!(v.to_bits(), d.to_bits(), "constant-magnitude is exact");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// QLinear8's reconstruction error never exceeds one quantization step
    /// (stochastic rounding moves at most one level), modulo the final
    /// `f64 → f32` cast.
    #[test]
    fn prop_qlinear8_error_bounded_by_step(
        seed in 0u64..20,
        dim in 1usize..300,
        raw in proptest::collection::vec((0usize..300, -1.0e30f32..1.0e30), 1..60),
    ) {
        let entries = sorted_entries(dim, raw);
        let lo = entries.iter().map(|&(_, v)| v).fold(f32::INFINITY, f32::min);
        let hi = entries.iter().map(|&(_, v)| v).fold(f32::NEG_INFINITY, f32::max);
        let step = (f64::from(hi) - f64::from(lo)) / 255.0;
        let decoded = encode_decode(qlinear8(seed), dim, &entries);
        for (&(_, v), &(_, vhat)) in entries.iter().zip(&decoded) {
            let err = (f64::from(v) - f64::from(vhat)).abs();
            // One step, plus two f32 ulps of slack for the final cast.
            let bound = step * 1.000_001 + f64::from(vhat.abs()) * 2.0f64.powi(-22) + 1e-38;
            prop_assert!(err <= bound, "v={v} vhat={vhat} err={err} step={step}");
        }
    }

    /// F16's error obeys the binary16 precision bound: half an ulp, i.e.
    /// `2^-11` relative in the normal range, `2^-24` absolute below it.
    #[test]
    fn prop_f16_error_bounded_by_half_ulp(
        dim in 1usize..300,
        raw in proptest::collection::vec((0usize..300, -60_000.0f32..60_000.0), 1..60),
    ) {
        let entries = sorted_entries(dim, raw);
        let decoded = encode_decode(CodecSpec::F16.build(), dim, &entries);
        for (&(_, v), &(_, vhat)) in entries.iter().zip(&decoded) {
            let err = (f64::from(v) - f64::from(vhat)).abs();
            let bound = (f64::from(v.abs()) * 2.0f64.powi(-11)).max(2.0f64.powi(-24));
            prop_assert!(err <= bound, "v={v} vhat={vhat} err={err}");
        }
    }

    /// Every exactly-representable binary16 value round-trips bit-exactly
    /// through the F16 codec.
    #[test]
    fn prop_f16_representable_values_roundtrip_exactly(raw_bits in 0u32..65_536) {
        // Remap inf/NaN exponents (0x1F) onto a finite one: every remaining
        // pattern is an exactly-representable binary16 value.
        let mut bits = raw_bits as u16;
        if (bits >> 10) & 0x1F == 0x1F {
            bits &= !(1 << 14);
        }
        let x = f16_bits_to_f32(bits);
        let decoded = encode_decode(CodecSpec::F16.build(), 1, &[(0, x)]);
        prop_assert_eq!(decoded[0].1.to_bits(), x.to_bits());
    }

    /// SignNorm preserves every sign and reconstructs the exact mean
    /// absolute value for every entry.
    #[test]
    fn prop_sign_norm_preserves_signs_and_magnitude(
        dim in 1usize..300,
        raw in proptest::collection::vec((0usize..300, -1.0e6f32..1.0e6), 1..60),
    ) {
        let entries = sorted_entries(dim, raw);
        let sum: f64 = entries.iter().map(|&(_, v)| f64::from(v).abs()).sum();
        let magnitude = (sum / entries.len() as f64) as f32;
        let decoded = encode_decode(CodecSpec::SignNorm.build(), dim, &entries);
        for (&(_, v), &(_, vhat)) in entries.iter().zip(&decoded) {
            prop_assert_eq!(vhat.abs().to_bits(), magnitude.to_bits());
            prop_assert_eq!(vhat.is_sign_negative(), v.is_sign_negative());
        }
    }

    /// Re-encoding a decoded QLinear8 message is idempotent: decoded
    /// values sit exactly on levels, so the snap path reproduces them
    /// without touching the stochastic stream.
    #[test]
    fn prop_qlinear8_reencode_is_idempotent(
        seed in 0u64..20,
        dim in 1usize..200,
        raw in proptest::collection::vec((0usize..200, -100.0f32..100.0), 1..40),
    ) {
        let entries = sorted_entries(dim, raw);
        let codec = qlinear8(seed);
        let once = encode_decode(codec, dim, &entries);
        let twice = encode_decode(codec, dim, &once);
        for (&(_, a), &(_, b)) in once.iter().zip(&twice) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The allocating reference encoders emit byte-identical lossy frames
    /// (including the content-keyed stochastic stream), and the reference
    /// decoder agrees with the fast path on every valid lossy frame — on
    /// finite messages, and on messages with NaN, ±inf and `-0.0` planted
    /// among finite values, which both sides send as the same lossless
    /// frame.
    #[test]
    fn prop_lossy_reference_equivalence(
        seed in 0u64..20,
        dim in 1usize..300,
        raw in proptest::collection::vec((0usize..300, -50.0f32..50.0), 0..60),
        planted in proptest::collection::vec((0usize..300, PlantedValue), 0..60),
    ) {
        for raw in [raw, planted] {
            assert_lossy_reference_equivalence(seed, dim, raw);
        }
    }
}

/// A value strategy for messages the lossy tier cannot carry: mostly
/// finite values in `[-50, 50)`, with one draw in four planting NaN, +inf,
/// -inf or `-0.0`.
struct PlantedValue;

impl Strategy for PlantedValue {
    type Value = f32;

    fn generate(&self, rng: &mut proptest::TestRng) -> f32 {
        match (0u32..16).generate(rng) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.0,
            _ => (-50.0f32..50.0).generate(rng),
        }
    }
}

fn assert_lossy_reference_equivalence(seed: u64, dim: usize, raw: Vec<(usize, f32)>) {
    let entries = sorted_entries(dim, raw);
    let mut scratch = WireScratch::new();
    assert_eq!(
        reference::qlinear8_encode(seed, dim, &entries),
        qlinear8(seed).encode_into(dim, &entries, &mut scratch)
    );
    assert_eq!(
        reference::f16_encode(dim, &entries),
        CodecSpec::F16
            .build()
            .encode_into(dim, &entries, &mut scratch)
    );
    assert_eq!(
        reference::sign_norm_encode(dim, &entries),
        CodecSpec::SignNorm
            .build()
            .encode_into(dim, &entries, &mut scratch)
    );
    let mut out = Vec::new();
    for codec in lossy_codecs() {
        let frame = codec.encode_into(dim, &entries, &mut scratch).to_vec();
        let (ref_dim, ref_entries) = reference::decode(&frame).unwrap();
        let fast_dim = codec.decode_into(&frame, &mut out).unwrap();
        assert_eq!(ref_dim, fast_dim);
        assert_eq!(ref_entries.len(), out.len());
        for (a, b) in ref_entries.iter().zip(out.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }
}
