//! The lossy codec tier: three quantized encodings that trade value
//! fidelity for bytes, with seed-deterministic stochastic rounding.
//!
//! # Frame layout
//!
//! Lossy frames reuse the common self-describing header (`codec id`,
//! `varint dim`, `varint nnz`); index *positions* stay exact — only values
//! are quantized — and travel as the same sorted-gap varints delta-varint
//! frames use:
//!
//! | format | payload after the header | bytes (header aside) |
//! |---|---|---|
//! | qlinear8 ([`CodecId::QLinear8`](crate::CodecId::QLinear8)) | `f32 lo`, `f32 hi`, then `n × (varint gap, u8 level)` | `8 + n + Σ varint(Δ)` |
//! | f16 ([`CodecId::F16`](crate::CodecId::F16)) | `n × (varint gap, u16 half, LE)` | `2n + Σ varint(Δ)` |
//! | sign-norm ([`CodecId::SignNorm`](crate::CodecId::SignNorm)) | `f32 magnitude`, `⌈n/8⌉` sign bytes (bit set = negative), then `n × varint gap` | `4 + ⌈n/8⌉ + Σ varint(Δ)` |
//!
//! qlinear8 maps each value onto 256 linear levels between the frame's
//! observed `[lo, hi]`; f16 stores IEEE-754 binary16 with
//! round-to-nearest-even (inputs saturate at ±65504, the largest finite
//! half, so error feedback never sees an infinity); sign-norm keeps one
//! sign bit per entry plus the frame's mean absolute value, the classic
//! 1-bit-with-norm quantizer. Its sign bytes precede the gap varints so the
//! streaming decoder can locate them without a first parsing pass; padding
//! bits of the last sign byte must be zero (validated). f16 and sign-norm
//! carry no RNG at all.
//!
//! # Determinism
//!
//! qlinear8 is the only format that rounds stochastically. Its RNG is a
//! per-frame ChaCha8 stream keyed by `seed XOR fnv1a(dim, entries)` — a
//! pure function of the seed the codec was built with
//! ([`CodecSpec::build_seeded`]) and the message content,
//! so encoding carries **no mutable state**: the same message encodes to
//! the same bytes no matter which worker thread encodes it, how many
//! times, or on which side of a checkpoint/resume boundary. That
//! content-keyed derivation is what keeps lossy training runs bit-identical
//! across 1–8 workers even though they (deliberately) differ from lossless
//! runs. Levels whose real-valued position is within `1e-6` of an integer
//! snap deterministically (no RNG draw), so values that are exactly
//! representable round-trip exactly and re-encoding a decoded frame is
//! idempotent.
//!
//! # Error feedback
//!
//! Capturing quantization error is *not* the codec's job: the FL client
//! decodes its own frame once — that decode is also the upload the server
//! aggregates — and routes `v − v̂` per entry back into its
//! `ResidualAccumulator` (see `agsfl_fl`), the same error-feedback path
//! top-k sparsification already uses. Decoders only promise that `v̂` is a
//! deterministic, validated function of the frame bytes — malformed
//! quantization headers surface as
//! [`WireError::InvalidQuantization`](crate::WireError) instead of panics.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::codec::{read_f32, read_gaps, take, write_gaps, CodecSpec};
use crate::error::WireError;

/// Largest finite IEEE-754 binary16 value; f16 frames saturate here.
pub const F16_MAX: f32 = 65504.0;

/// Converts an `f32` to IEEE-754 binary16 bits with round-to-nearest-even.
///
/// Full IEEE semantics: values at or beyond 65520 round to infinity, NaN
/// stays NaN (quieted), subnormal halves and signed zero are exact. The
/// f16 format clamps its inputs to `±`[`F16_MAX`] *before* calling this,
/// so codec frames never carry an infinity.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7FFF_FFFF;
    if abs >= 0x7F80_0000 {
        // Infinity or NaN (quieted: keep a set mantissa bit).
        return sign | 0x7C00 | if abs > 0x7F80_0000 { 0x0200 } else { 0 };
    }
    if abs >= 0x4780_0000 {
        // >= 65536: past every finite half even before rounding.
        return sign | 0x7C00;
    }
    if abs >= 0x3880_0000 {
        // Normal half range (>= 2^-14): rebias, truncate 13 mantissa bits,
        // then round to nearest even. The carry of rounding up 0x7BFF
        // lands on 0x7C00 (infinity), which is exactly RNE for
        // [65520, 65536).
        let mut half = ((abs - (112 << 23)) >> 13) as u16;
        let round_bits = abs & 0x1FFF;
        if round_bits > 0x1000 || (round_bits == 0x1000 && half & 1 == 1) {
            half += 1;
        }
        return sign | half;
    }
    // Subnormal-or-zero target: quantize to multiples of 2^-24.
    let e = (abs >> 23) as i32;
    if e == 0 {
        // f32 subnormals are < 2^-126, far below half the smallest
        // half-subnormal step.
        return sign;
    }
    let shift = 126 - e;
    if shift > 24 {
        return sign;
    }
    let m24 = (abs & 0x007F_FFFF) | 0x0080_0000;
    let mut q = m24 >> shift;
    let dropped = m24 & ((1u32 << shift) - 1);
    let half_point = 1u32 << (shift - 1);
    if dropped > half_point || (dropped == half_point && q & 1 == 1) {
        // A carry to 0x0400 is the smallest normal half — still correct.
        q += 1;
    }
    sign | q as u16
}

/// Converts IEEE-754 binary16 bits to the exactly-representing `f32`.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = u32::from(h >> 10) & 0x1F;
    let mant = u32::from(h & 0x3FF);
    if exp == 0x1F {
        return f32::from_bits(sign | 0x7F80_0000 | (mant << 13));
    }
    if exp == 0 {
        if mant == 0 {
            return f32::from_bits(sign);
        }
        // Half subnormal: mant * 2^-24, renormalized for f32.
        let p = 31 - mant.leading_zeros();
        let m = (mant << (23 - p)) & 0x007F_FFFF;
        return f32::from_bits(sign | ((p + 103) << 23) | m);
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (mant << 13))
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// `FNV_PRIME⁵`: five zero bytes in one step (`h ^ 0 == h`, so a zero byte
/// only multiplies).
const FNV_PRIME_POW5: u64 = FNV_PRIME
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME);

#[inline]
fn fnv_byte(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

fn fnv_bytes<const N: usize>(h: u64, bytes: [u8; N]) -> u64 {
    bytes.into_iter().fold(h, fnv_byte)
}

/// Folds one entry — the index as eight little-endian bytes, then the four
/// value bytes — into the running FNV-1a state. A qlinear8 frame's RNG
/// stream is keyed by this chain over `dim` and then every entry in order,
/// which makes it part of the frame format: [`crate::reference::frame_hash`]
/// is the byte-at-a-time form it must equal. An index below 2²⁴ (every
/// model this workspace trains) ends in five zero bytes, which cost one
/// multiply instead of five; the key is the byte-wise one either way.
#[inline]
fn fnv_entry(h: u64, j: usize, v: f32) -> u64 {
    let [b0, b1, b2, high @ ..] = (j as u64).to_le_bytes();
    let h = fnv_bytes(h, [b0, b1, b2]);
    let h = if high == [0; 5] {
        h.wrapping_mul(FNV_PRIME_POW5)
    } else {
        fnv_bytes(h, high)
    };
    fnv_bytes(h, v.to_bits().to_le_bytes())
}

/// The quantization step shared by encoder, decoder and error feedback:
/// computed in `f64` so `hi − lo` never overflows even at `±f32::MAX`.
fn q8_step(lo: f32, hi: f32) -> f64 {
    (f64::from(hi) - f64::from(lo)) / 255.0
}

/// Dequantizes level `q` — the one reconstruction expression, used
/// verbatim on both sides so the encoder's error accounting matches the
/// decoder bit-for-bit.
fn q8_value(lo: f32, step: f64, q: u8) -> f32 {
    (f64::from(lo) + f64::from(q) * step) as f32
}

/// Everything a qlinear8 frame needs to know about a message before it
/// writes a byte, from one sweep over it: the encode contract checked
/// (indices in range, values finite; debug builds also the index order),
/// the value range `[lo, hi]` (`[0, 0]` for an empty message), and the
/// content hash that keys the frame's stochastic-rounding stream.
fn q8_survey(dim: usize, entries: &[(usize, f32)]) -> (f32, f32, u64) {
    let mut hash = fnv_bytes(FNV_BASIS, (dim as u64).to_le_bytes());
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    let (mut in_range, mut finite) = (true, true);
    for &(j, v) in entries {
        in_range &= j < dim;
        finite &= v.is_finite();
        lo = lo.min(v);
        hi = hi.max(v);
        hash = fnv_entry(hash, j, v);
    }
    assert!(in_range, "wire entry index out of range (dim {dim})");
    assert!(finite, "lossy codecs require finite values");
    debug_assert!(
        entries.windows(2).all(|w| w[0].0 < w[1].0),
        "wire entries must be sorted by strictly increasing index"
    );
    if entries.is_empty() {
        (lo, hi) = (0.0, 0.0);
    }
    (lo, hi, hash)
}

/// Quantizes one value `v >= lo` to a level in `0..=255`.
///
/// Levels within `1e-6` of an integer snap deterministically (exact
/// round-trip for representable values, and no RNG draw); everything else
/// rounds stochastically — down with probability `1 − frac`, up with
/// probability `frac` — so the quantizer is unbiased in expectation.
///
/// The level's real-valued position is never negative, so its floor is a
/// truncation and its round-half-away a `frac >= 0.5` compare: the same
/// values `f64::floor`/`f64::round` return, without the two libm calls.
fn q8_quantize(v: f32, lo: f32, step: f64, rng: &mut ChaCha8Rng) -> u8 {
    if step == 0.0 {
        return 0;
    }
    let q_real = (f64::from(v) - f64::from(lo)) / step;
    debug_assert!((0.0..256.0).contains(&q_real), "value below the frame's lo");
    let floor = f64::from(q_real as u32);
    let frac = q_real - floor;
    let nearest = floor + f64::from(frac >= 0.5);
    let q = if (q_real - nearest).abs() < 1e-6 {
        nearest
    } else {
        floor + f64::from(rng.gen::<f64>() < frac)
    };
    q.clamp(0.0, 255.0) as u8
}

/// Writes a qlinear8 payload: the value range, then the gap stream with
/// one level per entry, rounded on the stream keyed by `(seed, message)`.
pub(crate) fn write_qlinear8(seed: u64, dim: usize, entries: &[(usize, f32)], buf: &mut Vec<u8>) {
    let (lo, hi, hash) = q8_survey(dim, entries);
    let step = q8_step(lo, hi);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ hash);
    buf.extend_from_slice(&lo.to_le_bytes());
    buf.extend_from_slice(&hi.to_le_bytes());
    write_gaps(buf, entries, |buf, v| {
        buf.push(q8_quantize(v, lo, step, &mut rng))
    });
}

pub(crate) fn decode_qlinear8(
    frame: &[u8],
    mut pos: usize,
    dim: usize,
    nnz: usize,
    visit: &mut impl FnMut(usize, f32),
) -> Result<(), WireError> {
    let lo = read_f32(frame, &mut pos)?;
    let hi = read_f32(frame, &mut pos)?;
    if !lo.is_finite() || !hi.is_finite() || lo > hi {
        return Err(WireError::InvalidQuantization("qlinear8 bounds"));
    }
    let step = q8_step(lo, hi);
    let level = |_, at: &mut usize| take(frame, at).map(|[q]| q8_value(lo, step, q));
    read_gaps(frame, pos, dim, nnz, level, visit)
}

/// The sign-norm magnitude: `(Σ|vᵢ|)/n` accumulated in `f64` over the
/// sorted entries; every decoded value is `±magnitude`.
fn sign_norm_magnitude(entries: &[(usize, f32)]) -> f32 {
    if entries.is_empty() {
        return 0.0;
    }
    let sum: f64 = entries.iter().map(|&(_, v)| f64::from(v).abs()).sum();
    (sum / entries.len() as f64) as f32
}

/// Writes a sign-norm payload: the magnitude, the sign bits, then the gap
/// stream with no value bytes.
pub(crate) fn write_sign_norm(entries: &[(usize, f32)], buf: &mut Vec<u8>) {
    buf.extend_from_slice(&sign_norm_magnitude(entries).to_le_bytes());
    let signs_start = buf.len();
    buf.resize(signs_start + entries.len().div_ceil(8), 0);
    for (i, &(_, v)) in entries.iter().enumerate() {
        if v.is_sign_negative() {
            buf[signs_start + i / 8] |= 1 << (i % 8);
        }
    }
    write_gaps(buf, entries, |_, _| {});
}

pub(crate) fn decode_sign_norm(
    frame: &[u8],
    mut pos: usize,
    dim: usize,
    nnz: usize,
    visit: &mut impl FnMut(usize, f32),
) -> Result<(), WireError> {
    let magnitude = read_f32(frame, &mut pos)?;
    if !magnitude.is_finite() || magnitude < 0.0 {
        return Err(WireError::InvalidQuantization("sign-norm magnitude"));
    }
    let signs = frame
        .get(pos..pos + nnz.div_ceil(8))
        .ok_or(WireError::Truncated)?;
    if !nnz.is_multiple_of(8) && signs[signs.len() - 1] >> (nnz % 8) != 0 {
        return Err(WireError::InvalidQuantization("sign-norm padding bits"));
    }
    let sign = |i: usize, _: &mut usize| {
        let negative = signs[i / 8] & (1 << (i % 8)) != 0;
        Ok(if negative { -magnitude } else { magnitude })
    };
    read_gaps(frame, pos + signs.len(), dim, nnz, sign, visit)
}

/// A value-precision tier — the second axis of the controllers' 2-D
/// `(k × precision)` action space.
///
/// [`Precision::F32`] is the lossless tier (the smallest-frame
/// [`CodecSpec::Auto`] codec): selecting it reproduces the lossless trajectory
/// exactly, which is the zero-error end of the bytes-vs-accuracy frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Precision {
    /// Lossless `f32` frames ([`CodecSpec::Auto`]).
    F32 = 0,
    /// IEEE binary16 values (f16 frames).
    F16 = 1,
    /// 8-bit linear quantization (qlinear8 frames).
    Q8 = 2,
    /// 1-bit sign + frame norm (sign-norm frames).
    Sign = 3,
}

impl Precision {
    /// Every tier, ordered from most to least precise — also the
    /// deterministic tie-break order (lowest index wins).
    pub const ALL: [Precision; 4] = [
        Precision::F32,
        Precision::F16,
        Precision::Q8,
        Precision::Sign,
    ];

    /// Human-readable tier name.
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F16 => "f16",
            Precision::Q8 => "q8",
            Precision::Sign => "sign",
        }
    }

    /// The codec selector implementing this tier.
    pub fn codec_spec(self) -> CodecSpec {
        match self {
            Precision::F32 => CodecSpec::Auto,
            Precision::F16 => CodecSpec::F16,
            Precision::Q8 => CodecSpec::QLinear8,
            Precision::Sign => CodecSpec::SignNorm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_frame;
    use crate::WireScratch;

    #[test]
    fn f16_conversion_is_exact_on_known_values() {
        for (x, bits) in [
            (0.0f32, 0x0000u16),
            (-0.0, 0x8000),
            (1.0, 0x3C00),
            (-2.0, 0xC000),
            (65504.0, 0x7BFF),
            (0.5, 0x3800),
            (6.1035156e-5, 0x0400), // smallest normal half
            (5.9604645e-8, 0x0001), // smallest subnormal half
            (6.097555e-5, 0x03FF),  // largest subnormal half
            (f32::INFINITY, 0x7C00),
        ] {
            assert_eq!(f32_to_f16_bits(x), bits, "{x}");
            assert_eq!(f16_bits_to_f32(bits).to_bits(), x.to_bits(), "{bits:#06x}");
        }
        assert_eq!(f32_to_f16_bits(f32::NAN) & 0x7C00, 0x7C00);
        assert_ne!(f32_to_f16_bits(f32::NAN) & 0x03FF, 0);
    }

    #[test]
    fn f16_rne_rounds_ties_to_even() {
        // 1.0 + 2^-11 sits exactly between 1.0 (even) and 1.0009766 (odd).
        let tie = f32::from_bits(0x3F80_1000);
        assert_eq!(f32_to_f16_bits(tie), 0x3C00);
        // The next f32 up must round away from 1.0.
        let above = f32::from_bits(0x3F80_1001);
        assert_eq!(f32_to_f16_bits(above), 0x3C01);
        // Overflow by rounding: 65520 is the first value that reaches inf.
        assert_eq!(f32_to_f16_bits(65520.0), 0x7C00);
        assert_eq!(f32_to_f16_bits(65519.996), 0x7BFF);
    }

    #[test]
    fn every_f16_round_trips_bit_exactly_through_f32() {
        for h in 0u16..=u16::MAX {
            let x = f16_bits_to_f32(h);
            if x.is_nan() {
                assert_eq!(f32_to_f16_bits(x) & 0x7C00, 0x7C00);
                continue;
            }
            assert_eq!(f32_to_f16_bits(x), h, "{h:#06x}");
        }
    }

    /// The survey reports the value range and the content hash the spec
    /// derives byte by byte — so `encode_into` keys the stream the spec keys
    /// — on indices either side of where the zero-byte fold applies (2²⁴),
    /// either side of the `u32` range, and beyond.
    #[test]
    fn survey_reports_bounds_and_the_bytewise_content_hash() {
        let edges = [
            0usize,
            1,
            255,
            256,
            (1 << 24) - 1,
            1 << 24,
            (1 << 24) + 1,
            u32::MAX as usize - 1,
            u32::MAX as usize,
            u32::MAX as usize + 1,
            1 << 40,
            (1 << 56) + 5,
            usize::MAX - 1,
        ];
        for (n, &j) in edges.iter().enumerate() {
            // One entry alone, then the sorted prefix of the edges up to it.
            let prefix: Vec<(usize, f32)> =
                edges[..=n].iter().map(|&j| (j, (j as f32).sin())).collect();
            for entries in [vec![(j, -1.5f32)], prefix] {
                for dim in [j + 1, usize::MAX] {
                    let (lo, hi, hash) = q8_survey(dim, &entries);
                    assert_eq!(
                        hash,
                        crate::reference::frame_hash(dim, &entries),
                        "dim {dim}, entries {entries:?}"
                    );
                    let values = entries.iter().map(|e| e.1);
                    assert_eq!(lo, values.clone().fold(f32::INFINITY, f32::min));
                    assert_eq!(hi, values.fold(f32::NEG_INFINITY, f32::max));
                }
            }
        }
        assert_eq!(
            q8_survey(4, &[]),
            (0.0, 0.0, crate::reference::frame_hash(4, &[]))
        );
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn qlinear8_rejects_an_out_of_range_index() {
        let codec = CodecSpec::QLinear8.build_seeded(1);
        codec.encode_into(4, &[(1, 0.5), (4, 1.0)], &mut WireScratch::new());
    }

    #[test]
    #[should_panic(expected = "finite values")]
    fn qlinear8_rejects_a_non_finite_value() {
        let codec = CodecSpec::QLinear8.build_seeded(1);
        codec.encode_into(4, &[(1, 0.5), (2, f32::NAN)], &mut WireScratch::new());
    }

    /// `q8_quantize` as it was written with `f64::round`/`f64::floor`.
    fn q8_quantize_libm(v: f32, lo: f32, step: f64, rng: &mut ChaCha8Rng) -> u8 {
        if step == 0.0 {
            return 0;
        }
        let q_real = (f64::from(v) - f64::from(lo)) / step;
        let nearest = q_real.round();
        let q = if (q_real - nearest).abs() < 1e-6 {
            nearest
        } else {
            let floor = q_real.floor();
            floor + f64::from(rng.gen::<f64>() < q_real - floor)
        };
        q.clamp(0.0, 255.0) as u8
    }

    /// Truncation + compare against the libm form: same level and same
    /// number of RNG draws, on every level's exact position, its halves, a
    /// sweep across the 1e-6 snap boundary on both sides of each, the two
    /// ends of the range, and a degenerate `lo == hi` frame.
    #[test]
    fn integer_quantize_equals_the_libm_form() {
        let mut values = Vec::new();
        for (lo, hi) in [
            (0.0f32, 255.0f32),
            (-3.5, 9.25),
            (1e-3, 1.5e-3),
            (-1e30, 1e30),
        ] {
            let step = q8_step(lo, hi);
            let at = |q: f64| (f64::from(lo) + q * step) as f32;
            for level in 0..=255u32 {
                let q = f64::from(level);
                for offset in [
                    0.0,
                    0.5,
                    -0.5,
                    0.25,
                    0.75,
                    0.999,
                    1e-6,
                    -1e-6,
                    0.9e-6,
                    -0.9e-6,
                    1.1e-6,
                    -1.1e-6,
                    2e-6,
                    -2e-6,
                    0.5 - 1e-7,
                    0.5 + 1e-7,
                ] {
                    values.push((at(q + offset).clamp(lo, hi), lo, step));
                }
            }
            values.push((lo, lo, step));
            values.push((hi, lo, step));
            values.push((f32::from_bits(lo.to_bits() ^ 1).clamp(lo, hi), lo, step));
        }
        values.push((4.0, 4.0, q8_step(4.0, 4.0)));
        let mut fast_rng = ChaCha8Rng::seed_from_u64(11);
        let mut libm_rng = ChaCha8Rng::seed_from_u64(11);
        let mut stochastic = 0;
        for (v, lo, step) in values {
            let before = fast_rng.clone();
            assert_eq!(
                q8_quantize(v, lo, step, &mut fast_rng),
                q8_quantize_libm(v, lo, step, &mut libm_rng),
                "v {v:e}, lo {lo:e}, step {step:e}"
            );
            // Same number of draws on both sides, or the next entry differs.
            assert_eq!(fast_rng, libm_rng, "v {v:e}, lo {lo:e}, step {step:e}");
            stochastic += usize::from(fast_rng != before);
        }
        assert!(
            stochastic > 1000,
            "the grid must reach the stochastic branch"
        );
    }

    #[test]
    fn qlinear8_same_content_encodes_identically() {
        let entries: Vec<(usize, f32)> = (0..40).map(|j| (j * 3, (j as f32).sin())).collect();
        let codec = CodecSpec::QLinear8.build_seeded(7);
        let mut s1 = WireScratch::new();
        let mut s2 = WireScratch::new();
        let a = codec.encode_into(200, &entries, &mut s1).to_vec();
        let b = codec.encode_into(200, &entries, &mut s2).to_vec();
        assert_eq!(a, b);
        // A different seed draws a different stochastic stream.
        let c = CodecSpec::QLinear8
            .build_seeded(8)
            .encode_into(200, &entries, &mut s1)
            .to_vec();
        assert_ne!(a, c);
        assert_eq!(a.len(), c.len(), "seed changes levels, never the length");
    }

    #[test]
    fn qlinear8_reencoding_decoded_values_is_idempotent() {
        let entries: Vec<(usize, f32)> = (0..64).map(|j| (j, (j as f32) * 0.37 - 9.0)).collect();
        let codec = CodecSpec::QLinear8.build_seeded(3);
        let mut scratch = WireScratch::new();
        let frame = codec.encode_into(64, &entries, &mut scratch).to_vec();
        let mut decoded = Vec::new();
        decode_frame(&frame, &mut decoded).unwrap();
        // Decoded values sit exactly on levels, so the snap path encodes
        // them without touching the RNG — bit-identical values come back.
        let frame2 = codec.encode_into(64, &decoded, &mut scratch).to_vec();
        let mut decoded2 = Vec::new();
        decode_frame(&frame2, &mut decoded2).unwrap();
        let bits = |v: &[(usize, f32)]| -> Vec<(usize, u32)> {
            v.iter().map(|&(j, x)| (j, x.to_bits())).collect()
        };
        assert_eq!(bits(&decoded), bits(&decoded2));
    }

    #[test]
    fn sign_norm_padding_bits_are_validated() {
        let entries = vec![(1usize, -1.0f32), (4, 2.0), (9, -3.0)];
        let mut scratch = WireScratch::new();
        let mut frame = CodecSpec::SignNorm
            .build()
            .encode_into(16, &entries, &mut scratch)
            .to_vec();
        let mut out = Vec::new();
        decode_frame(&frame, &mut out).unwrap();
        assert_eq!(out.iter().map(|&(j, _)| j).collect::<Vec<_>>(), [1, 4, 9]);
        assert!(out[0].1 < 0.0 && out[1].1 > 0.0 && out[2].1 < 0.0);
        // Flip a padding bit in the single sign byte (entries use bits 0–2).
        let sign_byte = frame.len() - 3 - 1; // three 1-byte gaps at the tail
        frame[sign_byte] |= 0b1000_0000;
        assert_eq!(
            decode_frame(&frame, &mut out),
            Err(WireError::InvalidQuantization("sign-norm padding bits"))
        );
    }

    #[test]
    fn precision_tiers_map_to_their_codecs() {
        assert_eq!(Precision::F32.codec_spec().name(), "auto");
        assert_eq!(Precision::Q8.codec_spec().name(), "qlinear8");
        assert_eq!(Precision::F16.codec_spec().name(), "f16");
        assert_eq!(Precision::Sign.codec_spec().name(), "sign-norm");
    }
}
