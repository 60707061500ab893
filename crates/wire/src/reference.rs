//! Straightforward allocating codec implementations — the executable
//! specification the scratch-reusing fast paths are property-tested
//! against, mirroring `agsfl_sparse::reference` and
//! `agsfl_ml::reference`.
//!
//! Every function here allocates its output per call and pushes bytes one
//! at a time; the frames are **byte-identical** to the ones
//! [`crate::Codec::encode_into`] produces (pinned by the equivalence tests
//! in `tests/codec_roundtrip.rs`, and asserted by `bench-report` before it
//! times the fast paths).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::codec::CodecId;
use crate::error::WireError;
use crate::lossy::{f16_bits_to_f32, f32_to_f16_bits, F16_MAX};

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn push_header(out: &mut Vec<u8>, id: CodecId, dim: usize, nnz: usize) {
    out.push(id as u8);
    push_varint(out, dim as u64);
    push_varint(out, nnz as u64);
}

/// Allocating coo-f32 encoder.
pub fn coo_encode(dim: usize, entries: &[(usize, f32)]) -> Vec<u8> {
    let mut out = Vec::new();
    push_header(&mut out, CodecId::CooF32, dim, entries.len());
    for &(j, v) in entries {
        for b in (j as u32).to_le_bytes() {
            out.push(b);
        }
        for b in v.to_le_bytes() {
            out.push(b);
        }
    }
    out
}

/// Allocating delta-varint encoder.
pub fn delta_encode(dim: usize, entries: &[(usize, f32)]) -> Vec<u8> {
    let mut out = Vec::new();
    push_header(&mut out, CodecId::DeltaVarint, dim, entries.len());
    let mut prev = 0u64;
    for &(j, v) in entries {
        push_varint(&mut out, j as u64 - prev);
        prev = j as u64;
        for b in v.to_le_bytes() {
            out.push(b);
        }
    }
    out
}

/// Allocating bitmap encoder.
pub fn bitmap_encode(dim: usize, entries: &[(usize, f32)]) -> Vec<u8> {
    let mut out = Vec::new();
    push_header(&mut out, CodecId::Bitmap, dim, entries.len());
    let mut bitmap = vec![0u8; dim.div_ceil(8)];
    for &(j, _) in entries {
        bitmap[j / 8] |= 1 << (j % 8);
    }
    out.extend_from_slice(&bitmap);
    for &(_, v) in entries {
        for b in v.to_le_bytes() {
            out.push(b);
        }
    }
    out
}

/// What every lossy encoder sends for a message holding a NaN or ±inf,
/// which no lossy header or level can carry: the shortest of the three
/// lossless frames, ties to the lowest id. `None` for a finite message.
fn lossless_fallback(dim: usize, entries: &[(usize, f32)]) -> Option<Vec<u8>> {
    if entries.iter().all(|&(_, v)| v.is_finite()) {
        return None;
    }
    [
        coo_encode(dim, entries),
        delta_encode(dim, entries),
        bitmap_encode(dim, entries),
    ]
    .into_iter()
    .min_by_key(Vec::len)
}

/// The key of a qlinear8 frame's stochastic-rounding stream:
/// FNV-1a, one byte at a time, over the message serialized as `dim` then
/// every `(index, value bits)`, each index a little-endian `u64`. Derived
/// independently of the fast path, which folds the index's zero bytes.
pub fn frame_hash(dim: usize, entries: &[(usize, f32)]) -> u64 {
    let mut message: Vec<u8> = (dim as u64).to_le_bytes().to_vec();
    for &(j, v) in entries {
        message.extend_from_slice(&(j as u64).to_le_bytes());
        message.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in message {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Allocating qlinear8 encoder. The content-keyed FNV-1a
/// stream derivation and the snap-vs-stochastic rounding rule are part of
/// the frame format spec, so both are re-derived here from scratch; the
/// frames are byte-identical to the fast path's for every `(seed,
/// message)` pair. A message holding a NaN or ±inf goes out losslessly.
pub fn qlinear8_encode(seed: u64, dim: usize, entries: &[(usize, f32)]) -> Vec<u8> {
    if let Some(frame) = lossless_fallback(dim, entries) {
        return frame;
    }
    let mut out = Vec::new();
    push_header(&mut out, CodecId::QLinear8, dim, entries.len());
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &(_, v) in entries {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if entries.is_empty() {
        lo = 0.0;
        hi = 0.0;
    }
    for b in lo.to_le_bytes() {
        out.push(b);
    }
    for b in hi.to_le_bytes() {
        out.push(b);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ frame_hash(dim, entries));
    let step = (f64::from(hi) - f64::from(lo)) / 255.0;
    let mut prev = 0u64;
    for &(j, v) in entries {
        push_varint(&mut out, j as u64 - prev);
        prev = j as u64;
        let q = if step == 0.0 {
            0.0
        } else {
            let q_real = (f64::from(v) - f64::from(lo)) / step;
            let nearest = q_real.round();
            if (q_real - nearest).abs() < 1e-6 {
                nearest
            } else {
                q_real.floor() + f64::from(rng.gen::<f64>() < q_real - q_real.floor())
            }
        };
        out.push(q.clamp(0.0, 255.0) as u8);
    }
    out
}

/// Allocating f16 encoder; a message holding a NaN or ±inf goes out
/// losslessly.
pub fn f16_encode(dim: usize, entries: &[(usize, f32)]) -> Vec<u8> {
    if let Some(frame) = lossless_fallback(dim, entries) {
        return frame;
    }
    let mut out = Vec::new();
    push_header(&mut out, CodecId::F16, dim, entries.len());
    let mut prev = 0u64;
    for &(j, v) in entries {
        push_varint(&mut out, j as u64 - prev);
        prev = j as u64;
        for b in f32_to_f16_bits(v.clamp(-F16_MAX, F16_MAX)).to_le_bytes() {
            out.push(b);
        }
    }
    out
}

/// Allocating sign-norm encoder; a message holding a NaN or ±inf goes out
/// losslessly.
pub fn sign_norm_encode(dim: usize, entries: &[(usize, f32)]) -> Vec<u8> {
    if let Some(frame) = lossless_fallback(dim, entries) {
        return frame;
    }
    let mut out = Vec::new();
    push_header(&mut out, CodecId::SignNorm, dim, entries.len());
    let magnitude = if entries.is_empty() {
        0.0f32
    } else {
        let sum: f64 = entries.iter().map(|&(_, v)| f64::from(v).abs()).sum();
        (sum / entries.len() as f64) as f32
    };
    for b in magnitude.to_le_bytes() {
        out.push(b);
    }
    let mut signs = vec![0u8; entries.len().div_ceil(8)];
    for (i, &(_, v)) in entries.iter().enumerate() {
        if v.is_sign_negative() {
            signs[i / 8] |= 1 << (i % 8);
        }
    }
    out.extend_from_slice(&signs);
    let mut prev = 0u64;
    for &(j, _) in entries {
        push_varint(&mut out, j as u64 - prev);
        prev = j as u64;
    }
    out
}

/// Allocating seed-style decoder, implemented independently of the fast
/// path: the header and payload are parsed into intermediate index/value
/// vectors that are zipped into a fresh entry vector at the end — the
/// staged-buffers shape a first-version deserializer naturally takes
/// (compare the serde-ndim "shape plus flat data" idiom). For every valid
/// frame it returns exactly what [`crate::decode_frame`] decodes; error
/// reporting on malformed frames is coarser (any malformation is an
/// error, but not necessarily the same [`WireError`] variant).
pub fn decode(frame: &[u8]) -> Result<(usize, Vec<(usize, f32)>), WireError> {
    fn read_varint(frame: &[u8], pos: &mut usize) -> Result<u64, WireError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let &byte = frame.get(*pos).ok_or(WireError::Truncated)?;
            *pos += 1;
            if shift >= 64 {
                return Err(WireError::VarintOverflow);
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    let &id = frame.first().ok_or(WireError::Truncated)?;
    let mut pos = 1usize;
    let dim = read_varint(frame, &mut pos)? as usize;
    let nnz = read_varint(frame, &mut pos)? as usize;

    // Stage 1: parse indices and values into separate buffers.
    let mut indices: Vec<usize> = Vec::new();
    let mut values: Vec<f32> = Vec::new();
    let read_value = |frame: &[u8], pos: &mut usize| -> Result<f32, WireError> {
        let bytes: [u8; 4] = frame
            .get(*pos..*pos + 4)
            .ok_or(WireError::Truncated)?
            .try_into()
            .expect("4-byte slice");
        *pos += 4;
        Ok(f32::from_le_bytes(bytes))
    };
    match id {
        0 => {
            for _ in 0..nnz {
                let bytes: [u8; 4] = frame
                    .get(pos..pos + 4)
                    .ok_or(WireError::Truncated)?
                    .try_into()
                    .expect("4-byte slice");
                pos += 4;
                indices.push(u32::from_le_bytes(bytes) as usize);
                values.push(read_value(frame, &mut pos)?);
            }
        }
        1 => {
            let mut prev = 0u64;
            for i in 0..nnz {
                let delta = read_varint(frame, &mut pos)?;
                if i > 0 && delta == 0 {
                    return Err(WireError::NotSorted);
                }
                prev = prev.checked_add(delta).ok_or(WireError::VarintOverflow)?;
                indices.push(prev as usize);
                values.push(read_value(frame, &mut pos)?);
            }
        }
        2 => {
            let bm_len = dim.div_ceil(8);
            let bitmap = frame.get(pos..pos + bm_len).ok_or(WireError::Truncated)?;
            pos += bm_len;
            for (byte_idx, &byte) in bitmap.iter().enumerate() {
                for bit in 0..8 {
                    if byte & (1 << bit) != 0 {
                        indices.push(byte_idx * 8 + bit);
                    }
                }
            }
            if indices.len() != nnz {
                return Err(WireError::CountMismatch {
                    header: nnz as u64,
                    payload: indices.len() as u64,
                });
            }
            for _ in 0..nnz {
                values.push(read_value(frame, &mut pos)?);
            }
        }
        3 => {
            let lo = read_value(frame, &mut pos)?;
            let hi = read_value(frame, &mut pos)?;
            if !lo.is_finite() || !hi.is_finite() || lo > hi {
                return Err(WireError::InvalidQuantization("qlinear8 bounds"));
            }
            let step = (f64::from(hi) - f64::from(lo)) / 255.0;
            let mut prev = 0u64;
            for i in 0..nnz {
                let delta = read_varint(frame, &mut pos)?;
                if i > 0 && delta == 0 {
                    return Err(WireError::NotSorted);
                }
                prev = prev.checked_add(delta).ok_or(WireError::VarintOverflow)?;
                indices.push(prev as usize);
                let &q = frame.get(pos).ok_or(WireError::Truncated)?;
                pos += 1;
                values.push((f64::from(lo) + f64::from(q) * step) as f32);
            }
        }
        4 => {
            let mut prev = 0u64;
            for i in 0..nnz {
                let delta = read_varint(frame, &mut pos)?;
                if i > 0 && delta == 0 {
                    return Err(WireError::NotSorted);
                }
                prev = prev.checked_add(delta).ok_or(WireError::VarintOverflow)?;
                indices.push(prev as usize);
                let bytes: [u8; 2] = frame
                    .get(pos..pos + 2)
                    .ok_or(WireError::Truncated)?
                    .try_into()
                    .expect("2-byte slice");
                pos += 2;
                values.push(f16_bits_to_f32(u16::from_le_bytes(bytes)));
            }
        }
        5 => {
            let magnitude = read_value(frame, &mut pos)?;
            if !magnitude.is_finite() || magnitude < 0.0 {
                return Err(WireError::InvalidQuantization("sign-norm magnitude"));
            }
            let signs_len = nnz.div_ceil(8);
            let signs = frame
                .get(pos..pos + signs_len)
                .ok_or(WireError::Truncated)?
                .to_vec();
            pos += signs_len;
            if !nnz.is_multiple_of(8) && signs[signs_len - 1] >> (nnz % 8) != 0 {
                return Err(WireError::InvalidQuantization("sign-norm padding bits"));
            }
            let mut prev = 0u64;
            for i in 0..nnz {
                let delta = read_varint(frame, &mut pos)?;
                if i > 0 && delta == 0 {
                    return Err(WireError::NotSorted);
                }
                prev = prev.checked_add(delta).ok_or(WireError::VarintOverflow)?;
                indices.push(prev as usize);
                let negative = signs[i / 8] & (1 << (i % 8)) != 0;
                values.push(if negative { -magnitude } else { magnitude });
            }
        }
        other => return Err(WireError::UnknownCodec(other)),
    }
    if pos != frame.len() {
        return Err(WireError::TrailingBytes);
    }
    for (i, &j) in indices.iter().enumerate() {
        if j >= dim {
            return Err(WireError::IndexOutOfRange {
                index: j as u64,
                dim: dim as u64,
            });
        }
        if i > 0 && indices[i - 1] >= j {
            return Err(WireError::NotSorted);
        }
    }

    // Stage 2: zip the staged buffers into the entry list.
    let entries = indices.into_iter().zip(values).collect();
    Ok((dim, entries))
}
