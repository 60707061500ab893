//! The [`Codec`] trait and its lossless implementations.
//!
//! # Frame layout
//!
//! Every codec emits a self-describing frame:
//!
//! ```text
//! byte 0          codec id (CooF32 = 0, DeltaVarint = 1, Bitmap = 2,
//!                 QLinear8 = 3, F16 = 4, SignNorm = 5)
//! varint          dimension D
//! varint          entry count n
//! payload         codec-specific, see below
//! ```
//!
//! Payloads carry entries in **strictly increasing index order** (the
//! [`SparseGradient`] invariant) with `f32` values stored as their raw
//! little-endian bit patterns, so every codec round-trips bit-exactly —
//! including `-0.0`, subnormals and the exact bits of every value. A rank
//! order is not part of the payload: a receiver that needs one (FAB's
//! per-client prefixes) derives it from the decoded values, which is exact
//! because the ranking is a total order of `(value, index)`
//! (`agsfl_sparse::topk`; a byte-priced sender never ranks at all).
//!
//! | codec | payload | bytes (header aside) |
//! |---|---|---|
//! | [`CooF32`] | `n × (u32 index, f32 value)` | `8n` |
//! | [`DeltaVarint`] | `n × (varint index delta, f32 value)` | `4n + Σ varint(Δ)` |
//! | [`Bitmap`] | `⌈D/8⌉`-byte occupancy bitmap, then `n × f32` in index order | `⌈D/8⌉ + 4n` |
//!
//! [`DeltaVarint`] wins at low density (sorted-index gaps are small
//! integers), [`Bitmap`] at high density (`n/D > ~1/32` beats [`CooF32`];
//! no per-entry index cost at all), and [`CooF32`] is the predictable
//! baseline. [`Auto`] computes all three exact sizes per message and emits
//! the smallest frame (ties broken by the lowest codec id), so its choice
//! is a deterministic function of the message alone.
//!
//! The *lossy* tier — [`QLinear8`](crate::QLinear8), [`F16`](crate::F16)
//! and [`SignNorm`](crate::SignNorm) — shares the same header and sorted
//! index invariant but quantizes values; see [`crate::lossy`] for its
//! payload table, determinism story and error-feedback contract. `Auto`
//! deliberately ranges over the lossless codecs only: lossy tiers are a
//! *precision* decision ([`crate::Precision`]) made above the codec layer
//! by the controllers, never silently by a size argmin.

use agsfl_sparse::SparseGradient;
use serde::{Deserialize, Serialize};

use crate::error::WireError;
use crate::scratch::WireScratch;
use crate::varint;

/// On-wire identifier of a concrete encoding (the frame's first byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum CodecId {
    /// 4-byte index + 4-byte value pairs.
    CooF32 = 0,
    /// Sorted-index delta varints + 4-byte values.
    DeltaVarint = 1,
    /// Dense occupancy bitmap + packed 4-byte values.
    Bitmap = 2,
    /// Lossy: 8-bit linear quantization with stochastic rounding.
    QLinear8 = 3,
    /// Lossy: IEEE binary16 values.
    F16 = 4,
    /// Lossy: 1-bit signs + per-frame L1 norm.
    SignNorm = 5,
}

impl CodecId {
    /// All concrete encodings, in id order. The lossless codecs come first
    /// (they are the [`Auto`] tie-break order); the lossy tier follows.
    pub const ALL: [CodecId; 6] = [
        CodecId::CooF32,
        CodecId::DeltaVarint,
        CodecId::Bitmap,
        CodecId::QLinear8,
        CodecId::F16,
        CodecId::SignNorm,
    ];

    /// Human-readable name matching the codec structs.
    pub fn name(self) -> &'static str {
        match self {
            CodecId::CooF32 => "coo-f32",
            CodecId::DeltaVarint => "delta-varint",
            CodecId::Bitmap => "bitmap",
            CodecId::QLinear8 => "qlinear8",
            CodecId::F16 => "f16",
            CodecId::SignNorm => "sign-norm",
        }
    }

    /// Whether frames with this id quantize their values.
    pub fn is_lossy(self) -> bool {
        matches!(self, CodecId::QLinear8 | CodecId::F16 | CodecId::SignNorm)
    }

    fn from_byte(byte: u8) -> Result<Self, WireError> {
        match byte {
            0 => Ok(CodecId::CooF32),
            1 => Ok(CodecId::DeltaVarint),
            2 => Ok(CodecId::Bitmap),
            3 => Ok(CodecId::QLinear8),
            4 => Ok(CodecId::F16),
            5 => Ok(CodecId::SignNorm),
            other => Err(WireError::UnknownCodec(other)),
        }
    }
}

/// A wire encoding of a sparse gradient message (lossless or lossy).
///
/// Implementations are stateless (all per-message scratch lives in the
/// caller-owned [`WireScratch`]), so one codec value can serve every client
/// and the server concurrently. `encode_into` is zero-allocation in steady
/// state: the frame is built in the scratch's grow-only buffer and returned
/// as a borrow. Decoding is codec-independent because frames are
/// self-describing; the trait's [`Codec::decode_into`] simply dispatches on
/// the frame's id byte, writing into a caller-reused entry buffer.
///
/// Entries passed to `encode_into`/`encoded_len` must be sorted by strictly
/// increasing index with every index `< dim` — exactly the
/// [`SparseGradient`] invariant; a byte-priced client selects its uplink
/// message in that order (`agsfl_sparse::topk::top_k_entries_indexed_into`).
pub trait Codec: Send + Sync + std::fmt::Debug {
    /// Human-readable codec name used in reports.
    fn name(&self) -> &'static str;

    /// The concrete encoding this codec would emit for the given message
    /// (constant for the concrete codecs; the size argmin for [`Auto`]).
    fn choose(&self, dim: usize, entries: &[(usize, f32)]) -> CodecId;

    /// Exact frame length in bytes, without encoding.
    fn encoded_len(&self, dim: usize, entries: &[(usize, f32)]) -> usize;

    /// Encodes the message into `scratch`'s frame buffer and returns the
    /// frame. Zero-allocation once the buffer has grown to the message size.
    ///
    /// # Panics
    ///
    /// Panics if an entry index is `>= dim` (debug builds also assert the
    /// strictly-increasing ordering).
    fn encode_into<'a>(
        &self,
        dim: usize,
        entries: &[(usize, f32)],
        scratch: &'a mut WireScratch,
    ) -> &'a [u8];

    /// Decodes a frame into `out` (cleared first), returning the declared
    /// dimension. The entries come out sorted by strictly increasing index
    /// — validated, so they can feed
    /// [`SparseGradient::from_sorted_entries`] directly. Dispatches on the
    /// frame's id byte, so any codec can decode any frame.
    fn decode_into(&self, frame: &[u8], out: &mut Vec<(usize, f32)>) -> Result<usize, WireError> {
        decode_frame(frame, out).map(|(dim, _)| dim)
    }

    /// [`Codec::encode_into`] over a [`SparseGradient`] (whose entries
    /// already satisfy the ordering invariant).
    fn encode_gradient_into<'a>(
        &self,
        gradient: &SparseGradient,
        scratch: &'a mut WireScratch,
    ) -> &'a [u8] {
        self.encode_into(gradient.dim(), gradient.entries(), scratch)
    }

    /// [`Codec::encoded_len`] over a [`SparseGradient`].
    fn encoded_len_gradient(&self, gradient: &SparseGradient) -> usize {
        self.encoded_len(gradient.dim(), gradient.entries())
    }
}

/// Checks the encode contract: every index `< dim` (release) and strictly
/// increasing order (debug), mirroring `SparseGradient::from_sorted_entries`.
pub(crate) fn check_entries(dim: usize, entries: &[(usize, f32)]) {
    assert!(
        entries.iter().all(|&(j, _)| j < dim),
        "wire entry index out of range (dim {dim})"
    );
    debug_assert!(
        entries.windows(2).all(|w| w[0].0 < w[1].0),
        "wire entries must be sorted by strictly increasing index"
    );
}

pub(crate) fn header_len(dim: usize, nnz: usize) -> usize {
    1 + varint::len(dim as u64) + varint::len(nnz as u64)
}

pub(crate) fn write_header(buf: &mut Vec<u8>, id: CodecId, dim: usize, nnz: usize) {
    buf.push(id as u8);
    varint::write(buf, dim as u64);
    varint::write(buf, nnz as u64);
}

/// The codec id of a frame (its first byte).
pub fn frame_codec(frame: &[u8]) -> Result<CodecId, WireError> {
    CodecId::from_byte(*frame.first().ok_or(WireError::Truncated)?)
}

/// Decodes any frame into `out` (cleared first), dispatching on the id
/// byte. Returns the declared dimension and the frame's codec. The decoded
/// entries are validated: strictly increasing indices, all `< dim`, and no
/// trailing bytes.
pub fn decode_frame(
    frame: &[u8],
    out: &mut Vec<(usize, f32)>,
) -> Result<(usize, CodecId), WireError> {
    out.clear();
    decode_frame_with(frame, |j, v| out.push((j, v)))
}

/// Streaming sibling of [`decode_frame`]: decodes any frame and hands every
/// entry to `visit` in strictly increasing index order, without
/// materializing an entry vector. Validation is identical to
/// [`decode_frame`] (in-range sorted indices, exact counts, no trailing
/// bytes); entries already visited when an error surfaces must be
/// discarded by the caller.
///
/// This is the server's frame-to-aggregation fast path: decoded uplink
/// frames stream straight into the selection scratch and the decoded
/// downlink broadcast streams straight into the weight vector, with no
/// intermediate sparse-gradient allocation.
pub fn decode_frame_with(
    frame: &[u8],
    mut visit: impl FnMut(usize, f32),
) -> Result<(usize, CodecId), WireError> {
    let id = frame_codec(frame)?;
    let mut pos = 1usize;
    let dim64 = varint::read(frame, &mut pos)?;
    let nnz64 = varint::read(frame, &mut pos)?;
    let dim = usize::try_from(dim64).map_err(|_| WireError::VarintOverflow)?;
    let nnz = usize::try_from(nnz64).map_err(|_| WireError::VarintOverflow)?;
    match id {
        CodecId::CooF32 => decode_coo(frame, pos, dim, nnz, &mut visit)?,
        CodecId::DeltaVarint => decode_delta(frame, pos, dim, nnz, &mut visit)?,
        CodecId::Bitmap => decode_bitmap(frame, pos, dim, nnz, &mut visit)?,
        CodecId::QLinear8 => crate::lossy::decode_qlinear8(frame, pos, dim, nnz, &mut visit)?,
        CodecId::F16 => crate::lossy::decode_f16(frame, pos, dim, nnz, &mut visit)?,
        CodecId::SignNorm => crate::lossy::decode_sign_norm(frame, pos, dim, nnz, &mut visit)?,
    }
    Ok((dim, id))
}

/// Decodes a frame into an owned [`SparseGradient`].
pub fn decode_gradient(frame: &[u8]) -> Result<SparseGradient, WireError> {
    let mut entries = Vec::new();
    let (dim, _) = decode_frame(frame, &mut entries)?;
    // Safe: decode validated the strictly-increasing, in-range invariant.
    Ok(SparseGradient::from_sorted_entries(dim, entries))
}

pub(crate) fn read_f32(frame: &[u8], pos: &mut usize) -> Result<f32, WireError> {
    let bytes = frame
        .get(*pos..*pos + 4)
        .ok_or(WireError::Truncated)?
        .try_into()
        .expect("4-byte slice");
    *pos += 4;
    Ok(f32::from_le_bytes(bytes))
}

pub(crate) fn finish(frame: &[u8], pos: usize) -> Result<(), WireError> {
    if pos == frame.len() {
        Ok(())
    } else {
        Err(WireError::TrailingBytes)
    }
}

fn decode_coo(
    frame: &[u8],
    mut pos: usize,
    dim: usize,
    nnz: usize,
    visit: &mut impl FnMut(usize, f32),
) -> Result<(), WireError> {
    let mut prev: Option<usize> = None;
    for _ in 0..nnz {
        let idx_bytes = frame
            .get(pos..pos + 4)
            .ok_or(WireError::Truncated)?
            .try_into()
            .expect("4-byte slice");
        pos += 4;
        let j = u32::from_le_bytes(idx_bytes) as usize;
        if j >= dim {
            return Err(WireError::IndexOutOfRange {
                index: j as u64,
                dim: dim as u64,
            });
        }
        if prev.is_some_and(|p| p >= j) {
            return Err(WireError::NotSorted);
        }
        prev = Some(j);
        let v = read_f32(frame, &mut pos)?;
        visit(j, v);
    }
    finish(frame, pos)
}

fn decode_delta(
    frame: &[u8],
    mut pos: usize,
    dim: usize,
    nnz: usize,
    visit: &mut impl FnMut(usize, f32),
) -> Result<(), WireError> {
    let mut next = 0u64; // index of entry i is next + delta_i (delta_0 = j_0)
    for i in 0..nnz {
        let delta = varint::read(frame, &mut pos)?;
        if i > 0 && delta == 0 {
            return Err(WireError::NotSorted);
        }
        let j = next.checked_add(delta).ok_or(WireError::VarintOverflow)?;
        if j >= dim as u64 {
            return Err(WireError::IndexOutOfRange {
                index: j,
                dim: dim as u64,
            });
        }
        let v = read_f32(frame, &mut pos)?;
        visit(j as usize, v);
        next = j;
    }
    finish(frame, pos)
}

fn decode_bitmap(
    frame: &[u8],
    mut pos: usize,
    dim: usize,
    nnz: usize,
    visit: &mut impl FnMut(usize, f32),
) -> Result<(), WireError> {
    let bm_len = dim.div_ceil(8);
    let bitmap = frame.get(pos..pos + bm_len).ok_or(WireError::Truncated)?;
    pos += bm_len;
    let mut count = 0u64;
    for (byte_idx, &byte) in bitmap.iter().enumerate() {
        let mut bits = byte;
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let j = byte_idx * 8 + bit;
            if j >= dim {
                return Err(WireError::IndexOutOfRange {
                    index: j as u64,
                    dim: dim as u64,
                });
            }
            count += 1;
        }
    }
    if count != nnz as u64 {
        return Err(WireError::CountMismatch {
            header: nnz as u64,
            payload: count,
        });
    }
    for (byte_idx, &byte) in bitmap.iter().enumerate() {
        let mut bits = byte;
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let j = byte_idx * 8 + bit;
            let v = read_f32(frame, &mut pos)?;
            visit(j, v);
        }
    }
    finish(frame, pos)
}

/// The baseline coordinate-list encoding: every entry costs a 4-byte
/// little-endian `u32` index plus the 4-byte value bits.
///
/// # Examples
///
/// ```
/// use agsfl_sparse::SparseGradient;
/// use agsfl_wire::{decode_gradient, Codec, CooF32, WireScratch};
///
/// let g = SparseGradient::from_entries(100, vec![(3, 1.5), (97, -0.25)]);
/// let mut scratch = WireScratch::new();
/// let frame = CooF32.encode_gradient_into(&g, &mut scratch).to_vec();
/// assert_eq!(frame.len(), CooF32.encoded_len_gradient(&g));
/// assert_eq!(decode_gradient(&frame).unwrap(), g);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CooF32;

impl Codec for CooF32 {
    fn name(&self) -> &'static str {
        CodecId::CooF32.name()
    }

    fn choose(&self, _dim: usize, _entries: &[(usize, f32)]) -> CodecId {
        CodecId::CooF32
    }

    fn encoded_len(&self, dim: usize, entries: &[(usize, f32)]) -> usize {
        header_len(dim, entries.len()) + 8 * entries.len()
    }

    fn encode_into<'a>(
        &self,
        dim: usize,
        entries: &[(usize, f32)],
        scratch: &'a mut WireScratch,
    ) -> &'a [u8] {
        check_entries(dim, entries);
        assert!(
            dim <= u32::MAX as usize + 1,
            "CooF32 carries u32 indices; dim {dim} too large"
        );
        let buf = scratch.begin();
        write_header(buf, CodecId::CooF32, dim, entries.len());
        for &(j, v) in entries {
            buf.extend_from_slice(&(j as u32).to_le_bytes());
            buf.extend_from_slice(&v.to_le_bytes());
        }
        scratch.frame()
    }
}

/// Sorted-index delta encoding: the first entry's index, then the gap to
/// each following index, as LEB128 varints (enabled by the
/// [`SparseGradient`] sorted-entries invariant), with 4-byte value bits.
/// At realistic sparsity the gaps are small, so most indices cost one or
/// two bytes instead of [`CooF32`]'s four.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaVarint;

impl Codec for DeltaVarint {
    fn name(&self) -> &'static str {
        CodecId::DeltaVarint.name()
    }

    fn choose(&self, _dim: usize, _entries: &[(usize, f32)]) -> CodecId {
        CodecId::DeltaVarint
    }

    fn encoded_len(&self, dim: usize, entries: &[(usize, f32)]) -> usize {
        let mut len = header_len(dim, entries.len()) + 4 * entries.len();
        let mut prev = 0u64;
        for &(j, _) in entries {
            len += varint::len(j as u64 - prev);
            prev = j as u64;
        }
        len
    }

    fn encode_into<'a>(
        &self,
        dim: usize,
        entries: &[(usize, f32)],
        scratch: &'a mut WireScratch,
    ) -> &'a [u8] {
        check_entries(dim, entries);
        let buf = scratch.begin();
        write_header(buf, CodecId::DeltaVarint, dim, entries.len());
        let mut prev = 0u64;
        for &(j, v) in entries {
            varint::write(buf, j as u64 - prev);
            prev = j as u64;
            buf.extend_from_slice(&v.to_le_bytes());
        }
        scratch.frame()
    }
}

/// Dense occupancy bitmap + packed values: `⌈D/8⌉` bitmap bytes followed by
/// the 4-byte value bits in index order. No per-entry index cost at all,
/// which wins once the message is dense enough (`n/D ≳ 1/32` against
/// [`CooF32`]) — e.g. large-`k` rounds or the near-dense downlink of the
/// unidirectional sparsifier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bitmap;

impl Codec for Bitmap {
    fn name(&self) -> &'static str {
        CodecId::Bitmap.name()
    }

    fn choose(&self, _dim: usize, _entries: &[(usize, f32)]) -> CodecId {
        CodecId::Bitmap
    }

    fn encoded_len(&self, dim: usize, entries: &[(usize, f32)]) -> usize {
        header_len(dim, entries.len()) + dim.div_ceil(8) + 4 * entries.len()
    }

    fn encode_into<'a>(
        &self,
        dim: usize,
        entries: &[(usize, f32)],
        scratch: &'a mut WireScratch,
    ) -> &'a [u8] {
        check_entries(dim, entries);
        let buf = scratch.begin();
        write_header(buf, CodecId::Bitmap, dim, entries.len());
        let bm_start = buf.len();
        buf.resize(bm_start + dim.div_ceil(8), 0);
        for &(j, _) in entries {
            buf[bm_start + j / 8] |= 1 << (j % 8);
        }
        for &(_, v) in entries {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        scratch.frame()
    }
}

/// Per-message size-optimal codec: computes the exact frame length of every
/// concrete encoding and emits the smallest (ties broken by the lowest
/// [`CodecId`]), so the choice is a deterministic function of the message.
/// The emitted frame is self-describing — [`frame_codec`] reports which
/// encoding won, which is how the FL layer records per-round codec choices.
///
/// By construction `Auto`'s frame is never larger than [`CooF32`]'s (or any
/// other concrete codec's) for the same message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Auto;

impl Auto {
    fn lens(dim: usize, entries: &[(usize, f32)]) -> [(usize, CodecId); 3] {
        [
            (CooF32.encoded_len(dim, entries), CodecId::CooF32),
            (DeltaVarint.encoded_len(dim, entries), CodecId::DeltaVarint),
            (Bitmap.encoded_len(dim, entries), CodecId::Bitmap),
        ]
    }
}

impl Codec for Auto {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn choose(&self, dim: usize, entries: &[(usize, f32)]) -> CodecId {
        // min_by_key keeps the first minimum, i.e. the lowest codec id.
        Self::lens(dim, entries)
            .into_iter()
            .min_by_key(|&(len, _)| len)
            .expect("three candidates")
            .1
    }

    fn encoded_len(&self, dim: usize, entries: &[(usize, f32)]) -> usize {
        Self::lens(dim, entries)
            .into_iter()
            .map(|(len, _)| len)
            .min()
            .expect("three candidates")
    }

    fn encode_into<'a>(
        &self,
        dim: usize,
        entries: &[(usize, f32)],
        scratch: &'a mut WireScratch,
    ) -> &'a [u8] {
        match self.choose(dim, entries) {
            CodecId::CooF32 => CooF32.encode_into(dim, entries, scratch),
            CodecId::DeltaVarint => DeltaVarint.encode_into(dim, entries, scratch),
            CodecId::Bitmap => Bitmap.encode_into(dim, entries, scratch),
            lossy => unreachable!("Auto ranges over lossless codecs only, chose {lossy:?}"),
        }
    }
}

/// Serializable codec selector for experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CodecSpec {
    /// [`CooF32`].
    Coo,
    /// [`DeltaVarint`].
    DeltaVarint,
    /// [`Bitmap`].
    Bitmap,
    /// [`Auto`] (smallest-per-message, lossless).
    Auto,
    /// [`crate::QLinear8`] (lossy; seeded via [`CodecSpec::build_seeded`]).
    QLinear8,
    /// [`crate::F16`] (lossy).
    F16,
    /// [`crate::SignNorm`] (lossy).
    SignNorm,
}

impl CodecSpec {
    /// Instantiates the codec. Lossy selectors get stochastic-rounding
    /// stream seed 0; runs that own a quantization seed should use
    /// [`CodecSpec::build_seeded`].
    pub fn build(&self) -> Box<dyn Codec> {
        self.build_seeded(0)
    }

    /// Instantiates the codec with the given stochastic-rounding stream
    /// seed (only [`CodecSpec::QLinear8`] consumes it — the other lossy
    /// tiers round deterministically, and the lossless tiers do not round
    /// at all).
    pub fn build_seeded(&self, seed: u64) -> Box<dyn Codec> {
        match self {
            CodecSpec::Coo => Box::new(CooF32),
            CodecSpec::DeltaVarint => Box::new(DeltaVarint),
            CodecSpec::Bitmap => Box::new(Bitmap),
            CodecSpec::Auto => Box::new(Auto),
            CodecSpec::QLinear8 => Box::new(crate::lossy::QLinear8::new(seed)),
            CodecSpec::F16 => Box::new(crate::lossy::F16),
            CodecSpec::SignNorm => Box::new(crate::lossy::SignNorm),
        }
    }

    /// Human-readable name matching [`Codec::name`].
    pub fn name(&self) -> &'static str {
        match self {
            CodecSpec::Coo => CodecId::CooF32.name(),
            CodecSpec::DeltaVarint => CodecId::DeltaVarint.name(),
            CodecSpec::Bitmap => CodecId::Bitmap.name(),
            CodecSpec::Auto => "auto",
            CodecSpec::QLinear8 => CodecId::QLinear8.name(),
            CodecSpec::F16 => CodecId::F16.name(),
            CodecSpec::SignNorm => CodecId::SignNorm.name(),
        }
    }

    /// Whether this selector quantizes values (breaks bit-identity with
    /// the lossless trajectory).
    pub fn is_lossy(&self) -> bool {
        matches!(
            self,
            CodecSpec::QLinear8 | CodecSpec::F16 | CodecSpec::SignNorm
        )
    }

    /// Every *lossless* selector, in a fixed order (used by the codec
    /// sweep figure).
    pub fn all() -> [CodecSpec; 4] {
        [
            CodecSpec::Coo,
            CodecSpec::DeltaVarint,
            CodecSpec::Bitmap,
            CodecSpec::Auto,
        ]
    }

    /// Every lossy selector, in [`CodecId`] order.
    pub fn lossy() -> [CodecSpec; 3] {
        [CodecSpec::QLinear8, CodecSpec::F16, CodecSpec::SignNorm]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codecs() -> [Box<dyn Codec>; 4] {
        [
            Box::new(CooF32),
            Box::new(DeltaVarint),
            Box::new(Bitmap),
            Box::new(Auto),
        ]
    }

    #[test]
    fn every_codec_round_trips_a_small_message() {
        let g = SparseGradient::from_entries(40, vec![(0, 1.0), (7, -0.0), (39, f32::MIN)]);
        let mut scratch = WireScratch::new();
        let mut out = Vec::new();
        for codec in codecs() {
            let frame = codec.encode_gradient_into(&g, &mut scratch).to_vec();
            assert_eq!(frame.len(), codec.encoded_len_gradient(&g), "{codec:?}");
            let dim = codec.decode_into(&frame, &mut out).unwrap();
            assert_eq!(dim, 40);
            // Bit-exact: -0.0 must survive as -0.0.
            let bits: Vec<(usize, u32)> = out.iter().map(|&(j, v)| (j, v.to_bits())).collect();
            let expected: Vec<(usize, u32)> =
                g.entries().iter().map(|&(j, v)| (j, v.to_bits())).collect();
            assert_eq!(bits, expected, "{codec:?}");
        }
    }

    #[test]
    fn empty_message_round_trips() {
        let g = SparseGradient::zeros(17);
        let mut scratch = WireScratch::new();
        for codec in codecs() {
            let frame = codec.encode_gradient_into(&g, &mut scratch).to_vec();
            assert_eq!(decode_gradient(&frame).unwrap(), g, "{codec:?}");
        }
    }

    #[test]
    fn zero_dimension_round_trips() {
        let g = SparseGradient::zeros(0);
        let mut scratch = WireScratch::new();
        for codec in codecs() {
            let frame = codec.encode_gradient_into(&g, &mut scratch).to_vec();
            assert_eq!(decode_gradient(&frame).unwrap(), g, "{codec:?}");
        }
    }

    #[test]
    fn delta_varint_beats_coo_on_dense_clusters() {
        // Adjacent indices: every delta is 1 byte vs CooF32's 4-byte index.
        let entries: Vec<(usize, f32)> = (100..200).map(|j| (j, j as f32)).collect();
        let g = SparseGradient::from_sorted_entries(1_000_000, entries);
        assert!(DeltaVarint.encoded_len_gradient(&g) < CooF32.encoded_len_gradient(&g));
    }

    #[test]
    fn bitmap_wins_at_high_density() {
        let entries: Vec<(usize, f32)> = (0..256).map(|j| (j * 2, 1.0)).collect();
        let g = SparseGradient::from_sorted_entries(512, entries);
        let bitmap = Bitmap.encoded_len_gradient(&g);
        assert!(bitmap < CooF32.encoded_len_gradient(&g));
        assert!(bitmap < DeltaVarint.encoded_len_gradient(&g));
        assert_eq!(Auto.choose(512, g.entries()), CodecId::Bitmap);
    }

    #[test]
    fn auto_is_never_larger_than_any_concrete_codec() {
        let g = SparseGradient::from_entries(1000, (0..50).map(|j| (j * 13, 0.5)).collect());
        let auto = Auto.encoded_len_gradient(&g);
        assert!(auto <= CooF32.encoded_len_gradient(&g));
        assert!(auto <= DeltaVarint.encoded_len_gradient(&g));
        assert!(auto <= Bitmap.encoded_len_gradient(&g));
    }

    #[test]
    fn auto_frame_records_its_choice() {
        let g = SparseGradient::from_entries(1000, (0..50).map(|j| (j * 13, 0.5)).collect());
        let mut scratch = WireScratch::new();
        let frame = Auto.encode_gradient_into(&g, &mut scratch).to_vec();
        assert_eq!(
            frame_codec(&frame).unwrap(),
            Auto.choose(g.dim(), g.entries())
        );
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        let a = SparseGradient::from_entries(100, vec![(1, 1.0), (50, 2.0)]);
        let b = SparseGradient::from_entries(60, vec![(59, -3.0)]);
        let mut scratch = WireScratch::new();
        let frame_a1 = Auto.encode_gradient_into(&a, &mut scratch).to_vec();
        let _ = Auto.encode_gradient_into(&b, &mut scratch);
        let frame_a2 = Auto.encode_gradient_into(&a, &mut scratch).to_vec();
        assert_eq!(frame_a1, frame_a2);
        assert_eq!(scratch.generation(), 3);
    }

    /// A prefix is priced as the frame of its entries in index order: the
    /// top keys of a ranked upload (whichever order its entries are in),
    /// and the leading entries of an unranked one.
    #[test]
    fn prefix_pricing_matches_the_encoded_prefix() {
        use agsfl_sparse::{topk, ClientUpload};

        let ranked = vec![(50usize, -9.0f32), (3, 4.0), (72, 1.0)];
        let mut sorted = ranked.clone();
        sorted.sort_unstable_by_key(|&(j, _)| j);
        let mut scratch = WireScratch::new();
        let mut keys = Vec::new();
        let mut uplink = ranked.clone();
        topk::sort_by_index(&mut uplink, &mut keys);
        let from_ranked = DeltaVarint.encode_into(100, &uplink, &mut scratch).to_vec();
        let from_sorted = DeltaVarint.encode_into(100, &sorted, &mut scratch).to_vec();
        assert_eq!(from_ranked, from_sorted);
        for entries in [ranked.clone(), sorted.clone()] {
            let upload = ClientUpload::new(0, 1.0, entries);
            for len in 0..=3 {
                let mut top = ranked[..len].to_vec();
                top.sort_unstable_by_key(|&(j, _)| j);
                assert_eq!(
                    scratch.encoded_len_prefix(&DeltaVarint, 100, &upload, len, &mut keys),
                    DeltaVarint.encode_into(100, &top, &mut scratch).len()
                );
            }
        }
        let mut unranked = ClientUpload::new(0, 1.0, sorted.clone());
        unranked.ranked.clear();
        assert_eq!(
            scratch.encoded_len_prefix(&DeltaVarint, 100, &unranked, 2, &mut keys),
            DeltaVarint
                .encode_into(100, &sorted[..2], &mut scratch)
                .len()
        );
        // Long enough for the radix passes of `topk::sort_by_index`.
        let long: Vec<(usize, f32)> = (0..3000).map(|i| (i * 7919 % 3001, i as f32)).collect();
        let mut uplink = long.clone();
        topk::sort_by_index(&mut uplink, &mut keys);
        let frame_len = DeltaVarint.encode_into(3001, &uplink, &mut scratch).len();
        let upload = ClientUpload::new(0, 1.0, long);
        assert_eq!(
            scratch.encoded_len_prefix(&DeltaVarint, 3001, &upload, 3000, &mut keys),
            frame_len
        );
    }

    #[test]
    fn malformed_frames_error_not_panic() {
        let g = SparseGradient::from_entries(64, vec![(1, 1.0), (9, 2.0)]);
        let mut scratch = WireScratch::new();
        let mut out = Vec::new();
        for codec in codecs() {
            let frame = codec.encode_gradient_into(&g, &mut scratch).to_vec();
            // Truncations at every length must error, never panic.
            for cut in 0..frame.len() {
                assert!(
                    decode_frame(&frame[..cut], &mut out).is_err(),
                    "{codec:?} cut={cut}"
                );
            }
            // Trailing garbage is rejected.
            let mut long = frame.clone();
            long.push(0);
            assert_eq!(
                decode_frame(&long, &mut out),
                Err(WireError::TrailingBytes),
                "{codec:?}"
            );
        }
        assert_eq!(
            decode_frame(&[9, 1, 0], &mut out),
            Err(WireError::UnknownCodec(9))
        );
    }

    #[test]
    fn coo_rejects_unsorted_and_out_of_range_payloads() {
        let mut frame = Vec::new();
        write_header(&mut frame, CodecId::CooF32, 10, 2);
        for j in [5u32, 3] {
            frame.extend_from_slice(&j.to_le_bytes());
            frame.extend_from_slice(&1.0f32.to_le_bytes());
        }
        let mut out = Vec::new();
        assert_eq!(decode_frame(&frame, &mut out), Err(WireError::NotSorted));

        let mut frame = Vec::new();
        write_header(&mut frame, CodecId::CooF32, 10, 1);
        frame.extend_from_slice(&10u32.to_le_bytes());
        frame.extend_from_slice(&1.0f32.to_le_bytes());
        assert_eq!(
            decode_frame(&frame, &mut out),
            Err(WireError::IndexOutOfRange { index: 10, dim: 10 })
        );
    }

    #[test]
    fn bitmap_rejects_count_mismatch() {
        let g = SparseGradient::from_entries(16, vec![(2, 1.0)]);
        let mut scratch = WireScratch::new();
        let mut frame = Bitmap.encode_gradient_into(&g, &mut scratch).to_vec();
        // Set an extra bit without adding its value.
        let bm_byte = frame.len() - 4 - 2; // one value + two bitmap bytes
        frame[bm_byte] |= 0b1000_0000;
        let mut out = Vec::new();
        assert_eq!(
            decode_frame(&frame, &mut out),
            Err(WireError::CountMismatch {
                header: 1,
                payload: 2
            })
        );
    }

    #[test]
    fn codec_spec_builds_matching_names() {
        for spec in CodecSpec::all() {
            assert_eq!(spec.build().name(), spec.name());
        }
    }

    #[test]
    #[should_panic]
    fn encode_rejects_out_of_range_index() {
        let mut scratch = WireScratch::new();
        let _ = CooF32.encode_into(4, &[(4, 1.0)], &mut scratch);
    }
}
