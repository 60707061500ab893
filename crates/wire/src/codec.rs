//! The [`Codec`] value, the lossless frame formats, and the one decoder
//! every frame goes through.
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
//! payload         format-specific, see below
//! ```
//!
//! Payloads carry entries in **strictly increasing index order** (the
//! `SparseGradient` invariant) with `f32` values stored as their raw
//! little-endian bit patterns, so every lossless format round-trips
//! bit-exactly — including `-0.0`, subnormals and the exact bits of every
//! value. A rank order is not part of the payload: a receiver that needs one
//! (FAB's per-client prefixes) derives it from the decoded values, which is
//! exact because the ranking is a total order of `(value, index)`
//! (`agsfl_sparse::topk`; a byte-priced sender never ranks at all).
//!
//! | format | payload | bytes (header aside) |
//! |---|---|---|
//! | coo-f32 ([`CodecId::CooF32`]) | `n × (u32 index, f32 value)` | `8n` |
//! | delta-varint ([`CodecId::DeltaVarint`]) | `n × (varint index gap, f32 value)` | `4n + Σ varint(Δ)` |
//! | bitmap ([`CodecId::Bitmap`]) | `⌈D/8⌉`-byte occupancy bitmap, then `n × f32` in index order | `⌈D/8⌉ + 4n` |
//!
//! delta-varint wins at low density (sorted-index gaps are small integers),
//! bitmap at high density (`n/D > ~1/32` beats coo-f32; no per-entry index
//! cost at all), and coo-f32 is the predictable baseline.
//! [`CodecSpec::Auto`] computes all three exact sizes per message and emits
//! the smallest frame (ties broken by the lowest codec id), so its choice is
//! a deterministic function of the message alone; the frame records which
//! format won ([`frame_codec`]), which is how the FL layer records per-round
//! codec choices.
//!
//! The *lossy* tier — qlinear8, f16 and sign-norm — shares the same header
//! and carries its indices as the same gap stream as delta-varint, but
//! quantizes values; see [`crate::lossy`] for its payload table,
//! determinism story and error-feedback contract. `Auto` deliberately ranges
//! over the lossless formats only: lossy tiers are a *precision* decision
//! ([`crate::Precision`]) made above the codec layer by the controllers,
//! never silently by a size argmin.

use serde::{Deserialize, Serialize};

use crate::error::WireError;
use crate::lossy::{self, f16_bits_to_f32, f32_to_f16_bits, F16_MAX};
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
    /// All concrete encodings, in id order. The lossless formats come first
    /// (they are [`CodecSpec::Auto`]'s tie-break order); the lossy tier
    /// follows.
    pub const ALL: [CodecId; 6] = [
        CodecId::CooF32,
        CodecId::DeltaVarint,
        CodecId::Bitmap,
        CodecId::QLinear8,
        CodecId::F16,
        CodecId::SignNorm,
    ];

    /// Human-readable format name, as reports print it.
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

/// Serializable codec selector for experiment configs: one frame format,
/// or [`CodecSpec::Auto`]. [`CodecSpec::build_seeded`] turns it into the
/// [`Codec`] that encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CodecSpec {
    /// coo-f32 frames.
    Coo,
    /// delta-varint frames.
    DeltaVarint,
    /// bitmap frames.
    Bitmap,
    /// The smallest lossless frame of each message.
    Auto,
    /// qlinear8 frames (lossy; seeded via [`CodecSpec::build_seeded`]).
    QLinear8,
    /// f16 frames (lossy).
    F16,
    /// sign-norm frames (lossy).
    SignNorm,
}

impl CodecSpec {
    /// The codec with stochastic-rounding stream seed 0; runs that own a
    /// quantization seed should use [`CodecSpec::build_seeded`].
    pub fn build(&self) -> Codec {
        self.build_seeded(0)
    }

    /// The codec with the given stochastic-rounding stream seed (only
    /// qlinear8 frames consume it — the other lossy tiers round
    /// deterministically, and the lossless tiers do not round at all).
    pub fn build_seeded(&self, seed: u64) -> Codec {
        Codec { spec: *self, seed }
    }

    /// The one format this selector writes; `None` for [`CodecSpec::Auto`],
    /// which picks per message.
    fn id(self) -> Option<CodecId> {
        Some(match self {
            CodecSpec::Coo => CodecId::CooF32,
            CodecSpec::DeltaVarint => CodecId::DeltaVarint,
            CodecSpec::Bitmap => CodecId::Bitmap,
            CodecSpec::Auto => return None,
            CodecSpec::QLinear8 => CodecId::QLinear8,
            CodecSpec::F16 => CodecId::F16,
            CodecSpec::SignNorm => CodecId::SignNorm,
        })
    }

    /// Human-readable name matching [`Codec::name`].
    pub fn name(&self) -> &'static str {
        self.id().map_or("auto", CodecId::name)
    }

    /// Whether this selector quantizes values (breaks bit-identity with
    /// the lossless trajectory).
    pub fn is_lossy(&self) -> bool {
        self.id().is_some_and(CodecId::is_lossy)
    }

    /// Every *lossless* selector, in a fixed order.
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

/// A wire encoding of sparse gradient messages (lossless or lossy): a
/// [`CodecSpec`] with the seed of its stochastic-rounding stream, built by
/// [`CodecSpec::build_seeded`].
///
/// A codec is a plain `Copy` value with no state (all per-message scratch
/// lives in the caller-owned [`WireScratch`]), so one codec can serve every
/// client and the server concurrently. `encode_into` is zero-allocation in
/// steady state: the frame is built in the scratch's grow-only buffer and
/// returned as a borrow. Decoding is codec-independent because frames are
/// self-describing; [`Codec::decode_into`] is [`decode_frame`].
///
/// Entries passed to `encode_into`/`encoded_len` must be sorted by strictly
/// increasing index with every index `< dim` — exactly the `SparseGradient`
/// invariant; a byte-priced client selects its uplink message in that order
/// (`agsfl_sparse::topk::top_k_entries_indexed_into`).
///
/// # Examples
///
/// ```
/// use agsfl_wire::{decode_frame, CodecSpec, WireScratch};
///
/// let entries = [(3, 1.5), (97, -0.25)];
/// let coo = CodecSpec::Coo.build();
/// let mut scratch = WireScratch::new();
/// let frame = coo.encode_into(100, &entries, &mut scratch).to_vec();
/// assert_eq!(frame.len(), coo.encoded_len(100, &entries));
/// let mut decoded = Vec::new();
/// assert_eq!(decode_frame(&frame, &mut decoded).unwrap().0, 100);
/// assert_eq!(decoded, entries);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Codec {
    spec: CodecSpec,
    seed: u64,
}

impl Codec {
    /// Human-readable codec name used in reports.
    pub fn name(self) -> &'static str {
        self.spec.name()
    }

    /// The format this codec emits for the given message: its spec's own,
    /// or for [`CodecSpec::Auto`] the size argmin over the lossless ones.
    pub fn choose(self, dim: usize, entries: &[(usize, f32)]) -> CodecId {
        self.spec
            .id()
            .unwrap_or_else(|| smallest_lossless(dim, entries).1)
    }

    /// Exact frame length in bytes, without encoding.
    pub fn encoded_len(self, dim: usize, entries: &[(usize, f32)]) -> usize {
        match self.spec.id() {
            Some(id) => frame_len(id, dim, entries),
            None => smallest_lossless(dim, entries).0,
        }
    }

    /// Encodes the message into `scratch`'s frame buffer and returns the
    /// frame. Zero-allocation once the buffer has grown to the message size.
    ///
    /// # Panics
    ///
    /// Panics if an entry index is `>= dim`, or if a lossy format meets a
    /// non-finite value (debug builds also assert the strictly-increasing
    /// ordering).
    pub fn encode_into<'a>(
        self,
        dim: usize,
        entries: &[(usize, f32)],
        scratch: &'a mut WireScratch,
    ) -> &'a [u8] {
        let id = self.choose(dim, entries);
        let buf = scratch.begin();
        write_header(buf, id, dim, entries.len());
        write_payload(id, self.seed, dim, entries, buf);
        scratch.frame()
    }

    /// Decodes a frame into `out` (cleared first), returning the declared
    /// dimension — [`decode_frame`], which any codec's frame goes through.
    pub fn decode_into(
        self,
        frame: &[u8],
        out: &mut Vec<(usize, f32)>,
    ) -> Result<usize, WireError> {
        decode_frame(frame, out).map(|(dim, _)| dim)
    }
}

/// The smallest lossless frame of a message as `(length, format)`; ties go
/// to the lowest id (`min_by_key` keeps the first minimum).
fn smallest_lossless(dim: usize, entries: &[(usize, f32)]) -> (usize, CodecId) {
    CodecId::ALL
        .into_iter()
        .filter(|id| !id.is_lossy())
        .map(|id| (frame_len(id, dim, entries), id))
        .min_by_key(|&(len, _)| len)
        .expect("three lossless formats")
}

/// Exact length of the `id` frame of a message, header included.
fn frame_len(id: CodecId, dim: usize, entries: &[(usize, f32)]) -> usize {
    let n = entries.len();
    header_len(dim, n)
        + match id {
            CodecId::CooF32 => 8 * n,
            CodecId::DeltaVarint => 4 * n + gaps_len(entries),
            CodecId::Bitmap => dim.div_ceil(8) + 4 * n,
            CodecId::QLinear8 => 8 + n + gaps_len(entries),
            CodecId::F16 => 2 * n + gaps_len(entries),
            CodecId::SignNorm => 4 + n.div_ceil(8) + gaps_len(entries),
        }
}

/// Writes the payload of the `id` frame of a message after its header,
/// first checking the encode contract: every index `< dim` (debug builds:
/// strictly increasing, mirroring `SparseGradient::from_sorted_entries`)
/// and, for a lossy format, every value finite — a lossy frame's header
/// fields must be finite for the decoder to accept them.
fn write_payload(id: CodecId, seed: u64, dim: usize, entries: &[(usize, f32)], buf: &mut Vec<u8>) {
    // qlinear8's survey checks the contract in the sweep it makes anyway.
    if id != CodecId::QLinear8 {
        assert!(
            entries.iter().all(|&(j, _)| j < dim),
            "wire entry index out of range (dim {dim})"
        );
        assert!(
            !id.is_lossy() || entries.iter().all(|&(_, v)| v.is_finite()),
            "lossy codecs require finite values"
        );
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "wire entries must be sorted by strictly increasing index"
        );
    }
    match id {
        CodecId::CooF32 => {
            assert!(
                dim <= u32::MAX as usize + 1,
                "coo-f32 carries u32 indices; dim {dim} too large"
            );
            for &(j, v) in entries {
                buf.extend_from_slice(&(j as u32).to_le_bytes());
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        CodecId::DeltaVarint => write_gaps(buf, entries, |buf, v| {
            buf.extend_from_slice(&v.to_le_bytes())
        }),
        CodecId::Bitmap => {
            let start = buf.len();
            buf.resize(start + dim.div_ceil(8), 0);
            for &(j, _) in entries {
                buf[start + j / 8] |= 1 << (j % 8);
            }
            for &(_, v) in entries {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        CodecId::QLinear8 => lossy::write_qlinear8(seed, dim, entries, buf),
        CodecId::F16 => write_gaps(buf, entries, |buf, v| {
            let half = f32_to_f16_bits(v.clamp(-F16_MAX, F16_MAX));
            buf.extend_from_slice(&half.to_le_bytes());
        }),
        CodecId::SignNorm => lossy::write_sign_norm(entries, buf),
    }
}

fn header_len(dim: usize, nnz: usize) -> usize {
    1 + varint::len(dim as u64) + varint::len(nnz as u64)
}

fn write_header(buf: &mut Vec<u8>, id: CodecId, dim: usize, nnz: usize) {
    buf.push(id as u8);
    varint::write(buf, dim as u64);
    varint::write(buf, nnz as u64);
}

/// Byte length of the gap stream [`write_gaps`] writes for `entries`, the
/// values aside.
fn gaps_len(entries: &[(usize, f32)]) -> usize {
    let mut len = 0usize;
    let mut prev = 0u64;
    for &(j, _) in entries {
        len += varint::len(j as u64 - prev);
        prev = j as u64;
    }
    len
}

/// Writes the sorted-index gap stream every format but coo-f32 and bitmap
/// carries: the first entry's index, then the gap to each following index,
/// as LEB128 varints, each followed by whatever `value` appends for the
/// entry's value (nothing, for sign-norm).
pub(crate) fn write_gaps(
    buf: &mut Vec<u8>,
    entries: &[(usize, f32)],
    mut value: impl FnMut(&mut Vec<u8>, f32),
) {
    let mut prev = 0u64;
    for &(j, v) in entries {
        varint::write(buf, j as u64 - prev);
        prev = j as u64;
        value(buf, v);
    }
}

/// Reads the gap stream [`write_gaps`] writes — `nnz` entries from `pos`,
/// which must end the frame — and hands each entry to `visit`. Every index
/// is validated (no `u64` overflow, strictly increasing, `< dim`) before
/// `value(i, &mut pos)` reads entry `i`'s value bytes.
pub(crate) fn read_gaps(
    frame: &[u8],
    mut pos: usize,
    dim: usize,
    nnz: usize,
    mut value: impl FnMut(usize, &mut usize) -> Result<f32, WireError>,
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
        visit(j as usize, value(i, &mut pos)?);
        next = j;
    }
    finish(frame, pos)
}

/// The codec id of a frame (its first byte).
pub fn frame_codec(frame: &[u8]) -> Result<CodecId, WireError> {
    CodecId::from_byte(*frame.first().ok_or(WireError::Truncated)?)
}

/// Decodes any frame into `out` (cleared first), dispatching on the id
/// byte. Returns the declared dimension and the frame's codec. The decoded
/// entries are validated: strictly increasing indices, all `< dim`, and no
/// trailing bytes — so they can feed `SparseGradient::from_sorted_entries`
/// directly.
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
    let visit = &mut visit;
    match id {
        CodecId::CooF32 => decode_coo(frame, pos, dim, nnz, visit),
        CodecId::DeltaVarint => read_gaps(frame, pos, dim, nnz, |_, at| read_f32(frame, at), visit),
        CodecId::Bitmap => decode_bitmap(frame, pos, dim, nnz, visit),
        CodecId::QLinear8 => lossy::decode_qlinear8(frame, pos, dim, nnz, visit),
        CodecId::F16 => read_gaps(
            frame,
            pos,
            dim,
            nnz,
            |_, at| take(frame, at).map(|b| f16_bits_to_f32(u16::from_le_bytes(b))),
            visit,
        ),
        CodecId::SignNorm => lossy::decode_sign_norm(frame, pos, dim, nnz, visit),
    }?;
    Ok((dim, id))
}

/// The `N` bytes of `frame` at `*pos`, advancing `*pos` past them.
pub(crate) fn take<const N: usize>(frame: &[u8], pos: &mut usize) -> Result<[u8; N], WireError> {
    let bytes = frame.get(*pos..*pos + N).ok_or(WireError::Truncated)?;
    *pos += N;
    Ok(bytes.try_into().expect("N-byte slice"))
}

pub(crate) fn read_f32(frame: &[u8], pos: &mut usize) -> Result<f32, WireError> {
    take(frame, pos).map(f32::from_le_bytes)
}

fn finish(frame: &[u8], pos: usize) -> Result<(), WireError> {
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
        let j = u32::from_le_bytes(take(frame, &mut pos)?) as usize;
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

#[cfg(test)]
mod tests {
    use super::*;
    use agsfl_sparse::SparseGradient;

    fn codecs() -> [Codec; 4] {
        CodecSpec::all().map(|spec| spec.build())
    }

    fn len(spec: CodecSpec, g: &SparseGradient) -> usize {
        spec.build().encoded_len(g.dim(), g.entries())
    }

    fn encode(codec: Codec, g: &SparseGradient, scratch: &mut WireScratch) -> Vec<u8> {
        codec.encode_into(g.dim(), g.entries(), scratch).to_vec()
    }

    fn decoded(frame: &[u8]) -> SparseGradient {
        let mut entries = Vec::new();
        let (dim, _) = decode_frame(frame, &mut entries).unwrap();
        SparseGradient::from_sorted_entries(dim, entries)
    }

    #[test]
    fn every_codec_round_trips_a_small_message() {
        let g = SparseGradient::from_entries(40, vec![(0, 1.0), (7, -0.0), (39, f32::MIN)]);
        let mut scratch = WireScratch::new();
        let mut out = Vec::new();
        for codec in codecs() {
            let frame = encode(codec, &g, &mut scratch);
            assert_eq!(
                frame.len(),
                codec.encoded_len(g.dim(), g.entries()),
                "{codec:?}"
            );
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
            assert_eq!(decoded(&encode(codec, &g, &mut scratch)), g, "{codec:?}");
        }
    }

    #[test]
    fn zero_dimension_round_trips() {
        let g = SparseGradient::zeros(0);
        let mut scratch = WireScratch::new();
        for codec in codecs() {
            assert_eq!(decoded(&encode(codec, &g, &mut scratch)), g, "{codec:?}");
        }
    }

    #[test]
    fn delta_varint_beats_coo_on_dense_clusters() {
        // Adjacent indices: every delta is 1 byte vs coo-f32's 4-byte index.
        let entries: Vec<(usize, f32)> = (100..200).map(|j| (j, j as f32)).collect();
        let g = SparseGradient::from_sorted_entries(1_000_000, entries);
        assert!(len(CodecSpec::DeltaVarint, &g) < len(CodecSpec::Coo, &g));
    }

    #[test]
    fn bitmap_wins_at_high_density() {
        let entries: Vec<(usize, f32)> = (0..256).map(|j| (j * 2, 1.0)).collect();
        let g = SparseGradient::from_sorted_entries(512, entries);
        let bitmap = len(CodecSpec::Bitmap, &g);
        assert!(bitmap < len(CodecSpec::Coo, &g));
        assert!(bitmap < len(CodecSpec::DeltaVarint, &g));
        assert_eq!(
            CodecSpec::Auto.build().choose(512, g.entries()),
            CodecId::Bitmap
        );
    }

    #[test]
    fn auto_is_never_larger_than_any_concrete_codec() {
        let g = SparseGradient::from_entries(1000, (0..50).map(|j| (j * 13, 0.5)).collect());
        let auto = len(CodecSpec::Auto, &g);
        assert!(auto <= len(CodecSpec::Coo, &g));
        assert!(auto <= len(CodecSpec::DeltaVarint, &g));
        assert!(auto <= len(CodecSpec::Bitmap, &g));
    }

    #[test]
    fn auto_frame_records_its_choice() {
        let g = SparseGradient::from_entries(1000, (0..50).map(|j| (j * 13, 0.5)).collect());
        let auto = CodecSpec::Auto.build();
        let frame = encode(auto, &g, &mut WireScratch::new());
        assert_eq!(
            frame_codec(&frame).unwrap(),
            auto.choose(g.dim(), g.entries())
        );
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        let a = SparseGradient::from_entries(100, vec![(1, 1.0), (50, 2.0)]);
        let b = SparseGradient::from_entries(60, vec![(59, -3.0)]);
        let auto = CodecSpec::Auto.build();
        let mut scratch = WireScratch::new();
        let frame_a1 = encode(auto, &a, &mut scratch);
        let _ = encode(auto, &b, &mut scratch);
        let frame_a2 = encode(auto, &a, &mut scratch);
        assert_eq!(frame_a1, frame_a2);
        assert_eq!(scratch.generation(), 3);
    }

    /// A prefix is priced as the frame of its entries in index order: the
    /// top keys of a ranked upload (whichever order its entries are in),
    /// and the leading entries of an unranked one.
    #[test]
    fn prefix_pricing_matches_the_encoded_prefix() {
        use agsfl_sparse::{topk, ClientUpload};

        let delta = CodecSpec::DeltaVarint.build();
        let ranked = vec![(50usize, -9.0f32), (3, 4.0), (72, 1.0)];
        let mut sorted = ranked.clone();
        sorted.sort_unstable_by_key(|&(j, _)| j);
        let mut scratch = WireScratch::new();
        let mut keys = Vec::new();
        let mut uplink = ranked.clone();
        topk::sort_by_index(&mut uplink, &mut keys);
        let from_ranked = delta.encode_into(100, &uplink, &mut scratch).to_vec();
        let from_sorted = delta.encode_into(100, &sorted, &mut scratch).to_vec();
        assert_eq!(from_ranked, from_sorted);
        for entries in [ranked.clone(), sorted.clone()] {
            let upload = ClientUpload::new(0, 1.0, entries);
            for len in 0..=3 {
                let mut top = ranked[..len].to_vec();
                top.sort_unstable_by_key(|&(j, _)| j);
                assert_eq!(
                    scratch.encoded_len_prefix(delta, 100, &upload, len, &mut keys),
                    delta.encode_into(100, &top, &mut scratch).len()
                );
            }
        }
        let mut unranked = ClientUpload::new(0, 1.0, sorted.clone());
        unranked.ranked.clear();
        assert_eq!(
            scratch.encoded_len_prefix(delta, 100, &unranked, 2, &mut keys),
            delta.encode_into(100, &sorted[..2], &mut scratch).len()
        );
        // Long enough for the radix passes of `topk::sort_by_index`.
        let long: Vec<(usize, f32)> = (0..3000).map(|i| (i * 7919 % 3001, i as f32)).collect();
        let mut uplink = long.clone();
        topk::sort_by_index(&mut uplink, &mut keys);
        let frame_len = delta.encode_into(3001, &uplink, &mut scratch).len();
        let upload = ClientUpload::new(0, 1.0, long);
        assert_eq!(
            scratch.encoded_len_prefix(delta, 3001, &upload, 3000, &mut keys),
            frame_len
        );
    }

    #[test]
    fn malformed_frames_error_not_panic() {
        let g = SparseGradient::from_entries(64, vec![(1, 1.0), (9, 2.0)]);
        let mut scratch = WireScratch::new();
        let mut out = Vec::new();
        for codec in codecs() {
            let frame = encode(codec, &g, &mut scratch);
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

    /// Every format carrying sorted-index gaps rejects a repeated index, an
    /// index past `dim` and a gap past `u64::MAX` with the same error kinds,
    /// whatever payload surrounds the gaps.
    #[test]
    fn gap_streams_reject_unsorted_out_of_range_and_overflowing_indices() {
        let one = 1.0f32.to_le_bytes();
        // (format, bytes before the first gap, bytes after every gap)
        let formats = [
            (CodecId::DeltaVarint, Vec::new(), one.to_vec()),
            (CodecId::QLinear8, [[0; 4], one].concat(), vec![0]),
            (CodecId::F16, Vec::new(), vec![0; 2]),
            (CodecId::SignNorm, [&one[..], &[0]].concat(), Vec::new()),
        ];
        let cases = [
            (vec![5, 0], WireError::NotSorted),
            (
                vec![3, 7],
                WireError::IndexOutOfRange { index: 10, dim: 10 },
            ),
            (vec![5, u64::MAX], WireError::VarintOverflow),
        ];
        let mut out = Vec::new();
        for (id, head, per_entry) in &formats {
            for (gaps, expected) in &cases {
                let mut frame = Vec::new();
                write_header(&mut frame, *id, 10, gaps.len());
                frame.extend_from_slice(head);
                for &gap in gaps {
                    varint::write(&mut frame, gap);
                    frame.extend_from_slice(per_entry);
                }
                assert_eq!(
                    decode_frame(&frame, &mut out),
                    Err(*expected),
                    "{id:?} {gaps:?}"
                );
            }
        }
    }

    #[test]
    fn bitmap_rejects_count_mismatch() {
        let g = SparseGradient::from_entries(16, vec![(2, 1.0)]);
        let mut frame = encode(CodecSpec::Bitmap.build(), &g, &mut WireScratch::new());
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
        for spec in CodecSpec::all().into_iter().chain(CodecSpec::lossy()) {
            assert_eq!(spec.build().name(), spec.name());
        }
    }

    #[test]
    #[should_panic]
    fn encode_rejects_out_of_range_index() {
        let mut scratch = WireScratch::new();
        let _ = CodecSpec::Coo
            .build()
            .encode_into(4, &[(4, 1.0)], &mut scratch);
    }
}
