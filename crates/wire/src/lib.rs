//! Wire-format codecs for sparse gradient exchange.
//!
//! Every message the FL simulation exchanges — the uplink `A_i = {(j,
//! a_ij)}` and the downlink `B = {(j, b_j)}` of Algorithm 1 — is an
//! `agsfl_sparse::SparseGradient`. Until this crate existed the repository
//! priced those exchanges with the paper's abstract "`2k` scalars" proxy
//! (`agsfl_fl::TimeModel`); this crate turns them into *bytes*: a
//! [`Codec`] encodes a message into a self-describing frame, a channel
//! model (`agsfl_fl::ChannelModel`) prices the frame on a per-client link,
//! and the adaptive-`k` controllers in `agsfl-online` see the realized
//! byte cost. A codec is a plain value built from its config selector,
//! [`CodecSpec`]; the frame's first byte, a [`CodecId`], names the format
//! it was written in.
//!
//! Three lossless formats are provided — coo-f32 (4-byte index + 4-byte
//! value baseline), delta-varint (sorted-index gaps as LEB128 varints,
//! enabled by the `SparseGradient` sorted-entries invariant) and bitmap
//! (dense occupancy bitmap + packed values, which wins at high `k/D`) —
//! plus [`CodecSpec::Auto`], which deterministically emits the smallest of
//! the three per message. All four round-trip **bit-exactly** (including
//! `-0.0` and subnormals; pinned by proptests across every sparsifier's
//! output in `tests/codec_roundtrip.rs`), which is what lets the lossless
//! byte path coexist with the repository's bit-identical determinism
//! invariant: those codecs never perturb a single bit of the training
//! trajectory.
//!
//! On top of the lossless tier sits a *lossy* tier — qlinear8 (8-bit
//! linear with seed-deterministic stochastic rounding), f16 (IEEE binary16,
//! round-to-nearest-even) and sign-norm (1 bit/sign + frame norm) —
//! selected through the [`Precision`] axis of the controllers' 2-D action
//! space. Lossy frames deliberately trade bit-identity with the lossless
//! trajectory for bytes; what they keep is **reproducibility**: encoding is
//! a pure function of `(seed, message)`, so a lossy run is still
//! bit-identical to itself across worker counts and checkpoint/resume (see
//! [`mod@lossy`]).
//!
//! Encoding is zero-allocation in steady state against a reusable
//! [`WireScratch`] (the `SelectionScratch`/`CnnScratch` house style);
//! decoding validates untrusted frames and reports malformed input as
//! [`WireError`] values instead of panics. The seed-style allocating
//! implementations live in [`mod@reference`] as the executable spec for
//! the equivalence tests and the values `bench-report`'s encode/decode
//! rows are asserted against.
//!
//! The same validated, panic-free decode discipline backs the other byte
//! surface that takes outside input: [`mod@snapshot`] is the one codec every
//! checkpoint goes through (the run file, the simulation blob, the
//! controller snapshots), hosted here because this is the crate both
//! `agsfl-online` and `agsfl-fl` depend on.
//!
//! # Example
//!
//! ```
//! use agsfl_sparse::SparseGradient;
//! use agsfl_wire::{decode_frame, frame_codec, CodecSpec, WireScratch};
//!
//! let g = SparseGradient::from_entries(1_000, (0..40).map(|j| (j * 7, 0.5)).collect());
//! let auto = CodecSpec::Auto.build();
//! let mut scratch = WireScratch::new();
//! let frame = auto.encode_into(g.dim(), g.entries(), &mut scratch);
//! // Self-describing: the frame records which format Auto chose...
//! let chosen = frame_codec(frame).unwrap();
//! assert_eq!(chosen, auto.choose(g.dim(), g.entries()));
//! // ...and decodes back bit-exactly.
//! let mut decoded = Vec::new();
//! assert_eq!(decode_frame(frame, &mut decoded).unwrap(), (g.dim(), chosen));
//! assert_eq!(decoded, g.entries());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod error;
pub mod lossy;
pub mod reference;
mod scratch;
pub mod snapshot;
mod varint;

pub use codec::{decode_frame, decode_frame_with, frame_codec, Codec, CodecId, CodecSpec};
pub use error::WireError;
pub use lossy::{f16_bits_to_f32, f32_to_f16_bits, Precision, F16_MAX};
pub use scratch::WireScratch;
