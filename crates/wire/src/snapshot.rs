//! The snapshot codec: the one binary encoder/decoder behind every
//! checkpoint byte surface — the AGCK run file, the AGSF simulation blob
//! nested inside it, and the controller snapshots of `agsfl-online`.
//!
//! The vendored `serde` is a no-op shim, so persisted state uses the same
//! hand-rolled, fully validated binary style as the frame codecs of this
//! crate: little-endian fixed-width scalars, floats as raw IEEE-754 bits
//! (the *bit-identical* resume guarantee forbids any text round-trip), and
//! vectors in the shape-plus-flat-data idiom (`u64` length followed by the
//! flat payload). Every read is bounds-checked and returns a
//! [`SnapshotError`] instead of panicking, mirroring the
//! [`WireError`](crate::WireError) decode discipline, and a length prefix is
//! checked against the bytes left before anything is allocated for it.
//!
//! It lives here because `agsfl-wire` is the one crate both `agsfl-online`
//! (controller state) and `agsfl-fl` (simulation state) depend on. Persisted
//! types whose restore needs nothing but their own configuration implement
//! [`Snapshot`]; [`roundtrip`] is the law their tests assert.

use rand_chacha::ChaCha8Rng;

/// Error produced when decoding or loading persisted state.
///
/// Mirrors the `WireError` taxonomy: every malformed input maps to a typed
/// variant, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the expected field.
    Truncated,
    /// The leading magic bytes did not match the expected section tag.
    BadMagic {
        /// The four magic bytes the decoder expected.
        expected: [u8; 4],
    },
    /// The format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The snapshot was taken from an incompatible configuration.
    Mismatch {
        /// Which fingerprint field disagreed (e.g. `"dim"`, `"seed"`).
        field: &'static str,
    },
    /// The snapshot was taken from a different controller type.
    WrongController {
        /// The controller type the restore target expected.
        expected: &'static str,
    },
    /// A field decoded to an out-of-range or inconsistent value.
    Invalid(&'static str),
    /// Bytes remained after the final field of a section.
    TrailingBytes,
    /// An I/O error while reading or writing a checkpoint file.
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "snapshot truncated"),
            Self::BadMagic { expected } => {
                write!(
                    f,
                    "bad snapshot magic (expected {:?})",
                    std::str::from_utf8(expected).unwrap_or("????")
                )
            }
            Self::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            Self::Mismatch { field } => {
                write!(f, "snapshot does not match this configuration: {field}")
            }
            Self::WrongController { expected } => {
                write!(f, "controller state is not a {expected} snapshot")
            }
            Self::Invalid(what) => write!(f, "invalid snapshot field: {what}"),
            Self::TrailingBytes => write!(f, "trailing bytes after snapshot payload"),
            Self::Io(msg) => write!(f, "checkpoint i/o error: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A persisted type that restores from its own bytes plus the configuration
/// it was constructed with.
///
/// `read_state` transports only *mutable* state into a value already built
/// from the same configuration, and validates every field against it. On an
/// error the value may be partially overwritten: callers that must stay
/// untouched restore into a copy and commit it afterwards.
pub trait Snapshot {
    /// Appends this value's state to `w`.
    fn write_state(&self, w: &mut SnapshotWriter);

    /// Overwrites this value's state with the fields written by
    /// [`Snapshot::write_state`].
    fn read_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;
}

/// The round-trip laws of a [`Snapshot`] implementor, for its tests: every
/// strict prefix of `value`'s bytes fails to restore into a `fresh()` value,
/// and the full bytes restore into one that re-saves to the same bytes.
/// Panics on a broken law; returns the restored value.
pub fn roundtrip<T: Snapshot>(value: &T, fresh: impl Fn() -> T) -> T {
    let save = |value: &T| {
        let mut w = SnapshotWriter::new();
        value.write_state(&mut w);
        w.into_bytes()
    };
    let restore = |bytes: &[u8]| {
        let mut restored = fresh();
        let mut r = SnapshotReader::new(bytes);
        restored.read_state(&mut r)?;
        r.finish()?;
        Ok::<T, SnapshotError>(restored)
    };
    let bytes = save(value);
    for cut in 0..bytes.len() {
        assert!(restore(&bytes[..cut]).is_err(), "prefix {cut} restored");
    }
    let restored = restore(&bytes).expect("a value restores from its own bytes");
    assert_eq!(save(&restored), bytes, "re-saved bytes differ");
    restored
}

/// Append-only binary snapshot encoder.
///
/// All scalars are little-endian; floats are written as raw bit patterns so
/// the decode is bit-exact. Collections are length-prefixed with `u64`.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
    /// `Some(n)` on the sizing pass of [`SnapshotWriter::write_exact`]: the
    /// bytes written so far are counted here and `buf` stays empty.
    sizing: Option<usize>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Encodes what `write` writes into a buffer allocated once, at its
    /// exact size: `write` runs twice, first against a writer that only
    /// counts, then against one with that many bytes reserved, so a
    /// multi-megabyte snapshot is never re-grown and copied on its way out.
    /// `write` must write the same fields both times.
    pub fn write_exact(write: impl Fn(&mut Self)) -> Vec<u8> {
        let mut sizing = Self {
            buf: Vec::new(),
            sizing: Some(0),
        };
        write(&mut sizing);
        let len = sizing.sizing.expect("a sizing writer keeps its count");
        let mut w = Self {
            buf: Vec::with_capacity(len),
            sizing: None,
        };
        write(&mut w);
        debug_assert_eq!(w.buf.len(), len, "both passes write the same fields");
        w.buf
    }

    /// Appends raw bytes (or, on a sizing pass, counts them).
    fn put(&mut self, bytes: &[u8]) {
        match &mut self.sizing {
            Some(count) => *count += bytes.len(),
            None => self.buf.extend_from_slice(bytes),
        }
    }

    /// Appends a length-prefixed flat slice of `W`-byte little-endian
    /// words: the payload's room is made once and filled by a fixed-width
    /// copy per element, which a little-endian target turns into one bulk
    /// copy of the slice.
    fn words<T: Copy, const W: usize>(&mut self, v: &[T], le_bytes: impl Fn(T) -> [u8; W]) {
        self.usize(v.len());
        if let Some(count) = &mut self.sizing {
            *count += v.len() * W;
            return;
        }
        let start = self.buf.len();
        self.buf.resize(start + v.len() * W, 0);
        for (dst, &x) in self.buf[start..].chunks_exact_mut(W).zip(v) {
            dst.copy_from_slice(&le_bytes(x));
        }
    }

    /// Writes a section header: four magic bytes plus a format version.
    pub fn header(&mut self, magic: [u8; 4], version: u32) {
        self.put(&magic);
        self.u32(version);
    }

    /// Writes the one-byte controller-type tag that opens a controller
    /// snapshot.
    pub fn tag(&mut self, tag: u8) {
        self.put(&[tag]);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.put(&[v as u8]);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its raw IEEE-754 bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed flat `f32` slice (shape + raw bits).
    pub fn f32s(&mut self, v: &[f32]) {
        self.words(v, |x| x.to_bits().to_le_bytes());
    }

    /// Writes a length-prefixed flat `f64` slice.
    pub fn f64s(&mut self, v: &[f64]) {
        self.words(v, |x| x.to_bits().to_le_bytes());
    }

    /// Writes a length-prefixed `usize` slice.
    pub fn usizes(&mut self, v: &[usize]) {
        self.words(v, |x| (x as u64).to_le_bytes());
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn u64s(&mut self, v: &[u64]) {
        self.words(v, u64::to_le_bytes);
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.put(v);
    }

    /// Writes what `write` writes as a length-prefixed byte slice — the
    /// bytes [`SnapshotWriter::bytes`] would emit for it — without building
    /// the inner blob first: the prefix is written as a placeholder and
    /// patched once the length is known.
    pub fn nested(&mut self, write: impl FnOnce(&mut Self)) {
        let prefix = self.buf.len();
        self.usize(0);
        write(self);
        if self.sizing.is_none() {
            let len = (self.buf.len() - prefix - 8) as u64;
            self.buf[prefix..prefix + 8].copy_from_slice(&len.to_le_bytes());
        }
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Writes an optional `usize` as a presence flag plus value.
    pub fn opt_usize(&mut self, v: Option<usize>) {
        self.bool(v.is_some());
        if let Some(x) = v {
            self.usize(x);
        }
    }

    /// Writes an optional `f64` as a presence flag plus raw bits.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        self.bool(v.is_some());
        if let Some(x) = v {
            self.f64(x);
        }
    }

    /// Writes a ChaCha8 stream position (`key`, `counter`, `cursor`).
    pub fn rng(&mut self, rng: &ChaCha8Rng) {
        let (key, counter, cursor) = rng.state();
        for word in key {
            self.u32(word);
        }
        self.u64(counter);
        self.u32(cursor);
    }
}

/// Validating decoder over a snapshot byte slice.
///
/// Every accessor checks bounds and returns [`SnapshotError::Truncated`]
/// (or a more specific variant) rather than panicking.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Number of undecoded bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns [`SnapshotError::TrailingBytes`] unless the reader is
    /// exactly exhausted.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads and validates a section header written by
    /// [`SnapshotWriter::header`]; returns the stored version if it is at
    /// most `max_version`.
    pub fn header(&mut self, magic: [u8; 4], max_version: u32) -> Result<u32, SnapshotError> {
        let got = self.take(4)?;
        if got != magic {
            return Err(SnapshotError::BadMagic { expected: magic });
        }
        let version = self.u32()?;
        if version == 0 || version > max_version {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        Ok(version)
    }

    /// Reads the controller-type tag written by [`SnapshotWriter::tag`],
    /// rejecting a snapshot of any controller but `name`'s.
    pub fn tag(&mut self, expected: u8, name: &'static str) -> Result<(), SnapshotError> {
        if self.u8()? == expected {
            Ok(())
        } else {
            Err(SnapshotError::WrongController { expected: name })
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`, rejecting any byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Invalid("bool flag")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` stored as `u64`, rejecting values that overflow the
    /// platform's `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Invalid("usize overflow"))
    }

    /// Reads a length prefix and sanity-checks it against the bytes left
    /// (each element occupies at least `min_elem_bytes`), so a corrupt
    /// length cannot trigger a huge allocation.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n.checked_mul(min_elem_bytes)
            .is_none_or(|b| b > self.remaining())
        {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    /// Reads an `f64` from its raw bits.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed flat `f32` vector.
    pub fn f32s(&mut self) -> Result<Vec<f32>, SnapshotError> {
        let n = self.len(4)?;
        let flat = self.take(n * 4)?.chunks_exact(4);
        Ok(flat
            .map(|b| f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
            .collect())
    }

    /// Reads a length-prefixed vector of 8-byte elements through `read`.
    fn words<T>(
        &mut self,
        read: fn(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        let n = self.len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed flat `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, SnapshotError> {
        self.words(Self::f64)
    }

    /// Reads a length-prefixed `usize` vector.
    pub fn usizes(&mut self) -> Result<Vec<usize>, SnapshotError> {
        self.words(Self::usize)
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn u64s(&mut self) -> Result<Vec<u64>, SnapshotError> {
        self.words(Self::u64)
    }

    /// Reads a length-prefixed byte vector.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.len(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        String::from_utf8(self.bytes()?).map_err(|_| SnapshotError::Invalid("utf-8 string"))
    }

    /// Reads an optional `usize` written by [`SnapshotWriter::opt_usize`].
    pub fn opt_usize(&mut self) -> Result<Option<usize>, SnapshotError> {
        self.bool()?.then(|| self.usize()).transpose()
    }

    /// Reads an optional `f64` written by [`SnapshotWriter::opt_f64`].
    pub fn opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        self.bool()?.then(|| self.f64()).transpose()
    }

    /// Reads a ChaCha8 stream position and rebuilds the generator.
    pub fn rng(&mut self) -> Result<ChaCha8Rng, SnapshotError> {
        let mut key = [0u32; 8];
        for word in &mut key {
            *word = self.u32()?;
        }
        let counter = self.u64()?;
        let cursor = self.u32()?;
        Ok(ChaCha8Rng::from_state(key, counter, cursor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn scalar_roundtrip_is_bit_exact() {
        let mut w = SnapshotWriter::new();
        w.header(*b"TEST", 3);
        w.tag(7);
        w.bool(true);
        w.bool(false);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.usize(42);
        w.f64(f64::NEG_INFINITY);
        w.f64(-0.0);
        w.opt_usize(Some(9));
        w.opt_usize(None);
        w.opt_f64(Some(2.5));
        w.opt_f64(None);
        w.str("résumé");
        let bytes = w.into_bytes();

        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.header(*b"TEST", 3).unwrap(), 3);
        r.tag(7, "test").unwrap();
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), f64::NEG_INFINITY.to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.opt_usize().unwrap(), Some(9));
        assert_eq!(r.opt_usize().unwrap(), None);
        assert_eq!(r.opt_f64().unwrap(), Some(2.5));
        assert_eq!(r.opt_f64().unwrap(), None);
        assert_eq!(r.str().unwrap(), "résumé");
        r.finish().unwrap();
    }

    #[test]
    fn vector_and_nested_blob_roundtrip() {
        let mut w = SnapshotWriter::new();
        w.f32s(&[1.0, -2.5, f32::NAN]);
        w.f64s(&[1.5, f64::NAN]);
        w.usizes(&[0, 1, usize::MAX]);
        w.u64s(&[3, 4]);
        w.bytes(&[7, 0, 255]);
        w.bytes(&[]);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let f = r.f32s().unwrap();
        assert_eq!(f.len(), 3);
        assert!(f[2].is_nan());
        let d = r.f64s().unwrap();
        assert_eq!(d[0], 1.5);
        assert!(d[1].is_nan());
        assert_eq!(r.usizes().unwrap(), vec![0, 1, usize::MAX]);
        assert_eq!(r.u64s().unwrap(), vec![3, 4]);
        assert_eq!(r.bytes().unwrap(), vec![7, 0, 255]);
        assert_eq!(r.bytes().unwrap(), Vec::<u8>::new());
        r.finish().unwrap();
    }

    /// `nested` emits the bytes `bytes(inner blob)` emits, at any depth, and
    /// `write_exact` the bytes a growing writer emits, in a buffer of
    /// exactly that capacity.
    #[test]
    fn nested_and_exact_writes_are_byte_identical_to_the_staged_ones() {
        let inner = |w: &mut SnapshotWriter| {
            w.header(*b"INNR", 2);
            w.f32s(&[1.0, -0.0, f32::NAN, f32::MIN_POSITIVE]);
            w.usizes(&[usize::MAX, 0, 7]);
            w.u64s(&[]);
            w.f64s(&[-2.5]);
            w.str("x");
        };
        let outer = |w: &mut SnapshotWriter, staged: bool| {
            w.tag(9);
            if staged {
                let mut blob = SnapshotWriter::new();
                inner(&mut blob);
                let mut wrapped = SnapshotWriter::new();
                wrapped.bytes(&blob.into_bytes());
                wrapped.bool(true);
                w.bytes(&wrapped.into_bytes());
            } else {
                w.nested(|w| {
                    w.nested(inner);
                    w.bool(true);
                });
            }
            w.opt_f64(Some(1.5));
        };
        let mut staged = SnapshotWriter::new();
        outer(&mut staged, true);
        let staged = staged.into_bytes();
        let mut patched = SnapshotWriter::new();
        outer(&mut patched, false);
        assert_eq!(patched.into_bytes(), staged);
        let exact = SnapshotWriter::write_exact(|w| outer(w, false));
        assert_eq!(exact, staged);
        assert_eq!(exact.capacity(), exact.len());
        assert_eq!(SnapshotWriter::write_exact(|_| {}), Vec::<u8>::new());
    }

    #[test]
    fn rng_roundtrip_resumes_stream() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..13 {
            rng.next_u32();
        }
        let mut w = SnapshotWriter::new();
        w.rng(&rng);
        let bytes = w.into_bytes();
        let mut restored = SnapshotReader::new(&bytes).rng().unwrap();
        for _ in 0..64 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn truncation_and_corruption_yield_typed_errors() {
        let mut w = SnapshotWriter::new();
        w.header(*b"TEST", 1);
        w.tag(1);
        w.u64s(&[1, 2, 3]);
        w.f64s(&[1.0, 2.0, 3.0]);
        w.bytes(&[7, 0, 255]);
        w.rng(&ChaCha8Rng::seed_from_u64(5));
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapshotReader::new(&bytes[..cut]);
            let result = r
                .header(*b"TEST", 1)
                .and_then(|_| r.tag(1, "test"))
                .and_then(|()| r.u64s())
                .and_then(|_| r.f64s())
                .and_then(|_| r.bytes())
                .and_then(|_| r.rng());
            assert!(result.is_err(), "cut at {cut} must error");
        }
        // Wrong magic, unsupported version, another controller's tag.
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(
            r.header(*b"ELSE", 1),
            Err(SnapshotError::BadMagic { expected: *b"ELSE" })
        );
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(
            r.header(*b"TEST", 0),
            Err(SnapshotError::UnsupportedVersion(1))
        );
        assert_eq!(
            SnapshotReader::new(&[3]).tag(4, "other"),
            Err(SnapshotError::WrongController { expected: "other" })
        );
        // A bogus huge length prefix must not allocate; it errors.
        let mut w = SnapshotWriter::new();
        w.u64(u64::MAX / 2);
        let bogus = w.into_bytes();
        assert!(SnapshotReader::new(&bogus).f32s().is_err());
        assert_eq!(
            SnapshotReader::new(&bogus).f64s(),
            Err(SnapshotError::Truncated)
        );
        assert_eq!(
            SnapshotReader::new(&bogus).bytes(),
            Err(SnapshotError::Truncated)
        );
        // A flag byte outside {0, 1} is invalid, for `bool` and options alike.
        assert_eq!(
            SnapshotReader::new(&[2]).bool(),
            Err(SnapshotError::Invalid("bool flag"))
        );
        assert!(SnapshotReader::new(&[2]).opt_f64().is_err());
    }

    /// A two-field implementor that rejects a negative `x`.
    #[derive(Debug, Default, PartialEq)]
    struct Pair {
        x: f64,
        tail: Vec<u64>,
    }

    impl Snapshot for Pair {
        fn write_state(&self, w: &mut SnapshotWriter) {
            w.f64(self.x);
            w.u64s(&self.tail);
        }

        fn read_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
            self.x = r.f64()?;
            if self.x < 0.0 {
                return Err(SnapshotError::Invalid("x"));
            }
            self.tail = r.u64s()?;
            Ok(())
        }
    }

    #[test]
    fn roundtrip_law_returns_the_restored_value() {
        let pair = Pair {
            x: 2.5,
            tail: vec![1, 2],
        };
        assert_eq!(roundtrip(&pair, Pair::default), pair);
    }

    #[test]
    #[should_panic(expected = "restores from its own bytes")]
    fn roundtrip_law_catches_a_value_its_own_reader_rejects() {
        let pair = Pair {
            x: -1.0,
            tail: Vec::new(),
        };
        roundtrip(&pair, Pair::default);
    }
}
