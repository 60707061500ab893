//! LEB128 variable-length integers.
//!
//! Every multi-byte integer a frame carries — the header's dimension and
//! entry count, and the sorted-index gaps of every format but coo-f32 and
//! bitmap — is encoded as an unsigned LEB128 varint: 7 payload bits per
//! byte, the high bit flagging a continuation. Small values (the common case for sorted-index deltas at
//! realistic sparsity) cost one byte; a full `u64` costs at most ten.

use crate::error::WireError;

/// Number of bytes [`write`] emits for `v`.
#[inline]
pub fn len(v: u64) -> usize {
    // ceil(bits / 7), with v = 0 still costing one byte.
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Appends the LEB128 encoding of `v` to `buf`.
#[inline]
pub fn write(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint from `bytes` starting at `*pos`, advancing `*pos`
/// past it.
#[inline]
pub fn read(bytes: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or(WireError::Truncated)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(WireError::VarintOverflow);
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_values_are_one_byte() {
        for v in [0u64, 1, 100, 127] {
            let mut buf = Vec::new();
            write(&mut buf, v);
            assert_eq!(buf.len(), 1, "v={v}");
            assert_eq!(len(v), 1);
        }
    }

    #[test]
    fn boundaries_round_trip() {
        for v in [127u64, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write(&mut buf, v);
            assert_eq!(buf.len(), len(v), "v={v}");
            let mut pos = 0;
            assert_eq!(read(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        write(&mut buf, 300);
        buf.truncate(1);
        let mut pos = 0;
        assert_eq!(read(&buf, &mut pos), Err(WireError::Truncated));
    }

    #[test]
    fn overlong_varint_errors() {
        // Eleven continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(read(&buf, &mut pos), Err(WireError::VarintOverflow));
    }

    proptest! {
        #[test]
        fn prop_round_trip(v in 0u64..u64::MAX) {
            let mut buf = Vec::new();
            write(&mut buf, v);
            prop_assert_eq!(buf.len(), len(v));
            let mut pos = 0;
            prop_assert_eq!(read(&buf, &mut pos), Ok(v));
            prop_assert_eq!(pos, buf.len());
        }
    }
}
