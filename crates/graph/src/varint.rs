//! VarInt and zigzag byte codecs (paper §III-A).
//!
//! The compressed graph representation stores gaps, interval descriptors and edge weights
//! as variable-length integers: 7 payload bits per byte plus a continuation bit. Signed
//! values (the first gap of a neighbourhood, which is relative to the vertex ID itself,
//! and edge-weight deltas) are mapped to unsigned values with zigzag encoding before the
//! VarInt codec is applied.

/// Maximum number of bytes a 64-bit VarInt can occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends the VarInt encoding of `value` to `out` and returns the number of bytes
/// written.
#[inline]
pub fn encode_varint(mut value: u64, out: &mut Vec<u8>) -> usize {
    let mut written = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        written += 1;
        if value == 0 {
            out.push(byte);
            return written;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes a VarInt starting at `data[pos]`, returning the value and the new position.
///
/// # Panics
/// Panics if the buffer ends in the middle of a VarInt (truncated input).
#[inline]
pub fn decode_varint(data: &[u8], mut pos: usize) -> (u64, usize) {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = data[pos];
        pos += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return (value, pos);
        }
        shift += 7;
        debug_assert!(shift < 64 + 7, "VarInt longer than 10 bytes");
    }
}

/// Decodes a VarInt of untrusted input starting at `data[pos]`, returning the value and
/// the new position, or `None` if the buffer ends inside it or it runs past
/// [`MAX_VARINT_LEN`] bytes or 64 bits.
#[inline]
pub fn try_decode_varint(data: &[u8], pos: usize) -> Option<(u64, usize)> {
    let mut value = 0u64;
    for (i, &byte) in data.get(pos..)?.iter().take(MAX_VARINT_LEN).enumerate() {
        let (payload, shift) = (u64::from(byte & 0x7f), 7 * i as u32);
        if shift == 63 && payload > 1 {
            return None;
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Some((value, pos + i + 1));
        }
    }
    None
}

/// Number of bytes the VarInt encoding of `value` occupies (without encoding it).
#[inline]
pub fn varint_len(value: u64) -> usize {
    if value == 0 {
        1
    } else {
        (64 - value.leading_zeros() as usize).div_ceil(7)
    }
}

/// Maps a signed value to an unsigned value such that small magnitudes map to small
/// values: `0 → 0, -1 → 1, 1 → 2, -2 → 3, ...`.
#[inline]
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Appends the zigzag + VarInt encoding of a signed value.
#[inline]
pub fn encode_signed_varint(value: i64, out: &mut Vec<u8>) -> usize {
    encode_varint(zigzag_encode(value), out)
}

/// Decodes a zigzag + VarInt encoded signed value starting at `data[pos]`.
#[inline]
pub fn decode_signed_varint(data: &[u8], pos: usize) -> (i64, usize) {
    let (raw, pos) = decode_varint(data, pos);
    (zigzag_decode(raw), pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_values_use_one_byte() {
        for v in 0..128u64 {
            let mut buf = Vec::new();
            assert_eq!(encode_varint(v, &mut buf), 1);
            assert_eq!(buf.len(), 1);
            assert_eq!(decode_varint(&buf, 0), (v, 1));
        }
    }

    #[test]
    fn boundary_values_round_trip() {
        for &v in &[0, 127, 128, 16_383, 16_384, 0xFFFF_FFFF, u64::MAX] {
            let mut buf = Vec::new();
            let len = encode_varint(v, &mut buf);
            assert_eq!(len, varint_len(v));
            assert_eq!(len, buf.len());
            let (decoded, pos) = decode_varint(&buf, 0);
            assert_eq!(decoded, v);
            assert_eq!(pos, len);
        }
    }

    #[test]
    fn max_value_uses_ten_bytes() {
        assert_eq!(varint_len(u64::MAX), MAX_VARINT_LEN);
    }

    #[test]
    fn concatenated_values_decode_in_sequence() {
        let values = [5u64, 300, 0, 0xFFFF_FFFF, 1];
        let mut buf = Vec::new();
        for &v in &values {
            encode_varint(v, &mut buf);
        }
        let mut pos = 0;
        for &v in &values {
            let (decoded, next) = decode_varint(&buf, pos);
            assert_eq!(decoded, v);
            pos = next;
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn checked_decoding_refuses_truncated_overlong_and_overflowing_input() {
        let mut max = Vec::new();
        encode_varint(u64::MAX, &mut max);
        assert_eq!(try_decode_varint(&max, 0), Some((u64::MAX, MAX_VARINT_LEN)));
        // Truncated: the buffer ends with the continuation bit set, or before `pos`.
        assert_eq!(try_decode_varint(&max[..9], 0), None);
        assert_eq!(try_decode_varint(&[0x80], 0), None);
        assert_eq!(try_decode_varint(&[5], 1), None);
        // Eleven bytes: a non-canonical encoding of 5 one byte too long.
        let mut overlong = vec![0x85u8];
        overlong.extend([0x80; 9]);
        overlong.push(0);
        assert_eq!(try_decode_varint(&overlong[1..], 0), Some((0, 10)));
        assert_eq!(try_decode_varint(&overlong, 0), None);
        // Ten bytes whose last carries bits beyond 2^64.
        let mut overflow = max.clone();
        overflow[9] = 0x02;
        assert_eq!(try_decode_varint(&overflow, 0), None);
    }

    #[test]
    fn zigzag_maps_small_magnitudes_to_small_values() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        assert_eq!(zigzag_encode(2), 4);
        assert_eq!(zigzag_decode(zigzag_encode(i64::MIN)), i64::MIN);
        assert_eq!(zigzag_decode(zigzag_encode(i64::MAX)), i64::MAX);
    }

    #[test]
    fn signed_round_trip() {
        for &v in &[0i64, -1, 1, -1000, 1000, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            encode_signed_varint(v, &mut buf);
            let (decoded, _) = decode_signed_varint(&buf, 0);
            assert_eq!(decoded, v);
        }
    }

    proptest! {
        #[test]
        fn prop_varint_round_trip(v in any::<u64>()) {
            let mut buf = Vec::new();
            let len = encode_varint(v, &mut buf);
            prop_assert_eq!(len, varint_len(v));
            let (decoded, pos) = decode_varint(&buf, 0);
            prop_assert_eq!(decoded, v);
            prop_assert_eq!(pos, buf.len());
            prop_assert_eq!(try_decode_varint(&buf, 0), Some((v, len)));
            prop_assert_eq!(try_decode_varint(&buf[..len - 1], 0), None);
        }

        #[test]
        fn prop_signed_round_trip(v in any::<i64>()) {
            let mut buf = Vec::new();
            encode_signed_varint(v, &mut buf);
            let (decoded, pos) = decode_signed_varint(&buf, 0);
            prop_assert_eq!(decoded, v);
            prop_assert_eq!(pos, buf.len());
        }

        #[test]
        fn prop_sequence_round_trip(values in proptest::collection::vec(any::<u64>(), 0..64)) {
            let mut buf = Vec::new();
            for &v in &values {
                encode_varint(v, &mut buf);
            }
            let mut pos = 0;
            let mut decoded = Vec::new();
            while pos < buf.len() {
                let (v, next) = decode_varint(&buf, pos);
                decoded.push(v);
                pos = next;
            }
            prop_assert_eq!(decoded, values);
        }
    }
}
