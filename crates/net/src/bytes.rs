//! The datagram frame and byte-buffer utilities shared by the wire codecs.
//!
//! Every codec — sync (`0xC5`), lobby (`0xC6`) and relay (`0xC7`) — writes
//! the same frame: the magic byte, one byte holding the version (high
//! nibble) and message type (low nibble), then the fields. Hashes and ids
//! are fixed-width little-endian; lengths, counters and frame numbers are
//! LEB128 varints. This module holds that frame once: the [`WireError`]
//! every decoder returns, the header writer ([`BufMut::put_header`]) and
//! reader ([`Buf::get_header`]), the length gate ([`Buf::need`]) and the
//! capped, length-prefixed byte field ([`BufMut::put_field`],
//! [`Buf::get_field`]). A codec keeps only its magic byte, its version,
//! its type tags and its field layouts. The sync input message's sparse
//! words (a presence mask, then the non-zero bytes) live here too.
//! Everything is local because the build environment is offline.
//!
//! Fixed-width reads are cursor-style over a plain `&[u8]` and are
//! **total**: a getter on a too-short slice drains it and returns zero
//! instead of panicking, so decoders stay panic-free on arbitrary bytes
//! even if a bounds check is missed. Decoders still gate correctness on
//! [`Buf::need`]. The variable-length reads cannot be length-checked up
//! front, so they return a [`WireError`] instead.

// A wire codec reads untrusted bytes: it returns typed errors and never
// panics or indexes out of range.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::error::Error;
use std::fmt;

/// Why a datagram failed to decode. A UDP port receives arbitrary bytes,
/// so every codec reports every failure as one of these, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The datagram ended inside its header or a field.
    Truncated,
    /// Wrong magic byte: a datagram of another protocol.
    BadMagic,
    /// A build speaking another version of the protocol.
    BadVersion(u8),
    /// Unknown message type byte.
    UnknownType(u8),
    /// A length field exceeds its hard cap.
    TooLarge,
    /// A field is not a value of its encoding: a varint longer than ten
    /// bytes or above its field's width, a presence mask with bits above
    /// the fourth byte, a zero-length run, or text that is not UTF-8.
    Malformed,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "datagram truncated"),
            WireError::BadMagic => write!(f, "bad magic byte"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownType(t) => write!(f, "unknown message type {t}"),
            WireError::TooLarge => write!(f, "length field exceeds protocol cap"),
            WireError::Malformed => write!(f, "malformed field"),
        }
    }
}

impl Error for WireError {}

/// Cursor-style reads from a shrinking `&'a [u8]`.
///
/// Each getter consumes its bytes from the front of the slice. The
/// fixed-width reads are total: on underflow a getter drains the slice and
/// returns zero, so no input — however truncated or adversarial — can
/// panic a decoder. Callers that need to distinguish "read zero" from "ran
/// out" check [`need`](Buf::need) first or use [`try_take`](Buf::try_take).
/// Borrowed reads return slices of the datagram itself (`'a`), not of the
/// cursor, so a decoded message can borrow its payload zero-copy.
pub trait Buf<'a> {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// `Ok` if at least `n` bytes remain, else [`WireError::Truncated`].
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than `n` bytes remain.
    fn need(&self, n: usize) -> Result<(), WireError>;
    /// Consumes `n` bytes and returns them, or `None` (consuming
    /// nothing) if fewer than `n` remain.
    fn try_take(&mut self, n: usize) -> Option<&'a [u8]>;
    /// Reads the frame header written by [`BufMut::put_header`], checks
    /// its magic byte and version, and returns the message type.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than two bytes remain,
    /// [`WireError::BadMagic`] or [`WireError::BadVersion`] on a mismatch.
    fn get_header(&mut self, magic: u8, version: u8) -> Result<u8, WireError>;
    /// Reads a byte field written by [`BufMut::put_field`] and returns the
    /// bytes. The varint length is checked against `cap` before any byte
    /// is taken, so no datagram can make its decoder hold more than `cap`.
    ///
    /// # Errors
    ///
    /// [`WireError::TooLarge`] if the length exceeds `cap`,
    /// [`WireError::Truncated`] if the slice ends inside the field,
    /// [`WireError::Malformed`] if the length is not a varint.
    fn get_field(&mut self, cap: usize) -> Result<&'a [u8], WireError>;
    /// Reads one byte (`0` on underflow).
    fn get_u8(&mut self) -> u8;
    /// Reads a little-endian `u32` (`0` on underflow).
    fn get_u32_le(&mut self) -> u32;
    /// Reads a little-endian `u64` (`0` on underflow).
    fn get_u64_le(&mut self) -> u64;
    /// Reads an unsigned LEB128 varint written by [`BufMut::put_varint`].
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if the slice ends before the last byte,
    /// [`WireError::Malformed`] if the varint runs past ten bytes or
    /// `u64::MAX`.
    fn get_varint(&mut self) -> Result<u64, WireError>;
    /// Reads a varint that must fit a `u32` (a counter or offset).
    ///
    /// # Errors
    ///
    /// As [`get_varint`](Buf::get_varint); [`WireError::Malformed`] past 32 bits.
    fn get_varint_u32(&mut self) -> Result<u32, WireError> {
        u32::try_from(self.get_varint()?).map_err(|_| WireError::Malformed)
    }
    /// Reads a word written by [`BufMut::put_sparse_u32`].
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if a byte the mask announces is missing,
    /// [`WireError::Malformed`] if the mask has bits above the fourth byte.
    fn get_sparse_u32(&mut self) -> Result<u32, WireError>;
}

/// Reads a fixed-width little-endian integer, draining the slice and
/// yielding zero when not enough bytes remain.
macro_rules! get_le {
    ($cursor:expr, $ty:ty) => {{
        let s = *$cursor;
        match s.split_first_chunk() {
            Some((head, rest)) => {
                *$cursor = rest;
                <$ty>::from_le_bytes(*head)
            }
            None => {
                *$cursor = &[];
                0
            }
        }
    }};
}

/// Consumes one byte for a checked read.
#[inline]
fn next_byte(cursor: &mut &[u8]) -> Result<u8, WireError> {
    let (&byte, rest) = cursor.split_first().ok_or(WireError::Truncated)?;
    *cursor = rest;
    Ok(byte)
}

impl<'a> Buf<'a> for &'a [u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.len() < n {
            return Err(WireError::Truncated);
        }
        Ok(())
    }

    fn try_take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = *self;
        let (head, rest) = s.split_at_checked(n)?;
        *self = rest;
        Some(head)
    }

    #[inline]
    fn get_header(&mut self, magic: u8, version: u8) -> Result<u8, WireError> {
        let s = *self;
        let Some((&[m, vt], rest)) = s.split_first_chunk() else {
            return Err(WireError::Truncated);
        };
        if m != magic {
            return Err(WireError::BadMagic);
        }
        if vt >> 4 != version {
            return Err(WireError::BadVersion(vt >> 4));
        }
        *self = rest;
        Ok(vt & 0x0F)
    }

    #[inline]
    fn get_field(&mut self, cap: usize) -> Result<&'a [u8], WireError> {
        let n = self.get_varint()?;
        if n > cap as u64 {
            return Err(WireError::TooLarge);
        }
        self.try_take(n as usize).ok_or(WireError::Truncated)
    }

    fn get_u8(&mut self) -> u8 {
        let s = *self;
        match s.split_first() {
            Some((&v, rest)) => {
                *self = rest;
                v
            }
            None => 0,
        }
    }

    fn get_u32_le(&mut self) -> u32 {
        get_le!(self, u32)
    }

    fn get_u64_le(&mut self) -> u64 {
        get_le!(self, u64)
    }

    #[inline]
    fn get_varint(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        let mut shift = 0;
        // Ten groups of seven bits cover 64; the tenth may carry only bit 63.
        while shift < 64 {
            let byte = next_byte(self)?;
            let bits = u64::from(byte & 0x7F);
            if shift == 63 && bits > 1 {
                return Err(WireError::Malformed);
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
        Err(WireError::Malformed)
    }

    #[inline]
    fn get_sparse_u32(&mut self) -> Result<u32, WireError> {
        let mask = next_byte(self)?;
        if mask > 0x0F {
            return Err(WireError::Malformed);
        }
        let present = self
            .try_take(mask.count_ones() as usize)
            .ok_or(WireError::Truncated)?;
        // Scatter the packed bytes back to the positions the mask names.
        let mut v = 0u32;
        let mut bytes = present.iter();
        for i in 0..4 {
            if mask & (1 << i) != 0 {
                v |= u32::from(bytes.next().copied().unwrap_or(0)) << (8 * i);
            }
        }
        Ok(v)
    }
}

/// Little-endian append helpers for growable byte buffers.
///
/// Implemented for `Vec<u8>` so codecs can encode straight into a
/// caller-owned, reusable buffer instead of allocating per datagram.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a `u32` in little-endian order.
    fn put_u32_le(&mut self, v: u32);
    /// Appends a `u64` in little-endian order.
    fn put_u64_le(&mut self, v: u64);
    /// Appends a byte slice verbatim.
    fn put_slice(&mut self, src: &[u8]);
    /// Appends the frame header every codec's datagram starts with: the
    /// codec's magic byte, then its version (below 16) in the high nibble
    /// and the message type (below 16) in the low one.
    fn put_header(&mut self, magic: u8, version: u8, ty: u8);
    /// Appends a byte field: its length as a varint, then the bytes.
    fn put_field(&mut self, bytes: &[u8]);
    /// Appends `v` as an unsigned LEB128 varint: seven bits per byte, low
    /// group first, the high bit set on every byte but the last (1 byte
    /// below 128, at most 10).
    fn put_varint(&mut self, v: u64);
    /// Appends `v` as a sparse word: one presence mask byte whose bit `i`
    /// says little-endian byte `i` is non-zero, then those bytes in order.
    /// A zero word is 1 byte; a word with one non-zero byte is 2 in any
    /// position; a word with four is 5.
    fn put_sparse_u32(&mut self, v: u32);
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    fn put_header(&mut self, magic: u8, version: u8, ty: u8) {
        debug_assert!(version < 16 && ty < 16, "header nibble overflow");
        self.extend_from_slice(&[magic, version << 4 | ty]);
    }

    fn put_field(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.extend_from_slice(bytes);
    }

    #[inline]
    fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.push(v as u8);
    }

    #[inline]
    fn put_sparse_u32(&mut self, v: u32) {
        // Pack the non-zero bytes downward behind the mask, append them in
        // one fixed-size copy, then drop the unused tail.
        let (mut mask, mut packed, mut n) = (0u8, 0u32, 0usize);
        for (i, b) in v.to_le_bytes().into_iter().enumerate() {
            if b != 0 {
                mask |= 1 << i;
                packed |= u32::from(b) << (8 * n);
                n += 1;
            }
        }
        let end = self.len() + 1 + n;
        self.extend_from_slice(&(u64::from(packed) << 8 | u64::from(mask)).to_le_bytes());
        self.truncate(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut v = Vec::new();
        v.put_u8(0xAB);
        v.put_u32_le(0x0304_0506);
        v.put_u64_le(0x0708_090A_0B0C_0D0E);
        v.put_slice(b"xy");
        assert_eq!(v.len(), 15);

        let mut r: &[u8] = &v;
        assert_eq!(r.remaining(), 15);
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u32_le(), 0x0304_0506);
        assert_eq!(r.get_u64_le(), 0x0708_090A_0B0C_0D0E);
        assert_eq!(r.try_take(2), Some(&b"xy"[..]));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn underflow_drains_and_returns_zero() {
        let mut r: &[u8] = &[0x01];
        assert_eq!(r.get_u32_le(), 0, "one byte cannot make a u32");
        assert_eq!(r.remaining(), 0, "underflow drains the cursor");
        assert_eq!(r.get_u8(), 0);
        assert_eq!(r.get_u64_le(), 0);
    }

    #[test]
    fn try_take_is_all_or_nothing() {
        let mut r: &[u8] = &[1, 2, 3, 4];
        assert_eq!(r.try_take(2), Some(&[1u8, 2][..]));
        assert_eq!(r.try_take(3), None, "only 2 bytes left");
        assert_eq!(r.remaining(), 2, "failed take consumes nothing");
        assert_eq!(r.try_take(2), Some(&[3u8, 4][..]));
        assert_eq!(r.try_take(0), Some(&[][..]));
    }

    #[test]
    fn header_is_two_bytes_with_the_version_in_the_high_nibble() {
        let mut w = Vec::new();
        w.put_header(0xC5, 5, 1);
        assert_eq!(w, [0xC5, 0x51]);
        let mut r: &[u8] = &[0xC5, 0x51, 0xEE];
        assert_eq!(r.get_header(0xC5, 5), Ok(1));
        assert_eq!(r, [0xEE], "the header is two bytes");
        // A three-byte header of an older build reads as version 0.
        let mut r: &[u8] = &[0xC5, 0x04, 0x01];
        assert_eq!(r.get_header(0xC5, 5), Err(WireError::BadVersion(0)));
        let mut r: &[u8] = &[0xC6, 0x51];
        assert_eq!(r.get_header(0xC5, 5), Err(WireError::BadMagic));
        let mut r: &[u8] = &[0xC5];
        assert_eq!(r.get_header(0xC5, 5), Err(WireError::Truncated));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "header nibble overflow")]
    fn a_version_past_the_nibble_is_caught_on_encode() {
        Vec::<u8>::new().put_header(0xC5, 16, 1);
    }

    #[test]
    fn fields_read_their_varint_length_and_check_the_cap() {
        let mut w = Vec::new();
        w.put_field(b"ab");
        w.put_field(&[7; 200]);
        assert_eq!(w.len(), 1 + 2 + 2 + 200, "a length under 128 is one byte");
        let mut r: &[u8] = &w;
        assert_eq!(r.get_field(2), Ok(&b"ab"[..]));
        assert_eq!(r.get_field(200), Ok(&[7; 200][..]));
        // The cap is checked before the bytes are looked for.
        let mut r: &[u8] = &[0xFF, 0xFF, 0x03];
        assert_eq!(r.get_field(1024), Err(WireError::TooLarge));
        let mut r: &[u8] = &[3, b'a'];
        assert_eq!(r.get_field(8), Err(WireError::Truncated));
        let mut r: &[u8] = &[0x83];
        assert_eq!(r.get_field(8), Err(WireError::Truncated));
        let mut r: &[u8] = &[0x80; 11];
        assert_eq!(r.get_field(8), Err(WireError::Malformed));
    }

    #[test]
    fn u32_varints_refuse_wider_values() {
        let mut w = Vec::new();
        w.put_varint(u64::from(u32::MAX));
        w.put_varint(u64::from(u32::MAX) + 1);
        let mut r: &[u8] = &w;
        assert_eq!(r.get_varint_u32(), Ok(u32::MAX));
        assert_eq!(r.get_varint_u32(), Err(WireError::Malformed));
    }

    #[test]
    fn errors_display() {
        assert!(WireError::BadVersion(3).to_string().contains('3'));
        assert!(WireError::Truncated.to_string().contains("truncated"));
    }

    #[test]
    fn varint_roundtrips_and_sizes() {
        for (v, len) in [
            (0u64, 1),
            (127, 1),
            (128, 2),
            (1000, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::from(u32::MAX), 5),
            (u64::MAX, 10),
        ] {
            let mut w = Vec::new();
            w.put_varint(v);
            assert_eq!(w.len(), len, "{v}");
            let mut r: &[u8] = &w;
            assert_eq!(r.get_varint(), Ok(v));
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn varint_rejects_truncation_overlength_and_overflow() {
        let mut r: &[u8] = &[0x80, 0x80];
        assert_eq!(r.get_varint(), Err(WireError::Truncated));
        let mut r: &[u8] = &[];
        assert_eq!(r.get_varint(), Err(WireError::Truncated));
        // Eleven bytes: ten continuation bytes and a terminator.
        let mut eleven = vec![0x80u8; 10];
        eleven.push(0x00);
        let mut r: &[u8] = &eleven;
        assert_eq!(r.get_varint(), Err(WireError::Malformed));
        // Ten bytes whose last group sets bits past 63.
        let mut past = vec![0xFFu8; 9];
        past.push(0x02);
        let mut r: &[u8] = &past;
        assert_eq!(r.get_varint(), Err(WireError::Malformed));
    }

    #[test]
    fn sparse_word_is_two_bytes_for_any_one_byte_slot() {
        for shift in [0, 8, 16, 24] {
            let v = 0x3Fu32 << shift;
            let mut w = Vec::new();
            w.put_sparse_u32(v);
            assert_eq!(w.len(), 2, "{v:#x}");
            let mut r: &[u8] = &w;
            assert_eq!(r.get_sparse_u32(), Ok(v));
            assert_eq!(r.remaining(), 0);
        }
        for (v, len) in [(0u32, 1), (0x0102_0304, 5), (0x00FF_00FF, 3)] {
            let mut w = Vec::new();
            w.put_sparse_u32(v);
            assert_eq!(w.len(), len, "{v:#x}");
            let mut r: &[u8] = &w;
            assert_eq!(r.get_sparse_u32(), Ok(v));
        }
    }

    #[test]
    fn sparse_word_rejects_bad_masks_and_truncation() {
        let mut r: &[u8] = &[0x10];
        assert_eq!(r.get_sparse_u32(), Err(WireError::Malformed));
        let mut r: &[u8] = &[0x03, 0xAA];
        assert_eq!(r.get_sparse_u32(), Err(WireError::Truncated));
        let mut r: &[u8] = &[];
        assert_eq!(r.get_sparse_u32(), Err(WireError::Truncated));
    }
}
