//! Minimal in-tree byte-buffer utilities for wire codecs.
//!
//! A small subset of the familiar `bytes`-crate API — enough for the
//! little-endian datagram codecs in `coplay-sync`, `coplay-lobby` and
//! `coplay-relay` — implemented locally because the build environment is
//! offline, plus the two compact encodings of the sync input message:
//! LEB128 varints and sparse words (a presence mask, then the non-zero
//! bytes).
//!
//! Fixed-width reads are cursor-style over a plain `&[u8]` and are
//! **total**: a getter on a too-short slice drains it and returns zero
//! instead of panicking, so decoders stay panic-free on arbitrary bytes
//! even if a bounds check is missed. Decoders still gate correctness on
//! [`Buf::remaining`] (wrapped in their `need!` macros). The variable-
//! length reads cannot be length-checked up front, so they return a
//! [`ReadError`] instead.

use std::ops::Deref;
use std::sync::Arc;

/// Why a checked read ([`Buf::get_varint`], [`Buf::get_sparse_u32`])
/// failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The slice ended inside the value.
    Truncated,
    /// The bytes are not a value of the encoding: a varint longer than
    /// ten bytes or above `u64::MAX`, or a presence mask with bits above
    /// the fourth byte.
    Malformed,
}

/// Cursor-style reads from a shrinking `&[u8]`.
///
/// Each getter consumes its bytes from the front of the slice. All
/// reads are total: on underflow a getter drains the slice and returns
/// zero, so no input — however truncated or adversarial — can panic a
/// decoder. Callers that need to distinguish "read zero" from "ran
/// out" check [`remaining`](Buf::remaining) first (the codecs wrap
/// that in a `need!` macro) or use [`try_take`](Buf::try_take).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Skips `n` bytes (all remaining bytes if fewer are left).
    fn advance(&mut self, n: usize);
    /// Consumes `n` bytes and returns them, or `None` (consuming
    /// nothing) if fewer than `n` remain.
    fn try_take(&mut self, n: usize) -> Option<&[u8]>;
    /// Reads one byte (`0` on underflow).
    fn get_u8(&mut self) -> u8;
    /// Reads a little-endian `u16` (`0` on underflow).
    fn get_u16_le(&mut self) -> u16;
    /// Reads a little-endian `u32` (`0` on underflow).
    fn get_u32_le(&mut self) -> u32;
    /// Reads a little-endian `u64` (`0` on underflow).
    fn get_u64_le(&mut self) -> u64;
    /// Reads an unsigned LEB128 varint written by [`BufMut::put_varint`].
    ///
    /// # Errors
    ///
    /// [`ReadError::Truncated`] if the slice ends before the last byte,
    /// [`ReadError::Malformed`] if the varint runs past ten bytes or
    /// `u64::MAX`.
    fn get_varint(&mut self) -> Result<u64, ReadError>;
    /// Reads a word written by [`BufMut::put_sparse_u32`].
    ///
    /// # Errors
    ///
    /// [`ReadError::Truncated`] if a byte the mask announces is missing,
    /// [`ReadError::Malformed`] if the mask has bits above the fourth byte.
    fn get_sparse_u32(&mut self) -> Result<u32, ReadError>;
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
fn next_byte(cursor: &mut &[u8]) -> Result<u8, ReadError> {
    let (&byte, rest) = cursor.split_first().ok_or(ReadError::Truncated)?;
    *cursor = rest;
    Ok(byte)
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        let s = *self;
        *self = s.split_at_checked(n).map_or(&[], |(_, rest)| rest);
    }

    fn try_take(&mut self, n: usize) -> Option<&[u8]> {
        let s = *self;
        let (head, rest) = s.split_at_checked(n)?;
        *self = rest;
        Some(head)
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

    fn get_u16_le(&mut self) -> u16 {
        get_le!(self, u16)
    }

    fn get_u32_le(&mut self) -> u32 {
        get_le!(self, u32)
    }

    fn get_u64_le(&mut self) -> u64 {
        get_le!(self, u64)
    }

    #[inline]
    fn get_varint(&mut self) -> Result<u64, ReadError> {
        let mut v = 0u64;
        let mut shift = 0;
        // Ten groups of seven bits cover 64; the tenth may carry only bit 63.
        while shift < 64 {
            let byte = next_byte(self)?;
            let bits = u64::from(byte & 0x7F);
            if shift == 63 && bits > 1 {
                return Err(ReadError::Malformed);
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
        Err(ReadError::Malformed)
    }

    #[inline]
    fn get_sparse_u32(&mut self) -> Result<u32, ReadError> {
        let mask = next_byte(self)?;
        if mask > 0x0F {
            return Err(ReadError::Malformed);
        }
        let present = self
            .try_take(mask.count_ones() as usize)
            .ok_or(ReadError::Truncated)?;
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
    /// Appends a `u16` in little-endian order.
    fn put_u16_le(&mut self, v: u16);
    /// Appends a `u32` in little-endian order.
    fn put_u32_le(&mut self, v: u32);
    /// Appends a `u64` in little-endian order.
    fn put_u64_le(&mut self, v: u64);
    /// Appends a byte slice verbatim.
    fn put_slice(&mut self, src: &[u8]);
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

    fn put_u16_le(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
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

/// An immutable, cheaply clonable byte string (shared via `Arc`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// An empty byte string.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies a slice into a new shared byte string.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes {
            data: Arc::from(src),
        }
    }

    /// Wraps a static slice (copied once; the name mirrors the familiar
    /// constructor so call sites read the same).
    pub fn from_static(src: &'static [u8]) -> Self {
        Bytes::copy_from_slice(src)
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { data: Arc::from(v) }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut v = Vec::new();
        v.put_u8(0xAB);
        v.put_u16_le(0x0102);
        v.put_u32_le(0x0304_0506);
        v.put_u64_le(0x0708_090A_0B0C_0D0E);
        v.put_slice(b"xy");
        assert_eq!(v.len(), 17);

        let mut r: &[u8] = &v;
        assert_eq!(r.remaining(), 17);
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u16_le(), 0x0102);
        assert_eq!(r.get_u32_le(), 0x0304_0506);
        assert_eq!(r.get_u64_le(), 0x0708_090A_0B0C_0D0E);
        assert_eq!(r, b"xy");
        r.advance(2);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn underflow_drains_and_returns_zero() {
        let mut r: &[u8] = &[0x01];
        assert_eq!(r.get_u32_le(), 0, "one byte cannot make a u32");
        assert_eq!(r.remaining(), 0, "underflow drains the cursor");
        assert_eq!(r.get_u8(), 0);
        assert_eq!(r.get_u16_le(), 0);
        assert_eq!(r.get_u64_le(), 0);

        let mut r: &[u8] = &[1, 2, 3];
        r.advance(usize::MAX);
        assert_eq!(r.remaining(), 0, "oversized advance drains, not panics");
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
        assert_eq!(r.get_varint(), Err(ReadError::Truncated));
        let mut r: &[u8] = &[];
        assert_eq!(r.get_varint(), Err(ReadError::Truncated));
        // Eleven bytes: ten continuation bytes and a terminator.
        let mut eleven = vec![0x80u8; 10];
        eleven.push(0x00);
        let mut r: &[u8] = &eleven;
        assert_eq!(r.get_varint(), Err(ReadError::Malformed));
        // Ten bytes whose last group sets bits past 63.
        let mut past = vec![0xFFu8; 9];
        past.push(0x02);
        let mut r: &[u8] = &past;
        assert_eq!(r.get_varint(), Err(ReadError::Malformed));
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
        assert_eq!(r.get_sparse_u32(), Err(ReadError::Malformed));
        let mut r: &[u8] = &[0x03, 0xAA];
        assert_eq!(r.get_sparse_u32(), Err(ReadError::Truncated));
        let mut r: &[u8] = &[];
        assert_eq!(r.get_sparse_u32(), Err(ReadError::Truncated));
    }

    #[test]
    fn bytes_clone_shares_storage() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(&*a, &[1, 2, 3]);
        assert_eq!(Bytes::from_static(b"abc").len(), 3);
        assert!(Bytes::new().is_empty());
    }
}
