//! A zero-dependency XOR/RLE delta codec for machine-state snapshots.
//!
//! Consecutive checkpoints of a deterministic game differ in a handful of
//! bytes (positions, counters, the RNG word) while the bulk of the state —
//! RAM images, framebuffers, padding — repeats verbatim. The codec XORs the
//! new state against a base state and run-length encodes the zero runs, so
//! a typical inter-checkpoint delta is a small fraction of the full
//! snapshot. Both directions are allocation-free given caller buffers,
//! which is what lets the snapshot ring checkpoint every frame without
//! touching the heap.
//!
//! # Format
//!
//! ```text
//! delta := varint(new_len) op*
//! op    := varint(zero_run) varint(literal_len) literal_byte*
//! ```
//!
//! Ops tile `0..new_len` exactly. The implied base is the old state padded
//! with zeros (or truncated) to `new_len`, so states may grow or shrink
//! between checkpoints. A literal byte is the XOR of new against that
//! padded base; applying a delta XORs the literals back in place.
//!
//! Decoding validates every length field against the declared `new_len`
//! and the remaining input, so a truncated or corrupt delta is rejected
//! with a [`DeltaError`] instead of mis-restoring state.

use coplay_net::bytes::{Buf, BufMut, ReadError};
use coplay_vm::DirtyPages;
use std::error::Error;
use std::fmt;

/// Error applying a malformed delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta ended before its declared contents.
    Truncated,
    /// An op runs past the declared output length.
    Overrun,
    /// The ops do not cover the declared output length exactly.
    BadCoverage,
    /// A varint is longer than a `u64` allows.
    BadVarint,
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Truncated => write!(f, "delta truncated"),
            DeltaError::Overrun => write!(f, "delta op overruns the declared length"),
            DeltaError::BadCoverage => write!(f, "delta ops do not cover the output"),
            DeltaError::BadVarint => write!(f, "delta contains an oversized varint"),
        }
    }
}

impl Error for DeltaError {}

impl From<ReadError> for DeltaError {
    fn from(e: ReadError) -> DeltaError {
        match e {
            ReadError::Truncated => DeltaError::Truncated,
            ReadError::Malformed => DeltaError::BadVarint,
        }
    }
}

/// The byte of `base` underlying position `i` of the padded base.
#[inline]
fn base_byte(base: &[u8], i: usize) -> u8 {
    base.get(i).copied().unwrap_or(0)
}

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// Little-endian `u64` load of `s[i..i + 8]`. The scan loops bound `i`
/// so the window is always in range; a short window reads as 0 rather
/// than panicking.
#[inline(always)]
fn word_at(s: &[u8], i: usize) -> u64 {
    s.get(i..i + 8)
        .and_then(|w| w.try_into().ok())
        .map_or(0, u64::from_le_bytes)
}

/// Advances `i` past the run of bytes where `new` equals the padded base,
/// comparing eight bytes per iteration while both slices cover a full
/// word. Returns the first index that differs (or `new.len()`).
#[inline]
fn scan_zero_run(base: &[u8], new: &[u8], mut i: usize) -> usize {
    let word_end = base.len().min(new.len());
    while i + 8 <= word_end {
        let x = word_at(base, i) ^ word_at(new, i);
        if x == 0 {
            i += 8;
        } else {
            // Little-endian load: the lowest set bit sits in the first
            // differing byte.
            return i + (x.trailing_zeros() / 8) as usize;
        }
    }
    while i < new.len() && new[i] == base_byte(base, i) {
        i += 1;
    }
    i
}

/// Advances `i` past the run of bytes where `new` differs from the padded
/// base, eight bytes per iteration. Returns the first index that matches
/// (or `new.len()`).
#[inline]
fn scan_literal_run(base: &[u8], new: &[u8], mut i: usize) -> usize {
    let word_end = base.len().min(new.len());
    while i + 8 <= word_end {
        let x = word_at(base, i) ^ word_at(new, i);
        // Classic has-zero-byte trick: the flag of the *first* zero byte of
        // `x` is always the lowest set flag (higher flags may be spurious
        // from borrows, lower ones cannot be), so trailing_zeros finds the
        // first matching byte exactly.
        let z = x.wrapping_sub(LO) & !x & HI;
        if z == 0 {
            i += 8;
        } else {
            return i + (z.trailing_zeros() / 8) as usize;
        }
    }
    while i < new.len() && new[i] != base_byte(base, i) {
        i += 1;
    }
    i
}

/// Encodes `new` as a delta against `base` into `out` (cleared first).
///
/// `out`'s allocation is reused; steady-state encoding of same-shaped
/// states performs no heap allocation. Worst case (nothing repeats) the
/// delta is `new.len()` plus a few varint bytes. Run scanning is
/// word-at-a-time (eight bytes per compare) — the output is byte-identical
/// to a sequential byte scan, which the test suite asserts by fuzzing
/// against the reference scanner.
pub fn encode_into(base: &[u8], new: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.put_varint(new.len() as u64);
    let mut i = 0;
    while i < new.len() {
        // Count the zero run (bytes equal to the padded base).
        let zero_start = i;
        i = scan_zero_run(base, new, i);
        let zero_run = i - zero_start;
        // Count the literal run (bytes that differ).
        let lit_start = i;
        i = scan_literal_run(base, new, i);
        out.put_varint(zero_run as u64);
        out.put_varint((i - lit_start) as u64);
        for (j, &b) in new.iter().enumerate().take(i).skip(lit_start) {
            out.push(b ^ base_byte(base, j));
        }
    }
}

/// Encodes `new` against `base` like [`encode_into`], but skips the scan
/// entirely over pages `dirty` guarantees clean.
///
/// `dirty` must satisfy the capture contract: every byte where `new`
/// differs from the padded base lies inside a marked page (marked pages
/// that turn out equal are fine — they are scanned and folded into zero
/// runs). Under that contract the output is **byte-identical** to
/// [`encode_into`], because both scanners break runs at exactly the
/// equal/differ transitions: clean gaps only extend zero runs, which this
/// encoder accumulates across gaps before emitting. A saturated or
/// wrong-length bitmap degrades to the full scan.
pub fn encode_dirty_into(base: &[u8], new: &[u8], dirty: &DirtyPages, out: &mut Vec<u8>) {
    if dirty.is_all() || dirty.len() != new.len() {
        encode_into(base, new, out);
        return;
    }
    out.clear();
    out.put_varint(new.len() as u64);
    let mut zero_pending: usize = 0;
    let mut pos = 0;
    for (rs, re) in dirty.byte_ranges() {
        // The clean gap [pos, rs) is guaranteed equal to the padded base.
        zero_pending += rs - pos;
        let mut i = rs;
        while i < re {
            let zero_start = i;
            i = scan_zero_run(base, &new[..re], i);
            zero_pending += i - zero_start;
            if i >= re {
                break;
            }
            // A literal run always terminates at or before `re`: ranges
            // are maximal, so the byte at `re` (if any) is clean-gap and
            // equal to the base.
            let lit_start = i;
            i = scan_literal_run(base, &new[..re], i);
            out.put_varint(zero_pending as u64);
            out.put_varint((i - lit_start) as u64);
            for (j, &b) in new.iter().enumerate().take(i).skip(lit_start) {
                out.push(b ^ base_byte(base, j));
            }
            zero_pending = 0;
        }
        pos = re;
    }
    zero_pending += new.len() - pos;
    if zero_pending > 0 {
        out.put_varint(zero_pending as u64);
        out.put_varint(0);
    }
}

/// The original byte-at-a-time encoder, kept as the reference the
/// word-at-a-time scanner is fuzzed against.
#[cfg(test)]
pub(crate) fn encode_into_bytewise(base: &[u8], new: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.put_varint(new.len() as u64);
    let mut i = 0;
    while i < new.len() {
        let zero_start = i;
        while i < new.len() && new[i] == base_byte(base, i) {
            i += 1;
        }
        let zero_run = i - zero_start;
        let lit_start = i;
        while i < new.len() && new[i] != base_byte(base, i) {
            i += 1;
        }
        out.put_varint(zero_run as u64);
        out.put_varint((i - lit_start) as u64);
        for (j, &b) in new.iter().enumerate().take(i).skip(lit_start) {
            out.push(b ^ base_byte(base, j));
        }
    }
}

/// Applies a delta in place: `buf` holds the base state on entry and the
/// new state on success.
///
/// # Errors
///
/// Returns a [`DeltaError`] if the delta is truncated, overruns its
/// declared length, or fails to cover it; `buf` must then be considered
/// garbage (the snapshot ring discards it rather than restoring from it).
pub fn apply_in_place(buf: &mut Vec<u8>, mut delta: &[u8]) -> Result<(), DeltaError> {
    let new_len = delta.get_varint()? as usize;
    // The padded base: grow with zeros or truncate to the target length.
    buf.resize(new_len, 0);
    let mut i = 0;
    while i < new_len {
        let zero_run = delta.get_varint()? as usize;
        let lit_len = delta.get_varint()? as usize;
        i = i
            .checked_add(zero_run)
            .and_then(|v| v.checked_add(lit_len))
            .filter(|&end| end <= new_len)
            .map(|end| end - lit_len)
            .ok_or(DeltaError::Overrun)?;
        if delta.len() < lit_len {
            return Err(DeltaError::Truncated);
        }
        // Slice-zip so the XOR vectorizes; the Overrun check above
        // guarantees `i + lit_len <= new_len`.
        for (d, &s) in buf[i..i + lit_len].iter_mut().zip(&delta[..lit_len]) {
            *d ^= s;
        }
        i += lit_len;
        delta = &delta[lit_len..];
        // A zero literal run only terminates the delta (trailing zeros);
        // anywhere else it could not have been emitted by the encoder and
        // would loop forever on zero_run == 0.
        if lit_len == 0 && i < new_len && zero_run == 0 {
            return Err(DeltaError::BadCoverage);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(base: &[u8], new: &[u8]) -> Vec<u8> {
        let mut delta = Vec::new();
        encode_into(base, new, &mut delta);
        let mut buf = base.to_vec();
        apply_in_place(&mut buf, &delta).expect("self-produced delta applies");
        assert_eq!(buf, new, "base {base:?} -> new {new:?}");
        delta
    }

    #[test]
    fn identical_states_encode_to_almost_nothing() {
        let state = vec![7u8; 4096];
        let delta = roundtrip(&state, &state);
        assert!(delta.len() <= 6, "len {}", delta.len());
    }

    #[test]
    fn sparse_changes_stay_small() {
        let base = vec![0xAAu8; 65_536];
        let mut new = base.clone();
        new[17] ^= 1;
        new[40_000] = 0;
        new[65_535] = 3;
        let delta = roundtrip(&base, &new);
        assert!(delta.len() < 32, "len {}", delta.len());
    }

    #[test]
    fn growth_shrink_and_empty_roundtrip() {
        roundtrip(b"short", b"a much longer state vector");
        roundtrip(b"a much longer state vector", b"short");
        roundtrip(b"", b"fresh");
        roundtrip(b"old", b"");
        roundtrip(b"", b"");
    }

    #[test]
    fn worst_case_is_linear_with_small_overhead() {
        let base: Vec<u8> = (0..=255u8).collect();
        let new: Vec<u8> = (0..=255u8).map(|b| b ^ 0xFF).collect();
        let delta = roundtrip(&base, &new);
        assert!(delta.len() <= new.len() + 8, "len {}", delta.len());
    }

    #[test]
    fn truncated_delta_is_rejected() {
        let base = vec![1u8; 100];
        let mut new = base.clone();
        new[50] = 9;
        let mut delta = Vec::new();
        encode_into(&base, &new, &mut delta);
        for cut in 0..delta.len() {
            let mut buf = base.clone();
            assert!(
                apply_in_place(&mut buf, &delta[..cut]).is_err(),
                "prefix of {cut} bytes must not apply"
            );
        }
    }

    #[test]
    fn overrunning_ops_are_rejected() {
        // new_len = 4, then a zero run of 100.
        let mut delta = Vec::new();
        delta.put_varint(4);
        delta.put_varint(100);
        delta.put_varint(0);
        let mut buf = vec![0u8; 4];
        assert_eq!(apply_in_place(&mut buf, &delta), Err(DeltaError::Overrun));
        // Overflow-sized runs must not wrap around usize.
        let mut delta = Vec::new();
        delta.put_varint(4);
        delta.put_varint(u64::MAX);
        delta.put_varint(1);
        let mut buf = vec![0u8; 4];
        assert!(apply_in_place(&mut buf, &delta).is_err());
    }

    #[test]
    fn degenerate_empty_op_is_rejected() {
        // A (0, 0) op before the end would never terminate; the decoder
        // must reject it instead of spinning.
        let mut delta = Vec::new();
        delta.put_varint(2);
        delta.put_varint(0);
        delta.put_varint(0);
        let mut buf = vec![0u8; 2];
        assert_eq!(
            apply_in_place(&mut buf, &delta),
            Err(DeltaError::BadCoverage)
        );
    }

    #[test]
    fn oversized_varint_is_rejected() {
        let delta = [0xFFu8; 11];
        let mut buf = Vec::new();
        assert_eq!(apply_in_place(&mut buf, &delta), Err(DeltaError::BadVarint));
    }

    #[test]
    fn pseudorandom_states_roundtrip() {
        // Deterministic xorshift stream; no OS entropy.
        let mut x = 0x1234_5678_9ABC_DEFFu64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..50 {
            let base_len = (next() % 300) as usize;
            let new_len = (next() % 300) as usize;
            let base: Vec<u8> = (0..base_len).map(|_| next() as u8).collect();
            let mut new: Vec<u8> = base.iter().copied().take(new_len).collect();
            new.resize(new_len, 0);
            // Mutate a few positions.
            for _ in 0..(next() % 8) {
                if !new.is_empty() {
                    let i = (next() as usize) % new.len();
                    new[i] = next() as u8;
                }
            }
            roundtrip(&base, &new);
        }
    }

    #[test]
    fn word_scanner_matches_bytewise_reference() {
        // Deterministic fuzz over run structures that stress the word
        // loop: runs crossing 8-byte boundaries, runs shorter than a word,
        // length mismatches, and tails past the shorter slice.
        let mut x = 0x0F0F_1234_5678_9ABCu64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..200 {
            let base_len = (next() % 200) as usize;
            let new_len = (next() % 200) as usize;
            let base: Vec<u8> = (0..base_len).map(|_| next() as u8).collect();
            // Build `new` as alternating equal/differing runs of random
            // lengths so both scanners see every transition shape.
            let mut new = Vec::with_capacity(new_len);
            let mut differ = next() % 2 == 0;
            while new.len() < new_len {
                let run = 1 + (next() % 21) as usize;
                for _ in 0..run {
                    if new.len() == new_len {
                        break;
                    }
                    let i = new.len();
                    let b = base_byte(&base, i);
                    new.push(if differ {
                        b ^ (1 + (next() % 255) as u8)
                    } else {
                        b
                    });
                }
                differ = !differ;
            }

            let mut fast = Vec::new();
            let mut slow = Vec::new();
            encode_into(&base, &new, &mut fast);
            encode_into_bytewise(&base, &new, &mut slow);
            assert_eq!(fast, slow, "round {round}: encodings must be identical");

            let mut buf = base.clone();
            apply_in_place(&mut buf, &fast).expect("delta applies");
            assert_eq!(buf, new, "round {round}: roundtrip");
        }
    }

    #[test]
    fn word_scanner_handles_exact_word_boundaries() {
        // Runs that start/end exactly on 8-byte boundaries, and slices
        // that are exact multiples of the word size.
        let base = vec![5u8; 64];
        for (from, to) in [(0, 8), (8, 16), (8, 24), (0, 64), (56, 64), (7, 9)] {
            let mut new = base.clone();
            for b in &mut new[from..to] {
                *b ^= 0xFF;
            }
            let mut fast = Vec::new();
            let mut slow = Vec::new();
            encode_into(&base, &new, &mut fast);
            encode_into_bytewise(&base, &new, &mut slow);
            assert_eq!(fast, slow, "diff range {from}..{to}");
            let mut buf = base.clone();
            apply_in_place(&mut buf, &fast).unwrap();
            assert_eq!(buf, new);
        }
    }

    #[test]
    fn dirty_guided_encoder_is_byte_identical_to_full_scan() {
        // Deterministic fuzz: mutate random positions, build a dirty
        // bitmap that covers exactly the mutated pages plus random
        // false-positive pages, and require bit-identical output.
        let mut x = 0xD127_00FF_4321_8765u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..200 {
            let len = (next() % 4000) as usize;
            let base: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let mut new = base.clone();
            let mut dirty = DirtyPages::new(len);
            for _ in 0..(next() % 12) {
                if new.is_empty() {
                    break;
                }
                let at = (next() as usize) % new.len();
                let run = 1 + (next() % 40) as usize;
                let end = (at + run).min(new.len());
                for b in &mut new[at..end] {
                    // May write the same value back — the page is then a
                    // marked false positive the encoder must tolerate.
                    *b = next() as u8;
                }
                dirty.mark_range(at, end - at);
            }
            for _ in 0..(next() % 4) {
                if len > 0 {
                    dirty.mark((next() as usize) % len); // pure false positive
                }
            }

            let mut guided = Vec::new();
            let mut full = Vec::new();
            encode_dirty_into(&base, &new, &dirty, &mut guided);
            encode_into(&base, &new, &mut full);
            assert_eq!(guided, full, "round {round}: encodings must be identical");

            let mut buf = base.clone();
            apply_in_place(&mut buf, &guided).expect("delta applies");
            assert_eq!(buf, new, "round {round}: roundtrip");
        }

        // Saturated and wrong-length bitmaps fall back to the full scan.
        let base = vec![1u8; 100];
        let mut new = base.clone();
        new[50] = 9;
        let mut full = Vec::new();
        encode_into(&base, &new, &mut full);
        let mut out = Vec::new();
        encode_dirty_into(&base, &new, &DirtyPages::all_dirty(100), &mut out);
        assert_eq!(out, full);
        encode_dirty_into(&base, &new, &DirtyPages::new(7), &mut out);
        assert_eq!(out, full);
        // Length changes always come with a mismatching bitmap.
        encode_dirty_into(&base, &new[..60], &DirtyPages::new(100), &mut out);
        encode_into(&base, &new[..60], &mut full);
        assert_eq!(out, full);
    }

    #[test]
    fn errors_display() {
        assert!(DeltaError::Truncated.to_string().contains("truncated"));
        assert!(DeltaError::Overrun.to_string().contains("overrun"));
        assert!(DeltaError::BadCoverage.to_string().contains("cover"));
        assert!(DeltaError::BadVarint.to_string().contains("varint"));
    }
}
