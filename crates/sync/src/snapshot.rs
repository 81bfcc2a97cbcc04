//! A bounded ring of state checkpoints for rollback.
//!
//! The session saves a checkpoint before every frame it executes; on a
//! misprediction it restores the checkpoint before the mispredicted frame
//! and resimulates forward from there, so frames that were predicted right
//! before it are never replayed. The ring's capacity is sized so that the
//! whole speculation window stays checkpointed (see
//! [`SnapshotRing::capacity_for`]): one full image plus `window + 1`
//! dirty back-patches.
//!
//! # Storage: one full tail + chained back-deltas
//!
//! Storing every checkpoint as a full `save_state` copy costs
//! `capacity × state_size` bytes and a full memcpy per checkpoint.
//! Consecutive checkpoints of a deterministic game are nearly identical,
//! so the ring keeps exactly one full image — `tail_full`, the *newest*
//! checkpoint — and stores every older slot as a *back-delta*: an XOR/RLE
//! patch (see [`crate::delta`]) that transforms a slot's own state into
//! the previous (older) slot's state. Restoring frame `k` copies the tail
//! and applies back-deltas newest-first until the walk reaches `k`.
//!
//! Pointing the chain backwards has two payoffs over the older
//! keyframe-plus-forward-delta layout:
//!
//! * **Push is O(dirty).** A new checkpoint encodes against the previous
//!   tail, and [`SnapshotRing::push_dirty`] narrows that scan to the byte
//!   ranges a [`DirtyPages`] bitmap says may have changed — no keyframe
//!   cadence ever forces an 84 KiB memcpy back into the hot path.
//! * **Eviction is O(1).** The oldest slot's back-delta points *out of*
//!   the ring (to a state nobody retains), so eviction just recycles its
//!   buffer — no promotion step re-applying deltas.
//!
//! Each slot also retains its dirty bitmap. A rollback via
//! [`SnapshotRing::rewind_into`] unions the bitmaps of every slot it pops,
//! yielding (by the triangle inequality on byte diffs) a sound
//! over-approximation of which pages differ between the machine's present
//! state and the restore target — so `Machine::load_state_dirty` touches
//! only those pages.
//!
//! All slot buffers and bitmaps cycle through pools, so the steady-state
//! checkpoint path allocates nothing.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use coplay_vm::{DirtyPages, Machine};

use crate::delta::{self, DeltaError};
use crate::pool::{BufferPool, PoolStats};

/// Which patch format a slot's `data` holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PatchKind {
    /// XOR/RLE back-delta (see [`crate::delta`]); self-describing, may
    /// change the state length.
    Delta,
    /// The previous state's raw bytes over the slot's dirty ranges,
    /// concatenated in range order — applied by memcpy alone, no decode
    /// scan. Produced only by [`SnapshotRing::checkpoint_from`]'s hot
    /// path, where both states have the same length.
    Ranges,
}

#[derive(Debug)]
struct Slot {
    frame: u64,
    hash: u64,
    /// Back-patch: applied to *this* slot's full state it yields the
    /// previous (older) slot's full state. The oldest slot's patch
    /// targets a state the ring no longer retains and is never applied.
    data: Vec<u8>,
    /// How to interpret `data`.
    kind: PatchKind,
    /// Pages that may differ between this slot's state and the previous
    /// slot's state (superset of the bytes `data` touches; for
    /// [`PatchKind::Ranges`] it *is* the patch's range list).
    dirty: DirtyPages,
}

impl Slot {
    /// Applies this slot's back-patch to `buf`, turning this slot's state
    /// into the previous slot's state.
    fn apply(&self, buf: &mut Vec<u8>) -> Result<(), RestoreError> {
        match self.kind {
            PatchKind::Delta => Ok(delta::apply_in_place(buf, &self.data)?),
            PatchKind::Ranges => apply_ranges(buf, &self.data, &self.dirty),
        }
    }
}

/// Applies a raw-range back-patch: `data` holds the previous state's bytes
/// over `dirty`'s ranges, concatenated in range order.
fn apply_ranges(buf: &mut [u8], data: &[u8], dirty: &DirtyPages) -> Result<(), RestoreError> {
    if dirty.len() != buf.len() {
        // A range patch never changes the state length; disagreement
        // means the slot is corrupt.
        return Err(RestoreError::Delta(DeltaError::Overrun));
    }
    let mut off = 0;
    for (s, e) in dirty.byte_ranges() {
        let src = data
            .get(off..off + (e - s))
            .ok_or(RestoreError::Delta(DeltaError::Truncated))?;
        buf[s..e].copy_from_slice(src);
        off += e - s;
    }
    if off != data.len() {
        return Err(RestoreError::Delta(DeltaError::BadCoverage));
    }
    Ok(())
}

/// What [`SnapshotRing::checkpoint_from`] captured, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Full serialized length of the captured state.
    pub state_len: usize,
    /// Bytes the ring stored for this checkpoint (the back-patch, or the
    /// full image for the first checkpoint).
    pub stored_bytes: usize,
    /// Bytes of the image the capture rewrote (sum of the dirty ranges).
    pub dirty_bytes: usize,
    /// Pages the machine reported dirty since the previous capture.
    pub dirty_pages: usize,
}

/// Metadata for a checkpoint served by [`SnapshotRing::restore_into`] or
/// [`SnapshotRing::rewind_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// The frame this state precedes: restoring it positions the machine
    /// to execute `frame` next.
    pub frame: u64,
    /// `Machine::state_hash` at capture time — callers verify the restored
    /// machine reproduces it.
    pub hash: u64,
    /// Bytes the ring stores for this checkpoint (its back-delta; the
    /// newest slot's full image lives in the shared tail and is counted
    /// by [`SnapshotRing::bytes`]).
    pub stored_bytes: usize,
}

/// Error restoring a checkpoint from the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// No retained checkpoint is at or before the requested frame.
    NoCheckpoint {
        /// The requested rollback frame.
        frame: u64,
    },
    /// A stored delta failed to apply (corrupt slot).
    Delta(DeltaError),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::NoCheckpoint { frame } => {
                write!(f, "no rollback checkpoint at or before frame {frame}")
            }
            RestoreError::Delta(e) => write!(f, "checkpoint delta corrupt: {e}"),
        }
    }
}

impl Error for RestoreError {}

impl From<DeltaError> for RestoreError {
    fn from(e: DeltaError) -> RestoreError {
        RestoreError::Delta(e)
    }
}

/// Compression statistics accumulated across every push.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompressionStats {
    /// Total full-state bytes offered to the ring.
    pub full_bytes: u64,
    /// Total bytes actually stored (the first push's full tail copy plus
    /// every subsequent back-delta).
    pub stored_bytes: u64,
}

impl CompressionStats {
    /// Full-to-stored ratio in thousandths: 4000 means checkpoints average
    /// 4× smaller than full copies; 1000 when nothing was pushed. Integer
    /// so the deterministic core stays float-free.
    pub fn ratio_milli(&self) -> u64 {
        self.full_bytes
            .saturating_mul(1000)
            .checked_div(self.stored_bytes)
            .unwrap_or(1000)
    }
}

/// A bounded FIFO of checkpoints ordered by frame, stored as one full
/// newest-state image plus chained back-deltas over pooled buffers.
#[derive(Debug)]
pub struct SnapshotRing {
    slots: VecDeque<Slot>,
    capacity: usize,
    /// Full state of the newest checkpoint — the base every restore walk
    /// starts from and the reference the next push diffs against.
    tail_full: Vec<u8>,
    pool: BufferPool,
    /// Recycled dirty bitmaps, bounded like the buffer pool.
    dirty_pool: Vec<DirtyPages>,
    stats: CompressionStats,
}

impl SnapshotRing {
    /// Creates a ring retaining at most `capacity` checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a rollback session without any
    /// checkpoint cannot repair a misprediction.
    pub fn new(capacity: usize) -> SnapshotRing {
        assert!(capacity > 0, "snapshot ring needs at least one slot");
        SnapshotRing {
            // detlint: allow(hot_alloc) -- one-time constructor allocation, not per-frame
            slots: VecDeque::with_capacity(capacity),
            capacity,
            // detlint: allow(hot_alloc) -- grows once to state size, then reused
            tail_full: Vec::new(),
            // One buffer per slot plus the one in flight during a push.
            pool: BufferPool::new(capacity + 1),
            // detlint: allow(hot_alloc) -- one-time constructor allocation, not per-frame
            dirty_pool: Vec::with_capacity(capacity + 1),
            stats: CompressionStats::default(),
        }
    }

    /// The capacity that guarantees a restore point for any rollback within
    /// `max_rollback_frames`, with checkpoints every `checkpoint_interval`
    /// frames: the window spans at most `window / interval` checkpoints,
    /// plus one for the partially-covered oldest edge and one in flight.
    /// The session checkpoints every frame (interval 1): `window + 2`.
    pub fn capacity_for(max_rollback_frames: u64, checkpoint_interval: u64) -> usize {
        let interval = checkpoint_interval.max(1);
        (max_rollback_frames / interval) as usize + 2
    }

    fn take_dirty_buf(&mut self) -> DirtyPages {
        self.dirty_pool.pop().unwrap_or_default()
    }

    fn give_dirty_buf(&mut self, d: DirtyPages) {
        if self.dirty_pool.len() < self.capacity + 1 {
            self.dirty_pool.push(d);
        }
    }

    /// Appends a checkpoint, evicting the oldest when full.
    ///
    /// `state` is borrowed, not consumed: callers capture into a reusable
    /// buffer (`Machine::save_state_into`) and the ring copies into pooled
    /// storage. This full-scan variant diffs every byte of `state` against
    /// the previous checkpoint; prefer [`SnapshotRing::push_dirty`] when a
    /// dirty bitmap is available.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not strictly greater than the newest retained
    /// frame — checkpoints must arrive in execution order.
    pub fn push(&mut self, frame: u64, state: &[u8], hash: u64) {
        self.push_dirty(frame, state, hash, &DirtyPages::all_dirty(state.len()));
    }

    /// Appends a checkpoint like [`SnapshotRing::push`], but restricts the
    /// diff scan and the tail update to the byte ranges `dirty` marks.
    ///
    /// `dirty` must be a sound over-approximation of the bytes where
    /// `state` differs from the *previously pushed* state (extra marked
    /// pages cost only scan time; missing ones corrupt restores). A
    /// saturated bitmap or one whose length disagrees with `state`
    /// degrades to the full scan, so callers without tracking stay
    /// correct.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not strictly greater than the newest retained
    /// frame — checkpoints must arrive in execution order.
    pub fn push_dirty(&mut self, frame: u64, state: &[u8], hash: u64, dirty: &DirtyPages) {
        if let Some(newest) = self.newest_frame() {
            assert!(frame > newest, "checkpoints must be pushed in order");
        }
        if self.slots.len() == self.capacity {
            self.evict_front();
        }
        let mut data = self.pool.take();
        let mut slot_dirty = self.take_dirty_buf();
        if self.slots.is_empty() {
            // First checkpoint: the full image lives in the tail; the
            // slot's back-delta targets nothing and stays empty.
            data.clear();
            self.tail_full.clear();
            self.tail_full.extend_from_slice(state);
            slot_dirty.reset(state.len());
            slot_dirty.mark_all();
            self.stats.stored_bytes += state.len() as u64;
        } else {
            // Back-delta: applying it to `state` must yield the old tail.
            delta::encode_dirty_into(state, &self.tail_full, dirty, &mut data);
            self.stats.stored_bytes += data.len() as u64;
            if dirty.len() == state.len() && self.tail_full.len() == state.len() {
                slot_dirty.copy_from(dirty);
                for (s, e) in dirty.byte_ranges() {
                    self.tail_full[s..e].copy_from_slice(&state[s..e]);
                }
            } else {
                slot_dirty.reset(state.len());
                slot_dirty.mark_all();
                self.tail_full.clear();
                self.tail_full.extend_from_slice(state);
            }
        }
        self.stats.full_bytes += state.len() as u64;
        self.slots.push_back(Slot {
            frame,
            hash,
            data,
            kind: PatchKind::Delta,
            dirty: slot_dirty,
        });
    }

    /// Captures a checkpoint directly from `machine` into the ring — the
    /// zero-copy successor to capture-into-a-buffer-then-
    /// [`push_dirty`](SnapshotRing::push_dirty). The machine's dirty
    /// accumulators are drained once; the tail bytes those ranges are
    /// about to overwrite are saved as a raw [`PatchKind::Ranges`]
    /// back-patch; then the machine writes its new bytes straight into
    /// the tail. Both directions are pure memcpy — no XOR/RLE scan runs
    /// on this path, and no intermediate full-image buffer exists.
    ///
    /// Falls back to a full capture when the ring is empty (the first
    /// checkpoint stores the full image) and to an XOR/RLE back-delta
    /// when the dirty set spans at least half the image or the state
    /// length changed — there the encode scan earns its cost by
    /// collapsing unchanged bytes inside the marked ranges.
    ///
    /// `hash` is the machine's `state_hash()` at capture time, passed in
    /// so the ring stays agnostic of hashing policy.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not strictly greater than the newest retained
    /// frame — checkpoints must arrive in execution order.
    pub fn checkpoint_from<M: Machine + ?Sized>(
        &mut self,
        frame: u64,
        hash: u64,
        machine: &mut M,
    ) -> CheckpointReport {
        if let Some(newest) = self.newest_frame() {
            assert!(frame > newest, "checkpoints must be pushed in order");
        }
        if self.slots.len() == self.capacity {
            self.evict_front();
        }
        let mut data = self.pool.take();
        let mut slot_dirty = self.take_dirty_buf();
        machine.collect_dirty_into(&mut slot_dirty);
        // Popcount approximation of the dirty volume (exact to within the
        // final page's clamp) — enough for the path decision and far
        // cheaper than walking the ranges twice.
        let dirty_pages = slot_dirty.count_pages();
        let dirty_bytes;
        let kind;
        if self.slots.is_empty() {
            // First checkpoint: the full image lives in the tail; the
            // slot's back-patch targets nothing and stays empty.
            machine.save_state_into(&mut self.tail_full);
            slot_dirty.reset(self.tail_full.len());
            slot_dirty.mark_all();
            self.stats.stored_bytes += self.tail_full.len() as u64;
            dirty_bytes = self.tail_full.len();
            kind = PatchKind::Delta;
        } else if slot_dirty.len() == self.tail_full.len()
            && dirty_pages * coplay_vm::DIRTY_PAGE_SIZE * 2 < self.tail_full.len()
        {
            // Hot path: memcpy the soon-overwritten tail bytes out as the
            // back-patch, then let the machine rewrite exactly those
            // ranges in place.
            for (s, e) in slot_dirty.byte_ranges() {
                data.extend_from_slice(&self.tail_full[s..e]);
            }
            machine.save_state_ranges_into(&mut self.tail_full, &slot_dirty);
            self.stats.stored_bytes += data.len() as u64;
            dirty_bytes = data.len();
            kind = PatchKind::Ranges;
        } else {
            // Wide or resized dirty set: capture in full and store an
            // XOR/RLE delta, which compresses far below the ranges' raw
            // size when most marked bytes did not actually change.
            let old = std::mem::replace(&mut self.tail_full, self.pool.take());
            machine.save_state_into(&mut self.tail_full);
            if slot_dirty.len() == self.tail_full.len() && slot_dirty.len() == old.len() {
                delta::encode_dirty_into(&self.tail_full, &old, &slot_dirty, &mut data);
            } else {
                delta::encode_into(&self.tail_full, &old, &mut data);
                slot_dirty.reset(self.tail_full.len());
                slot_dirty.mark_all();
            }
            self.pool.give(old);
            self.stats.stored_bytes += data.len() as u64;
            dirty_bytes = slot_dirty.byte_ranges().map(|(s, e)| e - s).sum();
            kind = PatchKind::Delta;
        }
        self.stats.full_bytes += self.tail_full.len() as u64;
        let report = CheckpointReport {
            state_len: self.tail_full.len(),
            stored_bytes: if self.slots.is_empty() {
                self.tail_full.len()
            } else {
                data.len()
            },
            dirty_bytes,
            dirty_pages: slot_dirty.count_pages(),
        };
        self.slots.push_back(Slot {
            frame,
            hash,
            data,
            kind,
            dirty: slot_dirty,
        });
        report
    }

    /// Serialized length of the newest checkpoint's state (0 when the
    /// ring is empty).
    pub fn state_len(&self) -> usize {
        self.tail_full.len()
    }

    /// Drops the oldest slot. Its back-delta points at a state the ring no
    /// longer retains, so nothing needs re-encoding — both buffers are
    /// simply recycled.
    fn evict_front(&mut self) {
        if let Some(front) = self.slots.pop_front() {
            self.pool.give(front.data);
            self.give_dirty_buf(front.dirty);
        }
    }

    /// Index of the most recent slot at or before `frame`.
    fn floor_index(&self, frame: u64) -> Option<usize> {
        (0..self.slots.len())
            .rev()
            .find(|&i| self.slots[i].frame <= frame)
    }

    /// Reconstructs the most recent checkpoint at or before `frame` into
    /// `out` (cleared first; allocation reused across rollbacks) and
    /// returns its metadata. The ring is not modified; the walk copies the
    /// tail and applies every newer slot's back-delta.
    ///
    /// # Errors
    ///
    /// [`RestoreError::NoCheckpoint`] if no retained checkpoint is old
    /// enough; [`RestoreError::Delta`] if a stored delta is corrupt (the
    /// state in `out` is then garbage and must not be loaded).
    pub fn restore_into(
        &self,
        frame: u64,
        out: &mut Vec<u8>,
    ) -> Result<CheckpointInfo, RestoreError> {
        let idx = self
            .floor_index(frame)
            .ok_or(RestoreError::NoCheckpoint { frame })?;
        out.clear();
        out.extend_from_slice(&self.tail_full);
        for i in (idx + 1..self.slots.len()).rev() {
            self.slots[i].apply(out)?;
        }
        let slot = &self.slots[idx];
        Ok(CheckpointInfo {
            frame: slot.frame,
            hash: slot.hash,
            stored_bytes: slot.data.len(),
        })
    }

    /// Rolls the ring back to the most recent checkpoint at or before
    /// `frame`, writing that state's changed byte ranges into `out` and
    /// the union of every popped slot's dirty pages into `dirty`.
    ///
    /// This is the hot rollback path: it combines
    /// [`SnapshotRing::restore_into`] and [`SnapshotRing::discard_after`]
    /// while touching only O(dirty) bytes. On entry `dirty` should hold
    /// the machine's own accumulated dirty pages (covering how the live
    /// state has drifted from the newest checkpoint); on return it
    /// over-approximates every byte where the machine's present state
    /// differs from the restore target, and `out` holds valid target-state
    /// bytes *at least* in those ranges. Callers pass both straight to
    /// `Machine::load_state_dirty`.
    ///
    /// If `out` or `dirty` disagree with the checkpoint length (first
    /// rollback, or the game resized its state) both degrade to a full
    /// copy with a saturated bitmap.
    ///
    /// # Errors
    ///
    /// [`RestoreError::NoCheckpoint`] if no retained checkpoint is old
    /// enough — the ring is then left unmodified. [`RestoreError::Delta`]
    /// if a stored delta is corrupt; the ring's tail is then garbage and
    /// the session must fall back to a fresh full checkpoint.
    pub fn rewind_into(
        &mut self,
        frame: u64,
        out: &mut Vec<u8>,
        dirty: &mut DirtyPages,
    ) -> Result<CheckpointInfo, RestoreError> {
        let idx = self
            .floor_index(frame)
            .ok_or(RestoreError::NoCheckpoint { frame })?;
        if dirty.len() != self.tail_full.len() {
            dirty.reset(self.tail_full.len());
            dirty.mark_all();
        }
        while self.slots.len() > idx + 1 {
            if let Some(slot) = self.slots.pop_back() {
                dirty.union(&slot.dirty);
                slot.apply(&mut self.tail_full)?;
                self.pool.give(slot.data);
                self.give_dirty_buf(slot.dirty);
            }
        }
        // Popping back-deltas can change the tail length (a resize between
        // checkpoints); `union` already saturated `dirty` in that case but
        // its recorded length must match what `out` receives.
        if dirty.len() != self.tail_full.len() {
            dirty.reset(self.tail_full.len());
            dirty.mark_all();
        }
        if out.len() == self.tail_full.len() {
            for (s, e) in dirty.byte_ranges() {
                out[s..e].copy_from_slice(&self.tail_full[s..e]);
            }
        } else {
            dirty.mark_all();
            out.clear();
            out.extend_from_slice(&self.tail_full);
        }
        // detlint: allow(panic_path) -- floor_index returned idx, so the slot exists
        let slot = self.slots.back().expect("floor slot survives the rewind");
        Ok(CheckpointInfo {
            frame: slot.frame,
            hash: slot.hash,
            stored_bytes: slot.data.len(),
        })
    }

    /// Discards checkpoints newer than `frame` — they were computed from a
    /// state a rollback is about to rewrite — rolling the tail image back
    /// to the newest survivor by applying the popped back-deltas.
    pub fn discard_after(&mut self, frame: u64) {
        while self.slots.back().is_some_and(|s| s.frame > frame) {
            if let Some(slot) = self.slots.pop_back() {
                if self.slots.is_empty() {
                    self.tail_full.clear();
                } else {
                    slot.apply(&mut self.tail_full)
                        // detlint: allow(panic_path) -- patch was produced by this ring against this base
                        .expect("self-produced checkpoint patch applies");
                }
                self.pool.give(slot.data);
                self.give_dirty_buf(slot.dirty);
            }
        }
    }

    /// Number of retained checkpoints.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if no checkpoint is retained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Frame of the newest retained checkpoint.
    pub fn newest_frame(&self) -> Option<u64> {
        self.slots.back().map(|s| s.frame)
    }

    /// Frame of the oldest retained checkpoint.
    pub fn oldest_frame(&self) -> Option<u64> {
        self.slots.front().map(|s| s.frame)
    }

    /// Total bytes currently retained — stored back-deltas plus the single
    /// full newest-state image (memory accounting).
    pub fn bytes(&self) -> usize {
        self.slots.iter().map(|s| s.data.len()).sum::<usize>() + self.tail_full.len()
    }

    /// Cumulative full-vs-stored compression statistics.
    pub fn compression(&self) -> CompressionStats {
        self.stats
    }

    /// Cumulative buffer-pool reuse statistics.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }
}

impl Default for SnapshotRing {
    /// A ring sized for the default session envelope (30-frame speculation
    /// window, checkpoint every frame) via [`SnapshotRing::capacity_for`] —
    /// the same invariant the session constructor applies, so a `Default`
    /// ring can actually cover a rollback window instead of thrashing a
    /// single slot.
    fn default() -> SnapshotRing {
        SnapshotRing::new(SnapshotRing::capacity_for(30, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic ~1 KiB state that changes sparsely per frame, like
    /// a real machine snapshot.
    fn state_for(frame: u64) -> Vec<u8> {
        let mut s = vec![0xA5u8; 1024];
        s[0..8].copy_from_slice(&frame.to_le_bytes());
        let hot = ((frame as usize).wrapping_mul(97)) % 1000;
        s[hot] = frame as u8;
        s[hot + 13] ^= 0x3C;
        s
    }

    /// Exact dirty bitmap for the transition `prev -> next`.
    fn dirty_between(prev: &[u8], next: &[u8]) -> DirtyPages {
        let mut d = DirtyPages::new(next.len());
        if prev.len() != next.len() {
            d.mark_all();
            return d;
        }
        for (i, (a, b)) in prev.iter().zip(next).enumerate() {
            if a != b {
                d.mark(i);
            }
        }
        d
    }

    fn ring_with(frames: &[u64]) -> SnapshotRing {
        let mut r = SnapshotRing::new(8);
        for &f in frames {
            r.push(f, &state_for(f), f * 10);
        }
        r
    }

    #[test]
    fn push_evicts_oldest_at_capacity() {
        let mut r = SnapshotRing::new(2);
        r.push(0, &[0], 0);
        r.push(5, &[5], 50);
        r.push(10, &[10], 100);
        assert_eq!(r.len(), 2);
        assert_eq!(r.oldest_frame(), Some(5));
        assert_eq!(r.newest_frame(), Some(10));
    }

    #[test]
    fn restore_picks_the_floor_checkpoint() {
        let r = ring_with(&[0, 5, 10, 15]);
        let mut buf = Vec::new();
        assert_eq!(r.restore_into(12, &mut buf).unwrap().frame, 10);
        assert_eq!(buf, state_for(10));
        assert_eq!(r.restore_into(10, &mut buf).unwrap().frame, 10);
        let info = r.restore_into(4, &mut buf).unwrap();
        assert_eq!((info.frame, info.hash), (0, 0));
        assert_eq!(buf, state_for(0));
        assert_eq!(
            ring_with(&[5]).restore_into(4, &mut buf),
            Err(RestoreError::NoCheckpoint { frame: 4 })
        );
    }

    #[test]
    fn every_slot_restores_bit_identically() {
        // Capacity 8 over 20 pushes: every restore walks back-deltas
        // across several evictions.
        let mut r = SnapshotRing::new(8);
        for f in 0..20 {
            r.push(f, &state_for(f), f);
        }
        let mut buf = Vec::new();
        for f in 12..20 {
            let info = r.restore_into(f, &mut buf).unwrap();
            assert_eq!(info.frame, f);
            assert_eq!(buf, state_for(f), "frame {f}");
        }
    }

    #[test]
    fn dirty_guided_push_matches_full_scan_push() {
        // A ring fed exact dirty bitmaps must be observationally identical
        // to one fed saturated bitmaps (the full-scan reference), including
        // across evictions and a mid-run discard_after.
        let mut full = SnapshotRing::new(6);
        let mut guided = SnapshotRing::new(6);
        let mut prev = Vec::new();
        let push_all =
            |full: &mut SnapshotRing, guided: &mut SnapshotRing, prev: &mut Vec<u8>, f: u64| {
                let s = state_for(f);
                let d = dirty_between(prev, &s);
                full.push(f, &s, f);
                guided.push_dirty(f, &s, f, &d);
                *prev = s;
            };
        for f in 0..17 {
            push_all(&mut full, &mut guided, &mut prev, f);
        }
        full.discard_after(13);
        guided.discard_after(13);
        prev = state_for(13); // newest survivor is the next diff base
        for f in 14..30 {
            push_all(&mut full, &mut guided, &mut prev, f);
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for f in 24..30 {
            let fa = full.restore_into(f, &mut a).unwrap();
            let fb = guided.restore_into(f, &mut b).unwrap();
            assert_eq!((fa.frame, fa.hash), (fb.frame, fb.hash), "frame {f}");
            assert_eq!(a, b, "frame {f}");
            assert_eq!(a, state_for(f), "frame {f}");
        }
        assert_eq!(
            full.compression(),
            guided.compression(),
            "guided encoding must emit byte-identical deltas"
        );
    }

    #[test]
    fn rewind_restores_and_reports_the_dirty_union() {
        let mut r = SnapshotRing::new(8);
        let mut prev = Vec::new();
        for f in 0..6 {
            let s = state_for(f);
            let d = dirty_between(&prev, &s);
            r.push_dirty(f, &s, f * 10, &d);
            prev = s;
        }
        // The machine drifted from checkpoint 5; its accumulator says so.
        let live = state_for(9);
        let mut dirty = dirty_between(&state_for(5), &live);
        let mut out = live.clone(); // restore buffer holds the stale image
        let info = r.rewind_into(2, &mut out, &mut dirty).unwrap();
        assert_eq!((info.frame, info.hash), (2, 20));
        assert_eq!(r.newest_frame(), Some(2), "newer slots are discarded");
        assert_eq!(r.len(), 3);
        // Every byte where `live` and the target differ must be both
        // marked dirty and correctly restored in `out`.
        let target = state_for(2);
        let marked: Vec<(usize, usize)> = dirty.byte_ranges().collect();
        for i in 0..target.len() {
            let covered = marked.iter().any(|&(s, e)| s <= i && i < e);
            if covered {
                assert_eq!(out[i], target[i], "byte {i} restored");
            } else {
                assert_eq!(live[i], target[i], "byte {i} must not differ unmarked");
            }
        }
        // The ring keeps working after the rewind: its tail re-based onto
        // frame 2, so the next push diffs against it.
        let next = state_for(3);
        r.push_dirty(3, &next, 30, &dirty_between(&target, &next));
        let mut buf = Vec::new();
        r.restore_into(3, &mut buf).unwrap();
        assert_eq!(buf, next);
    }

    #[test]
    fn rewind_without_floor_leaves_the_ring_untouched() {
        let mut r = ring_with(&[5, 10]);
        let mut out = Vec::new();
        let mut dirty = DirtyPages::new(0);
        assert_eq!(
            r.rewind_into(4, &mut out, &mut dirty),
            Err(RestoreError::NoCheckpoint { frame: 4 })
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.newest_frame(), Some(10));
    }

    #[test]
    fn rewind_with_mismatched_buffers_degrades_to_full_copy() {
        let mut r = ring_with(&[0, 5, 10]);
        let mut out = Vec::new(); // wrong length: forces the full path
        let mut dirty = DirtyPages::new(0); // wrong length: saturates
        let info = r.rewind_into(7, &mut out, &mut dirty).unwrap();
        assert_eq!(info.frame, 5);
        assert_eq!(out, state_for(5));
        assert!(dirty.is_all());
        assert_eq!(dirty.len(), out.len());
    }

    #[test]
    fn discard_after_drops_invalidated_checkpoints_and_rebases() {
        let mut r = ring_with(&[0, 5, 10, 15]);
        r.discard_after(7);
        assert_eq!(r.newest_frame(), Some(5));
        assert_eq!(r.len(), 2);
        // New deltas encode against the surviving frame-5 state; restores
        // after the discard must still be exact.
        r.push(8, &state_for(8), 80);
        let mut buf = Vec::new();
        r.restore_into(8, &mut buf).unwrap();
        assert_eq!(buf, state_for(8));
        // Discarding at an exact checkpoint frame keeps it.
        let mut r = ring_with(&[0, 5, 10]);
        r.discard_after(10);
        assert_eq!(r.newest_frame(), Some(10));
        // Discarding everything empties the ring and clears the tail.
        r.discard_after(0);
        assert_eq!(r.newest_frame(), Some(0));
        let mut r = ring_with(&[5, 10]);
        r.discard_after(3);
        assert!(r.is_empty());
        assert_eq!(r.bytes(), 0);
        r.push(4, &state_for(4), 40);
        r.restore_into(4, &mut buf).unwrap();
        assert_eq!(buf, state_for(4));
    }

    #[test]
    fn compression_beats_4x_on_sparse_changes() {
        // Only the very first push stores a full image; every later
        // checkpoint is a sparse back-delta.
        let mut r = SnapshotRing::new(8);
        for f in 0..32 {
            r.push(f, &state_for(f), f);
        }
        let c = r.compression();
        assert!(c.ratio_milli() >= 4000, "ratio {} milli", c.ratio_milli());
        assert_eq!(CompressionStats::default().ratio_milli(), 1000);
    }

    #[test]
    fn steady_state_reuses_pooled_buffers() {
        let mut r = SnapshotRing::new(8);
        for f in 0..100 {
            r.push(f, &state_for(f), f);
        }
        let stats = r.pool_stats();
        // Warm-up allocates at most one buffer per slot (+1 headroom);
        // everything after recycles.
        assert!(stats.misses <= 9, "misses {}", stats.misses);
        assert!(stats.hits >= 91, "hits {}", stats.hits);
        assert!(stats.hit_rate_milli() > 900);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_push_panics() {
        let mut r = ring_with(&[10]);
        r.push(10, &[], 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_panics() {
        let _ = SnapshotRing::new(0);
    }

    #[test]
    fn default_ring_covers_the_default_window() {
        // Satellite fix: `Default` used to build a one-slot ring that
        // thrashed on every push; it now routes through `capacity_for`.
        let r = SnapshotRing::default();
        assert_eq!(r.capacity, SnapshotRing::capacity_for(30, 1));
        assert_eq!(r.capacity, 32);
    }

    #[test]
    fn capacity_covers_the_speculation_window() {
        // 30-frame window, checkpoint every 5: worst case the rollback
        // target is 30 frames back and the nearest checkpoint up to 4 more;
        // 8 slots span 35+ frames of history.
        assert_eq!(SnapshotRing::capacity_for(30, 5), 8);
        assert_eq!(SnapshotRing::capacity_for(30, 1), 32);
        // interval 0 is treated as 1 rather than dividing by zero
        assert_eq!(SnapshotRing::capacity_for(10, 0), 12);
    }

    #[test]
    fn restore_errors_display() {
        let e = RestoreError::NoCheckpoint { frame: 7 };
        assert!(e.to_string().contains("frame 7"));
        let e = RestoreError::from(DeltaError::Truncated);
        assert!(e.to_string().contains("corrupt"));
    }

    #[test]
    fn checkpoint_from_walks_every_capture_path_and_restores_exactly() {
        use coplay_games::rom_pong_console;
        use coplay_vm::InputWord;

        let mut m = rom_pong_console();
        let mut r = SnapshotRing::new(8);
        let input = |f: u64| InputWord((f as u32) & 3);

        // First checkpoint: a full-image capture — the report says so.
        m.step_frame(input(0));
        let report = r.checkpoint_from(0, m.state_hash(), &mut m);
        assert_eq!(report.dirty_bytes, report.state_len);
        assert_eq!(report.stored_bytes, report.state_len);
        assert_eq!(r.slots[0].kind, PatchKind::Delta);

        // Steady state: a quiet game takes the raw-range hot path, and the
        // slot's back-patch length equals the reported dirty bytes.
        for f in 1..=4 {
            m.step_frame(input(f));
        }
        let report = r.checkpoint_from(4, m.state_hash(), &mut m);
        assert!(
            report.dirty_bytes < report.state_len / 8,
            "a quiet game must dirty a small fraction ({} of {})",
            report.dirty_bytes,
            report.state_len
        );
        assert_eq!(r.slots.back().unwrap().kind, PatchKind::Ranges);
        assert_eq!(r.slots.back().unwrap().data.len(), report.dirty_bytes);

        // A full-image load saturates the accumulators, so the next
        // checkpoint must refuse the range path and fall back to the
        // XOR/RLE delta encoder.
        let snap = m.save_state();
        for f in 5..=8 {
            m.step_frame(input(f));
        }
        m.load_state(&snap).unwrap();
        for f in 5..=8 {
            m.step_frame(input(f));
        }
        let report = r.checkpoint_from(8, m.state_hash(), &mut m);
        assert_eq!(r.slots.back().unwrap().kind, PatchKind::Delta);
        assert_eq!(report.dirty_bytes, report.state_len, "saturated capture");

        // Every retained checkpoint restores to exactly the bytes a
        // from-scratch replay produces at that frame.
        let mut buf = Vec::new();
        for (ckpt, frames) in [(0u64, 1u64), (4, 5), (8, 9)] {
            let mut replay = rom_pong_console();
            for f in 0..frames {
                replay.step_frame(input(f));
            }
            let info = r.restore_into(ckpt, &mut buf).unwrap();
            assert_eq!(info.frame, ckpt);
            assert_eq!(info.hash, replay.state_hash(), "frame {ckpt}");
            assert_eq!(buf, replay.save_state(), "frame {ckpt}");
        }
    }

    #[test]
    fn apply_ranges_rejects_corrupt_patches() {
        let mut dirty = DirtyPages::new(1024);
        dirty.mark_range(256, 256);
        let data = vec![0xEE; 256];
        let mut buf = vec![0u8; 1024];
        assert!(apply_ranges(&mut buf, &data, &dirty).is_ok());
        assert!(buf[256..512].iter().all(|&b| b == 0xEE));
        // Length disagreement: a range patch never resizes the state.
        let mut short = vec![0u8; 512];
        assert!(apply_ranges(&mut short, &data, &dirty).is_err());
        // Truncated patch data underruns the marked ranges.
        assert!(apply_ranges(&mut buf, &data[..100], &dirty).is_err());
        // Excess patch data means the ranges did not consume it all.
        let long = vec![0xEE; 300];
        assert!(apply_ranges(&mut buf, &long, &dirty).is_err());
    }
}
