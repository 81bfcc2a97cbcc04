//! A bounded ring of state checkpoints for rollback.
//!
//! The session saves a checkpoint before every frame it executes; on a
//! misprediction it restores the checkpoint before the mispredicted frame
//! and resimulates forward from there, so frames that were predicted right
//! before it are never replayed. The ring's capacity is sized so that the
//! whole speculation window stays checkpointed (see
//! [`SnapshotRing::capacity_for`]).
//!
//! # Storage: one full tail + back-patches
//!
//! The ring keeps exactly one full image, the *newest* checkpoint. Every
//! older slot stores a *back-patch* that turns its own state into the
//! previous (older) slot's state: the older state's raw bytes over the
//! slot's dirty ranges, concatenated in range order and applied by memcpy.
//! A capture whose dirty set is saturated or whose state length changed
//! (every capture of a machine without dirty tracking, and the first one)
//! keeps the older image whole instead and restores by replacing the
//! buffer. Restoring frame `k` copies the tail and applies back-patches
//! newest-first until the walk reaches `k`.
//!
//! Pointing the patches backwards makes a capture O(dirty) — the machine
//! rewrites only its dirty ranges of the tail in place — and eviction
//! O(1): the oldest slot's patch targets a state nobody retains.
//!
//! Each slot also retains its dirty bitmap. A rollback via
//! [`SnapshotRing::rewind_into`] unions the bitmaps of every slot it pops,
//! yielding (by the triangle inequality on byte diffs) a sound
//! over-approximation of which pages differ between the machine's present
//! state and the restore target — so `Machine::load_state_dirty` touches
//! only those pages.
//!
//! Slots sit in a fixed array and keep their buffers when evicted or
//! rewound; the next capture into that position reuses them, so once warm
//! the checkpoint path allocates nothing.

// Frame-path code: a panic here stops a replica mid-session.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::error::Error;
use std::fmt;

use coplay_vm::{DirtyPages, Machine};

#[derive(Debug, Default)]
struct Slot {
    frame: u64,
    hash: u64,
    /// Back-patch: applied to *this* slot's full state it yields the
    /// previous (older) slot's full state. The oldest slot's patch
    /// targets a state the ring no longer retains and is never applied.
    data: Vec<u8>,
    /// Pages that may differ between this slot's state and the previous
    /// slot's state. Saturated: `data` is the previous image whole.
    /// Otherwise: `data` holds the previous image's bytes over exactly
    /// these ranges.
    dirty: DirtyPages,
}

impl Slot {
    /// Applies this slot's back-patch to `buf`, turning this slot's state
    /// into the previous slot's state.
    fn apply(&self, buf: &mut Vec<u8>) -> Result<(), RestoreError> {
        if self.dirty.is_all() {
            buf.clear();
            buf.extend_from_slice(&self.data);
            Ok(())
        } else {
            apply_ranges(buf, &self.data, &self.dirty)
        }
    }
}

/// Applies a raw-range back-patch: `data` holds the previous state's bytes
/// over `dirty`'s ranges, concatenated in range order.
fn apply_ranges(buf: &mut [u8], data: &[u8], dirty: &DirtyPages) -> Result<(), RestoreError> {
    if dirty.len() != buf.len() {
        // A range patch never changes the state length; disagreement
        // means the slot is corrupt.
        return Err(RestoreError::Corrupt);
    }
    let mut off = 0;
    for (s, e) in dirty.byte_ranges() {
        let src = data.get(off..off + (e - s)).ok_or(RestoreError::Corrupt)?;
        buf[s..e].copy_from_slice(src);
        off += e - s;
    }
    if off != data.len() {
        return Err(RestoreError::Corrupt);
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
}

/// Error restoring a checkpoint from the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// No retained checkpoint is at or before the requested frame.
    NoCheckpoint {
        /// The requested rollback frame.
        frame: u64,
    },
    /// A stored back-patch does not fit the image it patches (corrupt
    /// slot).
    Corrupt,
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::NoCheckpoint { frame } => {
                write!(f, "no rollback checkpoint at or before frame {frame}")
            }
            RestoreError::Corrupt => write!(f, "checkpoint back-patch corrupt"),
        }
    }
}

impl Error for RestoreError {}

/// A bounded FIFO of checkpoints ordered by frame, stored as one full
/// newest-state image plus back-patches.
#[derive(Debug)]
pub struct SnapshotRing {
    /// Fixed ring storage: `len` live slots starting at `head`; the rest
    /// keep their buffers for the next capture.
    slots: Vec<Slot>,
    head: usize,
    len: usize,
    /// Full state of the newest checkpoint — the base every restore walk
    /// starts from and the image the next capture patches in place.
    tail: Vec<u8>,
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
            // One-time constructor allocation; slot buffers grow during
            // warm-up and are reused from then on.
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            head: 0,
            len: 0,
            tail: Vec::new(),
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

    /// Storage index of the `i`-th live slot, oldest first.
    fn pos(&self, i: usize) -> usize {
        (self.head + i) % self.slots.len()
    }

    fn slot(&self, i: usize) -> &Slot {
        &self.slots[self.pos(i)]
    }

    /// Captures a checkpoint directly from `machine` into the ring,
    /// evicting the oldest when full. The machine's dirty accumulators are
    /// drained once; the tail bytes those ranges are about to overwrite
    /// are saved as the slot's back-patch; then the machine writes its new
    /// bytes straight into the tail. Both directions are pure memcpy.
    ///
    /// The first capture, a saturated dirty set (a machine without dirty
    /// tracking) and a changed state length instead keep the old tail
    /// whole as the back-patch and capture the new state in full.
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
        let first = self.len == 0;
        if self.len == self.slots.len() {
            // The oldest slot's patch targets a state nobody retains: its
            // position, buffers included, becomes the new slot.
            self.head = self.pos(1);
            self.len -= 1;
        }
        let at = self.pos(self.len);
        self.len += 1;
        let slot = &mut self.slots[at];
        slot.frame = frame;
        slot.hash = hash;
        machine.collect_dirty_into(&mut slot.dirty);
        let whole = first || slot.dirty.is_all() || slot.dirty.len() != self.tail.len();
        if whole {
            // The old tail becomes the patch as is; the machine captures
            // in full into the slot's previous buffer.
            std::mem::swap(&mut slot.data, &mut self.tail);
            machine.save_state_into(&mut self.tail);
            slot.dirty.reset(self.tail.len());
            slot.dirty.mark_all();
        } else {
            // Memcpy the soon-overwritten tail bytes out as the
            // back-patch, then let the machine rewrite exactly those
            // ranges in place.
            slot.data.clear();
            for (s, e) in slot.dirty.byte_ranges() {
                slot.data.extend_from_slice(&self.tail[s..e]);
            }
            machine.save_state_ranges_into(&mut self.tail, &slot.dirty);
        }
        CheckpointReport {
            state_len: self.tail.len(),
            stored_bytes: if first {
                self.tail.len()
            } else {
                slot.data.len()
            },
            dirty_bytes: if whole {
                self.tail.len()
            } else {
                slot.data.len()
            },
            dirty_pages: slot.dirty.count_pages(),
        }
    }

    /// Serialized length of the newest checkpoint's state (0 when the
    /// ring is empty).
    pub fn state_len(&self) -> usize {
        self.tail.len()
    }

    /// Index of the most recent slot at or before `frame`.
    fn floor_index(&self, frame: u64) -> Option<usize> {
        (0..self.len).rev().find(|&i| self.slot(i).frame <= frame)
    }

    /// Reconstructs the most recent checkpoint at or before `frame` into
    /// `out` (cleared first; allocation reused across rollbacks) and
    /// returns its metadata. The ring is not modified; the walk copies the
    /// tail and applies every newer slot's back-patch.
    ///
    /// # Errors
    ///
    /// [`RestoreError::NoCheckpoint`] if no retained checkpoint is old
    /// enough; [`RestoreError::Corrupt`] if a stored patch does not fit
    /// (the state in `out` is then garbage and must not be loaded).
    pub fn restore_into(
        &self,
        frame: u64,
        out: &mut Vec<u8>,
    ) -> Result<CheckpointInfo, RestoreError> {
        let idx = self
            .floor_index(frame)
            .ok_or(RestoreError::NoCheckpoint { frame })?;
        out.clear();
        out.extend_from_slice(&self.tail);
        for i in (idx + 1..self.len).rev() {
            self.slot(i).apply(out)?;
        }
        let slot = self.slot(idx);
        Ok(CheckpointInfo {
            frame: slot.frame,
            hash: slot.hash,
        })
    }

    /// Rolls the ring back to the most recent checkpoint at or before
    /// `frame`, writing that state's changed byte ranges into `out` and
    /// the union of every popped slot's dirty pages into `dirty`.
    ///
    /// This is the hot rollback path: it discards the newer checkpoints
    /// (they were computed from a state the rollback rewrites) while
    /// touching only O(dirty) bytes. On entry `dirty` should hold the
    /// machine's own accumulated dirty pages (covering how the live state
    /// has drifted from the newest checkpoint); on return it
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
    /// enough — the ring is then left unmodified. [`RestoreError::Corrupt`]
    /// if a stored patch does not fit; the ring's tail is then garbage,
    /// and the session aborts with `SyncError::Snapshot`.
    pub fn rewind_into(
        &mut self,
        frame: u64,
        out: &mut Vec<u8>,
        dirty: &mut DirtyPages,
    ) -> Result<CheckpointInfo, RestoreError> {
        let idx = self
            .floor_index(frame)
            .ok_or(RestoreError::NoCheckpoint { frame })?;
        if dirty.len() != self.tail.len() {
            dirty.reset(self.tail.len());
            dirty.mark_all();
        }
        while self.len > idx + 1 {
            self.len -= 1;
            let at = self.pos(self.len);
            let slot = &mut self.slots[at];
            dirty.union(&slot.dirty);
            if slot.dirty.is_all() {
                // The older image becomes the tail; the newer one stays
                // in the slot for the next capture to reuse.
                std::mem::swap(&mut self.tail, &mut slot.data);
            } else {
                apply_ranges(&mut self.tail, &slot.data, &slot.dirty)?;
            }
        }
        // Popping whole-image patches can change the tail length (a
        // resize between checkpoints); `union` already saturated `dirty`
        // in that case but its recorded length must match what `out`
        // receives.
        if dirty.len() != self.tail.len() {
            dirty.reset(self.tail.len());
            dirty.mark_all();
        }
        if out.len() == self.tail.len() {
            for (s, e) in dirty.byte_ranges() {
                out[s..e].copy_from_slice(&self.tail[s..e]);
            }
        } else {
            dirty.mark_all();
            out.clear();
            out.extend_from_slice(&self.tail);
        }
        let slot = self.slot(idx);
        Ok(CheckpointInfo {
            frame: slot.frame,
            hash: slot.hash,
        })
    }

    /// Number of retained checkpoints.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no checkpoint is retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// State hash of the checkpoint taken before `frame`, if the ring
    /// retains one for exactly that frame.
    pub fn hash_before(&self, frame: u64) -> Option<u64> {
        let slot = self.slot(self.floor_index(frame)?);
        (slot.frame == frame).then_some(slot.hash)
    }

    /// Frame of the newest retained checkpoint.
    pub fn newest_frame(&self) -> Option<u64> {
        self.len.checked_sub(1).map(|i| self.slot(i).frame)
    }

    /// Frame of the oldest retained checkpoint.
    pub fn oldest_frame(&self) -> Option<u64> {
        (self.len > 0).then(|| self.slot(0).frame)
    }

    /// Total bytes currently retained — stored back-patches plus the
    /// single full newest-state image (memory accounting).
    pub fn bytes(&self) -> usize {
        (0..self.len)
            .map(|i| self.slot(i).data.len())
            .sum::<usize>()
            + self.tail.len()
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
    use coplay_games::{rom_pong_console, Shooter};
    use coplay_vm::InputWord;

    /// Deterministic pseudo-input: moves and fires for every player.
    fn input(frame: u64) -> InputWord {
        InputWord((((frame as u32).wrapping_mul(0x9E37_79B9)) >> 7) & 0x3F3F)
    }

    /// The machine `make` builds, after `frames` frames of [`input`].
    fn replay<M: Machine>(make: &impl Fn() -> M, frames: u64) -> M {
        let mut m = make();
        for f in 0..frames {
            m.step_frame(input(f));
        }
        m
    }

    /// Checkpoints before every frame in `frames`, then steps it.
    fn play<M: Machine>(
        m: &mut M,
        ring: &mut SnapshotRing,
        reports: &mut Vec<CheckpointReport>,
        frames: std::ops::Range<u64>,
    ) {
        for f in frames {
            let hash = m.state_hash();
            reports.push(ring.checkpoint_from(f, hash, m));
            m.step_frame(input(f));
        }
    }

    /// Every retained checkpoint restores to exactly the bytes and hash a
    /// from-scratch replay reaches at that frame.
    fn assert_every_slot_replays<M: Machine>(ring: &SnapshotRing, make: &impl Fn() -> M) {
        let (oldest, newest) = (ring.oldest_frame().unwrap(), ring.newest_frame().unwrap());
        assert_eq!(newest - oldest + 1, ring.len() as u64, "one per frame");
        let mut buf = Vec::new();
        for f in oldest..=newest {
            let expect = replay(make, f);
            let info = ring.restore_into(f, &mut buf).unwrap();
            assert_eq!((info.frame, info.hash), (f, expect.state_hash()));
            assert_eq!(buf, expect.save_state(), "frame {f}");
        }
    }

    /// Plays 40 frames through an 8-slot ring (32 evictions), checks every
    /// slot, then rewinds twice, replaying forward and checking every slot
    /// again after each. Rewinds are checked by
    /// loading the result into the live machine, as the session does.
    /// Returns the reports of the first 40 captures.
    fn exercise_ring<M: Machine>(make: impl Fn() -> M) -> Vec<CheckpointReport> {
        let mut m = make();
        let mut ring = SnapshotRing::new(8);
        let mut reports = Vec::new();
        play(&mut m, &mut ring, &mut reports, 0..40);
        let first_run = reports.clone();
        assert_every_slot_replays(&ring, &make);

        let tracked = first_run[1].dirty_bytes < first_run[1].state_len;
        let mut out = Vec::new();
        let mut dirty = DirtyPages::default();
        for (target, first) in [(35, true), (44, false)] {
            m.collect_dirty_into(&mut dirty);
            let info = ring.rewind_into(target, &mut out, &mut dirty).unwrap();
            // The first rewind has no image in `out` to patch, so it copies
            // in full; later ones copy only the pages a tracking machine
            // reports dirty.
            assert_eq!(dirty.is_all(), first || !tracked, "rewind to {target}");
            assert_eq!(dirty.len(), out.len());
            assert_eq!(ring.newest_frame(), Some(target), "newer slots discarded");
            m.load_state_dirty(&out, &dirty).unwrap();
            let expect = replay(&make, target);
            assert_eq!((info.frame, info.hash), (target, expect.state_hash()));
            assert_eq!(m.save_state(), expect.save_state(), "rewind to {target}");
            // The ring already holds the checkpoint before `target`.
            m.step_frame(input(target));
            play(&mut m, &mut ring, &mut reports, target + 1..48);
            assert_every_slot_replays(&ring, &make);
        }
        first_run
    }

    #[test]
    fn console_checkpoints_take_the_range_path_and_replay_exactly() {
        let reports = exercise_ring(rom_pong_console);
        // The first capture stores the full image.
        assert_eq!(reports[0].stored_bytes, reports[0].state_len);
        assert_eq!(reports[0].dirty_bytes, reports[0].state_len);
        // Every later one stores only the old bytes of a small dirty set.
        for r in &reports[1..] {
            assert!(
                r.dirty_bytes < r.state_len / 8,
                "a quiet game must dirty a small fraction ({} of {})",
                r.dirty_bytes,
                r.state_len
            );
            assert_eq!(r.stored_bytes, r.dirty_bytes);
        }
    }

    #[test]
    fn native_checkpoints_keep_whole_images_across_length_changes() {
        let reports = exercise_ring(Shooter::new);
        // No dirty tracking: every capture rewrites the whole image.
        assert!(reports.iter().all(|r| r.dirty_bytes == r.state_len));
        let mut lens: Vec<usize> = reports.iter().map(|r| r.state_len).collect();
        lens.dedup();
        assert!(lens.len() > 1, "the state length must change: {lens:?}");
    }

    #[test]
    fn restore_and_rewind_pick_the_floor_checkpoint() {
        let mut m = rom_pong_console();
        let mut ring = SnapshotRing::new(8);
        for f in 0..16 {
            if f % 5 == 0 {
                let hash = m.state_hash();
                ring.checkpoint_from(f, hash, &mut m);
            }
            m.step_frame(input(f));
        }
        let mut buf = Vec::new();
        assert_eq!(ring.restore_into(12, &mut buf).unwrap().frame, 10);
        assert_eq!(ring.restore_into(10, &mut buf).unwrap().frame, 10);
        assert_eq!(ring.restore_into(4, &mut buf).unwrap().frame, 0);
        assert_eq!(buf, replay(&rom_pong_console, 0).save_state());

        // Evict frame 0: nothing is old enough for frame 4 any more, and a
        // failed rewind leaves the ring untouched.
        let mut ring = SnapshotRing::new(3);
        for f in [0, 5, 10, 15] {
            let hash = m.state_hash();
            ring.checkpoint_from(f, hash, &mut m);
        }
        assert_eq!(
            ring.restore_into(4, &mut buf),
            Err(RestoreError::NoCheckpoint { frame: 4 })
        );
        let mut dirty = DirtyPages::default();
        assert_eq!(
            ring.rewind_into(4, &mut buf, &mut dirty),
            Err(RestoreError::NoCheckpoint { frame: 4 })
        );
        assert_eq!((ring.len(), ring.newest_frame()), (3, Some(15)));
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_checkpoint_panics() {
        let mut m = Shooter::new();
        let mut ring = SnapshotRing::new(2);
        ring.checkpoint_from(10, 0, &mut m);
        ring.checkpoint_from(10, 0, &mut m);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_panics() {
        let _ = SnapshotRing::new(0);
    }

    #[test]
    fn default_ring_covers_the_default_window() {
        // `Default` routes through `capacity_for` rather than building a
        // one-slot ring that thrashes on every capture.
        let r = SnapshotRing::default();
        assert_eq!(r.slots.len(), SnapshotRing::capacity_for(30, 1));
        assert_eq!(r.slots.len(), 32);
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
        assert!(RestoreError::Corrupt.to_string().contains("corrupt"));
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
        assert_eq!(
            apply_ranges(&mut short, &data, &dirty),
            Err(RestoreError::Corrupt)
        );
        // Truncated patch data underruns the marked ranges.
        assert_eq!(
            apply_ranges(&mut buf, &data[..100], &dirty),
            Err(RestoreError::Corrupt)
        );
        // Excess patch data means the ranges did not consume it all.
        let long = vec![0xEE; 300];
        assert_eq!(
            apply_ranges(&mut buf, &long, &dirty),
            Err(RestoreError::Corrupt)
        );
    }
}
