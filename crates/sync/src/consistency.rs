//! Consistency policies: how far a site's frame loop may run ahead of the
//! inputs every site has confirmed.
//!
//! Khan & Chabridon's reusable-synchronization argument (see PAPERS.md):
//! consistency should be a pluggable policy inside one reusable component,
//! not baked into the frame loop. [`Session`](crate::Session) is that
//! component, and the policy it plugs in is a speculation window:
//!
//! * [`Lockstep`] — the paper's Algorithm 2, a window of zero frames. A
//!   frame executes only once every site's input for it has arrived, so
//!   nothing is ever predicted, checkpointed or rolled back.
//! * [`Speculative`] — rollback netcode. A frame whose remote inputs are
//!   missing executes anyway under predicted inputs (an
//!   [`InputPredictor`]), a [`SnapshotRing`] keeps a checkpoint before
//!   every executed frame, and a later authoritative input that
//!   contradicts a prediction restores the checkpoint before the
//!   mispredicted frame and resimulates from it. Execution blocks only
//!   `max_rollback_frames` past the confirmed-input frontier, so RTT spikes
//!   shallower than the window never freeze the frame loop.
//!
//! Both policies speak the identical protocol, so a speculative site can
//! play against a lockstep site: each maintains logical consistency its own
//! way while the merged authoritative input sequence stays the same.

use std::collections::BTreeMap;

use coplay_clock::SimTime;
use coplay_telemetry::{EventKind, SpanStage};
use coplay_vm::{DirtyPages, InputWord, InterpStats, Machine};

use crate::config::{ConsistencyMode, SyncConfig};
use crate::error::SyncError;
use crate::predict::{InputPredictor, RepeatLast};
use crate::snapshot::SnapshotRing;
use crate::sync_input::InputSync;

/// Cap on confirmed-hash entries retained when the caller never drains
/// [`Session::drain_confirmed`](crate::Session::drain_confirmed).
const MAX_RETAINED_HASHES: usize = 4096;

/// A session's consistency policy: its speculation window and the state
/// that makes speculating safe.
///
/// The frame loop, handshake, snapshot transfer, send path and statistics
/// are shared in [`Session`](crate::Session); wherever the policies differ
/// the session asks for the speculation state, and a lockstep site has
/// none.
pub trait Consistency {
    /// The predictor a speculating site consults for missing remote input.
    type Predictor: InputPredictor;

    /// The speculation state, or `None` under lockstep.
    fn speculative(&mut self) -> Option<&mut Speculative<Self::Predictor>>;
}

/// The paper's lockstep policy: a speculation window of zero frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lockstep;

impl Consistency for Lockstep {
    /// Named for the type system only: a lockstep site never predicts.
    type Predictor = RepeatLast;

    fn speculative(&mut self) -> Option<&mut Speculative<RepeatLast>> {
        None
    }
}

impl<P: InputPredictor> Consistency for Speculative<P> {
    type Predictor = P;

    fn speculative(&mut self) -> Option<&mut Self> {
        Some(self)
    }
}

/// The rollback policy: execute on predicted input, repair on contradiction.
///
/// The window comes from [`SyncConfig::consistency`]. The state before
/// every executed frame is checkpointed, so a repair restores the
/// mispredicted frame itself and replays only what was mispredicted.
#[derive(Debug)]
pub struct Speculative<P = RepeatLast> {
    pub(crate) max_rollback_frames: u64,
    predictor: P,
    pub(crate) ring: SnapshotRing,
    /// Reusable dirty bitmap for rollback: drained from the machine and
    /// unioned with popped checkpoints' bitmaps to bound the restore.
    rollback_dirty: DirtyPages,
    /// Reusable restore buffer for checkpoint reconstruction.
    restore_buf: Vec<u8>,
    /// Decode-cache totals already published to telemetry (the report
    /// event carries deltas against this).
    interp_reported: InterpStats,
    /// Predicted partials actually fed to the machine, per speculated frame
    /// per remote site — the comparison base for misprediction detection.
    used: BTreeMap<u64, BTreeMap<u8, InputWord>>,
    /// State hash after each executed frame, kept until confirmed.
    recent_hashes: BTreeMap<u64, u64>,
    /// First mispredicted frame discovered while draining the transport;
    /// repaired by the next rewind.
    pending_rollback: Option<u64>,
    /// `(frame, hash)` of the live state before `frame`: the hash `step`
    /// took after `frame - 1`, which the checkpoint before `frame` reuses
    /// instead of hashing the state again. A rewind needs no such pair:
    /// the checkpoint it restores stays in the ring.
    known_hash: Option<(u64, u64)>,
    /// Next frame eligible for confirmation: frames below were already
    /// drained and must not be re-reported when a rollback resimulates
    /// through them.
    confirm_next: u64,
}

impl<P: InputPredictor> Speculative<P> {
    /// Tuned by `mode`; a site configured for lockstep gets the defaults of
    /// [`ConsistencyMode::rollback`].
    pub(crate) fn new(mode: ConsistencyMode, predictor: P) -> Self {
        let ConsistencyMode::Rollback {
            max_rollback_frames,
        } = mode
        else {
            return Speculative::new(ConsistencyMode::rollback(), predictor);
        };
        Speculative {
            max_rollback_frames,
            predictor,
            ring: SnapshotRing::new(SnapshotRing::capacity_for(max_rollback_frames, 1)),
            rollback_dirty: DirtyPages::default(),
            // detlint: allow(hot_alloc) -- reusable buffer; grows once, then steady-state
            restore_buf: Vec::new(),
            interp_reported: InterpStats::default(),
            // detlint: allow(hot_alloc) -- one-time constructor allocation, not per-frame
            used: BTreeMap::new(),
            // detlint: allow(hot_alloc) -- one-time constructor allocation, not per-frame
            recent_hashes: BTreeMap::new(),
            pending_rollback: None,
            known_hash: None,
            confirm_next: 0,
        }
    }

    /// Saves a checkpoint before `frame` and publishes what it cost. The
    /// state is hashed only when no known hash covers it: before frame 0,
    /// after a snapshot join, or when frames are not hashed.
    fn checkpoint<M: Machine>(
        &mut self,
        frame: u64,
        machine: &mut M,
        cfg: &SyncConfig,
        now: SimTime,
    ) {
        let hash = match self.known_hash.take() {
            Some((known, hash)) if known == frame => {
                debug_assert_eq!(
                    hash,
                    machine.state_hash(),
                    "stale hash before frame {frame}"
                );
                hash
            }
            _ => machine.state_hash(),
        };
        let report = self.ring.checkpoint_from(frame, hash, machine);
        let telemetry = &cfg.telemetry;
        telemetry.record(
            now,
            EventKind::CheckpointSaved {
                frame,
                bytes: report.state_len as u64,
            },
        );
        // Bytes the incremental capture actually rewrote (vs the 84 KiB a
        // full-image save would copy), and how concentrated the frame's
        // writes were.
        telemetry.counter_add("snapshot_bytes_saved_total", report.dirty_bytes as u64);
        telemetry.observe("dirty_pages_per_frame", report.dirty_pages as u64);
        if let Some(stats) = machine.interp_stats() {
            let hits = stats.hits.saturating_sub(self.interp_reported.hits);
            let misses = stats.misses.saturating_sub(self.interp_reported.misses);
            let flushes = stats.flushes.saturating_sub(self.interp_reported.flushes);
            let fused = stats
                .fused_hits
                .saturating_sub(self.interp_reported.fused_hits);
            if hits | misses | flushes | fused != 0 {
                telemetry.record(
                    now,
                    EventKind::DecodeCacheReport {
                        hits,
                        misses,
                        flushes,
                        fused,
                    },
                );
                self.interp_reported = stats;
            }
        }
    }

    /// Checkpoints the state before `frame` unless the ring already holds
    /// it (the first frame a repair replays), then returns `frame`'s input:
    /// authoritative partials where the frontier covers them, predictions
    /// elsewhere. `live` is `false` while a repair resimulates the frame.
    pub(crate) fn prepare<M: Machine>(
        &mut self,
        frame: u64,
        machine: &mut M,
        sync: &InputSync,
        cfg: &SyncConfig,
        now: SimTime,
        live: bool,
    ) -> InputWord {
        if self.ring.newest_frame().is_none_or(|n| n < frame) {
            self.checkpoint(frame, machine, cfg, now);
        }
        let mut word = sync.merged_input(frame);
        self.used.remove(&frame);
        for s in cfg.peers() {
            let last_rcv = sync.last_rcv(s).unwrap_or(0);
            if frame <= last_rcv {
                // Covered by the contiguous frontier: the buffered partial
                // (or its absence, meaning no input) is authoritative.
                continue;
            }
            let last = sync
                .has_authoritative(last_rcv, s)
                .then(|| sync.authoritative_partial(last_rcv, s));
            let guess = self.predictor.predict(s, frame, last);
            let masked = cfg.port_map.partial_input(s, guess);
            self.used.entry(frame).or_default().insert(s, masked);
            if live {
                cfg.telemetry.counter_add("predicted_frames_total", 1);
                cfg.telemetry.span(now, SpanStage::Predicted, frame, s);
            }
            word = word.merged(masked);
        }
        word
    }

    /// Keeps the state hash after `frame` until the frontier confirms it,
    /// and for the checkpoint before `frame + 1`.
    pub(crate) fn note_hash(&mut self, frame: u64, hash: u64) {
        self.known_hash = Some((frame + 1, hash));
        self.recent_hashes.insert(frame, hash);
        while self.recent_hashes.len() > MAX_RETAINED_HASHES {
            self.recent_hashes.pop_first();
        }
    }

    /// Compares the predictions used for frames newly covered by `sender`'s
    /// frontier (advanced from `before`) against the authoritative
    /// partials, queueing a rollback at the earliest mismatch.
    pub(crate) fn check_predictions(
        &mut self,
        sender: u8,
        before: u64,
        sync: &InputSync,
        cfg: &SyncConfig,
        now: SimTime,
    ) {
        let after = sync.last_rcv(sender).unwrap_or(before);
        let pointer = sync.pointer();
        for g in (before + 1)..=after {
            if g >= pointer {
                break; // not executed yet: nothing was predicted
            }
            let mut emptied = false;
            let mut mispredicted = false;
            if let Some(per_site) = self.used.get_mut(&g) {
                if let Some(predicted) = per_site.remove(&sender) {
                    mispredicted = predicted != sync.authoritative_partial(g, sender);
                }
                emptied = per_site.is_empty();
            }
            if emptied {
                self.used.remove(&g);
            }
            if mispredicted {
                cfg.telemetry.record(
                    now,
                    EventKind::InputMispredicted {
                        frame: g,
                        site: sender,
                    },
                );
                cfg.telemetry.span(now, SpanStage::Mispredicted, g, sender);
                self.pending_rollback = Some(self.pending_rollback.map_or(g, |p| p.min(g)));
            }
        }
    }

    /// Restores the checkpoint before the queued mispredicted frame, if
    /// any, and returns the frame it precedes: the mispredicted frame
    /// itself, since every executed frame has a checkpoint. The session
    /// resimulates from it up to `pointer`.
    ///
    /// One O(dirty) pass: discard the checkpoints computed from the
    /// mispredicted state (they must not serve as restore points again),
    /// rewind the ring's tail to the target, and accumulate — on top of the
    /// machine's own drift since the newest capture — the pages each popped
    /// checkpoint changed. The union bounds every byte where the live state
    /// can differ from the target, so the restore touches only those.
    pub(crate) fn rewind<M: Machine>(
        &mut self,
        pointer: u64,
        machine: &mut M,
        cfg: &SyncConfig,
        now: SimTime,
    ) -> Result<Option<u64>, SyncError> {
        let Some(target) = self.pending_rollback.take() else {
            return Ok(None);
        };
        if target >= pointer {
            return Ok(None);
        }
        machine.collect_dirty_into(&mut self.rollback_dirty);
        let info = self
            .ring
            .rewind_into(target, &mut self.restore_buf, &mut self.rollback_dirty)
            // detlint: allow(hot_alloc) -- error path; the session is about to abort
            .map_err(|e| SyncError::Snapshot(e.to_string()))?;
        machine
            .load_state_dirty(&self.restore_buf, &self.rollback_dirty)
            // detlint: allow(hot_alloc) -- error path; the session is about to abort
            .map_err(|e| SyncError::Snapshot(e.to_string()))?;
        let restored: usize = self.rollback_dirty.byte_ranges().map(|(s, e)| e - s).sum();
        cfg.telemetry
            .counter_add("snapshot_bytes_restored_total", restored as u64);
        if machine.state_hash() != info.hash {
            // detlint: allow(hot_alloc) -- error path; the session is about to abort
            return Err(SyncError::Snapshot(format!(
                "checkpoint for frame {} restored to a mismatched state hash",
                info.frame
            )));
        }
        cfg.telemetry
            .span(now, SpanStage::CheckpointRestored, info.frame, cfg.my_site);
        Ok(Some(info.frame))
    }

    /// Rebuilds into `out` the newest checkpoint at or below the confirmed
    /// frontier + 1, and never above a queued repair: every input before it
    /// is authoritative and was executed as such. Every executed frame has
    /// a checkpoint, so once the site has executed frontier + 1 that is
    /// the frame served. Returns its frame, or
    /// `None` before the first checkpoint, while the live state is still
    /// authoritative. `capacity_for` keeps such a checkpoint in the ring.
    pub(crate) fn restore_confirmed(
        &self,
        sync: &InputSync,
        out: &mut Vec<u8>,
    ) -> Result<Option<u64>, SyncError> {
        if self.ring.is_empty() {
            return Ok(None);
        }
        let limit = sync
            .authoritative_frontier()
            .saturating_add(1)
            .min(self.pending_rollback.unwrap_or(u64::MAX));
        self.ring
            .restore_into(limit, out)
            .map(|info| Some(info.frame))
            // detlint: allow(hot_alloc) -- join path error; the join is abandoned
            .map_err(|e| SyncError::Snapshot(e.to_string()))
    }

    /// Drains the hashes of frames every site's input arrived for, whose
    /// mispredictions were repaired, and that no rollback can revisit.
    pub(crate) fn drain_confirmed(
        &mut self,
        sync: &InputSync,
        cfg: &SyncConfig,
        at: SimTime,
        out: &mut Vec<(u64, u64)>,
    ) {
        let pointer = sync.pointer();
        if pointer == 0 {
            return;
        }
        let limit = sync.authoritative_frontier().min(pointer - 1);
        while let Some(entry) = self.recent_hashes.first_entry() {
            if *entry.key() > limit {
                break;
            }
            let (frame, hash) = entry.remove_entry();
            // A rollback may resimulate through already-confirmed frames
            // and re-insert their (identical) hashes; report each once.
            if frame >= self.confirm_next {
                cfg.telemetry
                    .span(at, SpanStage::Confirmed, frame, cfg.my_site);
                out.push((frame, hash));
                self.confirm_next = frame + 1;
            }
        }
    }
}
