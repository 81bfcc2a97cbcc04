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

// Frame-path code: a panic here stops a replica mid-session.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use coplay_clock::SimTime;
use coplay_telemetry::{EventKind, SpanStage};
use coplay_vm::{DirtyPages, InputWord, Machine, Player};

use crate::config::{ConsistencyMode, SyncConfig};
use crate::error::SyncError;
use crate::predict::{InputPredictor, RepeatLast};
use crate::snapshot::SnapshotRing;
use crate::sync_input::InputSync;

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
    /// W + 2 checkpoints, W the window. The one before frame `f + 1` is
    /// taken right after `f` executes, so its hash is `f`'s confirmed hash.
    pub(crate) ring: SnapshotRing,
    /// Reusable dirty bitmap for rollback: drained from the machine and
    /// unioned with popped checkpoints' bitmaps to bound the restore.
    rollback_dirty: DirtyPages,
    /// Reusable restore buffer for checkpoint reconstruction.
    restore_buf: Vec<u8>,
    /// Predicted partials fed to frame `f`, per remote site, kept at
    /// `f % (W + 2)`: the comparison base for misprediction detection. A
    /// frame the frontier has not passed is at most W behind the pointer,
    /// so its entry is still its own.
    predicted: Vec<[Option<InputWord>; Player::MAX]>,
    /// First mispredicted frame discovered while draining the transport;
    /// repaired by the next rewind.
    pending_rollback: Option<u64>,
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
        let len = SnapshotRing::capacity_for(max_rollback_frames, 1);
        Speculative {
            max_rollback_frames,
            predictor,
            ring: SnapshotRing::new(len),
            rollback_dirty: DirtyPages::default(),
            restore_buf: Vec::new(),
            predicted: vec![[None; Player::MAX]; len],
            pending_rollback: None,
            confirm_next: 0,
        }
    }

    /// The predictions `frame` ran on, per site.
    fn predicted_at(&mut self, frame: u64) -> &mut [Option<InputWord>; Player::MAX] {
        let len = self.predicted.len();
        &mut self.predicted[(frame % len as u64) as usize]
    }

    /// Saves the checkpoint before `frame`, whose state hashes to `hash`,
    /// and publishes what it cost. The session takes it right after
    /// executing `frame - 1`, with the hash that step took.
    pub(crate) fn checkpoint<M: Machine>(
        &mut self,
        frame: u64,
        hash: u64,
        machine: &mut M,
        cfg: &SyncConfig,
        now: SimTime,
    ) {
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
    }

    /// Returns `frame`'s input: authoritative partials where the frontier
    /// covers them, predictions elsewhere. Before a site's first frame
    /// (frame 0, or a snapshot join's frame) no step has left a
    /// checkpoint, so this one hashes the state and takes it. `live` is
    /// `false` while a repair resimulates the frame.
    pub(crate) fn prepare<M: Machine>(
        &mut self,
        frame: u64,
        machine: &mut M,
        sync: &InputSync,
        cfg: &SyncConfig,
        now: SimTime,
        live: bool,
    ) -> InputWord {
        if self.ring.is_empty() {
            let hash = machine.state_hash();
            self.checkpoint(frame, hash, machine, cfg, now);
        }
        let mut word = sync.merged_input(frame);
        *self.predicted_at(frame) = [None; Player::MAX];
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
            self.predicted_at(frame)[usize::from(s)] = Some(masked);
            if live {
                cfg.telemetry.counter_add("predicted_frames_total", 1);
                cfg.telemetry.span(now, SpanStage::Predicted, frame, s);
            }
            word = word.merged(masked);
        }
        word
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
            let predicted = self
                .predicted_at(g)
                .get_mut(usize::from(sender))
                .and_then(Option::take);
            if predicted.is_some_and(|p| p != sync.authoritative_partial(g, sender)) {
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
    /// itself, since every executed frame left a checkpoint. The session
    /// resimulates from it up to `pointer`, checkpointing again after each
    /// replayed frame.
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
            .map_err(|e| SyncError::Snapshot(e.to_string()))?;
        machine
            .load_state_dirty(&self.restore_buf, &self.rollback_dirty)
            .map_err(|e| SyncError::Snapshot(e.to_string()))?;
        let restored: usize = self.rollback_dirty.byte_ranges().map(|(s, e)| e - s).sum();
        cfg.telemetry
            .counter_add("snapshot_bytes_restored_total", restored as u64);
        if machine.state_hash() != info.hash {
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
    /// is authoritative and was executed as such. The ring holds the
    /// checkpoint before every retained frame up to the pointer, so that
    /// is frontier + 1 itself once the site has executed the frontier.
    /// Returns its frame, or `None` before the first checkpoint, while the
    /// live state is still authoritative. `capacity_for` keeps such a
    /// checkpoint in the ring.
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
            .map_err(|e| SyncError::Snapshot(e.to_string()))
    }

    /// Drains the hashes of frames every site's input arrived for, whose
    /// mispredictions were repaired, and that no rollback can revisit:
    /// the hash after frame `f` is the checkpoint's before `f + 1`. See
    /// [`Session::drain_confirmed`](crate::Session::drain_confirmed) for
    /// why draining after every tick loses none.
    pub(crate) fn drain_confirmed(
        &mut self,
        sync: &InputSync,
        cfg: &SyncConfig,
        at: SimTime,
        out: &mut Vec<(u64, u64)>,
    ) {
        let Some(oldest) = self.ring.oldest_frame() else {
            return;
        };
        let limit = sync
            .authoritative_frontier()
            .min(sync.pointer().saturating_sub(1));
        // A rollback may resimulate through already-confirmed frames;
        // `confirm_next` reports each once.
        for frame in self.confirm_next.max(oldest)..=limit {
            let Some(hash) = self.ring.hash_before(frame + 1) else {
                break;
            };
            cfg.telemetry
                .span(at, SpanStage::Confirmed, frame, cfg.my_site);
            out.push((frame, hash));
            self.confirm_next = frame + 1;
        }
    }
}
