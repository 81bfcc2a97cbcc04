//! Session observability: the counters an operator of a netplay service
//! would watch.
//!
//! The paper reports its metrics from an external time server; a production
//! deployment also needs *in-band* numbers. [`SessionStats`] accumulates
//! them inside the driver with no protocol impact, and is their one
//! definition: the session's `Telemetry` registry keeps only histograms and
//! the counters no field here holds.

use coplay_clock::{SimDuration, SimTime};

/// Running counters for one site of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Frames executed.
    pub frames: u64,
    /// Input messages sent (including retransmissions).
    pub input_messages_sent: u64,
    /// Input messages received (including duplicates).
    pub input_messages_received: u64,
    /// Received input messages that carried payload but not a single new
    /// frame — pure duplicates from retransmission overlap or network
    /// duplication.
    pub duplicate_messages_received: u64,
    /// Received payload frames this site had already buffered (the inbound
    /// half of the retransmission picture; `input_frames_sent` only shows
    /// the outbound half).
    pub retransmitted_frames_received: u64,
    /// Input-frame payload words sent (≥ frames when retransmitting).
    pub input_frames_sent: u64,
    /// Frames on which `SyncInput` blocked for a non-zero time, counted
    /// when the blockage ends (one still open is not counted yet).
    pub stalled_frames: u64,
    /// Total time spent blocked in `SyncInput`.
    pub stall_total: SimDuration,
    /// Longest single `SyncInput` blockage.
    pub stall_max: SimDuration,
    /// Frames that finished late (Algorithm 3 took the `Behind` branch).
    pub late_frames: u64,
    /// Frames on which Algorithm 4 applied a non-zero pace adjustment
    /// (outside the dead zone). Always zero on the master.
    pub pace_adjustments: u64,
    /// Rollbacks executed (checkpoint restore + resimulation). Always zero
    /// in lockstep mode, which never speculates.
    pub rollbacks: u64,
    /// Frames re-executed during rollbacks (each frame counted once per
    /// resimulation it participated in).
    pub resimulated_frames: u64,
    /// Deepest single rollback, in frames (pointer minus the restored
    /// mispredicted frame).
    pub max_rollback_depth: u64,
}

impl SessionStats {
    /// Folds one executed rollback into the counters: a repair re-executes
    /// every frame from the mispredicted one on, so its depth is also what
    /// it resimulates.
    pub(crate) fn note_rollback(&mut self, depth: u64) {
        self.rollbacks += 1;
        self.resimulated_frames += depth;
        self.max_rollback_depth = self.max_rollback_depth.max(depth);
    }

    /// Folds one resolved input-wait blockage into the counters
    /// (zero-length blockages are not stalls).
    pub(crate) fn note_stall(&mut self, began: SimTime, ended: SimTime) {
        let d = ended.saturating_since(began);
        if d > SimDuration::ZERO {
            self.stalled_frames += 1;
            self.stall_total += d;
            self.stall_max = self.stall_max.max(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_stall_tracks_total_and_max() {
        let mut s = SessionStats::default();
        s.note_stall(SimTime::from_millis(10), SimTime::from_millis(30));
        s.note_stall(SimTime::from_millis(50), SimTime::from_millis(55));
        assert_eq!(s.stalled_frames, 2);
        assert_eq!(s.stall_total, SimDuration::from_millis(25));
        assert_eq!(s.stall_max, SimDuration::from_millis(20));
        // Zero-length stalls are not stalls.
        s.note_stall(SimTime::from_millis(60), SimTime::from_millis(60));
        assert_eq!(s.stalled_frames, 2);
    }

    #[test]
    fn note_rollback_tracks_counts_and_depth() {
        let mut s = SessionStats::default();
        s.note_rollback(3);
        s.note_rollback(1);
        assert_eq!(s.rollbacks, 2);
        assert_eq!(s.resimulated_frames, 4);
        assert_eq!(s.max_rollback_depth, 3);
    }
}
