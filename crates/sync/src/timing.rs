//! Algorithms 3 and 4 of the paper: real-time consistency.
//!
//! [`FrameTimer::end_frame`] is Algorithm 3 (`EndFrameTiming`): it computes
//! when the current frame *should* end; if that moment already passed, the
//! overshoot is carried into the next frame as a negative
//! `AdjustTimeDelta`, otherwise the caller waits out the remainder.
//!
//! [`FrameTimer::begin_frame`] is Algorithm 4 (`BeginFrameTiming`): the
//! slave site estimates the master's current frame from the last received
//! input message (`MasterFrame`, `MasterRcvTime`) and one-way latency
//! (`RTT/2`), and folds the frame difference into `AdjustTimeDelta` as
//! `SyncAdjustTimeDelta`. On the master the term is always zero — the
//! master *is* the reference pace.

use coplay_clock::{SimDelta, SimDuration, SimTime};
use coplay_telemetry::{EventKind, Telemetry};

use crate::sync_input::MasterObservation;

/// What the frame loop should do after `EndFrameTiming`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameEnd {
    /// The frame finished early: sleep until the given instant
    /// (Algorithm 3, line 7).
    WaitUntil(SimTime),
    /// The frame overran; continue immediately — the debt was carried into
    /// `AdjustTimeDelta` (Algorithm 3, line 4).
    Behind,
}

/// The pacing engine of one site.
///
/// # Examples
///
/// An unhindered master runs at exactly one frame per `TimePerFrame`:
///
/// ```
/// use coplay_clock::{SimDuration, SimTime};
/// use coplay_sync::{FrameEnd, FrameTimer};
///
/// let tpf = SimDuration::from_micros(16_666);
/// let mut timer = FrameTimer::master(tpf);
/// let t0 = SimTime::from_secs(1);
/// timer.begin_frame(t0, 0, None, SimDuration::ZERO);
/// assert_eq!(timer.end_frame(t0), FrameEnd::WaitUntil(t0 + tpf));
/// ```
#[derive(Debug, Clone)]
pub struct FrameTimer {
    time_per_frame: SimDuration,
    /// The paper's `AdjustTimeDelta`.
    adjust: SimDelta,
    /// The paper's `CurrFrameStart`.
    frame_start: SimTime,
    is_master: bool,
    rate_sync: bool,
    /// Corrections smaller than this are treated as measurement noise
    /// (send-batching and thread-slice terms the paper's §4.2 enumerates).
    dead_zone: SimDuration,
    /// Number of frames the local lag spans (to convert the master's lagged
    /// buffer frame into its actual execution frame).
    buf_frames: u64,
    /// Most recent `SyncAdjustTimeDelta`, exposed for experiments.
    last_sync_adjust: SimDelta,
    /// Observability sink; records one event per applied pace adjustment.
    telemetry: Telemetry,
}

impl FrameTimer {
    /// Creates the master-site timer: provides the reference pace.
    pub fn master(time_per_frame: SimDuration) -> FrameTimer {
        FrameTimer::new(time_per_frame, true, true, 0)
    }

    /// Creates the slave-site timer, which chases the master's pace.
    /// `buf_frames` must match the session's local lag.
    pub fn slave(time_per_frame: SimDuration, buf_frames: u64) -> FrameTimer {
        FrameTimer::new(time_per_frame, false, true, buf_frames)
    }

    /// Full-control constructor: `rate_sync = false` disables Algorithm 4
    /// (the ablation reproducing §3.2's speed-fluctuation pathology).
    pub fn new(
        time_per_frame: SimDuration,
        is_master: bool,
        rate_sync: bool,
        buf_frames: u64,
    ) -> FrameTimer {
        FrameTimer {
            time_per_frame,
            adjust: SimDelta::ZERO,
            frame_start: SimTime::ZERO,
            is_master,
            rate_sync,
            dead_zone: SimDuration::ZERO,
            buf_frames,
            last_sync_adjust: SimDelta::ZERO,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches an observability sink: every applied (non-dead-zone) pace
    /// adjustment is recorded as a [`EventKind::PaceAdjustment`] event.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> FrameTimer {
        self.telemetry = telemetry;
        self
    }

    /// Ignores corrections smaller than `dead_zone` (noise filtering; see
    /// [`SyncConfig::sync_dead_zone`](crate::SyncConfig::sync_dead_zone)).
    pub fn with_dead_zone(mut self, dead_zone: SimDuration) -> FrameTimer {
        self.dead_zone = dead_zone;
        self
    }

    /// The current `AdjustTimeDelta` (test/metrics hook).
    pub fn adjust_delta(&self) -> SimDelta {
        self.adjust
    }

    /// The most recent `SyncAdjustTimeDelta` (test/metrics hook).
    pub fn last_sync_adjust(&self) -> SimDelta {
        self.last_sync_adjust
    }

    /// Algorithm 4, `BeginFrameTiming()`.
    ///
    /// `frame` is the site's current frame (`SlaveFrame`); `obs` is the
    /// latest master observation from the sync engine (slave only); `rtt`
    /// is the current round-trip estimate.
    pub fn begin_frame(
        &mut self,
        now: SimTime,
        frame: u64,
        obs: Option<&MasterObservation>,
        rtt: SimDuration,
    ) {
        self.frame_start = now;
        self.last_sync_adjust = SimDelta::ZERO;
        if self.is_master || !self.rate_sync {
            return; // line 4: SyncAdjustTimeDelta = 0
        }
        let Some(obs) = obs else {
            return; // nothing heard from the master yet
        };
        // Line 6: MasterFrame = LastRcvFrame[0] - BufFrame.
        if obs.master_lagged_frame < self.buf_frames {
            return; // master hasn't really executed a frame yet
        }
        let master_frame = obs.master_lagged_frame - self.buf_frames;
        // Line 7:
        //   SyncAdjustTimeDelta = (Frame - MasterFrame) * TimePerFrame
        //                       - (CurrTime - (MasterRcvTime - RTT/2))
        let frame_diff = frame as i64 - master_frame as i64;
        let sent_time = obs.rcv_time.offset(-SimDelta::from(rtt / 2));
        let elapsed = now.delta_since(sent_time);
        let sync = SimDelta::from(self.time_per_frame) * frame_diff - elapsed;
        if sync.abs() <= self.dead_zone {
            return; // within measurement noise: hold the current pace
        }
        self.last_sync_adjust = sync;
        self.telemetry
            .record(now, EventKind::PaceAdjustment { delta: sync });
        // Line 9: AdjustTimeDelta += SyncAdjustTimeDelta.
        self.adjust += sync;
    }

    /// Algorithm 3, `EndFrameTiming()`.
    pub fn end_frame(&mut self, now: SimTime) -> FrameEnd {
        // Line 1: CurrFrameEnd = CurrFrameStart + TimePerFrame + AdjustTimeDelta.
        let frame_end = (self.frame_start + self.time_per_frame).offset(self.adjust);
        if frame_end < now {
            // Lines 3–4: we are late; carry the (negative) debt forward.
            self.adjust = frame_end.delta_since(now);
            FrameEnd::Behind
        } else {
            // Lines 6–7: on time; wait out the remainder.
            self.adjust = SimDelta::ZERO;
            FrameEnd::WaitUntil(frame_end)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TPF: SimDuration = SimDuration::from_micros(16_666);

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn on_time_frame_waits_out_remainder() {
        let mut t = FrameTimer::master(TPF);
        let start = SimTime::from_secs(1);
        t.begin_frame(start, 0, None, SimDuration::ZERO);
        let end = t.end_frame(start + SimDuration::from_millis(5));
        assert_eq!(end, FrameEnd::WaitUntil(start + TPF));
        assert_eq!(t.adjust_delta(), SimDelta::ZERO);
    }

    #[test]
    fn overrun_carries_negative_debt() {
        let mut t = FrameTimer::master(TPF);
        let start = SimTime::from_secs(1);
        t.begin_frame(start, 0, None, SimDuration::ZERO);
        // The frame took 30ms — 13.334ms too long.
        let end = t.end_frame(start + ms(30));
        assert_eq!(end, FrameEnd::Behind);
        assert_eq!(t.adjust_delta(), SimDelta::from_micros(16_666 - 30_000));
    }

    #[test]
    fn debt_shortens_the_next_frame() {
        let mut t = FrameTimer::master(TPF);
        let s0 = SimTime::from_secs(1);
        t.begin_frame(s0, 0, None, SimDuration::ZERO);
        assert_eq!(t.end_frame(s0 + ms(30)), FrameEnd::Behind);
        // Next frame starts immediately and executes instantly: its end is
        // start + tpf + (negative debt) = the original schedule.
        let s1 = s0 + ms(30);
        t.begin_frame(s1, 1, None, SimDuration::ZERO);
        match t.end_frame(s1) {
            FrameEnd::WaitUntil(end) => {
                assert_eq!(end, s0 + TPF * 2, "compensates to the original cadence");
            }
            FrameEnd::Behind => panic!("should be able to catch up"),
        }
    }

    #[test]
    fn master_ignores_observations() {
        let mut t = FrameTimer::master(TPF);
        let obs = MasterObservation {
            master_lagged_frame: 100,
            rcv_time: SimTime::from_secs(1),
        };
        t.begin_frame(SimTime::from_secs(2), 5, Some(&obs), ms(100));
        assert_eq!(t.last_sync_adjust(), SimDelta::ZERO);
        assert_eq!(t.adjust_delta(), SimDelta::ZERO);
    }

    #[test]
    fn slave_ahead_of_master_slows_down() {
        let mut t = FrameTimer::slave(TPF, 6);
        // Master executed frame 94 (lagged 100) when the message was sent;
        // with zero RTT and zero elapsed time, a slave at frame 100 is 6
        // frames ahead -> positive adjustment (wait longer).
        let now = SimTime::from_secs(5);
        let obs = MasterObservation {
            master_lagged_frame: 100,
            rcv_time: now,
        };
        t.begin_frame(now, 100, Some(&obs), SimDuration::ZERO);
        let expected = SimDelta::from(TPF) * 6;
        assert_eq!(t.last_sync_adjust(), expected);
        match t.end_frame(now) {
            FrameEnd::WaitUntil(end) => assert_eq!(end, now + TPF + TPF * 6),
            FrameEnd::Behind => panic!("ahead slave must wait, not rush"),
        }
    }

    #[test]
    fn slave_behind_master_speeds_up() {
        let mut t = FrameTimer::slave(TPF, 6);
        let now = SimTime::from_secs(5);
        // Master at frame 100; slave only at frame 97: negative adjustment.
        let obs = MasterObservation {
            master_lagged_frame: 106,
            rcv_time: now,
        };
        t.begin_frame(now, 97, Some(&obs), SimDuration::ZERO);
        assert!(t.last_sync_adjust().is_negative());
        assert_eq!(t.last_sync_adjust(), SimDelta::from(TPF) * -3);
    }

    #[test]
    fn rtt_shifts_the_master_estimate() {
        let mut zero_rtt = FrameTimer::slave(TPF, 6);
        let mut high_rtt = FrameTimer::slave(TPF, 6);
        let now = SimTime::from_secs(5);
        let obs = MasterObservation {
            master_lagged_frame: 106,
            rcv_time: now,
        };
        zero_rtt.begin_frame(now, 100, Some(&obs), SimDuration::ZERO);
        high_rtt.begin_frame(now, 100, Some(&obs), ms(100));
        // With RTT/2 = 50ms the master sent 50ms ago, so it has progressed
        // further; the slave must consider itself *more* behind.
        assert!(
            high_rtt.last_sync_adjust() < zero_rtt.last_sync_adjust(),
            "higher RTT => master estimated further ahead"
        );
        let diff = zero_rtt.last_sync_adjust() - high_rtt.last_sync_adjust();
        assert_eq!(diff, SimDelta::from_millis(50));
    }

    #[test]
    fn stale_observation_extrapolates_master_progress() {
        let mut t = FrameTimer::slave(TPF, 6);
        let rcv = SimTime::from_secs(5);
        let obs = MasterObservation {
            master_lagged_frame: 106, // master frame 100 at ~rcv
            rcv_time: rcv,
        };
        // 100 frames of wall time later, a slave at frame 200 is level.
        let now = rcv + TPF * 100;
        t.begin_frame(now, 200, Some(&obs), SimDuration::ZERO);
        assert_eq!(t.last_sync_adjust(), SimDelta::ZERO);
    }

    #[test]
    fn disabled_rate_sync_zeroes_the_term() {
        let mut t = FrameTimer::new(TPF, false, false, 6);
        let now = SimTime::from_secs(5);
        let obs = MasterObservation {
            master_lagged_frame: 200,
            rcv_time: now,
        };
        t.begin_frame(now, 0, Some(&obs), ms(40));
        assert_eq!(t.last_sync_adjust(), SimDelta::ZERO);
    }

    #[test]
    fn pre_start_master_observation_is_ignored() {
        let mut t = FrameTimer::slave(TPF, 6);
        let now = SimTime::from_secs(5);
        // Lagged frame below BufFrame: master hasn't executed frame 0 yet.
        let obs = MasterObservation {
            master_lagged_frame: 5,
            rcv_time: now,
        };
        t.begin_frame(now, 0, Some(&obs), SimDuration::ZERO);
        assert_eq!(t.last_sync_adjust(), SimDelta::ZERO);
    }
}
