//! A wall-clock runner for live play.
//!
//! Drives any [`SessionDriver`] — a [`LockstepSession`](crate::LockstepSession)
//! or a [`RollbackSession`](crate::RollbackSession) — against real time and a
//! real transport (UDP or loopback). This is the deployment shape of the
//! paper's system: the same sans-io session code the simulator benchmarks,
//! attached to the operating system's clock and sockets.

use coplay_clock::{Clock, SimDuration, SimTime, SystemClock};

use crate::error::{StopReason, SyncError};
use crate::session::SessionDriver;
use crate::session::{FrameReport, Step};

/// Result of [`run_realtime`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The frame budget was reached.
    FrameLimit,
    /// The session stopped (peer left or local quit).
    Stopped(StopReason),
}

/// Runs `session` against the OS clock until `max_frames` frames have
/// executed, invoking `on_frame` after each frame (for rendering).
///
/// Every wait the session asks for is served in two parts. While the
/// deadline is more than a fixed wake margin (120 µs) away the thread
/// sleeps, in slices of at most 1 ms so arriving datagrams are noticed
/// promptly — the spirit of Algorithm 2's poll loop. For the last stretch
/// it calls [`std::thread::yield_now`] until the deadline, so the next
/// frame begins on time rather than one OS oversleep (timer slack,
/// typically ~80 µs) late. The sessions start each frame at the instant
/// they are woken and Algorithm 3 resets `AdjustTimeDelta` after any frame
/// that ends on time, so that oversleep is never repaid: a plain sleep
/// paces a 60 FPS game at about 59.7 FPS and a 2000 FPS one at about 1740.
/// Yielding rather than spinning lets a peer thread sharing the core run.
///
/// The margin is a constant, not a learned value. A decaying maximum of
/// observed lateness is pinned high by a single preemption, and an
/// average of it spent more CPU than the constant at high frame rates.
/// The price of the yield tail is CPU: up to one margin of yielding per
/// wait, measured in DESIGN.md §5g ("Real-time pacing").
///
/// After the frame budget is reached the session **lingers** briefly
/// (several send intervals) before returning: the local inputs for the
/// final frames may still be queued behind the outbound send pacing, and a
/// peer that is a few frames behind needs them — and possibly
/// retransmissions — to reach its own budget. Returning immediately would
/// drop the session mid-protocol and leave that peer blocked forever
/// (observable as an endless run of `input_sent` retransmission events in
/// its flight recorder).
///
/// # Errors
///
/// Propagates any [`SyncError`] from the session (transport failure, game
/// image mismatch, stall timeout).
///
/// # Examples
///
/// See `examples/lan_duel.rs`, which runs two sessions over real UDP.
pub fn run_realtime<D, F>(
    mut session: D,
    max_frames: u64,
    mut on_frame: F,
) -> Result<(RunOutcome, D), SyncError>
where
    D: SessionDriver,
    F: FnMut(&FrameReport, &D::Machine),
{
    let clock = SystemClock::new();
    let mut frames = 0u64;
    loop {
        let now = clock.now();
        match session.tick(now)? {
            Step::FrameDone { report, .. } => {
                on_frame(&report, session.machine());
                frames += 1;
                if frames >= max_frames {
                    linger(&mut session, &clock);
                    return Ok((RunOutcome::FrameLimit, session));
                }
            }
            Step::Wait(until) => wait_until(&clock, until),
            Step::Stopped(reason) => return Ok((RunOutcome::Stopped(reason), session)),
        }
    }
}

/// Keeps a finished session's *network* alive for a bounded grace period so
/// its final input frames clear the send pacing and lagging peers can catch
/// up. Uses [`SessionDriver::pump`], never `tick`: executing frames past
/// the budget would leave replicas at different frames with different final
/// state hashes.
fn linger<D: SessionDriver>(session: &mut D, clock: &SystemClock) {
    let grace = (session.config().send_interval * 8).max(SimDuration::from_millis(150));
    let until = clock.now() + grace;
    loop {
        let now = clock.now();
        if now >= until || session.pump(now).is_err() {
            return;
        }
        wait_until(clock, (now + SimDuration::from_millis(2)).min(until));
    }
}

/// How far ahead of a deadline [`wait_until`] stops sleeping and starts
/// yielding. It covers the ~80 µs a Linux `thread::sleep` overshoots by,
/// with headroom.
const WAKE_MARGIN: SimDuration = SimDuration::from_micros(120);

/// The longest single sleep, so the caller re-polls its socket at least
/// this often while waiting.
const MAX_SLEEP: SimDuration = SimDuration::from_millis(1);

/// Waits toward `until`. Far from the deadline this sleeps one slice (at
/// most [`MAX_SLEEP`], ending [`WAKE_MARGIN`] early) and returns so the
/// caller can poll; within the margin it yields until the deadline itself.
/// A deadline already passed returns at once.
fn wait_until(clock: &SystemClock, until: SimTime) {
    let remaining = until.saturating_since(clock.now());
    if remaining > WAKE_MARGIN {
        std::thread::sleep((remaining - WAKE_MARGIN).min(MAX_SLEEP).to_std());
        return;
    }
    while clock.now() < until {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SyncConfig;
    use crate::input_source::RandomPresser;
    use crate::session::LockstepSession;
    use coplay_net::{loopback, PeerId};
    use coplay_vm::{NullMachine, Player};
    use std::time::Duration;

    #[test]
    fn realtime_pair_converges_over_threads() {
        let (ta, tb) = loopback(PeerId(0), PeerId(1));
        let mut cfg0 = SyncConfig::two_player(0);
        let mut cfg1 = SyncConfig::two_player(1);
        // Speed the test up: 240fps equivalent pacing.
        cfg0.cfps = 240;
        cfg1.cfps = 240;
        let a = LockstepSession::new(
            cfg0,
            NullMachine::new(),
            ta,
            RandomPresser::new(Player::ONE, 11),
        );
        let b = LockstepSession::new(
            cfg1,
            NullMachine::new(),
            tb,
            RandomPresser::new(Player::TWO, 22),
        );

        let ja = std::thread::spawn(move || {
            let mut hashes = Vec::new();
            let r = run_realtime(a, 60, |rep, _| hashes.push(rep.state_hash.unwrap()));
            (r.map(|(o, _)| o), hashes)
        });
        let jb = std::thread::spawn(move || {
            let mut hashes = Vec::new();
            let r = run_realtime(b, 60, |rep, _| hashes.push(rep.state_hash.unwrap()));
            (r.map(|(o, _)| o), hashes)
        });
        let (ra, ha) = ja.join().unwrap();
        let (rb, hb) = jb.join().unwrap();
        assert_eq!(ra.unwrap(), RunOutcome::FrameLimit);
        assert_eq!(rb.unwrap(), RunOutcome::FrameLimit);
        assert_eq!(ha, hb, "real-time replicas diverged");
    }

    /// Mean frame period over `began_at` stamps, skipping the first
    /// `warmup` frames (handshake and initial slave adjustment).
    fn mean_period(began: &[SimTime], warmup: usize) -> SimDuration {
        let steady = &began[warmup..];
        steady[steady.len() - 1].saturating_since(steady[0]) / (steady.len() as u64 - 1)
    }

    #[test]
    fn realtime_pair_holds_its_frame_rate() {
        // 1000 FPS makes a per-frame oversleep of ~80 µs an 8 % pace error;
        // the deadline-accurate wait must keep both sites within 3 %.
        const FRAMES: u64 = 1000;
        let (ta, tb) = loopback(PeerId(0), PeerId(1));
        let sites = [(0u8, ta, 11u64), (1, tb, 22)].map(|(site, transport, seed)| {
            let mut cfg = SyncConfig::two_player(site);
            cfg.cfps = 1000;
            cfg.send_interval = SimDuration::from_micros(300);
            cfg.poll_interval = SimDuration::from_micros(30);
            cfg.sync_dead_zone = SimDuration::from_micros(450);
            let player = if site == 0 { Player::ONE } else { Player::TWO };
            let session = LockstepSession::new(
                cfg,
                NullMachine::new(),
                transport,
                RandomPresser::new(player, seed),
            );
            std::thread::spawn(move || {
                let mut began = Vec::new();
                let r = run_realtime(session, FRAMES, |rep, _| began.push(rep.began_at));
                (r.map(|(o, _)| o), began)
            })
        });
        for (site, handle) in sites.into_iter().enumerate() {
            let (outcome, began) = handle.join().unwrap();
            assert_eq!(outcome.unwrap(), RunOutcome::FrameLimit);
            let period = mean_period(&began, 100);
            assert!(
                period.as_micros().abs_diff(1000) <= 30,
                "site {site} paced {period} per frame, want 1 ms ± 3 %"
            );
        }
    }

    #[test]
    fn wait_for_a_passed_deadline_returns_without_sleeping() {
        let clock = SystemClock::new();
        std::thread::sleep(Duration::from_millis(1));
        // Any real sleep costs tens of µs; the fastest of a few passed-
        // deadline waits must cost none (a single sample could be preempted).
        let fastest = (0..10)
            .map(|_| {
                let start = clock.now();
                wait_until(&clock, SimTime::ZERO);
                clock.now().saturating_since(start)
            })
            .min()
            .unwrap();
        assert!(fastest < SimDuration::from_micros(20), "took {fastest}");
    }
}
