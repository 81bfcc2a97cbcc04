//! The distributed game VM loop (Algorithm 1) plus session control.
//!
//! [`Session`] owns one site's machine replica and runs the paper's frame
//! loop:
//!
//! ```text
//! repeat
//!     BeginFrameTiming();          // FrameTimer::begin_frame (Algorithm 4)
//!     I  = GetInput();             // InputSource::sample
//!     I' = SyncInput(I, Frame);    // InputSync poll loop (Algorithm 2)
//!     S' = Transition(I', S);      // Machine::step_frame — the black box
//!     translate and present S';    // caller-side, via FrameReport
//!     EndFrameTiming();            // FrameTimer::end_frame (Algorithm 3)
//!     Frame++;
//! until end of game
//! ```
//!
//! `SyncInput`'s exit condition is the session's consistency policy
//! ([`Consistency`]): [`Lockstep`] waits for every site's input, as the
//! paper does; [`Speculative`] executes up to a window of frames ahead of
//! it on predicted input and repairs mispredictions by rollback.
//!
//! The session is sans-io in time: [`Session::tick`] takes `now`
//! explicitly and returns what to do next ([`Step`]), so the discrete-event
//! simulator and the real-time runner drive identical code.
//!
//! Session control implements the paper's start protocol plus the journal
//! extensions: N players, observers, and latecomers joining mid-game via
//! state snapshots. Every site that has not run a frame greets its peers
//! from its first tick, so two sites that boot together both start about
//! one one-way delay later.

// Frame-path code: a panic here stops a replica mid-session.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::collections::BTreeMap;

use coplay_clock::{SimDelta, SimDuration, SimTime};
use coplay_net::{PeerId, Transport};
use coplay_telemetry::{EventKind, SpanStage};
use coplay_vm::{InputWord, Machine, StepMode};

use crate::config::{SyncConfig, Topology};
use crate::consistency::{Consistency, Lockstep, Speculative};
use crate::error::{StopReason, SyncError};
use crate::input_source::InputSource;
use crate::predict::{InputPredictor, RepeatLast};
use crate::rtt::RttEstimator;
use crate::stats::SessionStats;
use crate::sync_input::InputSync;
use crate::timing::{FrameEnd, FrameTimer};
use crate::wire::{Message, MAX_CHUNK_BYTES};

/// Retransmission margin applied when a latecomer is registered, covering
/// pointer divergence between players at join time and, on a speculative
/// site, the distance between its pointer and the checkpoint it serves
/// (at most the speculation window + 1, 31 frames by default).
/// Must stay below the input-history retention window
/// ([`RETAIN_FRAMES`](crate::sync_input::RETAIN_FRAMES)).
pub const JOIN_MARGIN_FRAMES: u64 = 64;

/// Hello/SnapshotRequest retransmission interval during joins.
const JOIN_RETRY: SimDuration = SimDuration::from_millis(200);

/// Largest snapshot a latecomer assembles. A chunk announcing a larger
/// `total` is dropped before anything is allocated: `total` comes off the
/// wire, and could otherwise reserve up to 4 GiB. Well above the largest
/// state a bundled machine saves (the console's 85 248 B).
const MAX_SNAPSHOT_BYTES: usize = 1 << 20;

/// The site a latecomer asks for its snapshot, and the only one whose
/// chunks it assembles: a chunk from any other sender would otherwise
/// restart the assembly and discard the chunks already received.
const SNAPSHOT_SOURCE: PeerId = PeerId(0);

/// One site of a distributed game session, whatever its consistency mode.
///
/// Implementations are sans-io in time: [`SessionDriver::tick`] takes `now`
/// explicitly and returns a [`Step`], so the discrete-event simulator and
/// the wall-clock runner ([`run_realtime`](crate::run_realtime)) drive
/// identical protocol code.
pub trait SessionDriver {
    /// The machine replica type this session advances.
    type Machine: Machine;

    /// Drives the session one step. Call whenever the previous
    /// [`Step::Wait`] deadline passes or a datagram may have arrived.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] on transport failure, handshake mismatch, or a
    /// stall exceeding the configured timeout.
    fn tick(&mut self, now: SimTime) -> Result<Step, SyncError>;

    /// Services the network without advancing the game (used while
    /// lingering after a frame budget).
    ///
    /// # Errors
    ///
    /// Propagates transport failures, like [`SessionDriver::tick`].
    fn pump(&mut self, now: SimTime) -> Result<(), SyncError>;

    /// The local machine replica.
    fn machine(&self) -> &Self::Machine;

    /// The site configuration.
    fn config(&self) -> &SyncConfig;

    /// In-band session counters.
    fn stats(&self) -> SessionStats;

    /// The site's current frame.
    fn frame(&self) -> u64;
}

/// What the driver should do after a [`Session::tick`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Nothing to do until this instant (or until a datagram arrives —
    /// whichever is first).
    Wait(SimTime),
    /// A frame was executed; `next_wake` is when the next frame may begin.
    FrameDone {
        /// What happened this frame.
        report: FrameReport,
        /// Earliest instant the next frame can start.
        next_wake: SimTime,
    },
    /// The session ended.
    Stopped(StopReason),
}

/// One executed frame, for presentation and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameReport {
    /// The frame number just executed.
    pub frame: u64,
    /// The merged input word fed to the machine.
    pub input: InputWord,
    /// The machine's state digest after the frame; always `Some` (an
    /// `Option` only because existing readers match on it). On a
    /// speculative site it may still be rolled back; see
    /// [`Session::drain_confirmed`].
    pub state_hash: Option<u64>,
    /// When this frame began (`CurrFrameStart`).
    pub began_at: SimTime,
    /// How long the frame was blocked waiting for remote input (zero for a
    /// frame that executed as soon as its pacing allowed). Lets realtime
    /// callers distinguish an input-wait stall from an ordinary paced wait
    /// without reaching into [`InputSync`](crate::InputSync) internals.
    pub stall: SimDuration,
}

#[derive(Debug)]
enum Phase {
    /// Greeting every peer until each has joined; `joins` maps a joined
    /// peer to the frame it says the session starts at.
    Connecting {
        next_hello: SimTime,
        joins: BTreeMap<u8, u64>,
    },
    /// Latecomer: snapshot transfer in progress.
    AwaitSnapshot {
        next_request: SimTime,
        frame: u64,
        total: usize,
        buf: Vec<u8>,
        received: Vec<bool>, // per chunk
    },
    Run(RunState),
    Done(StopReason),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    /// Initialization deviation: hold until this instant before frame 0.
    StartAt(SimTime),
    Begin,
    Syncing,
    EndWait(SimTime),
}

/// One site of a distributed game session under consistency policy `C`.
pub struct Session<M, T, S, C> {
    cfg: SyncConfig,
    machine: M,
    transport: T,
    source: S,
    policy: C,
    sync: InputSync,
    timer: FrameTimer,
    rtt: RttEstimator,
    phase: Phase,
    frame: u64,
    frame_start: SimTime,
    rom_hash: u64,
    time_server: Option<PeerId>,
    stats: SessionStats,
    blocked_at: Option<SimTime>,
    /// Reusable datagram buffer for the per-frame input send path.
    send_buf: Vec<u8>,
    /// Timestamp of the most recent `tick`/`pump` call, used to stamp
    /// `Confirmed` spans from [`Session::drain_confirmed`], which takes no
    /// clock of its own.
    last_tick_at: SimTime,
}

/// The paper's lockstep site: a frame executes only on every site's input.
pub type LockstepSession<M, T, S> = Session<M, T, S, Lockstep>;

/// A speculative site: frames execute on predicted input and mispredictions
/// are repaired by rollback.
pub type RollbackSession<M, T, S, P = RepeatLast> = Session<M, T, S, Speculative<P>>;

impl<M: Machine, T: Transport, S: InputSource> Session<M, T, S, Lockstep> {
    /// Creates a lockstep site. `machine` must be in its initial state — its
    /// state hash doubles as the game-image identity both sites compare.
    pub fn new(cfg: SyncConfig, machine: M, transport: T, source: S) -> Self {
        Session::with_policy(cfg, machine, transport, source, Lockstep)
    }
}

impl<M: Machine, T: Transport, S: InputSource> Session<M, T, S, Speculative<RepeatLast>> {
    /// Creates a speculative site with the repeat-last predictor. The
    /// window comes from [`SyncConfig::consistency`]
    /// (defaults applied when it is `Lockstep`). `machine` must be in its
    /// initial state, as for a lockstep site.
    pub fn new(cfg: SyncConfig, machine: M, transport: T, source: S) -> Self {
        let policy = Speculative::new(cfg.consistency, RepeatLast);
        Session::with_policy(cfg, machine, transport, source, policy)
    }
}

impl<M: Machine, T: Transport, S: InputSource, P: InputPredictor> Session<M, T, S, Speculative<P>> {
    /// Total bytes currently held by the checkpoint ring.
    pub fn checkpoint_bytes(&self) -> usize {
        self.policy.ring.bytes()
    }

    /// Drains the per-frame state hashes that have become authoritative;
    /// see [`Session::drain_confirmed`]. Call after every tick and pump:
    /// the checkpoint ring keeps only the last `max_rollback_frames + 2`
    /// hashes.
    pub fn take_confirmed(&mut self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.drain_confirmed(None, &mut out);
        out
    }
}

impl<M: Machine, T: Transport, S: InputSource, C: Consistency> Session<M, T, S, C> {
    fn with_policy(cfg: SyncConfig, machine: M, transport: T, source: S, policy: C) -> Self {
        let rom_hash = machine.state_hash();
        let tpf = cfg.time_per_frame();
        // The dead zone must stay well inside the local-lag budget: a slave
        // allowed to drift by more than the lag window would starve the
        // master of inputs every frame (visible at high CFPS, where 15 ms
        // spans many frames).
        let dead_zone = cfg.sync_dead_zone.min(cfg.local_lag() / 4);
        let timer = FrameTimer::new(tpf, cfg.is_master(), cfg.rate_sync, cfg.buf_frames)
            .with_dead_zone(dead_zone)
            .with_telemetry(cfg.telemetry.clone());
        let rtt = RttEstimator::default().with_telemetry(cfg.telemetry.clone());
        let phase = Phase::Connecting {
            next_hello: SimTime::ZERO,
            joins: BTreeMap::new(),
        };
        Session {
            sync: InputSync::new(cfg.clone()),
            timer,
            rtt,
            phase,
            frame: 0,
            frame_start: SimTime::ZERO,
            rom_hash,
            time_server: None,
            stats: SessionStats::default(),
            blocked_at: None,
            send_buf: Vec::new(),
            last_tick_at: SimTime::ZERO,
            cfg,
            machine,
            transport,
            source,
            policy,
        }
    }

    /// Also stamp every frame begin to the measurement time server at
    /// `peer` (§4's experimental setup).
    pub fn with_time_server(mut self, peer: PeerId) -> Self {
        self.time_server = Some(peer);
        self
    }

    /// The local machine replica. On a speculative site its state may run
    /// ahead of the confirmed-input frontier and still be rolled back.
    pub fn machine(&self) -> &M {
        &self.machine
    }

    /// The site's current frame (Algorithm 1's `Frame`).
    pub fn frame(&self) -> u64 {
        self.frame
    }

    /// The site configuration.
    pub fn config(&self) -> &SyncConfig {
        &self.cfg
    }

    /// The current smoothed RTT estimate.
    pub fn rtt(&self) -> SimDuration {
        self.rtt.rtt()
    }

    /// The sync engine (metrics/test hook).
    pub fn sync(&self) -> &InputSync {
        &self.sync
    }

    /// In-band session counters (messages, stalls, late frames, and the
    /// rollback triple on a speculative site).
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Appends `(frame, state hash)` for every frame that became
    /// authoritative — every site's input for it arrived, any misprediction
    /// was repaired, and no rollback can revisit it — in frame order.
    /// `executed` is the report of the latest tick, if it ran a frame: a
    /// lockstep site confirms that frame as it executes it, a speculative
    /// site once its frontier passes it, from its checkpoint ring. Call
    /// after every tick and pump to see each confirmed frame exactly once.
    /// The ring keeps the last `max_rollback_frames + 2` hashes, and a tick
    /// runs at most one new frame, at most that window past the frontier:
    /// it evicts only a hash the previous drain could report. A frame
    /// evicted undrained is skipped.
    pub fn drain_confirmed(&mut self, executed: Option<&FrameReport>, out: &mut Vec<(u64, u64)>) {
        match self.policy.speculative() {
            Some(spec) => spec.drain_confirmed(&self.sync, &self.cfg, self.last_tick_at, out),
            None => out.extend(executed.and_then(|r| Some((r.frame, r.state_hash?)))),
        }
    }

    /// Sends an orderly goodbye and stops the session.
    ///
    /// # Errors
    ///
    /// Propagates transport failures while sending the goodbye.
    pub fn stop(&mut self) -> Result<(), SyncError> {
        let bye = Message::Bye.encode();
        if self.cfg.topology == Topology::Relay {
            // One relay address carries the whole session: a single
            // broadcast goodbye reaches every other member.
            self.transport.send(PeerId::BROADCAST, &bye)?;
        } else {
            // The other players and every observer that greeted us.
            for p in self.sync.destinations() {
                self.transport.send(PeerId(p), &bye)?;
            }
        }
        self.phase = Phase::Done(StopReason::LocalQuit);
        Ok(())
    }

    /// Drives the session. Call whenever the previous [`Step::Wait`]
    /// deadline passes **or** a datagram may have arrived.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError`] on transport failure, game-image mismatch, a
    /// failed snapshot join or rollback restore, or a stall exceeding the
    /// configured timeout.
    pub fn tick(&mut self, now: SimTime) -> Result<Step, SyncError> {
        self.last_tick_at = now;
        self.drain_transport(now)?;
        self.repair(now)?;
        loop {
            match &mut self.phase {
                Phase::Done(reason) => return Ok(Step::Stopped(reason.clone())),
                Phase::Connecting { next_hello, joins } => {
                    let mut players = self.cfg.peers();
                    if players.all(|p| joins.contains_key(&p)) {
                        let start = joins.values().copied().max().unwrap_or(0);
                        self.phase = if start == 0 {
                            Phase::Run(RunState::StartAt(now + self.cfg.first_frame_delay))
                        } else {
                            // Mid-game join: fetch a snapshot from the master.
                            Phase::AwaitSnapshot {
                                next_request: SimTime::ZERO,
                                frame: 0,
                                total: 0,
                                buf: Vec::new(),
                                received: Vec::new(),
                            }
                        };
                        continue;
                    }
                    if now >= *next_hello {
                        *next_hello = now + JOIN_RETRY;
                        let hello = Message::Hello {
                            rom_hash: self.rom_hash,
                        }
                        .encode();
                        if self.cfg.topology == Topology::Relay {
                            // Outbound-only client: the relay fans the
                            // hello out to whichever members are present.
                            self.transport.send(PeerId::BROADCAST, &hello)?;
                        } else {
                            for p in self.cfg.peers() {
                                if !joins.contains_key(&p) {
                                    self.transport.send(PeerId(p), &hello)?;
                                }
                            }
                        }
                    }
                    return Ok(Step::Wait(*next_hello));
                }
                Phase::AwaitSnapshot {
                    next_request,
                    frame,
                    total,
                    buf,
                    received,
                } => {
                    let complete = *total > 0 && received.iter().all(|&r| r);
                    if complete {
                        let frame = *frame;
                        let bytes = std::mem::take(buf);
                        self.cfg.telemetry.record(
                            now,
                            EventKind::SnapshotLoaded {
                                frame,
                                bytes: bytes.len() as u64,
                            },
                        );
                        self.machine
                            .load_state(&bytes)
                            .map_err(|e| SyncError::Snapshot(e.to_string()))?;
                        self.frame = frame;
                        self.sync = InputSync::new_at(self.cfg.clone(), frame);
                        self.phase = Phase::Run(RunState::StartAt(now));
                        continue;
                    }
                    if now >= *next_request {
                        *next_request = now + JOIN_RETRY;
                        self.transport
                            .send(SNAPSHOT_SOURCE, &Message::SnapshotRequest.encode())?;
                    }
                    return Ok(Step::Wait(*next_request));
                }
                Phase::Run(state) => match *state {
                    RunState::StartAt(t) => {
                        if now >= t {
                            self.phase = Phase::Run(RunState::Begin);
                            continue;
                        }
                        return Ok(Step::Wait(t));
                    }
                    RunState::Begin => {
                        self.frame_start = now;
                        self.cfg
                            .telemetry
                            .record(now, EventKind::FrameBegun { frame: self.frame });
                        // Algorithm 4 reads RTT/2 as the master's send
                        // delay. Before the first pong that delay is
                        // unknown, not zero: a slave that took it for zero
                        // would see the master one one-way delay behind
                        // where it is, and fall back that far.
                        let obs = self
                            .sync
                            .master_observation()
                            .filter(|_| self.rtt.has_sample());
                        self.timer
                            .begin_frame(now, self.frame, obs.as_ref(), self.rtt.rtt());
                        if self.timer.last_sync_adjust() != SimDelta::ZERO {
                            self.stats.pace_adjustments += 1;
                        }
                        let local = self.source.sample(self.frame);
                        let changed = self.sync.begin_frame(self.frame, local, now);
                        // A rollback session's peers mispredict every input
                        // change and repair once it arrives, so on a
                        // speculative site a change leaves in this tick
                        // instead of waiting out the send pacing.
                        if changed && self.policy.speculative().is_some() {
                            self.sync.expedite_send(now);
                        }
                        if let Some(server) = self.time_server {
                            let stamp = Message::TimeStamp { frame: self.frame };
                            self.transport.send(server, &stamp.encode())?;
                        }
                        self.phase = Phase::Run(RunState::Syncing);
                    }
                    RunState::Syncing => {
                        // Non-masters probe the master for RTT (Algorithm 4
                        // needs RTT/2).
                        if !self.cfg.is_master() {
                            if let Some(nonce) = self.rtt.maybe_ping(now) {
                                self.transport
                                    .send(PeerId(0), &Message::Ping { nonce }.encode())?;
                            }
                        }
                        self.send_inputs(now)?;
                        // The speculation window: execute unless this frame
                        // would run more than the window past the confirmed
                        // frontier. Lockstep's window of zero is the paper's
                        // exit condition — every input has arrived.
                        let window = self
                            .policy
                            .speculative()
                            .map_or(0, |s| s.max_rollback_frames);
                        let frontier = self.sync.authoritative_frontier();
                        if self.sync.pointer() <= frontier.saturating_add(window) {
                            return Ok(self.execute(now));
                        }
                        let began = *self.blocked_at.get_or_insert_with(|| {
                            self.cfg
                                .telemetry
                                .record(now, EventKind::StallBegin { frame: self.frame });
                            now
                        });
                        if let Some(limit) = self.cfg.stall_timeout {
                            let stalled = now.saturating_since(began);
                            if stalled >= limit {
                                return Err(SyncError::Stalled(stalled));
                            }
                        }
                        return Ok(Step::Wait(now + self.cfg.poll_interval));
                    }
                    RunState::EndWait(until) => {
                        if now >= until {
                            self.frame += 1;
                            self.phase = Phase::Run(RunState::Begin);
                            continue;
                        }
                        return Ok(Step::Wait(until));
                    }
                },
            }
        }
    }

    /// Services the network without advancing the game: drains incoming
    /// datagrams (acks, pings, duplicate hellos, snapshot requests),
    /// repairs any misprediction they revealed, and flushes any input
    /// frames still owed to peers — paced sends and retransmissions alike.
    ///
    /// [`run_realtime`](crate::run_realtime) calls this while lingering
    /// after its frame budget: the final local inputs must still reach
    /// peers that are a few frames behind, but executing frames past the
    /// budget would let replicas end at different frames (and therefore
    /// different state hashes).
    ///
    /// # Errors
    ///
    /// Propagates transport failures, like [`tick`](Self::tick).
    pub fn pump(&mut self, now: SimTime) -> Result<(), SyncError> {
        self.last_tick_at = now;
        self.drain_transport(now)?;
        self.repair(now)?;
        if matches!(self.phase, Phase::Run(_)) {
            self.send_inputs(now)?;
        }
        Ok(())
    }

    /// Executes the current frame and ends it.
    fn execute(&mut self, now: SimTime) -> Step {
        let mut stall = SimDuration::ZERO;
        if let Some(began) = self.blocked_at.take() {
            stall = now.saturating_since(began);
            self.stats.note_stall(began, now);
            self.cfg.telemetry.record(
                now,
                EventKind::StallEnd {
                    frame: self.frame,
                    duration: stall,
                },
            );
        }
        let (input, state_hash) = self.step(self.frame, now, StepMode::Present, true);
        let telemetry = &self.cfg.telemetry;
        let site = self.cfg.my_site;
        telemetry.span(now, SpanStage::Merged, self.frame, site);
        if self.policy.speculative().is_none() {
            // Span chain: on a lockstep site a frame's input vector is
            // merged, confirmed authoritative, and presented in one motion.
            telemetry.span(now, SpanStage::Confirmed, self.frame, site);
        }
        telemetry.span(now, SpanStage::Presented, self.frame, site);
        self.sync.advance();
        telemetry.record(
            now,
            EventKind::FrameExecuted {
                frame: self.frame,
                frame_time: now.saturating_since(self.frame_start),
            },
        );
        let report = FrameReport {
            frame: self.frame,
            input,
            state_hash: Some(state_hash),
            began_at: self.frame_start,
            stall,
        };
        self.stats.frames += 1;
        let next_wake = match self.timer.end_frame(now) {
            FrameEnd::WaitUntil(t) => t,
            FrameEnd::Behind => {
                self.stats.late_frames += 1;
                now
            }
        };
        self.phase = Phase::Run(RunState::EndWait(next_wake));
        Step::FrameDone { report, next_wake }
    }

    /// Executes `frame` and hashes the result once: the report and, on a
    /// speculative site, the checkpoint before the next frame (which holds
    /// the confirmed hash) reuse that hash. `mode` is
    /// `Headless` for repair frames whose output will never be presented.
    fn step(&mut self, frame: u64, now: SimTime, mode: StepMode, live: bool) -> (InputWord, u64) {
        let input = match self.policy.speculative() {
            Some(spec) => spec.prepare(frame, &mut self.machine, &self.sync, &self.cfg, now, live),
            None => self.sync.merged_input(frame),
        };
        self.machine.step_frame_mode(input, mode);
        let hash = self.machine.state_hash();
        if let Some(spec) = self.policy.speculative() {
            spec.checkpoint(frame + 1, hash, &mut self.machine, &self.cfg, now);
        }
        (input, hash)
    }

    /// Restores the checkpoint before a mispredicted frame, if one was
    /// found, and resimulates to the present, re-predicting inputs that are
    /// still missing.
    fn repair(&mut self, now: SimTime) -> Result<(), SyncError> {
        let pointer = self.sync.pointer();
        let Some(spec) = self.policy.speculative() else {
            return Ok(());
        };
        let Some(target) = spec.rewind(pointer, &mut self.machine, &self.cfg, now)? else {
            return Ok(());
        };
        // Only the last repaired frame is ever presented: everything before
        // it steps headless, skipping draw/audio work nobody will see while
        // advancing authoritative state byte-identically.
        for g in target..pointer {
            let mode = if g + 1 == pointer {
                StepMode::Present
            } else {
                StepMode::Headless
            };
            self.step(g, now, mode, false);
            self.cfg
                .telemetry
                .span(now, SpanStage::Resimulated, g, self.cfg.my_site);
        }
        let depth = pointer - target;
        self.stats.note_rollback(depth);
        self.cfg.telemetry.record(
            now,
            EventKind::RollbackExecuted {
                to_frame: target,
                depth,
            },
        );
        Ok(())
    }

    /// Writes the state a latecomer is served into `out` and returns the
    /// frame it precedes.
    fn authoritative_state(&mut self, out: &mut Vec<u8>) -> Result<u64, SyncError> {
        if let Some(spec) = self.policy.speculative() {
            if let Some(frame) = spec.restore_confirmed(&self.sync, out)? {
                return Ok(frame);
            }
        }
        // The live state: a lockstep site executes only authoritative input,
        // and a speculative one has not executed anything yet. Its frame is
        // the next frame the machine will execute — `machine.frame()`, not
        // the session counter, which lags by one between a frame's execution
        // and its end-of-frame wait.
        self.machine.save_state_into(out);
        Ok(self.machine.frame())
    }

    /// Records that player `site` joined, saying the session starts at
    /// `start_frame`; only a site still greeting its peers keeps count.
    fn note_join(&mut self, site: u8, start_frame: u64) {
        if let Phase::Connecting { joins, .. } = &mut self.phase {
            if site < self.cfg.num_sites && site != self.cfg.my_site {
                let start = joins.entry(site).or_insert(start_frame);
                *start = (*start).max(start_frame);
            }
        }
    }

    fn send_inputs(&mut self, now: SimTime) -> Result<(), SyncError> {
        for (dst, msg) in self.sync.outgoing(now) {
            self.stats.input_messages_sent += 1;
            self.stats.input_frames_sent += msg.inputs.len() as u64;
            Message::Input(msg).encode_into(&mut self.send_buf);
            self.transport.send(PeerId(dst), &self.send_buf)?;
        }
        Ok(())
    }

    fn drain_transport(&mut self, now: SimTime) -> Result<(), SyncError> {
        while let Some((from, data)) = self.transport.try_recv()? {
            let Ok(msg) = Message::decode(&data) else {
                continue; // UDP noise
            };
            self.handle_message(from, msg, now)?;
        }
        Ok(())
    }

    fn handle_message(
        &mut self,
        from: PeerId,
        msg: Message,
        now: SimTime,
    ) -> Result<(), SyncError> {
        let site = from.0;
        match msg {
            Message::Input(m) => {
                self.stats.input_messages_received += 1;
                let before = self.sync.last_rcv(site);
                let outcome = self.sync.on_message(site, &m, now);
                if outcome.duplicate {
                    self.stats.duplicate_messages_received += 1;
                }
                // Frames the message carried that we already had buffered.
                self.stats.retransmitted_frames_received +=
                    (outcome.carried - outcome.fresh) as u64;
                if let (Some(spec), Some(before)) = (self.policy.speculative(), before) {
                    spec.check_predictions(site, before, &self.sync, &self.cfg, now);
                }
                // A player runs only once every player joined it, so its
                // input tells another player the session started at frame 0
                // even when the greeting or its answer was lost. Not so for
                // an observer, which may be a latecomer owed a snapshot.
                if self.sync.is_player() {
                    self.note_join(site, 0);
                }
            }
            Message::Ping { nonce } => {
                self.transport
                    .send(from, &Message::Pong { nonce }.encode())?;
            }
            Message::Pong { nonce } => self.rtt.on_pong(nonce, now),
            Message::Hello { rom_hash } => {
                if rom_hash != self.rom_hash {
                    return Err(SyncError::RomMismatch {
                        ours: self.rom_hash,
                        theirs: rom_hash,
                    });
                }
                // Register the joiner for (re)transmission. Late joiners get
                // a margin of history to cover pointer divergence.
                let joined_at = self.sync.pointer().saturating_sub(JOIN_MARGIN_FRAMES);
                self.sync.add_peer(site, joined_at);
                self.cfg
                    .telemetry
                    .record(now, EventKind::PeerJoined { site });
                // A player's first greeting to a player still greeting
                // needs no answer: the receiver's own greeting, or its first
                // input once it runs, tells the sender that it joined. A
                // greeting from a player already counted is a retry: the
                // sender has not heard us, and with three or more players
                // it may be waiting on us while we wait on someone else, so
                // it gets an answer.
                let first_greeting = match &self.phase {
                    Phase::Connecting { joins, .. } => !joins.contains_key(&site),
                    _ => false,
                };
                // Only a site that has not run a frame says Hello.
                self.note_join(site, 0);
                if first_greeting && self.sync.is_player() && site < self.cfg.num_sites {
                    return Ok(());
                }
                let start_frame = if site < self.cfg.num_sites && !self.sync.heard_from(site) {
                    // A player this site never heard from has not started:
                    // nothing it plays exists anywhere yet, so it starts at
                    // frame 0 with everyone else, under either policy. A
                    // lockstep pointer may already stand a few frames in,
                    // inside the local lag, and would send it to a snapshot.
                    0
                } else {
                    match self.policy.speculative() {
                        None => self.sync.pointer(),
                        Some(_) => self.authoritative_state(&mut Vec::new())?,
                    }
                };
                let ack = Message::HelloAck {
                    rom_hash: self.rom_hash,
                    start_frame,
                };
                self.transport.send(from, &ack.encode())?;
            }
            Message::HelloAck {
                rom_hash,
                start_frame,
            } => {
                if rom_hash != self.rom_hash {
                    return Err(SyncError::RomMismatch {
                        ours: self.rom_hash,
                        theirs: rom_hash,
                    });
                }
                self.note_join(site, start_frame);
            }
            Message::SnapshotRequest => {
                // Serve an authoritative state in chunks (master only, but
                // any player can technically serve).
                let mut state = Vec::new();
                let frame = self.authoritative_state(&mut state)?;
                let total = state.len();
                self.cfg.telemetry.record(
                    now,
                    EventKind::SnapshotServed {
                        frame,
                        bytes: total as u64,
                    },
                );
                for (i, chunk) in state.chunks(MAX_CHUNK_BYTES).enumerate() {
                    let m = Message::SnapshotChunk {
                        frame,
                        offset: (i * MAX_CHUNK_BYTES) as u32,
                        total: total as u32,
                        bytes: chunk.to_vec(),
                    };
                    self.transport.send(from, &m.encode())?;
                }
            }
            Message::SnapshotChunk { total, .. }
                if from != SNAPSHOT_SOURCE || total as usize > MAX_SNAPSHOT_BYTES => {}
            Message::SnapshotChunk {
                frame,
                offset,
                total,
                bytes,
            } => {
                if let Phase::AwaitSnapshot {
                    frame: cur_frame,
                    total: cur_total,
                    buf,
                    received,
                    ..
                } = &mut self.phase
                {
                    let total = total as usize;
                    if *cur_total != total || *cur_frame != frame {
                        // New (or first) snapshot generation: restart assembly.
                        *cur_frame = frame;
                        *cur_total = total;
                        *buf = vec![0; total];
                        *received = vec![false; total.div_ceil(MAX_CHUNK_BYTES)];
                    }
                    // Only a whole chunk fills its slot: a short one would
                    // mark bytes received that never arrived.
                    let offset = offset as usize;
                    let whole = offset.is_multiple_of(MAX_CHUNK_BYTES)
                        && bytes.len() == total.saturating_sub(offset).min(MAX_CHUNK_BYTES);
                    if let (true, Some(dst), Some(slot)) = (
                        whole,
                        buf.get_mut(offset..offset + bytes.len()),
                        received.get_mut(offset / MAX_CHUNK_BYTES),
                    ) {
                        dst.copy_from_slice(&bytes);
                        *slot = true;
                    }
                }
            }
            // An observer leaving takes nothing from the game: stop sending
            // to it and play on. A player leaving ends the session.
            Message::Bye if site >= self.cfg.num_sites => self.sync.remove_peer(site),
            Message::Bye => {
                self.phase = Phase::Done(StopReason::PeerLeft);
            }
            Message::TimeStamp { .. } => {} // only the time server consumes these
        }
        Ok(())
    }
}

impl<M: Machine, T: Transport, S: InputSource, C: Consistency> SessionDriver
    for Session<M, T, S, C>
{
    type Machine = M;

    fn tick(&mut self, now: SimTime) -> Result<Step, SyncError> {
        Session::tick(self, now)
    }

    fn pump(&mut self, now: SimTime) -> Result<(), SyncError> {
        Session::pump(self, now)
    }

    fn machine(&self) -> &M {
        Session::machine(self)
    }

    fn config(&self) -> &SyncConfig {
        Session::config(self)
    }

    fn stats(&self) -> SessionStats {
        Session::stats(self)
    }

    fn frame(&self) -> u64 {
        Session::frame(self)
    }
}

impl<M, T, S, C> std::fmt::Debug for Session<M, T, S, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("site", &self.cfg.my_site)
            .field("frame", &self.frame)
            .field("phase", &self.phase)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConsistencyMode;
    use crate::input_source::{Idle, RandomPresser, Scripted};
    use crate::wire::InputMsg;
    use coplay_clock::{Clock, VirtualClock};
    use coplay_net::{loopback, LoopbackTransport, NetemConfig, SimNetwork, SimSocket};
    use coplay_telemetry::Telemetry;
    use coplay_vm::{FrameBuffer, MachineInfo, NullMachine, Player, StateError};

    type Sess<C, S = RandomPresser> = Session<NullMachine, LoopbackTransport, S, C>;
    type New<C, S> = fn(SyncConfig, NullMachine, LoopbackTransport, S) -> Sess<C, S>;

    fn cfg(site: u8, consistency: ConsistencyMode) -> SyncConfig {
        SyncConfig {
            consistency,
            ..SyncConfig::two_player(site)
        }
    }

    fn pair<C: Consistency>(new: New<C, RandomPresser>, mode: ConsistencyMode) -> [Sess<C>; 2] {
        let (ta, tb) = loopback(PeerId(0), PeerId(1));
        [
            new(
                cfg(0, mode),
                NullMachine::new(),
                ta,
                RandomPresser::new(Player::ONE, 1),
            ),
            new(
                cfg(1, mode),
                NullMachine::new(),
                tb,
                RandomPresser::new(Player::TWO, 2),
            ),
        ]
    }

    fn lockstep_pair() -> [Sess<Lockstep>; 2] {
        pair(LockstepSession::new, ConsistencyMode::Lockstep)
    }

    fn rollback_pair() -> [Sess<Speculative>; 2] {
        pair(RollbackSession::new, ConsistencyMode::rollback())
    }

    /// Ticks both sessions in virtual time until each executed `frames`
    /// frames; returns the `(frame, hash)` pairs each confirmed on the way.
    fn run_pair<C: Consistency, S: InputSource>(
        sites: &mut [Sess<C, S>; 2],
        frames: u64,
    ) -> [Vec<(u64, u64)>; 2] {
        run_pair_with(sites, frames, |_| {})
    }

    /// [`run_pair`] over any machine and transport and any number of
    /// sites, starting at `now`; `deliver(now)` runs before each round of
    /// ticks.
    fn run_sites<M: Machine, T: Transport, S: InputSource, C: Consistency, const N: usize>(
        sites: &mut [Session<M, T, S, C>; N],
        frames: u64,
        mut now: SimTime,
        mut deliver: impl FnMut(SimTime),
    ) -> [Vec<(u64, u64)>; N] {
        let mut confirmed = std::array::from_fn(|_| Vec::new());
        let mut guard = 0;
        while sites.iter().any(|s| s.stats().frames < frames) {
            guard += 1;
            assert!(guard < 1_000_000, "no progress after 1M ticks");
            deliver(now);
            let mut next = now + SimDuration::from_millis(1);
            for (sess, out) in sites.iter_mut().zip(&mut confirmed) {
                let mut executed = None;
                match sess.tick(now).unwrap() {
                    Step::Wait(t) => next = next.min(t),
                    Step::FrameDone { report, next_wake } => {
                        assert!(report.state_hash.is_some());
                        executed = Some(report);
                        next = next.min(next_wake);
                    }
                    Step::Stopped(r) => panic!("unexpected stop: {r}"),
                }
                sess.drain_confirmed(executed.as_ref(), out);
            }
            now = next.max(now + SimDuration::from_micros(100));
        }
        confirmed
    }

    /// [`run_sites`] for a pair from time zero.
    fn run_pair_with<M: Machine, T: Transport, S: InputSource, C: Consistency>(
        sites: &mut [Session<M, T, S, C>; 2],
        frames: u64,
        deliver: impl FnMut(SimTime),
    ) -> [Vec<(u64, u64)>; 2] {
        run_sites(sites, frames, SimTime::ZERO, deliver)
    }

    /// Runs a clean pair for 120 frames; returns how many frames both
    /// confirmed, after checking they agree on every one of them.
    fn converge<C: Consistency>(mut sites: [Sess<C>; 2]) -> usize {
        let [ca, cb] = run_pair(&mut sites, 120);
        for s in &sites {
            // The local lag (6 frames ≈ 100 ms) dwarfs loopback delivery:
            // every input arrives before its frame executes, so nothing is
            // predicted, nothing rolls back, and nothing stalls.
            assert_eq!(s.stats().rollbacks, 0, "clean link must not roll back");
            assert_eq!(s.stats().stalled_frames, 0, "clean link never stalls");
        }
        let common = ca.len().min(cb.len());
        assert_eq!(ca[..common], cb[..common], "replicas diverged");
        common
    }

    #[test]
    fn clean_loopback_converges_under_both_policies() {
        // A lockstep site confirms every frame as it executes it; a
        // speculative one once its frontier passes it.
        assert!(converge(lockstep_pair()) >= 120);
        assert!(converge(rollback_pair()) >= 100);
    }

    #[test]
    fn rom_mismatch_is_detected_by_the_master() {
        let (ta, tb) = loopback(PeerId(0), PeerId(1));
        let mut modified = NullMachine::new();
        modified.step_frame(InputWord(1)); // different "image"
        let mut a = LockstepSession::new(SyncConfig::two_player(0), NullMachine::new(), ta, Idle);
        let mut b = LockstepSession::new(SyncConfig::two_player(1), modified, tb, Idle);
        let now = SimTime::ZERO;
        let _ = b.tick(now).unwrap(); // b sends Hello with the wrong hash
        let err = a.tick(now).unwrap_err();
        assert!(matches!(err, SyncError::RomMismatch { .. }));
    }

    #[test]
    fn rom_mismatch_is_caught_from_an_unsolicited_greeting() {
        let (ta, tb) = loopback(PeerId(0), PeerId(1));
        let mut modified = NullMachine::new();
        modified.step_frame(InputWord(1));
        let mut a = LockstepSession::new(SyncConfig::two_player(0), NullMachine::new(), ta, Idle);
        let mut b = LockstepSession::new(SyncConfig::two_player(1), modified, tb, Idle);
        let now = SimTime::ZERO;
        // a greets b before b has said anything.
        let _ = a.tick(now).unwrap();
        let err = b.tick(now).unwrap_err();
        assert!(matches!(err, SyncError::RomMismatch { .. }));
    }

    /// A transport that loses its first `Hello` to peer `lose_to`.
    struct LoseHello<T> {
        inner: T,
        lose_to: Option<PeerId>,
    }

    impl<T: Transport> Transport for LoseHello<T> {
        fn local_id(&self) -> PeerId {
            self.inner.local_id()
        }

        fn send(&mut self, to: PeerId, payload: &[u8]) -> Result<(), coplay_net::TransportError> {
            if self.lose_to == Some(to)
                && matches!(Message::decode(payload), Ok(Message::Hello { .. }))
            {
                self.lose_to = None;
                return Ok(());
            }
            self.inner.send(to, payload)
        }

        fn try_recv(&mut self) -> Result<Option<(PeerId, Vec<u8>)>, coplay_net::TransportError> {
            self.inner.try_recv()
        }
    }

    type LossySess<C> = Session<NullMachine, LoseHello<SimSocket>, RandomPresser, C>;

    /// Boots `N` players under policy `C` at time zero over clean links
    /// with a fixed 40 ms one-way delay, site `s` losing its first `Hello`
    /// to `lose_to[s]`. Checks that the replicas agree over 120 frames and
    /// returns the sites, to be read.
    fn start_over_40ms<C: Consistency, const N: usize>(
        new: fn(SyncConfig, NullMachine, LoseHello<SimSocket>, RandomPresser) -> LossySess<C>,
        mode: ConsistencyMode,
        lose_to: [Option<u8>; N],
    ) -> [LossySess<C>; N] {
        let clock = VirtualClock::new();
        let net = SimNetwork::shared(clock.clone());
        let link = NetemConfig::new().delay(SimDuration::from_millis(40));
        for a in 0..N as u8 {
            for b in a + 1..N as u8 {
                SimNetwork::link_pair(&net, PeerId(a), PeerId(b), link.clone(), 1);
            }
        }
        let mut sites = std::array::from_fn(|i| {
            let site = i as u8;
            let cfg = SyncConfig {
                telemetry: Telemetry::recording(),
                consistency: mode,
                ..SyncConfig::n_player(site, N as u8)
            };
            let transport = LoseHello {
                inner: SimNetwork::socket(&net, PeerId(site)),
                lose_to: lose_to[i].map(PeerId),
            };
            new(
                cfg,
                NullMachine::new(),
                transport,
                RandomPresser::new(Player(site), u64::from(site) + 1),
            )
        });
        let confirmed = run_sites(&mut sites, 120, SimTime::ZERO, |now| {
            clock.set(now);
            net.borrow_mut().deliver_due(now);
        });
        let common = confirmed.iter().map(Vec::len).min().unwrap_or(0);
        assert!(common >= 100, "{mode:?}: {common} frames confirmed");
        for c in &confirmed[1..] {
            assert_eq!(
                confirmed[0][..common],
                c[..common],
                "{mode:?}: replicas diverged"
            );
        }
        sites
    }

    /// When `s` began frame 0, in ms.
    fn start_ms<T: Transport, S: InputSource, C: Consistency>(
        s: &Session<NullMachine, T, S, C>,
    ) -> u64 {
        s.config()
            .telemetry
            .events()
            .iter()
            .find(|e| e.kind == EventKind::FrameBegun { frame: 0 })
            .expect("frame 0 began")
            .at
            .saturating_since(SimTime::ZERO)
            .as_millis()
    }

    /// Both policies' frame-0 instants for one loss pattern, in ms.
    fn starts_ms<const N: usize>(lose_to: [Option<u8>; N]) -> [[u64; N]; 2] {
        let lockstep = start_over_40ms(LockstepSession::new, ConsistencyMode::Lockstep, lose_to);
        let rollback = start_over_40ms(RollbackSession::new, ConsistencyMode::rollback(), lose_to);
        [
            lockstep.map(|s| start_ms(&s)),
            rollback.map(|s| start_ms(&s)),
        ]
    }

    #[test]
    fn both_sites_start_one_way_delay_after_boot() {
        // Each site greets the other at boot; each starts on the other's
        // greeting, one 40 ms delay later — not a 80 ms round trip.
        assert_eq!(starts_ms([None, None]), [[40, 40]; 2]);
    }

    #[test]
    fn a_slave_that_started_in_step_holds_its_pace() {
        // The master's first input reaches the slave 40 ms after both
        // started, before the first pong. Taking the unknown RTT for zero
        // would make the slave think itself 40 ms ahead and fall back.
        let [_, slave] = start_over_40ms(
            LockstepSession::new,
            ConsistencyMode::Lockstep,
            [None, None],
        );
        assert_eq!(slave.stats().pace_adjustments, 0);
    }

    #[test]
    fn a_lost_greeting_costs_one_round_trip() {
        // Two players greeting each other do not answer each other's
        // first Hello. The one whose greeting got through starts on the other's
        // Hello, and its first input, sent as it starts, starts the other
        // one round trip after boot. Waiting for the next greeting's
        // answer would take until 280 ms.
        assert_eq!(starts_ms([Some(1), None]), [[40, 80]; 2]);
        assert_eq!(starts_ms([None, Some(0)]), [[80, 40]; 2]);
    }

    #[test]
    fn three_players_start_when_first_greetings_are_lost_in_a_cycle() {
        // 0→1, 1→2 and 2→0 are lost; 0→2, 2→1 and 1→0 arrive. Each site
        // then waits on the one whose greeting it lost, and retries only
        // to that one, which has already counted it. Answering only first
        // greetings would leave all three waiting forever; answering the
        // retry starts all three on its answer, one retry after boot plus
        // a round trip.
        assert_eq!(starts_ms([Some(1), Some(2), Some(0)]), [[280; 3]; 2]);
    }

    #[test]
    fn bye_stops_the_peer() {
        let mut sites = lockstep_pair();
        let _ = run_pair(&mut sites, 10);
        let [a, b] = &mut sites;
        a.stop().unwrap();
        match b.tick(SimTime::from_secs(10)).unwrap() {
            Step::Stopped(StopReason::PeerLeft) => {}
            other => panic!("expected PeerLeft, got {other:?}"),
        }
    }

    /// Two players and an observer (site 2, no input bits of its own) on
    /// 10 ms links of `net`, run for 60 frames.
    fn players_and_observer(
        net: &std::rc::Rc<std::cell::RefCell<SimNetwork>>,
        deliver: impl FnMut(SimTime),
    ) -> [LockstepSession<NullMachine, SimSocket, RandomPresser>; 3] {
        let link = NetemConfig::new().delay(SimDuration::from_millis(10));
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            SimNetwork::link_pair(net, PeerId(a), PeerId(b), link.clone(), 1);
        }
        let mut sites = [0, 1, 2].map(|site| {
            let cfg = SyncConfig {
                my_site: site,
                ..SyncConfig::two_player(0)
            };
            LockstepSession::new(
                cfg,
                NullMachine::new(),
                SimNetwork::socket(net, PeerId(site)),
                RandomPresser::new(Player(site.min(1)), u64::from(site) + 1),
            )
        });
        let _ = run_sites(&mut sites, 60, SimTime::ZERO, deliver);
        sites
    }

    #[test]
    fn an_observers_goodbye_leaves_the_game_running() {
        let clock = VirtualClock::new();
        let net = SimNetwork::shared(clock.clone());
        let mut deliver = |now| {
            clock.set(now);
            net.borrow_mut().deliver_due(now);
        };
        let [a, b, mut observer] = players_and_observer(&net, &mut deliver);
        observer.stop().unwrap();
        let mut players = [a, b];
        // `run_sites` panics if either player stops.
        let [ca, cb] = run_sites(&mut players, 180, clock.now(), &mut deliver);
        let common = ca.len().min(cb.len());
        assert!(common >= 100);
        assert_eq!(
            ca[..common],
            cb[..common],
            "the players play on in agreement"
        );
        for p in &players {
            assert_eq!(p.sync().last_ack(2), None, "the observer is forgotten");
        }
    }

    #[test]
    fn a_players_goodbye_stops_its_observer() {
        let clock = VirtualClock::new();
        let net = SimNetwork::shared(clock.clone());
        let mut deliver = |now| {
            clock.set(now);
            net.borrow_mut().deliver_due(now);
        };
        let [mut a, _, mut observer] = players_and_observer(&net, &mut deliver);
        a.stop().unwrap();
        // The observer learned of site 0 only through its own Hello, yet
        // hears the goodbye one link delay later.
        let now = clock.now() + SimDuration::from_millis(10);
        deliver(now);
        match observer.tick(now).unwrap() {
            Step::Stopped(StopReason::PeerLeft) => {}
            other => panic!("expected PeerLeft, got {other:?}"),
        }
    }

    /// Handshakes the pair, then ticks only site 0, draining what it
    /// confirms after every tick, while site 1 stays silent; returns how
    /// far site 0 ran past its confirmed frontier.
    fn lead_over_silent_peer<C: Consistency>(sites: &mut [Sess<C>; 2]) -> u64 {
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            for s in sites.iter_mut() {
                let _ = s.tick(now).unwrap();
            }
            now += SimDuration::from_millis(5);
        }
        let a = &mut sites[0];
        let (mut waits, mut confirmed) = (0, Vec::new());
        for _ in 0..5_000 {
            now += SimDuration::from_millis(2);
            let executed = match a.tick(now).unwrap() {
                Step::FrameDone { report, .. } => Some(report),
                Step::Wait(_) => {
                    waits += 1;
                    None
                }
                Step::Stopped(r) => panic!("unexpected stop: {r}"),
            };
            a.drain_confirmed(executed.as_ref(), &mut confirmed);
        }
        assert!(waits > 4_000, "blocked, waiting for the silent peer");
        assert_eq!(a.stats().rollbacks, 0, "no input, no rollback");
        a.sync().pointer() - a.sync().authoritative_frontier()
    }

    #[test]
    fn silent_peer_blocks_each_policy_at_its_window_edge() {
        // The paper's behaviour: lockstep freezes in SyncInput on the first
        // frame it lacks input for, waiting forever.
        assert_eq!(lead_over_silent_peer(&mut lockstep_pair()), 1);
        // Rollback speculates 30 frames past the frontier, then blocks.
        let mut sites = rollback_pair();
        assert_eq!(lead_over_silent_peer(&mut sites), 31);
        // The late peer finally speaks: its real inputs contradict the
        // repeat-last guess (b's presser holds real buttons, a predicted
        // empty), so a rolls back and both replicas converge.
        let [ca, cb] = run_pair(&mut sites, 120);
        let st = sites[0].stats();
        assert!(st.rollbacks > 0, "late inputs must trigger repair");
        assert!(st.resimulated_frames >= st.rollbacks);
        assert!(
            (1..=31).contains(&st.max_rollback_depth),
            "window bounds depth"
        );
        // Site 0 drained its first frames while site 1 was silent, so the
        // two lists start at different frames.
        let theirs: BTreeMap<u64, u64> = cb.into_iter().collect();
        let common: Vec<_> = ca.iter().filter(|(f, _)| theirs.contains_key(f)).collect();
        assert!(common.len() >= 100, "{} common frames", common.len());
        for (f, h) in common {
            assert_eq!(theirs[f], *h, "post-rollback hashes agree at frame {f}");
        }
    }

    /// Says Hello to `a` as player 1 over the raw endpoint `tb`, so the
    /// test can play site 1 by hand.
    fn join_as_site_1<C: Consistency, S: InputSource>(
        a: &mut Sess<C, S>,
        tb: &mut LoopbackTransport,
    ) {
        hello_as_site_1(tb);
        let _ = a.tick(SimTime::ZERO).unwrap();
        while tb.try_recv().unwrap().is_some() {} // the HelloAck
    }

    /// The `start_frame` site 0 answers a repeated Hello from site 1 with,
    /// once site 0 has run into its local lag on site 1's first Hello alone.
    fn start_frame_for_an_unheard_player<C: Consistency>(
        new: New<C, Idle>,
        mode: ConsistencyMode,
    ) -> u64 {
        let (ta, mut tb) = loopback(PeerId(0), PeerId(1));
        let mut a = new(cfg(0, mode), NullMachine::new(), ta, Idle);
        join_as_site_1(&mut a, &mut tb);
        for ms in (0..200).step_by(5) {
            let _ = a.tick(SimTime::from_millis(ms)).unwrap();
        }
        assert!(a.sync().pointer() > 0, "{mode:?}: ran frames before site 1");
        while tb.try_recv().unwrap().is_some() {} // site 0's inputs
        hello_as_site_1(&mut tb);
        let mut answers = Vec::new();
        let _ = a.tick(SimTime::from_millis(200)).unwrap();
        while let Some((_, data)) = tb.try_recv().unwrap() {
            if let Ok(Message::HelloAck { start_frame, .. }) = Message::decode(&data) {
                answers.push(start_frame);
            }
        }
        assert_eq!(answers.len(), 1, "{mode:?}: one answer per Hello");
        answers[0]
    }

    #[test]
    fn an_unheard_player_starts_at_frame_0_under_both_policies() {
        // Site 1 sent no input yet, so it has not started: a start frame
        // inside site 0's local lag would send it to a snapshot join.
        assert_eq!(
            start_frame_for_an_unheard_player(LockstepSession::new, ConsistencyMode::Lockstep),
            0
        );
        assert_eq!(
            start_frame_for_an_unheard_player(RollbackSession::new, ConsistencyMode::rollback()),
            0
        );
    }

    fn hello_as_site_1(tb: &mut LoopbackTransport) {
        let hello = Message::Hello {
            rom_hash: NullMachine::new().state_hash(),
        };
        tb.send(PeerId(0), &hello.encode()).unwrap();
    }

    /// Ticks a site whose peer never sends input until it gives up.
    fn stall_out<C: Consistency>(new: New<C, Idle>, mode: ConsistencyMode) {
        let (ta, mut tb) = loopback(PeerId(0), PeerId(1));
        let mut cfg0 = cfg(0, mode);
        cfg0.stall_timeout = Some(SimDuration::from_millis(400));
        let mut a = new(cfg0, NullMachine::new(), ta, Idle);
        join_as_site_1(&mut a, &mut tb);
        let mut now = SimTime::ZERO;
        let err = loop {
            match a.tick(now) {
                Ok(_) => now += SimDuration::from_millis(10),
                Err(e) => break e,
            }
            assert!(now < SimTime::from_secs(30), "never stalled out");
        };
        assert!(matches!(err, SyncError::Stalled(_)));
    }

    #[test]
    fn stall_timeout_fires_at_the_window_edge() {
        stall_out(LockstepSession::new, ConsistencyMode::Lockstep);
        stall_out(RollbackSession::new, ConsistencyMode::rollback());
    }

    #[test]
    fn only_speculation_checkpoints() {
        let mut sites = rollback_pair();
        let _ = run_pair(&mut sites, 60);
        // A checkpoint after every executed frame: the ring (capacity
        // window + 2) holds the newest 32, contiguous up to the one before
        // the next frame.
        let ring = &sites[0].policy.ring;
        let newest = sites[0].sync().pointer();
        assert_eq!(ring.len(), 30 + 2);
        assert_eq!(ring.newest_frame(), Some(newest));
        assert_eq!(ring.oldest_frame(), Some(newest - 31));
        assert!(sites[0].checkpoint_bytes() > 0);
        // Lockstep has no state to keep, and a clean link predicts nothing.
        assert_eq!(std::mem::size_of::<Lockstep>(), 0);
        assert_eq!(
            sites[0]
                .config()
                .telemetry
                .counter("predicted_frames_total"),
            0
        );
    }

    /// A speculative site 0 whose site 1, played by hand over the returned
    /// endpoint, stayed silent until site 0 speculated to its window edge:
    /// frame 36, 30 frames past frame 5, on a predicted idle site 1.
    fn speculating_to_the_window_edge(
        telemetry: Telemetry,
    ) -> (Sess<Speculative>, LoopbackTransport) {
        let (ta, mut tb) = loopback(PeerId(0), PeerId(1));
        let cfg0 = SyncConfig {
            telemetry,
            ..cfg(0, ConsistencyMode::rollback())
        };
        let mut a = RollbackSession::new(
            cfg0,
            NullMachine::new(),
            ta,
            RandomPresser::new(Player::ONE, 5),
        );
        join_as_site_1(&mut a, &mut tb);
        for ms in (0..4_000).step_by(20) {
            let _ = a.tick(SimTime::from_millis(ms)).unwrap();
        }
        assert_eq!(a.sync().pointer(), 36, "speculated 30 frames past frame 5");
        (a, tb)
    }

    /// Sends site 1's inputs for frames `first..` over its hand-played
    /// endpoint.
    fn send_site_1_inputs(tb: &mut LoopbackTransport, first: u64, inputs: Vec<InputWord>) {
        let msg = Message::Input(InputMsg {
            ack: 0,
            first,
            inputs,
        });
        tb.send(PeerId(0), &msg.encode()).unwrap();
    }

    /// Every button site 1 owns, pressed: never the idle prediction.
    fn site_1_pressing() -> InputWord {
        SyncConfig::two_player(0)
            .port_map
            .partial_input(1, InputWord(u32::MAX))
    }

    /// A checkpoint precedes every executed frame, so a repair restores the
    /// mispredicted frame itself: the frames before it were predicted right
    /// and are not replayed.
    #[test]
    fn repair_replays_from_the_mispredicted_frame() {
        let (mut a, mut tb) = speculating_to_the_window_edge(Telemetry::tracing(0, 0));
        let (g, p) = (13, a.sync().pointer());
        // Frames 6..13 are idle, as predicted; frame 13 is not.
        let mut inputs = vec![InputWord::NONE; (g - 6) as usize];
        inputs.push(site_1_pressing());
        send_site_1_inputs(&mut tb, 6, inputs);
        let _ = a.tick(SimTime::from_secs(4)).unwrap();
        let st = a.stats();
        assert_eq!(st.rollbacks, 1);
        assert_eq!(st.resimulated_frames, p - g, "replays frames g..p only");
        let restored: Vec<u64> = a
            .config()
            .telemetry
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Span {
                    stage: SpanStage::CheckpointRestored,
                    frame,
                    ..
                } => Some(frame),
                _ => None,
            })
            .collect();
        assert_eq!(restored, [g], "restores the mispredicted frame itself");
    }

    /// A [`NullMachine`] that counts its `state_hash` calls.
    #[derive(Default)]
    #[expect(
        clippy::disallowed_types,
        reason = "a test probe that counts calls made through `&self`"
    )]
    struct HashCounting {
        inner: NullMachine,
        hashes: std::cell::Cell<u64>,
    }

    impl Machine for HashCounting {
        fn info(&self) -> MachineInfo {
            self.inner.info()
        }
        fn reset(&mut self) {
            self.inner.reset();
        }
        fn step_frame(&mut self, input: InputWord) {
            self.inner.step_frame(input);
        }
        fn frame(&self) -> u64 {
            self.inner.frame()
        }
        fn framebuffer(&self) -> &FrameBuffer {
            self.inner.framebuffer()
        }
        fn state_hash(&self) -> u64 {
            self.hashes.set(self.hashes.get() + 1);
            self.inner.state_hash()
        }
        fn save_state(&self) -> Vec<u8> {
            self.inner.save_state()
        }
        fn save_state_into(&self, out: &mut Vec<u8>) {
            self.inner.save_state_into(out);
        }
        fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
            self.inner.load_state(bytes)
        }
    }

    /// The hash budget of a speculative site. The checkpoint after a
    /// frame reuses the hash its step took, so only the ROM identity, the
    /// checkpoint before frame 0, every stepped frame and every restore
    /// verification hash the state.
    #[test]
    fn checkpoints_reuse_the_step_hash() {
        let clock = VirtualClock::new();
        let net = SimNetwork::shared(clock.clone());
        let link = NetemConfig::with_rtt(SimDuration::from_millis(200))
            .jitter(SimDuration::from_millis(20))
            .loss(0.05);
        SimNetwork::link_pair(&net, PeerId(0), PeerId(1), link, 7);
        let mut sites = [(0, Player::ONE), (1, Player::TWO)].map(|(site, player)| {
            RollbackSession::new(
                cfg(site, ConsistencyMode::rollback()),
                HashCounting::default(),
                SimNetwork::socket(&net, PeerId(site)),
                RandomPresser::new(player, u64::from(site) + 1),
            )
        });
        let [ca, cb] = run_pair_with(&mut sites, 300, |now| {
            clock.set(now);
            net.borrow_mut().deliver_due(now);
        });
        let common = ca.len().min(cb.len());
        assert!(common >= 200);
        assert_eq!(ca[..common], cb[..common], "replicas diverged");
        for s in &sites {
            let st = s.stats();
            assert!(st.rollbacks > 0, "a lossy 200 ms link must mispredict");
            let budget = 1 + 1 + st.frames + st.resimulated_frames + st.rollbacks;
            assert_eq!(s.machine().hashes.get(), budget);
        }
    }

    /// A snapshot request that arrives in the same drain as an input
    /// contradicting a prediction must not be served a checkpoint captured
    /// from the mispredicted timeline: the rollback it queued has not run
    /// yet when the request is handled.
    #[test]
    fn latecomer_is_served_authoritative_state_despite_a_pending_rollback() {
        let (mut a, mut tb) = speculating_to_the_window_edge(Telemetry::disabled());
        let now = SimTime::from_secs(4);
        // Frames 6..=12: idle, as predicted — no repair.
        send_site_1_inputs(&mut tb, 6, vec![InputWord::NONE; 7]);
        let _ = a.tick(now).unwrap();
        assert_eq!(a.stats().rollbacks, 0);
        // Frames 13..=25 contradict the prediction; the snapshot request
        // lands in the same drain.
        send_site_1_inputs(&mut tb, 13, vec![site_1_pressing(); 13]);
        tb.send(PeerId(0), &Message::SnapshotRequest.encode())
            .unwrap();
        let _ = a.tick(now).unwrap();
        assert_eq!(a.stats().rollbacks, 1, "the contradiction was repaired");

        let (mut served, mut state) = (None, Vec::new());
        while let Some((_, data)) = tb.try_recv().unwrap() {
            if let Ok(Message::SnapshotChunk {
                frame,
                offset,
                total,
                bytes,
            }) = Message::decode(&data)
            {
                let offset = offset as usize;
                state.resize(total as usize, 0);
                state[offset..offset + bytes.len()].copy_from_slice(&bytes);
                served = Some(frame);
            }
        }
        // Every executed frame has a checkpoint, so the cap itself is served.
        let served = served.expect("snapshot served");
        assert_eq!(
            served, 13,
            "served frame {served} must be the mispredicted frame 13"
        );
        let mut replay = NullMachine::new();
        for f in 0..served {
            replay.step_frame(a.sync().merged_input(f));
        }
        assert_eq!(state, replay.save_state(), "served state is authoritative");
    }

    /// A lockstep site 1 told to join at frame 5, after it requested its
    /// snapshot from site 0, whose endpoint is returned with the state the
    /// host would serve.
    fn latecomer_awaiting_frame_5() -> (Sess<Lockstep, Idle>, LoopbackTransport, NullMachine) {
        let (mut ta, tb) = loopback(PeerId(0), PeerId(1));
        let mut b = LockstepSession::new(SyncConfig::two_player(1), NullMachine::new(), tb, Idle);
        let _ = b.tick(SimTime::ZERO).unwrap(); // greets site 0
        let ack = Message::HelloAck {
            rom_hash: NullMachine::new().state_hash(),
            start_frame: 5,
        };
        ta.send(PeerId(1), &ack.encode()).unwrap();
        let _ = b.tick(SimTime::from_millis(1)).unwrap(); // requests the snapshot
        let mut host = NullMachine::new();
        for _ in 0..5 {
            host.step_frame(InputWord::NONE);
        }
        (b, ta, host)
    }

    /// A chunk shorter than its slot fills none of it: a latecomer sent
    /// only the first 8 bytes of a 16-byte snapshot waits for the rest.
    #[test]
    fn latecomer_does_not_join_on_a_short_snapshot_chunk() {
        let (mut b, mut ta, host) = latecomer_awaiting_frame_5();
        let state = host.save_state();
        assert_eq!(state.len(), 16);
        let chunk = |bytes: &[u8]| Message::SnapshotChunk {
            frame: 5,
            offset: 0,
            total: state.len() as u32,
            bytes: bytes.to_vec(),
        };
        ta.send(PeerId(1), &chunk(&state[..8]).encode()).unwrap();
        let _ = b.tick(SimTime::from_millis(2)).unwrap();
        assert!(
            matches!(b.phase, Phase::AwaitSnapshot { .. }),
            "joined on half a snapshot"
        );
        ta.send(PeerId(1), &chunk(&state).encode()).unwrap();
        let _ = b.tick(SimTime::from_millis(3)).unwrap();
        assert_eq!(b.frame(), 5);
        assert_eq!(b.machine().state_hash(), host.state_hash());
    }

    /// A chunk announcing a snapshot larger than `MAX_SNAPSHOT_BYTES`
    /// is dropped before the latecomer sizes anything to it, and the real
    /// snapshot still completes the join.
    #[test]
    fn latecomer_ignores_an_oversized_snapshot_chunk() {
        let (mut b, mut ta, host) = latecomer_awaiting_frame_5();
        let chunk = |total, bytes: Vec<u8>| Message::SnapshotChunk {
            frame: 5,
            offset: 0,
            total,
            bytes,
        };
        ta.send(PeerId(1), &chunk(u32::MAX, vec![0xAA; 16]).encode())
            .unwrap();
        let _ = b.tick(SimTime::from_millis(2)).unwrap();
        let Phase::AwaitSnapshot { total, buf, .. } = &b.phase else {
            panic!("the forged chunk completed a join");
        };
        assert_eq!((*total, buf.capacity()), (0, 0), "nothing sized to it");

        let state = host.save_state();
        ta.send(PeerId(1), &chunk(state.len() as u32, state).encode())
            .unwrap();
        let _ = b.tick(SimTime::from_millis(3)).unwrap();
        assert_eq!(b.frame(), 5);
        assert_eq!(b.machine().state_hash(), host.state_hash());
    }

    /// A chunk from a site the latecomer did not ask, arriving between the
    /// two chunks of the real snapshot, neither restarts nor delays the
    /// join: it completes at the same tick and frame as without it.
    #[test]
    fn latecomer_assembles_chunks_only_from_the_site_it_asked() {
        let join = |stray: Option<Message>| {
            let (mut b, mut ta, host) = latecomer_awaiting_frame_5();
            // Two chunks: the host's state padded past one chunk's length.
            let mut state = host.save_state();
            state.resize(MAX_CHUNK_BYTES + 16, 0);
            let (first, second) = state.split_at(MAX_CHUNK_BYTES);
            let chunk = |offset: usize, bytes: &[u8]| Message::SnapshotChunk {
                frame: 5,
                offset: offset as u32,
                total: state.len() as u32,
                bytes: bytes.to_vec(),
            };
            ta.send(PeerId(1), &chunk(0, first).encode()).unwrap();
            let _ = b.tick(SimTime::from_millis(2)).unwrap();
            if let Some(stray) = stray {
                b.handle_message(PeerId(2), stray, SimTime::from_millis(2))
                    .unwrap();
            }
            ta.send(PeerId(1), &chunk(MAX_CHUNK_BYTES, second).encode())
                .unwrap();
            let _ = b.tick(SimTime::from_millis(3)).unwrap();
            assert_eq!(b.machine().state_hash(), host.state_hash());
            b.frame()
        };
        let stray = Message::SnapshotChunk {
            frame: 9,
            offset: 0,
            total: 32,
            bytes: vec![0xAA; 32],
        };
        assert_eq!(join(None), 5);
        assert_eq!(join(Some(stray)), 5, "the stray chunk delayed the join");
    }

    /// An observer sends site 1, from its own address, input words for
    /// frames 6..=12 that press every button site 0 owns. The transport
    /// names the sender, so the words land in no player's slots: site 1
    /// still has nothing from site 0.
    fn observer_input_lands_in_no_slot<C: Consistency>(
        new: fn(SyncConfig, NullMachine, SimSocket, RandomPresser) -> SimSess<C>,
        mode: ConsistencyMode,
    ) {
        const OBSERVER: u8 = 0xE0;
        let clock = VirtualClock::new();
        let net = SimNetwork::shared(clock.clone());
        for from in [0, OBSERVER] {
            SimNetwork::link_pair(&net, PeerId(from), PeerId(1), NetemConfig::new(), 1);
        }
        let mut observer = SimNetwork::socket(&net, PeerId(OBSERVER));
        let socket = SimNetwork::socket(&net, PeerId(1));
        let source = RandomPresser::new(Player::TWO, 2);
        let mut b = new(cfg(1, mode), NullMachine::new(), socket, source);
        let site_0_pressing = SyncConfig::two_player(0)
            .port_map
            .partial_input(0, InputWord(u32::MAX));
        let hello = Message::Hello {
            rom_hash: NullMachine::new().state_hash(),
        };
        let input = Message::Input(InputMsg {
            ack: 5,
            first: 6,
            inputs: vec![site_0_pressing; 7],
        });
        for m in [hello, input] {
            observer.send(PeerId(1), &m.encode()).unwrap();
        }
        net.borrow_mut().deliver_due(clock.now());
        let _ = b.tick(clock.now()).unwrap();
        assert_eq!(b.stats().input_messages_received, 1, "{mode:?}");
        assert_eq!(b.sync().last_rcv(0), Some(5), "{mode:?}");
        for f in 6..=12 {
            assert!(!b.sync().has_authoritative(f, 0), "{mode:?}: frame {f}");
            assert_eq!(b.sync().merged_input(f), InputWord::NONE, "{mode:?}");
        }
    }

    #[test]
    fn an_observer_cannot_send_a_players_input() {
        observer_input_lands_in_no_slot(LockstepSession::new, ConsistencyMode::Lockstep);
        observer_input_lands_in_no_slot(RollbackSession::new, ConsistencyMode::rollback());
    }

    /// The frame whose begin changes site 0's scripted input: odd, so its
    /// begin falls inside the 20 ms send interval that frame 4's paced
    /// send opened (frames are 16.7 ms apart). Frame f buffers the input
    /// for frame f + 6, the default local lag.
    const CHANGE_FRAME: u64 = 5;

    /// Runs site 0 under policy `C` for frames 0..=10 with its input idle
    /// before [`CHANGE_FRAME`] and pressed from it on. Site 1 is played by
    /// hand and sends its idle inputs up front, so nothing stalls and
    /// nothing is predicted. Returns `(frame, newest input frame carried)`
    /// for each datagram sent in the tick that ran `frame`. Frame 0 runs
    /// in the handshake tick, whose datagrams `join_as_site_1` discards.
    fn sends_by_frame<C: Consistency>(
        new: New<C, Scripted>,
        mode: ConsistencyMode,
    ) -> Vec<(u64, u64)> {
        let (ta, mut tb) = loopback(PeerId(0), PeerId(1));
        let pressed = SyncConfig::two_player(0)
            .port_map
            .partial_input(0, InputWord(u32::MAX));
        let mut script = vec![InputWord::NONE; CHANGE_FRAME as usize];
        script.resize(11, pressed);
        let mut a = new(cfg(0, mode), NullMachine::new(), ta, Scripted::new(script));
        join_as_site_1(&mut a, &mut tb);
        send_site_1_inputs(&mut tb, 6, vec![InputWord::NONE; 30]);
        let mut sends = Vec::new();
        let mut now = SimTime::ZERO;
        loop {
            let step = a.tick(now).unwrap();
            while let Some((_, data)) = tb.try_recv().unwrap() {
                if let Ok(Message::Input(m)) = Message::decode(&data) {
                    sends.push((a.frame(), m.last()));
                }
            }
            match step {
                Step::Wait(t) => now = t,
                Step::FrameDone { report, .. } if report.frame == 10 => break,
                Step::FrameDone { next_wake, .. } => now = next_wake,
                Step::Stopped(r) => panic!("unexpected stop: {r}"),
            }
        }
        assert_eq!(a.stats().rollbacks, 0);
        sends
    }

    #[test]
    fn speculative_site_sends_a_changed_input_in_the_same_tick() {
        // Frame 5 sends its change for frame 11 at once, inside the
        // interval frame 4's send opened; the unchanged frames 3 and 6
        // fall inside an interval and send nothing, and the cadence
        // restarts from frame 5's send.
        let sends = sends_by_frame(RollbackSession::new, ConsistencyMode::rollback());
        assert_eq!(sends, [(2, 8), (4, 10), (5, 11), (7, 13), (9, 15)]);
    }

    #[test]
    fn lockstep_site_keeps_the_paced_cadence() {
        // The same script: the change for frame 11 waits for frame 6's
        // paced send.
        let sends = sends_by_frame(LockstepSession::new, ConsistencyMode::Lockstep);
        assert_eq!(sends, [(2, 8), (4, 10), (6, 12), (8, 14), (10, 16)]);
    }

    type SimSess<C> = Session<NullMachine, SimSocket, RandomPresser, C>;

    /// Runs a pair under policy `C` over a lossy 80 ms-RTT simulated link
    /// for 300 frames, checks that the replicas agree, and returns how
    /// often each site's input sends were expedited.
    fn expedited_over_a_lossy_link<C: Consistency>(
        new: fn(SyncConfig, NullMachine, SimSocket, RandomPresser) -> SimSess<C>,
        mode: ConsistencyMode,
    ) -> [u64; 2] {
        let clock = VirtualClock::new();
        let net = SimNetwork::shared(clock.clone());
        let link = NetemConfig::with_rtt(SimDuration::from_millis(80))
            .jitter(SimDuration::from_millis(8))
            .loss(0.05);
        SimNetwork::link_pair(&net, PeerId(0), PeerId(1), link, 3);
        let mut sites = [(0, Player::ONE), (1, Player::TWO)].map(|(site, player)| {
            let cfg = SyncConfig {
                telemetry: Telemetry::recording(),
                ..cfg(site, mode)
            };
            new(
                cfg,
                NullMachine::new(),
                SimNetwork::socket(&net, PeerId(site)),
                RandomPresser::new(player, u64::from(site) + 1),
            )
        });
        let [ca, cb] = run_pair_with(&mut sites, 300, |now| {
            clock.set(now);
            net.borrow_mut().deliver_due(now);
        });
        let common = ca.len().min(cb.len());
        assert!(common >= 200);
        assert_eq!(ca[..common], cb[..common], "replicas diverged");
        sites.map(|s| s.config().telemetry.counter("input_sends_expedited_total"))
    }

    #[test]
    fn only_speculative_sites_expedite_sends() {
        let rollback =
            expedited_over_a_lossy_link(RollbackSession::new, ConsistencyMode::rollback());
        assert!(rollback.iter().all(|&n| n > 0), "{rollback:?}");
        let lockstep = expedited_over_a_lossy_link(LockstepSession::new, ConsistencyMode::Lockstep);
        assert_eq!(lockstep, [0, 0]);
    }
}
