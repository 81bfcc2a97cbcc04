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
//! Session control implements the paper's start protocol (two sites start
//! within one RTT) plus the journal extensions: N players, observers, and
//! latecomers joining mid-game via state snapshots.

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
/// site, the distance between its pointer and the checkpoint it serves.
/// Must stay below the input-history retention window
/// ([`RETAIN_FRAMES`](crate::sync_input::RETAIN_FRAMES)).
pub const JOIN_MARGIN_FRAMES: u64 = 64;

/// Hello/SnapshotRequest retransmission interval during joins.
const JOIN_RETRY: SimDuration = SimDuration::from_millis(200);

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
    /// The machine's state digest after the frame (if hashing is enabled).
    /// On a speculative site it may still be rolled back; see
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
    /// Master: waiting for every player's Hello.
    MasterWait,
    /// Non-master: helloing until every player acknowledged.
    Connecting {
        next_hello: SimTime,
        acks: BTreeMap<u8, u64>,
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
    joined: Vec<u8>,
    time_server: Option<PeerId>,
    hash_frames: bool,
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
    /// window and checkpoint cadence come from [`SyncConfig::consistency`]
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
    /// see [`Session::drain_confirmed`].
    pub fn take_confirmed(&mut self) -> Vec<(u64, u64)> {
        // detlint: allow(hot_alloc) -- empty until pushed; ownership moves to the caller
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
            // detlint: allow(hot_alloc) -- constructor-time Arc handle clone, not per-frame
            .with_telemetry(cfg.telemetry.clone());
        // detlint: allow(hot_alloc) -- constructor-time Arc handle clone, not per-frame
        let rtt = RttEstimator::default().with_telemetry(cfg.telemetry.clone());
        let phase = if cfg.is_master() {
            Phase::MasterWait
        } else {
            Phase::Connecting {
                next_hello: SimTime::ZERO,
                // detlint: allow(hot_alloc) -- constructor-time handshake state, not per-frame
                acks: BTreeMap::new(),
            }
        };
        Session {
            // detlint: allow(hot_alloc) -- one-time config clone at session construction
            sync: InputSync::new(cfg.clone()),
            timer,
            rtt,
            phase,
            frame: 0,
            frame_start: SimTime::ZERO,
            rom_hash,
            // detlint: allow(hot_alloc) -- one-time constructor allocation, not per-frame
            joined: Vec::new(),
            time_server: None,
            hash_frames: true,
            stats: SessionStats::default(),
            blocked_at: None,
            // detlint: allow(hot_alloc) -- reusable buffer; grows once, then steady-state
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

    /// Disables per-frame state hashing (saves time in throughput benches;
    /// a speculative site still hashes its checkpoints). Nothing is
    /// confirmed in this mode.
    pub fn without_frame_hashes(mut self) -> Self {
        self.hash_frames = false;
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
    /// site once its frontier passes it. Call after every tick to see each
    /// confirmed frame exactly once.
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
            for p in self.cfg.peers() {
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
                // detlint: allow(hot_alloc) -- terminal stop path, runs once per session
                Phase::Done(reason) => return Ok(Step::Stopped(reason.clone())),
                Phase::MasterWait => {
                    let players_expected = self.cfg.num_sites as usize - 1;
                    if self.joined.len() >= players_expected {
                        self.phase =
                            Phase::Run(RunState::StartAt(now + self.cfg.first_frame_delay));
                        continue;
                    }
                    return Ok(Step::Wait(now + JOIN_RETRY));
                }
                Phase::Connecting { next_hello, acks } => {
                    let mut players = self.cfg.peers();
                    if players.all(|p| acks.contains_key(&p)) {
                        let start = acks.values().copied().max().unwrap_or(0);
                        self.phase = if start == 0 {
                            Phase::Run(RunState::StartAt(now + self.cfg.first_frame_delay))
                        } else {
                            // Mid-game join: fetch a snapshot from the master.
                            Phase::AwaitSnapshot {
                                next_request: SimTime::ZERO,
                                frame: 0,
                                total: 0,
                                // detlint: allow(hot_alloc) -- join path; empty until the first chunk
                                buf: Vec::new(),
                                // detlint: allow(hot_alloc) -- join path; empty until the first chunk
                                received: Vec::new(),
                            }
                        };
                        continue;
                    }
                    if now >= *next_hello {
                        *next_hello = now + JOIN_RETRY;
                        let hello = Message::Hello {
                            site: self.cfg.my_site,
                            rom_hash: self.rom_hash,
                            observer: !self.sync.is_player(),
                        }
                        .encode();
                        if self.cfg.topology == Topology::Relay {
                            // Outbound-only client: the relay fans the
                            // hello out to whichever members are present.
                            self.transport.send(PeerId::BROADCAST, &hello)?;
                        } else {
                            for p in self.cfg.peers() {
                                if !acks.contains_key(&p) {
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
                            // detlint: allow(hot_alloc) -- join path error; the session is about to abort
                            .map_err(|e| SyncError::Snapshot(e.to_string()))?;
                        self.frame = frame;
                        // detlint: allow(hot_alloc) -- once per join
                        self.sync = InputSync::new_at(self.cfg.clone(), frame);
                        self.phase = Phase::Run(RunState::StartAt(now));
                        continue;
                    }
                    if now >= *next_request {
                        *next_request = now + JOIN_RETRY;
                        self.transport
                            .send(PeerId(0), &Message::SnapshotRequest.encode())?;
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
                        let obs = self.sync.master_observation();
                        self.timer
                            .begin_frame(now, self.frame, obs.as_ref(), self.rtt.rtt());
                        if self.timer.last_sync_adjust() != SimDelta::ZERO {
                            self.stats.pace_adjustments += 1;
                        }
                        let local = self.source.sample(self.frame);
                        self.sync.begin_frame(self.frame, local, now);
                        if let Some(server) = self.time_server {
                            let stamp = Message::TimeStamp {
                                site: self.cfg.my_site,
                                frame: self.frame,
                            };
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
            state_hash,
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

    /// Executes `frame` and hashes the result once: the report, the
    /// confirmed hashes and a repair all reuse that hash. `mode` is
    /// `Headless` for repair frames whose output will never be presented.
    fn step(
        &mut self,
        frame: u64,
        now: SimTime,
        mode: StepMode,
        live: bool,
    ) -> (InputWord, Option<u64>) {
        let input = match self.policy.speculative() {
            Some(spec) => spec.prepare(frame, &mut self.machine, &self.sync, &self.cfg, now, live),
            None => self.sync.merged_input(frame),
        };
        self.machine.step_frame_mode(input, mode);
        let hash = self.hash_frames.then(|| self.machine.state_hash());
        if let (Some(spec), Some(hash)) = (self.policy.speculative(), hash) {
            spec.note_hash(frame, hash);
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
        let Some((target, cp_frame)) = spec.rewind(pointer, &mut self.machine, &self.cfg, now)?
        else {
            return Ok(());
        };
        // Only the last repaired frame is ever presented: everything before
        // it steps headless, skipping draw/audio work nobody will see while
        // advancing authoritative state byte-identically.
        for g in cp_frame..pointer {
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
        let resimulated = pointer - cp_frame;
        if resimulated > 1 {
            self.cfg
                .telemetry
                .counter_add("headless_resim_frames_total", resimulated - 1);
        }
        self.stats.note_rollback(depth, resimulated);
        self.cfg.telemetry.record(
            now,
            EventKind::RollbackExecuted {
                to_frame: target,
                depth,
                resimulated,
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
        match msg {
            Message::Input(m) => {
                self.stats.input_messages_received += 1;
                let before = self.sync.last_rcv(m.from);
                let outcome = self.sync.on_message(&m, now);
                if outcome.duplicate {
                    self.stats.duplicate_messages_received += 1;
                }
                // Frames the message carried that we already had buffered.
                self.stats.retransmitted_frames_received +=
                    (outcome.carried - outcome.fresh) as u64;
                if let (Some(spec), Some(before)) = (self.policy.speculative(), before) {
                    spec.check_predictions(m.from, before, &self.sync, &self.cfg, now);
                }
            }
            Message::Ping { nonce } => {
                self.transport
                    .send(from, &Message::Pong { nonce }.encode())?;
            }
            Message::Pong { nonce } => self.rtt.on_pong(nonce, now),
            Message::Hello {
                site,
                rom_hash,
                observer,
            } => {
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
                if !observer && !self.joined.contains(&site) {
                    self.joined.push(site);
                }
                let start_frame = match self.policy.speculative() {
                    None => self.sync.pointer(),
                    // A player this site never heard from has not started:
                    // nothing it plays is confirmed anywhere yet.
                    Some(_) if site < self.cfg.num_sites && !self.sync.heard_from(site) => 0,
                    // detlint: allow(hot_alloc) -- join handshake, once per joining site
                    Some(_) => self.authoritative_state(&mut Vec::new())?,
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
                if let Phase::Connecting { acks, .. } = &mut self.phase {
                    acks.insert(from.0, start_frame);
                }
            }
            Message::SnapshotRequest => {
                // Serve an authoritative state in chunks (master only, but
                // any player can technically serve).
                // detlint: allow(hot_alloc) -- join path; one snapshot per latecomer request
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
                        bytes: coplay_net::bytes::Bytes::copy_from_slice(chunk),
                    };
                    self.transport.send(from, &m.encode())?;
                }
            }
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
                        // detlint: allow(hot_alloc) -- join path; once per snapshot generation
                        *buf = vec![0; total];
                        // detlint: allow(hot_alloc) -- join path; once per snapshot generation
                        *received = vec![false; total.div_ceil(MAX_CHUNK_BYTES)];
                    }
                    let offset = offset as usize;
                    if let Some(dst) = buf.get_mut(offset..offset + bytes.len()) {
                        dst.copy_from_slice(&bytes);
                        if let Some(slot) = received.get_mut(offset / MAX_CHUNK_BYTES) {
                            *slot = true;
                        }
                    }
                }
            }
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
    use crate::input_source::{Idle, RandomPresser};
    use crate::wire::InputMsg;
    use coplay_net::{loopback, LoopbackTransport};
    use coplay_vm::{NullMachine, Player};

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
        let mut now = SimTime::ZERO;
        let mut confirmed = [Vec::new(), Vec::new()];
        let mut guard = 0;
        while sites.iter().any(|s| s.stats().frames < frames) {
            guard += 1;
            assert!(guard < 1_000_000, "no progress after 1M ticks");
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

    /// Handshakes the pair, then ticks only site 0 while site 1 stays
    /// silent; returns how far site 0 ran past its confirmed frontier.
    fn lead_over_silent_peer<C: Consistency>(sites: &mut [Sess<C>; 2]) -> u64 {
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            for s in sites.iter_mut() {
                let _ = s.tick(now).unwrap();
            }
            now += SimDuration::from_millis(5);
        }
        let a = &mut sites[0];
        let mut waits = 0;
        for _ in 0..5_000 {
            now += SimDuration::from_millis(2);
            if let Step::Wait(_) = a.tick(now).unwrap() {
                waits += 1;
            }
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
        let common = ca.len().min(cb.len());
        assert!(common >= 100);
        assert_eq!(ca[..common], cb[..common], "post-rollback hashes agree");
    }

    /// Says Hello to `a` as player 1 over the raw endpoint `tb`, so the
    /// test can play site 1 by hand.
    fn join_as_site_1<C: Consistency, S: InputSource>(
        a: &mut Sess<C, S>,
        tb: &mut LoopbackTransport,
    ) {
        let hello = Message::Hello {
            site: 1,
            rom_hash: NullMachine::new().state_hash(),
            observer: false,
        };
        tb.send(PeerId(0), &hello.encode()).unwrap();
        let _ = a.tick(SimTime::ZERO).unwrap();
        while tb.try_recv().unwrap().is_some() {} // the HelloAck
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
        // Cadence 5 over 60 frames: the ring (capacity 8) holds the newest
        // eight of frames {0, 5, 10, ...}.
        let ring = &sites[0].policy.ring;
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.newest_frame().unwrap() % 5, 0);
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

    /// A snapshot request that arrives in the same drain as an input
    /// contradicting a prediction must not be served a checkpoint captured
    /// from the mispredicted timeline: the rollback it queued has not run
    /// yet when the request is handled.
    #[test]
    fn latecomer_is_served_authoritative_state_despite_a_pending_rollback() {
        let (ta, mut tb) = loopback(PeerId(0), PeerId(1));
        let cfg0 = cfg(0, ConsistencyMode::rollback());
        let site1_mask = cfg0.port_map.partial_input(1, InputWord(u32::MAX));
        let mut a = RollbackSession::new(
            cfg0,
            NullMachine::new(),
            ta,
            RandomPresser::new(Player::ONE, 5),
        );
        join_as_site_1(&mut a, &mut tb);
        // Site 1 stays silent: a speculates to the window edge on a
        // predicted idle site 1.
        let now = SimTime::from_secs(4);
        for ms in (0..4_000).step_by(20) {
            let _ = a.tick(SimTime::from_millis(ms)).unwrap();
        }
        assert_eq!(a.sync().pointer(), 36, "speculated 30 frames past frame 5");
        let mut send = |msg: Message| tb.send(PeerId(0), &msg.encode()).unwrap();
        let input = |first, inputs| {
            Message::Input(InputMsg {
                from: 1,
                ack: 0,
                first,
                inputs,
            })
        };
        // Frames 6..=12: idle, as predicted — no repair.
        send(input(6, vec![InputWord::NONE; 7]));
        let _ = a.tick(now).unwrap();
        assert_eq!(a.stats().rollbacks, 0);
        // Frames 13..=25 contradict the prediction; the snapshot request
        // lands in the same drain.
        send(input(13, vec![site1_mask; 13]));
        send(Message::SnapshotRequest);
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
        let served = served.expect("snapshot served");
        assert!(
            (1..=13).contains(&served),
            "served frame {served} must not pass the mispredicted frame 13"
        );
        let mut replay = NullMachine::new();
        for f in 0..served {
            replay.step_frame(a.sync().merged_input(f));
        }
        assert_eq!(state, replay.save_state(), "served state is authoritative");
    }
}
