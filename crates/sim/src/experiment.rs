//! The paper's testbed in software: two (or more) gaming sites, a Netem box
//! between them, and a LAN time server — all in deterministic virtual time.
//!
//! [`Experiment`] wires session sites over a [`SimNetwork`], runs the
//! configured number of frames, and computes exactly the statistics of §4:
//! Series 1 (per-site average frame time and average deviation — Figure 1)
//! and Series 2 (average absolute inter-site frame-begin difference —
//! Figure 2). Replica convergence is verified from per-frame state hashes,
//! something the paper assumes but the harness proves on every run.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

use coplay_clock::{Clock, EventId, EventQueue, SimDuration, SimTime, TimeServer, VirtualClock};
use coplay_games::GameId;
use coplay_net::{JitterDistribution, NetemConfig, PeerId, SimNetwork, SimSocket, Transport};
use coplay_sync::{
    Consistency, ConsistencyMode, FrameReport, LockstepSession, Message, RandomPresser,
    RollbackSession, Session, SessionDriver, SessionStats, Step, SyncConfig, SyncError,
};
use coplay_telemetry::{EventKind, Telemetry};
use coplay_vm::{Machine, Player};

use crate::metrics::{abs_mean, deltas_ms, SiteStats};

/// First observer site number (distinct from player sites 0–3).
pub const FIRST_OBSERVER_SITE: u8 = 0xE0;

/// Everything that defines one experimental run.
///
/// Defaults reproduce the paper's setup: Brawler (the SF2 stand-in),
/// 3600 frames at 60 FPS, local lag 6 frames, one message per 20 ms, a
/// 10 ms sender thread slice, two players, pace smoothing on.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Which game both sites load.
    pub game: GameId,
    /// Frames to measure (the paper records 3600 per point).
    pub frames: u64,
    /// Master seed for input scripts and network impairments.
    pub seed: u64,
    /// Round-trip time of the inter-site path (split evenly per direction).
    pub rtt: SimDuration,
    /// Jitter magnitude on the inter-site path.
    pub jitter: SimDuration,
    /// Jitter distribution.
    pub jitter_dist: JitterDistribution,
    /// Packet loss probability on the inter-site path.
    pub loss: f64,
    /// Loss burst correlation.
    pub loss_correlation: f64,
    /// Packet duplication probability.
    pub duplicate: f64,
    /// Reordering probability.
    pub reorder: f64,
    /// Sender-side thread time slice (uniform `[0, slice)` extra delay;
    /// the paper's §4.2 charges an average of half of 10 ms to this).
    pub tx_slice: SimDuration,
    /// The local lag in frames (`BufFrame`).
    pub buf_frames: u64,
    /// Outbound message pacing.
    pub send_interval: SimDuration,
    /// Game frame rate.
    pub cfps: u32,
    /// Algorithm 4 (master/slave pace smoothing) on/off.
    pub rate_sync: bool,
    /// Number of player sites (2 in the ICDCS paper).
    pub num_players: u8,
    /// Number of observer sites that join at session start.
    pub observers: u8,
    /// Virtual time at which a latecomer observer boots and joins
    /// mid-game from a state snapshot served by the master, if any.
    pub latecomer_at: Option<SimDuration>,
    /// Extra delay before the slave (site 1) boots, for the pacing ablation.
    pub start_skew: SimDuration,
    /// Verify per-frame state-hash equality across replicas.
    pub check_convergence: bool,
    /// Attach a recording [`Telemetry`] sink to every site and to the
    /// network fabric. When `false` (the default), the no-op sink is used
    /// and the run costs nothing extra.
    pub telemetry: bool,
    /// Additionally enable frame-lifecycle span tracing on every site
    /// (implies `telemetry`). Each site's handle carries `(seed, site)` as
    /// its `(session, site)` correlation identity, so per-site trace dumps
    /// from one run can be merged into a cross-site timeline (the
    /// `tracescope` tool does exactly this).
    pub trace: bool,
    /// When set, any site whose telemetry latched an anomaly (stall past
    /// threshold, rollback-depth spike, detected desync) dumps a black-box
    /// forensics bundle under this directory after the run. `None` (the
    /// default) never touches the filesystem.
    pub forensics_root: Option<PathBuf>,
    /// Consistency maintenance for the *player* sites: the paper's lockstep
    /// (default) or speculative rollback. Observer sites always run
    /// lockstep — they have no local input to predict around. A latecomer
    /// joins under either mode: a speculative master serves its newest
    /// authoritative checkpoint.
    pub consistency: ConsistencyMode,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            game: GameId::Brawler,
            frames: 3600,
            seed: 0x0C05_01A1,
            rtt: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            jitter_dist: JitterDistribution::Uniform,
            loss: 0.0,
            loss_correlation: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            tx_slice: SimDuration::from_millis(10),
            buf_frames: 6,
            send_interval: SimDuration::from_millis(20),
            cfps: 60,
            rate_sync: true,
            num_players: 2,
            observers: 0,
            latecomer_at: None,
            start_skew: SimDuration::ZERO,
            check_convergence: true,
            telemetry: false,
            trace: false,
            forensics_root: None,
            consistency: ConsistencyMode::Lockstep,
        }
    }
}

impl ExperimentConfig {
    /// The paper's sweep point: everything default except the RTT.
    pub fn with_rtt(rtt: SimDuration) -> ExperimentConfig {
        ExperimentConfig {
            rtt,
            ..ExperimentConfig::default()
        }
    }

    /// The same sweep point under rollback consistency (default tuning).
    pub fn rollback_with_rtt(rtt: SimDuration) -> ExperimentConfig {
        ExperimentConfig {
            rtt,
            consistency: ConsistencyMode::rollback(),
            ..ExperimentConfig::default()
        }
    }
}

/// The measured outcome of one run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Series-1 statistics per player site.
    pub sites: Vec<SiteStats>,
    /// Series-2 statistic: average absolute inter-site frame-begin
    /// difference between sites 0 and 1, in ms.
    pub synchrony_ms: f64,
    /// `true` if every common frame's state hash matched across replicas.
    pub converged: bool,
    /// Per site (same order as `session_stats`), how many of its frame
    /// hashes were compared against site 0's (0 for site 0 itself).
    pub compared_frames: Vec<u64>,
    /// Frames measured per site.
    pub frames: u64,
    /// Virtual time the run spanned.
    pub elapsed: SimDuration,
    /// Inter-site packets offered / lost (both directions of the 0↔1 link).
    pub packets_offered: u64,
    /// Packets dropped by the loss process.
    pub packets_lost: u64,
    /// In-band session counters per site (players first, then observers).
    pub session_stats: Vec<SessionStats>,
    /// Per-site telemetry handles (same order as `session_stats`). Disabled
    /// no-op handles unless [`ExperimentConfig::telemetry`] was set.
    pub telemetry: Vec<Telemetry>,
    /// The network fabric's telemetry handle (packet drops/duplications).
    pub net_telemetry: Telemetry,
}

impl ExperimentResult {
    /// Convenience: the master's mean frame time in ms.
    pub fn master_frame_time_ms(&self) -> f64 {
        self.sites[0].mean_frame_time_ms
    }

    /// Convenience: the worse smoothness (average deviation) of the two
    /// player sites, ms — the conservative reading of Figure 1.
    pub fn worst_deviation_ms(&self) -> f64 {
        self.sites
            .iter()
            .map(|s| s.frame_time_deviation_ms)
            .fold(0.0, f64::max)
    }
}

/// Errors from a simulation run.
#[derive(Debug)]
pub enum SimError {
    /// A session failed (transport, mismatch, stall).
    Session {
        /// Which site failed.
        site: u8,
        /// The underlying error.
        error: SyncError,
    },
    /// No events left but the target frame count was not reached.
    Deadlock {
        /// Virtual time of the deadlock.
        at: SimTime,
    },
    /// The run exceeded its virtual-time budget (e.g. RTT far beyond the
    /// playable regime with a stalled site).
    TimeBudgetExceeded {
        /// The budget that was exhausted.
        budget: SimDuration,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Session { site, error } => write!(f, "site {site} failed: {error}"),
            SimError::Deadlock { at } => write!(f, "event queue ran dry at {at}"),
            SimError::TimeBudgetExceeded { budget } => {
                write!(f, "virtual time budget of {budget} exceeded")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// One site's session under either consistency mode. Both speak the same
/// wire protocol; the harness only needs a common driving surface.
trait Site: SessionDriver<Machine = Box<dyn Machine>> {
    fn drain_confirmed(&mut self, executed: Option<&FrameReport>, out: &mut Vec<(u64, u64)>);
}

impl<C: Consistency> Site for Session<Box<dyn Machine>, SimSocket, RandomPresser, C> {
    fn drain_confirmed(&mut self, executed: Option<&FrameReport>, out: &mut Vec<(u64, u64)>) {
        Session::drain_confirmed(self, executed, out);
    }
}

/// Attaches the time server (and optionally drops frame hashing) before
/// the session's policy is erased.
fn testbed_site<C: Consistency + 'static>(
    session: Session<Box<dyn Machine>, SimSocket, RandomPresser, C>,
    hash_frames: bool,
) -> Box<dyn Site> {
    let session = session.with_time_server(PeerId::TIME_SERVER);
    if hash_frames {
        Box::new(session)
    } else {
        Box::new(session.without_frame_hashes())
    }
}

struct SiteRunner {
    site_no: u8,
    session: Box<dyn Site>,
    /// When the site starts running; it ignores ticks before this.
    boot: SimTime,
    pending_wake: Option<EventId>,
    frames_done: u64,
    /// Confirmed per-frame hashes, from `first_frame` on. A rollback
    /// site's speculative hashes never enter the convergence check.
    hashes: Vec<u64>,
    /// Scratch for the confirmed `(frame, hash)` pairs of one tick.
    confirmed: Vec<(u64, u64)>,
    first_frame: u64,
    failed: bool,
}

/// One configured run of the paper's testbed.
#[derive(Debug)]
pub struct Experiment {
    config: ExperimentConfig,
}

impl Experiment {
    /// Prepares a run.
    pub fn new(config: ExperimentConfig) -> Experiment {
        Experiment { config }
    }

    /// Executes the run to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if a session fails, the simulation deadlocks,
    /// or the virtual-time budget is exceeded.
    pub fn run(&self) -> Result<ExperimentResult, SimError> {
        let cfg = &self.config;
        let clock = VirtualClock::new();
        let net = SimNetwork::shared(clock.clone());

        // Inter-site impairments (the Netem box).
        let impaired = NetemConfig::new()
            .delay(cfg.rtt / 2)
            .jitter(cfg.jitter)
            .jitter_distribution(cfg.jitter_dist)
            .loss(cfg.loss)
            .loss_correlation(cfg.loss_correlation)
            .duplicate(cfg.duplicate)
            .reorder(cfg.reorder)
            .tx_slice(cfg.tx_slice);
        // The measurement LAN: sub-millisecond, clean.
        let lan = NetemConfig::new().delay(SimDuration::from_micros(250));

        let mut site_numbers: Vec<u8> = (0..cfg.num_players).collect();
        for o in 0..cfg.observers + cfg.latecomer_at.map_or(0, |_| 1) {
            site_numbers.push(FIRST_OBSERVER_SITE + o);
        }
        for (i, &a) in site_numbers.iter().enumerate() {
            for &b in &site_numbers[i + 1..] {
                SimNetwork::link_pair(
                    &net,
                    PeerId(a),
                    PeerId(b),
                    impaired.clone(),
                    cfg.seed ^ ((a as u64) << 32) ^ (b as u64).wrapping_mul(0x9E37),
                );
            }
            SimNetwork::link_pair(
                &net,
                PeerId(a),
                PeerId::TIME_SERVER,
                lan.clone(),
                7 + a as u64,
            );
        }
        let mut server_sock = SimNetwork::socket(&net, PeerId::TIME_SERVER);
        let mut time_server = TimeServer::new();

        let net_telemetry = if cfg.telemetry || cfg.trace {
            Telemetry::recording()
        } else {
            Telemetry::disabled()
        };
        net.borrow_mut().set_telemetry(net_telemetry.clone());

        // Build the sites.
        let mut sites: Vec<SiteRunner> = Vec::new();
        let mut wakes: EventQueue<usize> = EventQueue::new();
        for (idx, &site_no) in site_numbers.iter().enumerate() {
            let is_observer = site_no >= FIRST_OBSERVER_SITE;
            let mut sync_cfg = SyncConfig::two_player(0);
            sync_cfg.my_site = site_no;
            sync_cfg.num_sites = cfg.num_players;
            sync_cfg.port_map = coplay_vm::PortMap::one_per_site(cfg.num_players as usize);
            sync_cfg.buf_frames = cfg.buf_frames;
            sync_cfg.send_interval = cfg.send_interval;
            sync_cfg.cfps = cfg.cfps;
            sync_cfg.rate_sync = cfg.rate_sync;
            // §3.2 initialization deviation: the slave's frame loop starts
            // late (applied post-handshake so it actually manifests).
            if site_no != 0 && !is_observer {
                sync_cfg.first_frame_delay = cfg.start_skew;
            }
            if cfg.trace {
                sync_cfg.telemetry = Telemetry::tracing(cfg.seed, site_no);
            } else if cfg.telemetry {
                sync_cfg.telemetry = Telemetry::recording();
            }
            sync_cfg.consistency = cfg.consistency;

            let machine = cfg.game.create();
            let source = RandomPresser::new(
                Player(site_no.min(3)),
                cfg.seed.wrapping_add(1 + site_no as u64),
            );
            let socket = SimNetwork::socket(&net, PeerId(site_no));
            let hashes = cfg.check_convergence;
            let session = if cfg.consistency.is_rollback() && !is_observer {
                testbed_site(
                    RollbackSession::new(sync_cfg, machine, socket, source),
                    hashes,
                )
            } else {
                testbed_site(
                    LockstepSession::new(sync_cfg, machine, socket, source),
                    hashes,
                )
            };
            // Boot times: everyone at 0 except a latecomer, which appears
            // at its join time.
            let is_latecomer =
                cfg.latecomer_at.is_some() && idx + 1 == site_numbers.len() && is_observer;
            let boot = if is_latecomer {
                SimTime::ZERO + cfg.latecomer_at.expect("latecomer checked")
            } else {
                SimTime::ZERO
            };
            let wake = wakes.schedule(boot, idx);
            sites.push(SiteRunner {
                site_no,
                session,
                boot,
                pending_wake: Some(wake),
                frames_done: 0,
                hashes: Vec::new(),
                confirmed: Vec::new(),
                first_frame: 0,
                failed: false,
            });
        }

        // Virtual-time budget: generous multiple of the ideal runtime.
        let tpf_us = 1_000_000u64 / cfg.cfps.max(1) as u64;
        let budget = SimDuration::from_micros(cfg.frames * tpf_us * 30 + 120_000_000);

        // Main event loop.
        loop {
            let all_done = sites
                .iter()
                .all(|s| s.frames_done >= cfg.frames || s.failed);
            if all_done {
                break;
            }
            let next_net = net.borrow_mut().next_delivery_time();
            let next_wake = wakes.peek_time();
            let t = match (next_net, next_wake) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => return Err(SimError::Deadlock { at: clock.now() }),
            };
            if t.saturating_since(SimTime::ZERO) > budget {
                return Err(SimError::TimeBudgetExceeded { budget });
            }
            clock.set(t.max(clock.now()));
            let now = clock.now();

            let delivered = net.borrow_mut().deliver_due(now);
            if delivered > 0 {
                // Drain the time server's inbox.
                while let Some((_, data)) = server_sock.try_recv().expect("sim socket") {
                    if let Ok(Message::TimeStamp { site, frame }) = Message::decode(&data) {
                        time_server.record(site, frame, now);
                    }
                }
                // Datagrams may unblock any site: tick them all.
                for idx in 0..sites.len() {
                    self.tick_site(&mut sites, idx, now, &mut wakes)?;
                }
            }
            while let Some(at) = wakes.peek_time() {
                if at > now {
                    break;
                }
                let (_, idx) = wakes.pop().expect("peeked");
                if sites[idx].pending_wake.is_some() {
                    sites[idx].pending_wake = None;
                    self.tick_site(&mut sites, idx, now, &mut wakes)?;
                }
            }
        }

        self.collect(sites, time_server, net, net_telemetry, clock.now())
    }

    fn tick_site(
        &self,
        sites: &mut [SiteRunner],
        idx: usize,
        now: SimTime,
        wakes: &mut EventQueue<usize>,
    ) -> Result<(), SimError> {
        let target = self.config.frames;
        let s = &mut sites[idx];
        // A latecomer does not exist before it boots: a datagram delivery
        // must not tick it (or cancel its boot wake).
        if now < s.boot || s.failed || s.frames_done >= target.saturating_mul(2) {
            return Ok(());
        }
        // Cancel any stale pending wake; we re-derive it from this tick.
        if let Some(id) = s.pending_wake.take() {
            wakes.cancel(id);
        }
        let mut executed = None;
        match s.session.tick(now) {
            Ok(Step::Wait(t)) => {
                s.pending_wake = Some(wakes.schedule(t.max(now), idx));
            }
            Ok(Step::FrameDone { report, next_wake }) => {
                executed = Some(report);
                s.frames_done += 1;
                s.pending_wake = Some(wakes.schedule(next_wake.max(now), idx));
            }
            Ok(Step::Stopped(_)) => {
                s.failed = true;
            }
            Err(error) => {
                return Err(SimError::Session {
                    site: s.site_no,
                    error,
                });
            }
        }
        s.session
            .drain_confirmed(executed.as_ref(), &mut s.confirmed);
        for (f, h) in s.confirmed.drain(..) {
            if s.hashes.is_empty() {
                s.first_frame = f;
            }
            s.hashes.push(h);
        }
        Ok(())
    }

    fn collect(
        &self,
        sites: Vec<SiteRunner>,
        time_server: TimeServer,
        net: Rc<RefCell<SimNetwork>>,
        net_telemetry: Telemetry,
        end: SimTime,
    ) -> Result<ExperimentResult, SimError> {
        let cfg = &self.config;
        let telemetry: Vec<Telemetry> = sites
            .iter()
            .map(|s| s.session.config().telemetry.clone())
            .collect();
        // Series 1: frame times per player site, first `frames` frames.
        let mut stats = Vec::new();
        for s in sites.iter().take(cfg.num_players as usize) {
            let mut times = time_server.frame_times(s.site_no);
            times.truncate(cfg.frames as usize);
            stats.push(SiteStats::from_frame_times(&times));
        }
        // Series 2: per-frame inter-site differences, sites 0 and 1.
        let synchrony_ms = if cfg.num_players >= 2 {
            let diffs: Vec<_> = time_server
                .pair_differences(0, 1)
                .into_iter()
                .filter(|(f, _)| *f < cfg.frames)
                .map(|(_, d)| d)
                .collect();
            // Each |delta| also feeds the master's inter-site histogram
            // (no-op when telemetry is disabled).
            for d in &diffs {
                telemetry[0].observe("inter_site_frame_delta_us", d.abs().as_micros());
            }
            abs_mean(&deltas_ms(&diffs))
        } else {
            0.0
        };
        // Convergence: every pair of replicas must agree on every common
        // frame's state hash (offset by each site's first executed frame).
        let mut converged = true;
        let mut compared_frames = vec![0; sites.len()];
        if cfg.check_convergence {
            let reference = &sites[0];
            for (si, s) in sites.iter().enumerate().skip(1) {
                for (i, h) in s.hashes.iter().enumerate() {
                    let frame = s.first_frame + i as u64;
                    let Some(ri) = frame.checked_sub(reference.first_frame) else {
                        continue;
                    };
                    if let Some(rh) = reference.hashes.get(ri as usize) {
                        compared_frames[si] += 1;
                        if rh != h {
                            if converged {
                                telemetry[si].record(end, EventKind::DesyncDetected { frame });
                            }
                            converged = false;
                        }
                    }
                }
            }
        }
        // Black-box dump: any site whose telemetry latched an anomaly
        // (desync above, or a stall/rollback-depth spike during the run)
        // writes its postmortem bundle before the handles are returned.
        if let Some(root) = &cfg.forensics_root {
            let config_text = format!("{cfg:#?}\n");
            for tel in &telemetry {
                match coplay_telemetry::forensics::dump_if_anomalous(
                    root,
                    tel,
                    &[("config.txt", config_text.clone().into_bytes())],
                ) {
                    Ok(Some(path)) => eprintln!("forensics bundle: {}", path.display()),
                    Ok(None) => {}
                    Err(e) => eprintln!("warning: forensics dump failed: {e}"),
                }
            }
        }
        let session_stats: Vec<SessionStats> = sites.iter().map(|s| s.session.stats()).collect();
        let net = net.borrow();
        let s01 = net.link_stats(PeerId(0), PeerId(1)).unwrap_or_default();
        let s10 = net.link_stats(PeerId(1), PeerId(0)).unwrap_or_default();
        Ok(ExperimentResult {
            sites: stats,
            synchrony_ms,
            converged,
            compared_frames,
            frames: cfg.frames,
            elapsed: end.saturating_since(SimTime::ZERO),
            packets_offered: s01.offered + s10.offered,
            packets_lost: s01.lost + s10.lost,
            session_stats,
            telemetry,
            net_telemetry,
        })
    }
}

/// Runs one experiment with the given config (convenience wrapper).
///
/// # Errors
///
/// See [`Experiment::run`].
pub fn run_experiment(config: ExperimentConfig) -> Result<ExperimentResult, SimError> {
    Experiment::new(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mut cfg: ExperimentConfig) -> ExperimentConfig {
        cfg.frames = 240;
        cfg.game = GameId::Pong;
        cfg
    }

    #[test]
    fn ideal_network_runs_at_60fps_with_zero_deviation() {
        let r = run_experiment(quick(ExperimentConfig::default())).unwrap();
        assert!(r.converged, "replicas must converge");
        for s in &r.sites {
            assert!(
                (s.mean_frame_time_ms - 16.667).abs() < 0.5,
                "frame time {} off 16.7ms",
                s.mean_frame_time_ms
            );
            assert!(
                s.frame_time_deviation_ms < 1.0,
                "deviation {}",
                s.frame_time_deviation_ms
            );
        }
        // Figure 2's own envelope below the threshold is <10ms.
        assert!(r.synchrony_ms < 10.0, "synchrony {}", r.synchrony_ms);
    }

    #[test]
    fn low_rtt_keeps_full_speed() {
        let mut cfg = quick(ExperimentConfig::with_rtt(SimDuration::from_millis(60)));
        cfg.frames = 240;
        let r = run_experiment(cfg).unwrap();
        assert!(r.converged);
        assert!((r.master_frame_time_ms() - 16.667).abs() < 1.0);
    }

    #[test]
    fn extreme_rtt_slows_the_game_but_stays_consistent() {
        let cfg = quick(ExperimentConfig::with_rtt(SimDuration::from_millis(300)));
        let r = run_experiment(cfg).unwrap();
        assert!(r.converged, "logical consistency holds at any latency");
        assert!(
            r.master_frame_time_ms() > 18.0,
            "game should be visibly slowed, got {}ms",
            r.master_frame_time_ms()
        );
    }

    #[test]
    fn packet_loss_is_survived() {
        let mut cfg = quick(ExperimentConfig::with_rtt(SimDuration::from_millis(40)));
        cfg.loss = 0.1;
        let r = run_experiment(cfg).unwrap();
        assert!(r.converged, "retransmission must mask 10% loss");
        assert!(r.packets_lost > 0, "loss process actually ran");
    }

    #[test]
    fn duplication_and_reordering_are_survived() {
        let mut cfg = quick(ExperimentConfig::with_rtt(SimDuration::from_millis(40)));
        cfg.duplicate = 0.1;
        cfg.reorder = 0.1;
        cfg.jitter = SimDuration::from_millis(15);
        let r = run_experiment(cfg).unwrap();
        assert!(r.converged);
    }

    #[test]
    fn start_skew_is_smoothed_by_the_slave() {
        let mut cfg = quick(ExperimentConfig::default());
        cfg.start_skew = SimDuration::from_millis(200);
        let r = run_experiment(cfg).unwrap();
        assert!(r.converged);
        // Despite a 200ms late slave, synchrony recovers to a small value
        // on average over the run.
        assert!(r.synchrony_ms < 25.0, "synchrony {}", r.synchrony_ms);
    }

    #[test]
    fn fresh_observer_replays_the_match() {
        let mut cfg = quick(ExperimentConfig::default());
        cfg.observers = 1;
        let r = run_experiment(cfg).unwrap();
        assert!(r.converged, "observer replica must match the players");
    }

    #[test]
    fn three_player_session_works() {
        let mut cfg = quick(ExperimentConfig::default());
        cfg.num_players = 3;
        let r = run_experiment(cfg).unwrap();
        assert!(r.converged);
        assert_eq!(r.sites.len(), 3);
    }

    #[test]
    fn latecomer_joins_via_snapshot_and_converges() {
        for consistency in [ConsistencyMode::Lockstep, ConsistencyMode::rollback()] {
            let mut cfg = quick(ExperimentConfig::default());
            cfg.frames = 360;
            cfg.latecomer_at = Some(SimDuration::from_secs(2)); // ~frame 120
            cfg.telemetry = true;
            cfg.consistency = consistency;
            let r = run_experiment(cfg).unwrap();
            let latecomer = r.session_stats.len() - 1;
            let loaded = r.telemetry[latecomer]
                .events()
                .iter()
                .find_map(|e| match e.kind {
                    EventKind::SnapshotLoaded { frame, .. } => Some(frame),
                    _ => None,
                })
                .expect("the latecomer joins from a snapshot");
            assert!(
                loaded > 100,
                "{consistency:?}: joined at frame {loaded}, before booting at ~120"
            );
            // Without compared hashes, convergence would hold vacuously.
            assert!(
                r.compared_frames[latecomer] > 100,
                "{consistency:?}: {} latecomer frames compared",
                r.compared_frames[latecomer]
            );
            assert!(
                r.converged,
                "{consistency:?}: latecomer replica must match from its join point"
            );
        }
    }

    #[test]
    fn rollback_clean_network_never_rolls_back() {
        let r = run_experiment(quick(ExperimentConfig::rollback_with_rtt(
            SimDuration::ZERO,
        )))
        .unwrap();
        assert!(r.converged, "rollback replicas must converge");
        for st in &r.session_stats {
            // Loopback-class delivery inside the local-lag budget: every
            // input is authoritative before its frame, so nothing is
            // predicted and nothing rolls back.
            assert_eq!(st.rollbacks, 0, "clean link must not roll back");
            assert_eq!(st.resimulated_frames, 0);
            assert_eq!(st.stalled_frames, 0);
        }
    }

    #[test]
    fn rollback_absorbs_high_rtt_without_stalls() {
        let cfg = quick(ExperimentConfig::rollback_with_rtt(
            SimDuration::from_millis(200),
        ));
        let r = run_experiment(cfg).unwrap();
        assert!(r.converged, "post-repair hashes must agree");
        let mut total_rollbacks = 0;
        for st in &r.session_stats {
            // RTT (200 ms) exceeds the local-lag budget (~100 ms) but stays
            // far inside the 30-frame speculation window: the frame loop
            // never blocks on input.
            assert_eq!(st.stalled_frames, 0, "speculation must absorb the RTT");
            assert!(st.max_rollback_depth <= 31, "window bounds repair depth");
            total_rollbacks += st.rollbacks;
        }
        assert!(
            total_rollbacks > 0,
            "random pressers must mispredict at some point"
        );
        // Lockstep at this RTT visibly slows the game (see
        // extreme_rtt_slows_the_game_but_stays_consistent); rollback holds
        // the nominal rate.
        assert!(
            (r.master_frame_time_ms() - 16.667).abs() < 1.0,
            "rollback should hold 60 FPS, got {}ms",
            r.master_frame_time_ms()
        );
    }

    #[test]
    fn rollback_survives_loss_and_reordering() {
        let mut cfg = quick(ExperimentConfig::rollback_with_rtt(
            SimDuration::from_millis(120),
        ));
        cfg.loss = 0.1;
        cfg.reorder = 0.1;
        cfg.jitter = SimDuration::from_millis(10);
        let r = run_experiment(cfg).unwrap();
        assert!(r.converged, "repair must mask loss-induced mispredictions");
        let rollbacks: u64 = r.session_stats.iter().map(|s| s.rollbacks).sum();
        let resim: u64 = r.session_stats.iter().map(|s| s.resimulated_frames).sum();
        assert!(rollbacks > 0, "lossy link must force repairs");
        assert!(resim >= rollbacks);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = quick(ExperimentConfig::with_rtt(SimDuration::from_millis(80)));
        let a = run_experiment(cfg.clone()).unwrap();
        let b = run_experiment(cfg).unwrap();
        assert_eq!(a.sites[0].mean_frame_time_ms, b.sites[0].mean_frame_time_ms);
        assert_eq!(a.synchrony_ms, b.synchrony_ms);
        assert_eq!(a.packets_offered, b.packets_offered);
    }
}
