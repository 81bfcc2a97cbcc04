//! The workloads and the runner that plays one two-site session of a
//! workload over loopback UDP, one `run_realtime` thread per site.

use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Instant;

use coplay_clock::SimDuration;
use coplay_games::{rom_pong_console, Pong};
use coplay_net::{PeerId, Transport, UdpTransport};
use coplay_relay::{RelayConfig, RelaySocket, RelayStats, UdpRelay};
use coplay_rollback::RollbackSession;
use coplay_sync::{
    run_realtime, ConsistencyMode, LockstepSession, RandomPresser, RunOutcome, SessionDriver,
    SessionStats, SyncConfig, Topology,
};
use coplay_telemetry::Telemetry;
use coplay_vm::{Machine, Player};

use crate::probe::{thread_cpu_ns, Probe, SiteLog};
use crate::shim::{wan_link, NetemShim};
use crate::timed::{Hop, Replica, TimedDriver, TimedMachine, TimedSource, TimedTransport};

/// Sites per session.
pub const SITES: u8 = 2;

/// The relay's peer id on each client transport.
pub const RELAY_PEER: PeerId = PeerId(200);

/// Frame rate of the fast workloads: 33.3× the games' 60 FPS, with every
/// time constant of the session divided by the same factor. A frame's own
/// work then outweighs the runner's sleep loop, whose cost swings with the
/// host, while the pace still leaves each site CPU headroom — run flat out,
/// the two sites drift in phase and the latency tail, bytes per frame and
/// frame rate all follow the host's speed instead of the code.
pub const FAST_CFPS: u32 = 2_000;

/// Flight-recorder events kept per site in traced runs.
const TELEMETRY_EVENTS: usize = 1 << 16;

/// How a site's datagrams reach the other site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// Peer to peer over loopback.
    Direct,
    /// Peer to peer, every received datagram passing the WAN shim.
    Impaired,
    /// Through a `UdpRelay` on its own thread.
    Relay,
}

/// The game both sites play.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Game {
    /// Pong in console assembly on the emulated CPU (84 KiB state).
    RomPong,
    /// Native Pong (a few dozen bytes of state).
    Pong,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Paced at the games' 60 FPS, or at [`FAST_CFPS`].
    pub real_time: bool,
    /// Rollback session instead of lockstep.
    pub rollback: bool,
    /// Network path.
    pub net: Net,
    /// Game played.
    pub game: Game,
}

/// The workloads; see the README for why each was chosen.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "lan_lockstep",
        real_time: true,
        rollback: false,
        net: Net::Direct,
        game: Game::RomPong,
    },
    Workload {
        name: "wan_rollback",
        real_time: true,
        rollback: true,
        net: Net::Impaired,
        game: Game::RomPong,
    },
    Workload {
        name: "relay_lockstep",
        real_time: true,
        rollback: false,
        net: Net::Relay,
        game: Game::Pong,
    },
    Workload {
        name: "fast_lockstep",
        real_time: false,
        rollback: false,
        net: Net::Direct,
        game: Game::RomPong,
    },
    Workload {
        name: "fast_rollback",
        real_time: false,
        rollback: true,
        net: Net::Direct,
        game: Game::RomPong,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Frames each site executes in a run of `seconds`: the nominal rate
    /// less the runner's measured pacing shortfall (≈0.5 % at 60 FPS, ≈12 %
    /// at 2000 FPS), so a run lasts about `seconds`.
    pub fn frames(&self, seconds: u64) -> u64 {
        seconds * if self.real_time { 60 } else { 1_770 }
    }

    /// The session configuration of `site`.
    pub fn config(&self, site: u8) -> SyncConfig {
        let mut cfg = SyncConfig::two_player(site);
        if self.rollback {
            cfg.consistency = ConsistencyMode::rollback();
        }
        if self.net == Net::Impaired {
            // Two frames of lag (33 ms) sit below the 40 ms WAN delay, so
            // about half the frames are predicted wrong and re-executed.
            cfg.buf_frames = 2;
        }
        if self.net == Net::Relay {
            cfg.topology = Topology::Relay;
        }
        if !self.real_time {
            // Frame-denominated settings stay; time constants shrink with
            // the frame period (16.667 ms → 500 µs).
            cfg.cfps = FAST_CFPS;
            cfg.send_interval = SimDuration::from_micros(600);
            cfg.poll_interval = SimDuration::from_micros(30);
            cfg.sync_dead_zone = SimDuration::from_micros(450);
        }
        cfg
    }
}

/// splitmix64 of `seed` salted with `salt`: independent streams per use.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one site's thread measured.
#[derive(Debug)]
pub struct SiteRun {
    /// Site number.
    pub site: u8,
    /// How `run_realtime` ended.
    pub outcome: RunOutcome,
    /// Everything the wrappers recorded.
    pub log: SiteLog,
    /// `FrameReport::began_at` per executed frame, µs on the site's clock.
    pub began_us: Vec<u64>,
    /// `FrameReport::stall` per executed frame, µs.
    pub stall_us: Vec<u64>,
    /// Confirmed `(frame, state hash)` pairs.
    pub hashes: Vec<(u64, u64)>,
    /// The session's own counters.
    pub stats: SessionStats,
    /// Checkpoint ring bytes at the end of the run.
    pub ring_bytes: usize,
    /// On-CPU time of the site thread.
    pub cpu_ns: u64,
    /// The session's telemetry handle (recording only in traced runs).
    pub telemetry: Telemetry,
}

impl SiteRun {
    /// Offset from the site's runner clock to the run epoch, ns.
    pub fn clock_offset_ns(&self) -> i64 {
        self.log.clock_offset_ns.unwrap_or(0)
    }
}

/// What the relay thread measured.
#[derive(Debug, Clone, Copy)]
pub struct RelayRun {
    /// The routing core's totals.
    pub stats: RelayStats,
    /// On-CPU time of the relay thread.
    pub cpu_ns: u64,
}

/// One played session.
#[derive(Debug)]
pub struct SessionRun {
    /// Per-site results, in site order.
    pub sites: Vec<SiteRun>,
    /// The relay's results, for relay workloads.
    pub relay: Option<RelayRun>,
    /// From the first socket bind until every site executed frame 0.
    pub setup_ns: u64,
}

/// Shared, read-only inputs of every thread of one session.
struct Ctx {
    workload: Workload,
    seed: u64,
    epoch: Instant,
    traced: bool,
    frames: u64,
    relay_session: u32,
}

/// Plays one `frames`-frame session of `workload`. `traced` turns on the
/// wrappers' span timing and the sessions' telemetry tracing.
///
/// # Errors
///
/// Socket set-up failures, a session error, or a panicked thread.
// The benchmark measures wall-clock time; the sessions themselves still see
// only `run_realtime`'s clock.
#[allow(clippy::disallowed_methods)]
pub fn run_session(
    workload: Workload,
    seed: u64,
    frames: u64,
    traced: bool,
) -> Result<SessionRun, String> {
    let stop_relay = AtomicBool::new(false);
    let epoch = Instant::now();
    let relay = match workload.net {
        Net::Relay => Some(UdpRelay::bind("127.0.0.1:0", RelayConfig::default()).map_err(io)?),
        _ => None,
    };
    let mut udp = Vec::new();
    for site in 0..SITES {
        udp.push(UdpTransport::bind(PeerId(site), "127.0.0.1:0").map_err(io)?);
    }
    let addrs = udp
        .iter()
        .map(|t| t.local_addr())
        .collect::<Result<Vec<_>, _>>()
        .map_err(io)?;
    for t in &mut udp {
        let me = t.local_id();
        match &relay {
            Some(r) => t.add_peer(RELAY_PEER, r.local_addr().map_err(io)?),
            None => (0..SITES)
                .filter(|&p| PeerId(p) != me)
                .try_for_each(|p| t.add_peer(PeerId(p), addrs[p as usize])),
        }
        .map_err(io)?;
    }
    let ctx = Ctx {
        workload,
        seed,
        epoch,
        traced,
        frames,
        relay_session: mix(seed, 21) as u32,
    };
    thread::scope(|s| {
        let relay = relay.map(|mut relay| {
            let stop = &stop_relay;
            s.spawn(move || {
                let cpu = thread_cpu_ns();
                relay
                    .run_until(|| stop.load(Ordering::SeqCst))
                    .map_err(io)?;
                Ok(RelayRun {
                    stats: relay.stats(),
                    cpu_ns: thread_cpu_ns() - cpu,
                })
            })
        });
        let ctx = &ctx;
        let handles: Vec<_> = udp
            .into_iter()
            .enumerate()
            .map(|(site, t)| s.spawn(move || site_main(ctx, site as u8, t)))
            .collect();
        let sites: Vec<Result<SiteRun, String>> = handles.into_iter().map(joined).collect();
        stop_relay.store(true, Ordering::SeqCst);
        let relay = relay.map(joined).transpose()?;
        let sites = sites.into_iter().collect::<Result<Vec<_>, _>>()?;
        let setup_ns = sites
            .iter()
            .map(|s| s.log.first_step_ns.unwrap_or(u64::MAX))
            .max()
            .unwrap_or(u64::MAX);
        Ok(SessionRun {
            sites,
            relay,
            setup_ns,
        })
    })
}

fn io(e: std::io::Error) -> String {
    format!("socket: {e}")
}

fn joined<T>(h: thread::ScopedJoinHandle<'_, Result<T, String>>) -> Result<T, String> {
    h.join()
        .unwrap_or_else(|_| Err("a session thread panicked".to_string()))
}

fn site_main(ctx: &Ctx, site: u8, udp: UdpTransport) -> Result<SiteRun, String> {
    match ctx.workload.game {
        Game::RomPong => site_net(ctx, site, udp, rom_pong_console),
        Game::Pong => site_net(ctx, site, udp, Pong::new),
    }
}

fn site_net<M: Machine>(
    ctx: &Ctx,
    site: u8,
    udp: UdpTransport,
    game: fn() -> M,
) -> Result<SiteRun, String> {
    match ctx.workload.net {
        Net::Direct => site_session(ctx, site, game, move |p| {
            TimedTransport::new(udp, p, Hop::Direct)
        }),
        Net::Impaired => {
            let seed = mix(ctx.seed, 11 + u64::from(site));
            site_session(ctx, site, game, move |p| {
                let socket = TimedTransport::new(udp, p, Hop::Socket);
                TimedTransport::new(NetemShim::new(socket, wan_link(), seed, p), p, Hop::Shim)
            })
        }
        Net::Relay => {
            let session = ctx.relay_session;
            site_session(ctx, site, game, move |p| {
                let socket = TimedTransport::new(udp, p, Hop::Socket);
                TimedTransport::new(RelaySocket::new(socket, RELAY_PEER, session), p, Hop::Relay)
                    .with_registration(RelaySocket::is_registered)
            })
        }
    }
}

fn site_session<M: Machine, T: Transport>(
    ctx: &Ctx,
    site: u8,
    game: fn() -> M,
    net: impl FnOnce(&Rc<Probe>) -> T,
) -> Result<SiteRun, String> {
    let mut cfg = ctx.workload.config(site);
    if ctx.traced {
        cfg.telemetry = Telemetry::with_capacity(TELEMETRY_EVENTS).with_tracing();
        cfg.telemetry.set_identity(ctx.seed, site);
    }
    let source = RandomPresser::new(Player(site), mix(ctx.seed, 1 + u64::from(site)));
    if cfg.consistency.is_rollback() {
        run_site(ctx, site, move |p| {
            RollbackSession::new(
                cfg,
                TimedMachine::new(game(), p),
                net(p),
                TimedSource::new(source, p),
            )
        })
    } else {
        run_site(ctx, site, move |p| {
            LockstepSession::new(
                cfg,
                TimedMachine::new(game(), p),
                net(p),
                TimedSource::new(source, p),
            )
        })
    }
}

fn run_site<D: Replica>(
    ctx: &Ctx,
    site: u8,
    make: impl FnOnce(&Rc<Probe>) -> D,
) -> Result<SiteRun, String> {
    let cpu = thread_cpu_ns();
    let probe = Rc::new(Probe::new(ctx.epoch, ctx.traced, ctx.frames));
    let driver = TimedDriver::new(make(&probe), &probe);
    let mut began_us = Vec::with_capacity(ctx.frames as usize);
    let mut stall_us = Vec::with_capacity(ctx.frames as usize);
    let (outcome, driver) = run_realtime(driver, ctx.frames, |report, _| {
        began_us.push(report.began_at.as_micros());
        stall_us.push(report.stall.as_micros());
    })
    .map_err(|e| format!("site {site}: {e}"))?;
    let stats = driver.stats();
    let ring_bytes = driver.inner().ring_bytes();
    let telemetry = driver.config().telemetry.clone();
    let hashes = driver.into_hashes();
    let cpu_ns = thread_cpu_ns() - cpu;
    Ok(SiteRun {
        site,
        outcome,
        log: probe.take_log(),
        began_us,
        stall_us,
        hashes,
        stats,
        ring_bytes,
        cpu_ns,
        telemetry,
    })
}
