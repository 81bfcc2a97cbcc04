//! Configuration of a lockstep session.

use coplay_clock::SimDuration;
use coplay_telemetry::Telemetry;
use coplay_vm::PortMap;

/// How a session maintains logical consistency across sites.
///
/// [`Lockstep`](ConsistencyMode::Lockstep) is the paper's Algorithm 2: a
/// frame executes only once every site's partial input for it has arrived,
/// so RTT spikes become input-wait stalls. `Rollback` speculatively
/// executes frames with *predicted* remote inputs and repairs
/// mispredictions by restoring a state checkpoint and resimulating — the
/// session only blocks once speculation would run more than
/// `max_rollback_frames` ahead of the confirmed input frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsistencyMode {
    /// Block until every remote partial input has arrived (Algorithm 2).
    Lockstep,
    /// Predict missing remote inputs and roll back on misprediction.
    Rollback {
        /// Maximum frames of speculation past the confirmed-input frontier
        /// before the session degrades to lockstep-style blocking.
        max_rollback_frames: u64,
        /// Take a state checkpoint every this many frames (1 = every
        /// frame). Smaller intervals cost more snapshot bytes but shorten
        /// resimulation after a misprediction.
        checkpoint_interval: u64,
    },
}

impl ConsistencyMode {
    /// The default rollback tuning: a 30-frame (500 ms at 60 FPS)
    /// speculation window with a checkpoint every 5 frames.
    pub fn rollback() -> ConsistencyMode {
        ConsistencyMode::Rollback {
            max_rollback_frames: 30,
            checkpoint_interval: 5,
        }
    }

    /// `true` for any `Rollback` variant.
    pub fn is_rollback(&self) -> bool {
        matches!(self, ConsistencyMode::Rollback { .. })
    }
}

/// How a session's datagrams reach the other sites.
///
/// The paper assumes [`PeerToPeer`](Topology::PeerToPeer): every site can
/// address every other site directly, so control traffic (session
/// handshake, orderly leave) loops over the peer list. Behind a relay
/// (`coplay-relay`) clients are outbound-only and the transport's single
/// reachable address is the relay itself; [`Relay`](Topology::Relay) makes
/// the drivers send that control traffic once to the broadcast peer
/// instead, and the relay fans it out to the session's other members.
/// Per-destination input traffic is unchanged in both modes — a relay
/// transport adapter envelopes it with the destination site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Direct peer addressing (the paper's deployment). The default.
    #[default]
    PeerToPeer,
    /// All outbound traffic goes to one relay address; session-wide control
    /// messages are sent once to `PeerId::BROADCAST` rather than per peer.
    Relay,
}

/// Parameters of the synchronization algorithm (§3 of the paper).
///
/// The defaults reproduce the paper's deployment: 60 FPS games, a local lag
/// of 6 frames (≈100 ms — the HCI bound the paper cites), one outbound
/// message per 20 ms, site 0 as the pacing master.
///
/// # Examples
///
/// ```
/// use coplay_sync::SyncConfig;
///
/// let cfg = SyncConfig::two_player(0);
/// assert_eq!(cfg.buf_frames, 6);
/// assert_eq!(cfg.local_lag().as_millis(), 100);
/// assert_eq!(cfg.time_per_frame().as_micros(), 16_667);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyncConfig {
    /// This site's number (`MySiteNo`); `0` is the pacing master.
    pub my_site: u8,
    /// Number of *player* sites in the session (the ICDCS paper fixes this
    /// at 2; the journal extension allows more).
    pub num_sites: u8,
    /// Which input bits each site owns (the paper's `SET[k]`).
    pub port_map: PortMap,
    /// The local lag in frames (`BufFrame`). 6 frames at 60 FPS ≈ 100 ms.
    pub buf_frames: u64,
    /// The game's constant frame rate (`CFPS`).
    pub cfps: u32,
    /// Minimum interval between outbound sync messages. The paper's
    /// implementation buffers outbound messages and sends one per 20 ms
    /// (§4.2's "10ms average, 20ms worst-case" term).
    pub send_interval: SimDuration,
    /// How often a blocked `SyncInput` re-polls the network when no packet
    /// wakes it first.
    pub poll_interval: SimDuration,
    /// Cap on input frames carried per message (oldest first, so
    /// retransmission stays cumulative).
    pub max_payload_frames: usize,
    /// Whether the slave runs Algorithm 4 (master/slave pace smoothing).
    /// Disabling it reproduces the paper's §3.2 "earlier site is penalized"
    /// pathology — kept as a switch for the ablation experiment.
    pub rate_sync: bool,
    /// Dead zone for Algorithm 4: `SyncAdjustTimeDelta` smaller than this
    /// is treated as measurement noise and ignored. The paper's §4.2
    /// decomposition charges ±10 ms to send batching and ±5 ms to thread
    /// slicing; a slave that chased that noise every frame would wobble by
    /// the same amount, so the default matches those terms (15 ms).
    pub sync_dead_zone: SimDuration,
    /// Extension (not in the paper): declare the session dead after this
    /// much silence from a peer while blocked in `SyncInput`. `None`
    /// reproduces the paper's behaviour of freezing forever.
    pub stall_timeout: Option<SimDuration>,
    /// Extra delay between completing the session handshake and executing
    /// the first frame. Models the paper's §3.2 "two sites cannot begin at
    /// exactly the same time" initialization deviation (used by the pacing
    /// ablation; zero in normal sessions).
    pub first_frame_delay: SimDuration,
    /// Observability sink for this session: the driver, input synchronizer,
    /// frame pacer, and RTT estimator all record into it. Defaults to the
    /// disabled no-op handle, which costs nothing on the hot path. Note the
    /// handle compares equal to its clones regardless of recorded contents,
    /// so `SyncConfig` equality stays meaningful.
    pub telemetry: Telemetry,
    /// How the session maintains logical consistency. The policy is part of
    /// the session's type (`LockstepSession` or `RollbackSession`);
    /// harnesses read this field to decide which to build, and
    /// `RollbackSession` reads its tuning from it.
    pub consistency: ConsistencyMode,
    /// How datagrams reach the other sites. [`Topology::PeerToPeer`] (the
    /// default) preserves the paper's direct addressing;
    /// [`Topology::Relay`] adapts the drivers' control traffic to a
    /// single-address relay transport.
    pub topology: Topology,
}

impl SyncConfig {
    /// The paper's two-player configuration for the given local site
    /// (0 = master, 1 = slave).
    ///
    /// # Panics
    ///
    /// Panics if `my_site > 1`.
    pub fn two_player(my_site: u8) -> SyncConfig {
        assert!(my_site < 2, "two-player sites are 0 and 1");
        SyncConfig {
            my_site,
            num_sites: 2,
            port_map: PortMap::two_player(),
            buf_frames: 6,
            cfps: 60,
            send_interval: SimDuration::from_millis(20),
            poll_interval: SimDuration::from_millis(1),
            max_payload_frames: 120,
            rate_sync: true,
            sync_dead_zone: SimDuration::from_millis(15),
            stall_timeout: None,
            first_frame_delay: SimDuration::ZERO,
            telemetry: Telemetry::disabled(),
            consistency: ConsistencyMode::Lockstep,
            topology: Topology::default(),
        }
    }

    /// An `n`-player full-mesh configuration (journal extension), one
    /// player slot per site.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0, exceeds 4, or `my_site >= n`.
    pub fn n_player(my_site: u8, n: u8) -> SyncConfig {
        assert!((1..=4).contains(&n), "1-4 player sites supported");
        assert!(my_site < n, "my_site must be < n");
        let mut cfg = SyncConfig::two_player(0);
        cfg.my_site = my_site;
        cfg.num_sites = n;
        cfg.port_map = PortMap::one_per_site(n as usize);
        cfg
    }

    /// The expected duration of one frame (`TimePerFrame`, rounded to
    /// whole microseconds — 16,667 µs at 60 FPS).
    pub fn time_per_frame(&self) -> SimDuration {
        let cfps = self.cfps.max(1) as u64;
        SimDuration::from_micros((1_000_000 + cfps / 2) / cfps)
    }

    /// The local lag as wall time (`buf_frames × time_per_frame`).
    pub fn local_lag(&self) -> SimDuration {
        self.time_per_frame() * self.buf_frames
    }

    /// `true` if this site provides the reference pace (Algorithm 4's
    /// master, fixed to site 0).
    pub fn is_master(&self) -> bool {
        self.my_site == 0
    }

    /// Sites other than this one, ascending.
    pub fn peers(&self) -> impl Iterator<Item = u8> + '_ {
        (0..self.num_sites).filter(move |&s| s != self.my_site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_player_defaults_match_paper() {
        let cfg = SyncConfig::two_player(1);
        assert_eq!(cfg.my_site, 1);
        assert_eq!(cfg.num_sites, 2);
        assert_eq!(cfg.buf_frames, 6);
        assert_eq!(cfg.cfps, 60);
        assert_eq!(cfg.send_interval, SimDuration::from_millis(20));
        assert!(!cfg.is_master());
        assert!(SyncConfig::two_player(0).is_master());
    }

    #[test]
    fn local_lag_is_100ms_at_60fps() {
        let cfg = SyncConfig::two_player(0);
        // 6 * 16.667ms = 100.002ms ~ the paper's 100ms.
        assert_eq!(cfg.local_lag().as_millis(), 100);
    }

    #[test]
    fn peers_excludes_self() {
        let cfg = SyncConfig::n_player(1, 3);
        assert_eq!(cfg.peers().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn n_player_port_map_is_disjoint() {
        let cfg = SyncConfig::n_player(0, 4);
        for a in 0..4 {
            for b in (a + 1)..4 {
                assert_eq!(cfg.port_map.site_mask(a) & cfg.port_map.site_mask(b), 0);
            }
        }
    }

    #[test]
    fn default_consistency_is_lockstep() {
        let cfg = SyncConfig::two_player(0);
        assert_eq!(cfg.consistency, ConsistencyMode::Lockstep);
        assert!(!cfg.consistency.is_rollback());
        assert!(ConsistencyMode::rollback().is_rollback());
        match ConsistencyMode::rollback() {
            ConsistencyMode::Rollback {
                max_rollback_frames,
                checkpoint_interval,
            } => {
                assert_eq!(max_rollback_frames, 30);
                assert_eq!(checkpoint_interval, 5);
            }
            ConsistencyMode::Lockstep => unreachable!(),
        }
    }

    #[test]
    fn default_topology_is_peer_to_peer() {
        let cfg = SyncConfig::two_player(0);
        assert_eq!(cfg.topology, Topology::PeerToPeer);
        assert_eq!(Topology::default(), Topology::PeerToPeer);
    }

    #[test]
    #[should_panic(expected = "two-player sites")]
    fn two_player_rejects_site_2() {
        let _ = SyncConfig::two_player(2);
    }

    #[test]
    #[should_panic(expected = "1-4 player")]
    fn n_player_rejects_five() {
        let _ = SyncConfig::n_player(0, 5);
    }
}
