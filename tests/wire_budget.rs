//! Wire volume, pinned: the datagrams and payload bytes each site of a
//! seeded simulated session sends.
//!
//! §3.1 re-sends every unacked input in every message, so a datagram's
//! framing is paid many times a second and a byte moved in any codec shows
//! up here many times over. The simulation is deterministic, so the counts
//! are exact. A change that moves them on purpose (a codec's layout, send
//! pacing, acks or retransmission) re-pins them and says why; the failure
//! prints the new counts.

use std::cell::Cell;
use std::rc::Rc;

use coplay::clock::{SimDuration, SimTime};
use coplay::games::Pong;
use coplay::net::{NetemConfig, PeerId, SimNetwork};
use coplay::sim::{Site, Testbed};
use coplay::sync::{
    ConsistencyMode, FrameReport, LockstepSession, RandomPresser, RollbackSession, SessionStats,
    Step, SyncConfig, SyncError,
};
use coplay::telemetry::Telemetry;
use coplay::vm::Player;

/// What one site handed to the network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Volume {
    datagrams: u64,
    bytes: u64,
}

/// A site that charges to itself what the network sent during its ticks.
/// The testbed ticks one site at a time and a session sends only inside
/// its tick, so the growth of the network's counters across a tick is
/// exactly that site's traffic.
struct Metered<S> {
    site: S,
    net: Telemetry,
    sent: Rc<Cell<Volume>>,
}

impl<S> Metered<S> {
    fn totals(&self) -> Volume {
        Volume {
            datagrams: self.net.counter("net_datagrams_sent_total"),
            bytes: self.net.counter("net_bytes_sent_total"),
        }
    }
}

impl<S: Site> Site for Metered<S> {
    fn tick(&mut self, now: SimTime) -> Result<Step, SyncError> {
        let before = self.totals();
        let step = self.site.tick(now);
        let (after, mine) = (self.totals(), self.sent.get());
        self.sent.set(Volume {
            datagrams: mine.datagrams + after.datagrams - before.datagrams,
            bytes: mine.bytes + after.bytes - before.bytes,
        });
        step
    }
    fn drain_confirmed(&mut self, executed: Option<&FrameReport>, out: &mut Vec<(u64, u64)>) {
        self.site.drain_confirmed(executed, out);
    }
    fn config(&self) -> &SyncConfig {
        self.site.config()
    }
    fn stats(&self) -> SessionStats {
        self.site.stats()
    }
}

/// Runs a seeded native Pong pair under `consistency` for 600 frames over
/// a 40 ms RTT link losing `loss` of its datagrams, and returns what each
/// site sent.
fn pair_volume(consistency: ConsistencyMode, loss: f64) -> [Volume; 2] {
    let mut tb = Testbed::default();
    let net = Telemetry::recording();
    tb.net().borrow_mut().set_telemetry(net.clone());
    let link = NetemConfig::with_rtt(SimDuration::from_millis(40)).loss(loss);
    SimNetwork::link_pair(tb.net(), PeerId(0), PeerId(1), link, 7);
    let sent: [Rc<Cell<Volume>>; 2] = Default::default();
    for site in 0..2u8 {
        let cfg = SyncConfig {
            consistency,
            ..SyncConfig::two_player(site)
        };
        let socket = SimNetwork::socket(tb.net(), PeerId(site));
        let input = RandomPresser::new(Player(site), 100 + u64::from(site));
        let (net, sent) = (net.clone(), Rc::clone(&sent[usize::from(site)]));
        if consistency.is_rollback() {
            let site = RollbackSession::new(cfg, Pong::new(), socket, input);
            tb.add(Metered { site, net, sent }, SimTime::ZERO);
        } else {
            let site = LockstepSession::new(cfg, Pong::new(), socket, input);
            tb.add(Metered { site, net, sent }, SimTime::ZERO);
        }
    }
    tb.run_frames(600).expect("the pair runs to the end");
    let volumes = sent.map(|v| v.get());
    let total = volumes.iter().map(|v| v.bytes).sum::<u64>();
    assert_eq!(
        total,
        net.counter("net_bytes_sent_total"),
        "untracked sends"
    );
    volumes
}

fn volume(datagrams: u64, bytes: u64) -> Volume {
    Volume { datagrams, bytes }
}

#[test]
fn a_clean_lockstep_pair_sends_its_pinned_volume() {
    let got = pair_volume(ConsistencyMode::Lockstep, 0.0);
    assert_eq!(
        got,
        [volume(321, 3127), volume(321, 3124)],
        "re-pin: {got:?}"
    );
}

#[test]
fn a_lossy_rollback_pair_sends_its_pinned_volume() {
    let got = pair_volume(ConsistencyMode::rollback(), 0.05);
    assert_eq!(
        got,
        [volume(347, 3620), volume(341, 3535)],
        "re-pin: {got:?}"
    );
}
