//! End-to-end relay topology: two real lockstep session drivers, each
//! talking only to the relay through a [`RelaySocket`], must converge to
//! identical per-frame state hashes — the same guarantee the peer-to-peer
//! topology gives, with every datagram taking the extra hop.
//!
//! The whole exchange runs sans-io on simulated time: sessions are ticked
//! and the relay core pumped from one loop, so the test is deterministic
//! and a convergence failure reproduces exactly.

use coplay::clock::{SimDuration, SimTime};
use coplay::games::Pong;
use coplay::lobby::SESSION_TTL;
use coplay::net::{loopback, PeerId, Transport};
use coplay::relay::{RelayConfig, RelayCore, RelaySocket, MEMBER_TTL};
use coplay::sync::{LockstepSession, RandomPresser, Step, SyncConfig, Topology};
use coplay::vm::Player;

/// The one address both clients are configured with.
const RELAY: PeerId = PeerId(200);
const SESSION: u32 = 9;
const FRAMES: usize = 30;

/// Routes every datagram queued on the core-side links through the relay,
/// dispatching replies to whichever link owns the destination address (the
/// loopback stand-in for one UDP socket serving many peers).
fn pump(core: &mut RelayCore<PeerId>, links: &mut [impl Transport], now: SimTime) {
    loop {
        let mut inbox = Vec::new();
        for link in links.iter_mut() {
            while let Some(d) = link.try_recv().expect("core link recv") {
                inbox.push(d);
            }
        }
        if inbox.is_empty() {
            return;
        }
        for (from, data) in inbox {
            let replies: Vec<_> = core.handle(from, &data, now).to_vec();
            for (to, bytes) in replies {
                let reached = links.iter_mut().any(|l| l.send(to, &bytes).is_ok());
                assert!(reached, "no link reaches {to}");
            }
        }
    }
}

#[test]
fn two_drivers_converge_through_the_relay() {
    let (a, core_a) = loopback(PeerId(0), RELAY);
    let (b, core_b) = loopback(PeerId(1), RELAY);
    let sock0 = RelaySocket::new(a, RELAY, SESSION);
    let sock1 = RelaySocket::new(b, RELAY, SESSION);

    let mut cfg0 = SyncConfig::two_player(0);
    let mut cfg1 = SyncConfig::two_player(1);
    for cfg in [&mut cfg0, &mut cfg1] {
        cfg.topology = Topology::Relay;
    }
    let mut site0 =
        LockstepSession::new(cfg0, Pong::new(), sock0, RandomPresser::new(Player::ONE, 1));
    let mut site1 =
        LockstepSession::new(cfg1, Pong::new(), sock1, RandomPresser::new(Player::TWO, 2));

    let mut core: RelayCore<PeerId> = RelayCore::new(RelayConfig::default());
    let mut links = [core_a, core_b];
    let mut hashes: [Vec<u64>; 2] = [Vec::new(), Vec::new()];

    let mut now = SimTime::ZERO;
    let step = SimDuration::from_millis(1);
    for _ in 0..100_000 {
        for (i, tick) in [
            site0.tick(now).expect("site 0 tick"),
            site1.tick(now).expect("site 1 tick"),
        ]
        .into_iter()
        .enumerate()
        {
            match tick {
                Step::FrameDone { report, .. } => {
                    hashes[i].push(report.state_hash.expect("lockstep hashes every frame"));
                }
                Step::Wait(_) => {}
                Step::Stopped(r) => panic!("site {i} stopped early: {r:?}"),
            }
        }
        pump(&mut core, &mut links, now);
        if hashes.iter().all(|h| h.len() >= FRAMES) {
            break;
        }
        now += step;
    }

    // The acceptance bar: identical per-frame state hashes through the
    // relay, with the relay having actually carried the traffic.
    let stats = core.stats();
    assert!(
        hashes.iter().all(|h| h.len() >= FRAMES),
        "sessions stalled: {} vs {} frames after {now} (stats: {stats:?})",
        hashes[0].len(),
        hashes[1].len(),
    );
    assert_eq!(
        hashes[0][..FRAMES],
        hashes[1][..FRAMES],
        "replicas diverged through the relay"
    );
    assert!(stats.forwarded > 0, "no traffic went through the relay");
    assert_eq!(stats.registrations, 2, "both drivers registered once");
    assert_eq!(stats.dropped_malformed, 0);
    assert_eq!(stats.dropped_backpressure, 0);

    // Orderly shutdown travels the same path: one broadcast Bye each.
    site0.stop().expect("site 0 stop");
    site1.stop().expect("site 1 stop");
    pump(&mut core, &mut links, now);
}

/// A client keeps its lobby listing and its relay membership alive with
/// one heartbeat cadence, so the two services must expire silence alike.
#[test]
fn relay_and_lobby_share_one_heartbeat_ttl() {
    assert_eq!(MEMBER_TTL, SESSION_TTL);
}
