//! Failure injection: §3.1's failure semantics, verified.
//!
//! "In the event that the remote site or the network fails, the local site
//! will be stuck in the loop freezing the game until it is recovered. It
//! does not make more sense to allow the player to proceed alone."
//!
//! These tests cut the simulated link mid-game, observe the freeze, heal
//! the link, and verify the game resumes and the replicas still converge.
//! A rollback pair speculates into the outage up to its window, then
//! freezes the same way.

use coplay::clock::{SimDuration, SimTime};
use coplay::games::Pong;
use coplay::net::{NetemConfig, PeerId, SimNetwork};
use coplay::sim::Testbed;
use coplay::sync::{ConsistencyMode, LockstepSession, RandomPresser, RollbackSession, SyncConfig};
use coplay::vm::Player;

/// Two Pong sites under `consistency`, linked at `rtt_ms`, booting at zero.
fn pair(rtt_ms: u64, consistency: ConsistencyMode) -> Testbed {
    let mut tb = Testbed::default();
    let link = NetemConfig::with_rtt(SimDuration::from_millis(rtt_ms));
    SimNetwork::link_pair(tb.net(), PeerId(0), PeerId(1), link, 7);
    for site in 0..2u8 {
        let cfg = SyncConfig {
            consistency,
            ..SyncConfig::two_player(site)
        };
        let socket = SimNetwork::socket(tb.net(), PeerId(site));
        let input = RandomPresser::new(Player(site), 100 + site as u64);
        let (pong, boot) = (Pong::new(), SimTime::ZERO);
        if consistency.is_rollback() {
            tb.add(RollbackSession::new(cfg, pong, socket, input), boot);
        } else {
            tb.add(LockstepSession::new(cfg, pong, socket, input), boot);
        }
    }
    tb
}

fn set_link(tb: &Testbed, up: bool) {
    let mut net = tb.net().borrow_mut();
    net.set_link_up(PeerId(0), PeerId(1), up);
    net.set_link_up(PeerId(1), PeerId(0), up);
}

#[test]
fn network_outage_freezes_and_recovery_resumes() {
    let mut h = pair(40, ConsistencyMode::Lockstep);

    // Phase 1: two seconds of healthy play.
    h.run_until(SimTime::from_secs(2)).unwrap();
    let healthy_frames = h.frames(0);
    assert!(
        healthy_frames > 100,
        "game should be running ({healthy_frames})"
    );

    // Phase 2: the network dies for two seconds.
    set_link(&h, false);
    h.run_until(SimTime::from_secs(4)).unwrap();
    let frames_during_outage = h.frames(0) - healthy_frames;
    // The local-lag window plus in-flight packets allow a handful of extra
    // frames, then the game must freeze (the paper's semantics).
    assert!(
        frames_during_outage < 30,
        "game should freeze during the outage, executed {frames_during_outage}"
    );

    // Phase 3: the network heals; the game must resume and catch up.
    set_link(&h, true);
    h.run_until(SimTime::from_secs(7)).unwrap();
    let final_frames = h.frames(0).min(h.frames(1));
    assert!(
        final_frames > healthy_frames + 120,
        "game should resume after recovery ({final_frames})"
    );

    // Logical consistency must have survived the outage.
    let common = h.confirmed(0).len().min(h.confirmed(1).len());
    assert_eq!(
        h.confirmed(0)[..common],
        h.confirmed(1)[..common],
        "replicas diverged across the outage"
    );
}

#[test]
fn one_way_outage_also_freezes_both_sites() {
    // Only site0 -> site1 dies: site 1 stalls for lack of inputs, and site 0
    // then stalls waiting for site 1's subsequent inputs (lockstep is
    // symmetric in effect even under asymmetric failure).
    let mut h = pair(40, ConsistencyMode::Lockstep);
    h.run_until(SimTime::from_secs(2)).unwrap();
    let before = (h.frames(0), h.frames(1));

    h.net()
        .borrow_mut()
        .set_link_up(PeerId(0), PeerId(1), false);
    h.run_until(SimTime::from_secs(4)).unwrap();
    let during = (h.frames(0) - before.0, h.frames(1) - before.1);
    assert!(during.0 < 30, "site 0 should stall too, ran {}", during.0);
    assert!(during.1 < 30, "site 1 should stall, ran {}", during.1);

    h.net().borrow_mut().set_link_up(PeerId(0), PeerId(1), true);
    h.run_until(SimTime::from_secs(6)).unwrap();
    let common = h.confirmed(0).len().min(h.confirmed(1).len());
    assert!(common as u64 > before.0 + 60, "recovery failed");
    assert_eq!(h.confirmed(0)[..common], h.confirmed(1)[..common]);
}

#[test]
fn repeated_flapping_never_breaks_consistency() {
    let mut h = pair(30, ConsistencyMode::Lockstep);
    for cycle in 0..5u64 {
        let base = SimTime::from_millis(cycle * 1500);
        h.run_until(base + SimDuration::from_millis(1000)).unwrap();
        set_link(&h, false);
        h.run_until(base + SimDuration::from_millis(1500)).unwrap();
        set_link(&h, true);
    }
    h.run_until(SimTime::from_secs(10)).unwrap();
    let common = h.confirmed(0).len().min(h.confirmed(1).len());
    assert!(common > 300, "game should have made progress between flaps");
    assert_eq!(
        h.confirmed(0)[..common],
        h.confirmed(1)[..common],
        "replicas diverged under link flapping"
    );
}

#[test]
fn rollback_pair_speculates_into_a_partition_and_agrees_after_heal() {
    let mut h = pair(40, ConsistencyMode::rollback());
    h.run_until(SimTime::from_secs(2)).unwrap();
    let healthy = [h.frames(0), h.frames(1)];
    let confirmed = h.confirmed(0).len();
    assert!(healthy[0] > 100, "game should be running ({healthy:?})");

    // Two seconds of two-way outage: each site speculates past its last
    // peer input by at most the default 30-frame rollback window, on top
    // of the local lag that input already covered, then blocks.
    set_link(&h, false);
    h.run_until(SimTime::from_secs(4)).unwrap();
    let window = 30 + SyncConfig::two_player(0).buf_frames;
    for (site, before) in healthy.into_iter().enumerate() {
        let ran = h.frames(site) - before;
        let speculative = h.frames(site) - h.confirmed(site).len() as u64;
        assert!(speculative > 0, "site {site} never speculated");
        assert!(ran <= window, "site {site} ran {ran} frames");
    }

    set_link(&h, true);
    h.run_until(SimTime::from_secs(7)).unwrap();
    let common = h.confirmed(0).len().min(h.confirmed(1).len());
    assert!(
        common > confirmed + 120,
        "play should resume after the heal ({confirmed} -> {common} confirmed)"
    );
    assert_eq!(
        h.confirmed(0)[..common],
        h.confirmed(1)[..common],
        "replicas diverged across the partition"
    );
}
