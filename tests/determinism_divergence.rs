//! Divergence detection under an adversarial network.
//!
//! Two full replicas (game VM + `InputSync` engine each) exchange input
//! messages through `NetemChannel` links configured to aggressively reorder
//! and duplicate datagrams. Logical consistency demands that the per-frame
//! `state_hash` sequences stay bit-for-bit identical anyway — and the test
//! also asserts the adversary actually fired, so a quiet channel can never
//! produce a vacuous pass.

use coplay::clock::{EventQueue, SimDuration, SimTime};
use coplay::games::GameId;
use coplay::net::{DetRng, JitterDistribution, NetemChannel, NetemConfig};
use coplay::sync::{InputSync, Message, SyncConfig};
use coplay::vm::InputWord;

/// One lockstep replica: engine, machine, and its per-frame hash trace.
struct Replica {
    sync: InputSync,
    machine: Box<dyn coplay::vm::Machine>,
    rng: DetRng,
    frame: u64,
    begun: bool,
    hashes: Vec<u64>,
}

impl Replica {
    fn new(site: u8, game: GameId) -> Replica {
        Replica {
            sync: InputSync::new(SyncConfig::two_player(site)),
            machine: game.create(),
            rng: DetRng::seed_from_u64(0xD1CE_0000 + site as u64),
            frame: 0,
            begun: false,
            hashes: Vec::new(),
        }
    }
}

/// Runs two replicas of `game` for `frames` frames over `cfg`-impaired
/// links and returns the per-frame hash traces plus combined channel stats.
fn run_adversarial(
    game: GameId,
    frames: usize,
    cfg: NetemConfig,
) -> ([Vec<u64>; 2], coplay::net::ChannelStats) {
    let mut replicas = [Replica::new(0, game), Replica::new(1, game)];
    // One independent impairment channel per direction.
    let mut links = [
        NetemChannel::new(cfg.clone(), 0xBAD_0001),
        NetemChannel::new(cfg, 0xBAD_0002),
    ];

    // In-flight datagrams: (destination site, encoded message).
    let mut queue: EventQueue<(usize, Vec<u8>)> = EventQueue::new();
    let tick = SimDuration::from_millis(2);
    let mut now = SimTime::ZERO;

    // 60s of virtual time is far more than `frames` frames need even at
    // the paced send interval; hitting it means lockstep wedged.
    for _ in 0..30_000 {
        // Deliver everything due by now.
        while queue.peek_time().is_some_and(|t| t <= now) {
            let (_, (dest, bytes)) = queue.pop().unwrap();
            let msg = Message::decode(&bytes).expect("replicas only send valid datagrams");
            if let Message::Input(input) = msg {
                // Two sites: the sender is the other one.
                replicas[dest].sync.on_message(1 - dest as u8, &input, now);
            }
        }

        for site in 0..2 {
            let r = &mut replicas[site];
            if r.hashes.len() >= frames {
                continue;
            }
            if !r.begun {
                let local = InputWord(r.rng.next_u64() as u32);
                r.sync.begin_frame(r.frame, local, now);
                r.begun = true;
            }
            for (dst, msg) in r.sync.outgoing(now) {
                let bytes = Message::Input(msg).encode();
                let fate = links[site].process(now, bytes.len());
                for at in fate.deliveries {
                    queue.schedule(at, (dst as usize, bytes.clone()));
                }
            }
            if r.sync.ready() {
                let input = r.sync.take();
                r.machine.step_frame(input);
                r.hashes.push(r.machine.state_hash());
                r.frame += 1;
                r.begun = false;
            }
        }

        if replicas.iter().all(|r| r.hashes.len() >= frames) {
            break;
        }
        now = now.offset(tick.into());
    }

    let mut stats = links[0].stats();
    let s1 = links[1].stats();
    stats.offered += s1.offered;
    stats.delivered += s1.delivered;
    stats.lost += s1.lost;
    stats.duplicated += s1.duplicated;
    stats.reordered += s1.reordered;

    let [a, b] = replicas;
    ([a.hashes, b.hashes], stats)
}

fn adversarial_config() -> NetemConfig {
    NetemConfig::new()
        .delay(SimDuration::from_millis(30))
        .jitter(SimDuration::from_millis(8))
        .jitter_distribution(JitterDistribution::Normal)
        .reorder(0.25)
        .duplicate(0.20)
}

#[test]
fn replicas_agree_frame_by_frame_under_reordering_and_duplication() {
    const FRAMES: usize = 300;
    let ([a, b], stats) = run_adversarial(GameId::Brawler, FRAMES, adversarial_config());

    assert_eq!(a.len(), FRAMES, "replica 0 wedged at frame {}", a.len());
    assert_eq!(b.len(), FRAMES, "replica 1 wedged at frame {}", b.len());

    // The adversary must actually have fired, or the assertion below is
    // vacuous.
    assert!(stats.duplicated > 0, "channel never duplicated: {stats:?}");
    assert!(stats.reordered > 0, "channel never reordered: {stats:?}");

    for (frame, (ha, hb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(
            ha, hb,
            "state hashes diverged at frame {frame} (dup={}, reorder={})",
            stats.duplicated, stats.reordered
        );
    }
}

/// A rollback site and a lockstep site are *protocol-compatible*: each
/// maintains logical consistency its own way (speculate-and-repair vs.
/// wait), so their authoritative per-frame hashes must agree even over an
/// aggressively reordering/duplicating path whose RTT forces the rollback
/// site to actually speculate.
#[test]
fn rollback_site_matches_lockstep_site_over_adversarial_links() {
    use coplay::net::{PeerId, SimNetwork};
    use coplay::sim::Testbed;
    use coplay::sync::{ConsistencyMode, LockstepSession, RandomPresser, RollbackSession};
    use coplay::vm::Player;

    const FRAMES: u64 = 240;
    let mut testbed = Testbed::default();
    // 140 ms RTT exceeds the 100 ms local-lag budget, so the rollback site
    // must predict the tail frames — and sometimes mispredict.
    let link = adversarial_config().delay(SimDuration::from_millis(70));
    SimNetwork::link_pair(testbed.net(), PeerId(0), PeerId(1), link, 0xBAD_C0DE);

    let mut cfg0 = SyncConfig::two_player(0);
    cfg0.consistency = ConsistencyMode::rollback();
    let cfg1 = SyncConfig::two_player(1);
    let a = RollbackSession::new(
        cfg0,
        GameId::Brawler.create(),
        SimNetwork::socket(testbed.net(), PeerId(0)),
        RandomPresser::new(Player::ONE, 11),
    );
    let b = LockstepSession::new(
        cfg1,
        GameId::Brawler.create(),
        SimNetwork::socket(testbed.net(), PeerId(1)),
        RandomPresser::new(Player::TWO, 22),
    );
    testbed.add(a, SimTime::ZERO);
    testbed.add(b, SimTime::ZERO);
    // 240 frames take about 4 s of virtual time at this RTT.
    testbed.run_until(SimTime::from_secs(6)).unwrap();
    let (confirmed, lockstep) = (testbed.confirmed(0), testbed.confirmed(1));
    assert!(confirmed.len() as u64 >= FRAMES, "rollback site wedged");
    assert!(lockstep.len() as u64 >= FRAMES, "lockstep site wedged");

    // Non-vacuity: the adversary fired and speculation was actually
    // repaired at least once.
    let stats = testbed
        .net()
        .borrow()
        .link_stats(PeerId(0), PeerId(1))
        .expect("link exists");
    assert!(stats.duplicated > 0, "channel never duplicated: {stats:?}");
    assert!(stats.reordered > 0, "channel never reordered: {stats:?}");
    assert!(
        testbed.site(0).stats().rollbacks > 0,
        "RTT past the lag budget must force repairs"
    );

    let common = confirmed.len().min(lockstep.len());
    assert_eq!(
        &confirmed[..common],
        &lockstep[..common],
        "cross-mode replicas diverged"
    );
}

/// Forced divergence end-to-end through the black-box pipeline: one
/// replica's merged input word is tampered mid-run, the per-frame hashes
/// split, the tracing telemetry handle latches the `DesyncDetected`
/// anomaly, and `dump_if_anomalous` writes a self-contained forensics
/// bundle under `results/forensics/`.
#[test]
fn forced_divergence_produces_forensics_bundle() {
    use coplay::telemetry::{forensics, EventKind, SpanStage, Telemetry};

    const FRAMES: u64 = 120;
    const TAMPER_FRAME: u64 = 40;
    let tel = Telemetry::tracing(0xF0CE_4512, 0);

    let mut honest = GameId::Pong.create();
    let mut tampered = GameId::Pong.create();
    let mut rng = DetRng::seed_from_u64(0xBAD_1DEA);
    let mut divergence = None;
    for frame in 0..FRAMES {
        let at = SimTime::from_micros(frame * 16_667);
        let word = InputWord(rng.next_u64() as u32);
        tel.span(at, SpanStage::Sampled, frame, 0);
        tel.span(at, SpanStage::Merged, frame, 0);
        honest.step_frame(word);
        // A single flipped button bit in one replica's merged word is the
        // minimal corruption the hash check has to catch.
        let corrupted = if frame == TAMPER_FRAME {
            InputWord(word.0 ^ 1)
        } else {
            word
        };
        tampered.step_frame(corrupted);
        if divergence.is_none() && honest.state_hash() != tampered.state_hash() {
            divergence = Some(frame);
            tel.record(at, EventKind::DesyncDetected { frame });
        }
    }
    let diverged_at = divergence.expect("tampered input must split the hashes");
    assert!(
        diverged_at >= TAMPER_FRAME,
        "hashes split at {diverged_at}, before the frame {TAMPER_FRAME} tamper"
    );

    // Integration tests run with the workspace root as cwd, so this is the
    // same `results/forensics/` directory the sim harness dumps into.
    let root = std::path::Path::new("results/forensics");
    let dir = forensics::dump_if_anomalous(
        root,
        &tel,
        &[("input_log.txt", b"seed=0xBAD_1DEA".to_vec())],
    )
    .expect("bundle write failed")
    .expect("latched desync must produce a bundle");
    assert!(dir.starts_with(root));
    for file in [
        "MANIFEST.txt",
        "flight_recorder.jsonl",
        "metrics.json",
        "input_log.txt",
    ] {
        let contents = std::fs::read(dir.join(file)).expect("bundle file missing");
        assert!(!contents.is_empty(), "{file} is empty");
    }
    let manifest = std::fs::read_to_string(dir.join("MANIFEST.txt")).unwrap();
    assert!(manifest.contains("trigger: desync"), "{manifest}");
    assert!(
        manifest.contains(&format!("\"frame\":{diverged_at}")),
        "manifest pins the diverging frame: {manifest}"
    );
}

#[test]
fn hash_traces_are_reproducible_across_runs() {
    // The whole harness — inputs, channels, delivery order — is seeded, so
    // a second run must reproduce the exact same trace. This is what makes
    // any future divergence failure debuggable.
    let cfg = adversarial_config();
    let ([a1, b1], _) = run_adversarial(GameId::Pong, 120, cfg.clone());
    let ([a2, b2], _) = run_adversarial(GameId::Pong, 120, cfg);
    assert_eq!(a1, a2);
    assert_eq!(b1, b2);
}

/// Folds `fnv1a` over the fate of 10 000 packets offered to one channel
/// (every delivery time, then the `lost` and `reordered` flags), so any
/// change to what the impairment model draws or schedules moves the digest.
fn netem_fate_digest(cfg: NetemConfig, seed: u64) -> u64 {
    let mut ch = NetemChannel::new(cfg, seed);
    let mut trail = Vec::new();
    for i in 0..10_000u64 {
        let fate = ch.process(SimTime::from_micros(i * 700), 40 + (i % 90) as usize);
        trail.extend_from_slice(&(fate.deliveries.len() as u64).to_le_bytes());
        for at in &fate.deliveries {
            trail.extend_from_slice(&at.as_micros().to_le_bytes());
        }
        trail.push(fate.lost as u8);
        trail.push(fate.reordered as u8);
    }
    coplay::vm::fnv1a(&trail)
}

/// Golden oracle for the netem model: per-packet fates under three fixed
/// links are pinned, so a refactor of `NetemChannel` that claims to keep
/// behaviour has to reproduce every delivery time exactly.
#[test]
fn netem_fate_digests_are_pinned() {
    let wan = NetemConfig::new()
        .delay(SimDuration::from_millis(40))
        .jitter(SimDuration::from_millis(8))
        .loss(0.02);
    let heavy_tail = NetemConfig::new()
        .delay(SimDuration::from_millis(25))
        .jitter(SimDuration::from_millis(10))
        .jitter_distribution(JitterDistribution::HeavyTail)
        .loss(0.05)
        .loss_correlation(0.5)
        .tx_slice(SimDuration::from_millis(10));
    let digests = [
        netem_fate_digest(wan, 0x5EED_0001),
        netem_fate_digest(adversarial_config(), 0x5EED_0002),
        netem_fate_digest(heavy_tail, 0x5EED_0003),
    ];
    assert_eq!(
        digests,
        [
            0xc91b_767e_0122_5237,
            0x847a_4feb_a844_e81a,
            0xd781_578d_af98_7425
        ],
        "{digests:#018x?}"
    );
}
