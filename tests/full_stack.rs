//! Full-stack integration: assembler → emulated console → lockstep session
//! → transport, end to end through the public API.

use coplay::net::{loopback, PeerId, UdpTransport};
use coplay::sync::{
    run_realtime, Idle, LockstepSession, RandomPresser, Scripted, SyncConfig, SyncError,
};
use coplay::vm::{assemble, Console, InputWord, Machine, Player};

/// Runs two sessions over the given transports until both executed
/// `frames`, returning each site's per-frame state hashes.
fn duel<M, T>(
    machine: impl Fn() -> M,
    transports: (T, T),
    frames: u64,
    fast: bool,
) -> Result<(Vec<u64>, Vec<u64>), SyncError>
where
    M: Machine + Send + 'static,
    T: coplay::net::Transport + Send + 'static,
{
    let mk_cfg = |site: u8| {
        let mut cfg = SyncConfig::two_player(site);
        if fast {
            cfg.cfps = 480; // keep wall time short in CI
        }
        cfg
    };
    let a = LockstepSession::new(
        mk_cfg(0),
        machine(),
        transports.0,
        RandomPresser::new(Player::ONE, 5),
    );
    let b = LockstepSession::new(
        mk_cfg(1),
        machine(),
        transports.1,
        RandomPresser::new(Player::TWO, 6),
    );
    let ja = std::thread::spawn(move || {
        let mut h = Vec::new();
        run_realtime(a, frames, |r, _| h.push(r.state_hash.unwrap())).map(|_| h)
    });
    let jb = std::thread::spawn(move || {
        let mut h = Vec::new();
        run_realtime(b, frames, |r, _| h.push(r.state_hash.unwrap())).map(|_| h)
    });
    Ok((ja.join().expect("thread a")?, jb.join().expect("thread b")?))
}

#[test]
fn hand_written_assembly_game_shared_over_loopback() {
    // A freshly authored cartridge: both players light pixels with their
    // buttons. Determinism comes solely from the Machine contract — the
    // sync layer knows nothing about the program ("game transparency").
    let source = r#"
        .title "Integration"
        .seed 99
        .equ COUNTER, 0x8000
        frame:
            in r0, 0
            ldi r1, COUNTER
            ldw r2, [r1]
            add r2, r0
            stw [r1], r2
            rnd r3
            ldi r1, 0
            sys 0
            mov r1, r2
            ldi r2, 20
            ldi r3, 40
            ldi r4, 7
            sys 4
            yield
            jmp frame
    "#;
    let rom = assemble(source).expect("assembles");
    let (ha, hb) = duel(
        || Console::new(rom.clone()),
        loopback(PeerId(0), PeerId(1)),
        48,
        true,
    )
    .expect("session");
    assert_eq!(ha, hb, "console replicas diverged");
}

#[test]
fn real_udp_sockets_carry_a_session() {
    let mut t0 = UdpTransport::bind(PeerId(0), "127.0.0.1:0").expect("bind");
    let mut t1 = UdpTransport::bind(PeerId(1), "127.0.0.1:0").expect("bind");
    let a0 = t0.local_addr().expect("addr");
    let a1 = t1.local_addr().expect("addr");
    t0.add_peer(PeerId(1), a1).expect("peer");
    t1.add_peer(PeerId(0), a0).expect("peer");
    let (ha, hb) = duel(coplay::games::Pong::new, (t0, t1), 48, true).expect("session");
    assert_eq!(ha, hb, "replicas diverged over real UDP");
}

#[test]
fn rom_mismatch_refuses_to_start() {
    // Site 1 loads a different cartridge; the handshake must detect it.
    let rom_a = assemble(".title \"A\"\nnop\nyield\njmp 0").expect("a");
    let rom_b = assemble(".title \"B\"\nnop\nnop\nyield\njmp 0").expect("b");
    let (ta, tb) = loopback(PeerId(0), PeerId(1));
    let mut a = LockstepSession::new(SyncConfig::two_player(0), Console::new(rom_a), ta, Idle);
    let mut b = LockstepSession::new(SyncConfig::two_player(1), Console::new(rom_b), tb, Idle);
    use coplay::clock::SimTime;
    // b hellos with its hash; a must reject.
    let _ = b.tick(SimTime::ZERO).expect("b sends hello");
    let err = a.tick(SimTime::ZERO).expect_err("mismatch must be fatal");
    assert!(matches!(err, SyncError::RomMismatch { .. }), "{err}");
}

#[test]
fn scripted_traces_replay_identically_across_the_network() {
    // Recorded traces (a "demo playback" scenario): both sites replay a
    // fixed script; the resulting game must equal a local replay.
    let trace_p1: Vec<InputWord> = (0..60u32)
        .map(|f| InputWord::for_player(Player::ONE, (f % 4) as u8))
        .collect();
    let trace_p2: Vec<InputWord> = (0..60u32)
        .map(|f| InputWord::for_player(Player::TWO, ((f / 2) % 4) as u8))
        .collect();

    // Local reference: merge the traces directly (with the 6-frame lag the
    // protocol applies).
    let mut reference = coplay::games::Pong::new();
    let mut ref_hashes = Vec::new();
    for f in 0..48usize {
        let lagged = f.checked_sub(6);
        let merged = match lagged {
            Some(l) => trace_p1[l].merged(trace_p2[l]),
            None => InputWord::NONE,
        };
        reference.step_frame(merged);
        ref_hashes.push(reference.state_hash());
    }

    // Networked run with the same scripts.
    let (ta, tb) = loopback(PeerId(0), PeerId(1));
    let mk_cfg = |site: u8| {
        let mut cfg = SyncConfig::two_player(site);
        cfg.cfps = 480;
        cfg
    };
    let a = LockstepSession::new(
        mk_cfg(0),
        coplay::games::Pong::new(),
        ta,
        Scripted::new(trace_p1),
    );
    let b = LockstepSession::new(
        mk_cfg(1),
        coplay::games::Pong::new(),
        tb,
        Scripted::new(trace_p2),
    );
    let ja = std::thread::spawn(move || {
        let mut h = Vec::new();
        run_realtime(a, 48, |r, _| h.push(r.state_hash.unwrap())).map(|_| h)
    });
    let jb = std::thread::spawn(move || {
        let mut h = Vec::new();
        run_realtime(b, 48, |r, _| h.push(r.state_hash.unwrap())).map(|_| h)
    });
    let ha = ja.join().expect("a").expect("a ran");
    let hb = jb.join().expect("b").expect("b ran");
    assert_eq!(ha, hb, "network replicas diverged");
    assert_eq!(ha, ref_hashes, "networked game differs from local replay");
}

#[test]
fn lossy_experiment_records_stalls_and_retransmissions() {
    use coplay::clock::SimDuration;
    use coplay::sim::{run_experiment, ExperimentConfig};
    use coplay::sync::SessionStats;
    use coplay::telemetry::EventKind;

    // The paper's past-the-threshold regime: 200 ms RTT with 5% loss. The
    // local lag (6 frames ≈ 100 ms) cannot hide a 100 ms one-way delay, so
    // the session must stall, and loss must force retransmissions.
    let mut cfg = ExperimentConfig::with_rtt(SimDuration::from_millis(200));
    cfg.game = coplay::games::GameId::Pong;
    cfg.frames = 360;
    cfg.loss = 0.05;
    cfg.telemetry = true;
    let r = run_experiment(cfg).expect("lossy run completes");
    assert!(r.converged, "loss must not break logical consistency");

    let master = &r.telemetry[0];
    let events = master.events();
    assert!(!events.is_empty(), "recording sink captured nothing");

    // The dump is non-empty JSONL with monotonically non-decreasing stamps.
    let dump = master.dump_jsonl();
    assert!(!dump.is_empty());
    let mut last_t = 0u64;
    for line in dump.lines() {
        assert!(
            line.starts_with("{\"t_us\":") && line.ends_with('}'),
            "{line}"
        );
        let t: u64 = line["{\"t_us\":".len()..]
            .split(',')
            .next()
            .and_then(|s| s.parse().ok())
            .expect("timestamp parses");
        assert!(
            t >= last_t,
            "timestamps must be non-decreasing: {t} < {last_t}"
        );
        last_t = t;
    }

    // Stalls were recorded (begin and end), and messages carried resent
    // frames in both directions of the protocol.
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::StallBegin { .. })),
        "200ms RTT must stall a 100ms local lag"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::StallEnd { .. })));
    assert!(
        events.iter().any(
            |e| matches!(e.kind, EventKind::InputSent { retransmitted, .. } if retransmitted > 0)
        ),
        "5% loss must force retransmissions"
    );
    assert!(master.counter("retransmitted_frames_sent_total") > 0);

    // The Prometheus exposition reports the frame-time quantiles.
    let prom = master.prometheus();
    assert!(
        prom.contains("coplay_frame_time_us{quantile=\"0.5\"}"),
        "{prom}"
    );
    assert!(
        prom.contains("coplay_frame_time_us{quantile=\"0.95\"}"),
        "{prom}"
    );
    assert!(
        prom.contains("coplay_frame_time_us{quantile=\"0.99\"}"),
        "{prom}"
    );
    // Quantiles are answerable (0 is legitimate: in virtual time a frame
    // whose inputs are already buffered begins and executes at one instant).
    let p50 = master
        .percentile("frame_time_us", 0.5)
        .expect("samples exist");
    let p99 = master
        .percentile("frame_time_us", 0.99)
        .expect("samples exist");
    assert!(p99 >= p50);

    // `SessionStats` is the one definition of the session counters; each
    // site's event trail must add up to it. A stall is a blockage that
    // ended after a non-zero wait (one still open when the run ends is not
    // counted); a master never adjusts its pace, so the slave must.
    let mut pace_adjustments = 0;
    for (i, (stats, t)) in r.session_stats.iter().zip(&r.telemetry).enumerate() {
        assert_eq!(
            t.dropped_events(),
            0,
            "site {i}: the trail must be complete"
        );
        let mut trail = SessionStats::default();
        for e in t.events() {
            match e.kind {
                EventKind::FrameExecuted { .. } => trail.frames += 1,
                EventKind::StallEnd { duration, .. } if duration > SimDuration::ZERO => {
                    trail.stalled_frames += 1;
                }
                EventKind::InputSent { count, .. } => {
                    trail.input_messages_sent += 1;
                    trail.input_frames_sent += u64::from(count);
                }
                EventKind::InputReceived {
                    count,
                    fresh,
                    duplicate,
                    ..
                } => {
                    trail.input_messages_received += 1;
                    trail.duplicate_messages_received += u64::from(duplicate);
                    trail.retransmitted_frames_received += u64::from(count - fresh);
                }
                EventKind::PaceAdjustment { .. } => trail.pace_adjustments += 1,
                _ => {}
            }
        }
        assert!(stats.frames > 0 && stats.stalled_frames >= 1, "site {i}");
        assert!(
            trail.duplicate_messages_received > 0 && trail.retransmitted_frames_received > 0,
            "site {i}: 5% loss must resend frames"
        );
        let counted = SessionStats {
            frames: stats.frames,
            stalled_frames: stats.stalled_frames,
            input_messages_sent: stats.input_messages_sent,
            input_frames_sent: stats.input_frames_sent,
            input_messages_received: stats.input_messages_received,
            duplicate_messages_received: stats.duplicate_messages_received,
            retransmitted_frames_received: stats.retransmitted_frames_received,
            pace_adjustments: stats.pace_adjustments,
            ..SessionStats::default()
        };
        assert_eq!(counted, trail, "site {i}");
        pace_adjustments += stats.pace_adjustments;
    }
    assert!(pace_adjustments > 0, "the slave must adjust its pace");

    // The network fabric saw the loss process.
    assert!(r.net_telemetry.counter("packets_dropped_total") > 0);
}

#[test]
fn lossy_rollback_experiment_resimulates_what_it_rolls_back() {
    use coplay::clock::SimDuration;
    use coplay::sim::{run_experiment, ExperimentConfig};
    use coplay::telemetry::EventKind;

    // The lossy experiment above, under speculation: the RTT is absorbed
    // by prediction, and every misprediction costs a rollback.
    let mut cfg = ExperimentConfig::rollback_with_rtt(SimDuration::from_millis(200));
    cfg.game = coplay::games::GameId::Pong;
    cfg.frames = 360;
    cfg.loss = 0.05;
    cfg.telemetry = true;
    let r = run_experiment(cfg).expect("lossy rollback run completes");
    assert!(r.converged, "repair must keep the replicas consistent");

    // `SessionStats` is the one rollback count: a repair re-executes every
    // frame it rewinds, so the frames resimulated are the sum of the
    // `rollback_executed` depths.
    let mut rollbacks = 0;
    for (i, (stats, t)) in r.session_stats.iter().zip(&r.telemetry).enumerate() {
        assert_eq!(
            t.dropped_events(),
            0,
            "site {i}: the trail must be complete"
        );
        let depths: Vec<u64> = t
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::RollbackExecuted { depth, .. } => Some(depth),
                _ => None,
            })
            .collect();
        assert_eq!(stats.rollbacks, depths.len() as u64, "site {i}");
        assert_eq!(
            stats.resimulated_frames,
            depths.iter().sum::<u64>(),
            "site {i}"
        );
        assert_eq!(
            stats.max_rollback_depth,
            depths.iter().copied().max().unwrap_or(0),
            "site {i}"
        );
        rollbacks += stats.rollbacks;
    }
    assert!(
        rollbacks >= 1,
        "random pressers must mispredict at some point"
    );
}

#[test]
fn clean_experiment_records_no_stalls() {
    use coplay::clock::SimDuration;
    use coplay::sim::{run_experiment, ExperimentConfig};
    use coplay::telemetry::EventKind;

    // 40 ms RTT is well inside the local lag: every remote input arrives
    // early, so the flight recorders must contain no stall events at all.
    let mut cfg = ExperimentConfig::with_rtt(SimDuration::from_millis(40));
    cfg.game = coplay::games::GameId::Pong;
    cfg.frames = 240;
    cfg.telemetry = true;
    let r = run_experiment(cfg).expect("clean run completes");
    assert!(r.converged);
    for (i, t) in r.telemetry.iter().enumerate() {
        assert!(t.event_count() > 0, "site {i} recorded nothing");
        assert!(
            !t.events().iter().any(|e| matches!(
                e.kind,
                EventKind::StallBegin { .. } | EventKind::StallEnd { .. }
            )),
            "site {i} stalled on a clean link"
        );
        assert_eq!(r.session_stats[i].stalled_frames, 0, "site {i}");
    }
    assert_eq!(r.net_telemetry.counter("packets_dropped_total"), 0);
}

#[test]
fn stopping_a_session_notifies_the_peer() {
    let (ta, tb) = loopback(PeerId(0), PeerId(1));
    let mut cfg0 = SyncConfig::two_player(0);
    cfg0.cfps = 480;
    let mut cfg1 = SyncConfig::two_player(1);
    cfg1.cfps = 480;
    let mut a = LockstepSession::new(cfg0, coplay::games::Pong::new(), ta, Idle);
    let b = LockstepSession::new(cfg1, coplay::games::Pong::new(), tb, Idle);

    // Run b on a thread until it reports the peer left.
    let jb = std::thread::spawn(move || match run_realtime(b, u64::MAX, |_, _| {}) {
        Ok((outcome, _)) => outcome,
        Err(e) => panic!("b failed: {e}"),
    });
    // Let the session establish and run a moment, then quit site a.
    std::thread::sleep(std::time::Duration::from_millis(100));
    use coplay::clock::{Clock, SystemClock};
    let clock = SystemClock::new();
    for _ in 0..50 {
        let _ = a.tick(clock.now());
    }
    a.stop().expect("stop");
    let outcome = jb.join().expect("b thread");
    assert_eq!(
        outcome,
        coplay::sync::RunOutcome::Stopped(coplay::sync::StopReason::PeerLeft)
    );
}
