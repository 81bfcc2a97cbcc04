//! Regression guard on the paper's headline results: the *shape* of
//! Figures 1 and 2 must survive refactoring.
//!
//! Uses shortened runs (600 frames/point) so the guard is cheap in CI; the
//! full 3600-frame sweeps live in `coplay-bench` and EXPERIMENTS.md.

use coplay::clock::SimDuration;
use coplay::games::GameId;
use coplay::sim::{run_sweep, threshold_rtt, ExperimentConfig};

fn base() -> ExperimentConfig {
    ExperimentConfig {
        frames: 600,
        game: GameId::Pong,
        ..ExperimentConfig::default()
    }
}

#[test]
fn figure_1_shape_holds() {
    let points: Vec<SimDuration> = [0u64, 60, 120, 160, 240, 320, 400]
        .into_iter()
        .map(SimDuration::from_millis)
        .collect();
    let rows = run_sweep(&base(), &points, 1, |_, _| {}).expect("sweep");

    // (a) A full-speed plateau: 60 FPS with sub-millisecond deviation at
    //     every point the paper calls comfortably playable.
    for row in rows.iter().take(3) {
        let ft = row.result.master_frame_time_ms();
        assert!(
            (ft - 16.667).abs() < 0.3,
            "RTT {} should be at 60fps, got {ft}ms",
            row.rtt
        );
        assert!(
            row.result.worst_deviation_ms() < 2.0,
            "RTT {} deviation {} too high for the plateau",
            row.rtt,
            row.result.worst_deviation_ms()
        );
    }

    // (b) A threshold exists: beyond some RTT the game visibly slows.
    let th = threshold_rtt(&rows, 16.667, 0.5).expect("plateau exists");
    assert!(
        th >= SimDuration::from_millis(120),
        "threshold {th} implausibly low (paper: 140ms, ours ~190ms)"
    );
    assert!(
        th < SimDuration::from_millis(400),
        "threshold never reached — the latency budget model is broken"
    );

    // (c) Graceful degradation: frame time grows monotonically (within
    //     noise) past the threshold, and the game still converges.
    let ft: Vec<f64> = rows
        .iter()
        .map(|r| r.result.master_frame_time_ms())
        .collect();
    assert!(
        ft[6] > ft[4] && ft[6] > ft[0] + 5.0,
        "400ms RTT must be clearly slower: {ft:?}"
    );
    assert!(rows.iter().all(|r| r.result.converged));
}

#[test]
fn figure_2_shape_holds() {
    let points: Vec<SimDuration> = [20u64, 80, 140, 320]
        .into_iter()
        .map(SimDuration::from_millis)
        .collect();
    let rows = run_sweep(&base(), &points, 1, |_, _| {}).expect("sweep");

    // Below the threshold: single-digit-ms synchrony (paper: <10ms).
    for row in rows.iter().take(3) {
        assert!(
            row.result.synchrony_ms < 12.0,
            "RTT {}: synchrony {} should be tight below the threshold",
            row.rtt,
            row.result.synchrony_ms
        );
    }
    // Far past it: the sites visibly separate (paper: "quickly goes up").
    assert!(
        rows[3].result.synchrony_ms > 25.0,
        "RTT 320ms: synchrony {} should have blown up",
        rows[3].result.synchrony_ms
    );
}

#[test]
fn section_4_2_budget_direction_holds() {
    // Doubling the sender-side overheads must not *raise* the threshold.
    let lean = ExperimentConfig {
        send_interval: SimDuration::ZERO,
        tx_slice: SimDuration::ZERO,
        ..base()
    };
    let heavy = ExperimentConfig {
        send_interval: SimDuration::from_millis(40),
        tx_slice: SimDuration::from_millis(30),
        ..base()
    };
    let points: Vec<SimDuration> = (8..=24).map(|i| SimDuration::from_millis(i * 10)).collect();
    let lean_rows = run_sweep(&lean, &points, 1, |_, _| {}).expect("lean");
    let heavy_rows = run_sweep(&heavy, &points, 1, |_, _| {}).expect("heavy");
    let lean_th = threshold_rtt(&lean_rows, 16.667, 0.5).expect("lean plateau");
    let heavy_th = threshold_rtt(&heavy_rows, 16.667, 0.5).expect("heavy plateau");
    assert!(
        heavy_th < lean_th,
        "heavier overheads must lower the threshold ({heavy_th} vs {lean_th})"
    );
}
