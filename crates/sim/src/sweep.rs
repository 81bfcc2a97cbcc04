//! The paper's RTT sweep and report formatting.
//!
//! §4.1: "we experiment on round-trip times ranging from 0 to 400
//! milliseconds … the step is set to 10ms from 0 to 200ms and 50ms from
//! 200ms to 400ms." [`paper_rtt_points`] generates exactly that series;
//! [`run_sweep`] executes one experiment per point, on as many threads as
//! asked, and returns the rows behind Figures 1 and 2. Each sweep point is
//! an independent, fully self-contained virtual-time simulation (every
//! seed derives from the point's config, never from shared state), so
//! points can run on any thread in any order without changing a single
//! byte of the output.

use std::sync::atomic::{AtomicUsize, Ordering};

use coplay_clock::SimDuration;

use crate::experiment::{run_experiment, ExperimentConfig, ExperimentResult, SimError};

/// The RTT values of the paper's sweeps: 0–200 ms step 10, 200–400 step 50.
pub fn paper_rtt_points() -> Vec<SimDuration> {
    let mut points: Vec<SimDuration> = (0..=20).map(|i| SimDuration::from_millis(i * 10)).collect();
    points.extend((1..=4).map(|i| SimDuration::from_millis(200 + i * 50)));
    points
}

/// One row of the sweep output.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The swept round-trip time.
    pub rtt: SimDuration,
    /// The full per-point result.
    pub result: ExperimentResult,
}

/// Runs `base` at every RTT in `points`, fanning the points out across
/// `threads` worker threads.
///
/// The output does not depend on `threads`: each point's experiment is
/// deterministic given its config alone, rows come back in point order,
/// and `progress` fires in point order. `threads` is clamped to
/// `1..=points.len()`. One thread runs a serial loop that reports each
/// point as it finishes; with more, `progress` fires after all have run.
///
/// # Errors
///
/// The error for the earliest failing point, in point order (points far
/// past the playable regime can exhaust the virtual-time budget; the
/// paper stops at 400 ms which stays well inside it). The serial loop
/// stops there; the threaded path runs every point to completion first.
pub fn run_sweep(
    base: &ExperimentConfig,
    points: &[SimDuration],
    threads: usize,
    mut progress: impl FnMut(SimDuration, &ExperimentResult),
) -> Result<Vec<SweepRow>, SimError> {
    let threads = threads.clamp(1, points.len().max(1));
    if threads == 1 {
        let mut rows = Vec::with_capacity(points.len());
        for &rtt in points {
            let mut cfg = base.clone();
            cfg.rtt = rtt;
            let result = run_experiment(cfg)?;
            progress(rtt, &result);
            rows.push(SweepRow { rtt, result });
        }
        return Ok(rows);
    }
    // Work-stealing over an atomic cursor: threads claim whichever point
    // is next, and results land in per-thread (index, result) lists that
    // are merged by index afterwards — scheduling order never leaks into
    // the output.
    let next = AtomicUsize::new(0);
    let per_thread: Vec<Vec<(usize, Result<ExperimentResult, SimError>)>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&rtt) = points.get(i) else {
                                return mine;
                            };
                            let mut cfg = base.clone();
                            cfg.rtt = rtt;
                            mine.push((i, run_experiment(cfg)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });
    let mut slots: Vec<Option<Result<ExperimentResult, SimError>>> = Vec::new();
    slots.resize_with(points.len(), || None);
    for (i, r) in per_thread.into_iter().flatten() {
        slots[i] = Some(r);
    }
    let mut rows = Vec::with_capacity(points.len());
    for (slot, &rtt) in slots.into_iter().zip(points) {
        let result = slot.expect("atomic cursor visits every point")?;
        progress(rtt, &result);
        rows.push(SweepRow { rtt, result });
    }
    Ok(rows)
}

/// Formats the sweep as the Figure-1 table (average frame time and average
/// deviation per RTT).
pub fn format_figure1(rows: &[SweepRow]) -> String {
    let mut out = String::from(
        "Figure 1 — Frame rates and smoothness\n\
         RTT(ms)  avg frame time(ms)  avg deviation(ms)  FPS   converged\n",
    );
    for row in rows {
        let s = &row.result.sites[0];
        out.push_str(&format!(
            "{:7}  {:18.2}  {:17.2}  {:4.1}  {}\n",
            row.rtt.as_millis(),
            s.mean_frame_time_ms,
            row.result.worst_deviation_ms(),
            s.fps(),
            row.result.converged,
        ));
    }
    out
}

/// Formats the sweep as the Figure-2 table (average absolute inter-site
/// frame-begin difference per RTT).
pub fn format_figure2(rows: &[SweepRow]) -> String {
    let mut out = String::from(
        "Figure 2 — Synchrony between two sites\n\
         RTT(ms)  avg |site0-site1| per frame (ms)  converged\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:7}  {:33.2}  {}\n",
            row.rtt.as_millis(),
            row.result.synchrony_ms,
            row.result.converged,
        ));
    }
    out
}

/// Finds the threshold RTT: the last point whose frame rate stays within
/// `tolerance_ms` of the nominal frame time (the paper identifies ≈140 ms).
pub fn threshold_rtt(rows: &[SweepRow], nominal_ms: f64, tolerance_ms: f64) -> Option<SimDuration> {
    rows.iter()
        .take_while(|r| (r.result.master_frame_time_ms() - nominal_ms).abs() <= tolerance_ms)
        .map(|r| r.rtt)
        .last()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coplay_games::GameId;

    #[test]
    fn paper_points_match_section_4() {
        let p = paper_rtt_points();
        assert_eq!(p.len(), 25);
        assert_eq!(p[0], SimDuration::ZERO);
        assert_eq!(p[1], SimDuration::from_millis(10));
        assert_eq!(p[20], SimDuration::from_millis(200));
        assert_eq!(p[21], SimDuration::from_millis(250));
        assert_eq!(p[24], SimDuration::from_millis(400));
    }

    #[test]
    fn small_sweep_produces_monotone_slowdown() {
        let base = ExperimentConfig {
            frames: 180,
            game: GameId::Pong,
            ..ExperimentConfig::default()
        };
        let points = [
            SimDuration::ZERO,
            SimDuration::from_millis(100),
            SimDuration::from_millis(350),
        ];
        let mut seen = 0;
        let rows = run_sweep(&base, &points, 1, |_, _| seen += 1).unwrap();
        assert_eq!(seen, 3);
        assert_eq!(rows.len(), 3);
        let ft: Vec<f64> = rows
            .iter()
            .map(|r| r.result.master_frame_time_ms())
            .collect();
        assert!(ft[0] <= ft[2] + 0.5, "fast link must not be slower: {ft:?}");
        assert!(
            ft[2] > ft[0] + 2.0,
            "350ms RTT must visibly slow the game: {ft:?}"
        );
        // Formatting smoke tests.
        let f1 = format_figure1(&rows);
        assert!(f1.contains("Figure 1"));
        assert_eq!(f1.lines().count(), 2 + rows.len());
        let f2 = format_figure2(&rows);
        assert!(f2.contains("Figure 2"));
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        let base = ExperimentConfig {
            frames: 120,
            game: GameId::Pong,
            ..ExperimentConfig::default()
        };
        let points = [
            SimDuration::ZERO,
            SimDuration::from_millis(30),
            SimDuration::from_millis(80),
            SimDuration::from_millis(120),
        ];
        let serial = run_sweep(&base, &points, 1, |_, _| {}).unwrap();
        let mut order = Vec::new();
        let parallel = run_sweep(&base, &points, 4, |rtt, _| order.push(rtt)).unwrap();
        assert_eq!(order, points, "progress fires in point order");
        // The rendered figures are the output artifact; they must match to
        // the byte, as must the raw counters behind them.
        assert_eq!(format_figure1(&serial), format_figure1(&parallel));
        assert_eq!(format_figure2(&serial), format_figure2(&parallel));
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.rtt, p.rtt);
            assert_eq!(s.result.packets_offered, p.result.packets_offered);
            assert_eq!(s.result.synchrony_ms, p.result.synchrony_ms);
            assert_eq!(s.result.converged, p.result.converged);
        }
    }

    #[test]
    fn threshold_detection() {
        let base = ExperimentConfig {
            frames: 180,
            game: GameId::Pong,
            ..ExperimentConfig::default()
        };
        let points = [
            SimDuration::ZERO,
            SimDuration::from_millis(40),
            SimDuration::from_millis(350),
        ];
        let rows = run_sweep(&base, &points, 1, |_, _| {}).unwrap();
        let th = threshold_rtt(&rows, 16.667, 1.0).expect("low points are at speed");
        assert!(th >= SimDuration::from_millis(40));
        assert!(th < SimDuration::from_millis(350));
    }
}
