//! Regenerates **Figure 1** of the paper: average frame time and average
//! deviation of frame time vs. RTT (Experiment Series 1, §4.1.1).
//!
//! The paper sweeps RTT 0–200 ms in 10 ms steps and 200–400 ms in 50 ms
//! steps, recording 3600 frame-begin stamps per site per point, then plots
//! the per-site mean frame time and the footnote-10 average deviation.
//!
//! Expected shape (paper): ~17 ms / ~0 ms deviation up to an RTT threshold
//! around 140 ms; a deviation spike at the inflection just past the
//! threshold; slower, stretched frames beyond.
//!
//! Run: `cargo run --release -p coplay-bench --bin fig1 [--quick]`

use coplay_bench::{banner, figure1_json, write_results_json, Options};
use coplay_sim::{format_figure1, paper_rtt_points, run_sweep, threshold_rtt, ExperimentConfig};

fn main() {
    let opts = Options::from_env();
    banner("Figure 1 — Frame rates and smoothness vs RTT", &opts);
    let base = opts.apply(ExperimentConfig::default());
    let rows = run_sweep(
        &base,
        &paper_rtt_points(),
        opts.sweep_threads(),
        |rtt, r| {
            eprintln!(
                "  rtt {:3}ms: frame {:6.2}ms, deviation {:5.2}ms, converged {}",
                rtt.as_millis(),
                r.master_frame_time_ms(),
                r.worst_deviation_ms(),
                r.converged
            );
        },
    )
    .expect("sweep failed");
    println!("{}", format_figure1(&rows));
    let threshold = threshold_rtt(&rows, 1_000.0 / 60.0, 0.5);
    match threshold {
        Some(th) => println!(
            "Measured RTT threshold (last point at full 60 FPS): {} (paper: ~140ms)",
            th
        ),
        None => println!("No full-speed point found (unexpected)"),
    }
    let json = figure1_json(&opts, &rows, threshold.map(|t| t.as_millis()));
    match write_results_json("BENCH_fig1.json", &json) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
}
