//! Regenerates **Figure 2** of the paper: average absolute inter-site
//! frame-begin time difference vs. RTT (Experiment Series 2, §4.1.2).
//!
//! Both sites stamp every frame begin to a LAN time server; the per-frame
//! difference of the two stamps, averaged in absolute value (footnote 11),
//! measures how closely the replicas run.
//!
//! Expected shape (paper): under 10 ms up to ~130 ms RTT, rising sharply
//! beyond the ~140 ms threshold.
//!
//! Run: `cargo run --release -p coplay-bench --bin fig2 [--quick]`

use coplay_bench::{banner, figure2_json, write_results_json, Options};
use coplay_sim::{format_figure2, paper_rtt_points, run_sweep, ExperimentConfig};

fn main() {
    let opts = Options::from_env();
    banner("Figure 2 — Synchrony between two sites vs RTT", &opts);
    let base = opts.apply(ExperimentConfig::default());
    let rows = run_sweep(
        &base,
        &paper_rtt_points(),
        opts.sweep_threads(),
        |rtt, r| {
            eprintln!(
                "  rtt {:3}ms: |Δ| {:6.2}ms, converged {}",
                rtt.as_millis(),
                r.synchrony_ms,
                r.converged
            );
        },
    )
    .expect("sweep failed");
    println!("{}", format_figure2(&rows));
    let below_10 = rows
        .iter()
        .take_while(|r| r.result.synchrony_ms < 10.0)
        .last()
        .map(|r| r.rtt);
    if let Some(rtt) = below_10 {
        println!("Synchrony stays under 10ms up to RTT {rtt} (paper: up to ~130ms)");
    }
    let json = figure2_json(&opts, &rows);
    match write_results_json("BENCH_fig2.json", &json) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
}
