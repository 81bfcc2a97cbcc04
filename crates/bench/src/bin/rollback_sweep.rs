//! Runs the paper's Figure 1/2 RTT sweep under **both** consistency modes
//! and writes the comparison to `results/BENCH_rollback.json`.
//!
//! Lockstep (the paper's Algorithm 2) buys logical consistency by waiting:
//! past the ~140 ms threshold every frame stretches and the game slows.
//! Rollback speculates with predicted inputs and repairs mispredictions by
//! checkpoint restore + resimulation, holding the nominal frame rate with
//! zero input-wait stalls as long as the RTT stays inside the speculation
//! window (30 frames ≈ 500 ms by default).
//!
//! Expected shape: the lockstep rows reproduce Figures 1 and 2; the
//! rollback rows hold ~16.7 ms mean frame time and near-zero deviation
//! across the whole 0–400 ms range, paying instead in `resimulated_frames`.
//!
//! Run: `cargo run --release -p coplay-bench --bin rollback_sweep [--quick]`

use coplay_bench::{banner, rollback_json, write_results_json, Options};
use coplay_sim::{paper_rtt_points, run_sweep, ExperimentConfig};
use coplay_sync::ConsistencyMode;

fn main() {
    let opts = Options::from_env();
    banner("Rollback vs lockstep — pacing under RTT", &opts);
    let threads = opts.sweep_threads();

    let lockstep_base = opts.apply(ExperimentConfig::default());
    eprintln!("lockstep sweep:");
    let lockstep = run_sweep(&lockstep_base, &paper_rtt_points(), threads, |rtt, r| {
        eprintln!(
            "  rtt {:3}ms: frame {:6.2}ms, dev {:5.2}ms, converged {}",
            rtt.as_millis(),
            r.master_frame_time_ms(),
            r.worst_deviation_ms(),
            r.converged
        );
    })
    .expect("lockstep sweep failed");

    let mut rollback_base = lockstep_base.clone();
    rollback_base.consistency = ConsistencyMode::rollback();
    eprintln!("rollback sweep:");
    let rollback = run_sweep(&rollback_base, &paper_rtt_points(), threads, |rtt, r| {
        let rolls: u64 = r.session_stats.iter().map(|s| s.rollbacks).sum();
        let resim: u64 = r.session_stats.iter().map(|s| s.resimulated_frames).sum();
        eprintln!(
            "  rtt {:3}ms: frame {:6.2}ms, dev {:5.2}ms, rollbacks {:4}, resim {:5}, converged {}",
            rtt.as_millis(),
            r.master_frame_time_ms(),
            r.worst_deviation_ms(),
            rolls,
            resim,
            r.converged
        );
    })
    .expect("rollback sweep failed");

    // Deterministic, so CI diffs it against results/e8_rollback_sweep_quick.txt:
    // `resim` pins what each repair replays.
    println!(
        "RTT(ms)  lockstep frame(ms)/dev(ms)  rollback frame(ms)/dev(ms)  rollbacks  resim  converged"
    );
    for (ls, rb) in lockstep.iter().zip(&rollback) {
        let rolls: u64 = rb.result.session_stats.iter().map(|s| s.rollbacks).sum();
        let resim: u64 = rb
            .result
            .session_stats
            .iter()
            .map(|s| s.resimulated_frames)
            .sum();
        println!(
            "{:7}  {:12.2} / {:6.2}      {:12.2} / {:6.2}      {:9}  {:5}  {:>9}",
            ls.rtt.as_millis(),
            ls.result.master_frame_time_ms(),
            ls.result.worst_deviation_ms(),
            rb.result.master_frame_time_ms(),
            rb.result.worst_deviation_ms(),
            rolls,
            resim,
            ls.result.converged && rb.result.converged,
        );
    }

    let json = rollback_json(&opts, &lockstep, &rollback);
    match write_results_json("BENCH_rollback.json", &json) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
}
