//! A miniature Figure-1/Figure-2 sweep from the public API: how does the
//! shared game behave as the network gets worse?
//!
//! Runs the emulated-console ROM Pong (the full CPU-emulation path, like
//! the paper's MAME) across a handful of RTTs and prints both of the
//! paper's metrics per point. The full 25-point, 3600-frame sweeps live in
//! `coplay-bench` (`cargo run -p coplay-bench --bin fig1`).
//!
//! ```text
//! cargo run --release --example netem_sweep
//! ```

use coplay::clock::SimDuration;
use coplay::games::GameId;
use coplay::sim::{run_sweep, ExperimentConfig};

fn main() {
    let base = ExperimentConfig {
        game: GameId::RomPong, // exercise the emulated CPU end-to-end
        frames: 900,
        ..ExperimentConfig::default()
    };

    let points: Vec<SimDuration> = [0u64, 40, 80, 120, 160, 200, 280, 400]
        .into_iter()
        .map(SimDuration::from_millis)
        .collect();

    println!(
        "ROM Pong on the emulated console, {} frames per point\n",
        base.frames
    );
    println!("RTT(ms)  frame(ms)    FPS  smoothness(ms)  synchrony(ms)  converged");
    let rows = run_sweep(&base, &points, 1, |_, _| {}).expect("sweep failed");
    for row in &rows {
        let s = &row.result.sites[0];
        println!(
            "{:7}  {:9.2}  {:5.1}  {:14.2}  {:13.2}  {}",
            row.rtt.as_millis(),
            s.mean_frame_time_ms,
            s.fps(),
            row.result.worst_deviation_ms(),
            row.result.synchrony_ms,
            row.result.converged,
        );
    }
    println!(
        "\nThe paper's shape: full 60 FPS with near-zero deviation up to a\n\
         threshold RTT, then an unstable inflection, then a slower but still\n\
         perfectly consistent game. Logical consistency (converged) never\n\
         breaks — only real-time quality degrades."
    );
}
