//! Flight-recorder tour: run a deliberately bad network (200 ms RTT, 5%
//! loss — past the paper's full-speed threshold) with frame-lifecycle
//! tracing on, and read the telemetry a netplay operator would: the
//! session counters, a cross-site span timeline for one frame, the JSONL
//! event trail, and the Prometheus exposition of the master's registry.
//!
//! ```text
//! cargo run --release --example telemetry_dump
//! ```

use coplay::clock::SimDuration;
use coplay::games::GameId;
use coplay::sim::{run_experiment, ExperimentConfig};
use coplay::telemetry::EventKind;

fn main() {
    let mut cfg = ExperimentConfig::with_rtt(SimDuration::from_millis(200));
    cfg.game = GameId::Pong;
    cfg.frames = 360;
    cfg.loss = 0.05;
    cfg.telemetry = true;
    cfg.trace = true;

    println!(
        "two-site Pong, 200 ms RTT, 5% loss, {} frames, tracing on\n",
        cfg.frames
    );
    let r = run_experiment(cfg).expect("experiment");
    println!(
        "converged: {}   stalls at master: {}   packets dropped: {}\n",
        r.converged,
        r.session_stats[0].stalled_frames,
        r.net_telemetry.counter("packets_dropped_total"),
    );

    // --- Span timeline: one input frame's life across both sites -------
    // Pick a frame late enough that the pipeline is warm, then collect
    // every span record either site stamped for it and print them in time
    // order. This is the raw material `tracescope` merges at scale.
    let frame = 120u64;
    let mut timeline = Vec::new();
    for (site, tel) in r.telemetry.iter().enumerate() {
        for ev in tel.events() {
            if let EventKind::Span {
                stage,
                frame: f,
                peer,
            } = ev.kind
            {
                if f == frame {
                    timeline.push((ev.at, site, stage, peer));
                }
            }
        }
    }
    timeline.sort();
    println!("--- frame {frame}: cross-site span timeline ---");
    println!("{:>12}  {:<6} {:<20} peer", "t (us)", "site", "stage");
    for (at, site, stage, peer) in &timeline {
        println!(
            "{:>12}  site{:<2} {:<20} {}",
            at.as_micros(),
            site,
            stage.name(),
            peer
        );
    }
    assert!(!timeline.is_empty(), "tracing was on; spans must exist");

    let master = &r.telemetry[0];
    println!(
        "\n--- master flight recorder: {} events ({} dropped, {} of them spans); first stall ---",
        master.event_count(),
        master.dropped_events(),
        master.dropped_spans()
    );
    let dump = master.dump_jsonl();
    let mut shown = 0;
    for line in dump.lines() {
        if shown > 0 || line.contains("\"stall_begin\"") {
            println!("{line}");
            shown += 1;
            if shown == 8 {
                break;
            }
        }
    }

    println!("\n--- Prometheus exposition of the master's telemetry registry ---");
    for line in master.prometheus().lines() {
        if line.contains("frame_time_us")
            || line.contains("stall_us")
            || line.contains("spans_recorded")
        {
            println!("{line}");
        }
    }
}
