//! Microbenchmarks for the rollback hot loop.
//!
//! Rollback repair happens *inside* a 16.7 ms frame budget: checkpoint
//! capture, checkpoint restore, and resimulation all run on the critical
//! path, and the per-frame input send shares it. This binary times each of
//! those operations per bundled game (plus the wire codec) and writes
//! `results/BENCH_hotpath.json` with ns/op and bytes/op.
//!
//! Run: `cargo run --release -p coplay-bench --bin hotpath [--quick]`
//!
//! Perf-regression guard: `--check <baseline.json>` compares the fresh
//! numbers against a previously written run and exits non-zero when any
//! operation got more than 2x slower (with a small absolute noise floor so
//! single-digit-nanosecond ops cannot trip the guard on scheduler jitter).
//! The guard is direction-aware: an op that got more than 2x *faster* is
//! reported as a stale-baseline warning — repin the baseline so the guard
//! keeps protecting the improvement — but does not fail the run.
//! The checked-in reference lives at `results/hotpath_baseline.json`; the
//! guard itself is [`coplay_bench::Guard`], shared with `fleet`.

#![expect(
    clippy::disallowed_methods,
    reason = "the harness times the hot loop from outside the determinism fence"
)]

use std::time::{Duration, Instant};

use coplay_bench::{banner, write_results_json, Better, Guard, Options};
use coplay_games::{catalog, rom_pong_console, rom_race_console};
use coplay_sync::{InputMsg, Message, SnapshotRing};
use coplay_vm::{
    Cpu, Devices, DirtyPages, InputWord, Machine, StepMode, Syscall, DEFAULT_CYCLES_PER_FRAME,
};

/// Regression threshold: fail when an op is more than this many times
/// slower than the baseline.
const REGRESSION_FACTOR: u64 = 2;

/// Absolute slack added to every threshold so fast ops (a few ns) cannot
/// trip the guard on measurement noise alone.
const NOISE_FLOOR_NS: u64 = 200;

/// Every hot-path op is a cost: lower ns/op is better.
const GUARD: Guard = Guard {
    field: "ns_per_op",
    factor: REGRESSION_FACTOR,
    noise_floor: NOISE_FLOOR_NS,
};

/// One timed operation.
struct Measurement {
    key: String,
    ns_per_op: u64,
    bytes_per_op: u64,
}

/// Per-game summary stats (not timings).
struct GameSummary {
    name: &'static str,
    snapshot_bytes: u64,
}

/// Times `f` repeatedly, doubling the iteration count until one batch
/// fills `budget`, then takes the *minimum* mean over three batches at
/// that count — a scheduler preemption landing inside one batch inflates
/// that batch only, and the minimum discards it.
fn bench_ns(budget: Duration, mut f: impl FnMut()) -> u64 {
    min_mean_ns(budget, |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        (elapsed, elapsed)
    })
}

/// [`bench_ns`] for an op that needs per-iteration setup: each call of
/// `f` does its setup, times just the op with a scoped [`Instant`], and
/// returns that time. The op is timed directly rather than derived by
/// subtracting the setup's own benchmark, so noise in two separate
/// measurements cannot masquerade as a regression.
fn bench_scoped_ns(budget: Duration, mut f: impl FnMut() -> Duration) -> u64 {
    min_mean_ns(budget, |iters| {
        let start = Instant::now();
        let timed: Duration = (0..iters).map(|_| f()).sum();
        (start.elapsed(), timed)
    })
}

/// The batching behind [`bench_ns`] and [`bench_scoped_ns`]: `batch(n)`
/// runs the op `n` times and returns the batch's wall time (which sizes
/// the batches to `budget`) and the time charged to the op.
fn min_mean_ns(budget: Duration, mut batch: impl FnMut(u64) -> (Duration, Duration)) -> u64 {
    batch(1); // warmup: touch caches, fault in pages
    let mut iters: u64 = 4;
    loop {
        let (elapsed, timed) = batch(iters);
        if elapsed >= budget {
            let best = timed.min(batch(iters).1).min(batch(iters).1);
            return (best.as_nanos() / u128::from(iters)) as u64;
        }
        iters = iters.saturating_mul(2);
    }
}

/// Deterministic pseudo-input for a frame (splitmix-style mix).
fn input_for(frame: u64) -> InputWord {
    let mut x = frame.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0C05_01A1;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 31;
    InputWord((x & 0xFFFF_FFFF) as u32)
}

fn measure_games(budget: Duration) -> (Vec<Measurement>, Vec<GameSummary>) {
    let mut measurements = Vec::new();
    let mut summaries = Vec::new();

    for game in catalog() {
        let name = game.name();
        let mut m = game.create();
        // Warm the machine into a representative mid-game state.
        for f in 0..120 {
            m.step_frame(input_for(f));
        }
        m.step_frame(input_for(120));
        let snapshot_bytes = m.save_state().len() as u64;

        let ns = bench_ns(budget, || {
            std::hint::black_box(m.save_state().len());
        });
        measurements.push(Measurement {
            key: format!("{name}/save_state"),
            ns_per_op: ns,
            bytes_per_op: snapshot_bytes,
        });

        let mut cap = Vec::new();
        let ns = bench_ns(budget, || {
            m.save_state_into(&mut cap);
            std::hint::black_box(cap.len());
        });
        measurements.push(Measurement {
            key: format!("{name}/save_state_into"),
            ns_per_op: ns,
            bytes_per_op: snapshot_bytes,
        });

        // Step to frame 153, the checkpoint frame the pinned rows measure.
        for f in 121..153 {
            m.step_frame(input_for(f));
        }

        // Restore the newest of 8 checkpoints: a copy of the ring's tail.
        let mut ring = SnapshotRing::new(8);
        for _ in 0..8 {
            let f = m.frame();
            m.step_frame(input_for(f));
            let hash = m.state_hash();
            ring.checkpoint_from(m.frame(), hash, &mut m);
        }
        let newest = ring.newest_frame().expect("ring was just filled");
        let mut rbuf = Vec::new();
        let ns = bench_ns(budget, || {
            ring.restore_into(newest, &mut rbuf)
                .expect("newest checkpoint restores");
            std::hint::black_box(rbuf.len());
        });
        measurements.push(Measurement {
            key: format!("{name}/ring_restore"),
            ns_per_op: ns,
            bytes_per_op: rbuf.len() as u64,
        });

        let ns = bench_ns(budget, || {
            let f = m.frame();
            m.step_frame(input_for(f));
        });
        measurements.push(Measurement {
            key: format!("{name}/resim_frame"),
            ns_per_op: ns,
            bytes_per_op: 0,
        });

        // A full rollback repair: restore the checkpoint, reload the
        // machine, resimulate 8 frames.
        let ns = bench_ns(budget, || {
            ring.restore_into(newest, &mut rbuf)
                .expect("newest checkpoint restores");
            m.load_state(&rbuf).expect("checkpoint bytes reload");
            for k in 1..=8 {
                m.step_frame(input_for(newest + k));
            }
        });
        measurements.push(Measurement {
            key: format!("{name}/rollback_repair_8"),
            ns_per_op: ns / 8,
            bytes_per_op: 0,
        });

        // The production repair shape since headless stepping landed:
        // every repair frame but the last skips presentation side effects
        // (framebuffer draws, audio sample rendering), and the final frame
        // presents so the display catches up. Same restore + reload + 8
        // frames as `rollback_repair_8`, so the delta is pure rendering.
        let ns = bench_ns(budget, || {
            ring.restore_into(newest, &mut rbuf)
                .expect("newest checkpoint restores");
            m.load_state(&rbuf).expect("checkpoint bytes reload");
            for k in 1..=8 {
                let mode = if k == 8 {
                    StepMode::Present
                } else {
                    StepMode::Headless
                };
                m.step_frame_mode(input_for(newest + k), mode);
            }
        });
        measurements.push(Measurement {
            key: format!("{name}/repair_headless"),
            ns_per_op: ns / 8,
            bytes_per_op: 0,
        });

        // O(dirty) checkpoint capture: step a frame, then capture straight
        // into the ring — the machine's dirty accumulators pick the byte
        // ranges, the old tail bytes become a raw back-patch, and the
        // machine rewrites only those ranges in the tail. Only the capture
        // is timed — the number the dirty tracking exists to shrink.
        // Hashes are dummies: the ring stores them opaquely and per-frame
        // hashing is costed elsewhere.
        let mut dirty_ring = SnapshotRing::new(8);
        // Ring frames use their own counter: native games reset their
        // frame counter when a match ends, and the loop below runs long
        // enough to cross several match boundaries.
        let mut ck = 0u64;
        let mut last = dirty_ring.checkpoint_from(ck, 0, &mut m);
        let ns = bench_scoped_ns(budget, || {
            let f = m.frame();
            m.step_frame(input_for(f));
            ck += 1;
            let start = Instant::now();
            last = dirty_ring.checkpoint_from(ck, 0, &mut m);
            start.elapsed()
        });
        measurements.push(Measurement {
            key: format!("{name}/checkpoint_dirty"),
            ns_per_op: ns,
            bytes_per_op: last.dirty_bytes as u64,
        });

        // Bitmap-guided rollback restore, production shape: the machine
        // drifts one frame off the anchor checkpoint, saves the due
        // checkpoint, then a misprediction rewinds the ring to the anchor
        // and patches only the divergent pages back into the machine.
        // Only the repair (drain, rewind, reload) is timed.
        let mut rring = SnapshotRing::new(8);
        let mut kr = 0u64;
        rring.checkpoint_from(kr, 0, &mut m);
        let mut rout = Vec::new();
        rring
            .restore_into(kr, &mut rout)
            .expect("anchor checkpoint restores");
        let mut rdirty = DirtyPages::default();
        let ns = bench_scoped_ns(budget, || {
            let f = m.frame();
            m.step_frame(input_for(f));
            kr += 1;
            rring.checkpoint_from(kr, 0, &mut m);
            let start = Instant::now();
            m.collect_dirty_into(&mut rdirty);
            rring
                .rewind_into(0, &mut rout, &mut rdirty)
                .expect("anchor checkpoint rewinds");
            m.load_state_dirty(&rout, &rdirty)
                .expect("checkpoint bytes reload");
            start.elapsed()
        });
        let restored_bytes: usize = rdirty.byte_ranges().map(|(s, e)| e - s).sum();
        measurements.push(Measurement {
            key: format!("{name}/restore_dirty"),
            ns_per_op: ns,
            bytes_per_op: restored_bytes as u64,
        });

        summaries.push(GameSummary {
            name,
            snapshot_bytes,
        });
    }

    (measurements, summaries)
}

/// A do-nothing device bus: isolates raw interpreter dispatch cost from
/// framebuffer/audio work when timing `interp_step`.
struct NullDev;

impl Devices for NullDev {
    fn input_port(&mut self, _port: u8) -> u16 {
        0
    }
    fn syscall(&mut self, _call: Syscall, _regs: &[u16; 16]) {}
}

/// Pure interpreter dispatch cost per instruction for each ROM game,
/// isolated from the frame work (drawing, audio, bus glue) that dilutes
/// whole-frame timings: a bare CPU running the game's program against a
/// do-nothing device. bytes_per_op carries the instructions retired per
/// frame.
fn measure_interp(budget: Duration) -> Vec<Measurement> {
    [
        ("ROM Pong", rom_pong_console()),
        ("Button Race", rom_race_console()),
    ]
    .into_iter()
    .map(|(name, console)| {
        let rom = console.rom();
        let mut cpu = Cpu::new(rom.entry(), rom.seed());
        cpu.load_image(rom.image());
        let mut dev = NullDev;
        for _ in 0..120 {
            cpu.run_frame(DEFAULT_CYCLES_PER_FRAME, &mut dev);
        }
        let (_, instr_per_frame) = cpu.run_frame(DEFAULT_CYCLES_PER_FRAME, &mut dev);
        let instr = u64::from(instr_per_frame).max(1);
        let ns_frame = bench_ns(budget, || {
            std::hint::black_box(cpu.run_frame(DEFAULT_CYCLES_PER_FRAME, &mut dev));
        });
        Measurement {
            key: format!("{name}/interp_step"),
            ns_per_op: ns_frame / instr,
            bytes_per_op: instr,
        }
    })
    .collect()
}

/// The input codec both ways. The message carries random full-width
/// words, the codec's worst case (no runs, every byte present); decode
/// runs on every received datagram.
fn measure_wire(budget: Duration) -> Vec<Measurement> {
    let msg = Message::Input(InputMsg {
        ack: 41,
        first: 42,
        inputs: (0..8).map(input_for).collect(),
    });
    let encoded = msg.encode();
    let bytes = encoded.len() as u64;
    let mut out = Vec::new();

    let ns_alloc = bench_ns(budget, || {
        std::hint::black_box(msg.encode().len());
    });
    let ns_reuse = bench_ns(budget, || {
        msg.encode_into(&mut out);
        std::hint::black_box(out.len());
    });
    let ns_decode = bench_ns(budget, || {
        std::hint::black_box(Message::decode(std::hint::black_box(&encoded)).is_ok());
    });
    vec![
        Measurement {
            key: "wire/encode".to_string(),
            ns_per_op: ns_alloc,
            bytes_per_op: bytes,
        },
        Measurement {
            key: "wire/encode_into".to_string(),
            ns_per_op: ns_reuse,
            bytes_per_op: bytes,
        },
        Measurement {
            key: "wire/decode".to_string(),
            ns_per_op: ns_decode,
            bytes_per_op: bytes,
        },
    ]
}

/// Frame-lifecycle tracing cost on the hot path: `Telemetry::span` with a
/// disabled handle (the production default), with a recording handle whose
/// tracing flag is off (telemetry without spans), and with tracing on (the
/// full record path into the flight-recorder ring). The first two must be
/// branch-cheap — every frame of every session pays them — and the guard
/// keeps them honest.
fn measure_telemetry(budget: Duration) -> Vec<Measurement> {
    use coplay_clock::SimTime;
    use coplay_telemetry::{SpanStage, Telemetry};
    let at = SimTime::from_micros(42);
    let mut out = Vec::new();
    let mut frame = 0u64;
    for (key, tel) in [
        ("telemetry/span_disabled", Telemetry::disabled()),
        ("telemetry/span_tracing_off", Telemetry::recording()),
        ("telemetry/span_tracing_on", Telemetry::tracing(1, 0)),
    ] {
        let ns = bench_ns(budget, || {
            frame += 1;
            tel.span(
                std::hint::black_box(at),
                SpanStage::Sampled,
                std::hint::black_box(frame),
                1,
            );
        });
        out.push(Measurement {
            key: key.to_string(),
            ns_per_op: ns,
            bytes_per_op: 0,
        });
    }
    out
}

fn render_json(opts: &Options, games: &[GameSummary], measurements: &[Measurement]) -> String {
    let mut out = String::from("{\n  \"figure\": \"hotpath\",\n");
    out.push_str(&format!("  \"seed\": {},\n  \"games\": [\n", opts.seed));
    for (i, g) in games.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"game\": \"{}\", \"snapshot_bytes\": {}}}{}\n",
            g.name,
            g.snapshot_bytes,
            if i + 1 < games.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"measurements\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"key\": \"{}\", \"ns_per_op\": {}, \"bytes_per_op\": {}}}{}\n",
            m.key,
            m.ns_per_op,
            m.bytes_per_op,
            if i + 1 < measurements.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let opts = Options::from_env();
    banner(
        "Hot-path microbenchmarks — rollback repair + wire codec",
        &opts,
    );

    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let budget = if quick {
        Duration::from_millis(2)
    } else {
        Duration::from_millis(10)
    };

    let (mut measurements, games) = measure_games(budget);
    measurements.extend(measure_interp(budget));
    measurements.extend(measure_wire(budget));
    measurements.extend(measure_telemetry(budget));

    println!("{:<28} {:>10} {:>10}", "op", "ns/op", "bytes/op");
    for m in &measurements {
        println!("{:<28} {:>10} {:>10}", m.key, m.ns_per_op, m.bytes_per_op);
    }
    println!();
    println!("{:<12} {:>14}", "game", "snapshot B");
    for g in &games {
        println!("{:<12} {:>14}", g.name, g.snapshot_bytes);
    }
    println!();

    let ns_of = |key: &str| {
        measurements
            .iter()
            .find(|m| m.key == key)
            .map(|m| m.ns_per_op)
    };
    if let (Some(off), Some(on)) = (
        ns_of("telemetry/span_tracing_off"),
        ns_of("telemetry/span_tracing_on"),
    ) {
        println!(
            "telemetry/span: {off} ns/op tracing-off vs {on} ns/op tracing-on \
             (off must stay branch-cheap; the guard enforces it)"
        );
    }
    println!();

    let json = render_json(&opts, &games, &measurements);
    match write_results_json("BENCH_hotpath.json", &json) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }

    if let Some(path) = check_path {
        let baseline = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        let outcome = GUARD.check(&baseline, ns_of, |_| Some(Better::Lower));
        if outcome.speedups > 0 {
            eprintln!(
                "{} op(s) ran >{REGRESSION_FACTOR}x faster than {path}; the baseline is \
                 stale — rerun without --quick and copy results/BENCH_hotpath.json over it \
                 so the guard protects the improvement",
                outcome.speedups
            );
        }
        if outcome.regressions > 0 {
            eprintln!("{} hot-path regression(s) vs {path}", outcome.regressions);
            std::process::exit(1);
        }
        eprintln!("no hot-path regressions vs {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_render() {
        let opts = Options::default();
        let ms = vec![
            Measurement {
                key: "pong/save_state".into(),
                ns_per_op: 123,
                bytes_per_op: 2048,
            },
            Measurement {
                key: "wire/encode_into".into(),
                ns_per_op: 45,
                bytes_per_op: 64,
            },
        ];
        let json = render_json(&opts, &[], &ms);
        let parsed = coplay_bench::parse_entries(&json, GUARD.field);
        assert_eq!(
            parsed,
            vec![
                ("pong/save_state".to_string(), 123),
                ("wire/encode_into".to_string(), 45),
            ]
        );
    }

    #[test]
    fn inputs_vary_by_frame() {
        assert_ne!(input_for(1), input_for(2));
    }
}
