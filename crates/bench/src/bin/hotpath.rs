//! Microbenchmarks for the rollback hot loop.
//!
//! Rollback repair happens *inside* a 16.7 ms frame budget: checkpoint
//! capture, delta encoding, checkpoint restore, and resimulation all run on
//! the critical path, and the per-frame input send shares it. This binary
//! times each of those operations per bundled game (plus the wire codec)
//! and writes `results/BENCH_hotpath.json` with ns/op and bytes/op, the
//! pooled-buffer hit rate, and the delta-vs-full compression ratio.
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
//! The checked-in reference lives at `results/hotpath_baseline.json`.

// This harness times the hot loop from outside the determinism fence, so
// the wall-clock ban does not apply (see detlint policy for
// crates/bench/src/bin/).
#![allow(clippy::disallowed_methods)]

use std::time::{Duration, Instant};

use coplay_bench::{banner, write_results_json, Options};
use coplay_games::{catalog, rom_pong_console, rom_race_console};
use coplay_sync::{delta, SnapshotRing};
use coplay_sync::{InputMsg, Message};
use coplay_vm::{
    Console, Cpu, Devices, DirtyPages, InputWord, Instruction, InterpMode, Machine, Reg, Rom,
    StepMode, Syscall, DEFAULT_CYCLES_PER_FRAME,
};

/// Regression threshold: fail when an op is more than this many times
/// slower than the baseline.
const REGRESSION_FACTOR: u64 = 2;

/// Absolute slack added to every threshold so fast ops (a few ns) cannot
/// trip the guard on measurement noise alone.
const NOISE_FLOOR_NS: u64 = 200;

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
    /// Full-snapshot bytes vs delta bytes over consecutive frames, in
    /// thousandths (4000 = deltas are 4x smaller).
    delta_ratio_milli: u64,
    /// Snapshot-ring buffer-pool hit rate after warmup, in thousandths.
    pool_hit_rate_milli: u64,
    /// Interpreter decode-cache warm-dispatch rate in thousandths; 0 for
    /// native-Rust machines that have no interpreter.
    decode_hit_rate_milli: u64,
    /// Share of dispatched instructions retired through fused
    /// superinstruction pairs, in thousandths; 0 for native machines.
    fusion_rate_milli: u64,
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
        let base = m.save_state();
        m.step_frame(input_for(120));
        let next = m.save_state();
        let snapshot_bytes = next.len() as u64;

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

        let mut dbuf = Vec::new();
        let ns = bench_ns(budget, || {
            delta::encode_into(&base, &next, &mut dbuf);
            std::hint::black_box(dbuf.len());
        });
        let delta_bytes = dbuf.len() as u64;
        measurements.push(Measurement {
            key: format!("{name}/delta_encode"),
            ns_per_op: ns,
            bytes_per_op: delta_bytes,
        });

        // Average one-frame delta size over a window of consecutive
        // frames: this is the "delta checkpoints are Nx smaller" number.
        let mut full_total = 0u64;
        let mut delta_total = 0u64;
        let mut prev = m.save_state();
        let mut cur = Vec::new();
        for f in 121..153 {
            m.step_frame(input_for(f));
            m.save_state_into(&mut cur);
            delta::encode_into(&prev, &cur, &mut dbuf);
            full_total += cur.len() as u64;
            delta_total += dbuf.len() as u64;
            std::mem::swap(&mut prev, &mut cur);
        }
        let delta_ratio_milli = full_total.saturating_mul(1000) / delta_total.max(1);

        // Restore from the deepest point of a back-delta chain.
        let mut ring = SnapshotRing::new(8);
        for _ in 0..8 {
            let f = m.frame();
            m.step_frame(input_for(f));
            m.save_state_into(&mut cap);
            ring.push(m.frame(), &cap, m.state_hash());
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

        // Checkpoint restores diff the incoming image block-by-block and
        // invalidate only decode slots covering bytes that actually
        // changed — so across the thousands of repairs the two benches
        // above just ran, the cache must have stayed warm. A whole-table
        // flush on restore would show up here immediately.
        if let Some(stats) = m.interp_stats() {
            assert!(
                stats.hit_rate_milli() >= 990,
                "{name}: decode cache went cold across rollback restores \
                 ({} hits / {} misses)",
                stats.hits,
                stats.misses,
            );
        }

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

        // Steady-state pool behaviour: after the ring warms up, every
        // eviction recycles exactly one buffer, so misses stay bounded by
        // the warmup while hits grow with every push.
        let mut pool_ring = SnapshotRing::new(8);
        m.save_state_into(&mut cap);
        let hash = m.state_hash();
        let start = m.frame();
        for i in 1..=1000u64 {
            pool_ring.push(start + i, &cap, hash);
        }
        let pool_hit_rate_milli = pool_ring.pool_stats().hit_rate_milli();
        let decode_hit_rate_milli = m.interp_stats().map_or(0, |s| s.hit_rate_milli());
        let fusion_rate_milli = m.interp_stats().map_or(0, |s| s.fusion_rate_milli());

        summaries.push(GameSummary {
            name,
            snapshot_bytes,
            delta_ratio_milli,
            pool_hit_rate_milli,
            decode_hit_rate_milli,
            fusion_rate_milli,
        });
    }

    (measurements, summaries)
}

/// A self-modifying program: each frame stores the frame counter into the
/// immediate of a later `ldi`, forcing the decode cache to invalidate and
/// re-fill that slot every frame. Its `step_frame` cost is the
/// cache-invalidation metric — the worst case the cache can be driven to.
fn smc_rom() -> Rom {
    let program: Vec<u8> = [
        Instruction::In(Reg(4), 2),
        Instruction::Ldi(Reg(3), 0x12),
        Instruction::Stb(Reg(3), Reg(4), 0),
        Instruction::Nop,
        Instruction::Ldi(Reg(1), 0xAA00), // imm low byte at 0x12, patched above
        Instruction::Yield,
        Instruction::Jmp(0),
    ]
    .iter()
    .flat_map(|i| i.encode())
    .collect();
    Rom::builder("SMC Probe").image(program).build()
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

/// Interpreter fast-path metrics per ROM game: the reference-decoder
/// counterparts of `resim_frame` / `rollback_repair_8` (the on-vs-off
/// speedup the predecode cache buys), per-instruction dispatch cost, and
/// the self-modifying-code worst case in both modes.
type MakeConsole = fn() -> Console;

fn measure_interp(budget: Duration) -> Vec<Measurement> {
    let mut out = Vec::new();
    let roms: [(&str, MakeConsole); 2] = [
        ("ROM Pong", rom_pong_console as MakeConsole),
        ("Button Race", rom_race_console as MakeConsole),
    ];
    for (name, make) in roms {
        // Phase-lock with `measure_games`: replicate its exact stepping
        // schedule (120-frame warmup, the +1/+32 snapshot and delta-window
        // steps, 8 ring pushes) so the reference numbers pin the *same*
        // checkpoint frame as the cache-on ones — both interpreter loops
        // are state-identical, so any cost difference is pure mode.
        let mut slow = make().with_interp_mode(InterpMode::Reference);
        for f in 0..153 {
            slow.step_frame(input_for(f));
        }
        let mut ring = SnapshotRing::new(8);
        let mut cap = Vec::new();
        for _ in 0..8 {
            let f = slow.frame();
            slow.step_frame(input_for(f));
            slow.save_state_into(&mut cap);
            ring.push(slow.frame(), &cap, slow.state_hash());
        }
        let newest = ring.newest_frame().expect("ring was just filled");

        // Reference-mode resimulation: same loop shape as the cache-on
        // `resim_frame` measurement over in `measure_games`.
        let ns = bench_ns(budget, || {
            let f = slow.frame();
            slow.step_frame(input_for(f));
        });
        out.push(Measurement {
            key: format!("{name}/resim_frame_ref"),
            ns_per_op: ns,
            bytes_per_op: 0,
        });

        // Reference-mode full repair, same shape as the cache-on metric —
        // ring restore, state reload, 8 resimulated frames — so the on/off
        // ratio compares like with like.
        let mut rbuf = Vec::new();
        let ns = bench_ns(budget, || {
            ring.restore_into(newest, &mut rbuf)
                .expect("newest checkpoint restores");
            slow.load_state(&rbuf).expect("checkpoint bytes reload");
            for k in 1..=8 {
                slow.step_frame(input_for(newest + k));
            }
        });
        out.push(Measurement {
            key: format!("{name}/rollback_repair_8_ref"),
            ns_per_op: ns / 8,
            bytes_per_op: 0,
        });

        // Pure interpreter dispatch cost per instruction, isolated from the
        // mode-independent frame work (drawing, audio, bus glue) that
        // dilutes whole-frame ratios: a bare CPU running the same program
        // against a do-nothing device. bytes_per_op carries the
        // instructions retired per frame. `interp_step` pins fusion off so
        // the row keeps measuring what it always measured (plain predecoded
        // dispatch); `interp_step_fused` is the production configuration.
        for (mode, fusion, key) in [
            (InterpMode::Predecoded, false, "interp_step"),
            (InterpMode::Predecoded, true, "interp_step_fused"),
            (InterpMode::Reference, false, "interp_step_ref"),
        ] {
            let rom = make().rom().clone();
            let mut cpu = Cpu::new(rom.entry(), rom.seed());
            cpu.load_image(rom.image());
            cpu.set_interp_mode(mode);
            cpu.set_fusion_enabled(fusion);
            let mut dev = NullDev;
            for _ in 0..120 {
                cpu.run_frame(DEFAULT_CYCLES_PER_FRAME, &mut dev);
            }
            let (_, instr_per_frame) = cpu.run_frame(DEFAULT_CYCLES_PER_FRAME, &mut dev);
            let instr = u64::from(instr_per_frame).max(1);
            let ns_frame = bench_ns(budget, || {
                std::hint::black_box(cpu.run_frame(DEFAULT_CYCLES_PER_FRAME, &mut dev));
            });
            out.push(Measurement {
                key: format!("{name}/{key}"),
                ns_per_op: ns_frame / instr,
                bytes_per_op: instr,
            });
        }
    }

    // Cache-invalidation worst case: a program that patches its own code
    // every frame, cache on vs off.
    let mut fast = Console::new(smc_rom());
    let mut slow = Console::new(smc_rom()).with_interp_mode(InterpMode::Reference);
    for _ in 0..10 {
        fast.step_frame(InputWord::NONE);
        slow.step_frame(InputWord::NONE);
    }
    let ns = bench_ns(budget, || fast.step_frame(InputWord::NONE));
    out.push(Measurement {
        key: "smc/step_frame".to_string(),
        ns_per_op: ns,
        bytes_per_op: 0,
    });
    let ns = bench_ns(budget, || slow.step_frame(InputWord::NONE));
    out.push(Measurement {
        key: "smc/step_frame_ref".to_string(),
        ns_per_op: ns,
        bytes_per_op: 0,
    });
    out
}

/// The input codec both ways. The message carries random full-width
/// words, the codec's worst case (no runs, every byte present); decode
/// runs on every received datagram.
fn measure_wire(budget: Duration) -> Vec<Measurement> {
    let msg = Message::Input(InputMsg {
        from: 1,
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
            "    {{\"game\": \"{}\", \"snapshot_bytes\": {}, \"delta_ratio_milli\": {}, \
             \"pool_hit_rate_milli\": {}, \"decode_hit_rate_milli\": {}, \
             \"fusion_rate_milli\": {}}}{}\n",
            g.name,
            g.snapshot_bytes,
            g.delta_ratio_milli,
            g.pool_hit_rate_milli,
            g.decode_hit_rate_milli,
            g.fusion_rate_milli,
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

/// Extracts `key -> ns_per_op` pairs from a hotpath results document.
///
/// Hand-rolled like the writers in this crate: each measurement sits on
/// one line shaped `{"key": "...", "ns_per_op": N, ...}`.
fn parse_measurements(json: &str) -> Vec<(String, u64)> {
    let mut pairs = Vec::new();
    for line in json.lines() {
        let Some(key_at) = line.find("\"key\": \"") else {
            continue;
        };
        let rest = &line[key_at + 8..];
        let Some(key_end) = rest.find('"') else {
            continue;
        };
        let key = &rest[..key_end];
        let Some(ns_at) = line.find("\"ns_per_op\": ") else {
            continue;
        };
        let digits: String = line[ns_at + 13..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if let Ok(ns) = digits.parse() {
            pairs.push((key.to_string(), ns));
        }
    }
    pairs
}

/// Outcome of a baseline comparison. `regressions` fail the run;
/// `speedups` mean the baseline is stale — large improvements should be
/// repinned so the guard starts protecting them too.
#[derive(Default)]
struct CheckOutcome {
    regressions: usize,
    speedups: usize,
}

/// Compares fresh measurements against a baseline document, in both
/// directions: an op slower than `REGRESSION_FACTOR`x baseline (plus the
/// noise floor) is a regression; an op faster by the same margin is a
/// stale-baseline warning.
fn check_against(baseline_json: &str, measurements: &[Measurement]) -> CheckOutcome {
    let baseline = parse_measurements(baseline_json);
    let mut outcome = CheckOutcome::default();
    if baseline.is_empty() {
        eprintln!("baseline contains no measurements; nothing to check");
        return outcome;
    }
    println!(
        "{:<28} {:>12} {:>12}  verdict",
        "op", "baseline ns", "current ns"
    );
    for (key, base_ns) in &baseline {
        let Some(cur) = measurements.iter().find(|m| &m.key == key) else {
            println!("{key:<28} {base_ns:>12} {:>12}  missing from this run", "-");
            continue;
        };
        let slow_limit = base_ns.saturating_mul(REGRESSION_FACTOR) + NOISE_FLOOR_NS;
        let verdict = if cur.ns_per_op > slow_limit {
            outcome.regressions += 1;
            "REGRESSION"
        } else if cur.ns_per_op.saturating_mul(REGRESSION_FACTOR) + NOISE_FLOOR_NS < *base_ns {
            outcome.speedups += 1;
            "FASTER (repin baseline)"
        } else {
            "ok"
        };
        println!(
            "{:<28} {:>12} {:>12}  {}",
            key, base_ns, cur.ns_per_op, verdict
        );
    }
    outcome
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
    println!(
        "{:<12} {:>14} {:>16} {:>15} {:>15} {:>12}",
        "game", "snapshot B", "delta ratio", "pool hits", "decode hits", "fused"
    );
    for g in &games {
        println!(
            "{:<12} {:>14} {:>13}.{:01}x {:>13}.{:01}% {:>13}.{:01}% {:>10}.{:01}%",
            g.name,
            g.snapshot_bytes,
            g.delta_ratio_milli / 1000,
            (g.delta_ratio_milli % 1000) / 100,
            g.pool_hit_rate_milli / 10,
            g.pool_hit_rate_milli % 10,
            g.decode_hit_rate_milli / 10,
            g.decode_hit_rate_milli % 10,
            g.fusion_rate_milli / 10,
            g.fusion_rate_milli % 10,
        );
    }
    println!();

    // The headline the predecode cache exists for: cache-on vs reference
    // interpreter on the resimulation/repair path.
    let ns_of = |key: &str| {
        measurements
            .iter()
            .find(|m| m.key == key)
            .map(|m| m.ns_per_op)
    };
    for name in ["ROM Pong", "Button Race"] {
        for (op, op_ref) in [
            ("interp_step", "interp_step_ref"),
            ("interp_step_fused", "interp_step_ref"),
            ("resim_frame", "resim_frame_ref"),
            ("rollback_repair_8", "rollback_repair_8_ref"),
        ] {
            if let (Some(on), Some(off)) = (
                ns_of(&format!("{name}/{op}")),
                ns_of(&format!("{name}/{op_ref}")),
            ) {
                println!(
                    "{name}/{op}: {off} -> {on} ns/op ({}.{:01}x with decode cache)",
                    off / on.max(1),
                    (off * 10 / on.max(1)) % 10,
                );
            }
        }
        // The repair budget this whole PR chases: headless resimulation of
        // the 8-frame repair window at under a microsecond per frame.
        if let Some(ns) = ns_of(&format!("{name}/repair_headless")) {
            let verdict = if ns < 1000 { "within" } else { "OVER" };
            println!("{name}/repair_headless: {ns} ns/frame ({verdict} the 1 us/frame budget)");
        }
        // Dirty-page checkpointing budgets: a delta checkpoint save in
        // 300 ns and a same-session bitmap-guided restore in 1 us.
        if let Some(ns) = ns_of(&format!("{name}/checkpoint_dirty")) {
            let verdict = if ns <= 300 { "within" } else { "OVER" };
            println!("{name}/checkpoint_dirty: {ns} ns/op ({verdict} the 0.3 us capture budget)");
        }
        if let Some(ns) = ns_of(&format!("{name}/restore_dirty")) {
            let verdict = if ns <= 1000 { "within" } else { "OVER" };
            println!("{name}/restore_dirty: {ns} ns/op ({verdict} the 1 us restore budget)");
        }
    }
    if let (Some(on), Some(off)) = (ns_of("smc/step_frame"), ns_of("smc/step_frame_ref")) {
        println!(
            "smc/step_frame: {off} -> {on} ns/op ({}.{:01}x with decode cache under self-modification)",
            off / on.max(1),
            (off * 10 / on.max(1)) % 10,
        );
    }
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
        let outcome = check_against(&baseline, &measurements);
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
        let parsed = parse_measurements(&json);
        assert_eq!(
            parsed,
            vec![
                ("pong/save_state".to_string(), 123),
                ("wire/encode_into".to_string(), 45),
            ]
        );
    }

    #[test]
    fn check_flags_only_real_regressions() {
        let opts = Options::default();
        let baseline = render_json(
            &opts,
            &[],
            &[
                Measurement {
                    key: "a".into(),
                    ns_per_op: 1000,
                    bytes_per_op: 0,
                },
                Measurement {
                    key: "b".into(),
                    ns_per_op: 10,
                    bytes_per_op: 0,
                },
            ],
        );
        // 2x + noise floor: 1000 -> limit 2200; 10 -> limit 220.
        let fine = [
            Measurement {
                key: "a".into(),
                ns_per_op: 2200,
                bytes_per_op: 0,
            },
            Measurement {
                key: "b".into(),
                ns_per_op: 200,
                bytes_per_op: 0,
            },
        ];
        let outcome = check_against(&baseline, &fine);
        assert_eq!(outcome.regressions, 0);
        assert_eq!(outcome.speedups, 0);
        let slow = [
            Measurement {
                key: "a".into(),
                ns_per_op: 2201,
                bytes_per_op: 0,
            },
            Measurement {
                key: "b".into(),
                ns_per_op: 200,
                bytes_per_op: 0,
            },
        ];
        let outcome = check_against(&baseline, &slow);
        assert_eq!(outcome.regressions, 1);
        assert_eq!(outcome.speedups, 0);
    }

    #[test]
    fn check_warns_on_large_speedups_without_failing() {
        let opts = Options::default();
        let baseline = render_json(
            &opts,
            &[],
            &[
                Measurement {
                    key: "a".into(),
                    ns_per_op: 10_000,
                    bytes_per_op: 0,
                },
                Measurement {
                    key: "b".into(),
                    ns_per_op: 10,
                    bytes_per_op: 0,
                },
            ],
        );
        // `a` at 2x-minus-noise-floor is a speedup (4900*2 + 200 < 10000);
        // `b` is tiny, so the noise floor keeps even a 10 -> 1 drop quiet.
        let fast = [
            Measurement {
                key: "a".into(),
                ns_per_op: 4899,
                bytes_per_op: 0,
            },
            Measurement {
                key: "b".into(),
                ns_per_op: 1,
                bytes_per_op: 0,
            },
        ];
        let outcome = check_against(&baseline, &fast);
        assert_eq!(outcome.regressions, 0);
        assert_eq!(outcome.speedups, 1);
    }

    #[test]
    fn inputs_vary_by_frame() {
        assert_ne!(input_for(1), input_for(2));
    }
}
