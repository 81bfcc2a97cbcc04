//! Differential golden-hash tests for the predecoded-dispatch interpreter.
//!
//! The fast path is only allowed to exist because it is byte-for-byte
//! equivalent to the reference fetch–decode–execute loop. These tests pin
//! that equivalence where it matters: every bundled ROM game, frame by
//! frame, including through a forced rollback/resimulate, plus a
//! self-modifying program that would expose any stale decode-cache slot.

use coplay_games::{rom_pong_console, rom_race_console};
use coplay_vm::{
    Console, InputWord, Instruction, InterpMode, Machine, Reg, Rom, StepMode,
    DEFAULT_CYCLES_PER_FRAME,
};

const FRAMES: u64 = 120;

type MakeConsole = fn() -> Console;

/// Deterministic per-frame input pattern exercising several buttons.
fn input_for(frame: u64) -> InputWord {
    let mut z = frame.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 29;
    InputWord((z as u32) & 0x0F0F)
}

fn pairs() -> Vec<(&'static str, Console, Console)> {
    vec![
        (
            "ROM Pong",
            rom_pong_console(),
            rom_pong_console().with_interp_mode(InterpMode::Reference),
        ),
        (
            "Button Race",
            rom_race_console(),
            rom_race_console().with_interp_mode(InterpMode::Reference),
        ),
    ]
}

#[test]
fn every_rom_game_hashes_identically_with_cache_on_and_off() {
    for (name, mut fast, mut slow) in pairs() {
        assert_eq!(fast.interp_mode(), InterpMode::Predecoded);
        assert_eq!(slow.interp_mode(), InterpMode::Reference);
        for frame in 0..FRAMES {
            let input = input_for(frame);
            fast.step_frame(input);
            slow.step_frame(input);
            assert_eq!(
                fast.state_hash(),
                slow.state_hash(),
                "{name}: state diverged at frame {frame}"
            );
        }
        let stats = fast.interp_stats().expect("console reports stats");
        assert!(
            stats.hits > stats.misses,
            "{name}: a real game must run mostly warm (hits {} misses {})",
            stats.hits,
            stats.misses
        );
    }
}

#[test]
fn rollback_resimulation_hashes_identically_with_cache_on_and_off() {
    for (name, mut fast, mut slow) in pairs() {
        // Run to a checkpoint, snapshot both replicas.
        for frame in 0..40 {
            let input = input_for(frame);
            fast.step_frame(input);
            slow.step_frame(input);
        }
        let snap_fast = fast.save_state();
        let snap_slow = slow.save_state();
        assert_eq!(snap_fast, snap_slow, "{name}: snapshots must be identical");

        // Speculate ahead on one input stream (the misprediction branch)...
        for frame in 40..60 {
            let input = input_for(frame * 7 + 1);
            fast.step_frame(input);
            slow.step_frame(input);
        }

        // ...then roll both back and resimulate with the corrected inputs,
        // exactly what a speculative Session's repair does.
        fast.load_state(&snap_fast).unwrap();
        slow.load_state(&snap_slow).unwrap();
        assert_eq!(
            fast.state_hash(),
            slow.state_hash(),
            "{name}: hashes diverged right after restore"
        );
        for frame in 40..80 {
            let input = input_for(frame);
            fast.step_frame(input);
            slow.step_frame(input);
            assert_eq!(
                fast.state_hash(),
                slow.state_hash(),
                "{name}: resimulation diverged at frame {frame}"
            );
        }

        let stats = fast.interp_stats().expect("console reports stats");
        assert!(
            stats.flushes >= 1,
            "{name}: the image load must flush (saw {})",
            stats.flushes
        );
        assert!(
            stats.invalidations > 0,
            "{name}: the restore must invalidate slots covering changed memory"
        );
    }
}

/// The full interpreter × stepping matrix. Every combination of
/// {Predecoded, Reference} × {Present, Headless} must hold the same
/// core state hash on every frame — including through a forced
/// rollback/restore — because headless stepping only skips *rendering*
/// side effects, never architectural ones.
#[test]
fn interp_and_step_mode_matrix_stays_hash_identical_through_rollback() {
    let builds: [(&str, MakeConsole); 2] = [
        ("ROM Pong", rom_pong_console as MakeConsole),
        ("Button Race", rom_race_console as MakeConsole),
    ];
    for (name, build) in builds {
        // Index 0 is the oracle: reference interpreter, presented frames.
        let mut lanes: Vec<(String, Console, StepMode)> = vec![
            (
                format!("{name}/Reference/Present"),
                build().with_interp_mode(InterpMode::Reference),
                StepMode::Present,
            ),
            (
                format!("{name}/Reference/Headless"),
                build().with_interp_mode(InterpMode::Reference),
                StepMode::Headless,
            ),
            (
                format!("{name}/Predecoded/Present"),
                build(),
                StepMode::Present,
            ),
            (
                format!("{name}/Predecoded/Headless"),
                build(),
                StepMode::Headless,
            ),
        ];

        let check = |lanes: &[(String, Console, StepMode)], frame: u64| {
            let oracle = lanes[0].1.state_hash();
            for (label, console, _) in &lanes[1..] {
                assert_eq!(
                    console.state_hash(),
                    oracle,
                    "{label}: diverged from the oracle at frame {frame}"
                );
            }
        };

        for frame in 0..60 {
            let input = input_for(frame);
            for (_, console, mode) in lanes.iter_mut() {
                console.step_frame_mode(input, *mode);
            }
            check(&lanes, frame);
        }

        // Forced rollback: snapshot, speculate on wrong inputs, restore,
        // resimulate corrected — exactly what a repair pass does, with the
        // repair frames themselves stepped in each lane's own mode.
        let snaps: Vec<Vec<u8>> = lanes.iter().map(|(_, c, _)| c.save_state()).collect();
        for frame in 60..75 {
            let input = input_for(frame * 13 + 5);
            for (_, console, mode) in lanes.iter_mut() {
                console.step_frame_mode(input, *mode);
            }
        }
        for ((label, console, _), snap) in lanes.iter_mut().zip(&snaps) {
            console
                .load_state(snap)
                .unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
        }
        check(&lanes, 60);
        for frame in 60..90 {
            let input = input_for(frame);
            for (_, console, mode) in lanes.iter_mut() {
                console.step_frame_mode(input, *mode);
            }
            check(&lanes, frame);
        }
    }
}

/// Headless repair must be invisible once a frame is presented: running
/// N-1 frames headless plus one presented frame leaves pixels, rendered
/// audio, and state byte-identical to an all-present run.
#[test]
fn headless_then_present_matches_an_all_present_run_exactly() {
    for (name, build) in [
        ("ROM Pong", rom_pong_console as MakeConsole),
        ("Button Race", rom_race_console as MakeConsole),
    ] {
        let mut repaired = build();
        let mut presented = build();
        const N: u64 = 48;
        for frame in 0..N {
            let input = input_for(frame);
            let mode = if frame + 1 == N {
                StepMode::Present
            } else {
                StepMode::Headless
            };
            repaired.step_frame_mode(input, mode);
            presented.step_frame(input);
        }
        assert_eq!(
            repaired.framebuffer().pixels(),
            presented.framebuffer().pixels(),
            "{name}: final presented pixels differ"
        );
        assert_eq!(
            repaired.audio_samples(),
            presented.audio_samples(),
            "{name}: final presented audio differs"
        );
        assert_eq!(repaired.state_hash(), presented.state_hash(), "{name}");
        assert_eq!(
            repaired.save_state(),
            presented.save_state(),
            "{name}: serialized state differs"
        );
    }
}

/// A program that patches its own instruction stream every frame: it
/// stores the frame counter into the immediate of a later `ldi`, so a
/// cached decode of that slot goes stale the moment it is overwritten.
fn smc_rom() -> Rom {
    let program: Vec<u8> = [
        Instruction::In(Reg(4), 2),          // 0x00: r4 = frame counter low
        Instruction::Ldi(Reg(3), 0x12),      // 0x04: address of the imm low byte below
        Instruction::Stb(Reg(3), Reg(4), 0), // 0x08: patch the ldi
        Instruction::Nop,                    // 0x0C
        Instruction::Ldi(Reg(1), 0xAA00),    // 0x10: imm low byte lives at 0x12
        Instruction::Yield,                  // 0x14
        Instruction::Jmp(0),                 // 0x18
    ]
    .iter()
    .flat_map(|i| i.encode())
    .collect();
    Rom::builder("SMC Probe").image(program).build()
}

#[test]
fn self_modifying_code_invalidates_precisely_and_stays_equivalent() {
    let mut fast = Console::new(smc_rom()).with_cycle_budget(DEFAULT_CYCLES_PER_FRAME);
    let mut slow = Console::new(smc_rom()).with_interp_mode(InterpMode::Reference);

    for frame in 0..200u64 {
        fast.step_frame(InputWord::NONE);
        slow.step_frame(InputWord::NONE);
        assert_eq!(
            fast.state_hash(),
            slow.state_hash(),
            "state diverged at frame {frame}"
        );
        // The patched `ldi` must load the freshly stored byte, proving the
        // warm slot was re-decoded, not replayed: on frame f the program
        // reads frame counter f and executes `ldi r1, 0xAA00 | (f & 0xFF)`.
        let expect = 0xAA00 | (frame as u16 & 0x00FF);
        assert_eq!(fast.cpu().reg(Reg(1)), expect, "frame {frame}");
        assert_eq!(slow.cpu().reg(Reg(1)), expect, "frame {frame}");
    }

    let stats = fast.interp_stats().expect("console reports stats");
    assert!(
        stats.invalidations >= 200,
        "each frame's store must invalidate (saw {})",
        stats.invalidations
    );
    // The patched slot re-decodes every frame, so misses keep growing well
    // past the program's static instruction count.
    assert!(
        stats.misses >= 200,
        "stale slots must re-decode (saw {} misses)",
        stats.misses
    );
}

/// A self-modifying program whose store lands inside the *tail* of a
/// fused `ldi`+`ldi` pair. The fused slot lives at the head address, a
/// full instruction before the patched byte, so only the widened
/// (pair-aware) invalidation window catches it.
fn fused_smc_rom() -> Rom {
    let program: Vec<u8> = [
        Instruction::In(Reg(4), 2),          // 0x00: r4 = frame counter low
        Instruction::Ldi(Reg(3), 0x1A),      // 0x04: imm low byte of the pair's tail
        Instruction::Stb(Reg(3), Reg(4), 0), // 0x08: patch the fused tail
        Instruction::Nop,                    // 0x0C
        Instruction::Nop,                    // 0x10
        Instruction::Ldi(Reg(1), 0x5500),    // 0x14: fuses with the next ldi
        Instruction::Ldi(Reg(2), 0xAA00),    // 0x18: tail; imm low byte at 0x1A
        Instruction::Yield,                  // 0x1C
        Instruction::Jmp(0),                 // 0x20
    ]
    .iter()
    .flat_map(|i| i.encode())
    .collect();
    Rom::builder("Fused SMC Probe").image(program).build()
}

#[test]
fn store_into_a_fused_pair_tail_invalidates_the_whole_slot() {
    let mut fast = Console::new(fused_smc_rom()).with_cycle_budget(DEFAULT_CYCLES_PER_FRAME);
    let mut slow = Console::new(fused_smc_rom()).with_interp_mode(InterpMode::Reference);

    for frame in 0..200u64 {
        fast.step_frame(InputWord::NONE);
        slow.step_frame(InputWord::NONE);
        assert_eq!(
            fast.state_hash(),
            slow.state_hash(),
            "state diverged at frame {frame}"
        );
        // The store lands at 0x1A, seven bytes past the fused slot's own
        // address (0x14). A naive exact-address invalidation would leave
        // that slot warm and replay the stale pair; the register value
        // proves the freshly patched immediate was decoded instead.
        let expect = 0xAA00 | (frame as u16 & 0x00FF);
        assert_eq!(fast.cpu().reg(Reg(2)), expect, "frame {frame}");
        assert_eq!(slow.cpu().reg(Reg(2)), expect, "frame {frame}");
        assert_eq!(fast.cpu().reg(Reg(1)), 0x5500, "frame {frame}");
    }

    let stats = fast.interp_stats().expect("console reports stats");
    assert!(
        stats.fused_hits > 0,
        "the ldi+ldi pair must actually fuse (saw {} fused hits)",
        stats.fused_hits
    );
    assert!(
        stats.invalidations >= 200,
        "each frame's store must invalidate (saw {})",
        stats.invalidations
    );
}

/// Dirty-bitmap fuzz lanes: the bitmap-guided capture stream and the
/// bitmap-guided ring restore must stay byte-identical to a full-image
/// scan of the `InterpMode::Reference` oracle — through a forced
/// rollback, plain self-modifying code, and a fused-pair-tail patch.
///
/// Each lane keeps ONE dirty capture stream (`tail`) alive on the fast
/// console, rewritten in place from the reported dirty ranges every
/// frame, and diffs it against the reference console's full scan. A
/// mid-run `load_state` checks the saturate-on-restore contract: the
/// very next dirty capture must absorb the whole image.
#[test]
fn dirty_capture_stays_byte_identical_to_reference_full_scan() {
    let lanes: [(&str, MakeConsole); 4] = [
        ("ROM Pong", rom_pong_console),
        ("Button Race", rom_race_console),
        ("SMC Probe", || {
            Console::new(smc_rom()).with_cycle_budget(DEFAULT_CYCLES_PER_FRAME)
        }),
        ("Fused SMC Probe", || {
            Console::new(fused_smc_rom()).with_cycle_budget(DEFAULT_CYCLES_PER_FRAME)
        }),
    ];
    for (name, build) in lanes {
        let mut fast = build();
        let mut slow = build().with_interp_mode(InterpMode::Reference);

        let mut tail = Vec::new();
        fast.save_state_into(&mut tail);
        let mut dirty = coplay_vm::DirtyPages::default();
        let mut full = Vec::new();
        let mut snap = None;
        for frame in 0..90u64 {
            let input = input_for(frame);
            fast.step_frame(input);
            slow.step_frame(input);
            fast.collect_dirty_into(&mut dirty);
            fast.save_state_ranges_into(&mut tail, &dirty);
            full.clear();
            slow.save_state_into(&mut full);
            assert_eq!(
                tail, full,
                "{name}: dirty capture diverged from the reference full scan at frame {frame}"
            );
            if frame == 40 {
                snap = Some(full.clone());
            }
            if frame == 70 {
                // Forced rollback: a full-image load must saturate the
                // accumulators so the next dirty capture rewrites all of
                // `tail`, not just the resimulated frame's pages.
                let snap = snap.as_ref().expect("snapshot taken at frame 40");
                fast.load_state(snap).unwrap();
                slow.load_state(snap).unwrap();
                fast.collect_dirty_into(&mut dirty);
                fast.save_state_ranges_into(&mut tail, &dirty);
                full.clear();
                slow.save_state_into(&mut full);
                assert_eq!(
                    tail, full,
                    "{name}: capture stream incoherent right after a full restore"
                );
            }
        }
    }
}

/// Bitmap-guided ring restores land on exactly the state the reference
/// interpreter reaches, for both ROM games and both self-modifying
/// probes, across a rollback depth that crosses checkpoint boundaries.
#[test]
fn bitmap_guided_ring_restore_matches_reference_resimulation() {
    let lanes: [(&str, MakeConsole); 4] = [
        ("ROM Pong", rom_pong_console),
        ("Button Race", rom_race_console),
        ("SMC Probe", || {
            Console::new(smc_rom()).with_cycle_budget(DEFAULT_CYCLES_PER_FRAME)
        }),
        ("Fused SMC Probe", || {
            Console::new(fused_smc_rom()).with_cycle_budget(DEFAULT_CYCLES_PER_FRAME)
        }),
    ];
    for (name, build) in lanes {
        let mut fast = build();
        let mut slow = build().with_interp_mode(InterpMode::Reference);
        let mut ring = coplay_sync::SnapshotRing::new(12);

        for frame in 0..60u64 {
            let input = input_for(frame);
            fast.step_frame(input);
            slow.step_frame(input);
            if frame % 4 == 0 {
                ring.checkpoint_from(frame, fast.state_hash(), &mut fast);
            }
        }

        // Rewind the fast console to the floor checkpoint of frame 49 with
        // the O(dirty) path; rewind the oracle by replaying from scratch.
        let mut dirty = coplay_vm::DirtyPages::default();
        fast.collect_dirty_into(&mut dirty);
        let mut buf = Vec::new();
        let info = ring.rewind_into(49, &mut buf, &mut dirty).unwrap();
        assert_eq!(info.frame, 48, "{name}: floor checkpoint");
        fast.load_state_dirty(&buf, &dirty).unwrap();

        let mut oracle = build().with_interp_mode(InterpMode::Reference);
        for frame in 0..49u64 {
            oracle.step_frame(input_for(frame));
        }
        assert_eq!(
            fast.state_hash(),
            oracle.state_hash(),
            "{name}: bitmap-guided restore diverged from a from-scratch replay"
        );

        // Resimulate with corrected inputs on both interpreters; the
        // restored fast console must track the reference exactly.
        slow.load_state(&fast.save_state()).unwrap();
        for frame in 49..80u64 {
            let input = input_for(frame * 3 + 1);
            fast.step_frame(input);
            slow.step_frame(input);
            assert_eq!(
                fast.state_hash(),
                slow.state_hash(),
                "{name}: post-restore resimulation diverged at frame {frame}"
            );
        }
    }
}
