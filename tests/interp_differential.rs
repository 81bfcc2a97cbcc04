//! Differential and golden tests for the console interpreter's repair
//! path.
//!
//! A rollback repair restores a checkpoint and resimulates frames
//! headless, so each shortcut it takes is checked against the plain path
//! on every bundled ROM game and on two self-modifying probes: headless
//! stepping against presented stepping, bitmap-guided dirty capture
//! against a full-image scan, and a bitmap-guided ring restore against a
//! from-scratch replay. A golden lane pins the per-frame serialized state
//! itself.

use coplay_games::{rom_pong_console, rom_race_console};
use coplay_vm::{fnv1a, Console, InputWord, Instruction, Machine, Reg, Rom, StepMode};

type MakeConsole = fn() -> Console;

/// Deterministic per-frame input pattern exercising several buttons.
fn input_for(frame: u64) -> InputWord {
    let mut z = frame.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 29;
    InputWord((z as u32) & 0x0F0F)
}

/// The stepping matrix: a presented and a headless lane must hold the
/// same core state hash on every frame — including through a forced
/// rollback/restore — because headless stepping only skips *rendering*
/// side effects, never architectural ones.
#[test]
fn step_mode_matrix_stays_hash_identical_through_rollback() {
    let builds: [(&str, MakeConsole); 2] = [
        ("ROM Pong", rom_pong_console as MakeConsole),
        ("Button Race", rom_race_console as MakeConsole),
    ];
    for (name, build) in builds {
        // Index 0 is the oracle: presented frames.
        let mut lanes: Vec<(String, Console, StepMode)> = vec![
            (format!("{name}/Present"), build(), StepMode::Present),
            (format!("{name}/Headless"), build(), StepMode::Headless),
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
/// stores the frame counter into the immediate of a later `ldi`.
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

/// A self-modifying program whose store lands inside the second of two
/// adjacent `ldi`s, a full instruction past the first.
fn fused_smc_rom() -> Rom {
    let program: Vec<u8> = [
        Instruction::In(Reg(4), 2),          // 0x00: r4 = frame counter low
        Instruction::Ldi(Reg(3), 0x1A),      // 0x04: imm low byte of the second ldi
        Instruction::Stb(Reg(3), Reg(4), 0), // 0x08: patch it
        Instruction::Nop,                    // 0x0C
        Instruction::Nop,                    // 0x10
        Instruction::Ldi(Reg(1), 0x5500),    // 0x14
        Instruction::Ldi(Reg(2), 0xAA00),    // 0x18: imm low byte at 0x1A
        Instruction::Yield,                  // 0x1C
        Instruction::Jmp(0),                 // 0x20
    ]
    .iter()
    .flat_map(|i| i.encode())
    .collect();
    Rom::builder("Fused SMC Probe").image(program).build()
}

/// Both ROM games and both self-modifying probes.
fn lanes() -> [(&'static str, MakeConsole); 4] {
    [
        ("ROM Pong", rom_pong_console),
        ("Button Race", rom_race_console),
        ("SMC Probe", || Console::new(smc_rom())),
        ("Fused SMC Probe", || Console::new(fused_smc_rom())),
    ]
}

/// Dirty-bitmap fuzz lanes: the bitmap-guided capture stream must stay
/// byte-identical to a full-image scan of a second console — through a
/// forced rollback and both self-modifying probes.
///
/// Each lane keeps ONE dirty capture stream (`tail`) alive on the tracked
/// console, rewritten in place from the reported dirty ranges every
/// frame, and diffs it against the plain console's full scan. A
/// mid-run `load_state` checks the saturate-on-restore contract: the
/// very next dirty capture must absorb the whole image.
#[test]
fn dirty_capture_stays_byte_identical_to_reference_full_scan() {
    for (name, build) in lanes() {
        let mut tracked = build();
        let mut plain = build();

        let mut tail = Vec::new();
        tracked.save_state_into(&mut tail);
        let mut dirty = coplay_vm::DirtyPages::default();
        let mut full = Vec::new();
        let mut snap = None;
        for frame in 0..90u64 {
            let input = input_for(frame);
            tracked.step_frame(input);
            plain.step_frame(input);
            tracked.collect_dirty_into(&mut dirty);
            tracked.save_state_ranges_into(&mut tail, &dirty);
            full.clear();
            plain.save_state_into(&mut full);
            assert_eq!(
                tail, full,
                "{name}: dirty capture diverged from the full scan at frame {frame}"
            );
            if frame == 40 {
                snap = Some(full.clone());
            }
            if frame == 70 {
                // Forced rollback: a full-image load must saturate the
                // accumulators so the next dirty capture rewrites all of
                // `tail`, not just the resimulated frame's pages.
                let snap = snap.as_ref().expect("snapshot taken at frame 40");
                tracked.load_state(snap).unwrap();
                plain.load_state(snap).unwrap();
                tracked.collect_dirty_into(&mut dirty);
                tracked.save_state_ranges_into(&mut tail, &dirty);
                full.clear();
                plain.save_state_into(&mut full);
                assert_eq!(
                    tail, full,
                    "{name}: capture stream incoherent right after a full restore"
                );
            }
        }
    }
}

/// Bitmap-guided ring restores land on exactly the state a from-scratch
/// replay reaches, for both ROM games and both self-modifying probes,
/// across a rollback depth that crosses checkpoint boundaries.
#[test]
fn bitmap_guided_ring_restore_matches_reference_resimulation() {
    for (name, build) in lanes() {
        let mut restored = build();
        let mut ring = coplay_sync::SnapshotRing::new(12);

        for frame in 0..60u64 {
            restored.step_frame(input_for(frame));
            if frame % 4 == 0 {
                ring.checkpoint_from(frame, restored.state_hash(), &mut restored);
            }
        }

        // Rewind to the floor checkpoint of frame 49 with the O(dirty)
        // path; rewind the oracle by replaying from scratch.
        let mut dirty = coplay_vm::DirtyPages::default();
        restored.collect_dirty_into(&mut dirty);
        let mut buf = Vec::new();
        let info = ring.rewind_into(49, &mut buf, &mut dirty).unwrap();
        assert_eq!(info.frame, 48, "{name}: floor checkpoint");
        restored.load_state_dirty(&buf, &dirty).unwrap();

        let mut oracle = build();
        for frame in 0..49u64 {
            oracle.step_frame(input_for(frame));
        }
        assert_eq!(
            restored.state_hash(),
            oracle.state_hash(),
            "{name}: bitmap-guided restore diverged from a from-scratch replay"
        );

        // Resimulate with corrected inputs; the restored console must
        // track the replayed one exactly.
        for frame in 49..80u64 {
            let input = input_for(frame * 3 + 1);
            restored.step_frame(input);
            oracle.step_frame(input);
            assert_eq!(
                restored.state_hash(),
                oracle.state_hash(),
                "{name}: post-restore resimulation diverged at frame {frame}"
            );
        }
    }
}

/// Plays one lane's fixed schedule and folds `fnv1a(save_state())` of
/// every frame into one digest: 72 presented frames (the last 12 on
/// wrong inputs), a full `load_state` back to frame 40, a headless repair
/// of frames 40–70 and presented frames to 99, then a bitmap-guided ring
/// rewind (`load_state_dirty`) to frame 88, repaired the same way. The
/// state right after each restore is folded in too.
fn golden_lane_digest(mut console: Console) -> u64 {
    let mut trail = Vec::new();
    let mut note = |c: &Console| trail.extend_from_slice(&fnv1a(&c.save_state()).to_le_bytes());
    let mut ring = coplay_sync::SnapshotRing::new(16);
    let mut snap = Vec::new();
    for frame in 0..60u64 {
        if frame == 40 {
            snap = console.save_state();
        }
        console.step_frame(input_for(frame));
        note(&console);
    }
    for frame in 60..72u64 {
        console.step_frame(input_for(frame * 13 + 5));
        note(&console);
    }
    console.load_state(&snap).unwrap();
    note(&console);
    for frame in 40..100u64 {
        let mode = if frame < 71 {
            StepMode::Headless
        } else {
            StepMode::Present
        };
        if frame >= 80 {
            ring.checkpoint_from(frame, console.state_hash(), &mut console);
        }
        console.step_frame_mode(input_for(frame), mode);
        note(&console);
    }
    let mut dirty = coplay_vm::DirtyPages::default();
    console.collect_dirty_into(&mut dirty);
    let mut buf = Vec::new();
    let info = ring.rewind_into(88, &mut buf, &mut dirty).unwrap();
    assert_eq!(info.frame, 88);
    console.load_state_dirty(&buf, &dirty).unwrap();
    note(&console);
    for frame in 88..130u64 {
        let mode = if frame < 99 {
            StepMode::Headless
        } else {
            StepMode::Present
        };
        console.step_frame_mode(input_for(frame * 3 + 1), mode);
        note(&console);
    }
    fnv1a(&trail)
}

/// Golden oracle for the interpreter: per-frame `fnv1a(save_state())`
/// digests, folded per lane, pinned for both ROM games and both
/// self-modifying probes through a full restore and a dirty ring rewind,
/// each followed by a headless repair. The pins are plain FNV-1a over
/// the serialized state, independent of `StateHasher`, so only a change
/// to what the machine computes (or to its snapshot layout) moves them.
#[test]
fn golden_state_digests_are_pinned_per_lane() {
    let pins = [
        ("ROM Pong", 12327946894702018200),
        ("Button Race", 4913978233620841002),
        ("SMC Probe", 226008655983199236),
        ("Fused SMC Probe", 5982311807522313382),
    ];
    let got: Vec<(&str, u64)> = lanes()
        .iter()
        .map(|&(name, build)| (name, golden_lane_digest(build())))
        .collect();
    assert_eq!(got, pins, "per-lane golden state digests");
}
