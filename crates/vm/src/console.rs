//! The complete virtual arcade board.
//!
//! [`Console`] wires the CPU core to the virtual video, audio, and input
//! devices and exposes the whole board as a [`Machine`] — the black box the
//! sync layer replicates. This is our stand-in for the paper's MAME build:
//! load any [`Rom`] and the board runs it deterministically at its declared
//! frame rate.

// Frame-path code: a panic here stops a replica mid-session.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::audio::AudioChannel;
use crate::cpu::{Cpu, Devices, MEM_SIZE};
use crate::dirty::DirtyPages;
use crate::hash::StateHasher;
use crate::input::InputWord;
use crate::isa::Syscall;
use crate::machine::{Machine, MachineInfo, StateError, StepMode};
use crate::rom::Rom;
use crate::video::{Color, FrameBuffer};

/// Default CPU cycles (instructions) per video frame.
pub const DEFAULT_CYCLES_PER_FRAME: u32 = 20_000;

const STATE_MAGIC: &[u8; 5] = b"CPST1";

// Byte layout of the serialized console image (see `save_state_into`):
// a fixed head (magic, ROM hash, frame counter, CPU registers/flags/RNG)
// followed by the three bulk regions, each zero-padded to a dirty-page
// boundary. The incremental capture/restore paths dispatch byte ranges
// of the image onto these regions; page alignment makes each CPU memory
// page and framebuffer page land on exactly one image page, so a dirty
// page costs one image page of bandwidth and — crucially — the re-marks
// a restore performs round-trip to the *same* pages instead of widening
// by one page per capture/restore cycle.
const HEAD_LEN: usize = STATE_MAGIC.len() + 8 + 8 + Cpu::SMALL_LEN;
const MEM_OFF: usize = crate::dirty::PAGE_SIZE;
const AUD_OFF: usize = MEM_OFF + MEM_SIZE;
const AUD_LEN: usize = 14;
const FB_OFF: usize = AUD_OFF + crate::dirty::PAGE_SIZE;
const _: () = assert!(HEAD_LEN <= MEM_OFF && AUD_LEN <= FB_OFF - AUD_OFF);
const _: () = assert!(MEM_OFF.is_multiple_of(crate::dirty::PAGE_SIZE));
const _: () = assert!(FB_OFF.is_multiple_of(crate::dirty::PAGE_SIZE));

/// A coplay arcade board with a loaded cartridge.
///
/// # Examples
///
/// ```
/// use coplay_vm::{assemble, Console, InputWord, Machine};
///
/// let rom = assemble(
///     r#"
///     .title "Counter"
///     loop:
///         addi r0, 1
///         yield
///         jmp loop
///     "#,
/// )?;
/// let mut console = Console::new(rom);
/// console.step_frame(InputWord::NONE);
/// assert_eq!(console.frame(), 1);
/// # Ok::<(), coplay_vm::AsmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Console {
    rom: Rom,
    cpu: Cpu,
    fb: FrameBuffer,
    audio: AudioChannel,
    frame: u64,
    cycles_per_frame: u32,
}

impl Console {
    /// Powers on a board with `rom` inserted.
    pub fn new(rom: Rom) -> Console {
        let mut cpu = Cpu::new(rom.entry(), rom.seed());
        cpu.load_image(rom.image());
        // Console snapshots embed the surface, so the framebuffer must
        // maintain its dirty bitmap (native games skip this — their
        // save_state never serializes pixels).
        let mut fb = FrameBuffer::standard();
        fb.enable_dirty_tracking();
        Console {
            cpu,
            fb,
            audio: AudioChannel::new(),
            frame: 0,
            rom,
            cycles_per_frame: DEFAULT_CYCLES_PER_FRAME,
        }
    }

    /// Overrides the per-frame cycle budget (default
    /// [`DEFAULT_CYCLES_PER_FRAME`]).
    pub fn with_cycle_budget(mut self, cycles: u32) -> Console {
        self.cycles_per_frame = cycles.max(1);
        self
    }

    /// The inserted cartridge.
    pub fn rom(&self) -> &Rom {
        &self.rom
    }

    /// `true` once the program halted or faulted.
    pub fn is_halted(&self) -> bool {
        self.cpu.is_halted()
    }

    /// Direct CPU access for debuggers and tests.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Total length in bytes of the serialized state image.
    fn state_len(&self) -> usize {
        FB_OFF + self.fb.pixels().len()
    }

    /// The fixed head of the image: magic, ROM hash, frame counter, and
    /// the CPU's non-memory state.
    fn head_bytes(&self) -> [u8; HEAD_LEN] {
        let mut head = [0u8; HEAD_LEN];
        head[..STATE_MAGIC.len()].copy_from_slice(STATE_MAGIC);
        head[5..13].copy_from_slice(&self.rom.content_hash().to_le_bytes());
        head[13..21].copy_from_slice(&self.frame.to_le_bytes());
        head[21..].copy_from_slice(&self.cpu.serialize_small());
        head
    }

    /// Copies bytes `[s, e)` of the serialized image into `out`,
    /// dispatching each overlapped region to its live source. `out` must
    /// be a full-image buffer and `e` at most its length.
    fn write_state_range(&self, head: &[u8; HEAD_LEN], out: &mut [u8], s: usize, e: usize) {
        let mut pos = s;
        while pos < e {
            if pos < HEAD_LEN {
                let stop = e.min(HEAD_LEN);
                out[pos..stop].copy_from_slice(&head[pos..stop]);
                pos = stop;
            } else if pos < MEM_OFF {
                // Padding between head and memory is always zero.
                let stop = e.min(MEM_OFF);
                out[pos..stop].fill(0);
                pos = stop;
            } else if pos < AUD_OFF {
                let stop = e.min(AUD_OFF);
                out[pos..stop]
                    .copy_from_slice(&self.cpu.mem_bytes()[pos - MEM_OFF..stop - MEM_OFF]);
                pos = stop;
            } else if pos < AUD_OFF + AUD_LEN {
                let stop = e.min(AUD_OFF + AUD_LEN);
                let aud = self.audio.save();
                out[pos..stop].copy_from_slice(&aud[pos - AUD_OFF..stop - AUD_OFF]);
                pos = stop;
            } else if pos < FB_OFF {
                // Padding between audio and framebuffer is always zero.
                let stop = e.min(FB_OFF);
                out[pos..stop].fill(0);
                pos = stop;
            } else {
                out[pos..e].copy_from_slice(&self.fb.pixels()[pos - FB_OFF..e - FB_OFF]);
                pos = e;
            }
        }
    }
}

/// The device bus the CPU sees during one frame.
struct Bus<'a> {
    fb: &'a mut FrameBuffer,
    audio: &'a mut AudioChannel,
    input: InputWord,
    frame: u64,
    /// When set, draw syscalls are dropped (the frame will never be
    /// presented). `Tone` is **not** skipped: it mutates serialized audio
    /// registers, which are authoritative state.
    headless: bool,
}

impl Devices for Bus<'_> {
    fn input_port(&mut self, port: u8) -> u16 {
        match port {
            0 => self.input.0 as u16,
            1 => (self.input.0 >> 16) as u16,
            2 => self.frame as u16,
            3 => (self.frame >> 16) as u16,
            _ => 0,
        }
    }

    fn syscall(&mut self, call: Syscall, regs: &[u16; 16]) {
        // Coordinates are signed 16-bit so games can move sprites partially
        // off-screen; the framebuffer clips.
        let s = |v: u16| v as i16 as i32;
        match call {
            // Tone mutates save-state-covered audio registers, so it runs
            // in every mode; the arms below it only touch pixels and are
            // dropped for frames that will never be presented.
            Syscall::Tone => self
                .audio
                .tone(regs[1] as u32, regs[2] as u32, regs[3] as i16),
            _ if self.headless => {}
            Syscall::Cls => self.fb.clear(Color(regs[1] as u8)),
            Syscall::Pix => self
                .fb
                .set_pixel(s(regs[1]), s(regs[2]), Color(regs[3] as u8)),
            Syscall::Rect => self.fb.fill_rect(
                s(regs[1]),
                s(regs[2]),
                s(regs[3]),
                s(regs[4]),
                Color(regs[5] as u8),
            ),
            Syscall::Num => {
                self.fb
                    .draw_number(s(regs[1]), s(regs[2]), regs[3] as u32, Color(regs[4] as u8))
            }
        }
    }
}

impl Machine for Console {
    fn info(&self) -> MachineInfo {
        MachineInfo {
            title: self.rom.title().to_string(),
            players: self.rom.players(),
            cfps: self.rom.cfps(),
        }
    }

    fn reset(&mut self) {
        self.cpu = Cpu::new(self.rom.entry(), self.rom.seed());
        self.cpu.load_image(self.rom.image());
        self.fb = FrameBuffer::standard();
        self.fb.enable_dirty_tracking();
        self.audio = AudioChannel::new();
        self.frame = 0;
    }

    fn step_frame(&mut self, input: InputWord) {
        self.step_frame_mode(input, StepMode::Present);
    }

    fn step_frame_mode(&mut self, input: InputWord, mode: StepMode) {
        let headless = mode == StepMode::Headless;
        let mut bus = Bus {
            fb: &mut self.fb,
            audio: &mut self.audio,
            input,
            frame: self.frame,
            headless,
        };
        self.cpu.run_frame(self.cycles_per_frame, &mut bus);
        if headless {
            // Tone registers still tick (authoritative state); the sample
            // buffer and framebuffer are left stale — nobody will present
            // this frame. Pixels were not touched, so there is nothing to
            // reconcile either.
            self.audio.advance_frame(self.rom.cfps());
        } else {
            // The channel renders into its own reusable buffer;
            // `audio_samples` borrows it directly, so no per-frame copy
            // happens here.
            self.audio.render_frame(self.rom.cfps());
            // Fold this frame's net pixel changes into the fb dirty
            // accumulator. Done once per presented frame rather than per
            // draw call: a clear-and-redraw cycle that reproduces the
            // previous pixels contributes zero dirty pages.
            self.fb.reconcile_dirty();
        }
        self.frame += 1;
    }

    fn frame(&self) -> u64 {
        self.frame
    }

    fn framebuffer(&self) -> &FrameBuffer {
        &self.fb
    }

    fn audio_samples(&self) -> &[i16] {
        self.audio.last_frame()
    }

    fn state_hash(&self) -> u64 {
        // Digest of the *authoritative* core only — header, frame counter,
        // CPU (registers, flags, RNG, memory), audio registers. Framebuffer
        // pixels are deliberately excluded: games redraw every presented
        // frame from core state, and headless-stepped frames leave pixels
        // stale by design, so including them would make the hash depend on
        // presentation history rather than game state. Allocation-free,
        // unlike hashing a materialized snapshot.
        let mut h = StateHasher::new();
        h.write(STATE_MAGIC);
        h.write_u64(self.rom.content_hash());
        h.write_u64(self.frame);
        self.cpu.hash_state(&mut h);
        h.write(&self.audio.save());
        h.finish()
    }

    fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.state_len());
        self.save_state_into(&mut out);
        out
    }

    fn save_state_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(STATE_MAGIC);
        out.extend_from_slice(&self.rom.content_hash().to_le_bytes());
        out.extend_from_slice(&self.frame.to_le_bytes());
        out.extend_from_slice(&self.cpu.serialize_small());
        out.resize(MEM_OFF, 0); // pad head to the page boundary
        out.extend_from_slice(self.cpu.mem_bytes());
        out.extend_from_slice(&self.audio.save());
        out.resize(FB_OFF, 0); // pad audio to the page boundary
        out.extend_from_slice(self.fb.pixels());
    }

    #[expect(
        clippy::expect_used,
        reason = "the length checked on entry covers every fixed-size window"
    )]
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let expected = self.state_len();
        if bytes.len() < expected {
            return Err(StateError::Truncated {
                expected,
                actual: bytes.len(),
            });
        }
        if &bytes[..STATE_MAGIC.len()] != STATE_MAGIC {
            return Err(StateError::BadMagic);
        }
        let rom_hash = u64::from_le_bytes(bytes[5..13].try_into().expect("len 8"));
        if rom_hash != self.rom.content_hash() {
            return Err(StateError::WrongMachine);
        }
        self.frame = u64::from_le_bytes(bytes[13..21].try_into().expect("len 8"));
        self.cpu
            .deserialize_small(&bytes[21..HEAD_LEN])
            .expect("length checked above");
        self.cpu.restore_mem_full(&bytes[MEM_OFF..AUD_OFF]);
        let aud = &bytes[AUD_OFF..AUD_OFF + AUD_LEN];
        self.audio.load(aud.try_into().expect("len 14"));
        self.fb.load_pixels(&bytes[FB_OFF..expected]);
        // A full load re-baselines the machine against an arbitrary
        // snapshot: any reference buffer a dirty-capture caller holds is
        // now potentially stale everywhere, so saturate the accumulators
        // (`restore_mem_full` already saturated the CPU's).
        self.audio.mark_dirty();
        self.fb.mark_all_dirty();
        Ok(())
    }

    /// Drains every component's dirty accumulator into `d`, expressed as
    /// byte ranges of the serialized image. The head is always marked:
    /// the frame counter, registers, and RNG mutate nearly every frame
    /// and cost only 62 bytes to rewrite.
    ///
    /// Calling this *consumes* the accumulators, so the caller must
    /// rewrite (or already hold) the marked ranges of its reference
    /// snapshot — otherwise a later incremental capture would silently
    /// skip them.
    fn collect_dirty_into(&mut self, d: &mut DirtyPages) {
        d.reset(self.state_len());
        d.mark_range(0, HEAD_LEN);
        // MEM_OFF and FB_OFF are page-aligned, so the CPU's and the
        // framebuffer's page bitmaps fold in with word-level ORs — no
        // per-page translation loop.
        d.or_word_bits(&self.cpu.take_dirty(), MEM_OFF / crate::dirty::PAGE_SIZE);
        if self.audio.take_dirty() {
            d.mark_range(AUD_OFF, AUD_LEN);
        }
        d.union_at(self.fb.dirty_pages(), FB_OFF);
        self.fb.clear_dirty();
    }

    fn save_state_ranges_into(&self, out: &mut Vec<u8>, dirty: &DirtyPages) {
        if out.len() != self.state_len() || dirty.len() != self.state_len() {
            self.save_state_into(out);
            return;
        }
        let head = self.head_bytes();
        let buf = out.as_mut_slice();
        for (s, e) in dirty.byte_ranges() {
            self.write_state_range(&head, buf, s, e);
        }
    }

    fn save_state_dirty_into(&mut self, out: &mut Vec<u8>, dirty: &mut DirtyPages) {
        self.collect_dirty_into(dirty);
        if out.len() != self.state_len() {
            // `out` holds no valid reference image to patch — capture in
            // full (and report the whole image dirty).
            dirty.mark_all();
            self.save_state_into(out);
            return;
        }
        self.save_state_ranges_into(out, dirty);
    }

    #[expect(
        clippy::expect_used,
        reason = "the length checked on entry covers every fixed-size window"
    )]
    fn load_state_dirty(&mut self, bytes: &[u8], dirty: &DirtyPages) -> Result<(), StateError> {
        let expected = self.state_len();
        if bytes.len() < expected {
            return Err(StateError::Truncated {
                expected,
                actual: bytes.len(),
            });
        }
        if &bytes[..STATE_MAGIC.len()] != STATE_MAGIC {
            return Err(StateError::BadMagic);
        }
        let rom_hash = u64::from_le_bytes(bytes[5..13].try_into().expect("len 8"));
        if rom_hash != self.rom.content_hash() {
            return Err(StateError::WrongMachine);
        }
        if dirty.len() != expected {
            // The bitmap doesn't describe this image; restore everything.
            return self.load_state(bytes);
        }
        // The head is always restored: capture always marks it, and it
        // costs only 62 bytes to parse.
        self.frame = u64::from_le_bytes(bytes[13..21].try_into().expect("len 8"));
        self.cpu
            .deserialize_small(&bytes[21..HEAD_LEN])
            .expect("length checked above");
        // Every marked range is dispatched onto the overlapped regions.
        // Component restores re-mark their accumulators, because the
        // caller's reference snapshot may disagree with the restore
        // target even where the live machine happened to match it.
        let mut audio_done = false;
        for (s, e) in dirty.byte_ranges() {
            let e = e.min(expected);
            if s >= e {
                continue;
            }
            let (ms, me) = (s.max(MEM_OFF), e.min(AUD_OFF));
            if ms < me {
                self.cpu
                    .restore_mem_range(&bytes[MEM_OFF..AUD_OFF], ms - MEM_OFF, me - MEM_OFF);
            }
            if !audio_done && s < AUD_OFF + AUD_LEN && e > AUD_OFF {
                let aud = &bytes[AUD_OFF..AUD_OFF + AUD_LEN];
                self.audio.load(aud.try_into().expect("len 14"));
                audio_done = true;
            }
            let (fs, fe) = (s.max(FB_OFF), e);
            if fs < fe {
                self.fb
                    .restore_pixel_range(&bytes[FB_OFF..expected], fs - FB_OFF, fe - FB_OFF);
            }
        }
        Ok(())
    }
}

// The memory image dominates snapshot size; make that visible in docs.
const _: () = assert!(MEM_SIZE == 0x1_0000);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembler::assemble;
    use crate::input::{Button, Player};

    fn counter_rom() -> Rom {
        assemble(
            r#"
            .title "Counter"
            .seed 5
            loop:
                addi r0, 1
                rnd r5
                yield
                jmp loop
            "#,
        )
        .unwrap()
    }

    /// A game that draws a paddle whose y position follows P1 up/down.
    fn paddle_rom() -> Rom {
        assemble(
            r#"
            .title "Paddle"
            .equ YPOS, 0x8000
            init:
                ldi r0, 50
                ldi r1, YPOS
                stw [r1], r0
            loop:
                in r0, 0          ; P1 buttons in low byte
                ldi r1, 1         ; Up bit
                and r1, r0
                cmpi r1, 0
                jz check_down
                ldi r1, YPOS
                ldw r2, [r1]
                subi r2, 1
                stw [r1], r2
            check_down:
                ldi r1, 2         ; Down bit
                and r1, r0
                cmpi r1, 0
                jz draw
                ldi r1, YPOS
                ldw r2, [r1]
                addi r2, 1
                stw [r1], r2
            draw:
                ldi r1, 0
                sys 0             ; cls black
                ldi r1, 4         ; x
                ldi r3, YPOS
                ldw r2, [r3]      ; y
                ldi r3, 3         ; w
                ldi r4, 12        ; h
                ldi r5, 15        ; white
                sys 2             ; rect
                yield
                jmp loop
            "#,
        )
        .unwrap()
    }

    #[test]
    fn frames_advance_and_counter_runs() {
        let mut c = Console::new(counter_rom());
        for _ in 0..10 {
            c.step_frame(InputWord::NONE);
        }
        assert_eq!(c.frame(), 10);
        assert_eq!(c.cpu().reg(crate::isa::Reg(0)), 10);
    }

    #[test]
    fn replicas_converge_under_same_inputs() {
        let mut a = Console::new(paddle_rom());
        let mut b = Console::new(paddle_rom());
        let mut input = InputWord::NONE;
        input.press(Player::ONE, Button::Down);
        for _ in 0..30 {
            a.step_frame(input);
            b.step_frame(input);
        }
        assert_eq!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn replicas_diverge_under_different_inputs() {
        let mut a = Console::new(paddle_rom());
        let mut b = Console::new(paddle_rom());
        let mut up = InputWord::NONE;
        up.press(Player::ONE, Button::Up);
        for _ in 0..5 {
            a.step_frame(up);
            b.step_frame(InputWord::NONE);
        }
        assert_ne!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn input_moves_the_paddle_on_screen() {
        let mut c = Console::new(paddle_rom());
        c.step_frame(InputWord::NONE);
        let before = c.framebuffer().clone();
        let mut down = InputWord::NONE;
        down.press(Player::ONE, Button::Down);
        for _ in 0..10 {
            c.step_frame(down);
        }
        assert_ne!(c.framebuffer(), &before, "paddle should have moved");
    }

    #[test]
    fn reset_restores_power_on_state() {
        let mut c = Console::new(counter_rom());
        let initial = c.state_hash();
        for _ in 0..7 {
            c.step_frame(InputWord::NONE);
        }
        c.reset();
        assert_eq!(c.state_hash(), initial);
        assert_eq!(c.frame(), 0);
    }

    #[test]
    fn headless_step_keeps_state_identical_and_final_present_catches_up() {
        let mut present = Console::new(paddle_rom());
        let mut headless = Console::new(paddle_rom());
        let mut down = InputWord::NONE;
        down.press(Player::ONE, Button::Down);
        for f in 0..30u64 {
            let input = if f % 3 == 0 { down } else { InputWord::NONE };
            present.step_frame(input);
            headless.step_frame_mode(input, StepMode::Headless);
            assert_eq!(present.state_hash(), headless.state_hash(), "frame {f}");
        }
        // One presented frame catches the display up completely: the game
        // redraws from core state, which never diverged.
        present.step_frame(InputWord::NONE);
        headless.step_frame_mode(InputWord::NONE, StepMode::Present);
        assert_eq!(present.framebuffer(), headless.framebuffer());
        assert_eq!(present.audio_samples(), headless.audio_samples());
        assert_eq!(present.state_hash(), headless.state_hash());
        assert_eq!(present.save_state(), headless.save_state());
    }

    #[test]
    fn headless_tone_advances_audio_registers() {
        let rom = assemble(
            r#"
                ldi r1, 440
                ldi r2, 3
                ldi r3, 1000
                sys 3
                yield
            loop:
                yield
                jmp loop
            "#,
        )
        .unwrap();
        let mut present = Console::new(rom.clone());
        let mut headless = Console::new(rom);
        for _ in 0..2 {
            present.step_frame(InputWord::NONE);
            headless.step_frame_mode(InputWord::NONE, StepMode::Headless);
        }
        // Tone fired inside headless frames; countdown and phase match.
        assert_eq!(present.state_hash(), headless.state_hash());
        // The third frame is still within the tone and renders identically.
        present.step_frame(InputWord::NONE);
        headless.step_frame(InputWord::NONE);
        assert!(headless.audio_samples().iter().any(|&s| s != 0));
        assert_eq!(present.audio_samples(), headless.audio_samples());
    }

    #[test]
    fn save_load_roundtrip_resumes_identically() {
        let mut a = Console::new(counter_rom());
        for i in 0..20u32 {
            a.step_frame(InputWord(i % 4));
        }
        let snap = a.save_state();

        let mut b = Console::new(counter_rom());
        b.load_state(&snap).unwrap();
        assert_eq!(a.state_hash(), b.state_hash());

        for i in 0..20u32 {
            a.step_frame(InputWord(i % 3));
            b.step_frame(InputWord(i % 3));
        }
        assert_eq!(a.state_hash(), b.state_hash());
        assert_eq!(b.frame(), 40);
    }

    #[test]
    fn load_state_rejects_wrong_rom() {
        let a = Console::new(counter_rom());
        let snap = a.save_state();
        let mut b = Console::new(paddle_rom());
        assert!(matches!(b.load_state(&snap), Err(StateError::WrongMachine)));
    }

    #[test]
    fn load_state_rejects_garbage() {
        let mut c = Console::new(counter_rom());
        assert!(matches!(
            c.load_state(&[0u8; 10]),
            Err(StateError::Truncated { .. })
        ));
        let mut snap = c.save_state();
        snap[0] = b'X';
        assert!(matches!(c.load_state(&snap), Err(StateError::BadMagic)));
    }

    #[test]
    fn dirty_capture_matches_full_capture_byte_for_byte() {
        let mut c = Console::new(paddle_rom());
        let mut cap = Vec::new();
        let mut d = DirtyPages::new(0);
        // First capture has no reference image: full path, saturated bitmap.
        c.save_state_dirty_into(&mut cap, &mut d);
        assert!(d.is_all());
        assert_eq!(cap, c.save_state());
        let mut down = InputWord::NONE;
        down.press(Player::ONE, Button::Down);
        for f in 0..40u64 {
            let input = if f % 3 == 0 { down } else { InputWord::NONE };
            c.step_frame(input);
            c.save_state_dirty_into(&mut cap, &mut d);
            assert!(!d.is_all(), "steady-state captures are incremental");
            assert_eq!(cap, c.save_state(), "frame {f}");
        }
    }

    #[test]
    fn dirty_restore_roundtrip_preserves_state_and_capture_coherence() {
        let mut c = Console::new(paddle_rom());
        let mut down = InputWord::NONE;
        down.press(Player::ONE, Button::Down);
        for _ in 0..10 {
            c.step_frame(down);
        }
        let mut cap = Vec::new();
        let mut d = DirtyPages::new(0);
        c.save_state_dirty_into(&mut cap, &mut d);
        let target_hash = c.state_hash();

        // Speculate ahead; the accumulated dirt then bounds diff(live, cap).
        for _ in 0..7 {
            c.step_frame(InputWord::NONE);
        }
        let dirt = c.take_dirty_pages();
        assert!(!dirt.is_all());
        c.load_state_dirty(&cap, &dirt).unwrap();
        assert_eq!(c.state_hash(), target_hash);
        assert_eq!(c.save_state(), cap);

        // The restore re-marked its ranges, so the next incremental
        // capture into the same buffer stays byte-exact.
        c.step_frame(down);
        c.save_state_dirty_into(&mut cap, &mut d);
        assert_eq!(cap, c.save_state());
    }

    #[test]
    fn info_reflects_rom() {
        let c = Console::new(counter_rom());
        let info = c.info();
        assert_eq!(info.title, "Counter");
        assert_eq!(info.cfps, 60);
    }

    #[test]
    fn audio_syscall_produces_samples() {
        let rom = assemble(
            r#"
                ldi r1, 440
                ldi r2, 10
                ldi r3, 1000
                sys 3
                yield
            loop:
                yield
                jmp loop
            "#,
        )
        .unwrap();
        let mut c = Console::new(rom);
        c.step_frame(InputWord::NONE);
        assert!(c.audio_samples().iter().any(|&s| s != 0));
    }

    #[test]
    fn frame_counter_port_readable() {
        let rom = assemble(
            r#"
            loop:
                in r0, 2
                yield
                jmp loop
            "#,
        )
        .unwrap();
        let mut c = Console::new(rom);
        c.step_frame(InputWord::NONE); // reads frame 0
        c.step_frame(InputWord::NONE); // reads frame 1
        assert_eq!(c.cpu().reg(crate::isa::Reg(0)), 1);
    }

    #[test]
    fn cycle_budget_bounds_runaway_programs() {
        let rom = assemble("loop:\n jmp loop").unwrap();
        let mut c = Console::new(rom).with_cycle_budget(100);
        c.step_frame(InputWord::NONE); // must terminate despite infinite loop
        assert_eq!(c.frame(), 1);
        assert!(!c.is_halted());
    }

    #[test]
    fn halted_program_keeps_framing() {
        let rom = assemble("halt").unwrap();
        let mut c = Console::new(rom);
        c.step_frame(InputWord::NONE);
        c.step_frame(InputWord::NONE);
        assert!(c.is_halted());
        assert_eq!(c.frame(), 2);
    }
}
