//! The wrappers must measure the program without changing what it does.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;
use std::time::Instant;

use coplay_e2e_bench::metrics::verify;
use coplay_e2e_bench::probe::{Layer, Probe};
use coplay_e2e_bench::session::{run_session, Workload};
use coplay_e2e_bench::timed::TimedMachine;
use coplay_games::rom_pong_console;
use coplay_rollback::{CheckpointReport, SnapshotRing};
use coplay_vm::{
    fnv1a, Console, DirtyPages, FrameBuffer, InputWord, InterpStats, Machine, MachineInfo,
    StateError, StepMode,
};

/// A console that logs which `Machine` method each call reached. Under a
/// wrapper that forwards every method it logs exactly what it logs bare; a
/// method the wrapper left to its default shows up as the calls that
/// default makes instead.
struct Recorder {
    inner: Console,
    calls: Rc<RefCell<Vec<&'static str>>>,
}

impl Recorder {
    fn new() -> (Recorder, Rc<RefCell<Vec<&'static str>>>) {
        let calls = Rc::new(RefCell::new(Vec::new()));
        let inner = rom_pong_console();
        (
            Recorder {
                inner,
                calls: Rc::clone(&calls),
            },
            calls,
        )
    }

    fn note(&self, method: &'static str) {
        self.calls.borrow_mut().push(method);
    }
}

impl Machine for Recorder {
    fn info(&self) -> MachineInfo {
        self.note("info");
        self.inner.info()
    }
    fn reset(&mut self) {
        self.note("reset");
        self.inner.reset();
    }
    fn step_frame(&mut self, input: InputWord) {
        self.note("step_frame");
        self.inner.step_frame(input);
    }
    fn step_frame_mode(&mut self, input: InputWord, mode: StepMode) {
        self.note("step_frame_mode");
        self.inner.step_frame_mode(input, mode);
    }
    fn frame(&self) -> u64 {
        self.inner.frame()
    }
    fn framebuffer(&self) -> &FrameBuffer {
        self.note("framebuffer");
        self.inner.framebuffer()
    }
    fn audio_samples(&self) -> &[i16] {
        self.note("audio_samples");
        self.inner.audio_samples()
    }
    fn state_hash(&self) -> u64 {
        self.note("state_hash");
        self.inner.state_hash()
    }
    fn save_state(&self) -> Vec<u8> {
        self.note("save_state");
        self.inner.save_state()
    }
    fn save_state_into(&self, out: &mut Vec<u8>) {
        self.note("save_state_into");
        self.inner.save_state_into(out);
    }
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        self.note("load_state");
        self.inner.load_state(bytes)
    }
    fn save_state_dirty_into(&mut self, out: &mut Vec<u8>, dirty: &mut DirtyPages) {
        self.note("save_state_dirty_into");
        self.inner.save_state_dirty_into(out, dirty);
    }
    fn collect_dirty_into(&mut self, out: &mut DirtyPages) {
        self.note("collect_dirty_into");
        self.inner.collect_dirty_into(out);
    }
    fn take_dirty_pages(&mut self) -> DirtyPages {
        self.note("take_dirty_pages");
        self.inner.take_dirty_pages()
    }
    fn save_state_ranges_into(&self, out: &mut Vec<u8>, dirty: &DirtyPages) {
        self.note("save_state_ranges_into");
        self.inner.save_state_ranges_into(out, dirty);
    }
    fn load_state_dirty(&mut self, bytes: &[u8], dirty: &DirtyPages) -> Result<(), StateError> {
        self.note("load_state_dirty");
        self.inner.load_state_dirty(bytes, dirty)
    }
    fn interp_stats(&self) -> Option<InterpStats> {
        self.note("interp_stats");
        self.inner.interp_stats()
    }
}

/// Everything observable about how a machine went through a rollback.
#[derive(Debug, PartialEq)]
struct Trail {
    hashes: Vec<u64>,
    /// FNV-1a digests of `save_state` after each step.
    states: Vec<u64>,
    reports: Vec<CheckpointReport>,
    restored_bytes: Vec<usize>,
    decode_flushes: Option<u64>,
}

fn input(frame: u64, salt: u32) -> InputWord {
    InputWord((((frame as u32).wrapping_mul(0x9E37_79B9) ^ salt) >> 7) & 0x3F3F)
}

/// Steps `frames` with a checkpoint every 5, presenting only frame 59 when
/// replaying (`salt != 0`) — the calls `RollbackSession` makes, in order.
fn play(
    m: &mut dyn Machine,
    ring: &mut SnapshotRing,
    t: &mut Trail,
    frames: Range<u64>,
    salt: u32,
) {
    for f in frames {
        if f % 5 == 0 && ring.newest_frame().is_none_or(|n| n < f) {
            let hash = m.state_hash();
            t.reports.push(ring.checkpoint_from(f, hash, m));
        }
        let mode = if f == 59 || salt == 0 {
            StepMode::Present
        } else {
            StepMode::Headless
        };
        m.step_frame_mode(input(f, salt), mode);
        t.hashes.push(m.state_hash());
        t.states.push(fnv1a(&m.save_state()));
    }
}

/// Plays 60 frames, then twice rewinds (to frames 42 and 50) and replays
/// to frame 60 on different input. The first restore of a session copies
/// the whole image; the second touches only dirty pages. Ends by calling
/// every `Machine` method the rollback path does not.
fn rollback_trail(mut m: impl Machine) -> Trail {
    let mut ring = SnapshotRing::new(SnapshotRing::capacity_for(30, 5));
    let mut t = Trail {
        hashes: Vec::new(),
        states: Vec::new(),
        reports: Vec::new(),
        restored_bytes: Vec::new(),
        decode_flushes: None,
    };
    play(&mut m, &mut ring, &mut t, 0..60, 0);
    let mut dirty = DirtyPages::default();
    let mut buf = Vec::new();
    for (target, salt) in [(42, 0x55), (50, 0xAA)] {
        m.collect_dirty_into(&mut dirty);
        let info = ring
            .rewind_into(target, &mut buf, &mut dirty)
            .expect("rewind");
        m.load_state_dirty(&buf, &dirty).expect("restore");
        assert_eq!(
            m.state_hash(),
            info.hash,
            "restore reproduces the checkpoint"
        );
        t.restored_bytes
            .push(dirty.byte_ranges().map(|(s, e)| e - s).sum());
        play(&mut m, &mut ring, &mut t, info.frame..60, salt);
    }
    t.decode_flushes = m.interp_stats().map(|s| s.flushes);
    assert_eq!(m.info().players, 2);
    assert!(m.framebuffer().width() > 0);
    let _ = m.audio_samples();
    m.save_state_dirty_into(&mut buf, &mut dirty);
    let _ = m.take_dirty_pages();
    m.save_state_into(&mut buf);
    m.step_frame(InputWord::NONE);
    m.load_state(&buf).expect("load");
    t.states.push(fnv1a(&m.save_state()));
    m.reset();
    t.hashes.push(m.state_hash());
    t
}

#[test]
fn timed_machine_forwards_every_method_through_a_forced_restore() {
    let (bare, bare_calls) = Recorder::new();
    let plain = rollback_trail(bare);
    #[allow(clippy::disallowed_methods)] // the benchmark's clock is the wall clock
    let probe = Rc::new(Probe::new(Instant::now(), true, 64));
    let (wrapped, wrapped_calls) = Recorder::new();
    let timed = rollback_trail(TimedMachine::new(wrapped, &probe));
    // Not vacuous: the console captures and restores dirty pages only,
    // which a default (full-image) method would not.
    let state_len = plain.reports[0].state_len;
    assert!(plain.reports.iter().any(|r| r.dirty_bytes < state_len));
    assert!(plain.restored_bytes[1] < state_len);
    assert_eq!(plain, timed);
    let (bare, wrapped) = (bare_calls.borrow(), wrapped_calls.borrow());
    let diverged = (0..bare.len().min(wrapped.len()))
        .find(|&i| bare[i] != wrapped[i])
        .map(|i| (i, bare[i], wrapped[i]));
    assert_eq!(diverged, None, "first call that reached a different method");
    assert_eq!(bare.len(), wrapped.len());
    let log = probe.take_log();
    assert_eq!(log.layer(Layer::Restore).calls, 3);
    assert!(log.headless_steps > 0);
}

#[test]
fn sampled_bits_reach_the_other_site_buf_frames_later() {
    for name in ["fast_lockstep", "fast_rollback"] {
        let w = Workload::by_name(name).expect("workload");
        let frames = 600;
        let run = run_session(w, 7, frames, false).expect("session");
        let buf = w.config(0).buf_frames as usize;
        let port_map = w.config(0).port_map;
        for origin in &run.sites {
            assert!(origin.log.sampled.iter().any(|&w| w != InputWord::NONE));
            for dest in run.sites.iter().filter(|d| d.site != origin.site) {
                for t in 0..frames as usize - buf {
                    assert_eq!(
                        port_map.partial_input(origin.site, dest.log.executed_input[t + buf]),
                        origin.log.sampled[t],
                        "{name}: site {} sample {t} at site {}",
                        origin.site,
                        dest.site
                    );
                }
            }
        }
        assert_eq!(verify(&w, &run, frames).failed, 0, "{name}");
    }
}

#[test]
fn verify_counts_a_frame_that_ran_on_the_wrong_input() {
    let w = Workload::by_name("fast_lockstep").expect("workload");
    let mut run = run_session(w, 3, 120, false).expect("session");
    assert_eq!(verify(&w, &run, 120).failed, 0);
    let word = &mut run.sites[0].log.sampled[50];
    *word = InputWord(word.0 ^ 1);
    // Frame 50 + buf_frames ran on the other bits at both sites.
    assert_eq!(verify(&w, &run, 120).failed, 2);
}
