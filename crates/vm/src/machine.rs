//! The game-transparent machine abstraction.
//!
//! §2 of the paper: "state transition is a black box to this work. We do not
//! seek to modify the game behavior nor sneak into the game itself…". The
//! sync layer only ever sees this trait — a deterministic frame-step driven
//! by an [`InputWord`] — which is precisely what makes the approach *game
//! transparent*: anything implementing [`Machine`] is instantly playable
//! over the network.

use std::error::Error;
use std::fmt;

use crate::dirty::DirtyPages;
use crate::input::InputWord;
use crate::video::FrameBuffer;

/// Static facts about a machine (the "ROM header").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInfo {
    /// Human-readable title.
    pub title: String,
    /// Number of player slots the game reads.
    pub players: u8,
    /// The constant frame rate the game is authored for (the paper's CFPS;
    /// "normally 60").
    pub cfps: u32,
}

impl MachineInfo {
    /// Convenience constructor for the common 60 FPS case.
    pub fn new(title: impl Into<String>, players: u8) -> MachineInfo {
        MachineInfo {
            title: title.into(),
            players,
            cfps: 60,
        }
    }
}

impl fmt::Display for MachineInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}P @ {}fps)", self.title, self.players, self.cfps)
    }
}

/// Error restoring a machine from a serialized state snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The snapshot is shorter than the format requires.
    Truncated {
        /// Bytes required.
        expected: usize,
        /// Bytes supplied.
        actual: usize,
    },
    /// The snapshot does not carry the expected magic/version tag.
    BadMagic,
    /// The snapshot belongs to a different machine or ROM.
    WrongMachine,
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Truncated { expected, actual } => {
                write!(
                    f,
                    "state snapshot truncated: need {expected} bytes, got {actual}"
                )
            }
            StateError::BadMagic => write!(f, "state snapshot has an unrecognized header"),
            StateError::WrongMachine => write!(f, "state snapshot is for a different machine"),
        }
    }
}

impl Error for StateError {}

/// Interpreter statistics a [`Machine`] may report through
/// [`Machine::interp_stats`]. No machine in this workspace reports any:
/// the type stays only because `e2e-bench` still names it and reads
/// `flushes`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterpStats {
    /// Whole-table flushes of an interpreter cache.
    pub flushes: u64,
}

/// How a frame's output will be used, letting machines skip presentation
/// work for frames nobody will ever see.
///
/// Rollback repair resimulates several frames only to reach the present:
/// every repaired frame except the last is immediately overwritten, so its
/// framebuffer blits and audio rendering are pure waste. `Headless` lets a
/// machine skip exactly that work. The contract is strict: **authoritative
/// state (CPU, memory, RNG, input ports — everything [`Machine::state_hash`]
/// covers) must advance byte-identically in both modes**; only
/// presentation-layer output (pixels, rendered audio samples) may go stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepMode {
    /// The frame will be presented: produce full video/audio output.
    #[default]
    Present,
    /// The frame will never be presented: presentation side effects may be
    /// skipped, state must advance identically.
    Headless,
}

/// A deterministic, frame-stepped game machine.
///
/// # Determinism contract
///
/// This trait encodes the assumption the paper states in §5: *"with the same
/// initial state and same input sequence, the VM always produces the same
/// sequence of output states."* Implementations must not read wall clocks,
/// OS randomness, thread timing, or any other host-dependent source; any
/// pseudo-randomness must be seeded from state that [`Machine::save_state`]
/// captures. Floating point should be avoided (or used in ways that are
/// bit-stable across platforms).
///
/// Violating the contract breaks replica convergence — the sync layer
/// detects this via [`Machine::state_hash`] mismatches but cannot repair it.
///
/// # Examples
///
/// Stepping a machine and checking convergence of two replicas:
///
/// ```
/// use coplay_vm::{InputWord, Machine, NullMachine};
///
/// let mut a = NullMachine::default();
/// let mut b = NullMachine::default();
/// for f in 0..100u32 {
///     let input = InputWord(f % 3);
///     a.step_frame(input);
///     b.step_frame(input);
/// }
/// assert_eq!(a.state_hash(), b.state_hash());
/// ```
pub trait Machine {
    /// Static information about the game.
    fn info(&self) -> MachineInfo;

    /// Returns the machine to its initial (power-on) state.
    fn reset(&mut self);

    /// Advances exactly one frame under `input`.
    fn step_frame(&mut self, input: InputWord);

    /// Advances exactly one frame under `input`, with a hint about whether
    /// the frame will be presented (see [`StepMode`]).
    ///
    /// The default implementation ignores the hint and calls
    /// [`Machine::step_frame`], so existing machines stay source-compatible
    /// and correct — `Headless` is purely an optimization opportunity.
    /// Implementations that honor it must keep state-hash-covered state
    /// byte-identical across modes.
    fn step_frame_mode(&mut self, input: InputWord, mode: StepMode) {
        let _ = mode;
        self.step_frame(input);
    }

    /// Number of frames executed since reset.
    fn frame(&self) -> u64;

    /// The video output of the last completed frame.
    fn framebuffer(&self) -> &FrameBuffer;

    /// The audio samples of the last completed frame (may be empty for
    /// silent machines).
    fn audio_samples(&self) -> &[i16] {
        &[]
    }

    /// A digest of the complete game state. Two replicas that have executed
    /// the same inputs from the same initial state must return equal hashes.
    fn state_hash(&self) -> u64;

    /// Serializes the complete game state (for latecomer joins and saves).
    fn save_state(&self) -> Vec<u8>;

    /// Serializes the complete game state into `out`, reusing its
    /// allocation. `out` is cleared first; after the call it holds exactly
    /// the bytes [`Machine::save_state`] would have returned.
    ///
    /// This is the checkpoint hot path: rollback netcode saves state every
    /// few frames, and a machine that implements this natively lets the
    /// caller pool buffers so steady-state checkpointing allocates nothing.
    /// The default implementation falls back to [`Machine::save_state`]
    /// (one transient allocation per call).
    fn save_state_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&self.save_state());
    }

    /// Restores state captured by [`Machine::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] if the snapshot is malformed or belongs to a
    /// different machine.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError>;

    /// Incrementally re-captures state into `out`, rewriting only the byte
    /// ranges of the image that may have changed since the *previous*
    /// capture into the same buffer, and reports those ranges in `dirty`.
    ///
    /// Contract: if `out` already holds a byte-exact earlier capture from
    /// this machine, then after the call `out` holds exactly the bytes
    /// [`Machine::save_state`] would return now, and every byte that was
    /// rewritten lies inside a `dirty`-marked page. If `out` holds anything
    /// else (wrong length, another machine's image), the machine must fall
    /// back to a full capture and saturate `dirty`. Either way the call
    /// *consumes* the machine's internal dirty accumulators.
    ///
    /// The default implementation is the always-sound degenerate case —
    /// a full [`Machine::save_state_into`] with `dirty` saturated — so
    /// machines without write-barrier tracking stay valid.
    fn save_state_dirty_into(&mut self, out: &mut Vec<u8>, dirty: &mut DirtyPages) {
        self.save_state_into(out);
        dirty.reset(out.len());
        dirty.mark_all();
    }

    /// Drains the machine's accumulated dirty set into `out`: pages of the
    /// serialized image that may differ from the most recent capture.
    /// `out` is reset first, so callers can pool bitmaps and keep the
    /// steady-state checkpoint path allocation-free. The call *consumes*
    /// the machine's internal accumulators.
    ///
    /// The default implementation reports a saturated zero-length bitmap
    /// ("assume everything changed, length unknown"); consumers normalize
    /// a length mismatch by saturating at their own buffer length.
    fn collect_dirty_into(&mut self, out: &mut DirtyPages) {
        out.reset(0);
        out.mark_all();
    }

    /// Takes (returns and clears) the machine's accumulated dirty set —
    /// the allocating convenience form of [`Machine::collect_dirty_into`].
    /// Rollback uses the dirty set to bound how much of a checkpoint image
    /// a restore has to touch.
    fn take_dirty_pages(&mut self) -> DirtyPages {
        let mut d = DirtyPages::new(0);
        self.collect_dirty_into(&mut d);
        d
    }

    /// Re-serializes only the `dirty`-marked byte ranges of the state
    /// image into `out`.
    ///
    /// Contract: when `out` holds a byte-exact earlier capture from this
    /// machine and every byte that changed since lies inside a marked
    /// page, after the call `out` holds exactly what
    /// [`Machine::save_state`] would return now. Unlike
    /// [`Machine::save_state_dirty_into`] this does **not** touch the
    /// machine's dirty accumulators — the caller already holds the bitmap
    /// (typically from [`Machine::collect_dirty_into`]). Implementations
    /// must fall back to a full capture when `out` or `dirty` disagree
    /// with the image length.
    ///
    /// The default implementation is the always-sound full capture.
    fn save_state_ranges_into(&self, out: &mut Vec<u8>, dirty: &DirtyPages) {
        let _ = dirty;
        self.save_state_into(out);
    }

    /// Restores state captured by [`Machine::save_state`], touching only
    /// the `dirty`-marked byte ranges of the image.
    ///
    /// Contract: sound only when every byte on which the live machine and
    /// `bytes` disagree lies inside a marked page (e.g. `dirty` is the
    /// union of the machine's dirty set and the checkpoint deltas walked
    /// to reach `bytes`). Implementations must re-mark restored ranges
    /// into their accumulators so the caller's capture buffer is patched
    /// on the next incremental capture.
    ///
    /// The default implementation ignores the bitmap and performs a full
    /// [`Machine::load_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] if the snapshot is malformed or belongs to
    /// a different machine.
    fn load_state_dirty(&mut self, bytes: &[u8], dirty: &DirtyPages) -> Result<(), StateError> {
        let _ = dirty;
        self.load_state(bytes)
    }

    /// Interpreter statistics, for a machine that keeps any. No machine
    /// in this workspace does, so every one returns the default `None`;
    /// the method stays only because `e2e-bench` still forwards it.
    fn interp_stats(&self) -> Option<InterpStats> {
        None
    }
}

impl<M: Machine + ?Sized> Machine for Box<M> {
    fn info(&self) -> MachineInfo {
        (**self).info()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn step_frame(&mut self, input: InputWord) {
        (**self).step_frame(input)
    }
    fn step_frame_mode(&mut self, input: InputWord, mode: StepMode) {
        (**self).step_frame_mode(input, mode)
    }
    fn frame(&self) -> u64 {
        (**self).frame()
    }
    fn framebuffer(&self) -> &FrameBuffer {
        (**self).framebuffer()
    }
    fn audio_samples(&self) -> &[i16] {
        (**self).audio_samples()
    }
    fn state_hash(&self) -> u64 {
        (**self).state_hash()
    }
    fn save_state(&self) -> Vec<u8> {
        (**self).save_state()
    }
    fn save_state_into(&self, out: &mut Vec<u8>) {
        (**self).save_state_into(out)
    }
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        (**self).load_state(bytes)
    }
    fn save_state_dirty_into(&mut self, out: &mut Vec<u8>, dirty: &mut DirtyPages) {
        (**self).save_state_dirty_into(out, dirty)
    }
    fn collect_dirty_into(&mut self, out: &mut DirtyPages) {
        (**self).collect_dirty_into(out)
    }
    fn take_dirty_pages(&mut self) -> DirtyPages {
        (**self).take_dirty_pages()
    }
    fn save_state_ranges_into(&self, out: &mut Vec<u8>, dirty: &DirtyPages) {
        (**self).save_state_ranges_into(out, dirty)
    }
    fn load_state_dirty(&mut self, bytes: &[u8], dirty: &DirtyPages) -> Result<(), StateError> {
        (**self).load_state_dirty(bytes, dirty)
    }
    fn interp_stats(&self) -> Option<InterpStats> {
        (**self).interp_stats()
    }
}

/// A trivial [`Machine`] for tests and examples: its state is a counter and
/// a running hash of every input it has consumed.
#[derive(Debug, Clone)]
pub struct NullMachine {
    frame: u64,
    digest: u64,
    /// A blank 8x8 buffer; NullMachine never draws.
    fb: FrameBuffer,
}

impl NullMachine {
    /// Creates a fresh machine.
    pub fn new() -> NullMachine {
        NullMachine {
            frame: 0,
            digest: 0,
            fb: FrameBuffer::new(8, 8),
        }
    }
}

impl Default for NullMachine {
    fn default() -> NullMachine {
        NullMachine::new()
    }
}

impl Machine for NullMachine {
    fn info(&self) -> MachineInfo {
        MachineInfo::new("Null", 2)
    }

    fn reset(&mut self) {
        self.frame = 0;
        self.digest = 0;
    }

    fn step_frame(&mut self, input: InputWord) {
        let mut h = crate::hash::StateHasher::new();
        h.write_u64(self.digest);
        h.write(&input.0.to_le_bytes());
        self.digest = h.finish();
        self.frame += 1;
    }

    fn frame(&self) -> u64 {
        self.frame
    }

    fn framebuffer(&self) -> &FrameBuffer {
        &self.fb
    }

    fn state_hash(&self) -> u64 {
        let mut h = crate::hash::StateHasher::new();
        h.write_u64(self.frame);
        h.write_u64(self.digest);
        h.finish()
    }

    fn save_state(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(16);
        self.save_state_into(&mut v);
        v
    }

    fn save_state_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&self.frame.to_le_bytes());
        out.extend_from_slice(&self.digest.to_le_bytes());
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        if bytes.len() < 16 {
            return Err(StateError::Truncated {
                expected: 16,
                actual: bytes.len(),
            });
        }
        self.frame = u64::from_le_bytes(bytes[0..8].try_into().expect("len 8"));
        self.digest = u64::from_le_bytes(bytes[8..16].try_into().expect("len 8"));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_machine_is_deterministic() {
        let mut a = NullMachine::new();
        let mut b = NullMachine::new();
        for i in 0..50u32 {
            a.step_frame(InputWord(i));
            b.step_frame(InputWord(i));
        }
        assert_eq!(a.state_hash(), b.state_hash());
        assert_eq!(a.frame(), 50);
    }

    #[test]
    fn null_machine_diverges_on_different_inputs() {
        let mut a = NullMachine::new();
        let mut b = NullMachine::new();
        a.step_frame(InputWord(1));
        b.step_frame(InputWord(2));
        assert_ne!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn reset_restores_initial_hash() {
        let mut a = NullMachine::new();
        let initial = a.state_hash();
        a.step_frame(InputWord(7));
        assert_ne!(a.state_hash(), initial);
        a.reset();
        assert_eq!(a.state_hash(), initial);
    }

    #[test]
    fn save_load_roundtrip() {
        let mut a = NullMachine::new();
        for i in 0..10u32 {
            a.step_frame(InputWord(i));
        }
        let snapshot = a.save_state();
        let mut b = NullMachine::new();
        b.load_state(&snapshot).unwrap();
        assert_eq!(a.state_hash(), b.state_hash());
        assert_eq!(b.frame(), 10);
    }

    #[test]
    fn save_state_into_matches_save_state_and_reuses_capacity() {
        let mut m = NullMachine::new();
        for i in 0..10u32 {
            m.step_frame(InputWord(i));
        }
        let mut buf = Vec::with_capacity(64);
        let cap = buf.capacity();
        m.save_state_into(&mut buf);
        assert_eq!(buf, m.save_state());
        assert_eq!(buf.capacity(), cap, "no reallocation within capacity");
        // A second capture overwrites rather than appends.
        m.step_frame(InputWord(11));
        m.save_state_into(&mut buf);
        assert_eq!(buf, m.save_state());
    }

    #[test]
    fn default_save_state_into_falls_back_to_save_state() {
        // A machine that only implements `save_state` still works through
        // the buffer-reuse entry point.
        struct Legacy(NullMachine);
        impl Machine for Legacy {
            fn info(&self) -> MachineInfo {
                self.0.info()
            }
            fn reset(&mut self) {
                self.0.reset()
            }
            fn step_frame(&mut self, input: InputWord) {
                self.0.step_frame(input)
            }
            fn frame(&self) -> u64 {
                self.0.frame()
            }
            fn framebuffer(&self) -> &FrameBuffer {
                self.0.framebuffer()
            }
            fn state_hash(&self) -> u64 {
                self.0.state_hash()
            }
            fn save_state(&self) -> Vec<u8> {
                self.0.save_state()
            }
            fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
                self.0.load_state(bytes)
            }
        }
        let mut m = Legacy(NullMachine::new());
        m.step_frame(InputWord(3));
        let mut buf = vec![0xFF; 4];
        m.save_state_into(&mut buf);
        assert_eq!(buf, m.save_state());
        // Boxed dyn machines forward to the native implementation.
        let boxed: Box<dyn Machine> = Box::new(NullMachine::new());
        let mut b2 = Vec::new();
        boxed.save_state_into(&mut b2);
        assert_eq!(b2, boxed.save_state());

        // The dirty-capture defaults are the always-sound degenerate case:
        // full capture, everything reported dirty, full restore.
        let mut d = DirtyPages::new(3);
        m.save_state_dirty_into(&mut buf, &mut d);
        assert_eq!(buf, m.save_state());
        assert!(d.is_all(), "default capture saturates the bitmap");
        assert_eq!(d.len(), buf.len());
        assert!(m.take_dirty_pages().is_all());
        let snap = m.save_state();
        let mut fresh = Legacy(NullMachine::new());
        fresh
            .load_state_dirty(&snap, &DirtyPages::new(snap.len()))
            .unwrap();
        assert_eq!(fresh.state_hash(), m.state_hash());

        // And boxed dyn machines forward all three.
        let mut bm: Box<dyn Machine> = Box::new(NullMachine::new());
        bm.step_frame(InputWord(4));
        let mut bbuf = Vec::new();
        let mut bd = DirtyPages::new(0);
        bm.save_state_dirty_into(&mut bbuf, &mut bd);
        assert_eq!(bbuf, bm.save_state());
        assert!(bd.is_all());
        assert!(bm.take_dirty_pages().is_all());
        bm.load_state_dirty(&bbuf, &bd).unwrap();
        assert_eq!(bbuf, bm.save_state());
    }

    #[test]
    fn default_step_frame_mode_falls_back_to_step_frame() {
        // A machine that only implements `step_frame` (NullMachine) still
        // advances identically through the mode-aware entry point.
        let mut a = NullMachine::new();
        let mut b = NullMachine::new();
        a.step_frame(InputWord(9));
        b.step_frame_mode(InputWord(9), StepMode::Headless);
        assert_eq!(a.state_hash(), b.state_hash());
        // Boxed dyn machines forward the mode-aware entry point too.
        let mut boxed: Box<dyn Machine> = Box::new(NullMachine::new());
        boxed.step_frame_mode(InputWord(9), StepMode::Present);
        assert_eq!(boxed.state_hash(), a.state_hash());
        assert_eq!(StepMode::default(), StepMode::Present);
    }

    #[test]
    fn load_rejects_truncated() {
        let mut m = NullMachine::new();
        let err = m.load_state(&[1, 2, 3]).unwrap_err();
        assert_eq!(
            err,
            StateError::Truncated {
                expected: 16,
                actual: 3
            }
        );
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn framebuffer_available_before_first_step() {
        let m = NullMachine::new();
        assert_eq!(m.framebuffer().width(), 8);
    }

    #[test]
    fn machine_info_display() {
        let info = MachineInfo::new("Test Game", 2);
        assert_eq!(info.to_string(), "Test Game (2P @ 60fps)");
    }
}
