//! Match recording and deterministic replay.
//!
//! A lockstep session is completely described by the game image and the
//! merged input sequence — the same determinism the paper's algorithm
//! relies on makes free "demo files". [`Recording`] captures a session's
//! merged inputs (plus periodic state-hash checkpoints for integrity) and
//! replays them into any fresh replica of the same machine.

use std::error::Error;
use std::fmt;

use coplay_vm::{InputWord, Machine};

use crate::session::FrameReport;

const MAGIC: &[u8; 6] = b"CPREC1";

/// Interval (in frames) between state-hash checkpoints in a recording.
pub const CHECKPOINT_INTERVAL: u64 = 60;

/// A recorded match: the machine identity, every frame's merged input, and
/// periodic state-hash checkpoints.
///
/// # Examples
///
/// ```
/// use coplay_sync::Recording;
/// use coplay_vm::{InputWord, Machine, NullMachine};
///
/// // Record a local run…
/// let mut game = NullMachine::new();
/// let mut rec = Recording::new(game.state_hash());
/// for f in 0..100u32 {
///     let input = InputWord(f % 5);
///     game.step_frame(input);
///     rec.push(input, game.state_hash());
/// }
/// // …and replay it into a fresh replica.
/// let mut replica = NullMachine::new();
/// rec.replay(&mut replica)?;
/// assert_eq!(replica.state_hash(), game.state_hash());
/// # Ok::<(), coplay_sync::ReplayError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recording {
    rom_hash: u64,
    inputs: Vec<InputWord>,
    checkpoints: Vec<(u64, u64)>, // (frame, state hash after that frame)
}

/// Errors loading or replaying a [`Recording`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The bytes are not a coplay recording.
    BadMagic,
    /// The recording data ended early.
    Truncated,
    /// The machine is not the one that was recorded (initial state hash
    /// differs).
    WrongMachine {
        /// Hash the recording expects.
        expected: u64,
        /// Hash of the supplied machine.
        actual: u64,
    },
    /// A checkpoint mismatched during replay — the recording is corrupt or
    /// the machine is non-deterministic.
    CheckpointMismatch {
        /// Frame at which the divergence surfaced.
        frame: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::BadMagic => write!(f, "not a coplay recording"),
            ReplayError::Truncated => write!(f, "recording truncated"),
            ReplayError::WrongMachine { expected, actual } => write!(
                f,
                "recording is for a different machine (expected {expected:#x}, got {actual:#x})"
            ),
            ReplayError::CheckpointMismatch { frame } => {
                write!(f, "replay diverged from checkpoint at frame {frame}")
            }
        }
    }
}

impl Error for ReplayError {}

impl Recording {
    /// Starts a recording of a machine whose *initial* state hash is
    /// `rom_hash` (the same identity the session handshake compares).
    pub fn new(rom_hash: u64) -> Recording {
        Recording {
            rom_hash,
            inputs: Vec::new(),
            checkpoints: Vec::new(),
        }
    }

    /// Appends one frame's merged input, checkpointing every
    /// [`CHECKPOINT_INTERVAL`] frames.
    pub fn push(&mut self, input: InputWord, state_hash: u64) {
        self.inputs.push(input);
        let frame = self.inputs.len() as u64 - 1;
        if frame.is_multiple_of(CHECKPOINT_INTERVAL) {
            self.checkpoints.push((frame, state_hash));
        }
    }

    /// Appends straight from a session's [`FrameReport`] (a convenient
    /// `on_frame` hook for [`run_realtime`](crate::run_realtime)).
    pub fn push_report(&mut self, report: &FrameReport) {
        self.push(report.input, report.state_hash.unwrap_or(0));
    }

    /// Frames recorded.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// The recorded machine identity.
    pub fn rom_hash(&self) -> u64 {
        self.rom_hash
    }

    /// Replays every recorded frame into `machine`, verifying checkpoints.
    ///
    /// # Errors
    ///
    /// [`ReplayError::WrongMachine`] if `machine` is not a fresh replica of
    /// the recorded game; [`ReplayError::CheckpointMismatch`] if the replay
    /// diverges (corrupt file or determinism violation).
    pub fn replay<M: Machine>(&self, machine: &mut M) -> Result<(), ReplayError> {
        let actual = machine.state_hash();
        if actual != self.rom_hash {
            return Err(ReplayError::WrongMachine {
                expected: self.rom_hash,
                actual,
            });
        }
        let mut next_cp = self.checkpoints.iter().peekable();
        for (frame, &input) in self.inputs.iter().enumerate() {
            machine.step_frame(input);
            if let Some(&&(cp_frame, cp_hash)) = next_cp.peek() {
                if cp_frame == frame as u64 {
                    next_cp.next();
                    if cp_hash != 0 && machine.state_hash() != cp_hash {
                        return Err(ReplayError::CheckpointMismatch {
                            frame: frame as u64,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Serializes the recording.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            MAGIC.len() + 8 + 8 + self.inputs.len() * 4 + 8 + self.checkpoints.len() * 16,
        );
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.rom_hash.to_le_bytes());
        out.extend_from_slice(&(self.inputs.len() as u64).to_le_bytes());
        for i in &self.inputs {
            out.extend_from_slice(&i.0.to_le_bytes());
        }
        out.extend_from_slice(&(self.checkpoints.len() as u64).to_le_bytes());
        for (f, h) in &self.checkpoints {
            out.extend_from_slice(&f.to_le_bytes());
            out.extend_from_slice(&h.to_le_bytes());
        }
        out
    }

    /// Parses a recording serialized with [`Recording::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`ReplayError::BadMagic`] or [`ReplayError::Truncated`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Recording, ReplayError> {
        let mut p = 0usize;
        let take = |p: &mut usize, n: usize| -> Result<&[u8], ReplayError> {
            if *p + n > bytes.len() {
                return Err(ReplayError::Truncated);
            }
            let s = &bytes[*p..*p + n];
            *p += n;
            Ok(s)
        };
        if take(&mut p, MAGIC.len())? != MAGIC {
            return Err(ReplayError::BadMagic);
        }
        let rom_hash = u64::from_le_bytes(take(&mut p, 8)?.try_into().expect("len 8"));
        let n = u64::from_le_bytes(take(&mut p, 8)?.try_into().expect("len 8")) as usize;
        if n > bytes.len() {
            return Err(ReplayError::Truncated); // length sanity before alloc
        }
        let mut inputs = Vec::with_capacity(n);
        for _ in 0..n {
            inputs.push(InputWord(u32::from_le_bytes(
                take(&mut p, 4)?.try_into().expect("len 4"),
            )));
        }
        let nc = u64::from_le_bytes(take(&mut p, 8)?.try_into().expect("len 8")) as usize;
        if nc > bytes.len() {
            return Err(ReplayError::Truncated);
        }
        let mut checkpoints = Vec::with_capacity(nc);
        for _ in 0..nc {
            let f = u64::from_le_bytes(take(&mut p, 8)?.try_into().expect("len 8"));
            let h = u64::from_le_bytes(take(&mut p, 8)?.try_into().expect("len 8"));
            checkpoints.push((f, h));
        }
        Ok(Recording {
            rom_hash,
            inputs,
            checkpoints,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coplay_vm::NullMachine;

    fn record_run(frames: u32) -> (Recording, u64) {
        let mut game = NullMachine::new();
        let mut rec = Recording::new(game.state_hash());
        for f in 0..frames {
            let input = InputWord(f.wrapping_mul(7) & 0xFF);
            game.step_frame(input);
            rec.push(input, game.state_hash());
        }
        (rec, game.state_hash())
    }

    #[test]
    fn replay_reproduces_final_state() {
        let (rec, final_hash) = record_run(200);
        let mut replica = NullMachine::new();
        rec.replay(&mut replica).unwrap();
        assert_eq!(replica.state_hash(), final_hash);
    }

    #[test]
    fn serialization_roundtrip() {
        let (rec, _) = record_run(150);
        let bytes = rec.to_bytes();
        assert_eq!(Recording::from_bytes(&bytes).unwrap(), rec);
    }

    #[test]
    fn wrong_machine_rejected() {
        let (rec, _) = record_run(10);
        let mut not_fresh = NullMachine::new();
        not_fresh.step_frame(InputWord(1));
        assert!(matches!(
            rec.replay(&mut not_fresh),
            Err(ReplayError::WrongMachine { .. })
        ));
    }

    #[test]
    fn corrupt_checkpoint_detected() {
        let (rec, _) = record_run(120);
        let mut bytes = rec.to_bytes();
        // Flip a bit in an input word so the replay diverges.
        let input_region = MAGIC.len() + 16;
        bytes[input_region + 10] ^= 0x01;
        let corrupt = Recording::from_bytes(&bytes).unwrap();
        let mut replica = NullMachine::new();
        assert!(matches!(
            corrupt.replay(&mut replica),
            Err(ReplayError::CheckpointMismatch { .. })
        ));
    }

    #[test]
    fn garbage_bytes_rejected() {
        assert_eq!(Recording::from_bytes(b"nope"), Err(ReplayError::Truncated));
        assert_eq!(
            Recording::from_bytes(b"XXXXXX\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0"),
            Err(ReplayError::BadMagic)
        );
        // Absurd length field must not cause a huge allocation or panic.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(Recording::from_bytes(&bytes), Err(ReplayError::Truncated));
    }

    #[test]
    fn empty_recording_replays_trivially() {
        let game = NullMachine::new();
        let rec = Recording::new(game.state_hash());
        assert!(rec.is_empty());
        let mut replica = NullMachine::new();
        rec.replay(&mut replica).unwrap();
        assert_eq!(replica.state_hash(), game.state_hash());
    }

    #[test]
    fn errors_display() {
        assert!(ReplayError::CheckpointMismatch { frame: 60 }
            .to_string()
            .contains("60"));
        assert!(ReplayError::WrongMachine {
            expected: 1,
            actual: 2
        }
        .to_string()
        .contains("different machine"));
    }
}
