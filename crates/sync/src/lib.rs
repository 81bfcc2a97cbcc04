//! **coplay-sync** — real-time collaboration transparency for emulated
//! legacy TV/arcade games.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*An Approach to Sharing Legacy TV/Arcade Games for Real-Time
//! Collaboration*, ICDCS 2009): a synchronization layer that turns a
//! single-computer deterministic game VM into a distributed multi-computer
//! game **without modifying or understanding the game** ("game
//! transparency"). It maintains:
//!
//! * **Logical consistency** — every replica executes the identical input
//!   sequence. [`InputSync`] implements the paper's Algorithm 2: local
//!   inputs are delayed by a fixed *local lag* (`BufFrame` ≈ 100 ms),
//!   partial inputs are exchanged over unreliable datagrams with
//!   cumulative acks and retransmission, and a frame executes only when
//!   every site's bits for it have arrived.
//! * **Real-time consistency** — every replica paces frames at the game's
//!   constant FPS and the sites stay aligned. [`FrameTimer`] implements
//!   Algorithms 3 and 4: overrun debt carry-over (`AdjustTimeDelta`) and
//!   master/slave pace smoothing (`SyncAdjustTimeDelta` from the master's
//!   observed frame and `RTT/2`).
//!
//! [`Session`] assembles both into the paper's Algorithm 1 frame loop,
//! together with the session-control handshake, RTT estimation, and the
//! journal-version extensions (N players, observers, latecomer joins via
//! state snapshots). Its consistency policy is a speculation window:
//!
//! * [`LockstepSession`] ([`Lockstep`], a window of zero frames) is the
//!   paper's design: a frame waits until every site's input has arrived.
//! * [`RollbackSession`] ([`Speculative`]) executes up to
//!   `max_rollback_frames` ahead on predicted inputs ([`InputPredictor`]),
//!   checkpoints into a [`SnapshotRing`], and repairs a misprediction by
//!   restoring a checkpoint and resimulating.
//!
//! Everything is *sans-io*: the discrete-event simulator in `coplay-sim`
//! and the wall-clock runner in [`run_realtime`] drive the identical
//! protocol code.
//!
//! # Examples
//!
//! Two sites playing a deterministic machine over an in-process link:
//!
//! ```
//! use coplay_net::{loopback, PeerId};
//! use coplay_sync::{run_realtime, LockstepSession, RandomPresser, SyncConfig};
//! use coplay_vm::{NullMachine, Player};
//!
//! let (ta, tb) = loopback(PeerId(0), PeerId(1));
//! let mut cfg0 = SyncConfig::two_player(0);
//! let mut cfg1 = SyncConfig::two_player(1);
//! cfg0.cfps = 240; // quick doc test
//! cfg1.cfps = 240;
//! let a = LockstepSession::new(cfg0, NullMachine::new(), ta,
//!                              RandomPresser::new(Player::ONE, 1));
//! let b = LockstepSession::new(cfg1, NullMachine::new(), tb,
//!                              RandomPresser::new(Player::TWO, 2));
//!
//! let ha = std::thread::spawn(move || {
//!     let mut h = Vec::new();
//!     run_realtime(a, 30, |r, _| h.push(r.state_hash.unwrap())).map(|_| h)
//! });
//! let hb = std::thread::spawn(move || {
//!     let mut h = Vec::new();
//!     run_realtime(b, 30, |r, _| h.push(r.state_hash.unwrap())).map(|_| h)
//! });
//! assert_eq!(ha.join().unwrap()?, hb.join().unwrap()?);
//! # Ok::<(), coplay_sync::SyncError>(())
//! ```

#![warn(missing_docs)]

mod config;
mod consistency;
mod error;
mod input_buffer;
mod input_source;
mod predict;
mod realtime;
mod replay;
mod rtt;
mod session;
mod snapshot;
mod stats;
mod sync_input;
mod timing;
mod wire;

pub use config::{ConsistencyMode, SyncConfig, Topology};
pub use consistency::{Consistency, Lockstep, Speculative};
pub use error::{StopReason, SyncError};
pub use input_buffer::InputBuffer;
pub use input_source::{Idle, InputSource, RandomPresser, Scripted};
pub use predict::{InputPredictor, RepeatLast};
pub use realtime::{run_realtime, RunOutcome};
pub use replay::{Recording, ReplayError, CHECKPOINT_INTERVAL};
pub use rtt::{RttEstimator, DEFAULT_PING_INTERVAL};
pub use session::{
    FrameReport, LockstepSession, RollbackSession, Session, SessionDriver, Step, JOIN_MARGIN_FRAMES,
};
pub use snapshot::{CheckpointInfo, CheckpointReport, RestoreError, SnapshotRing};
pub use stats::SessionStats;
pub use sync_input::{InputSync, MasterObservation, RecvOutcome, OBSERVER_SITE, RETAIN_FRAMES};
pub use timing::{FrameEnd, FrameTimer};
pub use wire::{InputMsg, Message, WireError, MAX_CHUNK_BYTES, MAX_INPUTS_PER_MSG};
