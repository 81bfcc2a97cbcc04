//! **coplay** — real-time collaboration transparency for emulated legacy
//! TV/arcade games.
//!
//! A from-scratch Rust reproduction of *"An Approach to Sharing Legacy
//! TV/Arcade Games for Real-Time Collaboration"* (Zhao, Li, Gu, Shao, Gu —
//! ICDCS 2009): a synchronization layer that turns single-computer
//! deterministic game emulators into distributed multi-player games without
//! modifying (or understanding) the games.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! * [`vm`] — the deterministic arcade console (the MAME stand-in): CPU,
//!   assembler, video/audio/input devices, the [`vm::Machine`] black box.
//! * [`games`] — Pong, a fighting game, a co-op shooter, and assembly ROMs.
//! * [`sync`] — the paper's contribution: `SyncInput` lockstep with local
//!   lag (Algorithm 2), frame pacing (Algorithms 3–4), sessions, observers,
//!   latecomers — and its alternative, predicted-input speculation with
//!   snapshot/resimulate repair bounded by a rollback window (pick per
//!   session via `sync::ConsistencyMode`).
//! * [`net`] — unreliable-datagram transports and Netem-style impairments.
//! * [`clock`] — virtual/system time and the measurement time server.
//! * [`sim`] — the deterministic experiment harness behind the paper's
//!   Figures 1 and 2.
//! * [`lobby`] — the rendezvous service §2 of the paper assumes exists.
//! * [`relay`] — a multiplexed input-relay server: many sessions share one
//!   UDP socket, traffic forwarded by session/site without being decoded.
//! * [`telemetry`] — in-band observability: flight recorder, metrics
//!   registry with log-bucketed histograms, JSONL/Prometheus exporters.
//!
//! # Quickstart
//!
//! Play a game across two "machines" in-process:
//!
//! ```
//! use coplay::net::{loopback, PeerId};
//! use coplay::sync::{run_realtime, LockstepSession, RandomPresser, SyncConfig};
//! use coplay::games::Pong;
//! use coplay::vm::Player;
//!
//! let (ta, tb) = loopback(PeerId(0), PeerId(1));
//! let mut cfg0 = SyncConfig::two_player(0);
//! let mut cfg1 = SyncConfig::two_player(1);
//! cfg0.cfps = 240; // run the doc test fast
//! cfg1.cfps = 240;
//! let site0 = LockstepSession::new(cfg0, Pong::new(), ta,
//!                                  RandomPresser::new(Player::ONE, 1));
//! let site1 = LockstepSession::new(cfg1, Pong::new(), tb,
//!                                  RandomPresser::new(Player::TWO, 2));
//! let h0 = std::thread::spawn(move || {
//!     let mut h = Vec::new();
//!     run_realtime(site0, 30, |r, _| h.push(r.state_hash.unwrap())).map(|_| h)
//! });
//! let h1 = std::thread::spawn(move || {
//!     let mut h = Vec::new();
//!     run_realtime(site1, 30, |r, _| h.push(r.state_hash.unwrap())).map(|_| h)
//! });
//! // Both replicas computed identical state sequences.
//! assert_eq!(h0.join().unwrap()?, h1.join().unwrap()?);
//! # Ok::<(), coplay::sync::SyncError>(())
//! ```

#![warn(missing_docs)]

pub use coplay_clock as clock;
pub use coplay_games as games;
pub use coplay_lobby as lobby;
pub use coplay_net as net;
pub use coplay_relay as relay;
pub use coplay_sim as sim;
pub use coplay_sync as sync;
pub use coplay_telemetry as telemetry;
pub use coplay_vm as vm;
