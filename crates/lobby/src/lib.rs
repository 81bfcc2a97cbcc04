//! Rendezvous lobby for coplay sessions.
//!
//! §2 of the reproduced paper: *"Some rendezvous mechanism is required for
//! them to find each other, such as instant messenger and games lobby."*
//! This crate is that games lobby — hosts register sessions (name, game
//! image hash, player slots), clients discover and join them, and the
//! lobby assigns each joiner the site number it should use in the lockstep
//! session. Runs over the same unreliable [`coplay_net::Transport`]
//! datagrams as everything else; requests are idempotent, so clients simply
//! retransmit.
//!
//! * [`LobbyServer`] — sans-io registry with heartbeats and expiry.
//! * [`register_session`] / [`list_sessions`] / [`join_session`] — blocking
//!   client helpers over any transport and clock.
//! * [`LobbyMessage`] — the wire protocol (own magic byte, versioned).
//!
//! # Examples
//!
//! See the `matchmaking` example at the workspace root, which rendezvous
//! two players through a lobby and then plays a verified lockstep match.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]
// The whole crate faces the network: it returns typed errors and never
// panics on what a socket or a peer hands it.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod client;
mod server;
mod wire;

pub use client::{join_session, list_sessions, register_session, LobbyError, Slot};
pub use server::{LobbyServer, SESSION_TTL};
pub use wire::{
    JoinRefusal, LobbyMessage, SessionEntry, SessionId, MAX_LISTED, MAX_METRICS_TEXT, MAX_NAME,
};
