//! A multiplexed input-relay server for outbound-only clients.
//!
//! The paper's two-site topology assumes the players can reach each other
//! directly. Production deployments (ROADMAP item 1) cannot: consoles sit
//! behind NATs and only dial out. This crate supplies the missing piece —
//! a relay that multiplexes **many** sessions over **one** UDP socket and
//! forwards each opaque input datagram to the session's other members
//! without ever decoding the game traffic it carries. Because all
//! simulation stays client-side (lockstep or rollback, unchanged), a dumb
//! forwarding server is sufficient for correctness; everything here is
//! about routing, policy, and observability:
//!
//! - [`wire`] — the relay datagram protocol (magic `0xC7`): register /
//!   forward / deliver envelopes that borrow their payload, so forwarding
//!   copies nothing through the codec.
//! - [`RelayCore`] — the sans-io routing core: a session map keyed by id,
//!   per-session token-bucket backpressure with drop accounting, spectator
//!   fan-out, and heartbeat eviction on the lobby's TTL cadence.
//! - [`UdpRelay`] — the single-threaded non-blocking socket loop; shard by
//!   `session % shard_count` ([`RelayConfig::shard`]) to scale out.
//! - [`RelaySocket`] — the client adapter: wraps any [`Transport`] whose
//!   one reachable peer is the relay and restores site-addressed
//!   semantics, so the session drivers run unmodified.
//!
//! [`Transport`]: coplay_net::Transport

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

pub mod client;
pub mod server;
pub mod udp;
pub mod wire;

pub use client::RelaySocket;
pub use server::{RelayConfig, RelayCore, RelayStats, MEMBER_TTL};
pub use udp::UdpRelay;
pub use wire::{RelayMessage, DEST_BROADCAST, MAX_RELAY_PAYLOAD};
