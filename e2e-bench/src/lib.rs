//! End-to-end wall-clock benchmark of coplay sessions.
//!
//! Two sites play over real loopback UDP sockets — peer to peer, through a
//! receive-side WAN shim, or through `UdpRelay` — each under the real
//! `run_realtime` runner on its own thread. Every layer is measured from
//! outside by wrapping the machine, transport, input source and session
//! driver that the public constructors take (see [`timed`]). The `e2e`
//! binary prints the metrics; the README lists them with their bounds.

pub mod metrics;
pub mod probe;
pub mod session;
pub mod shim;
pub mod stats;
pub mod timed;
pub mod trace;
