//! Network substrate for coplay: the unreliable-datagram transport the
//! lockstep protocol runs on, a Netem-style impairment model, an in-memory
//! simulated network driven by virtual time, and a real UDP transport.
//!
//! The ICDCS 2009 paper evaluates its synchronization algorithm between two
//! PCs bridged by a Linux box running the `netem` queueing discipline. This
//! crate replaces that hardware with software:
//!
//! * [`Transport`] — non-blocking unreliable datagrams (the UDP service
//!   contract of §3.1).
//! * [`NetemConfig`] / [`NetemChannel`] — per-packet delay, jitter,
//!   correlated loss, duplication, reordering, and a sender time slice.
//! * [`SimNetwork`] / [`SimSocket`] — a shared fabric of impaired links in
//!   virtual time, used by the experiment harness.
//! * [`UdpTransport`] — real sockets for live play.
//! * [`loopback`] — an in-process perfect link for tests.
//!
//! # Examples
//!
//! ```
//! use coplay_clock::{Clock, SimDuration, VirtualClock};
//! use coplay_net::{NetemConfig, PeerId, SimNetwork, Transport};
//!
//! // The paper's 140ms-RTT threshold condition: 70ms each way.
//! let clock = VirtualClock::new();
//! let net = SimNetwork::shared(clock.clone());
//! let cfg = NetemConfig::with_rtt(SimDuration::from_millis(140));
//! SimNetwork::link_pair(&net, PeerId(0), PeerId(1), cfg, 42);
//!
//! let mut site0 = SimNetwork::socket(&net, PeerId(0));
//! site0.send(PeerId(1), &[1, 2, 3])?;
//! assert_eq!(net.borrow_mut().next_delivery_time(),
//!            Some(clock.now() + SimDuration::from_millis(70)));
//! # Ok::<(), coplay_net::TransportError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout)]

pub mod bytes;
mod netem;
pub mod rng;
mod sim;
mod transport;
mod udp;

pub use netem::{ChannelStats, JitterDistribution, NetemChannel, NetemConfig, PacketFate};
pub use rng::DetRng;
pub use sim::{SimNetwork, SimSocket};
pub use transport::{loopback, LoopbackTransport, PeerId, Transport, TransportError};
pub use udp::UdpTransport;
