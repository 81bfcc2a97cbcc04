//! Time substrate for coplay: integer time types, clock abstractions, a
//! deterministic discrete-event queue, and the measurement time server used
//! by the paper's evaluation.
//!
//! The ICDCS 2009 paper this workspace reproduces ("An Approach to Sharing
//! Legacy TV/Arcade Games for Real-Time Collaboration") measures frame pacing
//! and inter-site synchrony under emulated network conditions. Everything in
//! this crate exists to make those measurements *deterministic*:
//!
//! * [`SimTime`]/[`SimDuration`]/[`SimDelta`] — microsecond integer time, so
//!   protocol arithmetic is identical in simulation and production.
//! * [`Clock`] — the trait the sync algorithms are written against, with a
//!   shared [`VirtualClock`] for simulation and a monotonic [`SystemClock`]
//!   for live play.
//! * [`EventQueue`] — `(time, seq)`-ordered event dispatch for the
//!   discrete-event simulator.
//! * [`TimeServer`] — the paper's third-machine measurement server (§4).
//!
//! # Examples
//!
//! ```
//! use coplay_clock::{Clock, EventQueue, SimDuration, SimTime, VirtualClock};
//!
//! let clock = VirtualClock::new();
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::from_millis(16), "frame 1");
//! queue.schedule(SimTime::from_millis(33), "frame 2");
//!
//! while let Some((at, what)) = queue.pop() {
//!     clock.set(at);
//!     let _ = what;
//! }
//! assert_eq!(clock.now(), SimTime::from_millis(33));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::print_stdout)]

mod clock;
mod queue;
mod time;
mod timeserver;

pub use clock::{Clock, SystemClock, VirtualClock};
pub use queue::{EventId, EventQueue};
pub use time::{SimDelta, SimDuration, SimTime};
pub use timeserver::TimeServer;
