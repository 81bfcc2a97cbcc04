//! In-band observability for coplay lockstep sessions.
//!
//! The paper's evaluation measures frame pacing and inter-site synchrony
//! from an *external* time server; an operator of a real netplay service
//! needs the same signals *in band*. This crate provides three layers,
//! all free of external dependencies:
//!
//! 1. A **flight recorder** ([`FlightRecorder`]) — a fixed-capacity ring
//!    buffer of compact [`SimTime`](coplay_clock::SimTime)-stamped
//!    [`Event`]s (frame begun/executed, stall begin/end, input message
//!    sent/received, pace adjustment, RTT sample, join/snapshot, desync)
//!    that can be dumped as JSONL for post-mortem analysis.
//! 2. A **metrics registry** ([`MetricsRegistry`]) — counters, gauges and
//!    log-bucketed [`Histogram`]s with p50/p95/p99 accessors.
//! 3. **Exporters** — a JSONL snapshot writer and a Prometheus-style text
//!    exposition (a plain `String`, no HTTP anywhere).
//! 4. **Frame-lifecycle tracing** — causal [`SpanStage`] chains for every
//!    input word (sampled → encoded → sent → received → merged →
//!    confirmed, plus the rollback repair stages), recorded into the same
//!    flight-recorder ring under `(session, site, frame)` correlation
//!    keys. Tracing is opt-in per handle ([`Telemetry::tracing`]); when
//!    off, [`Telemetry::span`] is a branch on a local bool.
//! 5. **Black-box forensics** ([`forensics`]) — anomaly-triggered
//!    postmortem bundles (flight-recorder tail, metrics, caller-supplied
//!    artifacts) dumped to a directory.
//!
//! The [`Telemetry`] handle ties the layers together. It is a cheap
//! clonable reference; the default (disabled) handle is a no-op sink
//! whose hot path is a single `Option` check with no allocation, so it
//! can be threaded through every layer of the stack unconditionally.
//!
//! ```
//! use coplay_clock::{SimDuration, SimTime};
//! use coplay_telemetry::{EventKind, Telemetry};
//!
//! let tel = Telemetry::recording();
//! tel.record(
//!     SimTime::from_millis(16),
//!     EventKind::FrameExecuted { frame: 0, frame_time: SimDuration::from_millis(16) },
//! );
//! assert_eq!(tel.event_count(), 1);
//! assert_eq!(tel.percentile("frame_time_us", 0.5), Some(16_000));
//! assert!(tel.prometheus().contains("coplay_frame_time_us{quantile=\"0.5\"}"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::print_stdout)]

mod event;
pub mod forensics;
mod handle;
mod metrics;
mod recorder;
mod span;

pub use event::{Event, EventKind};
pub use handle::Telemetry;
pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::FlightRecorder;
pub use span::SpanStage;
