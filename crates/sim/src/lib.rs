//! Deterministic experiment harness for coplay: the paper's testbed in
//! virtual time.
//!
//! §4 of the reproduced paper measures two series over a Netem-bridged
//! two-PC testbed: per-site frame time and smoothness (Figure 1) and
//! inter-site synchrony via a LAN time server (Figure 2). This crate
//! replaces that hardware with a discrete-event simulation:
//!
//! * [`Testbed`] — the one event loop: prebuilt sessions of either policy
//!   over a [`coplay_net::SimNetwork`], ticked in virtual time, their
//!   confirmed hashes recorded.
//! * [`ExperimentConfig`] / [`Experiment`] — one run on a [`Testbed`]: N
//!   sites over impaired links, a measurement time server, seeded random
//!   players, per-frame replica-convergence checking.
//! * [`run_sweep`] / [`paper_rtt_points`] — the paper's RTT series
//!   (0–200 ms step 10, 200–400 ms step 50).
//! * [`metrics`] — the exact statistics of footnotes 10 and 11.
//!
//! Because everything (inputs, impairments, event order) derives from the
//! config's seed, every experiment is bit-for-bit reproducible.
//!
//! # Examples
//!
//! ```
//! use coplay_clock::SimDuration;
//! use coplay_games::GameId;
//! use coplay_sim::{run_experiment, ExperimentConfig};
//!
//! let mut cfg = ExperimentConfig::with_rtt(SimDuration::from_millis(40));
//! cfg.frames = 120; // quick doc run
//! cfg.game = GameId::Pong;
//! let result = run_experiment(cfg)?;
//! assert!(result.converged);
//! assert!((result.master_frame_time_ms() - 16.667).abs() < 1.0);
//! # Ok::<(), coplay_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stdout)]

mod experiment;
pub mod metrics;
mod sweep;
mod testbed;

pub use experiment::{
    run_experiment, Experiment, ExperimentConfig, ExperimentResult, SimError, FIRST_OBSERVER_SITE,
};
pub use metrics::SiteStats;
pub use sweep::{
    format_figure1, format_figure2, paper_rtt_points, run_sweep, threshold_rtt, SweepRow,
};
pub use testbed::{Site, Testbed};
