//! **coplay-rollback** — re-exports of the rollback pieces of
//! `coplay-sync`.
//!
//! Rollback is no longer a separate driver: [`RollbackSession`] is
//! `coplay_sync::Session` under the `Speculative` consistency policy, and
//! the predictor and checkpoint ring live beside it in `coplay-sync`. This
//! crate keeps the paths the wall-clock benchmark under `e2e-bench/`
//! imports, which that benchmark pins; it goes away once the benchmark
//! imports them from `coplay-sync`. New code should use `coplay-sync`
//! directly.

#![warn(missing_docs)]

pub use coplay_sync::{CheckpointReport, InputPredictor, RollbackSession, SnapshotRing};
