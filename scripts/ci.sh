#!/usr/bin/env bash
# Local CI: everything a change must pass before merging.
# Uses only the local toolchain — the workspace has no external deps and
# builds fully offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> coplay-lint (determinism + panic-path + hot-alloc audit)"
# All five passes: determinism, panic_path, unchecked_index, hot_alloc,
# and wire-schema extraction. Zero unwaived findings required; writes
# results/detlint.json for upload.
cargo run -q -p detlint --release

echo "==> coplay-lint --check-schema (wire drift vs results/wire_schema.json)"
# Fails when a codec's field layout changes without a VERSION bump.
# After an *intentional* wire change + version bump, re-pin with
# `cargo run -p detlint -- --update-schema` and commit the lockfile.
cargo run -q -p detlint --release -- --check-schema

echo "==> rollback netcode tests"
cargo test -q -p coplay-rollback

echo "==> rollback sweep smoke (writes results/BENCH_rollback.json)"
cargo run -q --release -p coplay-bench --bin rollback_sweep -- --quick

echo "==> hot-path smoke + perf-regression guard (2x vs checked-in baseline)"
cargo run -q --release -p coplay-bench --bin hotpath -- --quick --check results/hotpath_baseline.json

echo "==> tracescope smoke (cross-site span merge; fails if breakdown != e2e within 5%)"
cargo run -q --release -p coplay-bench --bin tracescope -- --quick
cargo run -q --release -p coplay-bench --bin tracescope -- --quick --rollback

echo "==> relay tests (routing core, wire codec, client adapter, UDP loop)"
cargo test -q -p coplay-relay

echo "==> e2e smoke (every workload 2 s over real UDP; fails if the replicas disagree)"
# e2e-bench is its own workspace, so the steps above never build or test it.
cargo test --release --manifest-path e2e-bench/Cargo.toml

echo "==> fleet smoke (64 sessions) + perf-regression guard (2x vs checked-in baseline)"
cargo run -q --release -p coplay-bench --bin fleet -- --quick --check results/fleet_baseline.json

echo "CI OK"
