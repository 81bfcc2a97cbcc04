//! The per-path policy table: which rules apply to which workspace files.
//!
//! Paths are workspace-relative with forward slashes. The table mirrors the
//! architecture's determinism boundary:
//!
//! | area | wall_clock | unordered | float | entropy | static_state |
//! |------|-----------|-----------|-------|---------|--------------|
//! | `crates/vm`, `crates/games` | ✓ | ✓ | ✓ | ✓ | ✓ |
//! | `crates/sync` (state paths) | ✓ | ✓ | ✓ | ✓ | ✓ |
//! | `crates/rollback` (re-exports) | ✓ | ✓ | ✓ | ✓ | ✓ |
//! | `crates/sync/src/{rtt,stats}.rs` | ✓ | – | – | ✓ | ✓ |
//! | `crates/clock`, `crates/net` | – | – | – | ✓* | – |
//! | everything else scanned | ✓† | – | – | ✓ | – |
//!
//! \* `crates/net/src/rng.rs` itself is exempt from `entropy` (it is the
//! sanctioned randomness source). † tests, examples, and the
//! experiment binaries in `crates/bench/src/bin/` may read real clocks —
//! they drive and time the system, they are not inside it.
//!
//! On top of the determinism fence sit two attack/latency zones:
//!
//! | zone | panic_path | unchecked_index | hot_alloc |
//! |------|-----------|-----------------|-----------|
//! | wire codecs (`net/bytes`, `lobby/wire`, `sync/wire`, `relay/wire`) | ✓ | ✓ | – |
//! | transport (`net/{udp,sim,transport,netem}`, `lobby/{server,client,lib}`, `relay/{server,client,udp,lib}`) | ✓ | – | – |
//! | hot path (`sync/{session,consistency,snapshot,predict,sync_input}`, `vm/{cpu,console,audio,dirty}`, `relay/server`) | ✓ | – | ✓‡ |
//!
//! ‡ `hot_alloc` applies to exactly the modules PRs 4–5 made alloc-free
//! plus the relay's per-datagram fan-out, the frame-step path headless
//! resimulation runs through, and the dirty-page bitmap every checkpoint
//! and rollback walks:
//! `sync/{session,consistency,snapshot,sync_input}.rs`,
//! `vm/{cpu,console,audio,dirty}.rs`, `relay/src/server.rs`.
//! Wire/transport code must be
//! panic-free on arbitrary bytes (typed errors only); hot-path panics and
//! constructor allocations carry `allow(...) -- <reason>` waivers.
//! `#[cfg(test)]` regions are exempt from the zone rules but not the
//! determinism rules.

use crate::rules::Rule;

/// Files whose decode paths read attacker-controlled bytes: indexing is
/// banned outright — length errors must surface as `Truncated`.
fn wire_codec(rel: &str) -> bool {
    matches!(
        rel,
        "crates/net/src/bytes.rs"
            | "crates/lobby/src/wire.rs"
            | "crates/sync/src/wire.rs"
            | "crates/relay/src/wire.rs"
    )
}

/// Network-facing modules that must not panic on anything a socket or a
/// lobby peer can hand them (the codecs above are also in this set).
fn transport_zone(rel: &str) -> bool {
    wire_codec(rel)
        || matches!(
            rel,
            "crates/net/src/udp.rs"
                | "crates/net/src/sim.rs"
                | "crates/net/src/transport.rs"
                | "crates/net/src/netem.rs"
                | "crates/lobby/src/server.rs"
                | "crates/lobby/src/client.rs"
                | "crates/lobby/src/lib.rs"
                | "crates/relay/src/server.rs"
                | "crates/relay/src/client.rs"
                | "crates/relay/src/udp.rs"
                | "crates/relay/src/lib.rs"
        )
}

/// The session/rollback/VM latency-critical modules: panics need waivers
/// here. `console.rs` and `audio.rs` joined when headless resimulation put
/// the whole frame-step path (bus dispatch, audio register advance) inside
/// the repair loop's per-frame budget.
fn hot_panic_zone(rel: &str) -> bool {
    matches!(
        rel,
        "crates/sync/src/session.rs"
            | "crates/sync/src/consistency.rs"
            | "crates/sync/src/snapshot.rs"
            | "crates/sync/src/predict.rs"
            | "crates/sync/src/sync_input.rs"
            | "crates/vm/src/cpu.rs"
            | "crates/vm/src/console.rs"
            | "crates/vm/src/audio.rs"
            | "crates/vm/src/dirty.rs"
    )
}

/// The steady-state zero-alloc modules (PR 4–5's perf work), fenced so the
/// invariant is enforced statically rather than by bench drift alone.
fn hot_alloc_zone(rel: &str) -> bool {
    matches!(
        rel,
        "crates/sync/src/session.rs"
            | "crates/sync/src/consistency.rs"
            | "crates/sync/src/snapshot.rs"
            | "crates/vm/src/cpu.rs"
            | "crates/vm/src/console.rs"
            | "crates/vm/src/audio.rs"
            | "crates/vm/src/dirty.rs"
            | "crates/sync/src/sync_input.rs"
            | "crates/relay/src/server.rs"
    )
}

/// Returns the rules to enforce on `rel`, a workspace-relative path using
/// forward slashes. An empty vector means the file is not audited.
pub fn rules_for(rel: &str) -> Vec<Rule> {
    // The auditor does not audit itself: its fixtures and trigger tables
    // are violations by design.
    if rel.starts_with("crates/detlint/") {
        return Vec::new();
    }

    let mut rules = Vec::new();

    // Entropy is banned everywhere except the one sanctioned source.
    if rel != "crates/net/src/rng.rs" {
        rules.push(Rule::Entropy);
    }

    // Rollback resimulates state, so it sits inside the same fence as the
    // machines it replays: any nondeterminism there silently corrupts the
    // repaired timeline.
    let deterministic_core = rel.starts_with("crates/vm/")
        || rel.starts_with("crates/games/")
        || rel.starts_with("crates/rollback/");
    let sync_crate = rel.starts_with("crates/sync/");
    // Pacing and measurement modules feed send scheduling and reporting,
    // never simulation state; floats and unordered maps are fine there.
    let sync_measurement = rel == "crates/sync/src/rtt.rs" || rel == "crates/sync/src/stats.rs";

    if deterministic_core || sync_crate {
        rules.push(Rule::WallClock);
        rules.push(Rule::StaticState);
        if !sync_measurement {
            rules.push(Rule::UnorderedCollections);
            rules.push(Rule::Float);
        }
    } else {
        // Clock and net own the real-time boundary; the experiment/hotpath
        // binaries time themselves.
        let clock_exempt = rel.starts_with("crates/clock/")
            || rel.starts_with("crates/net/")
            || rel.starts_with("crates/bench/src/bin/")
            // The relay's socket loop and binary serve live clients on the
            // wall clock; the sans-io core stays fenced.
            || rel == "crates/relay/src/udp.rs"
            || rel.starts_with("crates/relay/src/bin/")
            || rel.starts_with("tests/")
            || rel.starts_with("examples/");
        if !clock_exempt {
            rules.push(Rule::WallClock);
        }
    }

    // The panic/alloc zones stack on top of whatever determinism fence the
    // path already carries.
    if transport_zone(rel) || hot_panic_zone(rel) {
        rules.push(Rule::PanicPath);
    }
    if wire_codec(rel) {
        rules.push(Rule::UncheckedIndex);
    }
    if hot_alloc_zone(rel) {
        rules.push(Rule::HotAlloc);
    }

    rules.sort();
    rules
}

#[cfg(test)]
mod tests {
    use super::*;

    fn has(rel: &str, rule: Rule) -> bool {
        rules_for(rel).contains(&rule)
    }

    #[test]
    fn core_gets_everything() {
        for rel in [
            "crates/vm/src/machine.rs",
            "crates/vm/src/cpu.rs",
            "crates/games/src/pong.rs",
            "crates/sync/src/session.rs",
            "crates/sync/src/consistency.rs",
            "crates/sync/src/snapshot.rs",
        ] {
            let rules = rules_for(rel);
            for r in Rule::DETERMINISM {
                assert!(rules.contains(&r), "{rel} missing {r:?}");
            }
        }
    }

    #[test]
    fn sync_measurement_modules_may_use_floats_and_maps() {
        for rel in ["crates/sync/src/rtt.rs", "crates/sync/src/stats.rs"] {
            assert!(!has(rel, Rule::Float), "{rel}");
            assert!(!has(rel, Rule::UnorderedCollections), "{rel}");
            assert!(has(rel, Rule::WallClock), "{rel}");
            assert!(has(rel, Rule::Entropy), "{rel}");
        }
        // But the sync engine itself is fully fenced.
        assert!(has("crates/sync/src/sync.rs", Rule::Float));
        assert!(has("crates/sync/src/sync.rs", Rule::UnorderedCollections));
    }

    #[test]
    fn clock_and_net_may_read_clocks() {
        assert!(!has("crates/clock/src/clock.rs", Rule::WallClock));
        assert!(!has("crates/net/src/udp.rs", Rule::WallClock));
        // But the lobby and telemetry may not.
        assert!(has("crates/lobby/src/client.rs", Rule::WallClock));
        assert!(has("crates/telemetry/src/recorder.rs", Rule::WallClock));
    }

    #[test]
    fn rng_module_is_the_entropy_exemption() {
        assert!(!has("crates/net/src/rng.rs", Rule::Entropy));
        assert!(has("crates/net/src/netem.rs", Rule::Entropy));
        assert!(has("tests/properties.rs", Rule::Entropy));
    }

    #[test]
    fn harness_code_may_time_itself() {
        assert!(!has("tests/convergence.rs", Rule::WallClock));
        assert!(!has("examples/headless.rs", Rule::WallClock));
        assert!(!has("crates/bench/src/bin/hotpath.rs", Rule::WallClock));
        // The bench library proper still may not.
        assert!(has("crates/bench/src/lib.rs", Rule::WallClock));
    }

    #[test]
    fn wire_codecs_are_panic_and_index_fenced() {
        for rel in [
            "crates/net/src/bytes.rs",
            "crates/lobby/src/wire.rs",
            "crates/sync/src/wire.rs",
            "crates/relay/src/wire.rs",
        ] {
            assert!(has(rel, Rule::PanicPath), "{rel}");
            assert!(has(rel, Rule::UncheckedIndex), "{rel}");
            assert!(!has(rel, Rule::HotAlloc), "{rel}");
        }
    }

    #[test]
    fn transport_is_panic_fenced_but_may_index() {
        for rel in [
            "crates/net/src/udp.rs",
            "crates/net/src/sim.rs",
            "crates/net/src/transport.rs",
            "crates/lobby/src/server.rs",
            "crates/lobby/src/client.rs",
            "crates/relay/src/server.rs",
            "crates/relay/src/client.rs",
            "crates/relay/src/udp.rs",
        ] {
            assert!(has(rel, Rule::PanicPath), "{rel}");
            assert!(!has(rel, Rule::UncheckedIndex), "{rel}");
        }
    }

    #[test]
    fn relay_zones_match_the_lobby_pattern() {
        // The routing core is both panic- and alloc-fenced (the fan-out is
        // the per-datagram hot path), and sans-io: no wall clock.
        assert!(has("crates/relay/src/server.rs", Rule::HotAlloc));
        assert!(has("crates/relay/src/server.rs", Rule::WallClock));
        assert!(!has("crates/relay/src/wire.rs", Rule::HotAlloc));
        // The socket loop and binary serve live clients on the wall clock.
        assert!(!has("crates/relay/src/udp.rs", Rule::WallClock));
        assert!(!has("crates/relay/src/bin/relay.rs", Rule::WallClock));
        assert!(has("crates/relay/src/client.rs", Rule::WallClock));
        // The fleet load-generator times itself like the other bench bins.
        assert!(!has("crates/bench/src/bin/fleet.rs", Rule::WallClock));
    }

    #[test]
    fn hot_path_modules_carry_the_alloc_fence() {
        for rel in [
            "crates/sync/src/session.rs",
            "crates/sync/src/consistency.rs",
            "crates/sync/src/snapshot.rs",
            "crates/vm/src/cpu.rs",
            "crates/vm/src/console.rs",
            "crates/vm/src/audio.rs",
            "crates/vm/src/dirty.rs",
            "crates/sync/src/sync_input.rs",
        ] {
            assert!(has(rel, Rule::PanicPath), "{rel}");
            assert!(has(rel, Rule::HotAlloc), "{rel}");
        }
        // The rollback predictor is panic-fenced but not alloc-fenced, and
        // the VM's assembler/framebuffer are outside both zones.
        assert!(has("crates/sync/src/predict.rs", Rule::PanicPath));
        assert!(!has("crates/sync/src/predict.rs", Rule::HotAlloc));
        assert!(!has("crates/vm/src/assembler.rs", Rule::PanicPath));
        assert!(!has("crates/vm/src/assembler.rs", Rule::HotAlloc));
    }

    #[test]
    fn detlint_is_not_audited() {
        assert!(rules_for("crates/detlint/src/rules.rs").is_empty());
        assert!(rules_for("crates/detlint/tests/fixtures/float.rs").is_empty());
    }
}
