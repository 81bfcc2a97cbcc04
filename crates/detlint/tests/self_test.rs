//! Self-tests: each seeded fixture is caught by its intended rule, the
//! suppressed fixture is not, and the real workspace scans clean.

use std::path::{Path, PathBuf};

use detlint::rules::{lint_source, Rule};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn lint_fixture_with(name: &str, rules: &[Rule]) -> Vec<(u32, &'static str)> {
    lint_source(name, &fixture(name), rules)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

/// The determinism fixtures predate the panic/alloc zones and unwrap
/// freely; they are linted with the fence they seed violations for.
fn lint_fixture(name: &str) -> Vec<(u32, &'static str)> {
    lint_fixture_with(name, &Rule::DETERMINISM)
}

#[test]
fn wall_clock_fixture_is_caught() {
    let hits = lint_fixture("wall_clock.rs");
    assert!(
        hits.len() >= 3,
        "expected several clock reads, got {hits:?}"
    );
    assert!(hits.iter().all(|(_, r)| *r == "wall_clock"), "{hits:?}");
    // The Duration-only helper spans lines 16-19 and must be untouched.
    assert!(hits.iter().all(|(l, _)| *l < 16), "{hits:?}");
}

#[test]
fn unordered_fixture_is_caught() {
    let hits = lint_fixture("unordered.rs");
    assert!(hits.len() >= 2, "{hits:?}");
    assert!(
        hits.iter().all(|(_, r)| *r == "unordered_collections"),
        "{hits:?}"
    );
    // The BTree-only struct spans lines 12-15 and must be untouched.
    assert!(hits.iter().all(|(l, _)| *l < 12), "{hits:?}");
}

#[test]
fn float_fixture_is_caught() {
    let hits = lint_fixture("float.rs");
    assert!(hits.len() >= 3, "{hits:?}");
    assert!(hits.iter().all(|(_, r)| *r == "float"), "{hits:?}");
    // Ranges, integer method calls, and hex must not trip it: the
    // integer-only helper starts at line 14.
    assert!(hits.iter().all(|(l, _)| *l < 14), "{hits:?}");
}

#[test]
fn entropy_fixture_is_caught() {
    let hits = lint_fixture("entropy.rs");
    assert!(hits.len() >= 2, "{hits:?}");
    assert!(hits.iter().all(|(_, r)| *r == "entropy"), "{hits:?}");
    // The local variable named `rand` (lines 15-18) must be untouched.
    assert!(hits.iter().all(|(l, _)| *l < 15), "{hits:?}");
}

#[test]
fn static_state_fixture_is_caught() {
    let hits = lint_fixture("static_state.rs");
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert!(hits.iter().all(|(_, r)| *r == "static_state"), "{hits:?}");
    // Immutable static and 'static lifetimes (lines 9+) must be untouched.
    assert!(hits.iter().all(|(l, _)| *l < 9), "{hits:?}");
}

#[test]
fn suppressed_fixture_reports_nothing() {
    let hits = lint_fixture("suppressed.rs");
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn bad_suppressions_are_reported_and_do_not_suppress() {
    let hits = lint_fixture("bad_suppression.rs");
    let bad = hits.iter().filter(|(_, r)| *r == "bad_suppression").count();
    assert_eq!(bad, 3, "three malformed directives: {hits:?}");
    // The reasonless and unknown-rule waivers must not silence the
    // violations beneath them.
    assert!(hits.iter().any(|(_, r)| *r == "wall_clock"), "{hits:?}");
    assert!(hits.iter().any(|(_, r)| *r == "float"), "{hits:?}");
}

#[test]
fn panic_path_fixture_is_caught() {
    let hits = lint_fixture_with("panic_path.rs", &[Rule::PanicPath]);
    assert!(hits.len() >= 5, "unwrap/expect/macros/unchecked: {hits:?}");
    assert!(hits.iter().all(|(_, r)| *r == "panic_path"), "{hits:?}");
    // Asserts, fn definitions (line 25+), the waived unwrap, and the
    // cfg(test) module must all be untouched.
    assert!(hits.iter().all(|(l, _)| *l < 25), "{hits:?}");
}

#[test]
fn unchecked_index_fixture_is_caught() {
    let hits = lint_fixture_with("unchecked_index.rs", &[Rule::UncheckedIndex]);
    assert_eq!(hits.len(), 3, "b[0], &b[..n], pairs[0]: {hits:?}");
    assert!(
        hits.iter().all(|(_, r)| *r == "unchecked_index"),
        "{hits:?}"
    );
    // Attributes, array types/literals, vec!, and slice patterns (line 18+)
    // must be untouched.
    assert!(hits.iter().all(|(l, _)| *l < 18), "{hits:?}");
}

#[test]
fn hot_alloc_fixture_is_caught() {
    let hits = lint_fixture_with("hot_alloc.rs", &[Rule::HotAlloc]);
    assert_eq!(hits.len(), 6, "six allocation sites: {hits:?}");
    assert!(hits.iter().all(|(_, r)| *r == "hot_alloc"), "{hits:?}");
    // Buffer reuse and the waived constructor (line 28+) must be untouched.
    assert!(hits.iter().all(|(l, _)| *l < 28), "{hits:?}");
}

#[test]
fn fused_dispatch_fixture_is_caught() {
    let hits = lint_fixture_with("fused_dispatch.rs", &[Rule::PanicPath, Rule::HotAlloc]);
    let alloc = hits.iter().filter(|(_, r)| *r == "hot_alloc").count();
    let panics = hits.iter().filter(|(_, r)| *r == "panic_path").count();
    assert_eq!(alloc, 2, "to_vec + Vec::new in the fill: {hits:?}");
    assert_eq!(panics, 3, "unwrap/expect/unreachable in dispatch: {hits:?}");
    // The reusing fill, the assert, and the waived decode expect (line 21+)
    // must all be untouched.
    assert!(hits.iter().all(|(l, _)| *l < 21), "{hits:?}");
}

#[test]
fn stale_suppression_fixture_is_caught() {
    let hits = lint_fixture("stale_suppression.rs");
    assert_eq!(hits, vec![(4, "stale_suppression")], "{hits:?}");
}

#[test]
fn workspace_is_clean() {
    // Regression gate: the real workspace must stay free of determinism
    // hazards. Mirrors the CI `cargo run -p detlint` step.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().unwrap();
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found at {}",
        root.display()
    );
    let report = detlint::lint_workspace(&root).unwrap();
    assert!(report.files_scanned > 30, "suspiciously few files scanned");
    assert!(
        report.is_clean(),
        "workspace has determinism violations:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn fixtures_are_excluded_from_workspace_scan() {
    // The seeded violations above must never fail the workspace gate.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let report = detlint::lint_workspace(&root).unwrap();
    assert!(report
        .diagnostics
        .iter()
        .all(|d| !Path::new(&d.file).starts_with("crates/detlint")));
}
