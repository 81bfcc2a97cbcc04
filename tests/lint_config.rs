//! The lint configuration the determinism fence rests on.
//!
//! Clippy reads the nearest clippy.toml and does not merge files, so each
//! core crate (vm, games, sync) carries its own copy of the root lists
//! plus the core bans. The workspace has no registry dependency, so no
//! third-party crate can bring in an entropy source or a clock.

use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn lock_file_names_no_registry_package() {
    let lock = read("Cargo.lock");
    let sourced: Vec<&str> = lock
        .lines()
        .filter(|l| l.trim_start().starts_with("source ="))
        .collect();
    assert!(sourced.is_empty(), "registry packages: {sourced:?}");
}

#[test]
fn core_clippy_configs_are_one_file_holding_every_root_entry() {
    let core = read("crates/vm/clippy.toml");
    for other in ["crates/games/clippy.toml", "crates/sync/clippy.toml"] {
        assert!(
            read(other) == core,
            "{other} differs from crates/vm/clippy.toml"
        );
    }
    let core_lines: Vec<&str> = core.lines().collect();
    for line in read("clippy.toml").lines() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        assert!(
            core_lines.contains(&line),
            "crates/vm/clippy.toml lacks the root entry `{line}`"
        );
    }
}
