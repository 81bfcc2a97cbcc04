//! detlint — a determinism auditor for the coplay workspace.
//!
//! Lock-step replay (Algorithm 2's `SyncInput`) only converges if every
//! replica's simulation is bit-for-bit deterministic. One stray wall-clock
//! read, float operation, or `HashMap` iteration inside the deterministic
//! core silently diverges replicas — the dominant bug class in lock-step
//! systems. detlint statically fences that core: it tokenizes every
//! workspace `.rs` file with a lightweight hand-rolled lexer (no `syn`, no
//! dependencies) and enforces a per-path policy over five rules:
//!
//! | rule | forbids |
//! |------|---------|
//! | `wall_clock` | `Instant`, `SystemTime`, `UNIX_EPOCH` reads |
//! | `unordered_collections` | `HashMap`, `HashSet`, `RandomState` |
//! | `float` | `f32`/`f64` types and float literals |
//! | `entropy` | `rand::*`, `thread_rng`, `OsRng`, `getrandom` |
//! | `static_state` | `static mut` and interior-mutable statics |
//!
//! Grown into the **coplay-lint** suite, the same engine now also fences
//! the attack surface and the latency budget:
//!
//! | rule | forbids | where |
//! |------|---------|-------|
//! | `panic_path` | `unwrap`/`expect`, `panic!`-family, `*_unchecked` | wire, transport, rollback/vm hot paths |
//! | `unchecked_index` | slice indexing (`b[0]`, `&b[..n]`) | byte codecs |
//! | `hot_alloc` | `Vec::new`, `to_vec`, `clone`, `format!`, … | PR 4–5's zero-alloc modules |
//!
//! Wire-layout drift is not a lint: the golden datagrams in the root
//! `tests/wire_golden.rs` pin every message's bytes.
//!
//! Violations can only be waived in-line, with a reason:
//!
//! ```text
//! // detlint: allow(wall_clock) -- test harness measures real elapsed time
//! ```
//!
//! A malformed directive (unknown rule, missing `-- reason`) suppresses
//! nothing and is itself reported as `bad_suppression`; a well-formed
//! directive that suppresses nothing is reported as `stale_suppression`.

pub mod cli;
pub mod lexer;
pub mod policy;
pub mod report;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use report::Report;
use rules::lint_source_counted;

/// Top-level directories scanned under the workspace root.
const SCAN_DIRS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Lints every `.rs` file under `root`'s scanned directories, applying the
/// per-path policy from [`policy::rules_for`].
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for dir in SCAN_DIRS {
        let path = root.join(dir);
        if path.is_dir() {
            collect_rs_files(&path, &mut files)?;
        }
    }
    files.sort();

    let mut report = Report::default();
    for file in files {
        let rel = relative_slash_path(root, &file);
        let rules = policy::rules_for(&rel);
        if rules.is_empty() {
            continue;
        }
        let source = fs::read_to_string(&file)?;
        report.files_scanned += 1;
        let (diags, suppressed) = lint_source_counted(&rel, &source, &rules);
        report.diagnostics.extend(diags);
        report.suppressions += suppressed;
    }
    report
        .diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(report)
}

/// Recursively collects `.rs` files, in sorted order, skipping build output.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes, for policy lookup and
/// stable diagnostics across platforms.
fn relative_slash_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_paths_use_forward_slashes() {
        let root = Path::new("/ws");
        let file = Path::new("/ws/crates/vm/src/lib.rs");
        assert_eq!(relative_slash_path(root, file), "crates/vm/src/lib.rs");
    }
}
