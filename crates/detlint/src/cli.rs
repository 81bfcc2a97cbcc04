//! The lint suite's command-line driver, run by the `detlint` binary.
//!
//! One run executes every pass: the determinism rules, the panic-path and
//! allocation fences, and waiver hygiene (`bad_suppression`/`stale_suppression`).

use std::path::{Path, PathBuf};

use crate::lint_workspace;

const USAGE: &str = "coplay-lint — static analysis suite for the coplay workspace\n\n\
USAGE: detlint [--root <workspace>] [--json <report path>]\n\n\
Passes:\n\
  determinism   wall clocks, unordered containers, floats, entropy,\n\
                mutable statics (per-path policy in src/policy.rs)\n\
  panic-path    unwrap/expect/panic!/unchecked-* in wire, transport,\n\
                and rollback/vm hot zones; slice indexing in byte codecs\n\
  hot-alloc     Vec::new/to_vec/clone/format!/Box::new in the modules\n\
                the perf PRs made alloc-free\n\
  waivers       malformed directives (bad_suppression) and waivers that\n\
                suppress nothing (stale_suppression)\n\n\
Writes results/detlint.json. Exits 1 on any finding.";

/// Parsed command line.
struct Options {
    root: PathBuf,
    json_path: Option<PathBuf>,
}

/// Runs the suite; returns the process exit code.
///
/// `args` excludes the program name. `default_root` is the workspace root
/// to use when `--root` is absent (the binaries pass their compile-time
/// manifest-relative root).
pub fn run(args: &[String], default_root: &Path) -> u8 {
    let mut opts = Options {
        root: default_root.to_path_buf(),
        json_path: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let Some(v) = it.next() else {
                    eprintln!("coplay-lint: --root needs a path");
                    return 2;
                };
                opts.root = PathBuf::from(v);
            }
            "--json" => {
                let Some(v) = it.next() else {
                    eprintln!("coplay-lint: --json needs a path");
                    return 2;
                };
                opts.json_path = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other => {
                eprintln!("coplay-lint: unknown argument `{other}` (try --help)");
                return 2;
            }
        }
    }

    let report = match lint_workspace(&opts.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("coplay-lint: scan failed: {e}");
            return 2;
        }
    };

    for d in &report.diagnostics {
        println!("{d}");
    }

    let json_path = opts
        .json_path
        .unwrap_or_else(|| opts.root.join("results/detlint.json"));
    if let Some(parent) = json_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&json_path, report.to_json()) {
        eprintln!("coplay-lint: could not write {}: {e}", json_path.display());
    }

    println!(
        "coplay-lint: {} file(s) scanned, {} violation(s), {} suppression(s) honoured",
        report.files_scanned,
        report.diagnostics.len(),
        report.suppressions
    );
    u8::from(!report.is_clean())
}
