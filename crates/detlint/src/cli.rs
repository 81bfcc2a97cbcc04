//! The lint suite's command-line driver, run by the `detlint` binary.
//!
//! One run executes every pass: the determinism rules, the panic-path and
//! allocation fences, waiver hygiene (`bad_suppression`/`stale_suppression`),
//! and the wire-schema extraction with its encode/decode symmetry check.
//! `--check-schema` additionally compares the extracted fingerprints against
//! the pinned lockfile; `--update-schema` rewrites it.

use std::path::{Path, PathBuf};

use crate::{lint_workspace, wire_schema};

const USAGE: &str = "coplay-lint — static analysis suite for the coplay workspace\n\n\
USAGE: detlint [--root <workspace>] [--json <report path>]\n\
               [--schema <lockfile>] [--check-schema | --update-schema]\n\n\
Passes:\n\
  determinism   wall clocks, unordered containers, floats, entropy,\n\
                mutable statics (per-path policy in src/policy.rs)\n\
  panic-path    unwrap/expect/panic!/unchecked-* in wire, transport,\n\
                and rollback/vm hot zones; slice indexing in byte codecs\n\
  hot-alloc     Vec::new/to_vec/clone/format!/Box::new in the modules\n\
                the perf PRs made alloc-free\n\
  waivers       malformed directives (bad_suppression) and waivers that\n\
                suppress nothing (stale_suppression)\n\
  wire-schema   extracts each codec's per-message op sequence, checks\n\
                encode/decode symmetry, fingerprints the layout\n\n\
Writes results/detlint.json; with --update-schema also writes the\n\
results/wire_schema.json lockfile; with --check-schema fails when the\n\
extracted fingerprint drifts from the lockfile without a VERSION bump.\n\
Exits 1 on any finding.";

/// Parsed command line.
struct Options {
    root: PathBuf,
    json_path: Option<PathBuf>,
    schema_path: Option<PathBuf>,
    check_schema: bool,
    update_schema: bool,
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
        schema_path: None,
        check_schema: false,
        update_schema: false,
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
            "--schema" => {
                let Some(v) = it.next() else {
                    eprintln!("coplay-lint: --schema needs a path");
                    return 2;
                };
                opts.schema_path = Some(PathBuf::from(v));
            }
            "--check-schema" => opts.check_schema = true,
            "--update-schema" => opts.update_schema = true,
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
    if opts.check_schema && opts.update_schema {
        eprintln!("coplay-lint: --check-schema and --update-schema are exclusive");
        return 2;
    }

    // Pass 1–4: the per-file rule passes.
    let mut report = match lint_workspace(&opts.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("coplay-lint: scan failed: {e}");
            return 2;
        }
    };

    // Pass 5: wire-schema extraction + symmetry.
    let schemas = match wire_schema::extract_workspace(&opts.root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("coplay-lint: wire-schema extraction failed: {e}");
            return 2;
        }
    };
    report
        .diagnostics
        .extend(schemas.diagnostics.iter().cloned());
    report
        .diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));

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

    let schema_path = opts
        .schema_path
        .unwrap_or_else(|| opts.root.join("results/wire_schema.json"));
    let mut schema_failed = false;
    if opts.update_schema {
        if let Some(parent) = schema_path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(&schema_path, wire_schema::to_json(&schemas.codecs)) {
            Ok(()) => println!(
                "coplay-lint: pinned {} codec schema(s) to {}",
                schemas.codecs.len(),
                schema_path.display()
            ),
            Err(e) => {
                eprintln!(
                    "coplay-lint: could not write {}: {e}",
                    schema_path.display()
                );
                return 2;
            }
        }
    } else if opts.check_schema {
        match std::fs::read_to_string(&schema_path) {
            Ok(pinned) => {
                for f in wire_schema::check_against(&schemas.codecs, &pinned) {
                    eprintln!("coplay-lint: schema drift: {f}");
                    schema_failed = true;
                }
            }
            Err(e) => {
                eprintln!(
                    "coplay-lint: cannot read lockfile {}: {e} (run --update-schema once)",
                    schema_path.display()
                );
                schema_failed = true;
            }
        }
    }

    println!(
        "coplay-lint: {} file(s) scanned, {} codec schema(s) extracted, \
         {} violation(s), {} suppression(s) honoured",
        report.files_scanned,
        schemas.codecs.len(),
        report.diagnostics.len(),
        report.suppressions
    );
    u8::from(!report.is_clean() || schema_failed)
}
