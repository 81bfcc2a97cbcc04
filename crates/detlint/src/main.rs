//! `detlint` — runs the coplay-lint suite (determinism, panic-path,
//! hot-alloc, waiver hygiene) over the workspace.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    // When run via `cargo run -p detlint`, the workspace root is two levels
    // above this crate's manifest.
    let default_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."));
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(detlint::cli::run(&args, &default_root))
}
