//! Shared plumbing for the paper-figure regeneration binaries.
//!
//! Every figure and extension experiment from DESIGN.md §4 has a binary in
//! `src/bin/`; they share the small argument parser and formatting helpers
//! here, and `hotpath` and `fleet` share the baseline guard ([`Guard`]).
//! Micro-benchmarks live in `benches/micro.rs`.

use std::path::{Path, PathBuf};

use coplay_sim::{ExperimentConfig, SweepRow};

/// Command-line options shared by the experiment binaries.
///
/// Usage: `<bin> [--frames N] [--seed N] [--threads N] [--quick]`.
/// `--quick` cuts the per-point frame count to 600 for fast smoke runs;
/// the paper's value is 3600 (one minute at 60 FPS). `--threads` caps the
/// sweep worker threads (0, the default, means one per core); thread
/// count never changes the output, only the wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Frames per experiment point.
    pub frames: u64,
    /// Master seed.
    pub seed: u64,
    /// Sweep worker threads; 0 = one per available core.
    pub threads: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            frames: 3600,
            seed: 0x0C05_01A1,
            threads: 0,
        }
    }
}

impl Options {
    /// Parses options from an iterator of arguments (excluding argv0).
    ///
    /// Unknown arguments are ignored so binaries can add their own.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Options {
        let mut opts = Options::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--frames" => {
                    if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                        opts.frames = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                        opts.seed = v;
                    }
                }
                "--threads" => {
                    if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                        opts.threads = v;
                    }
                }
                "--quick" => opts.frames = 600,
                _ => {}
            }
        }
        opts
    }

    /// Parses from the process environment.
    pub fn from_env() -> Options {
        Options::parse(std::env::args().skip(1))
    }

    /// Applies these options to an experiment config.
    pub fn apply(&self, mut cfg: ExperimentConfig) -> ExperimentConfig {
        cfg.frames = self.frames;
        cfg.seed = self.seed;
        cfg
    }

    /// The worker-thread count for parallel sweeps: the `--threads`
    /// override, or one per available core.
    pub fn sweep_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// Prints the standard experiment header.
pub fn banner(title: &str, opts: &Options) {
    println!("=== {title} ===");
    println!("frames/point: {}, seed: {:#x}", opts.frames, opts.seed);
    println!();
}

/// Formats an `f64` as a JSON number (`null` for non-finite values).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// Serialises a Figure-1 sweep as a machine-readable JSON document.
///
/// One object per swept point with the quantities behind the figure
/// (mean frame time, footnote-10 deviation, FPS, convergence), plus the
/// measured full-speed RTT threshold when one exists.
pub fn figure1_json(opts: &Options, rows: &[SweepRow], threshold_ms: Option<u64>) -> String {
    let mut out = String::from("{\n  \"figure\": \"fig1\",\n");
    out.push_str(&format!(
        "  \"frames\": {},\n  \"seed\": {},\n",
        opts.frames, opts.seed
    ));
    out.push_str(&format!(
        "  \"threshold_rtt_ms\": {},\n  \"rows\": [\n",
        threshold_ms.map_or("null".to_string(), |t| t.to_string())
    ));
    for (i, row) in rows.iter().enumerate() {
        let site = &row.result.sites[0];
        out.push_str(&format!(
            "    {{\"rtt_ms\": {}, \"frame_time_ms\": {}, \"deviation_ms\": {}, \
             \"fps\": {}, \"converged\": {}}}{}\n",
            row.rtt.as_millis(),
            json_num(site.mean_frame_time_ms),
            json_num(row.result.worst_deviation_ms()),
            json_num(site.fps()),
            row.result.converged,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Serialises a Figure-2 sweep as a machine-readable JSON document.
///
/// One object per swept point with the footnote-11 inter-site synchrony
/// and convergence flag.
pub fn figure2_json(opts: &Options, rows: &[SweepRow]) -> String {
    let mut out = String::from("{\n  \"figure\": \"fig2\",\n");
    out.push_str(&format!(
        "  \"frames\": {},\n  \"seed\": {},\n  \"rows\": [\n",
        opts.frames, opts.seed
    ));
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rtt_ms\": {}, \"synchrony_ms\": {}, \"converged\": {}}}{}\n",
            row.rtt.as_millis(),
            json_num(row.result.synchrony_ms),
            row.result.converged,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Serialises the lockstep-vs-rollback comparison sweep as a
/// machine-readable JSON document (`results/BENCH_rollback.json`).
///
/// `lockstep` and `rollback` must cover the same RTT points in the same
/// order. Each row carries both modes' pacing quality (mean frame time,
/// footnote-10 deviation, footnote-11 synchrony, input-wait stalls) plus
/// the rollback-only repair counters, so the trade can be read per point:
/// lockstep stretches frames past the local-lag budget, rollback holds the
/// nominal rate and pays in resimulated frames instead.
pub fn rollback_json(opts: &Options, lockstep: &[SweepRow], rollback: &[SweepRow]) -> String {
    assert_eq!(
        lockstep.len(),
        rollback.len(),
        "modes must sweep the same points"
    );
    let mut out = String::from("{\n  \"figure\": \"rollback\",\n");
    out.push_str(&format!(
        "  \"frames\": {},\n  \"seed\": {},\n  \"rows\": [\n",
        opts.frames, opts.seed
    ));
    for (i, (ls, rb)) in lockstep.iter().zip(rollback).enumerate() {
        assert_eq!(ls.rtt, rb.rtt, "modes must sweep the same points");
        let mode_common = |row: &SweepRow| {
            let site = &row.result.sites[0];
            let stalls: u64 = row
                .result
                .session_stats
                .iter()
                .map(|s| s.stalled_frames)
                .sum();
            format!(
                "\"frame_time_ms\": {}, \"deviation_ms\": {}, \"synchrony_ms\": {}, \
                 \"stalled_frames\": {}, \"converged\": {}",
                json_num(site.mean_frame_time_ms),
                json_num(row.result.worst_deviation_ms()),
                json_num(row.result.synchrony_ms),
                stalls,
                row.result.converged,
            )
        };
        let rollbacks: u64 = rb.result.session_stats.iter().map(|s| s.rollbacks).sum();
        let resim: u64 = rb
            .result
            .session_stats
            .iter()
            .map(|s| s.resimulated_frames)
            .sum();
        let depth = rb
            .result
            .session_stats
            .iter()
            .map(|s| s.max_rollback_depth)
            .max()
            .unwrap_or(0);
        out.push_str(&format!(
            "    {{\"rtt_ms\": {}, \"lockstep\": {{{}}}, \"rollback\": {{{}, \
             \"rollbacks\": {}, \"resimulated_frames\": {}, \"max_rollback_depth\": {}}}}}{}\n",
            ls.rtt.as_millis(),
            mode_common(ls),
            mode_common(rb),
            rollbacks,
            resim,
            depth,
            if i + 1 < lockstep.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `json` to `results/<file_name>`, creating the directory as
/// needed, and returns the written path.
///
/// # Errors
///
/// Propagates filesystem errors from creating the directory or writing.
pub fn write_results_json(file_name: &str, json: &str) -> std::io::Result<PathBuf> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file_name);
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Which direction of a guarded metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A cost: time per op, latency, drops.
    Lower,
    /// A throughput.
    Higher,
}

/// Extracts `key -> field` pairs from a results document written by a
/// bench binary. Hand-rolled like the writers: each entry sits on one line
/// shaped `{"key": "...", "<field>": N, ...}`; other lines are skipped.
pub fn parse_entries(json: &str, field: &str) -> Vec<(String, u64)> {
    let needle = format!("\"{field}\": ");
    let mut pairs = Vec::new();
    for line in json.lines() {
        let Some(key_at) = line.find("\"key\": \"") else {
            continue;
        };
        let rest = &line[key_at + 8..];
        let Some(key_end) = rest.find('"') else {
            continue;
        };
        let Some(v_at) = line.find(&needle) else {
            continue;
        };
        let digits: String = line[v_at + needle.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if let Ok(v) = digits.parse() {
            pairs.push((rest[..key_end].to_string(), v));
        }
    }
    pairs
}

/// Outcome of a [`Guard`] check. `regressions` fail the run; `speedups`
/// mean the baseline is stale — large improvements should be repinned so
/// the guard starts protecting them too.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Metrics more than the guard's factor worse than their baseline.
    pub regressions: usize,
    /// Metrics more than the guard's factor better than their baseline.
    pub speedups: usize,
}

/// The direction-aware perf-regression guard the bench binaries share.
#[derive(Debug, Clone, Copy)]
pub struct Guard {
    /// The entry field holding the guarded value (`ns_per_op`, `value`).
    pub field: &'static str,
    /// A metric worse than `factor` times its baseline is a regression.
    pub factor: u64,
    /// Absolute slack added to every threshold so near-zero baselines
    /// cannot trip the guard on noise alone.
    pub noise_floor: u64,
}

impl Guard {
    /// Compares fresh values against a baseline document, in both
    /// directions: a value worse than `factor`x its baseline (plus the
    /// noise floor) is a regression; one better by the same margin is a
    /// stale-baseline speedup. `better` gives each key's direction, or
    /// `None` for keys that are not guarded (size-of-run counts);
    /// `current` looks a key up in this run. Prints one verdict row per
    /// baseline entry.
    pub fn check(
        &self,
        baseline_json: &str,
        current: impl Fn(&str) -> Option<u64>,
        better: impl Fn(&str) -> Option<Better>,
    ) -> CheckOutcome {
        let baseline = parse_entries(baseline_json, self.field);
        let mut outcome = CheckOutcome::default();
        if baseline.is_empty() {
            eprintln!("baseline contains no entries; nothing to check");
            return outcome;
        }
        println!(
            "{:<28} {:>12} {:>12}  verdict",
            "key", "baseline", "current"
        );
        for (key, base) in &baseline {
            let Some(better) = better(key) else {
                continue;
            };
            let Some(cur) = current(key) else {
                println!("{key:<28} {base:>12} {:>12}  missing from this run", "-");
                continue;
            };
            let above = cur > base.saturating_mul(self.factor) + self.noise_floor;
            let below = cur.saturating_mul(self.factor) + self.noise_floor < *base;
            let (worse, faster) = match better {
                Better::Lower => (above, below),
                Better::Higher => (below, above),
            };
            let verdict = if worse {
                outcome.regressions += 1;
                "REGRESSION"
            } else if faster {
                outcome.speedups += 1;
                "FASTER (repin baseline)"
            } else {
                "ok"
            };
            println!("{key:<28} {base:>12} {cur:>12}  {verdict}");
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        assert_eq!(Options::default().frames, 3600);
    }

    #[test]
    fn parse_flags() {
        let o =
            Options::parse(["--frames", "100", "--seed", "7", "--threads", "3"].map(String::from));
        assert_eq!(o.frames, 100);
        assert_eq!(o.seed, 7);
        assert_eq!(o.threads, 3);
        assert_eq!(o.sweep_threads(), 3);
        assert!(Options::default().sweep_threads() >= 1);
    }

    #[test]
    fn quick_flag_shrinks_frames() {
        let o = Options::parse(["--quick".to_string()]);
        assert_eq!(o.frames, 600);
    }

    #[test]
    fn unknown_args_ignored() {
        let o = Options::parse(["--wat".to_string(), "--frames".into(), "9".into()]);
        assert_eq!(o.frames, 9);
    }

    #[test]
    fn apply_overrides_config() {
        let o = Options {
            frames: 42,
            seed: 9,
            threads: 0,
        };
        let cfg = o.apply(ExperimentConfig::default());
        assert_eq!(cfg.frames, 42);
        assert_eq!(cfg.seed, 9);
    }

    fn mini_rows(opts: &Options) -> Vec<SweepRow> {
        let base = opts.apply(ExperimentConfig {
            game: coplay_games::GameId::Pong,
            ..ExperimentConfig::default()
        });
        let points = [
            coplay_clock::SimDuration::ZERO,
            coplay_clock::SimDuration::from_millis(40),
        ];
        coplay_sim::run_sweep(&base, &points, |_, _| {}).unwrap()
    }

    #[test]
    fn figure1_json_is_well_formed() {
        let opts = Options {
            frames: 120,
            seed: 7,
            threads: 0,
        };
        let rows = mini_rows(&opts);
        let json = figure1_json(&opts, &rows, Some(40));
        assert!(json.contains("\"figure\": \"fig1\""));
        assert!(json.contains("\"threshold_rtt_ms\": 40"));
        assert!(json.contains("\"rtt_ms\": 0"));
        assert!(json.contains("\"rtt_ms\": 40"));
        assert!(json.contains("\"frame_time_ms\": "));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Exactly one row separator for two rows.
        assert_eq!(json.matches("},\n").count(), 1);
    }

    #[test]
    fn figure2_json_is_well_formed() {
        let opts = Options {
            frames: 120,
            seed: 7,
            threads: 0,
        };
        let rows = mini_rows(&opts);
        let json = figure2_json(&opts, &rows);
        assert!(json.contains("\"figure\": \"fig2\""));
        assert!(json.contains("\"synchrony_ms\": "));
        assert!(json.contains("\"converged\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn rollback_json_pairs_both_modes() {
        let opts = Options {
            frames: 120,
            seed: 7,
            threads: 0,
        };
        let lockstep = mini_rows(&opts);
        let base = opts.apply(ExperimentConfig {
            game: coplay_games::GameId::Pong,
            consistency: coplay_sync::ConsistencyMode::rollback(),
            ..ExperimentConfig::default()
        });
        let points = [
            coplay_clock::SimDuration::ZERO,
            coplay_clock::SimDuration::from_millis(40),
        ];
        let rollback = coplay_sim::run_sweep(&base, &points, |_, _| {}).unwrap();
        let json = rollback_json(&opts, &lockstep, &rollback);
        assert!(json.contains("\"figure\": \"rollback\""));
        assert!(json.contains("\"lockstep\": {"));
        assert!(json.contains("\"rollback\": {"));
        assert!(json.contains("\"rollbacks\": "));
        assert!(json.contains("\"max_rollback_depth\": "));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Two rows, each with two mode objects.
        assert_eq!(json.matches("\"rtt_ms\": ").count(), 2);
    }

    #[test]
    fn json_num_handles_non_finite() {
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert!(json_num(1.5).starts_with("1.5"));
    }

    /// The hotpath guard: every op is a cost, 2x plus a 200 ns floor.
    const NS_GUARD: Guard = Guard {
        field: "ns_per_op",
        factor: 2,
        noise_floor: 200,
    };

    fn check_ns(baseline: &str, current: &[(&str, u64)]) -> CheckOutcome {
        NS_GUARD.check(
            baseline,
            |k| current.iter().find(|c| c.0 == k).map(|c| c.1),
            |_| Some(Better::Lower),
        )
    }

    #[test]
    fn check_flags_only_real_regressions() {
        let baseline = r#"
    {"key": "a", "ns_per_op": 1000, "bytes_per_op": 0},
    {"key": "b", "ns_per_op": 10, "bytes_per_op": 0}
"#;
        // 2x + noise floor: 1000 -> limit 2200; 10 -> limit 220.
        let outcome = check_ns(baseline, &[("a", 2200), ("b", 200)]);
        assert_eq!(outcome, CheckOutcome::default());
        let outcome = check_ns(baseline, &[("a", 2201), ("b", 200)]);
        assert_eq!(outcome.regressions, 1);
        assert_eq!(outcome.speedups, 0);
    }

    #[test]
    fn check_warns_on_large_speedups_without_failing() {
        let baseline = r#"
    {"key": "a", "ns_per_op": 10000, "bytes_per_op": 0},
    {"key": "b", "ns_per_op": 10, "bytes_per_op": 0}
"#;
        // `a` at 2x-minus-noise-floor is a speedup (4899*2 + 200 < 10000);
        // `b` is tiny, so the noise floor keeps even a 10 -> 1 drop quiet.
        let outcome = check_ns(baseline, &[("a", 4899), ("b", 1)]);
        assert_eq!(outcome.regressions, 0);
        assert_eq!(outcome.speedups, 1);
    }

    #[test]
    fn throughput_regresses_downwards() {
        let guard = Guard {
            field: "value",
            factor: 2,
            noise_floor: 500,
        };
        let baseline = r#"{"key": "ops_per_sec", "value": 100000}"#;
        let check = |v: u64| guard.check(baseline, |_| Some(v), |_| Some(Better::Higher));
        assert_eq!(check(49_750).regressions, 0);
        assert_eq!(check(49_749).regressions, 1);
        assert_eq!(check(200_501).speedups, 1);
        assert_eq!(check(200_500), CheckOutcome::default());
        // Unguarded keys are skipped entirely.
        let skipped = guard.check(baseline, |_| Some(1), |_| None);
        assert_eq!(skipped, CheckOutcome::default());
    }

    #[test]
    fn parse_entries_reads_the_named_field() {
        let json = r#"
  "seed": 7,
    {"key": "x/op", "ns_per_op": 12, "bytes_per_op": 64},
    {"key": "sessions", "value": 64},
    {"key": "broken", "ns_per_op": -3}
"#;
        assert_eq!(
            parse_entries(json, "ns_per_op"),
            vec![("x/op".to_string(), 12)]
        );
        assert_eq!(
            parse_entries(json, "value"),
            vec![("sessions".to_string(), 64)]
        );
    }
}
