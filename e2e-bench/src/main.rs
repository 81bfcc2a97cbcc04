//! `e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Plays one workload for about `--seconds`, checks that the replicas
//! agree, prints `workload metric value unit` for every metric and, as the
//! last line, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics of untraced sessions;
//! `--trace 1` reports per-layer metrics from a traced session and writes
//! its spans under `target/e2e-trace/`. Exits 1 if any check failed.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use coplay_e2e_bench::metrics::{end_to_end, per_layer, verify, Metric, Verdict};
use coplay_e2e_bench::session::{mix, run_session, Workload, WORKLOADS};
use coplay_e2e_bench::trace::{breakdown, write_dumps, SUM_TOLERANCE};

/// Length of one session of an untraced run, s. Each session draws its own
/// relative phase between the sites (send pacing, thread placement), which
/// moves retransmissions, wake-ups and the latency tail; a run plays one
/// session per `SESSION_SECONDS` so that no single draw sets its result,
/// and reports medians over them. Two seconds hold 120 paced frames, the
/// fewest whose latency p95 has ten samples beyond it.
const SESSION_SECONDS: u64 = 2;

/// A run still going after this long has hung; it is killed so the
/// benchmark always exits.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required: {}", names.join(", ")))?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// Runs the workload; returns the verdict and the metrics to report.
fn measure(a: &Args) -> Result<(Verdict, Vec<Metric>), String> {
    let w = a.workload;
    if a.trace {
        // Half the run untraced, for the tracing overhead; half traced.
        let frames = w.frames(a.seconds) / 2;
        let untraced = run_session(w, a.seed, frames, false)?;
        let traced = run_session(w, a.seed, frames, true)?;
        let mut verdict = verify(&w, &untraced, frames);
        verdict.add(verify(&w, &traced, frames));
        let merged = breakdown(&traced.sites);
        match merged {
            Some(b) if b.sum_error_pct <= SUM_TOLERANCE * 100.0 => {}
            Some(b) => verdict.problems.push(format!(
                "trace stages sum {:.2}% away from end to end",
                b.sum_error_pct
            )),
            None => verdict
                .problems
                .push("no cross-site trace chain assembled".into()),
        }
        let dir = Path::new("target/e2e-trace");
        write_dumps(dir, w.name, a.seed, &traced.sites)
            .map_err(|e| format!("writing {}: {e}", dir.display()))?;
        let dropped: u64 = traced.sites.iter().map(|s| s.log.dropped_spans).sum();
        eprintln!(
            "trace dumps written to {} ({dropped} spans past the buffer not written)",
            dir.display()
        );
        Ok((verdict, per_layer(&w, &traced, &untraced, merged)))
    } else {
        let sessions = (a.seconds / SESSION_SECONDS).max(1);
        let frames = w.frames(a.seconds) / sessions;
        let mut verdict = Verdict::default();
        let mut runs = Vec::new();
        for i in 0..sessions {
            let run = run_session(w, mix(a.seed, i), frames, false)?;
            verdict.add(verify(&w, &run, frames));
            runs.push(run);
        }
        Ok((verdict, end_to_end(&w, &runs)))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("e2e: no result after {}s, giving up", WATCHDOG.as_secs());
        std::process::exit(3);
    });
    let (verdict, metrics) = match measure(&a) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &verdict.problems {
        eprintln!("e2e: {p}");
    }
    let mut json = Vec::new();
    for metric in &metrics {
        let shown = metric
            .value
            .map_or("n/a".to_string(), |v| format!("{v:.4}"));
        println!(
            "{} {} {shown} {}",
            a.workload.name, metric.name, metric.unit
        );
        match metric.value {
            Some(v) if v.is_finite() => json.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            )),
            _ => eprintln!("e2e: {} not reported (run too short)", metric.name),
        }
    }
    let correct = verdict.failed == 0 && verdict.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.attempted,
        verdict.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
