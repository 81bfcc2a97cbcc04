//! Cross-site frame-lifecycle timeline merger and latency decomposition.
//!
//! Every input word leaves a causal span chain in its site's trace dump:
//! `sampled → encoded → sent` on the origin, `received → merged →
//! presented` (plus the rollback repair stages) on each consumer.
//! `tracescope` merges the per-site JSONL dumps of one session into a
//! single cross-site timeline keyed by `(origin site, frame)` and prints a
//! latency-breakdown table that telescopes the end-to-end path into
//! consecutive buckets:
//!
//! * **pacing** — `sent − sampled` on the origin: local-lag buffering plus
//!   the 20 ms outbound send pacing.
//! * **wire** — `received − sent`: the impaired network.
//! * **wait** — `merged − received` on the consumer, split into the share
//!   overlapping input stalls (**stall**) and the remainder (**lag**).
//! * **present** — `presented − merged` (zero under both policies today,
//!   kept so renderer-side delay is attributable when one appears).
//! * **resim** — `authoritative − presented`, where `authoritative` is the
//!   last time the frame was (re)executed; nonzero only when a rollback
//!   re-simulated the frame after its first presentation.
//!
//! Because the buckets are consecutive intervals of one chain, their sum
//! equals the measured end-to-end latency *exactly*; the final check
//! verifies this within 5% and the binary exits nonzero otherwise (or when
//! no chain could be assembled at all).
//!
//! Usage:
//!   `tracescope [--quick] [--frames N] [--seed N] [--rollback] [--show F]`
//!       runs a lossy two-site simulation with tracing on, dumps
//!       `results/trace-site{N}.jsonl`, and analyzes them.
//!   `tracescope <dump.jsonl> <dump.jsonl> ...`
//!       merges existing per-site dumps instead of simulating.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use coplay_bench::{write_results_json, Options};
use coplay_clock::SimDuration;
use coplay_games::GameId;
use coplay_sim::{run_experiment, ExperimentConfig};
use coplay_sync::ConsistencyMode;

/// One span record parsed back from a trace dump, tagged with the site
/// whose dump it came from.
#[derive(Debug, Clone)]
struct SpanRec {
    site: u8,
    t_us: u64,
    stage: String,
    frame: u64,
    peer: u8,
}

/// One site's parsed dump: identity header plus its spans and stalls.
#[derive(Debug, Default)]
struct SiteTrace {
    session: u64,
    site: u8,
    dropped_spans: u64,
    spans: Vec<SpanRec>,
    /// Stall intervals `(begin_us, end_us)` reconstructed from `stall_end`
    /// events (which carry their duration).
    stalls: Vec<(u64, u64)>,
}

/// Extracts the integer following `"key":` in a single JSON line. The dump
/// format is flat (no nesting, numeric fields unquoted), so a line scan is
/// sufficient — same approach as hotpath's baseline parser.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the string following `"key":"` in a single JSON line.
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// Parses one per-site trace dump (header line + event lines).
fn parse_trace(text: &str) -> Option<SiteTrace> {
    let mut t = SiteTrace::default();
    let mut saw_meta = false;
    for line in text.lines() {
        let Some(event) = json_str(line, "event") else {
            continue;
        };
        match event {
            "trace_meta" => {
                t.session = json_u64(line, "session")?;
                t.site = json_u64(line, "site")? as u8;
                t.dropped_spans = json_u64(line, "dropped_spans").unwrap_or(0);
                saw_meta = true;
            }
            "span" => {
                t.spans.push(SpanRec {
                    site: t.site,
                    t_us: json_u64(line, "t_us")?,
                    stage: json_str(line, "stage")?.to_string(),
                    frame: json_u64(line, "frame")?,
                    peer: json_u64(line, "peer")? as u8,
                });
            }
            "stall_end" => {
                let end = json_u64(line, "t_us")?;
                let dur = json_u64(line, "duration_us")?;
                t.stalls.push((end.saturating_sub(dur), end));
            }
            _ => {}
        }
    }
    saw_meta.then_some(t)
}

/// One assembled cross-site chain: input sampled at `origin`, consumed at
/// `dest`. All timestamps in microseconds of the shared session clock.
#[derive(Debug)]
struct Chain {
    origin: u8,
    dest: u8,
    frame: u64,
    sampled: u64,
    sent: u64,
    received: u64,
    merged: u64,
    presented: u64,
    /// Last (re)execution: `presented`, or the final `resimulated` span.
    authoritative: u64,
}

impl Chain {
    fn end_to_end(&self) -> u64 {
        self.authoritative.saturating_sub(self.sampled)
    }
}

/// Microseconds of `[a, b]` overlapped by any stall interval.
fn stall_overlap(stalls: &[(u64, u64)], a: u64, b: u64) -> u64 {
    stalls
        .iter()
        .map(|&(s, e)| e.min(b).saturating_sub(s.max(a)))
        .sum()
}

/// Assembles cross-site chains from the merged per-site traces: for every
/// (origin, frame) pair sent to a remote consumer, the first time each
/// stage was reached on the relevant site.
fn build_chains(traces: &[SiteTrace]) -> Vec<Chain> {
    // (site, frame) → stage → earliest/latest times.
    let mut first: BTreeMap<(u8, u64, &str), u64> = BTreeMap::new();
    let mut last: BTreeMap<(u8, u64, &str), u64> = BTreeMap::new();
    for t in traces {
        for s in &t.spans {
            let key = (s.site, s.frame, s.stage.as_str());
            first.entry(key).or_insert(s.t_us);
            last.insert(key, s.t_us);
        }
    }
    let mut chains = Vec::new();
    for origin in traces {
        for dest in traces {
            if dest.site == origin.site {
                continue;
            }
            // Frames the origin sent toward this destination.
            let sent_frames: BTreeMap<u64, u64> = origin
                .spans
                .iter()
                .filter(|s| s.stage == "sent" && s.peer == dest.site)
                .map(|s| (s.frame, s.t_us))
                .collect();
            for (&frame, &sent) in &sent_frames {
                let Some(&sampled) = first.get(&(origin.site, frame, "sampled")) else {
                    continue;
                };
                let Some(&received) = first.get(&(dest.site, frame, "received")) else {
                    continue;
                };
                let Some(&merged) = first.get(&(dest.site, frame, "merged")) else {
                    continue;
                };
                let Some(&presented) = first.get(&(dest.site, frame, "presented")) else {
                    continue;
                };
                let resim = last.get(&(dest.site, frame, "resimulated")).copied();
                chains.push(Chain {
                    origin: origin.site,
                    dest: dest.site,
                    frame,
                    sampled,
                    sent,
                    received,
                    merged,
                    presented,
                    authoritative: resim.map_or(presented, |r| r.max(presented)),
                });
            }
        }
    }
    chains
}

/// Mean of an iterator of microsecond quantities, as fractional ms.
fn mean_ms(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<u64>() as f64 / values.len() as f64 / 1000.0
}

fn print_frame(traces: &[SiteTrace], frame: u64) {
    println!("--- frame {frame} timeline (all sites, time-ordered) ---");
    let mut rows: Vec<&SpanRec> = traces
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.frame == frame)
        .collect();
    rows.sort_by_key(|s| s.t_us);
    for s in rows {
        println!(
            "  {:>10.3} ms  site {}  {:<20} peer {}",
            s.t_us as f64 / 1000.0,
            s.site,
            s.stage,
            s.peer
        );
    }
    println!();
}

fn run_sim(opts: &Options, rollback: bool) -> Result<Vec<String>, String> {
    let cfg = ExperimentConfig {
        game: GameId::Pong,
        rtt: SimDuration::from_millis(150),
        jitter: SimDuration::from_millis(10),
        loss: 0.05,
        trace: true,
        forensics_root: Some("results/forensics".into()),
        consistency: if rollback {
            ConsistencyMode::rollback()
        } else {
            ConsistencyMode::Lockstep
        },
        ..opts.apply(ExperimentConfig::default())
    };
    let result = run_experiment(cfg).map_err(|e| e.to_string())?;
    let mut dumps = Vec::new();
    std::fs::create_dir_all("results").map_err(|e| e.to_string())?;
    for (i, tel) in result.telemetry.iter().enumerate() {
        let text = tel.trace_jsonl();
        let path = format!("results/trace-site{i}.jsonl");
        std::fs::write(&path, &text).map_err(|e| e.to_string())?;
        println!("wrote {path} ({} lines)", text.lines().count());
        dumps.push(text);
    }
    println!();
    Ok(dumps)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = Options::parse(args.clone());
    let rollback = args.iter().any(|a| a == "--rollback");
    let show: Option<u64> = args
        .iter()
        .position(|a| a == "--show")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    let files: Vec<&String> = args
        .iter()
        .filter(|a| !a.starts_with("--") && a.parse::<u64>().is_err())
        .collect();

    let dumps: Vec<String> = if files.is_empty() {
        match run_sim(&opts, rollback) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("tracescope: simulation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let mut d = Vec::new();
        for f in &files {
            match std::fs::read_to_string(f) {
                Ok(text) => d.push(text),
                Err(e) => {
                    eprintln!("tracescope: cannot read {f}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        d
    };

    let traces: Vec<SiteTrace> = dumps.iter().filter_map(|d| parse_trace(d)).collect();
    if traces.is_empty() {
        eprintln!("tracescope: no trace_meta header found in any dump");
        return ExitCode::FAILURE;
    }
    let session = traces[0].session;
    if traces.iter().any(|t| t.session != session) {
        eprintln!("tracescope: dumps are from different sessions");
        return ExitCode::FAILURE;
    }
    println!(
        "session {session:#x}: {} site dump(s), {} spans total",
        traces.len(),
        traces.iter().map(|t| t.spans.len()).sum::<usize>()
    );
    for t in &traces {
        if t.dropped_spans > 0 {
            println!(
                "  warning: site {} ring evicted {} spans — timeline has holes",
                t.site, t.dropped_spans
            );
        }
    }

    if let Some(f) = show {
        print_frame(&traces, f);
    }

    let chains = build_chains(&traces);
    if chains.is_empty() {
        eprintln!("tracescope: no cross-site chain could be assembled");
        return ExitCode::FAILURE;
    }

    // Per-direction breakdown.
    let stalls_of = |site: u8| {
        traces
            .iter()
            .find(|t| t.site == site)
            .map(|t| t.stalls.as_slice())
            .unwrap_or(&[])
    };
    let mut directions: BTreeMap<(u8, u8), Vec<&Chain>> = BTreeMap::new();
    for c in &chains {
        directions.entry((c.origin, c.dest)).or_default().push(c);
    }
    println!(
        "{:<12} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "direction", "chains", "pacing", "wire", "lag", "stall", "present", "resim", "end-to-end"
    );
    let mut total_sum_us: u64 = 0;
    let mut total_e2e_us: u64 = 0;
    let mut rows_json = Vec::new();
    for ((origin, dest), cs) in &directions {
        let stalls = stalls_of(*dest);
        let first_frame = cs.iter().map(|c| c.frame).min().unwrap_or(0);
        let last_frame = cs.iter().map(|c| c.frame).max().unwrap_or(0);
        let pacing: Vec<u64> = cs.iter().map(|c| c.sent - c.sampled).collect();
        let wire: Vec<u64> = cs
            .iter()
            .map(|c| c.received.saturating_sub(c.sent))
            .collect();
        let wait: Vec<u64> = cs
            .iter()
            .map(|c| c.merged.saturating_sub(c.received))
            .collect();
        let stall: Vec<u64> = cs
            .iter()
            .map(|c| stall_overlap(stalls, c.received, c.merged))
            .collect();
        let lag: Vec<u64> = wait
            .iter()
            .zip(&stall)
            .map(|(w, s)| w.saturating_sub(*s))
            .collect();
        let present: Vec<u64> = cs.iter().map(|c| c.presented - c.merged).collect();
        let resim: Vec<u64> = cs.iter().map(|c| c.authoritative - c.presented).collect();
        let e2e: Vec<u64> = cs.iter().map(|c| c.end_to_end()).collect();
        total_sum_us += pacing.iter().sum::<u64>()
            + wire.iter().sum::<u64>()
            + wait.iter().sum::<u64>()
            + present.iter().sum::<u64>()
            + resim.iter().sum::<u64>();
        total_e2e_us += e2e.iter().sum::<u64>();
        println!(
            "{origin} -> {dest:<7} {:>7} {:>8.2}m {:>8.2}m {:>8.2}m {:>8.2}m {:>8.2}m {:>8.2}m {:>9.2}m",
            cs.len(),
            mean_ms(&pacing),
            mean_ms(&wire),
            mean_ms(&lag),
            mean_ms(&stall),
            mean_ms(&present),
            mean_ms(&resim),
            mean_ms(&e2e),
        );
        rows_json.push(format!(
            "    {{\"origin\": {origin}, \"dest\": {dest}, \"chains\": {}, \
             \"first_frame\": {first_frame}, \"last_frame\": {last_frame}, \
             \"pacing_ms\": {:.3}, \"wire_ms\": {:.3}, \"lag_ms\": {:.3}, \
             \"stall_ms\": {:.3}, \"present_ms\": {:.3}, \"resim_ms\": {:.3}, \
             \"end_to_end_ms\": {:.3}}}",
            cs.len(),
            mean_ms(&pacing),
            mean_ms(&wire),
            mean_ms(&lag),
            mean_ms(&stall),
            mean_ms(&present),
            mean_ms(&resim),
            mean_ms(&e2e),
        ));
    }
    println!();

    // The buckets telescope, so their sum must reproduce the measured
    // end-to-end latency. Tolerate 5% for rounding/clamping.
    let diff = total_sum_us.abs_diff(total_e2e_us) as f64;
    let ok = total_e2e_us > 0 && diff / total_e2e_us as f64 <= 0.05;
    println!(
        "breakdown sum {:.2} ms vs end-to-end {:.2} ms over {} chains: {}",
        total_sum_us as f64 / 1000.0,
        total_e2e_us as f64 / 1000.0,
        chains.len(),
        if ok { "PASS (within 5%)" } else { "FAIL" }
    );

    let json = format!(
        "{{\n  \"figure\": \"tracescope\",\n  \"session\": {session},\n  \
         \"chains\": {},\n  \"sum_us\": {total_sum_us},\n  \"end_to_end_us\": {total_e2e_us},\n  \
         \"within_5pct\": {ok},\n  \"rows\": [\n{}\n  ]\n}}\n",
        chains.len(),
        rows_json.join(",\n"),
    );
    match write_results_json("tracescope.json", &json) {
        Ok(path) => println!("wrote {}", Path::new(&path).display()),
        Err(e) => eprintln!("warning: could not write tracescope.json: {e}"),
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
