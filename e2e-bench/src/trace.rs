//! The traced run's artifacts: tracescope's telescoping latency breakdown
//! computed on real-time flight-recorder dumps, and the dump files.
//!
//! `run_realtime` builds one `SystemClock` per site, so each site's
//! telemetry stamps count from a different origin. Every span is rebased
//! onto the run epoch with the site's clock offset before sites are merged.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use coplay_clock::SimTime;
use coplay_telemetry::{Event, EventKind};

use crate::session::SiteRun;

/// Largest relative gap tolerated between the summed stages and the
/// measured end-to-end latency (tracescope's rule).
pub const SUM_TOLERANCE: f64 = 0.05;

/// Mean per-chain latency of each stage of the input path, in ms.
///
/// A chain runs sampled → sent → received → merged → presented → last
/// (re-)execution. Under lockstep these stamps are in order and the first
/// five stages are tracescope's buckets. Under rollback a correctly
/// predicted frame is presented before its input arrives; each later stamp
/// is therefore taken no earlier than the one before it, and the time by
/// which presentation beat arrival is its own, negative, stage. The stages
/// then telescope to the end-to-end latency exactly; only pacing or wire
/// intervals clamped at zero by misaligned site clocks break the sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct Breakdown {
    /// Chains assembled.
    pub chains: usize,
    /// Local lag buffering plus send pacing on the origin.
    pub pacing_ms: f64,
    /// Socket to socket, through any relay or shim.
    pub wire_ms: f64,
    /// Waiting at the consumer outside input stalls.
    pub lag_ms: f64,
    /// Waiting at the consumer inside input stalls.
    pub stall_ms: f64,
    /// From merge to presentation.
    pub present_ms: f64,
    /// From presentation to the last re-execution.
    pub resim_ms: f64,
    /// How much earlier than the input's arrival a speculative frame was
    /// last executed (zero or negative).
    pub prediction_lead_ms: f64,
    /// Sampled to last execution.
    pub end_to_end_ms: f64,
    /// `|Σ stages − end to end| / end to end`, in percent.
    pub sum_error_pct: f64,
}

/// `t` on a site's runner clock, moved onto the run epoch.
fn on_epoch(site: &SiteRun, t: SimTime) -> SimTime {
    let us = t.as_micros() as i64 + site.clock_offset_ns() / 1000;
    SimTime::from_micros(us.max(0) as u64)
}

/// One site's spans `(stage, frame, peer, µs)` and stall intervals on the
/// run epoch.
struct Rebased {
    site: u8,
    spans: Vec<(&'static str, u64, u8, i64)>,
    stalls: Vec<(i64, i64)>,
}

fn rebase(site: &SiteRun) -> Rebased {
    let at = |t: SimTime| on_epoch(site, t).as_micros() as i64;
    let mut out = Rebased {
        site: site.site,
        spans: Vec::new(),
        stalls: Vec::new(),
    };
    for e in site.telemetry.events() {
        match e.kind {
            EventKind::Span { stage, frame, peer } => {
                out.spans.push((stage.name(), frame, peer, at(e.at)));
            }
            EventKind::StallEnd { duration, .. } => {
                let end = at(e.at);
                out.stalls.push((end - duration.as_micros() as i64, end));
            }
            _ => {}
        }
    }
    out
}

fn stall_overlap(stalls: &[(i64, i64)], a: i64, b: i64) -> i64 {
    stalls
        .iter()
        .map(|&(s, e)| (e.min(b) - s.max(a)).max(0))
        .sum()
}

/// Merges the sites' traces into cross-site chains, one per input word
/// sent from one site to another, and averages each stage over them.
/// `None` when no chain could be assembled.
pub fn breakdown(sites: &[SiteRun]) -> Option<Breakdown> {
    let traces: Vec<Rebased> = sites.iter().map(rebase).collect();
    let mut first: BTreeMap<(u8, u64, &str), i64> = BTreeMap::new();
    let mut last: BTreeMap<(u8, u64, &str), i64> = BTreeMap::new();
    for t in &traces {
        for &(stage, frame, _, at) in &t.spans {
            first.entry((t.site, frame, stage)).or_insert(at);
            last.insert((t.site, frame, stage), at);
        }
    }
    let mut sums = [0i64; 8];
    let mut chains = 0usize;
    for origin in &traces {
        for dest in traces.iter().filter(|d| d.site != origin.site) {
            let sent = origin
                .spans
                .iter()
                .filter(|s| s.0 == "sent" && s.2 == dest.site)
                .map(|s| (s.1, s.3));
            for (frame, sent) in sent.collect::<BTreeMap<_, _>>() {
                let get = |site: u8, stage: &str| first.get(&(site, frame, stage)).copied();
                let (Some(sampled), Some(received), Some(merged), Some(presented)) = (
                    get(origin.site, "sampled"),
                    get(dest.site, "received"),
                    get(dest.site, "merged"),
                    get(dest.site, "presented"),
                ) else {
                    continue;
                };
                let executed = last
                    .get(&(dest.site, frame, "resimulated"))
                    .map_or(presented, |&r| r.max(presented));
                let merged_at = merged.max(received);
                let presented_at = presented.max(merged_at);
                let executed_at = executed.max(presented_at);
                let wait = merged_at - received;
                let stall = stall_overlap(&dest.stalls, received, merged_at).min(wait);
                let stages = [
                    (sent - sampled).max(0),
                    (received - sent).max(0),
                    wait - stall,
                    stall,
                    presented_at - merged_at,
                    executed_at - presented_at,
                    executed - executed_at,
                    executed - sampled,
                ];
                for (sum, v) in sums.iter_mut().zip(stages) {
                    *sum += v;
                }
                chains += 1;
            }
        }
    }
    if chains == 0 {
        return None;
    }
    let ms = |us: i64| us as f64 / chains as f64 / 1000.0;
    let stage_sum: i64 = sums[..7].iter().sum();
    let e2e = sums[7];
    Some(Breakdown {
        chains,
        pacing_ms: ms(sums[0]),
        wire_ms: ms(sums[1]),
        lag_ms: ms(sums[2]),
        stall_ms: ms(sums[3]),
        present_ms: ms(sums[4]),
        resim_ms: ms(sums[5]),
        prediction_lead_ms: ms(sums[6]),
        end_to_end_ms: ms(e2e),
        sum_error_pct: if e2e <= 0 {
            100.0
        } else {
            (stage_sum - e2e).abs() as f64 / e2e as f64 * 100.0
        },
    })
}

/// Writes the traced run's artifacts under `dir`:
/// * `<workload>.jsonl` — the wrappers' spans, `{name, site, id, parent,
///   frame, start_ns, end_ns}` per line (at most [`SPAN_CAPACITY`](crate::probe::SPAN_CAPACITY) per site);
/// * `<workload>-site<N>.jsonl` — each site's flight recorder in
///   `trace_jsonl` format with every stamp rebased onto the run epoch, so
///   `tracescope <dump> <dump>` merges them directly.
///
/// # Errors
///
/// Filesystem errors.
pub fn write_dumps(
    dir: &Path,
    workload: &str,
    session: u64,
    sites: &[SiteRun],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut spans = String::new();
    for s in sites {
        for (id, span) in s.log.spans.iter().enumerate() {
            let parent = match span.parent {
                u32::MAX => "null".to_string(),
                p => p.to_string(),
            };
            let _ = writeln!(
                spans,
                "{{\"name\":\"{}\",\"site\":{},\"id\":{id},\"parent\":{parent},\"frame\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.layer.name(),
                s.site,
                span.frame,
                span.start_ns,
                span.end_ns,
            );
        }
        let mut dump = format!(
            "{{\"event\":\"trace_meta\",\"session\":{session},\"site\":{},\"dropped_events\":{},\"dropped_spans\":{}}}\n",
            s.site,
            s.telemetry.dropped_events(),
            s.telemetry.dropped_spans(),
        );
        for e in s.telemetry.events() {
            let at = on_epoch(s, e.at);
            Event { at, kind: e.kind }.write_json(&mut dump);
            dump.push('\n');
        }
        std::fs::write(dir.join(format!("{workload}-site{}.jsonl", s.site)), dump)?;
    }
    std::fs::write(dir.join(format!("{workload}.jsonl")), spans)
}
