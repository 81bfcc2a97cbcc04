//! What a run reports: the correctness verdict, the end-to-end metrics of
//! an untraced run and the per-layer metrics of a traced one.

use std::collections::BTreeMap;

use coplay_sync::RunOutcome;

use crate::probe::{peak_rss_kib, Layer, MISSING};
use crate::session::{SessionRun, SiteRun, Workload};
use crate::stats::{mean, mean_abs_deviation, median, percentile, ratio};
use crate::trace::Breakdown;

/// One reported number. `value` is `None` when the run was too short to
/// support it (a tail percentile without ten samples beyond it).
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: Option<f64>,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: Some(value),
    }
}

fn opt(name: &'static str, unit: &'static str, value: Option<f64>) -> Metric {
    Metric { name, unit, value }
}

/// The outcome of checking one session's replicas against each other.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Site-frames attempted.
    pub attempted: u64,
    /// Site-frames that were not executed, have no confirmed state hash,
    /// disagree with the other site's hash, or ran on input that differs
    /// from what the sites sampled.
    pub failed: u64,
    /// Human-readable reasons, for the log.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Folds another session's verdict into this one.
    pub fn add(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

fn confirmed(site: &SiteRun, frames: usize) -> Vec<Option<u64>> {
    let mut out = vec![None; frames];
    for &(frame, hash) in &site.hashes {
        if let Some(slot) = out.get_mut(frame as usize) {
            *slot = Some(hash);
        }
    }
    out
}

/// Checks every frame of a `frames`-frame session at every site: it ran,
/// its confirmed hash matches the other sites', and the input it last ran
/// on carries each site's sample from `buf_frames` earlier.
pub fn verify(workload: &Workload, run: &SessionRun, frames: u64) -> Verdict {
    let cfg = workload.config(0);
    let buf = cfg.buf_frames as usize;
    let n = frames as usize;
    let mut v = Verdict {
        attempted: frames * run.sites.len() as u64,
        ..Verdict::default()
    };
    let hashes: Vec<Vec<Option<u64>>> = run.sites.iter().map(|s| confirmed(s, n)).collect();
    for (i, site) in run.sites.iter().enumerate() {
        if site.outcome != RunOutcome::FrameLimit {
            v.problems
                .push(format!("site {i} ended with {:?}", site.outcome));
        }
        let mut first_bad = None;
        for f in 0..n {
            let ran = site.log.executed_ns.get(f).is_some_and(|&t| t != MISSING);
            let agrees = hashes[i][f].is_some() && hashes.iter().all(|h| h[f] == hashes[i][f]);
            let input = site.log.executed_input.get(f).copied().unwrap_or_default();
            let inputs_ok = run.sites.iter().all(|origin| {
                let expected = match f.checked_sub(buf) {
                    Some(t) => origin.log.sampled.get(t).copied().unwrap_or_default(),
                    None => Default::default(),
                };
                cfg.port_map.partial_input(origin.site, input)
                    == cfg.port_map.partial_input(origin.site, expected)
            });
            if !(ran && agrees && inputs_ok) {
                v.failed += 1;
                first_bad.get_or_insert((f, ran, agrees, inputs_ok));
            }
        }
        if let Some((f, ran, agrees, inputs_ok)) = first_bad {
            v.problems.push(format!(
                "site {i}: first failed frame {f} (executed {ran}, hash agrees {agrees}, input ok {inputs_ok})"
            ));
        }
    }
    v
}

fn sites(runs: &[SessionRun]) -> impl Iterator<Item = &SiteRun> {
    runs.iter().flat_map(|r| &r.sites)
}

fn frames(runs: &[SessionRun]) -> f64 {
    sites(runs).map(|s| s.stats.frames).sum::<u64>() as f64
}

/// Input-to-present latencies in ms: from `sample(t)` returning at one site
/// to the last execution of frame `t + buf_frames` at another.
fn input_to_present_ms(workload: &Workload, runs: &[SessionRun]) -> Vec<f64> {
    let buf = workload.config(0).buf_frames as usize;
    let mut out = Vec::new();
    for run in runs {
        for origin in &run.sites {
            for dest in run.sites.iter().filter(|d| d.site != origin.site) {
                for (t, &start) in origin.log.sampled_ns.iter().enumerate() {
                    match dest.log.executed_ns.get(t + buf) {
                        Some(&end) if start != MISSING && end != MISSING => {
                            out.push(end.saturating_sub(start) as f64 / 1e6);
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    out
}

/// Each session's `q`-quantile of input-to-present latency, median over the
/// sessions; `None` if a session is too short for it. A tail pooled over
/// the sessions is set by the worst of them — the slave's drift inside the
/// sync dead zone at 60 FPS, a host preemption at 2000 FPS — which is the
/// host's draw more than the program's.
fn session_median_latency_ms(workload: &Workload, runs: &[SessionRun], q: f64) -> Option<f64> {
    let tails = runs
        .iter()
        .map(|r| percentile(&input_to_present_ms(workload, std::slice::from_ref(r)), q))
        .collect::<Option<Vec<f64>>>()?;
    Some(median(&tails))
}

/// Mean frame period of each site, µs, from the runner's frame-begin stamps.
fn mean_periods_us(runs: &[SessionRun]) -> Vec<f64> {
    sites(runs)
        .filter(|s| s.began_us.len() > 1)
        .map(|s| {
            let span = s.began_us[s.began_us.len() - 1] - s.began_us[0];
            span as f64 / (s.began_us.len() - 1) as f64
        })
        .collect()
}

fn nominal_period_us(workload: &Workload) -> f64 {
    1e6 / f64::from(workload.config(0).cfps)
}

fn cpu_ns(runs: &[SessionRun]) -> f64 {
    let threads: u64 = sites(runs).map(|s| s.cpu_ns).sum::<u64>()
        + runs
            .iter()
            .filter_map(|r| r.relay)
            .map(|r| r.cpu_ns)
            .sum::<u64>();
    threads as f64
}

fn stall_frames_per_kframe(runs: &[SessionRun]) -> f64 {
    let stalled = sites(runs)
        .flat_map(|s| &s.stall_us)
        .filter(|&&d| d > 0)
        .count();
    ratio(stalled as f64 * 1000.0, frames(runs))
}

fn corrected_frames_per_kframe(runs: &[SessionRun]) -> f64 {
    let resim: u64 = sites(runs).map(|s| s.stats.resimulated_frames).sum();
    ratio(resim as f64 * 1000.0, frames(runs))
}

fn pace_error_pct(workload: &Workload, runs: &[SessionRun]) -> f64 {
    let nominal = nominal_period_us(workload);
    (mean(&mean_periods_us(runs)) - nominal).abs() / nominal * 100.0
}

/// The end-to-end metrics of the untraced sessions of one run, pooled.
///
/// All of them hold still when the shared host speeds up or slows down.
/// CPU time does not — it drifts by up to 30 % within minutes on a 2-vCPU
/// VM — so it is a per-layer metric.
pub fn end_to_end(workload: &Workload, runs: &[SessionRun]) -> Vec<Metric> {
    let latency = input_to_present_ms(workload, runs);
    let n = frames(runs);
    let wire_bytes: u64 = sites(runs).map(|s| s.log.wire.sent_bytes).sum();
    let setups_s: Vec<f64> = runs.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    vec![
        m("setup_s", "s", median(&setups_s)),
        m(
            "frames_per_s",
            "frames/s",
            ratio(1e6, mean(&mean_periods_us(runs))),
        ),
        opt("input_to_present_ms_p50", "ms", percentile(&latency, 0.50)),
        opt(
            "input_to_present_ms_p95",
            "ms",
            session_median_latency_ms(workload, runs, 0.95),
        ),
        m("wire_bytes_per_frame", "B", ratio(wire_bytes as f64, n)),
    ]
}

/// Calls into `layer` and their summed self time, ns, over every site.
fn layer(runs: &[SessionRun], layer: Layer) -> (f64, f64) {
    let (calls, self_ns) = sites(runs).fold((0, 0), |(c, t), s| {
        let l = s.log.layer(layer);
        (c + l.calls, t + l.self_ns)
    });
    (calls as f64, self_ns as f64)
}

fn sum(runs: &[SessionRun], f: impl Fn(&SiteRun) -> u64) -> f64 {
    sites(runs).map(f).sum::<u64>() as f64
}

/// Delivery latencies in ms: each datagram a session received, matched by
/// payload to the latest identical datagram the other site sent before it.
fn delivery_ms(run: &SessionRun) -> Vec<f64> {
    let mut out = Vec::new();
    for origin in &run.sites {
        let mut sent: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for &(hash, at) in &origin.log.sent_payloads {
            sent.entry(hash).or_default().push(at);
        }
        for dest in run.sites.iter().filter(|d| d.site != origin.site) {
            for &(hash, at) in &dest.log.received_payloads {
                let times = sent.get(&hash).map_or(&[][..], Vec::as_slice);
                let i = times.partition_point(|&t| t <= at);
                if i > 0 {
                    out.push((at - times[i - 1]) as f64 / 1e6);
                }
            }
        }
    }
    out
}

/// Footnote 11: mean `|start₀(f) − start₁(f)|` over frames both sites ran,
/// on the shared run clock, in ms.
fn offset_ms(run: &SessionRun) -> f64 {
    let [a, b] = &run.sites[..] else {
        return 0.0;
    };
    let start = |s: &SiteRun, f: usize| s.began_us[f] as i64 * 1000 + s.clock_offset_ns();
    let n = a.began_us.len().min(b.began_us.len());
    let offsets: Vec<f64> = (0..n)
        .map(|f| (start(a, f) - start(b, f)).abs() as f64 / 1e6)
        .collect();
    mean(&offsets)
}

/// The per-layer metrics of a traced session. `untraced` is the same
/// workload and seed run with tracing off, for the tracing overhead.
pub fn per_layer(
    workload: &Workload,
    traced: &SessionRun,
    untraced: &SessionRun,
    breakdown: Option<Breakdown>,
) -> Vec<Metric> {
    let runs = std::slice::from_ref(traced);
    let n = frames(runs);
    let per_frame_us = |ns: f64| ratio(ns / 1e3, n);
    let per_kframe = |count: f64| ratio(count * 1000.0, n);
    let (hash_calls, hash_ns) = layer(runs, Layer::Hash);
    let (restores, restore_ns) = layer(runs, Layer::Restore);
    let (ticks, tick_self_ns) = layer(runs, Layer::Tick);
    let (pumps, pump_self_ns) = layer(runs, Layer::Pump);
    let tick_ns = sum(runs, |s| {
        s.log.layer(Layer::Tick).total_ns + s.log.layer(Layer::Pump).total_ns
    });
    let (relay_sends, relay_send_ns) = layer(runs, Layer::RelaySend);
    let (relay_recvs, relay_recv_ns) = layer(runs, Layer::RelayRecv);
    let rollbacks = sum(runs, |s| s.stats.rollbacks);
    let us = |ns: &u64| *ns as f64 / 1e3;
    let send_us: Vec<f64> = sites(runs)
        .flat_map(|s| s.log.send_ns.iter().map(us))
        .collect();
    let recv_us: Vec<f64> = sites(runs)
        .flat_map(|s| s.log.recv_ns.iter().map(us))
        .collect();
    let wire_sent = sum(runs, |s| s.log.wire.sent);
    let nominal = nominal_period_us(workload);
    let lateness_ms: Vec<f64> = sites(runs)
        .flat_map(|s| {
            let first = s.began_us.first().copied().unwrap_or(0) as f64;
            s.began_us
                .iter()
                .enumerate()
                .map(move |(k, &b)| (b as f64 - first - k as f64 * nominal).max(0.0) / 1e3)
        })
        .collect();
    let stall_ms: Vec<f64> = sites(runs)
        .flat_map(|s| s.stall_us.iter().map(|&d| d as f64 / 1e3))
        .collect();
    let jitter_ms: Vec<f64> = sites(runs)
        .map(|s| {
            let periods: Vec<f64> = s
                .began_us
                .windows(2)
                .map(|w| (w[1] - w[0]) as f64 / 1e3)
                .collect();
            mean_abs_deviation(&periods)
        })
        .collect();
    let registered_ms: Vec<f64> = sites(runs)
        .filter_map(|s| s.log.registered_ns)
        .map(|ns| ns as f64 / 1e6)
        .collect();
    let relay = traced.relay.map(|r| r.stats).unwrap_or_default();
    let dropped = relay.dropped_backpressure
        + relay.dropped_unregistered
        + relay.dropped_malformed
        + relay.dropped_refused;
    let untraced = std::slice::from_ref(untraced);
    let cpu_per_frame = |r: &[SessionRun]| ratio(cpu_ns(r), frames(r));
    let site_cpu_per_frame = |r: &[SessionRun]| ratio(sum(r, |s| s.cpu_ns) / 1e3, frames(r));
    let b = breakdown.unwrap_or_default();
    vec![
        m(
            "vm.step_us_per_frame",
            "us",
            per_frame_us(layer(runs, Layer::Step).1),
        ),
        m(
            "vm.headless_steps_per_frame",
            "count",
            ratio(sum(runs, |s| s.log.headless_steps), n),
        ),
        m(
            "vm.headless_us_per_frame",
            "us",
            per_frame_us(layer(runs, Layer::Headless).1),
        ),
        m("vm.hash_calls_per_frame", "count", ratio(hash_calls, n)),
        m(
            "vm.hash_us_per_call",
            "us",
            ratio(hash_ns / 1e3, hash_calls),
        ),
        m(
            "rollback.checkpoint_us_per_frame",
            "us",
            per_frame_us(layer(runs, Layer::Checkpoint).1),
        ),
        m(
            "rollback.restore_us_per_rollback",
            "us",
            ratio(restore_ns / 1e3, restores),
        ),
        m(
            "rollback.rollbacks_per_kframe",
            "1/1000",
            per_kframe(rollbacks),
        ),
        m(
            "rollback.resim_frames_per_rollback",
            "frames",
            ratio(sum(runs, |s| s.stats.resimulated_frames), rollbacks),
        ),
        m(
            "rollback.max_depth_frames",
            "frames",
            sites(runs)
                .map(|s| s.stats.max_rollback_depth)
                .max()
                .unwrap_or(0) as f64,
        ),
        m(
            "rollback.ring_bytes",
            "B",
            sum(runs, |s| s.ring_bytes as u64),
        ),
        m("sync.cpu_us_per_frame", "us", site_cpu_per_frame(untraced)),
        m("sync.tick_us_per_frame", "us", per_frame_us(tick_ns)),
        m("sync.ticks_per_frame", "count", ratio(ticks + pumps, n)),
        m(
            "sync.self_us_per_frame",
            "us",
            per_frame_us(tick_self_ns + pump_self_ns),
        ),
        m(
            "sync.idle_cpu_us_per_frame",
            "us",
            (site_cpu_per_frame(runs) - per_frame_us(tick_ns)).max(0.0),
        ),
        m("sync.frame_jitter_ms", "ms", mean(&jitter_ms)),
        m("sync.offset_ms", "ms", offset_ms(traced)),
        opt("sync.lateness_ms_p99", "ms", percentile(&lateness_ms, 0.99)),
        opt("sync.stall_ms_p99", "ms", percentile(&stall_ms, 0.99)),
        m(
            "sync.stall_frames_per_kframe",
            "frames/1000",
            stall_frames_per_kframe(runs),
        ),
        m(
            "sync.corrected_frames_per_kframe",
            "frames/1000",
            corrected_frames_per_kframe(runs),
        ),
        m("sync.pace_error_pct", "%", pace_error_pct(workload, runs)),
        m(
            "sync.retransmitted_per_kframe",
            "frames/1000",
            per_kframe(sum(runs, |s| s.stats.retransmitted_frames_received)),
        ),
        opt("net.send_us_p50", "us", percentile(&send_us, 0.50)),
        opt("net.recv_us_p50", "us", percentile(&recv_us, 0.50)),
        m(
            "net.empty_polls_per_frame",
            "count",
            ratio(sum(runs, |s| s.log.wire.empty_polls), n),
        ),
        m("net.datagrams_per_frame", "count", ratio(wire_sent, n)),
        m(
            "net.bytes_per_datagram",
            "B",
            ratio(sum(runs, |s| s.log.wire.sent_bytes), wire_sent),
        ),
        opt(
            "net.delivery_ms_p50",
            "ms",
            percentile(&delivery_ms(traced), 0.50),
        ),
        opt(
            "net.delivery_ms_p95",
            "ms",
            percentile(&delivery_ms(traced), 0.95),
        ),
        m(
            "net.shim_lost_per_kdatagram",
            "1/1000",
            ratio(
                sum(runs, |s| s.log.shim_lost) * 1000.0,
                sum(runs, |s| s.log.shim_offered),
            ),
        ),
        m(
            "relay.socket_us_per_datagram",
            "us",
            ratio(
                (relay_send_ns + relay_recv_ns) / 1e3,
                relay_sends + relay_recvs,
            ),
        ),
        m("relay.register_ms", "ms", mean(&registered_ms)),
        m(
            "relay.cpu_us_per_datagram",
            "us",
            ratio(
                traced.relay.map_or(0, |r| r.cpu_ns) as f64 / 1e3,
                relay.forwarded as f64,
            ),
        ),
        m("relay.dropped", "count", dropped as f64),
        m(
            "telemetry.trace_overhead_pct",
            "%",
            (ratio(cpu_per_frame(runs), cpu_per_frame(untraced)) - 1.0) * 100.0,
        ),
        m("bench.peak_rss_mb", "MB", peak_rss_kib() as f64 / 1024.0),
        m("trace.chains", "count", b.chains as f64),
        m("trace.pacing_ms", "ms", b.pacing_ms),
        m("trace.wire_ms", "ms", b.wire_ms),
        m("trace.lag_ms", "ms", b.lag_ms),
        m("trace.stall_ms", "ms", b.stall_ms),
        m("trace.present_ms", "ms", b.present_ms),
        m("trace.resim_ms", "ms", b.resim_ms),
        m("trace.prediction_lead_ms", "ms", b.prediction_lead_ms),
        m("trace.end_to_end_ms", "ms", b.end_to_end_ms),
        m("trace.sum_error_pct", "%", b.sum_error_pct),
    ]
}
