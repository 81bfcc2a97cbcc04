//! Fleet load-generator for the relay: thousands of in-process clients.
//!
//! Drives N two-player sessions (plus a spectator on every 8th) through
//! one `RelayCore`, with every client behind its own pair of netem-impaired
//! links (delay + jitter + loss), inside a discrete-event simulation. Each
//! player paces one broadcast forward every 20 ms — the sync protocol's
//! send cadence — with the send timestamp embedded, so delivery latency
//! through link + relay + link is measured exactly. Writes
//! `results/BENCH_fleet.json` with sessions/sec, p99 forward latency, and
//! drop rate.
//!
//! Run: `cargo run --release -p coplay-bench --bin fleet [--sessions N] [--quick]`
//!
//! Perf-regression guard: `--check <baseline.json>` compares against a
//! committed run and exits non-zero when throughput halves or latency/drops
//! double ([`coplay_bench::Guard`], shared with hotpath, with a direction
//! per metric). The reference lives at `results/fleet_baseline.json`.

// This harness times the event loop from outside the determinism fence, so
// the wall-clock ban does not apply (see detlint policy for
// crates/bench/src/bin/).
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use coplay_bench::{write_results_json, Better, Guard};
use coplay_clock::{EventQueue, SimDuration, SimTime};
use coplay_net::bytes::{Buf, BufMut};
use coplay_net::{NetemChannel, NetemConfig};
use coplay_relay::wire::{self, RelayMessage};
use coplay_relay::{RelayConfig, RelayCore};

/// Throughput metrics fail the guard below `baseline / REGRESSION_FACTOR`;
/// cost metrics fail above `baseline * REGRESSION_FACTOR` (plus a floor).
const REGRESSION_FACTOR: u64 = 2;

/// Absolute slack so near-zero baselines (e.g. sub-ms latencies or a
/// zero drop rate) cannot trip the guard on noise alone.
const NOISE_FLOOR: u64 = 500;

const GUARD: Guard = Guard {
    field: "value",
    factor: REGRESSION_FACTOR,
    noise_floor: NOISE_FLOOR,
};

/// The sync protocol's outbound cadence (§4.2: one message per 20 ms).
const SEND_EVERY: SimDuration = SimDuration::from_millis(20);

/// Spectators idle between heartbeats this long (well under the TTL).
const HEARTBEAT_EVERY: SimDuration = SimDuration::from_secs(5);

/// A spectator joins every this-many sessions.
const SPECTATOR_EVERY: usize = 8;

/// Spectators register with this site number (players use 0 and 1).
const SPECTATOR_SITE: u8 = 9;

/// Bytes of padding after the 12-byte seq + timestamp header, bringing the
/// payload to a typical input-batch size.
const PAYLOAD_PAD: usize = 20;

struct FleetOptions {
    sessions: usize,
    forwards_per_player: u32,
    seed: u64,
    check_path: Option<String>,
}

impl FleetOptions {
    fn parse(args: &[String]) -> FleetOptions {
        let mut o = FleetOptions {
            sessions: 1000,
            forwards_per_player: 150,
            seed: 0x0F1E_E7F1,
            check_path: None,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--sessions" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        o.sessions = v;
                    }
                }
                "--forwards" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        o.forwards_per_player = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        o.seed = v;
                    }
                }
                "--check" => o.check_path = it.next().cloned(),
                "--quick" => {
                    o.sessions = 64;
                    o.forwards_per_player = 50;
                }
                _ => {}
            }
        }
        o
    }
}

/// What a simulated client is.
struct Client {
    session: u32,
    site: u8,
    spectator: bool,
    registered: bool,
    /// Forwards sent so far (players only).
    sent: u32,
    /// Deliveries received, with latency accounting below.
    received: u64,
    up: NetemChannel,
    down: NetemChannel,
}

/// Simulation events: a datagram landing at the relay or at a client, and
/// a client's paced wakeup.
enum Ev {
    ToRelay { client: u32, bytes: Vec<u8> },
    ToClient { client: u32, bytes: Vec<u8> },
    Tick { client: u32 },
}

/// One measured metric, rendered as a `{"key": ..., "value": ...}` row.
struct Metric {
    key: &'static str,
    value: u64,
}

/// The impairment each direction of every client link suffers: a coastal
/// last-mile — 15 ms one-way, a few ms of jitter, 1% loss.
fn link_config() -> NetemConfig {
    NetemConfig::new()
        .delay(SimDuration::from_millis(15))
        .jitter(SimDuration::from_millis(3))
        .loss(0.01)
}

fn forward_payload(seq: u32, now: SimTime) -> Vec<u8> {
    let mut p = Vec::with_capacity(12 + PAYLOAD_PAD);
    p.put_u32_le(seq);
    p.put_u64_le(now.as_micros());
    p.extend(std::iter::repeat_n(0xABu8, PAYLOAD_PAD));
    p
}

/// Extracts the embedded send time from a delivered payload.
fn payload_send_time(mut p: &[u8]) -> Option<SimTime> {
    if p.remaining() < 12 {
        return None;
    }
    let _seq = p.get_u32_le();
    Some(SimTime::from_micros(p.get_u64_le()))
}

struct FleetResult {
    metrics: Vec<Metric>,
}

fn run_fleet(o: &FleetOptions) -> FleetResult {
    let n_clients = o.sessions * 2 + o.sessions.div_ceil(SPECTATOR_EVERY);
    let mut core: RelayCore<u32> = RelayCore::new(RelayConfig {
        max_sessions: o.sessions.max(16),
        ..RelayConfig::default()
    });
    let mut clients: Vec<Client> = Vec::with_capacity(n_clients);
    let mut queue: EventQueue<Ev> = EventQueue::new();

    let make_client = |session: u32, site: u8, spectator: bool, idx: usize| Client {
        session,
        site,
        spectator,
        registered: false,
        sent: 0,
        received: 0,
        up: NetemChannel::new(link_config(), o.seed ^ (idx as u64).wrapping_mul(0x9E37)),
        down: NetemChannel::new(link_config(), o.seed ^ (idx as u64).wrapping_mul(0x85EB)),
    };
    for s in 0..o.sessions {
        for player in 0..2u8 {
            clients.push(make_client(s as u32, player, false, clients.len()));
        }
        if s % SPECTATOR_EVERY == 0 {
            clients.push(make_client(s as u32, SPECTATOR_SITE, true, clients.len()));
        }
    }
    // Stagger starts so the relay sees a ragged arrival wave, not one
    // synchronized burst per tick.
    for (i, _) in clients.iter().enumerate() {
        queue.schedule(
            SimTime::from_micros((i as u64 % 977) * 41),
            Ev::Tick { client: i as u32 },
        );
    }

    let mut latencies_us: Vec<u64> = Vec::new();
    let mut expected_deliveries: u64 = 0;
    // The run's horizon: enough sim time to register (staggered starts,
    // lossy handshakes) and pace out every forward, plus in-flight slack.
    // Ticks past the horizon are not rescheduled, so the queue drains.
    let horizon = SimTime::from_millis(500)
        + SEND_EVERY * (o.forwards_per_player as u64 + 2)
        + SimDuration::from_secs(1);
    let wall_start = Instant::now();

    while let Some((now, ev)) = queue.pop() {
        match ev {
            Ev::Tick { client } => {
                if now > horizon {
                    continue;
                }
                let c = &mut clients[client as usize];
                let site = c.site;
                let (bytes, next) = if !c.registered {
                    (
                        RelayMessage::Register {
                            session: c.session,
                            site,
                            spectator: c.spectator,
                        }
                        .encode(),
                        Some(now + SimDuration::from_millis(50)),
                    )
                } else if c.spectator {
                    (
                        RelayMessage::Heartbeat { session: c.session }.encode(),
                        Some(now + HEARTBEAT_EVERY),
                    )
                } else if c.sent < o.forwards_per_player {
                    c.sent += 1;
                    let payload = forward_payload(c.sent, now);
                    let mut bytes = Vec::new();
                    wire::encode_forward_into(&mut bytes, wire::DEST_BROADCAST, &payload);
                    // The partner should see this; the session's spectator
                    // (if any) also counts toward fan-out but not drops.
                    expected_deliveries += 1;
                    (bytes, Some(now + SEND_EVERY))
                } else {
                    continue; // done sending; stay subscribed
                };
                let fate = c.up.process(now, bytes.len());
                for at in fate.deliveries {
                    queue.schedule(
                        at,
                        Ev::ToRelay {
                            client,
                            bytes: bytes.clone(),
                        },
                    );
                }
                if let Some(at) = next {
                    queue.schedule(at, Ev::Tick { client });
                }
            }
            Ev::ToRelay { client, bytes } => {
                let replies: Vec<(u32, Vec<u8>)> = core.handle(client, &bytes, now).to_vec();
                for (to, reply) in replies {
                    let c = &mut clients[to as usize];
                    let fate = c.down.process(now, reply.len());
                    for at in fate.deliveries {
                        queue.schedule(
                            at,
                            Ev::ToClient {
                                client: to,
                                bytes: reply.clone(),
                            },
                        );
                    }
                }
            }
            Ev::ToClient { client, bytes } => {
                let c = &mut clients[client as usize];
                if let Ok((_from_site, payload)) = wire::decode_deliver(&bytes) {
                    c.received += 1;
                    if !c.spectator {
                        if let Some(sent_at) = payload_send_time(payload) {
                            latencies_us.push(now.saturating_since(sent_at).as_micros());
                        }
                    }
                } else if let Ok(RelayMessage::Registered { .. }) = RelayMessage::decode(&bytes) {
                    if !c.registered {
                        c.registered = true;
                        // Start the paced sends right away.
                        queue.schedule(now, Ev::Tick { client });
                    }
                }
            }
        }
    }
    let wall = wall_start.elapsed();

    let stats = core.stats();
    let player_deliveries: u64 = clients
        .iter()
        .filter(|c| !c.spectator)
        .map(|c| c.received)
        .sum();
    let spectator_deliveries: u64 = clients
        .iter()
        .filter(|c| c.spectator)
        .map(|c| c.received)
        .sum();
    latencies_us.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies_us.is_empty() {
            return 0;
        }
        let rank = ((latencies_us.len() as f64 - 1.0) * p).round() as usize;
        latencies_us[rank.min(latencies_us.len() - 1)]
    };
    // Per-mille of expected partner deliveries that never arrived (link
    // loss in both directions plus any relay backpressure).
    let drop_rate_milli = (player_deliveries * 1000)
        .checked_div(expected_deliveries)
        .map_or(0, |delivered| 1000u64.saturating_sub(delivered));
    let per_sec = |count: u64| -> u64 {
        let secs = wall.as_secs_f64();
        if secs > 0.0 {
            (count as f64 / secs) as u64
        } else {
            0
        }
    };

    let metrics = vec![
        Metric {
            key: "sessions",
            value: o.sessions as u64,
        },
        Metric {
            key: "clients",
            value: n_clients as u64,
        },
        Metric {
            key: "sessions_per_sec",
            value: per_sec(o.sessions as u64),
        },
        Metric {
            key: "forwards_per_sec",
            value: per_sec(stats.forwarded),
        },
        Metric {
            key: "forwarded",
            value: stats.forwarded,
        },
        Metric {
            key: "fanout_copies",
            value: stats.fanout_copies,
        },
        Metric {
            key: "player_deliveries",
            value: player_deliveries,
        },
        Metric {
            key: "spectator_deliveries",
            value: spectator_deliveries,
        },
        Metric {
            key: "p50_forward_latency_us",
            value: pct(0.50),
        },
        Metric {
            key: "p99_forward_latency_us",
            value: pct(0.99),
        },
        Metric {
            key: "drop_rate_milli",
            value: drop_rate_milli,
        },
        Metric {
            key: "backpressure_drops",
            value: stats.dropped_backpressure,
        },
        Metric {
            key: "evicted_members",
            value: stats.evicted_members,
        },
    ];
    FleetResult { metrics }
}

fn render_json(o: &FleetOptions, metrics: &[Metric]) -> String {
    let mut out = String::from("{\n  \"figure\": \"fleet\",\n");
    out.push_str(&format!(
        "  \"seed\": {}, \"forwards_per_player\": {},\n  \"metrics\": [\n",
        o.seed, o.forwards_per_player
    ));
    for (i, m) in metrics.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"key\": \"{}\", \"value\": {}}}{}\n",
            m.key,
            m.value,
            if i + 1 < metrics.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Throughput improves upwards and costs downwards; size-of-run metrics
/// are not guarded.
fn guard_direction(key: &str) -> Option<Better> {
    if key.ends_with("_per_sec") {
        return Some(Better::Higher);
    }
    if key.ends_with("_latency_us") || key == "drop_rate_milli" || key == "backpressure_drops" {
        return Some(Better::Lower);
    }
    None
}

/// Checks `metrics` against a baseline document: throughput below
/// `baseline / 2`, costs above `baseline * 2` (plus the noise floor on
/// both sides).
fn check_against(baseline_json: &str, metrics: &[Metric]) -> usize {
    GUARD
        .check(
            baseline_json,
            |key| metrics.iter().find(|m| m.key == key).map(|m| m.value),
            guard_direction,
        )
        .regressions
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = FleetOptions::parse(&args);
    println!("=== Fleet load-generator — relay under impaired links ===");
    println!(
        "sessions: {}, forwards/player: {}, seed: {:#x}",
        o.sessions, o.forwards_per_player, o.seed
    );
    println!();

    let result = run_fleet(&o);
    for m in &result.metrics {
        println!("{:<26} {:>12}", m.key, m.value);
    }

    let json = render_json(&o, &result.metrics);
    match write_results_json("BENCH_fleet.json", &json) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write results: {e}");
            std::process::exit(1);
        }
    }

    if let Some(path) = &o.check_path {
        let baseline = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        let regressions = check_against(&baseline, &result.metrics);
        if regressions > 0 {
            eprintln!("\n{regressions} fleet regression(s) against {path}");
            std::process::exit(1);
        }
        println!("\nno regressions against {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_fleet_converges_and_measures() {
        let o = FleetOptions {
            sessions: 4,
            forwards_per_player: 10,
            seed: 1,
            check_path: None,
        };
        let r = run_fleet(&o);
        let get = |key: &str| {
            r.metrics
                .iter()
                .find(|m| m.key == key)
                .map(|m| m.value)
                .unwrap()
        };
        // 8 players x 10 forwards, minus ~1% uplink loss, reach the relay.
        assert!(get("forwarded") > 60, "forwarded={}", get("forwarded"));
        // Most partner deliveries arrive; the drop rate stays modest.
        assert!(get("player_deliveries") > 50);
        assert!(get("drop_rate_milli") < 300);
        // Two one-way link delays of 15ms put latency near 30ms.
        let p50 = get("p50_forward_latency_us");
        assert!((20_000..60_000).contains(&p50), "p50={p50}");
        assert_eq!(get("evicted_members"), 0);
        // The 1st session's spectator saw traffic.
        assert!(get("spectator_deliveries") > 0);
    }

    #[test]
    fn fleet_is_deterministic_in_sim_metrics() {
        let o = FleetOptions {
            sessions: 3,
            forwards_per_player: 8,
            seed: 42,
            check_path: None,
        };
        let pick = |r: &FleetResult| {
            r.metrics
                .iter()
                .filter(|m| guard_direction(m.key) != Some(Better::Higher))
                .map(|m| (m.key, m.value))
                .collect::<Vec<_>>()
        };
        assert_eq!(pick(&run_fleet(&o)), pick(&run_fleet(&o)));
    }

    #[test]
    fn guard_catches_both_directions() {
        let baseline = r#"
    {"key": "forwards_per_sec", "value": 100000},
    {"key": "p99_forward_latency_us", "value": 40000},
    {"key": "drop_rate_milli", "value": 20},
    {"key": "sessions", "value": 64},
"#;
        // Healthy run: same numbers pass.
        let ok = vec![
            Metric {
                key: "forwards_per_sec",
                value: 100_000,
            },
            Metric {
                key: "p99_forward_latency_us",
                value: 40_000,
            },
            Metric {
                key: "drop_rate_milli",
                value: 20,
            },
        ];
        assert_eq!(check_against(baseline, &ok), 0);
        // Throughput collapse and latency blow-up both trip it.
        let bad = vec![
            Metric {
                key: "forwards_per_sec",
                value: 10_000,
            },
            Metric {
                key: "p99_forward_latency_us",
                value: 200_000,
            },
            Metric {
                key: "drop_rate_milli",
                value: 21,
            },
        ];
        assert_eq!(check_against(baseline, &bad), 2);
    }

    #[test]
    fn parse_roundtrips_render() {
        let o = FleetOptions {
            sessions: 2,
            forwards_per_player: 1,
            seed: 9,
            check_path: None,
        };
        let metrics = vec![
            Metric {
                key: "sessions_per_sec",
                value: 123,
            },
            Metric {
                key: "drop_rate_milli",
                value: 4,
            },
        ];
        let parsed = coplay_bench::parse_entries(&render_json(&o, &metrics), GUARD.field);
        assert_eq!(
            parsed,
            vec![
                ("sessions_per_sec".to_string(), 123),
                ("drop_rate_milli".to_string(), 4),
            ]
        );
    }

    #[test]
    fn quick_flag_shrinks_the_run() {
        let o = FleetOptions::parse(&["--quick".to_string()]);
        assert_eq!(o.sessions, 64);
        let o = FleetOptions::parse(&["--sessions".to_string(), "9".to_string()]);
        assert_eq!(o.sessions, 9);
    }
}
