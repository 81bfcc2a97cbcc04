//! The relay's sans-io forwarding core.
//!
//! [`RelayCore`] multiplexes many sessions over one datagram socket. It is
//! generic over the address type `A` so the same code serves real sockets
//! (`A = SocketAddr` in the UDP event loop), simulated peers
//! (`A = PeerId` in the end-to-end tests) and the fleet load generator
//! (`A = u32` client indices) — and, like the lobby server, it is sans-io
//! in time: every entry point takes `now` explicitly, so the discrete-event
//! simulator and the wall-clock loop drive identical code.
//!
//! Routing state is two maps: sessions by id, and each registered client
//! address's session id. The per-datagram path — look up the sender,
//! charge the session's token bucket, fan the payload out into reused
//! reply buffers — allocates nothing in the steady state.

use std::collections::BTreeMap;

use coplay_clock::{SimDuration, SimTime};
use coplay_telemetry::{EventKind, Telemetry};

use crate::wire::{RelayMessage, DEST_BROADCAST, MAX_RELAY_PAYLOAD};

/// How long a member may stay silent before the sweep evicts it.
///
/// Deliberately the lobby's heartbeat cadence (its `SESSION_TTL`, which a
/// workspace test holds equal): a client that keeps its lobby registration
/// alive keeps its relay membership alive with the same traffic pattern.
pub const MEMBER_TTL: SimDuration = SimDuration::from_secs(30);

/// Sites `254` and `255` are reserved (broadcast and the time server).
const MAX_SITE: u8 = DEST_BROADCAST - 1;

/// Relay policy knobs. The defaults suit one shard of a production relay;
/// tests shrink them to exercise the refusal paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayConfig {
    /// Most concurrent sessions one core will route.
    pub max_sessions: usize,
    /// Most player members per session.
    pub max_players: usize,
    /// Most spectator members per session.
    pub max_spectators: usize,
    /// Evict a member after this much silence.
    pub member_ttl: SimDuration,
    /// Token-bucket refill rate: forwarded datagrams per second per
    /// session. A two-player sync session sends ≈100 datagrams/s, so the
    /// default leaves generous headroom before backpressure bites.
    pub bucket_rate: u32,
    /// Token-bucket burst capacity (datagrams).
    pub bucket_burst: u32,
    /// This shard's index (sessions are striped by `session % shard_count`).
    pub shard_index: u32,
    /// Total shards; `1` disables sharding.
    pub shard_count: u32,
}

impl Default for RelayConfig {
    fn default() -> Self {
        RelayConfig {
            max_sessions: 4096,
            max_players: 8,
            max_spectators: 32,
            member_ttl: MEMBER_TTL,
            bucket_rate: 2_000,
            bucket_burst: 256,
            shard_index: 0,
            shard_count: 1,
        }
    }
}

impl RelayConfig {
    /// Restricts this core to shard `index` of `count` (sessions striped
    /// by id). Run one single-threaded core per shard, each on its own
    /// socket, to scale past one core of CPU.
    pub fn shard(mut self, index: u32, count: u32) -> Self {
        self.shard_index = index;
        self.shard_count = count.max(1);
        self
    }

    /// `true` if `session` is striped onto this shard.
    pub fn owns(&self, session: u32) -> bool {
        self.shard_count <= 1 || session % self.shard_count == self.shard_index
    }
}

/// Running totals, for operators and the fleet bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RelayStats {
    /// Forward datagrams accepted and fanned out.
    pub forwarded: u64,
    /// Deliver copies emitted (≥ `forwarded` once spectators subscribe).
    pub fanout_copies: u64,
    /// Forwards refused by a session's token bucket.
    pub dropped_backpressure: u64,
    /// Datagrams from addresses with no live registration.
    pub dropped_unregistered: u64,
    /// Datagrams that failed to decode (or arrived in the wrong direction).
    pub dropped_malformed: u64,
    /// Registrations/forwards refused by policy (site conflict, capacity,
    /// foreign shard, spectator trying to send).
    pub dropped_refused: u64,
    /// Members evicted for silence.
    pub evicted_members: u64,
    /// Sessions whose last member left or was evicted.
    pub expired_sessions: u64,
    /// Successful (non-duplicate) registrations.
    pub registrations: u64,
}

/// Integer token bucket: micro-token accounting so refill loses nothing to
/// rounding and stays deterministic under virtual time.
#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    /// Millionths of a token.
    micro: u64,
    last: SimTime,
}

const MICRO: u64 = 1_000_000;

impl TokenBucket {
    fn full(burst: u32, now: SimTime) -> TokenBucket {
        TokenBucket {
            micro: burst as u64 * MICRO,
            last: now,
        }
    }

    /// Refills for the elapsed time, then tries to spend one token.
    fn take(&mut self, now: SimTime, rate: u32, burst: u32) -> bool {
        let dt = now.saturating_since(self.last).as_micros();
        self.last = now;
        self.micro = (self.micro + rate as u64 * dt).min(burst as u64 * MICRO);
        if self.micro >= MICRO {
            self.micro -= MICRO;
            true
        } else {
            false
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Member<A> {
    site: u8,
    addr: A,
    spectator: bool,
    last_seen: SimTime,
}

/// One routed session.
#[derive(Debug)]
struct Session<A> {
    members: Vec<Member<A>>,
    bucket: TokenBucket,
    /// Forwards this session lost to backpressure (per-session accounting
    /// on top of the global counter).
    drops: u64,
}

/// The sans-io relay core. See the module docs for the big picture.
pub struct RelayCore<A> {
    cfg: RelayConfig,
    sessions: BTreeMap<u32, Session<A>>,
    /// The session each registered address belongs to.
    by_addr: BTreeMap<A, u32>,
    /// Reply buffers, reused across calls: `out[..out_len]` is live.
    out: Vec<(A, Vec<u8>)>,
    out_len: usize,
    stats: RelayStats,
    telemetry: Telemetry,
}

impl<A: Copy + Ord> RelayCore<A> {
    /// A core with the given policy and no telemetry.
    pub fn new(cfg: RelayConfig) -> RelayCore<A> {
        RelayCore {
            cfg,
            sessions: BTreeMap::new(),
            by_addr: BTreeMap::new(),
            out: Vec::new(),
            out_len: 0,
            stats: RelayStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry sink (flight-recorder events for registration
    /// and eviction, and a fan-out histogram for the hot path). The relay's
    /// counters are [`RelayStats`], read through [`RelayCore::stats`].
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The policy in force.
    pub fn config(&self) -> &RelayConfig {
        &self.cfg
    }

    /// Running totals.
    pub fn stats(&self) -> RelayStats {
        self.stats
    }

    /// Live sessions routed by this core.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Members currently registered in `session` (0 if unknown).
    pub fn member_count(&self, session: u32) -> usize {
        self.sessions.get(&session).map_or(0, |s| s.members.len())
    }

    /// Forwards this session has lost to backpressure (0 if unknown).
    pub fn session_drops(&self, session: u32) -> u64 {
        self.sessions.get(&session).map_or(0, |s| s.drops)
    }

    /// Processes one datagram from `from`, returning the datagrams to send
    /// in response (valid until the next `handle`/`sweep` call).
    pub fn handle(&mut self, from: A, data: &[u8], now: SimTime) -> &[(A, Vec<u8>)] {
        self.out_len = 0;
        match RelayMessage::decode(data) {
            Ok(RelayMessage::Forward { dest, payload }) => {
                self.on_forward(from, dest, payload, now);
            }
            Ok(msg) => self.on_control(from, msg, now),
            Err(_) => self.stats.dropped_malformed += 1,
        }
        self.replies()
    }

    /// Evicts members silent for longer than the TTL and drops emptied
    /// sessions. Returns best-effort `Evicted` notifications (valid until
    /// the next `handle`/`sweep` call). Call periodically — the TTL over 4
    /// is a sensible cadence.
    pub fn sweep(&mut self, now: SimTime) -> &[(A, Vec<u8>)] {
        self.out_len = 0;
        let ttl = self.cfg.member_ttl;
        self.sessions.retain(|&session, s| {
            s.members.retain(|m| {
                if now.saturating_since(m.last_seen) <= ttl {
                    return true;
                }
                self.by_addr.remove(&m.addr);
                self.stats.evicted_members += 1;
                self.telemetry.record(
                    now,
                    EventKind::RelayEvicted {
                        session,
                        site: m.site,
                    },
                );
                let buf = out_slot(&mut self.out, &mut self.out_len, m.addr);
                RelayMessage::Evicted { session }.encode_into(buf);
                false
            });
            let live = !s.members.is_empty();
            if !live {
                self.stats.expired_sessions += 1;
            }
            live
        });
        self.replies()
    }

    /// The replies produced by the last `handle`/`sweep` call.
    pub fn replies(&self) -> &[(A, Vec<u8>)] {
        self.out.get(..self.out_len).unwrap_or(&[])
    }

    /// The per-datagram hot path: sender lookup, token charge, fan-out.
    fn on_forward(&mut self, from: A, dest: u8, payload: &[u8], now: SimTime) {
        let Some(session) = self.by_addr.get(&from) else {
            self.stats.dropped_unregistered += 1;
            return;
        };
        let (rate, burst) = (self.cfg.bucket_rate, self.cfg.bucket_burst);
        let Some(s) = self.sessions.get_mut(session) else {
            return;
        };
        let Some(sender) = s.members.iter_mut().find(|m| m.addr == from) else {
            // The index and the session disagree (stale entry); treat like
            // an unknown sender rather than panicking in the datagram path.
            self.stats.dropped_unregistered += 1;
            return;
        };
        sender.last_seen = now;
        let from_site = sender.site;
        if sender.spectator {
            // Spectators are read-only: their input never enters a session.
            self.stats.dropped_refused += 1;
            return;
        }
        if !s.bucket.take(now, rate, burst) {
            s.drops += 1;
            self.stats.dropped_backpressure += 1;
            return;
        }
        self.stats.forwarded += 1;
        // The decoder caps every forward, so fan-out never clamps a payload.
        assert!(
            payload.len() <= MAX_RELAY_PAYLOAD,
            "deliver payload over cap"
        );
        let deliver = RelayMessage::Deliver { from_site, payload };
        let mut copies = 0u64;
        for m in &s.members {
            if m.addr == from {
                continue;
            }
            // Players receive traffic addressed to their site (or to all);
            // spectators tap the whole input stream.
            if !(m.spectator || dest == DEST_BROADCAST || m.site == dest) {
                continue;
            }
            let buf = out_slot(&mut self.out, &mut self.out_len, m.addr);
            deliver.encode_into(buf);
            copies += 1;
        }
        self.stats.fanout_copies += copies;
        self.telemetry.observe("relay_fanout", copies);
    }

    fn on_control(&mut self, from: A, msg: RelayMessage<'_>, now: SimTime) {
        match msg {
            RelayMessage::Register {
                session,
                site,
                spectator,
            } => self.on_register(from, session, site, spectator, now),
            RelayMessage::Heartbeat { session } => {
                let mut refreshed = false;
                if let Some((member_session, m)) = self.member_mut(from) {
                    if member_session == session {
                        m.last_seen = now;
                        refreshed = true;
                    }
                }
                if !refreshed {
                    self.stats.dropped_unregistered += 1;
                }
            }
            RelayMessage::Bye { session } => {
                if self.by_addr.get(&from) == Some(&session) {
                    self.remove_member(session, from);
                }
            }
            // Server-to-client messages arriving at the server are noise
            // (`handle` routes every `Forward` to `on_forward`).
            RelayMessage::Registered { .. }
            | RelayMessage::Deliver { .. }
            | RelayMessage::Evicted { .. }
            | RelayMessage::Forward { .. } => self.stats.dropped_malformed += 1,
        }
    }

    fn on_register(&mut self, from: A, session: u32, site: u8, spectator: bool, now: SimTime) {
        if site > MAX_SITE || !self.cfg.owns(session) {
            self.stats.dropped_refused += 1;
            return;
        }
        // Idempotent re-registration from a live member: refresh and re-ack
        // (the ack datagram may simply have been lost).
        let mut already = false;
        if let Some((member_session, m)) = self.member_mut(from) {
            if member_session == session && m.site == site && m.spectator == spectator {
                m.last_seen = now;
                already = true;
            }
        }
        if already {
            let buf = out_slot(&mut self.out, &mut self.out_len, from);
            RelayMessage::Registered { session, site }.encode_into(buf);
            return;
        }
        // Same address, different identity: drop the old registration and
        // fall through to a fresh insert.
        if let Some(&old) = self.by_addr.get(&from) {
            self.remove_member(old, from);
        }
        if !self.sessions.contains_key(&session) && self.sessions.len() >= self.cfg.max_sessions {
            self.stats.dropped_refused += 1;
            return;
        }
        let s = self.sessions.entry(session).or_insert_with(|| Session {
            members: Vec::new(),
            bucket: TokenBucket::full(self.cfg.bucket_burst, now),
            drops: 0,
        });
        // A site may have only one live owner; the contender is refused
        // until eviction or an orderly Bye frees it.
        if !spectator && s.members.iter().any(|m| !m.spectator && m.site == site) {
            self.stats.dropped_refused += 1;
            return;
        }
        let spectators = s.members.iter().filter(|m| m.spectator).count();
        let players = s.members.len() - spectators;
        let full = if spectator {
            spectators >= self.cfg.max_spectators
        } else {
            players >= self.cfg.max_players
        };
        if full {
            self.stats.dropped_refused += 1;
            return;
        }
        s.members.push(Member {
            site,
            addr: from,
            spectator,
            last_seen: now,
        });
        self.by_addr.insert(from, session);
        self.stats.registrations += 1;
        self.telemetry.record(
            now,
            EventKind::RelayRegistered {
                session,
                site,
                spectator,
            },
        );
        let buf = out_slot(&mut self.out, &mut self.out_len, from);
        RelayMessage::Registered { session, site }.encode_into(buf);
    }

    /// Finds the member registered at `from`, with its session id.
    fn member_mut(&mut self, from: A) -> Option<(u32, &mut Member<A>)> {
        let &session = self.by_addr.get(&from)?;
        self.sessions
            .get_mut(&session)?
            .members
            .iter_mut()
            .find(|m| m.addr == from)
            .map(|m| (session, m))
    }

    /// Removes the member at `addr` from `session`, and the session once
    /// it is empty.
    fn remove_member(&mut self, session: u32, addr: A) {
        self.by_addr.remove(&addr);
        let Some(s) = self.sessions.get_mut(&session) else {
            return;
        };
        s.members.retain(|m| m.addr != addr);
        if s.members.is_empty() {
            self.sessions.remove(&session);
            self.stats.expired_sessions += 1;
        }
    }
}

/// Reuses (or grows) the reply list, returning the cleared buffer for the
/// next datagram to `to`. Free function so callers can hold disjoint
/// borrows of the core's other fields.
fn out_slot<'a, A: Copy>(
    out: &'a mut Vec<(A, Vec<u8>)>,
    out_len: &mut usize,
    to: A,
) -> &'a mut Vec<u8> {
    if *out_len == out.len() {
        out.push((to, Vec::new()));
    }
    let i = *out_len;
    *out_len += 1;
    let entry = &mut out[i];
    entry.0 = to;
    entry.1.clear();
    &mut entry.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{RelayMessage, DEST_BROADCAST};
    use coplay_net::PeerId;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn core(cfg: RelayConfig) -> RelayCore<PeerId> {
        RelayCore::new(cfg)
    }

    fn register(
        c: &mut RelayCore<PeerId>,
        from: PeerId,
        session: u32,
        site: u8,
        spectator: bool,
        now: SimTime,
    ) -> Vec<RelayMessage<'_>> {
        let data = RelayMessage::Register {
            session,
            site,
            spectator,
        }
        .encode();
        c.handle(from, &data, now)
            .iter()
            .map(|(_, bytes)| RelayMessage::decode(bytes).unwrap())
            .collect()
    }

    fn forward<'c>(
        c: &'c mut RelayCore<PeerId>,
        from: PeerId,
        dest: u8,
        payload: &[u8],
        now: SimTime,
    ) -> Vec<(PeerId, RelayMessage<'c>)> {
        let data = RelayMessage::Forward { dest, payload }.encode();
        c.handle(from, &data, now)
            .iter()
            .map(|(to, bytes)| (*to, RelayMessage::decode(bytes).unwrap()))
            .collect()
    }

    #[test]
    fn registration_is_acked_and_idempotent() {
        let mut c = core(RelayConfig::default());
        let acks = register(&mut c, PeerId(10), 1, 0, false, at(0));
        assert_eq!(
            acks,
            vec![RelayMessage::Registered {
                session: 1,
                site: 0
            }]
        );
        // A retransmitted Register re-acks without duplicating the member.
        let acks = register(&mut c, PeerId(10), 1, 0, false, at(5));
        assert_eq!(
            acks,
            vec![RelayMessage::Registered {
                session: 1,
                site: 0
            }]
        );
        assert_eq!(c.member_count(1), 1);
        assert_eq!(c.stats().registrations, 1);
    }

    #[test]
    fn forwards_route_between_players() {
        let mut c = core(RelayConfig::default());
        register(&mut c, PeerId(10), 1, 0, false, at(0));
        register(&mut c, PeerId(11), 1, 1, false, at(0));
        // Broadcast reaches the other player, not the sender.
        let out = forward(&mut c, PeerId(10), DEST_BROADCAST, b"hello", at(1));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PeerId(11));
        assert_eq!(
            out[0].1,
            RelayMessage::Deliver {
                from_site: 0,
                payload: b"hello",
            }
        );
        // Unicast to a specific site skips everyone else.
        register(&mut c, PeerId(12), 1, 2, false, at(1));
        let out = forward(&mut c, PeerId(10), 1, b"just you", at(2));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PeerId(11));
    }

    #[test]
    fn sessions_are_isolated() {
        let mut c = core(RelayConfig::default());
        register(&mut c, PeerId(10), 1, 0, false, at(0));
        register(&mut c, PeerId(11), 1, 1, false, at(0));
        register(&mut c, PeerId(20), 2, 0, false, at(0));
        register(&mut c, PeerId(21), 2, 1, false, at(0));
        let out = forward(&mut c, PeerId(10), DEST_BROADCAST, b"s1", at(1));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PeerId(11));
        assert_eq!(c.session_count(), 2);
    }

    #[test]
    fn eviction_frees_the_slot_and_reregistration_succeeds() {
        let mut c = core(RelayConfig {
            max_sessions: 1,
            ..RelayConfig::default()
        });
        register(&mut c, PeerId(10), 1, 0, false, at(0));
        register(&mut c, PeerId(11), 1, 1, false, at(0));
        // Player 0 keeps talking; player 1 goes silent past the TTL.
        let ttl_ms = c.config().member_ttl.as_millis();
        forward(&mut c, PeerId(10), DEST_BROADCAST, b"tick", at(ttl_ms));
        let notices: Vec<_> = c
            .sweep(at(ttl_ms + 1))
            .iter()
            .map(|(to, bytes)| (*to, RelayMessage::decode(bytes).unwrap()))
            .collect();
        assert_eq!(
            notices,
            vec![(PeerId(11), RelayMessage::Evicted { session: 1 })]
        );
        assert_eq!(c.member_count(1), 1);
        assert_eq!(c.stats().evicted_members, 1);

        // Both go silent: the session slot itself is reclaimed...
        let wiped = at(ttl_ms * 3);
        c.sweep(wiped);
        assert_eq!(c.session_count(), 0);
        assert_eq!(c.stats().expired_sessions, 1);
        // ...and with max_sessions=1 a new session only fits if the slot
        // was truly freed.
        let acks = register(&mut c, PeerId(30), 9, 0, false, wiped);
        assert_eq!(
            acks,
            vec![RelayMessage::Registered {
                session: 9,
                site: 0
            }]
        );
        // The evicted member can also rejoin its old session id.
        assert!(register(&mut c, PeerId(11), 9, 1, false, wiped).contains(
            &RelayMessage::Registered {
                session: 9,
                site: 1
            }
        ));
    }

    #[test]
    fn backpressure_drops_are_counted_not_panicked() {
        let mut c = core(RelayConfig {
            bucket_rate: 1,
            bucket_burst: 2,
            ..RelayConfig::default()
        });
        register(&mut c, PeerId(10), 1, 0, false, at(0));
        register(&mut c, PeerId(11), 1, 1, false, at(0));
        let mut delivered = 0;
        for _ in 0..10 {
            delivered += forward(&mut c, PeerId(10), DEST_BROADCAST, b"x", at(1)).len();
        }
        // Burst of 2 admits two forwards; the rest are accounted drops.
        assert_eq!(delivered, 2);
        assert_eq!(c.stats().forwarded, 2);
        assert_eq!(c.stats().dropped_backpressure, 8);
        assert_eq!(c.session_drops(1), 8);
        // The bucket refills with time: a later forward goes through.
        let out = forward(&mut c, PeerId(10), DEST_BROADCAST, b"later", at(2_000));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn mid_session_spectator_receives_subsequent_frames_only() {
        let mut c = core(RelayConfig::default());
        register(&mut c, PeerId(10), 1, 0, false, at(0));
        register(&mut c, PeerId(11), 1, 1, false, at(0));
        forward(&mut c, PeerId(10), DEST_BROADCAST, b"before", at(1));

        // Spectator joins mid-session.
        let acks = register(&mut c, PeerId(50), 1, 9, true, at(2));
        assert_eq!(
            acks,
            vec![RelayMessage::Registered {
                session: 1,
                site: 9
            }]
        );

        // Even unicast player traffic fans out to the spectator.
        let out = forward(&mut c, PeerId(10), 1, b"after", at(3));
        let to: Vec<PeerId> = out.iter().map(|(to, _)| *to).collect();
        assert_eq!(to, vec![PeerId(11), PeerId(50)]);
        assert!(out.iter().all(|(_, m)| matches!(
            m,
            RelayMessage::Deliver { from_site: 0, payload } if &payload[..] == b"after"
        )));

        // Spectators are read-only: their forwards are refused.
        let out = forward(&mut c, PeerId(50), DEST_BROADCAST, b"rogue", at(4));
        assert!(out.is_empty());
        assert_eq!(c.stats().dropped_refused, 1);
    }

    #[test]
    fn unregistered_and_malformed_traffic_is_dropped_not_routed() {
        let mut c = core(RelayConfig::default());
        assert!(forward(&mut c, PeerId(66), DEST_BROADCAST, b"who", at(0)).is_empty());
        assert_eq!(c.stats().dropped_unregistered, 1);
        assert!(c.handle(PeerId(66), b"garbage", at(0)).is_empty());
        assert_eq!(c.stats().dropped_malformed, 1);
        // Server-to-client messages arriving at the server are malformed.
        let evicted = RelayMessage::Evicted { session: 1 }.encode();
        assert!(c.handle(PeerId(66), &evicted, at(0)).is_empty());
        assert_eq!(c.stats().dropped_malformed, 2);
    }

    #[test]
    fn policy_refusals_site_conflict_capacity_and_shard() {
        let mut c = core(RelayConfig {
            max_players: 2,
            max_spectators: 1,
            ..RelayConfig::default().shard(0, 2)
        });
        // Session 1 stripes onto shard 1, not this shard 0.
        assert!(register(&mut c, PeerId(10), 1, 0, false, at(0)).is_empty());
        assert_eq!(c.stats().dropped_refused, 1);

        // Session 2 is ours. Site 0 is taken; a contender is refused.
        register(&mut c, PeerId(10), 2, 0, false, at(0));
        assert!(register(&mut c, PeerId(11), 2, 0, false, at(0)).is_empty());
        // Player capacity: 2 players max.
        register(&mut c, PeerId(12), 2, 1, false, at(0));
        assert!(register(&mut c, PeerId(13), 2, 3, false, at(0)).is_empty());
        // Spectator capacity is separate: 1 fits, the 2nd is refused.
        assert!(!register(&mut c, PeerId(20), 2, 8, true, at(0)).is_empty());
        assert!(register(&mut c, PeerId(21), 2, 8, true, at(0)).is_empty());
        // Reserved sites are refused outright.
        assert!(register(&mut c, PeerId(30), 2, DEST_BROADCAST, false, at(0)).is_empty());
    }

    #[test]
    fn bye_frees_the_member_and_empty_sessions_expire() {
        let mut c = core(RelayConfig::default());
        register(&mut c, PeerId(10), 1, 0, false, at(0));
        register(&mut c, PeerId(11), 1, 1, false, at(0));
        let bye = RelayMessage::Bye { session: 1 }.encode();
        c.handle(PeerId(10), &bye, at(1));
        assert_eq!(c.member_count(1), 1);
        c.handle(PeerId(11), &bye, at(1));
        assert_eq!(c.session_count(), 0);
        // The departed address can register afresh (new session).
        assert!(!register(&mut c, PeerId(10), 2, 0, false, at(2)).is_empty());
    }

    #[test]
    fn heartbeat_refreshes_the_eviction_timer() {
        let mut c = core(RelayConfig::default());
        register(&mut c, PeerId(10), 1, 0, true, at(0));
        let ttl_ms = c.config().member_ttl.as_millis();
        let hb = RelayMessage::Heartbeat { session: 1 }.encode();
        c.handle(PeerId(10), &hb, at(ttl_ms));
        // Was refreshed at ttl, so a sweep shortly after keeps it.
        assert!(c.sweep(at(ttl_ms + 1)).is_empty());
        assert_eq!(c.member_count(1), 1);
        // A heartbeat for the wrong session does not refresh.
        let wrong = RelayMessage::Heartbeat { session: 99 }.encode();
        c.handle(PeerId(10), &wrong, at(ttl_ms * 2));
        c.sweep(at(ttl_ms * 2 + 1));
        assert_eq!(c.member_count(1), 0);
    }

    #[test]
    fn rebinding_an_address_to_a_new_identity_moves_it() {
        let mut c = core(RelayConfig::default());
        register(&mut c, PeerId(10), 1, 0, false, at(0));
        // Same address re-registers with a different site: old entry dropped.
        let acks = register(&mut c, PeerId(10), 1, 3, false, at(1));
        assert_eq!(
            acks,
            vec![RelayMessage::Registered {
                session: 1,
                site: 3
            }]
        );
        assert_eq!(c.member_count(1), 1);
    }
}
