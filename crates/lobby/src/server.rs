//! The lobby server: a sans-io session registry.
//!
//! Hosts register sessions and heartbeat them; clients list and join.
//! Sessions expire without heartbeats, and slots are handed out
//! first-come-first-served. The server holds no per-client state beyond the
//! registry — requests are idempotent, so clients simply retransmit over
//! the unreliable transport.

use std::collections::BTreeMap;

use coplay_clock::{SimDuration, SimTime};
use coplay_net::PeerId;
use coplay_telemetry::MetricsRegistry;

use crate::wire::{JoinRefusal, LobbyMessage, SessionEntry, SessionId, MAX_LISTED};

/// A session dies this long after its last register/heartbeat.
pub const SESSION_TTL: SimDuration = SimDuration::from_secs(30);

#[derive(Debug)]
struct Registration {
    name: String,
    rom_hash: u64,
    slots: u8,
    host: PeerId,
    /// Peers granted slots, in join order (index+1 = site number).
    members: Vec<PeerId>,
    last_seen: SimTime,
}

/// The lobby registry. Feed it decoded requests; it answers with replies to
/// transmit.
///
/// # Examples
///
/// ```
/// use coplay_clock::SimTime;
/// use coplay_lobby::{LobbyMessage, LobbyServer};
/// use coplay_net::PeerId;
///
/// let mut server = LobbyServer::new();
/// let replies = server.handle(
///     PeerId(0),
///     &LobbyMessage::Register { name: "duel".into(), rom_hash: 7, slots: 2 },
///     SimTime::ZERO,
/// );
/// assert!(matches!(replies[0].1, LobbyMessage::Registered { .. }));
/// ```
#[derive(Debug, Default)]
pub struct LobbyServer {
    sessions: BTreeMap<SessionId, Registration>,
    next_id: u32,
    metrics: MetricsRegistry,
}

impl LobbyServer {
    /// Creates an empty registry.
    pub fn new() -> LobbyServer {
        LobbyServer::default()
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The server's metrics registry (request counters, session gauge).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The server's metrics as a Prometheus-style text exposition — what a
    /// [`LobbyMessage::MetricsRequest`] is answered with.
    pub fn metrics_text(&mut self) -> String {
        self.metrics
            .gauge_set("sessions", self.sessions.len() as i64);
        self.metrics.prometheus("coplay_lobby")
    }

    /// Drops sessions whose hosts stopped heartbeating before
    /// `now - SESSION_TTL`. Call periodically.
    pub fn expire(&mut self, now: SimTime) {
        let before = self.sessions.len();
        self.sessions
            .retain(|_, s| now.saturating_since(s.last_seen) < SESSION_TTL);
        self.metrics.counter_add(
            "sessions_expired_total",
            before.saturating_sub(self.sessions.len()) as u64,
        );
    }

    /// Processes one request; returns `(destination, reply)` pairs.
    pub fn handle(
        &mut self,
        from: PeerId,
        msg: &LobbyMessage,
        now: SimTime,
    ) -> Vec<(PeerId, LobbyMessage)> {
        self.metrics.counter_add("requests_total", 1);
        match msg {
            LobbyMessage::Register {
                name,
                rom_hash,
                slots,
            } => {
                self.metrics.counter_add("register_total", 1);
                // Idempotent: re-registering the same host+name refreshes.
                if let Some((&id, reg)) = self
                    .sessions
                    .iter_mut()
                    .find(|(_, s)| s.host == from && s.name == *name)
                {
                    reg.last_seen = now;
                    reg.rom_hash = *rom_hash;
                    return vec![(from, LobbyMessage::Registered { id })];
                }
                let id = SessionId(self.next_id);
                self.next_id += 1;
                self.sessions.insert(
                    id,
                    Registration {
                        name: name.clone(),
                        rom_hash: *rom_hash,
                        slots: (*slots).max(2),
                        host: from,
                        members: Vec::new(),
                        last_seen: now,
                    },
                );
                vec![(from, LobbyMessage::Registered { id })]
            }
            LobbyMessage::Unregister { id } => {
                if self.sessions.get(id).is_some_and(|s| s.host == from) {
                    self.sessions.remove(id);
                }
                Vec::new()
            }
            LobbyMessage::Heartbeat { id } => {
                if let Some(s) = self.sessions.get_mut(id) {
                    if s.host == from {
                        s.last_seen = now;
                    }
                }
                Vec::new()
            }
            LobbyMessage::List => {
                self.metrics.counter_add("list_total", 1);
                let sessions: Vec<SessionEntry> = self
                    .sessions
                    .iter()
                    .take(MAX_LISTED)
                    .map(|(&id, s)| SessionEntry {
                        id,
                        name: s.name.clone(),
                        rom_hash: s.rom_hash,
                        slots: s.slots,
                        free: (s.slots.saturating_sub(1)).saturating_sub(s.members.len() as u8),
                        host: s.host,
                    })
                    .collect();
                vec![(from, LobbyMessage::Listing { sessions })]
            }
            LobbyMessage::Join { id } => {
                self.metrics.counter_add("join_total", 1);
                let Some(s) = self.sessions.get_mut(id) else {
                    self.metrics.counter_add("join_refused_total", 1);
                    return vec![(
                        from,
                        LobbyMessage::Refused {
                            id: *id,
                            reason: JoinRefusal::Unknown,
                        },
                    )];
                };
                // Idempotent: a retransmitted join re-grants the same slot.
                let site = match s.members.iter().position(|&m| m == from) {
                    Some(pos) => pos as u8 + 1,
                    None => {
                        if s.members.len() as u8 + 1 >= s.slots {
                            self.metrics.counter_add("join_refused_total", 1);
                            return vec![(
                                from,
                                LobbyMessage::Refused {
                                    id: *id,
                                    reason: JoinRefusal::Full,
                                },
                            )];
                        }
                        s.members.push(from);
                        s.members.len() as u8
                    }
                };
                vec![(
                    from,
                    LobbyMessage::Joined {
                        id: *id,
                        host: s.host,
                        site,
                        rom_hash: s.rom_hash,
                    },
                )]
            }
            LobbyMessage::MetricsRequest => {
                let text = self.metrics_text();
                vec![(from, LobbyMessage::MetricsReport { text })]
            }
            // Server-to-client messages arriving at the server are noise.
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn register(server: &mut LobbyServer, host: PeerId, name: &str, slots: u8) -> SessionId {
        let replies = server.handle(
            host,
            &LobbyMessage::Register {
                name: name.into(),
                rom_hash: 42,
                slots,
            },
            t(0),
        );
        match replies[0].1 {
            LobbyMessage::Registered { id } => id,
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn register_list_join_flow() {
        let mut server = LobbyServer::new();
        let id = register(&mut server, PeerId(0), "duel", 2);

        let listing = server.handle(PeerId(5), &LobbyMessage::List, t(1));
        match &listing[0].1 {
            LobbyMessage::Listing { sessions } => {
                assert_eq!(sessions.len(), 1);
                assert_eq!(sessions[0].id, id);
                assert_eq!(sessions[0].free, 1);
                assert_eq!(sessions[0].host, PeerId(0));
            }
            other => panic!("{other:?}"),
        }

        let join = server.handle(PeerId(5), &LobbyMessage::Join { id }, t(2));
        match join[0].1 {
            LobbyMessage::Joined {
                host,
                site,
                rom_hash,
                ..
            } => {
                assert_eq!(host, PeerId(0));
                assert_eq!(site, 1);
                assert_eq!(rom_hash, 42);
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn join_is_idempotent_and_fills_up() {
        let mut server = LobbyServer::new();
        let id = register(&mut server, PeerId(0), "trio", 3);
        // Two joiners take sites 1 and 2.
        for (peer, expect) in [(PeerId(5), 1u8), (PeerId(6), 2)] {
            match server.handle(peer, &LobbyMessage::Join { id }, t(1))[0].1 {
                LobbyMessage::Joined { site, .. } => assert_eq!(site, expect),
                ref o => panic!("{o:?}"),
            }
        }
        // Retransmitted join re-grants the same slot.
        match server.handle(PeerId(5), &LobbyMessage::Join { id }, t(2))[0].1 {
            LobbyMessage::Joined { site, .. } => assert_eq!(site, 1),
            ref o => panic!("{o:?}"),
        }
        // A third stranger is refused.
        match server.handle(PeerId(7), &LobbyMessage::Join { id }, t(2))[0].1 {
            LobbyMessage::Refused { reason, .. } => assert_eq!(reason, JoinRefusal::Full),
            ref o => panic!("{o:?}"),
        }
    }

    #[test]
    fn join_unknown_session_refused() {
        let mut server = LobbyServer::new();
        match server.handle(PeerId(5), &LobbyMessage::Join { id: SessionId(99) }, t(0))[0].1 {
            LobbyMessage::Refused { reason, .. } => assert_eq!(reason, JoinRefusal::Unknown),
            ref o => panic!("{o:?}"),
        }
    }

    #[test]
    fn sessions_expire_without_heartbeats() {
        let mut server = LobbyServer::new();
        let id = register(&mut server, PeerId(0), "stale", 2);
        server.expire(t(29));
        assert_eq!(server.session_count(), 1);
        server.handle(PeerId(0), &LobbyMessage::Heartbeat { id }, t(29));
        server.expire(t(58));
        assert_eq!(server.session_count(), 1, "heartbeat extended the TTL");
        server.expire(t(60));
        assert_eq!(server.session_count(), 0);
    }

    #[test]
    fn reregistration_refreshes_not_duplicates() {
        let mut server = LobbyServer::new();
        let a = register(&mut server, PeerId(0), "room", 2);
        let b = register(&mut server, PeerId(0), "room", 2);
        assert_eq!(a, b);
        assert_eq!(server.session_count(), 1);
    }

    #[test]
    fn only_the_host_can_unregister_or_heartbeat() {
        let mut server = LobbyServer::new();
        let id = register(&mut server, PeerId(0), "mine", 2);
        server.handle(PeerId(9), &LobbyMessage::Unregister { id }, t(1));
        assert_eq!(server.session_count(), 1, "stranger cannot unregister");
        // A stranger's heartbeat does not extend the TTL.
        server.handle(PeerId(9), &LobbyMessage::Heartbeat { id }, t(29));
        server.expire(t(30));
        assert_eq!(
            server.session_count(),
            0,
            "stranger's heartbeat was ignored"
        );
        let id = register(&mut server, PeerId(0), "mine", 2);
        server.handle(PeerId(0), &LobbyMessage::Unregister { id }, t(1));
        assert_eq!(server.session_count(), 0);
    }

    #[test]
    fn metrics_request_answered_with_exposition() {
        let mut server = LobbyServer::new();
        let _ = register(&mut server, PeerId(0), "duel", 2);
        server.handle(PeerId(5), &LobbyMessage::List, t(1));
        let replies = server.handle(PeerId(9), &LobbyMessage::MetricsRequest, t(2));
        match &replies[0].1 {
            LobbyMessage::MetricsReport { text } => {
                assert!(text.contains("coplay_lobby_sessions 1"), "{text}");
                assert!(text.contains("coplay_lobby_requests_total 3"), "{text}");
                assert!(text.contains("coplay_lobby_register_total 1"), "{text}");
                assert!(text.contains("coplay_lobby_list_total 1"), "{text}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn noise_messages_ignored() {
        let mut server = LobbyServer::new();
        assert!(server
            .handle(
                PeerId(1),
                &LobbyMessage::Registered { id: SessionId(1) },
                t(0)
            )
            .is_empty());
    }
}
