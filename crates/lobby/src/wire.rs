//! The lobby's datagram protocol.
//!
//! Deliberately separate from the sync protocol (different magic byte):
//! the lobby is infrastructure the paper assumes exists, not part of the
//! synchronization algorithm. All messages fit one datagram; clients
//! retransmit requests until answered (the server is stateless per
//! request).

use std::error::Error;
use std::fmt;

use coplay_net::bytes::{Buf, BytesMut};
use coplay_net::PeerId;

const MAGIC: u8 = 0xC6;
const VERSION: u8 = 5;

/// Longest session name accepted.
pub const MAX_NAME: usize = 64;
/// Most sessions returned in one listing.
pub const MAX_LISTED: usize = 32;
/// Longest metrics exposition carried in one report (text beyond this is
/// truncated at a line boundary so the exposition stays parseable).
pub const MAX_METRICS_TEXT: usize = 32 * 1024;

/// Identifies a registered session at the lobby.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u32);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// One row of a session listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionEntry {
    /// The session's lobby id.
    pub id: SessionId,
    /// Human-readable name chosen by the host.
    pub name: String,
    /// Hash of the game image (clients verify before joining).
    pub rom_hash: u64,
    /// Total player slots (including the host).
    pub slots: u8,
    /// Slots still open.
    pub free: u8,
    /// The host's transport peer.
    pub host: PeerId,
}

/// Why a join was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinRefusal {
    /// No such session (expired or never existed).
    Unknown,
    /// All player slots taken.
    Full,
}

/// Lobby protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LobbyMessage {
    /// Host: create or refresh a session.
    Register {
        /// Session name (truncated to [`MAX_NAME`]).
        name: String,
        /// Hash of the host's game image.
        rom_hash: u64,
        /// Total player slots including the host.
        slots: u8,
    },
    /// Server → host: the session's assigned id.
    Registered {
        /// The new session's id.
        id: SessionId,
    },
    /// Host: remove the session.
    Unregister {
        /// Which session.
        id: SessionId,
    },
    /// Host: keep the session alive, piggybacking session health.
    ///
    /// The counters are cumulative since session start, taken from the
    /// host's `SessionStats` and snapshot-ring telemetry; all are zero
    /// for lockstep sessions.
    Heartbeat {
        /// Which session.
        id: SessionId,
        /// Rollback repairs executed by the host so far.
        rollbacks: u64,
        /// Frames re-executed across those repairs.
        resimulated_frames: u64,
        /// Deepest single rollback, in frames.
        max_rollback_depth: u64,
        /// Cumulative bytes the snapshot ring actually captured — the
        /// dirty-page subsets, not the full images they stand in for.
        snapshot_bytes_saved: u64,
        /// Cumulative bytes copied back by bitmap-guided rollback
        /// restores (full-image bytes for saturated restores).
        snapshot_bytes_restored: u64,
        /// Telemetry events evicted from the host's flight-recorder ring
        /// before they could be drained or dumped.
        dropped_events: u64,
        /// The subset of `dropped_events` that were frame-lifecycle trace
        /// spans — lost tracing fidelity, flagged so an operator knows a
        /// trace dump from this host has holes.
        dropped_spans: u64,
    },
    /// Client: list open sessions.
    List,
    /// Server → client: current sessions.
    Listing {
        /// Up to [`MAX_LISTED`] open sessions.
        sessions: Vec<SessionEntry>,
    },
    /// Client: claim a slot.
    Join {
        /// Which session.
        id: SessionId,
    },
    /// Server → client: slot granted.
    Joined {
        /// Which session.
        id: SessionId,
        /// The host to connect the game session to.
        host: PeerId,
        /// The site number assigned to this client (1-based; 0 is the host).
        site: u8,
        /// Game image hash to verify against.
        rom_hash: u64,
    },
    /// Server → client: slot refused.
    Refused {
        /// Which session.
        id: SessionId,
        /// Why.
        reason: JoinRefusal,
    },
    /// Operator: ask the server for its metrics.
    MetricsRequest,
    /// Server → operator: Prometheus-style text exposition of the server's
    /// metrics registry.
    MetricsReport {
        /// The exposition, truncated to [`MAX_METRICS_TEXT`] bytes.
        text: String,
    },
}

/// Errors decoding a lobby datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LobbyWireError {
    /// Not a lobby datagram.
    BadMagic,
    /// Unsupported version.
    BadVersion(u8),
    /// Unknown message type.
    UnknownType(u8),
    /// Datagram shorter than advertised.
    Truncated,
    /// A length field exceeds its cap.
    TooLarge,
    /// Name bytes are not UTF-8.
    BadName,
}

impl fmt::Display for LobbyWireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LobbyWireError::BadMagic => write!(f, "not a lobby datagram"),
            LobbyWireError::BadVersion(v) => write!(f, "unsupported lobby version {v}"),
            LobbyWireError::UnknownType(t) => write!(f, "unknown lobby message type {t}"),
            LobbyWireError::Truncated => write!(f, "lobby datagram truncated"),
            LobbyWireError::TooLarge => write!(f, "lobby length field exceeds cap"),
            LobbyWireError::BadName => write!(f, "session name is not valid UTF-8"),
        }
    }
}

impl Error for LobbyWireError {}

mod ty {
    pub const REGISTER: u8 = 1;
    pub const REGISTERED: u8 = 2;
    pub const UNREGISTER: u8 = 3;
    pub const HEARTBEAT: u8 = 4;
    pub const LIST: u8 = 5;
    pub const LISTING: u8 = 6;
    pub const JOIN: u8 = 7;
    pub const JOINED: u8 = 8;
    pub const REFUSED: u8 = 9;
    pub const METRICS_REQUEST: u8 = 10;
    pub const METRICS_REPORT: u8 = 11;
}

/// Truncates a metrics exposition to `MAX_METRICS_TEXT` bytes, cutting at
/// the last complete line so the result still parses.
fn truncate_exposition(text: &str) -> &[u8] {
    let bytes = text.as_bytes();
    if bytes.len() <= MAX_METRICS_TEXT {
        return bytes;
    }
    let head = bytes
        .split_at_checked(MAX_METRICS_TEXT)
        .map_or(bytes, |(head, _)| head);
    let cut = head.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    head.get(..cut).unwrap_or(&[])
}

/// Truncates a session name to at most `MAX_NAME` bytes, backing up to a
/// UTF-8 character boundary so the result stays valid text.
fn truncate_name(name: &str) -> &[u8] {
    if name.len() <= MAX_NAME {
        return name.as_bytes();
    }
    let mut cut = MAX_NAME;
    while cut > 0 && !name.is_char_boundary(cut) {
        cut -= 1;
    }
    name.get(..cut).map_or(&[], str::as_bytes)
}

impl LobbyMessage {
    /// Encodes to one datagram payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = BytesMut::with_capacity(32);
        b.put_u8(MAGIC);
        b.put_u8(VERSION);
        match self {
            LobbyMessage::Register {
                name,
                rom_hash,
                slots,
            } => {
                b.put_u8(ty::REGISTER);
                let name = truncate_name(name);
                b.put_u8(name.len() as u8);
                b.put_slice(name);
                b.put_u64_le(*rom_hash);
                b.put_u8(*slots);
            }
            LobbyMessage::Registered { id } => {
                b.put_u8(ty::REGISTERED);
                b.put_u32_le(id.0);
            }
            LobbyMessage::Unregister { id } => {
                b.put_u8(ty::UNREGISTER);
                b.put_u32_le(id.0);
            }
            LobbyMessage::Heartbeat {
                id,
                rollbacks,
                resimulated_frames,
                max_rollback_depth,
                snapshot_bytes_saved,
                snapshot_bytes_restored,
                dropped_events,
                dropped_spans,
            } => {
                b.put_u8(ty::HEARTBEAT);
                b.put_u32_le(id.0);
                b.put_u64_le(*rollbacks);
                b.put_u64_le(*resimulated_frames);
                b.put_u64_le(*max_rollback_depth);
                b.put_u64_le(*snapshot_bytes_saved);
                b.put_u64_le(*snapshot_bytes_restored);
                b.put_u64_le(*dropped_events);
                b.put_u64_le(*dropped_spans);
            }
            LobbyMessage::List => b.put_u8(ty::LIST),
            LobbyMessage::Listing { sessions } => {
                b.put_u8(ty::LISTING);
                b.put_u8(sessions.len().min(MAX_LISTED) as u8);
                for s in sessions.iter().take(MAX_LISTED) {
                    b.put_u32_le(s.id.0);
                    let name = truncate_name(&s.name);
                    b.put_u8(name.len() as u8);
                    b.put_slice(name);
                    b.put_u64_le(s.rom_hash);
                    b.put_u8(s.slots);
                    b.put_u8(s.free);
                    b.put_u8(s.host.0);
                }
            }
            LobbyMessage::Join { id } => {
                b.put_u8(ty::JOIN);
                b.put_u32_le(id.0);
            }
            LobbyMessage::Joined {
                id,
                host,
                site,
                rom_hash,
            } => {
                b.put_u8(ty::JOINED);
                b.put_u32_le(id.0);
                b.put_u8(host.0);
                b.put_u8(*site);
                b.put_u64_le(*rom_hash);
            }
            LobbyMessage::Refused { id, reason } => {
                b.put_u8(ty::REFUSED);
                b.put_u32_le(id.0);
                b.put_u8(match reason {
                    JoinRefusal::Unknown => 0,
                    JoinRefusal::Full => 1,
                });
            }
            LobbyMessage::MetricsRequest => b.put_u8(ty::METRICS_REQUEST),
            LobbyMessage::MetricsReport { text } => {
                b.put_u8(ty::METRICS_REPORT);
                let text = truncate_exposition(text);
                b.put_u32_le(text.len() as u32);
                b.put_slice(text);
            }
        }
        b.to_vec()
    }

    /// Decodes one datagram.
    ///
    /// # Errors
    ///
    /// Any [`LobbyWireError`]; decoding arbitrary bytes never panics.
    pub fn decode(data: &[u8]) -> Result<LobbyMessage, LobbyWireError> {
        let mut b = data;
        if b.remaining() < 3 {
            return Err(LobbyWireError::Truncated);
        }
        if b.get_u8() != MAGIC {
            return Err(LobbyWireError::BadMagic);
        }
        let v = b.get_u8();
        if v != VERSION {
            return Err(LobbyWireError::BadVersion(v));
        }
        let t = b.get_u8();
        macro_rules! need {
            ($n:expr) => {
                if b.remaining() < $n {
                    return Err(LobbyWireError::Truncated);
                }
            };
        }
        fn get_name(b: &mut &[u8]) -> Result<String, LobbyWireError> {
            if b.remaining() < 1 {
                return Err(LobbyWireError::Truncated);
            }
            let n = b.get_u8() as usize;
            if n > MAX_NAME {
                return Err(LobbyWireError::TooLarge);
            }
            let Some(raw) = b.try_take(n) else {
                return Err(LobbyWireError::Truncated);
            };
            String::from_utf8(raw.to_vec()).map_err(|_| LobbyWireError::BadName)
        }
        Ok(match t {
            ty::REGISTER => {
                let name = get_name(&mut b)?;
                need!(9);
                LobbyMessage::Register {
                    name,
                    rom_hash: b.get_u64_le(),
                    slots: b.get_u8(),
                }
            }
            ty::REGISTERED => {
                need!(4);
                LobbyMessage::Registered {
                    id: SessionId(b.get_u32_le()),
                }
            }
            ty::UNREGISTER => {
                need!(4);
                LobbyMessage::Unregister {
                    id: SessionId(b.get_u32_le()),
                }
            }
            ty::HEARTBEAT => {
                need!(4 + 8 * 7);
                LobbyMessage::Heartbeat {
                    id: SessionId(b.get_u32_le()),
                    rollbacks: b.get_u64_le(),
                    resimulated_frames: b.get_u64_le(),
                    max_rollback_depth: b.get_u64_le(),
                    snapshot_bytes_saved: b.get_u64_le(),
                    snapshot_bytes_restored: b.get_u64_le(),
                    dropped_events: b.get_u64_le(),
                    dropped_spans: b.get_u64_le(),
                }
            }
            ty::LIST => LobbyMessage::List,
            ty::LISTING => {
                need!(1);
                let n = b.get_u8() as usize;
                if n > MAX_LISTED {
                    return Err(LobbyWireError::TooLarge);
                }
                let mut sessions = Vec::with_capacity(n);
                for _ in 0..n {
                    need!(4);
                    let id = SessionId(b.get_u32_le());
                    let name = get_name(&mut b)?;
                    need!(11);
                    sessions.push(SessionEntry {
                        id,
                        name,
                        rom_hash: b.get_u64_le(),
                        slots: b.get_u8(),
                        free: b.get_u8(),
                        host: PeerId(b.get_u8()),
                    });
                }
                LobbyMessage::Listing { sessions }
            }
            ty::JOIN => {
                need!(4);
                LobbyMessage::Join {
                    id: SessionId(b.get_u32_le()),
                }
            }
            ty::JOINED => {
                need!(4 + 1 + 1 + 8);
                LobbyMessage::Joined {
                    id: SessionId(b.get_u32_le()),
                    host: PeerId(b.get_u8()),
                    site: b.get_u8(),
                    rom_hash: b.get_u64_le(),
                }
            }
            ty::REFUSED => {
                need!(5);
                LobbyMessage::Refused {
                    id: SessionId(b.get_u32_le()),
                    reason: if b.get_u8() == 1 {
                        JoinRefusal::Full
                    } else {
                        JoinRefusal::Unknown
                    },
                }
            }
            ty::METRICS_REQUEST => LobbyMessage::MetricsRequest,
            ty::METRICS_REPORT => {
                need!(4);
                let n = b.get_u32_le() as usize;
                if n > MAX_METRICS_TEXT {
                    return Err(LobbyWireError::TooLarge);
                }
                let Some(raw) = b.try_take(n) else {
                    return Err(LobbyWireError::Truncated);
                };
                let text = String::from_utf8(raw.to_vec()).map_err(|_| LobbyWireError::BadName)?;
                LobbyMessage::MetricsReport { text }
            }
            other => return Err(LobbyWireError::UnknownType(other)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<LobbyMessage> {
        vec![
            LobbyMessage::Register {
                name: "Friday Night SF2".into(),
                rom_hash: 0xABCD,
                slots: 2,
            },
            LobbyMessage::Registered { id: SessionId(7) },
            LobbyMessage::Unregister { id: SessionId(7) },
            LobbyMessage::Heartbeat {
                id: SessionId(7),
                rollbacks: 12,
                resimulated_frames: 48,
                max_rollback_depth: 9,
                snapshot_bytes_saved: 96_000,
                snapshot_bytes_restored: 12_000,
                dropped_events: 17,
                dropped_spans: 5,
            },
            LobbyMessage::List,
            LobbyMessage::Listing {
                sessions: vec![
                    SessionEntry {
                        id: SessionId(1),
                        name: "pong room".into(),
                        rom_hash: 1,
                        slots: 2,
                        free: 1,
                        host: PeerId(0),
                    },
                    SessionEntry {
                        id: SessionId(2),
                        name: "4p shooter".into(),
                        rom_hash: 2,
                        slots: 4,
                        free: 3,
                        host: PeerId(9),
                    },
                ],
            },
            LobbyMessage::Join { id: SessionId(1) },
            LobbyMessage::Joined {
                id: SessionId(1),
                host: PeerId(0),
                site: 1,
                rom_hash: 1,
            },
            LobbyMessage::Refused {
                id: SessionId(1),
                reason: JoinRefusal::Full,
            },
            LobbyMessage::Refused {
                id: SessionId(9),
                reason: JoinRefusal::Unknown,
            },
            LobbyMessage::MetricsRequest,
            LobbyMessage::MetricsReport {
                text: "# TYPE lobby_sessions gauge\nlobby_sessions 3\n".into(),
            },
        ]
    }

    #[test]
    fn roundtrip_every_message() {
        for m in samples() {
            assert_eq!(LobbyMessage::decode(&m.encode()).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn long_names_are_truncated_on_encode() {
        let m = LobbyMessage::Register {
            name: "x".repeat(500),
            rom_hash: 0,
            slots: 2,
        };
        let decoded = LobbyMessage::decode(&m.encode()).unwrap();
        match decoded {
            LobbyMessage::Register { name, .. } => assert_eq!(name.len(), MAX_NAME),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_metrics_report_truncates_at_a_line_boundary() {
        let line = "coplay_lobby_requests_total 1234567890\n";
        let text = line.repeat(MAX_METRICS_TEXT / line.len() + 10);
        let m = LobbyMessage::MetricsReport { text };
        match LobbyMessage::decode(&m.encode()).unwrap() {
            LobbyMessage::MetricsReport { text } => {
                assert!(text.len() <= MAX_METRICS_TEXT);
                assert!(text.ends_with('\n'), "cut at a complete line");
                assert_eq!(text.len() % line.len(), 0, "only whole lines kept");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(LobbyMessage::decode(&[]), Err(LobbyWireError::Truncated));
        assert_eq!(
            LobbyMessage::decode(&[0x00, VERSION, 1]),
            Err(LobbyWireError::BadMagic)
        );
        assert_eq!(
            LobbyMessage::decode(&[MAGIC, 9, 1]),
            Err(LobbyWireError::BadVersion(9))
        );
        assert_eq!(
            LobbyMessage::decode(&[MAGIC, VERSION, 200]),
            Err(LobbyWireError::UnknownType(200))
        );
    }

    #[test]
    fn truncated_payloads_rejected() {
        for m in samples() {
            let mut bytes = m.encode();
            if bytes.len() > 3 {
                bytes.truncate(bytes.len() - 1);
                assert!(
                    LobbyMessage::decode(&bytes).is_err(),
                    "truncated {m:?} decoded"
                );
            }
        }
    }
}
