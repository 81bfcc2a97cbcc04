//! The lobby's datagram protocol.
//!
//! Deliberately separate from the sync protocol (different magic byte):
//! the lobby is infrastructure the paper assumes exists, not part of the
//! synchronization algorithm. All messages fit one datagram; clients
//! retransmit requests until answered (the server is stateless per
//! request). Every datagram opens with the shared two-byte header (magic,
//! then version and type in one byte); text fields carry a varint length.

// A wire codec reads untrusted bytes: it never indexes out of range (the
// crate root denies the panic family).
#![deny(clippy::indexing_slicing)]

use std::fmt;

use coplay_net::bytes::{Buf, BufMut, WireError};
use coplay_net::PeerId;

const MAGIC: u8 = 0xC6;
/// Version 7 folds the version into the type byte and writes text lengths
/// as varints.
const VERSION: u8 = 7;

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
    /// Host: keep the session alive (a liveness signal only).
    Heartbeat {
        /// Which session.
        id: SessionId,
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

/// Reads a length-prefixed UTF-8 text field (see [`Buf::get_field`]).
fn get_text(b: &mut &[u8], cap: usize) -> Result<String, WireError> {
    let raw = b.get_field(cap)?;
    String::from_utf8(raw.to_vec()).map_err(|_| WireError::Malformed)
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
        let mut b = Vec::with_capacity(32);
        match self {
            LobbyMessage::Register {
                name,
                rom_hash,
                slots,
            } => {
                b.put_header(MAGIC, VERSION, ty::REGISTER);
                b.put_field(truncate_name(name));
                b.put_u64_le(*rom_hash);
                b.put_u8(*slots);
            }
            LobbyMessage::Registered { id } => {
                b.put_header(MAGIC, VERSION, ty::REGISTERED);
                b.put_u32_le(id.0);
            }
            LobbyMessage::Unregister { id } => {
                b.put_header(MAGIC, VERSION, ty::UNREGISTER);
                b.put_u32_le(id.0);
            }
            LobbyMessage::Heartbeat { id } => {
                b.put_header(MAGIC, VERSION, ty::HEARTBEAT);
                b.put_u32_le(id.0);
            }
            LobbyMessage::List => b.put_header(MAGIC, VERSION, ty::LIST),
            LobbyMessage::Listing { sessions } => {
                b.put_header(MAGIC, VERSION, ty::LISTING);
                b.put_u8(sessions.len().min(MAX_LISTED) as u8);
                for s in sessions.iter().take(MAX_LISTED) {
                    b.put_u32_le(s.id.0);
                    b.put_field(truncate_name(&s.name));
                    b.put_u64_le(s.rom_hash);
                    b.put_u8(s.slots);
                    b.put_u8(s.free);
                    b.put_u8(s.host.0);
                }
            }
            LobbyMessage::Join { id } => {
                b.put_header(MAGIC, VERSION, ty::JOIN);
                b.put_u32_le(id.0);
            }
            LobbyMessage::Joined {
                id,
                host,
                site,
                rom_hash,
            } => {
                b.put_header(MAGIC, VERSION, ty::JOINED);
                b.put_u32_le(id.0);
                b.put_u8(host.0);
                b.put_u8(*site);
                b.put_u64_le(*rom_hash);
            }
            LobbyMessage::Refused { id, reason } => {
                b.put_header(MAGIC, VERSION, ty::REFUSED);
                b.put_u32_le(id.0);
                b.put_u8(match reason {
                    JoinRefusal::Unknown => 0,
                    JoinRefusal::Full => 1,
                });
            }
            LobbyMessage::MetricsRequest => b.put_header(MAGIC, VERSION, ty::METRICS_REQUEST),
            LobbyMessage::MetricsReport { text } => {
                b.put_header(MAGIC, VERSION, ty::METRICS_REPORT);
                b.put_field(truncate_exposition(text));
            }
        }
        b
    }

    /// Decodes one datagram.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; decoding arbitrary bytes never panics. A name or
    /// metrics text that is not UTF-8 is [`WireError::Malformed`].
    pub fn decode(data: &[u8]) -> Result<LobbyMessage, WireError> {
        let mut b = data;
        Ok(match b.get_header(MAGIC, VERSION)? {
            ty::REGISTER => {
                let name = get_text(&mut b, MAX_NAME)?;
                b.need(9)?;
                LobbyMessage::Register {
                    name,
                    rom_hash: b.get_u64_le(),
                    slots: b.get_u8(),
                }
            }
            ty::REGISTERED => {
                b.need(4)?;
                LobbyMessage::Registered {
                    id: SessionId(b.get_u32_le()),
                }
            }
            ty::UNREGISTER => {
                b.need(4)?;
                LobbyMessage::Unregister {
                    id: SessionId(b.get_u32_le()),
                }
            }
            ty::HEARTBEAT => {
                b.need(4)?;
                LobbyMessage::Heartbeat {
                    id: SessionId(b.get_u32_le()),
                }
            }
            ty::LIST => LobbyMessage::List,
            ty::LISTING => {
                b.need(1)?;
                let n = b.get_u8() as usize;
                if n > MAX_LISTED {
                    return Err(WireError::TooLarge);
                }
                let mut sessions = Vec::with_capacity(n);
                for _ in 0..n {
                    b.need(4)?;
                    let id = SessionId(b.get_u32_le());
                    let name = get_text(&mut b, MAX_NAME)?;
                    b.need(11)?;
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
                b.need(4)?;
                LobbyMessage::Join {
                    id: SessionId(b.get_u32_le()),
                }
            }
            ty::JOINED => {
                b.need(4 + 1 + 1 + 8)?;
                LobbyMessage::Joined {
                    id: SessionId(b.get_u32_le()),
                    host: PeerId(b.get_u8()),
                    site: b.get_u8(),
                    rom_hash: b.get_u64_le(),
                }
            }
            ty::REFUSED => {
                b.need(5)?;
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
            ty::METRICS_REPORT => LobbyMessage::MetricsReport {
                text: get_text(&mut b, MAX_METRICS_TEXT)?,
            },
            other => return Err(WireError::UnknownType(other)),
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
            LobbyMessage::Heartbeat { id: SessionId(7) },
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
    fn truncated_payloads_rejected() {
        for m in samples() {
            let mut bytes = m.encode();
            if bytes.len() > 2 {
                bytes.truncate(bytes.len() - 1);
                assert!(
                    LobbyMessage::decode(&bytes).is_err(),
                    "truncated {m:?} decoded"
                );
            }
        }
    }
}
