//! The relay's datagram protocol.
//!
//! Deliberately separate from the lobby (magic `0xC6`) and sync (magic
//! `0xC5`) protocols: the relay never decodes the game traffic it carries.
//! A client registers `(session, site)` once, then wraps each opaque sync
//! datagram in a [`Forward`](RelayMessage::Forward) envelope addressed to a
//! member site (or [`DEST_BROADCAST`]); the relay re-wraps it as a
//! [`Deliver`](RelayMessage::Deliver) stamped with the sender's site so the
//! receiving client can restore ordinary per-peer addressing. All messages
//! fit one datagram; registration is idempotent and clients retransmit it
//! until acknowledged.

use std::error::Error;
use std::fmt;

use coplay_net::bytes::{Buf, BufMut, Bytes};

const MAGIC: u8 = 0xC7;
const VERSION: u8 = 1;

/// Largest opaque payload one [`Forward`](RelayMessage::Forward) or
/// [`Deliver`](RelayMessage::Deliver) envelope may carry. Comfortably above
/// the sync protocol's biggest datagram (a full input batch or snapshot
/// chunk) while keeping the relay's per-datagram buffers bounded.
pub const MAX_RELAY_PAYLOAD: usize = 8 * 1024;

/// `dest` value addressing every other member of the session.
pub const DEST_BROADCAST: u8 = 254;

/// Register flag bit: the member is a read-only spectator.
const FLAG_SPECTATOR: u8 = 1;

/// Relay protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayMessage {
    /// Client → relay: join `session` as `site`. Retransmitted until
    /// [`Registered`](RelayMessage::Registered) arrives; idempotent.
    Register {
        /// The session to join (lobby-assigned id).
        session: u32,
        /// This member's site number.
        site: u8,
        /// `true` for a read-only spectator: receives the forwarded input
        /// stream but its own forwards are refused.
        spectator: bool,
    },
    /// Relay → client: registration acknowledged.
    Registered {
        /// The session joined.
        session: u32,
        /// The site acknowledged.
        site: u8,
    },
    /// Client → relay: forward an opaque payload to `dest` (a member site,
    /// or [`DEST_BROADCAST`] for every other member). Spectators always
    /// receive a copy regardless of `dest`.
    Forward {
        /// Destination site, or [`DEST_BROADCAST`].
        dest: u8,
        /// The opaque game datagram (never decoded by the relay).
        payload: Bytes,
    },
    /// Relay → client: a payload forwarded by another member.
    Deliver {
        /// The sending member's site.
        from_site: u8,
        /// The opaque game datagram.
        payload: Bytes,
    },
    /// Client → relay: liveness for members with nothing to forward
    /// (spectators); any datagram refreshes the eviction timer.
    Heartbeat {
        /// The session kept alive.
        session: u32,
    },
    /// Relay → client: the member was dropped for silence (or the session
    /// expired). The client must re-register to keep playing.
    Evicted {
        /// The session the member was evicted from.
        session: u32,
    },
    /// Client → relay: orderly leave; frees the member slot immediately.
    Bye {
        /// The session left.
        session: u32,
    },
}

/// Errors decoding a relay datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayWireError {
    /// Not a relay datagram.
    BadMagic,
    /// Unsupported version.
    BadVersion(u8),
    /// Unknown message type.
    UnknownType(u8),
    /// Datagram shorter than advertised.
    Truncated,
    /// A length field exceeds [`MAX_RELAY_PAYLOAD`].
    TooLarge,
}

impl fmt::Display for RelayWireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelayWireError::BadMagic => write!(f, "not a relay datagram"),
            RelayWireError::BadVersion(v) => write!(f, "unsupported relay version {v}"),
            RelayWireError::UnknownType(t) => write!(f, "unknown relay message type {t}"),
            RelayWireError::Truncated => write!(f, "relay datagram truncated"),
            RelayWireError::TooLarge => write!(f, "relay payload length exceeds cap"),
        }
    }
}

impl Error for RelayWireError {}

mod ty {
    pub const REGISTER: u8 = 1;
    pub const REGISTERED: u8 = 2;
    pub const FORWARD: u8 = 3;
    pub const DELIVER: u8 = 4;
    pub const HEARTBEAT: u8 = 5;
    pub const EVICTED: u8 = 6;
    pub const BYE: u8 = 7;
}

impl RelayMessage {
    /// Encodes to one datagram payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_into(&mut out);
        out
    }

    /// Encodes into a reusable buffer (cleared first), so steady-state
    /// senders allocate nothing.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_header(out);
        match self {
            RelayMessage::Register {
                session,
                site,
                spectator,
            } => {
                out.put_u8(ty::REGISTER);
                out.put_u32_le(*session);
                out.put_u8(*site);
                out.put_u8(if *spectator { FLAG_SPECTATOR } else { 0 });
            }
            RelayMessage::Registered { session, site } => {
                out.put_u8(ty::REGISTERED);
                out.put_u32_le(*session);
                out.put_u8(*site);
            }
            RelayMessage::Forward { dest, payload } => {
                put_envelope(out, ty::FORWARD, *dest, clamp_payload(payload));
            }
            RelayMessage::Deliver { from_site, payload } => {
                put_envelope(out, ty::DELIVER, *from_site, clamp_payload(payload));
            }
            RelayMessage::Heartbeat { session } => {
                out.put_u8(ty::HEARTBEAT);
                out.put_u32_le(*session);
            }
            RelayMessage::Evicted { session } => {
                out.put_u8(ty::EVICTED);
                out.put_u32_le(*session);
            }
            RelayMessage::Bye { session } => {
                out.put_u8(ty::BYE);
                out.put_u32_le(*session);
            }
        }
    }

    /// Decodes one datagram.
    ///
    /// # Errors
    ///
    /// Any [`RelayWireError`]; decoding arbitrary bytes never panics.
    pub fn decode(data: &[u8]) -> Result<RelayMessage, RelayWireError> {
        let mut b = data;
        let t = decode_header(&mut b)?;
        macro_rules! need {
            ($n:expr) => {
                if b.remaining() < $n {
                    return Err(RelayWireError::Truncated);
                }
            };
        }
        Ok(match t {
            ty::REGISTER => {
                need!(6);
                RelayMessage::Register {
                    session: b.get_u32_le(),
                    site: b.get_u8(),
                    spectator: b.get_u8() & FLAG_SPECTATOR != 0,
                }
            }
            ty::REGISTERED => {
                need!(5);
                RelayMessage::Registered {
                    session: b.get_u32_le(),
                    site: b.get_u8(),
                }
            }
            ty::FORWARD => {
                let (dest, payload) = get_envelope(&mut b)?;
                RelayMessage::Forward {
                    dest,
                    payload: Bytes::copy_from_slice(payload),
                }
            }
            ty::DELIVER => {
                let (from_site, payload) = get_envelope(&mut b)?;
                RelayMessage::Deliver {
                    from_site,
                    payload: Bytes::copy_from_slice(payload),
                }
            }
            ty::HEARTBEAT => {
                need!(4);
                RelayMessage::Heartbeat {
                    session: b.get_u32_le(),
                }
            }
            ty::EVICTED => {
                need!(4);
                RelayMessage::Evicted {
                    session: b.get_u32_le(),
                }
            }
            ty::BYE => {
                need!(4);
                RelayMessage::Bye {
                    session: b.get_u32_le(),
                }
            }
            other => return Err(RelayWireError::UnknownType(other)),
        })
    }
}

/// Truncates an over-cap payload so the length prefix and the written
/// bytes can never disagree (senders always produce a decodable datagram).
fn clamp_payload(p: &[u8]) -> &[u8] {
    p.get(..MAX_RELAY_PAYLOAD).unwrap_or(p)
}

/// Clears `out` and writes the magic and version bytes.
fn put_header(out: &mut Vec<u8>) {
    out.clear();
    out.put_u8(MAGIC);
    out.put_u8(VERSION);
}

/// Writes the type byte and the `(site byte, u16 length, payload)`
/// envelope tail shared by `Forward` and `Deliver`, after the header.
/// `payload` must already be within [`MAX_RELAY_PAYLOAD`].
fn put_envelope(out: &mut Vec<u8>, t: u8, site: u8, payload: &[u8]) {
    out.put_u8(t);
    out.put_u8(site);
    out.put_u16_le(payload.len() as u16);
    out.put_slice(payload);
}

/// Checks magic and version, returning the message-type byte.
fn decode_header(b: &mut &[u8]) -> Result<u8, RelayWireError> {
    if b.remaining() < 3 {
        return Err(RelayWireError::Truncated);
    }
    if b.get_u8() != MAGIC {
        return Err(RelayWireError::BadMagic);
    }
    let v = b.get_u8();
    if v != VERSION {
        return Err(RelayWireError::BadVersion(v));
    }
    Ok(b.get_u8())
}

/// Reads the shared `(site byte, u16 length, payload)` envelope tail of
/// `Forward`/`Deliver`. The length cap is checked before any allocation.
/// The payload is taken by copying the shared slice out of the cursor
/// first ([`Buf::try_take`] would tie it to the `&mut` borrow instead of
/// the datagram's `'a`) — both hot paths hand the slice outward zero-copy.
fn get_envelope<'a>(b: &mut &'a [u8]) -> Result<(u8, &'a [u8]), RelayWireError> {
    if b.remaining() < 3 {
        return Err(RelayWireError::Truncated);
    }
    let site = b.get_u8();
    let n = b.get_u16_le() as usize;
    if n > MAX_RELAY_PAYLOAD {
        return Err(RelayWireError::TooLarge);
    }
    let data: &'a [u8] = b;
    let Some(payload) = data.get(..n) else {
        return Err(RelayWireError::Truncated);
    };
    b.advance(n);
    Ok((site, payload))
}

/// Zero-copy parse of a [`Forward`](RelayMessage::Forward) datagram — the
/// relay's per-datagram hot path. Returns `(dest, payload)` borrowing from
/// `data`; any other (valid) message type comes back as
/// [`UnknownType`](RelayWireError::UnknownType) so callers fall through to
/// the full [`RelayMessage::decode`].
pub fn decode_forward(data: &[u8]) -> Result<(u8, &[u8]), RelayWireError> {
    let mut b = data;
    let t = decode_header(&mut b)?;
    if t != ty::FORWARD {
        return Err(RelayWireError::UnknownType(t));
    }
    get_envelope(&mut b)
}

/// Zero-copy encode of a [`Forward`](RelayMessage::Forward) datagram into a
/// reusable buffer (cleared first) — the client's send-side hot path.
/// Over-cap payloads are clamped exactly like the enum encoder's.
pub fn encode_forward_into(out: &mut Vec<u8>, dest: u8, payload: &[u8]) {
    put_header(out);
    put_envelope(out, ty::FORWARD, dest, clamp_payload(payload));
}

/// Zero-copy parse of a [`Deliver`](RelayMessage::Deliver) datagram — the
/// client's per-datagram hot path, mirroring [`decode_forward`]. Returns
/// `(from_site, payload)` borrowing from `data`; any other (valid) message
/// type comes back as [`UnknownType`](RelayWireError::UnknownType) so
/// callers fall through to the full [`RelayMessage::decode`].
pub fn decode_deliver(data: &[u8]) -> Result<(u8, &[u8]), RelayWireError> {
    let mut b = data;
    let t = decode_header(&mut b)?;
    if t != ty::DELIVER {
        return Err(RelayWireError::UnknownType(t));
    }
    get_envelope(&mut b)
}

/// Zero-copy encode of a [`Deliver`](RelayMessage::Deliver) datagram into a
/// reusable buffer (cleared first) — the fan-out side of the hot path.
/// `payload` must not exceed [`MAX_RELAY_PAYLOAD`] (forwards are capped on
/// ingress, so relayed payloads always satisfy this).
pub fn encode_deliver_into(out: &mut Vec<u8>, from_site: u8, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_RELAY_PAYLOAD,
        "deliver payload over cap"
    );
    put_header(out);
    put_envelope(out, ty::DELIVER, from_site, payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_message() -> Vec<RelayMessage> {
        vec![
            RelayMessage::Register {
                session: 7,
                site: 1,
                spectator: false,
            },
            RelayMessage::Register {
                session: 7,
                site: 9,
                spectator: true,
            },
            RelayMessage::Registered {
                session: 7,
                site: 1,
            },
            RelayMessage::Forward {
                dest: DEST_BROADCAST,
                payload: Bytes::copy_from_slice(b"opaque sync bytes"),
            },
            RelayMessage::Deliver {
                from_site: 0,
                payload: Bytes::copy_from_slice(&[0xC5, 1, 2, 3]),
            },
            RelayMessage::Heartbeat { session: 7 },
            RelayMessage::Evicted { session: 7 },
            RelayMessage::Bye { session: 7 },
        ]
    }

    #[test]
    fn roundtrip_every_message() {
        for msg in every_message() {
            let bytes = msg.encode();
            assert_eq!(RelayMessage::decode(&bytes), Ok(msg.clone()), "{msg:?}");
            // encode_into into a dirty buffer matches a fresh encode.
            let mut buf = vec![0xFF; 64];
            msg.encode_into(&mut buf);
            assert_eq!(buf, bytes, "{msg:?}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(RelayMessage::decode(&[]), Err(RelayWireError::Truncated));
        assert_eq!(
            RelayMessage::decode(&[0x00, VERSION, 1]),
            Err(RelayWireError::BadMagic)
        );
        assert_eq!(
            RelayMessage::decode(&[MAGIC, 99, 1]),
            Err(RelayWireError::BadVersion(99))
        );
        assert_eq!(
            RelayMessage::decode(&[MAGIC, VERSION, 200]),
            Err(RelayWireError::UnknownType(200))
        );
    }

    #[test]
    fn truncated_payloads_rejected() {
        for msg in every_message() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                let r = RelayMessage::decode(&bytes[..cut]);
                assert!(
                    r.is_err(),
                    "{msg:?} decoded from {cut}/{} bytes",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        // A Forward claiming a payload over the cap must fail TooLarge even
        // though the datagram itself is tiny.
        let mut bytes = vec![MAGIC, VERSION, 3, 0];
        bytes.put_u16_le((MAX_RELAY_PAYLOAD + 1) as u16);
        assert_eq!(RelayMessage::decode(&bytes), Err(RelayWireError::TooLarge));
        assert_eq!(decode_forward(&bytes), Err(RelayWireError::TooLarge));
    }

    #[test]
    fn forward_fast_path_matches_full_decode() {
        let msg = RelayMessage::Forward {
            dest: 1,
            payload: Bytes::copy_from_slice(b"payload"),
        };
        let bytes = msg.encode();
        let (dest, payload) = decode_forward(&bytes).unwrap();
        assert_eq!(dest, 1);
        assert_eq!(payload, b"payload");
        // Non-forward datagrams fall through as UnknownType.
        let hb = RelayMessage::Heartbeat { session: 1 }.encode();
        assert_eq!(
            decode_forward(&hb),
            Err(RelayWireError::UnknownType(ty::HEARTBEAT))
        );
    }

    #[test]
    fn deliver_fast_path_matches_full_decode() {
        let msg = RelayMessage::Deliver {
            from_site: 2,
            payload: Bytes::copy_from_slice(b"payload"),
        };
        let bytes = msg.encode();
        let (from_site, payload) = decode_deliver(&bytes).unwrap();
        assert_eq!(from_site, 2);
        assert_eq!(payload, b"payload");
        let hb = RelayMessage::Heartbeat { session: 1 }.encode();
        assert_eq!(
            decode_deliver(&hb),
            Err(RelayWireError::UnknownType(ty::HEARTBEAT))
        );
    }

    #[test]
    fn oversized_encode_is_clamped_to_cap() {
        // The enum encoder clamps rather than writing a lying length
        // prefix; senders never produce an undecodable datagram.
        let msg = RelayMessage::Forward {
            dest: 0,
            payload: Bytes::from(vec![0u8; MAX_RELAY_PAYLOAD + 100]),
        };
        match RelayMessage::decode(&msg.encode()) {
            Ok(RelayMessage::Forward { payload, .. }) => {
                assert_eq!(payload.len(), MAX_RELAY_PAYLOAD);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}
