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
//!
//! Every datagram opens with the shared two-byte header; an envelope adds
//! the site byte and a varint payload length (4 bytes of framing under 128
//! payload bytes). Session ids are random, so they stay fixed `u32`s.
//!
//! The envelopes borrow their payload from the datagram they were decoded
//! from, so the relay's fan-out and the client's unwrap copy nothing on
//! the way through the codec.

// A wire codec reads untrusted bytes: it never indexes out of range (the
// crate root denies the panic family).
#![deny(clippy::indexing_slicing)]

use coplay_net::bytes::{Buf, BufMut, WireError};

const MAGIC: u8 = 0xC7;
/// Version 2 folds the version into the type byte and writes the envelope
/// length as a varint; version 1 wrote a three-byte header and a `u16`.
const VERSION: u8 = 2;

/// Largest opaque payload one [`Forward`](RelayMessage::Forward) or
/// [`Deliver`](RelayMessage::Deliver) envelope may carry. Comfortably above
/// the sync protocol's biggest datagram (a full input batch or snapshot
/// chunk) while keeping the relay's per-datagram buffers bounded.
pub const MAX_RELAY_PAYLOAD: usize = 8 * 1024;

/// `dest` value addressing every other member of the session.
pub const DEST_BROADCAST: u8 = 254;

/// Register flag bit: the member is a read-only spectator.
const FLAG_SPECTATOR: u8 = 1;

/// Relay protocol messages. `Forward` and `Deliver` borrow their opaque
/// payload (`'a` is the datagram's lifetime).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayMessage<'a> {
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
        payload: &'a [u8],
    },
    /// Relay → client: a payload forwarded by another member.
    Deliver {
        /// The sending member's site.
        from_site: u8,
        /// The opaque game datagram.
        payload: &'a [u8],
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

mod ty {
    pub const REGISTER: u8 = 1;
    pub const REGISTERED: u8 = 2;
    pub const FORWARD: u8 = 3;
    pub const DELIVER: u8 = 4;
    pub const HEARTBEAT: u8 = 5;
    pub const EVICTED: u8 = 6;
    pub const BYE: u8 = 7;
}

impl<'a> RelayMessage<'a> {
    /// Encodes to one datagram payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_into(&mut out);
        out
    }

    /// Encodes into a reusable buffer (cleared first), so steady-state
    /// senders allocate nothing. A `Forward` or `Deliver` payload over [`MAX_RELAY_PAYLOAD`] is
    /// clamped to the cap, so the length prefix and the bytes written never
    /// disagree.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            RelayMessage::Register {
                session,
                site,
                spectator,
            } => {
                out.put_header(MAGIC, VERSION, ty::REGISTER);
                out.put_u32_le(*session);
                out.put_u8(*site);
                out.put_u8(if *spectator { FLAG_SPECTATOR } else { 0 });
            }
            RelayMessage::Registered { session, site } => {
                out.put_header(MAGIC, VERSION, ty::REGISTERED);
                out.put_u32_le(*session);
                out.put_u8(*site);
            }
            RelayMessage::Forward { dest, payload } => {
                put_envelope(out, ty::FORWARD, *dest, payload);
            }
            RelayMessage::Deliver { from_site, payload } => {
                put_envelope(out, ty::DELIVER, *from_site, payload);
            }
            RelayMessage::Heartbeat { session } => {
                out.put_header(MAGIC, VERSION, ty::HEARTBEAT);
                out.put_u32_le(*session);
            }
            RelayMessage::Evicted { session } => {
                out.put_header(MAGIC, VERSION, ty::EVICTED);
                out.put_u32_le(*session);
            }
            RelayMessage::Bye { session } => {
                out.put_header(MAGIC, VERSION, ty::BYE);
                out.put_u32_le(*session);
            }
        }
    }

    /// Decodes one datagram.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; decoding arbitrary bytes never panics. The
    /// payload length is checked against [`MAX_RELAY_PAYLOAD`] before the
    /// payload is taken.
    pub fn decode(data: &'a [u8]) -> Result<RelayMessage<'a>, WireError> {
        let mut b = data;
        Ok(match b.get_header(MAGIC, VERSION)? {
            ty::REGISTER => {
                b.need(6)?;
                RelayMessage::Register {
                    session: b.get_u32_le(),
                    site: b.get_u8(),
                    spectator: b.get_u8() & FLAG_SPECTATOR != 0,
                }
            }
            ty::REGISTERED => {
                b.need(5)?;
                RelayMessage::Registered {
                    session: b.get_u32_le(),
                    site: b.get_u8(),
                }
            }
            ty::FORWARD => {
                b.need(1)?;
                RelayMessage::Forward {
                    dest: b.get_u8(),
                    payload: b.get_field(MAX_RELAY_PAYLOAD)?,
                }
            }
            ty::DELIVER => {
                b.need(1)?;
                RelayMessage::Deliver {
                    from_site: b.get_u8(),
                    payload: b.get_field(MAX_RELAY_PAYLOAD)?,
                }
            }
            ty::HEARTBEAT => {
                b.need(4)?;
                RelayMessage::Heartbeat {
                    session: b.get_u32_le(),
                }
            }
            ty::EVICTED => {
                b.need(4)?;
                RelayMessage::Evicted {
                    session: b.get_u32_le(),
                }
            }
            ty::BYE => {
                b.need(4)?;
                RelayMessage::Bye {
                    session: b.get_u32_le(),
                }
            }
            other => return Err(WireError::UnknownType(other)),
        })
    }
}

/// Writes the header and the `(site byte, varint length, payload)` body
/// shared by `Forward` and `Deliver`, clamping an over-cap payload.
fn put_envelope(out: &mut Vec<u8>, t: u8, site: u8, payload: &[u8]) {
    out.put_header(MAGIC, VERSION, t);
    out.put_u8(site);
    out.put_field(clamp_payload(payload));
}

/// Truncates an over-cap payload so the length prefix and the written
/// bytes can never disagree (senders always produce a decodable datagram).
fn clamp_payload(p: &[u8]) -> &[u8] {
    p.get(..MAX_RELAY_PAYLOAD).unwrap_or(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_message() -> Vec<RelayMessage<'static>> {
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
                payload: b"opaque sync bytes",
            },
            RelayMessage::Deliver {
                from_site: 0,
                payload: &[0xC5, 1, 2, 3],
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
    fn envelopes_add_four_bytes_under_128_and_five_at_the_cap() {
        // Header 2, site 1, and a length of 1 byte below 128 or 2 to the cap.
        for (len, framing) in [(0, 4), (1, 4), (127, 4), (128, 5), (MAX_RELAY_PAYLOAD, 5)] {
            let payload = vec![0xA5; len];
            for msg in [
                RelayMessage::Forward {
                    dest: 1,
                    payload: &payload,
                },
                RelayMessage::Deliver {
                    from_site: 1,
                    payload: &payload,
                },
            ] {
                let bytes = msg.encode();
                assert_eq!(bytes.len(), len + framing, "{len} B payload");
                assert_eq!(RelayMessage::decode(&bytes), Ok(msg));
            }
        }
    }

    /// A `Forward` to site 0 up to its length, which the caller writes.
    fn forward_header() -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.put_header(MAGIC, VERSION, ty::FORWARD);
        bytes.put_u8(0);
        bytes
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        // A Forward claiming a payload over the cap must fail TooLarge even
        // though the datagram itself is tiny: the length is refused before
        // any payload byte is looked for.
        let mut bytes = forward_header();
        bytes.put_varint(MAX_RELAY_PAYLOAD as u64 + 1);
        assert_eq!(RelayMessage::decode(&bytes), Err(WireError::TooLarge));
        let mut bytes = forward_header();
        bytes.put_varint(u64::MAX);
        assert_eq!(RelayMessage::decode(&bytes), Err(WireError::TooLarge));
    }

    #[test]
    fn an_eleven_byte_length_is_malformed() {
        let mut bytes = forward_header();
        bytes.extend_from_slice(&[0x80; 10]);
        bytes.push(0x01);
        bytes.extend_from_slice(&[0xA5; 16]);
        assert_eq!(RelayMessage::decode(&bytes), Err(WireError::Malformed));
    }

    #[test]
    fn oversized_encode_is_clamped_to_cap() {
        // The enum encoder clamps rather than writing a lying length
        // prefix; senders never produce an undecodable datagram.
        let msg = RelayMessage::Forward {
            dest: 0,
            payload: &[0u8; MAX_RELAY_PAYLOAD + 100],
        };
        match RelayMessage::decode(&msg.encode()) {
            Ok(RelayMessage::Forward { payload, .. }) => {
                assert_eq!(payload.len(), MAX_RELAY_PAYLOAD);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}
