//! The UDP wire protocol.
//!
//! §3.1: "like in many other realtime applications, we resort to UDP and
//! implement some of the reliability mechanisms in TCP." Every datagram
//! carries one [`Message`]. The input message is the paper's `sd` vector:
//!
//! * `sd[0]` → [`InputMsg::ack`] — cumulative ack of the *receiver's*
//!   partial inputs (`LastRcvFrame[RmSiteNo]`), sent after `first` as the
//!   zigzag LEB128 varint of `ack − first` (both sites run at nearly the
//!   same frame, so this is one byte where `ack` itself would be two or
//!   three),
//! * `sd[1]` → [`InputMsg::first`] — first frame carried
//!   (`LastAckFrame[RmSiteNo] + 1`), a LEB128 varint,
//! * `sd[2]` → `first + inputs.len() - 1` — last frame carried
//!   (`LastRcvFrame[MySiteNo]`), not sent: the run lengths below sum to
//!   `inputs.len()`,
//! * `sd[3…]` → [`InputMsg::inputs`] — the sender's partial input words,
//!   run-length coded: a varint run count, then per run a varint length
//!   (≥ 1) and the word as a sparse `u32` (a presence mask byte, then the
//!   word's non-zero bytes).
//!
//! The paper's reliability re-sends every unacked frame in every message,
//! and a sender's partial word holds one player byte that repeats while a
//! button is held, so a held input costs 3 bytes however many frames
//! (under 128) it spans, in any of the four player slots. The varint and
//! sparse-word helpers live in [`coplay_net::bytes`].
//!
//! No message names its sender. The receiver takes `RmSiteNo` from the
//! transport, which knows which peer a datagram came from, so a datagram
//! cannot claim another site's input slots.
//!
//! Every datagram opens with the shared two-byte header (magic, then
//! version and type in one byte). The other messages write hashes as fixed
//! `u64`s and their frame numbers, nonces, offsets and lengths as varints.
//!
//! The format is hand-rolled, versioned, and length-checked: exactly what a
//! production netplay protocol needs, with no serialization framework to
//! obscure it. A build speaking another version cannot join: its
//! datagrams decode as [`WireError::BadVersion`] and are dropped.

// A wire codec reads untrusted bytes: it returns typed errors and never
// panics or indexes out of range.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub use coplay_net::bytes::WireError;
use coplay_net::bytes::{Buf, BufMut};
use coplay_vm::InputWord;

/// Protocol magic byte and version (see [`coplay_net::bytes`]).
const MAGIC: u8 = 0xC5;
/// Version 5 folds the version into the type byte and writes every
/// counter, frame number and length as a varint. Version 4 dropped the
/// sender's site byte from `Input`, `Hello` and `TimeStamp` (the transport
/// names the sender). Version 3 dropped `Hello`'s observer byte, which no
/// receiver read. Version 2 run-length codes the input words and writes
/// frame numbers as varints; version 1 wrote fixed-width fields and one
/// `u32` per frame.
const VERSION: u8 = 5;

/// Hard cap on input words per message; bounds allocation on receive.
pub const MAX_INPUTS_PER_MSG: usize = 1024;

/// Input frames a site sends per message at most (oldest first, so
/// retransmission stays cumulative): two seconds of backlog at 60 FPS.
pub(crate) const MAX_PAYLOAD_FRAMES: usize = 120;
// A receiver must decode every message a sender builds, or the same batch
// is re-sent forever.
const _: () = assert!(MAX_PAYLOAD_FRAMES <= MAX_INPUTS_PER_MSG);

/// Hard cap on snapshot chunk payload (fits one UDP datagram comfortably).
pub const MAX_CHUNK_BYTES: usize = 1024;

/// A lockstep input batch (the paper's `sd` message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputMsg {
    /// `sd[0]`: the sender has received all of *the destination's* partial
    /// inputs up to and including this frame.
    pub ack: u64,
    /// `sd[1]`: frame number of `inputs[0]`.
    pub first: u64,
    /// `sd[3…]`: the sender's partial input words for frames
    /// `first .. first + inputs.len()`.
    pub inputs: Vec<InputWord>,
}

impl InputMsg {
    /// `sd[2]`: the last frame carried, or `first - 1` when empty (pure ack).
    pub fn last(&self) -> u64 {
        (self.first + self.inputs.len() as u64).saturating_sub(1)
    }
}

/// Session-control and measurement messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Input batch (the protocol's workhorse).
    Input(InputMsg),
    /// Join request: "my game image hashes to `rom_hash`".
    Hello {
        /// Hash of the sender's game image.
        rom_hash: u64,
    },
    /// Host's accept; the receiver may start its frame loop on receipt.
    HelloAck {
        /// Hash of the host's game image (receiver re-verifies).
        rom_hash: u64,
        /// Frame at which the newcomer joins (0 for a fresh session).
        start_frame: u64,
    },
    /// RTT probe.
    Ping {
        /// Echoed verbatim in the matching [`Message::Pong`].
        nonce: u32,
    },
    /// RTT probe response.
    Pong {
        /// Copied from the probe.
        nonce: u32,
    },
    /// Latecomer support: ask the host for a state snapshot.
    SnapshotRequest,
    /// One chunk of a machine snapshot (latecomer join).
    SnapshotChunk {
        /// Frame the snapshot was taken at.
        frame: u64,
        /// Byte offset of this chunk.
        offset: u32,
        /// Total snapshot size in bytes.
        total: u32,
        /// The chunk payload.
        bytes: Vec<u8>,
    },
    /// Orderly goodbye (peer quit; the paper's system would freeze instead).
    Bye,
    /// A frame-begin stamp for the measurement time server (§4).
    TimeStamp {
        /// The frame that just began.
        frame: u64,
    },
}

mod ty {
    pub const INPUT: u8 = 1;
    pub const HELLO: u8 = 2;
    pub const HELLO_ACK: u8 = 3;
    pub const PING: u8 = 4;
    pub const PONG: u8 = 5;
    pub const SNAPSHOT_REQUEST: u8 = 6;
    pub const SNAPSHOT_CHUNK: u8 = 7;
    pub const BYE: u8 = 8;
    pub const TIME_STAMP: u8 = 9;
}

/// Maps a wrapping difference to a varint-friendly value: small positive
/// and negative distances both become small (0, -1, 1, -2 → 0, 1, 2, 3).
fn zigzag(d: u64) -> u64 {
    (d << 1) ^ ((d as i64 >> 63) as u64)
}

/// Inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

impl Message {
    /// Encodes the message into a fresh datagram payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Encodes the message into `out` (cleared first).
    ///
    /// The send paths call this once per datagram with a per-session
    /// buffer, so steady-state input traffic allocates nothing.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        let b = out;
        match self {
            Message::Input(m) => {
                b.put_header(MAGIC, VERSION, ty::INPUT);
                b.put_varint(m.first);
                b.put_varint(zigzag(m.ack.wrapping_sub(m.first)));
                b.put_varint(m.inputs.chunk_by(|x, y| x == y).count() as u64);
                for run in m.inputs.chunk_by(|x, y| x == y) {
                    b.put_varint(run.len() as u64);
                    b.put_sparse_u32(run.first().map_or(0, |w| w.0));
                }
            }
            Message::Hello { rom_hash } => {
                b.put_header(MAGIC, VERSION, ty::HELLO);
                b.put_u64_le(*rom_hash);
            }
            Message::HelloAck {
                rom_hash,
                start_frame,
            } => {
                b.put_header(MAGIC, VERSION, ty::HELLO_ACK);
                b.put_u64_le(*rom_hash);
                b.put_varint(*start_frame);
            }
            Message::Ping { nonce } => {
                b.put_header(MAGIC, VERSION, ty::PING);
                b.put_varint(u64::from(*nonce));
            }
            Message::Pong { nonce } => {
                b.put_header(MAGIC, VERSION, ty::PONG);
                b.put_varint(u64::from(*nonce));
            }
            Message::SnapshotRequest => b.put_header(MAGIC, VERSION, ty::SNAPSHOT_REQUEST),
            Message::SnapshotChunk {
                frame,
                offset,
                total,
                bytes,
            } => {
                b.put_header(MAGIC, VERSION, ty::SNAPSHOT_CHUNK);
                b.put_varint(*frame);
                b.put_varint(u64::from(*offset));
                b.put_varint(u64::from(*total));
                b.put_field(bytes);
            }
            Message::Bye => b.put_header(MAGIC, VERSION, ty::BYE),
            Message::TimeStamp { frame } => {
                b.put_header(MAGIC, VERSION, ty::TIME_STAMP);
                b.put_varint(*frame);
            }
        }
    }

    /// Decodes one datagram.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for short, foreign, or oversized datagrams —
    /// a UDP port receives arbitrary bytes, so decoding must never panic.
    pub fn decode(data: &[u8]) -> Result<Message, WireError> {
        let mut b = data;
        Ok(match b.get_header(MAGIC, VERSION)? {
            ty::INPUT => {
                let first = b.get_varint()?;
                let ack = first.wrapping_add(unzigzag(b.get_varint()?));
                let runs = b.get_varint()?;
                if runs > MAX_INPUTS_PER_MSG as u64 {
                    return Err(WireError::TooLarge);
                }
                let mut inputs = Vec::new();
                for _ in 0..runs {
                    let len = b.get_varint()?;
                    if len == 0 {
                        return Err(WireError::Malformed);
                    }
                    // Checked before the buffer grows, so no datagram can
                    // make it hold more than the cap.
                    if len > (MAX_INPUTS_PER_MSG - inputs.len()) as u64 {
                        return Err(WireError::TooLarge);
                    }
                    let word = InputWord(b.get_sparse_u32()?);
                    let need = inputs.len() + len as usize;
                    if need > inputs.capacity() {
                        // Geometric growth from 16 words, clamped to the cap.
                        let cap = need.max(2 * inputs.capacity()).max(16);
                        inputs.reserve_exact(cap.min(MAX_INPUTS_PER_MSG) - inputs.len());
                    }
                    inputs.resize(need, word);
                }
                Message::Input(InputMsg { ack, first, inputs })
            }
            ty::HELLO => {
                b.need(8)?;
                Message::Hello {
                    rom_hash: b.get_u64_le(),
                }
            }
            ty::HELLO_ACK => {
                b.need(8)?;
                Message::HelloAck {
                    rom_hash: b.get_u64_le(),
                    start_frame: b.get_varint()?,
                }
            }
            ty::PING => Message::Ping {
                nonce: b.get_varint_u32()?,
            },
            ty::PONG => Message::Pong {
                nonce: b.get_varint_u32()?,
            },
            ty::SNAPSHOT_REQUEST => Message::SnapshotRequest,
            ty::SNAPSHOT_CHUNK => Message::SnapshotChunk {
                frame: b.get_varint()?,
                offset: b.get_varint_u32()?,
                total: b.get_varint_u32()?,
                bytes: b.get_field(MAX_CHUNK_BYTES)?.to_vec(),
            },
            ty::BYE => Message::Bye,
            ty::TIME_STAMP => Message::TimeStamp {
                frame: b.get_varint()?,
            },
            other => return Err(WireError::UnknownType(other)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coplay_vm::Player;

    fn samples() -> Vec<Message> {
        vec![
            Message::Input(InputMsg {
                ack: 41,
                first: 42,
                inputs: vec![InputWord(0xAB), InputWord(0), InputWord(0xFFFF_FFFF)],
            }),
            Message::Input(InputMsg {
                ack: 7,
                first: 8,
                inputs: vec![], // pure ack
            }),
            Message::Input(InputMsg {
                ack: u64::MAX,
                first: 0, // `ack - first` wraps
                inputs: vec![InputWord(0x0300_0000); 130],
            }),
            Message::Hello {
                rom_hash: 0xDEAD_BEEF_CAFE_F00D,
            },
            Message::HelloAck {
                rom_hash: 99,
                start_frame: 1234,
            },
            Message::Ping { nonce: 0x01020304 },
            Message::Pong { nonce: 0x01020304 },
            Message::SnapshotRequest,
            Message::SnapshotChunk {
                frame: 600,
                offset: 2048,
                total: 70_000,
                bytes: b"state-bytes".to_vec(),
            },
            Message::Bye,
            Message::TimeStamp { frame: 77 },
        ]
    }

    #[test]
    fn roundtrip_every_message() {
        for m in samples() {
            let encoded = m.encode();
            assert_eq!(Message::decode(&encoded).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_the_buffer() {
        let mut buf = Vec::new();
        for m in samples() {
            m.encode_into(&mut buf);
            assert_eq!(buf, m.encode(), "{m:?}");
            assert_eq!(Message::decode(&buf).unwrap(), m, "{m:?}");
        }
        // A large message grows the buffer once; smaller ones after it
        // must reuse the allocation.
        Message::Input(InputMsg {
            ack: 0,
            first: 0,
            inputs: vec![InputWord(7); 64],
        })
        .encode_into(&mut buf);
        let cap = buf.capacity();
        Message::Bye.encode_into(&mut buf);
        assert_eq!(buf.capacity(), cap, "encode_into must not reallocate");
    }

    #[test]
    fn input_last_frame_math() {
        let m = InputMsg {
            ack: 0,
            first: 10,
            inputs: vec![InputWord(1); 5],
        };
        assert_eq!(m.last(), 14);
        let empty = InputMsg {
            ack: 0,
            first: 10,
            inputs: vec![],
        };
        assert_eq!(empty.last(), 9);
    }

    #[test]
    fn decode_rejects_truncated_payload() {
        let mut bytes = samples()[0].encode();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(Message::decode(&bytes), Err(WireError::Truncated));
    }

    /// An input message's bytes up to its run count: header, `first` 0 and
    /// `ack` 0.
    fn input_header(runs: u64) -> Vec<u8> {
        let mut b = Vec::new();
        b.put_header(MAGIC, VERSION, ty::INPUT);
        b.extend_from_slice(&[0, 0]);
        b.put_varint(runs);
        b
    }

    #[test]
    fn decode_rejects_oversized_counts() {
        // More runs than the cap allows frames.
        let b = input_header(MAX_INPUTS_PER_MSG as u64 + 1);
        assert_eq!(Message::decode(&b), Err(WireError::TooLarge));

        // Runs summing past the cap. The second run's word is missing, so
        // `TooLarge` (not `Truncated`) shows the length is refused before
        // anything after it is read or the buffer grows for it.
        let mut b = input_header(2);
        b.put_varint(MAX_INPUTS_PER_MSG as u64 - 1);
        b.put_sparse_u32(7);
        b.put_varint(2);
        assert_eq!(Message::decode(&b), Err(WireError::TooLarge));
        let mut b = input_header(1);
        b.put_varint(u64::MAX);
        assert_eq!(Message::decode(&b), Err(WireError::TooLarge));

        // Exactly the cap decodes, into a buffer no larger than the cap.
        let mut b = input_header(2);
        b.put_varint(MAX_INPUTS_PER_MSG as u64 - 1);
        b.put_sparse_u32(7);
        b.put_varint(1);
        b.put_sparse_u32(0);
        let Ok(Message::Input(m)) = Message::decode(&b) else {
            panic!("a message of exactly the cap must decode");
        };
        assert_eq!(m.inputs.len(), MAX_INPUTS_PER_MSG);
        assert!(m.inputs.capacity() <= MAX_INPUTS_PER_MSG);
    }

    #[test]
    fn decode_rejects_malformed_runs_and_fields() {
        // A zero-length run.
        let mut b = input_header(1);
        b.put_varint(0);
        b.put_sparse_u32(1);
        assert_eq!(Message::decode(&b), Err(WireError::Malformed));

        // An 11-byte varint in place of `first`.
        let mut b = Vec::new();
        b.put_header(MAGIC, VERSION, ty::INPUT);
        b.extend_from_slice(&[0x80; 10]);
        b.extend_from_slice(&[0x00, 0, 0]);
        assert_eq!(Message::decode(&b), Err(WireError::Malformed));

        // A presence mask with a bit above the fourth byte.
        let mut b = input_header(1);
        b.put_varint(1);
        b.extend_from_slice(&[0x11, 0xAA]);
        assert_eq!(Message::decode(&b), Err(WireError::Malformed));
    }

    #[test]
    fn wan_rollback_shaped_message_fits_in_12_bytes() {
        // About six frames carried per datagram, in two held inputs, with
        // frame numbers past 127 so `first` needs two varint bytes: a
        // 2-byte header, 2 for `first`, 1 each for the ack and the run
        // count, and 3 per run.
        for player in (0..Player::MAX as u8).map(Player) {
            let held = |buttons: u8, n: usize| vec![InputWord::for_player(player, buttons); n];
            let mut inputs = held(0x21, 4);
            inputs.extend(held(0x0C, 2));
            let m = Message::Input(InputMsg {
                ack: 998,
                first: 1000,
                inputs,
            });
            let bytes = m.encode();
            assert!(bytes.len() <= 12, "{player:?}: {} B", bytes.len());
            assert_eq!(Message::decode(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn changing_words_cost_no_more_than_fixed_width() {
        // The worst case for runs — a new word every frame — must not
        // exceed version 1's 22 + 4 B per frame, in any player slot.
        for player in (0..Player::MAX as u8).map(Player) {
            for n in [1usize, 2, 6, 120, MAX_INPUTS_PER_MSG] {
                let inputs = (0..n)
                    .map(|i| InputWord::for_player(player, (i % 63) as u8 + 1))
                    .collect();
                let m = Message::Input(InputMsg {
                    ack: u64::MAX - 1,
                    first: u64::MAX - n as u64,
                    inputs,
                });
                let len = m.encode().len();
                assert!(len <= 22 + 4 * n, "{player:?} n={n}: {len} B");
            }
        }
    }
}
