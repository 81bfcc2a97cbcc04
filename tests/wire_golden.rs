//! Golden datagrams: the byte layout of every wire message, pinned.
//!
//! The paper's sites are separate programs, so a datagram's layout is the
//! contract between two builds. Each codec (sync `0xC5`, lobby `0xC6`,
//! relay `0xC7`) pins one datagram per message variant, built from
//! distinct non-zero field values so that a widened, narrowed, reordered
//! or dropped field moves the bytes. For every pin the test asserts that
//! the message encodes to the pinned bytes and that the pinned bytes
//! decode to the message. The three codecs share one frame (a two-byte
//! header: the magic, then the version in the high nibble and the message
//! type in the low one; and one error type), so garbage must fail alike
//! whichever codec reads it.
//!
//! A variant with no pin fails `every_variant_is_pinned`: the
//! `variants!` tables are `match`es with no wildcard arm, so a new variant
//! does not compile until it is named there, and a named variant needs a
//! pin.
//!
//! To change a layout on purpose, bump the codec's `VERSION` and run
//! `cargo test --test wire_golden`; the failure prints each new datagram
//! as hex to paste over its pin.

use std::fmt::{Debug, Write};

use coplay::lobby::{JoinRefusal, LobbyMessage, SessionEntry, SessionId};
use coplay::net::bytes::WireError;
use coplay::net::PeerId;
use coplay::relay::{RelayMessage, DEST_BROADCAST};
use coplay::sync::{InputMsg, Message};
use coplay::vm::InputWord;

/// One pinned datagram.
struct Golden<M> {
    /// What the pin covers, printed on a mismatch.
    case: &'static str,
    msg: M,
    /// The datagram as lowercase hex.
    hex: &'static str,
}

fn golden<M>(case: &'static str, msg: M, hex: &'static str) -> Golden<M> {
    Golden { case, msg, hex }
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        let _ = write!(s, "{b:02x}");
        s
    })
}

fn from_hex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("pins are hex"))
        .collect()
}

/// `Ok` if `decoded` is `want`, else the decoded result, for the report.
fn same<M: PartialEq + Debug>(decoded: Result<M, WireError>, want: &M) -> Result<(), String> {
    match decoded {
        Ok(m) if m == *want => Ok(()),
        other => Err(format!("{other:?}")),
    }
}

/// Checks every pin of one codec and panics with all mismatches at once,
/// each with the datagram the code now writes. `decodes_to` decodes a
/// datagram and compares it with a message (see [`same`]).
fn check<M: Debug>(
    codec: &str,
    pins: &[Golden<M>],
    encode: impl Fn(&M) -> Vec<u8>,
    decodes_to: impl Fn(&[u8], &M) -> Result<(), String>,
) {
    let mut failures = String::new();
    for pin in pins {
        let pinned = from_hex(pin.hex);
        let now = encode(&pin.msg);
        if now != pinned {
            // The high nibble of byte 1 of every codec's datagram is its
            // VERSION.
            let version = |d: &[u8]| d.get(1).map(|b| b >> 4);
            let why = if version(&now) == version(&pinned) {
                "layout changed without a VERSION bump"
            } else {
                "VERSION bumped, re-pin"
            };
            let _ = writeln!(
                failures,
                "{codec} {}: {why}\n  pinned: {}\n  new:    {}",
                pin.case,
                pin.hex,
                to_hex(&now)
            );
            continue;
        }
        if let Err(decoded) = decodes_to(&pinned, &pin.msg) {
            let _ = writeln!(
                failures,
                "{codec} {}: the pinned datagram decodes to {decoded:?}, not {:?}",
                pin.case, pin.msg
            );
        }
    }
    assert!(failures.is_empty(), "wire drift:\n{failures}");
}

/// Defines `$name`, naming a message's variant by a `match` with no
/// wildcard arm, and `$all`, the names of all its arms.
macro_rules! variants {
    ($name:ident, $all:ident, $ty:ty { $($pat:pat => $variant:ident),* $(,)? }) => {
        const $all: &[&str] = &[$(stringify!($variant)),*];
        fn $name(m: &$ty) -> &'static str {
            match m {
                $($pat => stringify!($variant)),*
            }
        }
    };
}

variants!(sync_variant, SYNC_VARIANTS, Message {
    Message::Input(_) => Input,
    Message::Hello { .. } => Hello,
    Message::HelloAck { .. } => HelloAck,
    Message::Ping { .. } => Ping,
    Message::Pong { .. } => Pong,
    Message::SnapshotRequest => SnapshotRequest,
    Message::SnapshotChunk { .. } => SnapshotChunk,
    Message::Bye => Bye,
    Message::TimeStamp { .. } => TimeStamp,
});

variants!(lobby_variant, LOBBY_VARIANTS, LobbyMessage {
    LobbyMessage::Register { .. } => Register,
    LobbyMessage::Registered { .. } => Registered,
    LobbyMessage::Unregister { .. } => Unregister,
    LobbyMessage::Heartbeat { .. } => Heartbeat,
    LobbyMessage::List => List,
    LobbyMessage::Listing { .. } => Listing,
    LobbyMessage::Join { .. } => Join,
    LobbyMessage::Joined { .. } => Joined,
    LobbyMessage::Refused { .. } => Refused,
    LobbyMessage::MetricsRequest => MetricsRequest,
    LobbyMessage::MetricsReport { .. } => MetricsReport,
});

variants!(relay_variant, RELAY_VARIANTS, RelayMessage {
    RelayMessage::Register { .. } => Register,
    RelayMessage::Registered { .. } => Registered,
    RelayMessage::Forward { .. } => Forward,
    RelayMessage::Deliver { .. } => Deliver,
    RelayMessage::Heartbeat { .. } => Heartbeat,
    RelayMessage::Evicted { .. } => Evicted,
    RelayMessage::Bye { .. } => Bye,
});

fn input(ack: u64, first: u64, inputs: Vec<InputWord>) -> Message {
    Message::Input(InputMsg { ack, first, inputs })
}

fn sync_pins() -> Vec<Golden<Message>> {
    vec![
        golden(
            "Input",
            input(
                305,
                300,
                vec![
                    InputWord(0x0403_0201),
                    InputWord(0x0403_0201),
                    InputWord(0x0500),
                ],
            ),
            "c551ac020a02020f01020304010205",
        ),
        golden("Input (pure ack)", input(77, 70, vec![]), "c551460e00"),
        golden(
            "Input (held run)",
            input(131, 130, vec![InputWord(0x0600); 200]),
            "c55182010201c8010206",
        ),
        golden(
            "Input (sparse words)",
            input(
                12,
                11,
                vec![InputWord(0x00AB_00CD), InputWord(0), InputWord(0xEF00_0000)],
            ),
            "c5510b02030105cdab01000108ef",
        ),
        golden(
            "Input (ack below first)",
            input(40, 50, vec![InputWord(0x0800)]),
            "c551321301010208",
        ),
        golden(
            "Hello",
            Message::Hello {
                rom_hash: 0x1112_1314_1516_1718,
            },
            "c5521817161514131211",
        ),
        golden(
            "HelloAck",
            Message::HelloAck {
                rom_hash: 0x2122_2324_2526_2728,
                start_frame: 0x3132_3334_3536_3738,
            },
            "c5532827262524232221b8eed8a9c3e68c9931",
        ),
        golden(
            "Ping",
            Message::Ping { nonce: 0x4142_4344 },
            "c554c486898a04",
        ),
        golden(
            "Pong",
            Message::Pong { nonce: 0x5152_5354 },
            "c555d4a6c98a05",
        ),
        golden("SnapshotRequest", Message::SnapshotRequest, "c556"),
        golden(
            "SnapshotChunk",
            Message::SnapshotChunk {
                frame: 0x6162_6364_6566_6768,
                offset: 0x0708_090A,
                total: 0x7172_7374,
                bytes: vec![0x81, 0x82, 0x83],
            },
            "c557e8ce99abc6ec98b1618a92a038f4e6c98b0703818283",
        ),
        golden("Bye", Message::Bye, "c558"),
        golden(
            "TimeStamp",
            Message::TimeStamp {
                frame: 0x9192_9394_9596_9798,
            },
            "c55998afdaacc9f2a4c99101",
        ),
    ]
}

fn lobby_pins() -> Vec<Golden<LobbyMessage>> {
    let id = SessionId(0x1112_1314);
    vec![
        golden(
            "Register",
            LobbyMessage::Register {
                name: "pong".into(),
                rom_hash: 0x2122_2324_2526_2728,
                slots: 3,
            },
            "c67104706f6e67282726252423222103",
        ),
        golden(
            "Registered",
            LobbyMessage::Registered { id },
            "c67214131211",
        ),
        golden(
            "Unregister",
            LobbyMessage::Unregister { id },
            "c67314131211",
        ),
        golden("Heartbeat", LobbyMessage::Heartbeat { id }, "c67414131211"),
        golden("List", LobbyMessage::List, "c675"),
        golden(
            "Listing",
            LobbyMessage::Listing {
                sessions: vec![
                    SessionEntry {
                        id,
                        name: "ab".into(),
                        rom_hash: 0x3132_3334_3536_3738,
                        slots: 4,
                        free: 2,
                        host: PeerId(5),
                    },
                    SessionEntry {
                        id: SessionId(0x4142_4344),
                        name: "c".into(),
                        rom_hash: 0x5152_5354_5556_5758,
                        slots: 6,
                        free: 1,
                        host: PeerId(7),
                    },
                ],
            },
            "c676021413121102616238373635343332310402054443424101635857565554535251060107",
        ),
        golden("Join", LobbyMessage::Join { id }, "c67714131211"),
        golden(
            "Joined",
            LobbyMessage::Joined {
                id,
                host: PeerId(8),
                site: 2,
                rom_hash: 0x6162_6364_6566_6768,
            },
            "c6781413121108026867666564636261",
        ),
        golden(
            "Refused (full)",
            LobbyMessage::Refused {
                id,
                reason: JoinRefusal::Full,
            },
            "c6791413121101",
        ),
        golden(
            "Refused (unknown)",
            LobbyMessage::Refused {
                id,
                reason: JoinRefusal::Unknown,
            },
            "c6791413121100",
        ),
        golden("MetricsRequest", LobbyMessage::MetricsRequest, "c67a"),
        golden(
            "MetricsReport",
            LobbyMessage::MetricsReport {
                text: "up 1\n".into(),
            },
            "c67b05757020310a",
        ),
    ]
}

fn relay_pins() -> Vec<Golden<RelayMessage<'static>>> {
    let session = 0x1112_1314;
    vec![
        golden(
            "Register",
            RelayMessage::Register {
                session,
                site: 2,
                spectator: true,
            },
            "c721141312110201",
        ),
        golden(
            "Registered",
            RelayMessage::Registered { session, site: 3 },
            "c7221413121103",
        ),
        golden(
            "Forward",
            RelayMessage::Forward {
                dest: DEST_BROADCAST,
                payload: &[0xC5, 0x21, 0x22],
            },
            "c723fe03c52122",
        ),
        golden(
            "Deliver",
            RelayMessage::Deliver {
                from_site: 4,
                payload: &[0xC5, 0x31, 0x32, 0x33],
            },
            "c7240404c5313233",
        ),
        golden(
            "Heartbeat",
            RelayMessage::Heartbeat { session },
            "c72514131211",
        ),
        golden(
            "Evicted",
            RelayMessage::Evicted {
                session: 0x4142_4344,
            },
            "c72644434241",
        ),
        golden(
            "Bye",
            RelayMessage::Bye {
                session: 0x5152_5354,
            },
            "c72754535251",
        ),
    ]
}

#[test]
fn sync_datagrams_match_their_pins() {
    check("sync", &sync_pins(), Message::encode, |b, m| {
        same(Message::decode(b), m)
    });
}

#[test]
fn lobby_datagrams_match_their_pins() {
    check("lobby", &lobby_pins(), LobbyMessage::encode, |b, m| {
        same(LobbyMessage::decode(b), m)
    });
}

#[test]
fn relay_datagrams_match_their_pins() {
    check("relay", &relay_pins(), RelayMessage::encode, |b, m| {
        same(RelayMessage::decode(b), m)
    });
}

#[test]
fn every_variant_is_pinned() {
    fn covers<M>(codec: &str, all: &[&str], pins: &[Golden<M>], name: fn(&M) -> &'static str) {
        for variant in all {
            assert!(
                pins.iter().any(|p| name(&p.msg) == *variant),
                "{codec} {variant} has no golden datagram"
            );
        }
    }
    covers("sync", SYNC_VARIANTS, &sync_pins(), sync_variant);
    covers("lobby", LOBBY_VARIANTS, &lobby_pins(), lobby_variant);
    covers("relay", RELAY_VARIANTS, &relay_pins(), relay_variant);
}

// Builds before the two-byte header wrote a whole version byte, which
// reads as version 0 in the high nibble: a later build drops their
// datagrams rather than reading a layout it does not speak.

#[test]
fn a_version_4_sync_input_is_refused() {
    // A v4 input batch, 3-byte header and all.
    let v4 = from_hex("c50401ac020a02020f01020304010205");
    assert_eq!(Message::decode(&v4), Err(WireError::BadVersion(0)));
}

#[test]
fn a_version_6_lobby_datagram_is_refused() {
    // A v6 `Register` with a one-byte name length.
    let v6 = from_hex("c6060104706f6e67282726252423222103");
    assert_eq!(LobbyMessage::decode(&v6), Err(WireError::BadVersion(0)));
}

#[test]
fn a_version_1_relay_forward_is_refused() {
    // A v1 `Forward` with a `u16` payload length.
    let v1 = from_hex("c70103fe0300c52122");
    assert_eq!(RelayMessage::decode(&v1), Err(WireError::BadVersion(0)));
}

/// The pins of one codec as datagrams.
fn datagrams<M>(pins: &[Golden<M>]) -> Vec<Vec<u8>> {
    pins.iter().map(|p| from_hex(p.hex)).collect()
}

/// The codecs share one frame, so each reads garbage alike: a foreign
/// magic is `BadMagic`, a wrong version `BadVersion`, an unknown type
/// `UnknownType`, and every strict prefix of every pin `Truncated`.
#[test]
fn every_codec_rejects_garbage_alike() {
    type Decode = fn(&[u8]) -> Option<WireError>;
    let codecs: [(&str, Vec<Vec<u8>>, Decode); 3] = [
        ("sync", datagrams(&sync_pins()), |b| {
            Message::decode(b).err()
        }),
        ("lobby", datagrams(&lobby_pins()), |b| {
            LobbyMessage::decode(b).err()
        }),
        ("relay", datagrams(&relay_pins()), |b| {
            RelayMessage::decode(b).err()
        }),
    ];
    for (codec, pins, decode) in &codecs {
        let (magic, version) = (pins[0][0], pins[0][1] >> 4);
        assert_eq!(decode(&[0x00, version << 4 | 1]), Some(WireError::BadMagic));
        for (foreign, foreign_pins, _) in &codecs {
            for pin in foreign_pins.iter().filter(|_| foreign != codec) {
                let got = decode(pin);
                assert_eq!(got, Some(WireError::BadMagic), "{codec} read {foreign}");
            }
        }
        for t in [0, 15] {
            let got = decode(&[magic, version << 4 | t]);
            assert_eq!(got, Some(WireError::UnknownType(t)), "{codec}");
        }
        for pin in pins {
            let mut newer = pin.clone();
            newer[1] += 0x10;
            let got = decode(&newer);
            assert_eq!(got, Some(WireError::BadVersion(version + 1)), "{codec}");
            for keep in 0..pin.len() {
                let got = decode(&pin[..keep]);
                let pin = to_hex(pin);
                assert_eq!(
                    got,
                    Some(WireError::Truncated),
                    "{codec} {pin} cut to {keep}"
                );
            }
        }
    }
}
