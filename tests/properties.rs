//! Randomized property tests on the core data structures and invariants
//! the paper's correctness rests on.
//!
//! Inputs are generated by the in-tree deterministic PRNG
//! ([`coplay::net::DetRng`]) with fixed seeds, so failures are perfectly
//! reproducible and the suite needs no external property-testing crate
//! (the build environment is offline).

use coplay::clock::{SimDelta, SimDuration, SimTime};
use coplay::lobby::{JoinRefusal, LobbyMessage, SessionEntry, SessionId, MAX_LISTED, MAX_NAME};
use coplay::net::bytes::Bytes;
use coplay::net::{DetRng, NetemChannel, NetemConfig, PeerId};
use coplay::relay::{RelayMessage, DEST_BROADCAST, MAX_RELAY_PAYLOAD};
use coplay::sync::SnapshotRing;
use coplay::sync::{InputBuffer, InputMsg, InputSync, Message, SyncConfig, MAX_CHUNK_BYTES};
use coplay::vm::{
    assemble, Console, DirtyPages, InputWord, Instruction, Machine, Player, PortMap, Reg, Rom,
    Syscall, DEFAULT_CYCLES_PER_FRAME,
};

// ---------------------------------------------------------------------------
// Wire protocol: decode(encode(m)) == m for arbitrary messages, and decode
// never panics on arbitrary bytes.
// ---------------------------------------------------------------------------

/// An input message as a session sends it: one player's byte held for
/// runs of 1–12 frames, in any of the four player slots, with frame
/// numbers anywhere up to `u64::MAX`.
fn random_held_inputs(rng: &mut DetRng) -> Message {
    let player = Player(rng.range_u64(Player::MAX as u64) as u8);
    let mut inputs = Vec::new();
    for _ in 0..rng.range_u64(12) {
        let word = InputWord::for_player(player, rng.next_u64() as u8);
        let held = 1 + rng.range_u64(12) as usize;
        inputs.extend(std::iter::repeat_n(word, held));
    }
    let from = rng.next_u64() as u8;
    let mut frame = || match rng.range_u64(3) {
        0 => rng.range_u64(2_000),
        1 => u64::MAX - rng.range_u64(2_000),
        _ => rng.next_u64(),
    };
    Message::Input(InputMsg {
        from,
        ack: frame(),
        first: frame(),
        inputs,
    })
}

fn random_message(rng: &mut DetRng) -> Message {
    match rng.range_u64(10) {
        0 => Message::Input(InputMsg {
            from: rng.next_u64() as u8,
            ack: rng.next_u64(),
            first: rng.next_u64(),
            inputs: (0..rng.range_u64(64))
                .map(|_| InputWord(rng.next_u64() as u32))
                .collect(),
        }),
        1 => Message::Hello {
            site: rng.next_u64() as u8,
            rom_hash: rng.next_u64(),
            observer: rng.next_u64() & 1 == 1,
        },
        2 => Message::HelloAck {
            rom_hash: rng.next_u64(),
            start_frame: rng.next_u64(),
        },
        3 => Message::Ping {
            nonce: rng.next_u64() as u32,
        },
        4 => Message::Pong {
            nonce: rng.next_u64() as u32,
        },
        5 => Message::SnapshotRequest,
        6 => {
            let n = rng.range_u64(256) as usize;
            let payload: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
            Message::SnapshotChunk {
                frame: rng.next_u64(),
                offset: rng.next_u64() as u32,
                total: rng.next_u64() as u32,
                bytes: Bytes::from(payload),
            }
        }
        7 => Message::Bye,
        8 => Message::TimeStamp {
            site: rng.next_u64() as u8,
            frame: rng.next_u64(),
        },
        _ => random_held_inputs(rng),
    }
}

#[test]
fn wire_roundtrip() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_0001);
    for _ in 0..2_000 {
        let msg = random_message(&mut rng);
        let encoded = msg.encode();
        assert_eq!(Message::decode(&encoded).unwrap(), msg);
    }
}

#[test]
fn wire_decode_never_panics() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_0002);
    for _ in 0..5_000 {
        let n = rng.range_u64(512) as usize;
        let bytes: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        let _ = Message::decode(&bytes); // must not panic, result irrelevant
    }
}

#[test]
fn wire_decode_survives_truncation() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_0003);
    for _ in 0..2_000 {
        let msg = random_message(&mut rng);
        let mut encoded = msg.encode();
        let cut = rng.range_u64(64) as usize;
        let keep = encoded.len().saturating_sub(cut);
        encoded.truncate(keep);
        let _ = Message::decode(&encoded); // must not panic
    }
}

#[test]
fn wire_decode_rejects_truncation_at_every_byte() {
    // Exhaustive, not sampled: every strict prefix of a valid encoding
    // lands inside some field, so decode must return an error — and must
    // not panic doing so.
    let mut rng = DetRng::seed_from_u64(0xC0DE_0014);
    for _ in 0..100 {
        let msg = random_message(&mut rng);
        let encoded = msg.encode();
        for keep in 0..encoded.len() {
            let prefix = &encoded[..keep];
            assert!(
                Message::decode(prefix).is_err(),
                "prefix of {} bytes of {msg:?} decoded",
                prefix.len()
            );
        }
    }
}

#[test]
fn wire_decode_survives_single_byte_corruption() {
    // Flipping any one byte — including length prefixes forced to their
    // extremes — may produce garbage or an error, never a panic.
    let mut rng = DetRng::seed_from_u64(0xC0DE_0015);
    for _ in 0..60 {
        let msg = random_message(&mut rng);
        let encoded = msg.encode();
        for i in 0..encoded.len() {
            for v in [0x00, 0xFF, encoded[i].wrapping_add(1)] {
                let mut mutated = encoded.clone();
                mutated[i] = v;
                let _ = Message::decode(&mutated);
            }
        }
    }
}

#[test]
fn wire_adversarial_chunk_length_is_rejected_before_allocation() {
    // A SNAPSHOT_CHUNK whose 16-bit length claims more than the cap must
    // be refused outright (the cap check runs before any copy), even when
    // the datagram really does carry that many bytes.
    let msg = Message::SnapshotChunk {
        frame: 7,
        offset: 0,
        total: u16::MAX as u32,
        bytes: Bytes::copy_from_slice(&[0xA5; MAX_CHUNK_BYTES]),
    };
    let mut encoded = msg.encode();
    let len_at = encoded.len() - MAX_CHUNK_BYTES - 2;
    encoded[len_at] = 0xFF;
    encoded[len_at + 1] = 0xFF;
    encoded.extend(std::iter::repeat_n(0xA5, u16::MAX as usize));
    assert!(Message::decode(&encoded).is_err());
}

// ---------------------------------------------------------------------------
// Input buffer: duplicates never alter the first-written value; merge only
// ever exposes bits owned by some site.
// ---------------------------------------------------------------------------

#[test]
fn input_buffer_first_write_wins() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_0004);
    for _ in 0..200 {
        let mut buf = InputBuffer::new(2);
        let mut expected: std::collections::BTreeMap<(u64, u8), u32> =
            std::collections::BTreeMap::new();
        for _ in 0..1 + rng.range_u64(199) {
            let frame = rng.range_u64(64);
            let site = rng.range_u64(2) as u8;
            let word = rng.next_u64() as u32;
            buf.set_partial(frame, site, InputWord(word));
            expected.entry((frame, site)).or_insert(word);
        }
        for ((frame, site), word) in expected {
            assert_eq!(buf.partial(frame, site), InputWord(word));
        }
    }
}

#[test]
fn merge_never_leaks_unowned_bits() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_0005);
    let map = PortMap::two_player();
    for _ in 0..1_000 {
        let (w0, w1) = (rng.next_u64() as u32, rng.next_u64() as u32);
        let mut buf = InputBuffer::new(2);
        buf.set_partial(0, 0, InputWord(w0));
        buf.set_partial(0, 1, InputWord(w1));
        let merged = buf.merged(0, &map);
        assert_eq!(merged.0 & !map.assigned_mask(), 0);
        // And each site's owned bits pass through exactly.
        assert_eq!(merged.0 & map.site_mask(0), w0 & map.site_mask(0));
        assert_eq!(merged.0 & map.site_mask(1), w1 & map.site_mask(1));
    }
}

// ---------------------------------------------------------------------------
// Lockstep invariant: under ANY delivery schedule (drop, duplicate, delay),
// the two engines deliver identical input sequences, frame by frame.
// ---------------------------------------------------------------------------

#[test]
fn lockstep_sequences_identical_under_arbitrary_delivery() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_0006);
    for case in 0..64 {
        let mut a = InputSync::new(SyncConfig::two_player(0));
        let mut b = InputSync::new(SyncConfig::two_player(1));
        let mut seq_a = Vec::new();
        let mut seq_b = Vec::new();
        for f in 0..40u64 {
            let t = SimTime::from_millis(f * 25);
            a.begin_frame(f, InputWord(rng.next_u64() as u32 & 0xFF), t);
            b.begin_frame(f, InputWord((rng.next_u64() as u32 & 0xFF) << 8), t);
            // For each direction: 0 = deliver now, 1 = drop (rely on
            // retransmission), 2 = deliver twice.
            let (fa, fb) = (rng.range_u64(3), rng.range_u64(3));
            for (_, m) in a.outgoing(t) {
                match fa {
                    0 => {
                        b.on_message(&m, t);
                    }
                    2 => {
                        b.on_message(&m, t);
                        b.on_message(&m, t);
                    }
                    _ => {}
                }
            }
            for (_, m) in b.outgoing(t) {
                match fb {
                    0 => {
                        a.on_message(&m, t);
                    }
                    2 => {
                        a.on_message(&m, t);
                        a.on_message(&m, t);
                    }
                    _ => {}
                }
            }
            // Drain with retransmissions until both are ready (bounded).
            let mut spins = 0;
            let mut tt = t;
            while !(a.ready() && b.ready()) {
                spins += 1;
                assert!(spins < 100, "no progress at frame {f} (case {case})");
                tt += SimDuration::from_millis(25);
                for (_, m) in a.outgoing(tt) {
                    b.on_message(&m, tt);
                }
                for (_, m) in b.outgoing(tt) {
                    a.on_message(&m, tt);
                }
            }
            seq_a.push(a.take());
            seq_b.push(b.take());
        }
        assert_eq!(seq_a, seq_b, "case {case}");
    }
}

// ---------------------------------------------------------------------------
// Assembler: the disassembly (Display) of any instruction re-assembles to
// the identical encoding — a full round trip through text.
// ---------------------------------------------------------------------------

fn random_instruction(rng: &mut DetRng) -> Instruction {
    let reg = |rng: &mut DetRng| Reg(rng.range_u64(16) as u8);
    match rng.range_u64(22) {
        0 => Instruction::Nop,
        1 => Instruction::Halt,
        2 => Instruction::Yield,
        3 => Instruction::Ret,
        4 => Instruction::Ldi(reg(rng), rng.next_u64() as u16),
        5 => Instruction::Mov(reg(rng), reg(rng)),
        6 => Instruction::Add(reg(rng), reg(rng)),
        7 => Instruction::Mul(reg(rng), reg(rng)),
        8 => Instruction::Div(reg(rng), reg(rng)),
        9 => Instruction::Addi(reg(rng), rng.next_u64() as u16),
        10 => Instruction::Cmpi(reg(rng), rng.next_u64() as u16),
        11 => Instruction::Shli(reg(rng), rng.range_u64(16) as u16),
        12 => Instruction::Jmp(rng.next_u64() as u16),
        13 => Instruction::Jz(rng.next_u64() as u16),
        14 => Instruction::Call(rng.next_u64() as u16),
        15 => Instruction::Ldw(reg(rng), reg(rng), rng.next_u64() as u8),
        16 => Instruction::Stw(reg(rng), reg(rng), rng.next_u64() as u8),
        17 => Instruction::Push(reg(rng)),
        18 => Instruction::Pop(reg(rng)),
        19 => Instruction::In(reg(rng), rng.next_u64() as u8),
        20 => Instruction::Rnd(reg(rng)),
        _ => Instruction::Sys(Syscall::from_u8(rng.range_u64(5) as u8).unwrap()),
    }
}

#[test]
fn assembler_roundtrips_disassembly() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_0007);
    for _ in 0..256 {
        let n = 1 + rng.range_u64(39) as usize;
        let instrs: Vec<Instruction> = (0..n).map(|_| random_instruction(&mut rng)).collect();
        let source: String = instrs.iter().map(|i| format!("{i}\n")).collect();
        let rom = assemble(&source).expect("disassembly must re-assemble");
        let expected: Vec<u8> = instrs.iter().flat_map(|i| i.encode()).collect();
        assert_eq!(rom.image(), &expected[..]);
    }
}

#[test]
fn instruction_decode_never_panics() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_0008);
    for _ in 0..20_000 {
        let bytes = (rng.next_u64() as u32).to_le_bytes();
        if let Some(i) = Instruction::decode(bytes) {
            // Legal decodings re-encode to a decodable form (not necessarily
            // the same bytes: unused fields are normalized to zero).
            assert_eq!(Instruction::decode(i.encode()), Some(i));
        }
    }
}

// ---------------------------------------------------------------------------
// Netem: deliveries never travel back in time, and never before the base
// delay on the reorder-free path.
// ---------------------------------------------------------------------------

#[test]
fn netem_deliveries_are_causal() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_0009);
    for _ in 0..100 {
        let cfg = NetemConfig::new()
            .delay(SimDuration::from_millis(rng.range_u64(200)))
            .jitter(SimDuration::from_millis(rng.range_u64(50)))
            .loss(rng.range_f64(0.0, 0.5));
        let mut ch = NetemChannel::new(cfg, rng.next_u64());
        for i in 0..200u64 {
            let now = SimTime::from_millis(i * 3);
            let fate = ch.process(now, 64);
            for d in &fate.deliveries {
                assert!(*d >= now, "delivery {d} before send {now}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Time arithmetic sanity.
// ---------------------------------------------------------------------------

#[test]
fn time_offset_roundtrip() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_000A);
    for _ in 0..10_000 {
        let base = rng.range_u64(u64::MAX / 4);
        let delta = rng.range_u64(2_000_000) as i64 - 1_000_000;
        let t = SimTime::from_micros(base + 2_000_000);
        let d = SimDelta::from_micros(delta);
        let moved = t.offset(d);
        assert_eq!(moved.delta_since(t), d);
    }
}

#[test]
fn duration_ordering_consistent() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_000B);
    for _ in 0..10_000 {
        let (a, b) = (rng.range_u64(1_000_000), rng.range_u64(1_000_000));
        let da = SimDuration::from_micros(a);
        let db = SimDuration::from_micros(b);
        assert_eq!(da < db, a < b);
        assert_eq!(da.saturating_sub(db).as_micros(), a.saturating_sub(b));
    }
}

// ---------------------------------------------------------------------------
// Lobby wire protocol: decode(encode(m)) == m for arbitrary messages whose
// fields respect the protocol's documented bounds, and decode never panics
// on arbitrary or truncated bytes.
// ---------------------------------------------------------------------------

fn random_name(rng: &mut DetRng, max: usize) -> String {
    let n = rng.range_u64(max as u64 + 1) as usize;
    (0..n)
        .map(|_| (b' ' + (rng.range_u64(95) as u8)) as char)
        .collect()
}

fn random_session_entry(rng: &mut DetRng) -> SessionEntry {
    SessionEntry {
        id: SessionId(rng.next_u64() as u32),
        name: random_name(rng, MAX_NAME),
        rom_hash: rng.next_u64(),
        slots: rng.next_u64() as u8,
        free: rng.next_u64() as u8,
        host: PeerId(rng.next_u64() as u8),
    }
}

fn random_lobby_message(rng: &mut DetRng) -> LobbyMessage {
    match rng.range_u64(11) {
        0 => LobbyMessage::Register {
            name: random_name(rng, MAX_NAME),
            rom_hash: rng.next_u64(),
            slots: rng.next_u64() as u8,
        },
        1 => LobbyMessage::Registered {
            id: SessionId(rng.next_u64() as u32),
        },
        2 => LobbyMessage::Unregister {
            id: SessionId(rng.next_u64() as u32),
        },
        3 => LobbyMessage::Heartbeat {
            id: SessionId(rng.next_u64() as u32),
            rollbacks: rng.next_u64(),
            resimulated_frames: rng.next_u64(),
            max_rollback_depth: rng.next_u64(),
            snapshot_bytes_saved: rng.next_u64(),
            snapshot_bytes_restored: rng.next_u64(),
            dropped_events: rng.next_u64(),
            dropped_spans: rng.next_u64(),
        },
        4 => LobbyMessage::List,
        5 => LobbyMessage::Listing {
            sessions: (0..rng.range_u64(MAX_LISTED as u64 + 1))
                .map(|_| random_session_entry(rng))
                .collect(),
        },
        6 => LobbyMessage::Join {
            id: SessionId(rng.next_u64() as u32),
        },
        7 => LobbyMessage::Joined {
            id: SessionId(rng.next_u64() as u32),
            host: PeerId(rng.next_u64() as u8),
            site: rng.next_u64() as u8,
            rom_hash: rng.next_u64(),
        },
        8 => LobbyMessage::Refused {
            id: SessionId(rng.next_u64() as u32),
            reason: if rng.next_u64() & 1 == 0 {
                JoinRefusal::Unknown
            } else {
                JoinRefusal::Full
            },
        },
        9 => LobbyMessage::MetricsRequest,
        _ => LobbyMessage::MetricsReport {
            text: {
                // Line-structured like a real exposition; well under the
                // MAX_METRICS_TEXT truncation threshold so encoding is
                // lossless.
                let lines = rng.range_u64(8);
                (0..lines)
                    .map(|i| format!("metric_{i} {}\n", rng.next_u64()))
                    .collect()
            },
        },
    }
}

#[test]
fn lobby_wire_roundtrip() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_0010);
    for _ in 0..2_000 {
        let msg = random_lobby_message(&mut rng);
        let encoded = msg.encode();
        assert_eq!(LobbyMessage::decode(&encoded).unwrap(), msg);
    }
}

#[test]
fn lobby_wire_decode_never_panics() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_0011);
    for _ in 0..5_000 {
        let n = rng.range_u64(512) as usize;
        let bytes: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        let _ = LobbyMessage::decode(&bytes); // must not panic
    }
}

#[test]
fn lobby_wire_decode_survives_truncation() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_0012);
    for _ in 0..2_000 {
        let msg = random_lobby_message(&mut rng);
        let mut encoded = msg.encode();
        let cut = rng.range_u64(64) as usize;
        let keep = encoded.len().saturating_sub(cut);
        encoded.truncate(keep);
        let _ = LobbyMessage::decode(&encoded); // must not panic
    }
}

#[test]
fn lobby_wire_decode_rejects_truncation_at_every_byte() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_0016);
    for _ in 0..100 {
        let msg = random_lobby_message(&mut rng);
        let encoded = msg.encode();
        for keep in 0..encoded.len() {
            let prefix = &encoded[..keep];
            assert!(
                LobbyMessage::decode(prefix).is_err(),
                "prefix of {} bytes of {msg:?} decoded",
                prefix.len()
            );
        }
    }
}

#[test]
fn lobby_wire_decode_survives_single_byte_corruption() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_0017);
    for _ in 0..60 {
        let msg = random_lobby_message(&mut rng);
        let encoded = msg.encode();
        for i in 0..encoded.len() {
            for v in [0x00, 0xFF, encoded[i].wrapping_add(1)] {
                let mut mutated = encoded.clone();
                mutated[i] = v;
                let _ = LobbyMessage::decode(&mutated);
            }
        }
    }
}

#[test]
fn lobby_adversarial_length_prefixes_are_rejected_before_allocation() {
    // Name length byte forced past MAX_NAME: refused by the cap check,
    // not by running off the end of the datagram.
    let msg = LobbyMessage::Register {
        name: "x".repeat(MAX_NAME),
        rom_hash: 1,
        slots: 2,
    };
    let mut encoded = msg.encode();
    encoded[3] = 0xFF; // name length byte follows MAGIC, VERSION, type
    encoded.extend(std::iter::repeat_n(b'x', 0xFF));
    assert!(LobbyMessage::decode(&encoded).is_err());

    // Metrics length claiming 4 GiB: refused before any buffer is built.
    let msg = LobbyMessage::MetricsReport {
        text: String::new(),
    };
    let mut encoded = msg.encode();
    let len_at = encoded.len() - 4;
    encoded[len_at..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(LobbyMessage::decode(&encoded).is_err());
}

#[test]
fn lobby_wire_overlong_names_truncate_losslessly_thereafter() {
    // Oversized names are truncated at encode time; re-encoding the decoded
    // message must then be a fixed point.
    let mut rng = DetRng::seed_from_u64(0xC0DE_0013);
    for _ in 0..200 {
        let msg = LobbyMessage::Register {
            name: random_name(&mut rng, 3 * MAX_NAME).repeat(2),
            rom_hash: rng.next_u64(),
            slots: rng.next_u64() as u8,
        };
        let decoded = LobbyMessage::decode(&msg.encode()).unwrap();
        if let LobbyMessage::Register { name, .. } = &decoded {
            assert!(name.len() <= MAX_NAME);
        } else {
            panic!("variant changed in roundtrip");
        }
        assert_eq!(LobbyMessage::decode(&decoded.encode()).unwrap(), decoded);
    }
}

// ---------------------------------------------------------------------------
// Relay wire protocol: the relay never decodes the payloads it carries, so
// its own envelope is the entire attack surface — decode must reject (never
// panic on) truncation, corruption, and adversarial length prefixes, and
// the zero-copy fast paths must agree with the full decoder everywhere.
// ---------------------------------------------------------------------------

fn random_relay_message(rng: &mut DetRng) -> RelayMessage {
    let payload = |rng: &mut DetRng| {
        let n = rng.range_u64(300) as usize;
        Bytes::from((0..n).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>())
    };
    match rng.range_u64(7) {
        0 => RelayMessage::Register {
            session: rng.next_u64() as u32,
            site: rng.next_u64() as u8,
            spectator: rng.next_u64() & 1 == 1,
        },
        1 => RelayMessage::Registered {
            session: rng.next_u64() as u32,
            site: rng.next_u64() as u8,
        },
        2 => RelayMessage::Forward {
            dest: if rng.next_u64() & 1 == 0 {
                DEST_BROADCAST
            } else {
                rng.next_u64() as u8
            },
            payload: payload(rng),
        },
        3 => RelayMessage::Deliver {
            from_site: rng.next_u64() as u8,
            payload: payload(rng),
        },
        4 => RelayMessage::Heartbeat {
            session: rng.next_u64() as u32,
        },
        5 => RelayMessage::Evicted {
            session: rng.next_u64() as u32,
        },
        _ => RelayMessage::Bye {
            session: rng.next_u64() as u32,
        },
    }
}

#[test]
fn relay_wire_roundtrip() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_0020);
    for _ in 0..2_000 {
        let msg = random_relay_message(&mut rng);
        let encoded = msg.encode();
        assert_eq!(RelayMessage::decode(&encoded).unwrap(), msg);
    }
}

#[test]
fn relay_wire_decode_never_panics() {
    let mut rng = DetRng::seed_from_u64(0xC0DE_0021);
    for _ in 0..5_000 {
        let n = rng.range_u64(512) as usize;
        let bytes: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        let _ = RelayMessage::decode(&bytes); // must not panic
        let _ = coplay::relay::wire::decode_forward(&bytes);
        let _ = coplay::relay::wire::decode_deliver(&bytes);
    }
}

#[test]
fn relay_wire_decode_rejects_truncation_at_every_byte() {
    // Exhaustive: every strict prefix of a valid encoding must error out,
    // and must not panic doing so.
    let mut rng = DetRng::seed_from_u64(0xC0DE_0022);
    for _ in 0..100 {
        let msg = random_relay_message(&mut rng);
        let encoded = msg.encode();
        for keep in 0..encoded.len() {
            let prefix = &encoded[..keep];
            assert!(
                RelayMessage::decode(prefix).is_err(),
                "prefix of {} bytes of {msg:?} decoded",
                prefix.len()
            );
        }
    }
}

#[test]
fn relay_wire_decode_survives_single_byte_corruption() {
    // Flipping any one byte — including the u16 payload length forced to
    // its extremes — may produce garbage or an error, never a panic. The
    // fast paths must not disagree with the full decoder on the result.
    let mut rng = DetRng::seed_from_u64(0xC0DE_0023);
    for _ in 0..60 {
        let msg = random_relay_message(&mut rng);
        let encoded = msg.encode();
        for i in 0..encoded.len() {
            for v in [0x00, 0xFF, encoded[i].wrapping_add(1)] {
                let mut mutated = encoded.clone();
                mutated[i] = v;
                let full = RelayMessage::decode(&mutated);
                if let Ok(RelayMessage::Forward { dest, payload }) = &full {
                    let (d, p) = coplay::relay::wire::decode_forward(&mutated).unwrap();
                    assert_eq!((d, p), (*dest, payload.as_ref()));
                }
                if let Ok(RelayMessage::Deliver { from_site, payload }) = &full {
                    let (s, p) = coplay::relay::wire::decode_deliver(&mutated).unwrap();
                    assert_eq!((s, p), (*from_site, payload.as_ref()));
                }
            }
        }
    }
}

#[test]
fn relay_adversarial_payload_length_is_rejected_before_allocation() {
    // A Forward whose u16 length claims more than MAX_RELAY_PAYLOAD must be
    // refused by the cap check — even when the datagram really carries that
    // many bytes — on both the full decoder and the zero-copy fast path.
    let msg = RelayMessage::Forward {
        dest: DEST_BROADCAST,
        payload: Bytes::from(vec![0xA5; 16]),
    };
    let mut encoded = msg.encode();
    let len_at = encoded.len() - 16 - 2;
    let claim = (MAX_RELAY_PAYLOAD + 1) as u16;
    encoded[len_at..len_at + 2].copy_from_slice(&claim.to_le_bytes());
    encoded.extend(std::iter::repeat_n(0xA5, MAX_RELAY_PAYLOAD));
    assert!(RelayMessage::decode(&encoded).is_err());
    assert!(coplay::relay::wire::decode_forward(&encoded).is_err());
}

#[test]
fn relay_wire_oversized_payloads_clamp_to_a_decodable_fixed_point() {
    // Encoding clamps payloads to the cap so the length prefix and the
    // bytes written can never disagree; the decoded clamp then re-encodes
    // bit-identically.
    let msg = RelayMessage::Deliver {
        from_site: 3,
        payload: Bytes::from(vec![0x5A; MAX_RELAY_PAYLOAD + 100]),
    };
    let decoded = RelayMessage::decode(&msg.encode()).unwrap();
    if let RelayMessage::Deliver { payload, .. } = &decoded {
        assert_eq!(payload.len(), MAX_RELAY_PAYLOAD);
    } else {
        panic!("variant changed in roundtrip");
    }
    assert_eq!(RelayMessage::decode(&decoded.encode()).unwrap(), decoded);
}

// ---------------------------------------------------------------------------
// Snapshot conformance: for EVERY machine implementation, restoring
// load_state(save_state()) at a random mid-game frame must reproduce the
// exact hash sequence of the uninterrupted original for the next 100
// frames. This is the contract both the latecomer join path and the
// rollback resimulation path stand on, stated once instead of copy-pasted
// per game.
// ---------------------------------------------------------------------------

fn assert_snapshot_conformance(
    name: &str,
    make: &dyn Fn() -> Box<dyn coplay::vm::Machine>,
    rng: &mut DetRng,
) {
    let mut original = make();
    // Reach a random mid-game frame so entities, scores, and timers are in
    // flight — snapshots of the initial state prove nothing.
    let warmup = 100 + rng.range_u64(300);
    for _ in 0..warmup {
        original.step_frame(InputWord(rng.next_u64() as u32 & 0x3F3F));
    }
    let snap = original.save_state();
    let mut restored = make();
    restored
        .load_state(&snap)
        .unwrap_or_else(|e| panic!("{name}: load_state failed: {e}"));
    assert_eq!(
        original.state_hash(),
        restored.state_hash(),
        "{name}: hash differs immediately after restore (frame {warmup})"
    );
    for ahead in 0..100u32 {
        let w = InputWord(rng.next_u64() as u32 & 0x3F3F);
        original.step_frame(w);
        restored.step_frame(w);
        assert_eq!(
            original.state_hash(),
            restored.state_hash(),
            "{name}: diverged {ahead} frames after restoring at frame {warmup}"
        );
    }
}

#[test]
fn every_machine_snapshot_roundtrips_mid_game() {
    let mut rng = DetRng::seed_from_u64(0x5A7E_0001);
    for id in coplay::games::catalog() {
        assert_snapshot_conformance(&id.to_string(), &|| id.create(), &mut rng);
    }
    assert_snapshot_conformance(
        "NullMachine",
        &|| Box::new(coplay::vm::NullMachine::new()),
        &mut rng,
    );
}

// ---------------------------------------------------------------------------
// Flight-recorder ring under span load: the wraparound accounting
// (retained + dropped == written, per kind) must stay exact while
// concurrent readers snapshot the ring mid-flight. This is the property
// the tracescope "timeline has holes" warning and the heartbeat
// dropped_spans counter stand on.
// ---------------------------------------------------------------------------

#[test]
fn flight_recorder_wraparound_accounting_survives_concurrent_drain() {
    use coplay::telemetry::{EventKind, SpanStage, Telemetry};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const CAPACITY: usize = 64;
    const WRITERS: u64 = 4;
    const SPANS_PER_WRITER: u64 = 5_000;
    const FRAMES: u64 = 2_000;

    let tel = Telemetry::with_capacity(CAPACITY).with_tracing();
    assert!(tel.is_tracing(), "trace feature must be on for this test");
    let stop = Arc::new(AtomicBool::new(false));

    // A reader drains snapshots while the writers wrap the ring many times
    // over; every snapshot it observes must already satisfy the capacity
    // bound, and none of the exports may panic.
    let drainer = {
        let tel = tel.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut snapshots = 0u64;
            while !stop.load(Ordering::Relaxed) {
                assert!(tel.events().len() <= CAPACITY);
                let _ = tel.dump_jsonl();
                let _ = tel.dropped_spans();
                snapshots += 1;
            }
            snapshots
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let tel = tel.clone();
            std::thread::spawn(move || {
                for i in 0..SPANS_PER_WRITER {
                    let at = SimTime::from_micros(w * SPANS_PER_WRITER + i);
                    tel.span(at, SpanStage::Sampled, i, w as u8);
                }
            })
        })
        .collect();
    // The main thread mixes non-span events in concurrently, so the
    // eviction accounting has to tell the two kinds apart under contention.
    for f in 0..FRAMES {
        tel.record(SimTime::from_micros(f), EventKind::FrameBegun { frame: f });
    }
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    assert!(
        drainer.join().unwrap() > 0,
        "drainer never got a snapshot in"
    );

    let span_writes = WRITERS * SPANS_PER_WRITER;
    let total_writes = span_writes + FRAMES;
    let events = tel.events();
    let retained = events.len() as u64;
    assert!(retained <= CAPACITY as u64);
    assert_eq!(
        tel.dropped_events() + retained,
        total_writes,
        "every write is either retained or counted dropped"
    );
    let retained_spans = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Span { .. }))
        .count() as u64;
    assert_eq!(
        tel.dropped_spans() + retained_spans,
        span_writes,
        "span drops account for exactly the evicted spans"
    );
    // And the metrics side saw every span exactly once, evicted or not.
    assert_eq!(tel.counter("spans_recorded_total"), span_writes);
}

// ---------------------------------------------------------------------------
// Dirty-page checkpointing: for any random store trace — including stores
// that wrap the top of the address space, stores patching a fused-pair
// tail, and self-modifying stores into the program region — a
// dirty-bitmap-guided capture stream stays byte-for-byte identical to a
// full-image scan, and a bitmap-guided ring restore round-trips the exact
// `state_hash` sequence.
// ---------------------------------------------------------------------------

/// A program that patches a fused `ldi`+`ldi` tail, stores through the
/// address-space wrap every frame, and then performs a random batch of
/// word/byte stores (biased toward the program region for incidental
/// self-modification and toward 0xFFFF for wrapping).
fn random_store_rom(rng: &mut DetRng) -> Rom {
    let mut prog = vec![
        Instruction::In(Reg(4), 2),          // 0x00: r4 = frame counter low
        Instruction::Ldi(Reg(3), 0x16),      // 0x04: pair-tail imm low byte below
        Instruction::Stb(Reg(3), Reg(4), 0), // 0x08: patch the fused tail
        Instruction::Nop,                    // 0x0C
        Instruction::Ldi(Reg(1), 0x5500),    // 0x10: fuses with the next ldi
        Instruction::Ldi(Reg(2), 0xAA00),    // 0x14: tail; imm low byte at 0x16
        Instruction::Ldi(Reg(5), 0xFFFF),    // 0x18: top-of-memory pointer
        Instruction::Stw(Reg(5), Reg(4), 0), // 0x1C: wraps into address 0x0000
    ];
    for _ in 0..16 {
        let addr = match rng.range_u64(4) {
            0 => 0xFFFE_u16.wrapping_add(rng.range_u64(3) as u16),
            1 => rng.range_u64(0x100) as u16, // program region: SMC
            _ => rng.next_u64() as u16,
        };
        prog.push(Instruction::Ldi(Reg(6), addr));
        prog.push(Instruction::Ldi(Reg(7), rng.next_u64() as u16));
        prog.push(if rng.range_u64(2) == 0 {
            Instruction::Stw(Reg(6), Reg(7), rng.range_u64(4) as u8)
        } else {
            Instruction::Stb(Reg(6), Reg(7), rng.range_u64(4) as u8)
        });
    }
    prog.push(Instruction::Yield);
    prog.push(Instruction::Jmp(0));
    let image: Vec<u8> = prog.iter().flat_map(|i| i.encode()).collect();
    Rom::builder("Random Store Probe").image(image).build()
}

#[test]
fn dirty_capture_matches_full_scan_for_random_store_traces() {
    for seed in 0..6u64 {
        let mut rng = DetRng::seed_from_u64(0xD1A7_0000 + seed);
        let rom = random_store_rom(&mut rng);
        let mut m = Console::new(rom).with_cycle_budget(DEFAULT_CYCLES_PER_FRAME);

        // One capture stream: `tail` is rewritten in place from the dirty
        // ranges the machine reports, exactly like the snapshot ring's hot
        // path; `full` is the oracle full-image scan of the same state.
        let mut tail = Vec::new();
        m.save_state_into(&mut tail);
        let mut dirty = DirtyPages::default();
        let mut full = Vec::new();
        for frame in 0..48u64 {
            m.step_frame(InputWord((frame as u32) & 0xFF));
            m.collect_dirty_into(&mut dirty);
            m.save_state_ranges_into(&mut tail, &dirty);
            full.clear();
            m.save_state_into(&mut full);
            assert_eq!(
                tail, full,
                "seed {seed} frame {frame}: dirty-range capture diverged from full scan"
            );
        }
    }
}

#[test]
fn bitmap_guided_restore_roundtrip_preserves_state_hash() {
    for seed in 0..4u64 {
        let mut rng = DetRng::seed_from_u64(0xD1A7_1000 + seed);
        let rom = random_store_rom(&mut rng);
        let mut m = Console::new(rom).with_cycle_budget(DEFAULT_CYCLES_PER_FRAME);
        let input = |frame: u64| InputWord((frame as u32).wrapping_mul(0x2545) & 0x0F0F);

        // Drive the ring the way RollbackSession does: dirty checkpoints
        // every few frames, recording the hash timeline as the oracle.
        let mut ring = SnapshotRing::new(16);
        let mut hashes = Vec::new();
        for frame in 0..40u64 {
            m.step_frame(input(frame));
            hashes.push(m.state_hash());
            if frame % 5 == 0 {
                ring.checkpoint_from(frame, m.state_hash(), &mut m);
            }
        }

        // Bitmap-guided rollback to the checkpoint floor of frame 23.
        let mut dirty = DirtyPages::default();
        m.collect_dirty_into(&mut dirty);
        let mut buf = Vec::new();
        let info = ring
            .rewind_into(23, &mut buf, &mut dirty)
            .expect("checkpoint retained");
        assert_eq!(info.frame, 20, "seed {seed}: floor checkpoint");
        m.load_state_dirty(&buf, &dirty).expect("restore");
        assert_eq!(
            m.state_hash(),
            hashes[20],
            "seed {seed}: restore must land exactly on the checkpoint state"
        );
        assert_eq!(m.state_hash(), info.hash, "seed {seed}: ring hash agrees");

        // Resimulating the identical inputs must retrace the hash timeline,
        // with the capture stream still coherent for further checkpoints.
        for frame in 21..40u64 {
            m.step_frame(input(frame));
            assert_eq!(
                m.state_hash(),
                hashes[frame as usize],
                "seed {seed} frame {frame}: resimulation diverged after dirty restore"
            );
            if frame % 5 == 0 {
                ring.checkpoint_from(frame, m.state_hash(), &mut m);
            }
        }

        // A second rollback over the re-recorded checkpoints closes the
        // loop: the ring tail those checkpoints patched must still be exact.
        let info = ring
            .rewind_into(31, &mut buf, &mut dirty)
            .expect("checkpoint retained");
        assert_eq!(info.frame, 30, "seed {seed}: second floor checkpoint");
        m.collect_dirty_into(&mut dirty);
        m.load_state_dirty(&buf, &dirty).expect("second restore");
        assert_eq!(
            m.state_hash(),
            hashes[30],
            "seed {seed}: second bitmap-guided restore diverged"
        );
    }
}
