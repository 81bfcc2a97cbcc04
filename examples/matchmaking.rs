//! Full rendezvous-to-rematch flow: a lobby server, a host, and a joiner —
//! the complete §2 user story ("some rendezvous mechanism is required for
//! them to find each other, such as … games lobby").
//!
//! 1. A lobby server runs on one UDP socket.
//! 2. The host registers "Saturday Shooter" (co-op, 2 slots).
//! 3. The joiner lists sessions, picks it, and is assigned site 1.
//! 4. Both start a real-time lockstep session of the Shooter and play
//!    three seconds; afterwards we verify the replicas agreed, and record
//!    the match to a replay that reproduces it move for move.
//!
//! ```text
//! cargo run --release --example matchmaking
//! ```

use coplay::clock::{SimDuration, SystemClock};
use coplay::games::Shooter;
use coplay::lobby::{join_session, list_sessions, register_session, LobbyMessage, LobbyServer};
use coplay::net::{PeerId, Transport, UdpTransport};
use coplay::sync::{run_realtime, LockstepSession, RandomPresser, Recording, SyncConfig};
use coplay::vm::{Machine, Player};

const LOBBY: PeerId = PeerId(100);
const FRAMES: u64 = 180;

fn main() {
    // --- lobby server on its own socket + thread -------------------------
    let mut lobby_sock = UdpTransport::bind(LOBBY, "127.0.0.1:0").expect("bind lobby");
    let lobby_addr = lobby_sock.local_addr().expect("addr");
    println!("lobby server on {lobby_addr}");

    // Host and joiner sockets, all introduced to the lobby.
    let mut host_sock = UdpTransport::bind(PeerId(0), "127.0.0.1:0").expect("bind host");
    let mut join_sock = UdpTransport::bind(PeerId(1), "127.0.0.1:0").expect("bind joiner");
    let host_addr = host_sock.local_addr().expect("addr");
    let join_addr = join_sock.local_addr().expect("addr");
    host_sock.add_peer(LOBBY, lobby_addr).expect("peer");
    join_sock.add_peer(LOBBY, lobby_addr).expect("peer");
    lobby_sock.add_peer(PeerId(0), host_addr).expect("peer");
    lobby_sock.add_peer(PeerId(1), join_addr).expect("peer");

    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let done_server = done.clone();
    let server_thread = std::thread::spawn(move || {
        let clock = SystemClock::new();
        let mut server = LobbyServer::new();
        while !done_server.load(std::sync::atomic::Ordering::Relaxed) {
            use coplay::clock::Clock;
            let now = clock.now();
            while let Some((from, data)) = lobby_sock.try_recv().expect("lobby recv") {
                if let Ok(msg) = LobbyMessage::decode(&data) {
                    for (to, reply) in server.handle(from, &msg, now) {
                        let _ = lobby_sock.send(to, &reply.encode());
                    }
                }
            }
            server.expire(now);
            std::thread::sleep(std::time::Duration::from_micros(300));
        }
    });

    // --- rendezvous -------------------------------------------------------
    let clock = SystemClock::new();
    let deadline = SimDuration::from_secs(3);
    let rom_hash = Shooter::new().state_hash();
    let id = register_session(
        &mut host_sock,
        &clock,
        LOBBY,
        "Saturday Shooter",
        rom_hash,
        2,
        deadline,
    )
    .expect("register");
    println!("host registered {id}");

    let listing = list_sessions(&mut join_sock, &clock, LOBBY, deadline).expect("list");
    println!(
        "joiner sees {} session(s): {:?}",
        listing.len(),
        listing.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
    );
    let slot = join_session(&mut join_sock, &clock, LOBBY, listing[0].id, deadline).expect("join");
    assert_eq!(slot.rom_hash, rom_hash, "lobby-advertised game must match");
    println!("joiner granted site {} at host {}", slot.site, slot.host);

    // --- the actual game session (direct host<->joiner sockets) ----------
    let mut t0 = UdpTransport::bind(PeerId(0), "127.0.0.1:0").expect("bind");
    let mut t1 = UdpTransport::bind(PeerId(slot.site), "127.0.0.1:0").expect("bind");
    let a0 = t0.local_addr().expect("addr");
    let a1 = t1.local_addr().expect("addr");
    t0.add_peer(PeerId(slot.site), a1).expect("peer");
    t1.add_peer(PeerId(0), a0).expect("peer");

    let host = LockstepSession::new(
        SyncConfig::two_player(0),
        Shooter::new(),
        t0,
        RandomPresser::new(Player::ONE, 111),
    );
    let joiner = LockstepSession::new(
        SyncConfig::two_player(slot.site),
        Shooter::new(),
        t1,
        RandomPresser::new(Player::TWO, 222),
    );

    let jh = std::thread::spawn(move || {
        let mut rec = Recording::new(rom_hash);
        let r = run_realtime(host, FRAMES, |report, _| rec.push_report(report));
        r.map(|(_, session)| (rec, session.machine().state_hash(), session.stats()))
    });
    let jj = std::thread::spawn(move || {
        let mut hashes = Vec::new();
        run_realtime(joiner, FRAMES, |r, _| hashes.push(r.state_hash.unwrap())).map(|_| hashes)
    });
    let (recording, host_final, stats) = jh.join().expect("host").expect("host ran");
    let join_hashes = jj.join().expect("joiner").expect("joiner ran");
    println!(
        "played {FRAMES} frames: {} msgs sent, {} received, {} input frames sent, {} stalls",
        stats.input_messages_sent,
        stats.input_messages_received,
        stats.input_frames_sent,
        stats.stalled_frames,
    );
    assert_eq!(
        join_hashes.last().copied(),
        Some(host_final),
        "replicas diverged"
    );

    // --- replay the recorded match locally --------------------------------
    let mut replica = Shooter::new();
    recording.replay(&mut replica).expect("replay");
    assert_eq!(
        replica.state_hash(),
        host_final,
        "replay must reproduce the match"
    );
    println!(
        "recorded {} frames; local replay reproduced the exact final state ✓",
        recording.len()
    );
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    server_thread.join().expect("lobby thread");
}
