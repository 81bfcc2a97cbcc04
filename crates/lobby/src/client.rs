//! Blocking convenience clients for hosts and joiners.
//!
//! Wraps the request/retransmit/response dance over any [`Transport`]: a
//! host registers; a joiner lists and claims a slot. Each
//! call retransmits its request until answered or a deadline passes —
//! correct over lossy links because every lobby request is idempotent.

use std::error::Error;
use std::fmt;

use coplay_clock::{Clock, SimDuration, SimTime};
use coplay_net::{PeerId, Transport, TransportError};

use crate::wire::{JoinRefusal, LobbyMessage, SessionEntry, SessionId};

/// How often requests are retransmitted.
const RETRY: SimDuration = SimDuration::from_millis(200);

/// Errors from lobby client operations.
#[derive(Debug)]
pub enum LobbyError {
    /// The transport failed.
    Transport(TransportError),
    /// No response within the deadline.
    Timeout,
    /// The lobby refused the join.
    Refused(JoinRefusal),
}

impl fmt::Display for LobbyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LobbyError::Transport(e) => write!(f, "lobby transport failure: {e}"),
            LobbyError::Timeout => write!(f, "lobby did not respond in time"),
            LobbyError::Refused(JoinRefusal::Full) => write!(f, "session is full"),
            LobbyError::Refused(JoinRefusal::Unknown) => write!(f, "session does not exist"),
        }
    }
}

impl Error for LobbyError {}

impl From<TransportError> for LobbyError {
    fn from(e: TransportError) -> Self {
        LobbyError::Transport(e)
    }
}

/// A granted slot: everything a joiner needs to start its game session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// The session joined.
    pub id: SessionId,
    /// The host peer to connect to.
    pub host: PeerId,
    /// The site number assigned (1-based; 0 is the host).
    pub site: u8,
    /// Game image hash to verify before loading.
    pub rom_hash: u64,
}

/// Sends `request` repeatedly until `accept` yields a result or `deadline`
/// passes, polling the transport and a clock between retries.
fn request_response<T, C, R>(
    transport: &mut T,
    clock: &C,
    server: PeerId,
    request: &LobbyMessage,
    deadline: SimDuration,
    mut accept: impl FnMut(&LobbyMessage) -> Option<Result<R, LobbyError>>,
) -> Result<R, LobbyError>
where
    T: Transport,
    C: Clock,
{
    let start = clock.now();
    let bytes = request.encode();
    let mut next_send = SimTime::ZERO;
    loop {
        let now = clock.now();
        if now.saturating_since(start) > deadline {
            return Err(LobbyError::Timeout);
        }
        if now >= next_send {
            transport.send(server, &bytes)?;
            next_send = now + RETRY;
        }
        while let Some((from, data)) = transport.try_recv()? {
            if from != server {
                continue;
            }
            if let Ok(msg) = LobbyMessage::decode(&data) {
                if let Some(result) = accept(&msg) {
                    return result;
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

/// Registers a session with the lobby; returns its id.
///
/// # Errors
///
/// [`LobbyError::Timeout`] if the server stays silent past `deadline`, or
/// a transport failure.
pub fn register_session<T: Transport, C: Clock>(
    transport: &mut T,
    clock: &C,
    server: PeerId,
    name: &str,
    rom_hash: u64,
    slots: u8,
    deadline: SimDuration,
) -> Result<SessionId, LobbyError> {
    let req = LobbyMessage::Register {
        name: name.to_string(),
        rom_hash,
        slots,
    };
    request_response(transport, clock, server, &req, deadline, |msg| match msg {
        LobbyMessage::Registered { id } => Some(Ok(*id)),
        _ => None,
    })
}

/// Fetches the current session listing.
///
/// # Errors
///
/// [`LobbyError::Timeout`] or a transport failure.
pub fn list_sessions<T: Transport, C: Clock>(
    transport: &mut T,
    clock: &C,
    server: PeerId,
    deadline: SimDuration,
) -> Result<Vec<SessionEntry>, LobbyError> {
    request_response(
        transport,
        clock,
        server,
        &LobbyMessage::List,
        deadline,
        |msg| match msg {
            LobbyMessage::Listing { sessions } => Some(Ok(sessions.clone())),
            _ => None,
        },
    )
}

/// Claims a slot in `id`.
///
/// # Errors
///
/// [`LobbyError::Refused`] if the session is full or gone,
/// [`LobbyError::Timeout`], or a transport failure.
pub fn join_session<T: Transport, C: Clock>(
    transport: &mut T,
    clock: &C,
    server: PeerId,
    id: SessionId,
    deadline: SimDuration,
) -> Result<Slot, LobbyError> {
    request_response(
        transport,
        clock,
        server,
        &LobbyMessage::Join { id },
        deadline,
        |msg| match msg {
            LobbyMessage::Joined {
                id: rid,
                host,
                site,
                rom_hash,
            } if *rid == id => Some(Ok(Slot {
                id,
                host: *host,
                site: *site,
                rom_hash: *rom_hash,
            })),
            LobbyMessage::Refused { id: rid, reason } if *rid == id => {
                Some(Err(LobbyError::Refused(*reason)))
            }
            _ => None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::LobbyServer;
    use coplay_clock::SystemClock;
    use coplay_net::loopback;

    /// Runs a lobby server on a thread over a loopback link for `dur`.
    #[expect(
        clippy::disallowed_methods,
        reason = "bounds the real wall-clock runtime of the server thread"
    )]
    fn spawn_server(
        mut transport: impl Transport + Send + 'static,
        dur: std::time::Duration,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let clock = SystemClock::new();
            let mut server = LobbyServer::new();
            let end = std::time::Instant::now() + dur;
            while std::time::Instant::now() < end {
                let now = clock.now();
                while let Some((from, data)) = transport.try_recv().expect("recv") {
                    if let Ok(msg) = LobbyMessage::decode(&data) {
                        for (to, reply) in server.handle(from, &msg, now) {
                            let _ = transport.send(to, &reply.encode());
                        }
                    }
                }
                server.expire(now);
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        })
    }

    #[test]
    fn host_and_join_through_a_live_server() {
        let server_peer = PeerId(100);
        let (client_side, server_side) = loopback(PeerId(0), server_peer);
        let handle = spawn_server(server_side, std::time::Duration::from_secs(3));

        let clock = SystemClock::new();
        let mut t = client_side;
        let deadline = SimDuration::from_secs(2);
        let id = register_session(&mut t, &clock, server_peer, "it duel", 9, 2, deadline)
            .expect("register");
        let listing = list_sessions(&mut t, &clock, server_peer, deadline).expect("list");
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].id, id);
        // The host's own peer joins as a client in this single-link test.
        let slot = join_session(&mut t, &clock, server_peer, id, deadline).expect("join");
        assert_eq!(slot.site, 1);
        assert_eq!(slot.rom_hash, 9);
        handle.join().expect("server thread");
    }

    #[test]
    fn join_refusal_is_reported() {
        let server_peer = PeerId(100);
        let (client_side, server_side) = loopback(PeerId(0), server_peer);
        let handle = spawn_server(server_side, std::time::Duration::from_secs(2));
        let clock = SystemClock::new();
        let mut t = client_side;
        let err = join_session(
            &mut t,
            &clock,
            server_peer,
            SessionId(404),
            SimDuration::from_secs(1),
        )
        .expect_err("must refuse");
        assert!(matches!(err, LobbyError::Refused(JoinRefusal::Unknown)));
        handle.join().expect("server thread");
    }

    #[test]
    fn timeout_when_server_silent() {
        let (mut t, _server_side) = loopback(PeerId(0), PeerId(100));
        let clock = SystemClock::new();
        let err = list_sessions(&mut t, &clock, PeerId(100), SimDuration::from_millis(150))
            .expect_err("silent server");
        assert!(matches!(err, LobbyError::Timeout), "{err}");
    }
}
