//! The unreliable-datagram service the synchronization protocol runs on.
//!
//! The paper (§3.1) deliberately builds on UDP and re-implements the needed
//! reliability above it, because TCP's retransmission timing violates the
//! real-time constraint. [`Transport`] is that UDP-like service: datagrams
//! may be lost, duplicated, or reordered; they are never corrupted or
//! partially delivered.

// Network-facing code returns typed errors and never panics on what a
// socket or a peer hands it.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::mpsc;

/// Identifies an endpoint on a [`Transport`].
///
/// In a two-site session this is the paper's site number (0 = master,
/// 1 = slave); the measurement time server conventionally uses 255.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u8);

impl PeerId {
    /// Conventional id of the measurement time server.
    pub const TIME_SERVER: PeerId = PeerId(255);

    /// Conventional destination meaning "every other member of the session".
    ///
    /// Only meaningful when traffic is routed through a relay (the relay wire
    /// format reserves the same value as its broadcast destination); direct
    /// peer-to-peer transports treat it like any other — unknown — peer.
    pub const BROADCAST: PeerId = PeerId(254);
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer{}", self.0)
    }
}

/// Errors produced by [`Transport`] implementations.
#[derive(Debug)]
pub enum TransportError {
    /// The destination peer is not known to this transport.
    UnknownPeer(PeerId),
    /// The transport has been shut down or its counterpart dropped.
    Closed,
    /// An operating-system level I/O failure (UDP transports only).
    Io(std::io::Error),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownPeer(p) => write!(f, "unknown peer {p}"),
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl Error for TransportError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// A non-blocking, unreliable, message-boundary-preserving datagram service.
///
/// Implementations: [`SimSocket`](crate::SimSocket) (simulated network with
/// netem impairments), [`UdpTransport`](crate::UdpTransport) (real sockets),
/// and [`loopback`] (in-process pair for tests and examples).
///
/// # Examples
///
/// ```
/// use coplay_net::{loopback, PeerId, Transport};
///
/// let (mut a, mut b) = loopback(PeerId(0), PeerId(1));
/// a.send(PeerId(1), b"hello")?;
/// assert_eq!(b.try_recv()?, Some((PeerId(0), b"hello".to_vec())));
/// assert_eq!(b.try_recv()?, None);
/// # Ok::<(), coplay_net::TransportError>(())
/// ```
pub trait Transport {
    /// This endpoint's identity.
    fn local_id(&self) -> PeerId;

    /// Queues one datagram to `to`. Never blocks.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::UnknownPeer`] if `to` is not reachable from
    /// this endpoint, [`TransportError::Closed`] if the transport is shut
    /// down, or [`TransportError::Io`] on socket failure.
    fn send(&mut self, to: PeerId, payload: &[u8]) -> Result<(), TransportError>;

    /// Takes the next datagram available right now, if any. Never blocks.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if the transport is shut down, or
    /// [`TransportError::Io`] on socket failure. Absence of data is `Ok(None)`,
    /// not an error.
    fn try_recv(&mut self) -> Result<Option<(PeerId, Vec<u8>)>, TransportError>;
}

/// One end of an in-process loopback link created by [`loopback`].
///
/// Delivery is immediate, lossless, and ordered — useful for unit tests and
/// for driving the real-time runner without touching the OS network stack.
#[derive(Debug)]
pub struct LoopbackTransport {
    id: PeerId,
    peer: PeerId,
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
    pending: VecDeque<Vec<u8>>,
}

/// Creates a connected pair of in-process transports.
pub fn loopback(a: PeerId, b: PeerId) -> (LoopbackTransport, LoopbackTransport) {
    let (tx_ab, rx_ab) = mpsc::channel();
    let (tx_ba, rx_ba) = mpsc::channel();
    (
        LoopbackTransport {
            id: a,
            peer: b,
            tx: tx_ab,
            rx: rx_ba,
            pending: VecDeque::new(),
        },
        LoopbackTransport {
            id: b,
            peer: a,
            tx: tx_ba,
            rx: rx_ab,
            pending: VecDeque::new(),
        },
    )
}

impl Transport for LoopbackTransport {
    fn local_id(&self) -> PeerId {
        self.id
    }

    fn send(&mut self, to: PeerId, payload: &[u8]) -> Result<(), TransportError> {
        if to != self.peer {
            return Err(TransportError::UnknownPeer(to));
        }
        // A dropped peer swallows datagrams silently, like UDP to a dead
        // host: sending is never an error on an unreliable transport.
        let _ = self.tx.send(payload.to_vec());
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<(PeerId, Vec<u8>)>, TransportError> {
        if let Some(p) = self.pending.pop_front() {
            return Ok(Some((self.peer, p)));
        }
        match self.rx.try_recv() {
            Ok(p) => Ok(Some((self.peer, p))),
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => {
                // The peer may legitimately finish first; remaining queued
                // datagrams were already drained by try_recv above.
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_delivers_in_order() {
        let (mut a, mut b) = loopback(PeerId(0), PeerId(1));
        a.send(PeerId(1), b"one").unwrap();
        a.send(PeerId(1), b"two").unwrap();
        assert_eq!(b.try_recv().unwrap().unwrap().1, b"one");
        assert_eq!(b.try_recv().unwrap().unwrap().1, b"two");
        assert!(b.try_recv().unwrap().is_none());
    }

    #[test]
    fn loopback_is_bidirectional() {
        let (mut a, mut b) = loopback(PeerId(0), PeerId(1));
        b.send(PeerId(0), b"pong").unwrap();
        assert_eq!(a.try_recv().unwrap(), Some((PeerId(1), b"pong".to_vec())));
    }

    #[test]
    fn loopback_rejects_unknown_peer() {
        let (mut a, _b) = loopback(PeerId(0), PeerId(1));
        assert!(matches!(
            a.send(PeerId(9), b"x"),
            Err(TransportError::UnknownPeer(PeerId(9)))
        ));
    }

    #[test]
    fn loopback_survives_peer_drop() {
        let (mut a, b) = loopback(PeerId(0), PeerId(1));
        drop(b);
        // UDP semantics: sends to a dead peer vanish without error.
        assert!(a.send(PeerId(1), b"x").is_ok());
        assert!(a.try_recv().unwrap().is_none());
    }

    #[test]
    fn errors_format_and_source() {
        let e = TransportError::UnknownPeer(PeerId(3));
        assert_eq!(e.to_string(), "unknown peer peer3");
        let io = TransportError::from(std::io::Error::other("boom"));
        assert!(Error::source(&io).is_some());
    }
}
