//! A real UDP transport for live sessions.
//!
//! This is the deployment path the paper describes in §2: a UDP channel is
//! established between the two players' machines after rendezvous. Peer
//! identities are mapped to socket addresses with a small static table; the
//! socket is non-blocking so the frame loop's `SyncInput` poll never stalls
//! in the kernel.

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

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};

use coplay_telemetry::Telemetry;

use crate::transport::{PeerId, Transport, TransportError};

/// Maximum datagram this transport will receive. The sync protocol sends
/// small frames (tens of bytes), so 64 KiB is far beyond any legal packet.
const MAX_DATAGRAM: usize = 65_536;

/// A [`Transport`] backed by a non-blocking [`UdpSocket`].
///
/// # Examples
///
/// ```no_run
/// use coplay_net::{PeerId, Transport, UdpTransport};
///
/// let mut t = UdpTransport::bind(PeerId(0), "127.0.0.1:7000")?;
/// t.add_peer(PeerId(1), "127.0.0.1:7001")?;
/// t.send(PeerId(1), b"hello")?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct UdpTransport {
    id: PeerId,
    socket: UdpSocket,
    peers: BTreeMap<PeerId, SocketAddr>,
    by_addr: BTreeMap<SocketAddr, PeerId>,
    buf: Vec<u8>,
    telemetry: Telemetry,
}

impl UdpTransport {
    /// Binds a UDP socket at `addr` and takes identity `id`.
    ///
    /// # Errors
    ///
    /// Returns any socket-creation error from the OS.
    pub fn bind<A: ToSocketAddrs>(id: PeerId, addr: A) -> io::Result<UdpTransport> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        Ok(UdpTransport {
            id,
            socket,
            peers: BTreeMap::new(),
            by_addr: BTreeMap::new(),
            buf: vec![0; MAX_DATAGRAM],
            telemetry: Telemetry::disabled(),
        })
    }

    /// Attaches an observability sink: datagram/byte counters on both
    /// directions, plus `udp_send_would_block_total` — the kernel-buffer
    /// drop that [`Transport::send`] otherwise swallows silently.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Registers `peer` as reachable at `addr`.
    ///
    /// # Errors
    ///
    /// Returns an error if `addr` does not resolve to any address.
    pub fn add_peer<A: ToSocketAddrs>(&mut self, peer: PeerId, addr: A) -> io::Result<()> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address did not resolve")
        })?;
        self.peers.insert(peer, addr);
        self.by_addr.insert(addr, peer);
        Ok(())
    }

    /// The local socket address actually bound (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the socket has become invalid.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }
}

impl Transport for UdpTransport {
    fn local_id(&self) -> PeerId {
        self.id
    }

    fn send(&mut self, to: PeerId, payload: &[u8]) -> Result<(), TransportError> {
        let addr = self
            .peers
            .get(&to)
            .copied()
            .ok_or(TransportError::UnknownPeer(to))?;
        match self.socket.send_to(payload, addr) {
            Ok(n) => {
                self.telemetry.counter_add("udp_datagrams_sent_total", 1);
                self.telemetry.counter_add("udp_bytes_sent_total", n as u64);
                Ok(())
            }
            // A full send buffer on an unreliable transport is a drop, not
            // an error — exactly what UDP gives the paper's system.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                self.telemetry.counter_add("udp_send_would_block_total", 1);
                Ok(())
            }
            Err(e) => Err(TransportError::Io(e)),
        }
    }

    fn try_recv(&mut self) -> Result<Option<(PeerId, Vec<u8>)>, TransportError> {
        loop {
            match self.socket.recv_from(&mut self.buf) {
                Ok((n, from)) => {
                    // Datagrams from unknown senders are dropped silently;
                    // an open UDP port receives arbitrary internet noise.
                    if let Some(&peer) = self.by_addr.get(&from) {
                        self.telemetry
                            .counter_add("udp_datagrams_received_total", 1);
                        self.telemetry
                            .counter_add("udp_bytes_received_total", n as u64);
                        return Ok(Some((peer, self.buf[..n].to_vec())));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coplay_clock::{Clock, SimTime, SystemClock};
    use std::time::Duration;

    fn pair() -> (UdpTransport, UdpTransport) {
        let mut a = UdpTransport::bind(PeerId(0), "127.0.0.1:0").unwrap();
        let mut b = UdpTransport::bind(PeerId(1), "127.0.0.1:0").unwrap();
        let aa = a.local_addr().unwrap();
        let ba = b.local_addr().unwrap();
        a.add_peer(PeerId(1), ba).unwrap();
        b.add_peer(PeerId(0), aa).unwrap();
        (a, b)
    }

    fn recv_blocking(t: &mut UdpTransport) -> (PeerId, Vec<u8>) {
        let clock = SystemClock::new();
        while clock.now() < SimTime::from_secs(2) {
            if let Some(got) = t.try_recv().unwrap() {
                return got;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("no datagram arrived within 2s");
    }

    #[test]
    fn roundtrip_over_loopback() {
        let (mut a, mut b) = pair();
        a.send(PeerId(1), b"ping").unwrap();
        let (from, data) = recv_blocking(&mut b);
        assert_eq!((from, data.as_slice()), (PeerId(0), b"ping".as_slice()));
        b.send(PeerId(0), b"pong").unwrap();
        let (from, data) = recv_blocking(&mut a);
        assert_eq!((from, data.as_slice()), (PeerId(1), b"pong".as_slice()));
    }

    #[test]
    fn unknown_peer_is_an_error() {
        let (mut a, _b) = pair();
        assert!(matches!(
            a.send(PeerId(9), b"x"),
            Err(TransportError::UnknownPeer(PeerId(9)))
        ));
    }

    #[test]
    fn datagrams_from_unknown_senders_are_dropped() {
        let (_, mut b) = pair();
        let stranger = UdpSocket::bind("127.0.0.1:0").unwrap();
        stranger.send_to(b"noise", b.local_addr().unwrap()).unwrap();
        // Give the kernel a moment, then confirm the noise is invisible.
        std::thread::sleep(Duration::from_millis(20));
        assert!(b.try_recv().unwrap().is_none());
    }

    #[test]
    fn empty_queue_returns_none() {
        let (mut a, _b) = pair();
        assert!(a.try_recv().unwrap().is_none());
    }
}
