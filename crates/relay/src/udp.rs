//! The relay's real-socket event loop.
//!
//! One [`UdpSocket`] serves every session on the shard: the
//! ROADMAP's outbound-only clients all talk to this single well-known
//! address, and [`RelayCore`] routes between them by sender address. The
//! loop is single-threaded by design — the per-datagram work is a map
//! lookup and a memcpy fan-out — and scales horizontally by running one
//! process (or thread) per shard, each bound to its own port. The socket
//! is non-blocking, so [`UdpRelay::poll`] never waits; only the idle wait
//! of [`UdpRelay::run_until`] blocks on it.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

use coplay_clock::SimTime;
use coplay_telemetry::Telemetry;

use crate::server::{RelayConfig, RelayCore, RelayStats};

/// Largest datagram the relay will accept: the wire cap plus envelope
/// headroom. Anything bigger is not a legal relay datagram.
const RECV_BUF: usize = crate::wire::MAX_RELAY_PAYLOAD + 64;

/// How often the eviction sweep runs, as a divisor of the member TTL.
const SWEEP_DIVISOR: u64 = 4;

/// The longest an idle [`UdpRelay::run_until`] blocks on its socket before
/// it checks its stop condition again.
const IDLE_BLOCK_CAP: Duration = Duration::from_millis(10);

/// A [`RelayCore`] bound to a real UDP socket. See the module docs.
pub struct UdpRelay {
    socket: UdpSocket,
    core: RelayCore<SocketAddr>,
    buf: Vec<u8>,
    sweep_every: Duration,
    epoch: Option<Instant>,
    last_sweep: SimTime,
}

impl UdpRelay {
    /// Binds the relay socket at `addr` (non-blocking) with policy `cfg`.
    ///
    /// # Errors
    ///
    /// Returns any socket-creation error from the OS.
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: RelayConfig) -> io::Result<UdpRelay> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        let sweep_every = (cfg.member_ttl / SWEEP_DIVISOR).to_std();
        Ok(UdpRelay {
            socket,
            core: RelayCore::new(cfg),
            buf: vec![0; RECV_BUF],
            sweep_every,
            epoch: None,
            last_sweep: SimTime::ZERO,
        })
    }

    /// Attaches a telemetry sink to the routing core.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.core = self.core.with_telemetry(telemetry);
        self
    }

    /// The socket address actually bound (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the socket has become invalid.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// The routing core's running totals.
    pub fn stats(&self) -> RelayStats {
        self.core.stats()
    }

    /// Live sessions on this shard.
    pub fn session_count(&self) -> usize {
        self.core.session_count()
    }

    /// Drains the socket once, routing every pending datagram, and runs the
    /// eviction sweep when its cadence is due. Returns how many datagrams
    /// were processed. Never blocks.
    ///
    /// # Errors
    ///
    /// Returns socket errors other than an empty receive queue. Send
    /// failures to individual clients are ignored (UDP semantics: the relay
    /// must not stall on one dead receiver).
    pub fn poll(&mut self, now: SimTime) -> io::Result<usize> {
        let mut handled = 0usize;
        loop {
            match self.socket.recv_from(&mut self.buf) {
                Ok((n, from)) => {
                    handled += 1;
                    let data = self.buf.get(..n).unwrap_or(&[]);
                    for (to, reply) in self.core.handle(from, data, now) {
                        let _ = self.socket.send_to(reply, *to);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if now.saturating_since(self.last_sweep).to_std() >= self.sweep_every {
            self.last_sweep = now;
            for (to, notice) in self.core.sweep(now) {
                let _ = self.socket.send_to(notice, *to);
            }
        }
        Ok(handled)
    }

    /// Runs the event loop until `stop` returns `true`. An idle relay
    /// blocks on its socket until a datagram arrives, for at most 10 ms
    /// (`IDLE_BLOCK_CAP`) at a time, so it forwards a datagram as soon as
    /// it lands and burns no CPU between datagrams. `stop` is checked
    /// after every poll, so at least every 10 ms while the socket stays
    /// idle; the eviction sweep runs on the first poll after it is due.
    ///
    /// # Errors
    ///
    /// Propagates the first socket error from [`poll`](UdpRelay::poll)
    /// or from switching the socket between blocking and non-blocking.
    #[expect(
        clippy::disallowed_methods,
        reason = "the relay serves live clients on the wall clock; it feeds eviction timers, never simulation state"
    )]
    pub fn run_until(&mut self, mut stop: impl FnMut() -> bool) -> io::Result<()> {
        let epoch = *self.epoch.get_or_insert_with(Instant::now);
        while !stop() {
            let now = SimTime::from_micros(epoch.elapsed().as_micros() as u64);
            if self.poll(now)? == 0 {
                self.wait_readable()?;
            }
        }
        Ok(())
    }

    /// Blocks until a datagram is queued on the socket or
    /// `IDLE_BLOCK_CAP` passes, and leaves the datagram for the next
    /// [`poll`](Self::poll).
    fn wait_readable(&mut self) -> io::Result<()> {
        self.socket.set_read_timeout(Some(IDLE_BLOCK_CAP))?;
        self.socket.set_nonblocking(false)?;
        // A timeout only means the socket stayed idle, and any other
        // error resurfaces from the next poll's receive.
        let _ = self.socket.peek_from(&mut self.buf);
        self.socket.set_nonblocking(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{self, RelayMessage};
    use coplay_clock::{Clock, SystemClock};

    fn client() -> UdpSocket {
        let s = UdpSocket::bind("127.0.0.1:0").unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        s
    }

    fn recv(sock: &UdpSocket) -> Vec<u8> {
        let mut buf = vec![0u8; RECV_BUF];
        let (n, _) = sock.recv_from(&mut buf).unwrap();
        buf.truncate(n);
        buf
    }

    #[test]
    fn routes_between_real_sockets() {
        let mut relay = UdpRelay::bind("127.0.0.1:0", RelayConfig::default()).unwrap();
        let addr = relay.local_addr().unwrap();
        let a = client();
        let b = client();

        a.send_to(
            &RelayMessage::Register {
                session: 1,
                site: 0,
                spectator: false,
            }
            .encode(),
            addr,
        )
        .unwrap();
        b.send_to(
            &RelayMessage::Register {
                session: 1,
                site: 1,
                spectator: false,
            }
            .encode(),
            addr,
        )
        .unwrap();
        // Poll until both registrations are in (datagrams may land across
        // separate polls).
        let mut now = SimTime::ZERO;
        while relay.core.member_count(1) < 2 {
            relay.poll(now).unwrap();
            now += coplay_clock::SimDuration::from_millis(1);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(matches!(
            RelayMessage::decode(&recv(&a)),
            Ok(RelayMessage::Registered {
                session: 1,
                site: 0
            })
        ));
        assert!(matches!(
            RelayMessage::decode(&recv(&b)),
            Ok(RelayMessage::Registered {
                session: 1,
                site: 1
            })
        ));

        a.send_to(
            &RelayMessage::Forward {
                dest: wire::DEST_BROADCAST,
                payload: b"input frame",
            }
            .encode(),
            addr,
        )
        .unwrap();
        let mut forwarded = 0;
        while forwarded == 0 {
            relay.poll(now).unwrap();
            forwarded = relay.stats().forwarded;
            std::thread::sleep(Duration::from_millis(1));
        }
        let delivered = recv(&b);
        assert_eq!(
            RelayMessage::decode(&delivered),
            Ok(RelayMessage::Deliver {
                from_site: 0,
                payload: b"input frame",
            })
        );
    }

    #[test]
    fn an_idle_relay_blocks_between_stop_checks() {
        let mut relay = UdpRelay::bind("127.0.0.1:0", RelayConfig::default()).unwrap();
        let clock = SystemClock::new();
        let start = clock.now();
        let mut checks = 0;
        relay
            .run_until(|| {
                checks += 1;
                checks > 3
            })
            .unwrap();
        // Three idle waits of up to one cap each, not a spin of short
        // parks. A blocking read may wake up to one kernel tick early, so
        // the bound is one cap, not three.
        let idle = clock.now().saturating_since(start);
        assert!(idle.to_std() >= IDLE_BLOCK_CAP, "{idle}");
        // The socket is non-blocking again: an empty poll returns at once.
        assert_eq!(relay.poll(SimTime::ZERO).unwrap(), 0);
    }

    #[test]
    fn run_until_routes_what_arrives() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let mut relay = UdpRelay::bind("127.0.0.1:0", RelayConfig::default()).unwrap();
        let addr = relay.local_addr().unwrap();
        let answered = AtomicBool::new(false);
        let reply = std::thread::scope(|s| {
            let member = s.spawn(|| {
                let a = client();
                let register = RelayMessage::Register {
                    session: 1,
                    site: 0,
                    spectator: false,
                };
                a.send_to(&register.encode(), addr).unwrap();
                let mut buf = vec![0u8; RECV_BUF];
                // Times out after 2 s rather than hang the test.
                let reply = a.recv_from(&mut buf).map(|(n, _)| buf[..n].to_vec());
                answered.store(true, Ordering::SeqCst);
                reply
            });
            relay.run_until(|| answered.load(Ordering::SeqCst)).unwrap();
            member.join().unwrap()
        });
        assert!(matches!(
            RelayMessage::decode(&reply.unwrap()),
            Ok(RelayMessage::Registered {
                session: 1,
                site: 0
            })
        ));
    }

    #[test]
    fn run_until_stops() {
        let mut relay = UdpRelay::bind("127.0.0.1:0", RelayConfig::default()).unwrap();
        let mut polls = 0;
        relay
            .run_until(|| {
                polls += 1;
                polls > 3
            })
            .unwrap();
    }
}
