//! The client side of the relay topology.
//!
//! [`RelaySocket`] wraps any [`Transport`] whose single reachable peer is
//! the relay and restores ordinary site-addressed semantics on top of it:
//! `send(PeerId(s), bytes)` wraps the opaque payload in a
//! [`Forward`](RelayMessage::Forward) envelope addressed to site `s`, and
//! `try_recv` unwraps [`Deliver`](RelayMessage::Deliver) envelopes back
//! into `(PeerId(from_site), bytes)`. The session drivers therefore run
//! unmodified — they still believe they are talking to peers directly —
//! while every datagram on the wire goes to one relay address.
//!
//! Registration is lazy and self-healing: until the relay acknowledges,
//! every outbound datagram is preceded by a `Register`, and an
//! [`Evicted`](RelayMessage::Evicted) notice flips the socket back to the
//! unregistered state so the next send re-registers.

use coplay_net::{PeerId, Transport, TransportError};

use crate::wire::RelayMessage;

/// While unregistered, `try_recv` retransmits `Register` once per this many
/// polls (including the very first). A client may have nothing to send for
/// a while — a session site greets its peers only once per join retry —
/// and a peer's hello can only be fanned out to members the relay already
/// knows about, so a receiving client must still announce itself, and keep
/// re-announcing in case the datagram was lost.
const REGISTER_POLL_EVERY: u32 = 16;

/// A [`Transport`] adapter that tunnels site-addressed datagrams through a
/// relay. See the module docs.
///
/// The inner transport only ever needs to reach `relay`; in relay topology
/// that is the one configured address a client talks to.
pub struct RelaySocket<T> {
    inner: T,
    relay: PeerId,
    session: u32,
    spectator: bool,
    registered: bool,
    /// Receive polls since the last `try_recv`-driven `Register`
    /// retransmission (see [`REGISTER_POLL_EVERY`]).
    recv_polls: u32,
    /// Reused encode buffer: steady-state sends allocate nothing.
    buf: Vec<u8>,
    /// Deliver envelopes unwrapped (what the session driver consumes).
    delivered: u64,
    /// Non-Deliver or undecodable datagrams discarded by `try_recv`.
    discarded: u64,
    /// Eviction notices seen (each forces a re-registration).
    evictions: u64,
}

impl<T: Transport> RelaySocket<T> {
    /// Wraps `inner`, joining `session` as this transport's local site.
    pub fn new(inner: T, relay: PeerId, session: u32) -> RelaySocket<T> {
        RelaySocket {
            inner,
            relay,
            session,
            spectator: false,
            registered: false,
            recv_polls: 0,
            buf: Vec::with_capacity(64),
            delivered: 0,
            discarded: 0,
            evictions: 0,
        }
    }

    /// Registers as a read-only spectator instead of a player. Spectators
    /// receive the session's forwarded input stream but may not send.
    pub fn spectator(mut self) -> Self {
        self.spectator = true;
        self
    }

    /// `true` once the relay has acknowledged the registration.
    pub fn is_registered(&self) -> bool {
        self.registered
    }

    /// Deliver envelopes unwrapped so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Datagrams discarded because they were not (decodable) envelopes.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Eviction notices received so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Sends liveness (a `Register` until acknowledged, then a
    /// `Heartbeat`). Players refresh their slot with every forward, so this
    /// matters for spectators and otherwise-idle members; call it at the
    /// lobby heartbeat cadence.
    ///
    /// # Errors
    ///
    /// Propagates the inner transport's send error.
    pub fn heartbeat(&mut self) -> Result<(), TransportError> {
        let msg = if self.registered {
            RelayMessage::Heartbeat {
                session: self.session,
            }
        } else {
            self.register_message()
        };
        msg.encode_into(&mut self.buf);
        self.inner.send(self.relay, &self.buf)
    }

    /// Announces an orderly leave, freeing the relay slot immediately.
    ///
    /// # Errors
    ///
    /// Propagates the inner transport's send error.
    pub fn bye(&mut self) -> Result<(), TransportError> {
        self.registered = false;
        RelayMessage::Bye {
            session: self.session,
        }
        .encode_into(&mut self.buf);
        self.inner.send(self.relay, &self.buf)
    }

    fn register_message(&self) -> RelayMessage<'static> {
        RelayMessage::Register {
            session: self.session,
            site: self.inner.local_id().0,
            spectator: self.spectator,
        }
    }

    fn send_register(&mut self) -> Result<(), TransportError> {
        self.register_message().encode_into(&mut self.buf);
        self.inner.send(self.relay, &self.buf)
    }

    /// Handles a relay control message surfaced by `try_recv`.
    fn on_control(&mut self, msg: RelayMessage<'_>) -> Result<(), TransportError> {
        match msg {
            RelayMessage::Registered { session, .. } if session == self.session => {
                self.registered = true;
            }
            RelayMessage::Evicted { session } if session == self.session => {
                self.evictions += 1;
                self.registered = false;
                // Re-register immediately rather than waiting for the next
                // outbound datagram (spectators may never send one).
                self.send_register()?;
            }
            _ => self.discarded += 1,
        }
        Ok(())
    }
}

impl<T: Transport> Transport for RelaySocket<T> {
    fn local_id(&self) -> PeerId {
        self.inner.local_id()
    }

    /// Wraps `payload` in a `Forward` envelope to site `to` and sends it to
    /// the relay. [`PeerId::BROADCAST`] maps to the wire broadcast
    /// destination (the two constants share a value by design). Until the
    /// registration is acknowledged, each send is preceded by a `Register`
    /// retransmission — the sync protocol's own send cadence paces the
    /// retries.
    fn send(&mut self, to: PeerId, payload: &[u8]) -> Result<(), TransportError> {
        if !self.registered {
            self.send_register()?;
        }
        RelayMessage::Forward {
            dest: to.0,
            payload,
        }
        .encode_into(&mut self.buf);
        self.inner.send(self.relay, &self.buf)
    }

    /// Receives from the relay, unwrapping `Deliver` envelopes into
    /// `(PeerId(from_site), payload)` and consuming control traffic
    /// (registration acks, eviction notices) internally.
    fn try_recv(&mut self) -> Result<Option<(PeerId, Vec<u8>)>, TransportError> {
        if !self.registered {
            // Receive-only members (a waiting session master, a spectator
            // between heartbeats) still have to register; pace the
            // retransmission by poll count since this path has no clock.
            if self.recv_polls == 0 {
                self.send_register()?;
            }
            self.recv_polls = (self.recv_polls + 1) % REGISTER_POLL_EVERY;
        }
        while let Some((from, data)) = self.inner.try_recv()? {
            if from != self.relay {
                // Relay topology: anything not from the relay is noise.
                self.discarded += 1;
                continue;
            }
            match RelayMessage::decode(&data) {
                Ok(RelayMessage::Deliver { from_site, payload }) => {
                    self.delivered += 1;
                    return Ok(Some((PeerId(from_site), payload.to_vec())));
                }
                Ok(msg) => self.on_control(msg)?,
                Err(_) => self.discarded += 1,
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coplay_clock::SimTime;
    use coplay_net::loopback;

    use crate::server::{RelayConfig, RelayCore};

    const RELAY: PeerId = PeerId(200);

    /// Runs every datagram queued on either core-side link through the
    /// core, dispatching replies to whichever link owns the destination
    /// address (the loopback stand-in for one socket serving many peers).
    fn pump(core: &mut RelayCore<PeerId>, links: &mut [&mut dyn Transport], now: SimTime) {
        loop {
            let mut quiet = true;
            for i in 0..links.len() {
                while let Some((from, data)) = links[i].try_recv().unwrap() {
                    quiet = false;
                    let replies: Vec<_> = core.handle(from, &data, now).to_vec();
                    for (to, bytes) in replies {
                        let reached = links.iter_mut().any(|l| l.send(to, &bytes).is_ok());
                        assert!(reached, "no link reaches {to}");
                    }
                }
            }
            if quiet {
                break;
            }
        }
    }

    #[test]
    fn send_registers_then_forwards() {
        let (a, mut relay_end) = loopback(PeerId(0), RELAY);
        let mut sock = RelaySocket::new(a, RELAY, 42);
        sock.send(PeerId::BROADCAST, b"input").unwrap();

        // First datagram is the lazy Register, second the Forward.
        let (_, reg) = relay_end.try_recv().unwrap().unwrap();
        assert!(matches!(
            RelayMessage::decode(&reg),
            Ok(RelayMessage::Register {
                session: 42,
                site: 0,
                spectator: false,
            })
        ));
        let (_, fwd) = relay_end.try_recv().unwrap().unwrap();
        assert_eq!(
            RelayMessage::decode(&fwd),
            Ok(RelayMessage::Forward {
                dest: crate::DEST_BROADCAST,
                payload: b"input",
            })
        );

        // The ack flips the socket to registered; later sends skip Register.
        relay_end
            .send(
                PeerId(0),
                &RelayMessage::Registered {
                    session: 42,
                    site: 0,
                }
                .encode(),
            )
            .unwrap();
        assert_eq!(sock.try_recv().unwrap(), None);
        assert!(sock.is_registered());
        // That try_recv entered unregistered, so it retransmitted one more
        // Register before consuming the ack.
        let (_, retry) = relay_end.try_recv().unwrap().unwrap();
        assert!(matches!(
            RelayMessage::decode(&retry),
            Ok(RelayMessage::Register { .. })
        ));
        sock.send(PeerId(1), b"more").unwrap();
        let (_, only) = relay_end.try_recv().unwrap().unwrap();
        assert!(matches!(
            RelayMessage::decode(&only),
            Ok(RelayMessage::Forward { .. })
        ));
        assert!(relay_end.try_recv().unwrap().is_none());
    }

    #[test]
    fn recv_unwraps_deliver_and_eats_control() {
        let (a, mut relay_end) = loopback(PeerId(1), RELAY);
        let mut sock = RelaySocket::new(a, RELAY, 7);
        relay_end
            .send(
                PeerId(1),
                &RelayMessage::Registered {
                    session: 7,
                    site: 1,
                }
                .encode(),
            )
            .unwrap();
        relay_end
            .send(
                PeerId(1),
                &RelayMessage::Deliver {
                    from_site: 0,
                    payload: b"frame",
                }
                .encode(),
            )
            .unwrap();
        assert_eq!(
            sock.try_recv().unwrap(),
            Some((PeerId(0), b"frame".to_vec()))
        );
        assert!(sock.is_registered());
        assert_eq!(sock.delivered(), 1);
    }

    #[test]
    fn eviction_triggers_reregistration() {
        let (a, mut relay_end) = loopback(PeerId(0), RELAY);
        let mut sock = RelaySocket::new(a, RELAY, 7).spectator();
        sock.heartbeat().unwrap();
        let (_, first) = relay_end.try_recv().unwrap().unwrap();
        assert!(matches!(
            RelayMessage::decode(&first),
            Ok(RelayMessage::Register {
                spectator: true,
                ..
            })
        ));
        relay_end
            .send(
                PeerId(0),
                &RelayMessage::Registered {
                    session: 7,
                    site: 0,
                }
                .encode(),
            )
            .unwrap();
        assert_eq!(sock.try_recv().unwrap(), None);
        assert!(sock.is_registered());

        relay_end
            .send(PeerId(0), &RelayMessage::Evicted { session: 7 }.encode())
            .unwrap();
        assert_eq!(sock.try_recv().unwrap(), None);
        assert!(!sock.is_registered());
        assert_eq!(sock.evictions(), 1);
        // The eviction notice provoked an immediate Register retry.
        let (_, retry) = relay_end.try_recv().unwrap().unwrap();
        assert!(matches!(
            RelayMessage::decode(&retry),
            Ok(RelayMessage::Register { session: 7, .. })
        ));
    }

    #[test]
    fn two_sockets_converse_through_a_core() {
        let now = SimTime::ZERO;
        let mut core: RelayCore<PeerId> = RelayCore::new(RelayConfig::default());
        let (a, mut core_a) = loopback(PeerId(0), RELAY);
        let (b, mut core_b) = loopback(PeerId(1), RELAY);
        let mut sa = RelaySocket::new(a, RELAY, 9);
        let mut sb = RelaySocket::new(b, RELAY, 9);

        // Both sides register by sending; the core routes between links.
        sa.send(PeerId::BROADCAST, b"from a").unwrap();
        sb.send(PeerId::BROADCAST, b"from b").unwrap();
        pump(&mut core, &mut [&mut core_a, &mut core_b], now);
        // a's first Forward predated b's registration — resend after both
        // are in, as the sync protocol's retransmission naturally would.
        // (b's Forward went out after a registered, so it was delivered.)
        assert_eq!(
            sa.try_recv().unwrap(),
            Some((PeerId(1), b"from b".to_vec()))
        );
        assert!(sa.is_registered());
        sa.send(PeerId::BROADCAST, b"from a").unwrap();
        pump(&mut core, &mut [&mut core_a, &mut core_b], now);

        let got_b = sb.try_recv().unwrap();
        assert_eq!(got_b, Some((PeerId(0), b"from a".to_vec())));
        assert_eq!(core.session_count(), 1);
        assert_eq!(core.member_count(9), 2);
    }
}
