//! An in-memory network of impaired links driven by virtual time.
//!
//! [`SimNetwork`] plays the role of the paper's bridging Netem box: every
//! directed pair of peers gets its own [`NetemChannel`], packets in flight
//! live in a deterministic delivery queue, and the simulator advances the
//! network in lockstep with its virtual clock. [`SimSocket`] hands each site
//! a [`Transport`] view of the shared network.

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

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use coplay_clock::{Clock, EventQueue, SimTime, VirtualClock};
use coplay_telemetry::{EventKind, Telemetry};

use crate::netem::{ChannelStats, NetemChannel, NetemConfig};
use crate::transport::{PeerId, Transport, TransportError};

#[derive(Debug)]
struct Flight {
    from: PeerId,
    to: PeerId,
    payload: Vec<u8>,
}

/// The shared, impairment-applying network fabric of a simulation.
///
/// Typical setup: create the network, register peers, configure links (one
/// [`NetemConfig`] per direction), then hand out [`SimSocket`]s via
/// [`SimNetwork::socket`].
///
/// # Examples
///
/// ```
/// use coplay_clock::{Clock, SimDuration, VirtualClock};
/// use coplay_net::{NetemConfig, PeerId, SimNetwork, Transport};
///
/// let clock = VirtualClock::new();
/// let net = SimNetwork::shared(clock.clone());
/// let delay = SimDuration::from_millis(5);
/// SimNetwork::link_pair(&net, PeerId(0), PeerId(1), NetemConfig::new().delay(delay), 1);
///
/// let mut a = SimNetwork::socket(&net, PeerId(0));
/// let mut b = SimNetwork::socket(&net, PeerId(1));
/// a.send(PeerId(1), b"hi")?;
///
/// // Nothing arrives until virtual time passes the link delay.
/// assert_eq!(b.try_recv()?, None);
/// clock.advance(delay);
/// net.borrow_mut().deliver_due(clock.now());
/// assert_eq!(b.try_recv()?, Some((PeerId(0), b"hi".to_vec())));
/// # Ok::<(), coplay_net::TransportError>(())
/// ```
#[derive(Debug)]
pub struct SimNetwork {
    clock: VirtualClock,
    channels: BTreeMap<(PeerId, PeerId), NetemChannel>,
    link_up: BTreeMap<(PeerId, PeerId), bool>,
    queue: EventQueue<Flight>,
    inboxes: BTreeMap<PeerId, VecDeque<(PeerId, Vec<u8>)>>,
    telemetry: Telemetry,
}

impl SimNetwork {
    /// Creates an empty network observing `clock`.
    pub fn new(clock: VirtualClock) -> Self {
        SimNetwork {
            clock,
            channels: BTreeMap::new(),
            link_up: BTreeMap::new(),
            queue: EventQueue::new(),
            inboxes: BTreeMap::new(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches an observability sink: packet drops (loss, downed link) and
    /// duplications are recorded, stamped with virtual time.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Creates a network already wrapped for sharing with [`SimSocket`]s.
    pub fn shared(clock: VirtualClock) -> Rc<RefCell<SimNetwork>> {
        Rc::new(RefCell::new(SimNetwork::new(clock)))
    }

    /// Configures the directed link `from → to`.
    ///
    /// `seed` feeds the channel's RNG; use distinct seeds per direction for
    /// independent impairment streams.
    pub fn set_link(&mut self, from: PeerId, to: PeerId, config: NetemConfig, seed: u64) {
        self.channels
            .insert((from, to), NetemChannel::new(config, seed));
        self.link_up.insert((from, to), true);
        self.inboxes.entry(from).or_default();
        self.inboxes.entry(to).or_default();
    }

    /// Configures both directions of a link symmetrically (derives a second
    /// seed for the reverse direction).
    pub fn link_pair(
        net: &Rc<RefCell<SimNetwork>>,
        a: PeerId,
        b: PeerId,
        config: NetemConfig,
        seed: u64,
    ) {
        let mut n = net.borrow_mut();
        n.set_link(a, b, config.clone(), seed);
        n.set_link(b, a, config, seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    }

    /// Creates a [`Transport`] endpoint for `peer` on a shared network.
    pub fn socket(net: &Rc<RefCell<SimNetwork>>, peer: PeerId) -> SimSocket {
        net.borrow_mut().inboxes.entry(peer).or_default();
        SimSocket {
            net: Rc::clone(net),
            id: peer,
        }
    }

    /// Brings the directed link `from → to` up or down. A downed link drops
    /// every packet (used for failure injection; in-flight packets still
    /// arrive).
    pub fn set_link_up(&mut self, from: PeerId, to: PeerId, up: bool) {
        self.link_up.insert((from, to), up);
    }

    /// Replaces the impairment configuration of `from → to` mid-run.
    /// Returns `false` (changing nothing) if the link was never
    /// configured with [`SimNetwork::set_link`].
    pub fn reconfigure_link(&mut self, from: PeerId, to: PeerId, config: NetemConfig) -> bool {
        match self.channels.get_mut(&(from, to)) {
            Some(channel) => {
                channel.set_config(config);
                true
            }
            None => false,
        }
    }

    /// Impairment counters for the directed link, if configured.
    pub fn link_stats(&self, from: PeerId, to: PeerId) -> Option<ChannelStats> {
        self.channels.get(&(from, to)).map(NetemChannel::stats)
    }

    fn send(&mut self, from: PeerId, to: PeerId, payload: &[u8]) -> Result<(), TransportError> {
        let now = self.clock.now();
        let Some(channel) = self.channels.get_mut(&(from, to)) else {
            return Err(TransportError::UnknownPeer(to));
        };
        if !self.link_up.get(&(from, to)).copied().unwrap_or(true) {
            // Downed link: silently eat the packet, exactly like a dead wire.
            self.telemetry.record(
                now,
                EventKind::PacketDropped {
                    from: from.0,
                    to: to.0,
                },
            );
            return Ok(());
        }
        let fate = channel.process(now, payload.len());
        if fate.deliveries.is_empty() {
            self.telemetry.record(
                now,
                EventKind::PacketDropped {
                    from: from.0,
                    to: to.0,
                },
            );
        } else if fate.deliveries.len() > 1 {
            self.telemetry.record(
                now,
                EventKind::PacketDuplicated {
                    from: from.0,
                    to: to.0,
                },
            );
        }
        self.telemetry.counter_add("net_datagrams_sent_total", 1);
        self.telemetry
            .counter_add("net_bytes_sent_total", payload.len() as u64);
        for at in fate.deliveries {
            self.queue.schedule(
                at,
                Flight {
                    from,
                    to,
                    payload: payload.to_vec(),
                },
            );
        }
        Ok(())
    }

    /// The time the next in-flight packet lands, if any.
    pub fn next_delivery_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Moves every packet due at or before `now` into its destination inbox.
    /// Returns the number of deliveries made.
    pub fn deliver_due(&mut self, now: SimTime) -> usize {
        let mut n = 0;
        while let Some(at) = self.queue.peek_time() {
            if at > now {
                break;
            }
            let Some((_, flight)) = self.queue.pop() else {
                break;
            };
            self.telemetry
                .counter_add("net_datagrams_delivered_total", 1);
            self.inboxes
                .entry(flight.to)
                .or_default()
                .push_back((flight.from, flight.payload));
            n += 1;
        }
        n
    }

    fn recv(&mut self, at: PeerId) -> Option<(PeerId, Vec<u8>)> {
        self.inboxes.get_mut(&at)?.pop_front()
    }
}

/// A per-peer [`Transport`] endpoint on a shared [`SimNetwork`].
///
/// Sends consult the virtual clock and the directed link's impairments;
/// receives drain the peer's inbox, which the simulator fills by calling
/// [`SimNetwork::deliver_due`] as virtual time advances.
#[derive(Debug)]
pub struct SimSocket {
    net: Rc<RefCell<SimNetwork>>,
    id: PeerId,
}

impl Transport for SimSocket {
    fn local_id(&self) -> PeerId {
        self.id
    }

    fn send(&mut self, to: PeerId, payload: &[u8]) -> Result<(), TransportError> {
        self.net.borrow_mut().send(self.id, to, payload)
    }

    fn try_recv(&mut self) -> Result<Option<(PeerId, Vec<u8>)>, TransportError> {
        Ok(self.net.borrow_mut().recv(self.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coplay_clock::SimDuration;

    fn setup(delay_ms: u64) -> (VirtualClock, Rc<RefCell<SimNetwork>>, SimSocket, SimSocket) {
        let clock = VirtualClock::new();
        let net = SimNetwork::shared(clock.clone());
        SimNetwork::link_pair(
            &net,
            PeerId(0),
            PeerId(1),
            NetemConfig::new().delay(SimDuration::from_millis(delay_ms)),
            1,
        );
        let a = SimNetwork::socket(&net, PeerId(0));
        let b = SimNetwork::socket(&net, PeerId(1));
        (clock, net, a, b)
    }

    #[test]
    fn delivery_waits_for_virtual_time() {
        let (clock, net, mut a, mut b) = setup(10);
        a.send(PeerId(1), b"x").unwrap();
        assert!(b.try_recv().unwrap().is_none());

        clock.advance(SimDuration::from_millis(9));
        net.borrow_mut().deliver_due(clock.now());
        assert!(b.try_recv().unwrap().is_none());

        clock.advance(SimDuration::from_millis(1));
        assert_eq!(net.borrow_mut().deliver_due(clock.now()), 1);
        assert_eq!(b.try_recv().unwrap(), Some((PeerId(0), b"x".to_vec())));
    }

    #[test]
    fn next_delivery_time_reports_earliest() {
        let (clock, net, mut a, _b) = setup(10);
        a.send(PeerId(1), b"x").unwrap();
        clock.advance(SimDuration::from_millis(2));
        a.send(PeerId(1), b"y").unwrap();
        assert_eq!(
            net.borrow_mut().next_delivery_time(),
            Some(SimTime::from_millis(10))
        );
    }

    #[test]
    fn unconfigured_destination_errors() {
        let (_clock, _net, mut a, _b) = setup(0);
        assert!(matches!(
            a.send(PeerId(7), b"x"),
            Err(TransportError::UnknownPeer(PeerId(7)))
        ));
    }

    #[test]
    fn downed_link_eats_packets() {
        let (clock, net, mut a, mut b) = setup(0);
        net.borrow_mut().set_link_up(PeerId(0), PeerId(1), false);
        a.send(PeerId(1), b"x").unwrap();
        net.borrow_mut().deliver_due(clock.now());
        assert!(b.try_recv().unwrap().is_none());

        net.borrow_mut().set_link_up(PeerId(0), PeerId(1), true);
        a.send(PeerId(1), b"y").unwrap();
        net.borrow_mut().deliver_due(clock.now());
        assert_eq!(b.try_recv().unwrap().unwrap().1, b"y");
    }

    #[test]
    fn reconfigure_link_applies_new_delay() {
        let (clock, net, mut a, mut b) = setup(0);
        net.borrow_mut().reconfigure_link(
            PeerId(0),
            PeerId(1),
            NetemConfig::new().delay(SimDuration::from_millis(50)),
        );
        a.send(PeerId(1), b"x").unwrap();
        net.borrow_mut().deliver_due(clock.now());
        assert!(b.try_recv().unwrap().is_none());
        clock.advance(SimDuration::from_millis(50));
        net.borrow_mut().deliver_due(clock.now());
        assert!(b.try_recv().unwrap().is_some());
    }

    #[test]
    fn directions_are_independent() {
        let clock = VirtualClock::new();
        let net = SimNetwork::shared(clock.clone());
        {
            let mut n = net.borrow_mut();
            n.set_link(
                PeerId(0),
                PeerId(1),
                NetemConfig::new().delay(SimDuration::from_millis(5)),
                1,
            );
            n.set_link(
                PeerId(1),
                PeerId(0),
                NetemConfig::new().delay(SimDuration::from_millis(50)),
                2,
            );
        }
        let mut a = SimNetwork::socket(&net, PeerId(0));
        let mut b = SimNetwork::socket(&net, PeerId(1));
        a.send(PeerId(1), b"fast").unwrap();
        b.send(PeerId(0), b"slow").unwrap();
        clock.advance(SimDuration::from_millis(5));
        net.borrow_mut().deliver_due(clock.now());
        assert!(b.try_recv().unwrap().is_some());
        assert!(a.try_recv().unwrap().is_none());
    }

    #[test]
    fn link_stats_visible() {
        let (clock, net, mut a, _b) = setup(0);
        a.send(PeerId(1), b"x").unwrap();
        let _ = clock;
        let stats = net.borrow().link_stats(PeerId(0), PeerId(1)).unwrap();
        assert_eq!(stats.offered, 1);
        assert!(net.borrow().link_stats(PeerId(5), PeerId(6)).is_none());
    }
}
