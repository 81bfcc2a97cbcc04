//! Receive-side network impairment over a real socket.
//!
//! Each datagram the wrapped transport delivers is offered to a
//! [`NetemChannel`] at its arrival time and then held until the channel's
//! delivery time, or dropped. Impairing only the receive side of each site
//! impairs each direction of the link exactly once.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use coplay_clock::{SimDuration, SimTime};
use coplay_net::{NetemChannel, NetemConfig, PeerId, Transport, TransportError};

use crate::probe::Probe;

/// The `wan_rollback` link: 40 ms ± 8 ms one-way delay, 2 % loss.
pub fn wan_link() -> NetemConfig {
    NetemConfig::new()
        .delay(SimDuration::from_millis(40))
        .jitter(SimDuration::from_millis(8))
        .loss(0.02)
}

/// A datagram waiting for its delivery time: `(due µs, arrival order, from, payload)`.
type Held = Reverse<(u64, u64, u8, Vec<u8>)>;

/// A [`Transport`] whose receive path passes through a [`NetemChannel`].
pub struct NetemShim<T> {
    inner: T,
    channel: NetemChannel,
    probe: Rc<Probe>,
    held: BinaryHeap<Held>,
    arrivals: u64,
}

impl<T: Transport> NetemShim<T> {
    /// Impairs what `inner` receives with `link`, drawing from `seed`.
    pub fn new(inner: T, link: NetemConfig, seed: u64, probe: &Rc<Probe>) -> NetemShim<T> {
        NetemShim {
            inner,
            channel: NetemChannel::new(link, seed),
            probe: Rc::clone(probe),
            held: BinaryHeap::new(),
            arrivals: 0,
        }
    }
}

impl<T: Transport> Transport for NetemShim<T> {
    fn local_id(&self) -> PeerId {
        self.inner.local_id()
    }

    fn send(&mut self, to: PeerId, payload: &[u8]) -> Result<(), TransportError> {
        self.inner.send(to, payload)
    }

    fn try_recv(&mut self) -> Result<Option<(PeerId, Vec<u8>)>, TransportError> {
        let now = SimTime::from_micros(self.probe.now_ns() / 1000);
        while let Some((from, payload)) = self.inner.try_recv()? {
            let fate = self.channel.process(now, payload.len());
            self.probe.shim_fate(fate.lost || fate.overflowed);
            for at in fate.deliveries {
                self.arrivals += 1;
                self.held.push(Reverse((
                    at.as_micros(),
                    self.arrivals,
                    from.0,
                    payload.clone(),
                )));
            }
        }
        match self.held.peek() {
            Some(Reverse((due, ..))) if *due <= now.as_micros() => Ok(self
                .held
                .pop()
                .map(|Reverse((_, _, from, payload))| (PeerId(from), payload))),
            _ => Ok(None),
        }
    }
}
