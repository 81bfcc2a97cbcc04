//! The one virtual-time event loop every simulation runs on: whenever
//! datagrams land it ticks every site, and otherwise each site at the wake
//! instant its last step asked for.

use std::cell::RefCell;
use std::rc::Rc;

use coplay_clock::{Clock, EventId, EventQueue, SimDuration, SimTime, TimeServer, VirtualClock};
use coplay_net::{PeerId, SimNetwork, SimSocket, Transport};
use coplay_sync::{
    Consistency, FrameReport, InputSource, Message, Session, SessionStats, Step, SyncConfig,
    SyncError,
};
use coplay_vm::Machine;

use crate::experiment::SimError;

/// A session the [`Testbed`] can drive: any machine, input source and
/// consistency policy, on a [`SimSocket`].
pub trait Site {
    /// See [`Session::tick`].
    fn tick(&mut self, now: SimTime) -> Result<Step, SyncError>;
    /// See [`Session::drain_confirmed`].
    fn drain_confirmed(&mut self, executed: Option<&FrameReport>, out: &mut Vec<(u64, u64)>);
    /// See [`Session::config`].
    fn config(&self) -> &SyncConfig;
    /// See [`Session::stats`].
    fn stats(&self) -> SessionStats;
}

impl<M: Machine, S: InputSource, C: Consistency> Site for Session<M, SimSocket, S, C> {
    fn tick(&mut self, now: SimTime) -> Result<Step, SyncError> {
        Session::tick(self, now)
    }
    fn drain_confirmed(&mut self, executed: Option<&FrameReport>, out: &mut Vec<(u64, u64)>) {
        Session::drain_confirmed(self, executed, out);
    }
    fn config(&self) -> &SyncConfig {
        Session::config(self)
    }
    fn stats(&self) -> SessionStats {
        Session::stats(self)
    }
}

struct Slot {
    session: Box<dyn Site>,
    /// When the site starts running; it ignores ticks before this.
    boot: SimTime,
    pending_wake: Option<EventId>,
    confirmed: Vec<(u64, u64)>,
    stopped: bool,
}

/// The paper's §4 testbed: a [`VirtualClock`], a shared [`SimNetwork`], a
/// wake queue and the measurement time server, driving sessions of either
/// policy and recording each site's confirmed `(frame, state hash)` pairs.
///
/// Configure links on [`Testbed::net`], [`add`](Testbed::add) sessions
/// built on its sockets, then run them with [`Testbed::run_until`] or
/// [`Testbed::run_frames`]. The time server records the frame begins a
/// session stamps to [`PeerId::TIME_SERVER`].
pub struct Testbed {
    clock: VirtualClock,
    net: Rc<RefCell<SimNetwork>>,
    wakes: EventQueue<usize>,
    sites: Vec<Slot>,
    server_sock: SimSocket,
    time_server: TimeServer,
}

impl Default for Testbed {
    /// An empty network at virtual time zero.
    fn default() -> Testbed {
        let clock = VirtualClock::new();
        let net = SimNetwork::shared(clock.clone());
        let server_sock = SimNetwork::socket(&net, PeerId::TIME_SERVER);
        Testbed {
            clock,
            net,
            wakes: EventQueue::new(),
            sites: Vec::new(),
            server_sock,
            time_server: TimeServer::new(),
        }
    }
}

impl Testbed {
    /// The shared network: configure links and open sockets on it.
    pub fn net(&self) -> &Rc<RefCell<SimNetwork>> {
        &self.net
    }

    /// The current virtual time.
    pub(crate) fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Adds the next site, which boots at `boot`.
    pub fn add(&mut self, session: impl Site + 'static, boot: SimTime) {
        let wake = self.wakes.schedule(boot, self.sites.len());
        self.sites.push(Slot {
            session: Box::new(session),
            boot,
            pending_wake: Some(wake),
            confirmed: Vec::new(),
            stopped: false,
        });
    }

    /// Site `idx`'s session.
    pub fn site(&self, idx: usize) -> &dyn Site {
        self.sites[idx].session.as_ref()
    }

    /// Every site's session, in the order they were added.
    pub(crate) fn sites(&self) -> impl Iterator<Item = &dyn Site> {
        self.sites.iter().map(|s| s.session.as_ref())
    }

    /// Frames site `idx` has executed, speculative ones included.
    pub fn frames(&self, idx: usize) -> u64 {
        self.sites[idx].session.stats().frames
    }

    /// Site `idx`'s confirmed `(frame, state hash)` pairs, in frame order.
    pub fn confirmed(&self, idx: usize) -> &[(u64, u64)] {
        &self.sites[idx].confirmed
    }

    /// The frame-begin stamps the sites sent to the time server.
    pub(crate) fn time_server(&self) -> &TimeServer {
        &self.time_server
    }

    /// Runs every event due up to `until`, then sets the clock to it.
    /// Fails with [`SimError::Session`] if a session fails.
    pub fn run_until(&mut self, until: SimTime) -> Result<(), SimError> {
        while let Some(t) = self.next_event().filter(|&t| t <= until) {
            self.step(t, u64::MAX)?;
        }
        self.clock.set(until.max(self.now()));
        Ok(())
    }

    /// Runs until every site has executed `frames` frames or stopped; a
    /// site that reaches twice that is no longer ticked. Fails with
    /// [`SimError::Session`] if a session fails, [`SimError::Deadlock`] if
    /// no event is left, and [`SimError::TimeBudgetExceeded`] past 30
    /// times the nominal duration plus two minutes of virtual time.
    pub fn run_frames(&mut self, frames: u64) -> Result<(), SimError> {
        let cfps = self.sites.iter().map(|s| s.session.config().cfps).min();
        let tpf_us = 1_000_000 / u64::from(cfps.unwrap_or(1).max(1));
        let budget = SimDuration::from_micros(frames * tpf_us * 30 + 120_000_000);
        let done = |s: &Slot| s.stopped || s.session.stats().frames >= frames;
        while !self.sites.iter().all(done) {
            let at = self.now();
            let t = self.next_event().ok_or(SimError::Deadlock { at })?;
            if t.saturating_since(SimTime::ZERO) > budget {
                return Err(SimError::TimeBudgetExceeded { budget });
            }
            self.step(t, frames.saturating_mul(2))?;
        }
        Ok(())
    }

    fn next_event(&mut self) -> Option<SimTime> {
        let next_net = self.net.borrow_mut().next_delivery_time();
        next_net.into_iter().chain(self.wakes.peek_time()).min()
    }

    /// Advances the clock to `t`, delivers what is due and ticks the sites
    /// that have run fewer than `frame_cap` frames.
    fn step(&mut self, t: SimTime, frame_cap: u64) -> Result<(), SimError> {
        self.clock.set(t.max(self.now()));
        let now = self.now();
        if self.net.borrow_mut().deliver_due(now) > 0 {
            while let Some((_, data)) = self.server_sock.try_recv().expect("sim socket") {
                if let Ok(Message::TimeStamp { site, frame }) = Message::decode(&data) {
                    self.time_server.record(site, frame, now);
                }
            }
            // Datagrams may unblock any site: tick them all.
            for idx in 0..self.sites.len() {
                self.tick(idx, now, frame_cap)?;
            }
        }
        while self.wakes.peek_time().is_some_and(|at| at <= now) {
            let (_, idx) = self.wakes.pop().expect("peeked");
            self.sites[idx].pending_wake = None;
            self.tick(idx, now, frame_cap)?;
        }
        Ok(())
    }

    fn tick(&mut self, idx: usize, now: SimTime, frame_cap: u64) -> Result<(), SimError> {
        let s = &mut self.sites[idx];
        // A site does not exist before it boots: a datagram delivery must
        // not tick it (or cancel its boot wake).
        if now < s.boot || s.stopped || s.session.stats().frames >= frame_cap {
            return Ok(());
        }
        // Cancel any stale pending wake; this tick re-derives it.
        if let Some(id) = s.pending_wake.take() {
            self.wakes.cancel(id);
        }
        let (wake, executed) = match s.session.tick(now) {
            Ok(Step::Wait(t)) => (Some(t), None),
            Ok(Step::FrameDone { report, next_wake }) => (Some(next_wake), Some(report)),
            Ok(Step::Stopped(_)) => (None, None),
            Err(error) => {
                let site = s.session.config().my_site;
                return Err(SimError::Session { site, error });
            }
        };
        s.stopped = wake.is_none();
        s.pending_wake = wake.map(|t| self.wakes.schedule(t.max(now), idx));
        let out = &mut s.confirmed;
        s.session.drain_confirmed(executed.as_ref(), out);
        Ok(())
    }
}
