//! Timing wrappers around the generic parameters the public session
//! constructors take: the machine, the transport, the input source, and —
//! for `run_realtime` — the session driver itself.
//!
//! Every layer is measured from outside, at the boundary the session
//! already crosses, so the program under test is unchanged. In an untraced
//! run the wrappers only stamp sample time, step time and traffic; in a
//! traced run they also time every delegated call as a span.

use std::rc::Rc;

use coplay_clock::SimTime;
use coplay_net::{PeerId, Transport, TransportError};
use coplay_rollback::{InputPredictor, RollbackSession};
use coplay_sync::{
    FrameReport, InputSource, LockstepSession, SessionDriver, SessionStats, Step, SyncConfig,
    SyncError,
};
use coplay_vm::{
    DirtyPages, FrameBuffer, InputWord, InterpStats, Machine, MachineInfo, StateError, StepMode,
};

use crate::probe::{Layer, Probe};

/// A [`Machine`] that forwards every trait method, defaults included, to
/// the machine it wraps. A method left to its default here would silently
/// swap the wrapped machine's dirty-page path for the full-image fallback.
#[derive(Debug)]
pub struct TimedMachine<M> {
    inner: M,
    probe: Rc<Probe>,
}

impl<M: Machine> TimedMachine<M> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: M, probe: &Rc<Probe>) -> TimedMachine<M> {
        TimedMachine {
            inner,
            probe: Rc::clone(probe),
        }
    }

    fn step(&mut self, input: InputWord, mode: StepMode, step: impl FnOnce(&mut M)) {
        let frame = self.inner.frame();
        let layer = match mode {
            StepMode::Present => Layer::Step,
            StepMode::Headless => Layer::Headless,
        };
        let inner = &mut self.inner;
        self.probe.time(layer, frame, || step(inner));
        self.probe.executed(frame, input, mode);
    }

    fn capture<R>(&self, f: impl FnOnce(&M) -> R) -> R {
        self.probe
            .time(Layer::Checkpoint, self.inner.frame(), || f(&self.inner))
    }

    fn restore<R>(&mut self, f: impl FnOnce(&mut M) -> R) -> R {
        let frame = self.inner.frame();
        let inner = &mut self.inner;
        self.probe.time(Layer::Restore, frame, || f(inner))
    }
}

impl<M: Machine> Machine for TimedMachine<M> {
    fn info(&self) -> MachineInfo {
        self.inner.info()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn step_frame(&mut self, input: InputWord) {
        self.step(input, StepMode::Present, |m| m.step_frame(input));
    }

    fn step_frame_mode(&mut self, input: InputWord, mode: StepMode) {
        self.step(input, mode, |m| m.step_frame_mode(input, mode));
    }

    fn frame(&self) -> u64 {
        self.inner.frame()
    }

    fn framebuffer(&self) -> &FrameBuffer {
        self.inner.framebuffer()
    }

    fn audio_samples(&self) -> &[i16] {
        self.inner.audio_samples()
    }

    fn state_hash(&self) -> u64 {
        self.probe
            .time(Layer::Hash, self.inner.frame(), || self.inner.state_hash())
    }

    fn save_state(&self) -> Vec<u8> {
        self.capture(|m| m.save_state())
    }

    fn save_state_into(&self, out: &mut Vec<u8>) {
        self.capture(|m| m.save_state_into(out));
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        self.restore(|m| m.load_state(bytes))
    }

    fn save_state_dirty_into(&mut self, out: &mut Vec<u8>, dirty: &mut DirtyPages) {
        let frame = self.inner.frame();
        let inner = &mut self.inner;
        self.probe.time(Layer::Checkpoint, frame, || {
            inner.save_state_dirty_into(out, dirty);
        });
    }

    fn collect_dirty_into(&mut self, out: &mut DirtyPages) {
        let frame = self.inner.frame();
        let inner = &mut self.inner;
        self.probe
            .time(Layer::Checkpoint, frame, || inner.collect_dirty_into(out));
    }

    fn take_dirty_pages(&mut self) -> DirtyPages {
        let frame = self.inner.frame();
        let inner = &mut self.inner;
        self.probe
            .time(Layer::Checkpoint, frame, || inner.take_dirty_pages())
    }

    fn save_state_ranges_into(&self, out: &mut Vec<u8>, dirty: &DirtyPages) {
        self.capture(|m| m.save_state_ranges_into(out, dirty));
    }

    fn load_state_dirty(&mut self, bytes: &[u8], dirty: &DirtyPages) -> Result<(), StateError> {
        self.restore(|m| m.load_state_dirty(bytes, dirty))
    }

    fn interp_stats(&self) -> Option<InterpStats> {
        self.inner.interp_stats()
    }
}

/// Where in a site's transport stack a [`TimedTransport`] sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// Directly on the socket and directly under the session.
    Direct,
    /// On the socket, beneath a relay adapter or the shim.
    Socket,
    /// Under the session, above the benchmark's impairment shim.
    Shim,
    /// Under the session, above a `RelaySocket`.
    Relay,
}

impl Hop {
    /// Traffic is counted at the socket: that is what crosses the wire.
    fn wire(self) -> bool {
        matches!(self, Hop::Direct | Hop::Socket)
    }

    /// Delivery is stamped where the session sends and receives.
    fn edge(self) -> bool {
        !matches!(self, Hop::Socket)
    }

    fn layers(self) -> (Layer, Layer) {
        match self {
            Hop::Direct | Hop::Socket => (Layer::NetSend, Layer::NetRecv),
            Hop::Shim => (Layer::ShimSend, Layer::ShimRecv),
            Hop::Relay => (Layer::RelaySend, Layer::RelayRecv),
        }
    }
}

/// A [`Transport`] that times and counts the transport it wraps.
pub struct TimedTransport<T> {
    inner: T,
    probe: Rc<Probe>,
    hop: Hop,
    registered: Option<fn(&T) -> bool>,
}

impl<T: Transport> TimedTransport<T> {
    /// Wraps `inner` at position `hop`.
    pub fn new(inner: T, probe: &Rc<Probe>, hop: Hop) -> TimedTransport<T> {
        TimedTransport {
            inner,
            probe: Rc::clone(probe),
            hop,
            registered: None,
        }
    }

    /// Stamps the relay registration the first time `registered` holds
    /// after a receive poll.
    pub fn with_registration(mut self, registered: fn(&T) -> bool) -> TimedTransport<T> {
        self.registered = Some(registered);
        self
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn local_id(&self) -> PeerId {
        self.inner.local_id()
    }

    fn send(&mut self, to: PeerId, payload: &[u8]) -> Result<(), TransportError> {
        let inner = &mut self.inner;
        let result = self
            .probe
            .time(self.hop.layers().0, self.probe.frame(), || {
                inner.send(to, payload)
            });
        if result.is_ok() {
            self.probe.sent(payload, self.hop.wire(), self.hop.edge());
        }
        result
    }

    fn try_recv(&mut self) -> Result<Option<(PeerId, Vec<u8>)>, TransportError> {
        let inner = &mut self.inner;
        let result = self
            .probe
            .time(self.hop.layers().1, self.probe.frame(), || inner.try_recv());
        if let Ok(got) = &result {
            let payload = got.as_ref().map(|(_, p)| p.as_slice());
            self.probe
                .received(payload, self.hop.wire(), self.hop.edge());
        }
        if let Some(registered) = self.registered {
            if !self.probe.is_registered() && registered(&self.inner) {
                self.probe.registered();
            }
        }
        result
    }
}

/// An [`InputSource`] that stamps when each sample returns and what it was.
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    probe: Rc<Probe>,
}

impl<S: InputSource> TimedSource<S> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: S, probe: &Rc<Probe>) -> TimedSource<S> {
        TimedSource {
            inner,
            probe: Rc::clone(probe),
        }
    }
}

impl<S: InputSource> InputSource for TimedSource<S> {
    fn sample(&mut self, frame: u64) -> InputWord {
        let inner = &mut self.inner;
        let word = self
            .probe
            .time(Layer::Source, frame, || inner.sample(frame));
        self.probe.sampled(frame, word);
        word
    }
}

/// A session whose per-frame state hashes can be checked against the other
/// sites'.
pub trait Replica: SessionDriver {
    /// Appends `(frame, state hash)` for every frame that no rollback can
    /// revisit any more. `done` is the frame the last tick executed, if any.
    fn confirm(&mut self, done: Option<&FrameReport>, out: &mut Vec<(u64, u64)>);

    /// Bytes held by the checkpoint ring (0 for sessions without one).
    fn ring_bytes(&self) -> usize {
        0
    }
}

impl<M: Machine, T: Transport, S: InputSource> Replica for LockstepSession<M, T, S> {
    fn confirm(&mut self, done: Option<&FrameReport>, out: &mut Vec<(u64, u64)>) {
        // A lockstep frame executes only on authoritative input.
        if let Some(&FrameReport {
            frame,
            state_hash: Some(hash),
            ..
        }) = done
        {
            out.push((frame, hash));
        }
    }
}

impl<M: Machine, T: Transport, S: InputSource, P: InputPredictor> Replica
    for RollbackSession<M, T, S, P>
{
    fn confirm(&mut self, _done: Option<&FrameReport>, out: &mut Vec<(u64, u64)>) {
        out.extend(self.take_confirmed());
    }

    fn ring_bytes(&self) -> usize {
        self.checkpoint_bytes()
    }
}

/// A [`SessionDriver`] that times the driver it wraps, passed to
/// `run_realtime` in its place. Between calls it collects the state hashes
/// the session confirmed.
pub struct TimedDriver<D> {
    inner: D,
    probe: Rc<Probe>,
    hashes: Vec<(u64, u64)>,
}

impl<D: Replica> TimedDriver<D> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: D, probe: &Rc<Probe>) -> Self {
        TimedDriver {
            inner,
            probe: Rc::clone(probe),
            hashes: Vec::new(),
        }
    }

    /// The wrapped session.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Collects what the session confirmed since the last call and returns
    /// every confirmed `(frame, state hash)` so far.
    pub fn into_hashes(mut self) -> Vec<(u64, u64)> {
        self.inner.confirm(None, &mut self.hashes);
        self.hashes
    }
}

impl<D: Replica> SessionDriver for TimedDriver<D> {
    type Machine = D::Machine;

    fn tick(&mut self, now: SimTime) -> Result<Step, SyncError> {
        self.probe.tick(self.inner.frame(), now.as_micros());
        let inner = &mut self.inner;
        let step = self
            .probe
            .time(Layer::Tick, self.probe.frame(), || inner.tick(now))?;
        let done = match &step {
            Step::FrameDone { report, .. } => Some(report),
            _ => None,
        };
        self.inner.confirm(done, &mut self.hashes);
        Ok(step)
    }

    fn pump(&mut self, now: SimTime) -> Result<(), SyncError> {
        self.probe.tick(self.inner.frame(), now.as_micros());
        let inner = &mut self.inner;
        self.probe
            .time(Layer::Pump, self.probe.frame(), || inner.pump(now))?;
        self.inner.confirm(None, &mut self.hashes);
        Ok(())
    }

    fn machine(&self) -> &Self::Machine {
        self.inner.machine()
    }

    fn config(&self) -> &SyncConfig {
        self.inner.config()
    }

    fn stats(&self) -> SessionStats {
        self.inner.stats()
    }

    fn frame(&self) -> u64 {
        self.inner.frame()
    }
}
