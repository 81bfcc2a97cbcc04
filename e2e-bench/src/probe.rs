//! Per-site measurement state shared by the timing wrappers.
//!
//! Every wrapper of one site holds an `Rc<Probe>`. All of them run on the
//! site's own thread, so the state sits in a `RefCell` that is borrowed only
//! between calls into the wrapped layer, never across one: a tick that steps
//! the machine re-enters the probe from the machine wrapper.

use std::cell::RefCell;
use std::time::Instant;

use coplay_vm::{fnv1a, InputWord, StepMode};

/// Spans kept per site for the trace dump. Aggregates keep counting after
/// the buffer is full; only the raw span records are dropped.
pub const SPAN_CAPACITY: usize = 1 << 16;

/// Marks a per-frame stamp that was never written.
pub const MISSING: u64 = u64::MAX;

/// A layer boundary at which the wrappers record spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `SessionDriver::tick`.
    Tick,
    /// `SessionDriver::pump`.
    Pump,
    /// A presented `Machine::step_frame`/`step_frame_mode` call.
    Step,
    /// A headless `step_frame_mode` call (rollback repair).
    Headless,
    /// `Machine::state_hash`.
    Hash,
    /// State capture: `save_state*`, `collect_dirty_into`, `take_dirty_pages`.
    Checkpoint,
    /// State restore: `load_state`, `load_state_dirty`.
    Restore,
    /// `InputSource::sample`.
    Source,
    /// A UDP socket send.
    NetSend,
    /// A UDP socket receive poll.
    NetRecv,
    /// A `RelaySocket` send (envelope plus the socket send beneath it).
    RelaySend,
    /// A `RelaySocket` receive poll.
    RelayRecv,
    /// A send through the benchmark's impairment shim.
    ShimSend,
    /// A receive poll through the benchmark's impairment shim.
    ShimRecv,
}

impl Layer {
    /// The span name written to trace dumps.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Tick => "sync.tick",
            Layer::Pump => "sync.pump",
            Layer::Step => "vm.step",
            Layer::Headless => "vm.step_headless",
            Layer::Hash => "vm.hash",
            Layer::Checkpoint => "rollback.checkpoint",
            Layer::Restore => "rollback.restore",
            Layer::Source => "source.sample",
            Layer::NetSend => "net.send",
            Layer::NetRecv => "net.recv",
            Layer::RelaySend => "relay.send",
            Layer::RelayRecv => "relay.recv",
            Layer::ShimSend => "shim.send",
            Layer::ShimRecv => "shim.recv",
        }
    }
}

/// One timed call into a layer. `parent` indexes the enclosing span in the
/// same site's buffer (`u32::MAX` at the root or when it was not kept).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// The frame the call served.
    pub frame: u64,
    /// Start, nanoseconds since the run epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: u32,
}

/// Call count and time of one layer over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Calls made.
    pub calls: u64,
    /// Time inside the calls.
    pub total_ns: u64,
    /// Time inside the calls minus the time their child spans cover.
    pub self_ns: u64,
}

/// A span that has started and not yet ended.
#[derive(Debug)]
struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    index: u32,
}

/// Datagram and byte counts at one hop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Traffic {
    /// Datagrams sent.
    pub sent: u64,
    /// Bytes sent.
    pub sent_bytes: u64,
    /// Receive polls that found nothing.
    pub empty_polls: u64,
}

/// Everything one site's wrappers recorded.
#[derive(Debug, Default)]
pub struct SiteLog {
    /// When `sample(t)` returned, per frame `t`.
    pub sampled_ns: Vec<u64>,
    /// The word `sample(t)` returned, per frame `t`.
    pub sampled: Vec<InputWord>,
    /// When the last execution of frame `f` finished, per frame `f`.
    pub executed_ns: Vec<u64>,
    /// The input of the last execution of frame `f`.
    pub executed_input: Vec<InputWord>,
    /// When the first step of the run finished (frame 0's first execution).
    pub first_step_ns: Option<u64>,
    /// Headless steps.
    pub headless_steps: u64,
    /// Traffic on the socket.
    pub wire: Traffic,
    /// Datagrams offered to the impairment shim, and how many it dropped.
    pub shim_offered: u64,
    /// Datagrams the impairment shim dropped.
    pub shim_lost: u64,
    /// When the relay acknowledged this site's registration.
    pub registered_ns: Option<u64>,
    /// Smallest `tick entry − now` seen: converts the runner's per-site
    /// clock (microseconds) to the run epoch (nanoseconds).
    pub clock_offset_ns: Option<i64>,
    /// Per-layer totals (traced runs only), indexed by `Layer as usize`.
    pub layers: [LayerTotals; 14],
    /// Raw spans (traced runs only), at most [`SPAN_CAPACITY`].
    pub spans: Vec<Span>,
    /// Spans not kept because the buffer was full.
    pub dropped_spans: u64,
    /// Socket send call durations (traced runs only).
    pub send_ns: Vec<u64>,
    /// Socket receive call durations (traced runs only).
    pub recv_ns: Vec<u64>,
    /// `(payload hash, time)` of each datagram the session sent.
    pub sent_payloads: Vec<(u64, u64)>,
    /// `(payload hash, time)` of each datagram the session received.
    pub received_payloads: Vec<(u64, u64)>,
    open: Vec<Open>,
    frame: u64,
}

impl SiteLog {
    /// Per-layer totals of `layer`.
    pub fn layer(&self, layer: Layer) -> LayerTotals {
        self.layers[layer as usize]
    }
}

/// Shared measurement state of one site. See the module docs.
#[derive(Debug)]
pub struct Probe {
    epoch: Instant,
    traced: bool,
    log: RefCell<SiteLog>,
}

fn put<T: Copy>(v: &mut Vec<T>, index: u64, value: T, fill: T) {
    let i = index as usize;
    if v.len() <= i {
        v.resize(i + 1, fill);
    }
    v[i] = value;
}

impl Probe {
    /// A probe stamping against `epoch`. With `traced`, every wrapped call
    /// is also timed as a span.
    pub fn new(epoch: Instant, traced: bool, frames: u64) -> Probe {
        let frames = frames.min(1 << 20) as usize;
        let mut log = SiteLog {
            sampled_ns: Vec::with_capacity(frames),
            sampled: Vec::with_capacity(frames),
            executed_ns: Vec::with_capacity(frames),
            executed_input: Vec::with_capacity(frames),
            ..SiteLog::default()
        };
        if traced {
            log.spans.reserve_exact(SPAN_CAPACITY);
        }
        Probe {
            epoch,
            traced,
            log: RefCell::new(log),
        }
    }

    /// Nanoseconds since the run epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a span of `layer` serving `frame` (timed only in traced
    /// runs).
    pub fn time<R>(&self, layer: Layer, frame: u64, f: impl FnOnce() -> R) -> R {
        if !self.traced {
            return f();
        }
        {
            let mut log = self.log.borrow_mut();
            let parent = log.open.last().map_or(u32::MAX, |o| o.index);
            let index = if log.spans.len() < SPAN_CAPACITY {
                log.spans.push(Span {
                    layer,
                    frame,
                    start_ns: 0,
                    end_ns: 0,
                    parent,
                });
                (log.spans.len() - 1) as u32
            } else {
                log.dropped_spans += 1;
                u32::MAX
            };
            let start_ns = self.now_ns();
            if let Some(span) = log.spans.get_mut(index as usize) {
                span.start_ns = start_ns;
            }
            log.open.push(Open {
                layer,
                start_ns,
                child_ns: 0,
                index,
            });
        }
        let out = f();
        let end_ns = self.now_ns();
        let mut log = self.log.borrow_mut();
        if let Some(open) = log.open.pop() {
            let dur = end_ns.saturating_sub(open.start_ns);
            let totals = &mut log.layers[open.layer as usize];
            totals.calls += 1;
            totals.total_ns += dur;
            totals.self_ns += dur.saturating_sub(open.child_ns);
            if let Some(parent) = log.open.last_mut() {
                parent.child_ns += dur;
            }
            if let Some(span) = log.spans.get_mut(open.index as usize) {
                span.end_ns = end_ns;
            }
            match open.layer {
                Layer::NetSend => log.send_ns.push(dur),
                Layer::NetRecv => log.recv_ns.push(dur),
                _ => {}
            }
        }
        out
    }

    /// The session frame most recently seen by the driver wrapper.
    pub fn frame(&self) -> u64 {
        self.log.borrow().frame
    }

    /// Notes a tick or pump: the session frame, and the runner's clock
    /// against the run epoch.
    pub fn tick(&self, frame: u64, now_us: u64) {
        let entry = self.now_ns() as i64;
        let mut log = self.log.borrow_mut();
        log.frame = frame;
        let offset = entry - (now_us as i64) * 1000;
        log.clock_offset_ns = Some(log.clock_offset_ns.map_or(offset, |o| o.min(offset)));
    }

    /// Notes that `sample(frame)` returned `word`.
    pub fn sampled(&self, frame: u64, word: InputWord) {
        let now = self.now_ns();
        let mut log = self.log.borrow_mut();
        put(&mut log.sampled_ns, frame, now, MISSING);
        put(&mut log.sampled, frame, word, InputWord::NONE);
    }

    /// Notes that frame `frame` finished executing under `input`.
    pub fn executed(&self, frame: u64, input: InputWord, mode: StepMode) {
        let now = self.now_ns();
        let mut log = self.log.borrow_mut();
        if mode == StepMode::Headless {
            log.headless_steps += 1;
        }
        log.first_step_ns.get_or_insert(now);
        put(&mut log.executed_ns, frame, now, MISSING);
        put(&mut log.executed_input, frame, input, InputWord::NONE);
    }

    /// Notes a datagram sent at the socket (`wire`) and/or by the session
    /// (`edge`).
    pub fn sent(&self, payload: &[u8], wire: bool, edge: bool) {
        let at = if edge && self.traced {
            self.now_ns()
        } else {
            0
        };
        let mut log = self.log.borrow_mut();
        if wire {
            log.wire.sent += 1;
            log.wire.sent_bytes += payload.len() as u64;
        }
        if edge && self.traced {
            log.sent_payloads.push((fnv1a(payload), at));
        }
    }

    /// Notes one receive poll and what it returned.
    pub fn received(&self, payload: Option<&[u8]>, wire: bool, edge: bool) {
        let at = if edge && self.traced {
            self.now_ns()
        } else {
            0
        };
        let mut log = self.log.borrow_mut();
        if wire && payload.is_none() {
            log.wire.empty_polls += 1;
        }
        if let (true, true, Some(p)) = (edge, self.traced, payload) {
            log.received_payloads.push((fnv1a(p), at));
        }
    }

    /// Notes one datagram offered to the impairment shim.
    pub fn shim_fate(&self, lost: bool) {
        let mut log = self.log.borrow_mut();
        log.shim_offered += 1;
        log.shim_lost += lost as u64;
    }

    /// Notes that the relay registration is complete (first call wins).
    pub fn registered(&self) {
        let now = self.now_ns();
        let mut log = self.log.borrow_mut();
        log.registered_ns.get_or_insert(now);
    }

    /// `true` once the relay registration was noted.
    pub fn is_registered(&self) -> bool {
        self.log.borrow().registered_ns.is_some()
    }

    /// Moves the recorded log out.
    pub fn take_log(&self) -> SiteLog {
        std::mem::take(&mut *self.log.borrow_mut())
    }
}

/// On-CPU nanoseconds of the calling thread, from the first field of
/// `/proc/thread-self/schedstat` (0 where the file is unavailable).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of the process in KiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::disallowed_methods)] // the benchmark's clock is the wall clock
    fn self_times_of_nested_spans_telescope_to_the_root() {
        let p = Probe::new(Instant::now(), true, 0);
        let work = || std::hint::black_box((0..2_000u64).sum::<u64>());
        p.time(Layer::Tick, 7, || {
            p.time(Layer::Step, 7, work);
            p.time(Layer::NetSend, 7, || p.time(Layer::Hash, 7, work));
            work()
        });
        let log = p.take_log();
        let layers = [Layer::Tick, Layer::Step, Layer::NetSend, Layer::Hash];
        let self_sum: u64 = layers.iter().map(|&l| log.layer(l).self_ns).sum();
        assert_eq!(self_sum, log.layer(Layer::Tick).total_ns);
        let parents: Vec<u32> = log.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [u32::MAX, 0, 0, 2]);
        assert_eq!(log.send_ns.len(), 1);
    }
}
