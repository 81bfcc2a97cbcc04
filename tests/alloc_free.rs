//! The per-frame paths run without touching the heap, measured by a
//! counting global allocator rather than read off the source.
//!
//! Each window runs after a warm-up, so buffers that grow once to their
//! working size have grown, and counts only the allocations the measuring
//! thread makes. The counting allocator serves the whole test binary, so
//! the file holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use coplay::clock::{SimDuration, SimTime};
use coplay::games::rom_pong_console;
use coplay::net::{loopback, LoopbackTransport, PeerId, Transport, TransportError};
use coplay::relay::{RelayConfig, RelayCore, RelayMessage, DEST_BROADCAST};
use coplay::sync::{
    Consistency, ConsistencyMode, LockstepSession, RandomPresser, RollbackSession, Session,
    SnapshotRing, SyncConfig,
};
use coplay::vm::{Console, InputWord, Machine, Player, StepMode};

thread_local! {
    /// Allocations made by this thread. A `const` initializer with no
    /// destructor: reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn note_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so the caller's guarantees are the ones `System` needs.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for these arguments.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for these arguments.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc`'s contract for these arguments.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A varying joypad word for `frame`.
fn input_for(frame: u64) -> InputWord {
    InputWord((frame.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32)
}

#[test]
fn frame_paths_do_not_allocate() {
    // The console's frame: a presented step, the state hash every lockstep
    // frame takes, and the headless step rollback repair runs.
    let mut console = rom_pong_console();
    let frames = |m: &mut Console, range: std::ops::Range<u64>| {
        for f in range {
            m.step_frame(input_for(f));
            std::hint::black_box(m.state_hash());
            m.step_frame_mode(input_for(f), StepMode::Headless);
        }
    };
    frames(&mut console, 0..100);
    let n = allocations_in(|| frames(&mut console, 100..1_100));
    assert_eq!(n, 0, "console step + hash + headless step, 1 000 frames");

    assert_eq!(relay_fan_out_allocations(), 0, "relay, 1 000 forwards");

    let (quiet_ticks, n) = quiet_tick_allocations(LockstepSession::new, ConsistencyMode::Lockstep);
    assert!(quiet_ticks > 10_000, "only {quiet_ticks} quiet ticks");
    assert_eq!(
        n, 0,
        "lockstep pair, {quiet_ticks} ticks without a datagram"
    );

    // A rollback pair keeps its hashes and predictions in fixed windows,
    // so an undrained session stops allocating once its checkpoint slots
    // have grown, as the ring's own window below does.
    let (quiet_ticks, n) =
        quiet_tick_allocations(RollbackSession::new, ConsistencyMode::rollback());
    assert!(quiet_ticks > 10_000, "only {quiet_ticks} quiet ticks");
    assert!(
        n <= 50,
        "{n} allocations in {quiet_ticks} rollback ticks without a datagram"
    );

    // Checkpoint capture reuses the ring's slots once each has grown to
    // the largest patch it holds; growth tails off, it does not recur per
    // frame (one allocation per frame would read 1 000 here).
    let n = checkpoint_ring_allocations();
    assert!(
        n <= 50,
        "{n} allocations in 1 000 checkpoint + restore frames"
    );
}

/// Forwards 1 000 broadcasts through a relay session of two players and a
/// spectator, after a warm-up of 100.
fn relay_fan_out_allocations() -> u64 {
    let mut core: RelayCore<PeerId> = RelayCore::new(RelayConfig::default());
    let mut now = SimTime::ZERO;
    for (site, spectator) in [(0, false), (1, false), (2, true)] {
        let register = RelayMessage::Register {
            session: 1,
            site,
            spectator,
        };
        core.handle(PeerId(site), &register.encode(), now);
    }
    let forward = RelayMessage::Forward {
        dest: DEST_BROADCAST,
        payload: &[7; 40],
    }
    .encode();
    let mut forwards = |core: &mut RelayCore<PeerId>, count: usize| {
        for _ in 0..count {
            now += SimDuration::from_millis(1);
            let fanned = core.handle(PeerId(0), &forward, now).len();
            assert_eq!(fanned, 2, "the other player and the spectator");
        }
    };
    forwards(&mut core, 100);
    allocations_in(|| forwards(&mut core, 1_000))
}

/// A loopback link that counts the datagrams its owner sends and receives.
struct CountingLink {
    inner: LoopbackTransport,
    datagrams: Rc<Cell<u64>>,
}

impl Transport for CountingLink {
    fn local_id(&self) -> PeerId {
        self.inner.local_id()
    }

    fn send(&mut self, to: PeerId, payload: &[u8]) -> Result<(), TransportError> {
        self.datagrams.set(self.datagrams.get() + 1);
        self.inner.send(to, payload)
    }

    fn try_recv(&mut self) -> Result<Option<(PeerId, Vec<u8>)>, TransportError> {
        let got = self.inner.try_recv()?;
        if got.is_some() {
            self.datagrams.set(self.datagrams.get() + 1);
        }
        Ok(got)
    }
}

type Site<C> = Session<Console, CountingLink, RandomPresser, C>;

/// Ticks a ROM Pong pair under policy `mode` every millisecond of virtual
/// time for 1 700 frames after a 100-frame warm-up, draining nothing.
/// Returns how many ticks sent and received no datagram, and the
/// allocations those ticks made. Receiving hands out an owned datagram,
/// so only quiet ticks are counted.
fn quiet_tick_allocations<C: Consistency>(
    new: fn(SyncConfig, Console, CountingLink, RandomPresser) -> Site<C>,
    mode: ConsistencyMode,
) -> (u64, u64) {
    let datagrams = Rc::new(Cell::new(0));
    let (a, b) = loopback(PeerId(0), PeerId(1));
    let mut sites = [(0, Player::ONE, a), (1, Player::TWO, b)].map(|(site, player, link)| {
        let link = CountingLink {
            inner: link,
            datagrams: Rc::clone(&datagrams),
        };
        let input = RandomPresser::new(player, u64::from(site) + 1);
        let cfg = SyncConfig {
            consistency: mode,
            ..SyncConfig::two_player(site)
        };
        new(cfg, rom_pong_console(), link, input)
    });
    let mut now = SimTime::ZERO;
    let (mut quiet_ticks, mut quiet_allocations) = (0, 0);
    let mut run_to = |sites: &mut [Site<C>; 2], frame: u64, count: bool| {
        while sites.iter().any(|s| s.frame() < frame) {
            now += SimDuration::from_millis(1);
            for site in sites.iter_mut() {
                let before = datagrams.get();
                let n = allocations_in(|| {
                    site.tick(now).expect("tick");
                });
                if count && datagrams.get() == before {
                    quiet_ticks += 1;
                    quiet_allocations += n;
                }
            }
        }
    };
    run_to(&mut sites, 100, false);
    run_to(&mut sites, 1_800, true);
    (quiet_ticks, quiet_allocations)
}

/// Steps ROM Pong with a checkpoint every frame into an 8-slot ring and
/// restores the oldest retained one, for 1 000 frames after a warm-up of
/// 100.
fn checkpoint_ring_allocations() -> u64 {
    let mut m = rom_pong_console();
    let mut ring = SnapshotRing::new(8);
    let mut restored = Vec::new();
    let mut frames = |m: &mut Console, range: std::ops::Range<u64>| {
        for f in range {
            m.step_frame(input_for(f));
            let hash = m.state_hash();
            ring.checkpoint_from(f, hash, m);
            let oldest = ring.oldest_frame().expect("a checkpoint was just taken");
            ring.restore_into(oldest, &mut restored)
                .expect("the oldest checkpoint restores");
        }
    };
    frames(&mut m, 0..100);
    allocations_in(|| frames(&mut m, 100..1_100))
}
