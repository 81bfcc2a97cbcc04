//! Proves the disabled (no-op) telemetry sink is allocation-free.
//!
//! This file holds exactly one test so no sibling test thread can allocate
//! concurrently and pollute the counter.

use coplay_clock::{SimDuration, SimTime};
use coplay_telemetry::{EventKind, Telemetry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_sink_adds_no_events_and_never_allocates() {
    let tel = Telemetry::disabled();

    let hammer = |tel: &Telemetry| {
        for frame in 0..100_000u64 {
            let now = SimTime::from_micros(frame * 16_667);
            tel.record(now, EventKind::FrameBegun { frame });
            tel.record(
                now,
                EventKind::FrameExecuted {
                    frame,
                    frame_time: SimDuration::from_micros(16_667),
                },
            );
            tel.counter_add("peers_joined_total", 1);
            tel.observe("frame_time_us", 16_667);
            tel.gauge_set("srtt_us", 42);
        }
    };

    // Warm up any lazy one-time initialization, then measure several times
    // and take the cleanest run: a real per-call allocation would show up
    // ~500 000 times in *every* run, while unrelated runtime threads can
    // add a stray allocation to any single run.
    hammer(&tel);
    let mut best = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        hammer(&tel);
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        best = best.min(after - before);
    }

    assert_eq!(best, 0, "no-op sink must not allocate on the hot path");
    assert_eq!(tel.event_count(), 0, "no-op sink must not record events");
    assert_eq!(tel.counter("peers_joined_total"), 0);
}
