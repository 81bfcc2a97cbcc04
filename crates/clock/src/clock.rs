//! Clock abstractions: virtual time for simulation, monotonic OS time for
//! live sessions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::time::SimTime;

/// A source of monotonic timestamps.
///
/// The synchronization core (Algorithms 1–4 of the paper) is written against
/// this trait so that the identical protocol code can be driven by the
/// deterministic discrete-event simulator ([`VirtualClock`]) and by the
/// real-time runner ([`SystemClock`]).
///
/// Implementations must be monotonic: successive calls to [`Clock::now`]
/// never go backwards.
///
/// # Examples
///
/// ```
/// use coplay_clock::{Clock, SimDuration, VirtualClock};
///
/// let clock = VirtualClock::new();
/// let t0 = clock.now();
/// clock.advance(SimDuration::from_millis(5));
/// assert_eq!(clock.now() - t0, SimDuration::from_millis(5));
/// ```
pub trait Clock {
    /// The current instant.
    fn now(&self) -> SimTime;
}

/// A manually advanced clock shared by every component of a simulation.
///
/// Cloning a `VirtualClock` yields a handle to the *same* timeline; the
/// discrete-event executor advances it as events fire and every actor reads
/// the shared value. All reads within one event see the same instant, which
/// is what makes simulations reproducible.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    micros: Arc<AtomicU64>,
}

impl VirtualClock {
    /// Creates a clock positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the clock forward by `dt`.
    pub fn advance(&self, dt: crate::time::SimDuration) {
        self.micros.fetch_add(dt.as_micros(), Ordering::SeqCst);
    }

    /// Jumps the clock to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time: virtual time, like
    /// real time, never flows backwards.
    pub fn set(&self, t: SimTime) {
        let prev = self.micros.swap(t.as_micros(), Ordering::SeqCst);
        assert!(
            prev <= t.as_micros(),
            "virtual clock moved backwards: {prev} -> {}",
            t.as_micros()
        );
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.micros.load(Ordering::SeqCst))
    }
}

/// A monotonic wall clock anchored at its creation instant.
///
/// Timestamps are microseconds elapsed since the `SystemClock` was created,
/// measured with [`std::time::Instant`].
#[derive(Debug, Clone)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// Creates a clock whose origin is "now".
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned wall-clock read: everything downstream sees only SimTime offsets from this origin"
    )]
    pub fn new() -> Self {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    #[expect(
        clippy::disallowed_methods,
        reason = "the wall clock, read as an offset from the origin `new` took"
    )]
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.origin.elapsed().as_micros() as u64)
    }
}

impl<C: Clock + ?Sized> Clock for &C {
    fn now(&self) -> SimTime {
        (**self).now()
    }
}

impl<C: Clock + ?Sized> Clock for Arc<C> {
    fn now(&self) -> SimTime {
        (**self).now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn virtual_clock_handles_share_a_timeline() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance(SimDuration::from_millis(7));
        assert_eq!(b.now(), SimTime::from_millis(7));
    }

    #[test]
    fn virtual_clock_set_forward() {
        let c = VirtualClock::new();
        c.set(SimTime::from_millis(3));
        assert_eq!(c.now(), SimTime::from_millis(3));
        // Setting to the same instant is allowed.
        c.set(SimTime::from_millis(3));
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn virtual_clock_rejects_backwards_set() {
        let c = VirtualClock::new();
        c.set(SimTime::from_millis(3));
        c.set(SimTime::from_millis(2));
    }

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn clock_trait_objects_and_refs_work() {
        fn take<C: Clock>(c: C) -> SimTime {
            c.now()
        }
        let v = VirtualClock::new();
        v.advance(SimDuration::from_micros(42));
        assert_eq!(take(&v), SimTime::from_micros(42));
        let arc: Arc<dyn Clock> = Arc::new(v);
        assert_eq!(take(arc), SimTime::from_micros(42));
    }
}
