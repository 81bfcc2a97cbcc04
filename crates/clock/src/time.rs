//! Integer time types used throughout coplay.
//!
//! All protocol-visible time is expressed in whole microseconds so that the
//! discrete-event simulator, the wire protocol, and the real-time runner
//! agree bit-for-bit on every computed deadline. Floating point never enters
//! protocol state (see DESIGN.md §5).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use std::time::Duration;

/// An absolute instant on a monotonic timeline, in microseconds.
///
/// `SimTime` is produced by a [`Clock`](crate::Clock): virtual time under the
/// simulator, time since process start under [`SystemClock`](crate::SystemClock).
/// The zero point is arbitrary but fixed for the lifetime of a clock.
///
/// # Examples
///
/// ```
/// use coplay_clock::{SimTime, SimDuration};
///
/// let t = SimTime::from_millis(10) + SimDuration::from_micros(250);
/// assert_eq!(t.as_micros(), 10_250);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_micros(10_250));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// An unsigned span of time, in microseconds.
///
/// # Examples
///
/// ```
/// use coplay_clock::SimDuration;
///
/// let frame = SimDuration::from_micros(16_667);
/// assert_eq!(frame.as_millis(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// A signed span of time, in microseconds.
///
/// Used for quantities that are negative by design, most importantly the
/// paper's `AdjustTimeDelta` carry-over in Algorithm 3 (a frame that overran
/// carries a *negative* delta into the next frame).
///
/// # Examples
///
/// ```
/// use coplay_clock::SimDelta;
///
/// let d = SimDelta::from_micros(-1_500);
/// assert!(d.is_negative());
/// assert_eq!((-d).as_micros(), 1_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDelta(i64);

impl SimTime {
    /// The origin of the timeline.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after the origin.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after the origin.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after the origin.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since the origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the origin, truncated.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds since the origin (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`, or [`SimDuration::ZERO`] if
    /// `earlier` is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Signed difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the difference overflows an `i64`
    /// (≈292,000 years — unreachable in practice).
    pub fn delta_since(self, other: SimTime) -> SimDelta {
        SimDelta(self.0 as i64 - other.0 as i64)
    }

    /// Adds a signed delta, saturating at the origin.
    pub fn offset(self, delta: SimDelta) -> SimTime {
        if delta.0 >= 0 {
            SimTime(self.0.saturating_add(delta.0 as u64))
        } else {
            SimTime(self.0.saturating_sub(delta.0.unsigned_abs()))
        }
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// The span in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in whole milliseconds, truncated.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in fractional milliseconds (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The span in fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `self - other`, or zero if `other` is larger.
    pub const fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Converts to a [`std::time::Duration`] for use with the OS.
    pub const fn to_std(self) -> Duration {
        Duration::from_micros(self.0)
    }
}

impl SimDelta {
    /// The zero delta.
    pub const ZERO: SimDelta = SimDelta(0);

    /// Creates a signed delta of `micros` microseconds.
    pub const fn from_micros(micros: i64) -> Self {
        SimDelta(micros)
    }

    /// Creates a signed delta of `millis` milliseconds.
    pub const fn from_millis(millis: i64) -> Self {
        SimDelta(millis * 1_000)
    }

    /// The delta in whole microseconds.
    pub const fn as_micros(self) -> i64 {
        self.0
    }

    /// The delta in fractional milliseconds (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// `true` if the delta is strictly negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// The absolute value as an unsigned duration.
    pub const fn abs(self) -> SimDuration {
        SimDuration(self.0.unsigned_abs())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Add for SimDelta {
    type Output = SimDelta;
    fn add(self, rhs: SimDelta) -> SimDelta {
        SimDelta(self.0 + rhs.0)
    }
}

impl AddAssign for SimDelta {
    fn add_assign(&mut self, rhs: SimDelta) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDelta {
    type Output = SimDelta;
    fn sub(self, rhs: SimDelta) -> SimDelta {
        SimDelta(self.0 - rhs.0)
    }
}

impl Neg for SimDelta {
    type Output = SimDelta;
    fn neg(self) -> SimDelta {
        SimDelta(-self.0)
    }
}

impl Mul<i64> for SimDelta {
    type Output = SimDelta;
    fn mul(self, rhs: i64) -> SimDelta {
        SimDelta(self.0 * rhs)
    }
}

impl From<SimDuration> for SimDelta {
    fn from(d: SimDuration) -> SimDelta {
        SimDelta(d.0 as i64)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 / 1e3)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 / 1e3)
    }
}

impl fmt::Display for SimDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.3}ms", self.0 as f64 / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_millis(100);
        let d = SimDuration::from_micros(333);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(1));
    }

    #[test]
    fn delta_since_is_signed() {
        let a = SimTime::from_micros(500);
        let b = SimTime::from_micros(800);
        assert_eq!(a.delta_since(b), SimDelta::from_micros(-300));
        assert_eq!(b.delta_since(a), SimDelta::from_micros(300));
    }

    #[test]
    fn offset_applies_signed_delta_with_saturation() {
        let t = SimTime::from_micros(100);
        assert_eq!(t.offset(SimDelta::from_micros(-300)), SimTime::ZERO);
        assert_eq!(
            t.offset(SimDelta::from_micros(50)),
            SimTime::from_micros(150)
        );
    }

    #[test]
    fn std_duration_conversions() {
        assert_eq!(
            SimDuration::from_millis(16).to_std(),
            Duration::from_millis(16)
        );
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert_eq!(format!("{}", SimTime::from_micros(1_500)), "1.500ms");
        assert_eq!(format!("{}", SimDelta::from_micros(-250)), "-0.250ms");
        assert_eq!(format!("{}", SimDuration::ZERO), "0.000ms");
    }
}
