//! Simulation time and duration newtypes.
//!
//! The whole workspace runs on an integer millisecond clock. Milliseconds
//! are fine-grained enough to model the paper's sub-second power spikes
//! (0.2–4 s wide) and the 100–300 ms power-capping actuation latency, while
//! keeping arithmetic exact — no floating-point clock drift across the
//! month-long Google-trace simulations.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in simulated time, measured in milliseconds since simulation
/// start.
///
/// `SimTime` is ordered, hashable and cheap to copy. Subtracting two times
/// yields a [`SimDuration`]; adding a duration yields a later time.
///
/// # Example
///
/// ```
/// use simkit::time::{SimTime, SimDuration};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_secs(90);
/// assert_eq!(t1.as_millis(), 90_000);
/// assert_eq!(t1 - t0, SimDuration::from_secs(90));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SimTime(u64);

/// A span of simulated time, measured in milliseconds.
///
/// # Example
///
/// ```
/// use simkit::time::SimDuration;
///
/// let five_min = SimDuration::from_mins(5);
/// assert_eq!(five_min.as_secs_f64(), 300.0);
/// assert_eq!(five_min * 2, SimDuration::from_mins(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time; useful as an "never" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates a time from whole seconds since simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000)
    }

    /// Creates a time from whole minutes since simulation start.
    pub const fn from_mins(mins: u64) -> Self {
        SimTime(mins * 60_000)
    }

    /// Creates a time from whole hours since simulation start.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * 3_600_000)
    }

    /// Milliseconds since simulation start.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (lossy for display/maths).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Rounds this time down to a multiple of `step`.
    ///
    /// Used by meters that aggregate power over fixed windows.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    pub fn align_down(self, step: SimDuration) -> SimTime {
        assert!(step.0 > 0, "alignment step must be non-zero");
        SimTime(self.0 - self.0 % step.0)
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// One millisecond.
    pub const MILLISECOND: SimDuration = SimDuration(1);

    /// One second.
    pub const SECOND: SimDuration = SimDuration(1_000);

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// millisecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be a finite non-negative number of seconds, got {secs}"
        );
        SimDuration((secs * 1_000.0).round() as u64)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000)
    }

    /// Whole milliseconds in this duration.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Hours as a float.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// `true` if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    /// Duration between two times.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when ordering is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(rhs <= self, "time subtraction would underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs <= self, "duration subtraction would underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;

    /// How many whole `rhs` intervals fit in `self`.
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;

    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        let (h, rem) = (ms / 3_600_000, ms % 3_600_000);
        let (m, rem) = (rem / 60_000, rem % 60_000);
        let (s, ms) = (rem / 1_000, rem % 1_000);
        write!(f, "{h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(60_000) && self.0 > 0 {
            write!(f, "{}min", self.0 / 60_000)
        } else if self.0.is_multiple_of(1_000) {
            write!(f, "{}s", self.0 / 1_000)
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_mins(1), SimTime::from_secs(60));
        assert_eq!(SimTime::from_hours(1), SimTime::from_mins(60));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
    }

    #[test]
    fn time_plus_duration_round_trips() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(4));
    }

    #[test]
    fn align_down_snaps_to_window_start() {
        let t = SimTime::from_millis(12_345);
        assert_eq!(
            t.align_down(SimDuration::from_secs(5)),
            SimTime::from_millis(10_000)
        );
        assert_eq!(t.align_down(SimDuration::MILLISECOND), t);
    }

    #[test]
    #[should_panic(expected = "alignment step")]
    fn align_down_rejects_zero_step() {
        SimTime::from_secs(1).align_down(SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_rounds_to_millis() {
        assert_eq!(
            SimDuration::from_secs_f64(0.2),
            SimDuration::from_millis(200)
        );
        assert_eq!(
            SimDuration::from_secs_f64(0.0004),
            SimDuration::from_millis(0)
        );
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1_500)
        );
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn from_secs_f64_rejects_negative() {
        SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn duration_division_counts_intervals() {
        let window = SimDuration::from_mins(15);
        let spike_period = SimDuration::from_secs(30);
        assert_eq!(window / spike_period, 30);
        assert_eq!(window % spike_period, SimDuration::ZERO);
    }

    #[test]
    fn display_formats_are_human_readable() {
        assert_eq!(SimTime::from_millis(3_661_004).to_string(), "01:01:01.004");
        assert_eq!(SimDuration::from_mins(5).to_string(), "5min");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "250ms");
    }

    #[test]
    fn saturation_at_extremes() {
        assert_eq!(SimTime::MAX + SimDuration::SECOND, SimTime::MAX);
        assert_eq!(
            SimTime::ZERO - SimDuration::SECOND,
            SimTime::ZERO,
            "time subtraction saturates at zero"
        );
    }
}
