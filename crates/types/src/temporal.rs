//! Temporal scalar types: event/processing timestamps and durations.
//!
//! The paper's semantics are defined over two time domains (§3.2): *event
//! time* (when an event occurred, carried in the data) and *processing time*
//! (when the system observes it). Both are represented as [`Ts`], a
//! millisecond count since an arbitrary epoch. Keeping the representation
//! numeric and uninterpreted lets the deterministic runtime replay the
//! paper's `8:07`-style timelines exactly.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

use crate::digits;

/// Milliseconds per second/minute/hour, used by constructors and formatting.
pub const MILLIS_PER_SECOND: i64 = 1_000;
/// Milliseconds per minute.
pub const MILLIS_PER_MINUTE: i64 = 60 * MILLIS_PER_SECOND;
/// Milliseconds per hour.
pub const MILLIS_PER_HOUR: i64 = 60 * MILLIS_PER_MINUTE;

/// A point in time, in milliseconds since the epoch.
///
/// Used for both event time and processing time. Watermarks (in
/// `onesql-time`) are assertions about future values of `Ts` in a column.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Ts(pub i64);

impl Ts {
    /// The minimum representable timestamp (before all events).
    pub const MIN: Ts = Ts(i64::MIN);
    /// The maximum representable timestamp. A watermark of `Ts::MAX` means
    /// the input is complete (end of stream).
    pub const MAX: Ts = Ts(i64::MAX);

    /// Construct from raw milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Ts(ms)
    }

    /// Construct from whole minutes, convenient for the paper's `8:07`
    /// timeline (interpreted as hours:minutes from epoch).
    pub const fn from_minutes(minutes: i64) -> Self {
        Ts(minutes * MILLIS_PER_MINUTE)
    }

    /// Construct from an `H:MM` clock reading, e.g. `Ts::hm(8, 7)` for 8:07.
    pub const fn hm(hours: i64, minutes: i64) -> Self {
        Ts(hours * MILLIS_PER_HOUR + minutes * MILLIS_PER_MINUTE)
    }

    /// Raw milliseconds.
    pub const fn millis(self) -> i64 {
        self.0
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: Duration) -> Ts {
        Ts(self.0.saturating_add(d.0))
    }

    /// Saturating subtraction of a duration.
    pub fn saturating_sub(self, d: Duration) -> Ts {
        Ts(self.0.saturating_sub(d.0))
    }

    /// Render as `H:MM` when the value is a whole number of minutes (as in
    /// all of the paper's examples), otherwise as `H:MM:SS.mmm`.
    pub fn to_clock_string(self) -> String {
        self.to_string()
    }

    /// Write the [`Ts::to_clock_string`] form into `out`, encoded by
    /// [`digits::clock`]: no intermediate string and no format machinery.
    /// [`fmt::Display`] is this.
    pub fn write_clock<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        out.write_str(digits::clock(self).as_str())
    }
}

impl fmt::Display for Ts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_clock(f)
    }
}

impl Add<Duration> for Ts {
    type Output = Ts;
    fn add(self, rhs: Duration) -> Ts {
        Ts(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Ts {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Ts {
    type Output = Ts;
    fn sub(self, rhs: Duration) -> Ts {
        Ts(self.0 - rhs.0)
    }
}

impl Sub<Ts> for Ts {
    type Output = Duration;
    fn sub(self, rhs: Ts) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

/// A span of time in milliseconds; the runtime value of SQL `INTERVAL`
/// literals such as `INTERVAL '10' MINUTE`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(pub i64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Construct from milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Duration(ms)
    }

    /// Construct from seconds.
    pub const fn from_seconds(s: i64) -> Self {
        Duration(s * MILLIS_PER_SECOND)
    }

    /// Construct from minutes.
    pub const fn from_minutes(m: i64) -> Self {
        Duration(m * MILLIS_PER_MINUTE)
    }

    /// Construct from hours.
    pub const fn from_hours(h: i64) -> Self {
        Duration(h * MILLIS_PER_HOUR)
    }

    /// Raw milliseconds.
    pub const fn millis(self) -> i64 {
        self.0
    }

    /// True if this duration is strictly positive.
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Render compactly, e.g. `10m`, `1h30m`, `250ms`.
    pub fn to_compact_string(self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(digits::interval(*self).as_str())
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_construction_and_display() {
        let t = Ts::hm(8, 7);
        assert_eq!(t.millis(), 8 * MILLIS_PER_HOUR + 7 * MILLIS_PER_MINUTE);
        assert_eq!(t.to_clock_string(), "8:07");
        assert_eq!(Ts::hm(12, 0).to_clock_string(), "12:00");
    }

    #[test]
    fn sub_minute_display() {
        let t = Ts::from_millis(8 * MILLIS_PER_HOUR + 90_500);
        assert_eq!(t.to_clock_string(), "8:01:30.500");
    }

    #[test]
    fn negative_display() {
        assert_eq!(Ts::from_minutes(-61).to_clock_string(), "-1:01");
        assert_eq!(Ts(-61_001).to_string(), "-0:01:01.001");
        // One past the `-inf` sentinel: the widest value there is.
        assert_eq!(Ts(i64::MIN + 1).to_string(), "-2562047788015:12:55.807");
    }

    #[test]
    fn sentinel_display() {
        assert_eq!(Ts::MAX.to_clock_string(), "+inf");
        assert_eq!(Ts::MIN.to_clock_string(), "-inf");
    }

    #[test]
    fn arithmetic() {
        let t = Ts::hm(8, 0) + Duration::from_minutes(10);
        assert_eq!(t, Ts::hm(8, 10));
        assert_eq!(t - Duration::from_minutes(20), Ts::hm(7, 50));
        assert_eq!(Ts::hm(9, 0) - Ts::hm(8, 0), Duration::from_hours(1));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Ts::MAX.saturating_add(Duration::from_millis(1)), Ts::MAX);
        assert_eq!(Ts::MIN.saturating_sub(Duration::from_millis(1)), Ts::MIN);
    }

    #[test]
    fn duration_display() {
        assert_eq!(Duration::from_minutes(10).to_string(), "10m");
        assert_eq!(Duration::from_hours(2).to_string(), "2h");
        assert_eq!(Duration::from_seconds(90).to_string(), "90s");
        assert_eq!(Duration::from_millis(250).to_string(), "250ms");
        assert_eq!(Duration::from_minutes(90).to_string(), "90m");
    }

    #[test]
    fn duration_arithmetic() {
        assert_eq!(
            Duration::from_minutes(10) + Duration::from_minutes(5),
            Duration::from_minutes(15)
        );
        assert_eq!(
            Duration::from_minutes(10) - Duration::from_minutes(15),
            Duration::from_minutes(-5)
        );
        assert!(Duration::from_millis(1).is_positive());
        assert!(!Duration::ZERO.is_positive());
    }
}
