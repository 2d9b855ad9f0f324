//! Fixed-point time quantity.
//!
//! Schedules, feasibility checks and exact solvers all need exact arithmetic
//! and total ordering on time values, which rules out `f64`. [`Time`] is a
//! newtype over `u64` *ticks*; by convention one "unit" of the paper's
//! examples is [`Time::TICKS_PER_UNIT`] ticks, and trace generators use one
//! tick per microsecond. Only ratios of times are ever reported, so the
//! absolute resolution is irrelevant as long as it is consistent within an
//! instance.

use serde::Serialize;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in time or a duration, in integer ticks.
///
/// `Time` is used for both instants and durations; the scheduling model of
/// the paper never needs negative values, so saturating subtraction is used
/// (see [`Time::saturating_sub`]) where an underflow would otherwise be a
/// logic error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct Time(pub u64);

impl Time {
    /// The zero time.
    pub const ZERO: Time = Time(0);
    /// The largest representable time (used as "+infinity" by solvers).
    pub const MAX: Time = Time(u64::MAX);
    /// Number of ticks in one abstract "unit" (used by the paper's examples,
    /// which contain durations such as `0.5`).
    pub const TICKS_PER_UNIT: u64 = 1000;

    /// Creates a time from raw ticks.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        Time(ticks)
    }

    /// Creates a time from a (possibly fractional) number of abstract units,
    /// e.g. `Time::units(0.5)` for the half-unit tasks of Table 2.
    ///
    /// # Panics
    /// Panics if `units` is negative or not finite.
    #[inline]
    pub fn units(units: f64) -> Self {
        assert!(
            units.is_finite() && units >= 0.0,
            "Time::units requires a finite non-negative value, got {units}"
        );
        Time((units * Self::TICKS_PER_UNIT as f64).round() as u64)
    }

    /// Creates a time from an integer number of abstract units.
    #[inline]
    pub const fn units_int(units: u64) -> Self {
        Time(units * Self::TICKS_PER_UNIT)
    }

    /// Creates a time from a number of microseconds (trace-generator
    /// convention: 1 tick = 1 µs).
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Time(us)
    }

    /// Creates a time from seconds, rounding to the nearest microsecond.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "Time::from_secs_f64 requires a finite non-negative value, got {secs}"
        );
        Time((secs * 1e6).round() as u64)
    }

    /// Raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Value in abstract units as a float (for reporting only).
    #[inline]
    pub fn as_units(self) -> f64 {
        self.0 as f64 / Self::TICKS_PER_UNIT as f64
    }

    /// Value in seconds under the 1 tick = 1 µs convention.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` iff this is the zero time.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    #[inline]
    pub const fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub const fn checked_add(self, rhs: Time) -> Option<Time> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Time(v)),
            None => None,
        }
    }

    /// Maximum of two times.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Minimum of two times.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Ratio of two times as `f64`. Returns `f64::INFINITY` when dividing a
    /// positive time by zero and `1.0` for `0 / 0` (both conventions match
    /// how the paper classifies tasks: a task with zero communication time is
    /// infinitely compute-intensive, and a task with zero cost contributes
    /// ratio 1).
    #[inline]
    pub fn ratio(self, denom: Time) -> f64 {
        if denom.0 == 0 {
            if self.0 == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.0 as f64 / denom.0 as f64
        }
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    /// Exact subtraction. Panics (in debug builds) on underflow: a schedule
    /// where this underflows is already inconsistent.
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Time> for Time {
    fn sum<I: Iterator<Item = &'a Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |a, b| a + *b)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let units = self.as_units();
        if (units - units.round()).abs() < 1e-9 {
            write!(f, "{}", units.round() as i64)
        } else {
            write!(f, "{units:.3}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_round_trip() {
        assert_eq!(Time::units(3.0), Time::from_ticks(3000));
        assert_eq!(Time::units(0.5), Time::from_ticks(500));
        assert_eq!(Time::units_int(7), Time::from_ticks(7000));
        assert!((Time::units(2.25).as_units() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = Time::units_int(3);
        let b = Time::units_int(2);
        assert_eq!(a + b, Time::units_int(5));
        assert_eq!(a - b, Time::units_int(1));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a * 2, Time::units_int(6));
        assert_eq!(a / 3, Time::units_int(1));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_iterator() {
        let times = vec![Time::units_int(1), Time::units_int(2), Time::units_int(3)];
        let total: Time = times.iter().sum();
        assert_eq!(total, Time::units_int(6));
        let total2: Time = times.into_iter().sum();
        assert_eq!(total2, Time::units_int(6));
    }

    #[test]
    fn ratio_conventions() {
        assert_eq!(Time::units_int(6).ratio(Time::units_int(3)), 2.0);
        assert_eq!(Time::units_int(5).ratio(Time::ZERO), f64::INFINITY);
        assert_eq!(Time::ZERO.ratio(Time::ZERO), 1.0);
    }

    #[test]
    fn display_formats_units() {
        assert_eq!(Time::units_int(12).to_string(), "12");
        assert_eq!(Time::units(0.5).to_string(), "0.500");
    }

    #[test]
    fn seconds_conversion() {
        let t = Time::from_secs_f64(1.5);
        assert_eq!(t.ticks(), 1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn negative_units_panics() {
        let _ = Time::units(-1.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![Time::units_int(3), Time::ZERO, Time::units_int(1)];
        v.sort();
        assert_eq!(v, vec![Time::ZERO, Time::units_int(1), Time::units_int(3)]);
    }
}
