//! Simulated time.
//!
//! All durations in the simulator are carried as [`SimTime`], a thin wrapper
//! around `f64` seconds. Using a newtype (instead of a bare `f64`) keeps
//! bandwidth (`bytes / SimTime`) and latency arithmetic honest across crate
//! boundaries and gives us uniform pretty-printing for the experiment
//! harnesses (`1.35us`, `6.0s`, ...).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time (or an instant on a device clock), in seconds.
///
/// `SimTime` is totally ordered and supports the arithmetic a cost model
/// needs. Negative values are representable (differences) but the
/// constructors used by cost models only produce non-negative spans.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The zero instant / empty span.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        SimTime(s)
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        SimTime(ms * 1e-3)
    }

    /// Construct from microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        SimTime(us * 1e-6)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub fn from_nanos(ns: f64) -> Self {
        SimTime(ns * 1e-9)
    }

    /// The span as fractional seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The span as fractional milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The span as fractional microseconds.
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// The span as fractional nanoseconds.
    #[inline]
    pub fn as_nanos(self) -> f64 {
        self.0 * 1e9
    }

    /// Element-wise maximum — used when parallel branches join (a barrier
    /// completes when the slowest participant does).
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// True if the span is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: f64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: f64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Div<SimTime> for SimTime {
    type Output = f64;
    /// Ratio of two spans (e.g. speedup computations).
    #[inline]
    fn div(self, rhs: SimTime) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        SimTime(iter.map(|t| t.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl fmt::Display for SimTime {
    /// Human-readable with an auto-selected unit: `1.350us`, `23.40ms`, `6.00s`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0.abs();
        if s == 0.0 {
            write!(f, "0s")
        } else if s < 1e-6 {
            write!(f, "{:.2}ns", self.0 * 1e9)
        } else if s < 1e-3 {
            write!(f, "{:.3}us", self.0 * 1e6)
        } else if s < 1.0 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3}s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_roundtrips() {
        let t = SimTime::from_micros(1.35);
        assert!((t.as_nanos() - 1350.0).abs() < 1e-9);
        assert!((t.as_secs() - 1.35e-6).abs() < 1e-18);
        assert!((SimTime::from_millis(2.0).as_secs() - 0.002).abs() < 1e-15);
        assert!((SimTime::from_nanos(500.0).as_micros() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(0.25);
        assert_eq!((a + b).as_secs(), 1.25);
        assert_eq!((a - b).as_secs(), 0.75);
        assert_eq!((a * 4.0).as_secs(), 4.0);
        assert_eq!((a / 4.0).as_secs(), 0.25);
        assert_eq!(a / b, 4.0);
        let mut c = a;
        c += b;
        assert_eq!(c.as_secs(), 1.25);
        c -= b;
        assert_eq!(c.as_secs(), 1.0);
    }

    #[test]
    fn max_min_and_sum() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let total: SimTime = [a, b, a].into_iter().sum();
        assert_eq!(total.as_secs(), 4.0);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimTime::ZERO), "0s");
        assert_eq!(format!("{}", SimTime::from_nanos(12.0)), "12.00ns");
        assert_eq!(format!("{}", SimTime::from_micros(1.35)), "1.350us");
        assert_eq!(format!("{}", SimTime::from_millis(23.4)), "23.400ms");
        assert_eq!(format!("{}", SimTime::from_secs(6.0)), "6.000s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_micros(1.0) < SimTime::from_millis(1.0));
        assert!(SimTime::from_secs(1.0) > SimTime::from_millis(999.0));
    }
}
