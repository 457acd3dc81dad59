//! Virtual time with picosecond resolution.
//!
//! Picoseconds are needed because the physical layer (UWB ranging, crate
//! `autosec-phy`) reasons about sub-nanosecond time-of-flight manipulation:
//! 1 m of distance corresponds to ~3.336 ns of one-way flight time, and the
//! attacks of Fig. 2 shift arrival estimates by fractions of that.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant on the simulation clock, in picoseconds since the
/// start of the simulation.
///
/// `SimTime` is a transparent newtype ([C-NEWTYPE]) so that wall-clock and
/// simulated time can never be confused.
///
/// # Example
///
/// ```
/// use autosec_sim::{SimTime, SimDuration};
/// let t = SimTime::from_ms(1) + SimDuration::from_us(5);
/// assert_eq!(t.as_ps(), 1_005_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

macro_rules! time_ctors {
    ($ty:ident) => {
        impl $ty {
            /// Zero point.
            pub const ZERO: Self = Self(0);

            /// Constructs from raw picoseconds.
            pub const fn from_ps(ps: u64) -> Self {
                Self(ps)
            }

            /// Constructs from nanoseconds.
            pub const fn from_ns(ns: u64) -> Self {
                Self(ns * 1_000)
            }

            /// Constructs from microseconds.
            pub const fn from_us(us: u64) -> Self {
                Self(us * 1_000_000)
            }

            /// Constructs from milliseconds.
            pub const fn from_ms(ms: u64) -> Self {
                Self(ms * 1_000_000_000)
            }

            /// Constructs from seconds.
            pub const fn from_secs(s: u64) -> Self {
                Self(s * 1_000_000_000_000)
            }

            /// Raw picosecond count.
            pub const fn as_ps(self) -> u64 {
                self.0
            }

            /// Value in nanoseconds (fractional).
            pub fn as_ns_f64(self) -> f64 {
                self.0 as f64 / 1e3
            }

            /// Value in microseconds (fractional).
            pub fn as_us_f64(self) -> f64 {
                self.0 as f64 / 1e6
            }

            /// Value in milliseconds (fractional).
            pub fn as_ms_f64(self) -> f64 {
                self.0 as f64 / 1e9
            }

            /// Value in seconds (fractional).
            pub fn as_secs_f64(self) -> f64 {
                self.0 as f64 / 1e12
            }
        }
    };
}

time_ctors!(SimTime);
time_ctors!(SimDuration);

impl SimDuration {
    /// Builds a duration from a fractional nanosecond count, rounding to the
    /// nearest picosecond. Negative inputs clamp to zero.
    pub fn from_ns_f64(ns: f64) -> Self {
        if ns <= 0.0 {
            return Self::ZERO;
        }
        Self((ns * 1e3).round() as u64)
    }
}

impl SimTime {
    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating version of [`SimTime::since`]: returns zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
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

fn fmt_ps(ps: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ps == 0 {
        write!(f, "0s")
    } else if ps.is_multiple_of(1_000_000_000_000) {
        write!(f, "{}s", ps / 1_000_000_000_000)
    } else if ps.is_multiple_of(1_000_000_000) {
        write!(f, "{}ms", ps / 1_000_000_000)
    } else if ps.is_multiple_of(1_000_000) {
        write!(f, "{}us", ps / 1_000_000)
    } else if ps.is_multiple_of(1_000) {
        write!(f, "{}ns", ps / 1_000)
    } else {
        write!(f, "{ps}ps")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimTime::from_secs(1).as_ps(), 1_000_000_000_000);
    }

    #[test]
    fn arithmetic_round_trips() {
        let t = SimTime::from_us(10);
        let d = SimDuration::from_ns(500);
        assert_eq!((t + d).since(t), d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn since_is_exact() {
        let a = SimTime::from_ps(100);
        let b = SimTime::from_ps(350);
        assert_eq!(b.since(a).as_ps(), 250);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_when_reversed() {
        let a = SimTime::from_ps(100);
        let b = SimTime::from_ps(350);
        let _ = a.since(b);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_ps(100);
        let b = SimTime::from_ps(350);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_coarsest_unit() {
        assert_eq!(SimTime::from_secs(2).to_string(), "2s");
        assert_eq!(SimTime::from_ms(5).to_string(), "5ms");
        assert_eq!(SimTime::from_ns(7).to_string(), "7ns");
        assert_eq!(SimTime::from_ps(3).to_string(), "3ps");
        assert_eq!(SimTime::ZERO.to_string(), "0s");
    }

    #[test]
    fn from_ns_f64_rounds() {
        assert_eq!(SimDuration::from_ns_f64(1.5).as_ps(), 1_500);
        assert_eq!(SimDuration::from_ns_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_ns_f64(0.0004).as_ps(), 0);
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_us(4);
        assert_eq!(d * 2, SimDuration::from_us(8));
        assert_eq!(d / 2, SimDuration::from_us(2));
    }
}
