//! Logical simulation time.
//!
//! The asynchronous model has no real-time bounds; [`Time`] is only the
//! simulator's global event clock, used to order events and to express
//! *eventual* properties ("there is a time τ after which …").

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point on the simulator's logical clock (a tick count).
///
/// # Examples
///
/// ```
/// use fd_sim::Time;
/// let t = Time(10) + 5;
/// assert_eq!(t, Time(15));
/// assert!(Time::ZERO < t);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The start of the run.
    pub const ZERO: Time = Time(0);

    /// A time later than every event of any finite run. Adding ticks
    /// saturates here: a delay past the end of the `u64` clock arrives
    /// "never", not before it was sent.
    pub const INFINITY: Time = Time(u64::MAX);

    /// The raw tick count.
    pub fn ticks(self) -> u64 {
        self.0
    }
}

impl Add<u64> for Time {
    type Output = Time;
    fn add(self, d: u64) -> Time {
        Time(self.0.saturating_add(d))
    }
}

impl AddAssign<u64> for Time {
    fn add_assign(&mut self, d: u64) {
        *self = *self + d;
    }
}

impl Sub<Time> for Time {
    type Output = u64;
    fn sub(self, other: Time) -> u64 {
        self.0 - other.0
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Time::INFINITY {
            write!(f, "t=∞")
        } else {
            write!(f, "t={}", self.0)
        }
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        assert_eq!(Time(3) + 4, Time(7));
        let mut t = Time(1);
        t += 2;
        assert_eq!(t, Time(3));
        assert_eq!(Time(10) - Time(4), 6);
    }

    #[test]
    fn ordering_and_extremes() {
        assert!(Time::ZERO < Time(1));
        assert!(Time(1) < Time::INFINITY);
        assert_eq!(Time::INFINITY + 1, Time::INFINITY);
        assert_eq!(Time(1) + u64::MAX, Time::INFINITY);
        let mut t = Time(u64::MAX - 1);
        t += 5;
        assert_eq!(t, Time::INFINITY);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Time(5)), "t=5");
        assert_eq!(format!("{}", Time::INFINITY), "t=∞");
    }
}
