//! Simulation time as a nanosecond-precision newtype.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in simulation time, or a duration, in nanoseconds.
///
/// `Nanos` is used for both instants and durations; the wireless simulations
/// in this workspace never need to distinguish the two because every interval
/// restarts its local clock at zero. Arithmetic panics on overflow in debug
/// builds and saturates nowhere — an overflow is always a logic error in a
/// simulation measured in seconds.
///
/// # Example
///
/// ```
/// use rtmac_sim::Nanos;
///
/// let slot = Nanos::from_micros(9);
/// let interval = Nanos::from_millis(20);
/// assert_eq!(interval / slot, 2222);
/// assert_eq!(slot * 3, Nanos::from_nanos(27_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero instant / empty duration.
    pub const ZERO: Nanos = Nanos(0);

    /// The largest representable time. Useful as an "infinitely far" sentinel.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a time from raw nanoseconds.
    ///
    /// ```
    /// # use rtmac_sim::Nanos;
    /// assert_eq!(Nanos::from_nanos(1_000).as_nanos(), 1_000);
    /// ```
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a time from microseconds.
    ///
    /// ```
    /// # use rtmac_sim::Nanos;
    /// assert_eq!(Nanos::from_micros(9), Nanos::from_nanos(9_000));
    /// ```
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a time from microseconds, or `None` if the nanosecond
    /// count overflows `u64` — the form for untrusted input.
    ///
    /// ```
    /// # use rtmac_sim::Nanos;
    /// assert_eq!(Nanos::checked_from_micros(9), Some(Nanos::from_micros(9)));
    /// assert_eq!(Nanos::checked_from_micros(u64::MAX / 1_000 + 1), None);
    /// ```
    #[must_use]
    pub const fn checked_from_micros(us: u64) -> Option<Self> {
        match us.checked_mul(1_000) {
            Some(ns) => Some(Nanos(ns)),
            None => None,
        }
    }

    /// Creates a time from milliseconds.
    ///
    /// ```
    /// # use rtmac_sim::Nanos;
    /// assert_eq!(Nanos::from_millis(2), Nanos::from_micros(2_000));
    /// ```
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    ///
    /// ```
    /// # use rtmac_sim::Nanos;
    /// assert_eq!(Nanos::from_secs(1), Nanos::from_millis(1_000));
    /// ```
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Raw nanosecond count.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time in whole microseconds, truncating.
    ///
    /// ```
    /// # use rtmac_sim::Nanos;
    /// assert_eq!(Nanos::from_nanos(4_500).as_micros(), 4);
    /// ```
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// This time expressed in (possibly fractional) microseconds.
    ///
    /// ```
    /// # use rtmac_sim::Nanos;
    /// assert_eq!(Nanos::from_nanos(4_500).as_micros_f64(), 4.5);
    /// ```
    #[must_use]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time expressed in (possibly fractional) milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This time expressed in (possibly fractional) seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_add(rhs.0).map(Nanos)
    }

    /// Checked subtraction; `None` if `rhs > self`.
    ///
    /// ```
    /// # use rtmac_sim::Nanos;
    /// assert_eq!(Nanos::from_nanos(5).checked_sub(Nanos::from_nanos(9)), None);
    /// ```
    #[must_use]
    pub fn checked_sub(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_sub(rhs.0).map(Nanos)
    }

    /// Checked multiplication by a count; `None` on overflow.
    #[must_use]
    pub fn checked_mul(self, rhs: u64) -> Option<Nanos> {
        self.0.checked_mul(rhs).map(Nanos)
    }

    /// Subtraction clamped at zero.
    ///
    /// ```
    /// # use rtmac_sim::Nanos;
    /// assert_eq!(Nanos::from_nanos(5).saturating_sub(Nanos::from_nanos(9)), Nanos::ZERO);
    /// ```
    #[must_use]
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Addition clamped at `u64::MAX` nanoseconds — for long-lived
    /// accumulators (busy-time totals over an unbounded batch run) that
    /// must degrade to a pinned ceiling rather than wrap.
    ///
    /// ```
    /// # use rtmac_sim::Nanos;
    /// let top = Nanos::from_nanos(u64::MAX);
    /// assert_eq!(top.saturating_add(Nanos::from_nanos(1)), top);
    /// ```
    #[must_use]
    pub fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// Returns `true` if this is the zero time.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The smaller of two times.
    #[must_use]
    pub fn min(self, other: Nanos) -> Nanos {
        Nanos(self.0.min(other.0))
    }

    /// The larger of two times.
    #[must_use]
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;

    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;

    /// # Panics
    ///
    /// Panics if `rhs > self` (in debug builds; wraps in release like the
    /// underlying integer subtraction). Use [`Nanos::saturating_sub`] or
    /// [`Nanos::checked_sub`] when underflow is possible.
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;

    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Mul<Nanos> for u64 {
    type Output = Nanos;

    fn mul(self, rhs: Nanos) -> Nanos {
        Nanos(self * rhs.0)
    }
}

impl Div for Nanos {
    type Output = u64;

    /// How many whole `rhs` durations fit in `self`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: Nanos) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem for Nanos {
    type Output = Nanos;

    /// The remainder after dividing `self` into whole `rhs` durations.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn rem(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 % rhs.0)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0 {
            write!(f, "0ns")
        } else if self.0.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", self.0 / 1_000_000_000)
        } else if self.0.is_multiple_of(1_000_000) {
            write!(f, "{}ms", self.0 / 1_000_000)
        } else if self.0.is_multiple_of(1_000) {
            write!(f, "{}us", self.0 / 1_000)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_secs(1), Nanos::from_millis(1000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1000));
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1000));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = Nanos::from_micros(330);
        let b = Nanos::from_micros(9);
        assert_eq!((a + b) - b, a);
        assert_eq!(a * 2, Nanos::from_micros(660));
        assert_eq!(2 * a, a * 2);
    }

    #[test]
    fn division_counts_whole_slots() {
        let interval = Nanos::from_millis(20);
        let airtime = Nanos::from_micros(330);
        assert_eq!(interval / airtime, 60);
        assert_eq!(interval % airtime, Nanos::from_micros(200));
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(
            Nanos::from_nanos(3).saturating_sub(Nanos::from_nanos(7)),
            Nanos::ZERO
        );
        assert_eq!(
            Nanos::from_nanos(7).saturating_sub(Nanos::from_nanos(3)),
            Nanos::from_nanos(4)
        );
    }

    #[test]
    fn checked_ops() {
        assert_eq!(Nanos::MAX.checked_add(Nanos::from_nanos(1)), None);
        assert_eq!(
            Nanos::from_nanos(1).checked_add(Nanos::from_nanos(1)),
            Some(Nanos::from_nanos(2))
        );
        assert_eq!(Nanos::ZERO.checked_sub(Nanos::from_nanos(1)), None);
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(Nanos::ZERO.to_string(), "0ns");
        assert_eq!(Nanos::from_secs(2).to_string(), "2s");
        assert_eq!(Nanos::from_millis(20).to_string(), "20ms");
        assert_eq!(Nanos::from_micros(9).to_string(), "9us");
        assert_eq!(Nanos::from_nanos(17).to_string(), "17ns");
    }

    #[test]
    fn ordering_and_min_max() {
        let a = Nanos::from_micros(1);
        let b = Nanos::from_micros(2);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn float_conversions() {
        assert_eq!(Nanos::from_micros(330).as_millis_f64(), 0.33);
        assert_eq!(Nanos::from_millis(1500).as_secs_f64(), 1.5);
    }

    #[test]
    fn sum_of_durations() {
        let total: Nanos = (1..=4).map(Nanos::from_micros).sum();
        assert_eq!(total, Nanos::from_micros(10));
    }
}
