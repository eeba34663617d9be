//! The [`Unit`] value: a validated float in `[0, 1]`.
//!
//! `Unit` is the shared carrier of the [`Fuzzy`](crate::Fuzzy) and
//! [`Probabilistic`](crate::Probabilistic) semirings: a preference level
//! for the former, a probability for the latter.

use core::cmp::Ordering;
use core::fmt;

/// An error returned when constructing a [`Unit`] from a float outside
/// `[0, 1]` or NaN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitRangeError(());

impl fmt::Display for UnitRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unit value must lie in [0, 1]")
    }
}

impl std::error::Error for UnitRangeError {}

/// A float guaranteed to lie in `[0, 1]`.
///
/// Because NaN is rejected at construction, `Unit` implements [`Ord`]
/// and exact equality is meaningful for the lattice operations `min`
/// and `max` (which always return one of their operands).
///
/// # Examples
///
/// ```
/// use softsoa_semiring::Unit;
///
/// let half = Unit::new(0.5)?;
/// assert!(half > Unit::MIN && half < Unit::MAX);
/// assert_eq!(half.get(), 0.5);
/// assert!(Unit::new(1.5).is_err());
/// # Ok::<(), softsoa_semiring::UnitRangeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unit(f64);

impl Unit {
    /// The minimum level `0`.
    pub const MIN: Unit = Unit(0.0);

    /// The maximum level `1`.
    pub const MAX: Unit = Unit(1.0);

    /// Creates a unit value.
    ///
    /// # Errors
    ///
    /// Returns [`UnitRangeError`] if `value` is NaN or outside `[0, 1]`.
    pub fn new(value: f64) -> Result<Unit, UnitRangeError> {
        if value.is_nan() || !(0.0..=1.0).contains(&value) {
            Err(UnitRangeError(()))
        } else {
            Ok(Unit(value))
        }
    }

    /// Creates a unit value, clamping out-of-range floats (NaN maps to 0).
    pub fn clamped(value: f64) -> Unit {
        if value.is_nan() {
            Unit::MIN
        } else {
            Unit(value.clamp(0.0, 1.0))
        }
    }

    /// Returns the underlying float.
    pub fn get(self) -> f64 {
        self.0
    }

    /// Multiplies two unit values (stays in `[0, 1]`).
    ///
    /// An inherent method rather than `std::ops::Mul` so call sites
    /// stay explicit that this is semiring ×, not float arithmetic.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Unit) -> Unit {
        Unit(self.0 * rhs.0)
    }

    /// Divides, saturating at `1` (used by probabilistic residuation).
    pub fn div_saturating(self, rhs: Unit) -> Unit {
        if rhs.0 == 0.0 || self.0 >= rhs.0 {
            Unit::MAX
        } else {
            Unit(self.0 / rhs.0)
        }
    }
}

impl Eq for Unit {}

impl PartialOrd for Unit {
    fn partial_cmp(&self, other: &Unit) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Unit {
    fn cmp(&self, other: &Unit) -> Ordering {
        // Values are never NaN by construction.
        self.0.partial_cmp(&other.0).expect("Unit is never NaN")
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl TryFrom<f64> for Unit {
    type Error = UnitRangeError;

    fn try_from(value: f64) -> Result<Unit, UnitRangeError> {
        Unit::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_bounds() {
        assert!(Unit::new(0.0).is_ok());
        assert!(Unit::new(1.0).is_ok());
        assert!(Unit::new(-0.01).is_err());
        assert!(Unit::new(1.01).is_err());
        assert!(Unit::new(f64::NAN).is_err());
    }

    #[test]
    fn clamping() {
        assert_eq!(Unit::clamped(-2.0), Unit::MIN);
        assert_eq!(Unit::clamped(3.0), Unit::MAX);
        assert_eq!(Unit::clamped(f64::NAN), Unit::MIN);
        assert_eq!(Unit::clamped(0.25).get(), 0.25);
    }

    #[test]
    fn ordering_is_numeric() {
        let a = Unit::new(0.2).unwrap();
        let b = Unit::new(0.7).unwrap();
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn div_saturating_cases() {
        let a = Unit::new(0.2).unwrap();
        let b = Unit::new(0.8).unwrap();
        assert_eq!(a.div_saturating(b).get(), 0.25);
        assert_eq!(b.div_saturating(a), Unit::MAX);
        assert_eq!(b.div_saturating(Unit::MIN), Unit::MAX);
    }
}
