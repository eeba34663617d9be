//! The weighted semiring `⟨ℝ⁺ ∪ {∞}, min, +, ∞, 0⟩` and its exact
//! integer variant.
//!
//! Weighted semirings model *additive* dependability metrics: monetary
//! cost, downtime hours, number of failures to absorb. Combining two
//! levels sums their costs; comparing prefers the *smaller* cost, so the
//! semiring top (`1`) is the cost `0` and the bottom (`0`) is `∞`.

use core::cmp::Ordering;
use core::fmt;
use core::ops::Add;

use crate::{Residuated, Semiring};

/// An error returned when constructing a [`Weight`] from an invalid float.
///
/// Weights must be non-negative and not NaN (positive infinity is
/// allowed: it is the semiring bottom).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidWeightError(());

impl fmt::Display for InvalidWeightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "weight must be a non-negative, non-NaN float")
    }
}

impl std::error::Error for InvalidWeightError {}

/// A cost in `ℝ⁺ ∪ {∞}`: the carrier of the [`Weighted`] semiring.
///
/// `Weight` is a validated `f64`: construction rejects NaN and negative
/// values, so `Weight` implements [`Ord`] and can be compared exactly.
///
/// # Examples
///
/// ```
/// use softsoa_semiring::Weight;
///
/// let three = Weight::new(3.0)?;
/// let five = Weight::new(5.0)?;
/// assert!(three < five);
/// assert_eq!((three + five).get(), 8.0);
/// assert!(Weight::INFINITY > five);
/// # Ok::<(), softsoa_semiring::InvalidWeightError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weight(f64);

impl Weight {
    /// The zero cost — the *top* (best) element of the weighted semiring.
    pub const ZERO: Weight = Weight(0.0);

    /// The infinite cost — the *bottom* (worst) element of the weighted
    /// semiring.
    pub const INFINITY: Weight = Weight(f64::INFINITY);

    /// Creates a weight from a float.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidWeightError`] if `value` is NaN or negative.
    pub fn new(value: f64) -> Result<Weight, InvalidWeightError> {
        if value.is_nan() || value < 0.0 {
            Err(InvalidWeightError(()))
        } else {
            Ok(Weight(value))
        }
    }

    /// Creates a weight, clamping negative values to `0` and NaN to `∞`.
    pub fn saturating(value: f64) -> Weight {
        if value.is_nan() {
            Weight::INFINITY
        } else if value < 0.0 {
            Weight::ZERO
        } else {
            Weight(value)
        }
    }

    /// Returns the underlying float.
    pub fn get(self) -> f64 {
        self.0
    }

    /// Whether this weight is the infinite (bottom) cost.
    pub fn is_infinite(self) -> bool {
        self.0.is_infinite()
    }

    /// Saturating subtraction: `max(self - rhs, 0)`, with `∞ - x = ∞`.
    ///
    /// This is the closed form of weighted-semiring residuation.
    pub fn saturating_sub(self, rhs: Weight) -> Weight {
        if rhs.is_infinite() {
            // Anything divided by the bottom is the top.
            Weight::ZERO
        } else if self.is_infinite() {
            Weight::INFINITY
        } else {
            Weight((self.0 - rhs.0).max(0.0))
        }
    }
}

impl Eq for Weight {}

impl PartialOrd for Weight {
    fn partial_cmp(&self, other: &Weight) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Weight {
    fn cmp(&self, other: &Weight) -> Ordering {
        // Values are never NaN by construction.
        self.0.partial_cmp(&other.0).expect("Weight is never NaN")
    }
}

impl Add for Weight {
    type Output = Weight;

    fn add(self, rhs: Weight) -> Weight {
        Weight(self.0 + rhs.0)
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            write!(f, "∞")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl From<u32> for Weight {
    fn from(value: u32) -> Weight {
        Weight(f64::from(value))
    }
}

impl TryFrom<f64> for Weight {
    type Error = InvalidWeightError;

    fn try_from(value: f64) -> Result<Weight, InvalidWeightError> {
        Weight::new(value)
    }
}

/// The weighted semiring `⟨ℝ⁺ ∪ {∞}, min, +, ∞, 0⟩` over [`Weight`].
///
/// `+` (semiring sum) is `min` — the *cheaper* level wins — and `×`
/// (combination) is arithmetic addition. Used throughout the paper's
/// SLA-negotiation examples (Sec. 4.1), where the cost counts hours
/// spent recovering from failures.
///
/// # Examples
///
/// ```
/// use softsoa_semiring::{Semiring, Weighted, Weight};
///
/// let s = Weighted;
/// let a = Weight::new(7.0)?;
/// let b = Weight::new(16.0)?;
/// assert_eq!(s.plus(&a, &b), a);          // min: 7 is better
/// assert_eq!(s.times(&a, &b).get(), 23.0); // costs add up
/// assert!(s.leq(&b, &a));                  // 16 ≤S 7: higher cost is worse
/// # Ok::<(), softsoa_semiring::InvalidWeightError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Weighted;

impl Weighted {
    /// Convenience constructor for a [`Weight`] value.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidWeightError`] if `v` is NaN or negative.
    pub fn value(v: f64) -> Result<Weight, InvalidWeightError> {
        Weight::new(v)
    }
}

impl Semiring for Weighted {
    type Value = Weight;

    fn zero(&self) -> Weight {
        Weight::INFINITY
    }

    fn one(&self) -> Weight {
        Weight::ZERO
    }

    fn plus(&self, a: &Weight, b: &Weight) -> Weight {
        (*a).min(*b)
    }

    fn times(&self, a: &Weight, b: &Weight) -> Weight {
        *a + *b
    }

    // Floating-point addition rounds, so re-associating a combined
    // cost can drift by an ulp.
    fn exact_times(&self) -> bool {
        false
    }

    fn leq(&self, a: &Weight, b: &Weight) -> bool {
        // a ≤S b ⇔ min(a, b) = b ⇔ b ≥num ... ⇔ a ≥num b.
        a >= b
    }
}

impl Residuated for Weighted {
    fn div(&self, a: &Weight, b: &Weight) -> Weight {
        a.saturating_sub(*b)
    }
}

/// The exact integer weighted semiring `⟨ℕ ∪ {∞}, min, +, ∞, 0⟩`.
///
/// Arithmetic saturates at [`u64::MAX`], which plays the role of `∞`.
/// Use this instance when tests must compare costs exactly without any
/// floating-point concern.
///
/// # Examples
///
/// ```
/// use softsoa_semiring::{Semiring, Residuated, WeightedInt};
///
/// let s = WeightedInt;
/// assert_eq!(s.times(&3, &4), 7);
/// assert_eq!(s.plus(&3, &4), 3);
/// assert_eq!(s.div(&7, &3), 4);
/// assert_eq!(s.times(&u64::MAX, &1), u64::MAX); // ∞ absorbs
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WeightedInt;

/// The value used as `∞` by [`WeightedInt`].
pub const INT_INFINITY: u64 = u64::MAX;

impl Semiring for WeightedInt {
    type Value = u64;

    fn zero(&self) -> u64 {
        INT_INFINITY
    }

    fn one(&self) -> u64 {
        0
    }

    fn plus(&self, a: &u64, b: &u64) -> u64 {
        (*a).min(*b)
    }

    fn times(&self, a: &u64, b: &u64) -> u64 {
        a.saturating_add(*b)
    }

    fn leq(&self, a: &u64, b: &u64) -> bool {
        a >= b
    }
}

impl Residuated for WeightedInt {
    fn div(&self, a: &u64, b: &u64) -> u64 {
        if *b == INT_INFINITY {
            0
        } else if *a == INT_INFINITY {
            INT_INFINITY
        } else {
            a.saturating_sub(*b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(v: f64) -> Weight {
        Weight::new(v).unwrap()
    }

    #[test]
    fn construction_rejects_invalid() {
        assert!(Weight::new(f64::NAN).is_err());
        assert!(Weight::new(-0.5).is_err());
        assert!(Weight::new(0.0).is_ok());
        assert!(Weight::new(f64::INFINITY).is_ok());
    }

    #[test]
    fn saturating_construction() {
        assert_eq!(Weight::saturating(-3.0), Weight::ZERO);
        assert_eq!(Weight::saturating(f64::NAN), Weight::INFINITY);
        assert_eq!(Weight::saturating(2.5), w(2.5));
    }

    #[test]
    fn order_is_reversed_numeric() {
        let s = Weighted;
        // Lower cost is better: 2 is "greater" in the semiring order.
        assert!(s.leq(&w(5.0), &w(2.0)));
        assert!(!s.leq(&w(2.0), &w(5.0)));
        assert!(s.lt(&w(5.0), &w(2.0)));
    }

    #[test]
    fn units_and_absorption() {
        let s = Weighted;
        assert_eq!(s.plus(&s.zero(), &w(4.0)), w(4.0));
        assert_eq!(s.times(&s.one(), &w(4.0)), w(4.0));
        assert_eq!(s.times(&s.zero(), &w(4.0)), Weight::INFINITY);
        assert_eq!(s.plus(&s.one(), &w(4.0)), Weight::ZERO);
    }

    #[test]
    fn residuation_closed_form() {
        let s = Weighted;
        assert_eq!(s.div(&w(5.0), &w(3.0)), w(2.0));
        assert_eq!(s.div(&w(3.0), &w(5.0)), Weight::ZERO);
        assert_eq!(s.div(&Weight::INFINITY, &w(5.0)), Weight::INFINITY);
        assert_eq!(s.div(&w(5.0), &Weight::INFINITY), Weight::ZERO);
        assert_eq!(s.div(&Weight::INFINITY, &Weight::INFINITY), Weight::ZERO);
    }

    #[test]
    fn residuation_galois_property_sampled() {
        let s = Weighted;
        let samples = [0.0, 0.5, 1.0, 2.0, 3.5, 10.0, f64::INFINITY];
        for &a in &samples {
            for &b in &samples {
                let (a, b) = (w(a), w(b));
                let d = s.div(&a, &b);
                // b × (a ÷ b) ≤S a
                assert!(s.leq(&s.times(&b, &d), &a), "a={a}, b={b}, d={d}");
                // and d is the maximum such x among samples
                for &x in &samples {
                    let x = w(x);
                    if s.leq(&s.times(&b, &x), &a) {
                        assert!(s.leq(&x, &d), "x={x} beats d={d} for a={a}, b={b}");
                    }
                }
            }
        }
    }

    #[test]
    fn int_semiring_matches_float_on_integers() {
        let (si, sf) = (WeightedInt, Weighted);
        for a in 0u64..8 {
            for b in 0u64..8 {
                let (fa, fb) = (w(a as f64), w(b as f64));
                assert_eq!(si.times(&a, &b) as f64, sf.times(&fa, &fb).get());
                assert_eq!(si.plus(&a, &b) as f64, sf.plus(&fa, &fb).get());
                assert_eq!(si.div(&a, &b) as f64, sf.div(&fa, &fb).get());
            }
        }
    }

    #[test]
    fn int_infinity_behaviour() {
        let s = WeightedInt;
        assert_eq!(s.times(&INT_INFINITY, &7), INT_INFINITY);
        assert_eq!(s.div(&INT_INFINITY, &7), INT_INFINITY);
        assert_eq!(s.div(&7, &INT_INFINITY), 0);
        assert!(s.leq(&INT_INFINITY, &0));
    }

    #[test]
    fn weight_display() {
        assert_eq!(w(2.5).to_string(), "2.5");
        assert_eq!(Weight::INFINITY.to_string(), "∞");
    }
}
