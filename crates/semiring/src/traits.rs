//! The [`Semiring`] and [`Residuated`] traits.
//!
//! An *absorptive semiring* (also called a *c-semiring*) is a tuple
//! `⟨A, +, ×, 0, 1⟩` where `+` is commutative, associative and idempotent
//! with unit `0` and absorbing element `1`, and `×` is commutative,
//! associative, distributes over `+`, has unit `1` and absorbing element
//! `0`. The relation `a ≤ b ⇔ a + b = b` is a partial order with minimum
//! `0` and maximum `1`; `⟨A, ≤⟩` is a complete lattice and `a + b` is the
//! least upper bound of `a` and `b`.
//!
//! Semirings are modelled as *operation objects*: the carrier is the
//! associated type [`Semiring::Value`] and the operations are methods on
//! the semiring value itself. This allows instances such as the set-based
//! semiring `⟨𝒫(A), ∪, ∩, ∅, A⟩` to carry their universe `A` at runtime.

use core::cmp::Ordering;
use core::fmt;

/// An absorptive semiring (c-semiring) `⟨A, +, ×, 0, 1⟩`.
///
/// Implementations must satisfy the c-semiring axioms; the reusable
/// checkers in [`crate::laws`] verify them on sampled values and every
/// instance shipped by this crate is property-tested against them.
///
/// # Examples
///
/// ```
/// use softsoa_semiring::{Fuzzy, Semiring};
///
/// let s = Fuzzy;
/// let a = Fuzzy::value(0.3).unwrap();
/// let b = Fuzzy::value(0.8).unwrap();
/// // In the fuzzy semiring `+` is max and `×` is min.
/// assert_eq!(s.plus(&a, &b), b);
/// assert_eq!(s.times(&a, &b), a);
/// assert!(s.leq(&a, &b)); // 0.3 is "worse than" 0.8
/// ```
pub trait Semiring: Clone + fmt::Debug + PartialEq + Send + Sync + 'static {
    /// The carrier set `A` of the semiring.
    type Value: Clone + fmt::Debug + PartialEq + Send + Sync + 'static;

    /// The bottom element `0`: unit of `+`, absorbing for `×`, worst level.
    fn zero(&self) -> Self::Value;

    /// The top element `1`: unit of `×`, absorbing for `+`, best level.
    fn one(&self) -> Self::Value;

    /// The additive operation `+`, used to compare and merge levels.
    ///
    /// `plus` computes the least upper bound of `a` and `b` in the
    /// induced lattice.
    fn plus(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// The multiplicative operation `×`, used to combine levels.
    fn times(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// Whether the induced order `≤` is total.
    ///
    /// All scalar instances are totally ordered; Cartesian products and
    /// the set-based semiring are not.
    fn is_total(&self) -> bool {
        true
    }

    /// The induced partial order: `a ≤ b ⇔ a + b = b` ("`b` is better").
    fn leq(&self, a: &Self::Value, b: &Self::Value) -> bool {
        self.plus(a, b) == *b
    }

    /// Strict order: `a < b ⇔ a ≤ b ∧ a ≠ b`.
    fn lt(&self, a: &Self::Value, b: &Self::Value) -> bool {
        a != b && self.leq(a, b)
    }

    /// Compare two values in the induced order.
    ///
    /// Returns `None` when the values are incomparable (possible only
    /// when [`Self::is_total`] is `false`).
    fn partial_cmp(&self, a: &Self::Value, b: &Self::Value) -> Option<Ordering> {
        match (self.leq(a, b), self.leq(b, a)) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }

    /// Least upper bound; identical to [`Self::plus`] in a c-semiring.
    fn lub(&self, a: &Self::Value, b: &Self::Value) -> Self::Value {
        self.plus(a, b)
    }

    /// Sum (`+`-fold) of an iterator of values; the empty sum is `0`.
    ///
    /// This is the `Σ` used by constraint projection.
    fn sum<'a, I>(&self, values: I) -> Self::Value
    where
        I: IntoIterator<Item = &'a Self::Value>,
        Self::Value: 'a,
    {
        values
            .into_iter()
            .fold(self.zero(), |acc, v| self.plus(&acc, v))
    }

    /// Product (`×`-fold) of an iterator of values; the empty product is `1`.
    ///
    /// This is the combination used by constraint aggregation `⊗`.
    fn product<'a, I>(&self, values: I) -> Self::Value
    where
        I: IntoIterator<Item = &'a Self::Value>,
        Self::Value: 'a,
    {
        values
            .into_iter()
            .fold(self.one(), |acc, v| self.times(&acc, v))
    }

    /// `true` iff `×` is *exactly* associative on the value
    /// representation — re-associating a product can never change the
    /// result by even an ulp. Engines that compare a recombined
    /// product (e.g. a propagation bound) against a level computed in
    /// a different association rely on this; semirings whose `×`
    /// rounds (floating-point multiplication) must return `false`,
    /// and such engines then fall back to rounding-proof rules.
    fn exact_times(&self) -> bool {
        true
    }

    /// `true` iff `v` is the bottom element `0`.
    fn is_zero(&self, v: &Self::Value) -> bool {
        *v == self.zero()
    }

    /// `true` iff `v` is the top element `1`.
    fn is_one(&self, v: &Self::Value) -> bool {
        *v == self.one()
    }
}

/// A marker for semirings whose `×` is *idempotent* (`a × a = a`).
///
/// When `×` is idempotent it coincides with the greatest lower bound
/// of the induced lattice, and several equivalence-preserving local
/// consistency transformations become available — notably, a
/// constraint may be combined with its own projections without
/// changing the problem (`c ⊗ (c ⇓ x) ≡ c`).
///
/// Implemented by the fuzzy, classical, set-based and capacity
/// instances; *not* by weighted, probabilistic or Łukasiewicz, whose
/// `×` strictly accumulates.
pub trait IdempotentTimes: Semiring {}

/// A semiring with a *division* operation, the weak inverse of `×`.
///
/// Following Bistarelli & Gadducci (ECAI 2006), an absorptive semiring is
/// *residuated* when for all `a, b` the set `{x | b × x ≤ a}` admits a
/// maximum, denoted `a ÷ b`. Every *complete* absorptive semiring is
/// residuated, so all classical instances (crisp, fuzzy, probabilistic,
/// weighted) qualify.
///
/// Division is what makes the `nmsccp` language *nonmonotonic*: it
/// implements `retract`, removing a constraint's contribution from the
/// store.
///
/// # Laws
///
/// The Galois property must hold for all values:
/// `b × x ≤ a  ⇔  x ≤ a ÷ b`, and consequently `b × (a ÷ b) ≤ a` and
/// `a ≤ b ⇒ b × (a ÷ b) = a` when the semiring is invertible.
///
/// # Examples
///
/// ```
/// use softsoa_semiring::{Residuated, Semiring, Weighted, Weight};
///
/// // In the weighted semiring × is arithmetic sum, so ÷ is saturating
/// // subtraction: removing a cost of 3 from a total of 5 leaves 2.
/// let s = Weighted;
/// let total = Weight::new(5.0).unwrap();
/// let part = Weight::new(3.0).unwrap();
/// assert_eq!(s.div(&total, &part), Weight::new(2.0).unwrap());
/// ```
pub trait Residuated: Semiring {
    /// The residuation `a ÷ b = max{x ∈ A | b × x ≤ a}`.
    fn div(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Boolean;

    #[test]
    fn partial_cmp_on_boolean() {
        let s = Boolean;
        assert_eq!(s.partial_cmp(&false, &true), Some(Ordering::Less));
        assert_eq!(s.partial_cmp(&true, &false), Some(Ordering::Greater));
        assert_eq!(s.partial_cmp(&true, &true), Some(Ordering::Equal));
    }

    #[test]
    fn sum_and_product_identities() {
        let s = Boolean;
        let empty: [bool; 0] = [];
        assert!(!s.sum(empty.iter()));
        assert!(s.product(empty.iter()));
        assert!(s.sum([true, false].iter()));
        assert!(!s.product([true, false].iter()));
    }

    #[test]
    fn lub_is_plus() {
        let s = Boolean;
        assert_eq!(s.lub(&false, &true), s.plus(&false, &true));
    }

    #[test]
    fn is_zero_is_one() {
        let s = Boolean;
        assert!(s.is_zero(&false));
        assert!(s.is_one(&true));
        assert!(!s.is_zero(&true));
        assert!(!s.is_one(&false));
    }
}
