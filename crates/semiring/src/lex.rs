//! Lexicographic composition of semirings for tiered optimisation.
//!
//! Where [`crate::Product`] scores criteria *independently* (yielding a
//! partial order and Pareto frontiers), [`Lex`] ranks them by
//! *priority*: values compare on the first component, and only ties
//! fall through to the second. This is the combinator behind tiered
//! fairness objectives — e.g. "maximise the worst-off client's level
//! first, then the aggregate product" (Bistarelli & Campli, *Fairness
//! as a QoS Measure for Web Services*).
//!
//! # Lawfulness
//!
//! `Lex<A, B>` is a c-semiring whenever both components are totally
//! ordered c-semirings and the first component's `×` is *cancellative*
//! on non-`0` values (`a × c = b × c ∧ c ≠ 0 ⇒ a = b`), as it is for
//! [`crate::Weighted`], [`crate::WeightedInt`],
//! [`crate::Probabilistic`] and [`crate::Boolean`]. An *idempotent*
//! first `×` (e.g. [`crate::Fuzzy`]'s `min`) breaks distributivity and
//! monotonicity: with `a = (0.5, 0.9)`, `b = (0.7, 0.1)`,
//! `c = (0.5, 0.5)`, fuzzy-first `a × (b + c)` and `a×b + a×c` land on
//! the same first component `0.5` but different second components,
//! because `min` erases the information the tie-break needs.
//! [`Lex::new`] asserts totality of both components; cancellativity is
//! a documented obligation checked by the law-harness tests.
//!
//! # Representation invariant
//!
//! Any pair whose first component is `0` is semantically the bottom
//! element (the first tier already rules it out entirely), so such
//! values are *normalised* to the canonical `(0, 0)` by every
//! constructor and operation. This keeps `PartialEq` equality aligned
//! with semiring equality.

use crate::{Residuated, Semiring};

/// The lexicographic composition `A ⋉ B` of two semirings.
///
/// The carrier is `(A::Value, B::Value)` with first-then-second
/// comparison; `×` acts componentwise (with bottom-collapse when the
/// first component hits `0`), and `+` picks the lexicographically
/// greater operand, merging second components on first-component ties.
///
/// # Examples
///
/// ```
/// use softsoa_semiring::{Lex, Probabilistic, Semiring, Unit};
///
/// // Tiered objective: worst-client level first, aggregate second.
/// let s = Lex::new(Probabilistic, Probabilistic);
/// let a = s.value(Unit::new(0.5)?, Unit::new(0.9)?);
/// let b = s.value(Unit::new(0.5)?, Unit::new(0.2)?);
/// let c = s.value(Unit::new(0.4)?, Unit::new(1.0)?);
/// // First components tie, so the second decides...
/// assert!(s.lt(&b, &a));
/// // ...and a better first component wins regardless of the second.
/// assert!(s.lt(&c, &b));
/// # Ok::<(), softsoa_semiring::UnitRangeError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lex<S1, S2> {
    first: S1,
    second: S2,
}

impl<S1: Semiring, S2: Semiring> Lex<S1, S2> {
    /// Creates the lexicographic composition of two semirings.
    ///
    /// # Panics
    ///
    /// Panics if either component is not totally ordered — the
    /// lexicographic order is only well defined over total tiers.
    pub fn new(first: S1, second: S2) -> Lex<S1, S2> {
        assert!(
            first.is_total() && second.is_total(),
            "Lex requires totally ordered component semirings"
        );
        Lex { first, second }
    }

    /// The first (higher-priority) component semiring.
    pub fn first(&self) -> &S1 {
        &self.first
    }

    /// The second (tie-breaking) component semiring.
    pub fn second(&self) -> &S2 {
        &self.second
    }

    /// Builds a carrier value, normalising to the canonical bottom when
    /// the first component is `0`.
    pub fn value(&self, a: S1::Value, b: S2::Value) -> (S1::Value, S2::Value) {
        self.norm((a, b))
    }

    fn norm(&self, v: (S1::Value, S2::Value)) -> (S1::Value, S2::Value) {
        if self.first.is_zero(&v.0) {
            (self.first.zero(), self.second.zero())
        } else {
            v
        }
    }

    fn cmp_first(&self, a: &S1::Value, b: &S1::Value) -> core::cmp::Ordering {
        self.first
            .partial_cmp(a, b)
            .expect("Lex first component must be totally ordered")
    }
}

impl<S1: Semiring, S2: Semiring> Semiring for Lex<S1, S2> {
    type Value = (S1::Value, S2::Value);

    fn zero(&self) -> Self::Value {
        (self.first.zero(), self.second.zero())
    }

    fn one(&self) -> Self::Value {
        (self.first.one(), self.second.one())
    }

    fn plus(&self, a: &Self::Value, b: &Self::Value) -> Self::Value {
        match self.cmp_first(&a.0, &b.0) {
            core::cmp::Ordering::Less => b.clone(),
            core::cmp::Ordering::Greater => a.clone(),
            core::cmp::Ordering::Equal => (a.0.clone(), self.second.plus(&a.1, &b.1)),
        }
    }

    fn times(&self, a: &Self::Value, b: &Self::Value) -> Self::Value {
        let t0 = self.first.times(&a.0, &b.0);
        if self.first.is_zero(&t0) {
            self.zero()
        } else {
            (t0, self.second.times(&a.1, &b.1))
        }
    }

    fn exact_times(&self) -> bool {
        self.first.exact_times() && self.second.exact_times()
    }

    fn is_total(&self) -> bool {
        true
    }

    fn leq(&self, a: &Self::Value, b: &Self::Value) -> bool {
        match self.cmp_first(&a.0, &b.0) {
            core::cmp::Ordering::Less => true,
            core::cmp::Ordering::Greater => false,
            core::cmp::Ordering::Equal => self.second.leq(&a.1, &b.1),
        }
    }
}

impl<S1: Residuated, S2: Residuated> Residuated for Lex<S1, S2> {
    /// Lexicographic residuation `a ÷ b = max{x | b × x ≤ a}`.
    ///
    /// The first tier divides as usual; the second tier only divides
    /// when the first-tier product `b.0 × (a.0 ÷ b.0)` lands *exactly*
    /// on `a.0` without collapsing to `0` — in every other case the
    /// first tier already satisfies the bound strictly, so the second
    /// component of the maximum is `1`.
    fn div(&self, a: &Self::Value, b: &Self::Value) -> Self::Value {
        if self.first.is_zero(&b.0) {
            return self.one();
        }
        let q0 = self.first.div(&a.0, &b.0);
        let f = self.first.times(&b.0, &q0);
        if self.first.is_zero(&f) || f != a.0 {
            self.norm((q0, self.second.one()))
        } else {
            (q0, self.second.div(&a.1, &b.1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws::{assert_residuation_laws, assert_semiring_laws};
    use crate::{Boolean, Fuzzy, Probabilistic, Unit, Weight, Weighted, WeightedInt};

    fn prob_samples(s: &Lex<Probabilistic, Probabilistic>) -> Vec<(Unit, Unit)> {
        // Powers of two keep float × exact, as in the probabilistic
        // law tests.
        let levels = [0.0, 0.25, 0.5, 1.0];
        let mut samples = Vec::new();
        for &a in &levels {
            for &b in &levels {
                samples.push(s.value(Unit::new(a).unwrap(), Unit::new(b).unwrap()));
            }
        }
        samples
    }

    #[test]
    fn probabilistic_lex_laws() {
        let s = Lex::new(Probabilistic, Probabilistic);
        let samples = prob_samples(&s);
        assert_semiring_laws(&s, &samples);
        assert_residuation_laws(&s, &samples);
    }

    #[test]
    fn weighted_lex_laws() {
        let s = Lex::new(Weighted, Fuzzy);
        let mut samples = Vec::new();
        for &w in &[0.0, 1.0, 2.5, f64::INFINITY] {
            for &f in &[0.0, 0.5, 1.0] {
                samples.push(s.value(Weight::new(w).unwrap(), Unit::new(f).unwrap()));
            }
        }
        assert_semiring_laws(&s, &samples);
        assert_residuation_laws(&s, &samples);
    }

    #[test]
    fn weighted_int_lex_laws() {
        let s = Lex::new(WeightedInt, WeightedInt);
        let mut samples = Vec::new();
        for &a in &[0u64, 2, 5, u64::MAX] {
            for &b in &[0u64, 3, u64::MAX] {
                samples.push(s.value(a, b));
            }
        }
        assert_semiring_laws(&s, &samples);
        assert_residuation_laws(&s, &samples);
    }

    #[test]
    fn boolean_lex_laws() {
        let s = Lex::new(Boolean, WeightedInt);
        let mut samples = Vec::new();
        for b in [false, true] {
            for w in [0u64, 2, u64::MAX] {
                samples.push(s.value(b, w));
            }
        }
        assert_semiring_laws(&s, &samples);
        assert_residuation_laws(&s, &samples);
    }

    #[test]
    fn order_is_lexicographic() {
        let s = Lex::new(Probabilistic, Probabilistic);
        let v = |a: f64, b: f64| s.value(Unit::new(a).unwrap(), Unit::new(b).unwrap());
        assert!(s.lt(&v(0.5, 1.0), &v(0.75, 0.0)));
        assert!(s.lt(&v(0.5, 0.25), &v(0.5, 0.5)));
        assert!(s.is_total());
        assert_eq!(s.plus(&v(0.5, 0.25), &v(0.5, 0.5)), v(0.5, 0.5));
        assert_eq!(s.plus(&v(0.5, 1.0), &v(0.75, 0.0)), v(0.75, 0.0));
    }

    #[test]
    fn bottom_collapses_and_normalises() {
        let s = Lex::new(Probabilistic, Probabilistic);
        let v = |a: f64, b: f64| s.value(Unit::new(a).unwrap(), Unit::new(b).unwrap());
        // Constructing with a zero first tier yields the canonical 0.
        assert_eq!(v(0.0, 0.9), s.zero());
        // × collapses to the canonical bottom when the first tier hits 0.
        assert_eq!(s.times(&v(0.5, 0.9), &v(0.0, 1.0)), s.zero());
        assert!(s.is_zero(&s.times(&s.zero(), &s.one())));
    }

    #[test]
    fn fuzzy_first_tier_breaks_distributivity() {
        // Documented restriction: an idempotent first × is not lawful.
        // min(0.5, 0.7) == min(0.5, 0.5) erases the tie-break's input.
        let s = Lex::new(Fuzzy, Fuzzy);
        let v = |a: f64, b: f64| s.value(Unit::new(a).unwrap(), Unit::new(b).unwrap());
        let a = v(0.5, 0.9);
        let b = v(0.7, 0.1);
        let c = v(0.5, 0.5);
        let lhs = s.times(&a, &s.plus(&b, &c));
        let rhs = s.plus(&s.times(&a, &b), &s.times(&a, &c));
        assert_ne!(lhs, rhs, "fuzzy-first Lex must not be treated as lawful");
    }

    #[test]
    #[should_panic(expected = "totally ordered")]
    fn partial_components_are_rejected() {
        use crate::Product;
        let _ = Lex::new(Product::new(Boolean, Boolean), Boolean);
    }
}
