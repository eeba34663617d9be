//! Additional c-semiring instances beyond the paper's core list.
//!
//! The semiring-based framework was designed "to encompass most of the
//! existing extensions, as well as other ones not yet defined"; these
//! instances exercise that claim and model QoS metrics the paper's
//! list does not cover: bottleneck *capacity* (bandwidth) and the
//! Łukasiewicz t-norm (penalty-accumulating preference).

use crate::{IdempotentTimes, Residuated, Semiring, Unit, Weight};

/// The capacity (bottleneck) semiring `⟨ℝ⁺ ∪ {∞}, max, min, 0, ∞⟩`
/// over [`Weight`].
///
/// Models *concave* resource metrics where composition is limited by
/// the narrowest link — the classic example is end-to-end bandwidth:
/// a pipeline of services is as fast as its slowest stage, and the
/// optimiser maximises that bottleneck. Note the polarity: more
/// capacity is better, so `0` (no bandwidth) is the semiring bottom
/// and `∞` the top — the opposite reading of the cost-oriented
/// [`Weighted`](crate::Weighted) instance over the same carrier.
///
/// # Examples
///
/// ```
/// use softsoa_semiring::{Capacity, Semiring, Weight};
///
/// let s = Capacity;
/// let narrow = Weight::new(10.0)?;  // 10 Mb/s link
/// let wide = Weight::new(100.0)?;   // 100 Mb/s link
/// // A pipeline is limited by its narrowest stage...
/// assert_eq!(s.times(&narrow, &wide), narrow);
/// // ...and between alternatives the wider one is better.
/// assert_eq!(s.plus(&narrow, &wide), wide);
/// assert!(s.leq(&narrow, &wide));
/// # Ok::<(), softsoa_semiring::InvalidWeightError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Capacity;

impl Semiring for Capacity {
    type Value = Weight;

    fn zero(&self) -> Weight {
        Weight::ZERO
    }

    fn one(&self) -> Weight {
        Weight::INFINITY
    }

    fn plus(&self, a: &Weight, b: &Weight) -> Weight {
        (*a).max(*b)
    }

    fn times(&self, a: &Weight, b: &Weight) -> Weight {
        (*a).min(*b)
    }

    fn leq(&self, a: &Weight, b: &Weight) -> bool {
        a <= b
    }
}

impl IdempotentTimes for Capacity {}

impl Residuated for Capacity {
    fn div(&self, a: &Weight, b: &Weight) -> Weight {
        // max{x | min(b, x) ≤ a}: unconstrained when b ≤ a, else a.
        if b <= a {
            Weight::INFINITY
        } else {
            *a
        }
    }
}

/// The Łukasiewicz semiring `⟨[0, 1], max, ⊗_Ł, 0, 1⟩` over [`Unit`],
/// with `a ⊗_Ł b = max(0, a + b − 1)`.
///
/// A *penalty-accumulating* preference model: each constraint's
/// shortfall from full satisfaction (`1 − a`) adds up, and preferences
/// bottom out at `0` once the accumulated shortfall exceeds 1. Sits
/// between the fuzzy instance (no accumulation) and the weighted one
/// (unbounded accumulation); useful when a few mild SLA deviations are
/// tolerable but they must not pile up.
///
/// # Examples
///
/// ```
/// use softsoa_semiring::{Lukasiewicz, Semiring, Unit};
///
/// let s = Lukasiewicz;
/// let a = Unit::new(0.9)?;
/// let b = Unit::new(0.8)?;
/// // Shortfalls 0.1 and 0.2 accumulate: level 0.7.
/// assert!((s.times(&a, &b).get() - 0.7).abs() < 1e-12);
/// // Three such levels hit zero: 0.9 + 0.8 + 0.2 − 2 < 0.
/// let c = Unit::new(0.2)?;
/// assert_eq!(s.times(&s.times(&a, &b), &c), Unit::MIN);
/// # Ok::<(), softsoa_semiring::UnitRangeError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lukasiewicz;

impl Semiring for Lukasiewicz {
    type Value = Unit;

    fn zero(&self) -> Unit {
        Unit::MIN
    }

    fn one(&self) -> Unit {
        Unit::MAX
    }

    fn plus(&self, a: &Unit, b: &Unit) -> Unit {
        (*a).max(*b)
    }

    fn times(&self, a: &Unit, b: &Unit) -> Unit {
        Unit::clamped(a.get() + b.get() - 1.0)
    }

    // Clamped floating-point addition is neither exact nor
    // re-association-stable.
    fn exact_times(&self) -> bool {
        false
    }

    fn leq(&self, a: &Unit, b: &Unit) -> bool {
        a <= b
    }
}

impl Residuated for Lukasiewicz {
    fn div(&self, a: &Unit, b: &Unit) -> Unit {
        // The Łukasiewicz residuum: min(1, 1 − b + a).
        Unit::clamped(1.0 - b.get() + a.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws;

    fn w(v: f64) -> Weight {
        Weight::new(v).unwrap()
    }

    fn u(v: f64) -> Unit {
        Unit::new(v).unwrap()
    }

    #[test]
    fn capacity_laws() {
        let samples = [w(0.0), w(1.0), w(10.0), w(55.5), Weight::INFINITY];
        laws::assert_semiring_laws(&Capacity, &samples);
        laws::assert_residuation_laws(&Capacity, &samples);
        laws::assert_invertibility(&Capacity, &samples);
    }

    #[test]
    fn capacity_polarity_is_opposite_of_weighted() {
        use crate::Weighted;
        let (cap, cost) = (Capacity, Weighted);
        // 10 better than 5 as capacity; worse as cost.
        assert!(cap.leq(&w(5.0), &w(10.0)));
        assert!(cost.leq(&w(10.0), &w(5.0)));
    }

    #[test]
    fn capacity_bottleneck() {
        let s = Capacity;
        let pipeline = s.product([w(100.0), w(10.0), w(40.0)].iter());
        assert_eq!(pipeline, w(10.0));
    }

    #[test]
    fn lukasiewicz_laws() {
        // Multiples of 0.25 are exact in f64, so the exact-equality
        // law checkers apply.
        let samples: Vec<Unit> = [0.0, 0.25, 0.5, 0.75, 1.0].iter().map(|&v| u(v)).collect();
        laws::assert_semiring_laws(&Lukasiewicz, &samples);
        laws::assert_residuation_laws(&Lukasiewicz, &samples);
    }

    #[test]
    fn lukasiewicz_accumulates_penalties() {
        let s = Lukasiewicz;
        assert_eq!(s.times(&u(0.75), &u(0.75)), u(0.5));
        assert_eq!(s.times(&u(0.5), &u(0.25)), Unit::MIN);
        // Unlike fuzzy min, it is not idempotent below 1.
        assert_ne!(s.times(&u(0.75), &u(0.75)), u(0.75));
    }

    #[test]
    fn lukasiewicz_residuum() {
        let s = Lukasiewicz;
        assert_eq!(s.div(&u(0.5), &u(0.75)), u(0.75));
        assert_eq!(s.div(&u(0.75), &u(0.5)), Unit::MAX);
        // Galois: b ⊗ (a ÷ b) ≤ a.
        let (a, b) = (u(0.25), u(0.75));
        assert!(s.leq(&s.times(&b, &s.div(&a, &b)), &a));
    }
}
