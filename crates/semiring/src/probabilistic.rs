//! The probabilistic semiring `⟨[0, 1], max, ·, 0, 1⟩`.

use crate::{Residuated, Semiring, Unit, UnitRangeError};

/// The probabilistic semiring `⟨[0, 1], max, ·, 0, 1⟩` over [`Unit`].
///
/// Models *multiplicative* metrics: the probability that a composition
/// of independent services behaves correctly is the product of the
/// component probabilities, and solving maximises that product. The
/// paper uses this instance for reliability and availability
/// percentages (Sec. 4) and for the quantitative integrity analysis of
/// the photo-editing pipeline (Sec. 5).
///
/// # Examples
///
/// ```
/// use softsoa_semiring::{Probabilistic, Semiring};
///
/// let s = Probabilistic;
/// let red = Probabilistic::value(0.9)?;
/// let bw = Probabilistic::value(0.96)?;
/// // Reliability of the two filters in a pipeline.
/// assert!((s.times(&red, &bw).get() - 0.864).abs() < 1e-12);
/// # Ok::<(), softsoa_semiring::UnitRangeError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Probabilistic;

impl Probabilistic {
    /// Convenience constructor for a [`Unit`] probability.
    ///
    /// # Errors
    ///
    /// Returns [`UnitRangeError`] if `v` is NaN or outside `[0, 1]`.
    pub fn value(v: f64) -> Result<Unit, UnitRangeError> {
        Unit::new(v)
    }
}

impl Semiring for Probabilistic {
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
        a.mul(*b)
    }

    // Floating-point multiplication rounds, so re-associating a
    // product can drift by an ulp.
    fn exact_times(&self) -> bool {
        false
    }

    fn leq(&self, a: &Unit, b: &Unit) -> bool {
        a <= b
    }
}

impl Residuated for Probabilistic {
    fn div(&self, a: &Unit, b: &Unit) -> Unit {
        // max{x | b·x ≤ a}: 1 when b ≤ a (or b = 0), otherwise a/b.
        a.div_saturating(*b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: f64) -> Unit {
        Unit::new(v).unwrap()
    }

    #[test]
    fn product_combination() {
        let s = Probabilistic;
        assert_eq!(s.times(&u(0.5), &u(0.5)), u(0.25));
        assert_eq!(s.plus(&u(0.5), &u(0.25)), u(0.5));
    }

    #[test]
    fn units_and_absorption() {
        let s = Probabilistic;
        assert_eq!(s.plus(&s.zero(), &u(0.4)), u(0.4));
        assert_eq!(s.times(&s.one(), &u(0.4)), u(0.4));
        assert_eq!(s.times(&s.zero(), &u(0.4)), Unit::MIN);
        assert_eq!(s.plus(&s.one(), &u(0.4)), Unit::MAX);
    }

    #[test]
    fn residuation() {
        let s = Probabilistic;
        assert_eq!(s.div(&u(0.25), &u(0.5)), u(0.5));
        assert_eq!(s.div(&u(0.5), &u(0.25)), Unit::MAX);
        assert_eq!(s.div(&u(0.3), &Unit::MIN), Unit::MAX);
    }

    #[test]
    fn residuation_recovers_factor() {
        // Invertibility: a ≤ b ⇒ b × (a ÷ b) = a.
        let s = Probabilistic;
        let a = u(0.12);
        let b = u(0.4);
        let q = s.div(&a, &b);
        assert!((s.times(&b, &q).get() - a.get()).abs() < 1e-12);
    }

    #[test]
    fn residuation_galois_property_sampled() {
        let s = Probabilistic;
        let samples: Vec<Unit> = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&v| u(v))
            .collect();
        for a in &samples {
            for b in &samples {
                let d = s.div(a, b);
                assert!(s.leq(&s.times(b, &d), a), "a={a:?} b={b:?} d={d:?}");
                for x in &samples {
                    if s.leq(&s.times(b, x), a) {
                        assert!(s.leq(x, &d));
                    }
                }
            }
        }
    }
}
