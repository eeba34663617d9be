//! The fuzzy semiring `⟨[0, 1], max, min, 0, 1⟩`.

use crate::{IdempotentTimes, Residuated, Semiring, Unit, UnitRangeError};

/// The fuzzy semiring `⟨[0, 1], max, min, 0, 1⟩` over [`Unit`].
///
/// Models *concave* metrics: combining levels "flattens" to the worst
/// one (`min`), and solving maximises the minimum satisfaction. In the
/// paper this instance expresses coarse preference levels (low/medium/
/// high reliability, Sec. 4) and the negotiation agreement of Fig. 5,
/// and drives the trustworthy-coalition objective of Sec. 6 (maximise
/// the minimum coalition trust).
///
/// # Examples
///
/// ```
/// use softsoa_semiring::{Fuzzy, Semiring};
///
/// let s = Fuzzy;
/// let client = Fuzzy::value(0.5)?;
/// let provider = Fuzzy::value(0.8)?;
/// // Composing two preference levels keeps the worst of the two.
/// assert_eq!(s.times(&client, &provider), client);
/// # Ok::<(), softsoa_semiring::UnitRangeError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fuzzy;

impl Fuzzy {
    /// Convenience constructor for a [`Unit`] preference level.
    ///
    /// # Errors
    ///
    /// Returns [`UnitRangeError`] if `v` is NaN or outside `[0, 1]`.
    pub fn value(v: f64) -> Result<Unit, UnitRangeError> {
        Unit::new(v)
    }
}

impl Semiring for Fuzzy {
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
        (*a).min(*b)
    }

    fn leq(&self, a: &Unit, b: &Unit) -> bool {
        a <= b
    }
}

impl IdempotentTimes for Fuzzy {}

impl Residuated for Fuzzy {
    fn div(&self, a: &Unit, b: &Unit) -> Unit {
        // max{x | min(b, x) ≤ a}: everything if b ≤ a, otherwise a itself.
        if b <= a {
            Unit::MAX
        } else {
            *a
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: f64) -> Unit {
        Unit::new(v).unwrap()
    }

    #[test]
    fn plus_is_max_times_is_min() {
        let s = Fuzzy;
        assert_eq!(s.plus(&u(0.3), &u(0.8)), u(0.8));
        assert_eq!(s.times(&u(0.3), &u(0.8)), u(0.3));
    }

    #[test]
    fn units_and_absorption() {
        let s = Fuzzy;
        assert_eq!(s.plus(&s.zero(), &u(0.4)), u(0.4));
        assert_eq!(s.times(&s.one(), &u(0.4)), u(0.4));
        assert_eq!(s.times(&s.zero(), &u(0.4)), Unit::MIN);
        assert_eq!(s.plus(&s.one(), &u(0.4)), Unit::MAX);
    }

    #[test]
    fn residuation() {
        let s = Fuzzy;
        assert_eq!(s.div(&u(0.8), &u(0.3)), Unit::MAX); // b ≤ a
        assert_eq!(s.div(&u(0.3), &u(0.8)), u(0.3)); // b > a
        assert_eq!(s.div(&u(0.5), &u(0.5)), Unit::MAX);
    }

    #[test]
    fn residuation_galois_property_sampled() {
        let s = Fuzzy;
        let samples: Vec<Unit> = [0.0, 0.1, 0.3, 0.5, 0.8, 1.0]
            .iter()
            .map(|&v| u(v))
            .collect();
        for a in &samples {
            for b in &samples {
                let d = s.div(a, b);
                assert!(s.leq(&s.times(b, &d), a));
                for x in &samples {
                    if s.leq(&s.times(b, x), a) {
                        assert!(s.leq(x, &d));
                    }
                }
            }
        }
    }

    #[test]
    fn idempotent_times() {
        // Fuzzy × is idempotent — the hallmark of concave metrics.
        let s = Fuzzy;
        for v in [0.0, 0.25, 1.0] {
            assert_eq!(s.times(&u(v), &u(v)), u(v));
        }
    }
}
