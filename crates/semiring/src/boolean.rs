//! The classical (crisp) semiring `⟨{0, 1}, ∨, ∧, 0, 1⟩`.

use crate::{IdempotentTimes, Residuated, Semiring};

/// The classical semiring `⟨{false, true}, ∨, ∧, false, true⟩`.
///
/// Casts crisp constraints into the semiring-based framework: a tuple is
/// either allowed (`true`) or forbidden (`false`). The paper uses it to
/// check whether properties are entailed by a service definition and for
/// the qualitative integrity analysis of Sec. 5 (the federated
/// photo-editing pipeline) and the crisp partition/stability constraints
/// of Sec. 6.
///
/// # Examples
///
/// ```
/// use softsoa_semiring::{Boolean, Semiring};
///
/// let s = Boolean;
/// assert_eq!(s.times(&true, &false), false); // conjunction
/// assert_eq!(s.plus(&true, &false), true);   // disjunction
/// assert!(s.leq(&false, &true));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Boolean;

impl Semiring for Boolean {
    type Value = bool;

    fn zero(&self) -> bool {
        false
    }

    fn one(&self) -> bool {
        true
    }

    fn plus(&self, a: &bool, b: &bool) -> bool {
        *a || *b
    }

    fn times(&self, a: &bool, b: &bool) -> bool {
        *a && *b
    }

    fn leq(&self, a: &bool, b: &bool) -> bool {
        !*a || *b
    }
}

impl IdempotentTimes for Boolean {}

impl Residuated for Boolean {
    fn div(&self, a: &bool, b: &bool) -> bool {
        // max{x | b ∧ x ≤ a} — the Boolean implication b → a.
        !*b || *a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_tables() {
        let s = Boolean;
        assert!(s.times(&true, &true));
        assert!(!s.times(&true, &false));
        assert!(s.plus(&false, &true));
        assert!(!s.plus(&false, &false));
    }

    #[test]
    fn order() {
        let s = Boolean;
        assert!(s.leq(&false, &true));
        assert!(!s.leq(&true, &false));
        assert!(s.lt(&false, &true));
        assert!(!s.lt(&true, &true));
    }

    #[test]
    fn residuation_is_implication() {
        let s = Boolean;
        assert!(s.div(&true, &true));
        assert!(!s.div(&false, &true));
        assert!(s.div(&true, &false));
        assert!(s.div(&false, &false));
    }

    #[test]
    fn residuation_galois_property_exhaustive() {
        let s = Boolean;
        for a in [false, true] {
            for b in [false, true] {
                let d = s.div(&a, &b);
                for x in [false, true] {
                    assert_eq!(s.leq(&s.times(&b, &x), &a), s.leq(&x, &d));
                }
            }
        }
    }
}
