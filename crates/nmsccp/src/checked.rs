//! Checked transitions: the consistency intervals of Fig. 3.
//!
//! Every action of the `nmsccp` language is guarded by a *checked
//! transition* `→ᵘₗ` that constrains the store the action would leave
//! behind (or acts upon): the store must be **at least as good as the
//! lower threshold** and **no better than the upper threshold** — "we
//! need a solution as good as `a₁`, but no solution better than `a₂`".
//! Thresholds are either semiring levels (`a₁`, `a₂`) compared against
//! `σ ⇓ ∅`, or whole constraints (`φ₁`, `φ₂`) compared against `σ` in
//! the `⊑` order, giving the four instances C1–C4 of Fig. 3.

use std::fmt;

use softsoa_core::{Constraint, Domains};
use softsoa_semiring::Semiring;

use crate::{Store, StoreError};

/// One threshold of a checked transition: a semiring level or a
/// constraint.
#[derive(Debug, Clone)]
pub enum Bound<S: Semiring> {
    /// A semiring level `aᵢ`, compared against `σ ⇓ ∅`.
    Level(S::Value),
    /// A constraint `φᵢ`, compared against `σ` in the `⊑` order.
    Constraint(Constraint<S>),
}

/// An error returned when an interval's thresholds are intrinsically
/// contradictory (the parenthesised side conditions of Fig. 3: the
/// lower threshold must not be strictly better than the upper one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidIntervalError(());

impl fmt::Display for InvalidIntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the lower threshold of a checked transition cannot be better than the upper one"
        )
    }
}

impl std::error::Error for InvalidIntervalError {}

/// The consistency interval `→ᵘₗ` of a checked transition (Fig. 3).
///
/// # Examples
///
/// Example 1 of the paper guards `ask` with the interval `[4, 1]`
/// (lower threshold 4 hours, upper threshold 1 hour — in the weighted
/// semiring *fewer hours is better*): the merged policies cost 5 hours
/// even with zero failures, which is worse than the lower threshold,
/// so the check fails and no agreement is reached.
///
/// ```
/// use softsoa_nmsccp::{Interval, Store};
/// use softsoa_core::{Constraint, Domain, Domains};
/// use softsoa_semiring::WeightedInt;
///
/// let doms = Domains::new().with("x", Domain::ints(0..=10));
/// let store = Store::empty(WeightedInt, doms)
///     .tell(&Constraint::unary(WeightedInt, "x", |v| 3 * v.as_int().unwrap() as u64 + 5))?;
/// let interval = Interval::levels(4u64, 1u64); // between 1 and 4 hours
/// assert!(!interval.check(&store)?);     // σ⇓∅ = 5 is outside
/// # Ok::<(), softsoa_nmsccp::StoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Interval<S: Semiring> {
    lower: Bound<S>,
    upper: Bound<S>,
}

impl<S: Semiring> Interval<S> {
    /// Creates an interval from explicit bounds.
    pub fn new(lower: Bound<S>, upper: Bound<S>) -> Interval<S> {
        Interval { lower, upper }
    }

    /// C1: both thresholds are semiring levels (`→^{a₂}_{a₁}`).
    pub fn levels(lower: impl Into<S::Value>, upper: impl Into<S::Value>) -> Interval<S> {
        Interval {
            lower: Bound::Level(lower.into()),
            upper: Bound::Level(upper.into()),
        }
    }

    /// C2: level lower threshold, constraint upper threshold
    /// (`→^{φ₂}_{a₁}`).
    pub fn level_to_constraint(lower: S::Value, upper: Constraint<S>) -> Interval<S> {
        Interval {
            lower: Bound::Level(lower),
            upper: Bound::Constraint(upper),
        }
    }

    /// C3: constraint lower threshold, level upper threshold
    /// (`→^{a₂}_{φ₁}`).
    pub fn constraint_to_level(lower: Constraint<S>, upper: S::Value) -> Interval<S> {
        Interval {
            lower: Bound::Constraint(lower),
            upper: Bound::Level(upper),
        }
    }

    /// C4: both thresholds are constraints (`→^{φ₂}_{φ₁}`).
    pub fn constraints(lower: Constraint<S>, upper: Constraint<S>) -> Interval<S> {
        Interval {
            lower: Bound::Constraint(lower),
            upper: Bound::Constraint(upper),
        }
    }

    /// The always-true interval `→^{1}_{0}` (from the worst level to
    /// the best) — written `→^0_∞` in the paper's weighted examples.
    pub fn any(semiring: &S) -> Interval<S> {
        Interval {
            lower: Bound::Level(semiring.zero()),
            upper: Bound::Level(semiring.one()),
        }
    }

    /// The lower threshold.
    pub fn lower(&self) -> &Bound<S> {
        &self.lower
    }

    /// The upper threshold.
    pub fn upper(&self) -> &Bound<S> {
        &self.upper
    }

    /// Renames a variable inside constraint thresholds (level
    /// thresholds are unaffected). Used when renaming agents for the
    /// hiding rule.
    pub fn rename_var(&self, from: &softsoa_core::Var, to: &softsoa_core::Var) -> Interval<S> {
        let rename_bound = |b: &Bound<S>| match b {
            Bound::Level(v) => Bound::Level(v.clone()),
            Bound::Constraint(c) => Bound::Constraint(c.rename(from, to)),
        };
        Interval {
            lower: rename_bound(&self.lower),
            upper: rename_bound(&self.upper),
        }
    }

    /// The `check` function of Fig. 3 applied to a store.
    ///
    /// - level lower `a₁`: requires `¬(σ⇓∅ <S a₁)` — the store is not
    ///   strictly worse than `a₁`;
    /// - level upper `a₂`: requires `¬(σ⇓∅ >S a₂)` — the store is not
    ///   strictly better than `a₂`;
    /// - constraint lower `φ₁`: requires `φ₁ ⊑ σ`;
    /// - constraint upper `φ₂`: requires `σ ⊑ φ₂`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::MissingDomain`] if a support variable has
    /// no domain.
    pub fn check(&self, store: &Store<S>) -> Result<bool, StoreError> {
        self.decide(
            store.semiring(),
            store.domains(),
            || store.consistency(),
            || Ok(store.sigma().clone()),
        )
    }

    /// [`Interval::check`] on a store known only by its level and its
    /// `σ`, so that a prospective store need not be built: `level` runs
    /// only for a level threshold that can fail, `sigma` only for a
    /// constraint threshold. A lower level `0` and an upper level `1`
    /// hold of every store (they bound the carrier), so
    /// [`Interval::any`] reads neither.
    pub(crate) fn decide(
        &self,
        semiring: &S,
        domains: &Domains,
        level: impl Fn() -> Result<S::Value, StoreError>,
        sigma: impl Fn() -> Result<Constraint<S>, StoreError>,
    ) -> Result<bool, StoreError> {
        let lower_ok = match &self.lower {
            Bound::Level(a1) if semiring.is_zero(a1) => true,
            Bound::Level(a1) => !semiring.lt(&level()?, a1),
            Bound::Constraint(phi1) => phi1.leq(&sigma()?, domains)?,
        };
        Ok(lower_ok
            && match &self.upper {
                Bound::Level(a2) if *a2 == semiring.one() => true,
                Bound::Level(a2) => !semiring.lt(a2, &level()?),
                Bound::Constraint(phi2) => sigma()?.leq(phi2, domains)?,
            })
    }

    /// Validates the parenthesised side conditions of Fig. 3: the
    /// lower threshold must not be strictly better than the upper one.
    ///
    /// Constraint thresholds are compared through their consistency
    /// level over `domains` (C2/C3) or pointwise (C4).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidIntervalError`] for a contradictory interval,
    /// or [`StoreError::MissingDomain`] if a threshold constraint
    /// mentions a variable without a domain.
    pub fn validate(
        &self,
        semiring: &S,
        domains: &softsoa_core::Domains,
    ) -> Result<(), ValidationError> {
        let bad = match (&self.lower, &self.upper) {
            // C1: a1 ≯ a2
            (Bound::Level(a1), Bound::Level(a2)) => semiring.lt(a2, a1),
            // C2: a1 ≯ φ2⇓∅
            (Bound::Level(a1), Bound::Constraint(phi2)) => {
                let level = phi2.consistency(domains).map_err(StoreError::from)?;
                semiring.lt(&level, a1)
            }
            // C3: φ1⇓∅ ≯ a2
            (Bound::Constraint(phi1), Bound::Level(a2)) => {
                let level = phi1.consistency(domains).map_err(StoreError::from)?;
                semiring.lt(a2, &level)
            }
            // C4: φ1 ⊑ φ2
            (Bound::Constraint(phi1), Bound::Constraint(phi2)) => {
                !phi1.leq(phi2, domains).map_err(StoreError::from)?
            }
        };
        if bad {
            Err(ValidationError::Invalid(InvalidIntervalError(())))
        } else {
            Ok(())
        }
    }
}

/// An error produced while validating an interval.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidationError {
    /// The interval is intrinsically contradictory.
    Invalid(InvalidIntervalError),
    /// A threshold constraint mentions a variable without a domain.
    Store(StoreError),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::Invalid(e) => write!(f, "{e}"),
            ValidationError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ValidationError {}

impl From<StoreError> for ValidationError {
    fn from(e: StoreError) -> ValidationError {
        ValidationError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsoa_core::{Constraint, Domain, Domains};
    use softsoa_semiring::WeightedInt;

    fn store_with_level(b: u64) -> Store<WeightedInt> {
        let doms = Domains::new().with("x", Domain::ints(0..=10));
        Store::empty(WeightedInt, doms)
            .tell(&Constraint::unary(WeightedInt, "x", move |v| {
                v.as_int().unwrap() as u64 + b
            }))
            .unwrap()
    }

    #[test]
    fn c1_level_interval() {
        // Weighted: cost 5 store; interval between 1 and 4 hours fails,
        // between 1 and 10 succeeds.
        let store = store_with_level(5); // σ⇓∅ = 5
        assert!(!Interval::levels(4u64, 1u64).check(&store).unwrap());
        assert!(Interval::levels(10u64, 1u64).check(&store).unwrap());
        // Strictly better than the upper cap also fails:
        assert!(!Interval::levels(10u64, 6u64).check(&store).unwrap());
    }

    #[test]
    fn any_interval_always_passes() {
        let store = store_with_level(7);
        assert!(Interval::any(&WeightedInt).check(&store).unwrap());
    }

    #[test]
    fn c2_constraint_upper() {
        let store = store_with_level(5); // σ = x + 5
        let weaker = Constraint::unary(WeightedInt, "x", |v| v.as_int().unwrap() as u64);
        // σ ⊑ (x) holds: x + 5 is pointwise worse than x.
        let iv = Interval::level_to_constraint(u64::MAX, weaker);
        assert!(iv.check(&store).unwrap());
        let stronger = Constraint::unary(WeightedInt, "x", |v| 2 * v.as_int().unwrap() as u64 + 9);
        let iv = Interval::level_to_constraint(u64::MAX, stronger);
        assert!(!iv.check(&store).unwrap());
    }

    #[test]
    fn c3_constraint_lower() {
        let store = store_with_level(5); // σ = x + 5
                                         // φ1 ⊑ σ requires φ1 pointwise worse than the store.
        let phi1 = Constraint::unary(WeightedInt, "x", |v| 2 * v.as_int().unwrap() as u64 + 9);
        let iv = Interval::constraint_to_level(phi1, 0u64);
        assert!(iv.check(&store).unwrap());
        let phi_bad = Constraint::unary(WeightedInt, "x", |_| 0u64);
        let iv = Interval::constraint_to_level(phi_bad, 0u64);
        assert!(!iv.check(&store).unwrap());
    }

    #[test]
    fn c4_constraint_bounds() {
        let store = store_with_level(5);
        let worse = Constraint::unary(WeightedInt, "x", |v| 3 * v.as_int().unwrap() as u64 + 9);
        let better = Constraint::unary(WeightedInt, "x", |_| 0u64);
        let iv = Interval::constraints(worse.clone(), better.clone());
        assert!(iv.check(&store).unwrap());
        // Swapped bounds fail the check.
        let iv = Interval::constraints(better, worse);
        assert!(!iv.check(&store).unwrap());
    }

    #[test]
    fn validation_catches_contradictions() {
        let doms = Domains::new().with("x", Domain::ints(0..=10));
        // Weighted: lower 1 hour is *better* than upper 4 hours → invalid.
        let iv: Interval<WeightedInt> = Interval::levels(1u64, 4u64);
        assert!(matches!(
            iv.validate(&WeightedInt, &doms),
            Err(ValidationError::Invalid(_))
        ));
        let ok: Interval<WeightedInt> = Interval::levels(4u64, 1u64);
        assert!(ok.validate(&WeightedInt, &doms).is_ok());
    }
}
