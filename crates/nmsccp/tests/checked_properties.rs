//! The checked transitions C1–C4 of Fig. 3 as single-transition
//! properties of [`Interval::check`].
//!
//! Each case draws a random store (one or two int variables, one or
//! two tells of random tables, weighted and fuzzy levels) and random
//! thresholds: levels from the palette and constraint tables over the
//! same variables. `check` must agree with the definitions, evaluated
//! independently of the store:
//!
//! - C1 `→^{a₂}_{a₁}`: `a₁ ≤ σ⇓∅ ≤ a₂`;
//! - C2 `→^{φ₂}_{a₁}`: `a₁ ≤ σ⇓∅` and `σ ⊑ φ₂`;
//! - C3 `→^{a₂}_{φ₁}`: `φ₁ ⊑ σ` and `σ⇓∅ ≤ a₂`;
//! - C4 `→^{φ₂}_{φ₁}`: `φ₁ ⊑ σ ⊑ φ₂`;
//!
//! where `σ⇓∅` is the blevel the enumeration oracle computes for the
//! problem `{σ}` with `con = ∅`, and `⊑` is compared pointwise over
//! every assignment of the store's variables. An interval whose lower
//! threshold is strictly better than its upper one must be rejected
//! by [`Interval::validate`] with an [`InvalidIntervalError`], and an
//! interval that some store passes is never rejected.

mod common;

use std::fmt::Debug;

use common::{level, picks, pointwise_leq, table, units, Picks};
use proptest::collection::vec;
use proptest::prelude::*;
use softsoa_core::{Constraint, Domain, Domains, Var};
use softsoa_nmsccp::{Interval, InvalidIntervalError, Store, ValidationError};
use softsoa_semiring::{Fuzzy, Residuated, WeightedInt};

/// The variable count (1–2) and domain spans, the store's tells, two
/// level picks and two constraint thresholds.
type Case = (
    usize,
    (i64, i64),
    Vec<Picks>,
    (usize, usize),
    (Picks, Picks),
);

fn case() -> impl Strategy<Value = Case> {
    (
        1usize..=2,
        (0i64..3, 0i64..3),
        vec(picks(), 1..=2),
        (0usize..64, 0usize..64),
        (picks(), picks()),
    )
}

fn is_invalid<S: Residuated>(iv: &Interval<S>, semiring: &S, domains: &Domains) -> bool {
    match iv.validate(semiring, domains) {
        Ok(()) => false,
        Err(ValidationError::Invalid(InvalidIntervalError { .. })) => true,
        Err(e) => panic!("unexpected validation error: {e}"),
    }
}

/// Checks C1–C4 and their side conditions on one case.
fn check<S>(semiring: S, palette: &[S::Value], case: Case)
where
    S: Residuated,
    S::Value: Debug,
{
    let (count, (span_x, span_y), tells, (p1, p2), (phi1, phi2)) = case;
    let vars: Vec<Var> = ["x", "y"][..count].iter().map(|&v| Var::new(v)).collect();
    let domains = Domains::new()
        .with("x", Domain::ints(0..=span_x))
        .with("y", Domain::ints(0..=span_y));
    let mut store = Store::empty(semiring.clone(), domains.clone());
    for t in &tells {
        store = store
            .tell(&table(&semiring, palette, &domains, &vars, t))
            .unwrap();
    }
    let sigma = store.sigma().clone();
    let a1 = palette[p1 % palette.len()].clone();
    let a2 = palette[p2 % palette.len()].clone();
    let phi1 = table(&semiring, palette, &domains, &vars, &phi1);
    let phi2 = table(&semiring, palette, &domains, &vars, &phi2);

    let lvl = level(&sigma, &domains);
    let leq = |a: &S::Value, b: &S::Value| semiring.leq(a, b);
    let below = |c: &Constraint<S>| pointwise_leq(&sigma, c, &domains, &vars);
    let above = |c: &Constraint<S>| pointwise_leq(c, &sigma, &domains, &vars);

    // (interval, what `check` must say, whether `validate` must reject)
    let cases = [
        (
            Interval::levels(a1.clone(), a2.clone()),
            leq(&a1, &lvl) && leq(&lvl, &a2),
            semiring.lt(&a2, &a1),
        ),
        (
            Interval::level_to_constraint(a1.clone(), phi2.clone()),
            leq(&a1, &lvl) && below(&phi2),
            semiring.lt(&level(&phi2, &domains), &a1),
        ),
        (
            Interval::constraint_to_level(phi1.clone(), a2.clone()),
            above(&phi1) && leq(&lvl, &a2),
            semiring.lt(&a2, &level(&phi1, &domains)),
        ),
        (
            Interval::constraints(phi1.clone(), phi2.clone()),
            above(&phi1) && below(&phi2),
            !pointwise_leq(&phi1, &phi2, &domains, &vars),
        ),
    ];
    for (i, (iv, holds, invalid)) in cases.iter().enumerate() {
        let c = i + 1;
        assert_eq!(iv.check(&store).unwrap(), *holds, "C{c} on σ⇓∅ = {lvl:?}");
        assert_eq!(
            is_invalid(iv, &semiring, &domains),
            *invalid,
            "C{c} validate"
        );
        // A store inside the interval witnesses that it is not
        // contradictory.
        assert!(
            !(*holds && *invalid),
            "C{c}: a passing interval was rejected"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn weighted_int_checks_follow_c1_to_c4(case in case()) {
        check(WeightedInt, &[0, 1, 2, 3, 5, 8, u64::MAX], case);
    }

    #[test]
    fn fuzzy_checks_follow_c1_to_c4(case in case()) {
        check(Fuzzy, &units(&[0.0, 0.25, 0.5, 0.75, 1.0]), case);
    }
}

#[test]
fn a_lower_threshold_better_than_the_upper_is_rejected() {
    // Weighted: 1 hour is strictly better than 4 hours.
    let doms = Domains::new().with("x", Domain::ints(0..=3));
    let cost =
        |k: u64| Constraint::unary(WeightedInt, "x", move |v| v.as_int().unwrap() as u64 + k);
    let rejected: [Interval<WeightedInt>; 4] = [
        Interval::levels(1u64, 4u64),
        Interval::level_to_constraint(1, cost(4)),
        Interval::constraint_to_level(cost(1), 4),
        Interval::constraints(cost(1), cost(4)),
    ];
    for iv in &rejected {
        assert!(is_invalid(iv, &WeightedInt, &doms), "{iv:?}");
    }
}
