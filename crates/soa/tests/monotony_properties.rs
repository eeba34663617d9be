//! Metamorphic tests of uncontended negotiation: the QoS monotony
//! claims of *Monotony in Service Orchestrations* and *Soft Concurrent
//! Constraint Programming*, executed against [`Broker::negotiate`].
//!
//! - Adding a provider never lowers the agreed level.
//! - Raising one provider's offer never lowers the agreed level, as
//!   long as the client's acceptance interval has no upper threshold
//!   below the top level.
//! - Widening the client's acceptance interval never turns an
//!   agreement into `NoAgreement`.
//!
//! "Lowering" counts an agreement turning into `NoAgreement`. The
//! second property fails by design once the interval has an upper
//! threshold: Fig. 3's checked transitions reject a store *better*
//! than `a₂` ("no solution better than `a₂`"), so a better offer can
//! push the only agreement out of the interval.
//! [`raising_an_offer_past_the_upper_threshold_loses_the_agreement`]
//! pins that counterexample.
//!
//! Each case draws a client policy, providers and intervals as tables
//! over a fixed int domain, with levels from a small palette.

mod common;

use std::fmt::Debug;

use proptest::prelude::*;
use softsoa_nmsccp::Interval;
use softsoa_semiring::Unit;
use softsoa_soa::{Broker, NegotiationError, WireSemiring};

use common::{fuzzy, picks, weighted, Kind, CELLS};

impl<S: WireSemiring> Kind<S>
where
    S::Value: Debug,
{
    /// The raw level of `a` and `b` that is better in the semiring.
    fn better(&self, a: f64, b: f64) -> f64 {
        if self.semiring.lt(&S::level(a), &S::level(b)) {
            b
        } else {
            a
        }
    }

    /// The agreed level of one uncontended negotiation, `None` for
    /// `NoAgreement`.
    fn agreed(
        &self,
        client: &[f64],
        providers: &[Vec<f64>],
        acceptance: Interval<S>,
    ) -> Option<S::Value> {
        let request = self.request(client, acceptance);
        match Broker::new(self.semiring.clone(), self.registry(providers))
            .negotiate(&request, S::translate)
        {
            Ok(sla) => Some(sla.agreed_level),
            Err(NegotiationError::NoAgreement(_)) => None,
            Err(other) => panic!("unexpected negotiation error: {other}"),
        }
    }

    /// `after` is no lower than `before`, `NoAgreement` being lowest.
    fn not_lower(&self, before: &Option<S::Value>, after: &Option<S::Value>) -> bool {
        match (before, after) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(b), Some(a)) => !self.semiring.lt(a, b),
        }
    }
}

/// Client table, provider tables (one to three) and two extra tables
/// of picks for the metamorphic step.
type Case = (Vec<usize>, Vec<Vec<usize>>, Vec<usize>, usize);

fn case() -> impl Strategy<Value = Case> {
    (
        picks(),
        proptest::collection::vec(picks(), 1..=3),
        picks(),
        0usize..64,
    )
}

fn check_raise<S: WireSemiring>(
    kind: &Kind<S>,
    (client, providers, raise, which): Case,
    floor: usize,
) where
    S::Value: Debug,
{
    let client = kind.table(&client);
    let before: Vec<Vec<f64>> = providers.iter().map(|p| kind.table(p)).collect();
    let mut after = before.clone();
    let k = which % after.len();
    for (cell, pick) in after[k].iter_mut().zip(&raise) {
        *cell = kind.better(*cell, kind.raw(*pick));
    }
    // No upper threshold: the top level is the interval's upper bound.
    let top = kind
        .palette
        .iter()
        .position(|&raw| S::level(raw) == kind.semiring.one());
    let acceptance = || kind.interval(floor, top.expect("the palette holds the top level"));
    let (was, is) = (
        kind.agreed(&client, &before, acceptance()),
        kind.agreed(&client, &after, acceptance()),
    );
    assert!(
        kind.not_lower(&was, &is),
        "raising provider {k} lowered the agreement: {was:?} -> {is:?}"
    );
}

fn check_add<S: WireSemiring>(
    kind: &Kind<S>,
    (client, providers, extra, _): Case,
    bounds: (usize, usize),
) where
    S::Value: Debug,
{
    let client = kind.table(&client);
    let before: Vec<Vec<f64>> = providers.iter().map(|p| kind.table(p)).collect();
    let mut after = before.clone();
    after.push(kind.table(&extra));
    let acceptance = || kind.interval(bounds.0, bounds.1);
    let (was, is) = (
        kind.agreed(&client, &before, acceptance()),
        kind.agreed(&client, &after, acceptance()),
    );
    assert!(
        kind.not_lower(&was, &is),
        "adding a provider lowered the agreement: {was:?} -> {is:?}"
    );
}

fn check_widen<S: WireSemiring>(
    kind: &Kind<S>,
    (client, providers, _, _): Case,
    inner: (usize, usize),
    outer: (usize, usize),
) where
    S::Value: Debug,
{
    let client = kind.table(&client);
    let providers: Vec<Vec<f64>> = providers.iter().map(|p| kind.table(p)).collect();
    // Widen each threshold: the worse of the two lower ones, the
    // better of the two upper ones.
    let (lower, upper) = kind.bounds(inner.0, inner.1);
    let (other_lower, other_upper) = kind.bounds(outer.0, outer.1);
    let s = &kind.semiring;
    let wide = Interval::levels(
        if s.lt(&other_lower, &lower) {
            other_lower
        } else {
            lower.clone()
        },
        if s.lt(&upper, &other_upper) {
            other_upper
        } else {
            upper.clone()
        },
    );
    let was = kind.agreed(&client, &providers, Interval::levels(lower, upper));
    let is = kind.agreed(&client, &providers, wide);
    assert!(
        was.is_none() || is.is_some(),
        "widening the interval lost the agreement: {was:?} -> {is:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn raising_an_offer_never_lowers_the_fuzzy_agreement(case in case(), floor in 0usize..64) {
        check_raise(&fuzzy(), case, floor);
    }

    #[test]
    fn raising_an_offer_never_lowers_the_weighted_agreement(case in case(), floor in 0usize..64) {
        check_raise(&weighted(), case, floor);
    }

    #[test]
    fn adding_a_provider_never_lowers_the_fuzzy_agreement(
        case in case(),
        bounds in (0usize..64, 0usize..64),
    ) {
        check_add(&fuzzy(), case, bounds);
    }

    #[test]
    fn adding_a_provider_never_lowers_the_weighted_agreement(
        case in case(),
        bounds in (0usize..64, 0usize..64),
    ) {
        check_add(&weighted(), case, bounds);
    }

    #[test]
    fn widening_acceptance_never_loses_a_fuzzy_agreement(
        case in case(),
        inner in (0usize..64, 0usize..64),
        outer in (0usize..64, 0usize..64),
    ) {
        check_widen(&fuzzy(), case, inner, outer);
    }

    #[test]
    fn widening_acceptance_never_loses_a_weighted_agreement(
        case in case(),
        inner in (0usize..64, 0usize..64),
        outer in (0usize..64, 0usize..64),
    ) {
        check_widen(&weighted(), case, inner, outer);
    }
}

/// The pinned counterexample to "raising an offer never lowers the
/// agreed level" under an upper threshold. The client wants level at
/// least 0.25 but no better than 0.5; the lone provider offers 0.5 and
/// the client's own policy is 1 everywhere. The agreement sits at 0.5.
/// Raising the offer to 0.75 makes the merged store better than the
/// upper threshold, the checked `ask` never fires, and the negotiation
/// fails. This is Fig. 3's semantics, not a defect: the upper
/// threshold says "no solution better than `a₂`".
#[test]
fn raising_an_offer_past_the_upper_threshold_loses_the_agreement() {
    let kind = fuzzy();
    let client = vec![1.0; CELLS];
    let capped = || Interval::levels(Unit::clamped(0.25), Unit::clamped(0.5));
    let before = kind.agreed(&client, &[vec![0.5; CELLS]], capped());
    assert_eq!(before, Some(Unit::clamped(0.5)));
    let after = kind.agreed(&client, &[vec![0.75; CELLS]], capped());
    assert_eq!(
        after, None,
        "the better offer overshoots the upper threshold"
    );
    // Without the upper threshold the same raise is monotone.
    let open = Interval::levels(Unit::clamped(0.25), Unit::MAX);
    assert_eq!(
        kind.agreed(&client, &[vec![0.75; CELLS]], open),
        Some(Unit::clamped(0.75))
    );
}
