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

use std::fmt::Debug;

use proptest::collection::vec;
use proptest::prelude::*;
use softsoa_core::{Constraint, Domain, Var};
use softsoa_dependability::Attribute;
use softsoa_nmsccp::Interval;
use softsoa_semiring::{Fuzzy, Residuated, Unit, Weight, Weighted};
use softsoa_soa::{
    Broker, NegotiationError, NegotiationRequest, OfferShape, QosDocument, QosOffer, Registry,
    ServiceDescription,
};

/// The negotiation domain is `0..=MAX_X`.
const MAX_X: i64 = 5;
const CELLS: usize = MAX_X as usize + 1;

/// One semiring's view of the raw levels that offers carry.
struct Kind<S: Residuated> {
    semiring: S,
    /// Raw levels the tables draw from (`0` of the semiring included).
    palette: &'static [f64],
    /// The semiring level of a raw level.
    level: fn(f64) -> S::Value,
    translate: fn(&QosOffer) -> Constraint<S>,
}

fn fuzzy() -> Kind<Fuzzy> {
    Kind {
        semiring: Fuzzy,
        palette: &[0.0, 0.25, 0.5, 0.75, 1.0],
        level: Unit::clamped,
        translate: QosOffer::to_fuzzy,
    }
}

fn weighted() -> Kind<Weighted> {
    Kind {
        semiring: Weighted,
        // Costs: 0 is the best level; 64 stands in for a cost too high
        // to accept.
        palette: &[0.0, 1.0, 2.0, 4.0, 64.0],
        level: Weight::saturating,
        translate: QosOffer::to_weighted,
    }
}

impl<S: Residuated> Kind<S>
where
    S::Value: Debug,
{
    fn raw(&self, pick: usize) -> f64 {
        self.palette[pick % self.palette.len()]
    }

    /// The raw level of `a` and `b` that is better in the semiring.
    fn better(&self, a: f64, b: f64) -> f64 {
        if self.semiring.lt(&(self.level)(a), &(self.level)(b)) {
            b
        } else {
            a
        }
    }

    /// The raw table over the domain that `picks` selects.
    fn table(&self, picks: &[usize]) -> Vec<f64> {
        picks.iter().map(|&p| self.raw(p)).collect()
    }

    fn provider(&self, index: usize, table: &[f64]) -> ServiceDescription {
        let id = format!("svc-{index}");
        let points = (0..=MAX_X).zip(table.iter().copied()).collect();
        ServiceDescription::new(
            id.as_str(),
            "acme",
            "compute",
            QosDocument::new(id.as_str()).with_offer(QosOffer {
                attribute: Attribute::Reliability,
                variable: "x".into(),
                shape: OfferShape::Piecewise { points },
            }),
        )
    }

    /// The levels of two palette picks as `(lower, upper)`
    /// thresholds: the worse one first.
    fn bounds(&self, a: usize, b: usize) -> (S::Value, S::Value) {
        let (a, b) = ((self.level)(self.raw(a)), (self.level)(self.raw(b)));
        if self.semiring.lt(&b, &a) {
            (b, a)
        } else {
            (a, b)
        }
    }

    /// The acceptance interval between two palette picks.
    fn interval(&self, a: usize, b: usize) -> Interval<S> {
        let (lower, upper) = self.bounds(a, b);
        Interval::levels(lower, upper)
    }

    /// The agreed level of one uncontended negotiation, `None` for
    /// `NoAgreement`.
    fn agreed(
        &self,
        client: &[f64],
        providers: &[Vec<f64>],
        acceptance: Interval<S>,
    ) -> Option<S::Value> {
        let mut registry = Registry::new();
        for (index, table) in providers.iter().enumerate() {
            registry.publish(self.provider(index, table));
        }
        let client = client.to_vec();
        let level = self.level;
        let request = NegotiationRequest {
            capability: "compute".into(),
            variable: Var::new("x"),
            domain: Domain::ints(0..=MAX_X),
            constraint: Constraint::unary(self.semiring.clone(), "x", move |v| {
                level(client[v.as_int().unwrap() as usize])
            }),
            acceptance,
        };
        match Broker::new(self.semiring.clone(), registry).negotiate(&request, self.translate) {
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
        vec(0usize..64, CELLS),
        vec(vec(0usize..64, CELLS), 1..=3),
        vec(0usize..64, CELLS),
        0usize..64,
    )
}

fn check_raise<S: Residuated>(kind: &Kind<S>, (client, providers, raise, which): Case, floor: usize)
where
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
        .position(|&raw| (kind.level)(raw) == kind.semiring.one());
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

fn check_add<S: Residuated>(
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

fn check_widen<S: Residuated>(
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
