//! Differential tests of the broker's binding against the enumeration
//! oracle.
//!
//! After an agreement the broker binds the negotiation variable to its
//! best value under the agreed store: the projection `σ ⇓ {x}`, read
//! off by scanning the domain ([`Broker::bind`]). That binding must be
//! exactly `Scsp::solve().best().first()` of the single-variable
//! problem — the first non-dominated, non-zero value in domain order,
//! ties included — on totally ordered semirings (fuzzy, weighted,
//! probabilistic) and on a partially ordered product alike, and no
//! binding at all when the store is `0` everywhere.
//!
//! Each case draws a random int domain and two random tables over it
//! (levels from a small palette, so ties and zeros are frequent). The
//! tables are checked twice: as a store handed to `bind` directly, and
//! as the client policy and the lone provider's offer of a full
//! `negotiate` round, whose binding must match the oracle on the
//! problem of both constraints.

use std::collections::BTreeSet;
use std::fmt::Debug;

use proptest::collection::vec;
use proptest::prelude::*;
use softsoa_core::{Assignment, Constraint, Domain, Scsp, Val, Var};
use softsoa_dependability::Attribute;
use softsoa_nmsccp::Interval;
use softsoa_semiring::{
    Fuzzy, Probabilistic, Product, Residuated, Unit, Weight, Weighted, WeightedInt,
};
use softsoa_soa::{
    Broker, NegotiationRequest, OfferShape, QosDocument, QosOffer, Registry, ServiceDescription,
};

/// Table cells per case; the domain has at most this many values.
const CELLS: usize = 8;

/// A random domain plus palette indices for the client and provider
/// tables.
type Case = (Vec<i64>, Vec<usize>, Vec<usize>);

fn case() -> impl Strategy<Value = Case> {
    (
        vec(-6i64..10, 1..=CELLS),
        vec(0usize..64, CELLS),
        vec(0usize..64, CELLS),
    )
}

/// The table over `domain` whose `i`-th value gets
/// `palette[picks[i] % palette.len()]`.
fn table<S: Residuated>(
    semiring: &S,
    x: &Var,
    domain: &Domain,
    palette: &[S::Value],
    picks: &[usize],
) -> Constraint<S> {
    let entries = domain
        .values()
        .iter()
        .zip(picks)
        .map(|(value, pick)| (vec![value.clone()], palette[pick % palette.len()].clone()));
    Constraint::table(
        semiring.clone(),
        std::slice::from_ref(x),
        entries,
        semiring.zero(),
    )
}

/// The oracle's first best binding of `x` under `constraints`.
fn oracle<S: Residuated>(
    semiring: &S,
    x: &Var,
    domain: &Domain,
    constraints: &[&Constraint<S>],
) -> Option<(Assignment, S::Value)> {
    let mut problem = Scsp::new(semiring.clone()).with_domain(x.clone(), domain.clone());
    for c in constraints {
        problem = problem.with_constraint((*c).clone());
    }
    problem
        .of_interest([x.clone()])
        .solve()
        .expect("the problem has every domain")
        .best()
        .first()
        .cloned()
}

/// Checks one case on `semiring` with levels drawn from `palette`.
fn check<S>(semiring: S, palette: &[S::Value], (values, client, provider): Case)
where
    S: Residuated,
    S::Value: Debug,
{
    let x = Var::new("x");
    let domain = Domain::ints(values.iter().copied().collect::<BTreeSet<_>>());
    let client = table(&semiring, &x, &domain, palette, &client);
    let provider = table(&semiring, &x, &domain, palette, &provider);
    let broker = Broker::new(semiring.clone(), Registry::new());

    // The scan on its own, for each table and for a store that is 0
    // everywhere.
    let zero = Constraint::constant(semiring.clone(), semiring.zero());
    for sigma in [&client, &provider, &zero] {
        assert_eq!(
            broker.bind(&x, &domain, sigma),
            oracle(&semiring, &x, &domain, &[sigma]),
            "bind over {:?}",
            domain.values()
        );
    }
    assert_eq!(broker.bind(&x, &domain, &zero), None);

    // A full negotiation: the lone provider's offer translates to the
    // provider table, and the acceptance interval admits every level.
    let mut registry = Registry::new();
    registry.publish(ServiceDescription::new(
        "svc",
        "acme",
        "compute",
        QosDocument::new("svc").with_offer(QosOffer {
            attribute: Attribute::Reliability,
            variable: "x".into(),
            shape: OfferShape::Constant { level: 1.0 },
        }),
    ));
    let request = NegotiationRequest {
        capability: "compute".into(),
        variable: x.clone(),
        domain: domain.clone(),
        constraint: client.clone(),
        acceptance: Interval::any(&semiring),
    };
    let sla = Broker::new(semiring.clone(), registry)
        .negotiate(&request, |_| provider.clone())
        .expect("an unconstrained acceptance always agrees");
    assert_eq!(
        sla.binding,
        oracle(&semiring, &x, &domain, &[&client, &provider]),
        "negotiated binding over {:?}",
        domain.values()
    );
}

fn units(levels: &[f64]) -> Vec<Unit> {
    levels.iter().map(|&l| Unit::new(l).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fuzzy_binding_matches_the_oracle(case in case()) {
        check(Fuzzy, &units(&[0.0, 0.25, 0.5, 0.75, 1.0]), case);
    }

    #[test]
    fn weighted_int_binding_matches_the_oracle(case in case()) {
        check(WeightedInt, &[0, 1, 2, 5, u64::MAX], case);
    }

    #[test]
    fn weighted_binding_matches_the_oracle(case in case()) {
        let palette = [0.0, 1.0, 2.5, 4.0]
            .into_iter()
            .map(|w| Weight::new(w).unwrap())
            .chain([Weight::INFINITY])
            .collect::<Vec<_>>();
        check(Weighted, &palette, case);
    }

    #[test]
    fn probabilistic_binding_matches_the_oracle(case in case()) {
        check(Probabilistic, &units(&[0.0, 0.3, 0.5, 0.9, 1.0]), case);
    }

    #[test]
    fn product_binding_matches_the_oracle(case in case()) {
        // Fuzzy × weighted is partially ordered: (0.5, 1) and (1, 2)
        // are incomparable, so the frontier often has several values
        // and the binding is the first of them in domain order.
        let mut palette = Vec::new();
        for level in units(&[0.0, 0.5, 1.0]) {
            for cost in [0, 1, 2, u64::MAX] {
                palette.push((level, cost));
            }
        }
        check(Product::new(Fuzzy, WeightedInt), &palette, case);
    }
}

#[test]
fn ties_bind_the_first_value_in_domain_order() {
    let x = Var::new("x");
    let domain = Domain::ints([7, -2, 3, 5]);
    let levels = units(&[0.25, 1.0, 0.5, 1.0]);
    // Domain order is sorted: -2, 3, 5, 7 → the tie at 1.0 is between
    // 3 and 7, and 3 comes first.
    let sigma = table(&Fuzzy, &x, &domain, &levels, &[0, 1, 2, 3]);
    let broker = Broker::new(Fuzzy, Registry::new());
    let (eta, level) = broker.bind(&x, &domain, &sigma).unwrap();
    assert_eq!(eta.get(&x), Some(&Val::Int(3)));
    assert_eq!(level, Unit::MAX);
    assert_eq!(Some((eta, level)), oracle(&Fuzzy, &x, &domain, &[&sigma]));
}
