//! Property-based tests of the contended allocation objectives.
//!
//! Each case builds a random contention instance — capacity-limited
//! flat providers and clients with random acceptance floors — and
//! allocates it on a *fresh* broker, so every per-client effective
//! utility is simply the granted softness (no ledger history). Within
//! [`MAX_EXACT_CLIENTS`] the allocator is exact, which turns the
//! objectives into checkable global statements: leximin maximises the
//! worst-off client, Nash maximises the proportional-fair product, and
//! the utilitarian objective maximises total softness — each at least
//! matching whatever the FCFS baseline achieves.

use proptest::prelude::*;

use softsoa::core::{Constraint, Domain, Var};
use softsoa::nmsccp::Interval;
use softsoa::semiring::{Fuzzy, Unit};
use softsoa::soa::server::protocol::WireSemiring;
use softsoa::soa::{
    Broker, ContendedRequest, ContentionOutcome, Fairness, NegotiationRequest, OfferShape,
    QosDocument, QosOffer, Registry, ServiceDescription, MAX_EXACT_CLIENTS,
};
use softsoa_dependability::Attribute;

/// A random contention instance: flat providers `(level, slots)` and
/// per-client acceptance floors.
#[derive(Debug, Clone)]
struct Instance {
    providers: Vec<(f64, u32)>,
    floors: Vec<f64>,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec((30u32..95, 1u32..3), 1..4),
        proptest::collection::vec(0u32..75, 2..MAX_EXACT_CLIENTS),
    )
        .prop_map(|(providers, floors)| Instance {
            providers: providers
                .into_iter()
                .map(|(level, slots)| (f64::from(level) / 100.0, slots))
                .collect(),
            floors: floors.into_iter().map(|f| f64::from(f) / 100.0).collect(),
        })
}

fn registry(instance: &Instance) -> Registry {
    let mut registry = Registry::new();
    for (p, (level, slots)) in instance.providers.iter().enumerate() {
        let service = format!("svc-{p:02}");
        registry.publish(
            ServiceDescription::new(
                service.as_str(),
                format!("provider-{p:02}"),
                "compute",
                QosDocument::new(&service).with_offer(QosOffer {
                    attribute: Attribute::Reliability,
                    variable: "x".into(),
                    shape: OfferShape::Constant { level: *level },
                }),
            )
            .with_capacity(*slots),
        );
    }
    registry
}

fn batch(instance: &Instance) -> Vec<ContendedRequest<Fuzzy>> {
    instance
        .floors
        .iter()
        .enumerate()
        .map(|(i, floor)| ContendedRequest {
            client: format!("client-{i:02}"),
            request: NegotiationRequest {
                capability: "compute".into(),
                variable: Var::new("x"),
                domain: Domain::ints(1..=9),
                constraint: Constraint::always(Fuzzy),
                acceptance: Interval::levels(Unit::clamped(*floor), Unit::MAX),
            },
        })
        .collect()
}

/// Allocates the instance under `fairness` on a fresh broker and
/// returns the per-client utility vector (granted softness, 0 when
/// denied) in batch order.
fn allocate(instance: &Instance, fairness: Fairness) -> Vec<f64> {
    let broker = Broker::new(Fuzzy, registry(instance));
    let allocation = broker.negotiate_contended(&batch(instance), fairness, Fuzzy::translate);
    allocation
        .outcomes
        .iter()
        .map(|(_, outcome)| match outcome {
            ContentionOutcome::Granted(sla) => Fuzzy::softness(&sla.agreed_level),
            _ => 0.0,
        })
        .collect()
}

fn min_utility(utilities: &[f64]) -> f64 {
    utilities.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The Nash objective the allocator maximises: `Π (1 + e_i) / 2`.
fn nash_product(utilities: &[f64]) -> f64 {
    utilities.iter().map(|e| (1.0 + e) / 2.0).product()
}

const EPS: f64 = 1e-9;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The FCFS baseline never Pareto-dominates the leximin
    /// allocation: arrival-order greed cannot make someone better off
    /// without making someone else worse off than leximin does.
    #[test]
    fn fcfs_never_pareto_dominates_leximin(instance in instance_strategy()) {
        let leximin = allocate(&instance, Fairness::Leximin);
        let fcfs = allocate(&instance, Fairness::Fcfs);
        let weakly_better = leximin
            .iter()
            .zip(&fcfs)
            .all(|(l, f)| f + EPS >= *l);
        let strictly_better = leximin
            .iter()
            .zip(&fcfs)
            .any(|(l, f)| *f > l + EPS);
        prop_assert!(
            !(weakly_better && strictly_better),
            "fcfs {fcfs:?} Pareto-dominates leximin {leximin:?}"
        );
    }

    /// Exact leximin maximises the worst-off client: its minimum
    /// utility is at least the FCFS baseline's minimum.
    #[test]
    fn leximin_min_utility_at_least_fcfs(instance in instance_strategy()) {
        let leximin = allocate(&instance, Fairness::Leximin);
        let fcfs = allocate(&instance, Fairness::Fcfs);
        prop_assert!(
            min_utility(&leximin) + EPS >= min_utility(&fcfs),
            "leximin {leximin:?} has a worse floor than fcfs {fcfs:?}"
        );
    }

    /// The exact Nash allocation globally maximises the
    /// proportional-fair product, so every other objective's
    /// allocation — a feasible point of the same instance — scores no
    /// higher. In particular no single-client deviation reachable
    /// through another objective beats it.
    #[test]
    fn nash_product_is_maximal(instance in instance_strategy()) {
        let nash = nash_product(&allocate(&instance, Fairness::Nash));
        for other in [Fairness::Fcfs, Fairness::Leximin, Fairness::Utilitarian] {
            let rival = nash_product(&allocate(&instance, other));
            prop_assert!(
                nash + EPS >= rival,
                "{other} scores {rival} over nash {nash}"
            );
        }
    }

    /// The exact utilitarian allocation maximises total softness.
    #[test]
    fn utilitarian_sum_is_maximal(instance in instance_strategy()) {
        let sum = allocate(&instance, Fairness::Utilitarian).iter().sum::<f64>();
        for other in [Fairness::Fcfs, Fairness::Leximin, Fairness::Nash] {
            let rival = allocate(&instance, other).iter().sum::<f64>();
            prop_assert!(
                sum + EPS >= rival,
                "{other} sums {rival} over utilitarian {sum}"
            );
        }
    }

    /// No objective ever grants a service beyond its declared
    /// capacity, and every granted agreement clears its client's
    /// acceptance floor.
    #[test]
    fn capacity_and_acceptance_are_respected(instance in instance_strategy()) {
        for fairness in [
            Fairness::Fcfs,
            Fairness::Utilitarian,
            Fairness::Leximin,
            Fairness::Nash,
        ] {
            let broker = Broker::new(Fuzzy, registry(&instance));
            let allocation =
                broker.negotiate_contended(&batch(&instance), fairness, Fuzzy::translate);
            let mut grants = std::collections::BTreeMap::new();
            for (client, outcome) in &allocation.outcomes {
                if let ContentionOutcome::Granted(sla) = outcome {
                    *grants.entry(sla.service.clone()).or_insert(0u32) += 1;
                    let index: usize = client["client-".len()..].parse().unwrap();
                    prop_assert!(
                        Fuzzy::softness(&sla.agreed_level) + EPS >= instance.floors[index],
                        "{client} granted below its floor"
                    );
                }
            }
            for (service, granted) in grants {
                let slots = instance.providers
                    [service.as_str()["svc-".len()..].parse::<usize>().unwrap()]
                .1;
                prop_assert!(
                    granted <= slots,
                    "{fairness}: {} granted {granted} of {slots} slots",
                    service.as_str()
                );
            }
        }
    }
}
