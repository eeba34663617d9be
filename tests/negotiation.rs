//! Integration tests of the broker negotiation protocol, service
//! composition, monitoring and failure injection.

use softsoa::core::{Constraint, Domain, Var};
use softsoa::nmsccp::Interval;
use softsoa::semiring::{Fuzzy, Probabilistic, Unit, Weight, Weighted};
use softsoa::soa::{
    Broker, NegotiationError, NegotiationRequest, OfferShape, QosDocument, QosOffer, Registry,
    ServiceDescription, ServiceId, SimConfig, SimService, SlaMonitor, WireSemiring,
};
use softsoa_dependability::Attribute;

fn reliability_offer(variable: &str, shape: OfferShape) -> QosOffer {
    QosOffer {
        attribute: Attribute::Reliability,
        variable: variable.into(),
        shape,
    }
}

fn provider(id: &str, capability: &str, variable: &str, shape: OfferShape) -> ServiceDescription {
    ServiceDescription::new(
        id,
        "acme",
        capability,
        QosDocument::new(id).with_offer(reliability_offer(variable, shape)),
    )
}

fn fuzzy_request(floor: f64) -> NegotiationRequest<Fuzzy> {
    NegotiationRequest {
        capability: "filter".into(),
        variable: Var::new("x"),
        domain: Domain::ints(0..=10),
        constraint: Constraint::unary(Fuzzy, "x", |v| {
            Unit::clamped(v.as_int().unwrap() as f64 / 10.0)
        }),
        acceptance: Interval::levels(Unit::clamped(floor), Unit::MAX),
    }
}

#[test]
fn broker_selects_among_many_providers() {
    let mut registry = Registry::new();
    for (id, peak) in [("p1", 0.4), ("p2", 0.9), ("p3", 0.6)] {
        registry.publish(provider(
            id,
            "filter",
            "x",
            OfferShape::Constant { level: peak },
        ));
    }
    let broker = Broker::new(Fuzzy, registry);
    let slas = broker
        .negotiate_all(&fuzzy_request(0.0), Fuzzy::translate)
        .unwrap();
    assert_eq!(slas.len(), 3);
    let best = broker
        .negotiate(&fuzzy_request(0.0), Fuzzy::translate)
        .unwrap();
    assert_eq!(best.service, ServiceId::new("p2"));
    assert_eq!(best.agreed_level, Unit::clamped(0.9));
}

#[test]
fn acceptance_floor_filters_agreements() {
    let mut registry = Registry::new();
    registry.publish(provider(
        "weak",
        "filter",
        "x",
        OfferShape::Constant { level: 0.3 },
    ));
    registry.publish(provider(
        "strong",
        "filter",
        "x",
        OfferShape::Constant { level: 0.7 },
    ));
    let broker = Broker::new(Fuzzy, registry);
    // Floor 0.5: only "strong" passes.
    let slas = broker
        .negotiate_all(&fuzzy_request(0.5), Fuzzy::translate)
        .unwrap();
    assert_eq!(slas.len(), 1);
    assert_eq!(slas[0].service, ServiceId::new("strong"));
    // Floor 0.8: nobody passes.
    let err = broker
        .negotiate(&fuzzy_request(0.8), Fuzzy::translate)
        .unwrap_err();
    assert!(matches!(err, NegotiationError::NoAgreement(_)));
}

#[test]
fn failure_injection_deregistering_the_only_provider() {
    let mut registry = Registry::new();
    registry.publish(provider(
        "only",
        "filter",
        "x",
        OfferShape::Constant { level: 0.9 },
    ));
    let mut broker = Broker::new(Fuzzy, registry);
    assert!(broker
        .negotiate(&fuzzy_request(0.0), Fuzzy::translate)
        .is_ok());
    // The provider goes away (simulated crash): rediscovery fails.
    broker.registry_mut().deregister(&ServiceId::new("only"));
    let err = broker
        .negotiate(&fuzzy_request(0.0), Fuzzy::translate)
        .unwrap_err();
    assert!(matches!(err, NegotiationError::NoProvider(_)));
}

#[test]
fn weighted_negotiation_with_linear_policies() {
    // The paper's Sec. 4.1 setting through the broker: x failures to
    // absorb, hours as cost; provider charges 2x, client x + 3.
    let mut registry = Registry::new();
    registry.publish(provider(
        "recovery",
        "failure-mgmt",
        "x",
        OfferShape::Linear {
            slope: 2.0,
            intercept: 0.0,
        },
    ));
    let request = NegotiationRequest {
        capability: "failure-mgmt".into(),
        variable: Var::new("x"),
        domain: Domain::ints(0..=10),
        constraint: Constraint::unary(Weighted, "x", |v| {
            Weight::saturating(v.as_int().unwrap() as f64 + 3.0)
        }),
        acceptance: Interval::levels(Weight::new(10.0).unwrap(), Weight::ZERO),
    };
    let sla = Broker::new(Weighted, registry)
        .negotiate(&request, Weighted::translate)
        .unwrap();
    // σ = 3x + 3, best at x = 0 → 3 hours.
    assert_eq!(sla.agreed_level, Weight::new(3.0).unwrap());
}

#[test]
fn composition_aggregates_reliability_across_stages() {
    let mut registry = Registry::new();
    registry.publish(provider(
        "red",
        "red-filter",
        "r",
        OfferShape::Constant { level: 0.9 },
    ));
    registry.publish(provider(
        "bw",
        "bw-filter",
        "b",
        OfferShape::Constant { level: 0.96 },
    ));
    registry.publish(provider(
        "comp",
        "compression",
        "c",
        OfferShape::Constant { level: 0.99 },
    ));
    let stage = |capability: &str, var: &str| NegotiationRequest {
        capability: capability.into(),
        variable: Var::new(var),
        domain: Domain::ints(0..=1),
        constraint: Constraint::always(Probabilistic),
        acceptance: Interval::any(&Probabilistic),
    };
    let broker = Broker::new(Probabilistic, registry);
    let composition = broker
        .compose(
            &[
                stage("red-filter", "r"),
                stage("bw-filter", "b"),
                stage("compression", "c"),
            ],
            Probabilistic::translate,
        )
        .unwrap();
    let expected = 0.9 * 0.96 * 0.99;
    assert!((composition.end_to_end_level.get() - expected).abs() < 1e-12);
    assert_eq!(composition.slas.len(), 3);
    // The composed interface at ∅ is the end-to-end level.
    let iface = composition.interface(&[]).unwrap();
    assert_eq!(
        iface.eval(&softsoa::core::Assignment::new()),
        composition.end_to_end_level
    );
}

#[test]
fn monitoring_detects_sla_violations_of_a_negotiated_binding() {
    let mut registry = Registry::new();
    registry.publish(provider(
        "svc",
        "filter",
        "x",
        OfferShape::Constant { level: 0.95 },
    ));
    let broker = Broker::new(Probabilistic, registry);
    let request = NegotiationRequest {
        capability: "filter".into(),
        variable: Var::new("x"),
        domain: Domain::ints(0..=1),
        constraint: Constraint::always(Probabilistic),
        acceptance: Interval::any(&Probabilistic),
    };
    let sla = broker
        .negotiate(&request, Probabilistic::translate)
        .unwrap();
    assert_eq!(sla.agreed_level, Unit::clamped(0.95));

    // An honest service passes the monitor...
    let mut honest = SimService::new(SimConfig {
        reliability: 0.95,
        seed: 5,
        ..Default::default()
    });
    let report = SlaMonitor::default().observe(&mut honest, sla.agreed_level);
    assert!(!report.violated);

    // ...a dishonest one is flagged.
    let mut dishonest = SimService::new(SimConfig {
        reliability: 0.70,
        seed: 5,
        ..Default::default()
    });
    let report = SlaMonitor::default().observe(&mut dishonest, sla.agreed_level);
    assert!(report.violated);
}

#[test]
fn negotiate_compose_orchestrate_end_to_end() {
    use softsoa::soa::{Orchestrator, SimConfig};

    // 1. Negotiate a two-stage composition...
    let mut registry = Registry::new();
    registry.publish(provider(
        "red",
        "red-filter",
        "r",
        OfferShape::Constant { level: 0.95 },
    ));
    registry.publish(provider(
        "bw",
        "bw-filter",
        "b",
        OfferShape::Constant { level: 0.99 },
    ));
    let stage = |capability: &str, var: &str| NegotiationRequest {
        capability: capability.into(),
        variable: Var::new(var),
        domain: Domain::ints(0..=1),
        constraint: Constraint::always(Probabilistic),
        acceptance: Interval::any(&Probabilistic),
    };
    let broker = Broker::new(Probabilistic, registry);
    let composition = broker
        .compose(
            &[stage("red-filter", "r"), stage("bw-filter", "b")],
            Probabilistic::translate,
        )
        .unwrap();

    // 2. ...deploy it: the red filter under-delivers at runtime.
    let mut orch = Orchestrator::new(0)
        .with_stage(
            composition.slas[0].service.clone(),
            SimConfig {
                reliability: 0.80,
                seed: 21,
                ..Default::default()
            },
        )
        .with_stage(
            composition.slas[1].service.clone(),
            SimConfig {
                reliability: 0.99,
                seed: 22,
                ..Default::default()
            },
        );
    let report = orch.run_workload(4_000);

    // 3. The measured end-to-end reliability falls short of the agreed
    // composition level, and the verdicts blame exactly the red filter.
    assert!(report.end_to_end_reliability < composition.end_to_end_level.get());
    let verdicts =
        Orchestrator::check_slas(&report, &composition.slas, |sla| sla.agreed_level, 0.02);
    assert_eq!(verdicts.len(), 2);
    assert!(verdicts[0].violated, "red filter must be flagged");
    assert!(!verdicts[1].violated, "bw filter is honest");
}

#[test]
fn qos_documents_roundtrip_through_the_wire_format() {
    let doc = QosDocument::new("svc")
        .with_offer(reliability_offer(
            "x",
            OfferShape::Linear {
                slope: 0.05,
                intercept: 0.8,
            },
        ))
        .with_offer(QosOffer {
            attribute: Attribute::Availability,
            variable: "slots".into(),
            shape: OfferShape::Range { min: 1, max: 8 },
        });
    let json = doc.to_json().unwrap();
    assert_eq!(QosDocument::from_json(&json).unwrap(), doc);
}

#[test]
fn relaxation_retract_never_worsens_the_agreement() {
    // R7 `retract` driven through the broker: a client concession
    // (dividing out part of its policy) is nonmonotonic removal, and
    // the resulting agreement level must never be worse than the one
    // the un-relaxed policy achieved.
    let mut registry = Registry::new();
    registry.publish(provider(
        "svc",
        "filter",
        "x",
        OfferShape::Constant { level: 0.8 },
    ));
    let broker = Broker::new(Fuzzy, registry);

    // The client's policy is its base preference capped at 0.3 — too
    // strict for a 0.5 acceptance floor.
    let cap = Constraint::unary(Fuzzy, "x", |_| Unit::clamped(0.3));
    let mut strict = fuzzy_request(0.5);
    strict.constraint = strict.constraint.combine(&cap);

    let err = broker.negotiate(&strict, Fuzzy::translate).unwrap_err();
    assert!(matches!(err, NegotiationError::NoAgreement(_)));

    // The level the strict policy actually achieves (floor dropped).
    let mut strict_any = strict.clone();
    strict_any.acceptance = Interval::levels(Unit::MIN, Unit::MAX);
    let strict_level = broker
        .negotiate(&strict_any, Fuzzy::translate)
        .unwrap()
        .agreed_level;

    // One concession — retracting the cap — turns the rejection into
    // an agreement inside the interval, and cannot worsen the level.
    let (sla, concessions) = broker
        .negotiate_with_relaxation(&strict, &[cap], Fuzzy::translate)
        .unwrap();
    assert_eq!(concessions, 1);
    assert!(sla.agreed_level >= Unit::clamped(0.5), "interval check");
    assert!(
        sla.agreed_level >= strict_level,
        "retract must never worsen: {:?} vs {:?}",
        sla.agreed_level,
        strict_level
    );
}

#[test]
fn qos_republication_updates_bindings_across_epochs() {
    // R8 `update` driven through the broker: a provider re-publishes
    // its QoS document, the epoch-versioned registry publishes the new
    // snapshot atomically, and the next binding scans the new offer —
    // while readers holding the old snapshot keep seeing the old epoch.
    let mut registry = Registry::new();
    registry.publish(provider(
        "svc",
        "filter",
        "x",
        OfferShape::Constant { level: 0.6 },
    ));
    let mut broker = Broker::new(Fuzzy, registry);

    let before = broker
        .negotiate(&fuzzy_request(0.5), Fuzzy::translate)
        .unwrap();
    assert_eq!(before.agreed_level, Unit::clamped(0.6));

    let stale = broker.registry();
    // Upgrade: same service id, better constant offer.
    broker.registry_mut().publish(provider(
        "svc",
        "filter",
        "x",
        OfferShape::Constant { level: 0.9 },
    ));
    assert!(
        stale.epoch() < broker.registry().epoch(),
        "re-publication must bump the registry epoch"
    );

    let after = broker
        .negotiate(&fuzzy_request(0.5), Fuzzy::translate)
        .unwrap();
    assert_eq!(after.agreed_level, Unit::clamped(0.9));
    assert!(after.agreed_level >= before.agreed_level);

    // Downgrade below the floor: the interval check must now reject.
    broker.registry_mut().publish(provider(
        "svc",
        "filter",
        "x",
        OfferShape::Constant { level: 0.2 },
    ));
    let err = broker
        .negotiate(&fuzzy_request(0.5), Fuzzy::translate)
        .unwrap_err();
    assert!(matches!(err, NegotiationError::NoAgreement(_)));
}
