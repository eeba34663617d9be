//! Chaos-mode negotiation with a fixed seed (reproducible end to end).
//!
//! Runs the paper's Example 2 negotiation through the broker while a
//! deterministic fault plan — derived from each provider's seeded
//! failure model — drops transitions and retracts told policies
//! mid-session. The resilient runtime answers with retries,
//! checkpoint rollbacks and the relaxation ladder (conceding `c1`,
//! exactly the paper's nonmonotonic step), and the whole report is a
//! pure function of the seed: run this example twice and the output is
//! bit-identical.
//!
//! Run with `cargo run --example chaos_negotiation`.

use softsoa::core::{Constraint, Domain, Var};
use softsoa::nmsccp::Interval;
use softsoa::semiring::{Weight, Weighted};
use softsoa::soa::{
    Broker, ChaosConfig, NegotiationRequest, OfferShape, QosDocument, QosOffer, Registry,
    ServiceDescription, ServiceQuery, WireSemiring,
};
use softsoa_core::solve::SolverConfig;
use softsoa_dependability::Attribute;

const SEED: u64 = 2008;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    negotiation_under_chaos()?;
    println!();
    query_under_blackouts()?;
    Ok(())
}

fn offer(variable: &str, shape: OfferShape) -> QosOffer {
    QosOffer {
        attribute: Attribute::Reliability,
        variable: variable.into(),
        shape,
    }
}

/// Example 2 under chaos: the provider tells `c3 = 2x`; the client
/// tells `c4 = x + 5` and accepts failure-management times between 1
/// and 4 hours. Naively the combined store sits at level 5 — outside
/// the interval — and the session deadlocks; under chaos the runtime
/// additionally loses messages and retracts the provider's policy.
/// Retry plus the `c1` relaxation rung completes the agreement at
/// level 2 anyway.
fn negotiation_under_chaos() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Example 2 under deterministic chaos (seed {SEED}) ==");
    let mut registry = Registry::new();
    registry.publish(ServiceDescription::new(
        "failure-mgmt-1",
        "provider-p",
        "failure-mgmt",
        QosDocument::new("failure-mgmt-1").with_offer(offer(
            "x",
            OfferShape::Linear {
                slope: 2.0,
                intercept: 0.0,
            },
        )),
    ));
    let broker = Broker::new(Weighted, registry);

    let request = NegotiationRequest {
        capability: "failure-mgmt".into(),
        variable: Var::new("x"),
        domain: Domain::ints(0..=10),
        constraint: Constraint::unary(Weighted, "x", |v| {
            Weight::saturating(v.as_int().unwrap() as f64 + 5.0)
        })
        .with_label("c4"),
        acceptance: Interval::levels(Weight::new(4.0)?, Weight::new(1.0)?),
    };
    let relaxations = [Constraint::unary(Weighted, "x", |v| {
        Weight::saturating(v.as_int().unwrap() as f64 + 3.0)
    })
    .with_label("c1")];
    let chaos = ChaosConfig {
        seed: SEED,
        fault_rate: 0.6,
        ..ChaosConfig::default()
    };

    let report = broker.negotiate_resilient(&request, &relaxations, &chaos, Weighted::translate)?;
    for (service, session) in &report.sessions {
        println!("-- session with {service} --");
        for entry in &session.report.trace {
            println!(
                "step {:3}  {:8} {:40} σ⇓∅ = {}",
                entry.step, entry.origin, entry.note, entry.consistency
            );
        }
        println!(
            "   outcome: {} at σ⇓∅ = {}",
            session.report.outcome, session.final_consistency
        );
    }
    println!(
        "faults: {} injected, {} transitions dropped",
        report.faults_injected, report.dropped_transitions
    );
    println!(
        "recovery: {} retries, {} rollbacks, {} relaxations, {} interval violations",
        report.retries, report.rollbacks, report.relaxations_applied, report.invariant_violations
    );
    let sla = report.sla.as_ref().expect("chaos negotiation completes");
    println!(
        "SLA: {} from {} at level {}",
        sla.service, sla.provider, sla.agreed_level
    );
    assert_eq!(sla.agreed_level, Weight::new(2.0)?);
    Ok(())
}

/// A composite query under provider blackouts: with two redundant
/// compute providers and a 40% per-attempt outage probability, retries
/// find an attempt where the stage is coverable.
fn query_under_blackouts() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Composite query under provider blackouts (seed {SEED}) ==");
    let mut registry = Registry::new();
    for (id, level) in [("compute-fast", 1.0), ("compute-slow", 2.0)] {
        registry.publish(ServiceDescription::new(
            id,
            "provider-q",
            "compute",
            QosDocument::new(id).with_offer(offer("x", OfferShape::Constant { level })),
        ));
    }
    let broker = Broker::new(Weighted, registry);
    let query = ServiceQuery {
        stages: vec![softsoa::soa::QueryStage {
            capability: "compute".into(),
            variable: Var::new("x"),
            domain: Domain::ints(0..=1),
            requirement: Constraint::always(Weighted),
        }],
        cross_constraints: vec![],
        min_level: None,
    };
    let chaos: ChaosConfig<Weighted> = ChaosConfig {
        seed: SEED,
        fault_rate: 0.4,
        max_retries: 8,
        ..ChaosConfig::default()
    };
    let report = broker.query_resilient(
        &query,
        &chaos,
        Weighted::translate,
        &SolverConfig::default(),
    )?;
    for (attempt, down) in report.blackouts.iter().enumerate() {
        let names: Vec<&str> = down.iter().map(|id| id.as_str()).collect();
        println!(
            "attempt {}: blacked out [{}]",
            attempt + 1,
            names.join(", ")
        );
    }
    let plan = report.plan.as_ref().expect("some attempt succeeds");
    println!(
        "plan after {} attempt(s): level {} via {:?}",
        report.attempts, plan.level, plan.selections
    );
    Ok(())
}
