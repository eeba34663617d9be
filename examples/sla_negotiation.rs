//! SLA negotiation through the QoS broker (Secs. 4 and 4.1).
//!
//! Reproduces, end to end:
//!
//! - the fuzzy agreement of Fig. 5 (client and provider preference
//!   curves intersecting at level 0.5);
//! - the three nmsccp negotiation scenarios of Sec. 4.1 (tell /
//!   retract / update), written in the textual agent syntax.
//!
//! Run with `cargo run --example sla_negotiation`.

use softsoa::core::{Constraint, Domain, Domains, Var};
use softsoa::nmsccp::{
    parse_agent, Interpreter, Interval, Outcome, ParseEnv, Policy, Program, Store,
};
use softsoa::semiring::{Fuzzy, Unit, WeightedInt};
use softsoa::soa::{
    Broker, NegotiationRequest, OfferShape, QosDocument, QosOffer, Registry, ServiceDescription,
    WireSemiring,
};
use softsoa_dependability::Attribute;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    fig5_fuzzy_agreement()?;
    println!();
    sec41_negotiation_examples()?;
    Ok(())
}

/// Fig. 5: a provider and a client negotiate over a resource amount
/// `x ∈ [1, 9]`; the agreed level is the max-min intersection, 0.5.
fn fig5_fuzzy_agreement() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Fig. 5: fuzzy agreement through the broker ==");
    let mut registry = Registry::new();
    registry.publish(ServiceDescription::new(
        "web-service-1",
        "provider-p",
        "web-service",
        QosDocument::new("web-service-1").with_offer(QosOffer {
            attribute: Attribute::Reliability,
            variable: "x".into(),
            // Provider preference falls as the client asks for more.
            shape: OfferShape::Piecewise {
                points: vec![(1, 1.0), (9, 0.0)],
            },
        }),
    ));

    let request = NegotiationRequest {
        capability: "web-service".into(),
        variable: Var::new("x"),
        domain: Domain::ints(1..=9),
        constraint: Constraint::unary(Fuzzy, "x", |v| {
            Unit::clamped((v.as_int().unwrap() as f64 - 1.0) / 8.0)
        }),
        acceptance: Interval::levels(Unit::new(0.3)?, Unit::MAX),
    };

    let broker = Broker::new(Fuzzy, registry);
    let sla = broker.negotiate(&request, Fuzzy::translate)?;
    println!("  agreement with {} ({})", sla.service, sla.provider);
    println!("  agreed level (σ⇓∅): {}", sla.agreed_level);
    if let Some((eta, level)) = &sla.binding {
        println!("  binding: {eta} at level {level}");
    }
    Ok(())
}

/// The Sec. 4.1 examples, written in the nmsccp textual syntax. `x` is
/// the number of failures to absorb; levels are hours spent recovering.
fn sec41_negotiation_examples() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Sec. 4.1: nmsccp negotiation examples (weighted) ==");
    let lin = |a: u64, b: u64| {
        Constraint::unary(WeightedInt, "x", move |v| {
            a * v.as_int().unwrap() as u64 + b
        })
    };
    let env = ParseEnv::new(WeightedInt)
        .with_constraint("c1", lin(1, 3)) // x + 3
        .with_constraint("c3", lin(2, 0)) // 2x
        .with_constraint("c4", lin(1, 5)) // x + 5
        .with_constraint(
            "c2",
            Constraint::unary(WeightedInt, "y", |v| v.as_int().unwrap() as u64 + 1),
        )
        .with_constraint("one", Constraint::always(WeightedInt))
        .with_level("two", 2u64)
        .with_level("four", 4u64)
        .with_level("ten", 10u64);
    let doms = Domains::new()
        .with("x", Domain::ints(0..=10))
        .with("y", Domain::ints(0..=10));

    let run = |label: &str, text: &str| -> Result<(), Box<dyn std::error::Error>> {
        let agent = parse_agent(text, &env)?;
        let report = Interpreter::new(Program::new())
            .with_policy(Policy::Random(3))
            .run(agent, Store::empty(WeightedInt, doms.clone()))?;
        match &report.outcome {
            Outcome::Success { store } => println!(
                "  {label}: SUCCESS, σ⇓∅ = {} hours ({} steps)",
                store.consistency()?,
                report.steps
            ),
            Outcome::Deadlock { store, .. } => println!(
                "  {label}: NO AGREEMENT (deadlock), σ⇓∅ = {} hours",
                store.consistency()?
            ),
            Outcome::OutOfFuel { .. } => println!("  {label}: out of fuel"),
            Outcome::DeadlineExceeded { store, .. } => println!(
                "  {label}: DEADLINE EXCEEDED, best σ⇓∅ = {} hours",
                store.consistency()?
            ),
        }
        Ok(())
    };

    // Example 1: both providers present their policy; P2 demands an
    // agreement between 1 and 4 hours, but c4 ⊗ c3 needs 5 even with
    // zero failures → no shared agreement.
    run(
        "Example 1 (tell)   ",
        "tell(c4) success || tell(c3) ask(one) ->[four, two] success",
    )?;

    // Example 2: P1 relaxes its policy by retracting c1 (never told —
    // a partial removal), leaving 2x + 2 → both succeed at level 2.
    run(
        "Example 2 (retract)",
        "tell(c4) retract(c1) ->[ten, two] success || tell(c3) ask(one) ->[four, two] success",
    )?;

    // Example 3: update{x}(c2) refreshes x; the store becomes y + 4,
    // depending only on the number of reboots y.
    run("Example 3 (update) ", "tell(c1) update{x}(c2) success")?;

    Ok(())
}
