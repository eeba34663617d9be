//! The SOA query engine: composite-service queries answered by the
//! constraint solver (the paper's Sec. 8 future work, built).
//!
//! A travel-photo workflow needs three stages — storage, a filter and
//! a delivery CDN — under a *total monthly budget*. Greedy per-stage
//! selection overruns the budget; compiling the whole query into one
//! SCSP lets the solver trade stages off against each other.
//!
//! Run with `cargo run --example service_query`.

use softsoa::core::{vars, Constraint, Domain, Var};
use softsoa::semiring::{Weight, Weighted};
use softsoa::soa::{
    Broker, OfferShape, QosDocument, QosOffer, QueryStage, Registry, ServiceDescription,
    ServiceQuery, WireSemiring,
};
use softsoa_dependability::Attribute;

fn publish(
    registry: &mut Registry,
    id: &str,
    capability: &str,
    variable: &str,
    slope: f64,
    intercept: f64,
) {
    registry.publish(ServiceDescription::new(
        id,
        format!("{id}-org").as_str(),
        capability,
        QosDocument::new(id).with_offer(QosOffer {
            attribute: Attribute::Availability,
            variable: variable.into(),
            // cost(€/month) = slope · tier + intercept
            shape: OfferShape::Linear { slope, intercept },
        }),
    ));
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut registry = Registry::new();
    // Two providers per stage with different pricing curves over the
    // service tier (0 = basic, 1 = standard, 2 = premium).
    publish(&mut registry, "store-a", "storage", "s", 4.0, 2.0);
    publish(&mut registry, "store-b", "storage", "s", 1.0, 5.0);
    publish(&mut registry, "filter-a", "filter", "f", 6.0, 1.0);
    publish(&mut registry, "filter-b", "filter", "f", 2.0, 4.0);
    publish(&mut registry, "cdn-a", "delivery", "d", 3.0, 3.0);
    publish(&mut registry, "cdn-b", "delivery", "d", 8.0, 0.0);

    let broker = Broker::new(Weighted, registry);
    let tier_domain = Domain::ints(0..=2);

    // The client wants at least standard storage and at least basic+1
    // total quality across filter and delivery.
    let quality_floor = Constraint::crisp(Weighted, &vars(["f", "d"]), |v| {
        v[0].as_int().unwrap() + v[1].as_int().unwrap() >= 2
    })
    .with_label("quality-floor");

    let query = ServiceQuery {
        stages: vec![
            QueryStage {
                capability: "storage".into(),
                variable: Var::new("s"),
                domain: tier_domain.clone(),
                requirement: Constraint::crisp(Weighted, &vars(["s"]), |v| {
                    v[0].as_int().unwrap() >= 1
                })
                .with_label("storage ≥ standard"),
            },
            QueryStage {
                capability: "filter".into(),
                variable: Var::new("f"),
                domain: tier_domain.clone(),
                requirement: Constraint::always(Weighted),
            },
            QueryStage {
                capability: "delivery".into(),
                variable: Var::new("d"),
                domain: tier_domain,
                requirement: Constraint::always(Weighted),
            },
        ],
        cross_constraints: vec![quality_floor],
        min_level: Some(Weight::new(30.0)?), // budget: ≤ 30 €/month
    };

    println!("== Composite-service query ==");
    println!("  stages: storage (tier ≥ 1), filter, delivery");
    println!("  cross: filter-tier + delivery-tier ≥ 2; budget ≤ 30 €/month");

    let plan = broker.query(&query, Weighted::translate)?;
    println!("\n== Plan (jointly optimised) ==");
    for (stage, (service, provider)) in ["storage", "filter", "delivery"]
        .iter()
        .zip(&plan.selections)
    {
        println!("  {stage:9} → {service} ({provider})");
    }
    println!("  binding: {}", plan.binding);
    println!("  total cost: {} €/month", plan.level);

    // Sanity: re-price the plan by hand.
    let s = plan.binding.get(&Var::new("s")).unwrap().as_int().unwrap() as f64;
    let f = plan.binding.get(&Var::new("f")).unwrap().as_int().unwrap() as f64;
    let d = plan.binding.get(&Var::new("d")).unwrap().as_int().unwrap() as f64;
    println!(
        "  (check: best storage price at tier {s}: {}, filter at {f}: {}, cdn at {d}: {})",
        (4.0 * s + 2.0).min(s + 5.0),
        (6.0 * f + 1.0).min(2.0 * f + 4.0),
        (3.0 * d + 3.0).min(8.0 * d)
    );

    Ok(())
}
