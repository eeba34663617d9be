//! Integration tests of the SOA query engine through the façade:
//! joint optimisation, compiled-problem inspection, budgets and
//! deregistration under load.

use softsoa::core::solve::{BranchAndBound, Solver, VarOrder};
use softsoa::core::{vars, Constraint, Domain, Var};
use softsoa::semiring::{Weight, Weighted};
use softsoa::soa::{
    Broker, OfferShape, QosDocument, QosOffer, QueryError, QueryStage, Registry,
    ServiceDescription, ServiceId, ServiceQuery, WireSemiring,
};
use softsoa_dependability::Attribute;

fn linear_provider(
    id: &str,
    capability: &str,
    var: &str,
    slope: f64,
    intercept: f64,
) -> ServiceDescription {
    ServiceDescription::new(
        id,
        "org",
        capability,
        QosDocument::new(id).with_offer(QosOffer {
            attribute: Attribute::Availability,
            variable: var.into(),
            shape: OfferShape::Linear { slope, intercept },
        }),
    )
}

fn three_stage_registry() -> Registry {
    let mut registry = Registry::new();
    registry.publish(linear_provider("s-a", "storage", "s", 4.0, 2.0));
    registry.publish(linear_provider("s-b", "storage", "s", 1.0, 5.0));
    registry.publish(linear_provider("f-a", "filter", "f", 6.0, 1.0));
    registry.publish(linear_provider("f-b", "filter", "f", 2.0, 4.0));
    registry.publish(linear_provider("d-a", "delivery", "d", 3.0, 3.0));
    registry.publish(linear_provider("d-b", "delivery", "d", 8.0, 0.0));
    registry
}

fn crisp_min(var: &'static str, min: i64) -> Constraint<Weighted> {
    Constraint::crisp(Weighted, &vars([var]), move |v| {
        v[0].as_int().unwrap() >= min
    })
}

fn three_stage_query() -> ServiceQuery<Weighted> {
    let tiers = Domain::ints(0..=2);
    ServiceQuery {
        stages: vec![
            QueryStage {
                capability: "storage".into(),
                variable: Var::new("s"),
                domain: tiers.clone(),
                requirement: crisp_min("s", 1),
            },
            QueryStage {
                capability: "filter".into(),
                variable: Var::new("f"),
                domain: tiers.clone(),
                requirement: Constraint::always(Weighted),
            },
            QueryStage {
                capability: "delivery".into(),
                variable: Var::new("d"),
                domain: tiers,
                requirement: Constraint::always(Weighted),
            },
        ],
        cross_constraints: vec![Constraint::crisp(Weighted, &vars(["f", "d"]), |v| {
            v[0].as_int().unwrap() + v[1].as_int().unwrap() >= 2
        })],
        min_level: None,
    }
}

#[test]
fn three_stage_joint_plan_is_cost_optimal() {
    let broker = Broker::new(Weighted, three_stage_registry());
    let plan = broker
        .query(&three_stage_query(), Weighted::translate)
        .unwrap();
    // Hand-computed optimum: storage tier 1 via s-a (6); quality floor
    // met by filter tier 2 via f-b (8) and delivery tier 0 via d-b (0):
    // total 14. (Any cheaper split violates a constraint.)
    assert_eq!(plan.level, Weight::new(14.0).unwrap());
    assert_eq!(plan.selections.len(), 3);
    let f = plan.binding.get(&Var::new("f")).unwrap().as_int().unwrap();
    let d = plan.binding.get(&Var::new("d")).unwrap().as_int().unwrap();
    assert!(f + d >= 2);
}

#[test]
fn compiled_problem_is_solvable_by_any_solver() {
    let broker = Broker::new(Weighted, three_stage_registry());
    let problem = broker
        .compile_query(&three_stage_query(), Weighted::translate)
        .unwrap();
    // 3 choice variables + 3 QoS variables.
    assert_eq!(problem.con().len(), 6);
    // The compiled problem is an ordinary SCSP: solve it directly.
    let direct = BranchAndBound::new(VarOrder::MostConstrained)
        .solve(&problem)
        .unwrap();
    assert_eq!(*direct.blevel(), Weight::new(14.0).unwrap());
}

#[test]
fn budget_infeasibility_is_no_plan() {
    let broker = Broker::new(Weighted, three_stage_registry());
    let mut query = three_stage_query();
    query.min_level = Some(Weight::new(10.0).unwrap()); // below the optimum cost of 14
    assert!(matches!(
        broker.query(&query, Weighted::translate),
        Err(QueryError::NoPlan)
    ));
    // A generous budget passes.
    query.min_level = Some(Weight::new(20.0).unwrap());
    assert!(broker.query(&query, Weighted::translate).is_ok());
}

#[test]
fn deregistration_reroutes_the_plan() {
    let mut broker = Broker::new(Weighted, three_stage_registry());
    let before = broker
        .query(&three_stage_query(), Weighted::translate)
        .unwrap();
    // Remove the filter provider the plan chose; the query must fall
    // back to the other one (and get more expensive, never cheaper).
    let chosen_filter = before.selections[1].0.clone();
    broker.registry_mut().deregister(&chosen_filter);
    let after = broker
        .query(&three_stage_query(), Weighted::translate)
        .unwrap();
    assert_ne!(after.selections[1].0, chosen_filter);
    // Losing a provider can only make the plan worse-or-equal in the
    // semiring order (costlier, for weighted).
    assert!(Weighted.leq(&after.level, &before.level));
    // Removing every filter provider kills the stage outright.
    broker.registry_mut().deregister(&ServiceId::new("f-a"));
    broker.registry_mut().deregister(&ServiceId::new("f-b"));
    match broker.query(&three_stage_query(), Weighted::translate) {
        Err(QueryError::NoProvider { stage, .. }) => assert_eq!(stage, 1),
        other => panic!("expected NoProvider, got {other:?}"),
    }
}

use softsoa::semiring::Semiring;
