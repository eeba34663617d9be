//! End-to-end reproduction of every numbered artefact of the paper
//! (experiments E1–E8 of DESIGN.md), through the public façade.

use softsoa::coalition::{
    exact_formation, find_blocking, is_stable, scsp_formation, stabilize, FormationConfig,
    Partition, TrustComposition, TrustNetwork,
};
use softsoa::core::{Assignment, Constraint, Domain, Domains, Scsp, Val, Var};
use softsoa::dependability::{check_refinement, locally_refines, meets_requirement, photo};
use softsoa::nmsccp::{
    parse_agent, Interpreter, Interval, Outcome, ParseEnv, Policy, Program, Store,
};
use softsoa::semiring::{Fuzzy, Unit, WeightedInt};
use softsoa::soa::{
    Broker, NegotiationRequest, OfferShape, QosDocument, QosOffer, Registry, ServiceDescription,
    WireSemiring,
};
use softsoa_dependability::Attribute;

/// E1 — Fig. 1: solution ⟨a⟩ → 7, ⟨b⟩ → 16, blevel = 7.
#[test]
fn e1_fig1_weighted_scsp() {
    let x = Var::new("x");
    let y = Var::new("y");
    let p = Scsp::new(WeightedInt)
        .with_domain(x.clone(), Domain::syms(["a", "b"]))
        .with_domain(y.clone(), Domain::syms(["a", "b"]))
        .with_constraint(Constraint::table(
            WeightedInt,
            std::slice::from_ref(&x),
            [(vec![Val::sym("a")], 1), (vec![Val::sym("b")], 9)],
            u64::MAX,
        ))
        .with_constraint(Constraint::table(
            WeightedInt,
            &[x.clone(), y.clone()],
            [
                (vec![Val::sym("a"), Val::sym("a")], 5),
                (vec![Val::sym("a"), Val::sym("b")], 1),
                (vec![Val::sym("b"), Val::sym("a")], 2),
                (vec![Val::sym("b"), Val::sym("b")], 2),
            ],
            u64::MAX,
        ))
        .with_constraint(Constraint::table(
            WeightedInt,
            std::slice::from_ref(&y),
            [(vec![Val::sym("a")], 5), (vec![Val::sym("b")], 5)],
            u64::MAX,
        ))
        .of_interest([x]);

    let solution = p.solve().unwrap();
    let table = solution.solution_constraint().unwrap();
    assert_eq!(table.eval(&Assignment::new().bind("x", "a")), 7);
    assert_eq!(table.eval(&Assignment::new().bind("x", "b")), 16);
    assert_eq!(*solution.blevel(), 7);
    // The paper: "the blevel ... is 7 (related to the solution X = a,
    // Y = b)".
    assert_eq!(
        solution.best_assignment().unwrap().get(&Var::new("x")),
        Some(&Val::sym("a"))
    );
}

/// E2 — Fig. 5: the fuzzy negotiation agrees exactly at level 0.5.
#[test]
fn e2_fig5_fuzzy_agreement() {
    let mut registry = Registry::new();
    registry.publish(ServiceDescription::new(
        "svc",
        "provider",
        "web-service",
        QosDocument::new("svc").with_offer(QosOffer {
            attribute: Attribute::Reliability,
            variable: "x".into(),
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
        acceptance: Interval::any(&Fuzzy),
    };
    let sla = Broker::new(Fuzzy, registry)
        .negotiate(&request, Fuzzy::translate)
        .unwrap();
    assert_eq!(sla.agreed_level, Unit::new(0.5).unwrap());
    let (eta, _) = sla.binding.unwrap();
    assert_eq!(eta.get(&Var::new("x")).unwrap().as_int(), Some(5));
}

fn negotiation_env() -> ParseEnv<WeightedInt> {
    let lin = |a: u64, b: u64| {
        Constraint::unary(WeightedInt, "x", move |v| {
            a * v.as_int().unwrap() as u64 + b
        })
    };
    ParseEnv::new(WeightedInt)
        .with_constraint("c1", lin(1, 3))
        .with_constraint("c3", lin(2, 0))
        .with_constraint("c4", lin(1, 5))
        .with_constraint(
            "c2",
            Constraint::unary(WeightedInt, "y", |v| v.as_int().unwrap() as u64 + 1),
        )
        .with_constraint("one", Constraint::always(WeightedInt))
        .with_level("two", 2u64)
        .with_level("four", 4u64)
        .with_level("ten", 10u64)
}

fn negotiation_domains() -> Domains {
    Domains::new()
        .with("x", Domain::ints(0..=10))
        .with("y", Domain::ints(0..=10))
}

/// E3 — Example 1: σ⇓∅ = 5 ∉ [1, 4], so P2 never succeeds.
#[test]
fn e3_example1_no_agreement() {
    let agent = parse_agent(
        "tell(c4) success || tell(c3) ask(one) ->[four, two] success",
        &negotiation_env(),
    )
    .unwrap();
    let report = Interpreter::new(Program::new())
        .run(agent, Store::empty(WeightedInt, negotiation_domains()))
        .unwrap();
    match report.outcome {
        Outcome::Deadlock { store, .. } => {
            assert_eq!(store.consistency().unwrap(), 5);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

/// E4 — Example 2: retract(c1) relaxes the store to 2x + 2, σ⇓∅ = 2,
/// and both parties succeed.
#[test]
fn e4_example2_retract_agreement() {
    let agent = parse_agent(
        "tell(c4) retract(c1) ->[ten, two] success || tell(c3) ask(one) ->[four, two] success",
        &negotiation_env(),
    )
    .unwrap();
    let report = Interpreter::new(Program::new())
        .with_policy(Policy::Random(3))
        .run(agent, Store::empty(WeightedInt, negotiation_domains()))
        .unwrap();
    match report.outcome {
        Outcome::Success { store } => {
            assert_eq!(store.consistency().unwrap(), 2);
            // σ ≡ 2x + 2 pointwise.
            for x in 0..=10u64 {
                let eta = Assignment::new().bind("x", x as i64);
                assert_eq!(store.sigma().eval(&eta), 2 * x + 2);
            }
        }
        other => panic!("expected success, got {other:?}"),
    }
}

/// E5 — Example 3: update{x}(c2) leaves the store ≡ y + 4.
#[test]
fn e5_example3_update() {
    let agent = parse_agent("tell(c1) update{x}(c2) success", &negotiation_env()).unwrap();
    let report = Interpreter::new(Program::new())
        .run(agent, Store::empty(WeightedInt, negotiation_domains()))
        .unwrap();
    match report.outcome {
        Outcome::Success { store } => {
            assert_eq!(store.consistency().unwrap(), 4);
            assert!(!store.sigma().scope().contains(&Var::new("x")));
            for y in 0..=10u64 {
                let eta = Assignment::new().bind("y", y as i64);
                assert_eq!(store.sigma().eval(&eta), y + 4);
            }
        }
        other => panic!("expected success, got {other:?}"),
    }
}

/// E6 — Sec. 5 crisp integrity: Imp1 refines Memory, Imp2 does not.
#[test]
fn e6_crisp_integrity() {
    let doms = photo::domains(4096, 512);
    assert!(locally_refines(&photo::imp1(), &photo::memory(), &photo::interface(), &doms).unwrap());
    let report =
        check_refinement(&photo::imp2(), &photo::memory(), &photo::interface(), &doms).unwrap();
    assert!(!report.holds());
    assert!(report.counterexample().is_some());
}

/// E7 — Sec. 5 quantitative: c1(4096, 1024) = 0.96 and requirement
/// checking in the probabilistic semiring.
#[test]
fn e7_probabilistic_integrity() {
    assert!((photo::stage_reliability(4096, 1024).get() - 0.96).abs() < 1e-12);
    let doms = photo::domains(4096, 1024);
    let imp3 = photo::imp3();
    assert!(meets_requirement(&imp3, &photo::memory_prob(Unit::MIN), &doms).unwrap());
    assert!(!meets_requirement(&imp3, &photo::memory_prob(Unit::MAX), &doms).unwrap());
    // The most reliable pipeline run for a 2 Mb input compresses once
    // to ≤ 1 Mb and stays fully reliable afterwards: level 0.98.
    let (eta, level) = photo::best_configuration(2048, &doms).unwrap();
    assert!((level.get() - 0.98).abs() < 1e-12);
    assert_eq!(eta.get(&photo::outcomp()).unwrap().as_int(), Some(2048));
}

/// E8 — Sec. 6: the Fig. 10 blocking situation, its repair, and the
/// agreement between the paper's SCSP encoding and direct search.
#[test]
fn e8_trustworthy_coalitions() {
    let net = TrustNetwork::fig10();
    let fig10 = Partition::new(
        7,
        vec![
            [0, 1, 2].into_iter().collect(),
            [3, 4, 5, 6].into_iter().collect(),
        ],
    )
    .unwrap();
    let blocking = find_blocking(&net, &fig10, TrustComposition::Average).unwrap();
    assert_eq!(blocking.agent, 3); // x4
    assert_eq!(blocking.target, 0); // defects towards C1

    let (repaired, ok) = stabilize(&net, fig10, TrustComposition::Average, 100);
    assert!(ok && is_stable(&net, &repaired, TrustComposition::Average));

    // SCSP encoding ≡ direct exact search on a small network.
    let small = TrustNetwork::random(4, 0);
    let cfg = FormationConfig {
        compose: TrustComposition::Average,
        require_stability: true,
        ..Default::default()
    };
    let direct = exact_formation(&small, cfg).unwrap();
    let encoded = scsp_formation(&small, cfg.compose, true).unwrap().unwrap();
    assert_eq!(direct.score, encoded.score);
    assert!(is_stable(&small, &encoded.partition, cfg.compose));
}
