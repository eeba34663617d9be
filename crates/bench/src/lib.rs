//! Shared fixtures for the `softsoa` benchmark harness.
//!
//! Every table-like artefact of the paper (worked examples, figures
//! with numbers) has a bench target in `benches/`; this library crate
//! holds the scenario builders they share, so that benches and the
//! experiment write-up (`EXPERIMENTS.md`) use exactly the same code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use softsoa_core::{Constraint, Domain, Domains, Scsp, Val, Var};
use softsoa_nmsccp::{Agent, Interval, Store};
use softsoa_semiring::{Fuzzy, Unit, WeightedInt};

/// Builds the weighted SCSP of Fig. 1 (expected: `⟨a⟩→7`, `⟨b⟩→16`,
/// `blevel = 7`).
pub fn fig1_problem() -> Scsp<WeightedInt> {
    let x = Var::new("x");
    let y = Var::new("y");
    Scsp::new(WeightedInt)
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
        .of_interest([x])
}

/// The linear weighted policies of Fig. 7: `c1 = x + 3`, `c2 = y + 1`,
/// `c3 = 2x`, `c4 = x + 5`.
pub fn fig7_constraint(slope: u64, intercept: u64, var: &str) -> Constraint<WeightedInt> {
    let v = Var::new(var);
    Constraint::unary(WeightedInt, v, move |val| {
        slope * val.as_int().unwrap() as u64 + intercept
    })
}

/// The shared `x ∈ {0..10}` domain of the negotiation examples.
pub fn negotiation_domains() -> Domains {
    Domains::new().with("x", Domain::ints(0..=10))
}

/// The Example 1 agent (`P1 ‖ P2`, merged policies cost 5h, P2's
/// interval `[1, 4]` rejects → deadlock).
pub fn example1_agent() -> Agent<WeightedInt> {
    let any = Interval::any(&WeightedInt);
    let p1 = Agent::tell(fig7_constraint(1, 5, "x"), any.clone(), Agent::success());
    let p2 = Agent::tell(
        fig7_constraint(2, 0, "x"),
        any,
        Agent::ask(
            Constraint::always(WeightedInt),
            Interval::levels(4u64, 1u64),
            Agent::success(),
        ),
    );
    Agent::par(p1, p2)
}

/// The Example 2 agent (retract `c1` relaxes the store to `2x + 2`,
/// level 2 → success).
pub fn example2_agent() -> Agent<WeightedInt> {
    let any = Interval::any(&WeightedInt);
    let p1 = Agent::tell(
        fig7_constraint(1, 5, "x"),
        any.clone(),
        Agent::retract(
            fig7_constraint(1, 3, "x"),
            Interval::levels(10u64, 2u64),
            Agent::success(),
        ),
    );
    let p2 = Agent::tell(
        fig7_constraint(2, 0, "x"),
        any,
        Agent::ask(
            Constraint::always(WeightedInt),
            Interval::levels(4u64, 1u64),
            Agent::success(),
        ),
    );
    Agent::par(p1, p2)
}

/// The Example 3 agent (`tell(c1)` then `update{x}(c2)` → store
/// `y + 4`).
pub fn example3_agent() -> Agent<WeightedInt> {
    let any = Interval::any(&WeightedInt);
    Agent::tell(
        fig7_constraint(1, 3, "x"),
        any.clone(),
        Agent::update(
            [Var::new("x")],
            fig7_constraint(1, 1, "y"),
            any,
            Agent::success(),
        ),
    )
}

/// Domains for Example 3 (two variables).
pub fn example3_domains() -> Domains {
    Domains::new()
        .with("x", Domain::ints(0..=10))
        .with("y", Domain::ints(0..=10))
}

/// An empty weighted store over the negotiation domains.
pub fn negotiation_store() -> Store<WeightedInt> {
    Store::empty(WeightedInt, negotiation_domains())
}

/// The Fig. 5 fuzzy agreement as an SCSP over a resolution-`steps`
/// discretisation of the resource axis `[1, 9]` (expected blevel 0.5
/// at the preference intersection for any odd-resolution grid).
pub fn fig5_problem(steps: i64) -> Scsp<Fuzzy> {
    let x = Var::new("x");
    // Client preference rises 0 → 1 over [1, 9]; provider's falls.
    let client = Constraint::unary(Fuzzy, x.clone(), |v| {
        Unit::clamped((v.as_int().unwrap() as f64 - 1.0) / 8.0)
    });
    let provider = Constraint::unary(Fuzzy, x.clone(), |v| {
        Unit::clamped((9.0 - v.as_int().unwrap() as f64) / 8.0)
    });
    Scsp::new(Fuzzy)
        .with_domain(x.clone(), Domain::ints_stepped(1, 9, (8 / steps).max(1)))
        .with_constraint(client)
        .with_constraint(provider)
        .of_interest([x])
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsoa_nmsccp::{Interpreter, Outcome, Policy, Program};

    #[test]
    fn fixtures_reproduce_paper_values() {
        assert_eq!(fig1_problem().blevel().unwrap(), 7);
        assert_eq!(fig5_problem(8).blevel().unwrap(), Unit::new(0.5).unwrap());

        let run = |agent, doms| {
            Interpreter::new(Program::new())
                .with_policy(Policy::Random(3))
                .run(agent, Store::empty(WeightedInt, doms))
                .unwrap()
        };
        let r1 = run(example1_agent(), negotiation_domains());
        assert!(matches!(r1.outcome, Outcome::Deadlock { .. }));
        assert_eq!(r1.outcome.store().consistency().unwrap(), 5);

        let r2 = run(example2_agent(), negotiation_domains());
        assert!(r2.outcome.is_success());
        assert_eq!(r2.outcome.store().consistency().unwrap(), 2);

        let r3 = run(example3_agent(), example3_domains());
        assert!(r3.outcome.is_success());
        assert_eq!(r3.outcome.store().consistency().unwrap(), 4);
    }
}
