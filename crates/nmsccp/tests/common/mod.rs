//! Generators and oracles shared by the nmsccp property suites.

use proptest::collection::vec;
use proptest::prelude::*;
use softsoa_core::solve::{EnumerationSolver, Solver};
use softsoa_core::{Assignment, Constraint, Domains, Scsp, Var};
use softsoa_semiring::{Residuated, Unit};

/// Palette picks for one table, cycled over its tuples.
pub type Picks = Vec<usize>;

/// The picks of one random table.
pub fn picks() -> impl Strategy<Value = Picks> {
    vec(0usize..64, 1..=6)
}

/// The table over every tuple of `vars` with levels from `palette`.
pub fn table<S: Residuated>(
    semiring: &S,
    palette: &[S::Value],
    domains: &Domains,
    vars: &[Var],
    picks: &[usize],
) -> Constraint<S> {
    let entries: Vec<_> = domains
        .tuples(vars)
        .unwrap()
        .enumerate()
        .map(|(i, tuple)| {
            (
                tuple,
                palette[picks[i % picks.len()] % palette.len()].clone(),
            )
        })
        .collect();
    Constraint::table(semiring.clone(), vars, entries, semiring.zero())
}

/// The blevel of `{c}` with `con = ∅`, by the lazy enumeration oracle.
pub fn level<S: Residuated>(c: &Constraint<S>, domains: &Domains) -> S::Value {
    let mut problem = Scsp::new(c.semiring().clone()).with_constraint(c.clone());
    for (v, d) in domains.iter() {
        problem.add_domain(v.clone(), d.clone());
    }
    EnumerationSolver::new()
        .solve(&problem)
        .unwrap()
        .blevel()
        .clone()
}

/// `a ⊑ b`, by evaluating both on every assignment of `vars`.
pub fn pointwise_leq<S: Residuated>(
    a: &Constraint<S>,
    b: &Constraint<S>,
    domains: &Domains,
    vars: &[Var],
) -> bool {
    let semiring = a.semiring();
    domains.tuples(vars).unwrap().all(|tuple| {
        let eta = vars
            .iter()
            .zip(tuple)
            .fold(Assignment::new(), |eta, (v, val)| eta.bind(v.clone(), val));
        semiring.leq(&a.eval(&eta), &b.eval(&eta))
    })
}

/// Fuzzy (or probabilistic) levels from plain numbers.
pub fn units(levels: &[f64]) -> Vec<Unit> {
    levels.iter().map(|&l| Unit::new(l).unwrap()).collect()
}
