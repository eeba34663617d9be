//! Differential tests of the store's consistency level against the
//! enumeration oracle.
//!
//! `Store::consistency` is `σ ⇓ ∅`: the best level of the problem
//! whose only constraint is the store's `σ`, with `con = ∅`. Each case
//! runs a random script of `tell`, `retract`, `update`, `attenuate`
//! and `declare` over a store of one to four int variables, and after
//! every step compares the store's level (and the level of a clone of
//! the store) with the blevel the lazy [`EnumerationSolver::new`]
//! computes for that one-constraint problem. Levels come from a small
//! palette, so ties, the worst level `0` and the best level `1` are
//! frequent. A retract runs only when the store entails its
//! constraint; otherwise the store must refuse it and stay unchanged.

use std::fmt::Debug;

use proptest::collection::vec;
use proptest::prelude::*;
use softsoa_core::solve::{EnumerationSolver, Solver};
use softsoa_core::{Constraint, Domain, Domains, Scsp, Var};
use softsoa_nmsccp::{Store, StoreError};
use softsoa_semiring::{Fuzzy, Probabilistic, Residuated, Unit, WeightedInt};

/// The names of the (at most four) store variables.
const VARS: [&str; 4] = ["a", "b", "c", "d"];

/// A random table: variable picks (taken modulo the declared
/// variables) and palette picks (cycled over the table's tuples).
#[derive(Debug, Clone)]
struct Table {
    vars: Vec<usize>,
    picks: Vec<usize>,
}

/// One step of a script.
#[derive(Debug, Clone)]
enum Op {
    Tell(Table),
    /// Retract a constraint told earlier (picked from the history), or
    /// the table when the history is empty or the pick is `None`.
    Retract(Option<usize>, Table),
    Update(Vec<usize>, Table),
    Attenuate(usize),
    /// Declare `VARS[i]` (adding it, or replacing its domain) as the
    /// ints `lo..=lo + span`.
    Declare(usize, i64, i64),
}

fn table() -> impl Strategy<Value = Table> {
    (vec(0usize..4, 1..=3), vec(0usize..64, 1..=8)).prop_map(|(vars, picks)| Table { vars, picks })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => table().prop_map(Op::Tell),
        2 => (0usize..12, table()).prop_map(|(h, t)| Op::Retract((h < 8).then_some(h), t)),
        1 => (vec(0usize..4, 1..=2), table()).prop_map(|(vs, t)| Op::Update(vs, t)),
        1 => (0usize..64).prop_map(Op::Attenuate),
        1 => (0usize..4, -2i64..3, 0i64..3).prop_map(|(i, lo, span)| Op::Declare(i, lo, span)),
    ]
}

/// The initial variable count (1–4), their domains, and the script.
type Script = (usize, Vec<(i64, i64)>, Vec<Op>);

fn script() -> impl Strategy<Value = Script> {
    (1usize..=4, vec((-2i64..3, 0i64..3), 4), vec(op(), 1..12))
}

/// The declared variables picked by `picks`, sorted and deduplicated.
fn pick_vars(declared: &[Var], picks: &[usize]) -> Vec<Var> {
    let mut vars: Vec<Var> = picks
        .iter()
        .map(|i| declared[i % declared.len()].clone())
        .collect();
    vars.sort();
    vars.dedup();
    vars
}

/// The table over every tuple of its variables' current domains.
fn build<S: Residuated>(
    semiring: &S,
    palette: &[S::Value],
    domains: &Domains,
    declared: &[Var],
    t: &Table,
) -> Constraint<S> {
    let vars = pick_vars(declared, &t.vars);
    let entries: Vec<_> = domains
        .tuples(&vars)
        .expect("declared variables have domains")
        .enumerate()
        .map(|(i, tuple)| {
            let pick = t.picks[i % t.picks.len()];
            (tuple, palette[pick % palette.len()].clone())
        })
        .collect();
    Constraint::table(semiring.clone(), &vars, entries, semiring.zero())
}

/// `σ ⇓ ∅` by the lazy enumeration oracle: the blevel of `{σ}` with
/// `con = ∅`.
fn oracle<S: Residuated>(store: &Store<S>) -> S::Value {
    let mut problem = Scsp::new(store.semiring().clone()).with_constraint(store.sigma().clone());
    for (v, d) in store.domains().iter() {
        problem.add_domain(v.clone(), d.clone());
    }
    EnumerationSolver::new()
        .solve(&problem)
        .expect("the problem has every domain")
        .blevel()
        .clone()
}

fn assert_matches_oracle<S: Residuated>(store: &Store<S>, step: &str)
where
    S::Value: Debug,
{
    let expected = oracle(store);
    assert_eq!(store.consistency().unwrap(), expected, "after {step}");
    // The memoised level, and a clone's, stay the same.
    assert_eq!(store.consistency().unwrap(), expected, "memo after {step}");
    assert_eq!(
        store.clone().consistency().unwrap(),
        expected,
        "clone after {step}"
    );
}

/// Runs one script on `semiring` with levels drawn from `palette`.
fn check<S>(semiring: S, palette: &[S::Value], (count, doms, ops): Script)
where
    S: Residuated,
    S::Value: Debug,
{
    let mut declared: Vec<Var> = VARS[..count].iter().map(|&v| Var::new(v)).collect();
    let mut domains = Domains::new();
    for (var, &(lo, span)) in declared.iter().zip(&doms) {
        domains.insert(var.clone(), Domain::ints(lo..=lo + span));
    }
    let mut store = Store::empty(semiring.clone(), domains);
    let mut told: Vec<Constraint<S>> = Vec::new();
    assert_matches_oracle(&store, "the empty store");
    for op in &ops {
        let make = |t: &Table, store: &Store<S>, declared: &[Var]| {
            build(&semiring, palette, store.domains(), declared, t)
        };
        store = match op {
            Op::Tell(t) => {
                let c = make(t, &store, &declared);
                told.push(c.clone());
                store.tell(&c).unwrap()
            }
            Op::Retract(pick, t) => {
                let c = match pick {
                    Some(i) if !told.is_empty() => told[i % told.len()].clone(),
                    _ => make(t, &store, &declared),
                };
                if store.entails(&c).unwrap() {
                    store.retract(&c).unwrap()
                } else {
                    assert_eq!(store.retract(&c).unwrap_err(), StoreError::NotEntailed);
                    store
                }
            }
            Op::Update(vs, t) => {
                let c = make(t, &store, &declared);
                store.update(&pick_vars(&declared, vs), &c).unwrap()
            }
            Op::Attenuate(pick) => store.attenuate(&palette[pick % palette.len()]).unwrap(),
            Op::Declare(i, lo, span) => {
                let var = Var::new(VARS[*i]);
                if !declared.contains(&var) {
                    declared.push(var.clone());
                }
                store.declare(var, Domain::ints(*lo..=lo + span));
                store
            }
        };
        assert_matches_oracle(&store, &format!("{op:?}"));
    }
}

fn units(levels: &[f64]) -> Vec<Unit> {
    levels.iter().map(|&l| Unit::new(l).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn weighted_int_store_matches_the_oracle(s in script()) {
        check(WeightedInt, &[0, 1, 2, 3, 5, u64::MAX], s);
    }

    #[test]
    fn fuzzy_store_matches_the_oracle(s in script()) {
        check(Fuzzy, &units(&[0.0, 0.25, 0.5, 0.75, 1.0]), s);
    }

    #[test]
    fn probabilistic_store_matches_the_oracle(s in script()) {
        check(Probabilistic, &units(&[0.0, 0.3, 0.5, 0.9, 1.0]), s);
    }
}
