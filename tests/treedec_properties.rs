//! Equivalence suite for the bucket-tree elimination engine: tree
//! solves against the exhaustive enumeration oracle on small random
//! problems, against branch-and-bound on banded instances, across the
//! weighted, fuzzy and probabilistic semirings — plus the width-cap
//! fallback path and a pinned inexact-`×` regression. Every property
//! runs under the default thread policy (inline on problems this
//! small) and under three forced threads.
//!
//! The distributivity of `×` over `+` makes elimination valid on any
//! semiring, but only *totally ordered* ones reconstruct a witness;
//! everything here runs on the three totally ordered instances the
//! engine accepts.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use softsoa::core::generate::{
    banded_fuzzy, banded_probabilistic, banded_weighted, random_fuzzy, random_probabilistic,
    random_weighted, RandomScsp,
};
use softsoa::core::solve::{
    plan_elimination, BranchAndBound, Engine, EnumerationSolver, Parallelism, Solver, SolverConfig,
    VarOrder,
};
use softsoa::core::{Scsp, Var};
use softsoa::semiring::{Fuzzy, Probabilistic, Semiring, Unit, WeightedInt};

/// A branch-and-bound solver routed through the tree engine.
fn tree_solver(engine: Engine, width_cap: usize) -> BranchAndBound {
    tree_solvers(engine, width_cap)[0]
}

/// [`tree_solver`] under the default thread policy and under three
/// forced threads.
fn tree_solvers(engine: Engine, width_cap: usize) -> [BranchAndBound; 2] {
    [Parallelism::Auto, Parallelism::Threads(3)].map(|parallelism| {
        BranchAndBound::with_config(
            VarOrder::MostConstrained,
            SolverConfig::default()
                .with_engine(engine)
                .with_width_cap(width_cap)
                .with_parallelism(parallelism),
        )
    })
}

/// Opens interest to every variable so witnesses are total
/// assignments the oracle can evaluate.
fn total_interest<S: Semiring>(problem: &Scsp<S>) -> Scsp<S> {
    let all: Vec<Var> = problem.domains().iter().map(|(v, _)| v.clone()).collect();
    problem.clone().of_interest(all)
}

/// Solves `problem` with `engine` and checks the blevel against
/// `oracle`'s under `close`, and that the returned witness actually
/// achieves the claimed blevel (canonical constraint-order product).
fn check_against<S: Semiring>(
    semiring: &S,
    problem: &Scsp<S>,
    engine: &BranchAndBound,
    oracle: &dyn Solver<S>,
    close: impl Fn(&S::Value, &S::Value) -> bool,
) -> Result<(), TestCaseError> {
    let tree = engine
        .solve(problem)
        .map_err(|e| TestCaseError(format!("tree solve failed: {e:?}")))?;
    let reference = oracle
        .solve(problem)
        .map_err(|e| TestCaseError(format!("oracle solve failed: {e:?}")))?;
    prop_assert!(
        close(tree.blevel(), reference.blevel()),
        "tree {:?} vs oracle {:?}",
        tree.blevel(),
        reference.blevel()
    );
    prop_assert_eq!(
        tree.best_assignment().is_some(),
        reference.best_assignment().is_some(),
        "witness presence must agree"
    );
    if let Some(eta) = tree.best_assignment() {
        let levels: Result<Vec<S::Value>, _> = problem
            .constraints()
            .iter()
            .map(|c| c.try_eval(eta))
            .collect();
        if let Ok(levels) = levels {
            let achieved = semiring.product(levels.iter());
            prop_assert!(
                close(&achieved, tree.blevel()),
                "witness {} achieves {:?}, blevel claims {:?}",
                eta,
                achieved,
                tree.blevel()
            );
        }
    }
    Ok(())
}

fn small_cfg() -> impl Strategy<Value = RandomScsp> {
    (2usize..6, 2usize..4, 1usize..7, 1usize..3, any::<u64>()).prop_map(
        |(vars, domain_size, constraints, arity, seed)| RandomScsp {
            vars,
            domain_size,
            constraints,
            arity,
            seed,
        },
    )
}

fn unit_close(a: &Unit, b: &Unit) -> bool {
    (a.get() - b.get()).abs() <= 1e-9
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Weighted: tree ≡ exhaustive enumeration on small random
    /// problems, bit-exact (integer `×` is exact).
    #[test]
    fn tree_matches_enumeration_weighted(cfg in small_cfg()) {
        let problem = total_interest(&random_weighted(&cfg));
        for engine in tree_solvers(Engine::TreeDecompose, 16) {
            check_against(
                &WeightedInt, &problem, &engine,
                &EnumerationSolver::new(), |a, b| a == b,
            )?;
        }
    }

    /// Fuzzy: idempotent min-`×`, bit-exact equality.
    #[test]
    fn tree_matches_enumeration_fuzzy(cfg in small_cfg()) {
        let problem = total_interest(&random_fuzzy(&cfg));
        for engine in tree_solvers(Engine::TreeDecompose, 16) {
            check_against(
                &Fuzzy, &problem, &engine,
                &EnumerationSolver::new(), |a, b| a == b,
            )?;
        }
    }

    /// Probabilistic: `×` is floating-point multiplication, and the
    /// tree engine associates the product along the bucket tree rather
    /// than in constraint order — equality up to `1e-9`.
    #[test]
    fn tree_matches_enumeration_probabilistic(cfg in small_cfg()) {
        let problem = total_interest(&random_probabilistic(&cfg));
        for engine in tree_solvers(Engine::TreeDecompose, 16) {
            check_against(
                &Probabilistic, &problem, &engine,
                &EnumerationSolver::new(), unit_close,
            )?;
        }
    }

    /// Banded instances (the tree engine's home turf): tree ≡
    /// branch-and-bound on every semiring, and the planned induced
    /// width respects the band.
    #[test]
    fn tree_matches_bnb_on_banded(
        n in 4usize..14,
        domain in 2usize..4,
        band in 1usize..4,
        seed in any::<u64>(),
    ) {
        let bnb = BranchAndBound::default();

        let weighted = banded_weighted(n, domain, band, seed);
        let plan = plan_elimination(&weighted).unwrap();
        prop_assert!(
            plan.induced_width <= band,
            "band {} instance planned at width {}",
            band,
            plan.induced_width
        );
        for engine in tree_solvers(Engine::TreeDecompose, 8) {
            check_against(&WeightedInt, &weighted, &engine, &bnb, |a, b| a == b)?;
            check_against(
                &Fuzzy, &banded_fuzzy(n, domain, band, seed),
                &engine, &bnb, |a, b| a == b,
            )?;
            check_against(
                &Probabilistic, &banded_probabilistic(n, domain, band, seed),
                &engine, &bnb, unit_close,
            )?;
        }
    }

    /// `Engine::Auto` must never differ from the default
    /// branch-and-bound, whether it elects the tree engine (narrow
    /// instances) or declines (cap 1 forces the decline on any
    /// instance with a binary constraint).
    #[test]
    fn auto_engine_agrees_with_bnb(cfg in small_cfg(), cap in 1usize..12) {
        let problem = total_interest(&random_weighted(&cfg));
        for engine in tree_solvers(Engine::Auto, cap) {
            check_against(
                &WeightedInt, &problem, &engine,
                &BranchAndBound::default(), |a, b| a == b,
            )?;
        }
    }

    /// Forcing `Engine::TreeDecompose` onto instances it cannot fit
    /// (width cap 1) falls back to seeded search with identical
    /// results — the fallback seed is a correct bound, never a wrong
    /// answer.
    #[test]
    fn width_cap_fallback_matches_bnb(
        n in 4usize..10,
        seed in any::<u64>(),
    ) {
        let problem = banded_weighted(n, 3, 2, seed);
        for engine in tree_solvers(Engine::TreeDecompose, 1) {
            check_against(
                &WeightedInt, &problem, &engine,
                &BranchAndBound::default(), |a, b| a == b,
            )?;
        }
    }
}

/// Pinned inexact-`×` regression: a fixed probabilistic chain whose
/// bucket-tree product re-associates the floating-point fold. The
/// blevel must stay within tolerance of the enumeration oracle *and*
/// of the witness's canonical-order evaluation — this pins the
/// documented contract that the tree engine reports the DP-associated
/// product, not a re-derived canonical one.
#[test]
fn pinned_probabilistic_chain_reassociation() {
    let problem = total_interest(&banded_probabilistic(7, 3, 1, 0xDEC0DE));
    let tree = tree_solver(Engine::TreeDecompose, 4)
        .solve(&problem)
        .unwrap();
    let oracle = EnumerationSolver::new().solve(&problem).unwrap();
    assert!(
        unit_close(tree.blevel(), oracle.blevel()),
        "tree {:?} vs oracle {:?}",
        tree.blevel(),
        oracle.blevel()
    );
    let eta = tree.best_assignment().expect("consistent instance");
    let levels: Vec<Unit> = problem
        .constraints()
        .iter()
        .map(|c| c.try_eval(eta).unwrap())
        .collect();
    let achieved = Probabilistic.product(levels.iter());
    assert!(
        unit_close(&achieved, tree.blevel()),
        "witness achieves {achieved:?}, blevel claims {:?}",
        tree.blevel()
    );
}

/// The fallback path is visible in the stats: a width-1 cap on a
/// width-2 instance must record `fallback: true` with zero clusters
/// solved by elimination, while a fitting cap records the tree shape.
#[test]
fn fallback_and_tree_solves_are_distinguishable_in_stats() {
    let problem = banded_weighted(8, 3, 2, 7);

    let fallen = tree_solver(Engine::TreeDecompose, 1)
        .solve(&problem)
        .unwrap();
    let stats = fallen.stats().expect("stats ride along");
    let tree = stats
        .tree
        .as_ref()
        .expect("tree stats on the fallback path");
    assert!(tree.fallback, "cap 1 cannot fit a width-2 band");

    let solved = tree_solver(Engine::TreeDecompose, 8)
        .solve(&problem)
        .unwrap();
    let stats = solved.stats().expect("stats ride along");
    let tree = stats.tree.as_ref().expect("tree stats on the solved path");
    assert!(!tree.fallback, "cap 8 fits a width-2 band");
    assert!(tree.clusters > 0, "clusters reported");
    assert!(tree.max_separator <= 8, "separator under the cap");
}
