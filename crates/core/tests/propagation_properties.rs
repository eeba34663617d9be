//! Property tests for the propagation-and-decomposition layer: soft
//! arc-consistency, estimate-driven ordering and connected-component
//! decomposition are pure accelerations.
//!
//! The contract, in two strengths:
//!
//! - **Witness identity** — root propagation under the input order
//!   reproduces the blind run's `blevel` *and* witness exactly:
//!   a value is pruned only when its best completion cannot strictly
//!   beat the current floor, so the lexicographically first optimum is
//!   never cut. Inexact semirings (floating-point `×`) keep only the
//!   always-sound zero-prune and the identity still holds.
//! - **Witness validity** — estimate ordering and decomposition may
//!   legitimately return a *different equally best* assignment (the
//!   fuzzy `×` is idempotent; components merge in component order), so
//!   for them we assert the reported `blevel` is unchanged and the
//!   returned witness actually evaluates to it.
//!
//! Every accelerated run is checked on one thread and on three.

use proptest::prelude::*;
use softsoa_core::generate::{
    random_fuzzy, random_probabilistic, random_weighted, union_weighted, RandomScsp, UnionScsp,
};
use softsoa_core::solve::{
    BranchAndBound, EnumerationSolver, Parallelism, PropagationMode, Solver, SolverConfig, VarOrder,
};
use softsoa_core::Scsp;
use softsoa_semiring::Semiring;

fn sequential() -> SolverConfig {
    SolverConfig::default().with_parallelism(Parallelism::Sequential)
}

/// The thread policies every accelerated configuration runs under.
const SETTINGS: [Parallelism; 2] = [Parallelism::Sequential, Parallelism::Threads(3)];

/// The blind reference configuration: no propagation, no
/// decomposition.
fn blind() -> SolverConfig {
    sequential()
        .with_propagation(PropagationMode::Off)
        .with_decompose(false)
}

fn nodes<S: Semiring>(solution: &softsoa_core::solve::Solution<S>) -> u64 {
    solution.stats().map_or(0, |s| s.nodes)
}

/// Root propagation under the input order: identical `blevel`,
/// identical witness, and on one thread never more nodes (threaded
/// node counts depend on when workers share incumbents).
fn assert_propagation_preserves_the_witness<S: Semiring>(p: &Scsp<S>) {
    let reference = BranchAndBound::with_config(VarOrder::Input, blind())
        .solve(p)
        .unwrap();
    for parallelism in SETTINGS {
        let config = sequential()
            .with_parallelism(parallelism)
            .with_propagation(PropagationMode::Root)
            .with_decompose(false);
        let solved = BranchAndBound::with_config(VarOrder::Input, config)
            .solve(p)
            .unwrap();
        assert_eq!(solved.blevel(), reference.blevel(), "{parallelism:?}");
        assert_eq!(
            solved.best_assignment(),
            reference.best_assignment(),
            "{parallelism:?} changed the witness"
        );
        if parallelism == Parallelism::Sequential {
            assert!(
                nodes(&solved) <= nodes(&reference),
                "root propagation explored more nodes ({} > {})",
                nodes(&solved),
                nodes(&reference)
            );
        }
    }
}

fn engine_configs() -> Vec<(String, VarOrder, SolverConfig)> {
    SETTINGS
        .into_iter()
        .flat_map(|parallelism| {
            let base = sequential().with_parallelism(parallelism);
            [
                ("estimate", VarOrder::Estimate, base.with_decompose(false)),
                ("decomposed", VarOrder::Input, base),
                (
                    "all-on",
                    VarOrder::Estimate,
                    base.with_propagation(PropagationMode::Root),
                ),
            ]
            .map(|(name, order, config)| (format!("{name} {parallelism:?}"), order, config))
        })
        .collect()
}

/// Estimate ordering, decomposition, and everything combined: the
/// `blevel` matches the enumeration oracle's and the oracle's `Sol(P)`
/// scores the witness at that level.
fn assert_engine_preserves_the_blevel<S: Semiring>(p: &Scsp<S>) {
    let semiring = p.semiring().clone();
    let oracle = EnumerationSolver::new().solve(p).unwrap();
    let sol = oracle
        .solution_constraint()
        .expect("the oracle builds Sol(P)");
    for (name, order, config) in engine_configs() {
        let solved = BranchAndBound::with_config(order, config).solve(p).unwrap();
        assert_eq!(solved.blevel(), oracle.blevel(), "{name}");
        match solved.best_assignment() {
            Some(eta) => assert_eq!(&sol.eval(eta), solved.blevel(), "{name} witness"),
            None => assert!(
                semiring.is_zero(solved.blevel()),
                "{name}: no witness above zero"
            ),
        }
    }
}

/// The probabilistic variant: `×` is floating-point multiplication, so
/// re-associated products (different variable orders, per-component
/// factors) may differ from the oracle's in the last ulp. `blevel` and
/// the witness's level are compared within `1e-9`.
fn assert_engine_preserves_the_blevel_approximately(p: &Scsp<softsoa_semiring::Probabilistic>) {
    let oracle = EnumerationSolver::new().solve(p).unwrap();
    let sol = oracle
        .solution_constraint()
        .expect("the oracle builds Sol(P)");
    let global = oracle.blevel().get();
    for (name, order, config) in engine_configs() {
        let solved = BranchAndBound::with_config(order, config).solve(p).unwrap();
        let got = solved.blevel().get();
        assert!((got - global).abs() <= 1e-9, "{name}: {got} vs {global}");
        if let Some(eta) = solved.best_assignment() {
            let achieved = sol.eval(eta).get();
            assert!(
                (achieved - got).abs() <= 1e-9,
                "{name} witness: {achieved} vs {got}"
            );
        }
    }
}

fn cfg_strategy() -> impl Strategy<Value = RandomScsp> {
    (3usize..=5, 2usize..=3, 4usize..=9, any::<u64>()).prop_map(
        |(vars, domain_size, constraints, seed)| RandomScsp {
            vars,
            domain_size,
            constraints,
            arity: 2,
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn propagation_matches_blind_on_weighted(cfg in cfg_strategy()) {
        assert_propagation_preserves_the_witness(&random_weighted(&cfg));
    }

    #[test]
    fn propagation_matches_blind_on_fuzzy(cfg in cfg_strategy()) {
        assert_propagation_preserves_the_witness(&random_fuzzy(&cfg));
    }

    #[test]
    fn propagation_matches_blind_on_probabilistic(cfg in cfg_strategy()) {
        assert_propagation_preserves_the_witness(&random_probabilistic(&cfg));
    }

    #[test]
    fn engine_preserves_blevel_on_weighted(cfg in cfg_strategy()) {
        assert_engine_preserves_the_blevel(&random_weighted(&cfg));
    }

    #[test]
    fn engine_preserves_blevel_on_fuzzy(cfg in cfg_strategy()) {
        assert_engine_preserves_the_blevel(&random_fuzzy(&cfg));
    }

    #[test]
    fn engine_preserves_blevel_on_probabilistic(cfg in cfg_strategy()) {
        assert_engine_preserves_the_blevel_approximately(&random_probabilistic(&cfg));
    }
}

/// The deterministic CI smoke check: on the structured k-component
/// union family, root propagation alone explores strictly fewer nodes
/// than the blind solver while reporting the identical `blevel` and
/// witness, and the decomposed run splits into exactly `k` parts.
#[test]
fn structured_union_family_prunes_and_decomposes() {
    let cfg = UnionScsp {
        components: 3,
        vars_per_component: 4,
        domain_size: 3,
        band: 2,
        seed: 7,
    };
    let p = union_weighted(&cfg);

    let reference = BranchAndBound::with_config(VarOrder::Input, blind())
        .solve(&p)
        .unwrap();
    let propagated = BranchAndBound::with_config(
        VarOrder::Input,
        sequential()
            .with_propagation(PropagationMode::Root)
            .with_decompose(false),
    )
    .solve(&p)
    .unwrap();
    assert_eq!(propagated.blevel(), reference.blevel());
    assert_eq!(propagated.best_assignment(), reference.best_assignment());
    assert!(
        nodes(&propagated) < nodes(&reference),
        "expected strictly fewer nodes: {} vs {}",
        nodes(&propagated),
        nodes(&reference)
    );

    let decomposed = BranchAndBound::with_config(VarOrder::Input, sequential())
        .solve(&p)
        .unwrap();
    assert_eq!(decomposed.blevel(), reference.blevel());
    assert_eq!(
        decomposed.stats().map(|s| s.components),
        Some(cfg.components)
    );
    // WeightedInt `×` is strictly monotone, so each component's lex
    // first optimum is unique-per-level and the merged witness is the
    // blind one.
    assert_eq!(decomposed.best_assignment(), reference.best_assignment());
}
