//! Property tests for the bounds-driven search machinery: mini-bucket
//! completion bounds and warm-started incumbents are pure
//! accelerations — on random weighted, fuzzy and probabilistic
//! problems the bounded and the warm-started branch-and-bound report
//! the **identical** `blevel` and witness as the blind, cold run, and
//! both agree with exhaustive enumeration.
//!
//! The strictness discipline that makes this hold: a subtree is cut
//! only when `partial ⊗ bound(depth)` cannot *strictly* beat the
//! incumbent, and a warm seed only raises the pruning floor — the
//! prefix of the first optimal assignment always evaluates at or
//! above the seed, so it is never cut. The accelerated runs are checked
//! on one thread and on three against the sequential blind run.

use proptest::prelude::*;
use softsoa_core::generate::{random_fuzzy, random_probabilistic, random_weighted, RandomScsp};
use softsoa_core::solve::{
    BranchAndBound, EnumerationSolver, Parallelism, Solver, SolverConfig, VarOrder,
};
use softsoa_core::Scsp;
use softsoa_semiring::Semiring;

fn sequential() -> SolverConfig {
    SolverConfig::default().with_parallelism(Parallelism::Sequential)
}

/// The thread policies every accelerated run is checked under.
const SETTINGS: [Parallelism; 2] = [Parallelism::Sequential, Parallelism::Threads(3)];

/// Blind vs mini-bucket-bounded: same order, same config, the bound
/// being the only difference — `blevel` and witness must match, and
/// (when `×` is exact) the bound must never cut below the enumerated
/// optimum. `check_reference` is off for the probabilistic semiring:
/// its `×` is floating-point multiplication, and the two engines
/// associate the product differently, so enumeration and search can
/// legitimately differ in the last ulp — independent of the bound.
fn assert_bounds_are_pure_acceleration<S: Semiring>(p: &Scsp<S>, check_reference: bool) {
    let blind = BranchAndBound::with_config(VarOrder::Input, sequential())
        .solve(p)
        .unwrap();
    if check_reference {
        let reference = EnumerationSolver::new().solve(p).unwrap();
        assert_eq!(blind.blevel(), reference.blevel());
    }
    for (parallelism, ibound) in SETTINGS.into_iter().flat_map(|p| [(p, 1), (p, 2), (p, 3)]) {
        let config = SolverConfig::default()
            .with_parallelism(parallelism)
            .with_ibound(Some(ibound));
        let bounded = BranchAndBound::with_config(VarOrder::Input, config)
            .solve(p)
            .unwrap();
        assert_eq!(
            bounded.blevel(),
            blind.blevel(),
            "ibound {ibound} {parallelism:?}"
        );
        assert_eq!(
            bounded.best_assignment(),
            blind.best_assignment(),
            "ibound {ibound} {parallelism:?} changed the witness"
        );
    }
}

/// Cold vs warm-seeded: seeding the incumbent with the cold optimum —
/// the hardest valid seed — must leave `blevel` and witness untouched.
fn assert_warm_start_is_pure_acceleration<S: Semiring>(p: &Scsp<S>) {
    let cold = BranchAndBound::with_config(VarOrder::Input, sequential())
        .solve(p)
        .unwrap();
    for parallelism in SETTINGS {
        let config = SolverConfig::default().with_parallelism(parallelism);
        let warm = BranchAndBound::with_config(VarOrder::Input, config)
            .solve_seeded(p, cold.blevel().clone())
            .unwrap();
        assert_eq!(warm.blevel(), cold.blevel(), "{parallelism:?}");
        assert_eq!(
            warm.best_assignment(),
            cold.best_assignment(),
            "{parallelism:?}"
        );
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
    fn bounded_search_matches_blind_on_weighted(cfg in cfg_strategy()) {
        assert_bounds_are_pure_acceleration(&random_weighted(&cfg), true);
    }

    #[test]
    fn bounded_search_matches_blind_on_fuzzy(cfg in cfg_strategy()) {
        assert_bounds_are_pure_acceleration(&random_fuzzy(&cfg), true);
    }

    #[test]
    fn bounded_search_matches_blind_on_probabilistic(cfg in cfg_strategy()) {
        assert_bounds_are_pure_acceleration(&random_probabilistic(&cfg), false);
    }

    #[test]
    fn warm_start_matches_cold_on_weighted(cfg in cfg_strategy()) {
        assert_warm_start_is_pure_acceleration(&random_weighted(&cfg));
    }

    #[test]
    fn warm_start_matches_cold_on_fuzzy(cfg in cfg_strategy()) {
        assert_warm_start_is_pure_acceleration(&random_fuzzy(&cfg));
    }

    #[test]
    fn warm_start_matches_cold_on_probabilistic(cfg in cfg_strategy()) {
        assert_warm_start_is_pure_acceleration(&random_probabilistic(&cfg));
    }

    #[test]
    fn warm_plus_bound_compose_on_weighted(cfg in cfg_strategy()) {
        // The two accelerations stack: seed *and* bound together still
        // reproduce the blind result.
        let p = random_weighted(&cfg);
        let blind = BranchAndBound::with_config(VarOrder::Input, sequential())
            .solve(&p)
            .unwrap();
        for parallelism in SETTINGS {
            let config = sequential().with_parallelism(parallelism).with_ibound(Some(2));
            let both = BranchAndBound::with_config(VarOrder::Input, config)
                .solve_seeded(&p, *blind.blevel())
                .unwrap();
            prop_assert_eq!(both.blevel(), blind.blevel());
            prop_assert_eq!(both.best_assignment(), blind.best_assignment());
        }
    }
}
