//! Property-based cross-crate tests: solver agreement and algebraic
//! identities of the soft constraint system.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use softsoa::core::generate::{
    chain_weighted, random_fuzzy, random_probabilistic, random_product, random_weighted, RandomScsp,
};
use softsoa::core::solve::{
    BranchAndBound, BucketElimination, EnumerationSolver, Parallelism, ParetoBranchAndBound,
    Solution, Solver, SolverConfig, VarOrder,
};
use softsoa::core::{combine_all, Constraint, Domain, Domains, Scsp, Var};
use softsoa::semiring::{Probabilistic, Residuated, Semiring, Unit, WeightedInt};

fn cfg_strategy() -> impl Strategy<Value = RandomScsp> {
    (2usize..6, 2usize..4, 1usize..8, 1usize..3, any::<u64>()).prop_map(
        |(vars, domain_size, constraints, arity, seed)| RandomScsp {
            vars,
            domain_size,
            constraints,
            arity,
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three solvers compute the same blevel on random weighted
    /// problems.
    #[test]
    fn solvers_agree_weighted(cfg in cfg_strategy()) {
        let p = random_weighted(&cfg);
        let reference = EnumerationSolver::new().solve(&p).unwrap();
        for order in [VarOrder::Input, VarOrder::MostConstrained] {
            let bnb = BranchAndBound::new(order).solve(&p).unwrap();
            prop_assert_eq!(bnb.blevel(), reference.blevel());
        }
        let be = BucketElimination::new().solve(&p).unwrap();
        prop_assert_eq!(be.blevel(), reference.blevel());
        // The solution tables must agree extensionally.
        let t1 = be.solution_constraint().unwrap();
        let t2 = reference.solution_constraint().unwrap();
        prop_assert!(t1.equivalent(t2, p.domains()).unwrap());
    }

    /// Same agreement on fuzzy problems (idempotent ×).
    #[test]
    fn solvers_agree_fuzzy(cfg in cfg_strategy()) {
        let p = random_fuzzy(&cfg);
        let reference = EnumerationSolver::new().solve(&p).unwrap();
        let bnb = BranchAndBound::default().solve(&p).unwrap();
        let be = BucketElimination::default().solve(&p).unwrap();
        prop_assert_eq!(bnb.blevel(), reference.blevel());
        prop_assert_eq!(be.blevel(), reference.blevel());
    }

    /// Chains have induced width 1; bucket elimination must match the
    /// reference there too.
    #[test]
    fn solvers_agree_on_chains(n in 3usize..8, domain in 2usize..4, seed in any::<u64>()) {
        let p = chain_weighted(n, domain, seed);
        let reference = EnumerationSolver::new().solve(&p).unwrap();
        let be = BucketElimination::default().solve(&p).unwrap();
        prop_assert_eq!(be.blevel(), reference.blevel());
    }

    /// ⊗ is commutative and associative extensionally; 1̄ is its unit.
    #[test]
    fn combination_laws(cfg in cfg_strategy()) {
        let p = random_weighted(&cfg);
        let doms = p.domains();
        if p.constraints().len() < 2 { return Ok(()); }
        let a = &p.constraints()[0];
        let b = &p.constraints()[1];
        prop_assert!(a.combine(b).equivalent(&b.combine(a), doms).unwrap());
        let one = Constraint::always(WeightedInt);
        prop_assert!(a.combine(&one).equivalent(a, doms).unwrap());
        if let Some(c) = p.constraints().get(2) {
            let left = a.combine(b).combine(c);
            let right = a.combine(&b.combine(c));
            prop_assert!(left.equivalent(&right, doms).unwrap());
        }
    }

    /// Retract-after-tell: the general residuation identity
    /// `((σ ⊗ c) ÷ c) ⊗ c ≡ σ ⊗ c` holds even when `c` forbids tuples
    /// outright (`∞` entries). The stronger `(σ ⊗ c) ÷ c ≡ σ` requires
    /// `c` to stay finite: dividing by the semiring zero yields the
    /// top, erasing what σ said there.
    #[test]
    fn divide_inverts_combine(cfg in cfg_strategy()) {
        let p = random_weighted(&cfg);
        let doms = p.domains();
        if p.constraints().len() < 2 { return Ok(()); }
        let sigma = combine_all(WeightedInt, &p.constraints()[1..]);
        let c = &p.constraints()[0];
        let told = sigma.combine(c);
        let back = told.divide(c);
        prop_assert!(back.combine(c).equivalent(&told, doms).unwrap());
        // Restrict to finite (non-zero) divisors for the strong form.
        let finite = c.materialize(doms).unwrap();
        let strictly_finite = doms
            .tuples(finite.scope())
            .unwrap()
            .all(|t| finite.eval_tuple(&t) != u64::MAX);
        if strictly_finite {
            prop_assert!(back.equivalent(&sigma, doms).unwrap());
        }
    }

    /// Combination is dominated by its operands: (a ⊗ b) ⊑ a.
    #[test]
    fn combination_is_decreasing(cfg in cfg_strategy()) {
        let p = random_weighted(&cfg);
        let doms = p.domains();
        if p.constraints().len() < 2 { return Ok(()); }
        let a = &p.constraints()[0];
        let b = &p.constraints()[1];
        prop_assert!(a.combine(b).leq(a, doms).unwrap());
        prop_assert!(a.combine(b).leq(b, doms).unwrap());
    }

    /// Projection and consistency: projecting twice equals projecting
    /// once, and ⇓∅ of a projection equals ⇓∅ of the original.
    #[test]
    fn projection_laws(cfg in cfg_strategy()) {
        let p = random_weighted(&cfg);
        let doms = p.domains();
        let all = combine_all(WeightedInt, p.constraints());
        let keep: Vec<Var> = all.scope().iter().take(1).cloned().collect();
        let once = all.project(&keep, doms).unwrap();
        let twice = once.project(&keep, doms).unwrap();
        prop_assert!(once.equivalent(&twice, doms).unwrap());
        prop_assert_eq!(
            once.consistency(doms).unwrap(),
            all.consistency(doms).unwrap()
        );
    }

    /// The residuation Galois property lifts to constraints:
    /// c2 ⊗ (c1 ÷ c2) ⊑ c1.
    #[test]
    fn constraint_residuation_underapproximates(cfg in cfg_strategy()) {
        let p = random_weighted(&cfg);
        let doms = p.domains();
        if p.constraints().len() < 2 { return Ok(()); }
        let c1 = &p.constraints()[0];
        let c2 = &p.constraints()[1];
        let q = c1.divide(c2);
        prop_assert!(c2.combine(&q).leq(c1, doms).unwrap());
    }
}

/// The frontier of a solution as an order-free set of rendered
/// `(assignment, level)` pairs, for cross-solver comparison.
fn frontier_set<S: Semiring>(solution: &Solution<S>) -> BTreeSet<String> {
    solution
        .best()
        .iter()
        .map(|(eta, level)| format!("{eta} -> {level:?}"))
        .collect()
}

/// The compiled enumeration, branch-and-bound and bucket engines, at 1
/// or 3 worker threads, must reproduce the lazy sequential oracle on a
/// totally ordered semiring.
fn check_total_order_engines<S: Semiring>(p: &Scsp<S>) -> Result<(), TestCaseError> {
    let reference = EnumerationSolver::new().solve(p).unwrap();
    for threads in [1, 3] {
        let config = SolverConfig::default().with_parallelism(Parallelism::Threads(threads));
        let enumeration = EnumerationSolver::with_config(config).solve(p).unwrap();
        prop_assert_eq!(enumeration.blevel(), reference.blevel());
        let t1 = enumeration.solution_constraint().unwrap();
        let t2 = reference.solution_constraint().unwrap();
        prop_assert!(t1.equivalent(t2, p.domains()).unwrap());
        prop_assert_eq!(frontier_set(&enumeration), frontier_set(&reference));

        let bnb = BranchAndBound::with_config(VarOrder::Input, config)
            .solve(p)
            .unwrap();
        prop_assert_eq!(bnb.blevel(), reference.blevel());

        let be = BucketElimination::with_config(config).solve(p).unwrap();
        prop_assert_eq!(be.blevel(), reference.blevel());
        let t3 = be.solution_constraint().unwrap();
        prop_assert!(t3.equivalent(t2, p.domains()).unwrap());
    }
    Ok(())
}

/// Whether every frontier element of `a` is dominated-or-equalled by
/// some frontier element of `b`. Only this direction is meaningful
/// against the enumeration reference on partial orders: its `con`-table
/// entries are `+`-aggregates (least upper bounds) over the eliminated
/// variables, which no single assignment need attain.
fn frontier_covered<S: Semiring>(semiring: &S, a: &Solution<S>, b: &Solution<S>) -> bool {
    a.best()
        .iter()
        .all(|(_, x)| b.best().iter().any(|(_, y)| semiring.leq(x, y)))
}

/// The probabilistic engines agree up to floating-point rounding: the
/// compiled evaluator multiplies constraint levels in scope-completion
/// order rather than declaration order, which can differ in the last
/// ulp on ℝ-valued semirings.
fn check_probabilistic_engines(p: &Scsp<Probabilistic>) -> Result<(), TestCaseError> {
    let close = |a: &Unit, b: &Unit| (a.get() - b.get()).abs() <= 1e-9;
    let reference = EnumerationSolver::new().solve(p).unwrap();
    for threads in [1, 3] {
        let config = SolverConfig::default().with_parallelism(Parallelism::Threads(threads));
        let enumeration = EnumerationSolver::with_config(config).solve(p).unwrap();
        prop_assert!(close(enumeration.blevel(), reference.blevel()));
        let bnb = BranchAndBound::with_config(VarOrder::Input, config)
            .solve(p)
            .unwrap();
        prop_assert!(close(bnb.blevel(), reference.blevel()));
        let be = BucketElimination::with_config(config).solve(p).unwrap();
        prop_assert!(close(be.blevel(), reference.blevel()));
    }
    Ok(())
}

/// The distinct levels of a solution's frontier.
fn frontier_levels<S: Semiring>(solution: &Solution<S>) -> BTreeSet<String> {
    solution
        .best()
        .iter()
        .map(|(_, level)| format!("{level:?}"))
        .collect()
}

/// The partial-order engines (Pareto branch-and-bound, bucket
/// elimination) must reproduce the reference blevel and a
/// Pareto-equivalent frontier at every thread count.
///
/// Pareto search ranks complete assignments, so its anchor is the
/// oracle's `Sol(P)` with `con` = every variable: the frontier's levels
/// are exactly that table's non-dominated levels, and each witness is
/// the `con` restriction of a complete assignment at its level.
fn check_partial_order_engines<S: Semiring>(p: &Scsp<S>) -> Result<(), TestCaseError> {
    let reference = EnumerationSolver::new().solve(p).unwrap();
    let complete = EnumerationSolver::new()
        .solve(&p.clone().of_interest(p.problem_vars()))
        .unwrap();
    let mut sequential_frontier = None;
    for threads in [1, 3] {
        let config = SolverConfig::default().with_parallelism(Parallelism::Threads(threads));
        let enumeration = EnumerationSolver::with_config(config).solve(p).unwrap();
        prop_assert_eq!(enumeration.blevel(), reference.blevel());
        prop_assert_eq!(frontier_set(&enumeration), frontier_set(&reference));

        let pareto = ParetoBranchAndBound::with_config(config).solve(p).unwrap();
        prop_assert_eq!(pareto.blevel(), reference.blevel());
        prop_assert_eq!(frontier_levels(&pareto), frontier_levels(&complete));
        for (eta, level) in pareto.best() {
            prop_assert!(complete.best().iter().any(|(full, l)| {
                l == level && eta.iter().all(|(v, val)| full.get(v) == Some(val))
            }));
        }
        // Determinism: the 3-thread frontier is identical (in content,
        // not just up to domination) to the 1-thread one.
        let frontier = frontier_set(&pareto);
        match &sequential_frontier {
            None => sequential_frontier = Some(frontier),
            Some(sequential) => prop_assert_eq!(&frontier, sequential),
        }
        // And every witness it reports is consistent with the
        // enumeration aggregates.
        prop_assert!(frontier_covered(p.semiring(), &pareto, &reference));

        let be = BucketElimination::with_config(config).solve(p).unwrap();
        prop_assert_eq!(be.blevel(), reference.blevel());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compiled + parallel engines agree with the lazy oracle on
    /// random weighted problems.
    #[test]
    fn parallel_engines_agree_weighted(cfg in cfg_strategy()) {
        check_total_order_engines(&random_weighted(&cfg))?;
    }

    /// ... on random fuzzy problems (idempotent ×).
    #[test]
    fn parallel_engines_agree_fuzzy(cfg in cfg_strategy()) {
        check_total_order_engines(&random_fuzzy(&cfg))?;
    }

    /// ... on random probabilistic problems (× is ℝ multiplication, so
    /// agreement is up to rounding).
    #[test]
    fn parallel_engines_agree_probabilistic(cfg in cfg_strategy()) {
        check_probabilistic_engines(&random_probabilistic(&cfg))?;
    }

    /// ... and on the partially ordered product semiring, where the
    /// frontier itself must match.
    #[test]
    fn parallel_engines_agree_product(cfg in cfg_strategy()) {
        check_partial_order_engines(&random_product(&cfg))?;
    }
}

/// The shrunk configurations recorded in
/// `solver_properties.proptest-regressions`, re-run deterministically
/// on every engine so the historical failures stay covered even when
/// the regression file is not replayed.
#[test]
fn pinned_regression_configs_stay_green() {
    let pinned = [
        RandomScsp {
            vars: 2,
            domain_size: 2,
            constraints: 2,
            arity: 2,
            seed: 3797179113194468951,
        },
        RandomScsp {
            vars: 3,
            domain_size: 2,
            constraints: 1,
            arity: 1,
            seed: 4927027093462901669,
        },
        RandomScsp {
            vars: 3,
            domain_size: 2,
            constraints: 1,
            arity: 1,
            seed: 1496016651266552688,
        },
    ];
    for cfg in pinned {
        let p = random_weighted(&cfg);
        let reference = EnumerationSolver::new().solve(&p).unwrap();
        for order in [VarOrder::Input, VarOrder::MostConstrained] {
            let bnb = BranchAndBound::new(order).solve(&p).unwrap();
            assert_eq!(bnb.blevel(), reference.blevel(), "{cfg:?}");
        }
        let be = BucketElimination::new().solve(&p).unwrap();
        assert_eq!(be.blevel(), reference.blevel(), "{cfg:?}");
        let t1 = be.solution_constraint().unwrap();
        let t2 = reference.solution_constraint().unwrap();
        assert!(t1.equivalent(t2, p.domains()).unwrap(), "{cfg:?}");
        check_total_order_engines(&p).unwrap();
        check_partial_order_engines(&random_product(&cfg)).unwrap();
    }
}

/// A deterministic sanity check that bucket elimination scales where
/// enumeration cannot: a 14-variable chain (4^14 ≈ 2.7·10⁸ tuples for
/// enumeration) solves instantly by elimination.
#[test]
fn bucket_elimination_handles_long_chains() {
    let p = chain_weighted(14, 4, 9);
    let be = BucketElimination::new().solve(&p).unwrap();
    // A chain of |x_i + k_i − x_{i+1}| constraints is always
    // 0-satisfiable when every offset stays in range... not guaranteed
    // for all seeds, but the blevel must at least be finite.
    assert!(*be.blevel() < u64::MAX);
}

/// Residuation sanity on the semiring itself, driven through the
/// constraint layer with a handcrafted store.
#[test]
fn weighted_store_algebra_roundtrip() {
    let doms = Domains::new().with("x", Domain::ints(0..=6));
    let s = WeightedInt;
    let c_a = Constraint::unary(s, "x", |v| 3 * v.as_int().unwrap() as u64 + 1);
    let c_b = Constraint::unary(s, "x", |v| v.as_int().unwrap() as u64 + 2);
    let combined = c_a.combine(&c_b);
    let back_a = combined.divide(&c_b);
    let back_b = combined.divide(&c_a);
    assert!(back_a.equivalent(&c_a, &doms).unwrap());
    assert!(back_b.equivalent(&c_b, &doms).unwrap());
    // And the semiring-level identity behind it.
    assert_eq!(s.div(&s.times(&7, &3), &3), 7);
}
