//! Differential test harness for the incremental re-solve engine:
//! random delta scripts (add / retract / update) replayed against an
//! [`IncrementalSolver`], with a from-scratch [`BranchAndBound`] solve
//! and the [`EnumerationSolver::new`] oracle on the materialised
//! problem after every step — across the weighted, fuzzy and
//! probabilistic semirings.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use softsoa::core::generate::{random_fuzzy, random_probabilistic, random_weighted, RandomScsp};
use softsoa::core::solve::{
    BranchAndBound, ConstraintId, EnumerationSolver, IncrementalSolver, Solver,
};
use softsoa::core::{Constraint, Domain, Scsp, Var};
use softsoa::semiring::{Fuzzy, Probabilistic, Semiring, Unit, WeightedInt};

/// One scripted delta. Indices are reduced modulo the live constraint
/// count at replay time, so every script is applicable to every
/// problem.
#[derive(Debug, Clone)]
enum Op {
    /// Add the first constraint of a fresh random problem drawn with
    /// this seed.
    Add(u64),
    /// Retract the `i % live`-th live constraint.
    Retract(usize),
    /// Replace the `i % live`-th live constraint with a freshly drawn
    /// one.
    Update(usize, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u64>().prop_map(Op::Add),
        any::<usize>().prop_map(Op::Retract),
        (any::<usize>(), any::<u64>()).prop_map(|(i, s)| Op::Update(i, s)),
    ]
}

fn cfg_strategy() -> impl Strategy<Value = RandomScsp> {
    (2usize..5, 2usize..4, 1usize..6, 1usize..3, any::<u64>()).prop_map(
        |(vars, domain_size, constraints, arity, seed)| RandomScsp {
            vars,
            domain_size,
            constraints,
            arity,
            seed,
        },
    )
}

/// Replays `script` against an incremental solver seeded from
/// `make(cfg)` and checks, after every delta, that (a) the incremental
/// blevel matches a from-scratch branch-and-bound solve and the
/// enumeration oracle on the materialised problem, and (b) the
/// incremental witness actually
/// achieves its blevel. `close` is the semiring's equality (exact for
/// weighted/fuzzy, `1e-9`-tolerant for probabilistic).
fn differential<S: Semiring>(
    semiring: S,
    cfg: &RandomScsp,
    make: impl Fn(&RandomScsp) -> Scsp<S>,
    script: &[Op],
    close: impl Fn(&S::Value, &S::Value) -> bool,
) -> Result<(), TestCaseError> {
    let base = make(cfg);
    let (solver, ids) = IncrementalSolver::from_problem(&base);
    // Interest in every variable, so witnesses are total assignments
    // we can evaluate the store on.
    let all_vars: Vec<Var> = base.domains().iter().map(|(v, _)| v.clone()).collect();
    let mut solver = solver.of_interest(all_vars);
    let mut live: Vec<ConstraintId> = ids;
    for (step, op) in script.iter().enumerate() {
        match *op {
            Op::Add(seed) => {
                let pool = make(&RandomScsp { seed, ..*cfg });
                if let Some(c) = pool.constraints().first() {
                    live.push(solver.add_constraint(c.clone()));
                }
            }
            Op::Retract(i) => {
                if !live.is_empty() {
                    let id = live.remove(i % live.len());
                    solver.retract_constraint(id);
                }
            }
            Op::Update(i, seed) => {
                if !live.is_empty() {
                    let pool = make(&RandomScsp { seed, ..*cfg });
                    if let Some(c) = pool.constraints().first() {
                        solver.update_constraint(live[i % live.len()], c.clone());
                    }
                }
            }
        }
        let problem = solver.problem();
        let incremental = solver.solve().unwrap();
        let scratch = BranchAndBound::default().solve(&problem).unwrap();
        prop_assert!(
            close(incremental.blevel(), scratch.blevel()),
            "step {step} ({op:?}): incremental {:?} vs from-scratch {:?}",
            incremental.blevel(),
            scratch.blevel()
        );
        let oracle = EnumerationSolver::new().solve(&problem).unwrap();
        prop_assert!(
            close(incremental.blevel(), oracle.blevel()),
            "step {step} ({op:?}): incremental {:?} vs oracle {:?}",
            incremental.blevel(),
            oracle.blevel()
        );
        if let Some(eta) = incremental.best_assignment() {
            let levels: Result<Vec<S::Value>, _> = problem
                .constraints()
                .iter()
                .map(|c| c.try_eval(eta))
                .collect();
            if let Ok(levels) = levels {
                let achieved = semiring.product(levels.iter());
                prop_assert!(
                    close(&achieved, incremental.blevel()),
                    "step {step} ({op:?}): witness {eta} achieves {achieved:?}, \
                     blevel claims {:?}",
                    incremental.blevel()
                );
            }
        }
    }
    Ok(())
}

fn unit_close(a: &Unit, b: &Unit) -> bool {
    (a.get() - b.get()).abs() <= 1e-9
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Weighted semiring: incremental ≡ from-scratch after every delta.
    #[test]
    fn incremental_matches_scratch_weighted(
        cfg in cfg_strategy(),
        script in proptest::collection::vec(op_strategy(), 1..8),
    ) {
        differential(WeightedInt, &cfg, random_weighted, &script, |a, b| a == b)?;
    }

    /// Fuzzy semiring (idempotent, exact ×): same differential check.
    #[test]
    fn incremental_matches_scratch_fuzzy(
        cfg in cfg_strategy(),
        script in proptest::collection::vec(op_strategy(), 1..8),
    ) {
        differential(Fuzzy, &cfg, random_fuzzy, &script, |a, b| a == b)?;
    }

    /// Probabilistic semiring: inexact ×, so the component-wise
    /// product may re-associate the fold — equality up to `1e-9`.
    #[test]
    fn incremental_matches_scratch_probabilistic(
        cfg in cfg_strategy(),
        script in proptest::collection::vec(op_strategy(), 1..8),
    ) {
        differential(Probabilistic, &cfg, random_probabilistic, &script, unit_close)?;
    }
}

/// Deterministic structured smoke test: two independent clusters are
/// bridged, tightened, un-bridged and finally emptied, with the
/// from-scratch oracle consulted at every step. This pins the
/// component-merge / component-split transitions that random scripts
/// only occasionally hit.
#[test]
fn structured_bridge_script_matches_scratch() {
    let unary = |v: &str, slope: u64| {
        Constraint::unary(WeightedInt, v, move |val| {
            slope * val.as_int().unwrap() as u64
        })
    };
    let bridge = |w: u64| {
        Constraint::binary(WeightedInt, "a1", "b1", move |x, y| {
            w * x.as_int().unwrap().abs_diff(y.as_int().unwrap() + 1)
        })
    };
    let mut solver = IncrementalSolver::new(WeightedInt)
        .with_domain("a0", Domain::ints(0..4))
        .with_domain("a1", Domain::ints(0..4))
        .with_domain("b0", Domain::ints(0..4))
        .with_domain("b1", Domain::ints(0..4))
        .of_interest(["a0", "a1", "b0", "b1"]);
    let mut live = vec![
        solver.add_constraint(unary("a0", 1)),
        solver.add_constraint(Constraint::binary(WeightedInt, "a0", "a1", |x, y| {
            x.as_int().unwrap().abs_diff(y.as_int().unwrap())
        })),
        solver.add_constraint(unary("b0", 2)),
        solver.add_constraint(Constraint::binary(WeightedInt, "b0", "b1", |x, y| {
            (x.as_int().unwrap() + y.as_int().unwrap()) as u64
        })),
    ];

    let check = |solver: &mut IncrementalSolver<WeightedInt>, label: &str| {
        let problem = solver.problem();
        let scratch = BranchAndBound::default().solve(&problem).unwrap();
        let oracle = EnumerationSolver::new().solve(&problem).unwrap();
        let incremental = solver.solve().unwrap();
        assert_eq!(
            incremental.blevel(),
            scratch.blevel(),
            "{label}: incremental diverged from from-scratch"
        );
        assert_eq!(
            incremental.blevel(),
            oracle.blevel(),
            "{label}: incremental diverged from the oracle"
        );
    };

    check(&mut solver, "baseline (two clusters)");

    // Bridge the clusters: the two components merge into one.
    let id = solver.add_constraint(bridge(1));
    live.push(id);
    check(&mut solver, "bridged (merged component)");
    let merged_resolves = solver.stats().components_resolved;

    // Tighten the bridge in place: same structure, new version — the
    // merged component re-solves, warm-started from its witness.
    solver.update_constraint(id, bridge(3));
    check(&mut solver, "tightened bridge");
    assert!(
        solver.stats().components_resolved > merged_resolves,
        "tightening must dirty the merged component"
    );
    assert!(
        solver.stats().warm_seeds >= 1,
        "tightening should warm-start from the previous optimum"
    );

    // Un-bridge: the clusters split back; their original cached
    // results are still valid and must be replayed, not re-searched.
    solver.retract_constraint(live.pop().unwrap());
    let before_split = solver.stats().components_resolved;
    check(&mut solver, "split back (bridge retracted)");
    assert_eq!(
        solver.stats().components_resolved,
        before_split,
        "splitting back must replay the clusters from cache"
    );

    // Drain the problem: retracting everything leaves isolated
    // interest variables and blevel 1̄ (cost 0).
    for id in live.drain(..) {
        solver.retract_constraint(id);
        check(&mut solver, "draining");
    }
    assert_eq!(*solver.solve().unwrap().blevel(), 0);
}
