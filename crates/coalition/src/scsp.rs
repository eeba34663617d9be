//! The SCSP encoding of coalition formation (Sec. 6.1).
//!
//! Variables `co1 .. con` range over the powerset of agent
//! identifiers; the Fuzzy semiring maximises the minimum coalition
//! trustworthiness; crisp (0/1-valued) constraints enforce that the
//! coalitions partition the agents and that no blocking pair exists.
//! This is the paper's formalisation verbatim — exponential in `n`,
//! and therefore cross-checked against the direct
//! [`exact_formation`](crate::exact_formation) search on small
//! networks (they must and do agree).

use std::collections::BTreeSet;

use softsoa_core::solve::{BranchAndBound, Solver, SolverConfig, VarOrder};
use softsoa_core::{Constraint, Domain, Scsp, SolveError, Val, Var};
use softsoa_semiring::{Fuzzy, Unit};

use crate::{
    attachment, coalition_trust, Coalition, FormationResult, Partition, TrustComposition,
    TrustNetwork,
};

fn co_var(i: u32) -> Var {
    Var::new(format!("co{}", i + 1))
}

fn as_coalition(v: &Val) -> Coalition {
    v.as_set().cloned().unwrap_or_default()
}

/// Builds the Sec. 6.1 SCSP for a trust network.
///
/// The problem has one variable per potential coalition (`n` of them,
/// since at most `n` non-empty coalitions exist), each with the
/// powerset domain `𝒫{0..n}`; `con` is the full variable set.
///
/// Constraint classes, as in the paper:
///
/// 1. **trust** — a unary fuzzy constraint per variable scoring the
///    coalition's trustworthiness `T(C)` through `◦` (empty
///    coalitions score `1`);
/// 2. **partition** — crisp: pairwise disjointness plus full coverage;
/// 3. **stability** — crisp, for each ordered variable pair: no agent
///    of the first would defect to the second (Def. 4).
///
/// # Panics
///
/// Panics if `network.len() > 5` (the encoding enumerates
/// `(2ⁿ)ⁿ` tuples; at `n = 5` that is already 33M).
pub fn formation_scsp(
    network: &TrustNetwork,
    compose: TrustComposition,
    require_stability: bool,
) -> Scsp<Fuzzy> {
    let n = network.len();
    assert!(n <= 5, "the SCSP encoding is exponential; use n ≤ 5");
    let vars: Vec<Var> = (0..n).map(co_var).collect();

    let mut problem = Scsp::new(Fuzzy);
    for v in &vars {
        problem.add_domain(v.clone(), Domain::powerset(n));
    }

    // 1. Trust constraints.
    for v in &vars {
        let net = network.clone();
        problem.add_constraint(
            Constraint::unary(Fuzzy, v.clone(), move |val| {
                let c = as_coalition(val);
                if c.is_empty() {
                    Unit::MAX
                } else {
                    coalition_trust(&net, &c, compose)
                }
            })
            .with_label(format!("trust({v})")),
        );
    }

    // 2. Partition constraints: pairwise disjointness...
    for i in 0..vars.len() {
        for j in (i + 1)..vars.len() {
            problem.add_constraint(
                Constraint::binary(Fuzzy, vars[i].clone(), vars[j].clone(), |a, b| {
                    if as_coalition(a).is_disjoint(&as_coalition(b)) {
                        Unit::MAX
                    } else {
                        Unit::MIN
                    }
                })
                .with_label(format!("disjoint({},{})", vars[i], vars[j])),
            );
        }
    }
    // ...plus full coverage: |co1 ∪ ... ∪ con| = n.
    {
        let total = n;
        problem.add_constraint(
            Constraint::crisp(Fuzzy, &vars, move |vals| {
                let mut union: BTreeSet<u32> = BTreeSet::new();
                for v in vals {
                    union.extend(as_coalition(v));
                }
                union.len() == total as usize
            })
            .with_label("coverage"),
        );
    }

    // 3. Stability constraints (one binary crisp constraint per
    // ordered pair (co_v, co_u), conjoining the paper's per-agent
    // ternary constraints over x_k ∈ co_v).
    if require_stability {
        for v in 0..vars.len() {
            for u in 0..vars.len() {
                if u == v {
                    continue;
                }
                let net = network.clone();
                problem.add_constraint(
                    Constraint::binary(
                        Fuzzy,
                        vars[v].clone(),
                        vars[u].clone(),
                        move |cv_val, cu_val| {
                            let cv = as_coalition(cv_val);
                            let cu = as_coalition(cu_val);
                            if cu.is_empty() {
                                return Unit::MAX;
                            }
                            for &k in &cv {
                                let own = attachment(&net, k, &cv, compose);
                                let other = attachment(&net, k, &cu, compose);
                                if other > own {
                                    let t_cu = coalition_trust(&net, &cu, compose);
                                    let mut ext = cu.clone();
                                    ext.insert(k);
                                    if coalition_trust(&net, &ext, compose) > t_cu {
                                        return Unit::MIN; // blocking
                                    }
                                }
                            }
                            Unit::MAX
                        },
                    )
                    .with_label(format!("stable({},{})", vars[v], vars[u])),
                );
            }
        }
    }

    problem.of_interest(vars)
}

/// Solves the Sec. 6.1 encoding and decodes the best assignment into a
/// [`Partition`].
///
/// Returns `None` when no feasible (partitioning, and stable if
/// required) assignment exists at a level above `0`.
///
/// # Errors
///
/// Returns [`SolveError`] if solving fails.
///
/// # Panics
///
/// Panics if `network.len() > 5` (see [`formation_scsp`]).
pub fn scsp_formation(
    network: &TrustNetwork,
    compose: TrustComposition,
    require_stability: bool,
) -> Result<Option<FormationResult>, SolveError> {
    let n = network.len();
    let problem = formation_scsp(network, compose, require_stability);
    let solution = problem.solve()?;
    decode(n, solution.best().first())
}

/// [`scsp_formation`] on the branch-and-bound engine with an explicit
/// [`SolverConfig`] — the path behind the CLI's `--propagate` /
/// `--decompose` flags. The formation score is identical to the
/// enumeration path for every configuration; the decoded partition is
/// always feasible (and stable when required) but, the fuzzy semiring
/// being idempotent, may be a different equally best partition.
///
/// # Errors
///
/// Returns [`SolveError`] if solving fails.
///
/// # Panics
///
/// Panics if `network.len() > 5` (see [`formation_scsp`]).
pub fn scsp_formation_with(
    network: &TrustNetwork,
    compose: TrustComposition,
    require_stability: bool,
    config: &SolverConfig,
) -> Result<Option<FormationResult>, SolveError> {
    let n = network.len();
    let problem = formation_scsp(network, compose, require_stability);
    let solver = BranchAndBound::with_config(VarOrder::Input, *config);
    let solution = solver.solve(&problem)?;
    decode(n, solution.best().first())
}

fn decode(
    n: u32,
    best: Option<&(softsoa_core::Assignment, Unit)>,
) -> Result<Option<FormationResult>, SolveError> {
    let Some((eta, score)) = best else {
        return Ok(None);
    };
    let mut coalitions: Vec<Coalition> = Vec::new();
    for i in 0..n {
        let c = as_coalition(eta.get(&co_var(i)).expect("assigned"));
        if !c.is_empty() {
            coalitions.push(c);
        }
    }
    let partition = Partition::new(n, coalitions).expect("decoded assignment partitions");
    Ok(Some(FormationResult {
        partition,
        score: *score,
        explored: 0,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact_formation, is_stable, FormationConfig};

    #[test]
    fn scsp_matches_direct_exact_search() {
        for seed in 0..2 {
            let net = TrustNetwork::random(4, seed);
            for require_stability in [false, true] {
                let cfg = FormationConfig {
                    compose: TrustComposition::Average,
                    require_stability,
                    ..Default::default()
                };
                let direct = exact_formation(&net, cfg).unwrap();
                let scsp = scsp_formation(&net, cfg.compose, require_stability)
                    .unwrap()
                    .expect("feasible");
                assert_eq!(
                    scsp.score, direct.score,
                    "seed {seed} stability {require_stability}"
                );
            }
        }
    }

    #[test]
    fn scsp_solution_is_a_stable_partition() {
        let net = TrustNetwork::random(4, 9);
        let result = scsp_formation(&net, TrustComposition::Average, true)
            .unwrap()
            .expect("feasible");
        assert!(is_stable(
            &net,
            &result.partition,
            TrustComposition::Average
        ));
    }

    #[test]
    fn branch_and_bound_formation_matches_enumeration_score() {
        use softsoa_core::solve::PropagationMode;
        let net = TrustNetwork::random(4, 3);
        let reference = scsp_formation(&net, TrustComposition::Average, true)
            .unwrap()
            .expect("feasible");
        for config in [
            SolverConfig::default(),
            SolverConfig::default()
                .with_propagation(PropagationMode::Off)
                .with_decompose(false),
        ] {
            let result = scsp_formation_with(&net, TrustComposition::Average, true, &config)
                .unwrap()
                .expect("feasible");
            assert_eq!(result.score, reference.score);
            assert!(is_stable(
                &net,
                &result.partition,
                TrustComposition::Average
            ));
        }
    }

    #[test]
    fn trust_constraint_scores_empty_as_top() {
        let net = TrustNetwork::random(3, 1);
        let p = formation_scsp(&net, TrustComposition::Min, false);
        // Singleton-per-agent assignments with empties are feasible and
        // score MAX; so must the blevel.
        assert_eq!(p.blevel().unwrap(), Unit::MAX);
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn large_networks_are_rejected() {
        let net = TrustNetwork::random(6, 0);
        let _ = formation_scsp(&net, TrustComposition::Min, false);
    }
}
