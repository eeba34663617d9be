//! The reference exhaustive solver.

use std::collections::HashMap;
use std::time::Instant;

use softsoa_semiring::Semiring;

use crate::compile::{Aggregate, CompiledProblem};
use crate::solve::parallel::fan_out;
use crate::solve::{best_from_entries, Solution, SolveError, Solver, SolverConfig, SolverStats};
use crate::{Constraint, Scsp, Val, Var};

/// The reference solver: enumerate every assignment of the problem
/// variables, combine all constraints pointwise and aggregate over
/// `con` with the semiring sum.
///
/// Complexity is `O(Π |Dᵢ| · |C|)` — exponential in the total number
/// of variables. [`EnumerationSolver::new`] follows the definitions of
/// Sec. 2 literally (lazy evaluation, one thread), which makes it the
/// semantics every other engine is tested against;
/// [`EnumerationSolver::with_config`] enables the compiled engine —
/// flattened `⊗`-operands, dense tables, index-tuple enumeration — and
/// splits the outermost variable's domain across threads, merging the
/// per-chunk `con` tables with the semiring `+`.
///
/// # Examples
///
/// ```
/// use softsoa_core::{Scsp, Constraint, Domain};
/// use softsoa_core::solve::{EnumerationSolver, Solver, SolverConfig};
/// use softsoa_semiring::WeightedInt;
///
/// let p = Scsp::new(WeightedInt)
///     .with_domain("x", Domain::ints(0..=9))
///     .with_constraint(Constraint::unary(WeightedInt, "x", |v| {
///         v.as_int().unwrap() as u64 + 3
///     }))
///     .of_interest(["x"]);
/// let solution = EnumerationSolver::with_config(SolverConfig::default()).solve(&p)?;
/// assert_eq!(*solution.blevel(), 3); // best at x = 0
/// assert!(solution.stats().is_some());
/// # Ok::<(), softsoa_core::SolveError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EnumerationSolver {
    /// `None` selects the lazy reference ([`EnumerationSolver::new`]);
    /// `Some` the compiled engine under that configuration.
    config: Option<SolverConfig>,
}

impl Default for EnumerationSolver {
    fn default() -> EnumerationSolver {
        EnumerationSolver::new()
    }
}

impl EnumerationSolver {
    /// Creates the lazy sequential reference solver: the oracle every
    /// other engine is tested against.
    pub fn new() -> EnumerationSolver {
        EnumerationSolver { config: None }
    }

    /// Creates the compiled solver under an explicit engine
    /// configuration (only its [`parallelism`](SolverConfig::parallelism)
    /// applies).
    pub fn with_config(config: SolverConfig) -> EnumerationSolver {
        EnumerationSolver {
            config: Some(config),
        }
    }

    fn solve_compiled<S: Semiring>(
        config: &SolverConfig,
        problem: &Scsp<S>,
    ) -> Result<Solution<S>, SolveError> {
        let start = Instant::now();
        let semiring = problem.semiring().clone();
        let con: Vec<Var> = problem.con().to_vec();
        let compiled = CompiledProblem::from_problem(problem)?;
        if compiled.con_cells().is_none() {
            return Err(SolveError::TableTooLarge);
        }
        let threads = config.parallelism.thread_count(compiled.outer_size());
        let parts = fan_out(threads, compiled.outer_size(), |range| {
            compiled.aggregate_range(range)
        });
        let thread_nodes: Vec<u64> = parts.iter().map(|p| p.nodes).collect();
        let agg = Aggregate::merge(&semiring, parts);
        let entries = compiled.con_entries(agg.table);
        let blevel = semiring.sum(entries.iter().map(|(_, v)| v));
        let best = best_from_entries(&semiring, &con, &entries);
        let table = Constraint::table(semiring.clone(), &con, entries, semiring.zero())
            .with_label("Sol(P)");
        let stats = SolverStats {
            nodes: agg.nodes,
            prunings: agg.prunings,
            threads,
            thread_nodes,
            compile_time: compiled.compile_time(),
            solve_time: start.elapsed(),
            constraint_evals: compiled.eval_stats(&agg.evals),
            ..SolverStats::default()
        };
        Ok(Solution::new(blevel, best, Some(table)).with_stats(stats))
    }

    fn solve_lazy<S: Semiring>(problem: &Scsp<S>) -> Result<Solution<S>, SolveError> {
        let start = Instant::now();
        let semiring = problem.semiring().clone();
        let all_vars = problem.problem_vars();
        let con: Vec<Var> = problem.con().to_vec();

        // Position of each constraint-scope variable and each con
        // variable within the full variable tuple.
        let scope_embeddings: Vec<Vec<usize>> = problem
            .constraints()
            .iter()
            .map(|c| {
                c.scope()
                    .iter()
                    .map(|v| {
                        all_vars
                            .binary_search(v)
                            .expect("scope var is a problem var")
                    })
                    .collect()
            })
            .collect();
        let con_embedding: Vec<usize> = con
            .iter()
            .map(|v| all_vars.binary_search(v).expect("con var is a problem var"))
            .collect();

        let mut nodes = 0u64;
        let mut per_con: HashMap<Vec<Val>, S::Value> = HashMap::new();
        for tuple in problem.domains().tuples(&all_vars)? {
            nodes += 1;
            let mut value = semiring.one();
            for (c, emb) in problem.constraints().iter().zip(&scope_embeddings) {
                if semiring.is_zero(&value) {
                    break; // 0 absorbs ×
                }
                let sub: Vec<Val> = emb.iter().map(|&i| tuple[i].clone()).collect();
                value = semiring.times(&value, &c.eval_tuple(&sub));
            }
            let key: Vec<Val> = con_embedding.iter().map(|&i| tuple[i].clone()).collect();
            match per_con.get_mut(&key) {
                Some(acc) => *acc = semiring.plus(acc, &value),
                None => {
                    per_con.insert(key, value);
                }
            }
        }

        // Sorted by `con` tuple, so `best()` lists ties in domain order
        // rather than in the map's arbitrary iteration order.
        let mut entries: Vec<(Vec<Val>, S::Value)> = per_con.into_iter().collect();
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        let blevel = semiring.sum(entries.iter().map(|(_, v)| v));
        let best = best_from_entries(&semiring, &con, &entries);
        let table = Constraint::table(semiring.clone(), &con, entries, semiring.zero())
            .with_label("Sol(P)");
        let stats = SolverStats {
            nodes,
            threads: 1,
            solve_time: start.elapsed(),
            ..SolverStats::default()
        };
        Ok(Solution::new(blevel, best, Some(table)).with_stats(stats))
    }
}

impl<S: Semiring> Solver<S> for EnumerationSolver {
    fn solve(&self, problem: &Scsp<S>) -> Result<Solution<S>, SolveError> {
        match &self.config {
            Some(config) => EnumerationSolver::solve_compiled(config, problem),
            None => EnumerationSolver::solve_lazy(problem),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::Parallelism;
    use crate::{Assignment, Domain};
    use softsoa_semiring::{Fuzzy, Unit, WeightedInt};

    fn fig1() -> Scsp<WeightedInt> {
        crate::testutil::fig1_problem()
    }

    #[test]
    fn fig1_solution_table() {
        let sol = EnumerationSolver::new().solve(&fig1()).unwrap();
        assert_eq!(*sol.blevel(), 7);
        let table = sol.solution_constraint().unwrap();
        assert_eq!(table.eval(&Assignment::new().bind("x", "a")), 7);
        assert_eq!(table.eval(&Assignment::new().bind("x", "b")), 16);
        // The single best solution is X = a (reached with Y = b).
        assert_eq!(sol.best().len(), 1);
        assert_eq!(sol.best()[0].0.get(&Var::new("x")), Some(&Val::sym("a")));
        assert_eq!(sol.best()[0].1, 7);
    }

    #[test]
    fn compiled_agrees_with_lazy_reference() {
        for threads in [1, 3] {
            let cfg = SolverConfig::default().with_parallelism(Parallelism::Threads(threads));
            let sol = EnumerationSolver::with_config(cfg).solve(&fig1()).unwrap();
            assert_eq!(*sol.blevel(), 7);
            let table = sol.solution_constraint().unwrap();
            assert_eq!(table.eval(&Assignment::new().bind("x", "a")), 7);
            assert_eq!(table.eval(&Assignment::new().bind("x", "b")), 16);
            let stats = sol.stats().unwrap();
            assert_eq!(stats.threads, threads.min(2)); // two outer values
            assert_eq!(stats.constraint_evals.len(), 3);
            assert!(stats.constraint_evals.iter().all(|c| c.dense_cells > 0));
        }
    }

    #[test]
    fn empty_con_projects_to_scalar() {
        let mut p = fig1();
        p = p.of_interest(Vec::<Var>::new());
        for solver in [
            EnumerationSolver::new(),
            EnumerationSolver::with_config(SolverConfig::default()),
        ] {
            let sol = solver.solve(&p).unwrap();
            assert_eq!(*sol.blevel(), 7);
            let table = sol.solution_constraint().unwrap();
            assert_eq!(table.eval(&Assignment::new()), 7);
        }
    }

    #[test]
    fn no_constraints_is_fully_consistent() {
        let p = Scsp::new(WeightedInt)
            .with_domain("x", Domain::ints(0..=3))
            .of_interest(["x"]);
        for solver in [
            EnumerationSolver::new(),
            EnumerationSolver::with_config(SolverConfig::default()),
        ] {
            let sol = solver.solve(&p).unwrap();
            assert_eq!(*sol.blevel(), 0); // weighted one
            assert_eq!(sol.best().len(), 4);
        }
    }

    #[test]
    fn fuzzy_maximin() {
        let u = |v: f64| Unit::new(v).unwrap();
        let p = Scsp::new(Fuzzy)
            .with_domain("x", Domain::ints(1..=9))
            .with_constraint(Constraint::unary(Fuzzy, "x", move |v| {
                // Client preference rises with x.
                Unit::clamped((v.as_int().unwrap() as f64 - 1.0) / 8.0)
            }))
            .with_constraint(Constraint::unary(Fuzzy, "x", move |v| {
                // Provider preference falls with x.
                Unit::clamped((9.0 - v.as_int().unwrap() as f64) / 8.0)
            }))
            .of_interest(["x"]);
        let sol = EnumerationSolver::new().solve(&p).unwrap();
        assert_eq!(*sol.blevel(), u(0.5));
        assert_eq!(
            sol.best_assignment().unwrap().get(&Var::new("x")),
            Some(&Val::Int(5))
        );
    }

    #[test]
    fn ties_are_listed_in_domain_order() {
        // Every value ties: both engines list all 32, in domain order.
        let p = Scsp::new(WeightedInt)
            .with_domain("x", Domain::ints(0..32))
            .with_constraint(Constraint::unary(WeightedInt, "x", |_| 1))
            .of_interest(["x"]);
        for solver in [
            EnumerationSolver::new(),
            EnumerationSolver::with_config(SolverConfig::default()),
        ] {
            let solution = solver.solve(&p).unwrap();
            let listed: Vec<i64> = solution
                .best()
                .iter()
                .map(|(eta, _)| eta.get(&Var::new("x")).unwrap().as_int().unwrap())
                .collect();
            assert_eq!(listed, (0..32).collect::<Vec<_>>(), "{solver:?}");
        }
    }

    #[test]
    fn missing_domain_is_an_error() {
        let p = Scsp::new(WeightedInt)
            .with_constraint(Constraint::unary(WeightedInt, "x", |_| 0))
            .of_interest(["x"]);
        for solver in [
            EnumerationSolver::new(),
            EnumerationSolver::with_config(SolverConfig::default()),
        ] {
            assert!(matches!(
                solver.solve(&p),
                Err(SolveError::MissingDomain(_))
            ));
        }
    }

    #[test]
    fn overflowing_con_table_is_a_typed_error() {
        let p = crate::testutil::wide_chain();
        let result = EnumerationSolver::with_config(SolverConfig::default()).solve(&p);
        assert!(
            matches!(result, Err(SolveError::TableTooLarge)),
            "{result:?}"
        );
    }
}
