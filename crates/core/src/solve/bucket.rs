//! Bucket (variable) elimination.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use softsoa_semiring::Semiring;

use crate::compile::{Aggregate, CompiledProblem};
use crate::solve::parallel::fan_out;
use crate::solve::{best_from_entries, Solution, SolveError, Solver, SolverConfig, SolverStats};
use crate::{Constraint, Scsp, Val, Var};

/// Materialised table entries over a kept scope, paired with the
/// number of worker threads that produced them.
type AggregatedEntries<S> = (Vec<(Vec<Val>, <S as Semiring>::Value)>, usize);

/// Elimination-order heuristics for [`BucketElimination`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum EliminationOrder {
    /// Eliminate non-`con` variables in reverse sorted order.
    #[default]
    InputReverse,
    /// Eliminate the variable with the fewest interaction-graph
    /// neighbours first (min-degree).
    MinDegree,
}

/// A variable-elimination solver.
///
/// Eliminates each variable outside `con` by combining the constraints
/// mentioning it and projecting it out. The cost is exponential in the
/// *induced width* of the elimination order rather than in the total
/// number of variables, so chains and trees of constraints solve in
/// time linear in the number of variables — the regime where this
/// solver dominates [`EnumerationSolver`](crate::solve::EnumerationSolver)
/// (bench `solver_comparison`).
///
/// Correctness rests on distributivity of `×` over `+`, which holds in
/// every c-semiring, including partially ordered ones.
///
/// # Examples
///
/// ```
/// use softsoa_core::{Scsp, Constraint, Domain};
/// use softsoa_core::solve::{BucketElimination, Solver};
/// use softsoa_semiring::WeightedInt;
///
/// // A chain x0 — x1 — x2: induced width 1.
/// let mut p = Scsp::new(WeightedInt).of_interest(["x0"]);
/// for i in 0..3 {
///     p.add_domain(format!("x{i}"), Domain::ints(0..=4));
/// }
/// for i in 0..2 {
///     p.add_constraint(Constraint::binary(
///         WeightedInt, format!("x{i}"), format!("x{}", i + 1),
///         |a, b| (a.as_int().unwrap() - b.as_int().unwrap()).unsigned_abs(),
///     ));
/// }
/// let solution = BucketElimination::default().solve(&p)?;
/// assert_eq!(*solution.blevel(), 0); // all-equal assignment costs 0
/// # Ok::<(), softsoa_core::SolveError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BucketElimination {
    order: EliminationOrder,
    config: SolverConfig,
}

impl BucketElimination {
    /// Creates the solver with the given elimination-order heuristic
    /// and the default engine (automatic thread count).
    pub fn new(order: EliminationOrder) -> BucketElimination {
        BucketElimination {
            order,
            config: SolverConfig::default(),
        }
    }

    /// Creates the solver with an explicit engine configuration.
    pub fn with_config(order: EliminationOrder, config: SolverConfig) -> BucketElimination {
        BucketElimination { order, config }
    }

    /// Chooses the order in which to eliminate `candidates`.
    fn elimination_order<S: Semiring>(&self, problem: &Scsp<S>, candidates: Vec<Var>) -> Vec<Var> {
        match self.order {
            EliminationOrder::InputReverse => {
                let mut vars = candidates;
                vars.reverse();
                vars
            }
            EliminationOrder::MinDegree => {
                // Greedy min-degree on the (static) interaction graph.
                let neighbours = |v: &Var| -> usize {
                    let mut set = BTreeSet::new();
                    for c in problem.constraints() {
                        if c.scope().contains(v) {
                            set.extend(c.scope().iter().cloned());
                        }
                    }
                    set.remove(v);
                    set.len()
                };
                let mut keyed: Vec<(usize, Var)> = candidates
                    .into_iter()
                    .map(|v| (neighbours(&v), v))
                    .collect();
                keyed.sort();
                keyed.into_iter().map(|(_, v)| v).collect()
            }
        }
    }
}

impl<S: Semiring> Solver<S> for BucketElimination {
    /// Each bucket is collapsed into a compiled aggregation over its
    /// combined scope (flattened operands, dense tables) and its
    /// projection table is materialised by splitting the outermost
    /// kept variable across worker threads. The final pool aggregation
    /// over `con` works the same way.
    ///
    /// # Errors
    ///
    /// [`SolveError::TableTooLarge`] when a bucket's or the final
    /// `con` table has more cells than `usize` counts.
    fn solve(&self, problem: &Scsp<S>) -> Result<Solution<S>, SolveError> {
        let start = Instant::now();
        let semiring = problem.semiring().clone();
        let con: Vec<Var> = problem.con().to_vec();
        let to_eliminate: Vec<Var> = problem
            .problem_vars()
            .into_iter()
            .filter(|v| !con.contains(v))
            .collect();
        let order = self.elimination_order(problem, to_eliminate);

        let mut stats = SolverStats::default();
        let mut compile_time = Duration::ZERO;
        let mut aggregate = |constraints: &[Constraint<S>],
                             keep: &[Var]|
         -> Result<AggregatedEntries<S>, SolveError> {
            let cp = CompiledProblem::for_projection(
                semiring.clone(),
                constraints,
                keep,
                problem.domains(),
            )?;
            if cp.con_cells().is_none() {
                return Err(SolveError::TableTooLarge);
            }
            compile_time += cp.compile_time();
            let threads = self.config.parallelism.thread_count(cp.outer_size());
            let parts = fan_out(threads, cp.outer_size(), |range| cp.aggregate_range(range));
            stats.thread_nodes.extend(parts.iter().map(|p| p.nodes));
            let agg = Aggregate::merge(&semiring, parts);
            stats.nodes += agg.nodes;
            stats.prunings += agg.prunings;
            Ok((cp.con_entries(agg.table), threads))
        };

        let mut pool: Vec<Constraint<S>> = problem.constraints().to_vec();
        let mut threads_used = 1;
        for var in &order {
            let (bucket, rest): (Vec<_>, Vec<_>) =
                pool.into_iter().partition(|c| c.scope().contains(var));
            pool = rest;
            if bucket.is_empty() {
                continue;
            }
            let keep: Vec<Var> = bucket
                .iter()
                .flat_map(|c| c.scope().iter().cloned())
                .filter(|v| v != var)
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let (entries, threads) = aggregate(&bucket, &keep)?;
            threads_used = threads_used.max(threads);
            pool.push(Constraint::table(
                semiring.clone(),
                &keep,
                entries,
                semiring.zero(),
            ));
        }

        // Remaining constraints range over con only; build Sol(P).
        let (entries, threads) = aggregate(&pool, &con)?;
        threads_used = threads_used.max(threads);
        let blevel = semiring.sum(entries.iter().map(|(_, v)| v));
        let best = best_from_entries(&semiring, &con, &entries);
        let solution = Constraint::table(semiring.clone(), &con, entries, semiring.zero())
            .with_label("Sol(P)");
        stats.threads = threads_used;
        stats.compile_time = compile_time;
        stats.solve_time = start.elapsed();
        Ok(Solution::new(blevel, best, Some(solution)).with_stats(stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::EnumerationSolver;
    use crate::testutil::fig1_problem;
    use crate::{Assignment, Domain};
    use softsoa_semiring::{Boolean, Product, WeightedInt};

    #[test]
    fn agrees_with_enumeration_on_fig1() {
        let p = fig1_problem();
        let reference = EnumerationSolver::new().solve(&p).unwrap();
        for order in [EliminationOrder::InputReverse, EliminationOrder::MinDegree] {
            let be = BucketElimination::new(order).solve(&p).unwrap();
            assert_eq!(be.blevel(), reference.blevel());
            let t1 = be.solution_constraint().unwrap();
            let t2 = reference.solution_constraint().unwrap();
            assert!(t1.equivalent(t2, p.domains()).unwrap());
        }
    }

    #[test]
    fn solves_chains_with_small_induced_width() {
        let mut p = Scsp::new(WeightedInt).of_interest(["x0"]);
        for i in 0..8 {
            p.add_domain(format!("x{i}"), Domain::ints(0..=3));
        }
        for i in 0..7 {
            p.add_constraint(Constraint::binary(
                WeightedInt,
                format!("x{i}"),
                format!("x{}", i + 1),
                |a, b| (a.as_int().unwrap() - b.as_int().unwrap()).unsigned_abs(),
            ));
        }
        let be = BucketElimination::default().solve(&p).unwrap();
        let reference = EnumerationSolver::new().solve(&p).unwrap();
        assert_eq!(be.blevel(), reference.blevel());
    }

    #[test]
    fn works_on_partial_orders() {
        // Bucket elimination does not require a total order.
        let s = Product::new(Boolean, WeightedInt);
        let one = s.one();
        let p = Scsp::new(s)
            .with_domain("x", Domain::ints(0..=2))
            .with_constraint(Constraint::unary(s, "x", move |v| {
                (v.as_int().unwrap() != 1, v.as_int().unwrap() as u64)
            }))
            .of_interest(["x"]);
        let be = BucketElimination::default().solve(&p).unwrap();
        let reference = EnumerationSolver::new().solve(&p).unwrap();
        assert_eq!(be.blevel(), reference.blevel());
        let _ = one;
        // The frontier contains (true, 0) at x=0; x=1 is (false, 1).
        let best = be.best();
        assert!(best
            .iter()
            .any(|(eta, _)| eta.get(&Var::new("x")) == Some(&Val::Int(0))));
    }

    #[test]
    fn solution_table_over_con() {
        let p = fig1_problem();
        let be = BucketElimination::default().solve(&p).unwrap();
        let table = be.solution_constraint().unwrap();
        assert_eq!(table.scope(), &[Var::new("x")]);
        assert_eq!(table.eval(&Assignment::new().bind("x", "a")), 7);
        assert_eq!(table.eval(&Assignment::new().bind("x", "b")), 16);
    }

    #[test]
    fn overflowing_con_table_is_a_typed_error() {
        let p = crate::testutil::wide_chain();
        let result = BucketElimination::default().solve(&p);
        assert!(
            matches!(result, Err(SolveError::TableTooLarge)),
            "{result:?}"
        );
    }
}
