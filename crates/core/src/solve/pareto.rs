//! Branch-and-bound over *partially ordered* semirings.

use std::time::Instant;

use softsoa_semiring::Semiring;

use crate::compile::CompiledProblem;
use crate::solve::parallel::fan_out;
use crate::solve::{Solution, SolveError, Solver, SolverConfig, SolverStats};
use crate::{Assignment, Scsp, Val};

/// A depth-first solver maintaining a *Pareto frontier* of incumbents,
/// for semirings whose order is partial (Cartesian products, the
/// set-based instance).
///
/// [`BranchAndBound`](crate::solve::BranchAndBound) refuses partial
/// orders because a single incumbent cannot bound the search; this
/// solver instead keeps the set of non-dominated complete assignment
/// values found so far and prunes a branch when its partial
/// combination is already dominated by (`≤` in the semiring order)
/// some incumbent — sound because combining can only worsen a level.
///
/// Returned data:
///
/// - `blevel` is exact: the `+`-sum of values over all assignments
///   equals the least upper bound of the frontier (dominated values
///   are absorbed by `+`);
/// - `best()` holds the non-dominated **complete assignments**
///   (restricted to `con`). Note the difference from
///   [`EnumerationSolver`](crate::solve::EnumerationSolver), whose
///   `best()` ranks con-tuples by their *aggregated* (`+`-summed over
///   hidden variables) level — an aggregate may strictly dominate
///   every single assignment achieving it. For Pareto-style
///   multi-criteria selection, per-assignment values are the useful
///   reading.
///
/// # Examples
///
/// ```
/// use softsoa_core::{Scsp, Constraint, Domain};
/// use softsoa_core::solve::{ParetoBranchAndBound, Solver};
/// use softsoa_semiring::{Product, Weighted, Probabilistic, Weight, Unit};
///
/// // Cost × reliability offers: find the non-dominated ones.
/// let s = Product::new(Weighted, Probabilistic);
/// let offers = [(10.0, 0.90), (25.0, 0.99), (40.0, 0.95)];
/// let sc = s.clone();
/// let p = Scsp::new(s)
///     .with_domain("provider", Domain::ints(0..3))
///     .with_constraint(Constraint::unary(sc, "provider", move |v| {
///         let (cost, rel) = offers[v.as_int().unwrap() as usize];
///         (Weight::saturating(cost), Unit::clamped(rel))
///     }))
///     .of_interest(["provider"]);
/// let solution = ParetoBranchAndBound::new().solve(&p)?;
/// // Provider 2 is dominated by provider 1.
/// assert_eq!(solution.best().len(), 2);
/// # Ok::<(), softsoa_core::SolveError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ParetoBranchAndBound {
    config: SolverConfig,
}

impl ParetoBranchAndBound {
    /// Creates the solver with the default engine (automatic thread
    /// count).
    pub fn new() -> ParetoBranchAndBound {
        ParetoBranchAndBound::default()
    }

    /// Creates the solver with an explicit engine configuration (only
    /// its [`parallelism`](SolverConfig::parallelism) applies).
    pub fn with_config(config: SolverConfig) -> ParetoBranchAndBound {
        ParetoBranchAndBound { config }
    }
}

impl<S: Semiring> Solver<S> for ParetoBranchAndBound {
    /// Each worker explores a slice of the outermost variable's domain
    /// with its own local frontier; frontiers are merged by replaying
    /// their entries in chunk order through the sequential insertion
    /// rule, which reproduces the sequential frontier (and its
    /// representatives) exactly.
    fn solve(&self, problem: &Scsp<S>) -> Result<Solution<S>, SolveError> {
        let start = Instant::now();
        let semiring = problem.semiring().clone();
        let compiled = CompiledProblem::from_problem(problem)?;
        let (parallelism, outer) = (self.config.parallelism, compiled.outer_size());
        let volume = problem.domains().tuple_count(compiled.vars())? as u64;
        let workers = fan_out(parallelism, outer, volume, |range| {
            let mut worker = ParetoWorker {
                semiring: &semiring,
                compiled: &compiled,
                idx: vec![0; compiled.vars().len()],
                scratch: Vec::new(),
                frontier: Vec::new(),
                nodes: 0,
                prunings: 0,
                evals: vec![0; compiled.num_operands()],
            };
            worker.run(range);
            (worker.frontier, worker.nodes, worker.prunings, worker.evals)
        });

        let mut frontier: Vec<(Vec<usize>, S::Value)> = Vec::new();
        let mut stats = SolverStats {
            threads: workers.len(),
            compile_time: compiled.compile_time(),
            ..SolverStats::default()
        };
        let mut evals = vec![0u64; compiled.num_operands()];
        for (local, nodes, prunings, worker_evals) in workers {
            stats.nodes += nodes;
            stats.prunings += prunings;
            stats.thread_nodes.push(nodes);
            for (acc, e) in evals.iter_mut().zip(&worker_evals) {
                *acc += e;
            }
            for (idx, value) in local {
                let dominated = frontier
                    .iter()
                    .any(|(_, incumbent)| semiring.leq(&value, incumbent));
                if dominated {
                    continue;
                }
                frontier.retain(|(_, incumbent)| !semiring.lt(incumbent, &value));
                frontier.push((idx, value));
            }
        }
        stats.constraint_evals = compiled.eval_stats(&evals);
        stats.solve_time = start.elapsed();

        let blevel = semiring.sum(frontier.iter().map(|(_, v)| v));
        let best: Vec<(Assignment, S::Value)> = frontier
            .into_iter()
            .filter(|(_, v)| !semiring.is_zero(v))
            .map(|(idx, v)| (compiled.con_assignment(&idx), v))
            .collect();
        Ok(Solution::new(blevel, best, None).with_stats(stats))
    }
}

struct ParetoWorker<'a, S: Semiring> {
    semiring: &'a S,
    compiled: &'a CompiledProblem<S>,
    idx: Vec<usize>,
    scratch: Vec<Val>,
    /// Non-dominated `(index tuple, value)` incumbents, in leaf order.
    frontier: Vec<(Vec<usize>, S::Value)>,
    nodes: u64,
    prunings: u64,
    evals: Vec<u64>,
}

impl<'a, S: Semiring> ParetoWorker<'a, S> {
    fn run(&mut self, range: std::ops::Range<usize>) {
        let n = self.compiled.vars().len();
        let root = self.compiled.apply_completed(
            0,
            self.semiring.one(),
            &self.idx,
            &mut self.scratch,
            &mut self.evals,
        );
        if n == 0 {
            if !range.is_empty() {
                self.dfs(0, root);
            }
            return;
        }
        for i in range {
            self.idx[0] = i;
            let value = self.compiled.apply_completed(
                1,
                root.clone(),
                &self.idx,
                &mut self.scratch,
                &mut self.evals,
            );
            self.dfs(1, value);
        }
    }

    fn dfs(&mut self, depth: usize, value: S::Value) {
        self.nodes += 1;
        let dominated = self.semiring.is_zero(&value)
            || self
                .frontier
                .iter()
                .any(|(_, incumbent)| self.semiring.leq(&value, incumbent));
        if dominated {
            self.prunings += 1;
            return;
        }
        if depth == self.compiled.vars().len() {
            let semiring = self.semiring;
            self.frontier
                .retain(|(_, incumbent)| !semiring.lt(incumbent, &value));
            self.frontier.push((self.idx.clone(), value));
            return;
        }
        for i in 0..self.compiled.sizes()[depth] {
            self.idx[depth] = i;
            let next = self.compiled.apply_completed(
                depth + 1,
                value.clone(),
                &self.idx,
                &mut self.scratch,
                &mut self.evals,
            );
            self.dfs(depth + 1, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::EnumerationSolver;
    use crate::{Constraint, Domain};
    use softsoa_semiring::{Boolean, Probabilistic, Product, Unit, Weight, Weighted, WeightedInt};

    type CostRel = Product<Weighted, Probabilistic>;

    fn cost_rel() -> CostRel {
        Product::new(Weighted, Probabilistic)
    }

    fn offers_problem(offers: &'static [(f64, f64)]) -> Scsp<CostRel> {
        let s = cost_rel();
        Scsp::new(s)
            .with_domain("p", Domain::ints(0..offers.len() as i64))
            .with_constraint(Constraint::unary(s, "p", move |v| {
                let (cost, rel) = offers[v.as_int().unwrap() as usize];
                (Weight::saturating(cost), Unit::clamped(rel))
            }))
            .of_interest(["p"])
    }

    #[test]
    fn frontier_matches_enumeration_on_unary_problems() {
        // With con covering all variables, the aggregated and
        // per-assignment readings coincide.
        let p = offers_problem(&[(10.0, 0.90), (25.0, 0.99), (40.0, 0.95)]);
        let pareto = ParetoBranchAndBound::new().solve(&p).unwrap();
        let reference = EnumerationSolver::new().solve(&p).unwrap();
        assert_eq!(pareto.blevel(), reference.blevel());
        let mut a: Vec<String> = pareto.best().iter().map(|(e, _)| e.to_string()).collect();
        let mut b: Vec<String> = reference
            .best()
            .iter()
            .map(|(e, _)| e.to_string())
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(pareto.best().len(), 2);
    }

    #[test]
    fn blevel_matches_enumeration_on_random_products() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = Product::new(Boolean, WeightedInt);
            let table: Vec<(bool, u64)> = (0..36)
                .map(|_| (rng.random(), rng.random_range(0..6)))
                .collect();
            let t1 = table.clone();
            let p = Scsp::new(s)
                .with_domain("x", Domain::ints(0..6))
                .with_domain("y", Domain::ints(0..6))
                .with_constraint(Constraint::binary(s, "x", "y", move |a, b| {
                    t1[(a.as_int().unwrap() * 6 + b.as_int().unwrap()) as usize]
                }))
                .of_interest(["x", "y"]);
            let pareto = ParetoBranchAndBound::new().solve(&p).unwrap();
            let reference = EnumerationSolver::new().solve(&p).unwrap();
            assert_eq!(pareto.blevel(), reference.blevel(), "seed {seed}");
            // The *distinct maximal values* coincide when con covers
            // every variable (Pareto keeps one representative per
            // value, enumeration keeps every witnessing tuple).
            let values = |sol: &crate::Solution<_>| {
                let mut v: Vec<String> = sol.best().iter().map(|(_, l)| format!("{l:?}")).collect();
                v.sort();
                v.dedup();
                v
            };
            assert_eq!(values(&pareto), values(&reference), "seed {seed}");
        }
    }

    #[test]
    fn works_on_total_orders_too() {
        let p = crate::generate::random_weighted(&crate::generate::RandomScsp {
            vars: 5,
            domain_size: 3,
            constraints: 6,
            arity: 2,
            seed: 3,
        });
        let pareto = ParetoBranchAndBound::new().solve(&p).unwrap();
        let reference = EnumerationSolver::new().solve(&p).unwrap();
        assert_eq!(pareto.blevel(), reference.blevel());
    }

    #[test]
    fn inconsistent_problems_yield_empty_frontier() {
        let s = cost_rel();
        let p = Scsp::new(s)
            .with_domain("p", Domain::ints(0..3))
            .with_constraint(Constraint::never(s))
            .of_interest(["p"]);
        let solution = ParetoBranchAndBound::new().solve(&p).unwrap();
        assert!(solution.best().is_empty());
        assert_eq!(*solution.blevel(), cost_rel().zero());
    }

    #[test]
    fn duplicate_values_are_not_duplicated_in_frontier() {
        // Two providers with identical offers: the first is recorded,
        // the second is dominated (≤, equal) and skipped.
        let p = offers_problem(&[(10.0, 0.9), (10.0, 0.9)]);
        let solution = ParetoBranchAndBound::new().solve(&p).unwrap();
        assert_eq!(solution.best().len(), 1);
    }

    #[test]
    fn parallel_frontier_holds_the_oracle_first_representatives() {
        // With `con` = every variable the oracle's best entries are all
        // non-dominated complete assignments. The frontier keeps, per
        // non-dominated level, the lexicographically first assignment
        // reaching it, listed in that order at any thread count.
        use crate::solve::{Parallelism, SolverConfig};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = Product::new(Boolean, WeightedInt);
            let table: Vec<(bool, u64)> = (0..16)
                .map(|_| (rng.random(), rng.random_range(0..5)))
                .collect();
            let t1 = table.clone();
            let p = Scsp::new(s)
                .with_domain("x", Domain::ints(0..4))
                .with_domain("y", Domain::ints(0..4))
                .with_constraint(Constraint::binary(s, "x", "y", move |a, b| {
                    t1[(a.as_int().unwrap() * 4 + b.as_int().unwrap()) as usize]
                }))
                .of_interest(["x", "y"]);
            let oracle = EnumerationSolver::new().solve(&p).unwrap();
            let mut expected: Vec<(Assignment, (bool, u64))> = Vec::new();
            for (eta, level) in oracle.best() {
                match expected.iter_mut().find(|(_, l)| l == level) {
                    Some(rep) if eta < &rep.0 => rep.0 = eta.clone(),
                    Some(_) => {}
                    None => expected.push((eta.clone(), *level)),
                }
            }
            expected.sort();
            for threads in [1, 2, 3] {
                let cfg = SolverConfig::default().with_parallelism(Parallelism::Threads(threads));
                let pareto = ParetoBranchAndBound::with_config(cfg).solve(&p).unwrap();
                assert_eq!(pareto.blevel(), oracle.blevel(), "seed {seed} x{threads}");
                assert_eq!(pareto.best(), &expected[..], "seed {seed} x{threads}");
            }
        }
    }

    #[test]
    fn solves_problems_whose_con_table_overflows() {
        let p = crate::testutil::wide_chain();
        let solution = ParetoBranchAndBound::new().solve(&p).unwrap();
        assert_eq!(*solution.blevel(), 0);
        assert_eq!(solution.best().len(), 1);
        assert_eq!(solution.best()[0].0.len(), 20);
    }
}
