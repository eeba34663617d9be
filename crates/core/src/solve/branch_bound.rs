//! Depth-first branch-and-bound search.

use std::sync::Mutex;
use std::time::Instant;

use softsoa_semiring::Semiring;

use crate::compile::CompiledProblem;
use crate::solve::decompose::Decomposition;
use crate::solve::parallel::fan_out;
use crate::solve::propagate::Propagator;
use crate::solve::treedec::{self, TreeAttempt};
use crate::solve::{
    Parallelism, PropagationMode, Solution, SolveError, Solver, SolverConfig, SolverStats,
};
use crate::{Assignment, Scsp, Val, Var};

/// Variable-ordering heuristics for [`BranchAndBound`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum VarOrder {
    /// The problem's natural (sorted) variable order.
    #[default]
    Input,
    /// Variable appearing in the most constraints first.
    MostConstrained,
    /// Greedy combined ordering: repeatedly pick the unplaced variable
    /// with the smallest domain, breaking ties towards the one that
    /// *completes* the most constraint scopes given everything placed
    /// so far (so constraints start pruning at the shallowest possible
    /// depth), then towards the smallest variable name. Computed once
    /// per solve over the problem structure.
    Dynamic,
    /// Estimate-driven ordering (generalising [`VarOrder::Dynamic`]):
    /// a root soft arc-consistency pass first tightens per-variable
    /// candidate estimates, then variables are confirmed one at a
    /// time in a propose/confirm loop — every unplaced variable
    /// proposes its surviving candidate count, the smallest estimate
    /// wins, ties break towards completing the most constraint
    /// scopes, then towards the smallest name. Values are additionally
    /// visited best-supported-bound first. Preserves the exact
    /// `blevel`; the witness is guaranteed *valid* but — unlike the
    /// other orders — not bit-identical to [`VarOrder::Input`]'s,
    /// since value reordering changes which equally optimal
    /// assignment is found first.
    Estimate,
}

/// A depth-first branch-and-bound solver for totally ordered semirings.
///
/// Exploits `×`-monotonicity — combining can only *worsen* a level
/// (`a × b ≤ a` in every c-semiring) — to prune any branch whose
/// partial combination already fails to beat the incumbent. Returns the
/// `blevel` and one witness assignment; it does **not** build the
/// solution table (see
/// [`Solution::solution_constraint`](crate::solve::Solution::solution_constraint)).
///
/// Behind the search sits a preprocessing-and-decomposition layer,
/// on by default (see [`SolverConfig`]): connected components of the
/// constraint graph solve independently in parallel
/// ([`SolverConfig::decompose`]), and a root soft arc-consistency
/// pass prunes domain values that cannot appear in any optimal solution
/// ([`SolverConfig::propagate`]). Both preserve the exact `blevel`
/// and a valid witness on every semiring.
///
/// # Examples
///
/// ```
/// use softsoa_core::{Scsp, Constraint, Domain};
/// use softsoa_core::solve::{BranchAndBound, VarOrder, Solver};
/// use softsoa_semiring::WeightedInt;
///
/// let p = Scsp::new(WeightedInt)
///     .with_domain("x", Domain::ints(0..=99))
///     .with_constraint(Constraint::unary(WeightedInt, "x", |v| {
///         (v.as_int().unwrap() as u64).pow(2)
///     }))
///     .of_interest(["x"]);
/// let solution = BranchAndBound::new(VarOrder::MostConstrained).solve(&p)?;
/// assert_eq!(*solution.blevel(), 0);
/// # Ok::<(), softsoa_core::SolveError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BranchAndBound {
    order: VarOrder,
    config: SolverConfig,
}

impl BranchAndBound {
    /// Creates the solver with the given variable ordering and the
    /// default engine (automatic thread count, root propagation,
    /// component decomposition).
    pub fn new(order: VarOrder) -> BranchAndBound {
        BranchAndBound {
            order,
            config: SolverConfig::default(),
        }
    }

    /// Creates the solver with an explicit engine configuration.
    pub fn with_config(order: VarOrder, config: SolverConfig) -> BranchAndBound {
        BranchAndBound { order, config }
    }

    fn order_vars<S: Semiring>(&self, problem: &Scsp<S>) -> Result<Vec<Var>, SolveError> {
        let mut vars = problem.problem_vars();
        match self.order {
            // `Estimate` is resolved inside the search (it needs a
            // root propagation pass).
            VarOrder::Input | VarOrder::Estimate => {}
            VarOrder::MostConstrained => {
                let mut keyed: Vec<(usize, Var)> = vars
                    .into_iter()
                    .map(|v| {
                        let degree = problem
                            .constraints()
                            .iter()
                            .filter(|c| c.scope().contains(&v))
                            .count();
                        (usize::MAX - degree, v)
                    })
                    .collect();
                keyed.sort();
                vars = keyed.into_iter().map(|(_, v)| v).collect();
            }
            VarOrder::Dynamic => {
                let mut remaining = vars;
                let mut placed: Vec<Var> = Vec::with_capacity(remaining.len());
                while !remaining.is_empty() {
                    let mut best = 0;
                    let mut best_key = (usize::MAX, usize::MAX);
                    for (i, v) in remaining.iter().enumerate() {
                        let domain = problem.domains().get(v)?.len();
                        // Scopes newly fully covered by placed ∪ {v}.
                        let completes = problem
                            .constraints()
                            .iter()
                            .filter(|c| {
                                c.scope().contains(v)
                                    && c.scope().iter().all(|u| u == v || placed.contains(u))
                            })
                            .count();
                        // `remaining` stays sorted, so strict `<` makes
                        // ties fall to the smallest variable name.
                        let key = (domain, usize::MAX - completes);
                        if key < best_key {
                            best_key = key;
                            best = i;
                        }
                    }
                    placed.push(remaining.remove(best));
                }
                vars = placed;
            }
        }
        Ok(vars)
    }
}

/// The propose/confirm ordering loop behind [`VarOrder::Estimate`]:
/// each unplaced variable proposes its post-propagation candidate
/// count, the smallest is confirmed, ties break towards the variable
/// completing the most operand scopes given the confirmed prefix,
/// then towards the smallest name (`vars` is visited in compiled
/// order, which here is sorted).
fn estimate_order<S: Semiring>(pre: &CompiledProblem<S>, prop: &Propagator<S>) -> Vec<Var> {
    let vars = pre.vars();
    let mut remaining: Vec<usize> = (0..vars.len()).collect();
    let mut placed = vec![false; vars.len()];
    let mut out = Vec::with_capacity(vars.len());
    while !remaining.is_empty() {
        let mut best = 0;
        let mut best_key = (usize::MAX, usize::MAX);
        for (slot, &pos) in remaining.iter().enumerate() {
            let completes = (0..pre.num_operands())
                .filter(|&oi| {
                    let emb = pre.operand_scope(oi);
                    !emb.is_empty()
                        && emb.contains(&pos)
                        && emb.iter().all(|&q| q == pos || placed[q])
                })
                .count();
            let key = (prop.live_count(pos), usize::MAX - completes);
            if key < best_key {
                best_key = key;
                best = slot;
            }
        }
        let pos = remaining.remove(best);
        placed[pos] = true;
        out.push(vars[pos].clone());
    }
    out
}

/// Per-depth value visit orders for [`VarOrder::Estimate`]: live
/// values sorted best root support-bound first, ties towards the
/// smaller domain index.
fn value_orders<S: Semiring>(
    compiled: &CompiledProblem<S>,
    prop: &Propagator<S>,
) -> Vec<Vec<usize>> {
    let semiring = compiled.semiring();
    (0..compiled.vars().len())
        .map(|pos| {
            let bounds: Vec<S::Value> = (0..compiled.sizes()[pos])
                .map(|d| prop.value_bound(pos, d))
                .collect();
            let mut order: Vec<usize> = (0..compiled.sizes()[pos]).collect();
            order.sort_by(|&a, &b| {
                semiring
                    .partial_cmp(&bounds[b], &bounds[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            order
        })
        .collect()
}

impl BranchAndBound {
    /// The search: DFS over domain-index tuples with dense operand
    /// tables, the outermost variable's values split across worker
    /// threads. Workers share a best-bound; a branch is cut
    /// when it is *strictly* below the shared bound (safe for any
    /// foreign bound) or when the sequential prune condition holds
    /// against the worker's own incumbent — so the merged result,
    /// taken in chunk order, reproduces the sequential witness. The
    /// same strictness discipline governs the soft arc-consistency
    /// prunes: a domain value is removed only when its best bound is
    /// `0` or strictly below an achievable floor, which keeps the
    /// first optimal assignment intact.
    ///
    /// `seed` must be **achievable** on `problem` (the level of some
    /// complete assignment, as the tree fallback's greedy seed is): it
    /// raises that floor from the first node on and leaves `blevel`
    /// and witness identical to the unseeded search (unit-tested
    /// below). An unachievable seed can prune every witness.
    fn search<S: Semiring>(
        &self,
        problem: &Scsp<S>,
        seed: Option<S::Value>,
    ) -> Result<Solution<S>, SolveError> {
        let start = Instant::now();
        let semiring = problem.semiring().clone();
        let floor = seed.unwrap_or_else(|| semiring.zero());
        // Propagation bounds are products re-associated away from the
        // search's own combination order; comparing them against an
        // achievable floor is only sound when `×` is exact. On
        // rounding semirings propagation keeps the zero-prune only.
        let prop_floor = if semiring.exact_times() {
            floor.clone()
        } else {
            semiring.zero()
        };

        // `Estimate` orders from a pre-pass: compile in sorted order,
        // propagate at the root, and run the propose/confirm loop on
        // the tightened candidate counts. The search then runs on the
        // pre-pass reordered, its fixpoint carried over.
        let pre = (self.order == VarOrder::Estimate)
            .then(|| CompiledProblem::with_order(problem, problem.problem_vars()))
            .transpose()?;
        let mut pre_prop = pre.as_ref().map(Propagator::new);
        let compiled = match (&pre, &mut pre_prop) {
            (Some(pre), Some(prop)) => {
                if !prop.root(&prop_floor) {
                    let stats = SolverStats {
                        threads: 1,
                        compile_time: pre.compile_time(),
                        solve_time: start.elapsed(),
                        propagation: Some(prop.stats()),
                        ..SolverStats::default()
                    };
                    return Ok(Solution::new(semiring.zero(), Vec::new(), None).with_stats(stats));
                }
                pre.reordered(estimate_order(pre, prop))
            }
            _ => CompiledProblem::with_order(problem, self.order_vars(problem)?)?,
        };

        // Root propagation: prune values that cannot reach the floor
        // (the seed when present, `0` otherwise). `Estimate`
        // carries its pre-pass fixpoint over, which it needs for its
        // value orders even when the config says `Off`.
        let carried = pre_prop.map(|prop| prop.reorder(&compiled));
        let propagated = carried.is_some();
        let mut root_prop = carried.or_else(|| {
            (self.config.propagate == PropagationMode::Root).then(|| Propagator::new(&compiled))
        });
        let mut pstats = None;
        if let Some(prop) = &mut root_prop {
            let alive = propagated || prop.root(&prop_floor);
            let snapshot = prop.stats();
            if !alive {
                // Some variable has no value that can reach the
                // floor: with a cold floor of `0` the problem is
                // inconsistent, and the blind engine would likewise
                // report `blevel = 0` with no witness.
                let stats = SolverStats {
                    threads: 1,
                    compile_time: compiled.compile_time(),
                    solve_time: start.elapsed(),
                    propagation: Some(snapshot),
                    ..SolverStats::default()
                };
                return Ok(Solution::new(semiring.zero(), Vec::new(), None).with_stats(stats));
            }
            pstats = Some(snapshot);
        }
        let val_order: Option<Vec<Vec<usize>>> = (self.order == VarOrder::Estimate)
            .then(|| value_orders(&compiled, root_prop.as_ref().expect("estimate propagated")));

        // An achievable seed enters the search as a pre-published
        // foreign bound: workers cut branches *strictly* below it, which
        // never touches the first assignment attaining the optimum.
        let shared: Mutex<S::Value> = Mutex::new(floor.clone());
        let (parallelism, outer) = (self.config.parallelism, compiled.outer_size());
        let volume = problem.domains().tuple_count(compiled.vars())? as u64;
        let workers = fan_out(parallelism, outer, volume, |range| {
            let mut worker = BnbWorker {
                semiring: &semiring,
                compiled: &compiled,
                pruner: root_prop.as_ref(),
                val_order: val_order.as_deref(),
                shared: &shared,
                foreign: floor.clone(),
                since_refresh: 0,
                idx: vec![0; compiled.vars().len()],
                scratch: Vec::new(),
                best_value: semiring.zero(),
                witness: None,
                nodes: 0,
                budget: self.config.node_budget,
                exhausted: false,
                prunings: 0,
                evals: vec![0; compiled.num_operands()],
            };
            worker.run(range);
            (
                worker.best_value,
                worker.witness,
                worker.nodes,
                worker.prunings,
                worker.evals,
                worker.exhausted,
            )
        });

        // Merge in chunk order with strict improvement only — exactly
        // the sequential first-witness rule across chunk boundaries.
        let mut best_value = semiring.zero();
        let mut witness: Option<Vec<usize>> = None;
        let mut stats = SolverStats {
            threads: workers.len(),
            compile_time: compiled.compile_time(),
            constraint_evals: Vec::new(),
            ..SolverStats::default()
        };
        let mut evals = vec![0u64; compiled.num_operands()];
        let mut exhausted = false;
        for (value, wit, nodes, prunings, worker_evals, worker_exhausted) in workers {
            exhausted |= worker_exhausted;
            stats.nodes += nodes;
            stats.prunings += prunings;
            stats.thread_nodes.push(nodes);
            for (acc, e) in evals.iter_mut().zip(&worker_evals) {
                *acc += e;
            }
            if wit.is_some() && semiring.lt(&best_value, &value) {
                best_value = value;
                witness = wit;
            }
        }
        stats.constraint_evals = compiled.eval_stats(&evals);
        stats.propagation = pstats;
        stats.solve_time = start.elapsed();
        if exhausted {
            return Err(SolveError::NodeBudgetExceeded {
                budget: self.config.node_budget.unwrap_or(0),
            });
        }

        let best = match witness {
            Some(idx) if !semiring.is_zero(&best_value) => {
                let con_eta = compiled.con_assignment(&idx);
                vec![(con_eta, best_value.clone())]
            }
            _ => Vec::new(),
        };
        Ok(Solution::new(best_value, best, None).with_stats(stats))
    }

    /// Solves each connected component independently (in parallel
    /// under the configured [`Parallelism`]) and combines the results
    /// with the semiring product. Returns `Ok(None)` when the problem
    /// does not split.
    fn solve_decomposed<S: Semiring>(
        &self,
        problem: &Scsp<S>,
    ) -> Result<Option<Solution<S>>, SolveError> {
        let Some(dec) = Decomposition::split(problem)? else {
            return Ok(None);
        };
        let start = Instant::now();
        let semiring = problem.semiring().clone();
        // Components run on the fan-out, so each inner solve stays
        // sequential; decomposition itself must not recurse.
        let inner = BranchAndBound::with_config(
            self.order,
            self.config
                .with_decompose(false)
                .with_parallelism(Parallelism::Sequential),
        );
        // The work estimate is `Σ ∏|D|` over the components.
        let volume = dec.parts.iter().fold(0u64, |acc, part| {
            let count = part.domains().tuple_count(&part.problem_vars());
            acc.saturating_add(count.map_or(0, |c| c as u64))
        });
        let parallelism = self.config.parallelism;
        let results = fan_out(parallelism, dec.parts.len(), volume, |range| {
            range
                .map(|i| inner.solve(&dec.parts[i]))
                .collect::<Vec<_>>()
        });

        let mut stats = SolverStats {
            threads: results.len(),
            components: dec.parts.len(),
            ..SolverStats::default()
        };
        let mut blevel = dec.constant.clone();
        let mut witness = Assignment::new();
        let mut complete = true;
        for result in results.into_iter().flatten() {
            let solution = result?;
            if let Some(part_stats) = solution.stats() {
                stats.nodes += part_stats.nodes;
                stats.prunings += part_stats.prunings;
                stats.thread_nodes.push(part_stats.nodes);
                stats.compile_time += part_stats.compile_time;
                stats
                    .constraint_evals
                    .extend(part_stats.constraint_evals.iter().cloned());
                if let Some(part_prop) = &part_stats.propagation {
                    match &mut stats.propagation {
                        Some(acc) => acc.absorb(part_prop),
                        None => stats.propagation = Some(part_prop.clone()),
                    }
                }
            }
            blevel = semiring.times(&blevel, solution.blevel());
            match solution.best().first() {
                Some((eta, _)) => witness = witness.merged(eta),
                None => complete = false,
            }
        }
        stats.solve_time = start.elapsed();
        let best = if complete && !semiring.is_zero(&blevel) {
            vec![(witness, blevel.clone())]
        } else {
            Vec::new()
        };
        Ok(Some(Solution::new(blevel, best, None).with_stats(stats)))
    }

    /// Solves one (non-decomposable) problem under the configured
    /// [`Engine`](crate::solve::Engine): offers it to the tree engine
    /// first, then falls through to the search. A tree fallback's
    /// greedy bound seeds the search, and its planning stats ride on
    /// the search solution.
    fn solve_single<S: Semiring>(&self, problem: &Scsp<S>) -> Result<Solution<S>, SolveError> {
        let (seed, tree_stats) = match treedec::attempt(problem, &self.config)? {
            TreeAttempt::Solved(solution) => return Ok(*solution),
            TreeAttempt::Fallback { seed, stats } => (seed, Some(stats)),
            TreeAttempt::Declined => (None, None),
        };
        let mut solution = self.search(problem, seed)?;
        if let Some(tree) = tree_stats {
            match &mut solution.stats {
                Some(stats) => stats.tree = Some(tree),
                None => {
                    solution = solution.with_stats(SolverStats {
                        tree: Some(tree),
                        ..SolverStats::default()
                    })
                }
            }
        }
        Ok(solution)
    }
}

impl<S: Semiring> Solver<S> for BranchAndBound {
    fn solve(&self, problem: &Scsp<S>) -> Result<Solution<S>, SolveError> {
        if !problem.semiring().is_total() {
            return Err(SolveError::RequiresTotalOrder);
        }
        if self.config.decompose {
            if let Some(solution) = self.solve_decomposed(problem)? {
                return Ok(solution);
            }
        }
        self.solve_single(problem)
    }
}

/// How many nodes a worker expands between reloads of the shared
/// best-bound (locking per node would serialise the search).
const REFRESH_INTERVAL: u32 = 256;

struct BnbWorker<'a, S: Semiring> {
    semiring: &'a S,
    compiled: &'a CompiledProblem<S>,
    /// The root propagation pass, whose live masks every worker reads;
    /// `None` for blind search ([`PropagationMode::Off`]).
    pruner: Option<&'a Propagator<'a, S>>,
    /// Per-depth value visit order ([`VarOrder::Estimate`] only).
    val_order: Option<&'a [Vec<usize>]>,
    shared: &'a Mutex<S::Value>,
    /// Local cache of the shared bound.
    foreign: S::Value,
    since_refresh: u32,
    idx: Vec<usize>,
    scratch: Vec<Val>,
    best_value: S::Value,
    witness: Option<Vec<usize>>,
    nodes: u64,
    /// Diagnostic node budget ([`SolverConfig::node_budget`]): once
    /// this worker's own expansions exceed it, the search unwinds and
    /// the solve reports `NodeBudgetExceeded`.
    budget: Option<u64>,
    exhausted: bool,
    prunings: u64,
    evals: Vec<u64>,
}

impl<'a, S: Semiring> BnbWorker<'a, S> {
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
        for slot in range {
            self.descend(0, slot, &root);
        }
    }

    /// The domain index visited at `slot` for the variable at `depth`.
    fn value_at_slot(&self, depth: usize, slot: usize) -> usize {
        match self.val_order {
            Some(orders) => orders[depth][slot],
            None => slot,
        }
    }

    /// Tries `slot`'s value for the variable at `depth`: skips values
    /// the root pass pruned, and recurses.
    fn descend(&mut self, depth: usize, slot: usize, value: &S::Value) {
        if self.exhausted {
            return;
        }
        let i = self.value_at_slot(depth, slot);
        if self.pruner.is_some_and(|prop| !prop.is_live(depth, i)) {
            return;
        }
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

    fn dfs(&mut self, depth: usize, value: S::Value) {
        self.nodes += 1;
        if self.budget.is_some_and(|b| self.nodes > b) {
            self.exhausted = true;
            return;
        }
        // The sequential prune: extensions cannot beat the local
        // incumbent (×-monotonicity).
        if self.semiring.leq(&value, &self.best_value)
            && (self.witness.is_some() || self.semiring.is_zero(&value))
        {
            self.prunings += 1;
            return;
        }
        // Foreign prune: strictly below a bound published by another
        // chunk. Strictness keeps the local first-witness choice
        // identical to the sequential run.
        self.since_refresh += 1;
        if self.since_refresh >= REFRESH_INTERVAL {
            self.since_refresh = 0;
            self.foreign = self
                .shared
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
        }
        if self.semiring.lt(&value, &self.foreign) {
            self.prunings += 1;
            return;
        }
        if depth == self.compiled.vars().len() {
            self.best_value = value;
            self.witness = Some(self.idx.clone());
            let mut shared = self.shared.lock().unwrap_or_else(|e| e.into_inner());
            if self.semiring.lt(&shared, &self.best_value) {
                *shared = self.best_value.clone();
            }
            self.foreign = shared.clone();
            return;
        }
        for slot in 0..self.compiled.sizes()[depth] {
            self.descend(depth, slot, &value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_fuzzy, random_probabilistic, random_weighted, RandomScsp};
    use crate::solve::EnumerationSolver;
    use crate::testutil::fig1_problem;
    use crate::{Constraint, Domain};
    use softsoa_semiring::{Boolean, Product, WeightedInt};

    #[test]
    fn agrees_with_enumeration_on_fig1() {
        let p = fig1_problem();
        let reference = EnumerationSolver::new().solve(&p).unwrap();
        for order in [
            VarOrder::Input,
            VarOrder::MostConstrained,
            VarOrder::Dynamic,
            VarOrder::Estimate,
        ] {
            let bnb = BranchAndBound::new(order).solve(&p).unwrap();
            assert_eq!(bnb.blevel(), reference.blevel());
            assert_eq!(
                bnb.best_assignment().unwrap().get(&Var::new("x")),
                reference.best_assignment().unwrap().get(&Var::new("x"))
            );
        }
    }

    #[test]
    fn rejects_partial_orders() {
        let s = Product::new(Boolean, Boolean);
        let p = crate::Scsp::new(s);
        assert!(matches!(
            BranchAndBound::default().solve(&p),
            Err(SolveError::RequiresTotalOrder)
        ));
    }

    #[test]
    fn node_budget_aborts_with_a_typed_error() {
        let p = fig1_problem();
        let config = SolverConfig::default().with_parallelism(Parallelism::Sequential);
        let result = BranchAndBound::with_config(VarOrder::Input, config.with_node_budget(Some(1)))
            .solve(&p);
        assert!(
            matches!(result, Err(SolveError::NodeBudgetExceeded { budget: 1 })),
            "{result:?}"
        );
        // A generous budget solves normally with the usual answer.
        let sol =
            BranchAndBound::with_config(VarOrder::Input, config.with_node_budget(Some(1 << 20)))
                .solve(&p)
                .unwrap();
        assert_eq!(*sol.blevel(), 7);
    }

    #[test]
    fn inconsistent_problem_has_no_witness() {
        let p = crate::Scsp::new(WeightedInt)
            .with_domain("x", Domain::ints(0..=3))
            .with_constraint(Constraint::never(WeightedInt))
            .of_interest(["x"]);
        let sol = BranchAndBound::default().solve(&p).unwrap();
        assert_eq!(*sol.blevel(), u64::MAX);
        assert!(sol.best_assignment().is_none());
    }

    #[test]
    fn no_solution_table_is_materialised() {
        let sol = BranchAndBound::default().solve(&fig1_problem()).unwrap();
        assert!(sol.solution_constraint().is_none());
    }

    #[test]
    fn parallel_search_finds_the_oracle_first_witness() {
        // With `con` = every variable the oracle lists all optimal
        // complete assignments; input-order search must report the
        // lexicographically first of them at any thread count.
        for seed in 0..6 {
            let p = crate::generate::random_weighted(&crate::generate::RandomScsp {
                vars: 5,
                domain_size: 3,
                constraints: 7,
                arity: 2,
                seed,
            });
            let p = p.clone().of_interest(p.problem_vars());
            let oracle = EnumerationSolver::new().solve(&p).unwrap();
            let first = oracle.best().iter().map(|(eta, _)| eta).min();
            for threads in [1, 2, 3] {
                let cfg = SolverConfig::default().with_parallelism(Parallelism::Threads(threads));
                let bnb = BranchAndBound::with_config(VarOrder::Input, cfg)
                    .solve(&p)
                    .unwrap();
                assert_eq!(bnb.blevel(), oracle.blevel(), "seed {seed} x{threads}");
                assert_eq!(
                    bnb.best_assignment(),
                    first,
                    "witness must be the first optimum (seed {seed}, {threads} threads)"
                );
            }
        }
    }

    #[test]
    fn solves_problems_whose_con_table_overflows() {
        // 10²⁰ con tuples: the search never builds that table, so it
        // must neither overflow nor refuse.
        let p = crate::testutil::wide_chain();
        let sol = BranchAndBound::default().solve(&p).unwrap();
        assert_eq!(*sol.blevel(), 0);
        let witness = sol.best_assignment().unwrap();
        assert_eq!(witness.len(), 20);
        assert!(p.constraints().iter().all(|c| c.eval(witness) == 0));
    }

    #[test]
    fn stats_are_recorded() {
        let sol = BranchAndBound::default().solve(&fig1_problem()).unwrap();
        let stats = sol.stats().unwrap();
        assert!(stats.nodes > 0);
        assert_eq!(stats.constraint_evals.len(), 3);
        // The default engine runs root propagation and records it.
        assert!(stats.propagation.is_some());
    }

    #[test]
    fn warm_seed_preserves_blevel_and_witness() {
        for seed in 0..6 {
            let p = crate::generate::random_weighted(&crate::generate::RandomScsp {
                vars: 5,
                domain_size: 3,
                constraints: 7,
                arity: 2,
                seed,
            });
            let cold = BranchAndBound::default().solve(&p).unwrap();
            // The hardest valid seed: the optimum itself.
            for threads in [1, 3] {
                let cfg = SolverConfig::default().with_parallelism(Parallelism::Threads(threads));
                let warm = BranchAndBound::with_config(VarOrder::Input, cfg)
                    .search(&p, Some(*cold.blevel()))
                    .unwrap();
                assert_eq!(warm.blevel(), cold.blevel(), "seed {seed} x{threads}");
                assert_eq!(
                    warm.best_assignment(),
                    cold.best_assignment(),
                    "warm start must keep the cold witness (seed {seed}, {threads} threads)"
                );
            }
        }
    }

    /// Cold vs seeded search: seeding the incumbent with the cold
    /// optimum — the hardest valid seed — must leave `blevel` and
    /// witness untouched, on one thread and on three. The seed only
    /// raises the pruning floor, and the prefix of the first optimal
    /// assignment always evaluates at or above it, so it is never cut.
    fn assert_seed_is_pure_acceleration<S: Semiring>(p: &Scsp<S>) {
        let sequential = SolverConfig::default().with_parallelism(Parallelism::Sequential);
        let cold = BranchAndBound::with_config(VarOrder::Input, sequential)
            .search(p, None)
            .unwrap();
        for parallelism in [Parallelism::Sequential, Parallelism::Threads(3)] {
            let warm = BranchAndBound::with_config(
                VarOrder::Input,
                sequential.with_parallelism(parallelism),
            )
            .search(p, Some(cold.blevel().clone()))
            .unwrap();
            assert_eq!(warm.blevel(), cold.blevel(), "{parallelism:?}");
            assert_eq!(
                warm.best_assignment(),
                cold.best_assignment(),
                "{parallelism:?}"
            );
        }
    }

    fn cfg_strategy() -> impl proptest::strategy::Strategy<Value = RandomScsp> {
        use proptest::prelude::*;
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn warm_start_matches_cold_on_weighted(cfg in cfg_strategy()) {
            assert_seed_is_pure_acceleration(&random_weighted(&cfg));
        }

        #[test]
        fn warm_start_matches_cold_on_fuzzy(cfg in cfg_strategy()) {
            assert_seed_is_pure_acceleration(&random_fuzzy(&cfg));
        }

        #[test]
        fn warm_start_matches_cold_on_probabilistic(cfg in cfg_strategy()) {
            assert_seed_is_pure_acceleration(&random_probabilistic(&cfg));
        }
    }

    /// Pinned regression: seeding an inexact-`×` solve with the exact
    /// optimum used to wipe the root out — re-associated float products
    /// put the support bound an ulp below the floor. Inexact semirings
    /// keep only the zero-prune, so the hardest valid seed is
    /// survivable. The last problem is one on which a root pass that
    /// compares against the seed does wipe out.
    #[test]
    fn inexact_semirings_survive_an_exact_seed() {
        let sequential = SolverConfig::default().with_parallelism(Parallelism::Sequential);
        let blind = sequential
            .with_propagation(PropagationMode::Off)
            .with_decompose(false);
        let fixed = (0..8).map(|seed| RandomScsp {
            vars: 4,
            domain_size: 3,
            constraints: 6,
            arity: 2,
            seed,
        });
        let wiped = RandomScsp {
            vars: 3,
            domain_size: 2,
            constraints: 6,
            arity: 2,
            seed: 17_356_348_314_173_289_509,
        };
        for cfg in fixed.chain([wiped]) {
            let (seed, p) = (cfg.seed, random_probabilistic(&cfg));
            let cold = BranchAndBound::with_config(VarOrder::Input, blind)
                .solve(&p)
                .unwrap();
            let warm =
                BranchAndBound::with_config(VarOrder::Input, sequential.with_decompose(false))
                    .search(&p, Some(*cold.blevel()))
                    .unwrap();
            assert_eq!(warm.blevel(), cold.blevel(), "seed {seed}");
            assert_eq!(
                warm.best_assignment(),
                cold.best_assignment(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn propagation_modes_agree_with_blind_search() {
        use crate::solve::{Parallelism, SolverConfig};
        for seed in 0..6 {
            let p = crate::generate::random_weighted(&crate::generate::RandomScsp {
                vars: 6,
                domain_size: 3,
                constraints: 9,
                arity: 2,
                seed,
            });
            let seq = SolverConfig::default().with_parallelism(Parallelism::Sequential);
            let blind = BranchAndBound::with_config(
                VarOrder::Input,
                seq.with_propagation(PropagationMode::Off),
            )
            .solve(&p)
            .unwrap();
            let propagated = BranchAndBound::with_config(
                VarOrder::Input,
                seq.with_propagation(PropagationMode::Root),
            )
            .solve(&p)
            .unwrap();
            assert_eq!(propagated.blevel(), blind.blevel(), "seed {seed}");
            assert_eq!(
                propagated.best_assignment(),
                blind.best_assignment(),
                "propagation must keep the blind witness (seed {seed})"
            );
            assert!(
                propagated.stats().unwrap().nodes <= blind.stats().unwrap().nodes,
                "propagation must not expand the tree (seed {seed})"
            );
        }
    }

    #[test]
    fn decomposed_solve_matches_joint_solve() {
        use crate::solve::{Parallelism, SolverConfig};
        // Two independent chains plus a constant constraint.
        let mut p = crate::generate::chain_weighted(4, 3, 7);
        let q = crate::generate::chain_weighted(4, 3, 9);
        for v in q.problem_vars() {
            let renamed = Var::new(format!("y{}", v.name()));
            p.add_domain(renamed, q.domains().get(&v).unwrap().clone());
        }
        for c in q.constraints() {
            let scope: Vec<Var> = c
                .scope()
                .iter()
                .map(|v| Var::new(format!("y{}", v.name())))
                .collect();
            let inner = c.clone();
            let orig_scope = c.scope().to_vec();
            p.add_constraint(Constraint::from_fn(WeightedInt, &scope, move |vals| {
                let _ = &orig_scope;
                inner.eval_tuple(vals)
            }));
        }
        p.add_constraint(Constraint::constant(WeightedInt, 2));
        let p = p.of_interest(["x0", "yx0"]);

        let seq = SolverConfig::default().with_parallelism(Parallelism::Sequential);
        let joint = BranchAndBound::with_config(VarOrder::Input, seq.with_decompose(false))
            .solve(&p)
            .unwrap();
        for parallelism in [Parallelism::Sequential, Parallelism::Threads(2)] {
            let split = BranchAndBound::with_config(
                VarOrder::Input,
                seq.with_decompose(true).with_parallelism(parallelism),
            )
            .solve(&p)
            .unwrap();
            assert_eq!(split.blevel(), joint.blevel());
            assert_eq!(
                split.best_assignment(),
                joint.best_assignment(),
                "weighted components merge to the joint witness"
            );
            assert_eq!(split.stats().unwrap().components, 2);
        }
    }
}
