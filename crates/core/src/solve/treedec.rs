//! Bucket-tree elimination: exact solving polynomial in the induced
//! width.
//!
//! Branch-and-bound explores assignments; this engine eliminates
//! *variables*. An elimination order `v₁ … vₙ` assigns every
//! constraint to the **bucket** of its earliest scope variable;
//! processing buckets in order, eliminating `vᵢ` projects the combined
//! bucket functions down to a **message** over the bucket's
//! *separator* (the cluster minus `vᵢ`), which is routed to the bucket
//! of the separator's earliest variable. The buckets and separator
//! edges form the bucket tree; one upward pass of messages computes
//! `blevel` exactly on **any** c-semiring, because `×` distributes
//! over `+`:
//!
//! ```text
//!   Σ_{v} (f × g) = f × (Σ_{v} g)        when v ∉ scope(f)
//! ```
//!
//! A downward pass reconstructs one witness: visiting buckets in
//! *reverse* order, every separator variable is already assigned, so
//! the bucket's cached per-context argmax (`choice`) pins `vᵢ` in
//! `O(1)`. The per-separator-assignment message tables are exactly
//! AND/OR **context caches**: a subtree's solution is computed once
//! per separator assignment and re-read every time the parent's
//! enumeration revisits that context.
//!
//! Cost is `O(n · d^(w+1))` where `w` is the induced width of the
//! order — polynomial on bounded-treewidth families (the banded
//! generators of [`generate`](crate::generate)) where search is
//! exponential. Memory is the flip side: cluster tables hold
//! `d^(w+1)` semiring values, so the engine is gated by
//! [`SolverConfig::width_cap`] plus an absolute cell guard and falls
//! back to branch-and-bound — seeded with the achievable level of a
//! tree-guided greedy assignment when `×` is exact — whenever a
//! component is too wide.
//!
//! Exactness caveat: the elimination order re-associates the big `×`
//! product. On exact-`×` semirings (weighted, fuzzy) the result is
//! bit-identical to search; on rounding semirings (probabilistic,
//! Łukasiewicz) the reported `blevel` is the tree association of the
//! optimal product and can drift from a search engine's association by
//! final-ulp rounding (the same caveat
//! [`Semiring::exact_times`](softsoa_semiring::Semiring::exact_times)
//! gates everywhere else in this module tree). The witness is a valid
//! optimal assignment in every case.

use std::collections::BTreeSet;
use std::time::Instant;

use softsoa_semiring::Semiring;

use crate::solve::parallel::fan_out;
use crate::solve::{
    best_from_entries, Engine, Solution, SolveError, SolverConfig, SolverStats, TreeStats,
};
use crate::{Assignment, Constraint, Scsp, Val, Var};

/// Hard guard on the cells of a single cluster table, independent of
/// the configured width cap (domain sizes can blow a small width up).
pub const TREE_CELL_LIMIT: u64 = 1 << 22;

/// The cells of work (assignments, table entries, masks) that earn a
/// thread under [`Parallelism::Auto`](crate::solve::Parallelism::Auto):
/// below twice this a [`fan_out`] runs inline. From E30: on 2 vCPUs two
/// threads lost to one at 20k and 59k cells and won from 177k up.
pub const MIN_CELLS_PER_THREAD: u64 = 1 << 16;

/// Elimination-ordering heuristics over the primal constraint graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeHeuristic {
    /// Eliminate the variable adding the fewest fill edges (connecting
    /// the fewest non-adjacent neighbour pairs). Usually the smaller
    /// induced width; quadratic per step.
    MinFill,
    /// Eliminate the variable of smallest current degree. Cheaper,
    /// sometimes wider.
    MinDegree,
}

/// An elimination order over a problem's variables with its measured
/// induced width (the maximum separator size along the order — the
/// exponent that governs tree-solve cost).
#[derive(Debug, Clone)]
pub struct EliminationPlan {
    /// Problem variables in elimination order (first is eliminated
    /// first).
    pub order: Vec<Var>,
    /// Maximum number of neighbours any variable had at its
    /// elimination, after fill — equals the largest separator.
    pub induced_width: usize,
    /// Which heuristic produced the order.
    pub heuristic: TreeHeuristic,
}

/// Plans an elimination order for `problem`: runs min-fill *and*
/// min-degree over the primal graph and keeps the narrower result
/// (ties go to min-fill).
///
/// # Errors
///
/// [`SolveError::MissingDomain`] if a problem variable has no domain
/// (mirroring the solvers, so planning can double as validation).
pub fn plan_elimination<S: Semiring>(problem: &Scsp<S>) -> Result<EliminationPlan, SolveError> {
    let vars = problem.problem_vars();
    for v in &vars {
        problem.domains().get(v)?;
    }
    let adjacency = primal_graph(problem, &vars);
    let (order, width, heuristic) = best_order(&adjacency, &[]);
    Ok(EliminationPlan {
        order: order.into_iter().map(|p| vars[p].clone()).collect(),
        induced_width: width,
        heuristic,
    })
}

/// The primal graph: one vertex per problem variable, scopes as
/// cliques.
fn primal_graph<S: Semiring>(problem: &Scsp<S>, vars: &[Var]) -> Vec<BTreeSet<usize>> {
    let pos = |v: &Var| vars.binary_search(v).expect("scope var is a problem var");
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); vars.len()];
    for c in problem.constraints() {
        let scope: Vec<usize> = c.scope().iter().map(pos).collect();
        for (i, &a) in scope.iter().enumerate() {
            for &b in &scope[i + 1..] {
                if a != b {
                    adj[a].insert(b);
                    adj[b].insert(a);
                }
            }
        }
    }
    adj
}

/// Runs one heuristic until every vertex outside `keep` (sorted) is
/// eliminated, returning `(order, width)`. Kept vertices collect fill
/// edges but are never eliminated.
fn eliminate(
    mut adj: Vec<BTreeSet<usize>>,
    heuristic: TreeHeuristic,
    keep: &[usize],
) -> (Vec<usize>, usize) {
    let mut alive: BTreeSet<usize> = (0..adj.len())
        .filter(|v| keep.binary_search(v).is_err())
        .collect();
    let mut order = Vec::with_capacity(alive.len());
    let mut width = 0;
    while let Some(&first) = alive.iter().next() {
        let mut best = first;
        let mut best_cost = usize::MAX;
        for &v in &alive {
            let cost = match heuristic {
                TreeHeuristic::MinDegree => adj[v].len(),
                TreeHeuristic::MinFill => {
                    let neigh: Vec<usize> = adj[v].iter().copied().collect();
                    let mut fill = 0;
                    for (i, &a) in neigh.iter().enumerate() {
                        for &b in &neigh[i + 1..] {
                            if !adj[a].contains(&b) {
                                fill += 1;
                            }
                        }
                    }
                    fill
                }
            };
            // Strict `<` over ascending vertex ids: ties break to the
            // smallest variable, keeping plans deterministic.
            if cost < best_cost {
                best_cost = cost;
                best = v;
            }
        }
        let neigh: Vec<usize> = adj[best].iter().copied().collect();
        width = width.max(neigh.len());
        for (i, &a) in neigh.iter().enumerate() {
            for &b in &neigh[i + 1..] {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
        for &a in &neigh {
            adj[a].remove(&best);
        }
        adj[best].clear();
        alive.remove(&best);
        order.push(best);
    }
    (order, width)
}

/// The one elimination-order planner: min-fill and min-degree over the
/// vertices outside `keep`, keeping the narrower order (ties go to
/// min-fill).
fn best_order(adjacency: &[BTreeSet<usize>], keep: &[usize]) -> (Vec<usize>, usize, TreeHeuristic) {
    let (fill_order, fill_width) = eliminate(adjacency.to_vec(), TreeHeuristic::MinFill, keep);
    let (deg_order, deg_width) = eliminate(adjacency.to_vec(), TreeHeuristic::MinDegree, keep);
    if deg_width < fill_width {
        (deg_order, deg_width, TreeHeuristic::MinDegree)
    } else {
        (fill_order, fill_width, TreeHeuristic::MinFill)
    }
}

/// One bucket of the tree: the variable it eliminates, its member
/// constraints, its separator and the children feeding it.
struct Bucket {
    /// Eliminated variable (position into `TreeStructure::vars`).
    var: usize,
    /// Constraint indices (into `problem.constraints()`) whose
    /// earliest scope variable this is.
    constraints: Vec<usize>,
    /// Separator: cluster minus `var`, sorted by variable position.
    /// Every separator variable has a *later* elimination rank.
    separator: Vec<usize>,
    /// Child bucket ranks whose messages feed this bucket.
    children: Vec<usize>,
    /// `∏ sizes(separator)` — the message table length.
    sep_cells: u64,
    /// `sep_cells × sizes(var)` — entries enumerated to fill it.
    cluster_cells: u64,
}

/// The scope-level shape of a tree solve: elimination order, buckets,
/// separators and the bottom-up parallel schedule. Depends only on
/// variables, domains and constraint *scopes*, never on levels.
///
/// Kept variables are never eliminated: they all rank after every
/// eliminated one, as one final cluster whose table is `(⊗C) ⇓ keep`.
/// With nothing kept that cluster has a single cell, `blevel`.
pub(crate) struct TreeStructure {
    vars: Vec<Var>,
    sizes: Vec<usize>,
    values: Vec<Vec<Val>>,
    /// Positions of the variables of interest.
    con_pos: Vec<usize>,
    /// Positions of the kept variables (ascending): the final
    /// cluster's scope.
    keep: Vec<usize>,
    induced_width: usize,
    heuristic: TreeHeuristic,
    buckets: Vec<Bucket>,
    /// Bottom-up waves: every bucket in a wave has all its children in
    /// earlier waves, so a wave's tables can be computed in parallel.
    levels: Vec<Vec<usize>>,
    /// Indices of the constraints scoped inside the kept variables
    /// (every empty-scope constraint among them): the final cluster's
    /// members.
    kept_constraints: Vec<usize>,
    /// Buckets whose message feeds the final cluster.
    roots: Vec<usize>,
    max_separator: usize,
    /// Saturating, like every cell count: `u64::MAX` marks an overflow.
    max_cluster_cells: u64,
    total_cells: u64,
}

/// `∏ sizes(positions)`, saturating at `u64::MAX`.
fn cells(positions: &[usize], sizes: &[usize]) -> u64 {
    positions
        .iter()
        .fold(1u64, |acc, &p| acc.saturating_mul(sizes[p] as u64))
}

impl TreeStructure {
    /// Plans and builds the bucket tree of `problem`, eliminating every
    /// variable outside `keep` (sorted, like `problem.con()`).
    pub(crate) fn build<S: Semiring>(
        problem: &Scsp<S>,
        keep: &[Var],
    ) -> Result<TreeStructure, SolveError> {
        let vars = problem.problem_vars();
        let mut sizes = Vec::with_capacity(vars.len());
        let mut values = Vec::with_capacity(vars.len());
        for v in &vars {
            let d = problem.domains().get(v)?;
            sizes.push(d.len());
            values.push(d.values().to_vec());
        }
        let pos = |v: &Var| vars.binary_search(v).expect("scope var is a problem var");
        let con_pos = problem.con().iter().map(pos).collect();
        let keep: Vec<usize> = keep.iter().map(pos).collect();
        let adjacency = primal_graph(problem, &vars);
        let (order, induced_width, heuristic) = best_order(&adjacency, &keep);
        // Every kept variable shares the rank after the last eliminated
        // one: the final cluster's.
        let last = order.len();
        let mut rank = vec![last; vars.len()];
        for (r, &p) in order.iter().enumerate() {
            rank[p] = r;
        }

        let mut kept_constraints = Vec::new();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); last];
        for (ci, c) in problem.constraints().iter().enumerate() {
            match c.scope().iter().map(|v| rank[pos(v)]).min() {
                Some(earliest) if earliest < last => members[earliest].push(ci),
                _ => kept_constraints.push(ci),
            }
        }

        let mut buckets: Vec<Bucket> = Vec::with_capacity(last);
        let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); last + 1];
        let (mut max_separator, mut max_cluster_cells, mut total_cells) = (0, 0u64, 0u64);
        for (r, &var) in order.iter().enumerate() {
            let mut cluster: BTreeSet<usize> = BTreeSet::new();
            cluster.insert(var);
            for &ci in &members[r] {
                cluster.extend(problem.constraints()[ci].scope().iter().map(pos));
            }
            for &child in &incoming[r] {
                cluster.extend(buckets[child].separator.iter().copied());
            }
            let separator: Vec<usize> = cluster.iter().copied().filter(|&p| p != var).collect();
            // The parent is the separator's earliest variable; a
            // separator inside the kept variables feeds the final cluster.
            let parent = separator
                .iter()
                .map(|&p| rank[p])
                .min()
                .filter(|&p| p < last);
            debug_assert!(parent.map_or(true, |p| p > r), "separator ranks are later");
            incoming[parent.unwrap_or(last)].push(r);
            let sep_cells = cells(&separator, &sizes);
            let cluster_cells = sep_cells.saturating_mul(sizes[var] as u64);
            max_separator = max_separator.max(separator.len());
            max_cluster_cells = max_cluster_cells.max(cluster_cells);
            total_cells = total_cells.saturating_add(cluster_cells);
            buckets.push(Bucket {
                var,
                constraints: std::mem::take(&mut members[r]),
                separator,
                children: Vec::new(),
                sep_cells,
                cluster_cells,
            });
        }
        for r in 0..buckets.len() {
            buckets[r].children = std::mem::take(&mut incoming[r]);
        }

        // Bottom-up waves by subtree height: children always sit in
        // strictly earlier waves.
        let mut height = vec![0usize; buckets.len()];
        let mut levels: Vec<Vec<usize>> = Vec::new();
        for r in 0..buckets.len() {
            // Children have smaller rank, so their heights are final.
            let h = buckets[r]
                .children
                .iter()
                .map(|&c| height[c] + 1)
                .max()
                .unwrap_or(0);
            height[r] = h;
            if levels.len() <= h {
                levels.resize(h + 1, Vec::new());
            }
            levels[h].push(r);
        }

        Ok(TreeStructure {
            vars,
            sizes,
            values,
            con_pos,
            keep,
            induced_width,
            heuristic,
            buckets,
            levels,
            kept_constraints,
            roots: std::mem::take(&mut incoming[last]),
            max_separator,
            max_cluster_cells,
            total_cells,
        })
    }

    /// Whether every cluster table fits the configured width cap and
    /// the absolute memory guard.
    pub(crate) fn fits(&self, config: &SolverConfig) -> bool {
        self.max_separator <= config.width_cap && self.max_cluster_cells <= TREE_CELL_LIMIT
    }

    fn tree_stats(&self, fallback: bool, context_hits: u64) -> TreeStats {
        TreeStats {
            clusters: self.buckets.len(),
            induced_width: self.induced_width,
            max_separator: self.max_separator,
            heuristic: match self.heuristic {
                TreeHeuristic::MinFill => "min-fill",
                TreeHeuristic::MinDegree => "min-degree",
            },
            table_cells: if fallback { 0 } else { self.total_cells },
            context_hits,
            fallback,
        }
    }
}

/// Flat mixed-radix index of `idx` restricted to `positions`.
fn flat_index(positions: &[usize], sizes: &[usize], idx: &[usize]) -> usize {
    positions.iter().fold(0, |acc, &p| acc * sizes[p] + idx[p])
}

/// Decodes `flat` back into `idx` at `positions` (inverse of
/// [`flat_index`]).
fn unflatten(positions: &[usize], sizes: &[usize], mut flat: usize, idx: &mut [usize]) {
    for &p in positions.iter().rev() {
        idx[p] = flat % sizes[p];
        flat /= sizes[p];
    }
}

/// A constraint materialised as a flat table over its (sorted,
/// de-duplicated) scope positions, for `O(1)` lookups in the bucket
/// enumeration inner loop.
struct FlatConstraint<S: Semiring> {
    positions: Vec<usize>,
    table: Vec<S::Value>,
}

impl<S: Semiring> FlatConstraint<S> {
    fn materialize(
        constraint: &Constraint<S>,
        vars: &[Var],
        sizes: &[usize],
        values: &[Vec<Val>],
    ) -> FlatConstraint<S> {
        let scope_pos: Vec<usize> = constraint
            .scope()
            .iter()
            .map(|v| vars.binary_search(v).expect("scope var is a problem var"))
            .collect();
        let mut positions = scope_pos.clone();
        positions.sort_unstable();
        positions.dedup();
        let cells: usize = positions.iter().map(|&p| sizes[p]).product();
        let mut idx = vec![0usize; vars.len()];
        let mut tuple: Vec<Val> = Vec::with_capacity(scope_pos.len());
        let mut table = Vec::with_capacity(cells);
        for flat in 0..cells {
            unflatten(&positions, sizes, flat, &mut idx);
            tuple.clear();
            tuple.extend(scope_pos.iter().map(|&p| values[p][idx[p]].clone()));
            table.push(constraint.eval_tuple(&tuple));
        }
        FlatConstraint { positions, table }
    }

    fn lookup(&self, sizes: &[usize], idx: &[usize]) -> &S::Value {
        &self.table[flat_index(&self.positions, sizes, idx)]
    }
}

/// One bucket's upward message — the AND/OR context cache for the
/// subtree it roots: per separator assignment, the eliminated value of
/// the subtree (`message`) and the argmax value index of the bucket's
/// variable (`choice`, consumed by the downward witness pass).
#[derive(Clone)]
struct BucketTable<S: Semiring> {
    message: Vec<S::Value>,
    choice: Vec<usize>,
}

/// `⊗` of `constraints` and of the messages of `children` at the
/// variable indices `idx` (a zero short-circuits the product).
fn combine_at<S: Semiring>(
    semiring: &S,
    structure: &TreeStructure,
    flats: &[FlatConstraint<S>],
    tables: &[Option<BucketTable<S>>],
    (constraints, children): (&[usize], &[usize]),
    idx: &[usize],
) -> S::Value {
    let sizes = &structure.sizes;
    let mut acc = semiring.one();
    for &ci in constraints {
        acc = semiring.times(&acc, flats[ci].lookup(sizes, idx));
        if semiring.is_zero(&acc) {
            return acc;
        }
    }
    for &child in children {
        let table = tables[child].as_ref().expect("child computed first");
        let cs = flat_index(&structure.buckets[child].separator, sizes, idx);
        acc = semiring.times(&acc, &table.message[cs]);
        if semiring.is_zero(&acc) {
            break;
        }
    }
    acc
}

/// Computes bucket `r`'s table from its member constraints and its
/// children's messages. Returns the table plus the number of child
/// context-cache reads beyond each entry's first use.
fn compute_bucket<S: Semiring>(
    semiring: &S,
    structure: &TreeStructure,
    flats: &[FlatConstraint<S>],
    tables: &[Option<BucketTable<S>>],
    r: usize,
) -> (BucketTable<S>, u64) {
    let bucket = &structure.buckets[r];
    let sizes = &structure.sizes;
    let sep_cells = bucket.sep_cells as usize;
    let d = sizes[bucket.var];
    let mut idx = vec![0usize; structure.vars.len()];
    let mut message = Vec::with_capacity(sep_cells);
    let mut choice = Vec::with_capacity(sep_cells);
    let members = (&bucket.constraints[..], &bucket.children[..]);
    for s in 0..sep_cells {
        unflatten(&bucket.separator, sizes, s, &mut idx);
        let mut sum = semiring.zero();
        let mut best = 0usize;
        for v in 0..d {
            idx[bucket.var] = v;
            let acc = combine_at(semiring, structure, flats, tables, members, &idx);
            // `+` is the lub, so the running Σ *is* the max; `lt`
            // keeps the first value attaining it (deterministic
            // witness, matching the search engines' first-witness
            // discipline).
            if semiring.lt(&sum, &acc) {
                best = v;
            }
            sum = semiring.plus(&sum, &acc);
        }
        message.push(sum);
        choice.push(best);
    }
    // Each child entry is read once per parent-side cluster cell;
    // reads beyond the child's own cell count are cache hits (the
    // repeated-context reuse AND/OR caching buys).
    let hits = bucket
        .children
        .iter()
        .map(|&c| {
            bucket
                .cluster_cells
                .saturating_sub(structure.buckets[c].sep_cells)
        })
        .sum();
    (BucketTable { message, choice }, hits)
}

/// Runs the upward pass: wave-parallel bucket tables, bottom-up.
/// Returns the context-cache hits and the most threads any wave ran on.
fn upward_pass<S: Semiring>(
    semiring: &S,
    structure: &TreeStructure,
    flats: &[FlatConstraint<S>],
    tables: &mut [Option<BucketTable<S>>],
    config: &SolverConfig,
) -> (u64, usize) {
    let (mut context_hits, mut threads) = (0, 1);
    for level in &structure.levels {
        let cells = level.iter().fold(0u64, |acc, &r| {
            acc.saturating_add(structure.buckets[r].cluster_cells)
        });
        let computed = fan_out(config.parallelism, level.len(), cells, |range| {
            range
                .map(|k| {
                    (
                        level[k],
                        compute_bucket(semiring, structure, flats, tables, level[k]),
                    )
                })
                .collect::<Vec<_>>()
        });
        threads = threads.max(computed.len());
        for (r, (table, hits)) in computed.into_iter().flatten() {
            context_hits += hits;
            tables[r] = Some(table);
        }
    }
    (context_hits, threads)
}

/// Reads `blevel` off the one-cell final cluster (nothing kept), then
/// reconstructs the witness downward and assembles the [`Solution`].
fn conclude<S: Semiring>(
    problem: &Scsp<S>,
    structure: &TreeStructure,
    flats: &[FlatConstraint<S>],
    tables: &[Option<BucketTable<S>>],
    stats: SolverStats,
) -> Solution<S> {
    let semiring = problem.semiring();
    let mut idx = vec![0usize; structure.vars.len()];
    let last = (&structure.kept_constraints[..], &structure.roots[..]);
    let blevel = combine_at(semiring, structure, flats, tables, last, &idx);

    let best = if semiring.is_zero(&blevel) {
        Vec::new()
    } else {
        // Downward pass: reverse elimination order. Bucket r's
        // separator variables all have later ranks, hence are already
        // pinned; its cached argmax extends the context optimally.
        for r in (0..structure.buckets.len()).rev() {
            let bucket = &structure.buckets[r];
            let table = tables[r].as_ref().expect("bucket computed");
            let s = flat_index(&bucket.separator, &structure.sizes, &idx);
            idx[bucket.var] = table.choice[s];
        }
        let con_eta: Assignment = structure
            .con_pos
            .iter()
            .map(|&p| {
                (
                    structure.vars[p].clone(),
                    structure.values[p][idx[p]].clone(),
                )
            })
            .collect();
        vec![(con_eta, blevel.clone())]
    };
    Solution::new(blevel, best, None).with_stats(stats)
}

fn materialize_all<S: Semiring>(
    problem: &Scsp<S>,
    structure: &TreeStructure,
) -> Vec<FlatConstraint<S>> {
    problem
        .constraints()
        .iter()
        .map(|c| {
            FlatConstraint::materialize(c, &structure.vars, &structure.sizes, &structure.values)
        })
        .collect()
}

/// Solves `problem` with one upward and one downward tree pass. The
/// caller has already checked [`TreeStructure::fits`].
fn solve_tree<S: Semiring>(
    problem: &Scsp<S>,
    structure: &TreeStructure,
    config: &SolverConfig,
) -> Solution<S> {
    let start = Instant::now();
    let semiring = problem.semiring().clone();
    let flats = materialize_all(problem, structure);
    let mut tables: Vec<Option<BucketTable<S>>> = vec![None; structure.buckets.len()];
    let (context_hits, threads) = upward_pass(&semiring, structure, &flats, &mut tables, config);
    let stats = SolverStats {
        nodes: structure.total_cells,
        threads,
        tree: Some(structure.tree_stats(false, context_hits)),
        solve_time: start.elapsed(),
        ..SolverStats::default()
    };
    conclude(problem, structure, &flats, &tables, stats)
}

/// `Sol(P) = (⊗C) ⇓ con` on the bucket tree: every variable outside
/// `con` is eliminated, and the final cluster enumerates the `con`
/// tuples, `⊗`-combining the constraints scoped in `con` with the
/// messages routed to it, without summing anything out. Its table,
/// split across worker threads by tuple range, is the solution's
/// `Sol(P)`; `blevel` is its `+`-fold.
///
/// # Errors
///
/// [`SolveError::MissingDomain`] for a variable without a domain;
/// [`SolveError::TableTooLarge`] when a cluster or the `con` table has
/// more cells than `usize` counts (this path has no search fallback,
/// so neither the width cap nor [`TREE_CELL_LIMIT`] applies).
pub(crate) fn solve_con<S: Semiring>(
    problem: &Scsp<S>,
    config: &SolverConfig,
) -> Result<Solution<S>, SolveError> {
    let start = Instant::now();
    let semiring = problem.semiring();
    let structure = TreeStructure::build(problem, problem.con())?;
    let kept_cells = cells(&structure.keep, &structure.sizes);
    let cells = usize::try_from(kept_cells)
        .ok()
        .filter(|_| structure.max_cluster_cells.max(kept_cells) < u64::MAX)
        .ok_or(SolveError::TableTooLarge)?;
    let flats = materialize_all(problem, &structure);
    let compile_time = start.elapsed();
    let mut tables = vec![None; structure.buckets.len()];
    let (hits, upward_threads) = upward_pass(semiring, &structure, &flats, &mut tables, config);
    let last = (&structure.kept_constraints[..], &structure.roots[..]);
    let parts = fan_out(config.parallelism, cells, kept_cells, |range| {
        let mut idx = vec![0usize; structure.vars.len()];
        range
            .map(|s| {
                unflatten(&structure.keep, &structure.sizes, s, &mut idx);
                let tuple = structure
                    .keep
                    .iter()
                    .map(|&p| structure.values[p][idx[p]].clone())
                    .collect();
                let level = combine_at(semiring, &structure, &flats, &tables, last, &idx);
                (tuple, level)
            })
            .collect::<Vec<_>>()
    });
    let threads = upward_threads.max(parts.len());
    let entries: Vec<(Vec<Val>, S::Value)> = parts.into_iter().flatten().collect();
    let con = problem.con();
    let blevel = semiring.sum(entries.iter().map(|(_, v)| v));
    let best = best_from_entries(semiring, con, &entries);
    let table = Constraint::table(semiring.clone(), con, entries, semiring.zero());
    let mut tree = structure.tree_stats(false, hits);
    tree.table_cells = tree.table_cells.saturating_add(cells as u64);
    let stats = SolverStats {
        nodes: tree.table_cells,
        threads,
        compile_time,
        tree: Some(tree),
        solve_time: start.elapsed(),
        ..SolverStats::default()
    };
    Ok(Solution::new(blevel, best, Some(table.with_label("Sol(P)"))).with_stats(stats))
}

/// The tree-guided greedy fallback seed: a complete assignment built
/// in reverse elimination order, each variable taking the value
/// maximising its *own bucket's* constraints against the already-fixed
/// suffix (the tree DP with messages dropped). Its canonically
/// evaluated level is achievable by construction, hence a sound
/// incumbent — offered only on exact-`×` semirings, where the seed's
/// association matches the search's own fold.
fn greedy_seed<S: Semiring>(problem: &Scsp<S>, structure: &TreeStructure) -> Option<S::Value> {
    let semiring = problem.semiring();
    if !semiring.exact_times() {
        return None;
    }
    let mut idx = vec![0usize; structure.vars.len()];
    let mut tuple: Vec<Val> = Vec::new();
    for r in (0..structure.buckets.len()).rev() {
        let bucket = &structure.buckets[r];
        let mut best = semiring.zero();
        let mut best_v = 0usize;
        for v in 0..structure.sizes[bucket.var] {
            idx[bucket.var] = v;
            let mut acc = semiring.one();
            for &ci in &bucket.constraints {
                let c = &problem.constraints()[ci];
                tuple.clear();
                tuple.extend(c.scope().iter().map(|sv| {
                    let p = structure
                        .vars
                        .binary_search(sv)
                        .expect("scope var is a problem var");
                    structure.values[p][idx[p]].clone()
                }));
                acc = semiring.times(&acc, &c.eval_tuple(&tuple));
                if semiring.is_zero(&acc) {
                    break;
                }
            }
            if v == 0 || semiring.lt(&best, &acc) {
                best = acc;
                best_v = v;
            }
        }
        idx[bucket.var] = best_v;
    }
    // Canonical (constraint-order) evaluation of the greedy assignment:
    // exactly the level any engine would report for it.
    let full: Assignment = structure
        .vars
        .iter()
        .enumerate()
        .map(|(p, v)| (v.clone(), structure.values[p][idx[p]].clone()))
        .collect();
    let levels: Vec<S::Value> = problem
        .constraints()
        .iter()
        .map(|c| c.eval(&full))
        .collect();
    let seed = semiring.product(levels.iter());
    (!semiring.is_zero(&seed)).then_some(seed)
}

/// What the tree engine decided for one problem.
pub(crate) enum TreeAttempt<S: Semiring> {
    /// Tree-solved exactly.
    Solved(Box<Solution<S>>),
    /// Width cap or memory guard exceeded under
    /// [`Engine::TreeDecompose`]: the caller must run branch-and-bound,
    /// seeded when a greedy tree bound was achievable, and attach
    /// `stats` to the result.
    Fallback {
        seed: Option<S::Value>,
        stats: TreeStats,
    },
    /// Branch-and-bound chosen outright ([`Engine::BranchBound`], or
    /// [`Engine::Auto`] on a component wider than the cap).
    Declined,
}

/// Engine selection for one (component) problem: plans the elimination
/// order, checks it against the cap, and either tree-solves or hands
/// back to branch-and-bound.
pub(crate) fn attempt<S: Semiring>(
    problem: &Scsp<S>,
    config: &SolverConfig,
) -> Result<TreeAttempt<S>, SolveError> {
    if config.engine == Engine::BranchBound {
        return Ok(TreeAttempt::Declined);
    }
    let structure = TreeStructure::build(problem, &[])?;
    if structure.fits(config) {
        return Ok(TreeAttempt::Solved(Box::new(solve_tree(
            problem, &structure, config,
        ))));
    }
    match config.engine {
        Engine::Auto => Ok(TreeAttempt::Declined),
        Engine::TreeDecompose => Ok(TreeAttempt::Fallback {
            seed: greedy_seed(problem, &structure),
            stats: structure.tree_stats(true, 0),
        }),
        Engine::BranchBound => unreachable!("returned Declined above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{
        banded_weighted, chain_weighted, random_product, random_weighted, RandomScsp,
    };
    use crate::solve::{BranchAndBound, EnumerationSolver, Solver, VarOrder};
    use crate::testutil::fig1_problem;
    use crate::Domain;
    use softsoa_semiring::WeightedInt;

    fn tree_config() -> SolverConfig {
        SolverConfig::default()
            .with_tree_decompose(8)
            .with_parallelism(crate::solve::Parallelism::Sequential)
    }

    #[test]
    fn chain_plans_width_one() {
        let p = chain_weighted(10, 3, 7);
        let plan = plan_elimination(&p).unwrap();
        assert_eq!(plan.induced_width, 1);
        assert_eq!(plan.order.len(), 10);
    }

    #[test]
    fn banded_plan_width_is_at_most_the_band() {
        for band in 1..=3 {
            let p = banded_weighted(12, 3, band, 5);
            let plan = plan_elimination(&p).unwrap();
            assert!(
                plan.induced_width <= band,
                "band {band} planned at width {}",
                plan.induced_width
            );
        }
    }

    #[test]
    fn tree_solve_matches_search_on_random_problems() {
        for seed in 0..12 {
            let p = random_weighted(&RandomScsp {
                vars: 6,
                domain_size: 3,
                constraints: 8,
                arity: 2,
                seed,
            });
            let search = BranchAndBound::default().solve(&p).unwrap();
            let tree = BranchAndBound::with_config(VarOrder::Input, tree_config())
                .solve(&p)
                .unwrap();
            assert_eq!(tree.blevel(), search.blevel(), "seed {seed}");
            assert_eq!(
                tree.best_assignment().is_some(),
                search.best_assignment().is_some(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn tree_witness_attains_the_blevel() {
        for seed in 0..8 {
            let p = banded_weighted(10, 3, 2, seed).of_interest(p_vars(10));
            let tree = BranchAndBound::with_config(VarOrder::Input, tree_config())
                .solve(&p)
                .unwrap();
            if let Some(best) = tree.best_assignment() {
                let level = p.semiring().product(
                    p.constraints()
                        .iter()
                        .map(|c| c.eval(best))
                        .collect::<Vec<_>>()
                        .iter(),
                );
                assert_eq!(&level, tree.blevel(), "seed {seed}");
            }
        }
    }

    fn p_vars(n: usize) -> Vec<Var> {
        (0..n).map(|i| Var::new(format!("x{i}"))).collect()
    }

    /// The kept-`con` path's table is the oracle's `Sol(P)`, and its
    /// `blevel` the oracle's.
    fn assert_con_table_is_sol<S: Semiring>(p: &Scsp<S>) {
        let reference = EnumerationSolver::new().solve(p).unwrap();
        let tree = solve_con(p, &tree_config()).unwrap();
        assert_eq!(tree.blevel(), reference.blevel());
        let table = tree.solution_constraint().unwrap();
        let sol = reference.solution_constraint().unwrap();
        assert!(table.equivalent(sol, p.domains()).unwrap());
    }

    #[test]
    fn kept_con_table_is_the_oracles_sol() {
        assert_con_table_is_sol(&fig1_problem());
        assert_con_table_is_sol(&chain_weighted(8, 3, 4).of_interest(["x2", "x5"]));
        let product = random_product(&RandomScsp {
            vars: 5,
            domain_size: 3,
            constraints: 7,
            arity: 2,
            seed: 9,
        });
        assert_con_table_is_sol(&product.of_interest(["x1", "x3"]));
        // `con = ∅`: one cell, `blevel`.
        let blevel_only = fig1_problem().of_interest(Vec::<Var>::new());
        assert_con_table_is_sol(&blevel_only);
        let tree = solve_con(&blevel_only, &tree_config()).unwrap();
        assert_eq!(tree.solution_constraint().unwrap().eval_tuple(&[]), 7);
    }

    #[test]
    fn width_cap_falls_back_to_seeded_search() {
        // Width cap 1 on a band-2 problem: must fall back yet stay
        // exact.
        let p = banded_weighted(8, 3, 2, 3);
        let search = BranchAndBound::default().solve(&p).unwrap();
        let capped = BranchAndBound::with_config(VarOrder::Input, tree_config().with_width_cap(1))
            .solve(&p)
            .unwrap();
        assert_eq!(capped.blevel(), search.blevel());
        let stats = capped.stats().unwrap();
        let tree = stats.tree.as_ref().expect("fallback records tree stats");
        assert!(tree.fallback);
        assert!(tree.induced_width > 1);
    }

    #[test]
    fn auto_engine_declines_wide_components() {
        let p = random_weighted(&RandomScsp {
            vars: 6,
            domain_size: 2,
            constraints: 12,
            arity: 3,
            seed: 2,
        });
        let cfg = SolverConfig::default()
            .with_engine(Engine::Auto)
            .with_width_cap(1);
        // Too wide for the cap: Auto silently searches, same result.
        let auto = BranchAndBound::with_config(VarOrder::Input, cfg)
            .solve(&p)
            .unwrap();
        let search = BranchAndBound::default().solve(&p).unwrap();
        assert_eq!(auto.blevel(), search.blevel());
    }

    #[test]
    fn empty_and_inconsistent_problems() {
        let empty = Scsp::new(WeightedInt);
        let sol = BranchAndBound::with_config(VarOrder::Input, tree_config())
            .solve(&empty)
            .unwrap();
        assert_eq!(*sol.blevel(), 0);

        let dead = Scsp::new(WeightedInt)
            .with_domain("x", Domain::ints(0..=2))
            .with_constraint(Constraint::never(WeightedInt))
            .of_interest(["x"]);
        let sol = BranchAndBound::with_config(VarOrder::Input, tree_config())
            .solve(&dead)
            .unwrap();
        assert_eq!(*sol.blevel(), u64::MAX);
        assert!(sol.best_assignment().is_none());
    }

    #[test]
    fn parallel_waves_match_sequential() {
        let p = banded_weighted(14, 3, 2, 11);
        let seq = BranchAndBound::with_config(VarOrder::Input, tree_config())
            .solve(&p)
            .unwrap();
        let par = BranchAndBound::with_config(
            VarOrder::Input,
            tree_config().with_parallelism(crate::solve::Parallelism::Threads(3)),
        )
        .solve(&p)
        .unwrap();
        assert_eq!(par.blevel(), seq.blevel());
        assert_eq!(par.best_assignment(), seq.best_assignment());
    }

    /// A star: centre `c` (domain `0..centre`) tied to `leaves` binary
    /// leaves, with `c` of interest.
    fn star(centre: i64, leaves: usize) -> Scsp<WeightedInt> {
        let mut p = Scsp::new(WeightedInt)
            .with_domain("c", Domain::ints(0..centre))
            .of_interest(["c"]);
        for i in 0..leaves {
            let leaf = format!("l{i}");
            p.add_domain(leaf.clone(), Domain::ints(0..=1));
            p.add_constraint(Constraint::binary(WeightedInt, "c", leaf, |a, b| {
                (a.as_int().unwrap() + b.as_int().unwrap()) as u64
            }));
        }
        p
    }

    #[test]
    fn reported_threads_are_the_widest_fan_out() {
        use crate::solve::parallel::chunk_count;
        use crate::solve::Parallelism;
        // Upward waves wider than the `con` table, narrower, and absent.
        let problems = [star(2, 5), star(5, 2), star(3, 0), fig1_problem()];
        let policies = [
            Parallelism::Sequential,
            Parallelism::Threads(2),
            Parallelism::Threads(3),
            Parallelism::Auto,
        ];
        for (i, p) in problems.iter().enumerate() {
            for policy in policies {
                let config = tree_config().with_parallelism(policy);
                // The most chunks any upward wave splits into.
                let widest_wave = |structure: &TreeStructure| {
                    let wave = |level: &Vec<usize>| {
                        let cells = level.iter().map(|&r| structure.buckets[r].cluster_cells);
                        chunk_count(policy, level.len(), cells.sum())
                    };
                    structure.levels.iter().map(wave).max().unwrap_or(1)
                };
                let kept = TreeStructure::build(p, p.con()).unwrap();
                let con_cells = cells(&kept.keep, &kept.sizes);
                let con_chunks = chunk_count(policy, con_cells as usize, con_cells);
                let expected = widest_wave(&kept).max(con_chunks);
                let solved = solve_con(p, &config).unwrap();
                assert_eq!(
                    solved.stats().unwrap().threads,
                    expected,
                    "con {i} {policy:?}"
                );

                let plain = TreeStructure::build(p, &[]).unwrap();
                let expected = widest_wave(&plain);
                let solved = solve_tree(p, &plain, &config);
                assert_eq!(
                    solved.stats().unwrap().threads,
                    expected,
                    "tree {i} {policy:?}"
                );
                if policy == Parallelism::Threads(3) && i == 0 {
                    assert_eq!(expected, 3, "five leaves split three ways");
                }
            }
        }
    }
}
