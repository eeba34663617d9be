//! Incremental re-solve engine for churning constraint stores.
//!
//! A registry under churn mutates one constraint at a time; re-solving
//! the whole SCSP from scratch repeats work for every part of the
//! constraint graph the mutation cannot reach. [`IncrementalSolver`]
//! keeps the problem as a mutable set of identified constraints and,
//! on each [`solve`](IncrementalSolver::solve), re-uses PR 6's
//! connected-component decomposition as *dirty-scope invalidation*:
//!
//! - the constraint graph is split into connected components (the
//!   union-find of [`constraint_components`]);
//! - each component is keyed by its variable set plus the sorted
//!   `(constraint id, version)` signature of its constraints — a
//!   component whose signature is unchanged since the last solve is a
//!   **clean** component and its `(blevel, witness)` is replayed from
//!   the component cache without any search;
//! - dirty components are re-searched with [`BranchAndBound`],
//!   warm-started from the previous optimum where that is sound: the
//!   old witness restricted to the component is re-evaluated on the
//!   *current* constraints, which yields an achievable (hence
//!   admissible) incumbent for both tightenings and relaxations.
//!
//! Soundness notes. The global `blevel` factors exactly as
//! `k × Π_i blevel(P_i)` over components on every semiring (see
//! [`decompose`](super::decompose)); warm seeds are only used when
//! `Semiring::exact_times()` holds, because re-associating an inexact
//! (floating-point) product could make the seeded level unachievable
//! under the search's own evaluation order and turn the incumbent into
//! an over-tight bound. Inexact semirings still get the component
//! reuse — only the incumbent seeding is skipped.
//!
//! The component cache is shared across [`Clone`]d solvers and bounded
//! (least-recently-used eviction), so a long-lived broker holding one
//! solver per binding problem keeps flat memory under sustained churn.
//! Sharing is sound because every part of a [`ComponentKey`] is
//! globally unique across clones: constraint ids, `update` version
//! stamps and domain generations are all allocated from one shared
//! atomic counter, so two clones that diverge (updating the same id,
//! or re-declaring the same variable, with different content) can
//! never produce the same key.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use softsoa_semiring::Semiring;
use softsoa_telemetry::Telemetry;

use crate::solve::treedec::{self, TreeState};
use crate::solve::{
    BranchAndBound, Engine, EnumerationSolver, Solution, SolveError, Solver, SolverConfig, VarOrder,
};
use crate::{Assignment, Constraint, Domain, Domains, Scsp, Var};

/// A handle to a constraint registered with an [`IncrementalSolver`].
///
/// Ids are allocated from a counter shared across clones of the
/// solver, so handles never collide even when several solvers share
/// one component cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConstraintId(u64);

/// Counters describing how much work incrementality avoided.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Deltas applied (`add` + `retract` + `update`).
    pub deltas: u64,
    /// Calls to [`IncrementalSolver::solve`].
    pub solves: u64,
    /// Components examined across all solves.
    pub components_seen: u64,
    /// Components replayed from the cache without search.
    pub components_reused: u64,
    /// Components re-searched because their signature changed.
    pub components_resolved: u64,
    /// Dirty components whose search was warm-started from the
    /// previous optimum.
    pub warm_seeds: u64,
    /// Bucket-tree clusters replayed unchanged inside dirty components
    /// (tree engines only: a content-only delta recomputes just the
    /// touched bucket and its ancestors, and this counts the buckets
    /// that kept their tables).
    pub clusters_reused: u64,
    /// Bucket-tree clusters whose tables were recomputed.
    pub clusters_recomputed: u64,
}

impl IncrementalStats {
    /// Fraction of examined components replayed from cache, in
    /// `[0, 1]`; `0` before the first solve.
    pub fn reuse_ratio(&self) -> f64 {
        if self.components_seen == 0 {
            0.0
        } else {
            self.components_reused as f64 / self.components_seen as f64
        }
    }

    /// Publishes the counters as `solver.incremental.*` gauges.
    ///
    /// Gauges (not counters) because the stats are cumulative for the
    /// solver's lifetime; emitting them repeatedly must not
    /// double-count.
    pub fn emit(&self, telemetry: &Telemetry) {
        telemetry.gauge("solver.incremental.deltas", self.deltas as i64);
        telemetry.gauge("solver.incremental.solves", self.solves as i64);
        telemetry.gauge(
            "solver.incremental.components_seen",
            self.components_seen as i64,
        );
        telemetry.gauge(
            "solver.incremental.components_reused",
            self.components_reused as i64,
        );
        telemetry.gauge(
            "solver.incremental.components_resolved",
            self.components_resolved as i64,
        );
        telemetry.gauge("solver.incremental.warm_seeds", self.warm_seeds as i64);
        telemetry.gauge(
            "solver.incremental.clusters_reused",
            self.clusters_reused as i64,
        );
        telemetry.gauge(
            "solver.incremental.clusters_recomputed",
            self.clusters_recomputed as i64,
        );
        telemetry.gauge(
            "solver.incremental.reuse_ratio_permille",
            (self.reuse_ratio() * 1000.0) as i64,
        );
    }
}

#[derive(Clone)]
struct Slot<S: Semiring> {
    version: u64,
    constraint: Constraint<S>,
}

/// Cache key for one connected component: its variable set, the
/// `(id, version)` signature of its constraints (sorted, since ids
/// come out of a `BTreeMap`), and the domain generation at which it
/// was solved. Versions and generations are globally unique stamps
/// (see the module docs), so keys built by different clones collide
/// only when their content is genuinely identical.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ComponentKey {
    /// Shared with the memoised [`Structure`], so building a key per
    /// component per solve clones a pointer, not the variable vector.
    /// Hashing and equality go through to the contents, so keys built
    /// by different solvers still unify in the shared cache.
    vars: Arc<Vec<Var>>,
    parts: Vec<(u64, u64)>,
    domain_gen: u64,
}

struct Cached<S: Semiring> {
    blevel: S::Value,
    /// A full assignment of the component's variables attaining
    /// `blevel`, when one exists (`None` iff `blevel = 0`).
    witness: Option<Assignment>,
    stamp: u64,
}

struct CacheState<S: Semiring> {
    entries: HashMap<ComponentKey, Cached<S>>,
    stamp: u64,
    capacity: usize,
}

/// Fraction of the cache evicted per batch, as a divisor: at capacity,
/// the oldest `capacity / EVICTION_DIVISOR` entries (at least one) are
/// dropped in a single `O(n)` pass. The next batch-size-minus-one
/// inserts then evict nothing, so sustained-churn inserts cost
/// amortized `O(EVICTION_DIVISOR)` comparisons — constant in the
/// capacity — while the replay path (`touch`) stays a plain hash
/// lookup with no recency bookkeeping at all.
const EVICTION_DIVISOR: usize = 10;

impl<S: Semiring> CacheState<S> {
    fn touch(&mut self, key: &ComponentKey) -> Option<(S::Value, Option<Assignment>)> {
        self.stamp += 1;
        let stamp = self.stamp;
        let hit = self.entries.get_mut(key)?;
        hit.stamp = stamp;
        Some((hit.blevel.clone(), hit.witness.clone()))
    }

    fn insert(&mut self, key: ComponentKey, blevel: S::Value, witness: Option<Assignment>) {
        self.stamp += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            // Batch-evict the least-recently-used ~10% to stay
            // bounded. Stamps are unique, so selecting the k-th
            // oldest stamp and retaining strictly newer entries
            // removes exactly k.
            let k = (self.capacity / EVICTION_DIVISOR)
                .max(1)
                .min(self.entries.len());
            let mut stamps: Vec<u64> = self.entries.values().map(|c| c.stamp).collect();
            let (_, cutoff, _) = stamps.select_nth_unstable(k - 1);
            let cutoff = *cutoff;
            self.entries.retain(|_, c| c.stamp > cutoff);
        }
        self.entries.insert(
            key,
            Cached {
                blevel,
                witness,
                stamp: self.stamp,
            },
        );
    }
}

/// A persistent solver that accepts constraint deltas and re-solves
/// only the parts of the problem the deltas can reach.
///
/// # Examples
///
/// ```
/// use softsoa_core::solve::IncrementalSolver;
/// use softsoa_core::{Constraint, Domain};
/// use softsoa_semiring::WeightedInt;
///
/// let mut solver = IncrementalSolver::new(WeightedInt)
///     .with_domain("x", Domain::ints(0..=3))
///     .with_domain("y", Domain::ints(0..=3));
/// let cost = solver.add_constraint(Constraint::binary(WeightedInt, "x", "y", |x, y| {
///     (x.as_int().unwrap() + y.as_int().unwrap()) as u64
/// }));
/// assert_eq!(*solver.solve().unwrap().blevel(), 0);
///
/// // Tighten: x now costs at least 2 on its own.
/// solver.update_constraint(
///     cost,
///     Constraint::binary(WeightedInt, "x", "y", |x, y| {
///         (2 + x.as_int().unwrap() + y.as_int().unwrap()) as u64
///     }),
/// );
/// assert_eq!(*solver.solve().unwrap().blevel(), 2);
/// ```
pub struct IncrementalSolver<S: Semiring> {
    semiring: S,
    domains: Domains,
    con: Vec<Var>,
    constraints: BTreeMap<u64, Slot<S>>,
    order: VarOrder,
    config: SolverConfig,
    /// Shared allocator for constraint ids, `update` version stamps
    /// and domain generations. One counter for all three keeps every
    /// [`ComponentKey`] ingredient globally unique across clones — a
    /// per-clone counter would let two diverging clones both reach
    /// "version 1" / "generation 1" with different content and poison
    /// the shared cache.
    stamps: Arc<AtomicU64>,
    cache: Arc<Mutex<CacheState<S>>>,
    domain_gen: u64,
    /// Full witness (all problem variables) from the last solve, used
    /// to warm-start dirty components.
    last_witness: Option<Assignment>,
    /// Memoised constraint-graph decomposition, invalidated only by
    /// scope-changing deltas (add, retract, scope-altering update):
    /// version bumps and domain re-declarations leave the graph — and
    /// hence the memo — intact.
    structure: Option<Arc<Structure>>,
    /// Per-component bucket-tree state (tree engines only), keyed by
    /// the component's variable set and stamped with the domain
    /// generation it was filled under. Not shared across clones: the
    /// tables are bulky and cheap to rebuild, so a clone starts cold.
    tree_states: TreeStateMap<S>,
    stats: IncrementalStats,
}

/// Per-component tree state: the component's variable set maps to the
/// domain generation it was filled under plus the state itself.
type TreeStateMap<S> = HashMap<Arc<Vec<Var>>, (u64, Option<TreeState<S>>)>;

/// Bound on per-component tree states a solver keeps; scope churn that
/// outgrows it drops the oldest wholesale (they rebuild on demand).
const TREE_STATE_CAPACITY: usize = 64;

/// The constraint-graph decomposition of the current problem:
/// connected components with their member constraint ids, plus the
/// empty-scope constants.
struct Structure {
    /// `(component variables, member constraint ids)`, both sorted.
    components: Vec<(Arc<Vec<Var>>, Vec<u64>)>,
    /// Ids of empty-scope (constant) constraints, sorted.
    constants: Vec<u64>,
}

impl<S: Semiring> std::fmt::Debug for IncrementalSolver<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalSolver")
            .field("semiring", &self.semiring)
            .field("constraints", &self.constraints.len())
            .field("con", &self.con)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<S: Semiring> Clone for IncrementalSolver<S> {
    fn clone(&self) -> Self {
        IncrementalSolver {
            semiring: self.semiring.clone(),
            domains: self.domains.clone(),
            con: self.con.clone(),
            constraints: self.constraints.clone(),
            order: self.order,
            config: self.config,
            stamps: Arc::clone(&self.stamps),
            cache: Arc::clone(&self.cache),
            domain_gen: self.domain_gen,
            last_witness: self.last_witness.clone(),
            structure: self.structure.clone(),
            tree_states: HashMap::new(),
            stats: self.stats.clone(),
        }
    }
}

/// Default bound on cached component results.
const DEFAULT_CACHE_CAPACITY: usize = 1024;

impl<S: Semiring> IncrementalSolver<S> {
    /// Creates an empty incremental solver.
    pub fn new(semiring: S) -> IncrementalSolver<S> {
        IncrementalSolver {
            semiring,
            domains: Domains::new(),
            con: Vec::new(),
            constraints: BTreeMap::new(),
            order: VarOrder::Input,
            config: SolverConfig::default(),
            stamps: Arc::new(AtomicU64::new(0)),
            cache: Arc::new(Mutex::new(CacheState {
                entries: HashMap::new(),
                stamp: 0,
                capacity: DEFAULT_CACHE_CAPACITY,
            })),
            domain_gen: 0,
            last_witness: None,
            structure: None,
            tree_states: HashMap::new(),
            stats: IncrementalStats::default(),
        }
    }

    /// Seeds the solver with an existing problem's domains,
    /// constraints and variables of interest.
    pub fn from_problem(problem: &Scsp<S>) -> (IncrementalSolver<S>, Vec<ConstraintId>) {
        let mut solver = IncrementalSolver::new(problem.semiring().clone());
        for (v, d) in problem.domains().iter() {
            solver.declare(v.clone(), d.clone());
        }
        solver.con = problem.con().to_vec();
        let ids = problem
            .constraints()
            .iter()
            .map(|c| solver.add_constraint(c.clone()))
            .collect();
        (solver, ids)
    }

    /// Builder-style domain declaration.
    pub fn with_domain(mut self, var: impl Into<Var>, domain: Domain) -> IncrementalSolver<S> {
        self.declare(var, domain);
        self
    }

    /// Builder-style variables of interest (sorted and de-duplicated,
    /// matching [`Scsp::of_interest`]).
    pub fn of_interest<V: Into<Var>>(
        mut self,
        vars: impl IntoIterator<Item = V>,
    ) -> IncrementalSolver<S> {
        self.con = vars.into_iter().map(Into::into).collect();
        self.con.sort();
        self.con.dedup();
        self.structure = None;
        self
    }

    /// Builder-style search configuration for dirty components.
    pub fn with_config(mut self, order: VarOrder, config: SolverConfig) -> IncrementalSolver<S> {
        self.order = order;
        self.config = config;
        self
    }

    /// Allocates a fresh globally unique stamp (id, version, or
    /// domain generation) from the counter shared across clones.
    fn next_stamp(&self) -> u64 {
        self.stamps.fetch_add(1, Ordering::Relaxed)
    }

    /// Declares (or re-declares) a variable's domain.
    ///
    /// Re-declaration moves the solver to a fresh domain generation,
    /// invalidating every cached component and the warm-start witness:
    /// cached results are only sound against the domains they were
    /// computed over. The generation is a globally unique stamp (`+ 1`
    /// keeps it distinct from the initial generation `0` every clone
    /// starts at), so clones re-declaring the same variable with
    /// different domains never alias each other's cache entries.
    pub fn declare(&mut self, var: impl Into<Var>, domain: Domain) {
        let var = var.into();
        if self.domains.contains(&var) {
            self.domain_gen = self.next_stamp() + 1;
            self.last_witness = None;
        }
        self.domains.insert(var, domain);
    }

    /// Adds a constraint, returning its handle.
    pub fn add_constraint(&mut self, constraint: Constraint<S>) -> ConstraintId {
        let id = self.next_stamp();
        self.constraints.insert(
            id,
            Slot {
                version: 0,
                constraint,
            },
        );
        self.stats.deltas += 1;
        self.structure = None;
        ConstraintId(id)
    }

    /// Removes a constraint, returning it; `None` for unknown or
    /// already-retracted handles.
    pub fn retract_constraint(&mut self, id: ConstraintId) -> Option<Constraint<S>> {
        let slot = self.constraints.remove(&id.0)?;
        self.stats.deltas += 1;
        self.structure = None;
        Some(slot.constraint)
    }

    /// Replaces the constraint behind `id`, returning the previous
    /// definition; `None` (and no change) for unknown handles.
    pub fn update_constraint(
        &mut self,
        id: ConstraintId,
        constraint: Constraint<S>,
    ) -> Option<Constraint<S>> {
        // The new content gets a globally unique version stamp, never
        // a per-clone increment: two clones updating the same id with
        // different constraints must key the shared cache differently.
        // `+ 1` keeps update stamps distinct from the original
        // content's version `0`.
        let version = self.next_stamp() + 1;
        let slot = self.constraints.get_mut(&id.0)?;
        slot.version = version;
        self.stats.deltas += 1;
        if slot.constraint.scope() != constraint.scope() {
            self.structure = None;
        }
        Some(std::mem::replace(&mut slot.constraint, constraint))
    }

    /// The constraint currently behind `id`, if any.
    pub fn constraint(&self, id: ConstraintId) -> Option<&Constraint<S>> {
        self.constraints.get(&id.0).map(|s| &s.constraint)
    }

    /// Iterates over the live constraints in id order.
    pub fn constraints(&self) -> impl Iterator<Item = (ConstraintId, &Constraint<S>)> {
        self.constraints
            .iter()
            .map(|(id, s)| (ConstraintId(*id), &s.constraint))
    }

    /// The number of live constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether no constraints are registered.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Work-avoidance counters accumulated so far.
    pub fn stats(&self) -> &IncrementalStats {
        &self.stats
    }

    /// The current problem as a fresh [`Scsp`] — the from-scratch
    /// baseline the differential test harness solves alongside.
    pub fn problem(&self) -> Scsp<S> {
        let mut p = Scsp::new(self.semiring.clone());
        for (v, d) in self.domains.iter() {
            p.add_domain(v.clone(), d.clone());
        }
        for slot in self.constraints.values() {
            p.add_constraint(slot.constraint.clone());
        }
        p.of_interest(self.con.iter().cloned())
    }

    /// The problem variables: constraint scopes ∪ `con`, sorted
    /// (mirrors [`Scsp::problem_vars`]).
    fn problem_vars(&self) -> Vec<Var> {
        let mut vars: Vec<Var> = self
            .constraints
            .values()
            .flat_map(|s| s.constraint.scope().iter().cloned())
            .chain(self.con.iter().cloned())
            .collect();
        vars.sort();
        vars.dedup();
        vars
    }

    /// The memoised constraint-graph decomposition, rebuilt (with the
    /// union-find of [`constraint_components`](super::constraint_components),
    /// without materialising an [`Scsp`]) only after a scope-changing
    /// delta.
    fn structure(&mut self) -> Arc<Structure> {
        if let Some(structure) = &self.structure {
            return Arc::clone(structure);
        }
        let vars = self.problem_vars();
        let pos: BTreeMap<&Var, usize> = vars.iter().zip(0..).collect();
        let mut parent: Vec<usize> = (0..vars.len()).collect();
        fn find(parent: &mut [usize], i: usize) -> usize {
            let mut root = i;
            while parent[root] != root {
                root = parent[root];
            }
            let mut walk = i;
            while parent[walk] != root {
                let next = parent[walk];
                parent[walk] = root;
                walk = next;
            }
            root
        }
        let mut constants = Vec::new();
        for (id, slot) in &self.constraints {
            let mut scope = slot.constraint.scope().iter();
            let Some(first) = scope.next() else {
                constants.push(*id);
                continue;
            };
            let anchor = find(&mut parent, pos[first]);
            for v in scope {
                let root = find(&mut parent, pos[v]);
                parent[root] = anchor;
            }
        }
        let mut groups: BTreeMap<usize, (Vec<Var>, Vec<u64>)> = BTreeMap::new();
        for (i, v) in vars.iter().enumerate() {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().0.push(v.clone());
        }
        // BTreeMap iteration yields ids in order, so member lists come
        // out sorted.
        for (id, slot) in &self.constraints {
            if let Some(first) = slot.constraint.scope().first() {
                let root = find(&mut parent, pos[first]);
                groups
                    .get_mut(&root)
                    .expect("scope var grouped")
                    .1
                    .push(*id);
            }
        }
        let mut components: Vec<(Vec<Var>, Vec<u64>)> = groups.into_values().collect();
        components.sort();
        let components = components
            .into_iter()
            .map(|(vars, members)| (Arc::new(vars), members))
            .collect();
        let structure = Arc::new(Structure {
            components,
            constants,
        });
        self.structure = Some(Arc::clone(&structure));
        structure
    }

    /// An achievable incumbent for a dirty component: the previous
    /// full witness restricted to the component, re-evaluated on the
    /// component's *current* constraints. Only offered on exact-`×`
    /// semirings — see the module docs.
    fn warm_seed(
        &self,
        comp: &[Var],
        comp_constraints: &[(u64, u64, &Constraint<S>)],
    ) -> Option<S::Value> {
        if !self.semiring.is_total() {
            return None;
        }
        // Re-associating an inexact (floating-point) product can make
        // the seed unachievable under the search's own fold order; a
        // single-constraint component has nothing to re-associate, so
        // its evaluation is the search's level verbatim.
        if !self.semiring.exact_times() && comp_constraints.len() != 1 {
            return None;
        }
        let witness = self.last_witness.as_ref()?;
        // Every component variable must still be bound to a value in
        // its (current) domain.
        for v in comp.iter() {
            let val = witness.get(v)?;
            if !self.domains.get(v).ok()?.contains(val) {
                return None;
            }
        }
        let levels: Option<Vec<S::Value>> = comp_constraints
            .iter()
            .map(|(_, _, c)| c.try_eval(witness).ok())
            .collect();
        let seed = self.semiring.product(levels.as_ref()?.iter());
        (!self.semiring.is_zero(&seed)).then_some(seed)
    }

    /// Solves the current problem, replaying clean components from the
    /// shared cache and re-searching only dirty ones.
    ///
    /// The returned [`Solution`] is equivalent to solving
    /// [`problem`](IncrementalSolver::problem) from scratch: identical
    /// `blevel`, and a best assignment (when one exists) that attains
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::MissingDomain`] if a constraint scope or
    /// `con` variable has no declared domain.
    pub fn solve(&mut self) -> Result<Solution<S>, SolveError> {
        self.stats.solves += 1;
        let structure = self.structure();
        // Constants (empty-scope constraints) contribute a global
        // factor outside every component.
        let constant = self.semiring.product(
            structure
                .constants
                .iter()
                .map(|id| self.constraints[id].constraint.eval_tuple(&[]))
                .collect::<Vec<_>>()
                .iter(),
        );

        let mut blevel = constant;
        let mut witness = Assignment::new();
        let mut complete = true;
        for (comp, members) in &structure.components {
            self.stats.components_seen += 1;
            // Member lists are id-sorted, so the signature needs no
            // extra sort.
            let comp_constraints: Vec<(u64, u64, &Constraint<S>)> = members
                .iter()
                .map(|id| {
                    let slot = &self.constraints[id];
                    (*id, slot.version, &slot.constraint)
                })
                .collect();
            let key = ComponentKey {
                vars: Arc::clone(comp),
                parts: comp_constraints
                    .iter()
                    .map(|(id, v, _)| (*id, *v))
                    .collect(),
                domain_gen: self.domain_gen,
            };
            let cached = self.cache.lock().unwrap().touch(&key);
            let (comp_blevel, comp_witness) = if let Some(hit) = cached {
                self.stats.components_reused += 1;
                hit
            } else {
                self.stats.components_resolved += 1;
                let mut part = Scsp::new(self.semiring.clone());
                for v in comp.iter() {
                    part.add_domain(v.clone(), self.domains.get(v)?.clone());
                }
                for (_, _, c) in &comp_constraints {
                    part.add_constraint((*c).clone());
                }
                // con = all component variables, so the witness is a
                // full assignment reusable as a future warm seed.
                let part = part.of_interest(comp.iter().cloned());
                // Tree engines first: a persistent per-component
                // bucket tree lets a content-only delta recompute just
                // the touched cluster and its ancestors. `None` means
                // the component is too wide for the cap — fall through
                // to search (which re-plans and may seed itself from
                // the tree-guided greedy bound).
                let tree = if self.semiring.is_total() && self.config.engine != Engine::BranchBound
                {
                    if self.tree_states.len() >= TREE_STATE_CAPACITY
                        && !self.tree_states.contains_key(comp)
                    {
                        self.tree_states.clear();
                    }
                    let gen = self.domain_gen;
                    let entry = self
                        .tree_states
                        .entry(Arc::clone(comp))
                        .or_insert((gen, None));
                    if entry.0 != gen {
                        // Tables are only sound against the domains
                        // they were filled from.
                        *entry = (gen, None);
                    }
                    treedec::solve_incremental(&part, &key.parts, &mut entry.1, &self.config)?
                } else {
                    None
                };
                let solution = match tree {
                    Some((solution, reuse)) => {
                        self.stats.clusters_reused += reuse.reused;
                        self.stats.clusters_recomputed += reuse.recomputed;
                        solution
                    }
                    None if self.semiring.is_total() => {
                        let solver = BranchAndBound::with_config(self.order, self.config);
                        match self.warm_seed(comp, &comp_constraints) {
                            Some(seed) => {
                                self.stats.warm_seeds += 1;
                                solver.solve_seeded(&part, seed)?
                            }
                            None => solver.solve(&part)?,
                        }
                    }
                    None => EnumerationSolver::new().solve(&part)?,
                };
                let result = (
                    solution.blevel().clone(),
                    solution.best_assignment().cloned(),
                );
                self.cache
                    .lock()
                    .unwrap()
                    .insert(key, result.0.clone(), result.1.clone());
                result
            };
            blevel = self.semiring.times(&blevel, &comp_blevel);
            match comp_witness {
                Some(w) => witness = witness.merged(&w),
                None => complete = false,
            }
        }

        if complete && !self.semiring.is_zero(&blevel) {
            self.last_witness = Some(witness.clone());
            let best = witness
                .tuple(&self.con)
                .map(|tuple| vec![(Assignment::from_tuple(&self.con, &tuple), blevel.clone())])
                .unwrap_or_default();
            Ok(Solution::new(blevel, best, None))
        } else {
            self.last_witness = None;
            Ok(Solution::new(blevel, Vec::new(), None))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars;
    use softsoa_semiring::{Fuzzy, Unit, WeightedInt};

    fn pair_cost(a: &str, b: &str, base: u64) -> Constraint<WeightedInt> {
        Constraint::binary(WeightedInt, a, b, move |x, y| {
            base + (x.as_int().unwrap() * 2 + y.as_int().unwrap()) as u64
        })
    }

    fn churn_solver() -> (IncrementalSolver<WeightedInt>, ConstraintId, ConstraintId) {
        let mut solver = IncrementalSolver::new(WeightedInt)
            .with_domain("a", Domain::ints(0..=2))
            .with_domain("b", Domain::ints(0..=2))
            .with_domain("c", Domain::ints(0..=2))
            .with_domain("d", Domain::ints(0..=2))
            .of_interest(["a", "c"]);
        let ab = solver.add_constraint(pair_cost("a", "b", 1));
        let cd = solver.add_constraint(pair_cost("c", "d", 4));
        (solver, ab, cd)
    }

    fn assert_matches_scratch(solver: &mut IncrementalSolver<WeightedInt>) {
        let scratch = solver.problem().solve().expect("scratch solve");
        let incremental = solver.solve().expect("incremental solve");
        assert_eq!(incremental.blevel(), scratch.blevel());
        if let Some(best) = incremental.best_assignment() {
            // Witness validity: the incremental witness must attain
            // the blevel on the *full* problem.
            let p = solver.problem();
            let full = solver
                .last_witness
                .clone()
                .expect("complete witness recorded");
            let level = p.semiring().product(
                p.constraints()
                    .iter()
                    .map(|c| c.eval(&full))
                    .collect::<Vec<_>>()
                    .iter(),
            );
            assert_eq!(&level, incremental.blevel());
            assert!(best.tuple(p.con()).is_some());
        }
    }

    #[test]
    fn matches_scratch_through_delta_sequence() {
        let (mut solver, ab, cd) = churn_solver();
        assert_matches_scratch(&mut solver);
        assert_eq!(*solver.solve().unwrap().blevel(), 5);

        // Tighten the cd cluster.
        solver.update_constraint(cd, pair_cost("c", "d", 9));
        assert_matches_scratch(&mut solver);
        assert_eq!(*solver.solve().unwrap().blevel(), 10);

        // Retract it entirely: only the ab cluster (and the bare con
        // var c) remain.
        solver.retract_constraint(cd);
        assert_matches_scratch(&mut solver);
        assert_eq!(*solver.solve().unwrap().blevel(), 1);

        // Re-add and also retract ab.
        solver.add_constraint(pair_cost("c", "d", 2));
        solver.retract_constraint(ab);
        assert_matches_scratch(&mut solver);
        assert_eq!(*solver.solve().unwrap().blevel(), 2);
    }

    #[test]
    fn clean_components_are_reused() {
        let (mut solver, _ab, cd) = churn_solver();
        solver.solve().unwrap();
        let resolved_cold = solver.stats().components_resolved;
        assert_eq!(solver.stats().components_reused, 0);

        // Touch only the cd cluster; ab must replay from cache.
        solver.update_constraint(cd, pair_cost("c", "d", 7));
        solver.solve().unwrap();
        let stats = solver.stats();
        assert_eq!(stats.components_reused, 1, "ab replayed");
        assert_eq!(
            stats.components_resolved,
            resolved_cold + 1,
            "only cd re-searched"
        );
        assert!(stats.reuse_ratio() > 0.0);

        // An identical re-solve reuses everything.
        solver.solve().unwrap();
        assert_eq!(solver.stats().components_resolved, resolved_cold + 1);
    }

    #[test]
    fn tightening_update_warm_starts_from_previous_optimum() {
        let (mut solver, _ab, cd) = churn_solver();
        solver.solve().unwrap();
        assert_eq!(solver.stats().warm_seeds, 0);
        solver.update_constraint(cd, pair_cost("c", "d", 11));
        let solution = solver.solve().unwrap();
        assert_eq!(*solution.blevel(), 12);
        assert_eq!(solver.stats().warm_seeds, 1);
    }

    #[test]
    fn zero_component_yields_empty_best() {
        let mut solver = IncrementalSolver::new(Fuzzy)
            .with_domain("x", Domain::ints(0..=1))
            .of_interest(["x"]);
        let id = solver.add_constraint(Constraint::unary(Fuzzy, "x", |_| Unit::MIN));
        let solution = solver.solve().unwrap();
        assert_eq!(*solution.blevel(), Unit::MIN);
        assert!(solution.best().is_empty());

        solver.update_constraint(id, Constraint::unary(Fuzzy, "x", |_| Unit::clamped(0.8)));
        let solution = solver.solve().unwrap();
        assert_eq!(*solution.blevel(), Unit::clamped(0.8));
        assert!(solution.best_assignment().is_some());
    }

    #[test]
    fn isolated_interest_variables_form_components() {
        let mut solver = IncrementalSolver::new(WeightedInt)
            .with_domain("x", Domain::ints(0..=1))
            .with_domain("y", Domain::ints(0..=1))
            .of_interest(["x", "y"]);
        let solution = solver.solve().unwrap();
        assert_eq!(*solution.blevel(), 0u64);
        let best = solution.best_assignment().expect("free best");
        assert!(best.tuple(&vars(["x", "y"])).is_some());
    }

    #[test]
    fn domain_redeclaration_invalidates_cache() {
        let (mut solver, _ab, _cd) = churn_solver();
        solver.solve().unwrap();
        let resolved = solver.stats().components_resolved;
        solver.declare("a", Domain::ints(1..=2));
        solver.solve().unwrap();
        // Both components re-searched: the generation bump invalidates
        // everything (conservative, but sound).
        assert_eq!(solver.stats().components_resolved, resolved + 2);
        assert_eq!(*solver.solve().unwrap().blevel(), 7);
    }

    #[test]
    fn cache_stays_bounded_under_churn() {
        let (mut solver, _ab, cd) = churn_solver();
        solver.cache.lock().unwrap().capacity = 4;
        for round in 0..64u64 {
            solver.update_constraint(cd, pair_cost("c", "d", round));
            solver.solve().unwrap();
        }
        assert!(solver.cache.lock().unwrap().entries.len() <= 4);
    }

    #[test]
    fn diverging_clone_updates_never_alias_the_shared_cache() {
        // Regression: versions used to be per-slot counters, so two
        // clones that updated the same id with different constraints
        // both reached version 1 — identical ComponentKeys — and the
        // second clone replayed the first clone's cached result.
        // Version stamps now come from the shared allocator.
        let (solver, _ab, cd) = churn_solver();
        let mut left = solver.clone();
        let mut right = solver;
        left.update_constraint(cd, pair_cost("c", "d", 20));
        right.update_constraint(cd, pair_cost("c", "d", 40));
        assert_eq!(*left.solve().unwrap().blevel(), 21);
        assert_eq!(*right.solve().unwrap().blevel(), 41);
        assert_matches_scratch(&mut left);
        assert_matches_scratch(&mut right);
    }

    #[test]
    fn diverging_clone_redeclarations_never_alias_the_shared_cache() {
        // Same regression for domain generations: one re-declare used
        // to put every clone at generation 1 regardless of content.
        let (solver, _ab, _cd) = churn_solver();
        let mut left = solver.clone();
        let mut right = solver;
        left.declare("a", Domain::ints(1..=2));
        right.declare("a", Domain::ints(2..=2));
        assert_eq!(*left.solve().unwrap().blevel(), 7);
        assert_eq!(*right.solve().unwrap().blevel(), 9);
        assert_matches_scratch(&mut left);
        assert_matches_scratch(&mut right);
    }

    #[test]
    fn tree_engine_matches_search_and_reuses_clusters() {
        let mut solver = IncrementalSolver::new(WeightedInt).with_config(
            VarOrder::Input,
            SolverConfig::default().with_tree_decompose(8),
        );
        for i in 0..6 {
            solver.declare(format!("v{i}"), Domain::ints(0..=2));
        }
        solver = solver.of_interest((0..6).map(|i| format!("v{i}")));
        let mut ids = Vec::new();
        for i in 0..5 {
            ids.push(solver.add_constraint(pair_cost(&format!("v{i}"), &format!("v{}", i + 1), i)));
        }
        assert_matches_scratch(&mut solver);
        let cold = solver.stats().clusters_recomputed;
        assert_eq!(cold, 6, "one bucket per variable, all computed cold");

        // Content-only delta in the middle of the chain: only the
        // touched bucket and its ancestor path recompute.
        solver.update_constraint(ids[2], pair_cost("v2", "v3", 50));
        assert_matches_scratch(&mut solver);
        let stats = solver.stats();
        assert!(stats.clusters_reused > 0, "leaf clusters replayed");
        assert!(stats.clusters_recomputed < cold + 6, "not a full rebuild");

        // A clone starts with cold tree state but stays equivalent.
        let mut clone = solver.clone();
        clone.update_constraint(ids[0], pair_cost("v0", "v1", 9));
        assert_matches_scratch(&mut clone);
    }

    #[test]
    fn clones_share_ids_and_cache() {
        let (solver, _ab, _cd) = churn_solver();
        let mut left = solver.clone();
        let mut right = solver;
        left.solve().unwrap();
        // The clone's identical components replay from the shared
        // cache without any search of its own.
        right.solve().unwrap();
        assert_eq!(right.stats().components_resolved, 0);
        assert_eq!(right.stats().components_reused, 2);
        // Ids allocated after the split never collide.
        let l = left.add_constraint(Constraint::constant(WeightedInt, 1));
        let r = right.add_constraint(Constraint::constant(WeightedInt, 2));
        assert_ne!(l, r);
    }
}
