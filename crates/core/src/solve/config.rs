//! Solver execution knobs: parallelism, propagation, decomposition
//! and the per-component engine.

/// How much soft arc-consistency propagation
/// [`BranchAndBound`](crate::solve::BranchAndBound) runs.
///
/// Propagation maintains, per (operand, variable) revision pair, the
/// best level any extension of each domain value can reach through
/// that operand, and prunes values whose combined upper bound is `0`
/// or strictly below a level already known achievable. Both prune
/// rules preserve the exact `blevel` and the blind engine's witness
/// (property-tested in `propagation_properties`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PropagationMode {
    /// No propagation: the blind search of earlier revisions.
    Off,
    /// One fixpoint pass before the search; the surviving domain
    /// values become the search space. Near-free and never slower
    /// than blind on anything but trivial problems, so it is the
    /// default.
    #[default]
    Root,
}

/// Which exact engine the [`BranchAndBound`](crate::solve::BranchAndBound)
/// entry point runs after the connected-component split.
///
/// Every choice computes the identical `blevel` with a valid witness
/// (property-tested in `treedec_properties`); they differ in *cost
/// shape*. Branch-and-bound is exponential in the number of variables
/// but needs no tables; bucket-tree elimination
/// ([`treedec`](crate::solve::treedec)) is `O(n · d^(w+1))` in the
/// induced width `w` of the elimination order, which turns banded /
/// bounded-treewidth problems from exponential into polynomial at the
/// price of materialising separator tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// Always depth-first branch-and-bound (the pre-tree behaviour and
    /// the default: its witness is the documented first-witness one).
    #[default]
    BranchBound,
    /// Plan an elimination order per component; tree-solve when the
    /// measured induced width fits
    /// [`width_cap`](SolverConfig::width_cap) (and the table-memory
    /// guard), branch-and-bound otherwise.
    Auto,
    /// Always attempt the tree solve. When the cap or the memory guard
    /// is exceeded the engine falls back to branch-and-bound seeded by
    /// the tree-guided greedy bound (see
    /// [`treedec`](crate::solve::treedec)).
    TreeDecompose,
}

/// How many worker threads a solver may use. The policy is resolved
/// against the work in one place,
/// [`fan_out`](crate::solve::parallel::fan_out), which reports the
/// thread count it used as [`SolverStats::threads`](crate::solve::SolverStats::threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// One thread, no work splitting.
    Sequential,
    /// Up to [`std::thread::available_parallelism`] threads, but only
    /// as many as give each at least
    /// [`MIN_CELLS_PER_THREAD`](crate::solve::treedec::MIN_CELLS_PER_THREAD)
    /// cells of work: small solves run inline on the caller's thread.
    #[default]
    Auto,
    /// Use exactly `n` threads (clamped to at least one and to the
    /// amount of splittable work), however small the work.
    Threads(usize),
}

/// Configuration shared by every solver in this module.
///
/// Every solver runs one compiled engine (flattened `⊗`-DAGs,
/// precomputed scope embeddings, dense operand tables); the default
/// configuration adds an automatic thread count, root propagation and
/// component decomposition. The configuration does not reach
/// [`EnumerationSolver::new`](crate::solve::EnumerationSolver::new):
/// that constructor is the lazy sequential oracle, the literal
/// reference semantics every engine is tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Worker-thread policy.
    pub parallelism: Parallelism,
    /// Soft arc-consistency level for
    /// [`BranchAndBound`](crate::solve::BranchAndBound); the other
    /// solvers ignore it.
    pub propagate: PropagationMode,
    /// Whether [`BranchAndBound`](crate::solve::BranchAndBound)
    /// splits the constraint graph into its connected components and
    /// solves them independently (in parallel under the
    /// [`parallelism`](SolverConfig::parallelism) policy), combining
    /// the per-component results with the semiring product. Exact for
    /// `blevel` on every semiring; the merged witness is always valid
    /// and coincides with the blind witness on strictly monotone `×`
    /// (weighted, probabilistic).
    pub decompose: bool,
    /// Which exact engine runs per component (see [`Engine`]).
    pub engine: Engine,
    /// Induced-width cap for the tree engine: a component whose
    /// planned elimination order has induced width above this (or
    /// whose largest cluster table would exceed the memory guard)
    /// is solved by branch-and-bound instead. Ignored under
    /// [`Engine::BranchBound`].
    pub width_cap: usize,
    /// Diagnostic search budget: a branch-and-bound run that expands
    /// more nodes than this aborts with
    /// [`SolveError::NodeBudgetExceeded`](crate::solve::SolveError::NodeBudgetExceeded)
    /// instead of running to completion. `None` (the default) never
    /// aborts. The budget is checked per worker, so a parallel run may
    /// expand up to `threads × budget` nodes before every worker
    /// stops; tree solves do not consume it (their cost is the table
    /// volume, bounded by the width cap and the memory guard).
    pub node_budget: Option<u64>,
}

/// Default induced-width cap: `d^(w+1)` cluster tables stay small for
/// the domain sizes this workspace's workloads use (`4^9 ≈ 262k`
/// cells), while anything wider is usually faster to search.
pub const DEFAULT_WIDTH_CAP: usize = 8;

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            parallelism: Parallelism::Auto,
            propagate: PropagationMode::Root,
            decompose: true,
            engine: Engine::BranchBound,
            width_cap: DEFAULT_WIDTH_CAP,
            node_budget: None,
        }
    }
}

impl SolverConfig {
    /// Sets the parallelism policy (builder style).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> SolverConfig {
        self.parallelism = parallelism;
        self
    }

    /// Sets the propagation level (builder style).
    pub fn with_propagation(mut self, propagate: PropagationMode) -> SolverConfig {
        self.propagate = propagate;
        self
    }

    /// Enables or disables connected-component decomposition (builder
    /// style).
    pub fn with_decompose(mut self, decompose: bool) -> SolverConfig {
        self.decompose = decompose;
        self
    }

    /// Selects the per-component engine (builder style).
    pub fn with_engine(mut self, engine: Engine) -> SolverConfig {
        self.engine = engine;
        self
    }

    /// Switches to the bucket-tree elimination engine with the given
    /// induced-width cap (builder style). Components whose planned
    /// width exceeds the cap fall back to branch-and-bound seeded by
    /// the tree-guided greedy bound.
    pub fn with_tree_decompose(mut self, width_cap: usize) -> SolverConfig {
        self.engine = Engine::TreeDecompose;
        self.width_cap = width_cap.max(1);
        self
    }

    /// Sets the induced-width cap without changing the engine
    /// selection (builder style).
    pub fn with_width_cap(mut self, width_cap: usize) -> SolverConfig {
        self.width_cap = width_cap.max(1);
        self
    }

    /// Sets the diagnostic branch-and-bound node budget (builder
    /// style). `None` never aborts.
    pub fn with_node_budget(mut self, node_budget: Option<u64>) -> SolverConfig {
        self.node_budget = node_budget;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_propagates_and_decomposes() {
        let cfg = SolverConfig::default();
        assert_eq!(cfg.propagate, PropagationMode::Root);
        assert!(cfg.decompose);
        let off = cfg
            .with_propagation(PropagationMode::Off)
            .with_decompose(false);
        assert_eq!(off.propagate, PropagationMode::Off);
        assert!(!off.decompose);
    }
}
