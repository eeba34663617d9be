//! Instrumentation counters threaded through [`Solution`](crate::solve::Solution).

use std::fmt;
use std::time::Duration;

use softsoa_telemetry::Telemetry;

use crate::solve::propagate::PropagationStats;

/// Per-operand evaluation counters collected by the compiled engine.
///
/// One entry per `⊗`-operand of the compiled problem (combine DAGs are
/// flattened first, so an operand is always a leaf constraint).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConstraintEvalStats {
    /// The operand's label, or `c{i}` when unlabeled.
    pub label: String,
    /// How many times the operand was evaluated during the search.
    ///
    /// Dense operands count slice lookups; lazy operands count calls
    /// into the underlying constraint.
    pub evals: u64,
    /// Number of cells in the operand's dense table (`0` when the
    /// operand stayed lazy because its table would exceed
    /// [`DENSE_TABLE_LIMIT`](crate::compile::DENSE_TABLE_LIMIT)).
    pub dense_cells: usize,
    /// Time spent materialising the dense table at compile time.
    pub materialize_time: Duration,
}

/// Counters from a bucket-tree elimination run
/// ([`treedec`](crate::solve::treedec)), attached to
/// [`SolverStats::tree`] whenever the configured
/// [`Engine`](crate::solve::Engine) considered the tree path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Buckets in the tree (one per problem variable).
    pub clusters: usize,
    /// Induced width of the chosen elimination order — the exponent in
    /// the `O(n · d^(w+1))` tree-solve cost.
    pub induced_width: usize,
    /// Largest separator along the order (equals the induced width for
    /// bucket trees; kept separately for display symmetry).
    pub max_separator: usize,
    /// Which ordering heuristic won: `"min-fill"` or `"min-degree"`.
    pub heuristic: &'static str,
    /// Total cluster-table cells enumerated (`0` on the fallback path,
    /// where no tables were materialised).
    pub table_cells: u64,
    /// Child context-cache reads beyond each entry's first use — the
    /// work the AND/OR context caching avoided re-solving.
    pub context_hits: u64,
    /// `true` when the width cap or memory guard pushed the solve back
    /// to branch-and-bound.
    pub fallback: bool,
}

/// Counters describing one solver run.
///
/// Attached to [`Solution`](crate::solve::Solution) by every solver;
/// the compiled engine additionally fills the per-operand
/// [`constraint_evals`](SolverStats::constraint_evals).
#[derive(Debug, Clone, Default)]
pub struct SolverStats {
    /// Search-tree nodes visited (for enumeration: prefixes explored).
    pub nodes: u64,
    /// Subtrees pruned (bound, domination or zero-absorption cuts).
    pub prunings: u64,
    /// Worker threads used: the most chunks any
    /// [`fan_out`](crate::solve::parallel::fan_out) of the solve ran
    /// (`1` when everything ran inline).
    pub threads: usize,
    /// Search-tree nodes visited per worker chunk, in chunk order
    /// (empty for sequential paths). Exposes partition balance.
    pub thread_nodes: Vec<u64>,
    /// Time spent compiling the problem (flattening, embeddings, dense
    /// tables); zero for the lazy oracle.
    pub compile_time: Duration,
    /// Wall-clock time of the whole solve, compilation included.
    pub solve_time: Duration,
    /// Per-operand evaluation counters (compiled paths only).
    pub constraint_evals: Vec<ConstraintEvalStats>,
    /// Soft arc-consistency counters, when the run propagated
    /// ([`SolverConfig::propagate`](crate::solve::SolverConfig::propagate)
    /// not `Off`, or [`VarOrder::Estimate`](crate::solve::VarOrder)).
    pub propagation: Option<PropagationStats>,
    /// Connected components solved independently; `0` when the run
    /// did not decompose (single component or
    /// [`SolverConfig::decompose`](crate::solve::SolverConfig::decompose)
    /// off).
    pub components: usize,
    /// Bucket-tree counters, when the run used (or fell back from) the
    /// tree engine ([`SolverConfig::engine`](crate::solve::SolverConfig::engine)
    /// not `BranchBound`).
    pub tree: Option<TreeStats>,
}

impl SolverStats {
    /// Emits the run's counters through `telemetry`, tagged with the
    /// solver's name.
    ///
    /// Deterministic families (safe for [`Snapshot::to_json`]
    /// comparison across fixed-seed runs): `solve.runs`,
    /// `solve.nodes`, `solve.prunings`, the per-operand
    /// `solve.constraint_evals{..}` counters, the `solve.threads`
    /// gauge, and the `solve.thread_nodes` balance observations. The
    /// compile/search time split is recorded as timings, which the
    /// JSON snapshot excludes.
    ///
    /// [`Snapshot::to_json`]: softsoa_telemetry::Snapshot::to_json
    pub fn emit(&self, telemetry: &Telemetry, solver: &str) {
        if !telemetry.enabled() {
            return;
        }
        telemetry.incr("solve.runs");
        telemetry.count_labeled("solve.runs", solver, 1);
        telemetry.count("solve.nodes", self.nodes);
        telemetry.count("solve.prunings", self.prunings);
        telemetry.gauge("solve.threads", self.threads as i64);
        for &nodes in &self.thread_nodes {
            telemetry.observe("solve.thread_nodes", nodes);
        }
        for c in &self.constraint_evals {
            telemetry.count_labeled("solve.constraint_evals", &c.label, c.evals);
        }
        if self.components > 1 {
            telemetry.gauge("solver.components", self.components as i64);
        }
        if let Some(p) = &self.propagation {
            telemetry.count("solver.propagation.revisions", p.revisions);
            telemetry.count("solver.propagation.root_prunes", p.root_prunes);
            telemetry.count("solver.propagation.wipeouts", p.wipeouts);
            for c in &p.per_constraint {
                telemetry.count_labeled("solver.propagation.revisions", &c.label, c.revisions);
                telemetry.count_labeled("solver.propagation.prunes", &c.label, c.prunes);
            }
            telemetry.timing("solver.propagation.time", p.time);
        }
        if let Some(t) = &self.tree {
            telemetry.gauge("solver.tree.clusters", t.clusters as i64);
            telemetry.gauge("solver.tree.width", t.induced_width as i64);
            telemetry.count("solver.tree.cells", t.table_cells);
            telemetry.count("solver.tree.context_hits", t.context_hits);
            if t.fallback {
                telemetry.incr("solver.tree.fallbacks");
            }
        }
        telemetry.timing("solve.compile_time", self.compile_time);
        telemetry.timing(
            "solve.search_time",
            self.solve_time.saturating_sub(self.compile_time),
        );
        telemetry.timing("solve.solve_time", self.solve_time);
    }
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nodes: {}, prunings: {}, threads: {}, compile: {:?}, solve: {:?}",
            self.nodes, self.prunings, self.threads, self.compile_time, self.solve_time
        )?;
        if self.components > 1 {
            write!(f, "\n  components: {}", self.components)?;
        }
        if let Some(t) = &self.tree {
            write!(
                f,
                "\n  tree: {} clusters, width {} ({}), {} cells, {} context hits{}",
                t.clusters,
                t.induced_width,
                t.heuristic,
                t.table_cells,
                t.context_hits,
                if t.fallback {
                    ", fell back to search"
                } else {
                    ""
                }
            )?;
        }
        if let Some(p) = &self.propagation {
            write!(
                f,
                "\n  propagation: {} revisions, {} root prunes, {} wipeouts, {:?}",
                p.revisions, p.root_prunes, p.wipeouts, p.time
            )?;
            for c in &p.per_constraint {
                write!(
                    f,
                    "\n    {}: {} revisions, {} prunes",
                    c.label, c.revisions, c.prunes
                )?;
            }
        }
        for c in &self.constraint_evals {
            write!(f, "\n  {}: {} evals", c.label, c.evals)?;
            if c.dense_cells > 0 {
                write!(f, " (dense, {} cells)", c.dense_cells)?;
            } else {
                write!(f, " (lazy)")?;
            }
        }
        Ok(())
    }
}
