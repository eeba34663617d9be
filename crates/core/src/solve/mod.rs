//! SCSP solvers.
//!
//! Every solver computes the semantics of Sec. 2 and is property-tested
//! against one oracle, [`EnumerationSolver::new`]: the lazy, sequential
//! evaluation of `Sol(P) = (⊗C) ⇓ con`. Each solver runs one compiled
//! engine (flattened `⊗`-operands, dense tables, index-tuple search)
//! steered by a [`SolverConfig`]:
//!
//! - [`EnumerationSolver`] — exhaustive enumeration: combine all
//!   constraints and project on `con`. [`EnumerationSolver::new`] is
//!   the lazy oracle, [`EnumerationSolver::with_config`] the compiled
//!   engine.
//! - [`BranchAndBound`] — depth-first search with `×`-monotonicity
//!   pruning; finds a best assignment and `blevel` for *totally
//!   ordered* semirings without building the solution table. The
//!   incumbent is its only bound (a width-cap fallback of
//!   [`Engine::TreeDecompose`] seeds it with the tree's greedy level);
//!   where the width fits, [`Engine::Auto`] beats every search knob
//!   (EXPERIMENTS.md, E34).
//! - [`BucketElimination`] — variable elimination computing `Sol(P)` on
//!   the [`treedec`] bucket tree with `con` kept as its final cluster;
//!   cost is exponential only in the induced width of the elimination
//!   order, not in the total number of variables.
//! - [`ParetoBranchAndBound`] — frontier-bounded search for *partially
//!   ordered* semirings (multi-criteria Pareto optimisation).
//! - [`IncrementalSolver`] — a facade that re-solves from scratch after
//!   each constraint update; kept only for the benchmark crate.
//! - [`treedec`] — the one elimination engine: bucket-tree elimination
//!   with AND/OR context caching and witness reconstruction, selected
//!   per component via [`SolverConfig::engine`] and serving
//!   [`BucketElimination`]'s `Sol(P)` tables; polynomial in the induced
//!   width on bounded-treewidth problems.
//!
//! Local consistency is one pass: [`BranchAndBound`]'s root soft
//! arc-consistency fixpoint ([`SolverConfig::propagate`]), which
//! removes every value without support before the search.

mod branch_bound;
mod bucket;
mod config;
mod decompose;
mod enumeration;
mod incremental;
pub mod parallel;
mod pareto;
mod propagate;
mod stats;
pub mod treedec;

pub use branch_bound::{BranchAndBound, VarOrder};
pub use bucket::BucketElimination;
pub use config::{Engine, Parallelism, PropagationMode, SolverConfig, DEFAULT_WIDTH_CAP};
pub use decompose::constraint_components;
pub use enumeration::EnumerationSolver;
pub use incremental::{ConstraintId, IncrementalSolver};
pub use pareto::ParetoBranchAndBound;
pub use propagate::{PerConstraintStats, PropagationStats};
pub use stats::{ConstraintEvalStats, SolverStats, TreeStats};
pub use treedec::{plan_elimination, EliminationPlan, TreeHeuristic};

use std::fmt;

use softsoa_semiring::Semiring;

use crate::{Assignment, Constraint, MissingDomainError, Scsp, Val, Var};

/// An error produced while solving an SCSP.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveError {
    /// A problem variable has no declared domain.
    MissingDomain(MissingDomainError),
    /// The chosen algorithm requires a totally ordered semiring.
    RequiresTotalOrder,
    /// A branch-and-bound run expanded more nodes than the configured
    /// diagnostic [`node_budget`](SolverConfig::node_budget).
    NodeBudgetExceeded {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// A solver that materialises the `con` table was asked for one
    /// with more cells than `usize` can count. Branch-and-bound and
    /// Pareto search never build that table and still solve such
    /// problems.
    TableTooLarge,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::MissingDomain(e) => write!(f, "{e}"),
            SolveError::RequiresTotalOrder => {
                write!(f, "this solver requires a totally ordered semiring")
            }
            SolveError::NodeBudgetExceeded { budget } => {
                write!(f, "branch-and-bound exceeded its node budget of {budget}")
            }
            SolveError::TableTooLarge => {
                write!(
                    f,
                    "the solution table over `con` has too many cells to build"
                )
            }
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::MissingDomain(e) => Some(e),
            SolveError::RequiresTotalOrder
            | SolveError::NodeBudgetExceeded { .. }
            | SolveError::TableTooLarge => None,
        }
    }
}

impl From<MissingDomainError> for SolveError {
    fn from(e: MissingDomainError) -> SolveError {
        SolveError::MissingDomain(e)
    }
}

/// The result of solving an SCSP.
///
/// Always carries the best level of consistency `blevel(P)` and the set
/// of *maximal* solutions over `con` (for totally ordered semirings:
/// the assignments achieving `blevel`; for partial orders: the
/// non-dominated frontier). Solvers that materialise `Sol(P)` also
/// expose it as a constraint table.
#[derive(Debug, Clone)]
pub struct Solution<S: Semiring> {
    blevel: S::Value,
    best: Vec<(Assignment, S::Value)>,
    table: Option<Constraint<S>>,
    stats: Option<SolverStats>,
}

impl<S: Semiring> Solution<S> {
    pub(crate) fn new(
        blevel: S::Value,
        best: Vec<(Assignment, S::Value)>,
        table: Option<Constraint<S>>,
    ) -> Solution<S> {
        Solution {
            blevel,
            best,
            table,
            stats: None,
        }
    }

    pub(crate) fn with_stats(mut self, stats: SolverStats) -> Solution<S> {
        self.stats = Some(stats);
        self
    }

    /// The best level of consistency `blevel(P) = Sol(P) ⇓ ∅`.
    pub fn blevel(&self) -> &S::Value {
        &self.blevel
    }

    /// The maximal solutions: assignments over `con` whose level is not
    /// dominated by any other, with their levels.
    pub fn best(&self) -> &[(Assignment, S::Value)] {
        &self.best
    }

    /// A single best assignment, if any solution is better than `0`.
    pub fn best_assignment(&self) -> Option<&Assignment> {
        self.best.first().map(|(eta, _)| eta)
    }

    /// The solution constraint `Sol(P) = (⊗C) ⇓ con`, if the solver
    /// materialised it ([`BranchAndBound`] does not).
    pub fn solution_constraint(&self) -> Option<&Constraint<S>> {
        self.table.as_ref()
    }

    /// Instrumentation counters from the solver run, if it recorded
    /// them (all solvers in this module do).
    pub fn stats(&self) -> Option<&SolverStats> {
        self.stats.as_ref()
    }
}

/// A strategy for solving SCSPs.
pub trait Solver<S: Semiring> {
    /// Solves the problem.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::MissingDomain`] if a problem variable has
    /// no domain, or algorithm-specific errors such as
    /// [`SolveError::RequiresTotalOrder`].
    fn solve(&self, problem: &Scsp<S>) -> Result<Solution<S>, SolveError>;
}

/// Extracts the non-dominated `(tuple, value)` entries.
///
/// For totally ordered semirings this is "all entries achieving the
/// maximum"; for partial orders, the Pareto frontier. Entries keep
/// their input order.
pub fn non_dominated<S: Semiring>(
    semiring: &S,
    entries: &[(Vec<Val>, S::Value)],
) -> Vec<(Vec<Val>, S::Value)> {
    if entries.is_empty() {
        return Vec::new();
    }
    if semiring.is_total() {
        let max = entries
            .iter()
            .fold(semiring.zero(), |acc, (_, v)| semiring.plus(&acc, v));
        entries.iter().filter(|(_, v)| *v == max).cloned().collect()
    } else {
        entries
            .iter()
            .filter(|(_, v)| !entries.iter().any(|(_, w)| semiring.lt(v, w)))
            .cloned()
            .collect()
    }
}

/// Turns non-dominated tuples over `con` into `(Assignment, value)`
/// pairs, dropping entries at level `0` (they satisfy nothing).
pub(crate) fn best_from_entries<S: Semiring>(
    semiring: &S,
    con: &[Var],
    entries: &[(Vec<Val>, S::Value)],
) -> Vec<(Assignment, S::Value)> {
    non_dominated(semiring, entries)
        .into_iter()
        .filter(|(_, v)| !semiring.is_zero(v))
        .map(|(tuple, v)| (Assignment::from_tuple(con, &tuple), v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsoa_semiring::{Boolean, Product, WeightedInt};

    #[test]
    fn non_dominated_total_order() {
        let entries = vec![
            (vec![Val::Int(0)], 7u64),
            (vec![Val::Int(1)], 16),
            (vec![Val::Int(2)], 7),
        ];
        let best = non_dominated(&WeightedInt, &entries);
        // Weighted: smaller is better, so both 7s are maximal.
        assert_eq!(best.len(), 2);
        assert!(best.iter().all(|(_, v)| *v == 7));
    }

    #[test]
    fn non_dominated_partial_order_keeps_frontier() {
        let s = Product::new(Boolean, WeightedInt);
        let entries = vec![
            (vec![Val::Int(0)], (true, 5u64)),
            (vec![Val::Int(1)], (false, 1)),
            (vec![Val::Int(2)], (false, 9)), // dominated by both others? (false,9) vs (true,5): 9≥5 and false≤true → dominated
        ];
        let best = non_dominated(&s, &entries);
        assert_eq!(best.len(), 2);
        assert!(best.iter().any(|(_, v)| *v == (true, 5)));
        assert!(best.iter().any(|(_, v)| *v == (false, 1)));
    }

    #[test]
    fn best_from_entries_drops_zero() {
        let entries = vec![(vec![Val::Int(0)], u64::MAX)];
        let best = best_from_entries(&WeightedInt, &crate::vars(["x"]), &entries);
        assert!(best.is_empty());
    }
}
