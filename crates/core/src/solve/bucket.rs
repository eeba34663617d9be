//! Bucket (variable) elimination: `Sol(P)` from the bucket tree.

use softsoa_semiring::Semiring;

use crate::solve::treedec::solve_con;
use crate::solve::{Solution, SolveError, Solver, SolverConfig};
use crate::Scsp;

/// A variable-elimination solver.
///
/// Eliminates each variable outside `con` on the bucket tree of
/// [`treedec`](crate::solve::treedec) (min-fill or min-degree
/// order, whichever is narrower) and keeps `con` as one final cluster
/// whose table is `Sol(P)`. The cost is exponential in the *induced
/// width* of the elimination order rather than in the total number of
/// variables, so chains and trees of constraints solve in time linear
/// in the number of variables — the regime where this solver dominates
/// [`EnumerationSolver`](crate::solve::EnumerationSolver) (bench
/// `solver_comparison`).
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
    config: SolverConfig,
}

impl BucketElimination {
    /// Creates the solver with the default engine (automatic thread
    /// count).
    pub fn new() -> BucketElimination {
        BucketElimination::default()
    }

    /// Creates the solver with an explicit engine configuration. Only
    /// its parallelism applies: the bucket tables of one wave, and the
    /// `con` table's tuple ranges, are split across worker threads.
    pub fn with_config(config: SolverConfig) -> BucketElimination {
        BucketElimination { config }
    }
}

impl<S: Semiring> Solver<S> for BucketElimination {
    /// # Errors
    ///
    /// [`SolveError::TableTooLarge`] when a bucket's or the final
    /// `con` table has more cells than `usize` counts.
    fn solve(&self, problem: &Scsp<S>) -> Result<Solution<S>, SolveError> {
        solve_con(problem, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::EnumerationSolver;
    use crate::testutil::fig1_problem;
    use crate::{Assignment, Constraint, Domain, Val, Var};
    use softsoa_semiring::{Boolean, Product, WeightedInt};

    #[test]
    fn agrees_with_enumeration_on_fig1() {
        let p = fig1_problem();
        let reference = EnumerationSolver::new().solve(&p).unwrap();
        let be = BucketElimination::new().solve(&p).unwrap();
        assert_eq!(be.blevel(), reference.blevel());
        let t1 = be.solution_constraint().unwrap();
        let t2 = reference.solution_constraint().unwrap();
        assert!(t1.equivalent(t2, p.domains()).unwrap());
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
