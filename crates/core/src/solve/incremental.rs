//! A from-scratch re-solve behind the old incremental-solver API.
//!
//! Every [`solve`](IncrementalSolver::solve) solves the whole SCSP
//! anew, as the broker and the nmsccp store do: the component cache
//! this type once kept lost to the plain re-solve on both (E23, E24).
//! It stays only because the benchmark crate's traced replay still
//! names it, and it goes with ROADMAP item 6.

use softsoa_semiring::Semiring;

use crate::solve::{
    BranchAndBound, EnumerationSolver, Solution, SolveError, Solver, SolverConfig, VarOrder,
};
use crate::{Constraint, Domain, Scsp, Var};

/// A handle to a constraint added to an [`IncrementalSolver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConstraintId(usize);

/// An SCSP whose constraints are replaced in place.
#[derive(Debug, Clone)]
pub struct IncrementalSolver<S: Semiring> {
    /// Semiring, domains and `con`; the constraints live beside it.
    problem: Scsp<S>,
    constraints: Vec<Constraint<S>>,
    engine: (VarOrder, SolverConfig),
}

impl<S: Semiring> IncrementalSolver<S> {
    /// An empty problem, solved in input order with the default config.
    pub fn new(semiring: S) -> IncrementalSolver<S> {
        let (problem, constraints) = (Scsp::new(semiring), Vec::new());
        IncrementalSolver {
            problem,
            constraints,
            engine: Default::default(),
        }
    }

    /// Declares a variable's domain (builder style).
    pub fn with_domain(mut self, var: impl Into<Var>, domain: Domain) -> IncrementalSolver<S> {
        self.problem.add_domain(var, domain);
        self
    }

    /// Sets the variables of interest, as [`Scsp::of_interest`] does.
    pub fn of_interest<V: Into<Var>>(mut self, vars: impl IntoIterator<Item = V>) -> Self {
        self.problem = self.problem.of_interest(vars);
        self
    }

    /// The branch-and-bound order and configuration of every solve.
    pub fn with_config(mut self, order: VarOrder, config: SolverConfig) -> IncrementalSolver<S> {
        self.engine = (order, config);
        self
    }

    /// Adds a constraint, returning its handle.
    pub fn add_constraint(&mut self, constraint: Constraint<S>) -> ConstraintId {
        self.constraints.push(constraint);
        ConstraintId(self.constraints.len() - 1)
    }

    /// Replaces the constraint behind `id`, returning the previous one;
    /// `None`, and no change, for a handle this solver did not issue.
    pub fn update_constraint(
        &mut self,
        id: ConstraintId,
        c: Constraint<S>,
    ) -> Option<Constraint<S>> {
        Some(std::mem::replace(self.constraints.get_mut(id.0)?, c))
    }

    /// Branch-and-bound on a totally ordered semiring, the enumeration
    /// oracle otherwise.
    ///
    /// # Errors
    ///
    /// [`SolveError::MissingDomain`] for a variable without a domain.
    pub fn solve(&self) -> Result<Solution<S>, SolveError> {
        let mut problem = self.problem.clone();
        for c in &self.constraints {
            problem.add_constraint(c.clone());
        }
        if problem.semiring().is_total() {
            BranchAndBound::with_config(self.engine.0, self.engine.1).solve(&problem)
        } else {
            EnumerationSolver::new().solve(&problem)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::*;

    const ORDER: VarOrder = VarOrder::MostConstrained;

    /// Loads `old`'s constraints, then replaces them one by one with
    /// `new`'s: after `add_constraint` and after every
    /// `update_constraint`, the facade must report `reference`'s
    /// `blevel` and `best()` on the same SCSP.
    fn matches<S: Semiring>(
        draw: fn(&RandomScsp) -> Scsp<S>,
        reference: fn(&Scsp<S>) -> Solution<S>,
        close: fn(&S::Value, &S::Value) -> bool,
    ) {
        let cfg = |constraints, seed| RandomScsp {
            vars: 4,
            domain_size: 3,
            constraints,
            arity: 2,
            seed,
        };
        let (empty, old, new) = (
            draw(&cfg(0, 0)).of_interest(["x0", "x2"]),
            draw(&cfg(4, 3)),
            draw(&cfg(4, 4)),
        );
        let mut solver = IncrementalSolver::new(empty.semiring().clone());
        for (v, d) in empty.domains().iter() {
            solver = solver.with_domain(v.clone(), d.clone());
        }
        let mut solver = solver
            .of_interest(["x2", "x0"])
            .with_config(ORDER, SolverConfig::default());
        let ids: Vec<_> = old
            .constraints()
            .iter()
            .map(|c| solver.add_constraint(c.clone()))
            .collect();
        for k in 0..=ids.len() {
            if k > 0 {
                assert!(solver
                    .update_constraint(ids[k - 1], new.constraints()[k - 1].clone())
                    .is_some());
            }
            let now = new.constraints()[..k].iter().chain(&old.constraints()[k..]);
            let (got, want) = (
                solver.solve().unwrap(),
                reference(&now.cloned().fold(empty.clone(), Scsp::with_constraint)),
            );
            assert!(close(got.blevel(), want.blevel()) && got.best().len() == want.best().len());
            for ((a, x), (b, y)) in got.best().iter().zip(want.best()) {
                assert!(a == b && close(x, y), "after {k} updates: {a:?} vs {b:?}");
            }
        }
        let before = solver.solve().unwrap().best().to_vec();
        assert!(solver
            .update_constraint(ConstraintId(ids.len()), old.constraints()[0].clone())
            .is_none());
        assert_eq!(solver.solve().unwrap().best(), before);
    }

    fn bnb<S: Semiring>(p: &Scsp<S>) -> Solution<S> {
        BranchAndBound::with_config(ORDER, SolverConfig::default())
            .solve(p)
            .unwrap()
    }

    #[test]
    fn facade_matches_a_from_scratch_solve_after_every_update() {
        matches(random_weighted, bnb, |a, b| a == b);
        matches(random_fuzzy, bnb, |a, b| a == b);
        matches(random_probabilistic, bnb, |a, b| {
            (a.get() - b.get()).abs() < 1e-9
        });
        matches(
            random_product,
            |p| EnumerationSolver::new().solve(p).unwrap(),
            |a, b| a == b,
        );
    }
}
