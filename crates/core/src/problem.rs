//! Soft Constraint Satisfaction Problems (SCSPs).

use std::fmt;

use softsoa_semiring::Semiring;

use crate::solve::{EnumerationSolver, Solution, SolveError, Solver};
use crate::{Constraint, Domain, Domains, Var};

/// A Soft Constraint Satisfaction Problem `P = ⟨C, con⟩` (Sec. 2).
///
/// `C` is a set of soft constraints over declared finite domains and
/// `con ⊆ V` is the set of *variables of interest*: the solution
/// `Sol(P) = (⊗C) ⇓ con` is a constraint over exactly those variables,
/// and the *best level of consistency* is `blevel(P) = Sol(P) ⇓ ∅`.
///
/// # Examples
///
/// The weighted problem of Fig. 1:
///
/// ```
/// use softsoa_core::{Scsp, Constraint, Domain, Val, Var};
/// use softsoa_semiring::WeightedInt;
///
/// let x = Var::new("x");
/// let y = Var::new("y");
/// let p = Scsp::new(WeightedInt)
///     .with_domain(x.clone(), Domain::syms(["a", "b"]))
///     .with_domain(y.clone(), Domain::syms(["a", "b"]))
///     .with_constraint(Constraint::table(
///         WeightedInt, &[x.clone()],
///         [(vec![Val::sym("a")], 1), (vec![Val::sym("b")], 9)], u64::MAX))
///     .with_constraint(Constraint::table(
///         WeightedInt, &[x.clone(), y.clone()],
///         [
///             (vec![Val::sym("a"), Val::sym("a")], 5),
///             (vec![Val::sym("a"), Val::sym("b")], 1),
///             (vec![Val::sym("b"), Val::sym("a")], 2),
///             (vec![Val::sym("b"), Val::sym("b")], 2),
///         ], u64::MAX))
///     .with_constraint(Constraint::table(
///         WeightedInt, &[y.clone()],
///         [(vec![Val::sym("a")], 5), (vec![Val::sym("b")], 5)], u64::MAX))
///     .of_interest([x.clone()]);
///
/// let solution = p.solve()?;
/// assert_eq!(*solution.blevel(), 7);
/// # Ok::<(), softsoa_core::SolveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Scsp<S: Semiring> {
    semiring: S,
    domains: Domains,
    constraints: Vec<Constraint<S>>,
    con: Vec<Var>,
}

impl<S: Semiring> Scsp<S> {
    /// Creates an empty problem over the given semiring.
    pub fn new(semiring: S) -> Scsp<S> {
        Scsp {
            semiring,
            domains: Domains::new(),
            constraints: Vec::new(),
            con: Vec::new(),
        }
    }

    /// Declares the domain of a variable (builder style).
    pub fn with_domain(mut self, var: impl Into<Var>, domain: Domain) -> Scsp<S> {
        self.domains.insert(var.into(), domain);
        self
    }

    /// Adds a constraint (builder style).
    pub fn with_constraint(mut self, constraint: Constraint<S>) -> Scsp<S> {
        self.constraints.push(constraint);
        self
    }

    /// Sets the variables of interest `con` (builder style).
    pub fn of_interest<I, T>(mut self, vars: I) -> Scsp<S>
    where
        I: IntoIterator<Item = T>,
        T: Into<Var>,
    {
        self.con = vars.into_iter().map(Into::into).collect();
        self.con.sort();
        self.con.dedup();
        self
    }

    /// Declares the domain of a variable.
    pub fn add_domain(&mut self, var: impl Into<Var>, domain: Domain) {
        self.domains.insert(var.into(), domain);
    }

    /// Adds a constraint.
    pub fn add_constraint(&mut self, constraint: Constraint<S>) {
        self.constraints.push(constraint);
    }

    /// The semiring of the problem.
    pub fn semiring(&self) -> &S {
        &self.semiring
    }

    /// The declared domains.
    pub fn domains(&self) -> &Domains {
        &self.domains
    }

    /// The constraint set `C`.
    pub fn constraints(&self) -> &[Constraint<S>] {
        &self.constraints
    }

    /// The variables of interest `con`, sorted.
    pub fn con(&self) -> &[Var] {
        &self.con
    }

    /// Every variable mentioned by a constraint or by `con`, sorted.
    pub fn problem_vars(&self) -> Vec<Var> {
        let mut vars: Vec<Var> = self
            .constraints
            .iter()
            .flat_map(|c| c.scope().iter().cloned())
            .chain(self.con.iter().cloned())
            .collect();
        vars.sort();
        vars.dedup();
        vars
    }

    /// Solves with the reference [`EnumerationSolver`].
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] if a variable lacks a domain.
    pub fn solve(&self) -> Result<Solution<S>, SolveError> {
        EnumerationSolver::new().solve(self)
    }

    /// Solves by compiled exhaustive enumeration under an explicit
    /// engine configuration (worker threads).
    ///
    /// ```
    /// # use softsoa_core::{Scsp, Constraint, Domain};
    /// # use softsoa_core::solve::SolverConfig;
    /// # use softsoa_semiring::WeightedInt;
    /// let p = Scsp::new(WeightedInt)
    ///     .with_domain("x", Domain::ints(0..=9))
    ///     .with_constraint(Constraint::unary(WeightedInt, "x", |v| {
    ///         v.as_int().unwrap() as u64
    ///     }))
    ///     .of_interest(["x"]);
    /// let sol = p.solve_with(&SolverConfig::default())?;
    /// assert_eq!(*sol.blevel(), 0);
    /// assert!(sol.stats().unwrap().threads >= 1);
    /// # Ok::<(), softsoa_core::SolveError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] if a variable lacks a domain, or
    /// [`SolveError::TableTooLarge`] if the `con` table has more cells
    /// than `usize` counts.
    pub fn solve_with(
        &self,
        config: &crate::solve::SolverConfig,
    ) -> Result<Solution<S>, SolveError> {
        EnumerationSolver::with_config(*config).solve(self)
    }

    /// The best level of consistency `blevel(P) = Sol(P) ⇓ ∅`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] if a variable lacks a domain.
    pub fn blevel(&self) -> Result<S::Value, SolveError> {
        Ok(self.solve()?.blevel().clone())
    }

    /// Whether `P` is `α`-consistent, i.e. `blevel(P) = α`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] if a variable lacks a domain.
    pub fn is_alpha_consistent(&self, alpha: &S::Value) -> Result<bool, SolveError> {
        Ok(self.blevel()? == *alpha)
    }

    /// Whether `P` is consistent: `blevel(P) >S 0`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] if a variable lacks a domain.
    pub fn is_consistent(&self) -> Result<bool, SolveError> {
        let blevel = self.blevel()?;
        Ok(self.semiring.lt(&self.semiring.zero(), &blevel))
    }
}

impl<S: Semiring> fmt::Display for Scsp<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SCSP({} constraints, {} vars, con = {{",
            self.constraints.len(),
            self.domains.len(),
        )?;
        for (i, v) in self.con.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str("})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fig1_problem;
    use softsoa_semiring::WeightedInt;

    #[test]
    fn fig1_blevel_is_7() {
        let p = fig1_problem();
        assert_eq!(p.blevel().unwrap(), 7);
        assert!(p.is_alpha_consistent(&7).unwrap());
        assert!(!p.is_alpha_consistent(&5).unwrap());
        assert!(p.is_consistent().unwrap());
    }

    #[test]
    fn inconsistent_problem() {
        let p = Scsp::new(WeightedInt)
            .with_domain("x", Domain::ints(0..=1))
            .with_constraint(Constraint::never(WeightedInt))
            .of_interest(["x"]);
        assert!(!p.is_consistent().unwrap());
    }

    #[test]
    fn problem_vars_union() {
        let p = fig1_problem();
        assert_eq!(p.problem_vars(), crate::vars(["x", "y"]));
    }

    #[test]
    fn display() {
        let p = fig1_problem();
        let text = p.to_string();
        assert!(text.contains("3 constraints"));
        assert!(text.contains("con = {x}"));
    }
}
