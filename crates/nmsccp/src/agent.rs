//! The agent syntax of the `nmsccp` language (Fig. 2).
//!
//! ```text
//! P ::= F.A
//! F ::= p(Y) :: A | F.F
//! A ::= success | tell(c)▷A | retract(c)▷A | update_X(c)▷A
//!     | E | A ‖ A | ∃x.A | p(Y)
//! E ::= ask(c)▷A | nask(c)▷A | E + E
//! ```
//!
//! where `▷` is one of the checked transitions of
//! [Fig. 3](crate::Interval).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use softsoa_core::{Constraint, Var};
use softsoa_semiring::Semiring;

use crate::Interval;

/// A checked action `op(c) →ᵘₗ A`: the constraint it carries, its
/// consistency interval and the continuation agent, shared by every
/// copy of the action.
#[derive(Debug, Clone)]
pub struct Action<S: Semiring> {
    pub(crate) constraint: Constraint<S>,
    pub(crate) check: Interval<S>,
    pub(crate) then: Arc<Agent<S>>,
}

impl<S: Semiring> Action<S> {
    /// The constraint carried by the action.
    pub fn constraint(&self) -> &Constraint<S> {
        &self.constraint
    }

    /// The consistency interval guarding the action.
    pub fn check(&self) -> &Interval<S> {
        &self.check
    }

    /// The continuation agent.
    pub fn then(&self) -> &Agent<S> {
        &self.then
    }
}

/// Whether a guard asks for entailment or for its absence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardKind {
    /// `ask(c)`: enabled when `σ ⊢ c` (rule R2).
    Ask,
    /// `nask(c)`: enabled when `σ ⊬ c` (rule R6).
    Nask,
}

/// One branch of a nondeterministic sum `E + E`.
#[derive(Debug, Clone)]
pub struct Guard<S: Semiring> {
    pub(crate) kind: GuardKind,
    pub(crate) constraint: Constraint<S>,
    pub(crate) check: Interval<S>,
    pub(crate) then: Arc<Agent<S>>,
}

impl<S: Semiring> Guard<S> {
    /// An `ask(c) →ᵘₗ then` guard.
    pub fn ask(constraint: Constraint<S>, check: Interval<S>, then: Agent<S>) -> Guard<S> {
        Guard {
            kind: GuardKind::Ask,
            constraint,
            check,
            then: Arc::new(then),
        }
    }

    /// A `nask(c) →ᵘₗ then` guard.
    pub fn nask(constraint: Constraint<S>, check: Interval<S>, then: Agent<S>) -> Guard<S> {
        Guard {
            kind: GuardKind::Nask,
            constraint,
            check,
            then: Arc::new(then),
        }
    }

    /// Whether this is an `ask` or a `nask` guard.
    pub fn kind(&self) -> GuardKind {
        self.kind
    }

    /// The constraint asked (or nasked) for.
    pub fn constraint(&self) -> &Constraint<S> {
        &self.constraint
    }

    /// The consistency interval guarding the branch.
    pub fn check(&self) -> &Interval<S> {
        &self.check
    }

    /// The continuation agent.
    pub fn then(&self) -> &Agent<S> {
        &self.then
    }
}

/// An `nmsccp` agent (Fig. 2).
///
/// Subterms are shared (`Arc`), so copying an agent — a continuation
/// placed back into its parallel context, a recovery checkpoint, one
/// client agent per provider session — copies pointers, not trees.
///
/// Build agents with the constructor methods; they read close to the
/// paper's syntax:
///
/// ```
/// use softsoa_nmsccp::{Agent, Interval};
/// use softsoa_core::Constraint;
/// use softsoa_semiring::WeightedInt;
///
/// let c4 = Constraint::unary(WeightedInt, "x", |v| v.as_int().unwrap() as u64 + 5);
/// // tell(c4) →^0_∞ success
/// let p1 = Agent::tell(c4, Interval::any(&WeightedInt), Agent::success());
/// assert!(!p1.is_success());
/// ```
#[derive(Debug, Clone)]
pub enum Agent<S: Semiring> {
    /// The terminated agent.
    Success,
    /// `tell(c) →ᵘₗ A` (rule R1): add `c` to the store.
    Tell(Action<S>),
    /// `retract(c) →ᵘₗ A` (rule R7): remove `c` from the store.
    Retract(Action<S>),
    /// `update_X(c) →ᵘₗ A` (rule R8): refresh the variables in `X`,
    /// then add `c`.
    Update {
        /// The variables `X` whose information is discarded.
        vars: Vec<Var>,
        /// The constraint to add and the guarded continuation.
        action: Action<S>,
    },
    /// A nondeterministic sum of `ask`/`nask` guards (rules R2, R5,
    /// R6).
    Sum(Vec<Guard<S>>),
    /// Parallel composition `A ‖ B` by interleaving (rules R3, R4).
    Par(Arc<Agent<S>>, Arc<Agent<S>>),
    /// Hiding `∃x.A` (rule R9).
    Hide {
        /// The hidden (local) variable.
        var: Var,
        /// The agent body.
        body: Arc<Agent<S>>,
    },
    /// A procedure call `p(Y)` (rule R10).
    Call {
        /// The procedure name.
        name: String,
        /// The actual parameters.
        args: Vec<Var>,
    },
}

impl<S: Semiring> Agent<S> {
    /// The terminated agent `success`.
    pub fn success() -> Agent<S> {
        Agent::Success
    }

    /// `tell(c) →ᵘₗ then`.
    pub fn tell(c: Constraint<S>, check: Interval<S>, then: Agent<S>) -> Agent<S> {
        Agent::Tell(Action {
            constraint: c,
            check,
            then: Arc::new(then),
        })
    }

    /// `ask(c) →ᵘₗ then` (a one-guard sum).
    pub fn ask(c: Constraint<S>, check: Interval<S>, then: Agent<S>) -> Agent<S> {
        Agent::Sum(vec![Guard::ask(c, check, then)])
    }

    /// `nask(c) →ᵘₗ then` (a one-guard sum).
    pub fn nask(c: Constraint<S>, check: Interval<S>, then: Agent<S>) -> Agent<S> {
        Agent::Sum(vec![Guard::nask(c, check, then)])
    }

    /// `retract(c) →ᵘₗ then`.
    pub fn retract(c: Constraint<S>, check: Interval<S>, then: Agent<S>) -> Agent<S> {
        Agent::Retract(Action {
            constraint: c,
            check,
            then: Arc::new(then),
        })
    }

    /// `update_X(c) →ᵘₗ then`.
    pub fn update(
        vars: impl IntoIterator<Item = Var>,
        c: Constraint<S>,
        check: Interval<S>,
        then: Agent<S>,
    ) -> Agent<S> {
        Agent::Update {
            vars: vars.into_iter().collect(),
            action: Action {
                constraint: c,
                check,
                then: Arc::new(then),
            },
        }
    }

    /// The nondeterministic sum `E₁ + E₂ + ...`.
    pub fn sum(guards: impl IntoIterator<Item = Guard<S>>) -> Agent<S> {
        Agent::Sum(guards.into_iter().collect())
    }

    /// Parallel composition `a ‖ b`.
    pub fn par(a: Agent<S>, b: Agent<S>) -> Agent<S> {
        Agent::Par(Arc::new(a), Arc::new(b))
    }

    /// Parallel composition of many agents (right-associated).
    pub fn par_all(agents: impl IntoIterator<Item = Agent<S>>) -> Agent<S> {
        let mut list: Vec<Agent<S>> = agents.into_iter().collect();
        match list.pop() {
            None => Agent::Success,
            Some(last) => list
                .into_iter()
                .rev()
                .fold(last, |acc, a| Agent::par(a, acc)),
        }
    }

    /// Hiding `∃var. body`.
    pub fn hide(var: impl Into<Var>, body: Agent<S>) -> Agent<S> {
        Agent::Hide {
            var: var.into(),
            body: Arc::new(body),
        }
    }

    /// A procedure call `name(args)`.
    pub fn call(name: impl Into<String>, args: impl IntoIterator<Item = Var>) -> Agent<S> {
        Agent::Call {
            name: name.into(),
            args: args.into_iter().collect(),
        }
    }

    /// Whether the agent is `success`.
    pub fn is_success(&self) -> bool {
        matches!(self, Agent::Success)
    }

    /// Validates every checked-transition interval in the agent against
    /// the parenthesised side conditions of Fig. 3 (the lower threshold
    /// must not be better than the upper one), recursively.
    ///
    /// An intrinsically contradictory interval makes its action
    /// permanently disabled — legal operationally, but almost always a
    /// specification bug; brokers should validate agents before
    /// running a negotiation.
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::ValidationError`] found.
    pub fn validate_intervals(
        &self,
        semiring: &S,
        domains: &softsoa_core::Domains,
    ) -> Result<(), crate::ValidationError> {
        match self {
            Agent::Success | Agent::Call { .. } => Ok(()),
            Agent::Tell(a) | Agent::Retract(a) | Agent::Update { action: a, .. } => {
                a.check.validate(semiring, domains)?;
                a.then.validate_intervals(semiring, domains)
            }
            Agent::Sum(guards) => {
                for g in guards {
                    g.check.validate(semiring, domains)?;
                    g.then.validate_intervals(semiring, domains)?;
                }
                Ok(())
            }
            Agent::Par(a, b) => {
                a.validate_intervals(semiring, domains)?;
                b.validate_intervals(semiring, domains)
            }
            Agent::Hide { body, .. } => body.validate_intervals(semiring, domains),
        }
    }

    /// Renames free occurrences of `from` to `to` throughout the agent
    /// (constraints, update variable sets, call arguments). Respects
    /// shadowing by inner `∃from` binders.
    ///
    /// # Panics
    ///
    /// Panics if the renaming would capture `to` in a constraint whose
    /// support already mentions it.
    pub fn rename_var(&self, from: &Var, to: &Var) -> Agent<S> {
        let rename_in = |v: &Var| if v == from { to.clone() } else { v.clone() };
        match self {
            Agent::Success => Agent::Success,
            Agent::Tell(a) => Agent::Tell(a.rename_var(from, to)),
            Agent::Retract(a) => Agent::Retract(a.rename_var(from, to)),
            Agent::Update { vars, action } => Agent::Update {
                vars: vars.iter().map(rename_in).collect(),
                action: action.rename_var(from, to),
            },
            Agent::Sum(guards) => Agent::Sum(
                guards
                    .iter()
                    .map(|g| Guard {
                        kind: g.kind,
                        constraint: g.constraint.rename(from, to),
                        check: g.check.rename_var(from, to),
                        then: Arc::new(g.then.rename_var(from, to)),
                    })
                    .collect(),
            ),
            Agent::Par(a, b) => Agent::par(a.rename_var(from, to), b.rename_var(from, to)),
            Agent::Hide { var, body } => {
                if var == from {
                    // `from` is shadowed inside.
                    self.clone()
                } else {
                    Agent::Hide {
                        var: var.clone(),
                        body: Arc::new(body.rename_var(from, to)),
                    }
                }
            }
            Agent::Call { name, args } => Agent::Call {
                name: name.clone(),
                args: args.iter().map(rename_in).collect(),
            },
        }
    }
}

impl<S: Semiring> Action<S> {
    fn rename_var(&self, from: &Var, to: &Var) -> Action<S> {
        Action {
            constraint: self.constraint.rename(from, to),
            check: self.check.rename_var(from, to),
            then: Arc::new(self.then.rename_var(from, to)),
        }
    }
}

impl<S: Semiring> fmt::Display for Agent<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Agent::Success => f.write_str("success"),
            Agent::Tell(a) => write!(f, "tell({})▷{}", label(&a.constraint), a.then),
            Agent::Retract(a) => write!(f, "retract({})▷{}", label(&a.constraint), a.then),
            Agent::Update { vars, action } => {
                write!(f, "update{{")?;
                for (i, v) in vars.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}({})▷{}", label(&action.constraint), action.then)
            }
            Agent::Sum(guards) => {
                for (i, g) in guards.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" + ")?;
                    }
                    let op = match g.kind {
                        GuardKind::Ask => "ask",
                        GuardKind::Nask => "nask",
                    };
                    write!(f, "{op}({})▷{}", label(&g.constraint), g.then)?;
                }
                Ok(())
            }
            Agent::Par(a, b) => write!(f, "({a} ‖ {b})"),
            Agent::Hide { var, body } => write!(f, "∃{var}.{body}"),
            Agent::Call { name, args } => {
                write!(f, "{name}(")?;
                for (i, v) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// A constraint's label for traces and agent syntax (`c` when it has
/// none).
pub(crate) fn label<S: Semiring>(c: &Constraint<S>) -> &str {
    c.label().unwrap_or("c")
}

/// A shared agent as an owned one: the agent itself when this was its
/// last reference, else a copy of its top node (whose subterms stay
/// shared).
pub(crate) fn unshared<S: Semiring>(agent: Arc<Agent<S>>) -> Agent<S> {
    Arc::try_unwrap(agent).unwrap_or_else(|shared| (*shared).clone())
}

/// A procedure declaration `p(Y) :: A`.
#[derive(Debug, Clone)]
pub struct Clause<S: Semiring> {
    pub(crate) params: Vec<Var>,
    pub(crate) body: Agent<S>,
}

impl<S: Semiring> Clause<S> {
    /// Creates the clause `name(params) :: body`.
    pub fn new(params: impl IntoIterator<Item = Var>, body: Agent<S>) -> Clause<S> {
        Clause {
            params: params.into_iter().collect(),
            body,
        }
    }

    /// The formal parameters.
    pub fn params(&self) -> &[Var] {
        &self.params
    }

    /// The clause body.
    pub fn body(&self) -> &Agent<S> {
        &self.body
    }
}

/// A set of procedure declarations `F` — the static part of a program
/// `P = F.A`.
#[derive(Debug, Clone, Default)]
pub struct Program<S: Semiring> {
    clauses: BTreeMap<String, Clause<S>>,
}

impl<S: Semiring> Program<S> {
    /// Creates an empty program (no declarations).
    pub fn new() -> Program<S> {
        Program {
            clauses: BTreeMap::new(),
        }
    }

    /// Adds the declaration `name(params) :: body` (builder style).
    pub fn with_clause(
        mut self,
        name: impl Into<String>,
        params: impl IntoIterator<Item = Var>,
        body: Agent<S>,
    ) -> Program<S> {
        self.clauses.insert(name.into(), Clause::new(params, body));
        self
    }

    /// Looks up a declaration by name.
    pub fn clause(&self, name: &str) -> Option<&Clause<S>> {
        self.clauses.get(name)
    }

    /// The number of declarations.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the program has no declarations.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsoa_semiring::WeightedInt;

    fn tell_x(var: &str) -> Agent<WeightedInt> {
        let v = Var::new(var);
        Agent::tell(
            Constraint::unary(WeightedInt, v, |val| val.as_int().unwrap() as u64),
            Interval::any(&WeightedInt),
            Agent::success(),
        )
    }

    #[test]
    fn par_all_right_associates() {
        let a = Agent::par_all([tell_x("x"), tell_x("y"), tell_x("z")]);
        match a {
            Agent::Par(_, rest) => match &*rest {
                Agent::Par(_, _) => {}
                _ => panic!("expected nested Par"),
            },
            _ => panic!("expected Par"),
        }
        assert!(Agent::<WeightedInt>::par_all([]).is_success());
    }

    #[test]
    fn rename_respects_shadowing() {
        let inner = tell_x("x");
        let hidden = Agent::hide("x", inner);
        let renamed = hidden.rename_var(&Var::new("x"), &Var::new("y"));
        // x is bound by ∃x, so nothing changes.
        match renamed {
            Agent::Hide { var, body } => {
                assert_eq!(var, Var::new("x"));
                match &*body {
                    Agent::Tell(a) => assert_eq!(a.constraint().scope(), &[Var::new("x")]),
                    _ => panic!("expected Tell"),
                }
            }
            _ => panic!("expected Hide"),
        }
    }

    #[test]
    fn rename_changes_free_occurrences() {
        let renamed = tell_x("x").rename_var(&Var::new("x"), &Var::new("y"));
        match renamed {
            Agent::Tell(a) => assert_eq!(a.constraint().scope(), &[Var::new("y")]),
            _ => panic!("expected Tell"),
        }
    }

    #[test]
    fn interval_validation_walks_the_tree() {
        use crate::{Interval, ValidationError};
        use softsoa_core::{Domain, Domains};
        let doms = Domains::new().with("x", Domain::ints(0..=3));
        let ok = Agent::par(
            tell_x("x"),
            Agent::tell(
                Constraint::always(WeightedInt),
                Interval::levels(9u64, 1u64), // floor 9 hours, cap 1 hour: fine
                Agent::success(),
            ),
        );
        assert!(ok.validate_intervals(&WeightedInt, &doms).is_ok());
        // Weighted: lower threshold 1 hour is strictly *better* than
        // the upper threshold 9 hours → contradictory.
        let bad = Agent::par(
            tell_x("x"),
            Agent::hide(
                "x",
                Agent::ask(
                    Constraint::always(WeightedInt),
                    Interval::levels(1u64, 9u64),
                    Agent::success(),
                ),
            ),
        );
        assert!(matches!(
            bad.validate_intervals(&WeightedInt, &doms),
            Err(ValidationError::Invalid(_))
        ));
    }

    #[test]
    fn display_is_readable() {
        let agent = Agent::par(tell_x("x"), Agent::success());
        assert_eq!(agent.to_string(), "(tell(c)▷success ‖ success)");
    }

    #[test]
    fn program_lookup() {
        let p: Program<WeightedInt> =
            Program::new().with_clause("p", [Var::new("x")], Agent::success());
        assert!(p.clause("p").is_some());
        assert!(p.clause("q").is_none());
        assert_eq!(p.len(), 1);
    }
}
