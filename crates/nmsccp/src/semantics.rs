//! The structural operational semantics of `nmsccp` (Fig. 4).
//!
//! [`moves`] lists every transition a configuration `⟨A, σ⟩` can take,
//! labelled with the rule (R1–R10) that justifies it, and decides each
//! check without building the successor store; [`Move::build`] then
//! takes one. [`enabled`] is every move, built, for the
//! [`Explorer`](crate::Explorer). The
//! [`Interpreter`](crate::Interpreter), the timed and resilient
//! interpreters (one step loop) and the concurrent executor build only
//! the move they take. All of them read this one relation.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::fmt;
use std::sync::Arc;

use softsoa_core::{Constraint, Var};
use softsoa_semiring::{Residuated, Semiring};

use crate::agent::unshared;
use crate::{Agent, GuardKind, Program, Store, StoreError};

/// The transition rules of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// R1: `tell(c) ▷ A`.
    Tell,
    /// R2: `ask(c) ▷ A`.
    Ask,
    /// R6: `nask(c) ▷ A`.
    Nask,
    /// R7: `retract(c) ▷ A`.
    Retract,
    /// R8: `update_X(c) ▷ A`.
    Update,
}

impl Rule {
    /// The action a move by this rule performs, as its note names it.
    fn op(self) -> &'static str {
        match self {
            Rule::Tell => "tell",
            Rule::Ask => "ask",
            Rule::Nask => "nask",
            Rule::Retract => "retract",
            Rule::Update => "update",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            Rule::Tell => "R1 tell",
            Rule::Ask => "R2 ask",
            Rule::Nask => "R6 nask",
            Rule::Retract => "R7 retract",
            Rule::Update => "R8 update",
        };
        f.write_str(text)
    }
}

/// One enabled transition of a configuration `⟨A, σ⟩`.
#[derive(Debug, Clone)]
pub struct Transition<S: Semiring> {
    /// The agent after the step.
    pub agent: Agent<S>,
    /// The store after the step.
    pub store: Store<S>,
    /// The basic rule performing the step (parallel composition,
    /// nondeterminism, hiding and procedure calls are contexts, not
    /// steps of their own).
    pub rule: Rule,
    /// A human-readable description of the step.
    pub note: String,
}

/// An error produced while computing the transition relation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SemanticsError {
    /// A store operation failed (missing domain).
    Store(StoreError),
    /// A call names a procedure the program does not declare.
    UnknownProcedure(String),
    /// A call's argument count differs from the declaration's.
    ArityMismatch {
        /// The procedure name.
        name: String,
        /// Number of formal parameters declared.
        expected: usize,
        /// Number of actual arguments supplied.
        found: usize,
    },
    /// Unfolding procedure calls exceeded the recursion limit without
    /// reaching an action (e.g. `p :: p`).
    RecursionLimit,
}

impl fmt::Display for SemanticsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemanticsError::Store(e) => write!(f, "{e}"),
            SemanticsError::UnknownProcedure(name) => {
                write!(f, "unknown procedure `{name}`")
            }
            SemanticsError::ArityMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "procedure `{name}` expects {expected} arguments, got {found}"
            ),
            SemanticsError::RecursionLimit => {
                write!(f, "procedure unfolding exceeded the recursion limit")
            }
        }
    }
}

impl std::error::Error for SemanticsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SemanticsError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for SemanticsError {
    fn from(e: StoreError) -> SemanticsError {
        SemanticsError::Store(e)
    }
}

/// A generator of fresh variables for the hiding rule (R9).
#[derive(Debug, Clone, Default)]
pub struct FreshGen {
    counter: u64,
}

impl FreshGen {
    /// Creates a generator starting at zero.
    pub fn new() -> FreshGen {
        FreshGen::default()
    }

    /// Returns a fresh variable derived from `base`.
    pub fn next(&mut self, base: &Var) -> Var {
        self.counter += 1;
        base.fresh(self.counter)
    }

    /// Advances the internal counter to at least `n` (used to give
    /// concurrent executors disjoint fresh-name ranges).
    pub fn advance_to(&mut self, n: u64) {
        self.counter = self.counter.max(n);
    }
}

const CALL_UNFOLD_LIMIT: usize = 64;

/// Computes every enabled transition of `⟨agent, store⟩` under
/// `program` (the relation `→` of Fig. 4): every [`Move`], built.
///
/// An empty result with a non-`success` agent means the configuration
/// is *suspended*: it may become enabled again after another agent
/// changes the store, or it is deadlocked if no other agent can.
///
/// # Errors
///
/// Returns [`SemanticsError`] on missing domains, unknown procedures,
/// arity mismatches, or unproductive recursion.
pub fn enabled<S: Residuated>(
    program: &Program<S>,
    agent: &Agent<S>,
    store: &Store<S>,
    fresh: &mut FreshGen,
) -> Result<Vec<Transition<S>>, SemanticsError> {
    moves(program, agent, store, fresh)?
        .into_iter()
        .map(|m| m.build(store))
        .collect()
}

/// The choose-then-build form of [`enabled`]: every enabled transition
/// of `⟨agent, store⟩`, in the same order, with its rule, note and
/// continuation, but with its successor store not yet built.
///
/// Each R1/R7/R8 check is decided on the prospective store without
/// building it: a level threshold folds `(σ ⊗ c) ⇓ ∅` (or `σ ÷ c`), a
/// constraint threshold compares against the lazy `σ ⊗ c`, and
/// [`Interval::any`](crate::Interval::any) reads nothing. `ask` and
/// `nask` decide entailment once and keep the store. A driver then
/// [`build`](Move::build)s only the move it takes.
///
/// # Errors
///
/// Returns [`SemanticsError`] exactly when [`enabled`] does.
pub fn moves<'a, S: Residuated>(
    program: &Program<S>,
    agent: &'a Agent<S>,
    store: &Store<S>,
    fresh: &mut FreshGen,
) -> Result<Vec<Move<'a, S>>, SemanticsError> {
    let mut out = Vec::new();
    moves_rec(program, agent, store, fresh, 0, &mut out)?;
    Ok(out)
}

/// What a [`Move`] does to the store, decided but not yet done.
#[derive(Debug, Clone)]
enum Effect<'a, S: Semiring> {
    /// `ask`/`nask` (R2/R6): the store is kept.
    Keep,
    /// `tell(c)` (R1): `σ ⊗ c`.
    Tell(Cow<'a, Constraint<S>>),
    /// `retract(c)` (R7): `σ ÷ c`, with `σ ⊑ c` already decided.
    Retract(Cow<'a, Constraint<S>>),
    /// `update_X(c)` (R8): `(σ ⇓ (V \ X)) ⊗ c`.
    Update(Cow<'a, [Var]>, Cow<'a, Constraint<S>>),
    /// An `update` whose interval needed the successor: already built.
    Built(Store<S>),
}

impl<'a, S: Semiring> Effect<'a, S> {
    fn into_owned<'b>(self) -> Effect<'b, S> {
        match self {
            Effect::Keep => Effect::Keep,
            Effect::Tell(c) => Effect::Tell(Cow::Owned(c.into_owned())),
            Effect::Retract(c) => Effect::Retract(Cow::Owned(c.into_owned())),
            Effect::Update(vars, c) => {
                Effect::Update(Cow::Owned(vars.into_owned()), Cow::Owned(c.into_owned()))
            }
            Effect::Built(store) => Effect::Built(store),
        }
    }
}

/// One enabled transition of `⟨A, σ⟩`, chosen but not yet taken: its
/// rule and note, and what [`Move::build`] will do to the agent and
/// the store. A move displays as its note.
#[derive(Debug, Clone)]
pub struct Move<'a, S: Semiring> {
    rule: Rule,
    label: Cow<'a, str>,
    /// The continuation of the acting action.
    then: Arc<Agent<S>>,
    /// The parallel contexts around the acting branch, innermost first:
    /// the sibling, and whether the acting branch is the left one.
    frames: Vec<(&'a Arc<Agent<S>>, bool)>,
    /// The store the effect applies to when hiding declared a fresh
    /// variable; `None` for the store the moves were computed on.
    base: Option<Store<S>>,
    effect: Effect<'a, S>,
}

impl<'a, S: Semiring> Move<'a, S> {
    fn new(
        rule: Rule,
        constraint: &'a Constraint<S>,
        then: &Arc<Agent<S>>,
        effect: Effect<'a, S>,
    ) -> Move<'a, S> {
        Move {
            rule,
            label: Cow::Borrowed(constraint.label().unwrap_or("c")),
            then: Arc::clone(then),
            frames: Vec::new(),
            base: None,
            effect,
        }
    }

    /// The basic rule performing the step.
    pub fn rule(&self) -> Rule {
        self.rule
    }

    /// The note of the move, after `prefix`: `op(label)`.
    pub(crate) fn note(&self, prefix: &str) -> String {
        [prefix, self.rule.op(), "(", &self.label, ")"].concat()
    }

    /// The agent after the step: the continuation placed back into its
    /// parallel contexts, a branch that reached `success` dissolving.
    /// Every subterm is shared with the agent the move was listed on.
    fn agent(then: Arc<Agent<S>>, frames: &[(&'a Arc<Agent<S>>, bool)]) -> Agent<S> {
        let mut agent = then;
        for (depth, &(sibling, left)) in frames.iter().enumerate() {
            let joined = match (agent.is_success(), left) {
                (true, _) => {
                    agent = Arc::clone(sibling);
                    continue;
                }
                (false, true) => Agent::Par(agent, Arc::clone(sibling)),
                (false, false) => Agent::Par(Arc::clone(sibling), agent),
            };
            if depth + 1 == frames.len() {
                return joined;
            }
            agent = Arc::new(joined);
        }
        unshared(agent)
    }

    /// The move with its agent built and every borrow of the
    /// (renamed, local) agent it was computed on released, applying to
    /// `base` unless it already carries a store of its own.
    fn detach<'b>(self, base: Option<&Store<S>>) -> Move<'b, S> {
        Move {
            then: Arc::new(Move::agent(self.then, &self.frames)),
            rule: self.rule,
            label: Cow::Owned(self.label.into_owned()),
            frames: Vec::new(),
            base: self.base.or_else(|| base.cloned()),
            effect: self.effect.into_owned(),
        }
    }
}

impl<S: Residuated> Move<'_, S> {
    /// Takes the move on `store` (the store the moves were computed
    /// on): builds the agent after the step and materialises the one
    /// successor store.
    ///
    /// # Errors
    ///
    /// Returns [`SemanticsError`] if a store operation fails (not for
    /// a move [`moves`] returned on the same store).
    pub fn build(self, store: &Store<S>) -> Result<Transition<S>, SemanticsError> {
        let note = self.note("");
        let agent = Move::agent(self.then, &self.frames);
        let base = self.base.as_ref().unwrap_or(store);
        let store = match self.effect {
            Effect::Keep => base.clone(),
            Effect::Tell(c) => base.tell(&c)?,
            Effect::Retract(c) => base.retracted(&c)?,
            Effect::Update(vars, c) => base.update(&vars, &c)?,
            Effect::Built(next) => next,
        };
        Ok(Transition {
            agent,
            store,
            rule: self.rule,
            note,
        })
    }
}

impl<S: Semiring> fmt::Display for Move<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.rule.op(), self.label)
    }
}

/// Appends the moves of `⟨agent, store⟩` to `out`, in [`enabled`]'s
/// order.
fn moves_rec<'a, S: Residuated>(
    program: &Program<S>,
    agent: &'a Agent<S>,
    store: &Store<S>,
    fresh: &mut FreshGen,
    depth: usize,
    out: &mut Vec<Move<'a, S>>,
) -> Result<(), SemanticsError> {
    if depth > CALL_UNFOLD_LIMIT {
        return Err(SemanticsError::RecursionLimit);
    }
    let semiring = store.semiring();
    let domains = store.domains();
    match agent {
        Agent::Success => {}

        // R1: the check is evaluated on the prospective store σ ⊗ c.
        Agent::Tell(action) => {
            let c = action.constraint();
            store.require_domains(c)?;
            let next = || store.sigma().combine(c);
            let holds = action.check().decide(
                semiring,
                domains,
                || Ok(next().consistency(domains)?),
                || Ok(next()),
            )?;
            if holds {
                let effect = Effect::Tell(Cow::Borrowed(c));
                out.push(Move::new(Rule::Tell, c, &action.then, effect));
            }
        }

        // R7: requires σ ⊑ c; the check is evaluated on σ ÷ c.
        Agent::Retract(action) => {
            let c = action.constraint();
            if !store.entails(c)? {
                return Ok(());
            }
            let next = || store.sigma().divide(c);
            let holds = action.check().decide(
                semiring,
                domains,
                || Ok(next().consistency(domains)?),
                || Ok(next()),
            )?;
            if holds {
                let effect = Effect::Retract(Cow::Borrowed(c));
                out.push(Move::new(Rule::Retract, c, &action.then, effect));
            }
        }

        // R8: transactional removal of X plus tell; check on the result,
        // built only if the interval reads it.
        Agent::Update { vars, action } => {
            let c = action.constraint();
            store.require_domains(c)?;
            let next = OnceCell::new();
            let built = || -> Result<&Store<S>, StoreError> {
                if next.get().is_none() {
                    let _ = next.set(store.update(vars, c)?);
                }
                Ok(next.get().expect("just built"))
            };
            let holds = action.check().decide(
                semiring,
                domains,
                || built()?.consistency(),
                || Ok(built()?.sigma().clone()),
            )?;
            if holds {
                let effect = match next.into_inner() {
                    Some(store) => Effect::Built(store),
                    None => Effect::Update(Cow::Borrowed(vars), Cow::Borrowed(c)),
                };
                out.push(Move::new(Rule::Update, c, &action.then, effect));
            }
        }

        // R2/R5/R6: every enabled guard is one nondeterministic branch,
        // on the unchanged store.
        Agent::Sum(guards) => {
            for guard in guards {
                let entailed = store.entails(&guard.constraint)?;
                let (wanted, rule) = match guard.kind {
                    GuardKind::Ask => (true, Rule::Ask),
                    GuardKind::Nask => (false, Rule::Nask),
                };
                if entailed == wanted && guard.check.check(store)? {
                    out.push(Move::new(
                        rule,
                        &guard.constraint,
                        &guard.then,
                        Effect::Keep,
                    ));
                }
            }
        }

        // R3/R4: interleaving; a branch stepping to success dissolves.
        Agent::Par(a, b) => {
            let start = out.len();
            moves_rec(program, a, store, fresh, depth, out)?;
            let middle = out.len();
            moves_rec(program, b, store, fresh, depth, out)?;
            for m in &mut out[start..middle] {
                m.frames.push((b, true));
            }
            for m in &mut out[middle..] {
                m.frames.push((a, false));
            }
        }

        // R9: rename the bound variable to a fresh one (with the same
        // domain) and step the body.
        Agent::Hide { var, body } => {
            let domain = store.domains().get(var).map_err(StoreError::from)?.clone();
            let y = fresh.next(var);
            let mut next_store = store.clone();
            next_store.declare(y.clone(), domain);
            let renamed = body.rename_var(var, &y);
            let mut inner = Vec::new();
            moves_rec(program, &renamed, &next_store, fresh, depth + 1, &mut inner)?;
            out.extend(inner.into_iter().map(|m| m.detach(Some(&next_store))));
        }

        // R10: unfold the declaration with parameter passing.
        Agent::Call { name, args } => {
            let clause = program
                .clause(name)
                .ok_or_else(|| SemanticsError::UnknownProcedure(name.clone()))?;
            if clause.params().len() != args.len() {
                return Err(SemanticsError::ArityMismatch {
                    name: name.clone(),
                    expected: clause.params().len(),
                    found: args.len(),
                });
            }
            // Two-phase renaming (formals → fresh temporaries →
            // actuals) so that swapped arguments, e.g. p(y, x) for
            // p(x, y), substitute correctly.
            let mut body = clause.body().clone();
            let temps: Vec<Var> = clause.params().iter().map(|p| fresh.next(p)).collect();
            for (formal, temp) in clause.params().iter().zip(&temps) {
                body = body.rename_var(formal, temp);
            }
            for (temp, actual) in temps.iter().zip(args) {
                body = body.rename_var(temp, actual);
            }
            let mut inner = Vec::new();
            moves_rec(program, &body, store, fresh, depth + 1, &mut inner)?;
            out.extend(inner.into_iter().map(|m| m.detach(None)));
        }
    }
    Ok(())
}

impl<S: Semiring> Agent<S> {
    /// Structurally simplifies the agent by dissolving terminated
    /// parallel branches: `success ‖ A ≡ A`. An agent with nothing to
    /// dissolve is returned as is, its subterms untouched.
    pub fn normalize(self) -> Agent<S> {
        if !self.dissolves() {
            return self;
        }
        match self {
            Agent::Par(a, b) => {
                let a = normalized(a);
                let b = normalized(b);
                match (a.is_success(), b.is_success()) {
                    (true, _) => unshared(b),
                    (_, true) => unshared(a),
                    _ => Agent::Par(a, b),
                }
            }
            other => other,
        }
    }

    /// Whether [`Agent::normalize`] changes the agent: some parallel
    /// branch, at any depth, is `success`.
    fn dissolves(&self) -> bool {
        match self {
            Agent::Par(a, b) => [a, b]
                .iter()
                .any(|branch| branch.is_success() || branch.dissolves()),
            _ => false,
        }
    }
}

/// [`Agent::normalize`] on a shared branch, which stays shared when it
/// has nothing to dissolve.
fn normalized<S: Semiring>(agent: Arc<Agent<S>>) -> Arc<Agent<S>> {
    if agent.dissolves() {
        Arc::new(unshared(agent).normalize())
    } else {
        agent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interval;
    use softsoa_core::{Constraint, Domain, Domains};
    use softsoa_semiring::WeightedInt;

    fn store() -> Store<WeightedInt> {
        Store::empty(WeightedInt, Domains::new().with("x", Domain::ints(0..=10)))
    }

    fn linear(a: u64, b: u64, name: &str) -> Constraint<WeightedInt> {
        Constraint::unary(WeightedInt, "x", move |v| {
            a * v.as_int().unwrap() as u64 + b
        })
        .with_label(name)
    }

    fn prog() -> Program<WeightedInt> {
        Program::new()
    }

    #[test]
    fn tell_is_enabled_within_interval() {
        let agent = Agent::tell(
            linear(1, 5, "c4"),
            Interval::levels(10u64, 0u64),
            Agent::success(),
        );
        let ts = enabled(&prog(), &agent, &store(), &mut FreshGen::new()).unwrap();
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].rule, Rule::Tell);
        assert_eq!(ts[0].store.consistency().unwrap(), 5);
    }

    #[test]
    fn tell_is_disabled_outside_interval() {
        // The prospective store has level 5, worse than the floor 4.
        let agent = Agent::tell(
            linear(1, 5, "c4"),
            Interval::levels(4u64, 1u64),
            Agent::success(),
        );
        let ts = enabled(&prog(), &agent, &store(), &mut FreshGen::new()).unwrap();
        assert!(ts.is_empty());
    }

    #[test]
    fn ask_requires_entailment() {
        let base = store().tell(&linear(2, 2, "c")).unwrap();
        let weaker = linear(1, 1, "w");
        let ask = Agent::ask(
            weaker.clone(),
            Interval::any(&WeightedInt),
            Agent::success(),
        );
        assert_eq!(
            enabled(&prog(), &ask, &base, &mut FreshGen::new())
                .unwrap()
                .len(),
            1
        );
        // nask of the same constraint is disabled...
        let nask = Agent::nask(weaker, Interval::any(&WeightedInt), Agent::success());
        assert!(enabled(&prog(), &nask, &base, &mut FreshGen::new())
            .unwrap()
            .is_empty());
        // ...and vice versa for a non-entailed constraint.
        let stronger = linear(3, 3, "s");
        let nask2 = Agent::nask(stronger, Interval::any(&WeightedInt), Agent::success());
        assert_eq!(
            enabled(&prog(), &nask2, &base, &mut FreshGen::new())
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn sum_collects_all_enabled_branches() {
        let base = store().tell(&linear(1, 1, "c")).unwrap();
        let agent = Agent::sum([
            crate::Guard::ask(
                linear(1, 0, "e"),
                Interval::any(&WeightedInt),
                Agent::success(),
            ),
            crate::Guard::nask(
                linear(9, 9, "n"),
                Interval::any(&WeightedInt),
                Agent::success(),
            ),
        ]);
        let ts = enabled(&prog(), &agent, &base, &mut FreshGen::new()).unwrap();
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn parallel_interleaves_and_dissolves_success() {
        let a = Agent::tell(
            linear(0, 1, "a"),
            Interval::any(&WeightedInt),
            Agent::success(),
        );
        let b = Agent::tell(
            linear(0, 2, "b"),
            Interval::any(&WeightedInt),
            Agent::success(),
        );
        let ts = enabled(&prog(), &Agent::par(a, b), &store(), &mut FreshGen::new()).unwrap();
        assert_eq!(ts.len(), 2);
        // Each transition leaves the *other* branch, not a Par wrapper.
        assert!(ts.iter().all(|t| matches!(t.agent, Agent::Tell(_))));
    }

    #[test]
    fn retract_disabled_when_not_entailed() {
        let agent = Agent::retract(
            linear(1, 3, "c1"),
            Interval::any(&WeightedInt),
            Agent::success(),
        );
        // Empty store entails only weaker-than-1̄ constraints... σ = 1̄
        // entails nothing that charges a positive cost, so retract is
        // suspended rather than an error.
        let ts = enabled(&prog(), &agent, &store(), &mut FreshGen::new()).unwrap();
        assert!(ts.is_empty());
    }

    #[test]
    fn hide_steps_with_fresh_variable() {
        let body = Agent::tell(
            linear(1, 0, "c"),
            Interval::any(&WeightedInt),
            Agent::success(),
        );
        let agent = Agent::hide("x", body);
        let ts = enabled(&prog(), &agent, &store(), &mut FreshGen::new()).unwrap();
        assert_eq!(ts.len(), 1);
        // The told constraint ranges over a fresh variable, not x.
        let sigma_scope = ts[0].store.sigma().scope().to_vec();
        assert!(!sigma_scope.contains(&Var::new("x")));
        assert_eq!(sigma_scope.len(), 1);
        assert!(sigma_scope[0].name().starts_with("x'"));
    }

    #[test]
    fn call_unfolds_with_parameter_passing() {
        let program: Program<WeightedInt> = Program::new().with_clause(
            "p",
            [Var::new("u")],
            Agent::tell(
                Constraint::unary(WeightedInt, "u", |v| v.as_int().unwrap() as u64)
                    .with_label("cu"),
                Interval::any(&WeightedInt),
                Agent::success(),
            ),
        );
        let call = Agent::call("p", [Var::new("x")]);
        let ts = enabled(&program, &call, &store(), &mut FreshGen::new()).unwrap();
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].store.sigma().scope(), &[Var::new("x")]);
    }

    #[test]
    fn call_swapped_arguments() {
        // p(u, w) :: tell(c(u, w)); calling p(y, x) must swap correctly.
        let c = Constraint::binary(WeightedInt, "u", "w", |a, b| {
            (10 * a.as_int().unwrap() + b.as_int().unwrap()) as u64
        });
        let program: Program<WeightedInt> = Program::new().with_clause(
            "p",
            [Var::new("u"), Var::new("w")],
            Agent::tell(c, Interval::any(&WeightedInt), Agent::success()),
        );
        let doms = Domains::new()
            .with("x", Domain::ints(0..=3))
            .with("y", Domain::ints(0..=3));
        let st = Store::empty(WeightedInt, doms);
        let call = Agent::call("p", [Var::new("y"), Var::new("x")]);
        let ts = enabled(&program, &call, &st, &mut FreshGen::new()).unwrap();
        assert_eq!(ts.len(), 1);
        // c(u=y, w=x): at (x=1, y=2) the level must be 10·2 + 1 = 21.
        let eta = softsoa_core::Assignment::new().bind("x", 1).bind("y", 2);
        assert_eq!(ts[0].store.sigma().eval(&eta), 21);
    }

    #[test]
    fn unknown_procedure_is_an_error() {
        let call: Agent<WeightedInt> = Agent::call("missing", []);
        let err = enabled(&prog(), &call, &store(), &mut FreshGen::new()).unwrap_err();
        assert!(matches!(err, SemanticsError::UnknownProcedure(_)));
    }

    #[test]
    fn unproductive_recursion_hits_the_limit() {
        let program: Program<WeightedInt> =
            Program::new().with_clause("p", [], Agent::call("p", []));
        let err = enabled(
            &program,
            &Agent::call("p", []),
            &store(),
            &mut FreshGen::new(),
        )
        .unwrap_err();
        assert_eq!(err, SemanticsError::RecursionLimit);
    }

    #[test]
    fn normalize_dissolves_success() {
        let a: Agent<WeightedInt> = Agent::par(
            Agent::success(),
            Agent::par(Agent::success(), Agent::success()),
        );
        assert!(a.normalize().is_success());
    }
}
