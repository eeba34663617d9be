//! The sequential drivers, with the [`Explorer`] as their oracle, and
//! the choose-then-build relation, with an eager one as its oracle.
//!
//! Each case builds a small random configuration from a gene stream:
//! an agent of `tell`, `retract`, `update`, `ask`, `nask`, sums,
//! parallel composition, hiding and calls of a non-recursive
//! procedure, with random checked intervals (C1–C4 and `any`), over a
//! store of one or two int variables, empty or holding one random
//! table, with weighted and fuzzy levels.
//!
//! - For every [`Policy`] and seed, a driver `Success` implies that the
//!   Explorer finds success reachable, a driver `Deadlock` that it
//!   finds a deadlock reachable, and when the exploration is complete
//!   and every schedule succeeds, the run succeeds. Calls never
//!   recurse, so every step shrinks the agent and no run livelocks.
//! - [`moves`], each built, equals [`enabled`] and the relation of
//!   Fig. 4 computed eagerly — every successor store built and every
//!   check run on it — in order, rule, note, agent, store level and
//!   store, and fails with the same error when a constraint names a
//!   variable without a domain.
//! - A step materialises only the store of the move it takes, and a
//!   dropped transition none: each told policy is evaluated once per
//!   tuple over a whole run, under every sequential driver and the
//!   concurrent executor.

mod common;

use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use common::{level, picks, pointwise_leq, table, units, Picks};
use proptest::collection::vec;
use proptest::prelude::*;
use softsoa_core::{Constraint, Domain, Domains, Var};
use softsoa_nmsccp::{
    enabled, moves, Agent, ConcurrentExecutor, Explorer, FaultAction, FaultEvent, FaultPlan,
    FreshGen, Guard, GuardKind, Interpreter, Interval, Outcome, Policy, Program, RecoveryPolicy,
    ResilientInterpreter, Rule, SemanticsError, Store, Transition,
};
use softsoa_semiring::{Fuzzy, Residuated, Unit, WeightedInt};

/// Every structural choice of one case, consumed in order (cyclically).
type Genes = Vec<usize>;

/// Builds agents, constraints and intervals from a gene stream.
struct Builder<'p, S: Residuated> {
    semiring: S,
    palette: &'p [S::Value],
    domains: Domains,
    genes: Genes,
    next: usize,
    labels: usize,
    /// Whether a constraint may range over `z`, which the store's
    /// domains lack.
    undeclared: bool,
}

impl<'p, S: Residuated> Builder<'p, S> {
    fn new(semiring: S, palette: &'p [S::Value], genes: Genes, undeclared: bool) -> Self {
        let mut builder = Builder {
            semiring,
            palette,
            domains: Domains::new(),
            genes,
            next: 0,
            labels: 0,
            undeclared,
        };
        let span = builder.gene(3) as i64;
        builder.domains = Domains::new()
            .with("x", Domain::ints(0..=span))
            .with("y", Domain::ints(0..=1));
        builder
    }

    fn gene(&mut self, choices: usize) -> usize {
        let gene = self.genes[self.next % self.genes.len()];
        self.next += 1;
        gene % choices
    }

    fn level(&mut self) -> S::Value {
        self.palette[self.gene(self.palette.len())].clone()
    }

    fn constraint(&mut self) -> Constraint<S> {
        let names: &[&str] = match self.gene(if self.undeclared { 11 } else { 10 }) {
            0..=2 => &["x"],
            3 | 4 => &["y"],
            5 | 6 => &["x", "y"],
            7..=9 => &[],
            _ => &["z"],
        };
        self.labels += 1;
        let label = format!("c{}", self.labels);
        if names.is_empty() {
            return Constraint::constant(self.semiring.clone(), self.level()).with_label(label);
        }
        let vars: Vec<Var> = names.iter().map(|&v| Var::new(v)).collect();
        let domains = self.domains.clone().with("z", Domain::ints(0..=1));
        let picks: Picks = (0..4).map(|_| self.gene(64)).collect();
        table(&self.semiring, self.palette, &domains, &vars, &picks).with_label(label)
    }

    /// What an `ask`, `nask` or `retract` names: half the time `1̄`,
    /// which every store entails, else a random constraint.
    fn entailable(&mut self) -> Constraint<S> {
        if self.gene(2) == 0 {
            Constraint::always(self.semiring.clone()).with_label("one")
        } else {
            self.constraint()
        }
    }

    /// A checked interval: mostly `any`, else C1 (ordered, so it can
    /// hold), C2, C3 or C4.
    fn interval(&mut self) -> Interval<S> {
        match self.gene(11) {
            0..=5 => Interval::any(&self.semiring),
            6 | 7 => {
                let (a, b) = (self.level(), self.level());
                match self.semiring.leq(&a, &b) {
                    true => Interval::levels(a, b),
                    false => Interval::levels(b, a),
                }
            }
            8 => Interval::level_to_constraint(self.level(), self.constraint()),
            9 => Interval::constraint_to_level(self.constraint(), self.level()),
            _ => Interval::constraints(self.constraint(), self.constraint()),
        }
    }

    fn var(&mut self) -> Var {
        Var::new(if self.gene(2) == 0 { "x" } else { "y" })
    }

    /// An agent of at most `depth` nested actions; `calls` allows
    /// `p()`.
    fn agent(&mut self, depth: usize, calls: bool) -> Agent<S> {
        if depth == 0 {
            return Agent::success();
        }
        let d = depth - 1;
        match self.gene(12) {
            0..=2 => Agent::tell(self.constraint(), self.interval(), self.agent(d, calls)),
            3 => Agent::retract(self.entailable(), self.interval(), self.agent(d, calls)),
            4 => Agent::update(
                [self.var()],
                self.constraint(),
                self.interval(),
                self.agent(d, calls),
            ),
            5 => Agent::ask(self.entailable(), self.interval(), self.agent(d, calls)),
            6 => Agent::nask(self.entailable(), self.interval(), self.agent(d, calls)),
            7 => Agent::sum([
                Guard::ask(self.entailable(), self.interval(), self.agent(d, calls)),
                Guard::nask(self.entailable(), self.interval(), self.agent(d, calls)),
            ]),
            8 | 9 => Agent::par(self.agent(d, calls), self.agent(d, calls)),
            10 => Agent::hide(self.var(), self.agent(d, calls)),
            _ if calls => Agent::call("p", []),
            _ => Agent::success(),
        }
    }

    /// A program declaring `p :: A` (no calls inside), an agent and a
    /// store.
    fn case(&mut self) -> (Program<S>, Agent<S>, Store<S>) {
        let program = Program::new().with_clause("p", [], self.agent(2, false));
        let agent = self.agent(3, true);
        let mut store = Store::empty(self.semiring.clone(), self.domains.clone());
        if self.gene(2) == 0 {
            if let Ok(told) = store.tell(&self.constraint()) {
                store = told;
            }
        }
        (program, agent, store)
    }
}

/// The relation of Fig. 4 with every successor store built and every
/// check run on the built store — the oracle for [`moves`].
fn eager<S: Residuated>(
    program: &Program<S>,
    agent: &Agent<S>,
    store: &Store<S>,
    fresh: &mut FreshGen,
    depth: usize,
) -> Result<Vec<Transition<S>>, SemanticsError> {
    if depth > 64 {
        return Err(SemanticsError::RecursionLimit);
    }
    let step = |agent: &Agent<S>, store, rule, op: &str, c: &Constraint<S>| Transition {
        agent: agent.clone(),
        store,
        rule,
        note: format!("{op}({})", c.label().unwrap_or("c")),
    };
    let checked = |check: &Interval<S>, next: &Store<S>| check.check(next);
    Ok(match agent {
        Agent::Success => Vec::new(),
        Agent::Tell(action) => {
            let next = store.tell(action.constraint())?;
            if checked(action.check(), &next)? {
                let c = action.constraint();
                vec![step(action.then(), next, Rule::Tell, "tell", c)]
            } else {
                Vec::new()
            }
        }
        Agent::Retract(action) => {
            let c = action.constraint();
            if !store.entails(c)? {
                return Ok(Vec::new());
            }
            let next = store.retract(c)?;
            if checked(action.check(), &next)? {
                vec![step(action.then(), next, Rule::Retract, "retract", c)]
            } else {
                Vec::new()
            }
        }
        Agent::Update { vars, action } => {
            let c = action.constraint();
            let next = store.update(vars, c)?;
            if checked(action.check(), &next)? {
                vec![step(action.then(), next, Rule::Update, "update", c)]
            } else {
                Vec::new()
            }
        }
        Agent::Sum(guards) => {
            let mut out = Vec::new();
            for guard in guards {
                let entailed = store.entails(guard.constraint())?;
                let (wanted, rule, op) = match guard.kind() {
                    GuardKind::Ask => (true, Rule::Ask, "ask"),
                    GuardKind::Nask => (false, Rule::Nask, "nask"),
                };
                if entailed == wanted && guard.check().check(store)? {
                    out.push(step(
                        guard.then(),
                        store.clone(),
                        rule,
                        op,
                        guard.constraint(),
                    ));
                }
            }
            out
        }
        Agent::Par(a, b) => {
            let mut out = Vec::new();
            for t in eager(program, a, store, fresh, depth)? {
                let agent = match t.agent.is_success() {
                    true => (**b).clone(),
                    false => Agent::par(t.agent, (**b).clone()),
                };
                out.push(Transition { agent, ..t });
            }
            for t in eager(program, b, store, fresh, depth)? {
                let agent = match t.agent.is_success() {
                    true => (**a).clone(),
                    false => Agent::par((**a).clone(), t.agent),
                };
                out.push(Transition { agent, ..t });
            }
            out
        }
        Agent::Hide { var, body } => {
            let domain = store
                .domains()
                .get(var)
                .map_err(softsoa_nmsccp::StoreError::from)?
                .clone();
            let y = fresh.next(var);
            let mut next = store.clone();
            next.declare(y.clone(), domain);
            eager(program, &body.rename_var(var, &y), &next, fresh, depth + 1)?
        }
        Agent::Call { name, .. } => {
            let clause = program
                .clause(name)
                .expect("the generated program declares p");
            eager(program, clause.body(), store, fresh, depth + 1)?
        }
    })
}

/// Asserts that two built transitions are the same step.
fn same_step<S: Residuated>(built: &Transition<S>, oracle: &Transition<S>, what: &str)
where
    S::Value: Debug,
{
    assert_eq!(built.rule, oracle.rule, "{what}: rule");
    assert_eq!(built.note, oracle.note, "{what}: note");
    assert_eq!(
        built.agent.to_string(),
        oracle.agent.to_string(),
        "{what}: agent"
    );
    let domains = built.store.domains();
    let vars: Vec<Var> = domains.iter().map(|(v, _)| v.clone()).collect();
    let (mine, theirs) = (built.store.sigma(), oracle.store.sigma());
    assert!(
        pointwise_leq(mine, theirs, domains, &vars) && pointwise_leq(theirs, mine, domains, &vars),
        "{what}: store"
    );
    let consistency = built.store.consistency().unwrap();
    assert_eq!(
        consistency,
        oracle.store.consistency().unwrap(),
        "{what}: level"
    );
    assert_eq!(consistency, level(mine, domains), "{what}: level oracle");
}

/// [`moves`], built, against [`enabled`] and the eager relation.
fn moves_match<S>(semiring: S, palette: &[S::Value], genes: Genes)
where
    S: Residuated,
    S::Value: Debug,
{
    let (program, agent, store) = Builder::new(semiring, palette, genes, true).case();
    let built: Result<Vec<Transition<S>>, SemanticsError> =
        moves(&program, &agent, &store, &mut FreshGen::new())
            .and_then(|ms| ms.into_iter().map(|m| m.build(&store)).collect());
    let relation = enabled(&program, &agent, &store, &mut FreshGen::new());
    let oracle = eager(&program, &agent, &store, &mut FreshGen::new(), 0);
    match (built, relation, oracle) {
        (Ok(built), Ok(relation), Ok(oracle)) => {
            assert_eq!(built.len(), oracle.len(), "move count of {agent}");
            assert_eq!(relation.len(), oracle.len(), "enabled count of {agent}");
            for (i, ((m, t), o)) in built.iter().zip(&relation).zip(&oracle).enumerate() {
                same_step(m, o, &format!("move {i} of {agent}"));
                same_step(t, o, &format!("transition {i} of {agent}"));
            }
        }
        (Err(built), Err(relation), Err(oracle)) => {
            assert_eq!(built, oracle, "moves error of {agent}");
            assert_eq!(relation, oracle, "enabled error of {agent}");
        }
        (built, relation, oracle) => panic!(
            "{agent}: moves {:?}, enabled {:?}, oracle {:?}",
            built.map(|t| t.len()),
            relation.map(|t| t.len()),
            oracle.map(|t| t.len())
        ),
    }
}

/// The three Explorer rules for one finished run.
fn follows_the_explorer<S: Residuated>(
    outcome: &Outcome<S>,
    verdict: &softsoa_nmsccp::Exploration,
    what: &str,
) {
    if verdict.truncated {
        return;
    }
    match outcome {
        Outcome::Success { .. } => assert!(verdict.success_reachable, "{what}: success"),
        Outcome::Deadlock { .. } => assert!(verdict.deadlock_reachable, "{what}: deadlock"),
        Outcome::OutOfFuel { .. } | Outcome::DeadlineExceeded { .. } => {
            panic!("{what}: a run of a shrinking agent ran out of fuel")
        }
    }
    if verdict.always_succeeds {
        assert!(outcome.is_success(), "{what}: every schedule succeeds");
    }
}

/// Every driver configuration against the Explorer.
fn drivers_follow<S>(semiring: S, palette: &[S::Value], genes: Genes, seed: u64)
where
    S: Residuated,
    S::Value: Debug,
{
    let (program, agent, store) = Builder::new(semiring, palette, genes, false).case();
    let verdict = Explorer::new(program.clone())
        .explore(agent.clone(), store.clone())
        .unwrap();
    for policy in [Policy::First, Policy::RoundRobin, Policy::Random(seed)] {
        let plain = Interpreter::new(program.clone())
            .with_policy(policy)
            .run(agent.clone(), store.clone())
            .unwrap();
        follows_the_explorer(&plain.outcome, &verdict, &format!("{policy:?} on {agent}"));
        // Retries without a ladder never change the store: the
        // resilient driver reaches the same verdicts.
        let resilient = ResilientInterpreter::new(program.clone())
            .with_policy(policy)
            .run(agent.clone(), store.clone())
            .unwrap();
        follows_the_explorer(
            &resilient.report.outcome,
            &verdict,
            &format!("resilient {policy:?} on {agent}"),
        );
    }
}

fn weighted_palette() -> Vec<u64> {
    vec![0, 1, 2, 3, 5, 8, u64::MAX]
}

fn fuzzy_palette() -> Vec<Unit> {
    units(&[0.0, 0.25, 0.5, 0.75, 1.0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn weighted_moves_match_the_eager_relation(genes in vec(0usize..1 << 16, 64)) {
        moves_match(WeightedInt, &weighted_palette(), genes);
    }

    #[test]
    fn fuzzy_moves_match_the_eager_relation(genes in vec(0usize..1 << 16, 64)) {
        moves_match(Fuzzy, &fuzzy_palette(), genes);
    }

    #[test]
    fn weighted_drivers_follow_the_explorer(
        genes in vec(0usize..1 << 16, 64),
        seed in any::<u64>(),
    ) {
        drivers_follow(WeightedInt, &weighted_palette(), genes, seed);
    }

    #[test]
    fn fuzzy_drivers_follow_the_explorer(
        genes in vec(0usize..1 << 16, 64),
        seed in any::<u64>(),
        extra in picks(),
    ) {
        let mut genes = genes;
        genes.extend(extra);
        drivers_follow(Fuzzy, &fuzzy_palette(), genes, seed);
    }
}

/// A fuzzy policy on `x ∈ 0..16` that counts its evaluations.
fn counted(calls: &Arc<AtomicUsize>, slope: f64) -> Constraint<Fuzzy> {
    let calls = Arc::clone(calls);
    Constraint::unary(Fuzzy, "x", move |v| {
        calls.fetch_add(1, Ordering::Relaxed);
        Unit::clamped(0.9 - slope * v.as_int().unwrap() as f64)
    })
}

#[test]
fn a_step_materialises_only_the_move_it_takes() {
    let store = Store::empty(Fuzzy, Domains::new().with("x", Domain::ints(0..16)));
    let provider_calls = Arc::new(AtomicUsize::new(0));
    let client_calls = Arc::new(AtomicUsize::new(0));
    let any = Interval::any(&Fuzzy);
    let agent = Agent::par(
        Agent::tell(
            counted(&provider_calls, 0.01),
            any.clone(),
            Agent::success(),
        ),
        Agent::tell(
            counted(&client_calls, 0.02),
            any,
            Agent::ask(
                Constraint::always(Fuzzy),
                Interval::levels(Unit::new(0.1).unwrap(), Unit::MAX),
                Agent::success(),
            ),
        ),
    );
    let reset = || {
        provider_calls.store(0, Ordering::Relaxed);
        client_calls.store(0, Ordering::Relaxed);
    };
    let told_once = |what: &str| {
        assert_eq!(
            provider_calls.load(Ordering::Relaxed),
            16,
            "{what}: provider"
        );
        assert_eq!(client_calls.load(Ordering::Relaxed), 16, "{what}: client");
    };
    for policy in [Policy::First, Policy::RoundRobin, Policy::Random(3)] {
        reset();
        let report = Interpreter::new(Program::new())
            .with_policy(policy)
            .run(agent.clone(), store.clone())
            .unwrap();
        assert!(report.outcome.is_success());
        told_once(&format!("{policy:?}"));
    }

    // The concurrent executor chooses among the moves of its agent,
    // then builds only the chosen one.
    for seed in 0..3 {
        reset();
        let report = ConcurrentExecutor::new(Program::new())
            .with_seed(seed)
            .run(vec![agent.clone()], store.clone())
            .unwrap();
        assert!(report.all_succeeded());
        told_once(&format!("concurrent, seed {seed}"));
    }

    // Dropped transitions consume the choice and build nothing.
    let drops = (0..3)
        .map(|at_step| FaultEvent {
            at_step: 2 * at_step,
            action: FaultAction::DropTransition,
        })
        .collect();
    reset();
    let report = ResilientInterpreter::new(Program::new())
        .with_plan(FaultPlan::new(drops))
        .with_recovery(RecoveryPolicy::default())
        .run(agent, store)
        .unwrap();
    assert!(report.is_success());
    assert_eq!(report.dropped_transitions, 3);
    told_once("resilient with dropped transitions");
}
