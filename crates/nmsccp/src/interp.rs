//! A sequential interleaving interpreter for `nmsccp` configurations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use softsoa_semiring::{Residuated, Semiring};
use softsoa_telemetry::Telemetry;

use crate::resilience::RecoveryState;
use crate::semantics::{moves, FreshGen, Rule, SemanticsError};
use crate::{Agent, FaultAction, FaultStatus, Program, RecoveryPolicy, Store, TimedAction};

/// How the interpreter picks among enabled transitions.
///
/// The operational semantics is nondeterministic (rules R3/R5); a
/// policy resolves that nondeterminism. Both policies are
/// deterministic given their inputs, so every run is reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Always take the first enabled transition (left-most agent).
    First,
    /// Rotate through the enabled transitions by step index — a fair
    /// deterministic schedule: no agent is starved forever while
    /// enabled.
    RoundRobin,
    /// Pick uniformly at random with the given seed.
    Random(u64),
}

/// Who caused a trace entry: the agent itself, the timed environment,
/// an injected fault, or a recovery action.
///
/// Faults and recoveries share the trace with ordinary transitions so
/// a resilient run stays replayable from its trace alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryOrigin {
    /// An ordinary agent transition (rules R1–R10).
    Agent,
    /// A scheduled environment event ([`crate::TimedEvent`]).
    Environment,
    /// An injected fault ([`crate::FaultPlan`]).
    Fault,
    /// A recovery action: retry, rollback or relaxation.
    Recovery,
}

impl std::fmt::Display for EntryOrigin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EntryOrigin::Agent => "agent",
            EntryOrigin::Environment => "env",
            EntryOrigin::Fault => "fault",
            EntryOrigin::Recovery => "recovery",
        };
        f.write_str(s)
    }
}

/// One executed step, for post-mortem inspection of a run.
#[derive(Debug, Clone)]
pub struct TraceEntry<S: Semiring> {
    /// 0-based step index.
    pub step: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Description of the action (e.g. `tell(c4)`).
    pub note: String,
    /// The store consistency `σ ⇓ ∅` after the step.
    pub consistency: S::Value,
    /// How many transitions were enabled when this one was chosen.
    pub enabled: usize,
    /// Who caused the step.
    pub origin: EntryOrigin,
}

/// The terminal state of a run.
#[derive(Debug, Clone)]
pub enum Outcome<S: Semiring> {
    /// Every agent reached `success`.
    Success {
        /// The final store.
        store: Store<S>,
    },
    /// No transition is enabled but agents remain: the configuration
    /// is suspended forever (a failed negotiation, in the paper's
    /// reading).
    Deadlock {
        /// The store at the deadlock.
        store: Store<S>,
        /// The suspended residual agent.
        agent: Agent<S>,
    },
    /// The step budget ran out (e.g. a livelock of asks and retracts).
    OutOfFuel {
        /// The store when the budget ran out.
        store: Store<S>,
        /// The residual agent.
        agent: Agent<S>,
    },
    /// The session deadline passed before the agents finished: the
    /// virtual clock (driven by transitions and retry suspensions)
    /// crossed [`crate::RecoveryPolicy::deadline`] with agents still
    /// pending. Unlike `OutOfFuel` — an interpreter budget — this is a
    /// *negotiated* bound: the client declared how long the session
    /// may take, and a retry schedule is never allowed to sleep past
    /// it.
    DeadlineExceeded {
        /// The store when the deadline passed.
        store: Store<S>,
        /// The residual agent.
        agent: Agent<S>,
    },
}

impl<S: Semiring> Outcome<S> {
    /// Whether the run terminated with `success`.
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Success { .. })
    }

    /// A short, residual-free name for metric labels.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Outcome::Success { .. } => "success",
            Outcome::Deadlock { .. } => "deadlock",
            Outcome::OutOfFuel { .. } => "out_of_fuel",
            Outcome::DeadlineExceeded { .. } => "deadline_exceeded",
        }
    }

    /// The store carried by any outcome.
    pub fn store(&self) -> &Store<S> {
        match self {
            Outcome::Success { store }
            | Outcome::Deadlock { store, .. }
            | Outcome::OutOfFuel { store, .. }
            | Outcome::DeadlineExceeded { store, .. } => store,
        }
    }
}

impl<S: Semiring> std::fmt::Display for Outcome<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::Success { .. } => write!(f, "SUCCESS"),
            Outcome::Deadlock { agent, .. } => write!(f, "DEADLOCK (residual: {agent})"),
            Outcome::OutOfFuel { agent, .. } => write!(f, "OUT OF FUEL (residual: {agent})"),
            Outcome::DeadlineExceeded { agent, .. } => {
                write!(f, "DEADLINE EXCEEDED (residual: {agent})")
            }
        }
    }
}

/// The full report of a run: outcome, step count and trace.
#[derive(Debug, Clone)]
pub struct RunReport<S: Semiring> {
    /// The terminal state.
    pub outcome: Outcome<S>,
    /// Number of executed transitions.
    pub steps: usize,
    /// The executed transitions, in order.
    pub trace: Vec<TraceEntry<S>>,
}

impl<S: Semiring> RunReport<S> {
    /// The consistency level `σ ⇓ ∅` of the final store, whatever the
    /// outcome — the single number the paper uses to judge a
    /// negotiation.
    ///
    /// # Errors
    ///
    /// Returns [`crate::StoreError`] if a variable of the store's
    /// scope has no declared domain.
    pub fn final_consistency(&self) -> Result<S::Value, crate::StoreError> {
        self.outcome.store().consistency()
    }
}

/// Lets callers that take either report read the plain run (see the
/// resilient report's impl).
impl<S: Semiring> AsRef<RunReport<S>> for RunReport<S> {
    fn as_ref(&self) -> &RunReport<S> {
        self
    }
}

/// Replays a finished run into `telemetry`: per-rule and per-origin
/// transition counts, the consistency-level time series (indexed by
/// step), the enabled-transition fan-out distribution, the step total
/// and the outcome tally. All derived from the existing trace, so
/// instrumentation costs the run itself one branch.
pub(crate) fn emit_run<S: Semiring>(telemetry: &Telemetry, report: &RunReport<S>) {
    if !telemetry.enabled() {
        return;
    }
    telemetry.incr("nmsccp.runs");
    telemetry.count_labeled("nmsccp.outcome", report.outcome.label(), 1);
    telemetry.count("nmsccp.steps", report.steps as u64);
    for entry in &report.trace {
        telemetry.count_labeled("nmsccp.rule", &entry.rule.to_string(), 1);
        telemetry.count_labeled("nmsccp.origin", &entry.origin.to_string(), 1);
        telemetry.observe("nmsccp.enabled_transitions", entry.enabled as u64);
        telemetry.series(
            "nmsccp.consistency",
            entry.step as u64,
            format!("{:?}", entry.consistency),
        );
    }
}

/// A sequential interpreter executing an agent against a store.
///
/// # Examples
///
/// Example 1 of the paper — providers P1 and P2 merge their policies
/// and P2's final interval check fails, so the run deadlocks:
///
/// ```
/// use softsoa_nmsccp::{Agent, Interpreter, Interval, Program, Store};
/// use softsoa_core::{Constraint, Domain, Domains};
/// use softsoa_semiring::WeightedInt;
///
/// let doms = Domains::new().with("x", Domain::ints(0..=10));
/// let c4 = Constraint::unary(WeightedInt, "x", |v| v.as_int().unwrap() as u64 + 5);
/// let c3 = Constraint::unary(WeightedInt, "x", |v| 2 * v.as_int().unwrap() as u64);
///
/// let p1 = Agent::tell(c4, Interval::any(&WeightedInt), Agent::success());
/// let p2 = Agent::tell(c3, Interval::any(&WeightedInt),
///     // ask(1̄) →^1_4: succeed only if the merged store needs 1–4 hours
///     Agent::ask(Constraint::always(WeightedInt), Interval::levels(4u64, 1u64),
///         Agent::success()));
///
/// let report = Interpreter::new(Program::new())
///     .run(Agent::par(p1, p2), Store::empty(WeightedInt, doms))?;
/// assert!(!report.outcome.is_success()); // σ⇓∅ = 5 ∉ [1, 4]
/// # Ok::<(), softsoa_nmsccp::SemanticsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Interpreter<S: Semiring> {
    program: Program<S>,
    policy: Policy,
    max_steps: usize,
    telemetry: Telemetry,
}

impl<S: Residuated> Interpreter<S> {
    /// Creates an interpreter with the [`Policy::First`] policy and a
    /// budget of 10 000 steps.
    pub fn new(program: Program<S>) -> Interpreter<S> {
        Interpreter {
            program,
            policy: Policy::First,
            max_steps: 10_000,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Sets the scheduling policy.
    pub fn with_policy(mut self, policy: Policy) -> Interpreter<S> {
        self.policy = policy;
        self
    }

    /// Sets the step budget.
    pub fn with_max_steps(mut self, max_steps: usize) -> Interpreter<S> {
        self.max_steps = max_steps;
        self
    }

    /// Attaches a telemetry handle; each finished run is replayed
    /// into it (per-rule counts, consistency series, outcome tally).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Interpreter<S> {
        self.telemetry = telemetry;
        self
    }

    /// Runs `agent` to termination, deadlock or fuel exhaustion.
    ///
    /// # Errors
    ///
    /// Returns [`SemanticsError`] on missing domains, unknown
    /// procedures, arity mismatches or unproductive recursion.
    pub fn run(&self, agent: Agent<S>, store: Store<S>) -> Result<RunReport<S>, SemanticsError> {
        let run = StepLoop {
            program: &self.program,
            policy: self.policy,
            max_steps: self.max_steps,
            schedule: Vec::new(),
            recovery: None,
            telemetry: &self.telemetry,
        }
        .run(agent, store)?;
        emit_run(&self.telemetry, &run.report);
        Ok(run.report)
    }
}

/// An event the step loop fires before the transition of its step: an
/// environment action of a timed run ([`crate::TimedEvent`]) or an
/// injected fault of a resilient one ([`crate::FaultEvent`]). Each
/// firing takes one step and leaves one trace entry.
pub(crate) enum Event<'p, S: Semiring> {
    /// A scheduled `tell`/`retract` of the environment.
    Timed(&'p TimedAction<S>),
    /// A fault.
    Fault(&'p FaultAction<S>),
}

/// What firing an event did.
pub(crate) struct Fired {
    /// The rule its trace entry carries.
    pub(crate) rule: Rule,
    /// Its trace note.
    pub(crate) note: String,
    /// Whether it applied or was skipped.
    pub(crate) status: FaultStatus,
    /// Whether the store changed (the invariant is then re-checked).
    pub(crate) mutated: bool,
    /// Whether it swallows the next chosen transition.
    pub(crate) drops_next: bool,
}

/// The one sequential step loop: [`Interpreter`], [`TimedInterpreter`]
/// and [`ResilientInterpreter`] are configurations of it.
///
/// At each step it fires the events due, then lists the enabled
/// [`moves`], picks one under `policy` and builds only that move's
/// successor; a dropped transition builds nothing. With a `recovery`
/// policy a blocked configuration retries and relaxes, and the
/// declared interval is kept by checkpoint and rollback.
///
/// [`TimedInterpreter`]: crate::TimedInterpreter
/// [`ResilientInterpreter`]: crate::ResilientInterpreter
pub(crate) struct StepLoop<'p, S: Semiring> {
    pub(crate) program: &'p Program<S>,
    pub(crate) policy: Policy,
    pub(crate) max_steps: usize,
    /// `(declaration index, step, event)`, sorted by step, then index.
    pub(crate) schedule: Vec<(usize, usize, Event<'p, S>)>,
    pub(crate) recovery: Option<&'p RecoveryPolicy<S>>,
    pub(crate) telemetry: &'p Telemetry,
}

/// What the step loop leaves behind: the run report, the fate of every
/// event that fired, and the recovery counters.
pub(crate) struct Run<S: Semiring> {
    pub(crate) report: RunReport<S>,
    /// `(declaration index, status)` in firing order.
    pub(crate) log: Vec<(usize, FaultStatus)>,
    pub(crate) dropped_transitions: usize,
    pub(crate) retries: usize,
    pub(crate) rollbacks: usize,
    pub(crate) relaxations: usize,
    pub(crate) violations: usize,
}

impl<'p, S: Residuated> StepLoop<'p, S> {
    /// Sorts `(declaration index, step, event)` triples into a
    /// schedule: by step, and in declaration order within a step.
    pub(crate) fn schedule(
        events: impl IntoIterator<Item = (usize, usize, Event<'p, S>)>,
    ) -> Vec<(usize, usize, Event<'p, S>)> {
        let mut schedule: Vec<_> = events.into_iter().collect();
        schedule.sort_by_key(|&(index, at_step, _)| (at_step, index));
        schedule
    }

    /// Runs `agent` on `store` to success, deadlock, fuel exhaustion
    /// or the session deadline.
    pub(crate) fn run(&self, agent: Agent<S>, store: Store<S>) -> Result<Run<S>, SemanticsError> {
        let mut rng = match self.policy {
            Policy::First | Policy::RoundRobin => None,
            Policy::Random(seed) => Some(StdRng::seed_from_u64(seed)),
        };
        let mut fresh = FreshGen::new();
        let mut agent = agent.normalize();
        let mut store = store;
        let mut trace = Vec::new();
        let mut steps = 0usize;
        let mut next_event = 0usize;
        let mut log = Vec::new();
        let mut dropped_transitions = 0usize;
        let mut retries = 0usize;
        let mut retry_attempt = 0usize;
        let mut drop_pending = false;
        let mut rec = RecoveryState::new(self.recovery);

        // Arm the initial checkpoint if the empty-run store already
        // satisfies the invariant.
        rec.ensure_invariant(&mut agent, &mut store, &mut steps, &mut trace, true)?;

        let outcome = loop {
            // 1. Fire due events (each costs a step).
            while let Some((index, at_step, event)) = self.schedule.get(next_event) {
                if *at_step > steps {
                    break;
                }
                next_event += 1;
                let (fired, origin) = match event {
                    Event::Timed(action) => (action.fire(&mut store)?, EntryOrigin::Environment),
                    Event::Fault(action) => {
                        (action.fire(&mut agent, &mut store)?, EntryOrigin::Fault)
                    }
                };
                drop_pending |= fired.drops_next;
                trace.push(TraceEntry {
                    step: steps,
                    rule: fired.rule,
                    note: fired.note,
                    consistency: store.consistency()?,
                    enabled: 0,
                    origin,
                });
                log.push((*index, fired.status));
                steps += 1;
                if fired.mutated {
                    rec.ensure_invariant(&mut agent, &mut store, &mut steps, &mut trace, false)?;
                }
            }

            if agent.is_success() {
                break Outcome::Success { store };
            }
            if self
                .recovery
                .and_then(|r| r.deadline)
                .is_some_and(|d| steps >= d)
            {
                break Outcome::DeadlineExceeded { store, agent };
            }
            if steps >= self.max_steps {
                break Outcome::OutOfFuel { store, agent };
            }

            // 2. Choose a move, then build only that one.
            let taken = {
                let mut moves = moves(self.program, &agent, &store, &mut fresh)?;
                let count = moves.len();
                if count == 0 {
                    None
                } else {
                    let index = match (&self.policy, &mut rng) {
                        (Policy::RoundRobin, _) => steps % count,
                        (_, Some(rng)) => rng.random_range(0..count),
                        _ => 0,
                    };
                    let chosen = moves.swap_remove(index);
                    if drop_pending {
                        // The armed fault swallows the chosen transition:
                        // nothing is built and the configuration does
                        // not move.
                        drop_pending = false;
                        dropped_transitions += 1;
                        trace.push(TraceEntry {
                            step: steps,
                            rule: chosen.rule(),
                            note: chosen.note("fault: dropped "),
                            consistency: store.consistency()?,
                            enabled: count,
                            origin: EntryOrigin::Fault,
                        });
                        steps += 1;
                        continue;
                    }
                    Some((chosen.build(&store)?, count))
                }
            };
            let Some((taken, count)) = taken else {
                if let Some((_, at_step, _)) = self.schedule.get(next_event) {
                    // Suspended, but events still pend: advance the clock
                    // to the next one — it may unblock us.
                    steps = steps.max(*at_step);
                    continue;
                }
                let Some(recovery) = self.recovery else {
                    break Outcome::Deadlock { store, agent };
                };
                if retry_attempt < recovery.max_retries {
                    retry_attempt += 1;
                    retries += 1;
                    let wait = recovery.retry_wait(retry_attempt, steps);
                    self.telemetry
                        .observe("nmsccp.recovery.backoff_wait", wait as u64);
                    steps = steps.saturating_add(wait);
                    trace.push(TraceEntry {
                        step: steps,
                        rule: Rule::Ask,
                        note: format!(
                            "recovery: retry {retry_attempt} after {wait}-step suspension"
                        ),
                        consistency: store.consistency()?,
                        enabled: 0,
                        origin: EntryOrigin::Recovery,
                    });
                    continue;
                }
                // Retries exhausted: degrade gracefully, one rung at a
                // time, with a fresh retry budget per rung.
                if rec.apply_next_rung(&mut store, &mut steps, &mut trace)? {
                    retry_attempt = 0;
                    continue;
                }
                break Outcome::Deadlock { store, agent };
            };
            trace.push(TraceEntry {
                step: steps,
                rule: taken.rule,
                note: taken.note,
                consistency: taken.store.consistency()?,
                enabled: count,
                origin: EntryOrigin::Agent,
            });
            agent = taken.agent.normalize();
            store = taken.store;
            steps += 1;
            retry_attempt = 0;
            rec.ensure_invariant(&mut agent, &mut store, &mut steps, &mut trace, true)?;
        };
        Ok(Run {
            report: RunReport {
                outcome,
                steps,
                trace,
            },
            log,
            dropped_transitions,
            retries,
            rollbacks: rec.rollbacks,
            relaxations: rec.relaxations,
            violations: rec.violations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interval;
    use softsoa_core::{Assignment, Constraint, Domain, Domains, Var};
    use softsoa_semiring::WeightedInt;

    fn doms() -> Domains {
        Domains::new().with("x", Domain::ints(0..=10))
    }

    fn linear(a: u64, b: u64, name: &str) -> Constraint<WeightedInt> {
        Constraint::unary(WeightedInt, "x", move |v| {
            a * v.as_int().unwrap() as u64 + b
        })
        .with_label(name)
    }

    fn any() -> Interval<WeightedInt> {
        Interval::any(&WeightedInt)
    }

    /// Example 1: merged policies cost 5 hours minimum; P2's final
    /// interval [1, 4] rejects the store → no shared agreement.
    #[test]
    fn example1_no_agreement() {
        let sp1 = linear(0, 0, "sp1"); // synchronisation constraints are
        let sp2 = linear(0, 0, "sp2"); // zero-cost (pure signals)
        let p1 = Agent::tell(
            linear(1, 5, "c4"),
            any(),
            Agent::tell(
                sp2.clone(),
                any(),
                Agent::ask(sp1.clone(), Interval::levels(10u64, 2u64), Agent::success()),
            ),
        );
        let p2 = Agent::tell(
            linear(2, 0, "c3"),
            any(),
            Agent::tell(
                sp1,
                any(),
                Agent::ask(sp2, Interval::levels(4u64, 1u64), Agent::success()),
            ),
        );
        let report = Interpreter::new(Program::new())
            .run(Agent::par(p1, p2), Store::empty(WeightedInt, doms()))
            .unwrap();
        match &report.outcome {
            Outcome::Deadlock { store, .. } => {
                assert_eq!(store.consistency().unwrap(), 5);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    /// Example 2: retracting c1 relaxes the store to 2x + 2, level 2,
    /// inside both intervals → both providers succeed.
    #[test]
    fn example2_agreement_after_retract() {
        let p1 = Agent::tell(
            linear(1, 5, "c4"),
            any(),
            Agent::retract(
                linear(1, 3, "c1"),
                Interval::levels(10u64, 2u64),
                Agent::success(),
            ),
        );
        let p2 = Agent::tell(
            linear(2, 0, "c3"),
            any(),
            Agent::ask(
                Constraint::always(WeightedInt),
                Interval::levels(4u64, 1u64),
                Agent::success(),
            ),
        );
        // P1 then P2's ask: with the First policy, P1's tell and
        // retract run before P2's ask can see the relaxed store; use
        // the parallel order (P1 ‖ P2) and let the scheduler find it.
        let report = Interpreter::new(Program::new())
            .with_policy(Policy::Random(7))
            .run(Agent::par(p1, p2), Store::empty(WeightedInt, doms()))
            .unwrap();
        // The run may deadlock under unlucky schedules (ask before
        // retract with level 5 ∉ [1,4] suspends, then retract enables
        // it again) — ask is re-evaluated, so success must eventually
        // happen.
        match &report.outcome {
            Outcome::Success { store } => {
                assert_eq!(store.consistency().unwrap(), 2);
                let eta = Assignment::new().bind("x", 4);
                assert_eq!(store.sigma().eval(&eta), 10); // 2·4 + 2
            }
            other => panic!("expected success, got {other:?}"),
        }
    }

    /// Example 3: update{x}(c2) refreshes x and leaves the store y + 4.
    #[test]
    fn example3_update() {
        let doms = Domains::new()
            .with("x", Domain::ints(0..=10))
            .with("y", Domain::ints(0..=10));
        let c1 = linear(1, 3, "c1");
        let c2 = Constraint::unary(WeightedInt, "y", |v| v.as_int().unwrap() as u64 + 1)
            .with_label("c2");
        let agent = Agent::tell(
            c1,
            any(),
            Agent::update([Var::new("x")], c2, any(), Agent::success()),
        );
        let report = Interpreter::new(Program::new())
            .run(agent, Store::empty(WeightedInt, doms))
            .unwrap();
        match &report.outcome {
            Outcome::Success { store } => {
                assert_eq!(store.consistency().unwrap(), 4);
                assert!(!store.sigma().scope().contains(&Var::new("x")));
            }
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn trace_records_rules_and_levels() {
        let agent = Agent::tell(linear(1, 1, "c"), any(), Agent::success());
        let report = Interpreter::new(Program::new())
            .run(agent, Store::empty(WeightedInt, doms()))
            .unwrap();
        assert_eq!(report.steps, 1);
        assert_eq!(report.trace.len(), 1);
        assert_eq!(report.trace[0].rule, Rule::Tell);
        assert_eq!(report.trace[0].consistency, 1);
        assert!(report.trace[0].note.contains("c"));
    }

    #[test]
    fn fuel_exhaustion_on_livelock() {
        // p :: tell(1̄) → p  — productive but never terminating.
        let program: Program<WeightedInt> = Program::new().with_clause(
            "p",
            [],
            Agent::tell(
                Constraint::always(WeightedInt).with_label("1"),
                any(),
                Agent::call("p", []),
            ),
        );
        let report = Interpreter::new(program)
            .with_max_steps(50)
            .run(Agent::call("p", []), Store::empty(WeightedInt, doms()))
            .unwrap();
        assert!(matches!(report.outcome, Outcome::OutOfFuel { .. }));
        assert_eq!(report.steps, 50);
    }

    #[test]
    fn round_robin_is_fair_and_deterministic() {
        // Two branches both enabled: round-robin alternates between
        // them, so the second branch's tell lands before the first
        // branch finishes its chain.
        let chain = |tag: u64| {
            Agent::tell(
                linear(0, tag, "a"),
                any(),
                Agent::tell(linear(0, tag, "b"), any(), Agent::success()),
            )
        };
        let run = || {
            Interpreter::new(Program::new())
                .with_policy(Policy::RoundRobin)
                .run(
                    Agent::par(chain(1), chain(2)),
                    Store::empty(WeightedInt, doms()),
                )
                .unwrap()
        };
        let a = run();
        let b = run();
        assert!(a.outcome.is_success());
        let notes: Vec<&str> = a.trace.iter().map(|t| t.note.as_str()).collect();
        assert_eq!(
            notes,
            b.trace.iter().map(|t| t.note.as_str()).collect::<Vec<_>>()
        );
        assert_eq!(a.outcome.store().consistency().unwrap(), 6);
    }

    #[test]
    fn random_policy_is_reproducible() {
        let mk = || {
            Agent::par(
                Agent::tell(linear(0, 1, "a"), any(), Agent::success()),
                Agent::tell(linear(0, 2, "b"), any(), Agent::success()),
            )
        };
        let run = |seed| {
            Interpreter::new(Program::new())
                .with_policy(Policy::Random(seed))
                .run(mk(), Store::empty(WeightedInt, doms()))
                .unwrap()
                .trace
                .iter()
                .map(|t| t.note.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
    }
}
