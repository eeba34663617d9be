//! Deterministic fault injection and recovery for `nmsccp` runs.
//!
//! Sec. 5 of the paper motivates the checked transitions C1–C4 with a
//! module that "could take on any behaviour": dependability means the
//! negotiation keeps its store inside a declared interval *while the
//! environment misbehaves*. This module makes that story executable.
//! A [`FaultPlan`] is a step-indexed schedule of faults — the chaos
//! counterpart of the timed tells/retracts in [`crate::TimedEvent`] —
//! injected *during* interpretation, and a [`RecoveryPolicy`] gives
//! the runtime four ways to survive them:
//!
//! - **guard deadlines + bounded retry** — a starved `ask` suspends
//!   for a step budget and retries with deterministic exponential
//!   backoff instead of deadlocking immediately;
//! - **checkpoint/rollback** — the last `(agent, store)` pair that
//!   satisfied the declared interval is restored when a mutation
//!   leaves the interval;
//! - **graceful degradation** — a retract-based relaxation ladder is
//!   consumed rung by rung (residuation `÷`, Example 2 of the paper)
//!   until the interval is re-entered or a blocked run unblocks;
//! - **replayable traces** — every fault and every recovery action is
//!   a [`TraceEntry`] with a [`EntryOrigin::Fault`] or
//!   [`EntryOrigin::Recovery`] origin, so a fixed seed reproduces the
//!   run bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use softsoa_core::Constraint;
use softsoa_semiring::{Residuated, Semiring};
use softsoa_telemetry::Telemetry;

use crate::agent::{label, unshared};
use crate::interp::{emit_run, Event, Fired, StepLoop};
use crate::semantics::{Rule, SemanticsError};
use crate::{
    Agent, EntryOrigin, Interval, Policy, Program, RunReport, Store, StoreError, TraceEntry,
};

/// A fault the environment can inject into a running configuration.
#[derive(Debug, Clone)]
pub enum FaultAction<S: Semiring> {
    /// Silently swallow the next chosen transition: the scheduler
    /// picks it, the trace records it as dropped, the configuration
    /// does not move (a lost message).
    DropTransition,
    /// Tell an adversarial constraint into the store (a corrupted
    /// policy, Sec. 5's "any behaviour" module).
    Corrupt(Constraint<S>),
    /// Worsen every level of the store uniformly by the given semiring
    /// value ([`Store::attenuate`]) — a provider-wide quality loss.
    Degrade(S::Value),
    /// Replace the `i mod n`-th parallel branch (of `n` leaves) with
    /// `success`, silencing it forever (a crashed provider). Skipped
    /// when the agent has no parallel branch.
    CrashBranch(usize),
    /// Retract a told policy from the store (rule R7) — the dual of
    /// [`FaultAction::Corrupt`]. Skipped when the store does not
    /// entail the constraint.
    Unconstrain(Constraint<S>),
}

/// A scheduled fault: *at* the given interpreter step, inject the
/// action. Events at step `k` fire before the `k`-th transition, and
/// each firing consumes one step, exactly like [`crate::TimedEvent`].
#[derive(Debug, Clone)]
pub struct FaultEvent<S: Semiring> {
    /// The step count at which the fault fires.
    pub at_step: usize,
    /// The fault to inject.
    pub action: FaultAction<S>,
}

/// What happened to a scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStatus {
    /// The fault was injected.
    Applied,
    /// An [`FaultAction::Unconstrain`] was skipped because the store
    /// did not entail the constraint at fire time.
    SkippedNotEntailed,
    /// A [`FaultAction::CrashBranch`] was skipped because the agent
    /// had no parallel branch to crash.
    SkippedNoBranch,
}

/// The kinds of faults a seeded [`FaultPlan`] may draw from.
///
/// An empty palette generates no faults regardless of the rate.
#[derive(Debug, Clone)]
pub struct FaultPalette<S: Semiring> {
    /// Constraints available to [`FaultAction::Corrupt`].
    pub corruptions: Vec<Constraint<S>>,
    /// Values available to [`FaultAction::Degrade`].
    pub degradations: Vec<S::Value>,
    /// Constraints available to [`FaultAction::Unconstrain`].
    pub retractions: Vec<Constraint<S>>,
    /// Whether [`FaultAction::DropTransition`] may be drawn.
    pub drop_transitions: bool,
    /// Whether [`FaultAction::CrashBranch`] may be drawn.
    pub crash_branches: bool,
}

impl<S: Semiring> Default for FaultPalette<S> {
    fn default() -> FaultPalette<S> {
        FaultPalette {
            corruptions: Vec::new(),
            degradations: Vec::new(),
            retractions: Vec::new(),
            drop_transitions: false,
            crash_branches: false,
        }
    }
}

/// A deterministic, replayable schedule of faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan<S: Semiring> {
    events: Vec<FaultEvent<S>>,
}

impl<S: Semiring> FaultPlan<S> {
    /// A plan with no faults.
    pub fn none() -> FaultPlan<S> {
        FaultPlan { events: Vec::new() }
    }

    /// Creates a plan from explicit events.
    pub fn new(events: Vec<FaultEvent<S>>) -> FaultPlan<S> {
        FaultPlan { events }
    }

    /// Draws a plan from a seed: at every step below `horizon` a fault
    /// fires with probability `rate`, its kind and payload picked
    /// uniformly from the palette. The same `(seed, horizon, rate,
    /// palette)` always yields the same plan.
    pub fn seeded(seed: u64, horizon: usize, rate: f64, palette: &FaultPalette<S>) -> FaultPlan<S> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for at_step in 0..horizon {
            if rng.random::<f64>() >= rate {
                continue;
            }
            let mut actions: Vec<FaultAction<S>> = Vec::new();
            if palette.drop_transitions {
                actions.push(FaultAction::DropTransition);
            }
            if !palette.corruptions.is_empty() {
                let i = rng.random_range(0..palette.corruptions.len());
                actions.push(FaultAction::Corrupt(palette.corruptions[i].clone()));
            }
            if !palette.degradations.is_empty() {
                let i = rng.random_range(0..palette.degradations.len());
                actions.push(FaultAction::Degrade(palette.degradations[i].clone()));
            }
            if !palette.retractions.is_empty() {
                let i = rng.random_range(0..palette.retractions.len());
                actions.push(FaultAction::Unconstrain(palette.retractions[i].clone()));
            }
            if palette.crash_branches {
                actions.push(FaultAction::CrashBranch(rng.random_range(0..8)));
            }
            if actions.is_empty() {
                continue;
            }
            let pick = rng.random_range(0..actions.len());
            events.push(FaultEvent {
                at_step,
                action: actions.swap_remove(pick),
            });
        }
        FaultPlan { events }
    }

    /// The scheduled events, in declaration order.
    pub fn events(&self) -> &[FaultEvent<S>] {
        &self.events
    }

    /// The number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// How the runtime recovers from suspensions and interval violations.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy<S: Semiring> {
    /// How many steps a blocked configuration idles before each retry
    /// (the per-guard deadline that turns a starved `ask` into a
    /// recoverable suspension).
    pub guard_deadline: usize,
    /// How many retries a blocked configuration gets before the
    /// relaxation ladder is consulted. The budget resets whenever a
    /// transition or a relaxation makes progress.
    pub max_retries: usize,
    /// Base of the deterministic exponential backoff: retry `n` idles
    /// `guard_deadline + backoff_base · 2ⁿ⁻¹` steps.
    pub backoff_base: usize,
    /// The relaxation ladder: constraints retracted one rung at a time
    /// (weakest contribution first) to unblock a deadlocked run or
    /// re-enter a violated interval. Rungs the store does not entail
    /// are skipped.
    pub relaxations: Vec<Constraint<S>>,
    /// The dependability interval (C1–C4) the store must stay inside.
    /// `None` disables checkpointing and rollback.
    pub invariant: Option<Interval<S>>,
    /// Absolute session deadline on the virtual step clock. A retry is
    /// never allowed to sleep past it: the idle wait is clamped to the
    /// steps remaining, and once the clock reaches the deadline with
    /// agents still pending the run ends with
    /// [`Outcome::DeadlineExceeded`](crate::Outcome::DeadlineExceeded)
    /// instead of retrying into a dead session. `None` leaves the
    /// session unbounded (the `max_steps` fuel budget still applies).
    pub deadline: Option<usize>,
}

impl<S: Semiring> Default for RecoveryPolicy<S> {
    fn default() -> RecoveryPolicy<S> {
        RecoveryPolicy {
            guard_deadline: 4,
            max_retries: 3,
            backoff_base: 2,
            relaxations: Vec::new(),
            invariant: None,
            deadline: None,
        }
    }
}

/// The report of a resilient run: the usual [`RunReport`] plus the
/// fate of every fault and the recovery counters.
#[derive(Debug, Clone)]
pub struct ResilienceReport<S: Semiring> {
    /// The underlying run report (outcome, steps, full trace —
    /// including fault and recovery entries).
    pub report: RunReport<S>,
    /// `(event index, status)` for every fault that fired, in firing
    /// order. Indices refer to [`FaultPlan::events`].
    pub fault_log: Vec<(usize, FaultStatus)>,
    /// How many faults were actually injected (status `Applied`).
    pub faults_injected: usize,
    /// How many chosen transitions a [`FaultAction::DropTransition`]
    /// swallowed.
    pub dropped_transitions: usize,
    /// How many retries a blocked configuration consumed.
    pub retries: usize,
    /// How many rollbacks to a checkpoint were performed.
    pub rollbacks: usize,
    /// How many relaxation rungs were retracted.
    pub relaxations_applied: usize,
    /// How many times the declared interval was violated (recovered or
    /// not).
    pub invariant_violations: usize,
    /// The consistency level `σ ⇓ ∅` of the final store.
    pub final_consistency: S::Value,
}

impl<S: Semiring> ResilienceReport<S> {
    /// Whether the run terminated with `success`.
    pub fn is_success(&self) -> bool {
        self.report.outcome.is_success()
    }
}

/// A resilient run read as its underlying plain run (outcome, steps,
/// trace).
impl<S: Semiring> AsRef<RunReport<S>> for ResilienceReport<S> {
    fn as_ref(&self) -> &RunReport<S> {
        &self.report
    }
}

impl<S: Semiring> RecoveryPolicy<S> {
    /// The idle wait of retry `attempt` (from 1) at step `steps`:
    /// `guard_deadline + backoff_base · 2^(attempt−1)`, saturating at
    /// [`MAX_RETRY_WAIT`] (a `1 << attempt` shift is otherwise
    /// undefined past 63 attempts), and never sleeping past the
    /// session deadline: the final wait is clamped to the steps
    /// remaining, and the step loop then ends the run with
    /// `DeadlineExceeded` if the retry still finds the configuration
    /// blocked.
    pub(crate) fn retry_wait(&self, attempt: usize, steps: usize) -> usize {
        let exp = u32::try_from(attempt - 1).unwrap_or(u32::MAX);
        let base = self.backoff_base;
        let backoff = if base == 0 || exp <= base.leading_zeros() {
            base.checked_shl(exp).unwrap_or(usize::MAX)
        } else {
            usize::MAX
        };
        let wait = self
            .guard_deadline
            .saturating_add(backoff)
            .min(MAX_RETRY_WAIT);
        match self.deadline {
            Some(deadline) => wait.min(deadline.saturating_sub(steps)),
            None => wait,
        }
    }
}

/// Tracks checkpoint, ladder position and recovery counters during a
/// run of the step loop; without a [`RecoveryPolicy`] it does nothing.
pub(crate) struct RecoveryState<'p, S: Semiring> {
    policy: Option<&'p RecoveryPolicy<S>>,
    checkpoint: Option<(Agent<S>, Store<S>)>,
    next_rung: usize,
    pub(crate) rollbacks: usize,
    pub(crate) relaxations: usize,
    pub(crate) violations: usize,
    unrecovered_logged: bool,
}

impl<'p, S: Residuated> RecoveryState<'p, S> {
    pub(crate) fn new(policy: Option<&'p RecoveryPolicy<S>>) -> RecoveryState<'p, S> {
        RecoveryState {
            policy,
            checkpoint: None,
            next_rung: 0,
            rollbacks: 0,
            relaxations: 0,
            violations: 0,
            unrecovered_logged: false,
        }
    }

    /// Retracts the next entailed rung of the ladder, if any.
    pub(crate) fn apply_next_rung(
        &mut self,
        store: &mut Store<S>,
        steps: &mut usize,
        trace: &mut Vec<TraceEntry<S>>,
    ) -> Result<bool, SemanticsError> {
        let Some(recovery) = self.policy else {
            return Ok(false);
        };
        while let Some(rung) = recovery.relaxations.get(self.next_rung) {
            self.next_rung += 1;
            match store.retract(rung) {
                Ok(next) => {
                    *store = next;
                    self.relaxations += 1;
                    trace.push(TraceEntry {
                        step: *steps,
                        rule: Rule::Retract,
                        note: ["recovery: relax(", label(rung), ")"].concat(),
                        consistency: store.consistency()?,
                        enabled: 0,
                        origin: EntryOrigin::Recovery,
                    });
                    *steps += 1;
                    return Ok(true);
                }
                Err(StoreError::NotEntailed) => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(false)
    }

    /// Checks the declared interval after a mutation. On a pass with
    /// `arm_checkpoint`, records the state as the rollback target. On
    /// a violation: restore the checkpoint if one is armed, otherwise
    /// relax rung by rung until the interval is re-entered, otherwise
    /// record (once) that the violation is unrecoverable and carry on.
    pub(crate) fn ensure_invariant(
        &mut self,
        agent: &mut Agent<S>,
        store: &mut Store<S>,
        steps: &mut usize,
        trace: &mut Vec<TraceEntry<S>>,
        arm_checkpoint: bool,
    ) -> Result<(), SemanticsError> {
        let Some(interval) = self.policy.and_then(|r| r.invariant.as_ref()) else {
            return Ok(());
        };
        if interval.check(store)? {
            if arm_checkpoint {
                self.checkpoint = Some((agent.clone(), store.clone()));
            }
            return Ok(());
        }
        self.violations += 1;
        if let Some((ck_agent, ck_store)) = self.checkpoint.take() {
            *agent = ck_agent;
            *store = ck_store;
            self.rollbacks += 1;
            trace.push(TraceEntry {
                step: *steps,
                rule: Rule::Update,
                note: "recovery: rollback to last checkpoint inside the interval".to_string(),
                consistency: store.consistency()?,
                enabled: 0,
                origin: EntryOrigin::Recovery,
            });
            *steps += 1;
            return Ok(());
        }
        loop {
            if interval.check(store)? {
                return Ok(());
            }
            if !self.apply_next_rung(store, steps, trace)? {
                if !self.unrecovered_logged {
                    self.unrecovered_logged = true;
                    trace.push(TraceEntry {
                        step: *steps,
                        rule: Rule::Ask,
                        note: "recovery: interval violated, no recovery available".to_string(),
                        consistency: store.consistency()?,
                        enabled: 0,
                        origin: EntryOrigin::Recovery,
                    });
                    *steps += 1;
                }
                return Ok(());
            }
        }
    }
}

impl<S: Residuated> FaultAction<S> {
    /// Injects the fault into `⟨agent, store⟩`.
    pub(crate) fn fire(
        &self,
        agent: &mut Agent<S>,
        store: &mut Store<S>,
    ) -> Result<Fired, SemanticsError> {
        use FaultStatus::{Applied, SkippedNoBranch, SkippedNotEntailed};
        let (status, rule, note, mutated) = match self {
            FaultAction::DropTransition => (
                Applied,
                Rule::Tell,
                "fault: drop next transition".to_string(),
                false,
            ),
            FaultAction::Corrupt(c) => {
                *store = store.tell(c)?;
                let note = ["fault: corrupt(", label(c), ")"].concat();
                (Applied, Rule::Tell, note, true)
            }
            FaultAction::Degrade(v) => {
                *store = store.attenuate(v)?;
                (Applied, Rule::Tell, format!("fault: degrade({v:?})"), true)
            }
            FaultAction::CrashBranch(i) => {
                let leaves = par_leaf_count(agent);
                if leaves <= 1 {
                    let note = "fault: crash branch skipped (no parallel branch)".to_string();
                    (SkippedNoBranch, Rule::Tell, note, false)
                } else {
                    let target = i % leaves;
                    let crashed = crash_leaf(std::mem::replace(agent, Agent::Success), target);
                    *agent = crashed.normalize();
                    let note = format!("fault: crash branch {target} of {leaves}");
                    (Applied, Rule::Tell, note, false)
                }
            }
            FaultAction::Unconstrain(c) => match store.retract(c) {
                Ok(next) => {
                    *store = next;
                    let note = ["fault: unconstrain(", label(c), ")"].concat();
                    (Applied, Rule::Retract, note, true)
                }
                Err(StoreError::NotEntailed) => {
                    let note = ["fault: unconstrain(", label(c), ") skipped"].concat();
                    (SkippedNotEntailed, Rule::Retract, note, false)
                }
                Err(e) => return Err(e.into()),
            },
        };
        Ok(Fired {
            rule,
            note,
            status,
            mutated,
            drops_next: matches!(self, FaultAction::DropTransition),
        })
    }
}

/// An interpreter that injects a [`FaultPlan`] into a run and applies
/// a [`RecoveryPolicy`] to survive it.
///
/// Both the fault schedule and every recovery decision are functions
/// of `(plan, recovery, policy, max_steps)` and the step counter
/// alone, so a fixed seed reproduces the whole run — trace, fault log
/// and counters — bit for bit.
///
/// # Examples
///
/// Example 1 of the paper deadlocks: the merged policies cost 5 hours,
/// outside the client's `[1, 4]` interval. Under a recovery policy
/// whose relaxation ladder holds `c1 = x + 3`, the runtime retries,
/// then retracts `c1` (Example 2's relaxation) and the negotiation
/// completes at level 2:
///
/// ```
/// use softsoa_nmsccp::{Agent, Interval, Program, RecoveryPolicy,
///     ResilientInterpreter, Store};
/// use softsoa_core::{Constraint, Domain, Domains};
/// use softsoa_semiring::WeightedInt;
///
/// let doms = Domains::new().with("x", Domain::ints(0..=10));
/// let lin = |a: u64, b: u64| Constraint::unary(WeightedInt, "x", move |v| {
///     a * v.as_int().unwrap() as u64 + b
/// });
/// let p1 = Agent::tell(lin(1, 5), Interval::any(&WeightedInt), Agent::success());
/// let p2 = Agent::tell(lin(2, 0), Interval::any(&WeightedInt),
///     Agent::ask(Constraint::always(WeightedInt),
///         Interval::levels(4u64, 1u64), Agent::success()));
///
/// let recovery = RecoveryPolicy {
///     relaxations: vec![lin(1, 3).with_label("c1")],
///     ..RecoveryPolicy::default()
/// };
/// let report = ResilientInterpreter::new(Program::new())
///     .with_recovery(recovery)
///     .run(Agent::par(p1, p2), Store::empty(WeightedInt, doms))?;
/// assert!(report.is_success());
/// assert_eq!(report.final_consistency, 2);
/// assert_eq!(report.relaxations_applied, 1);
/// # Ok::<(), softsoa_nmsccp::SemanticsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ResilientInterpreter<S: Semiring> {
    program: Program<S>,
    plan: FaultPlan<S>,
    recovery: RecoveryPolicy<S>,
    policy: Policy,
    max_steps: usize,
    telemetry: Telemetry,
}

/// Upper bound on the idle wait of a single retry, in steps.
///
/// The exponential backoff `backoff_base · 2^(attempt−1)` saturates
/// here: beyond this the step clock would race past any realistic
/// fuel budget in one suspension, and with large `max_retries` the
/// unbounded shift itself overflows. The cap keeps every retry wait
/// finite and lets `max_steps` decide when the run is out of fuel.
pub const MAX_RETRY_WAIT: usize = 1 << 16;

impl<S: Residuated> ResilientInterpreter<S> {
    /// Creates a resilient interpreter with no faults, the default
    /// [`RecoveryPolicy`], the [`Policy::First`] schedule and a budget
    /// of 10 000 steps.
    pub fn new(program: Program<S>) -> ResilientInterpreter<S> {
        ResilientInterpreter {
            program,
            plan: FaultPlan::none(),
            recovery: RecoveryPolicy::default(),
            policy: Policy::First,
            max_steps: 10_000,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; each finished run is replayed
    /// into it (per-rule counts, consistency series, fault and
    /// recovery counters).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> ResilientInterpreter<S> {
        self.telemetry = telemetry;
        self
    }

    /// Sets the fault plan.
    pub fn with_plan(mut self, plan: FaultPlan<S>) -> ResilientInterpreter<S> {
        self.plan = plan;
        self
    }

    /// Sets the recovery policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy<S>) -> ResilientInterpreter<S> {
        self.recovery = recovery;
        self
    }

    /// Sets the scheduling policy.
    pub fn with_policy(mut self, policy: Policy) -> ResilientInterpreter<S> {
        self.policy = policy;
        self
    }

    /// Sets the step budget.
    pub fn with_max_steps(mut self, max_steps: usize) -> ResilientInterpreter<S> {
        self.max_steps = max_steps;
        self
    }

    /// Runs the agent under the fault plan and recovery policy.
    ///
    /// # Errors
    ///
    /// Returns [`SemanticsError`] as the sequential interpreter does.
    pub fn run(
        &self,
        agent: Agent<S>,
        store: Store<S>,
    ) -> Result<ResilienceReport<S>, SemanticsError> {
        let schedule = self
            .plan
            .events
            .iter()
            .enumerate()
            .map(|(i, e)| (i, e.at_step, Event::Fault(&e.action)));
        let run = StepLoop {
            program: &self.program,
            policy: self.policy,
            max_steps: self.max_steps,
            schedule: StepLoop::schedule(schedule),
            recovery: Some(&self.recovery),
            telemetry: &self.telemetry,
        }
        .run(agent, store)?;
        let final_consistency = run.report.outcome.store().consistency()?;
        let faults_injected = run
            .log
            .iter()
            .filter(|(_, status)| *status == FaultStatus::Applied)
            .count();
        let report = ResilienceReport {
            report: run.report,
            fault_log: run.log,
            faults_injected,
            dropped_transitions: run.dropped_transitions,
            retries: run.retries,
            rollbacks: run.rollbacks,
            relaxations_applied: run.relaxations,
            invariant_violations: run.violations,
            final_consistency,
        };
        self.emit(&report);
        Ok(report)
    }

    /// Replays a finished resilient run into the attached telemetry:
    /// the base run metrics plus fault and recovery counters. The
    /// degradation rung reached and the interval excursions come from
    /// the report itself, so emission is deterministic.
    fn emit(&self, report: &ResilienceReport<S>) {
        let t = &self.telemetry;
        if !t.enabled() {
            return;
        }
        emit_run(t, &report.report);
        t.count("nmsccp.faults.injected", report.faults_injected as u64);
        t.count(
            "nmsccp.faults.dropped_transitions",
            report.dropped_transitions as u64,
        );
        t.count("nmsccp.recovery.retries", report.retries as u64);
        t.count("nmsccp.recovery.rollbacks", report.rollbacks as u64);
        t.count(
            "nmsccp.recovery.relaxations",
            report.relaxations_applied as u64,
        );
        t.count(
            "nmsccp.recovery.interval_excursions",
            report.invariant_violations as u64,
        );
        t.gauge(
            "nmsccp.recovery.rung_reached",
            report.relaxations_applied as i64,
        );
    }
}

/// The number of parallel leaves of an agent (1 for a non-`Par`).
fn par_leaf_count<S: Semiring>(agent: &Agent<S>) -> usize {
    match agent {
        Agent::Par(l, r) => par_leaf_count(l) + par_leaf_count(r),
        _ => 1,
    }
}

/// Replaces the `target`-th parallel leaf (in-order) with `success`.
fn crash_leaf<S: Semiring>(agent: Agent<S>, target: usize) -> Agent<S> {
    fn go<S: Semiring>(agent: Agent<S>, target: usize, counter: &mut usize) -> Agent<S> {
        match agent {
            Agent::Par(l, r) => {
                let l = go(unshared(l), target, counter);
                let r = go(unshared(r), target, counter);
                Agent::par(l, r)
            }
            other => {
                let i = *counter;
                *counter += 1;
                if i == target {
                    Agent::success()
                } else {
                    other
                }
            }
        }
    }
    go(agent, target, &mut 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Outcome;
    use softsoa_core::{Constraint, Domain, Domains};
    use softsoa_semiring::WeightedInt;

    fn doms() -> Domains {
        Domains::new().with("x", Domain::ints(0..=10))
    }

    fn lin(a: u64, b: u64, name: &str) -> Constraint<WeightedInt> {
        Constraint::unary(WeightedInt, "x", move |v| {
            a * v.as_int().unwrap() as u64 + b
        })
        .with_label(name)
    }

    fn any() -> Interval<WeightedInt> {
        Interval::any(&WeightedInt)
    }

    /// Example 1 (deadlocks naively) completes under retry +
    /// relaxation — the headline acceptance demo.
    #[test]
    fn deadlocked_negotiation_completes_under_relaxation() {
        let mk = || {
            let p1 = Agent::tell(lin(1, 5, "c4"), any(), Agent::success());
            let p2 = Agent::tell(
                lin(2, 0, "c3"),
                any(),
                Agent::ask(
                    Constraint::always(WeightedInt).with_label("1"),
                    Interval::levels(4u64, 1u64),
                    Agent::success(),
                ),
            );
            Agent::par(p1, p2)
        };
        // Naive interpretation deadlocks at level 5 ∉ [1, 4].
        let naive = crate::Interpreter::new(Program::new())
            .run(mk(), Store::empty(WeightedInt, doms()))
            .unwrap();
        assert!(matches!(naive.outcome, Outcome::Deadlock { .. }));

        // Resilient interpretation retries, then relaxes c1 away.
        let recovery = RecoveryPolicy {
            relaxations: vec![lin(1, 3, "c1")],
            ..RecoveryPolicy::default()
        };
        let report = ResilientInterpreter::new(Program::new())
            .with_recovery(recovery)
            .run(mk(), Store::empty(WeightedInt, doms()))
            .unwrap();
        assert!(report.is_success());
        assert_eq!(report.final_consistency, 2);
        assert_eq!(report.retries, 3);
        assert_eq!(report.relaxations_applied, 1);
        assert!(report
            .report
            .trace
            .iter()
            .any(|t| t.origin == EntryOrigin::Recovery && t.note.contains("relax(c1)")));
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let palette = FaultPalette {
            corruptions: vec![lin(0, 2, "noise")],
            degradations: vec![1u64],
            retractions: vec![lin(0, 1, "one")],
            drop_transitions: true,
            crash_branches: true,
        };
        let a = FaultPlan::seeded(42, 50, 0.3, &palette);
        let b = FaultPlan::seeded(42, 50, 0.3, &palette);
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        for (ea, eb) in a.events().iter().zip(b.events()) {
            assert_eq!(ea.at_step, eb.at_step);
            assert_eq!(
                std::mem::discriminant(&ea.action),
                std::mem::discriminant(&eb.action)
            );
        }
        // A different seed yields a different plan (for this seed
        // pair; both draws are deterministic).
        let c = FaultPlan::seeded(43, 50, 0.3, &palette);
        let fingerprint =
            |p: &FaultPlan<WeightedInt>| p.events().iter().map(|e| e.at_step).collect::<Vec<_>>();
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn corrupting_fault_triggers_rollback() {
        // The agent tells a good policy (level 1, inside [3, 0]); a
        // corruption at step 1 pushes the store to level 6, and the
        // rollback restores the checkpointed state.
        let agent = Agent::tell(
            lin(1, 1, "good"),
            any(),
            Agent::ask(
                Constraint::always(WeightedInt).with_label("1"),
                Interval::levels(3u64, 0u64),
                Agent::success(),
            ),
        );
        let plan = FaultPlan::new(vec![FaultEvent {
            at_step: 1,
            action: FaultAction::Corrupt(lin(0, 5, "garbage")),
        }]);
        let recovery = RecoveryPolicy {
            invariant: Some(Interval::levels(3u64, 0u64)),
            ..RecoveryPolicy::default()
        };
        let report = ResilientInterpreter::new(Program::new())
            .with_plan(plan)
            .with_recovery(recovery)
            .run(agent, Store::empty(WeightedInt, doms()))
            .unwrap();
        assert!(report.is_success());
        assert_eq!(report.faults_injected, 1);
        assert_eq!(report.rollbacks, 1);
        assert_eq!(report.invariant_violations, 1);
        assert_eq!(report.final_consistency, 1); // corruption undone
    }

    #[test]
    fn dropped_transition_is_recorded_and_not_applied() {
        let agent = Agent::tell(lin(0, 2, "c"), any(), Agent::success());
        let plan = FaultPlan::new(vec![FaultEvent {
            at_step: 0,
            action: FaultAction::DropTransition,
        }]);
        let report = ResilientInterpreter::new(Program::new())
            .with_plan(plan)
            .run(agent, Store::empty(WeightedInt, doms()))
            .unwrap();
        // The tell is dropped once, then re-chosen and applied.
        assert!(report.is_success());
        assert_eq!(report.dropped_transitions, 1);
        assert_eq!(report.final_consistency, 2);
        let dropped: Vec<&TraceEntry<WeightedInt>> = report
            .report
            .trace
            .iter()
            .filter(|t| t.note.starts_with("fault: dropped"))
            .collect();
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].origin, EntryOrigin::Fault);
        assert_eq!(dropped[0].consistency, 0); // store unchanged
    }

    #[test]
    fn crash_branch_silences_one_provider() {
        // Two providers; crashing leaf 1 removes the second tell.
        let mk =
            |tag: u64, name: &'static str| Agent::tell(lin(0, tag, name), any(), Agent::success());
        let plan = FaultPlan::new(vec![FaultEvent {
            at_step: 0,
            action: FaultAction::CrashBranch(1),
        }]);
        let report = ResilientInterpreter::new(Program::new())
            .with_plan(plan)
            .run(
                Agent::par(mk(1, "a"), mk(2, "b")),
                Store::empty(WeightedInt, doms()),
            )
            .unwrap();
        assert!(report.is_success());
        assert_eq!(report.faults_injected, 1);
        assert_eq!(report.final_consistency, 1); // only "a" told
    }

    #[test]
    fn crash_branch_skipped_without_parallelism() {
        let agent = Agent::tell(lin(0, 1, "c"), any(), Agent::success());
        let plan = FaultPlan::new(vec![FaultEvent {
            at_step: 0,
            action: FaultAction::CrashBranch(0),
        }]);
        let report = ResilientInterpreter::new(Program::new())
            .with_plan(plan)
            .run(agent, Store::empty(WeightedInt, doms()))
            .unwrap();
        assert_eq!(report.fault_log, vec![(0, FaultStatus::SkippedNoBranch)]);
        assert_eq!(report.faults_injected, 0);
        assert!(report.is_success());
    }

    #[test]
    fn unconstrain_fault_skipped_when_not_entailed() {
        let agent = Agent::tell(lin(1, 1, "c"), any(), Agent::success());
        let plan = FaultPlan::new(vec![FaultEvent {
            at_step: 0,
            action: FaultAction::Unconstrain(lin(9, 9, "big")),
        }]);
        let report = ResilientInterpreter::new(Program::new())
            .with_plan(plan)
            .run(agent, Store::empty(WeightedInt, doms()))
            .unwrap();
        assert_eq!(report.fault_log, vec![(0, FaultStatus::SkippedNotEntailed)]);
        assert!(report.is_success());
    }

    #[test]
    fn degrade_fault_attenuates_the_store() {
        let agent = Agent::tell(lin(1, 1, "c"), any(), Agent::success());
        let plan = FaultPlan::new(vec![FaultEvent {
            at_step: 1,
            action: FaultAction::Degrade(3u64),
        }]);
        let report = ResilientInterpreter::new(Program::new())
            .with_plan(plan)
            .run(agent, Store::empty(WeightedInt, doms()))
            .unwrap();
        assert!(report.is_success());
        assert_eq!(report.final_consistency, 4); // 1 + 3
    }

    #[test]
    fn fixed_seed_run_is_bit_reproducible() {
        let palette = FaultPalette {
            corruptions: vec![lin(0, 1, "noise")],
            degradations: vec![2u64],
            retractions: vec![lin(0, 1, "noise")],
            drop_transitions: true,
            crash_branches: true,
        };
        let run = || {
            let plan = FaultPlan::seeded(7, 30, 0.4, &palette);
            let recovery = RecoveryPolicy {
                relaxations: vec![lin(0, 1, "noise")],
                invariant: Some(Interval::levels(9u64, 0u64)),
                ..RecoveryPolicy::default()
            };
            let p = |tag: u64, name: &'static str| {
                Agent::tell(
                    lin(0, tag, name),
                    any(),
                    Agent::ask(
                        Constraint::always(WeightedInt).with_label("1"),
                        Interval::levels(9u64, 0u64),
                        Agent::success(),
                    ),
                )
            };
            ResilientInterpreter::new(Program::new())
                .with_plan(plan)
                .with_recovery(recovery)
                .with_policy(Policy::Random(11))
                .run(
                    Agent::par(p(1, "a"), p(2, "b")),
                    Store::empty(WeightedInt, doms()),
                )
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.fault_log, b.fault_log);
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.rollbacks, b.rollbacks);
        assert_eq!(a.relaxations_applied, b.relaxations_applied);
        assert_eq!(a.final_consistency, b.final_consistency);
        assert_eq!(a.report.steps, b.report.steps);
        let sig = |r: &ResilienceReport<WeightedInt>| {
            r.report
                .trace
                .iter()
                .map(|t| (t.step, t.note.clone(), t.consistency, t.origin))
                .collect::<Vec<_>>()
        };
        assert_eq!(sig(&a), sig(&b));
    }

    /// A 3-retry plan with a session deadline falling mid-backoff:
    /// retry 1 idles the full 6 steps (4 + 2·2⁰), retry 2's 8-step
    /// wait is clamped to the 4 steps remaining before the deadline at
    /// 10, and the third retry never happens — the run ends with the
    /// typed `DeadlineExceeded` instead of sleeping into a dead
    /// session.
    #[test]
    fn retry_schedule_never_sleeps_past_the_deadline() {
        // An ask that can never fire: the empty store sits at level
        // 0 ∉ [3, 1], so every retry finds the configuration blocked.
        let starved = Agent::ask(
            Constraint::always(WeightedInt).with_label("1"),
            Interval::levels(1u64, 3u64),
            Agent::success(),
        );
        let recovery = RecoveryPolicy {
            guard_deadline: 4,
            max_retries: 3,
            backoff_base: 2,
            deadline: Some(10),
            ..RecoveryPolicy::default()
        };
        let report = ResilientInterpreter::new(Program::new())
            .with_recovery(recovery)
            .run(starved, Store::empty(WeightedInt, doms()))
            .unwrap();
        assert!(matches!(
            report.report.outcome,
            Outcome::DeadlineExceeded { .. }
        ));
        // Only two of the three budgeted retries ran before the clock
        // hit the deadline.
        assert_eq!(report.retries, 2);
        // The virtual clock stopped exactly at the deadline: the
        // second wait was clamped from 8 to 4.
        assert_eq!(report.report.steps, 10);
        let waits: Vec<usize> = report
            .report
            .trace
            .iter()
            .filter_map(|t| {
                let rest = t.note.strip_prefix("recovery: retry ")?;
                rest.split_whitespace()
                    .nth(2)
                    .and_then(|w| w.split('-').next())
                    .and_then(|w| w.parse().ok())
            })
            .collect();
        assert_eq!(waits, vec![6, 4]);
        // Without the deadline the same plan exhausts all three
        // retries and deadlocks well past step 10.
        let unbounded = ResilientInterpreter::new(Program::new())
            .with_recovery(RecoveryPolicy {
                guard_deadline: 4,
                max_retries: 3,
                backoff_base: 2,
                ..RecoveryPolicy::default()
            })
            .run(
                Agent::ask(
                    Constraint::always(WeightedInt).with_label("1"),
                    Interval::levels(1u64, 3u64),
                    Agent::success(),
                ),
                Store::empty(WeightedInt, doms()),
            )
            .unwrap();
        assert!(matches!(unbounded.report.outcome, Outcome::Deadlock { .. }));
        assert_eq!(unbounded.retries, 3);
        assert!(unbounded.report.steps > 10);
    }

    /// Regression: `max_retries = 80` used to shift `backoff_base`
    /// by up to 79 bits — an overflow panic in debug builds. The
    /// saturated backoff must complete (here: run out of fuel on a
    /// permanently starved ask) without panicking, with every idle
    /// wait capped at [`MAX_RETRY_WAIT`].
    #[test]
    fn saturated_backoff_at_eighty_retries_completes() {
        // An ask whose interval can never be met: the empty store
        // sits at level 0 ∉ [3, 1].
        let starved = Agent::ask(
            Constraint::always(WeightedInt).with_label("1"),
            Interval::levels(1u64, 3u64),
            Agent::success(),
        );
        let recovery = RecoveryPolicy {
            guard_deadline: 1,
            max_retries: 80,
            backoff_base: 2,
            ..RecoveryPolicy::default()
        };
        let report = ResilientInterpreter::new(Program::new())
            .with_recovery(recovery)
            .with_max_steps(usize::MAX)
            .run(starved, Store::empty(WeightedInt, doms()))
            .expect("runs without panicking");
        assert!(!report.is_success());
        assert_eq!(report.retries, 80);
        // Every retry waited at most the cap (plus the deadline).
        for entry in &report.report.trace {
            if let Some(rest) = entry.note.strip_prefix("recovery: retry ") {
                let wait: usize = rest
                    .split_whitespace()
                    .nth(2)
                    .and_then(|w| w.split('-').next())
                    .and_then(|w| w.parse().ok())
                    .expect("note carries the wait");
                assert!(wait <= MAX_RETRY_WAIT);
            }
        }
    }
}
