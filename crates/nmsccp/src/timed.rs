//! Timing mechanisms for nonmonotonic stores.
//!
//! Example 2 of the paper notes that policy changes "can be performed
//! from an interactive console **or by embedding timing mechanisms in
//! the language**" (the timed soft ccp of Bistarelli, Gabbrielli, Meo
//! & Santini, COORDINATION 2008). This module provides the store-level
//! rendition of those mechanisms: a schedule of `tell`/`retract`
//! events indexed by the interpreter's step counter, applied
//! transactionally between agent transitions.

use std::fmt;

use softsoa_core::Constraint;
use softsoa_semiring::{Residuated, Semiring};
use softsoa_telemetry::Telemetry;

use crate::agent::label;
use crate::interp::{Event, Fired, StepLoop};
use crate::semantics::SemanticsError;
use crate::{Agent, FaultStatus, Policy, Program, Rule, RunReport, Store, StoreError};

/// A store mutation scheduled at an interpreter step.
#[derive(Debug, Clone)]
pub enum TimedAction<S: Semiring> {
    /// Add the constraint at the scheduled step.
    Tell(Constraint<S>),
    /// Remove the constraint at the scheduled step (skipped, and
    /// recorded as such, if the store does not entail it then).
    Retract(Constraint<S>),
}

/// A scheduled event: *at* the given step, perform the action.
#[derive(Debug, Clone)]
pub struct TimedEvent<S: Semiring> {
    /// The step count at which the event fires (events at step `k`
    /// fire before the `k`-th agent transition).
    pub at_step: usize,
    /// What to do to the store.
    pub action: TimedAction<S>,
}

/// What happened to a scheduled event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventStatus {
    /// The event was applied to the store.
    Applied,
    /// A retraction was skipped because the store did not entail the
    /// constraint at fire time.
    SkippedNotEntailed,
}

impl fmt::Display for EventStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventStatus::Applied => f.write_str("applied"),
            EventStatus::SkippedNotEntailed => f.write_str("skipped (not entailed)"),
        }
    }
}

/// The report of a timed run: the usual [`RunReport`] plus the fate of
/// every scheduled event.
#[derive(Debug, Clone)]
pub struct TimedRunReport<S: Semiring> {
    /// The underlying run report.
    pub report: RunReport<S>,
    /// `(event index, status)` for every event that fired.
    pub events: Vec<(usize, EventStatus)>,
}

/// An interpreter that interleaves a schedule of store events with
/// agent transitions.
///
/// # Examples
///
/// Example 2 as a timed scenario: the environment retracts `c1` at
/// step 2, relaxing the store enough for the client's `ask` to fire.
///
/// ```
/// use softsoa_nmsccp::{Agent, Interval, Program, Store, TimedInterpreter,
///     TimedEvent, TimedAction};
/// use softsoa_core::{Constraint, Domain, Domains};
/// use softsoa_semiring::WeightedInt;
///
/// let doms = Domains::new().with("x", Domain::ints(0..=10));
/// let lin = |a: u64, b: u64| Constraint::unary(WeightedInt, "x", move |v| {
///     a * v.as_int().unwrap() as u64 + b
/// });
/// // Agents tell c4 and c3, then wait for a 1–4 hour agreement.
/// let agent = Agent::tell(lin(1, 5), Interval::any(&WeightedInt),
///     Agent::tell(lin(2, 0), Interval::any(&WeightedInt),
///         Agent::ask(Constraint::always(WeightedInt),
///             Interval::levels(4u64, 1u64), Agent::success())));
/// let schedule = vec![TimedEvent { at_step: 2, action: TimedAction::Retract(lin(1, 3)) }];
/// let report = TimedInterpreter::new(Program::new(), schedule)
///     .run(agent, Store::empty(WeightedInt, doms))?;
/// assert!(report.report.outcome.is_success());
/// # Ok::<(), softsoa_nmsccp::SemanticsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TimedInterpreter<S: Semiring> {
    program: Program<S>,
    schedule: Vec<TimedEvent<S>>,
    max_steps: usize,
}

impl<S: Residuated> TimedInterpreter<S> {
    /// Creates a timed interpreter over a program and a schedule.
    pub fn new(program: Program<S>, schedule: Vec<TimedEvent<S>>) -> TimedInterpreter<S> {
        TimedInterpreter {
            program,
            schedule,
            max_steps: 10_000,
        }
    }

    /// Sets the step budget.
    pub fn with_max_steps(mut self, max_steps: usize) -> TimedInterpreter<S> {
        self.max_steps = max_steps;
        self
    }

    /// Runs the agent, firing scheduled events at their steps.
    ///
    /// Transitions are chosen with the first-enabled policy. A
    /// suspended agent does not stop the clock: pending events still
    /// fire (each firing counts as one step), which is exactly how a
    /// timed retraction can *unblock* a suspended negotiation.
    ///
    /// # Errors
    ///
    /// Returns [`SemanticsError`] as the sequential interpreter does.
    pub fn run(
        &self,
        agent: Agent<S>,
        store: Store<S>,
    ) -> Result<TimedRunReport<S>, SemanticsError> {
        let schedule = self
            .schedule
            .iter()
            .enumerate()
            .map(|(i, e)| (i, e.at_step, Event::Timed(&e.action)));
        let run = StepLoop {
            program: &self.program,
            policy: Policy::First,
            max_steps: self.max_steps,
            schedule: StepLoop::schedule(schedule),
            recovery: None,
            telemetry: &Telemetry::disabled(),
        }
        .run(agent, store)?;
        let events = run
            .log
            .into_iter()
            .map(|(i, status)| {
                let status = match status {
                    FaultStatus::Applied => EventStatus::Applied,
                    _ => EventStatus::SkippedNotEntailed,
                };
                (i, status)
            })
            .collect();
        Ok(TimedRunReport {
            report: run.report,
            events,
        })
    }
}

impl<S: Residuated> TimedAction<S> {
    /// Applies the action to the store. An environment action's trace
    /// entry carries the `tell` rule, whatever the action.
    pub(crate) fn fire(&self, store: &mut Store<S>) -> Result<Fired, SemanticsError> {
        let (status, note) = match self {
            TimedAction::Tell(c) => {
                *store = store.tell(c)?;
                (
                    FaultStatus::Applied,
                    ["timed tell(", label(c), ")"].concat(),
                )
            }
            TimedAction::Retract(c) => match store.retract(c) {
                Ok(next) => {
                    *store = next;
                    (
                        FaultStatus::Applied,
                        ["timed retract(", label(c), ")"].concat(),
                    )
                }
                Err(StoreError::NotEntailed) => (
                    FaultStatus::SkippedNotEntailed,
                    ["timed retract(", label(c), ") skipped"].concat(),
                ),
                Err(e) => return Err(e.into()),
            },
        };
        Ok(Fired {
            rule: Rule::Tell,
            note,
            mutated: status == FaultStatus::Applied,
            status,
            drops_next: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interval;
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

    #[test]
    fn timed_retraction_unblocks_a_suspended_ask() {
        // The agent tells c4 ⊗ c3 (level 5) and asks for [1, 4]: stuck
        // until the environment retracts c1 at step 3.
        let agent = Agent::tell(
            lin(1, 5, "c4"),
            Interval::any(&WeightedInt),
            Agent::tell(
                lin(2, 0, "c3"),
                Interval::any(&WeightedInt),
                Agent::ask(
                    Constraint::always(WeightedInt).with_label("1"),
                    Interval::levels(4u64, 1u64),
                    Agent::success(),
                ),
            ),
        );
        let schedule = vec![TimedEvent {
            at_step: 3,
            action: TimedAction::Retract(lin(1, 3, "c1")),
        }];
        let report = TimedInterpreter::new(Program::new(), schedule)
            .run(agent, Store::empty(WeightedInt, doms()))
            .unwrap();
        assert!(report.report.outcome.is_success());
        assert_eq!(report.report.outcome.store().consistency().unwrap(), 2);
        assert_eq!(report.events, vec![(0, EventStatus::Applied)]);
    }

    #[test]
    fn non_entailed_retraction_is_skipped() {
        let agent = Agent::tell(
            lin(1, 1, "c"),
            Interval::any(&WeightedInt),
            Agent::success(),
        );
        let schedule = vec![TimedEvent {
            at_step: 0,
            action: TimedAction::Retract(lin(9, 9, "big")),
        }];
        let report = TimedInterpreter::new(Program::new(), schedule)
            .run(agent, Store::empty(WeightedInt, doms()))
            .unwrap();
        assert!(report.report.outcome.is_success());
        assert_eq!(report.events, vec![(0, EventStatus::SkippedNotEntailed)]);
    }

    #[test]
    fn timed_tell_fires_in_order() {
        let agent = Agent::ask(
            lin(0, 2, "goal"),
            Interval::any(&WeightedInt),
            Agent::success(),
        );
        let schedule = vec![
            TimedEvent {
                at_step: 1,
                action: TimedAction::Tell(lin(0, 1, "one")),
            },
            TimedEvent {
                at_step: 2,
                action: TimedAction::Tell(lin(0, 1, "one-more")),
            },
        ];
        let report = TimedInterpreter::new(Program::new(), schedule)
            .run(agent, Store::empty(WeightedInt, doms()))
            .unwrap();
        assert!(report.report.outcome.is_success());
        // 1̄ ⊗ 1 ⊗ 1 = constant 2 ≥ goal = 2.
        assert_eq!(report.report.outcome.store().consistency().unwrap(), 2);
    }

    #[test]
    fn mid_run_retraction_not_entailed_is_skipped_and_run_continues() {
        // The store holds x+1 when the retraction of 2x+2 fires: the
        // store does not entail it (x+1 ⋢ 2x+2), so the event is
        // skipped and the remaining agent steps still run.
        let agent = Agent::tell(
            lin(1, 1, "c"),
            Interval::any(&WeightedInt),
            Agent::tell(
                lin(0, 1, "d"),
                Interval::any(&WeightedInt),
                Agent::success(),
            ),
        );
        let schedule = vec![TimedEvent {
            at_step: 1,
            action: TimedAction::Retract(lin(2, 2, "big")),
        }];
        let report = TimedInterpreter::new(Program::new(), schedule)
            .run(agent, Store::empty(WeightedInt, doms()))
            .unwrap();
        assert!(report.report.outcome.is_success());
        assert_eq!(report.events, vec![(0, EventStatus::SkippedNotEntailed)]);
        // Both tells still landed: σ⇓∅ = (x+1 ⊗ 1̄+1)⇓∅ = 2 at x = 0.
        assert_eq!(report.report.final_consistency().unwrap(), 2);
        // The skipped event still leaves a trace entry, marked as the
        // environment's.
        let skip = report
            .report
            .trace
            .iter()
            .find(|t| t.note.contains("skipped"))
            .expect("skipped event traced");
        assert_eq!(skip.origin, crate::EntryOrigin::Environment);
    }

    #[test]
    fn events_sharing_a_step_fire_in_schedule_order() {
        // Two tells and a retract all at step 0. Schedule order is
        // tell(a), tell(b), retract(a): the retract must see a store
        // already holding a ⊗ b, so it applies (not skipped) and the
        // final level is b's alone.
        let agent = Agent::ask(
            Constraint::always(WeightedInt).with_label("1"),
            Interval::levels(3u64, 0u64),
            Agent::success(),
        );
        let schedule = vec![
            TimedEvent {
                at_step: 0,
                action: TimedAction::Tell(lin(0, 5, "a")),
            },
            TimedEvent {
                at_step: 0,
                action: TimedAction::Tell(lin(0, 3, "b")),
            },
            TimedEvent {
                at_step: 0,
                action: TimedAction::Retract(lin(0, 5, "a")),
            },
        ];
        let report = TimedInterpreter::new(Program::new(), schedule)
            .run(agent, Store::empty(WeightedInt, doms()))
            .unwrap();
        // All three applied, in declaration order.
        assert_eq!(
            report.events,
            vec![
                (0, EventStatus::Applied),
                (1, EventStatus::Applied),
                (2, EventStatus::Applied),
            ]
        );
        // Trace notes confirm the firing order a, b, retract(a).
        let notes: Vec<&str> = report
            .report
            .trace
            .iter()
            .filter(|t| t.origin == crate::EntryOrigin::Environment)
            .map(|t| t.note.as_str())
            .collect();
        assert_eq!(
            notes,
            vec!["timed tell(a)", "timed tell(b)", "timed retract(a)"]
        );
        assert!(report.report.outcome.is_success());
        assert_eq!(report.report.final_consistency().unwrap(), 3);
    }

    #[test]
    fn deadlock_when_schedule_exhausted() {
        let agent = Agent::ask(
            lin(0, 5, "never"),
            Interval::any(&WeightedInt),
            Agent::success(),
        );
        let report = TimedInterpreter::new(Program::new(), vec![])
            .run(agent, Store::empty(WeightedInt, doms()))
            .unwrap();
        assert!(matches!(report.report.outcome, Outcome::Deadlock { .. }));
    }
}
