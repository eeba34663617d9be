//! Threaded execution of `nmsccp` agents.
//!
//! Two shapes of concurrency, matching the two ways the paper deploys
//! agents:
//!
//! - [`ConcurrentExecutor`] — several agents *sharing one store* (the
//!   broker scenario of Sec. 4: provider and client agents negotiate
//!   on the broker's store). Each agent runs on its own OS thread;
//!   store transitions are serialised through a lock, suspended agents
//!   block on a condition variable and are woken whenever the store
//!   changes, and a global deadlock is detected when every live agent
//!   is waiting.
//! - [`run_sessions`] — many *independent* sessions (one store each)
//!   executed on a thread pool: the broker handling unrelated
//!   negotiations in parallel. This is the configuration measured by
//!   the `nmsccp_throughput` bench (experiment E10).

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use softsoa_semiring::{Residuated, Semiring};

use crate::semantics::{moves, FreshGen, SemanticsError};
use crate::{Agent, Interpreter, Policy, Program, RunReport, Store};

/// The terminal state of one agent under the concurrent executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AgentOutcome {
    /// The agent reached `success`.
    Success,
    /// The agent was suspended when a global deadlock was declared.
    Deadlock,
    /// The agent exceeded its step budget.
    OutOfFuel,
    /// Another agent hit an error; this one aborted.
    Aborted,
}

/// Per-agent report of a concurrent run.
#[derive(Debug, Clone)]
pub struct AgentReport {
    /// Index of the agent in the input vector.
    pub index: usize,
    /// How the agent ended.
    pub outcome: AgentOutcome,
    /// Transitions this agent executed.
    pub steps: usize,
}

/// The report of a concurrent run over a shared store.
#[derive(Debug, Clone)]
pub struct ConcurrentReport<S: Semiring> {
    /// The final shared store.
    pub store: Store<S>,
    /// One report per input agent, in input order.
    pub agents: Vec<AgentReport>,
}

impl<S: Semiring> ConcurrentReport<S> {
    /// Whether every agent reached `success`.
    pub fn all_succeeded(&self) -> bool {
        self.agents
            .iter()
            .all(|a| a.outcome == AgentOutcome::Success)
    }
}

struct SharedState<S: Semiring> {
    store: Store<S>,
    epoch: u64,
    live: usize,
    waiting: usize,
    deadlocked: bool,
    error: Option<SemanticsError>,
}

struct Shared<S: Semiring> {
    state: Mutex<SharedState<S>>,
    wake: Condvar,
}

/// Runs several agents concurrently over one shared store, one OS
/// thread per agent.
///
/// # Examples
///
/// ```
/// use softsoa_nmsccp::{Agent, ConcurrentExecutor, Interval, Program, Store};
/// use softsoa_core::{Constraint, Domain, Domains};
/// use softsoa_semiring::WeightedInt;
///
/// let doms = Domains::new().with("x", Domain::ints(0..=5));
/// let c = Constraint::unary(WeightedInt, "x", |v| v.as_int().unwrap() as u64)
///     .with_label("c");
/// // One agent tells c; the other waits for it with ask(c).
/// let teller = Agent::tell(c.clone(), Interval::any(&WeightedInt), Agent::success());
/// let asker = Agent::ask(c, Interval::any(&WeightedInt), Agent::success());
/// let report = ConcurrentExecutor::new(Program::new())
///     .run(vec![asker, teller], Store::empty(WeightedInt, doms))?;
/// assert!(report.all_succeeded());
/// # Ok::<(), softsoa_nmsccp::SemanticsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ConcurrentExecutor<S: Semiring> {
    program: Program<S>,
    max_steps_per_agent: usize,
    seed: u64,
}

impl<S: Residuated> ConcurrentExecutor<S> {
    /// Creates an executor with a budget of 10 000 steps per agent.
    pub fn new(program: Program<S>) -> ConcurrentExecutor<S> {
        ConcurrentExecutor {
            program,
            max_steps_per_agent: 10_000,
            seed: 0,
        }
    }

    /// Sets the per-agent step budget.
    pub fn with_max_steps(mut self, max_steps: usize) -> ConcurrentExecutor<S> {
        self.max_steps_per_agent = max_steps;
        self
    }

    /// Sets the seed for per-thread transition choices.
    pub fn with_seed(mut self, seed: u64) -> ConcurrentExecutor<S> {
        self.seed = seed;
        self
    }

    /// Runs all agents to completion, deadlock or fuel exhaustion.
    ///
    /// # Errors
    ///
    /// Returns the first [`SemanticsError`] raised by any agent
    /// (missing domains, unknown procedures, ...); other agents abort.
    pub fn run(
        &self,
        agents: Vec<Agent<S>>,
        store: Store<S>,
    ) -> Result<ConcurrentReport<S>, SemanticsError> {
        let n = agents.len();
        let shared = Shared {
            state: Mutex::new(SharedState {
                store,
                epoch: 0,
                live: n,
                waiting: 0,
                deadlocked: false,
                error: None,
            }),
            wake: Condvar::new(),
        };

        let mut reports: Vec<AgentReport> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (index, agent) in agents.into_iter().enumerate() {
                let shared = &shared;
                let program = &self.program;
                let max_steps = self.max_steps_per_agent;
                let seed = self.seed;
                handles.push(
                    scope.spawn(move || agent_loop(index, agent, program, shared, max_steps, seed)),
                );
            }
            for handle in handles {
                reports.push(handle.join().expect("agent thread panicked"));
            }
        });
        reports.sort_by_key(|r| r.index);

        let state = shared.state.into_inner();
        if let Some(error) = state.error {
            return Err(error);
        }
        Ok(ConcurrentReport {
            store: state.store,
            agents: reports,
        })
    }
}

fn agent_loop<S: Residuated>(
    index: usize,
    agent: Agent<S>,
    program: &Program<S>,
    shared: &Shared<S>,
    max_steps: usize,
    seed: u64,
) -> AgentReport {
    let mut agent = agent.normalize();
    // Disjoint fresh-variable ranges per thread.
    let mut fresh = FreshGen::with_offset((index as u64 + 1) << 32);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(index as u64));
    let mut steps = 0usize;

    let mut state = shared.state.lock();
    loop {
        if state.error.is_some() {
            finish(&mut state, shared);
            return AgentReport {
                index,
                outcome: AgentOutcome::Aborted,
                steps,
            };
        }
        if state.deadlocked {
            finish(&mut state, shared);
            return AgentReport {
                index,
                outcome: AgentOutcome::Deadlock,
                steps,
            };
        }
        if agent.is_success() {
            finish(&mut state, shared);
            return AgentReport {
                index,
                outcome: AgentOutcome::Success,
                steps,
            };
        }
        if steps >= max_steps {
            finish(&mut state, shared);
            return AgentReport {
                index,
                outcome: AgentOutcome::OutOfFuel,
                steps,
            };
        }

        // Choose, then build: only the picked move's successor store
        // is materialised while the store lock is held.
        let step = moves(program, &agent, &state.store, &mut fresh).and_then(|mut moves| {
            if moves.is_empty() {
                return Ok(None);
            }
            let pick = rng.random_range(0..moves.len());
            moves.swap_remove(pick).build(&state.store).map(Some)
        });
        match step {
            Err(e) => {
                state.error = Some(e);
                shared.wake.notify_all();
                // Keep `live` consistent for any future waiters.
                finish(&mut state, shared);
                return AgentReport {
                    index,
                    outcome: AgentOutcome::Aborted,
                    steps,
                };
            }
            Ok(None) => {
                // Suspended: wait for the store to change. `waiting`
                // counts only agents that found nothing to do at the
                // *current* epoch; every step resets it, so a waiter
                // woken by a store change never counts as stuck until
                // it has re-checked and re-suspended.
                state.waiting += 1;
                if state.waiting == state.live {
                    // Everyone has inspected this store and is waiting:
                    // global deadlock.
                    state.deadlocked = true;
                    shared.wake.notify_all();
                    finish(&mut state, shared);
                    return AgentReport {
                        index,
                        outcome: AgentOutcome::Deadlock,
                        steps,
                    };
                }
                let epoch = state.epoch;
                while state.epoch == epoch && !state.deadlocked && state.error.is_none() {
                    shared.wake.wait(&mut state);
                }
            }
            Ok(Some(chosen)) => {
                state.store = chosen.store;
                state.epoch += 1;
                state.waiting = 0; // all waiters must re-check
                agent = chosen.agent.normalize();
                steps += 1;
                shared.wake.notify_all();
            }
        }
    }
}

/// Marks this agent as no longer live and re-checks the deadlock
/// condition for the remaining waiters.
fn finish<S: Semiring>(state: &mut SharedState<S>, shared: &Shared<S>) {
    state.live -= 1;
    if state.live > 0 && state.waiting == state.live && !state.deadlocked {
        state.deadlocked = true;
        shared.wake.notify_all();
    }
}

impl FreshGen {
    /// Creates a generator whose counters start at `offset`, so that
    /// several generators produce disjoint fresh names.
    pub fn with_offset(offset: u64) -> FreshGen {
        let mut gen = FreshGen::new();
        gen.advance_to(offset);
        gen
    }
}

/// Runs independent `(agent, store)` sessions, each on its own thread
/// with its own sequential [`Interpreter`].
///
/// This models a broker serving unrelated negotiations concurrently;
/// the sessions share no state, so throughput scales with cores.
///
/// # Errors
///
/// Returns the first [`SemanticsError`] of any session.
pub fn run_sessions<S: Residuated>(
    program: &Program<S>,
    sessions: Vec<(Agent<S>, Store<S>)>,
    seed: u64,
) -> Result<Vec<RunReport<S>>, SemanticsError> {
    let mut out = Vec::with_capacity(sessions.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(sessions.len());
        for (i, (agent, store)) in sessions.into_iter().enumerate() {
            let program = program.clone();
            handles.push(scope.spawn(move || {
                Interpreter::new(program)
                    .with_policy(Policy::Random(seed.wrapping_add(i as u64)))
                    .run(agent, store)
            }));
        }
        for handle in handles {
            out.push(handle.join().expect("session thread panicked"));
        }
    });
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interval;
    use softsoa_core::{Constraint, Domain, Domains};
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

    #[test]
    fn ask_wakes_up_after_tell() {
        let c = linear(1, 1, "c");
        let asker = Agent::ask(c.clone(), any(), Agent::success());
        let teller = Agent::tell(c, any(), Agent::success());
        let report = ConcurrentExecutor::new(Program::new())
            .run(vec![asker, teller], Store::empty(WeightedInt, doms()))
            .unwrap();
        assert!(report.all_succeeded());
        assert_eq!(report.store.consistency().unwrap(), 1);
    }

    #[test]
    fn global_deadlock_is_detected() {
        let c = linear(1, 1, "c");
        let a1 = Agent::ask(c.clone(), any(), Agent::success());
        let a2 = Agent::ask(c, any(), Agent::success());
        let report = ConcurrentExecutor::new(Program::new())
            .run(vec![a1, a2], Store::empty(WeightedInt, doms()))
            .unwrap();
        assert!(!report.all_succeeded());
        assert!(report
            .agents
            .iter()
            .all(|a| a.outcome == AgentOutcome::Deadlock));
    }

    #[test]
    fn deadlock_after_partial_success() {
        let c = linear(1, 1, "c");
        let teller = Agent::tell(linear(0, 2, "d"), any(), Agent::success());
        let stuck = Agent::ask(c, any(), Agent::success());
        let report = ConcurrentExecutor::new(Program::new())
            .run(vec![teller, stuck], Store::empty(WeightedInt, doms()))
            .unwrap();
        assert_eq!(report.agents[0].outcome, AgentOutcome::Success);
        assert_eq!(report.agents[1].outcome, AgentOutcome::Deadlock);
    }

    #[test]
    fn example1_negotiation_deadlocks_concurrently() {
        // The concurrent rendition of Example 1: merged policies cost
        // 5 hours; P2's interval [1, 4] can never be satisfied.
        let p1 = Agent::tell(linear(1, 5, "c4"), any(), Agent::success());
        let p2 = Agent::tell(
            linear(2, 0, "c3"),
            any(),
            Agent::ask(
                Constraint::always(WeightedInt).with_label("1"),
                Interval::levels(4u64, 1u64),
                Agent::success(),
            ),
        );
        let report = ConcurrentExecutor::new(Program::new())
            .run(vec![p1, p2], Store::empty(WeightedInt, doms()))
            .unwrap();
        assert_eq!(report.agents[0].outcome, AgentOutcome::Success);
        assert_eq!(report.agents[1].outcome, AgentOutcome::Deadlock);
        assert_eq!(report.store.consistency().unwrap(), 5);
    }

    #[test]
    fn independent_sessions_run_in_parallel() {
        let sessions: Vec<_> = (0..8)
            .map(|i| {
                let agent = Agent::tell(linear(1, i, "c"), any(), Agent::success());
                (agent, Store::empty(WeightedInt, doms()))
            })
            .collect();
        let reports = run_sessions(&Program::new(), sessions, 42).unwrap();
        assert_eq!(reports.len(), 8);
        assert!(reports.iter().all(|r| r.outcome.is_success()));
    }
}
