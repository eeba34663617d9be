//! The nonmonotonic soft concurrent constraint language `nmsccp`.
//!
//! This crate implements Sec. 2.1 of *Bistarelli & Santini, "Soft
//! Constraints for Dependable Service Oriented Architectures"* (DSN
//! 2008): a concurrent language whose agents interact through a shared
//! store of soft constraints, guarded by *checked transitions* that
//! keep the store's consistency level within a dependability interval.
//!
//! | Paper (Figs. 2–4) | Here |
//! |---|---|
//! | agent syntax `A` | [`Agent`] |
//! | checked transitions C1–C4 (Fig. 3) | [`Interval`], [`Bound`] |
//! | transition rules R1–R10 (Fig. 4) | [`moves`] and [`enabled`] in [`semantics`] |
//! | the store `σ` | [`Store`] |
//! | programs `F.A` | [`Program`], [`parse_program`] |
//!
//! Nonmonotonicity comes from `retract` (semiring residuation `÷`) and
//! `update` (projection plus combination): the store's consistency can
//! *improve* over time, which is what lets SLA negotiations relax
//! requirements (Example 2 of the paper).
//!
//! # Execution
//!
//! - [`Interpreter`] — sequential, with deterministic or seeded-random
//!   scheduling and full traces;
//! - [`ConcurrentExecutor`] — one OS thread per agent over a shared
//!   store, with suspension and global-deadlock detection;
//! - [`run_sessions`] — many independent negotiations in parallel;
//! - [`TimedInterpreter`] — scheduled tells/retracts (the timing
//!   mechanisms of the paper's Example 2);
//! - [`ResilientInterpreter`] — deterministic fault injection
//!   ([`FaultPlan`]) with retry, checkpoint/rollback and relaxation
//!   recovery ([`RecoveryPolicy`]);
//! - [`Explorer`] — bounded exploration of *all* schedules: is an
//!   agreement possible under some schedule, and is it guaranteed
//!   under every one?
//!
//! # Example: the paper's Example 2
//!
//! ```
//! use softsoa_nmsccp::{parse_agent, Interpreter, ParseEnv, Policy, Program, Store};
//! use softsoa_core::{Constraint, Domain, Domains};
//! use softsoa_semiring::WeightedInt;
//!
//! let lin = |a: u64, b: u64| Constraint::unary(WeightedInt, "x", move |v| {
//!     a * v.as_int().unwrap() as u64 + b
//! });
//! let env = ParseEnv::new(WeightedInt)
//!     .with_constraint("c1", lin(1, 3))
//!     .with_constraint("c3", lin(2, 0))
//!     .with_constraint("c4", lin(1, 5))
//!     .with_constraint("one", Constraint::always(WeightedInt))
//!     .with_level("two", 2u64)
//!     .with_level("four", 4u64)
//!     .with_level("ten", 10u64);
//!
//! let agent = parse_agent("
//!     tell(c4) retract(c1) ->[ten, two] success
//!     || tell(c3) ask(one) ->[four, two] success
//! ", &env)?;
//!
//! let report = Interpreter::new(Program::new())
//!     .with_policy(Policy::Random(3))
//!     .run(agent, Store::empty(WeightedInt,
//!         Domains::new().with("x", Domain::ints(0..=10))))?;
//! // The store relaxes to 2x + 2; both parties agree at level 2.
//! assert!(report.outcome.is_success());
//! assert_eq!(report.outcome.store().consistency()?, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod checked;
mod concurrent;
mod explore;
mod interp;
mod parser;
mod resilience;
pub mod semantics;
mod store;
mod timed;

pub use agent::{Action, Agent, Clause, Guard, GuardKind, Program};
pub use checked::{Bound, Interval, InvalidIntervalError, ValidationError};
pub use concurrent::{
    run_sessions, AgentOutcome, AgentReport, ConcurrentExecutor, ConcurrentReport,
};
pub use explore::{Exploration, ExplorationStats, Explorer};
pub use interp::{EntryOrigin, Interpreter, Outcome, Policy, RunReport, TraceEntry};
pub use parser::{parse_agent, parse_program, ParseEnv, ParseError};
pub use resilience::{
    FaultAction, FaultEvent, FaultPalette, FaultPlan, FaultStatus, RecoveryPolicy,
    ResilienceReport, ResilientInterpreter,
};
pub use semantics::{enabled, moves, FreshGen, Move, Rule, SemanticsError, Transition};
pub use store::{Store, StoreError};
pub use timed::{EventStatus, TimedAction, TimedEvent, TimedInterpreter, TimedRunReport};
