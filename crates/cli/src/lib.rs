//! Command-line suite for the `softsoa` framework.
//!
//! The paper's conclusion calls for the models "implemented and
//! integrated together in a suite of tools, in order to manage and
//! monitor dependability while building SOAs"; this crate is that
//! suite. Every command is a pure function from a JSON specification
//! to a textual report (see [`commands`]), with the `softsoa` binary
//! as a thin shell:
//!
//! ```console
//! $ softsoa solve problem.json --solver bucket
//! $ softsoa negotiate scenario.json
//! $ softsoa negotiate scenario.json --chaos-seed 7 --chaos-rate 0.2
//! $ softsoa explore scenario.json
//! $ softsoa coalitions trust.json
//! $ softsoa integrity --step 512
//! $ softsoa serve --workers 8 --session-deadline-ms 2000
//! $ softsoa load --clients 200 --fault-rate 0.15 --store-chaos-rate 0.3
//! ```
//!
//! Document formats are defined in the [`mod@format`]
//! module; see the repository's
//! `examples/specs/` directory for ready-to-run samples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
pub mod format;

pub use commands::{
    coalitions, coalitions_with, coalitions_with_options, explore, integrity, load, negotiate,
    negotiate_chaos, negotiate_contend, negotiate_with, parse_engine, parse_fairness,
    parse_propagation, parse_semiring, parse_var_order, serve, solve, solve_with, ChaosOptions,
    CommandError, ContendOptions, DaemonOptions, EngineOptions, LoadOptions, MetricsFormat,
    SolveOptions, SolverChoice,
};
pub use format::{
    BrokerSpec, CoalitionSpec, ConstraintSpec, DomainSpec, FormatError, NegotiationSpec,
    PolicySpec, ProblemSpec, ProviderSpec, SemiringKind, ValSpec, MAX_DOMAIN_SIZE,
};
