//! The command implementations, as pure functions from specification
//! text to report text (the binary in `main.rs` is a thin shell).

use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::Duration;

use softsoa_coalition::{
    exact_formation_with, individually_oriented, local_search, scsp_formation_with,
    socially_oriented, FormationConfig, MAX_EXACT_AGENTS,
};
use softsoa_core::solve::{
    BranchAndBound, BucketElimination, Engine, EnumerationSolver, Parallelism, PropagationMode,
    Solver, SolverConfig, VarOrder,
};
use softsoa_core::{Constraint, Domain, Domains, Scsp, Var};
use softsoa_dependability::{check_refinement, photo};
use softsoa_nmsccp::{
    parse_program, FaultPalette, FaultPlan, Interpreter, Interval, ParseEnv, Policy,
    RecoveryPolicy, ResilientInterpreter, SemanticsError, Store,
};
use softsoa_semiring::{Boolean, Fuzzy, Probabilistic, Semiring, Weighted};
use softsoa_soa::server::loadgen::{self, ContentionConfig, LoadConfig};
use softsoa_soa::server::transport::TransportChaos;
use softsoa_soa::{
    Broker, ChaosConfig, ContendedRequest, ContentionOutcome, Fairness, NegotiationError,
    NegotiationRequest, NegotiationServer, QosDocument, Registry, ServerConfig, ServiceDescription,
    StoreChaos, WireSemiring,
};
use softsoa_telemetry::{MemorySink, Telemetry};

use crate::format::{
    parse_level, BrokerSpec, CoalitionSpec, ConstraintSpec, FormatError, NegotiationSpec,
    PolicySpec, ProblemSpec, SemiringKind,
};

/// An error from a command.
#[derive(Debug)]
pub enum CommandError {
    /// The specification was malformed or invalid.
    Format(FormatError),
    /// An unknown option value was supplied.
    Usage(String),
    /// The underlying engine failed.
    Engine(String),
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandError::Format(e) => write!(f, "{e}"),
            CommandError::Usage(msg) => write!(f, "usage error: {msg}"),
            CommandError::Engine(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<FormatError> for CommandError {
    fn from(e: FormatError) -> CommandError {
        CommandError::Format(e)
    }
}

/// The solver to use for `solve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// Exhaustive reference solver.
    #[default]
    Enumeration,
    /// Branch-and-bound (totally ordered semirings).
    BranchAndBound,
    /// Bucket elimination.
    Bucket,
}

impl SolverChoice {
    /// Parses a `--solver` value.
    ///
    /// # Errors
    ///
    /// Returns [`CommandError::Usage`] for unknown names.
    pub fn parse(name: &str) -> Result<SolverChoice, CommandError> {
        match name {
            "enum" | "enumeration" => Ok(SolverChoice::Enumeration),
            "bnb" | "branch-and-bound" => Ok(SolverChoice::BranchAndBound),
            "bucket" | "elimination" => Ok(SolverChoice::Bucket),
            other => Err(CommandError::Usage(format!("unknown solver `{other}`"))),
        }
    }

    /// The label this solver carries in telemetry snapshots.
    pub fn label(self) -> &'static str {
        match self {
            SolverChoice::Enumeration => "enumeration",
            SolverChoice::BranchAndBound => "branch-and-bound",
            SolverChoice::Bucket => "bucket",
        }
    }
}

/// Output format for the `--metrics` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// The deterministic one-line JSON snapshot (no wall-clock data),
    /// appended as the report's final line.
    #[default]
    Json,
    /// A human-readable table, including wall-clock timings.
    Pretty,
}

impl MetricsFormat {
    /// Parses a `--metrics=<format>` value.
    ///
    /// # Errors
    ///
    /// Returns [`CommandError::Usage`] for unknown names.
    pub fn parse(name: &str) -> Result<MetricsFormat, CommandError> {
        match name {
            "json" => Ok(MetricsFormat::Json),
            "pretty" => Ok(MetricsFormat::Pretty),
            other => Err(CommandError::Usage(format!(
                "unknown metrics format `{other}` (expected `json` or `pretty`)"
            ))),
        }
    }
}

/// A telemetry handle paired with the sink it records into; disabled
/// (and free) when `--metrics` was not requested.
fn metrics_recorder(
    format: Option<MetricsFormat>,
) -> (Telemetry, Option<(Arc<MemorySink>, MetricsFormat)>) {
    match format {
        None => (Telemetry::disabled(), None),
        Some(format) => {
            let (telemetry, sink) = Telemetry::recording();
            (telemetry, Some((sink, format)))
        }
    }
}

/// Appends the recorded snapshot to a report: JSON as one final line
/// (so scripts can `tail -n 1`), pretty as a trailing block.
fn append_metrics(out: &mut String, recorder: Option<(Arc<MemorySink>, MetricsFormat)>) {
    if let Some((sink, format)) = recorder {
        let snapshot = sink.snapshot();
        match format {
            MetricsFormat::Json => {
                let _ = writeln!(out, "{}", snapshot.to_json());
            }
            MetricsFormat::Pretty => out.push_str(&snapshot.render_pretty()),
        }
    }
}

/// Preprocessing knobs shared by `solve` and `coalitions`
/// (`--propagate`, `--decompose`, `--no-decompose`, `--engine`).
///
/// `None` keeps the [`SolverConfig`] default (root propagation,
/// decomposition on); the flags exist to force a mode or switch the
/// machinery off for comparison runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineOptions {
    /// Soft arc-consistency mode (`--propagate=off|root`).
    pub propagate: Option<PropagationMode>,
    /// Solve independent constraint-graph components separately
    /// (`--decompose` / `--no-decompose`).
    pub decompose: Option<bool>,
    /// Exact engine per component (`--engine auto|bnb|treedec`).
    pub engine: Option<Engine>,
}

impl EngineOptions {
    /// Applies the requested overrides to a base configuration.
    #[must_use]
    pub fn apply(&self, mut config: SolverConfig) -> SolverConfig {
        if let Some(mode) = self.propagate {
            config = config.with_propagation(mode);
        }
        if let Some(decompose) = self.decompose {
            config = config.with_decompose(decompose);
        }
        if let Some(engine) = self.engine {
            config = config.with_engine(engine);
        }
        config
    }
}

/// Parses an `--engine` value into an [`Engine`].
///
/// # Errors
///
/// Returns the list of accepted names for anything else.
pub fn parse_engine(name: &str) -> Result<Engine, String> {
    match name {
        "bnb" | "branch-and-bound" => Ok(Engine::BranchBound),
        "auto" => Ok(Engine::Auto),
        "treedec" | "tree" => Ok(Engine::TreeDecompose),
        other => Err(format!(
            "unknown engine `{other}` (expected auto, bnb or treedec)"
        )),
    }
}

/// Parses a `--propagate` value into a [`PropagationMode`].
///
/// # Errors
///
/// Returns the list of accepted names for anything else.
pub fn parse_propagation(name: &str) -> Result<PropagationMode, String> {
    match name {
        "off" => Ok(PropagationMode::Off),
        "root" => Ok(PropagationMode::Root),
        other => Err(format!(
            "unknown propagation mode `{other}` (expected off or root)"
        )),
    }
}

/// Engine options shared by every `solve` invocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveOptions {
    /// Worker threads (`--jobs`); `None` is [`Parallelism::Auto`]: the
    /// host's threads for work large enough to pay, inline otherwise.
    pub jobs: Option<usize>,
    /// Append the engine statistics to the report (`--stats`).
    pub stats: bool,
    /// Append a telemetry snapshot to the report (`--metrics`).
    pub metrics: Option<MetricsFormat>,
    /// Variable order for branch-and-bound (`--order`); `None` keeps
    /// the default most-constrained-first heuristic.
    pub order: Option<VarOrder>,
    /// Propagation and decomposition overrides (`--propagate`,
    /// `--decompose`, `--no-decompose`).
    pub engine: EngineOptions,
}

impl SolveOptions {
    fn config(&self) -> SolverConfig {
        let parallelism = match self.jobs {
            Some(n) => Parallelism::Threads(n.max(1)),
            None => Parallelism::Auto,
        };
        self.engine
            .apply(SolverConfig::default().with_parallelism(parallelism))
    }
}

/// Parses a `--order` value into a [`VarOrder`].
///
/// # Errors
///
/// Returns the list of accepted names for anything else.
pub fn parse_var_order(name: &str) -> Result<VarOrder, String> {
    match name {
        "input" => Ok(VarOrder::Input),
        "most-constrained" => Ok(VarOrder::MostConstrained),
        "dynamic" => Ok(VarOrder::Dynamic),
        "estimate" => Ok(VarOrder::Estimate),
        other => Err(format!(
            "unknown variable order `{other}` (expected input, most-constrained, dynamic or estimate)"
        )),
    }
}

fn solve_generic<S: Semiring>(
    problem: &Scsp<S>,
    solver: SolverChoice,
    options: SolveOptions,
) -> Result<String, CommandError>
where
    S::Value: std::fmt::Display,
{
    let config = options.config();
    let solution = match solver {
        SolverChoice::Enumeration => EnumerationSolver::with_config(config).solve(problem),
        SolverChoice::BranchAndBound => {
            let order = options.order.unwrap_or(VarOrder::MostConstrained);
            BranchAndBound::with_config(order, config).solve(problem)
        }
        SolverChoice::Bucket => BucketElimination::with_config(config).solve(problem),
    }
    .map_err(|e| CommandError::Engine(e.to_string()))?;
    let (telemetry, recorder) = metrics_recorder(options.metrics);
    if let Some(stats) = solution.stats() {
        stats.emit(&telemetry, solver.label());
    }

    let mut out = String::new();
    let _ = writeln!(out, "blevel: {}", solution.blevel());
    if solution.best().is_empty() {
        let _ = writeln!(out, "no solution above the semiring zero");
    }
    for (eta, level) in solution.best() {
        let _ = writeln!(out, "best: {eta} at {level}");
    }
    if let Some(table) = solution.solution_constraint() {
        let _ = writeln!(out, "solution table over {:?}:", table.scope());
        let doms = problem.domains();
        if let Ok(tuples) = doms.tuples(table.scope()) {
            for tuple in tuples {
                let level = table.eval_tuple(&tuple);
                let row: Vec<String> = tuple.iter().map(ToString::to_string).collect();
                let _ = writeln!(out, "  ⟨{}⟩ → {level}", row.join(", "));
            }
        }
    }
    if options.stats {
        if let Some(stats) = solution.stats() {
            let _ = writeln!(out, "engine: {stats}");
        }
    }
    append_metrics(&mut out, recorder);
    Ok(out)
}

/// `softsoa solve`: parse an SCSP document and solve it.
///
/// # Errors
///
/// Returns [`CommandError`] for malformed documents, bad levels or
/// solver failures.
pub fn solve(text: &str, solver: SolverChoice) -> Result<String, CommandError> {
    solve_with(text, solver, SolveOptions::default())
}

/// [`solve`] with explicit engine options (thread count, search
/// steering, statistics).
///
/// # Errors
///
/// Returns [`CommandError`] for malformed documents, bad levels or
/// solver failures.
pub fn solve_with(
    text: &str,
    solver: SolverChoice,
    options: SolveOptions,
) -> Result<String, CommandError> {
    let spec = ProblemSpec::from_json(text)?;
    match spec.semiring {
        SemiringKind::Weighted => solve_generic(&spec.build(Weighted)?, solver, options),
        SemiringKind::Fuzzy => solve_generic(&spec.build(Fuzzy)?, solver, options),
        SemiringKind::Probabilistic => solve_generic(&spec.build(Probabilistic)?, solver, options),
        SemiringKind::Boolean => solve_generic(&spec.build(Boolean)?, solver, options),
    }
}

/// Builds the document's constraint `name`, labelled with its name
/// unless the document gives a label: fault and recovery trace notes
/// name constraints by label.
fn labelled<S: WireSemiring>(
    name: &str,
    cspec: &ConstraintSpec,
    semiring: &S,
) -> Result<Constraint<S>, CommandError> {
    let c = cspec.to_constraint(semiring.clone())?;
    Ok(if c.label().is_none() {
        c.with_label(name)
    } else {
        c
    })
}

/// The document's relaxation ladder for chaos mode, in declared order.
fn relaxations<S: WireSemiring>(
    spec: &NegotiationSpec,
    semiring: &S,
) -> Result<Vec<Constraint<S>>, CommandError> {
    spec.relaxations
        .iter()
        .map(|name| {
            let cspec = spec.constraints.get(name).ok_or_else(|| {
                CommandError::Usage(format!("relaxation `{name}` names no constraint"))
            })?;
            labelled(name, cspec, semiring)
        })
        .collect()
}

/// Runs a negotiation document without a `broker` section: parses its
/// `nmsccp` scenario and runs it on the plain interpreter, or — under
/// `--chaos-*` options — on the resilient one with a seeded fault plan
/// and the document's relaxations and invariant.
fn scenario_generic<S>(
    spec: &NegotiationSpec,
    chaos: Option<ChaosOptions>,
    semiring: S,
    metrics: Option<MetricsFormat>,
) -> Result<String, CommandError>
where
    S: WireSemiring,
    S::Value: std::fmt::Display,
{
    let mut env = ParseEnv::new(semiring.clone());
    let mut named = Vec::new();
    for (name, cspec) in &spec.constraints {
        let c = labelled(name, cspec, &semiring)?;
        env = env.with_constraint(name, c.clone());
        named.push(c);
    }
    for (name, raw) in &spec.levels {
        env = env.with_level(name, parse_level::<S>(*raw)?);
    }
    let (program, agent) = parse_program(&spec.agent, &env)
        .map_err(|e| CommandError::Engine(format!("agent syntax: {e}")))?;
    let mut domains = Domains::new();
    for (name, dspec) in &spec.domains {
        domains.insert(Var::new(name), dspec.to_domain()?);
    }
    let policy = match spec.policy {
        PolicySpec::First => Policy::First,
        PolicySpec::RoundRobin => Policy::RoundRobin,
        PolicySpec::Random(seed) => Policy::Random(seed),
    };
    let store = Store::empty(semiring.clone(), domains);
    let engine = |e: SemanticsError| CommandError::Engine(e.to_string());
    let (telemetry, recorder) = metrics_recorder(metrics);
    let mut out = String::new();
    match chaos {
        None => {
            let report = Interpreter::new(program)
                .with_policy(policy)
                .with_max_steps(spec.max_steps)
                .with_telemetry(telemetry)
                .run(agent, store)
                .map_err(engine)?;
            for entry in &report.trace {
                let _ = writeln!(
                    out,
                    "step {:3}  {:12} {:24} σ⇓∅ = {}",
                    entry.step,
                    entry.rule.to_string(),
                    entry.note,
                    entry.consistency
                );
            }
            let reached = report
                .final_consistency()
                .map_err(|e| CommandError::Engine(e.to_string()))?;
            let _ = writeln!(out, "outcome: {} at σ⇓∅ = {reached}", report.outcome);
        }
        Some(options) => {
            // Faults draw from the scenario's own vocabulary: any named
            // constraint may be forcibly retracted, and chosen
            // transitions may be dropped.
            let palette = FaultPalette {
                retractions: named,
                drop_transitions: true,
                ..FaultPalette::default()
            };
            let plan = FaultPlan::seeded(options.seed, options.horizon, options.rate, &palette);
            let invariant = spec
                .invariant
                .map(|[lo, hi]| {
                    Ok::<_, FormatError>(Interval::levels(
                        parse_level::<S>(lo)?,
                        parse_level::<S>(hi)?,
                    ))
                })
                .transpose()?;
            let recovery = RecoveryPolicy {
                guard_deadline: options.deadline,
                max_retries: options.retries,
                backoff_base: options.backoff,
                relaxations: relaxations(spec, &semiring)?,
                invariant,
                deadline: None,
            };
            let report = ResilientInterpreter::new(program)
                .with_plan(plan)
                .with_recovery(recovery)
                .with_policy(policy)
                .with_max_steps(spec.max_steps)
                .with_telemetry(telemetry)
                .run(agent, store)
                .map_err(engine)?;
            for entry in &report.report.trace {
                let _ = writeln!(
                    out,
                    "step {:3}  {:8} {:12} {:40} σ⇓∅ = {}",
                    entry.step,
                    entry.origin.to_string(),
                    entry.rule.to_string(),
                    entry.note,
                    entry.consistency
                );
            }
            let _ = writeln!(
                out,
                "faults: {} injected, {} transitions dropped",
                report.faults_injected, report.dropped_transitions
            );
            let _ = writeln!(
                out,
                "recovery: {} retries, {} rollbacks, {} relaxations, {} interval violations",
                report.retries,
                report.rollbacks,
                report.relaxations_applied,
                report.invariant_violations
            );
            let _ = writeln!(
                out,
                "outcome: {} at σ⇓∅ = {}",
                report.report.outcome, report.final_consistency
            );
        }
    }
    append_metrics(&mut out, recorder);
    Ok(out)
}

/// `softsoa negotiate`: run an `nmsccp` scenario and report the trace
/// and outcome. Documents with a `broker` section run the Sec. 4
/// broker protocol instead.
///
/// # Errors
///
/// Returns [`CommandError`] for malformed documents, agent syntax
/// errors or engine failures.
pub fn negotiate(text: &str) -> Result<String, CommandError> {
    negotiate_with(text, None)
}

/// [`negotiate`] with an optional telemetry snapshot appended
/// (`--metrics`).
///
/// # Errors
///
/// Returns [`CommandError`] for malformed documents, agent syntax
/// errors or engine failures.
pub fn negotiate_with(text: &str, metrics: Option<MetricsFormat>) -> Result<String, CommandError> {
    negotiate_document(text, None, metrics)
}

/// Chaos-mode options for `negotiate` (`--chaos-*` flags).
#[derive(Debug, Clone, Copy)]
pub struct ChaosOptions {
    /// RNG seed for the fault plan (`--chaos-seed`); equal seeds give
    /// bit-identical runs.
    pub seed: u64,
    /// Per-step fault probability (`--chaos-rate`).
    pub rate: f64,
    /// Steps covered by the fault plan (`--chaos-horizon`).
    pub horizon: usize,
    /// Retry budget for blocked configurations (`--chaos-retries`).
    pub retries: usize,
    /// Idle steps before each retry (`--chaos-deadline`).
    pub deadline: usize,
    /// Base of the exponential retry backoff (`--chaos-backoff`).
    pub backoff: usize,
    /// Append a telemetry snapshot to the report (`--metrics`).
    pub metrics: Option<MetricsFormat>,
}

impl Default for ChaosOptions {
    /// The library's defaults: [`ChaosConfig::default`]'s fault model
    /// and its (the default [`RecoveryPolicy`]'s) patience.
    fn default() -> ChaosOptions {
        let config = ChaosConfig::<Fuzzy>::default();
        ChaosOptions {
            seed: config.seed,
            rate: config.fault_rate,
            horizon: config.horizon,
            retries: config.max_retries,
            deadline: config.guard_deadline,
            backoff: config.backoff_base,
            metrics: None,
        }
    }
}

/// `softsoa negotiate --chaos-*`: run an `nmsccp` scenario under
/// deterministic fault injection with retry, rollback and relaxation
/// recovery. Same seed, same report, bit for bit. Documents with a
/// `broker` section negotiate resiliently against every declared
/// provider instead.
///
/// # Errors
///
/// Returns [`CommandError`] for malformed documents, unknown
/// relaxation names, agent syntax errors or engine failures.
pub fn negotiate_chaos(text: &str, options: ChaosOptions) -> Result<String, CommandError> {
    negotiate_document(text, Some(options), options.metrics)
}

/// The one `negotiate` dispatch: picks the document's semiring, then
/// runs its broker section or its scenario, plainly or under `chaos`.
fn negotiate_document(
    text: &str,
    chaos: Option<ChaosOptions>,
    metrics: Option<MetricsFormat>,
) -> Result<String, CommandError> {
    let spec = NegotiationSpec::from_json(text)?;
    match spec.semiring {
        SemiringKind::Weighted => negotiate_generic(&spec, chaos, metrics, Weighted),
        SemiringKind::Fuzzy => negotiate_generic(&spec, chaos, metrics, Fuzzy),
        SemiringKind::Probabilistic => negotiate_generic(&spec, chaos, metrics, Probabilistic),
        SemiringKind::Boolean => negotiate_generic(&spec, chaos, metrics, Boolean),
    }
}

fn negotiate_generic<S>(
    spec: &NegotiationSpec,
    chaos: Option<ChaosOptions>,
    metrics: Option<MetricsFormat>,
    semiring: S,
) -> Result<String, CommandError>
where
    S: WireSemiring,
    S::Value: std::fmt::Display,
{
    match &spec.broker {
        Some(broker_spec) => broker_generic(spec, broker_spec, chaos, semiring, metrics),
        None => scenario_generic(spec, chaos, semiring, metrics),
    }
}

/// Publishes a broker section's declared providers into a fresh
/// registry, carrying any declared concurrent-binding capacities.
fn broker_registry(broker_spec: &BrokerSpec) -> Registry {
    let mut registry = Registry::new();
    for provider in &broker_spec.providers {
        let mut doc = QosDocument::new(&provider.id);
        for offer in &provider.offers {
            doc = doc.with_offer(offer.clone());
        }
        let mut description = ServiceDescription::new(
            provider.id.as_str(),
            provider.provider.as_deref().unwrap_or(&provider.id),
            broker_spec.capability.as_str(),
            doc,
        );
        if let Some(slots) = provider.capacity {
            description = description.with_capacity(slots);
        }
        registry.publish(description);
    }
    registry
}

/// Builds the client-side negotiation request a broker section
/// describes (variable domain, policy constraint, acceptance band).
fn broker_request<S: WireSemiring>(
    spec: &NegotiationSpec,
    broker_spec: &BrokerSpec,
    semiring: &S,
) -> Result<NegotiationRequest<S>, CommandError> {
    let domain = spec
        .domains
        .get(&broker_spec.variable)
        .ok_or_else(|| {
            CommandError::Usage(format!(
                "broker variable `{}` has no domain",
                broker_spec.variable
            ))
        })?
        .to_domain()?;
    let client = spec
        .constraints
        .get(&broker_spec.client)
        .ok_or_else(|| {
            CommandError::Usage(format!(
                "broker client policy `{}` names no constraint",
                broker_spec.client
            ))
        })?
        .to_constraint(semiring.clone())?;
    let [lo, hi] = broker_spec.acceptance;
    Ok(NegotiationRequest {
        capability: broker_spec.capability.clone(),
        variable: Var::new(&broker_spec.variable),
        domain,
        constraint: client,
        acceptance: Interval::levels(parse_level::<S>(lo)?, parse_level::<S>(hi)?),
    })
}

/// Runs the broker section of a negotiation document: publishes the
/// declared providers, builds the client request and negotiates —
/// plainly, or resiliently under `--chaos-*` options.
fn broker_generic<S>(
    spec: &NegotiationSpec,
    broker_spec: &BrokerSpec,
    chaos: Option<ChaosOptions>,
    semiring: S,
    metrics: Option<MetricsFormat>,
) -> Result<String, CommandError>
where
    S: WireSemiring,
    S::Value: std::fmt::Display,
{
    let registry = broker_registry(broker_spec);
    let request = broker_request(spec, broker_spec, &semiring)?;

    let (telemetry, recorder) = metrics_recorder(metrics);
    let broker = Broker::new(semiring.clone(), registry).with_telemetry(telemetry);
    let engine = |e: NegotiationError| CommandError::Engine(e.to_string());
    let mut out = String::new();
    match chaos {
        None => {
            let sla = broker.negotiate(&request, S::translate).map_err(engine)?;
            write_sla(&mut out, &sla);
        }
        Some(options) => {
            let config = ChaosConfig {
                seed: options.seed,
                fault_rate: options.rate,
                horizon: options.horizon,
                guard_deadline: options.deadline,
                max_retries: options.retries,
                backoff_base: options.backoff,
                ..ChaosConfig::default()
            };
            let relaxations = relaxations(spec, &semiring)?;
            let report = broker
                .negotiate_resilient(&request, &relaxations, &config, S::translate)
                .map_err(engine)?;
            for (service, session) in &report.sessions {
                let _ = writeln!(
                    out,
                    "session {:12} {:10} faults {} retries {} rollbacks {} relaxations {}",
                    service.as_str(),
                    session.report.outcome.to_string(),
                    session.faults_injected,
                    session.retries,
                    session.rollbacks,
                    session.relaxations_applied,
                );
            }
            let _ = writeln!(
                out,
                "faults: {} injected, {} transitions dropped",
                report.faults_injected, report.dropped_transitions
            );
            let _ = writeln!(
                out,
                "recovery: {} retries, {} rollbacks, {} relaxations, {} interval violations",
                report.retries,
                report.rollbacks,
                report.relaxations_applied,
                report.invariant_violations
            );
            match &report.sla {
                Some(sla) => write_sla(&mut out, sla),
                None => {
                    let _ = writeln!(out, "outcome: no agreement survived the chaos run");
                }
            }
        }
    }
    append_metrics(&mut out, recorder);
    Ok(out)
}

fn write_sla<S: Semiring>(out: &mut String, sla: &softsoa_soa::Sla<S>)
where
    S::Value: std::fmt::Display,
{
    let _ = writeln!(
        out,
        "sla: {} from {} at {}",
        sla.service.as_str(),
        sla.provider.as_str(),
        sla.agreed_level
    );
    if let Some((eta, level)) = &sla.binding {
        let _ = writeln!(out, "binding: {eta} at {level}");
    }
}

/// Options for `negotiate --contend` (contended broker scenarios).
#[derive(Debug, Clone, Copy)]
pub struct ContendOptions {
    /// Contending clients to replicate the scenario's request into
    /// (`--contend <n>`).
    pub contenders: usize,
    /// The allocation objective (`--fairness`).
    pub fairness: Fairness,
    /// Append a telemetry snapshot to the report (`--metrics`).
    pub metrics: Option<MetricsFormat>,
}

impl Default for ContendOptions {
    fn default() -> ContendOptions {
        ContendOptions {
            contenders: 4,
            fairness: Fairness::default(),
            metrics: None,
        }
    }
}

/// `softsoa negotiate --contend <n>`: replicates a broker scenario's
/// request into `n` contending clients and allocates them jointly
/// under the configured fairness objective, reporting each client's
/// typed outcome and the batch fairness metrics.
///
/// # Errors
///
/// Returns [`CommandError::Usage`] for documents without a `broker`
/// section or for the boolean semiring (contention ranks agreements by
/// graded softness), [`CommandError::Format`] for malformed documents.
pub fn negotiate_contend(text: &str, options: &ContendOptions) -> Result<String, CommandError> {
    let spec = NegotiationSpec::from_json(text)?;
    let broker_spec = spec.broker.clone().ok_or_else(|| {
        CommandError::Usage("--contend: the document has no `broker` section".into())
    })?;
    match spec.semiring {
        SemiringKind::Weighted => contend_generic(&spec, &broker_spec, options, Weighted),
        SemiringKind::Fuzzy => contend_generic(&spec, &broker_spec, options, Fuzzy),
        SemiringKind::Probabilistic => contend_generic(&spec, &broker_spec, options, Probabilistic),
        SemiringKind::Boolean => Err(CommandError::Usage(
            "--contend: contention ranks agreements by graded softness — \
             use weighted, fuzzy or probabilistic"
                .into(),
        )),
    }
}

fn contend_generic<S>(
    spec: &NegotiationSpec,
    broker_spec: &BrokerSpec,
    options: &ContendOptions,
    semiring: S,
) -> Result<String, CommandError>
where
    S: WireSemiring,
    S::Value: std::fmt::Display,
{
    let registry = broker_registry(broker_spec);
    let request = broker_request(spec, broker_spec, &semiring)?;
    let (telemetry, recorder) = metrics_recorder(options.metrics);
    let broker = Broker::new(semiring, registry).with_telemetry(telemetry);
    let contended: Vec<ContendedRequest<S>> = (0..options.contenders.max(1))
        .map(|i| ContendedRequest {
            client: format!("client-{i:02}"),
            request: request.clone(),
        })
        .collect();
    let allocation = broker.negotiate_contended(&contended, options.fairness, S::translate);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "contended: {} clients for `{}`, objective {}, epoch {}",
        contended.len(),
        broker_spec.capability,
        allocation.fairness,
        allocation.epoch,
    );
    for (client, outcome) in &allocation.outcomes {
        match outcome {
            ContentionOutcome::Granted(sla) => {
                let _ = writeln!(
                    out,
                    "{client:12} granted     {} from {} at {}",
                    sla.service.as_str(),
                    sla.provider.as_str(),
                    sla.agreed_level
                );
            }
            ContentionOutcome::Preempted => {
                let _ = writeln!(out, "{client:12} preempted   (fcfs would have granted)");
            }
            ContentionOutcome::Waitlisted { age } => {
                let _ = writeln!(out, "{client:12} waitlisted  (denied {age} rounds running)");
            }
            ContentionOutcome::Unserved => {
                let _ = writeln!(out, "{client:12} unserved    (no provider agreed)");
            }
        }
    }
    let report = &allocation.report;
    let _ = writeln!(
        out,
        "fairness: jain {:.3} min-utility {:.3} spread {:.3} sum-softness {:.3} \
         max-starvation {}",
        report.jain,
        report.min_utility,
        report.spread,
        report.sum_softness,
        report.max_starvation_age,
    );
    append_metrics(&mut out, recorder);
    Ok(out)
}

fn explore_generic<S: WireSemiring>(
    spec: &NegotiationSpec,
    semiring: S,
) -> Result<String, CommandError> {
    let mut env = ParseEnv::new(semiring.clone());
    for (name, cspec) in &spec.constraints {
        env = env.with_constraint(name, cspec.to_constraint(semiring.clone())?);
    }
    for (name, raw) in &spec.levels {
        env = env.with_level(name, parse_level::<S>(*raw)?);
    }
    let (program, agent) = parse_program(&spec.agent, &env)
        .map_err(|e| CommandError::Engine(format!("agent syntax: {e}")))?;
    let mut domains = Domains::new();
    for (name, dspec) in &spec.domains {
        domains.insert(Var::new(name), dspec.to_domain()?);
    }
    let verdict = softsoa_nmsccp::Explorer::new(program)
        .explore(agent, Store::empty(semiring, domains))
        .map_err(|e| CommandError::Engine(e.to_string()))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "configurations: {} ({} transitions{})",
        verdict.configurations,
        verdict.transitions,
        if verdict.truncated { ", TRUNCATED" } else { "" }
    );
    let _ = writeln!(
        out,
        "agreement possible:   {}",
        if verdict.success_reachable {
            "YES"
        } else {
            "NO"
        }
    );
    let _ = writeln!(
        out,
        "agreement guaranteed: {}",
        if verdict.always_succeeds && !verdict.truncated {
            "YES"
        } else {
            "NO"
        }
    );
    let _ = writeln!(
        out,
        "deadlock reachable:   {}",
        if verdict.deadlock_reachable {
            "YES"
        } else {
            "NO"
        }
    );
    Ok(out)
}

/// `softsoa explore`: model-check a negotiation — can it succeed under
/// some schedule, and must it under every one?
///
/// # Errors
///
/// Returns [`CommandError`] for malformed documents, agent syntax
/// errors or engine failures.
pub fn explore(text: &str) -> Result<String, CommandError> {
    let spec = NegotiationSpec::from_json(text)?;
    match spec.semiring {
        SemiringKind::Weighted => explore_generic(&spec, Weighted),
        SemiringKind::Fuzzy => explore_generic(&spec, Fuzzy),
        SemiringKind::Probabilistic => explore_generic(&spec, Probabilistic),
        SemiringKind::Boolean => explore_generic(&spec, Boolean),
    }
}

/// `softsoa coalitions`: form trustworthy coalitions from a trust
/// matrix.
///
/// # Errors
///
/// Returns [`CommandError`] for malformed documents, unknown
/// algorithm names, or an `exact` request beyond the Bell-number
/// ceiling of [`MAX_EXACT_AGENTS`] agents.
pub fn coalitions(text: &str) -> Result<String, CommandError> {
    coalitions_with(text, None)
}

/// [`coalitions`] with an optional telemetry snapshot appended
/// (`--metrics`).
///
/// # Errors
///
/// Same as [`coalitions`].
pub fn coalitions_with(text: &str, metrics: Option<MetricsFormat>) -> Result<String, CommandError> {
    coalitions_with_options(text, metrics, EngineOptions::default())
}

/// [`coalitions_with`] with explicit propagation and decomposition
/// overrides for the `scsp` algorithm's branch-and-bound solver
/// (`--propagate`, `--decompose`, `--no-decompose`); the other
/// algorithms do not search an SCSP and ignore the overrides.
///
/// # Errors
///
/// Same as [`coalitions`], plus an `scsp` request beyond the encoding's
/// five-agent ceiling.
pub fn coalitions_with_options(
    text: &str,
    metrics: Option<MetricsFormat>,
    engine: EngineOptions,
) -> Result<String, CommandError> {
    let spec = CoalitionSpec::from_json(text)?;
    let network = spec.network()?;
    let compose = spec.composition()?;
    let cfg = FormationConfig {
        compose,
        require_stability: spec.require_stability,
        max_coalitions: spec.max_coalitions,
    };
    let (telemetry, recorder) = metrics_recorder(metrics);
    let result = match spec.algorithm.as_str() {
        "exact" => {
            // The exact solver runs an O(3^n) subset DP and asserts
            // its ceiling; turn that panic into a usage error before
            // it is reachable.
            if network.len() > MAX_EXACT_AGENTS {
                return Err(CommandError::Usage(format!(
                    "exact formation handles at most {MAX_EXACT_AGENTS} agents, got {} \
                     (use `local`, `individual` or `social`)",
                    network.len()
                )));
            }
            exact_formation_with(&network, cfg, Parallelism::Sequential, &telemetry)
                .ok_or_else(|| CommandError::Engine("no feasible partition".into()))?
        }
        "individual" => individually_oriented(&network, compose),
        "social" => socially_oriented(&network, compose),
        "local" => local_search(&network, cfg, 0, 2_000),
        "scsp" => {
            // The Sec. 6.1 encoding enumerates (2^n)^n tuples; its
            // builder asserts the ceiling, so report it as a usage
            // error before it is reachable.
            if network.len() > 5 {
                return Err(CommandError::Usage(format!(
                    "the scsp encoding handles at most 5 agents, got {} \
                     (use `exact`, `local`, `individual` or `social`)",
                    network.len()
                )));
            }
            let config = engine.apply(SolverConfig::default());
            scsp_formation_with(&network, compose, spec.require_stability, &config)
                .map_err(|e| CommandError::Engine(e.to_string()))?
                .ok_or_else(|| CommandError::Engine("no feasible partition".into()))?
        }
        other => {
            return Err(CommandError::Usage(format!("unknown algorithm `{other}`")));
        }
    };
    let mut out = String::new();
    let _ = writeln!(out, "partition: {}", result.partition);
    let _ = writeln!(out, "objective (min coalition trust): {}", result.score);
    let stable = softsoa_coalition::is_stable(&network, &result.partition, compose);
    let _ = writeln!(out, "stable: {stable}");
    append_metrics(&mut out, recorder);
    Ok(out)
}

/// `softsoa integrity`: the Sec. 5 photo-editing integrity analysis at
/// a chosen domain resolution.
///
/// # Errors
///
/// Returns [`CommandError::Usage`] for a non-positive step.
pub fn integrity(step: i64) -> Result<String, CommandError> {
    if step <= 0 {
        return Err(CommandError::Usage("step must be positive".into()));
    }
    let doms = photo::domains(4096, step);
    let mut out = String::new();
    for (name, imp) in [("Imp1", photo::imp1()), ("Imp2", photo::imp2())] {
        let report = check_refinement(&imp, &photo::memory(), &photo::interface(), &doms)
            .map_err(|e| CommandError::Engine(e.to_string()))?;
        if report.holds() {
            let _ = writeln!(out, "{name} ⇓ {{incomp, outcomp}} ⊑ Memory: HOLDS");
        } else {
            let ce = report.counterexample().ok_or_else(|| {
                CommandError::Engine("refinement check failed without a counterexample".into())
            })?;
            let _ = writeln!(
                out,
                "{name} ⇓ {{incomp, outcomp}} ⊑ Memory: VIOLATED at {}",
                ce.assignment
            );
        }
    }
    let _ = writeln!(
        out,
        "c1(4096 Kb, 1024 Kb) = {}",
        photo::stage_reliability(4096, 1024)
    );
    Ok(out)
}

/// Shared daemon knobs for the `serve` and `load` commands: plain
/// values as parsed from flags, lowered onto a [`ServerConfig`] by
/// [`DaemonOptions::server_config`].
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Semiring the daemon negotiates in (`boolean` is rejected:
    /// the wire protocol carries graded QoS levels).
    pub semiring: SemiringKind,
    /// Synthetic `compute` providers seeded into the registry
    /// (`None` keeps each workload's own default).
    pub providers: Option<usize>,
    /// Worker threads (`None` keeps the server default).
    pub workers: Option<usize>,
    /// Accept-queue bound (`None` keeps the server default).
    pub queue_limit: Option<usize>,
    /// Per-session wall-clock budget in milliseconds.
    pub session_deadline_ms: Option<u64>,
    /// Drain deadline applied at shutdown, milliseconds.
    pub drain_ms: u64,
    /// Store-level chaos seed (setting either chaos knob enables it).
    pub store_chaos_seed: Option<u64>,
    /// Store-level chaos fault rate.
    pub store_chaos_rate: Option<f64>,
    /// Server-side transport chaos seed.
    pub wire_chaos_seed: Option<u64>,
    /// Server-side transport chaos fault rate.
    pub wire_chaos_rate: Option<f64>,
    /// Contention objective for negotiate batching (`None` keeps the
    /// historical per-session FCFS path).
    pub fairness: Option<Fairness>,
}

impl Default for DaemonOptions {
    fn default() -> DaemonOptions {
        DaemonOptions {
            addr: "127.0.0.1:0".to_string(),
            semiring: SemiringKind::Fuzzy,
            providers: None,
            workers: None,
            queue_limit: None,
            session_deadline_ms: None,
            drain_ms: 2_000,
            store_chaos_seed: None,
            store_chaos_rate: None,
            wire_chaos_seed: None,
            wire_chaos_rate: None,
            fairness: None,
        }
    }
}

impl DaemonOptions {
    /// Providers to seed for the independent-session workloads.
    fn providers(&self) -> usize {
        self.providers.unwrap_or(8)
    }

    /// Lowers the flag values onto a concrete server configuration.
    fn server_config(&self) -> ServerConfig {
        let mut config = ServerConfig {
            addr: self.addr.clone(),
            fairness: self.fairness,
            ..ServerConfig::default()
        };
        if let Some(workers) = self.workers {
            config.workers = workers;
        }
        if let Some(limit) = self.queue_limit {
            config.queue_limit = limit;
        }
        if let Some(ms) = self.session_deadline_ms {
            config.session_deadline = Duration::from_millis(ms);
        }
        if self.store_chaos_seed.is_some() || self.store_chaos_rate.is_some() {
            config.store_chaos = Some(StoreChaos {
                seed: self.store_chaos_seed.unwrap_or(7),
                fault_rate: self.store_chaos_rate.unwrap_or(0.2),
            });
        }
        if self.wire_chaos_seed.is_some() || self.wire_chaos_rate.is_some() {
            config.transport_chaos = Some(TransportChaos {
                seed: self.wire_chaos_seed.unwrap_or(7),
                fault_rate: self.wire_chaos_rate.unwrap_or(0.1),
                ..TransportChaos::default()
            });
        }
        config
    }

    /// The drain deadline as a duration.
    fn drain(&self) -> Duration {
        Duration::from_millis(self.drain_ms)
    }
}

/// Parses a `--semiring` flag value.
///
/// # Errors
///
/// Returns [`CommandError::Usage`] for an unknown name.
pub fn parse_semiring(name: &str) -> Result<SemiringKind, CommandError> {
    match name {
        "weighted" => Ok(SemiringKind::Weighted),
        "fuzzy" => Ok(SemiringKind::Fuzzy),
        "probabilistic" => Ok(SemiringKind::Probabilistic),
        "boolean" => Ok(SemiringKind::Boolean),
        other => Err(CommandError::Usage(format!(
            "unknown semiring `{other}` (expected weighted, fuzzy or probabilistic)"
        ))),
    }
}

/// Parses a `--fairness` flag value.
///
/// # Errors
///
/// Returns [`CommandError::Usage`] for an unknown objective name.
pub fn parse_fairness(name: &str) -> Result<Fairness, CommandError> {
    Fairness::parse(name).ok_or_else(|| {
        CommandError::Usage(format!(
            "unknown fairness objective `{name}` (expected fcfs, utilitarian, leximin or nash)"
        ))
    })
}

/// `softsoa serve`: runs the negotiation daemon until stdin reaches
/// EOF, then drains gracefully and reports what the drain saw.
///
/// The listening address is printed (and flushed) as soon as the
/// daemon is up, so scripts can scrape the ephemeral port.
///
/// # Errors
///
/// Returns [`CommandError::Usage`] for the boolean semiring and
/// [`CommandError::Engine`] for bind/spawn failures.
pub fn serve(options: &DaemonOptions) -> Result<String, CommandError> {
    match options.semiring {
        SemiringKind::Weighted => serve_on(Weighted, options),
        SemiringKind::Fuzzy => serve_on(Fuzzy, options),
        SemiringKind::Probabilistic => serve_on(Probabilistic, options),
        SemiringKind::Boolean => Err(CommandError::Usage(
            "serve: the daemon negotiates graded QoS — use weighted, fuzzy or probabilistic".into(),
        )),
    }
}

fn serve_on<S: WireSemiring>(semiring: S, options: &DaemonOptions) -> Result<String, CommandError> {
    let registry = loadgen::seed_providers(options.providers());
    let handle = NegotiationServer::start(
        semiring,
        registry,
        options.server_config(),
        Telemetry::disabled(),
    )
    .map_err(|e| CommandError::Engine(format!("serve: {e}")))?;
    println!(
        "listening on {} ({}, {} workers, queue {}, {} providers)",
        handle.local_addr(),
        S::NAME,
        handle.config().workers,
        handle.config().queue_limit,
        options.providers(),
    );
    println!("serving until stdin closes (EOF drains and stops)");
    let _ = std::io::stdout().flush();

    // Block until the operator closes stdin; every other thread in the
    // daemon is already bounded, so this is the only open-ended wait.
    let mut stdin = std::io::stdin();
    let mut buffer = [0u8; 256];
    loop {
        match stdin.read(&mut buffer) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }

    let report = handle.shutdown(options.drain());
    Ok(format!(
        "drained: served {} aborted {} shed {} in {:.0} ms (within deadline: {})\n",
        report.drained,
        report.aborted,
        report.shed,
        report.elapsed.as_secs_f64() * 1e3,
        report.within_deadline,
    ))
}

/// Options for the `load` command.
#[derive(Debug, Clone, Default)]
pub struct LoadOptions {
    /// Attach to an already-running daemon instead of self-hosting.
    pub attach: Option<String>,
    /// Daemon knobs (self-hosted mode; in attach mode only
    /// `session_deadline_ms` is read, to size the hang detector).
    pub daemon: DaemonOptions,
    /// Client sessions to run.
    pub clients: Option<usize>,
    /// Concurrent client threads.
    pub concurrency: Option<usize>,
    /// Fraction of clients that misbehave at the transport level.
    pub fault_rate: Option<f64>,
    /// Fraction of well-behaved clients that churn the registry.
    pub churn_rate: Option<f64>,
    /// Seed for the deterministic client plans.
    pub seed: Option<u64>,
    /// Run the contended multi-client workload instead of the
    /// independent-session one (`--contended`).
    pub contended: bool,
    /// Contended waves to run (`--waves`).
    pub waves: Option<usize>,
    /// Clients racing in each contended wave (`--wave-clients`).
    pub wave_clients: Option<usize>,
    /// Concurrent-binding slots per seeded provider (`--slots`).
    pub slots: Option<u32>,
}

impl LoadOptions {
    fn load_config(&self) -> LoadConfig {
        let mut config = LoadConfig::default();
        if let Some(clients) = self.clients {
            config.clients = clients;
        }
        if let Some(concurrency) = self.concurrency {
            config.concurrency = concurrency;
        }
        if let Some(rate) = self.fault_rate {
            config.transport_fault_rate = rate;
        }
        if let Some(rate) = self.churn_rate {
            config.churn_rate = rate;
        }
        if let Some(seed) = self.seed {
            config.seed = seed;
        }
        config
    }

    fn contention_config(&self) -> ContentionConfig {
        let mut config = ContentionConfig {
            fairness: self.daemon.fairness.unwrap_or_default(),
            ..ContentionConfig::default()
        };
        if let Some(providers) = self.daemon.providers {
            config.providers = providers;
        }
        if let Some(waves) = self.waves {
            config.waves = waves;
        }
        if let Some(clients) = self.wave_clients {
            config.clients_per_wave = clients;
        }
        if let Some(slots) = self.slots {
            config.slots_per_provider = slots;
        }
        if let Some(rate) = self.fault_rate {
            config.transport_fault_rate = rate;
        }
        if let Some(seed) = self.seed {
            config.seed = seed;
        }
        config
    }
}

/// `softsoa load`: drives the deterministic load generator — against a
/// self-hosted daemon (default; the report includes the drain) or an
/// already-running one (`--attach`).
///
/// # Errors
///
/// Returns [`CommandError::Usage`] for the boolean semiring or an
/// unresolvable `--attach` address, [`CommandError::Engine`] for
/// bind/spawn failures.
pub fn load(options: &LoadOptions) -> Result<String, CommandError> {
    if options.contended {
        return load_contended(options);
    }
    let config = options.load_config();
    if let Some(addr) = &options.attach {
        let addr = resolve_attach(addr)?;
        let deadline = Duration::from_millis(options.daemon.session_deadline_ms.unwrap_or(2_000));
        let report = loadgen::run(addr, &config, deadline);
        return Ok(report.to_json() + "\n");
    }
    match options.daemon.semiring {
        SemiringKind::Weighted => load_self_hosted(Weighted, options, &config),
        SemiringKind::Fuzzy => load_self_hosted(Fuzzy, options, &config),
        SemiringKind::Probabilistic => load_self_hosted(Probabilistic, options, &config),
        SemiringKind::Boolean => Err(CommandError::Usage(
            "load: the daemon negotiates graded QoS — use weighted, fuzzy or probabilistic".into(),
        )),
    }
}

fn resolve_attach(addr: &str) -> Result<std::net::SocketAddr, CommandError> {
    addr.to_socket_addrs()
        .map_err(|e| CommandError::Usage(format!("--attach `{addr}`: {e}")))?
        .next()
        .ok_or_else(|| CommandError::Usage(format!("--attach `{addr}`: resolved to nothing")))
}

/// `softsoa load --contended`: waves of stable-identity clients race
/// for capacity-limited slots through the server's batching window;
/// the report carries the starvation and fairness tallies.
fn load_contended(options: &LoadOptions) -> Result<String, CommandError> {
    let config = options.contention_config();
    if let Some(addr) = &options.attach {
        let addr = resolve_attach(addr)?;
        let deadline = Duration::from_millis(options.daemon.session_deadline_ms.unwrap_or(2_000));
        let report = loadgen::run_contended(addr, &config, deadline);
        return Ok(report.to_json() + "\n");
    }
    match options.daemon.semiring {
        SemiringKind::Weighted => load_contended_self_hosted(Weighted, &config, options),
        SemiringKind::Fuzzy => load_contended_self_hosted(Fuzzy, &config, options),
        SemiringKind::Probabilistic => load_contended_self_hosted(Probabilistic, &config, options),
        SemiringKind::Boolean => Err(CommandError::Usage(
            "load: the daemon negotiates graded QoS — use weighted, fuzzy or probabilistic".into(),
        )),
    }
}

fn load_contended_self_hosted<S: WireSemiring>(
    semiring: S,
    config: &ContentionConfig,
    options: &LoadOptions,
) -> Result<String, CommandError> {
    let (report, _drain) =
        loadgen::run_contended_self_hosted(semiring, config, options.daemon.drain())
            .map_err(|e| CommandError::Engine(format!("load: {e}")))?;
    Ok(report.to_json() + "\n")
}

fn load_self_hosted<S: WireSemiring>(
    semiring: S,
    options: &LoadOptions,
    config: &LoadConfig,
) -> Result<String, CommandError> {
    let report = loadgen::run_self_hosted(
        semiring,
        loadgen::seed_providers(options.daemon.providers()),
        options.daemon.server_config(),
        config,
        options.daemon.drain(),
    )
    .map_err(|e| CommandError::Engine(format!("load: {e}")))?;
    Ok(report.to_json() + "\n")
}

/// Resolves domains for display in `solve` reports (kept for parity
/// with the library API; unused variables are reported as-is).
#[allow(dead_code)]
fn domain_summary(domains: &Domains) -> String {
    domains
        .iter()
        .map(|(v, d): (&Var, &Domain)| format!("{v}: {d}"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = r#"{
        "semiring": "weighted",
        "domains": {"x": {"syms": ["a", "b"]}, "y": {"syms": ["a", "b"]}},
        "constraints": [
            {"table": {"scope": ["x"], "entries": [[["a"], 1.0], [["b"], 9.0]], "label": "c1"}},
            {"table": {"scope": ["x", "y"], "entries": [
                [["a", "a"], 5.0], [["a", "b"], 1.0],
                [["b", "a"], 2.0], [["b", "b"], 2.0]], "label": "c2"}},
            {"table": {"scope": ["y"], "entries": [[["a"], 5.0], [["b"], 5.0]], "label": "c3"}}
        ],
        "con": ["x"]
    }"#;

    #[test]
    fn solve_fig1_via_every_solver() {
        for solver in [
            SolverChoice::Enumeration,
            SolverChoice::BranchAndBound,
            SolverChoice::Bucket,
        ] {
            let report = solve(FIG1, solver).unwrap();
            assert!(report.contains("blevel: 7"), "{solver:?}: {report}");
            assert!(report.contains("[x:=a]"), "{solver:?}: {report}");
        }
    }

    /// A linear policy's out-of-range level reads as the same shape
    /// sent as an offer does: weighted `⟨-2⟩` saturates to 0 (not ∞)
    /// and fuzzy 1.25 clamps to 1 (not 0).
    #[test]
    fn linear_policies_read_out_of_range_levels_through_the_bridge() {
        let problem = |semiring: &str, slope: f64, intercept: f64| {
            format!(
                r#"{{"semiring": "{semiring}", "domains": {{"x": {{"ints": [0, 2]}}}},
                "constraints": [{{"linear": {{"var": "x", "slope": {slope:?}, "intercept": {intercept:?}}}}}],
                "con": ["x"]}}"#
            )
        };
        let table = |level: &str| {
            let best: String = (0..3)
                .map(|x| format!("best: [x:={x}] at {level}\n"))
                .collect();
            let rows: String = (0..3).map(|x| format!("  ⟨{x}⟩ → {level}\n")).collect();
            format!("blevel: {level}\n{best}solution table over [Var(\"x\")]:\n{rows}")
        };
        let weighted = solve(&problem("weighted", 1.0, -2.0), SolverChoice::Enumeration);
        assert_eq!(weighted.unwrap(), table("0"));
        let fuzzy = solve(&problem("fuzzy", 0.0, 1.25), SolverChoice::Enumeration);
        assert_eq!(fuzzy.unwrap(), table("1"));
    }

    #[test]
    fn engine_choices_agree_on_fig1() {
        // `--engine auto` and `--engine treedec` must never differ
        // from the default branch-and-bound on a committed instance.
        let blind = solve(FIG1, SolverChoice::BranchAndBound).unwrap();
        for engine in [Engine::Auto, Engine::TreeDecompose] {
            let options = SolveOptions {
                engine: EngineOptions {
                    engine: Some(engine),
                    ..EngineOptions::default()
                },
                ..SolveOptions::default()
            };
            let report = solve_with(FIG1, SolverChoice::BranchAndBound, options).unwrap();
            assert_eq!(report, blind, "{engine:?}");
        }
    }

    #[test]
    fn parse_engine_names() {
        assert_eq!(parse_engine("bnb"), Ok(Engine::BranchBound));
        assert_eq!(parse_engine("branch-and-bound"), Ok(Engine::BranchBound));
        assert_eq!(parse_engine("auto"), Ok(Engine::Auto));
        assert_eq!(parse_engine("treedec"), Ok(Engine::TreeDecompose));
        assert_eq!(parse_engine("tree"), Ok(Engine::TreeDecompose));
        let err = parse_engine("magic").unwrap_err();
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn malformed_specs_are_diagnosed_not_panics() {
        // Regression guard for the user-input audit: every malformed
        // document must surface as a typed diagnostic. A panic here
        // means a `solve` input path regressed to unwrap/expect.
        let cases: &[(&str, &str)] = &[
            ("truncated json", r#"{"semiring": "weighted", "domains""#),
            (
                "unknown semiring",
                r#"{"semiring": "tropical", "domains": {}, "constraints": []}"#,
            ),
            (
                "oversized domain",
                r#"{"semiring": "weighted",
                    "domains": {"x": {"ints": [0, 99999999]}},
                    "constraints": []}"#,
            ),
            (
                "arity mismatch",
                r#"{"semiring": "weighted",
                    "domains": {"x": {"syms": ["a"]}},
                    "constraints": [{"table": {"scope": ["x"],
                        "entries": [[["a", "a"], 1.0]], "label": "bad"}}]}"#,
            ),
            (
                "negative weight level",
                r#"{"semiring": "weighted",
                    "domains": {"x": {"syms": ["a"]}},
                    "constraints": [{"table": {"scope": ["x"],
                        "entries": [[["a"], -3.0]], "label": "bad"}}]}"#,
            ),
            (
                "probability above one",
                r#"{"semiring": "probabilistic",
                    "domains": {"x": {"syms": ["a"]}},
                    "constraints": [{"table": {"scope": ["x"],
                        "entries": [[["a"], 1.5]], "label": "bad"}}]}"#,
            ),
            (
                "constraint over unknown variable",
                r#"{"semiring": "weighted",
                    "domains": {"x": {"syms": ["a"]}},
                    "constraints": [{"table": {"scope": ["ghost"],
                        "entries": [[["a"], 1.0]], "label": "bad"}}]}"#,
            ),
        ];
        for (what, text) in cases {
            for solver in [SolverChoice::Enumeration, SolverChoice::BranchAndBound] {
                let err = solve(text, solver)
                    .expect_err(&format!("{what} should be rejected by {solver:?}"));
                assert!(!err.to_string().is_empty(), "{what}: empty diagnostic");
            }
        }
    }

    #[test]
    fn solve_options_control_engine_and_stats() {
        for solver in [
            SolverChoice::Enumeration,
            SolverChoice::BranchAndBound,
            SolverChoice::Bucket,
        ] {
            for options in [
                SolveOptions {
                    jobs: Some(2),
                    stats: true,
                    ..SolveOptions::default()
                },
                SolveOptions {
                    jobs: Some(1),
                    stats: true,
                    ..SolveOptions::default()
                },
            ] {
                let report = solve_with(FIG1, solver, options).unwrap();
                assert!(report.contains("blevel: 7"), "{solver:?}: {report}");
                assert!(report.contains("[x:=a]"), "{solver:?}: {report}");
                assert!(report.contains("engine: nodes:"), "{solver:?}: {report}");
            }
        }
        // Without --stats the engine line is absent.
        let quiet = solve(FIG1, SolverChoice::Enumeration).unwrap();
        assert!(!quiet.contains("engine:"), "{quiet}");
    }

    #[test]
    fn variable_orders_agree_with_the_default_order() {
        // Every variable order reports the same blevel and witness as
        // the default (most-constrained) branch-and-bound run.
        let default = solve(FIG1, SolverChoice::BranchAndBound).unwrap();
        for order in ["input", "most-constrained", "dynamic"] {
            let options = SolveOptions {
                order: Some(parse_var_order(order).unwrap()),
                ..SolveOptions::default()
            };
            let report = solve_with(FIG1, SolverChoice::BranchAndBound, options).unwrap();
            assert!(report.contains("blevel: 7"), "{order}: {report}");
            assert!(report.contains("[x:=a]"), "{order}: {report}");
            assert_eq!(report, default, "{order} diverged from the default run");
        }
    }

    #[test]
    fn parse_var_order_rejects_unknown_names() {
        assert_eq!(parse_var_order("input").unwrap(), VarOrder::Input);
        assert_eq!(parse_var_order("dynamic").unwrap(), VarOrder::Dynamic);
        assert_eq!(parse_var_order("estimate").unwrap(), VarOrder::Estimate);
        assert!(parse_var_order("random").is_err());
        assert!(parse_var_order("smallest").is_err());
    }

    #[test]
    fn parse_propagation_rejects_unknown_names() {
        assert_eq!(parse_propagation("off").unwrap(), PropagationMode::Off);
        assert_eq!(parse_propagation("root").unwrap(), PropagationMode::Root);
        assert!(parse_propagation("eager").is_err());
        assert!(parse_propagation("full").is_err());
    }

    #[test]
    fn propagated_and_decomposed_solves_agree_with_blind() {
        // Every --propagate/--decompose combination (and the estimate
        // order, which rides on the root propagation pass) reports the
        // same blevel and witness as the fully blind run.
        let blind = solve_with(
            FIG1,
            SolverChoice::BranchAndBound,
            SolveOptions {
                engine: EngineOptions {
                    propagate: Some(PropagationMode::Off),
                    decompose: Some(false),
                    ..EngineOptions::default()
                },
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert!(blind.contains("blevel: 7"), "{blind}");
        for propagate in [
            None,
            Some(PropagationMode::Off),
            Some(PropagationMode::Root),
        ] {
            for decompose in [None, Some(false), Some(true)] {
                for order in [None, Some(VarOrder::Estimate)] {
                    let options = SolveOptions {
                        order,
                        engine: EngineOptions {
                            propagate,
                            decompose,
                            ..EngineOptions::default()
                        },
                        ..SolveOptions::default()
                    };
                    let report = solve_with(FIG1, SolverChoice::BranchAndBound, options).unwrap();
                    assert_eq!(
                        report, blind,
                        "{propagate:?}/{decompose:?}/{order:?} diverged from the blind run"
                    );
                }
            }
        }
    }

    #[test]
    fn propagation_counters_surface_in_stats_and_metrics() {
        let options = SolveOptions {
            stats: true,
            metrics: Some(MetricsFormat::Json),
            ..SolveOptions::default()
        };
        let report = solve_with(FIG1, SolverChoice::BranchAndBound, options).unwrap();
        assert!(report.contains("propagation:"), "{report}");
        let last = report.lines().last().unwrap();
        let json: serde::Value = serde_json::from_str(last).unwrap();
        let counters = json.get("counters").unwrap();
        assert!(
            counters.get("solver.propagation.revisions").is_some(),
            "{last}"
        );
        // Propagation off keeps the report clean.
        let off = solve_with(
            FIG1,
            SolverChoice::BranchAndBound,
            SolveOptions {
                stats: true,
                engine: EngineOptions {
                    propagate: Some(PropagationMode::Off),
                    decompose: None,
                    ..EngineOptions::default()
                },
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert!(!off.contains("propagation:"), "{off}");
    }

    #[test]
    fn solve_rejects_bad_documents() {
        assert!(matches!(
            solve("{not json", SolverChoice::Enumeration),
            Err(CommandError::Format(_))
        ));
        let bad_level = FIG1.replace("9.0", "-9.0");
        assert!(matches!(
            solve(&bad_level, SolverChoice::Enumeration),
            Err(CommandError::Format(FormatError::Invalid(_)))
        ));
    }

    #[test]
    fn negotiate_example2_from_document() {
        let doc = r#"{
            "semiring": "weighted",
            "domains": {"x": {"ints": [0, 10]}},
            "constraints": {
                "c1": {"linear": {"var": "x", "slope": 1.0, "intercept": 3.0}},
                "c3": {"linear": {"var": "x", "slope": 2.0, "intercept": 0.0}},
                "c4": {"linear": {"var": "x", "slope": 1.0, "intercept": 5.0}},
                "one": {"linear": {"var": "x", "slope": 0.0, "intercept": 0.0}}
            },
            "levels": {"two": 2.0, "four": 4.0, "ten": 10.0},
            "agent": "tell(c4) retract(c1) ->[ten, two] success || tell(c3) ask(one) ->[four, two] success",
            "policy": {"random": 3}
        }"#;
        let report = negotiate(doc).unwrap();
        assert!(report.contains("SUCCESS"), "{report}");
        assert!(report.contains("σ⇓∅ = 2"), "{report}");
    }

    #[test]
    fn negotiate_reports_deadlocks() {
        let doc = r#"{
            "semiring": "weighted",
            "domains": {"x": {"ints": [0, 10]}},
            "constraints": {
                "c3": {"linear": {"var": "x", "slope": 2.0, "intercept": 0.0}},
                "c4": {"linear": {"var": "x", "slope": 1.0, "intercept": 5.0}},
                "one": {"linear": {"var": "x", "slope": 0.0, "intercept": 0.0}}
            },
            "levels": {"two": 2.0, "four": 4.0},
            "agent": "tell(c4) success || tell(c3) ask(one) ->[four, two] success"
        }"#;
        let report = negotiate(doc).unwrap();
        assert!(report.contains("DEADLOCK"), "{report}");
        assert!(report.contains("σ⇓∅ = 5"), "{report}");
    }

    const DEADLOCKED: &str = r#"{
        "semiring": "weighted",
        "domains": {"x": {"ints": [0, 10]}},
        "constraints": {
            "c1": {"linear": {"var": "x", "slope": 1.0, "intercept": 3.0}},
            "c3": {"linear": {"var": "x", "slope": 2.0, "intercept": 0.0}},
            "c4": {"linear": {"var": "x", "slope": 1.0, "intercept": 5.0}},
            "one": {"linear": {"var": "x", "slope": 0.0, "intercept": 0.0}}
        },
        "levels": {"two": 2.0, "four": 4.0},
        "agent": "tell(c4) success || tell(c3) ask(one) ->[four, two] success",
        "relaxations": ["c1"],
        "invariant": [10.0, 0.0]
    }"#;

    #[test]
    fn chaos_option_defaults_are_the_library_defaults() {
        let options = ChaosOptions::default();
        let config = ChaosConfig::<Fuzzy>::default();
        let recovery = RecoveryPolicy::<Fuzzy>::default();
        assert_eq!(
            (options.seed, options.rate, options.horizon),
            (config.seed, config.fault_rate, config.horizon)
        );
        assert_eq!(
            (options.retries, options.deadline, options.backoff),
            (
                recovery.max_retries,
                recovery.guard_deadline,
                recovery.backoff_base
            )
        );
        assert!(options.metrics.is_none());
    }

    #[test]
    fn negotiate_chaos_rescues_a_deadlock() {
        // Naively the same scenario deadlocks (see
        // `negotiate_reports_deadlocks`); under chaos mode the
        // relaxation ladder concedes c1 and the ask is granted.
        let options = ChaosOptions {
            rate: 0.0,
            ..ChaosOptions::default()
        };
        let report = negotiate_chaos(DEADLOCKED, options).unwrap();
        assert!(report.contains("SUCCESS"), "{report}");
        assert!(report.contains("σ⇓∅ = 2"), "{report}");
        assert!(report.contains("relax(c1)"), "{report}");
    }

    #[test]
    fn negotiate_chaos_is_bit_reproducible() {
        let options = ChaosOptions {
            seed: 7,
            rate: 0.3,
            ..ChaosOptions::default()
        };
        let a = negotiate_chaos(DEADLOCKED, options).unwrap();
        let b = negotiate_chaos(DEADLOCKED, options).unwrap();
        assert_eq!(a, b);
        // A different seed perturbs the run.
        let c = negotiate_chaos(DEADLOCKED, ChaosOptions { seed: 8, ..options }).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn negotiate_chaos_rejects_unknown_relaxations() {
        let doc = DEADLOCKED.replace("\"relaxations\": [\"c1\"]", "\"relaxations\": [\"c9\"]");
        assert!(matches!(
            negotiate_chaos(&doc, ChaosOptions::default()),
            Err(CommandError::Usage(_))
        ));
    }

    #[test]
    fn explore_distinguishes_possibility_from_guarantee() {
        let doc = r#"{
            "semiring": "weighted",
            "domains": {"x": {"ints": [0, 10]}},
            "constraints": {
                "c1": {"linear": {"var": "x", "slope": 1.0, "intercept": 3.0}},
                "c3": {"linear": {"var": "x", "slope": 2.0, "intercept": 0.0}},
                "c4": {"linear": {"var": "x", "slope": 1.0, "intercept": 5.0}},
                "one": {"linear": {"var": "x", "slope": 0.0, "intercept": 0.0}}
            },
            "levels": {"two": 2.0, "four": 4.0, "ten": 10.0},
            "agent": "tell(c4) retract(c1) ->[ten, two] success || tell(c3) ask(one) ->[four, two] success"
        }"#;
        let report = explore(doc).unwrap();
        assert!(report.contains("agreement possible:   YES"), "{report}");
        assert!(report.contains("agreement guaranteed: YES"), "{report}");
        // Example 1 (no retract): impossible.
        let doc1 = doc.replace(
            "tell(c4) retract(c1) ->[ten, two] success",
            "tell(c4) success",
        );
        let report1 = explore(&doc1).unwrap();
        assert!(report1.contains("agreement possible:   NO"), "{report1}");
        assert!(report1.contains("deadlock reachable:   YES"), "{report1}");
    }

    #[test]
    fn solve_metrics_json_is_deterministic_and_parses() {
        let options = SolveOptions {
            metrics: Some(MetricsFormat::Json),
            ..SolveOptions::default()
        };
        let a = solve_with(FIG1, SolverChoice::Enumeration, options).unwrap();
        let b = solve_with(FIG1, SolverChoice::Enumeration, options).unwrap();
        assert_eq!(a, b);
        let last = a.lines().last().unwrap();
        let json: serde::Value = serde_json::from_str(last).unwrap();
        let counters = json.get("counters").unwrap();
        assert!(counters.get("solve.nodes").is_some(), "{last}");
        assert!(counters.get("solve.prunings").is_some(), "{last}");
        assert!(counters.get("solve.runs{enumeration}").is_some(), "{last}");
        // The pretty format is a block, not a JSON line.
        let pretty = solve_with(
            FIG1,
            SolverChoice::Enumeration,
            SolveOptions {
                metrics: Some(MetricsFormat::Pretty),
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert!(pretty.contains("solve.nodes"), "{pretty}");
    }

    #[test]
    fn negotiate_metrics_include_rule_counts() {
        let doc = r#"{
            "semiring": "weighted",
            "domains": {"x": {"ints": [0, 10]}},
            "constraints": {
                "c4": {"linear": {"var": "x", "slope": 1.0, "intercept": 5.0}},
                "one": {"linear": {"var": "x", "slope": 0.0, "intercept": 0.0}}
            },
            "levels": {"ten": 10.0, "zero": 0.0},
            "agent": "tell(c4) ask(one) ->[ten, zero] success"
        }"#;
        let a = negotiate_with(doc, Some(MetricsFormat::Json)).unwrap();
        let b = negotiate_with(doc, Some(MetricsFormat::Json)).unwrap();
        assert_eq!(a, b);
        let last = a.lines().last().unwrap();
        let json: serde::Value = serde_json::from_str(last).unwrap();
        let counters = json.get("counters").unwrap();
        assert!(counters.get("nmsccp.runs").is_some(), "{last}");
        let has_rule = counters
            .as_obj()
            .unwrap()
            .iter()
            .any(|(k, _)| k.starts_with("nmsccp.rule{"));
        assert!(has_rule, "{last}");
    }

    fn broker_doc() -> String {
        use softsoa_dependability::Attribute;
        use softsoa_soa::{OfferShape, QosOffer};
        let offer = QosOffer {
            attribute: Attribute::Reliability,
            variable: "x".into(),
            shape: OfferShape::Linear {
                slope: 2.0,
                intercept: 0.0,
            },
        };
        format!(
            r#"{{
            "semiring": "weighted",
            "domains": {{"x": {{"ints": [0, 10]}}}},
            "constraints": {{
                "c4": {{"linear": {{"var": "x", "slope": 1.0, "intercept": 1.0}}}},
                "c1": {{"linear": {{"var": "x", "slope": 0.0, "intercept": 1.0}}}}
            }},
            "relaxations": ["c1"],
            "broker": {{
                "capability": "compute",
                "variable": "x",
                "client": "c4",
                "acceptance": [6.0, 1.0],
                "providers": [{{"id": "svc-w", "offers": [{}]}}]
            }}
        }}"#,
            serde_json::to_string(&offer).unwrap()
        )
    }

    #[test]
    fn negotiate_broker_section_runs_the_protocol() {
        // Provider charges 2x, client charges x + 1; the broker binds
        // x = 0 at total cost 1 (within the [1, 6] acceptance).
        let report = negotiate(&broker_doc()).unwrap();
        assert!(report.contains("sla: svc-w from svc-w at 1"), "{report}");
        assert!(report.contains("binding: [x:=0] at 1"), "{report}");
    }

    #[test]
    fn negotiate_chaos_broker_reports_sessions() {
        let options = ChaosOptions {
            rate: 0.0,
            ..ChaosOptions::default()
        };
        let report = negotiate_chaos(&broker_doc(), options).unwrap();
        assert!(report.contains("session svc-w"), "{report}");
        assert!(report.contains("sla: svc-w"), "{report}");
        assert!(report.contains("recovery: 0 retries"), "{report}");
    }

    #[test]
    fn negotiate_chaos_broker_metrics_are_deterministic() {
        // The acceptance bar for the observability layer: a fixed-seed
        // chaos negotiation with --metrics=json is byte-for-byte
        // reproducible and carries per-rule transition counts,
        // per-provider recovery counters and solver node totals.
        let options = ChaosOptions {
            seed: 7,
            rate: 0.0,
            metrics: Some(MetricsFormat::Json),
            ..ChaosOptions::default()
        };
        let a = negotiate_chaos(&broker_doc(), options).unwrap();
        let b = negotiate_chaos(&broker_doc(), options).unwrap();
        assert_eq!(a, b);
        let last = a.lines().last().unwrap();
        let json: serde::Value = serde_json::from_str(last).unwrap();
        let counters = json.get("counters").unwrap();
        let keys: Vec<&str> = counters
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert!(keys.iter().any(|k| k.starts_with("nmsccp.rule{")), "{last}");
        assert!(keys.contains(&"broker.provider.retries{svc-w}"), "{last}");
        assert!(
            keys.contains(&"broker.provider.degradation_rung{svc-w}"),
            "{last}"
        );
        assert!(keys.contains(&"solve.nodes"), "{last}");
        // A hostile run stays deterministic too.
        let hostile = ChaosOptions {
            rate: 0.4,
            ..options
        };
        let c = negotiate_chaos(&broker_doc(), hostile).unwrap();
        let d = negotiate_chaos(&broker_doc(), hostile).unwrap();
        assert_eq!(c, d);
    }

    fn contended_doc() -> String {
        r#"{
            "semiring": "fuzzy",
            "domains": {"x": {"ints": [1, 9]}},
            "constraints": {
                "want": {"linear": {"var": "x", "slope": 0.1, "intercept": 0.0}}
            },
            "broker": {
                "capability": "compute",
                "variable": "x",
                "client": "want",
                "acceptance": [0.1, 1.0],
                "providers": [
                    {"id": "svc-gold", "capacity": 1, "offers": [
                        {"attribute": "Reliability", "variable": "x",
                         "shape": {"Constant": {"level": 0.9}}}]},
                    {"id": "svc-silver", "capacity": 1, "offers": [
                        {"attribute": "Reliability", "variable": "x",
                         "shape": {"Constant": {"level": 0.6}}}]}
                ]
            }
        }"#
        .to_string()
    }

    #[test]
    fn negotiate_contend_respects_declared_capacities() {
        // Four identical clients over two capacity-1 providers: every
        // client gets a typed line, and exactly two slots are granted.
        let options = ContendOptions {
            contenders: 4,
            fairness: Fairness::Leximin,
            ..ContendOptions::default()
        };
        let report = negotiate_contend(&contended_doc(), &options).unwrap();
        for client in ["client-00", "client-01", "client-02", "client-03"] {
            assert!(report.contains(client), "{report}");
        }
        let granted = report.matches(" granted ").count();
        assert_eq!(granted, 2, "{report}");
        assert!(report.contains("objective leximin"), "{report}");
        assert!(report.contains("fairness: jain"), "{report}");
    }

    #[test]
    fn negotiate_contend_without_capacities_grants_everyone() {
        let options = ContendOptions {
            contenders: 3,
            ..ContendOptions::default()
        };
        let report = negotiate_contend(&broker_doc(), &options).unwrap();
        assert_eq!(report.matches(" granted ").count(), 3, "{report}");
    }

    #[test]
    fn negotiate_contend_rejects_boolean_and_brokerless_documents() {
        let boolean = contended_doc().replace("\"fuzzy\"", "\"boolean\"");
        assert!(matches!(
            negotiate_contend(&boolean, &ContendOptions::default()),
            Err(CommandError::Usage(_))
        ));
        let no_broker = r#"{
            "semiring": "fuzzy",
            "domains": {},
            "constraints": {},
            "agent": "success"
        }"#;
        assert!(matches!(
            negotiate_contend(no_broker, &ContendOptions::default()),
            Err(CommandError::Usage(_))
        ));
    }

    #[test]
    fn broker_section_rejects_dangling_names() {
        let bad_client = broker_doc().replace("\"client\": \"c4\"", "\"client\": \"c9\"");
        assert!(matches!(
            negotiate(&bad_client),
            Err(CommandError::Usage(_))
        ));
        let bad_var = broker_doc().replace("\"variable\": \"x\"", "\"variable\": \"y\"");
        assert!(matches!(negotiate(&bad_var), Err(CommandError::Usage(_))));
    }

    #[test]
    fn exact_coalitions_beyond_the_ceiling_are_rejected() {
        let n = 19;
        let trust: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 1.0 } else { 0.5 }).collect())
            .collect();
        let spec = CoalitionSpec {
            trust,
            compose: "avg".into(),
            require_stability: false,
            max_coalitions: None,
            algorithm: "exact".into(),
        };
        let doc = serde_json::to_string(&spec).unwrap();
        let err = coalitions(&doc).unwrap_err();
        assert!(matches!(err, CommandError::Usage(_)), "{err}");
        assert!(err.to_string().contains("18"), "{err}");
        // The heuristics still handle the same matrix.
        let local = serde_json::to_string(&CoalitionSpec {
            algorithm: "local".into(),
            ..spec
        })
        .unwrap();
        assert!(coalitions(&local).is_ok());
    }

    #[test]
    fn coalitions_metrics_report_exploration() {
        let doc = r#"{
            "trust": [[1.0, 0.9], [0.9, 1.0]],
            "algorithm": "exact"
        }"#;
        let report = coalitions_with(doc, Some(MetricsFormat::Json)).unwrap();
        let last = report.lines().last().unwrap();
        let json: serde::Value = serde_json::from_str(last).unwrap();
        assert!(
            json.get("counters")
                .unwrap()
                .get("formation.explored")
                .is_some(),
            "{last}"
        );
    }

    #[test]
    fn coalitions_from_matrix() {
        let doc = r#"{
            "trust": [
                [1.0, 0.9, 0.1, 0.1],
                [0.9, 1.0, 0.1, 0.1],
                [0.1, 0.1, 1.0, 0.9],
                [0.1, 0.1, 0.9, 1.0]
            ],
            "compose": "avg",
            "algorithm": "exact",
            "max_coalitions": 2
        }"#;
        let report = coalitions(doc).unwrap();
        assert!(report.contains("{0,1} | {2,3}"), "{report}");
    }

    #[test]
    fn coalitions_unknown_algorithm() {
        let doc = r#"{"trust": [[1.0]], "algorithm": "quantum"}"#;
        assert!(matches!(coalitions(doc), Err(CommandError::Usage(_))));
    }

    #[test]
    fn coalitions_scsp_algorithm_matches_exact_objective() {
        let doc = |algorithm: &str| {
            format!(
                r#"{{
                    "trust": [
                        [1.0, 0.9, 0.1, 0.1],
                        [0.9, 1.0, 0.1, 0.1],
                        [0.1, 0.1, 1.0, 0.9],
                        [0.1, 0.1, 0.9, 1.0]
                    ],
                    "compose": "avg",
                    "require_stability": true,
                    "algorithm": "{algorithm}"
                }}"#
            )
        };
        let objective = |report: &str| {
            report
                .lines()
                .find(|l| l.starts_with("objective"))
                .map(String::from)
                .unwrap()
        };
        let exact = coalitions(&doc("exact")).unwrap();
        // Any engine configuration reaches the same formation score
        // (the fuzzy semiring is idempotent, so the partition itself
        // may be a different equally trustworthy one).
        for engine in [
            EngineOptions::default(),
            EngineOptions {
                propagate: Some(PropagationMode::Off),
                decompose: Some(false),
                ..EngineOptions::default()
            },
        ] {
            let scsp = coalitions_with_options(&doc("scsp"), None, engine).unwrap();
            assert_eq!(objective(&scsp), objective(&exact), "{engine:?}");
            assert!(scsp.contains("stable: true"), "{scsp}");
        }
        // Beyond five agents the encoding is refused up front.
        let big: Vec<Vec<f64>> = (0..6)
            .map(|i| (0..6).map(|j| if i == j { 1.0 } else { 0.5 }).collect())
            .collect();
        let spec = CoalitionSpec {
            trust: big,
            compose: "avg".into(),
            require_stability: false,
            max_coalitions: None,
            algorithm: "scsp".into(),
        };
        let err = coalitions(&serde_json::to_string(&spec).unwrap()).unwrap_err();
        assert!(matches!(err, CommandError::Usage(_)), "{err}");
    }

    #[test]
    fn integrity_reproduces_the_paper() {
        let report = integrity(512).unwrap();
        assert!(report.contains("Imp1 ⇓ {incomp, outcomp} ⊑ Memory: HOLDS"));
        assert!(report.contains("Imp2 ⇓ {incomp, outcomp} ⊑ Memory: VIOLATED"));
        assert!(report.contains("0.96"));
        assert!(integrity(0).is_err());
    }
}
