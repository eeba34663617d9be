//! The daemon workloads: a seeded registry and request pool, the
//! negotiation server started in-process, a closed loop of clients
//! speaking the line-JSON protocol, and (traced) an in-process replay
//! of the same requests with a span around every layer call.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use softsoa_core::solve::{
    BranchAndBound, ConstraintId, IncrementalSolver, Parallelism, Solution, SolveError, Solver,
    SolverConfig, VarOrder,
};
use softsoa_core::{Constraint, Domain, Domains, Scsp, Val, Var};
use softsoa_dependability::Attribute;
use softsoa_nmsccp::{Agent, Interpreter, Interval, Outcome, Program, Store};
use softsoa_semiring::{Fuzzy, Semiring, Unit};
use softsoa_soa::server::protocol::{
    NegotiateRequest, PublishRequest, Reply, Request, WireSemiring,
};
use softsoa_soa::server::transport::{FrameReader, FrameWriter, DEFAULT_MAX_FRAME_BYTES};
use softsoa_soa::{
    Broker, BrokerConfig, ChaosConfig, NegotiationRequest, NegotiationServer, OfferShape,
    QosDocument, QosOffer, Registry, ServerConfig, ServerHandle, ServiceDescription, ServiceId,
    Sla, StoreChaos,
};
use softsoa_telemetry::Telemetry;

use crate::report::{self, Metrics, RunResult};
use crate::stats::{self, Tally};
use crate::trace::{self, Span, Tracer};

/// Closed-loop client threads. One, so at most one session is in
/// flight: on a two-vCPU host shared with other load, two clients kept
/// two CPU-bound sessions on both vCPUs beside the client threads, and
/// ten runs of the same code then spread throughput by 32–57%.
pub const CLIENTS: usize = 1;
/// Pause between a server's shutdown and the next timed start.
const SETUP_PAUSE: Duration = Duration::from_millis(10);
/// Replays of every pooled request in the traced run.
const REPLAYS: usize = 3;
/// Repetitions of each protocol and transport micro-timing.
const MICRO_REPS: usize = 20;
/// Store chaos of `churn_chaos`: fixed seed, rate 0.3.
const STORE_CHAOS: StoreChaos = StoreChaos {
    seed: 41,
    fault_rate: 0.3,
};
const VARIABLE: &str = "x";

/// Which daemon workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Daemon {
    /// One provider, small domains: the server path dominates.
    WireLight,
    /// 16 providers, domain `[0, 63]`: broker, nmsccp and binding dominate.
    BrokerHeavy,
    /// 4,096 services, half the sessions publish and deregister, every
    /// negotiation under store chaos.
    ChurnChaos,
}

impl Daemon {
    fn pool(self) -> usize {
        match self {
            Daemon::WireLight | Daemon::BrokerHeavy => 64,
            Daemon::ChurnChaos => 128,
        }
    }

    /// Set-ups timed per run, half before the measured loop and half
    /// after it; `setup_s` is their median. About 0.6 s of set-up on
    /// `wire_light` (~20 ms each) and 3–6 s on the others (0.4–0.6 s
    /// each) on a 2-vCPU VM.
    fn setups(self) -> usize {
        match self {
            Daemon::WireLight => 31,
            Daemon::BrokerHeavy | Daemon::ChurnChaos => 9,
        }
    }

    fn chaos(self) -> Option<StoreChaos> {
        (self == Daemon::ChurnChaos).then_some(STORE_CHAOS)
    }
}

/// What a correct answer to a pooled request looks like.
#[derive(Debug, Clone, PartialEq)]
enum Expect {
    /// Exactly the in-process `Broker::negotiate` reference.
    Exact {
        service: String,
        level: f64,
        binding: Option<i64>,
    },
    /// An agreement inside the acceptance interval, bound in the domain.
    Within { accept: [f64; 2], domain: [i64; 2] },
}

/// One pooled request: the frames a session sends and what it expects.
#[derive(Debug, Clone)]
struct Entry {
    negotiate: NegotiateRequest,
    /// Published before the negotiation and deregistered after it.
    churn: Option<PublishRequest>,
    expect: Expect,
    /// A reply like the server's to this request (for render timings).
    reply: Reply,
    /// Request frames, newline-terminated, in send order.
    frames: Vec<String>,
}

/// The seeded inputs of one daemon run.
struct Plan {
    kind: Daemon,
    seed: u64,
    entries: Vec<Entry>,
}

fn draw(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * f64::from(rng.random_range(0..=1000u32)) / 1000.0
}

fn linear_offer(rng: &mut StdRng) -> QosOffer {
    QosOffer {
        attribute: Attribute::Reliability,
        variable: VARIABLE.into(),
        shape: OfferShape::Linear {
            slope: draw(rng, 0.01, 0.07),
            intercept: draw(rng, 0.40, 0.60),
        },
    }
}

/// An offer below every drawn acceptance threshold: at most 0.08 on
/// `[0, 15]`, against thresholds from 0.10. A chaos session with this
/// provider leaves the acceptance interval and blocks, so the resilient
/// interpreter rolls back and retries.
fn weak_offer(rng: &mut StdRng) -> QosOffer {
    QosOffer {
        attribute: Attribute::Reliability,
        variable: VARIABLE.into(),
        shape: OfferShape::Linear {
            slope: draw(rng, 0.0, 0.002),
            intercept: draw(rng, 0.02, 0.05),
        },
    }
}

fn service(id: &str, provider: &str, capability: &str, offer: QosOffer) -> ServiceDescription {
    ServiceDescription::new(
        id,
        provider,
        capability,
        QosDocument::new(id).with_offer(offer),
    )
}

/// The registry the server starts with; a pure function of the seed.
fn registry(kind: Daemon, seed: u64) -> Registry {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0001);
    let mut registry = Registry::new();
    match kind {
        Daemon::WireLight | Daemon::BrokerHeavy => {
            let providers = if kind == Daemon::WireLight { 1 } else { 16 };
            for p in 0..providers {
                let id = format!("svc-{p:03}");
                let provider = format!("provider-{}", p % 5);
                registry.publish(service(&id, &provider, "compute", linear_offer(&mut rng)));
            }
        }
        Daemon::ChurnChaos => {
            // Each capability has one provider that can agree and one
            // that cannot, whose sessions run the recovery paths.
            for c in 0..2048 {
                let capability = capability(c);
                for k in 0..2 {
                    let id = format!("svc-{c:04}-{k}");
                    let provider = format!("provider-{}", (c + k) % 7);
                    let offer = if k == 0 {
                        linear_offer(&mut rng)
                    } else {
                        weak_offer(&mut rng)
                    };
                    registry.publish(service(&id, &provider, &capability, offer));
                }
            }
        }
    }
    registry
}

fn capability(c: usize) -> String {
    format!("cap-{c:04}")
}

/// The broker-side request the server builds from a wire request.
fn lower(n: &NegotiateRequest) -> NegotiationRequest<Fuzzy> {
    let lo = Fuzzy::parse_level(n.accept[0]).expect("generated acceptance is a level");
    let hi = Fuzzy::parse_level(n.accept[1]).expect("generated acceptance is a level");
    NegotiationRequest {
        capability: n.capability.clone(),
        variable: n.variable.as_str().into(),
        domain: Domain::ints(n.domain[0]..=n.domain[1]),
        constraint: Fuzzy::shape_constraint(&n.variable, n.policy.clone()),
        acceptance: Interval::levels(lo, hi),
    }
}

fn chaos_config() -> ChaosConfig<Fuzzy> {
    ChaosConfig {
        seed: STORE_CHAOS.seed,
        fault_rate: STORE_CHAOS.fault_rate,
        session_deadline: Some(ServerConfig::default().negotiation_deadline_steps),
        ..ChaosConfig::default()
    }
}

fn frame(request: &Request) -> String {
    format!("{}\n", request.to_json())
}

/// Round-trips a request through its wire form, so the reference sees
/// exactly the values the server parses.
fn wire_round_trip(n: NegotiateRequest) -> NegotiateRequest {
    match Request::parse(&Request::Negotiate(n).to_json()) {
        Ok(Request::Negotiate(n)) => n,
        other => panic!("negotiate request does not round-trip: {other:?}"),
    }
}

fn binding_of(binding: &Option<(softsoa_core::Assignment, Unit)>) -> Option<i64> {
    binding
        .as_ref()
        .and_then(|(eta, _)| eta.get(&Var::new(VARIABLE)))
        .and_then(Val::as_int)
}

impl Plan {
    /// Draws the request pool and computes every reference answer.
    fn new(kind: Daemon, seed: u64) -> Result<Plan, String> {
        let base = registry(kind, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0002);
        let mut broker = Broker::new(Fuzzy, base);
        let mut entries = Vec::with_capacity(kind.pool());
        let mut capabilities: Vec<usize> = (0..2048).collect();
        let mut draws = 0;
        while entries.len() < kind.pool() {
            draws += 1;
            if draws > 16 * kind.pool() {
                return Err(format!("{kind:?}: too few requests reach an agreement"));
            }
            let (capability, domain_max) = match kind {
                Daemon::WireLight => ("compute".to_string(), 4 + rng.random_range(0..5i64)),
                Daemon::BrokerHeavy => ("compute".to_string(), 63),
                Daemon::ChurnChaos => {
                    // Distinct capabilities, so no two pooled sessions
                    // touch the same providers.
                    let pick = rng.random_range(0..capabilities.len());
                    (capability(capabilities.swap_remove(pick)), 15)
                }
            };
            let negotiate = wire_round_trip(NegotiateRequest {
                capability: capability.clone(),
                variable: VARIABLE.into(),
                domain: [0, domain_max],
                policy: OfferShape::Linear {
                    slope: -draw(&mut rng, 0.005, 0.02),
                    intercept: draw(&mut rng, 0.80, 0.95),
                },
                accept: [draw(&mut rng, 0.10, 0.30), 1.0],
                client: None,
            });
            // Half the churn_chaos sessions publish and deregister.
            let churn =
                (kind == Daemon::ChurnChaos && entries.len() % 4 < 2).then(|| PublishRequest {
                    service: format!("churn-{:03}", entries.len()),
                    provider: "perfbench".into(),
                    capability: capability.clone(),
                    offer: linear_offer(&mut rng),
                    capacity: None,
                });
            let request = lower(&negotiate);
            let (expect, reply) = match kind.chaos() {
                None => match broker.negotiate(&request, Fuzzy::translate) {
                    Ok(sla) => {
                        let binding = binding_of(&sla.binding);
                        let level = Fuzzy::render_level(&sla.agreed_level);
                        let reply = Reply::Bound {
                            service: sla.service.as_str().to_string(),
                            provider: sla.provider.as_str().to_string(),
                            level,
                            binding,
                            epoch: 0,
                        };
                        let service = sla.service.as_str().to_string();
                        let expect = Expect::Exact {
                            service,
                            level,
                            binding,
                        };
                        (expect, reply)
                    }
                    Err(_) => continue,
                },
                Some(_) => {
                    if let Some(publish) = &churn {
                        broker.registry_mut().publish(described(publish));
                    }
                    let report = broker
                        .negotiate_resilient(&request, &[], &chaos_config(), Fuzzy::translate)
                        .map_err(|e| e.to_string())?;
                    if let Some(publish) = &churn {
                        broker
                            .registry_mut()
                            .deregister(&ServiceId::new(&publish.service));
                    }
                    let Some(sla) = report.sla else { continue };
                    let reply = Reply::Degraded {
                        service: sla.service.as_str().to_string(),
                        provider: sla.provider.as_str().to_string(),
                        level: Fuzzy::render_level(&sla.agreed_level),
                        binding: binding_of(&sla.binding),
                        epoch: 0,
                        retries: report.retries as u64,
                        relaxations: report.relaxations_applied as u64,
                    };
                    let expect = Expect::Within {
                        accept: negotiate.accept,
                        domain: negotiate.domain,
                    };
                    (expect, reply)
                }
            };
            let mut frames = Vec::new();
            if let Some(publish) = &churn {
                frames.push(frame(&Request::Publish(publish.clone())));
            }
            frames.push(frame(&Request::Negotiate(negotiate.clone())));
            if let Some(publish) = &churn {
                frames.push(frame(&Request::Deregister {
                    service: publish.service.clone(),
                }));
            }
            entries.push(Entry {
                negotiate,
                churn,
                expect,
                reply,
                frames,
            });
        }
        Ok(Plan {
            kind,
            seed,
            entries,
        })
    }
}

fn described(publish: &PublishRequest) -> ServiceDescription {
    let mut description = service(
        &publish.service,
        &publish.provider,
        &publish.capability,
        publish.offer.clone(),
    );
    description.capacity = publish.capacity;
    description
}

/// Seeds the registry and starts the server.
fn start(kind: Daemon, seed: u64) -> io::Result<ServerHandle<Fuzzy>> {
    let config = ServerConfig {
        store_chaos: kind.chaos(),
        ..ServerConfig::default()
    };
    NegotiationServer::start(Fuzzy, registry(kind, seed), config, Telemetry::disabled())
}

/// Times `count` (at least one) set-ups and keeps the last plan and
/// server. A set-up draws the request pool, computes its reference
/// answers, seeds the registry and starts the server.
fn timed_setup(
    kind: Daemon,
    seed: u64,
    count: usize,
) -> Result<(Plan, ServerHandle<Fuzzy>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(count);
    let mut last = None;
    for _ in 0..count.max(1) {
        if let Some((_, previous)) = last.take() {
            let _ = ServerHandle::shutdown(previous, Duration::from_millis(500));
        }
        // Let a stopped server's threads exit before the next start is
        // timed; overlapping them doubled some starts.
        thread::sleep(SETUP_PAUSE);
        let began = Instant::now();
        let plan = Plan::new(kind, seed)?;
        let started = start(kind, seed).map_err(|e| e.to_string())?;
        times.push(began.elapsed().as_secs_f64());
        last = Some((plan, started));
    }
    let (plan, handle) = last.expect("at least one set-up ran");
    Ok((plan, handle, times))
}

// ---- the client ------------------------------------------------------

/// One client session as the client saw it.
#[derive(Debug, Clone)]
struct Session {
    entry: usize,
    latency: Duration,
    label: String,
    correct: bool,
    request_bytes: usize,
    reply_bytes: usize,
}

/// Reads one reply line; a timeout is a hang, end of stream a close.
fn read_reply(
    reader: &mut BufReader<&TcpStream>,
    bytes: &mut usize,
) -> Result<Reply, &'static str> {
    let mut line = Vec::new();
    match reader.read_until(b'\n', &mut line) {
        Ok(0) => Err("closed"),
        Ok(n) => {
            *bytes += n;
            let text = String::from_utf8_lossy(&line);
            Reply::parse(text.trim_end()).map_err(|_| "garbled")
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            Err("hung")
        }
        Err(_) => Err("closed"),
    }
}

/// Whether the replies are the expected kinds with values that pass the
/// correctness check.
fn check(entry: &Entry, replies: &[Reply]) -> bool {
    let (pre, negotiated, post) = match (entry.churn.is_some(), replies) {
        (false, [reply]) => (true, reply, true),
        (true, [published, reply, deregistered]) => (
            matches!(published, Reply::Published { .. }),
            reply,
            matches!(deregistered, Reply::Deregistered { existed: true, .. }),
        ),
        _ => return false,
    };
    let (service, level, binding) = match negotiated {
        Reply::Bound {
            service,
            level,
            binding,
            ..
        }
        | Reply::Degraded {
            service,
            level,
            binding,
            ..
        } => (service, *level, *binding),
        _ => return false,
    };
    let correct = match &entry.expect {
        Expect::Exact {
            service: want,
            level: want_level,
            binding: want_binding,
        } => {
            matches!(negotiated, Reply::Bound { .. })
                && service == want
                && level == *want_level
                && binding == *want_binding
        }
        Expect::Within { accept, domain } => {
            (accept[0]..=accept[1]).contains(&level)
                && binding.is_some_and(|b| (domain[0]..=domain[1]).contains(&b))
        }
    };
    pre && post && correct
}

fn run_session(
    addr: SocketAddr,
    index: usize,
    entry: &Entry,
    budget: Duration,
    mut tracer: Option<(&mut Tracer, u64)>,
) -> Session {
    let began = Instant::now();
    let mut session = Session {
        entry: index,
        latency: Duration::ZERO,
        label: "connect-failed".into(),
        correct: false,
        request_bytes: 0,
        reply_bytes: 0,
    };
    let root = tracer
        .as_mut()
        .map(|(t, op)| t.begin("client.session", None, *op));
    let stream = TcpStream::connect(addr);
    let connected = Instant::now();
    if let (Some((t, op)), Some(root)) = (tracer.as_mut(), root) {
        t.record("client.connect", Some(root), *op, began, connected);
    }
    if let Ok(stream) = stream {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(budget));
        let mut reader = BufReader::new(&stream);
        let mut replies = Vec::with_capacity(entry.frames.len());
        session.label = "closed".into();
        for frame in &entry.frames {
            let write_start = Instant::now();
            let written = (&stream).write_all(frame.as_bytes());
            let write_end = Instant::now();
            session.request_bytes += frame.len();
            let reply = written
                .map_err(|_| "closed")
                .and_then(|()| read_reply(&mut reader, &mut session.reply_bytes));
            if let (Some((t, op)), Some(root)) = (tracer.as_mut(), root) {
                t.record("client.write", Some(root), *op, write_start, write_end);
                t.record("client.await", Some(root), *op, write_end, Instant::now());
            }
            match reply {
                Ok(reply) => replies.push(reply),
                Err(label) => {
                    session.label = label.into();
                    break;
                }
            }
        }
        if replies.len() == entry.frames.len() {
            let negotiated = &replies[usize::from(entry.churn.is_some())];
            session.label = negotiated.outcome_label().into();
            session.correct = check(entry, &replies);
        }
    }
    session.latency = began.elapsed();
    if let (Some((t, _)), Some(root)) = (tracer, root) {
        t.end(root);
    }
    session
}

/// What a closed loop of [`CLIENTS`] observed.
struct LoopOut {
    tally: Tally,
    /// Sessions started inside the measured window.
    measured: Vec<Session>,
    /// Their `(finish offset in seconds, latency in ms)`.
    ops: Vec<(f64, f64)>,
    /// Peak RSS read after [`report::RSS_OPS`] measured sessions.
    rss_mb: Option<Result<f64, String>>,
    window: Duration,
    tracer: Option<Tracer>,
}

impl LoopOut {
    fn throughput(&self) -> f64 {
        self.measured.len() as f64 / self.window.as_secs_f64().max(1e-9)
    }
}

/// Runs the closed loop: each client sends its next session only after
/// the previous reply, cycling through its share of the pool.
fn closed_loop(
    addr: SocketAddr,
    plan: &Plan,
    warmup: Duration,
    seconds: Duration,
    origin: Option<Instant>,
) -> LoopOut {
    let budget = {
        let deadline = ServerConfig::default().session_deadline;
        deadline + deadline / 2 + Duration::from_secs(2)
    };
    let measure_from = Instant::now() + warmup;
    let end = measure_from + seconds;
    let counted = AtomicUsize::new(0);
    let rss = OnceLock::new();
    let (counted, rss) = (&counted, &rss);
    type Lane = (Tally, Vec<(Session, f64)>, Instant, Option<Tracer>);
    let lanes: Vec<Lane> = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mine: Vec<usize> = (client..plan.entries.len()).step_by(CLIENTS).collect();
                    let mut tracer = origin.map(Tracer::new);
                    let mut tally = Tally::default();
                    let mut measured = Vec::new();
                    let mut op = client as u64;
                    for &index in mine.iter().cycle() {
                        let started = Instant::now();
                        if started >= end {
                            break;
                        }
                        let traced = tracer.as_mut().map(|t| (t, op));
                        let session =
                            run_session(addr, index, &plan.entries[index], budget, traced);
                        op += CLIENTS as u64;
                        tally.record(&session.label, session.correct);
                        if started >= measure_from {
                            let finish = (started + session.latency) - measure_from;
                            measured.push((session, finish.as_secs_f64()));
                            if counted.fetch_add(1, Ordering::Relaxed) + 1 == report::RSS_OPS {
                                let _ = rss.set(report::peak_rss_mb());
                            }
                        }
                    }
                    (tally, measured, Instant::now(), tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = LoopOut {
        tally: Tally::default(),
        measured: Vec::new(),
        ops: Vec::new(),
        rss_mb: rss.get().cloned(),
        window: Duration::ZERO,
        tracer: origin.map(Tracer::new),
    };
    for (tally, measured, finished, tracer) in lanes {
        out.tally.merge(&tally);
        for (session, finish) in measured {
            out.ops.push((finish, session.latency.as_secs_f64() * 1e3));
            out.measured.push(session);
        }
        out.window = out
            .window
            .max(finished.saturating_duration_since(measure_from));
        if let (Some(all), Some(lane)) = (out.tracer.as_mut(), tracer) {
            all.absorb(lane);
        }
    }
    out
}

fn warmup(seconds: Duration) -> Duration {
    (seconds / 10).min(Duration::from_secs(1))
}

/// The untraced run: the end-to-end metrics.
pub fn run(kind: Daemon, seed: u64, seconds: Duration) -> Result<RunResult, String> {
    let (plan, handle, mut setups) = timed_setup(kind, seed, kind.setups().div_ceil(2))?;
    let out = closed_loop(handle.local_addr(), &plan, warmup(seconds), seconds, None);
    handle.shutdown(Duration::from_secs(1));
    // The other half of the set-ups is timed after the loop, so the
    // median spans the host's state at both ends of the run.
    let (_, last, after) = timed_setup(kind, seed, kind.setups() / 2)?;
    last.shutdown(Duration::from_secs(1));
    setups.extend(after);
    let setup_s = stats::median(&setups);
    let rss_mb = out.rss_mb.unwrap_or_else(report::peak_rss_mb)?;
    let mut metrics = Metrics::default();
    metrics.end_to_end(&out.ops, plan.entries.len(), &out.tally, setup_s, rss_mb)?;
    Ok(RunResult {
        tally: out.tally,
        metrics,
    })
}

// ---- the traced run --------------------------------------------------

/// The broker's per-shape incremental binding path, rebuilt from the
/// public solver API: one persistent solver per (variable, domain)
/// whose only constraint is replaced every round.
#[derive(Default)]
struct BindingSolvers {
    solvers: HashMap<(Var, Vec<Val>), (IncrementalSolver<Fuzzy>, ConstraintId)>,
}

impl BindingSolvers {
    fn solve(
        &mut self,
        variable: &Var,
        domain: &Domain,
        sigma: &Constraint<Fuzzy>,
    ) -> Result<Solution<Fuzzy>, SolveError> {
        let key = (variable.clone(), domain.values().to_vec());
        let (solver, id) = self.solvers.entry(key).or_insert_with(|| {
            let mut solver = IncrementalSolver::new(Fuzzy)
                .with_domain(variable.clone(), domain.clone())
                .of_interest([variable.clone()])
                .with_config(
                    VarOrder::Input,
                    SolverConfig::default().with_parallelism(Parallelism::Sequential),
                );
            let id = solver.add_constraint(Constraint::always(Fuzzy));
            (solver, id)
        });
        solver.update_constraint(*id, sigma.clone());
        solver.solve()
    }
}

/// Counters the replay gathers beside its spans.
#[derive(Default)]
struct ReplayCounts {
    candidates: Vec<f64>,
    runs: Vec<f64>,
    steps: Vec<f64>,
    agreements: u64,
    attempts: u64,
    binding_threads: Vec<f64>,
    binding_nodes: Vec<f64>,
    retries: Vec<f64>,
    rollbacks: Vec<f64>,
    relaxations: Vec<f64>,
    faults: Vec<f64>,
}

/// The combined policy of a provider's offers on the variable.
fn provider_policy(service: &ServiceDescription) -> Option<Constraint<Fuzzy>> {
    service
        .qos
        .offers
        .iter()
        .filter(|o| o.variable == VARIABLE)
        .map(Fuzzy::translate)
        .reduce(|acc, c| acc.combine(&c))
}

/// Replays every pooled request in-process against a broker over the
/// same registry, configured as the server configures its own.
fn replay(plan: &Plan, origin: Instant) -> Result<(Tracer, ReplayCounts), String> {
    let mut tracer = Tracer::new(origin);
    let mut counts = ReplayCounts::default();
    let mut broker = Broker::new(Fuzzy, registry(plan.kind, plan.seed))
        .with_broker_config(BrokerConfig::default())
        .with_incremental(ServerConfig::default().incremental);
    let mut bindings = BindingSolvers::default();
    let chaos = chaos_config();
    for _ in 0..REPLAYS {
        for (index, entry) in plan.entries.iter().enumerate() {
            let op = index as u64;
            let request = lower(&entry.negotiate);
            // What the server does for the session.
            let root = tracer.begin("replay.session", None, op);
            if let Some(publish) = &entry.churn {
                let description = described(publish);
                tracer.time("registry.write", Some(root), op, || {
                    broker.registry_mut().publish(description);
                });
            }
            let plain = if plan.kind.chaos().is_some() {
                let (report, _) = tracer.time("chaos.negotiate", Some(root), op, || {
                    broker.negotiate_resilient(&request, &[], &chaos, Fuzzy::translate)
                });
                let report = report.map_err(|e| e.to_string())?;
                counts.retries.push(report.retries as f64);
                counts.rollbacks.push(report.rollbacks as f64);
                counts.relaxations.push(report.relaxations_applied as f64);
                counts.faults.push(report.faults_injected as f64);
                None
            } else {
                let (sla, _) = tracer.time("broker.negotiate", Some(root), op, || {
                    broker.negotiate(&request, Fuzzy::translate)
                });
                Some(sla.map_err(|e| e.to_string())?)
            };
            if let Some(publish) = &entry.churn {
                let id = ServiceId::new(&publish.service);
                tracer.time("registry.write", Some(root), op, || {
                    broker.registry_mut().deregister(&id);
                });
            }
            tracer.end(root);
            let sla = match plain {
                Some(sla) => sla,
                None => {
                    // The plain negotiation of the same request, for the
                    // broker metrics.
                    let (sla, _) = tracer.time("broker.negotiate", None, op, || {
                        broker.negotiate(&request, Fuzzy::translate)
                    });
                    sla.map_err(|e| e.to_string())?
                }
            };
            decompose(
                &broker,
                &request,
                &sla,
                &mut bindings,
                &mut tracer,
                &mut counts,
                op,
            )?;
        }
    }
    Ok((tracer, counts))
}

/// `Broker::negotiate` taken apart into its public layer calls, each
/// under a span: discovery, one nmsccp run per provider and one binding
/// solve per agreement. The agreements fold into the best SLA as the
/// broker folds them, and a result other than `reference` (the broker's
/// own answer) is an error, so the decomposition cannot drift from the
/// program unnoticed.
fn decompose(
    broker: &Broker<Fuzzy>,
    request: &NegotiationRequest<Fuzzy>,
    reference: &Sla<Fuzzy>,
    bindings: &mut BindingSolvers,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
    op: u64,
) -> Result<(), String> {
    let snapshot = broker.registry();
    let root = tracer.begin("broker.decomposed", None, op);
    let (candidates, _) = tracer.time("registry.discover", Some(root), op, || {
        snapshot.discover(&request.capability)
    });
    counts.candidates.push(candidates.len() as f64);
    let domains = Domains::new().with(request.variable.clone(), request.domain.clone());
    let client = Agent::tell(
        request.constraint.clone(),
        Interval::any(&Fuzzy),
        Agent::ask(
            Constraint::always(Fuzzy),
            request.acceptance.clone(),
            Agent::success(),
        ),
    );
    let mut agreed = Vec::new();
    let mut best: Option<(&str, Unit, Option<i64>)> = None;
    let mut runs = 0;
    for service in candidates {
        let Some(policy) = provider_policy(service) else {
            continue;
        };
        let provider = Agent::tell(policy, Interval::any(&Fuzzy), Agent::success());
        let store = Store::empty(Fuzzy, domains.clone());
        let (report, _) = tracer.time("nmsccp.run", Some(root), op, || {
            Interpreter::new(Program::new()).run(Agent::par(provider, client.clone()), store)
        });
        let report = report.map_err(|e| e.to_string())?;
        runs += 1;
        counts.attempts += 1;
        counts.steps.push(report.steps as f64);
        if let Outcome::Success { store } = report.outcome {
            counts.agreements += 1;
            let level = store.consistency().map_err(|e| e.to_string())?;
            let sigma = store.sigma().clone();
            let (solution, _) = tracer.time("core.binding_incremental", Some(root), op, || {
                bindings.solve(&request.variable, &request.domain, &sigma)
            });
            let binding = binding_of(&solution.map_err(|e| e.to_string())?.best().first().cloned());
            // The first maximal level wins, as in `Broker::negotiate`.
            if best
                .as_ref()
                .is_none_or(|(_, top, _)| Fuzzy.lt(top, &level))
            {
                best = Some((service.id.as_str(), level, binding));
            }
            agreed.push(sigma);
        }
    }
    tracer.end(root);
    counts.runs.push(f64::from(runs));
    let decomposed =
        best.map(|(service, level, binding)| (service, Fuzzy::render_level(&level), binding));
    let wanted = (
        reference.service.as_str(),
        Fuzzy::render_level(&reference.agreed_level),
        binding_of(&reference.binding),
    );
    if decomposed != Some(wanted) {
        return Err(format!(
            "request {op}: the decomposed negotiation gave {decomposed:?}, Broker::negotiate {wanted:?}"
        ));
    }
    // The cold reference path, outside the decomposed negotiation.
    let cold = BranchAndBound::with_config(VarOrder::Input, SolverConfig::default());
    for sigma in agreed {
        let problem = Scsp::new(Fuzzy)
            .with_domain(request.variable.clone(), request.domain.clone())
            .with_constraint(sigma)
            .of_interest([request.variable.clone()]);
        let (solution, _) = tracer.time("core.binding_cold", None, op, || cold.solve(&problem));
        let solution = solution.map_err(|e| e.to_string())?;
        if let Some(stats) = solution.stats() {
            counts.binding_threads.push(stats.threads as f64);
            counts.binding_nodes.push(stats.nodes as f64);
        }
    }
    Ok(())
}

/// Protocol and transport timings on in-memory buffers.
fn micro(plan: &Plan, tracer: &mut Tracer) -> Result<(), String> {
    for (index, entry) in plan.entries.iter().enumerate() {
        let op = index as u64;
        let payload = Request::Negotiate(entry.negotiate.clone()).to_json();
        for _ in 0..MICRO_REPS {
            let (parsed, _) = tracer.time("protocol.request_parse", None, op, || {
                Request::parse(&payload)
            });
            parsed?;
            let (rendered, _) =
                tracer.time("protocol.reply_render", None, op, || entry.reply.to_json());
            std::hint::black_box(rendered);
            let (framed, _) = tracer.time("transport.frame", None, op, || {
                let mut wire = Vec::with_capacity(payload.len() + 1);
                FrameWriter::new(&mut wire).write_frame(&payload)?;
                FrameReader::new(Cursor::new(wire), DEFAULT_MAX_FRAME_BYTES)
                    .read_frame()
                    .map_err(|e| io::Error::other(format!("{e:?}")))
            });
            if framed.map_err(|e| e.to_string())? != payload {
                return Err("transport frame round trip changed the payload".into());
            }
        }
    }
    Ok(())
}

/// The median, per pooled request, of `value` over the spans named
/// `name` (the replayed requests' op ids are their pool indices).
fn per_request(
    spans: &[Span],
    entries: usize,
    name: &str,
    value: impl Fn(usize, &Span) -> f64,
) -> Vec<f64> {
    let mut per_entry: Vec<Vec<f64>> = vec![Vec::new(); entries];
    for (id, span) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
        per_entry[span.op as usize].push(value(id, span));
    }
    per_entry.iter().map(|v| stats::median(v)).collect()
}

/// The traced run: an untraced loop for the overhead baseline, a traced
/// loop, then the in-process replay. Returns the per-layer metrics and
/// every span recorded.
pub fn run_traced(
    kind: Daemon,
    seed: u64,
    seconds: Duration,
) -> Result<(RunResult, Vec<Span>), String> {
    let (plan, handle, _) = timed_setup(kind, seed, 1)?;
    let addr = handle.local_addr();
    let untraced = closed_loop(addr, &plan, warmup(seconds), seconds / 2, None);
    let origin = Instant::now();
    let traced = closed_loop(addr, &plan, Duration::ZERO, seconds, Some(origin));
    handle.shutdown(Duration::from_secs(1));

    let (mut tracer, counts) = replay(&plan, origin)?;
    micro(&plan, &mut tracer)?;
    tracer.absorb(traced.tracer.clone().expect("traced loop records spans"));
    let spans = tracer.spans().to_vec();
    let self_ns = trace::self_times(&spans);
    let entries = plan.entries.len();
    let p50_us = |name: &str| stats::median(&trace::micros_of(&spans, name));

    let mut m = BTreeMap::new();
    let session_p50 = stats::median(&traced.ops.iter().map(|op| op.1).collect::<Vec<_>>());
    let share = |ms: f64| {
        if session_p50 > 0.0 {
            ms / session_p50
        } else {
            0.0
        }
    };
    m.insert("server.session_ms.p50", session_p50);
    m.insert(
        "server.session_ms.p99",
        report::tail_or_warn(
            &stats::sorted(traced.ops.iter().map(|op| op.1).collect()),
            "server.session_ms.p99",
        ),
    );
    m.insert("server.connect_us.p50", p50_us("client.connect"));
    let replay_ms = per_request(&spans, entries, "replay.session", |_, s| s.micros() / 1e3);
    let by_entry: Vec<(usize, f64)> = traced
        .measured
        .iter()
        .map(|s| (s.entry, s.latency.as_secs_f64() * 1e3))
        .collect();
    let residual = stats::sorted(stats::residuals(&by_entry, &replay_ms));
    let residual_p50 = stats::percentile(&residual, 50.0).unwrap_or(0.0);
    m.insert("server.residual_ms.p50", residual_p50);
    m.insert(
        "server.residual_ms.p99",
        report::tail_or_warn(&residual, "server.residual_ms.p99"),
    );
    m.insert("share.server_residual", share(residual_p50));
    for label in report::OUTCOME_LABELS {
        m.insert(
            report::outcome_metric(label),
            traced.tally.count(label) as f64,
        );
    }
    let bytes = |f: fn(&Session) -> usize| {
        stats::mean(
            &traced
                .measured
                .iter()
                .map(|s| f(s) as f64)
                .collect::<Vec<_>>(),
        )
    };
    m.insert("protocol.request_bytes", bytes(|s| s.request_bytes));
    m.insert("protocol.reply_bytes", bytes(|s| s.reply_bytes));
    for (metric, span) in [
        ("protocol.request_parse_us.p50", "protocol.request_parse"),
        ("protocol.reply_render_us.p50", "protocol.reply_render"),
        ("transport.frame_us.p50", "transport.frame"),
        ("registry.discover_us.p50", "registry.discover"),
        ("registry.write_us.p50", "registry.write"),
        ("nmsccp.run_us.p50", "nmsccp.run"),
        (
            "core.binding_incremental_us.p50",
            "core.binding_incremental",
        ),
        ("core.binding_cold_us.p50", "core.binding_cold"),
    ] {
        m.insert(metric, p50_us(span));
    }
    m.insert("registry.candidates.mean", stats::mean(&counts.candidates));
    m.insert("registry.services", registry(kind, seed).len() as f64);
    let writes = plan.entries.iter().filter(|e| e.churn.is_some()).count() * 2;
    m.insert(
        "share.registry_write",
        share(writes as f64 / entries as f64 * p50_us("registry.write") / 1e3),
    );

    // Broker self time: the negotiation minus what its decomposition
    // spent in discovery, nmsccp runs and binding solves (the children
    // of `broker.decomposed`, which do not overlap).
    let negotiate_us = per_request(&spans, entries, "broker.negotiate", |_, s| s.micros());
    let children_us = per_request(&spans, entries, "broker.decomposed", |id, s| {
        s.micros() - self_ns[id] as f64 / 1e3
    });
    let discover_us = per_request(&spans, entries, "registry.discover", |_, s| s.micros());
    let self_us: Vec<f64> = negotiate_us
        .iter()
        .zip(&children_us)
        .map(|(n, c)| n - c)
        .collect();
    let work_us: Vec<f64> = children_us
        .iter()
        .zip(&discover_us)
        .map(|(c, d)| c - d)
        .collect();
    m.insert(
        "broker.negotiate_ms.p50",
        stats::median(&negotiate_us) / 1e3,
    );
    m.insert("broker.self_us.p50", stats::median(&self_us));
    m.insert(
        "broker.agreements_per_attempt",
        counts.agreements as f64 / counts.attempts.max(1) as f64,
    );
    m.insert("share.nmsccp_binding", share(stats::median(&work_us) / 1e3));
    m.insert("chaos.negotiate_ms.p50", p50_us("chaos.negotiate") / 1e3);
    m.insert("share.chaos", share(p50_us("chaos.negotiate") / 1e3));
    m.insert("chaos.retries", stats::mean(&counts.retries));
    m.insert("chaos.rollbacks", stats::mean(&counts.rollbacks));
    m.insert("chaos.relaxations", stats::mean(&counts.relaxations));
    m.insert("chaos.faults_injected", stats::mean(&counts.faults));
    m.insert("nmsccp.steps.mean", stats::mean(&counts.steps));
    m.insert("nmsccp.runs_per_session", stats::mean(&counts.runs));
    m.insert("core.binding_threads", stats::mean(&counts.binding_threads));
    m.insert("core.binding_nodes", stats::mean(&counts.binding_nodes));
    m.insert("trace.layer_spans", report::layer_spans(&spans) as f64);
    m.insert(
        "trace.overhead_frac",
        1.0 - traced.throughput() / untraced.throughput().max(1e-9),
    );

    let mut tally = untraced.tally;
    tally.merge(&traced.tally);
    let mut metrics = Metrics::default();
    metrics.per_layer(&m)?;
    Ok((RunResult { tally, metrics }, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_light_pool_is_seeded_and_bound() {
        let a = Plan::new(Daemon::WireLight, 3).unwrap();
        let b = Plan::new(Daemon::WireLight, 3).unwrap();
        assert_eq!(a.entries.len(), 64);
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.frames, y.frames);
            assert_eq!(x.expect, y.expect);
        }
        let c = Plan::new(Daemon::WireLight, 4).unwrap();
        assert_ne!(a.entries[0].frames, c.entries[0].frames);
    }

    #[test]
    fn check_accepts_only_the_reference() {
        let plan = Plan::new(Daemon::WireLight, 1).unwrap();
        let entry = &plan.entries[0];
        assert!(check(entry, std::slice::from_ref(&entry.reply)));
        let Reply::Bound {
            service,
            provider,
            level,
            binding,
            epoch,
        } = entry.reply.clone()
        else {
            panic!("wire_light references are bound replies");
        };
        let off = Reply::Bound {
            service,
            provider,
            level: level + 0.125,
            binding,
            epoch,
        };
        assert!(!check(entry, &[off]));
        let shed = Reply::Shed {
            reason: softsoa_soa::server::protocol::ShedReason::Overloaded,
        };
        assert!(!check(entry, &[shed]));
    }
}
