//! Deterministic load generator for the negotiation daemon.
//!
//! Drives N client sessions (over a bounded thread pool) against a
//! running server, mixing well-behaved negotiators with registry-churn
//! clients and — at a configurable rate — deliberately hostile ones:
//! silent stalls, truncated frames, slow-loris writers and abrupt
//! disconnects. Client behaviour is a pure function of `(seed, client
//! index)`, so a failing run replays exactly.
//!
//! The report tallies every session by its *typed* outcome; the
//! headline dependability claim is `hung == 0` — no client ever waits
//! past the server's deadline envelope without an answer or a close.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use softsoa_dependability::Attribute;
use softsoa_telemetry::Telemetry;

use crate::contention::Fairness;
use crate::qos::{OfferShape, QosOffer};
use crate::registry::{Registry, ServiceDescription};
use crate::server::protocol::{NegotiateRequest, PublishRequest, Reply, Request, WireSemiring};
use crate::server::{DrainReport, NegotiationServer, ServerConfig, ServerHandle};
use crate::QosDocument;

/// Load shape: how many sessions, how parallel, how hostile.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Total client sessions to run.
    pub clients: usize,
    /// Concurrent client threads.
    pub concurrency: usize,
    /// Fraction of clients that misbehave at the transport level
    /// (stall, truncate, slow-loris, disconnect).
    pub transport_fault_rate: f64,
    /// Fraction of well-behaved clients that churn the registry
    /// (publish → negotiate → deregister) instead of just negotiating.
    pub churn_rate: f64,
    /// Seed for the deterministic per-client behaviour plan.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            clients: 200,
            concurrency: 16,
            transport_fault_rate: 0.0,
            churn_rate: 0.2,
            seed: 7,
        }
    }
}

/// What one load run observed.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Sessions attempted.
    pub sessions: usize,
    /// Tally of typed outcomes (`bound`, `degraded`, `shed`,
    /// `timed-out`, `error`, plus client-side `closed` / `abandoned` /
    /// `garbled` / `connect-failed`).
    pub outcomes: BTreeMap<String, usize>,
    /// Sessions where the client waited past the full deadline
    /// envelope with neither a reply nor a close. **Must be zero.**
    pub hung: usize,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Completed sessions per second.
    pub sessions_per_sec: f64,
    /// Median session latency (reply-awaiting sessions), milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile session latency, milliseconds.
    pub p99_ms: f64,
    /// Worst session latency, milliseconds.
    pub max_ms: f64,
    /// Registry epoch after the run (how much churn was published).
    pub final_epoch: u64,
}

impl LoadReport {
    /// Renders the report as pretty JSON (the `BENCH_8.json` rows).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("report values always serialize")
    }

    /// The report as a JSON value, for embedding in larger documents.
    pub fn to_value(&self) -> Value {
        let outcomes = Value::Obj(
            self.outcomes
                .iter()
                .map(|(k, v)| (k.clone(), Value::UInt(*v as u64)))
                .collect(),
        );
        Value::Obj(vec![
            ("sessions".into(), Value::UInt(self.sessions as u64)),
            ("outcomes".into(), outcomes),
            ("hung".into(), Value::UInt(self.hung as u64)),
            (
                "elapsed_ms".into(),
                Value::Float(self.elapsed.as_secs_f64() * 1e3),
            ),
            (
                "sessions_per_sec".into(),
                Value::Float(self.sessions_per_sec),
            ),
            ("p50_ms".into(), Value::Float(self.p50_ms)),
            ("p99_ms".into(), Value::Float(self.p99_ms)),
            ("max_ms".into(), Value::Float(self.max_ms)),
            ("final_epoch".into(), Value::UInt(self.final_epoch)),
        ])
    }
}

/// A self-hosted run: the load report plus what the drain saw.
#[derive(Debug, Clone)]
pub struct SelfHostedReport {
    /// The client-side load report.
    pub load: LoadReport,
    /// The server-side drain report.
    pub drain: DrainReport,
}

impl SelfHostedReport {
    /// Renders both sides as one pretty-JSON document.
    pub fn to_json(&self) -> String {
        let drain = Value::Obj(vec![
            ("drained".into(), Value::UInt(self.drain.drained as u64)),
            ("shed".into(), Value::UInt(self.drain.shed as u64)),
            ("aborted".into(), Value::UInt(self.drain.aborted as u64)),
            (
                "elapsed_ms".into(),
                Value::Float(self.drain.elapsed.as_secs_f64() * 1e3),
            ),
            (
                "within_deadline".into(),
                Value::Bool(self.drain.within_deadline),
            ),
        ]);
        let value = Value::Obj(vec![
            ("load".into(), self.load.to_value()),
            ("drain".into(), drain),
        ]);
        serde_json::to_string_pretty(&value).expect("report values always serialize")
    }
}

/// Seeds a registry with `providers` services advertising the
/// `compute` capability over the `x` variable, with varied linear
/// offers so negotiations bind different levels.
pub fn seed_providers(providers: usize) -> Registry {
    let mut registry = Registry::new();
    for p in 0..providers {
        let service = format!("svc-{p:03}");
        let slope = 0.01 + (p % 7) as f64 * 0.01;
        let intercept = 0.40 + (p % 5) as f64 * 0.05;
        registry.publish(ServiceDescription::new(
            service.as_str(),
            format!("provider-{}", p % 5),
            "compute",
            QosDocument::new(&service).with_offer(QosOffer {
                attribute: Attribute::Reliability,
                variable: "x".into(),
                shape: OfferShape::Linear { slope, intercept },
            }),
        ));
    }
    registry
}

/// Starts a server on an ephemeral local port, runs the load against
/// it, then drains. The returned report carries both sides.
///
/// # Errors
///
/// Propagates server start-up failures (bind, thread spawn).
pub fn run_self_hosted<S: WireSemiring>(
    semiring: S,
    registry: Registry,
    server: ServerConfig,
    load: &LoadConfig,
    drain: Duration,
) -> std::io::Result<SelfHostedReport> {
    let handle = NegotiationServer::start(semiring, registry, server, Telemetry::disabled())?;
    let mut report = run(handle.local_addr(), load, handle.config().session_deadline);
    annotate(&mut report, &handle);
    let drain = handle.shutdown(drain);
    Ok(SelfHostedReport {
        load: report,
        drain,
    })
}

/// Fills the server-side fields of a report from a live handle.
pub fn annotate<S: WireSemiring>(report: &mut LoadReport, handle: &ServerHandle<S>) {
    report.final_epoch = handle.broker().registry().epoch();
}

/// Runs the load against an already-listening address.
/// `session_deadline` must match the server's (it sizes the client's
/// hang detector: a client only counts as hung after waiting out the
/// server's whole deadline envelope plus slack).
pub fn run(addr: SocketAddr, load: &LoadConfig, session_deadline: Duration) -> LoadReport {
    let started = Instant::now();
    let budget = session_deadline + session_deadline / 2 + Duration::from_secs(2);
    let concurrency = load.concurrency.max(1);
    let results: Vec<ClientResult> = thread::scope(|scope| {
        let mut lanes = Vec::with_capacity(concurrency);
        for lane in 0..concurrency {
            let load = *load;
            lanes.push(scope.spawn(move || {
                let mut out = Vec::new();
                let mut index = lane;
                while index < load.clients {
                    out.push(run_client(addr, index as u64, &load, budget));
                    index += concurrency;
                }
                out
            }));
        }
        lanes
            .into_iter()
            .flat_map(|lane| lane.join().unwrap_or_default())
            .collect()
    });
    let elapsed = started.elapsed();

    let mut outcomes = BTreeMap::new();
    let mut hung = 0;
    let mut latencies: Vec<f64> = Vec::new();
    for result in &results {
        *outcomes.entry(result.label.clone()).or_insert(0) += 1;
        if result.hung {
            hung += 1;
        }
        if let Some(latency) = result.latency {
            latencies.push(latency.as_secs_f64() * 1e3);
        }
    }
    let (p50_ms, p99_ms, max_ms) = latency_summary(latencies);
    LoadReport {
        sessions: results.len(),
        outcomes,
        hung,
        sessions_per_sec: results.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        elapsed,
        p50_ms,
        p99_ms,
        max_ms,
        final_epoch: 0,
    }
}

/// Sorts the sample and extracts `(p50, p99, max)`.
///
/// `total_cmp`, not `partial_cmp().expect(...)`: one NaN latency (a
/// poisoned sample from a clock glitch) must not panic away the whole
/// load report — NaN sorts after every finite value instead.
fn latency_summary(mut latencies: Vec<f64>) -> (f64, f64, f64) {
    latencies.sort_by(f64::total_cmp);
    (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        latencies.last().copied().unwrap_or(0.0),
    )
}

/// Linear-interpolation percentile (the "R-7" estimator) over an
/// ascending sample. Nearest-rank rounding made p99 silently equal the
/// maximum for fewer than 100 samples, overstating tail latencies; the
/// interpolated estimate blends the two straddling order statistics
/// instead.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = (sorted.len() - 1) as f64 * q;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let hi = hi.min(sorted.len() - 1);
    if lo == hi {
        return sorted[lo];
    }
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// The deterministic behaviour plan for one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientPlan {
    /// Connect, negotiate, read the reply, close.
    Negotiate,
    /// Publish a service, negotiate, deregister it (registry churn).
    Churn,
    /// Send half a frame, then go silent until the server's session
    /// deadline answers with a typed `timed-out`.
    SilentStall,
    /// Send a frame without its terminator and close the write side —
    /// the server must answer `truncated-frame`.
    TruncatedFrame,
    /// Write the frame one byte at a time — slow, but inside the
    /// deadline; the server must still answer normally.
    SlowLoris,
    /// Send a request and vanish without reading the reply.
    Disconnect,
}

fn plan_for(load: &LoadConfig, index: u64) -> ClientPlan {
    let mut rng = StdRng::seed_from_u64(load.seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    if rng.random::<f64>() < load.transport_fault_rate {
        match rng.random_range(0..4u32) {
            0 => ClientPlan::SilentStall,
            1 => ClientPlan::TruncatedFrame,
            2 => ClientPlan::SlowLoris,
            _ => ClientPlan::Disconnect,
        }
    } else if rng.random::<f64>() < load.churn_rate {
        ClientPlan::Churn
    } else {
        ClientPlan::Negotiate
    }
}

fn negotiate_request(index: u64) -> Request {
    // Vary the domain upper bound so the broker binds over several
    // domain sizes (one domain scan per value, see `Broker::bind`).
    Request::Negotiate(NegotiateRequest {
        capability: "compute".into(),
        variable: "x".into(),
        domain: [0, 4 + (index % 5) as i64],
        policy: OfferShape::Linear {
            slope: -0.01,
            intercept: 0.9,
        },
        accept: [0.2, 1.0],
        client: None,
    })
}

#[derive(Debug, Default)]
struct ClientResult {
    label: String,
    latency: Option<Duration>,
    hung: bool,
    /// The agreed level when the reply carried a binding.
    level: Option<f64>,
}

fn run_client(addr: SocketAddr, index: u64, load: &LoadConfig, budget: Duration) -> ClientResult {
    let started = Instant::now();
    let Ok(stream) = TcpStream::connect(addr) else {
        return ClientResult {
            label: "connect-failed".into(),
            latency: None,
            hung: false,
            level: None,
        };
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(budget));

    let mut result = match plan_for(load, index) {
        ClientPlan::Negotiate => exchange_all(&stream, &[negotiate_request(index)]),
        ClientPlan::Churn => {
            let service = format!("churn-{index}");
            exchange_all(
                &stream,
                &[
                    Request::Publish(PublishRequest {
                        service: service.clone(),
                        provider: "loadgen".into(),
                        capability: "compute".into(),
                        offer: QosOffer {
                            attribute: Attribute::Reliability,
                            variable: "x".into(),
                            shape: OfferShape::Linear {
                                slope: 0.01,
                                intercept: 0.6,
                            },
                        },
                        capacity: None,
                    }),
                    negotiate_request(index),
                    Request::Deregister { service },
                ],
            )
        }
        ClientPlan::SilentStall => {
            let mut s = &stream;
            let _ = s.write_all(b"{\"op\":\"negot"); // half a frame, then silence
            read_outcome(&stream)
        }
        ClientPlan::TruncatedFrame => {
            let mut s = &stream;
            let _ = s.write_all(b"{\"op\":\"ping\"}"); // no terminator
            let _ = stream.shutdown(Shutdown::Write);
            read_outcome(&stream)
        }
        ClientPlan::SlowLoris => {
            let frame = format!("{}\n", negotiate_request(index).to_json());
            let mut s = &stream;
            for byte in frame.as_bytes() {
                if s.write_all(std::slice::from_ref(byte)).is_err() {
                    break;
                }
                thread::sleep(Duration::from_micros(200));
            }
            let _ = s.flush();
            read_outcome(&stream)
        }
        ClientPlan::Disconnect => {
            let frame = format!("{}\n", negotiate_request(index).to_json());
            let mut s = &stream;
            let _ = s.write_all(frame.as_bytes());
            drop(stream);
            ClientResult {
                label: "abandoned".into(),
                latency: None,
                hung: false,
                level: None,
            }
        }
    };
    if result.latency.is_none() && !result.hung && result.label != "abandoned" {
        result.latency = Some(started.elapsed());
    }
    result
}

/// Sends each request and reads its reply; the session's label is the
/// last reply's outcome (the negotiation, for churn clients).
fn exchange_all(stream: &TcpStream, requests: &[Request]) -> ClientResult {
    let mut label = "closed".to_string();
    let mut level = None;
    for request in requests {
        let frame = format!("{}\n", request.to_json());
        let mut s = stream;
        if s.write_all(frame.as_bytes()).is_err() || s.flush().is_err() {
            return ClientResult {
                label: "closed".into(),
                latency: None,
                hung: false,
                level: None,
            };
        }
        let outcome = read_outcome(stream);
        if outcome.hung || outcome.label == "closed" || outcome.label == "garbled" {
            return outcome;
        }
        label = outcome.label;
        level = outcome.level;
        // A shed/timed-out/error reply ends the session server-side.
        if matches!(label.as_str(), "shed" | "timed-out" | "error") {
            break;
        }
    }
    ClientResult {
        label,
        latency: None,
        hung: false,
        level,
    }
}

/// Reads one reply frame; classifies timeout-without-data as **hung**
/// (the dependability failure this whole PR exists to prevent).
fn read_outcome(stream: &TcpStream) -> ClientResult {
    let mut buffer = Vec::new();
    let mut byte = [0u8; 1];
    let mut s = stream;
    loop {
        match s.read(&mut byte) {
            Ok(0) => {
                return ClientResult {
                    label: "closed".into(),
                    latency: None,
                    hung: false,
                    level: None,
                }
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    let text = String::from_utf8_lossy(&buffer);
                    let (label, level) = Reply::parse(&text)
                        .map(|r| {
                            let level = match &r {
                                Reply::Bound { level, .. } | Reply::Degraded { level, .. } => {
                                    Some(*level)
                                }
                                _ => None,
                            };
                            (r.outcome_label().to_string(), level)
                        })
                        .unwrap_or_else(|_| ("garbled".to_string(), None));
                    return ClientResult {
                        label,
                        latency: None,
                        hung: false,
                        level,
                    };
                }
                buffer.push(byte[0]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return ClientResult {
                    label: "hung".into(),
                    latency: None,
                    hung: true,
                    level: None,
                }
            }
            Err(_) => {
                return ClientResult {
                    label: "closed".into(),
                    latency: None,
                    hung: false,
                    level: None,
                }
            }
        }
    }
}

/// Contended-workload shape: the same `clients_per_wave` stable
/// identities race for `providers × slots_per_provider` capacity
/// slots, wave after wave, so the server's batching window and the
/// broker's fairness ledger are exercised end to end.
#[derive(Debug, Clone, Copy)]
pub struct ContentionConfig {
    /// Contended waves to run.
    pub waves: usize,
    /// Clients racing in each wave (stable identities across waves).
    pub clients_per_wave: usize,
    /// Capacity-limited providers to seed.
    pub providers: usize,
    /// Concurrent-binding slots per provider.
    pub slots_per_provider: u32,
    /// The allocation objective the server runs.
    pub fairness: Fairness,
    /// Fraction of wave clients that vanish after sending (testing
    /// that a leader publishing to a dead peer never wedges a batch).
    pub transport_fault_rate: f64,
    /// Seed for the deterministic fault plan.
    pub seed: u64,
}

impl Default for ContentionConfig {
    fn default() -> ContentionConfig {
        ContentionConfig {
            waves: 6,
            clients_per_wave: 6,
            providers: 2,
            slots_per_provider: 1,
            fairness: Fairness::Leximin,
            transport_fault_rate: 0.0,
            seed: 7,
        }
    }
}

/// What a contended run observed, aggregated across waves.
#[derive(Debug, Clone)]
pub struct ContentionReport {
    /// Waves run.
    pub waves: usize,
    /// Clients per wave.
    pub clients_per_wave: usize,
    /// The objective the server ran.
    pub fairness: Fairness,
    /// Tally of typed outcomes across every wave session.
    pub outcomes: BTreeMap<String, usize>,
    /// Wave sessions that waited out the deadline envelope unanswered.
    /// **Must be zero.**
    pub hung: usize,
    /// Well-behaved clients that were *never* bound across all waves —
    /// the starvation count the fairness objectives exist to zero.
    pub starved_clients: usize,
    /// The longest run of consecutive denials any well-behaved client
    /// suffered.
    pub max_denial_streak: u64,
    /// Grants across all waves.
    pub bound_total: usize,
    /// Sum of agreed levels across grants (the utility side of the
    /// fairness–utility frontier).
    pub sum_level: f64,
    /// Jain's fairness index over per-client grant counts.
    pub jain_bound: f64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

impl ContentionReport {
    /// Renders the report as pretty JSON (the `BENCH_9.json` rows).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("report values always serialize")
    }

    /// The report as a JSON value, for embedding in larger documents.
    pub fn to_value(&self) -> Value {
        let outcomes = Value::Obj(
            self.outcomes
                .iter()
                .map(|(k, v)| (k.clone(), Value::UInt(*v as u64)))
                .collect(),
        );
        Value::Obj(vec![
            ("fairness".into(), Value::Str(self.fairness.to_string())),
            ("waves".into(), Value::UInt(self.waves as u64)),
            (
                "clients_per_wave".into(),
                Value::UInt(self.clients_per_wave as u64),
            ),
            ("outcomes".into(), outcomes),
            ("hung".into(), Value::UInt(self.hung as u64)),
            (
                "starved_clients".into(),
                Value::UInt(self.starved_clients as u64),
            ),
            (
                "max_denial_streak".into(),
                Value::UInt(self.max_denial_streak),
            ),
            ("bound_total".into(), Value::UInt(self.bound_total as u64)),
            ("sum_level".into(), Value::Float(self.sum_level)),
            ("jain_bound".into(), Value::Float(self.jain_bound)),
            (
                "elapsed_ms".into(),
                Value::Float(self.elapsed.as_secs_f64() * 1e3),
            ),
        ])
    }
}

/// Seeds `providers` capacity-limited services with distinct flat
/// quality tiers (0.9, 0.75, 0.6, …) so contended allocations have a
/// real best-slot/worst-slot spread.
pub fn seed_contended_providers(providers: usize, slots: u32) -> Registry {
    let mut registry = Registry::new();
    for p in 0..providers {
        let service = format!("slot-{p:02}");
        let intercept = (0.9 - 0.15 * p as f64).max(0.3);
        registry.publish(
            ServiceDescription::new(
                service.as_str(),
                format!("provider-{p:02}"),
                "compute",
                QosDocument::new(&service).with_offer(QosOffer {
                    attribute: Attribute::Reliability,
                    variable: "x".into(),
                    shape: OfferShape::Linear {
                        slope: 0.0,
                        intercept,
                    },
                }),
            )
            .with_capacity(slots),
        );
    }
    registry
}

/// Starts a fairness-enabled server sized for the contended workload
/// (one worker per wave client, window closing at the wave size), runs
/// the waves, then drains.
///
/// # Errors
///
/// Propagates server start-up failures (bind, thread spawn).
pub fn run_contended_self_hosted<S: WireSemiring>(
    semiring: S,
    config: &ContentionConfig,
    drain: Duration,
) -> std::io::Result<(ContentionReport, DrainReport)> {
    let server = ServerConfig {
        workers: config.clients_per_wave.max(2),
        fairness: Some(config.fairness),
        batch_window: Duration::from_millis(60),
        max_batch: config.clients_per_wave.max(1),
        ..ServerConfig::default()
    };
    let registry = seed_contended_providers(config.providers, config.slots_per_provider);
    let handle = NegotiationServer::start(semiring, registry, server, Telemetry::disabled())?;
    let report = run_contended(
        handle.local_addr(),
        config,
        handle.config().session_deadline,
    );
    let drain = handle.shutdown(drain);
    Ok((report, drain))
}

/// Runs the contended waves against an already-listening,
/// fairness-enabled server.
pub fn run_contended(
    addr: SocketAddr,
    config: &ContentionConfig,
    session_deadline: Duration,
) -> ContentionReport {
    let started = Instant::now();
    let budget = session_deadline + session_deadline / 2 + Duration::from_secs(2);
    let clients = config.clients_per_wave;

    #[derive(Default, Clone)]
    struct Tally {
        bound: usize,
        level_sum: f64,
        streak: u64,
        max_streak: u64,
        well_behaved_waves: usize,
    }
    let mut tallies: Vec<Tally> = vec![Tally::default(); clients];
    let mut outcomes: BTreeMap<String, usize> = BTreeMap::new();
    let mut hung = 0usize;

    for wave in 0..config.waves {
        let results: Vec<(String, bool, Option<f64>, bool)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|i| {
                    scope.spawn(move || {
                        // Deterministic fault plan per (wave, client).
                        let mut rng = StdRng::seed_from_u64(
                            config.seed
                                ^ (wave as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                                ^ (i as u64).wrapping_mul(0xd1b5_4a32_d192_ed03),
                        );
                        let faulty = rng.random::<f64>() < config.transport_fault_rate;
                        run_wave_client(addr, i, budget, faulty)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or(("client-panicked".to_string(), false, None, false))
                })
                .collect()
        });
        for (i, (label, was_hung, level, faulty)) in results.into_iter().enumerate() {
            *outcomes.entry(label.clone()).or_insert(0) += 1;
            if was_hung {
                hung += 1;
            }
            if faulty {
                continue; // deliberately hostile: not a fairness datum
            }
            let tally = &mut tallies[i];
            tally.well_behaved_waves += 1;
            if let Some(level) = level {
                tally.bound += 1;
                tally.level_sum += level;
                tally.streak = 0;
            } else {
                tally.streak += 1;
                tally.max_streak = tally.max_streak.max(tally.streak);
            }
        }
    }

    let participants: Vec<&Tally> = tallies
        .iter()
        .filter(|t| t.well_behaved_waves > 0)
        .collect();
    let starved_clients = participants.iter().filter(|t| t.bound == 0).count();
    let max_denial_streak = participants.iter().map(|t| t.max_streak).max().unwrap_or(0);
    let bound_total: usize = participants.iter().map(|t| t.bound).sum();
    let sum_level: f64 = participants.iter().map(|t| t.level_sum).sum();
    let counts: Vec<f64> = participants.iter().map(|t| t.bound as f64).collect();
    let sum: f64 = counts.iter().sum();
    let sumsq: f64 = counts.iter().map(|c| c * c).sum();
    let jain_bound = if sumsq > 0.0 {
        (sum * sum) / (counts.len() as f64 * sumsq)
    } else {
        1.0
    };

    ContentionReport {
        waves: config.waves,
        clients_per_wave: clients,
        fairness: config.fairness,
        outcomes,
        hung,
        starved_clients,
        max_denial_streak,
        bound_total,
        sum_level,
        jain_bound,
        elapsed: started.elapsed(),
    }
}

/// One wave client: connect, stagger into a deterministic arrival
/// order, negotiate under a stable identity, read the verdict.
/// Returns `(label, hung, bound level, faulty)`.
fn run_wave_client(
    addr: SocketAddr,
    index: usize,
    budget: Duration,
    faulty: bool,
) -> (String, bool, Option<f64>, bool) {
    // Stagger sends so arrival order inside the window is the client
    // index — giving FCFS a deterministic victim to starve.
    thread::sleep(Duration::from_millis(3 * index as u64));
    let Ok(stream) = TcpStream::connect(addr) else {
        return ("connect-failed".into(), false, None, faulty);
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(budget));
    let request = Request::Negotiate(NegotiateRequest {
        capability: "compute".into(),
        variable: "x".into(),
        domain: [0, 8],
        policy: OfferShape::Linear {
            slope: 0.0,
            intercept: 1.0,
        },
        accept: [0.2, 1.0],
        client: Some(format!("client-{index:02}")),
    });
    let frame = format!("{}\n", request.to_json());
    let mut s = &stream;
    if s.write_all(frame.as_bytes()).is_err() || s.flush().is_err() {
        return ("closed".into(), false, None, faulty);
    }
    if faulty {
        // Vanish without reading: the leader must still publish the
        // batch and the worker must shrug off the dead socket.
        drop(stream);
        return ("abandoned".into(), false, None, faulty);
    }
    let outcome = read_outcome(&stream);
    (outcome.label, outcome.hung, outcome.level, faulty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_survives_a_poisoned_sample() {
        // Regression: the sort used `partial_cmp(..).expect("latencies
        // are finite")`, so a single NaN panicked the whole report.
        let (p50, _p99, _max) = latency_summary(vec![3.0, f64::NAN, 1.0, 2.0]);
        assert_eq!(p50, 2.5, "finite values still sort and interpolate");
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        // Regression: nearest-rank rounding made p99 equal the max for
        // any sample smaller than 100.
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 10.0);
        assert_eq!(percentile(&sorted, 0.50), 5.5);
        // p99 over 10 samples: position 8.91 → 9 + 0.91 · (10 − 9).
        let p99 = percentile(&sorted, 0.99);
        assert!((p99 - 9.91).abs() < 1e-9, "p99 = {p99}, want 9.91");
        assert!(p99 < 10.0, "p99 must no longer collapse to the max");
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[4.2], 0.99), 4.2);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
    }
}
