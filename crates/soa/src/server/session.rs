//! The per-connection session state machine.
//!
//! A session is a loop of `read frame → dispatch → write reply`, every
//! arm of which is bounded: socket reads carry a timeout so the loop
//! re-checks the session deadline and the drain state a few times a
//! second; negotiations run with a step-bounded virtual clock (the
//! PR 3 recovery machinery's `deadline`), so a fault-heavy retry
//! schedule cannot outlive the session; writes carry a socket timeout
//! so a peer that stops reading cannot wedge a worker. Whatever
//! terminates the session — a panic while handling a request included —
//! the peer gets a typed reply first when the wire still allows one.

use std::io::Write;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use softsoa_core::Domain;
use softsoa_nmsccp::{Interval, Outcome};
use softsoa_telemetry::Telemetry;

use crate::broker::{Broker, NegotiationError, NegotiationRequest, RegistrySnapshot, Sla};
use crate::chaos::{ChaosConfig, ChaosReport};
use crate::contention::{ContendedRequest, ContentionOutcome, Fairness};
use crate::registry::ServiceDescription;
use crate::server::admission::Pending;
use crate::server::batch::{BatchEntry, Batcher, Turn};
use crate::server::protocol::{
    ErrorCode, NegotiateRequest, Phase, PublishRequest, Reply, Request, WireSemiring,
};
use crate::server::shutdown::Control;
use crate::server::transport::{
    ChaosStream, FrameError, FrameReader, FrameWriter, TransportChaos, DEFAULT_MAX_FRAME_BYTES,
};
use crate::server::ServerConfig;
use crate::ServiceId;

/// The socket read timeout: the session loop's tick, so the deadline
/// and the drain state are re-checked at least this often.
pub(crate) const SESSION_TICK: Duration = Duration::from_millis(50);

/// The socket write timeout, which bounds a peer that stops reading.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Context shared by every session of one server.
#[derive(Debug)]
pub(crate) struct SessionContext {
    pub config: ServerConfig,
    pub control: Control,
    pub telemetry: Telemetry,
    /// The contended-batching window (used when `config.fairness` is
    /// set).
    pub batcher: Arc<Batcher>,
}

/// How a session ended (for drain accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionEnd {
    /// The peer closed cleanly after its requests.
    Completed,
    /// The session deadline fired.
    TimedOut,
    /// The drain deadline (or a stop) aborted it.
    Aborted,
    /// The transport failed mid-session.
    TransportError,
    /// Handling a request panicked; the peer got an `internal` error.
    Panicked,
}

/// Per-session outcome summary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SessionStats {
    /// Requests answered.
    pub requests: usize,
    /// How the session ended.
    pub end: SessionEnd,
    /// Whether a request was read after the drain began.
    pub read_in_drain: bool,
}

/// Runs one session to completion. Never panics on transport failures;
/// every exit path is a typed [`SessionEnd`].
pub(crate) fn run_session<S: WireSemiring>(
    broker: &mut Broker<S>,
    ctx: &SessionContext,
    pending: Pending,
) -> SessionStats {
    let t = &ctx.telemetry;
    if t.enabled() {
        t.timing("server.phase.queue_wait", pending.accepted_at.elapsed());
    }
    let config = &ctx.config;
    let mut stats = SessionStats {
        requests: 0,
        end: SessionEnd::Completed,
        read_in_drain: false,
    };

    // Bounded socket operations: the read timeout is the loop's tick
    // (deadline and drain checks happen at least this often), the
    // write timeout bounds a peer that stops reading.
    if pending.stream.set_read_timeout(Some(SESSION_TICK)).is_err()
        || pending
            .stream
            .set_write_timeout(Some(WRITE_TIMEOUT))
            .is_err()
    {
        stats.end = SessionEnd::TransportError;
        return stats;
    }

    // Server-side transport chaos (off by default): wraps the reading
    // and the writing side of the one stream with the connection's
    // deterministic fault.
    let conn_id = pending.conn_id;
    let calm = TransportChaos::default();
    let chaos = config.transport_chaos.as_ref().unwrap_or(&calm);
    let mut reader = FrameReader::new(
        ChaosStream::new(&pending.stream, chaos, conn_id),
        DEFAULT_MAX_FRAME_BYTES,
    );
    let mut writer = FrameWriter::new(ChaosStream::new(&pending.stream, chaos, conn_id));

    let deadline = pending.accepted_at + config.session_deadline;

    loop {
        if ctx.control.should_abort() {
            reply(t, &mut writer, &mut stats, Reply::timed_out(Phase::Session));
            end(&mut stats, SessionEnd::Aborted);
            t.incr("server.sessions.aborted");
            break;
        }
        if Instant::now() >= deadline {
            reply(t, &mut writer, &mut stats, Reply::timed_out(Phase::Session));
            end(&mut stats, SessionEnd::TimedOut);
            t.incr("server.sessions.timed_out");
            break;
        }

        let read_start = Instant::now();
        let frame = match reader.read_frame() {
            Ok(frame) => {
                t.timing("server.phase.read", read_start.elapsed());
                stats.read_in_drain |= ctx.control.is_draining();
                frame
            }
            Err(e) if e.is_timeout() => {
                if reader.mid_frame() && Instant::now() >= deadline {
                    // A stalled peer mid-frame at the deadline: typed
                    // read-phase timeout, not a hang.
                    reply(t, &mut writer, &mut stats, Reply::timed_out(Phase::Read));
                    end(&mut stats, SessionEnd::TimedOut);
                    t.incr("server.sessions.timed_out");
                    break;
                }
                continue; // re-check deadline and drain state
            }
            Err(FrameError::Closed) => break,
            Err(FrameError::Truncated { buffered }) => {
                reply(
                    t,
                    &mut writer,
                    &mut stats,
                    Reply::Error {
                        code: ErrorCode::TruncatedFrame,
                        detail: format!("stream closed mid-frame ({buffered} bytes buffered)"),
                    },
                );
                break;
            }
            Err(FrameError::Oversized { limit }) => {
                reply(
                    t,
                    &mut writer,
                    &mut stats,
                    Reply::Error {
                        code: ErrorCode::OversizedFrame,
                        detail: format!("frame exceeds the {limit}-byte limit"),
                    },
                );
                break;
            }
            Err(FrameError::Io(_)) => {
                end(&mut stats, SessionEnd::TransportError);
                t.incr("server.sessions.transport_errors");
                break;
            }
        };

        let mut panicked = false;
        let answer = match Request::parse(&frame) {
            Err(detail) => Reply::Error {
                code: ErrorCode::BadRequest,
                detail,
            },
            // A panic below `dispatch` is a server bug: the peer reads a
            // typed `internal` error before the close, and the worker
            // keeps serving (its own catch is only the backstop).
            Ok(request) => panic::catch_unwind(AssertUnwindSafe(|| {
                dispatch(broker, ctx, request, deadline, conn_id)
            }))
            .unwrap_or_else(|_| {
                panicked = true;
                Reply::Error {
                    code: ErrorCode::Internal,
                    detail: "the request panicked the session".to_string(),
                }
            }),
        };
        stats.requests += 1;
        let wrote = reply(t, &mut writer, &mut stats, answer);
        if panicked {
            t.incr("server.sessions.panicked");
            end(&mut stats, SessionEnd::Panicked);
        }
        if !wrote || panicked {
            break;
        }
    }

    if stats.end == SessionEnd::Completed {
        t.incr("server.sessions.completed");
    }
    stats
}

/// Writes a reply frame; returns whether the wire survived. Failures
/// downgrade the session end to `TransportError` (the peer is gone —
/// nothing further to say).
fn reply<W: Write>(
    t: &Telemetry,
    writer: &mut FrameWriter<W>,
    stats: &mut SessionStats,
    reply: Reply,
) -> bool {
    let start = Instant::now();
    let ok = writer.write_encoded(reply.to_frame().as_bytes()).is_ok();
    t.timing("server.phase.write", start.elapsed());
    t.count_labeled("server.replies", reply.outcome_label(), 1);
    if !ok {
        end(stats, SessionEnd::TransportError);
        t.incr("server.sessions.transport_errors");
    }
    ok
}

/// Records the first non-`Completed` end (later downgrades keep it).
fn end(stats: &mut SessionStats, to: SessionEnd) {
    if stats.end == SessionEnd::Completed {
        stats.end = to;
    }
}

impl Reply {
    fn timed_out(phase: Phase) -> Reply {
        Reply::TimedOut {
            phase,
            partial_level: None,
        }
    }
}

/// A capability whose negotiate request panics the session: a stand-in
/// for a bug anywhere below [`run_session`], compiled into unit tests
/// only.
#[cfg(test)]
pub(crate) const PANIC_CAPABILITY: &str = "test-panic";

/// Handles one parsed request against the worker's broker.
fn dispatch<S: WireSemiring>(
    broker: &mut Broker<S>,
    ctx: &SessionContext,
    request: Request,
    deadline: Instant,
    conn_id: u64,
) -> Reply {
    #[cfg(test)]
    if matches!(&request, Request::Negotiate(n) if n.capability == PANIC_CAPABILITY) {
        panic!("a negotiate request for `{PANIC_CAPABILITY}` panics the session");
    }
    match request {
        Request::Ping => Reply::Pong {
            epoch: broker.registry().epoch(),
        },
        Request::Publish(publish) => handle_publish(broker, publish),
        Request::Deregister { service } => {
            let mut writer = broker.registry_mut();
            let existed = writer.deregister(&ServiceId::new(&service)).is_some();
            // The guard's own epoch: once it drops, another session's
            // write may bump the registry past it.
            Reply::Deregistered {
                epoch: writer.epoch(),
                existed,
            }
        }
        Request::Negotiate(negotiate) => {
            handle_negotiate(broker, ctx, negotiate, deadline, conn_id)
        }
    }
}

fn handle_publish<S: WireSemiring>(broker: &mut Broker<S>, publish: PublishRequest) -> Reply {
    let mut description = ServiceDescription::new(
        publish.service.as_str(),
        publish.provider.as_str(),
        publish.capability.as_str(),
        crate::QosDocument::new(&publish.service).with_offer(publish.offer),
    );
    description.capacity = publish.capacity;
    let mut writer = broker.registry_mut();
    writer.publish(description);
    Reply::Published {
        epoch: writer.epoch(),
    }
}

/// Validates a wire-level negotiate request and lowers it into the
/// broker's typed form, or produces the typed error reply.
fn build_request<S: WireSemiring>(
    negotiate: &NegotiateRequest,
) -> Result<NegotiationRequest<S>, Reply> {
    let [min, max] = negotiate.domain;
    if min > max {
        return Err(Reply::Error {
            code: ErrorCode::BadRequest,
            detail: format!("empty domain [{min}, {max}]"),
        });
    }
    if (max - min) as u128 >= 4096 {
        return Err(Reply::Error {
            code: ErrorCode::BadRequest,
            detail: "domain wider than 4096 values".to_string(),
        });
    }
    let lo = match S::parse_level(negotiate.accept[0]) {
        Ok(level) => level,
        Err(detail) => {
            return Err(Reply::Error {
                code: ErrorCode::InvalidAcceptance,
                detail,
            })
        }
    };
    let hi = match S::parse_level(negotiate.accept[1]) {
        Ok(level) => level,
        Err(detail) => {
            return Err(Reply::Error {
                code: ErrorCode::InvalidAcceptance,
                detail,
            })
        }
    };
    Ok(NegotiationRequest {
        capability: negotiate.capability.clone(),
        variable: negotiate.variable.as_str().into(),
        domain: Domain::ints(min..=max),
        constraint: S::shape_constraint(&negotiate.variable, negotiate.policy.clone()),
        acceptance: Interval::levels(lo, hi),
    })
}

fn handle_negotiate<S: WireSemiring>(
    broker: &mut Broker<S>,
    ctx: &SessionContext,
    negotiate: NegotiateRequest,
    deadline: Instant,
    conn_id: u64,
) -> Reply {
    let t = &ctx.telemetry;
    let request = match build_request::<S>(&negotiate) {
        Ok(request) => request,
        Err(reply) => return reply,
    };
    // The negotiation must leave time to write the reply: a session
    // already at its deadline times out here rather than starting an
    // engine run it cannot answer.
    if Instant::now() >= deadline {
        return Reply::TimedOut {
            phase: Phase::Negotiate,
            partial_level: None,
        };
    }
    // Contended mode: park in the batching window and let one leader
    // allocate the whole batch jointly. Store chaos stays on the
    // per-session path — contended batches run the plain engine.
    if let Some(fairness) = ctx.config.fairness {
        return negotiate_batched(broker, ctx, fairness, negotiate, deadline, conn_id);
    }
    let start = Instant::now();
    let answer = negotiate_at(
        broker,
        &broker.registry(),
        &ctx.config,
        &negotiate,
        &request,
    );
    t.timing("server.phase.negotiate", start.elapsed());
    answer
}

/// Negotiates one request against one registry snapshot and answers
/// with that snapshot's epoch: the epoch the agreement was computed
/// under, whatever other sessions publish meanwhile. The plain and the
/// store-chaos modes differ only in the broker call they make.
fn negotiate_at<S: WireSemiring>(
    broker: &Broker<S>,
    registry: &RegistrySnapshot,
    config: &ServerConfig,
    negotiate: &NegotiateRequest,
    request: &NegotiationRequest<S>,
) -> Reply {
    let epoch = registry.epoch();
    let variable = &negotiate.variable;
    let answer = match config.store_chaos {
        None => broker
            .negotiate_at(registry, request, S::translate)
            .map(|sla| agreement(sla, variable, epoch, None)),
        Some(store_chaos) => {
            let chaos = ChaosConfig::<S> {
                seed: store_chaos.seed,
                fault_rate: store_chaos.fault_rate,
                session_deadline: Some(config.negotiation_deadline_steps),
                ..ChaosConfig::default()
            };
            broker
                .negotiate_resilient_at(registry, request, &[], &chaos, S::translate)
                .map(|report| {
                    let recovered = report.retries
                        + report.rollbacks
                        + report.relaxations_applied
                        + report.faults_injected;
                    let recovery = (recovered > 0)
                        .then_some((report.retries as u64, report.relaxations_applied as u64));
                    match report.sla {
                        Some(sla) => agreement(sla, variable, epoch, recovery),
                        None => no_survivor(&report, &negotiate.capability),
                    }
                })
        }
    };
    answer.unwrap_or_else(|e| negotiation_error(&e))
}

/// The reply for a concluded agreement: `Bound`, or `Degraded` when
/// `recovery` holds the `(retries, relaxations)` spent reaching it.
fn agreement<S: WireSemiring>(
    sla: Sla<S>,
    variable: &str,
    epoch: u64,
    recovery: Option<(u64, u64)>,
) -> Reply {
    let service = sla.service.as_str().to_string();
    let provider = sla.provider.as_str().to_string();
    let level = S::render_level(&sla.agreed_level);
    let binding = sla
        .binding
        .and_then(|(eta, _)| eta.get(&variable.into())?.as_int());
    match recovery {
        None => Reply::Bound {
            service,
            provider,
            level,
            binding,
            epoch,
        },
        Some((retries, relaxations)) => Reply::Degraded {
            service,
            provider,
            level,
            binding,
            epoch,
            retries,
            relaxations,
        },
    }
}

/// The reply for a chaos negotiation no session survived: if any
/// provider session hit the step deadline, this is a negotiation
/// timeout — report the best checkpointed partial level the rollback
/// machinery kept.
fn no_survivor<S: WireSemiring>(report: &ChaosReport<S>, capability: &str) -> Reply {
    let partial = report
        .sessions
        .iter()
        .filter(|(_, r)| matches!(r.report.outcome, Outcome::DeadlineExceeded { .. }))
        .map(|(_, r)| S::render_level(&r.final_consistency))
        .fold(None::<f64>, |best, level| {
            Some(best.map_or(level, |b| b.max(level)))
        });
    match partial {
        Some(level) => Reply::TimedOut {
            phase: Phase::Negotiate,
            partial_level: Some(level),
        },
        None => negotiation_error(&NegotiationError::NoAgreement(capability.to_string())),
    }
}

/// The contended path: parks the request in the batching window,
/// waits for a leader's verdict, and — when elected leader — solves
/// the closed window jointly and publishes everyone's replies.
fn negotiate_batched<S: WireSemiring>(
    broker: &mut Broker<S>,
    ctx: &SessionContext,
    fairness: Fairness,
    negotiate: NegotiateRequest,
    deadline: Instant,
    conn_id: u64,
) -> Reply {
    let t = &ctx.telemetry;
    // Anonymous clients fall back to a per-connection identity: still
    // fair within the batch, but without cross-batch starvation
    // tracking (a new connection is a new client to the ledger).
    let client = negotiate
        .client
        .clone()
        .unwrap_or_else(|| format!("conn-{conn_id}"));
    let ticket = ctx.batcher.submit(client, negotiate);
    loop {
        match ctx.batcher.await_turn(ticket, deadline) {
            Turn::Reply(reply) => return reply,
            Turn::Deadline => {
                return Reply::TimedOut {
                    phase: Phase::Negotiate,
                    partial_level: None,
                }
            }
            Turn::Lead(batch) => {
                t.incr("server.batch.led");
                t.gauge("server.batch.size", batch.len() as i64);
                let start = Instant::now();
                let results = solve_batch(broker, fairness, batch);
                t.timing("server.phase.negotiate", start.elapsed());
                ctx.batcher.publish(results);
                // Loop: our own reply is now published (or arrives
                // with a later batch if our entry was invalid-free).
            }
        }
    }
}

/// Solves one closed window: invalid entries get their own typed
/// errors, the rest are allocated jointly against a single registry
/// epoch.
fn solve_batch<S: WireSemiring>(
    broker: &Broker<S>,
    fairness: Fairness,
    batch: Vec<BatchEntry>,
) -> Vec<(u64, Reply)> {
    let mut results = Vec::with_capacity(batch.len());
    let mut admitted: Vec<(u64, NegotiateRequest)> = Vec::new();
    let mut contended: Vec<ContendedRequest<S>> = Vec::new();
    for entry in batch {
        match build_request::<S>(&entry.request) {
            Err(reply) => results.push((entry.ticket, reply)),
            Ok(request) => {
                contended.push(ContendedRequest {
                    client: entry.client,
                    request,
                });
                admitted.push((entry.ticket, entry.request));
            }
        }
    }
    if contended.is_empty() {
        return results;
    }
    let allocation = broker.negotiate_contended(&contended, fairness, S::translate);
    let epoch = allocation.epoch;
    for ((ticket, wire), (_, outcome)) in admitted.iter().zip(allocation.outcomes) {
        let reply = match outcome {
            ContentionOutcome::Granted(sla) => agreement(sla, &wire.variable, epoch, None),
            ContentionOutcome::Preempted => Reply::Preempted {
                epoch,
                objective: fairness.as_str().to_string(),
            },
            ContentionOutcome::Waitlisted { age } => Reply::Waitlisted { epoch, age },
            ContentionOutcome::Unserved => {
                negotiation_error(&NegotiationError::NoAgreement(wire.capability.clone()))
            }
        };
        results.push((*ticket, reply));
    }
    results
}

fn negotiation_error(error: &NegotiationError) -> Reply {
    let (code, detail) = match error {
        NegotiationError::NoProvider(capability) => (
            ErrorCode::NoProvider,
            format!("no provider offers `{capability}`"),
        ),
        NegotiationError::NoAgreement(capability) => (
            ErrorCode::NoAgreement,
            format!("no provider agreed for `{capability}`"),
        ),
        NegotiationError::InvalidAcceptance(capability) => (
            ErrorCode::InvalidAcceptance,
            format!("contradictory acceptance interval for `{capability}`"),
        ),
        other => (ErrorCode::Internal, other.to_string()),
    };
    Reply::Error { code, detail }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::StoreChaos;
    use crate::{OfferShape, QosDocument, QosOffer, Registry};
    use softsoa_dependability::Attribute;
    use softsoa_semiring::Fuzzy;

    fn provider(id: &str, level: f64) -> ServiceDescription {
        ServiceDescription::new(
            id,
            "acme",
            "compute",
            QosDocument::new(id).with_offer(QosOffer {
                attribute: Attribute::Reliability,
                variable: "x".into(),
                shape: OfferShape::Constant { level },
            }),
        )
    }

    /// A publish between the snapshot and the reply must not leak into
    /// the reply: the agreement and its epoch both come from the
    /// snapshot the negotiation ran against, on both engines.
    #[test]
    fn a_reply_names_the_epoch_it_was_negotiated_under() {
        let wire = NegotiateRequest {
            capability: "compute".into(),
            variable: "x".into(),
            domain: [0, 4],
            policy: OfferShape::Constant { level: 1.0 },
            accept: [0.1, 1.0],
            client: None,
        };
        let request = build_request::<Fuzzy>(&wire).unwrap();
        let calm = StoreChaos {
            seed: 7,
            fault_rate: 0.0,
        };
        for store_chaos in [None, Some(calm)] {
            let config = ServerConfig {
                store_chaos,
                ..ServerConfig::default()
            };
            let mut registry = Registry::new();
            registry.publish(provider("svc-weak", 0.4));
            let mut broker = Broker::new(Fuzzy, registry);
            let old = broker.registry();
            broker.registry_mut().publish(provider("svc-strong", 0.9));

            // What the client reads off the wire: a `bound` reply naming
            // the service and the epoch.
            let bound_to = |reply: Reply, service: &str, epoch: u64| {
                let json = reply.to_json();
                reply.outcome_label() == "bound"
                    && json.contains(&format!("\"service\":\"{service}\""))
                    && json.contains(&format!("\"epoch\":{epoch}"))
            };
            let reply = negotiate_at(&broker, &old, &config, &wire, &request);
            assert!(bound_to(reply, "svc-weak", 0), "{store_chaos:?}");
            let reply = negotiate_at(&broker, &broker.registry(), &config, &wire, &request);
            assert!(bound_to(reply, "svc-strong", 1), "{store_chaos:?}");
        }
    }
}
