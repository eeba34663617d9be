//! The daemon's wire protocol: line-JSON requests and typed replies.
//!
//! Every client interaction is one request frame answered by exactly
//! one reply frame. Replies are *total*: whatever happens to a session
//! — agreement, degradation, shed, timeout, malformed input — the
//! client receives a typed outcome before the connection closes, never
//! a silent hang. The reply vocabulary mirrors the dependability
//! story: `bound` (a clean agreement), `degraded` (an agreement that
//! needed the PR 3 recovery machinery — retries, rollbacks or
//! relaxation rungs), `shed` (admission control refused the session),
//! `timed-out` (a deadline fired; the partial store's checkpointed
//! consistency level rides along) and `error` (typed rejection).
//!
//! Levels travel as plain numbers; [`WireSemiring`] (the QoS level
//! bridge of the `qos` module, re-exported here) reads and renders them for the
//! semiring the daemon negotiates over, so one server implementation
//! serves fuzzy, weighted and probabilistic deployments.
//!
//! Frames are written straight into one buffer and read in one pass
//! over the text, with no `serde::Value` tree between. Every value is
//! written by its `serde::Serialize` impl, so a frame's bytes are
//! exactly what the serde shim writes (a non-finite float renders as
//! `null`). A frame is read by the derived `Deserialize` of a private
//! frame struct that holds every envelope key, so the envelope and its
//! payloads (`OfferShape`, `QosOffer`) read by one rule, the one every
//! CLI document reads by: the first occurrence of a key wins, unknown
//! keys are skipped, a number reads by its field's type (`1.0` is an
//! integer, `1.5` is not), a type error names its field, and a syntax
//! error anywhere in the frame wins over it. The op or outcome then
//! names the keys it needs.

use serde::{Deserialize, Serialize};

use crate::qos::{OfferShape, QosOffer};

pub use crate::qos::WireSemiring;

// ---- requests --------------------------------------------------------

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with the current registry epoch.
    Ping,
    /// Drive one discovery → negotiation → binding session.
    Negotiate(NegotiateRequest),
    /// Publish (or replace) a provider in the registry.
    Publish(PublishRequest),
    /// Remove a provider from the registry.
    Deregister {
        /// The service id to remove.
        service: String,
    },
}

/// The negotiation parameters a client sends.
#[derive(Debug, Clone, PartialEq)]
pub struct NegotiateRequest {
    /// The capability to discover providers for.
    pub capability: String,
    /// The negotiation variable.
    pub variable: String,
    /// Inclusive integer domain bounds for the variable.
    pub domain: [i64; 2],
    /// The client's policy over the variable.
    pub policy: OfferShape,
    /// Acceptance interval `[lo, hi]` as wire levels.
    pub accept: [f64; 2],
    /// A stable client identity for fair contended allocation; absent
    /// identities fall back to a per-connection id, losing cross-batch
    /// starvation tracking.
    pub client: Option<String>,
}

/// A provider publication.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishRequest {
    /// The service id.
    pub service: String,
    /// The owning provider id.
    pub provider: String,
    /// The capability the service offers.
    pub capability: String,
    /// The QoS offer backing negotiations.
    pub offer: QosOffer,
    /// Declared concurrent-binding capacity (`None` = unlimited).
    pub capacity: Option<u32>,
}

impl Request {
    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// A human-readable reason (surfaced to the client as a
    /// `bad-request` reply).
    pub fn parse(frame: &str) -> Result<Request, String> {
        let f: RequestFrame = serde_json::from_str(frame).map_err(|e| e.to_string())?;
        Ok(match required(f.op, "op")? {
            Op::Ping => Request::Ping,
            Op::Negotiate => {
                let domain = required(f.domain, "domain")?;
                Request::Negotiate(NegotiateRequest {
                    capability: required(f.capability, "capability")?,
                    variable: required(f.variable, "variable")?,
                    domain: [domain.min, domain.max],
                    policy: required(f.policy, "policy")?,
                    accept: [
                        required(f.accept_lo, "accept_lo")?,
                        required(f.accept_hi, "accept_hi")?,
                    ],
                    client: f.client,
                })
            }
            Op::Publish => Request::Publish(PublishRequest {
                service: required(f.service, "service")?,
                provider: required(f.provider, "provider")?,
                capability: required(f.capability, "capability")?,
                offer: required(f.offer, "offer")?,
                capacity: f.capacity,
            }),
            Op::Deregister => Request::Deregister {
                service: required(f.service, "service")?,
            },
        })
    }

    /// Renders the request as one JSON frame payload.
    pub fn to_json(&self) -> String {
        render(|obj| match self {
            Request::Ping => {
                obj.field("op", "ping");
            }
            Request::Negotiate(n) => {
                obj.field("op", "negotiate")
                    .field("capability", &n.capability)
                    .field("variable", &n.variable)
                    .field(
                        "domain",
                        &Domain {
                            min: n.domain[0],
                            max: n.domain[1],
                        },
                    )
                    .field("policy", &n.policy)
                    .field("accept_lo", &n.accept[0])
                    .field("accept_hi", &n.accept[1])
                    .field("client", &n.client);
            }
            Request::Publish(p) => {
                obj.field("op", "publish")
                    .field("service", &p.service)
                    .field("provider", &p.provider)
                    .field("capability", &p.capability)
                    .field("offer", &p.offer)
                    .field("capacity", &p.capacity);
            }
            Request::Deregister { service } => {
                obj.field("op", "deregister").field("service", service);
            }
        })
    }
}

/// A request frame as its derived `Deserialize` reads it: every key of
/// every op, each read by its type's rules, and absent (or `null`) as
/// `None` until [`Request::parse`] asks the op for its keys.
#[derive(Deserialize)]
struct RequestFrame {
    op: Option<Op>,
    capability: Option<String>,
    variable: Option<String>,
    domain: Option<Domain>,
    policy: Option<OfferShape>,
    accept_lo: Option<f64>,
    accept_hi: Option<f64>,
    client: Option<String>,
    service: Option<String>,
    provider: Option<String>,
    offer: Option<QosOffer>,
    capacity: Option<u32>,
}

#[derive(Deserialize)]
#[serde(rename_all = "kebab-case")]
enum Op {
    Ping,
    Negotiate,
    Publish,
    Deregister,
}

/// The `domain` object of a negotiate frame.
#[derive(Serialize, Deserialize)]
struct Domain {
    min: i64,
    max: i64,
}

// ---- replies ---------------------------------------------------------

/// Why admission control refused a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum ShedReason {
    /// The accept queue (or in-flight budget) is full.
    Overloaded,
    /// The server is draining towards shutdown.
    Draining,
}

impl ShedReason {
    /// The metric label of the reason.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ShedReason::Overloaded => "overloaded",
            ShedReason::Draining => "draining",
        }
    }
}

/// Which phase a deadline fired in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum Phase {
    /// Waiting for (or mid-way through) a request frame.
    Read,
    /// Driving the negotiation engine.
    Negotiate,
    /// Writing the reply.
    Write,
    /// The whole-session deadline, between requests.
    Session,
}

impl Phase {
    /// The metric label of the phase.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Read => "read",
            Phase::Negotiate => "negotiate",
            Phase::Write => "write",
            Phase::Session => "session",
        }
    }
}

/// A typed request rejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum ErrorCode {
    /// The frame was not a well-formed request.
    BadRequest,
    /// The peer closed mid-frame.
    TruncatedFrame,
    /// The frame exceeded the configured limit.
    OversizedFrame,
    /// Discovery found no provider for the capability.
    NoProvider,
    /// Every provider session failed to agree.
    NoAgreement,
    /// The acceptance interval is contradictory.
    InvalidAcceptance,
    /// An internal engine failure.
    Internal,
}

/// One reply frame: the typed outcome of a request.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A clean agreement.
    Bound {
        /// The winning service.
        service: String,
        /// Its provider.
        provider: String,
        /// The agreed level as a wire number.
        level: f64,
        /// The bound value of the negotiation variable, if any.
        binding: Option<i64>,
        /// The registry epoch the agreement was computed under.
        epoch: u64,
    },
    /// An agreement that needed recovery (retries, rollbacks or
    /// relaxation rungs) to survive injected faults.
    Degraded {
        /// The winning service.
        service: String,
        /// Its provider.
        provider: String,
        /// The agreed level as a wire number.
        level: f64,
        /// The bound value of the negotiation variable, if any.
        binding: Option<i64>,
        /// The registry epoch the agreement was computed under.
        epoch: u64,
        /// Total retries spent across provider sessions.
        retries: u64,
        /// Total relaxation rungs consumed.
        relaxations: u64,
    },
    /// Admission control refused the session.
    Shed {
        /// Why the session was refused.
        reason: ShedReason,
    },
    /// A deadline fired.
    TimedOut {
        /// The phase the deadline fired in.
        phase: Phase,
        /// The checkpointed consistency level of the partial store,
        /// when a negotiation was cut off mid-way.
        partial_level: Option<f64>,
    },
    /// A typed rejection.
    Error {
        /// The rejection code.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Liveness answer.
    Pong {
        /// The current registry epoch.
        epoch: u64,
    },
    /// A publication was accepted.
    Published {
        /// The epoch the publication created.
        epoch: u64,
    },
    /// A deregistration was processed.
    Deregistered {
        /// The epoch the removal created.
        epoch: u64,
        /// Whether the service existed.
        existed: bool,
    },
    /// The joint allocator left this client unbound even though plain
    /// FCFS would have granted it: a fairness objective awarded the
    /// contested slot elsewhere this round.
    Preempted {
        /// The registry epoch the joint allocation was computed under.
        epoch: u64,
        /// The fairness objective that arbitrated the batch.
        objective: String,
    },
    /// Capacity ran out before this client under every candidate
    /// provider; its starvation age is tracked and prioritised in the
    /// next contended batch.
    Waitlisted {
        /// The registry epoch the joint allocation was computed under.
        epoch: u64,
        /// Contended rounds this client has waited since it last won a
        /// grant (allocation pressure, fed to leximin priority).
        age: u64,
    },
}

impl Reply {
    /// The typed outcome label (the value of the `outcome` field, also
    /// used for metric labels and load-generator tallies).
    pub fn outcome_label(&self) -> &'static str {
        match self {
            Reply::Bound { .. } => "bound",
            Reply::Degraded { .. } => "degraded",
            Reply::Shed { .. } => "shed",
            Reply::TimedOut { .. } => "timed-out",
            Reply::Error { .. } => "error",
            Reply::Pong { .. } => "pong",
            Reply::Published { .. } => "published",
            Reply::Deregistered { .. } => "deregistered",
            Reply::Preempted { .. } => "preempted",
            Reply::Waitlisted { .. } => "waitlisted",
        }
    }

    /// Renders the reply as one JSON frame payload.
    pub fn to_json(&self) -> String {
        render(|obj| {
            obj.field("outcome", self.outcome_label());
            match self {
                Reply::Bound {
                    service,
                    provider,
                    level,
                    binding,
                    epoch,
                } => {
                    obj.field("service", service)
                        .field("provider", provider)
                        .field("level", level)
                        .field("binding", binding)
                        .field("epoch", epoch);
                }
                Reply::Degraded {
                    service,
                    provider,
                    level,
                    binding,
                    epoch,
                    retries,
                    relaxations,
                } => {
                    obj.field("service", service)
                        .field("provider", provider)
                        .field("level", level)
                        .field("binding", binding)
                        .field("epoch", epoch)
                        .field("retries", retries)
                        .field("relaxations", relaxations);
                }
                Reply::Shed { reason } => {
                    obj.field("reason", reason);
                }
                Reply::TimedOut {
                    phase,
                    partial_level,
                } => {
                    obj.field("phase", phase)
                        .field("partial_level", partial_level);
                }
                Reply::Error { code, detail } => {
                    obj.field("code", code).field("detail", detail);
                }
                Reply::Pong { epoch } | Reply::Published { epoch } => {
                    obj.field("epoch", epoch);
                }
                Reply::Deregistered { epoch, existed } => {
                    obj.field("epoch", epoch).field("existed", existed);
                }
                Reply::Preempted { epoch, objective } => {
                    obj.field("epoch", epoch).field("objective", objective);
                }
                Reply::Waitlisted { epoch, age } => {
                    obj.field("epoch", epoch).field("age", age);
                }
            }
        })
    }

    /// Renders the reply as one whole wire frame: the
    /// [`Reply::to_json`] payload and its `\n` terminator, in the one
    /// buffer the payload was rendered into.
    pub fn to_frame(&self) -> String {
        let mut frame = self.to_json();
        frame.push('\n');
        frame
    }

    /// Parses a reply frame (the load generator's half of the
    /// protocol).
    ///
    /// # Errors
    ///
    /// A human-readable reason for malformed frames.
    pub fn parse(frame: &str) -> Result<Reply, String> {
        let f: ReplyFrame = serde_json::from_str(frame).map_err(|e| e.to_string())?;
        Ok(match required(f.outcome, "outcome")? {
            Outcome::Bound => Reply::Bound {
                service: required(f.service, "service")?,
                provider: required(f.provider, "provider")?,
                level: required(f.level, "level")?,
                binding: f.binding,
                epoch: required(f.epoch, "epoch")?,
            },
            Outcome::Degraded => Reply::Degraded {
                service: required(f.service, "service")?,
                provider: required(f.provider, "provider")?,
                level: required(f.level, "level")?,
                binding: f.binding,
                epoch: required(f.epoch, "epoch")?,
                retries: required(f.retries, "retries")?,
                relaxations: required(f.relaxations, "relaxations")?,
            },
            Outcome::Shed => Reply::Shed {
                reason: required(f.reason, "reason")?,
            },
            Outcome::TimedOut => Reply::TimedOut {
                phase: required(f.phase, "phase")?,
                partial_level: f.partial_level,
            },
            Outcome::Error => Reply::Error {
                code: required(f.code, "code")?,
                detail: required(f.detail, "detail")?,
            },
            Outcome::Pong => Reply::Pong {
                epoch: required(f.epoch, "epoch")?,
            },
            Outcome::Published => Reply::Published {
                epoch: required(f.epoch, "epoch")?,
            },
            Outcome::Deregistered => Reply::Deregistered {
                epoch: required(f.epoch, "epoch")?,
                existed: required(f.existed, "existed")?,
            },
            Outcome::Preempted => Reply::Preempted {
                epoch: required(f.epoch, "epoch")?,
                objective: required(f.objective, "objective")?,
            },
            Outcome::Waitlisted => Reply::Waitlisted {
                epoch: required(f.epoch, "epoch")?,
                age: required(f.age, "age")?,
            },
        })
    }
}

/// A reply frame as its derived `Deserialize` reads it, as
/// [`RequestFrame`] reads a request.
#[derive(Deserialize)]
struct ReplyFrame {
    outcome: Option<Outcome>,
    service: Option<String>,
    provider: Option<String>,
    level: Option<f64>,
    binding: Option<i64>,
    epoch: Option<u64>,
    retries: Option<u64>,
    relaxations: Option<u64>,
    reason: Option<ShedReason>,
    phase: Option<Phase>,
    partial_level: Option<f64>,
    code: Option<ErrorCode>,
    detail: Option<String>,
    existed: Option<bool>,
    objective: Option<String>,
    age: Option<u64>,
}

#[derive(Deserialize)]
#[serde(rename_all = "kebab-case")]
enum Outcome {
    Bound,
    Degraded,
    Shed,
    TimedOut,
    Error,
    Pong,
    Published,
    Deregistered,
    Preempted,
    Waitlisted,
}

// ---- frames ----------------------------------------------------------

/// A key the frame's op or outcome needs.
fn required<T>(value: Option<T>, key: &str) -> Result<T, String> {
    value.ok_or_else(|| format!("missing field `{key}`"))
}

/// Room for a typical frame and its terminator, so that rendering one
/// allocates once; longer text grows the buffer.
const FRAME_CAPACITY: usize = 320;

/// Renders one JSON object frame payload: `write` writes its fields,
/// each through its `Serialize` impl.
fn render(write: impl FnOnce(&mut ObjWriter<'_>)) -> String {
    let mut out = String::with_capacity(FRAME_CAPACITY);
    out.push('{');
    write(&mut ObjWriter {
        out: &mut out,
        empty: true,
    });
    out.push('}');
    out
}

/// A JSON object written field by field into a buffer.
struct ObjWriter<'o> {
    out: &'o mut String,
    empty: bool,
}

impl ObjWriter<'_> {
    /// Writes the field `key` (a plain identifier: nothing to escape).
    fn field(&mut self, key: &str, value: &(impl Serialize + ?Sized)) -> &mut Self {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        value.serialize(self.out);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::Ping,
            Request::Negotiate(NegotiateRequest {
                capability: "compute".into(),
                variable: "x".into(),
                domain: [0, 9],
                policy: OfferShape::Linear {
                    slope: -0.1,
                    intercept: 1.0,
                },
                accept: [0.3, 1.0],
                client: None,
            }),
            Request::Negotiate(NegotiateRequest {
                capability: "compute".into(),
                variable: "x".into(),
                domain: [0, 4],
                policy: OfferShape::Constant { level: 0.7 },
                accept: [0.0, 1.0],
                client: Some("tenant-a".into()),
            }),
            Request::Publish(PublishRequest {
                service: "svc-9".into(),
                provider: "acme".into(),
                capability: "compute".into(),
                offer: QosOffer {
                    attribute: softsoa_dependability::Attribute::Reliability,
                    variable: "x".into(),
                    shape: OfferShape::Constant { level: 0.8 },
                },
                capacity: Some(2),
            }),
            Request::Deregister {
                service: "svc-1".into(),
            },
        ];
        for request in requests {
            let json = request.to_json();
            assert_eq!(Request::parse(&json).unwrap(), request, "{json}");
        }
    }

    #[test]
    fn replies_round_trip() {
        let replies = vec![
            Reply::Bound {
                service: "svc-1".into(),
                provider: "acme".into(),
                level: 0.5,
                binding: Some(5),
                epoch: 3,
            },
            Reply::Shed {
                reason: ShedReason::Overloaded,
            },
            Reply::TimedOut {
                phase: Phase::Negotiate,
                partial_level: Some(0.25),
            },
            Reply::Error {
                code: ErrorCode::NoAgreement,
                detail: "all sessions deadlocked".into(),
            },
            Reply::Pong { epoch: 0 },
            Reply::Preempted {
                epoch: 4,
                objective: "leximin".into(),
            },
            Reply::Waitlisted { epoch: 4, age: 2 },
        ];
        for reply in replies {
            let json = reply.to_json();
            assert_eq!(Reply::parse(&json).unwrap(), reply, "{json}");
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"op":"warp"}"#).is_err());
        assert!(Request::parse(r#"{"op":"negotiate"}"#).is_err());
    }
}
