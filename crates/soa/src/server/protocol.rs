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

use serde::de::typed;
use serde::Deserialize;

use crate::qos::{OfferShape, QosOffer};
use crate::server::codec::{self, fields, ObjWriter};

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
        // The request fields read as plain values; `domain` is read as
        // its own table, and `policy` and `offer` by their derived
        // `Deserialize`, keeping a type error until the frame is read.
        let mut fields = fields!(
            "op",
            "capability",
            "variable",
            "accept_lo",
            "accept_hi",
            "client",
            "service",
            "provider",
            "capacity",
        );
        let mut domain = None;
        let mut policy = None;
        let mut offer = None;
        serde_json::read(frame, |r| {
            r.object(|r, key| match key {
                "domain" if domain.is_none() => {
                    let mut bounds = fields!("min", "max");
                    r.object(|r, key| bounds.read(r, key))?;
                    domain = Some(bounds);
                    Ok(())
                }
                "policy" if policy.is_none() => {
                    policy = Some(typed(OfferShape::deserialize(r))?);
                    Ok(())
                }
                "offer" if offer.is_none() => {
                    offer = Some(typed(QosOffer::deserialize(r))?);
                    Ok(())
                }
                _ => fields.read(r, key),
            })
            .map(drop)
        })
        .map_err(|e| e.to_string())?;
        let op = fields.str("op")?;
        match &*op {
            "ping" => Ok(Request::Ping),
            "negotiate" => {
                let mut domain = domain.ok_or("missing field `domain`")?;
                let policy = policy.ok_or("missing field `policy`")?;
                Ok(Request::Negotiate(NegotiateRequest {
                    capability: fields.string("capability")?,
                    variable: fields.string("variable")?,
                    domain: [domain.i64("min")?, domain.i64("max")?],
                    policy: policy.map_err(|e| e.to_string())?,
                    accept: [fields.f64("accept_lo")?, fields.f64("accept_hi")?],
                    client: fields.opt_string("client")?,
                }))
            }
            "publish" => {
                let offer = offer.ok_or("missing field `offer`")?;
                Ok(Request::Publish(PublishRequest {
                    service: fields.string("service")?,
                    provider: fields.string("provider")?,
                    capability: fields.string("capability")?,
                    offer: offer.map_err(|e| e.to_string())?,
                    capacity: fields.opt_u32("capacity")?,
                }))
            }
            "deregister" => Ok(Request::Deregister {
                service: fields.string("service")?,
            }),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Renders the request as one JSON frame payload.
    pub fn to_json(&self) -> String {
        codec::render(|obj| match self {
            Request::Ping => {
                obj.field("op", "ping");
            }
            Request::Negotiate(n) => {
                obj.field("op", "negotiate")
                    .field("capability", &n.capability)
                    .field("variable", &n.variable);
                let mut domain = ObjWriter::open(obj.key("domain"));
                domain.field("min", &n.domain[0]).field("max", &n.domain[1]);
                domain.close();
                obj.field("policy", &n.policy)
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

// ---- replies ---------------------------------------------------------

/// Why admission control refused a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The accept queue (or in-flight budget) is full.
    Overloaded,
    /// The server is draining towards shutdown.
    Draining,
}

impl ShedReason {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ShedReason::Overloaded => "overloaded",
            ShedReason::Draining => "draining",
        }
    }
}

/// Which phase a deadline fired in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// The wire/metric label of the phase.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

impl ErrorCode {
    fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::TruncatedFrame => "truncated-frame",
            ErrorCode::OversizedFrame => "oversized-frame",
            ErrorCode::NoProvider => "no-provider",
            ErrorCode::NoAgreement => "no-agreement",
            ErrorCode::InvalidAcceptance => "invalid-acceptance",
            ErrorCode::Internal => "internal",
        }
    }

    fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "bad-request" => ErrorCode::BadRequest,
            "truncated-frame" => ErrorCode::TruncatedFrame,
            "oversized-frame" => ErrorCode::OversizedFrame,
            "no-provider" => ErrorCode::NoProvider,
            "no-agreement" => ErrorCode::NoAgreement,
            "invalid-acceptance" => ErrorCode::InvalidAcceptance,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
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
        codec::render(|obj| {
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
                    obj.field("reason", reason.as_str());
                }
                Reply::TimedOut {
                    phase,
                    partial_level,
                } => {
                    obj.field("phase", phase.as_str())
                        .field("partial_level", partial_level);
                }
                Reply::Error { code, detail } => {
                    obj.field("code", code.as_str()).field("detail", detail);
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
        let mut f = fields!(
            "outcome",
            "service",
            "provider",
            "level",
            "binding",
            "epoch",
            "retries",
            "relaxations",
            "reason",
            "phase",
            "partial_level",
            "code",
            "detail",
            "existed",
            "objective",
            "age",
        );
        serde_json::read(frame, |r| r.object(|r, key| f.read(r, key)).map(drop))
            .map_err(|e| e.to_string())?;
        let outcome = f.str("outcome")?;
        match &*outcome {
            "bound" => Ok(Reply::Bound {
                service: f.string("service")?,
                provider: f.string("provider")?,
                level: f.f64("level")?,
                binding: f.opt_i64("binding")?,
                epoch: f.u64("epoch")?,
            }),
            "degraded" => Ok(Reply::Degraded {
                service: f.string("service")?,
                provider: f.string("provider")?,
                level: f.f64("level")?,
                binding: f.opt_i64("binding")?,
                epoch: f.u64("epoch")?,
                retries: f.u64("retries")?,
                relaxations: f.u64("relaxations")?,
            }),
            "shed" => Ok(Reply::Shed {
                reason: match &*f.str("reason")? {
                    "overloaded" => ShedReason::Overloaded,
                    "draining" => ShedReason::Draining,
                    other => return Err(format!("unknown shed reason `{other}`")),
                },
            }),
            "timed-out" => Ok(Reply::TimedOut {
                phase: match &*f.str("phase")? {
                    "read" => Phase::Read,
                    "negotiate" => Phase::Negotiate,
                    "write" => Phase::Write,
                    "session" => Phase::Session,
                    other => return Err(format!("unknown phase `{other}`")),
                },
                partial_level: f.opt_f64("partial_level")?,
            }),
            "error" => Ok(Reply::Error {
                code: ErrorCode::parse(&f.str("code")?).ok_or("unknown error code")?,
                detail: f.string("detail")?,
            }),
            "pong" => Ok(Reply::Pong {
                epoch: f.u64("epoch")?,
            }),
            "published" => Ok(Reply::Published {
                epoch: f.u64("epoch")?,
            }),
            "deregistered" => Ok(Reply::Deregistered {
                epoch: f.u64("epoch")?,
                existed: f.bool("existed")?,
            }),
            "preempted" => Ok(Reply::Preempted {
                epoch: f.u64("epoch")?,
                objective: f.string("objective")?,
            }),
            "waitlisted" => Ok(Reply::Waitlisted {
                epoch: f.u64("epoch")?,
                age: f.u64("age")?,
            }),
            other => Err(format!("unknown outcome `{other}`")),
        }
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
