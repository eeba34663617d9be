//! Differential suite of the daemon's wire codec.
//!
//! `Request` and `Reply` are written straight into one buffer and read
//! in one pass over the frame, their offer payloads by the serde shim's
//! derived impls. The [`oracle`] below is the codec they replace: it
//! renders a `serde::Value` tree and reads frames back through one,
//! with its own tree readers and writers of the offer types, written
//! out from the tree-based derive they were once read with. The
//! properties:
//!
//! - **Bytes** — every request and reply variant, over generated text
//!   (quotes, backslashes, control characters, non-ASCII) and numbers
//!   (`i64`/`u64` extremes, NaN, ±∞, arbitrary bit patterns), renders
//!   byte-identical to the oracle, and parses to the oracle's result.
//! - **Round trip** — with finite floats, parsing a rendering gives the
//!   value back.
//! - **Mutations** — a rendered frame with its keys reordered or
//!   duplicated, unknown or nested fields added, values of the wrong
//!   type swapped in, fields dropped, whitespace and escapes varied, or
//!   the text truncated or followed by trailing bytes, parses to exactly
//!   the oracle's `Ok` value or exactly its error message.

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use softsoa_dependability::Attribute;
use softsoa_soa::server::protocol::{
    ErrorCode, NegotiateRequest, Phase, PublishRequest, Reply, Request, ShedReason,
};
use softsoa_soa::{OfferShape, QosOffer};

/// The tree codec, as it rendered and read frames before the one-pass
/// codec.
mod oracle {
    use serde::Value;
    use softsoa_dependability::Attribute;
    use softsoa_soa::server::protocol::{
        ErrorCode, NegotiateRequest, Phase, PublishRequest, Reply, Request, ShedReason,
    };
    use softsoa_soa::{OfferShape, QosOffer};

    pub fn parse_request(frame: &str) -> Result<Request, String> {
        let value: Value = serde_json::from_str(frame).map_err(|e| e.to_string())?;
        let op = str_field(&value, "op")?;
        match op {
            "ping" => Ok(Request::Ping),
            "negotiate" => {
                let domain = value.get("domain").ok_or("missing field `domain`")?;
                let policy = value.get("policy").ok_or("missing field `policy`")?;
                Ok(Request::Negotiate(NegotiateRequest {
                    capability: str_field(&value, "capability")?.to_string(),
                    variable: str_field(&value, "variable")?.to_string(),
                    domain: [i64_field(domain, "min")?, i64_field(domain, "max")?],
                    policy: shape_from(policy)?,
                    accept: [
                        f64_field(&value, "accept_lo")?,
                        f64_field(&value, "accept_hi")?,
                    ],
                    client: opt_str_field(&value, "client")?,
                }))
            }
            "publish" => {
                let offer = value.get("offer").ok_or("missing field `offer`")?;
                Ok(Request::Publish(PublishRequest {
                    service: str_field(&value, "service")?.to_string(),
                    provider: str_field(&value, "provider")?.to_string(),
                    capability: str_field(&value, "capability")?.to_string(),
                    offer: offer_from(offer)?,
                    capacity: opt_u32_field(&value, "capacity")?,
                }))
            }
            "deregister" => Ok(Request::Deregister {
                service: str_field(&value, "service")?.to_string(),
            }),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    pub fn request_tree(request: &Request) -> Value {
        match request {
            Request::Ping => obj(vec![("op", Value::Str("ping".into()))]),
            Request::Negotiate(n) => obj(vec![
                ("op", Value::Str("negotiate".into())),
                ("capability", Value::Str(n.capability.clone())),
                ("variable", Value::Str(n.variable.clone())),
                (
                    "domain",
                    obj(vec![
                        ("min", Value::Int(n.domain[0])),
                        ("max", Value::Int(n.domain[1])),
                    ]),
                ),
                ("policy", shape_tree(&n.policy)),
                ("accept_lo", Value::Float(n.accept[0])),
                ("accept_hi", Value::Float(n.accept[1])),
                (
                    "client",
                    n.client
                        .as_ref()
                        .map_or(Value::Null, |c| Value::Str(c.clone())),
                ),
            ]),
            Request::Publish(p) => obj(vec![
                ("op", Value::Str("publish".into())),
                ("service", Value::Str(p.service.clone())),
                ("provider", Value::Str(p.provider.clone())),
                ("capability", Value::Str(p.capability.clone())),
                ("offer", offer_tree(&p.offer)),
                (
                    "capacity",
                    p.capacity
                        .map_or(Value::Null, |c| Value::UInt(u64::from(c))),
                ),
            ]),
            Request::Deregister { service } => obj(vec![
                ("op", Value::Str("deregister".into())),
                ("service", Value::Str(service.clone())),
            ]),
        }
    }

    pub fn request_to_json(request: &Request) -> String {
        serde_json::to_string(&request_tree(request)).expect("request values always serialize")
    }

    fn shed_reason(reason: ShedReason) -> &'static str {
        match reason {
            ShedReason::Overloaded => "overloaded",
            ShedReason::Draining => "draining",
        }
    }

    fn error_code(code: ErrorCode) -> &'static str {
        match code {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::TruncatedFrame => "truncated-frame",
            ErrorCode::OversizedFrame => "oversized-frame",
            ErrorCode::NoProvider => "no-provider",
            ErrorCode::NoAgreement => "no-agreement",
            ErrorCode::InvalidAcceptance => "invalid-acceptance",
            ErrorCode::Internal => "internal",
        }
    }

    fn parse_error_code(s: &str) -> Option<ErrorCode> {
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

    pub fn reply_tree(reply: &Reply) -> Value {
        let mut fields = vec![("outcome", Value::Str(reply.outcome_label().into()))];
        match reply {
            Reply::Bound {
                service,
                provider,
                level,
                binding,
                epoch,
            } => {
                fields.push(("service", Value::Str(service.clone())));
                fields.push(("provider", Value::Str(provider.clone())));
                fields.push(("level", Value::Float(*level)));
                fields.push(("binding", binding.map_or(Value::Null, Value::Int)));
                fields.push(("epoch", Value::UInt(*epoch)));
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
                fields.push(("service", Value::Str(service.clone())));
                fields.push(("provider", Value::Str(provider.clone())));
                fields.push(("level", Value::Float(*level)));
                fields.push(("binding", binding.map_or(Value::Null, Value::Int)));
                fields.push(("epoch", Value::UInt(*epoch)));
                fields.push(("retries", Value::UInt(*retries)));
                fields.push(("relaxations", Value::UInt(*relaxations)));
            }
            Reply::Shed { reason } => {
                fields.push(("reason", Value::Str(shed_reason(*reason).into())));
            }
            Reply::TimedOut {
                phase,
                partial_level,
            } => {
                fields.push(("phase", Value::Str(phase.as_str().into())));
                fields.push((
                    "partial_level",
                    partial_level.map_or(Value::Null, Value::Float),
                ));
            }
            Reply::Error { code, detail } => {
                fields.push(("code", Value::Str(error_code(*code).into())));
                fields.push(("detail", Value::Str(detail.clone())));
            }
            Reply::Pong { epoch } => {
                fields.push(("epoch", Value::UInt(*epoch)));
            }
            Reply::Published { epoch } => {
                fields.push(("epoch", Value::UInt(*epoch)));
            }
            Reply::Deregistered { epoch, existed } => {
                fields.push(("epoch", Value::UInt(*epoch)));
                fields.push(("existed", Value::Bool(*existed)));
            }
            Reply::Preempted { epoch, objective } => {
                fields.push(("epoch", Value::UInt(*epoch)));
                fields.push(("objective", Value::Str(objective.clone())));
            }
            Reply::Waitlisted { epoch, age } => {
                fields.push(("epoch", Value::UInt(*epoch)));
                fields.push(("age", Value::UInt(*age)));
            }
        }
        obj(fields)
    }

    pub fn reply_to_json(reply: &Reply) -> String {
        serde_json::to_string(&reply_tree(reply)).expect("reply values always serialize")
    }

    pub fn parse_reply(frame: &str) -> Result<Reply, String> {
        let value: Value = serde_json::from_str(frame).map_err(|e| e.to_string())?;
        let outcome = str_field(&value, "outcome")?;
        match outcome {
            "bound" => Ok(Reply::Bound {
                service: str_field(&value, "service")?.to_string(),
                provider: str_field(&value, "provider")?.to_string(),
                level: f64_field(&value, "level")?,
                binding: opt_i64_field(&value, "binding")?,
                epoch: u64_field(&value, "epoch")?,
            }),
            "degraded" => Ok(Reply::Degraded {
                service: str_field(&value, "service")?.to_string(),
                provider: str_field(&value, "provider")?.to_string(),
                level: f64_field(&value, "level")?,
                binding: opt_i64_field(&value, "binding")?,
                epoch: u64_field(&value, "epoch")?,
                retries: u64_field(&value, "retries")?,
                relaxations: u64_field(&value, "relaxations")?,
            }),
            "shed" => Ok(Reply::Shed {
                reason: match str_field(&value, "reason")? {
                    "overloaded" => ShedReason::Overloaded,
                    "draining" => ShedReason::Draining,
                    other => return Err(format!("unknown shed reason `{other}`")),
                },
            }),
            "timed-out" => Ok(Reply::TimedOut {
                phase: match str_field(&value, "phase")? {
                    "read" => Phase::Read,
                    "negotiate" => Phase::Negotiate,
                    "write" => Phase::Write,
                    "session" => Phase::Session,
                    other => return Err(format!("unknown phase `{other}`")),
                },
                partial_level: opt_f64_field(&value, "partial_level")?,
            }),
            "error" => Ok(Reply::Error {
                code: parse_error_code(str_field(&value, "code")?).ok_or("unknown error code")?,
                detail: str_field(&value, "detail")?.to_string(),
            }),
            "pong" => Ok(Reply::Pong {
                epoch: u64_field(&value, "epoch")?,
            }),
            "published" => Ok(Reply::Published {
                epoch: u64_field(&value, "epoch")?,
            }),
            "deregistered" => Ok(Reply::Deregistered {
                epoch: u64_field(&value, "epoch")?,
                existed: bool_field(&value, "existed")?,
            }),
            "preempted" => Ok(Reply::Preempted {
                epoch: u64_field(&value, "epoch")?,
                objective: str_field(&value, "objective")?.to_string(),
            }),
            "waitlisted" => Ok(Reply::Waitlisted {
                epoch: u64_field(&value, "epoch")?,
                age: u64_field(&value, "age")?,
            }),
            other => Err(format!("unknown outcome `{other}`")),
        }
    }

    fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn str_field<'v>(value: &'v Value, key: &str) -> Result<&'v str, String> {
        match value.get(key) {
            Some(Value::Str(s)) => Ok(s),
            Some(other) => Err(format!(
                "field `{key}`: expected string, got {}",
                other.kind()
            )),
            None => Err(format!("missing field `{key}`")),
        }
    }

    fn opt_str_field(value: &Value, key: &str) -> Result<Option<String>, String> {
        match value.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s.clone())),
            Some(other) => Err(format!(
                "field `{key}`: expected string or null, got {}",
                other.kind()
            )),
        }
    }

    fn opt_u32_field(value: &Value, key: &str) -> Result<Option<u32>, String> {
        match value.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(Value::Int(i)) => u32::try_from(*i)
                .map(Some)
                .map_err(|_| format!("field `{key}`: out of range")),
            Some(Value::UInt(u)) => u32::try_from(*u)
                .map(Some)
                .map_err(|_| format!("field `{key}`: out of range")),
            Some(other) => Err(format!(
                "field `{key}`: expected unsigned integer or null, got {}",
                other.kind()
            )),
        }
    }

    fn number(value: &Value) -> Option<f64> {
        match value {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    fn f64_field(value: &Value, key: &str) -> Result<f64, String> {
        value
            .get(key)
            .and_then(number)
            .ok_or_else(|| format!("field `{key}`: expected number"))
    }

    fn opt_f64_field(value: &Value, key: &str) -> Result<Option<f64>, String> {
        match value.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => number(v)
                .map(Some)
                .ok_or_else(|| format!("field `{key}`: expected number or null")),
        }
    }

    fn i64_field(value: &Value, key: &str) -> Result<i64, String> {
        match value.get(key) {
            Some(Value::Int(i)) => Ok(*i),
            Some(Value::UInt(u)) => {
                i64::try_from(*u).map_err(|_| format!("field `{key}`: overflow"))
            }
            _ => Err(format!("field `{key}`: expected integer")),
        }
    }

    fn opt_i64_field(value: &Value, key: &str) -> Result<Option<i64>, String> {
        match value.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(Value::Int(i)) => Ok(Some(*i)),
            Some(Value::UInt(u)) => i64::try_from(*u)
                .map(Some)
                .map_err(|_| format!("field `{key}`: overflow")),
            Some(other) => Err(format!(
                "field `{key}`: expected integer or null, got {}",
                other.kind()
            )),
        }
    }

    fn u64_field(value: &Value, key: &str) -> Result<u64, String> {
        match value.get(key) {
            Some(Value::Int(i)) => {
                u64::try_from(*i).map_err(|_| format!("field `{key}`: negative"))
            }
            Some(Value::UInt(u)) => Ok(*u),
            _ => Err(format!("field `{key}`: expected unsigned integer")),
        }
    }

    fn bool_field(value: &Value, key: &str) -> Result<bool, String> {
        match value.get(key) {
            Some(Value::Bool(b)) => Ok(*b),
            _ => Err(format!("field `{key}`: expected boolean")),
        }
    }

    // The offer types as the serde shim's derive rendered and read them
    // through a `Value` tree: externally tagged variants, fields in
    // declaration order, and the derive's error texts.

    fn shape_tree(shape: &OfferShape) -> Value {
        let (tag, fields) = match shape {
            OfferShape::Linear { slope, intercept } => (
                "Linear",
                vec![
                    ("slope", Value::Float(*slope)),
                    ("intercept", Value::Float(*intercept)),
                ],
            ),
            OfferShape::Piecewise { points } => {
                let points = points
                    .iter()
                    .map(|&(x, level)| Value::Arr(vec![Value::Int(x), Value::Float(level)]))
                    .collect();
                ("Piecewise", vec![("points", Value::Arr(points))])
            }
            OfferShape::Constant { level } => ("Constant", vec![("level", Value::Float(*level))]),
            OfferShape::Range { min, max } => (
                "Range",
                vec![("min", Value::Int(*min)), ("max", Value::Int(*max))],
            ),
        };
        obj(vec![(tag, obj(fields))])
    }

    fn offer_tree(offer: &QosOffer) -> Value {
        obj(vec![
            ("attribute", Value::Str(format!("{:?}", offer.attribute))),
            ("variable", Value::Str(offer.variable.clone())),
            ("shape", shape_tree(&offer.shape)),
        ])
    }

    fn expected(what: &str, found: &Value) -> String {
        format!("expected {what}, found {}", found.kind())
    }

    /// A derived field of `container`: its value's error names it, and
    /// an absent one (none of these fields is optional) is missing.
    fn derived<T>(
        value: &Value,
        key: &str,
        container: &str,
        read: impl FnOnce(&Value) -> Result<T, String>,
    ) -> Result<T, String> {
        match value.get(key) {
            Some(v) => read(v).map_err(|e| format!("{key}: {e}")),
            None => Err(format!("missing field `{key}` in {container}")),
        }
    }

    fn derived_f64(value: &Value) -> Result<f64, String> {
        number(value).ok_or_else(|| expected("number", value))
    }

    fn derived_i64(value: &Value) -> Result<i64, String> {
        match value {
            Value::Int(n) => Ok(*n),
            Value::UInt(n) => i64::try_from(*n).map_err(|_| "integer out of range".to_string()),
            Value::Float(f) if f.fract() == 0.0 => Ok(*f as i64),
            other => Err(expected("integer", other)),
        }
    }

    fn derived_points(value: &Value) -> Result<Vec<(i64, f64)>, String> {
        let Value::Arr(items) = value else {
            return Err(expected("array", value));
        };
        items
            .iter()
            .map(|item| match item {
                Value::Arr(pair) if pair.len() == 2 => {
                    Ok((derived_i64(&pair[0])?, derived_f64(&pair[1])?))
                }
                other => Err(expected("array of 2 elements", other)),
            })
            .collect()
    }

    /// An externally tagged value: a bare tag, or an object with one
    /// key whose payload `variant` reads.
    fn tagged<T>(
        value: &Value,
        container: &str,
        unit: impl FnOnce(&str) -> Option<T>,
        variant: impl FnOnce(&str, &Value) -> Option<Result<T, String>>,
    ) -> Result<T, String> {
        let unknown = |tag: &str| format!("unknown variant `{tag}` of {container}");
        match value {
            Value::Str(tag) => unit(tag).ok_or_else(|| unknown(tag)),
            Value::Obj(pairs) if pairs.len() == 1 => {
                let (tag, inner) = &pairs[0];
                variant(tag, inner).unwrap_or_else(|| Err(unknown(tag)))
            }
            other => Err(expected("variant name or single-key object", other)),
        }
    }

    fn shape_from(value: &Value) -> Result<OfferShape, String> {
        tagged(
            value,
            "OfferShape",
            |_| None,
            |tag, inner| {
                if !["Linear", "Piecewise", "Constant", "Range"].contains(&tag) {
                    return None;
                }
                if !matches!(inner, Value::Obj(_)) {
                    let what = format!("object payload for variant `{tag}`");
                    return Some(Err(expected(&what, inner)));
                }
                Some((|| {
                    let f64_field = |key| derived(inner, key, "OfferShape", derived_f64);
                    let i64_field = |key| derived(inner, key, "OfferShape", derived_i64);
                    Ok(match tag {
                        "Linear" => OfferShape::Linear {
                            slope: f64_field("slope")?,
                            intercept: f64_field("intercept")?,
                        },
                        "Piecewise" => OfferShape::Piecewise {
                            points: derived(inner, "points", "OfferShape", derived_points)?,
                        },
                        "Constant" => OfferShape::Constant {
                            level: f64_field("level")?,
                        },
                        _ => OfferShape::Range {
                            min: i64_field("min")?,
                            max: i64_field("max")?,
                        },
                    })
                })())
            },
        )
    }

    fn attribute_from(value: &Value) -> Result<Attribute, String> {
        tagged(
            value,
            "Attribute",
            |tag| Attribute::ALL.into_iter().find(|a| format!("{a:?}") == tag),
            |_, _| None,
        )
    }

    fn offer_from(value: &Value) -> Result<QosOffer, String> {
        if !matches!(value, Value::Obj(_)) {
            return Err(expected("object", value));
        }
        Ok(QosOffer {
            attribute: derived(value, "attribute", "QosOffer", attribute_from)?,
            variable: derived(value, "variable", "QosOffer", |v| match v {
                Value::Str(s) => Ok(s.clone()),
                other => Err(expected("string", other)),
            })?,
            shape: derived(value, "shape", "QosOffer", shape_from)?,
        })
    }
}

// ---- generators ------------------------------------------------------

/// Characters that stress the string writer and reader: escapes,
/// control characters, multi-byte and astral characters.
fn character() -> impl Strategy<Value = char> {
    prop_oneof![
        6 => (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
        1 => (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
        1 => prop_oneof![Just('"'), Just('\\'), Just('/'), Just('\u{7f}')],
        1 => prop_oneof![Just('é'), Just('λ'), Just('→'), Just('中'), Just('𝄞'), Just('\u{2028}')],
    ]
}

fn text() -> impl Strategy<Value = String> {
    vec(character(), 0..10).prop_map(|chars| chars.into_iter().collect())
}

fn float() -> BoxedStrategy<f64> {
    prop_oneof![
        3 => any::<f64>().prop_map(|f| 4.0 * f - 2.0),
        1 => any::<u64>().prop_map(f64::from_bits),
        1 => any::<i64>().prop_map(|i| i as f64),
        1 => prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::MAX),
            Just(f64::MIN_POSITIVE),
            Just(-0.0),
            Just(1.0),
            Just(1e21),
            Just(5e-324),
        ],
    ]
    .boxed()
}

fn finite_float() -> BoxedStrategy<f64> {
    float()
        .prop_map(|f| if f.is_finite() { f } else { 0.5 })
        .boxed()
}

fn int() -> impl Strategy<Value = i64> {
    prop_oneof![
        -20..20i64,
        any::<i64>(),
        prop_oneof![Just(i64::MIN), Just(i64::MAX)],
    ]
}

fn uint() -> impl Strategy<Value = u64> {
    prop_oneof![0..40u64, any::<u64>(), Just(u64::MAX)]
}

fn shape(float: BoxedStrategy<f64>) -> BoxedStrategy<OfferShape> {
    prop_oneof![
        (float.clone(), float.clone())
            .prop_map(|(slope, intercept)| OfferShape::Linear { slope, intercept }),
        vec((int(), float.clone()), 0..4).prop_map(|points| OfferShape::Piecewise { points }),
        float.prop_map(|level| OfferShape::Constant { level }),
        (int(), int()).prop_map(|(min, max)| OfferShape::Range { min, max }),
    ]
    .boxed()
}

fn request(float: BoxedStrategy<f64>) -> BoxedStrategy<Request> {
    let negotiate = (
        (text(), text()),
        (int(), int()),
        shape(float.clone()),
        (float.clone(), float.clone()),
        (any::<bool>(), text()),
    )
        .prop_map(
            |((capability, variable), (lo, hi), policy, (a, b), (c, client))| {
                Request::Negotiate(NegotiateRequest {
                    capability,
                    variable,
                    domain: [lo, hi],
                    policy,
                    accept: [a, b],
                    client: c.then_some(client),
                })
            },
        );
    let publish = (
        (text(), text(), text()),
        (0..6usize, text(), shape(float)),
        (any::<bool>(), any::<u32>()),
    )
        .prop_map(
            |((service, provider, capability), (a, variable, shape), (c, cap))| {
                Request::Publish(PublishRequest {
                    service,
                    provider,
                    capability,
                    offer: QosOffer {
                        attribute: Attribute::ALL[a],
                        variable,
                        shape,
                    },
                    capacity: c.then_some(cap),
                })
            },
        );
    prop_oneof![
        Just(Request::Ping),
        negotiate,
        publish,
        text().prop_map(|service| Request::Deregister { service }),
    ]
    .boxed()
}

fn reply(float: BoxedStrategy<f64>) -> BoxedStrategy<Reply> {
    let codes = [
        ErrorCode::BadRequest,
        ErrorCode::TruncatedFrame,
        ErrorCode::OversizedFrame,
        ErrorCode::NoProvider,
        ErrorCode::NoAgreement,
        ErrorCode::InvalidAcceptance,
        ErrorCode::Internal,
    ];
    let phases = [Phase::Read, Phase::Negotiate, Phase::Write, Phase::Session];
    let binding = (any::<bool>(), int())
        .prop_map(|(b, x)| b.then_some(x))
        .boxed();
    prop_oneof![
        (text(), text(), float.clone(), binding.clone(), uint()).prop_map(
            |(service, provider, level, binding, epoch)| Reply::Bound {
                service,
                provider,
                level,
                binding,
                epoch,
            }
        ),
        (
            (text(), text()),
            float.clone(),
            binding,
            (uint(), uint(), uint())
        )
            .prop_map(
                |((service, provider), level, binding, (epoch, retries, relaxations))| {
                    Reply::Degraded {
                        service,
                        provider,
                        level,
                        binding,
                        epoch,
                        retries,
                        relaxations,
                    }
                }
            ),
        any::<bool>().prop_map(|d| Reply::Shed {
            reason: if d {
                ShedReason::Draining
            } else {
                ShedReason::Overloaded
            },
        }),
        (0..4usize, any::<bool>(), float).prop_map(move |(p, some, level)| Reply::TimedOut {
            phase: phases[p],
            partial_level: some.then_some(level),
        }),
        (0..7usize, text()).prop_map(move |(c, detail)| Reply::Error {
            code: codes[c],
            detail,
        }),
        uint().prop_map(|epoch| Reply::Pong { epoch }),
        uint().prop_map(|epoch| Reply::Published { epoch }),
        (uint(), any::<bool>()).prop_map(|(epoch, existed)| Reply::Deregistered { epoch, existed }),
        (uint(), text()).prop_map(|(epoch, objective)| Reply::Preempted { epoch, objective }),
        (uint(), uint()).prop_map(|(epoch, age)| Reply::Waitlisted { epoch, age }),
    ]
    .boxed()
}

// ---- frame mutations -------------------------------------------------

/// Every key either codec reads, so mutations hit real fields.
const KEYS: [&str; 36] = [
    "op",
    "capability",
    "variable",
    "domain",
    "min",
    "max",
    "policy",
    "accept_lo",
    "accept_hi",
    "client",
    "service",
    "provider",
    "offer",
    "attribute",
    "shape",
    "capacity",
    "Linear",
    "Piecewise",
    "Constant",
    "Range",
    "slope",
    "intercept",
    "points",
    "level",
    "outcome",
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
];

/// Strings either codec matches on.
const WORDS: [&str; 16] = [
    "ping",
    "negotiate",
    "publish",
    "deregister",
    "bound",
    "degraded",
    "shed",
    "timed-out",
    "error",
    "waitlisted",
    "Reliability",
    "Linear",
    "Range",
    "draining",
    "read",
    "no-agreement",
];

fn key(rng: &mut StdRng) -> String {
    if rng.random_ratio(1, 6) {
        format!("x{}", rng.random_range(0..3u8))
    } else {
        KEYS[rng.random_range(0..KEYS.len())].to_string()
    }
}

/// A random value, biased towards the shapes the codecs expect (tagged
/// single-key objects, `[x, level]` pairs, integral floats).
fn random_value(rng: &mut StdRng, depth: u32) -> Value {
    let composite = if depth < 3 { 10 } else { 8 };
    match rng.random_range(0..composite) {
        0 => Value::Null,
        1 => Value::Bool(rng.random()),
        2 => Value::Int([0, 1, -1, 7, i64::MIN, i64::MAX][rng.random_range(0..6usize)]),
        3 => Value::UInt(
            [i64::MAX as u64 + 1, u64::MAX, u64::from(u32::MAX) + 1][rng.random_range(0..3usize)],
        ),
        4 => Value::Float([0.5, 1.0, -2.0, 1e300, 4e9][rng.random_range(0..5usize)]),
        5 | 6 => Value::Str(WORDS[rng.random_range(0..WORDS.len())].to_string()),
        7 => Value::Str(String::new()),
        8 => {
            let len = rng.random_range(0..4usize);
            Value::Arr((0..len).map(|_| random_value(rng, depth + 1)).collect())
        }
        _ => {
            let len = rng.random_range(0..3usize);
            Value::Obj(
                (0..len)
                    .map(|_| (key(rng), random_value(rng, depth + 1)))
                    .collect(),
            )
        }
    }
}

/// Applies one structural mutation somewhere in the tree.
fn mutate(value: &mut Value, rng: &mut StdRng) {
    // Descend into a random nested value now and then.
    let children: usize = match value {
        Value::Obj(pairs) => pairs.len(),
        Value::Arr(items) => items.len(),
        _ => 0,
    };
    if children > 0 && rng.random_ratio(1, 3) {
        let i = rng.random_range(0..children);
        match value {
            Value::Obj(pairs) => return mutate(&mut pairs[i].1, rng),
            Value::Arr(items) => return mutate(&mut items[i], rng),
            _ => unreachable!(),
        }
    }
    match value {
        Value::Obj(pairs) => match rng.random_range(0..6) {
            // Reorder.
            0 => {
                for i in (1..pairs.len()).rev() {
                    pairs.swap(i, rng.random_range(0..=i));
                }
            }
            // Duplicate a key with another value, before or after.
            1 if !pairs.is_empty() => {
                let i = rng.random_range(0..pairs.len());
                let k = pairs[i].0.clone();
                let at = rng.random_range(0..=pairs.len());
                pairs.insert(at, (k, random_value(rng, 1)));
            }
            // Drop a field.
            2 if !pairs.is_empty() => {
                pairs.remove(rng.random_range(0..pairs.len()));
            }
            // Replace a field's value (wrong type, nested value).
            3 if !pairs.is_empty() => {
                let i = rng.random_range(0..pairs.len());
                pairs[i].1 = random_value(rng, 1);
            }
            // An unknown or repeated field anywhere.
            _ => {
                let at = rng.random_range(0..=pairs.len());
                pairs.insert(at, (key(rng), random_value(rng, 0)));
            }
        },
        other => *other = random_value(rng, 1),
    }
}

/// Renders `value` as JSON with random whitespace, `\uXXXX` and `\/`
/// escapes and exponent notation, so the reader meets every spelling.
fn render(value: &Value, rng: &mut StdRng, out: &mut String) {
    let ws = |rng: &mut StdRng, out: &mut String| {
        if rng.random_ratio(1, 5) {
            out.push_str([" ", "\n", "\t ", "\r\n  "][rng.random_range(0..4usize)]);
        }
    };
    ws(rng, out);
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(f) if f.is_finite() && rng.random_ratio(1, 4) => {
            out.push_str(&format!("{f:e}"))
        }
        Value::Float(_) => serde_json::to_string(value)
            .map(|s| out.push_str(&s))
            .unwrap(),
        Value::Str(s) => render_str(s, rng, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Value::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                render_str(k, rng, out);
                ws(rng, out);
                out.push(':');
                render(v, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
    }
    ws(rng, out);
}

fn render_str(s: &str, rng: &mut StdRng, out: &mut String) {
    if !rng.random_ratio(1, 4) {
        serde_json::write_string(s, out);
        return;
    }
    out.push('"');
    for ch in s.chars() {
        let mut units = [0u16; 2];
        match ch {
            '/' => out.push_str("\\/"),
            c if rng.random_ratio(1, 3) => {
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
            c => {
                let mut one = String::new();
                serde_json::write_string(c.encode_utf8(&mut [0; 4]), &mut one);
                out.push_str(&one[1..one.len() - 1]);
            }
        }
    }
    out.push('"');
}

/// Breaks the text itself: truncation, trailing bytes, or a byte-level
/// edit.
fn break_text(text: &mut String, rng: &mut StdRng) {
    let boundaries: Vec<usize> = (0..=text.len())
        .filter(|&i| text.is_char_boundary(i))
        .collect();
    let at = boundaries[rng.random_range(0..boundaries.len())];
    match rng.random_range(0..4) {
        0 => text.truncate(at),
        1 => {
            let tail = [" ", "\n", "x", "}", "{}", "1", ",", "\"", "null", "[]"];
            text.push_str(tail[rng.random_range(0..tail.len())]);
        }
        2 => {
            let bytes = ["{", "}", "[", "]", ",", ":", "\"", "\\", "-", "0", "e", " "];
            text.insert_str(at, bytes[rng.random_range(0..bytes.len())]);
        }
        _ => {
            if let Some(&next) = boundaries.iter().find(|&&b| b > at) {
                text.replace_range(at..next, "");
            }
        }
    }
}

/// A mutated spelling of `tree`: structural edits, a random rendering,
/// and sometimes a broken text.
fn mutated(tree: &Value, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tree = tree.clone();
    for _ in 0..rng.random_range(0..4) {
        mutate(&mut tree, &mut rng);
    }
    let mut text = String::new();
    render(&tree, &mut rng, &mut text);
    if rng.random_ratio(1, 4) {
        break_text(&mut text, &mut rng);
    }
    text
}

/// Whether parsing a rendering can give the value back: a non-finite
/// float renders as `null`.
fn finite(tree: &Value) -> bool {
    match tree {
        Value::Float(f) => f.is_finite(),
        Value::Arr(items) => items.iter().all(finite),
        Value::Obj(pairs) => pairs.iter().all(|(_, v)| finite(v)),
        _ => true,
    }
}

// ---- properties ------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn requests_render_as_the_oracle_and_parse_alike(request in request(float())) {
        let json = request.to_json();
        prop_assert_eq!(&json, &oracle::request_to_json(&request));
        let parsed = Request::parse(&json);
        prop_assert_eq!(&parsed, &oracle::parse_request(&json), "{}", json);
        if finite(&oracle::request_tree(&request)) {
            prop_assert_eq!(parsed, Ok(request), "{}", json);
        }
    }

    #[test]
    fn replies_render_as_the_oracle_and_parse_alike(reply in reply(float())) {
        let json = reply.to_json();
        prop_assert_eq!(&json, &oracle::reply_to_json(&reply));
        prop_assert_eq!(reply.to_frame(), format!("{json}\n"));
        let parsed = Reply::parse(&json);
        prop_assert_eq!(&parsed, &oracle::parse_reply(&json), "{}", json);
        if finite(&oracle::reply_tree(&reply)) {
            prop_assert_eq!(parsed, Ok(reply), "{}", json);
        }
    }

    #[test]
    fn mutated_requests_parse_as_the_oracle(request in request(finite_float()), seed in any::<u64>()) {
        let text = mutated(&oracle::request_tree(&request), seed);
        prop_assert_eq!(Request::parse(&text), oracle::parse_request(&text), "{}", text);
    }

    #[test]
    fn mutated_replies_parse_as_the_oracle(reply in reply(finite_float()), seed in any::<u64>()) {
        let text = mutated(&oracle::reply_tree(&reply), seed);
        prop_assert_eq!(Reply::parse(&text), oracle::parse_reply(&text), "{}", text);
    }
}

// ---- pinned cases ----------------------------------------------------

/// Both codecs on one request frame: the same result, returned.
fn request_alike(frame: &str) -> Result<Request, String> {
    let parsed = Request::parse(frame);
    assert_eq!(parsed, oracle::parse_request(frame), "{frame}");
    parsed
}

const NEGOTIATE: &str = r#""op":"negotiate","capability":"c","variable":"x","policy":{"Constant":{"level":0.5}},"accept_lo":0.1"#;

#[test]
fn integer_and_float_typing_is_kept() {
    // A domain bound must be an integer token; `1.0` is a float.
    let min_float = format!(r#"{{{NEGOTIATE},"accept_hi":1,"domain":{{"min":1.0,"max":4}}}}"#);
    assert_eq!(
        request_alike(&min_float),
        Err("field `min`: expected integer".to_string())
    );
    // An integer token reads as a float level.
    let hi_int = format!(r#"{{{NEGOTIATE},"accept_hi":1,"domain":{{"min":1,"max":4}}}}"#);
    let Ok(Request::Negotiate(n)) = request_alike(&hi_int) else {
        panic!("a well-formed negotiate frame");
    };
    assert_eq!(n.accept, [0.1, 1.0]);
    // A `Range` shape reads integral floats, as its derive did.
    let range = r#"{"op":"negotiate","capability":"c","variable":"x","domain":{"min":0,"max":4},
        "policy":{"Range":{"min":1.0,"max":3}},"accept_lo":0,"accept_hi":1}"#;
    let Ok(Request::Negotiate(n)) = request_alike(range) else {
        panic!("a well-formed negotiate frame");
    };
    assert_eq!(n.policy, OfferShape::Range { min: 1, max: 3 });
}

#[test]
fn the_first_duplicate_wins_and_unknown_fields_are_ignored() {
    let frame = r#"{"op":"deregister","x":{"deep":[1,{"service":"no"}]},"service":"a","service":"b","op":"ping"}"#;
    assert_eq!(
        request_alike(frame),
        Ok(Request::Deregister {
            service: "a".into()
        })
    );
    let wrong_first = r#"{"op":"deregister","service":7,"service":"b"}"#;
    assert_eq!(
        request_alike(wrong_first),
        Err("field `service`: expected string, got number".to_string())
    );
}

#[test]
fn syntax_errors_win_over_field_errors() {
    // The missing `service` is a field error, the trailing garbage a
    // syntax error: the whole frame is validated first.
    assert!(request_alike(r#"{"op":"deregister"} x"#)
        .unwrap_err()
        .starts_with("trailing characters"));
    assert!(request_alike(r#"{"op":"warp","a":[1,}"#)
        .unwrap_err()
        .starts_with("unexpected character"));
    assert!(request_alike(r#"{"op":"deregister","service":"a""#).is_err());
}

#[test]
fn the_nesting_cap_applies_to_skipped_fields() {
    let deep = format!(
        r#"{{"op":"ping","x":{}{}}}"#,
        "[".repeat(200),
        "]".repeat(200)
    );
    assert!(request_alike(&deep)
        .unwrap_err()
        .starts_with("maximum nesting depth exceeded"));
    let shallow = format!(
        r#"{{"op":"ping","x":{}{}}}"#,
        "[".repeat(100),
        "]".repeat(100)
    );
    assert_eq!(request_alike(&shallow), Ok(Request::Ping));
}

#[test]
fn escaped_keys_and_values_read_as_plain_ones() {
    let frame = r#"{"op":"deregister","service":"a\/b\n𝄞"}"#;
    assert_eq!(
        request_alike(frame),
        Ok(Request::Deregister {
            service: "a/b\n𝄞".into()
        })
    );
}

#[test]
fn a_non_finite_level_renders_as_null() {
    let reply = Reply::TimedOut {
        phase: Phase::Negotiate,
        partial_level: Some(f64::NAN),
    };
    assert_eq!(
        reply.to_json(),
        r#"{"outcome":"timed-out","phase":"negotiate","partial_level":null}"#
    );
    assert_eq!(reply.to_json(), oracle::reply_to_json(&reply));
}

/// The mutations reach every kind of outcome: frames that still parse,
/// typed field errors and syntax errors (which name a byte offset).
#[test]
fn mutations_reach_every_outcome() {
    let request = Request::Negotiate(NegotiateRequest {
        capability: "compute".into(),
        variable: "x".into(),
        domain: [0, 6],
        policy: OfferShape::Piecewise {
            points: vec![(0, 0.5), (6, 1.0)],
        },
        accept: [0.2, 1.0],
        client: Some("tenant".into()),
    });
    let tree = oracle::request_tree(&request);
    let (mut ok, mut typed, mut syntax) = (0, 0, 0);
    for seed in 0..2000 {
        match request_alike(&mutated(&tree, seed)) {
            Ok(_) => ok += 1,
            Err(e) if e.contains(" at byte ") => syntax += 1,
            Err(_) => typed += 1,
        }
    }
    for (outcome, count) in [("ok", ok), ("typed", typed), ("syntax", syntax)] {
        assert!(count >= 100, "{outcome}: {count} of 2000");
    }
}
