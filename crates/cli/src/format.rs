//! JSON problem formats for the command-line suite.
//!
//! Three document kinds, all `serde`-backed:
//!
//! - [`ProblemSpec`] — an SCSP: semiring, domains, constraints, `con`;
//! - [`NegotiationSpec`] — an `nmsccp` scenario: named constraints and
//!   levels, the agent text, policy and fuel;
//! - [`CoalitionSpec`] — a trust matrix plus formation options.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};
use softsoa_core::{Constraint, Domain, Scsp, Val, Var};
use softsoa_semiring::{Fuzzy, Unit};
use softsoa_soa::{QosOffer, WireSemiring};

/// An error while reading or interpreting a specification.
#[derive(Debug)]
pub enum FormatError {
    /// The document is not valid JSON for the expected schema.
    Json(serde_json::Error),
    /// The document is schema-valid but semantically wrong.
    Invalid(String),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Json(e) => write!(f, "malformed document: {e}"),
            FormatError::Invalid(msg) => write!(f, "invalid specification: {msg}"),
        }
    }
}

impl std::error::Error for FormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FormatError::Json(e) => Some(e),
            FormatError::Invalid(_) => None,
        }
    }
}

impl From<serde_json::Error> for FormatError {
    fn from(e: serde_json::Error) -> FormatError {
        FormatError::Json(e)
    }
}

fn invalid(msg: impl Into<String>) -> FormatError {
    FormatError::Invalid(msg.into())
}

/// The semiring a document is valued in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum SemiringKind {
    /// `⟨ℝ⁺∪{∞}, min, +, ∞, 0⟩` — additive costs.
    Weighted,
    /// `⟨[0,1], max, min, 0, 1⟩` — fuzzy preference.
    Fuzzy,
    /// `⟨[0,1], max, ·, 0, 1⟩` — probabilities.
    Probabilistic,
    /// `⟨{0,1}, ∨, ∧, 0, 1⟩` — crisp.
    Boolean,
}

/// A variable domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum DomainSpec {
    /// An inclusive integer range `[lo, hi]`.
    Ints([i64; 2]),
    /// A stepped integer range `[lo, hi, step]`.
    Stepped([i64; 3]),
    /// Symbolic values.
    Syms(Vec<String>),
}

/// The largest domain a specification may materialise (number of
/// values). Domains are enumerated eagerly, so an unchecked
/// `{"ints": [0, 10000000000]}` would exhaust memory before the solver
/// ever ran.
pub const MAX_DOMAIN_SIZE: i64 = 1 << 20;

impl DomainSpec {
    /// Builds the concrete domain.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Invalid`] for empty or inverted ranges,
    /// or ranges spanning more than [`MAX_DOMAIN_SIZE`] values.
    pub fn to_domain(&self) -> Result<Domain, FormatError> {
        match self {
            DomainSpec::Ints([lo, hi]) => {
                if lo > hi {
                    return Err(invalid(format!("empty int range [{lo}, {hi}]")));
                }
                check_domain_size(*lo, *hi, 1)?;
                Ok(Domain::ints(*lo..=*hi))
            }
            DomainSpec::Stepped([lo, hi, step]) => {
                if *step <= 0 {
                    return Err(invalid("step must be positive"));
                }
                if lo > hi {
                    return Err(invalid(format!("empty int range [{lo}, {hi}]")));
                }
                check_domain_size(*lo, *hi, *step)?;
                Ok(Domain::ints_stepped(*lo, *hi, *step))
            }
            DomainSpec::Syms(names) => {
                if names.is_empty() {
                    return Err(invalid("empty symbolic domain"));
                }
                Ok(Domain::syms(names))
            }
        }
    }
}

fn check_domain_size(lo: i64, hi: i64, step: i64) -> Result<(), FormatError> {
    let size = hi
        .checked_sub(lo)
        .map(|span| span / step.max(1) + 1)
        .unwrap_or(i64::MAX);
    if size > MAX_DOMAIN_SIZE {
        return Err(invalid(format!(
            "domain [{lo}, {hi}] holds {size} values, more than the {MAX_DOMAIN_SIZE} limit"
        )));
    }
    Ok(())
}

/// A domain value in a table entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum ValSpec {
    /// An integer.
    Int(i64),
    /// A symbol.
    Sym(String),
}

impl ValSpec {
    fn to_val(&self) -> Val {
        match self {
            ValSpec::Int(n) => Val::Int(*n),
            ValSpec::Sym(s) => Val::sym(s),
        }
    }
}

/// A constraint definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum ConstraintSpec {
    /// An extensional table.
    Table {
        /// Scope variables, fixing entry tuple order.
        scope: Vec<String>,
        /// `(tuple, level)` rows.
        entries: Vec<(Vec<ValSpec>, f64)>,
        /// Level of unlisted tuples (defaults to the semiring zero).
        #[serde(default)]
        default: Option<f64>,
        /// Optional label for reports.
        #[serde(default)]
        label: Option<String>,
    },
    /// The paper's linear policies: `level = slope · var + intercept`.
    Linear {
        /// The single scope variable (must have an integer domain).
        var: String,
        /// Level change per unit.
        slope: f64,
        /// Level at zero.
        intercept: f64,
        /// Optional label for reports.
        #[serde(default)]
        label: Option<String>,
    },
}

impl ConstraintSpec {
    /// Builds the constraint over a concrete semiring, reading table
    /// levels strictly through [`WireSemiring::parse_level`] and a
    /// linear policy's levels leniently through [`WireSemiring::level`]
    /// (clamped or saturated into the carrier, as the same shape sent
    /// as an offer reads); a symbolic value reads as the semiring zero.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Invalid`] when a level is outside the
    /// semiring carrier or a table row is malformed.
    pub fn to_constraint<S: WireSemiring>(
        &self,
        semiring: S,
    ) -> Result<Constraint<S>, FormatError> {
        match self {
            ConstraintSpec::Table {
                scope,
                entries,
                default,
                label,
            } => {
                let vars: Vec<Var> = scope.iter().map(Var::new).collect();
                let mut rows = Vec::with_capacity(entries.len());
                for (tuple, raw) in entries {
                    if tuple.len() != vars.len() {
                        return Err(invalid(format!(
                            "table row arity {} does not match scope arity {}",
                            tuple.len(),
                            vars.len()
                        )));
                    }
                    let vals: Vec<Val> = tuple.iter().map(ValSpec::to_val).collect();
                    rows.push((vals, parse_level::<S>(*raw)?));
                }
                let default_level = match default {
                    Some(raw) => parse_level::<S>(*raw)?,
                    None => semiring.zero(),
                };
                let mut c = Constraint::table(semiring, &vars, rows, default_level);
                if let Some(label) = label {
                    c = c.with_label(label);
                }
                Ok(c)
            }
            ConstraintSpec::Linear {
                var,
                slope,
                intercept,
                label,
            } => {
                let (slope, intercept) = (*slope, *intercept);
                let zero = semiring.zero();
                let c = Constraint::unary(semiring, Var::new(var), move |v| match v.as_int() {
                    Some(x) => S::level(slope * x as f64 + intercept),
                    None => zero.clone(),
                });
                Ok(match label {
                    Some(label) => c.with_label(label),
                    None => c,
                })
            }
        }
    }
}

/// An SCSP document for `softsoa solve`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProblemSpec {
    /// The semiring of the problem.
    pub semiring: SemiringKind,
    /// Variable domains.
    pub domains: BTreeMap<String, DomainSpec>,
    /// The constraint set.
    pub constraints: Vec<ConstraintSpec>,
    /// The variables of interest.
    pub con: Vec<String>,
}

impl ProblemSpec {
    /// Parses a document from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Json`] on malformed input.
    pub fn from_json(text: &str) -> Result<ProblemSpec, FormatError> {
        Ok(serde_json::from_str(text)?)
    }

    /// Builds the problem over a concrete semiring.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Invalid`] on bad domains or levels.
    pub fn build<S: WireSemiring>(&self, semiring: S) -> Result<Scsp<S>, FormatError> {
        let mut problem = Scsp::new(semiring.clone());
        for (name, spec) in &self.domains {
            problem.add_domain(Var::new(name), spec.to_domain()?);
        }
        for spec in &self.constraints {
            problem.add_constraint(spec.to_constraint(semiring.clone())?);
        }
        Ok(problem.of_interest(self.con.iter().map(Var::new)))
    }
}

/// Reads an explicit document level strictly (see
/// [`WireSemiring::parse_level`]).
///
/// # Errors
///
/// Returns [`FormatError::Invalid`] for a level outside the carrier.
pub(crate) fn parse_level<S: WireSemiring>(raw: f64) -> Result<S::Value, FormatError> {
    S::parse_level(raw).map_err(FormatError::Invalid)
}

/// Scheduling policy for a negotiation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum PolicySpec {
    /// Left-most enabled transition.
    First,
    /// Fair rotation.
    RoundRobin,
    /// Seeded uniform choice.
    Random(u64),
}

/// An `nmsccp` negotiation document for `softsoa negotiate`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NegotiationSpec {
    /// The semiring of the store.
    pub semiring: SemiringKind,
    /// Variable domains.
    pub domains: BTreeMap<String, DomainSpec>,
    /// Named constraints referenced by the agent text.
    pub constraints: BTreeMap<String, ConstraintSpec>,
    /// Named threshold levels referenced by interval bounds.
    #[serde(default)]
    pub levels: BTreeMap<String, f64>,
    /// The agent, in the textual syntax of `softsoa-nmsccp` (may
    /// include clause declarations). Unused (and may be omitted) when
    /// a [`BrokerSpec`] section is present: the broker builds the
    /// client and provider agents itself.
    #[serde(default)]
    pub agent: String,
    /// The scheduling policy (defaults to `first`).
    #[serde(default = "default_policy")]
    pub policy: PolicySpec,
    /// The step budget (defaults to 10 000).
    #[serde(default = "default_fuel")]
    pub max_steps: usize,
    /// Relaxation ladder for chaos mode: names from `constraints`,
    /// retracted in order when a chaos run deadlocks or leaves its
    /// invariant (ignored outside chaos mode).
    #[serde(default)]
    pub relaxations: Vec<String>,
    /// Dependability invariant for chaos mode, as `[lower, upper]`
    /// threshold levels (the paper's C1–C4 interval; ignored outside
    /// chaos mode).
    #[serde(default)]
    pub invariant: Option<[f64; 2]>,
    /// Optional QoS-broker section. When present, `negotiate` runs the
    /// Sec. 4 five-step broker protocol against the declared providers
    /// (and, under `--chaos-*`, [`softsoa_soa::Broker::negotiate_resilient`])
    /// instead of interpreting `agent`.
    #[serde(default)]
    pub broker: Option<BrokerSpec>,
}

/// The broker section of a [`NegotiationSpec`]: a client request plus
/// the providers to register, turning `softsoa negotiate` into the
/// paper's Fig. 6 protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BrokerSpec {
    /// The capability the client requests (discovery key).
    pub capability: String,
    /// The negotiation variable; must name an entry in `domains`.
    pub variable: String,
    /// The client's policy: the name of an entry in `constraints`.
    pub client: String,
    /// The client's acceptance interval, as `[lower, upper]` raw
    /// levels (Fig. 3 checked transition).
    pub acceptance: [f64; 2],
    /// The providers to publish in the broker's registry.
    pub providers: Vec<ProviderSpec>,
}

/// One provider in a [`BrokerSpec`]: a service with its QoS offers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProviderSpec {
    /// The service identifier.
    pub id: String,
    /// The provider name (defaults to the service id).
    #[serde(default)]
    pub provider: Option<String>,
    /// Concurrent-binding capacity (`negotiate --contend` contention;
    /// omitted means uncapped).
    #[serde(default)]
    pub capacity: Option<u32>,
    /// The service's QoS offers (`softsoa-soa` documents verbatim).
    pub offers: Vec<QosOffer>,
}

fn default_policy() -> PolicySpec {
    PolicySpec::First
}

fn default_fuel() -> usize {
    10_000
}

impl NegotiationSpec {
    /// Parses a document from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Json`] on malformed input.
    pub fn from_json(text: &str) -> Result<NegotiationSpec, FormatError> {
        Ok(serde_json::from_str(text)?)
    }
}

/// A coalition-formation document for `softsoa coalitions`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoalitionSpec {
    /// The row-major trust matrix (`trust[i][j]` = trust of `i` in
    /// `j`), entries in `[0, 1]`.
    pub trust: Vec<Vec<f64>>,
    /// The `◦` operator: `min`, `max` or `avg`.
    #[serde(default = "default_compose")]
    pub compose: String,
    /// Whether Def. 4 stability is required.
    #[serde(default)]
    pub require_stability: bool,
    /// Optional upper bound on the number of coalitions.
    #[serde(default)]
    pub max_coalitions: Option<usize>,
    /// The algorithm: `exact`, `individual`, `social` or `local`.
    #[serde(default = "default_algorithm")]
    pub algorithm: String,
}

fn default_compose() -> String {
    "avg".into()
}

fn default_algorithm() -> String {
    "exact".into()
}

impl CoalitionSpec {
    /// Parses a document from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Json`] on malformed input.
    pub fn from_json(text: &str) -> Result<CoalitionSpec, FormatError> {
        Ok(serde_json::from_str(text)?)
    }

    /// Builds the trust network.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Invalid`] for ragged, oversized or
    /// out-of-range matrices.
    pub fn network(&self) -> Result<softsoa_coalition::TrustNetwork, FormatError> {
        const MAX_AGENTS: usize = 512;
        let n = self.trust.len();
        if n > MAX_AGENTS {
            return Err(invalid(format!(
                "trust matrix has {n} agents, more than the {MAX_AGENTS} limit"
            )));
        }
        let mut net = softsoa_coalition::TrustNetwork::new(n as u32, Unit::MIN);
        for (i, row) in self.trust.iter().enumerate() {
            if row.len() != n {
                return Err(invalid(format!(
                    "trust matrix row {i} has {} entries, expected {n}",
                    row.len()
                )));
            }
            for (j, raw) in row.iter().enumerate() {
                net.set(i as u32, j as u32, parse_level::<Fuzzy>(*raw)?);
            }
        }
        Ok(net)
    }

    /// Resolves the `◦` operator.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Invalid`] for an unknown name.
    pub fn composition(&self) -> Result<softsoa_coalition::TrustComposition, FormatError> {
        match self.compose.as_str() {
            "min" => Ok(softsoa_coalition::TrustComposition::Min),
            "max" => Ok(softsoa_coalition::TrustComposition::Max),
            "avg" | "average" => Ok(softsoa_coalition::TrustComposition::Average),
            other => Err(invalid(format!("unknown composition `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsoa_semiring::{Boolean, Weight, Weighted};

    #[test]
    fn problem_roundtrip_and_build() {
        let text = r#"{
            "semiring": "weighted",
            "domains": {"x": {"syms": ["a", "b"]}, "y": {"syms": ["a", "b"]}},
            "constraints": [
                {"table": {"scope": ["x"], "entries": [[["a"], 1.0], [["b"], 9.0]]}},
                {"table": {"scope": ["x", "y"], "entries": [
                    [["a", "a"], 5.0], [["a", "b"], 1.0],
                    [["b", "a"], 2.0], [["b", "b"], 2.0]]}},
                {"table": {"scope": ["y"], "entries": [[["a"], 5.0], [["b"], 5.0]]}}
            ],
            "con": ["x"]
        }"#;
        let spec = ProblemSpec::from_json(text).unwrap();
        assert_eq!(spec.semiring, SemiringKind::Weighted);
        let p = spec.build(Weighted).unwrap();
        assert_eq!(p.blevel().unwrap(), Weight::new(7.0).unwrap());
    }

    #[test]
    fn linear_constraints_build() {
        let spec = ConstraintSpec::Linear {
            var: "x".into(),
            slope: 2.0,
            intercept: 3.0,
            label: Some("c".into()),
        };
        let c = spec.to_constraint(Weighted).unwrap();
        let eta = softsoa_core::Assignment::new().bind("x", 4);
        assert_eq!(c.eval(&eta), Weight::new(11.0).unwrap());
        assert_eq!(c.label(), Some("c"));
    }

    #[test]
    fn bad_levels_are_rejected() {
        assert!(parse_level::<Weighted>(-1.0).is_err());
        assert!(parse_level::<Fuzzy>(1.5).is_err());
        assert!(parse_level::<Boolean>(0.5).is_err());
        assert!(parse_level::<Boolean>(1.0).unwrap());
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let spec = ConstraintSpec::Table {
            scope: vec!["x".into(), "y".into()],
            entries: vec![(vec![ValSpec::Int(0)], 1.0)],
            default: None,
            label: None,
        };
        let err = spec.to_constraint(Weighted).unwrap_err();
        assert!(err.to_string().contains("arity"));
    }

    #[test]
    fn domain_specs() {
        assert_eq!(DomainSpec::Ints([0, 3]).to_domain().unwrap().len(), 4);
        assert_eq!(
            DomainSpec::Stepped([0, 10, 5]).to_domain().unwrap().len(),
            3
        );
        assert!(DomainSpec::Ints([3, 0]).to_domain().is_err());
        assert!(DomainSpec::Syms(vec![]).to_domain().is_err());
        assert!(DomainSpec::Stepped([0, 10, 0]).to_domain().is_err());
    }

    #[test]
    fn oversized_domains_are_rejected_before_materialising() {
        // A naive `Domain::ints` here would try to allocate 2^40
        // values; the cap turns that into a format error.
        assert!(DomainSpec::Ints([0, 1 << 40]).to_domain().is_err());
        // Overflowing spans (full i64 range) must not wrap around.
        assert!(DomainSpec::Ints([i64::MIN, i64::MAX]).to_domain().is_err());
        assert!(DomainSpec::Stepped([0, i64::MAX, 2]).to_domain().is_err());
        // Stepping can bring an otherwise oversized range under the cap.
        assert!(DomainSpec::Stepped([0, 1 << 24, 1 << 10])
            .to_domain()
            .is_ok());
        assert!(DomainSpec::Ints([0, MAX_DOMAIN_SIZE - 1])
            .to_domain()
            .is_ok());
    }

    #[test]
    fn oversized_trust_matrices_are_rejected() {
        let n = 600;
        let spec = CoalitionSpec {
            trust: vec![vec![0.5; n]; n],
            compose: "avg".into(),
            require_stability: false,
            max_coalitions: None,
            algorithm: "local".into(),
        };
        assert!(spec.network().is_err());
    }

    #[test]
    fn broker_section_roundtrips() {
        let text = r#"{
            "semiring": "weighted",
            "domains": {"x": {"ints": [0, 10]}},
            "constraints": {"c4": {"linear": {"var": "x", "slope": 1.0, "intercept": 1.0}}},
            "broker": {
                "capability": "compute",
                "variable": "x",
                "client": "c4",
                "acceptance": [6.0, 1.0],
                "providers": [{"id": "svc", "offers": []}]
            }
        }"#;
        let spec = NegotiationSpec::from_json(text).unwrap();
        let broker = spec.broker.as_ref().unwrap();
        assert_eq!(broker.capability, "compute");
        assert_eq!(broker.providers.len(), 1);
        assert!(broker.providers[0].provider.is_none());
        // `agent` may be omitted in broker documents.
        assert!(spec.agent.is_empty());
    }

    #[test]
    fn coalition_spec_builds_network() {
        let text = r#"{
            "trust": [[1.0, 0.5], [0.25, 1.0]],
            "compose": "min",
            "algorithm": "exact"
        }"#;
        let spec = CoalitionSpec::from_json(text).unwrap();
        let net = spec.network().unwrap();
        assert_eq!(net.len(), 2);
        assert_eq!(net.get(0, 1), Unit::new(0.5).unwrap());
        assert!(matches!(
            spec.composition().unwrap(),
            softsoa_coalition::TrustComposition::Min
        ));
    }

    #[test]
    fn ragged_matrix_is_rejected() {
        let spec = CoalitionSpec {
            trust: vec![vec![1.0, 0.5], vec![0.25]],
            compose: "min".into(),
            require_stability: false,
            max_coalitions: None,
            algorithm: "exact".into(),
        };
        assert!(spec.network().is_err());
    }
}
