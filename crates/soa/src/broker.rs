//! The QoS broker and its negotiation protocol (Sec. 4, Fig. 6).
//!
//! The broker sits between clients and providers, embeds a soft
//! constraint solver, and runs the five-step protocol of the paper:
//!
//! 1. the client requests a binding, stating the required QoS;
//! 2. the broker *discovers* matching providers in the registry;
//! 3. the broker *negotiates*: client and provider policies are
//!    translated into soft constraints and executed as `nmsccp`
//!    agents on the broker's store;
//! 4. the offered and required QoS are compared — the agreed QoS is
//!    the consistency level of the combined store, accepted iff it
//!    lies within the client's checked-transition interval;
//! 5. on success a *binding* (an [`Sla`]) is returned to both parties.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use softsoa_core::solve::SolverStats;
use softsoa_core::{Assignment, Constraint, Domain, Domains, Var};
use softsoa_nmsccp::{
    Agent, Interpreter, Interval, Outcome, Program, RunReport, SemanticsError, Store,
};
use softsoa_semiring::{Residuated, Semiring};
use softsoa_telemetry::Telemetry;

use crate::registry::ProviderId;
use crate::{QosOffer, Registry, ServiceDescription, ServiceId};

/// A client's request for a service binding (protocol step 1).
#[derive(Debug, Clone)]
pub struct NegotiationRequest<S: Semiring> {
    /// The capability to discover providers by.
    pub capability: String,
    /// The negotiation variable (e.g. failures to absorb, processors).
    pub variable: Var,
    /// The variable's domain.
    pub domain: Domain,
    /// The client's own policy, as a soft constraint.
    pub constraint: Constraint<S>,
    /// The client's acceptance interval (Fig. 3 checked transition):
    /// the agreed level must fall inside it.
    pub acceptance: Interval<S>,
}

/// A concluded Service Level Agreement (protocol step 5).
#[derive(Debug, Clone)]
pub struct Sla<S: Semiring> {
    /// The bound service.
    pub service: ServiceId,
    /// Its provider.
    pub provider: ProviderId,
    /// The agreed QoS level (`σ ⇓ ∅` of the final store).
    pub agreed_level: S::Value,
    /// The best value of the negotiation variable and its level.
    pub binding: Option<(Assignment, S::Value)>,
}

/// An error produced by a negotiation.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum NegotiationError {
    /// No provider advertises the requested capability (step 2 found
    /// nothing).
    NoProvider(String),
    /// Providers exist, but no negotiation reached an agreement inside
    /// the client's acceptance interval.
    NoAgreement(String),
    /// The client's acceptance interval is intrinsically contradictory
    /// (its lower threshold is better than its upper one — the
    /// parenthesised side conditions of the paper's Fig. 3).
    InvalidAcceptance(String),
    /// The underlying `nmsccp` machinery failed.
    Semantics(SemanticsError),
}

impl fmt::Display for NegotiationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NegotiationError::NoProvider(cap) => {
                write!(f, "no provider advertises capability `{cap}`")
            }
            NegotiationError::NoAgreement(cap) => {
                write!(f, "no agreement reached for capability `{cap}`")
            }
            NegotiationError::InvalidAcceptance(cap) => write!(
                f,
                "the acceptance interval for `{cap}` is contradictory (lower bound better than upper)"
            ),
            NegotiationError::Semantics(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NegotiationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NegotiationError::Semantics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SemanticsError> for NegotiationError {
    fn from(e: SemanticsError) -> NegotiationError {
        NegotiationError::Semantics(e)
    }
}

/// The QoS broker: a registry plus an embedded soft constraint solver
/// and `nmsccp` engine.
///
/// The broker is generic in the semiring, so the same machinery
/// negotiates hours of failure recovery (weighted), preference levels
/// (fuzzy, Fig. 5) or reliabilities (probabilistic); the caller
/// supplies the QoS-document translation for its semiring.
///
/// # Examples
///
/// The fuzzy agreement of Fig. 5 — client preference rising with the
/// resource, provider preference falling, agreement at the
/// intersection (level 0.5):
///
/// ```
/// use softsoa_core::{Constraint, Domain, Var};
/// use softsoa_nmsccp::Interval;
/// use softsoa_semiring::{Fuzzy, Unit};
/// use softsoa_soa::{Broker, NegotiationRequest, OfferShape, QosDocument,
///     QosOffer, Registry, ServiceDescription, WireSemiring};
/// use softsoa_dependability::Attribute;
///
/// let mut registry = Registry::new();
/// registry.publish(ServiceDescription::new(
///     "svc-1", "acme", "web-service",
///     QosDocument::new("svc-1").with_offer(QosOffer {
///         attribute: Attribute::Reliability,
///         variable: "x".into(),
///         // Provider preference falls from 1 at x=1 to 0 at x=9.
///         shape: OfferShape::Piecewise { points: vec![(1, 1.0), (9, 0.0)] },
///     })));
///
/// let request = NegotiationRequest {
///     capability: "web-service".into(),
///     variable: Var::new("x"),
///     domain: Domain::ints(1..=9),
///     // Client preference rises from 0 at x=1 to 1 at x=9.
///     constraint: Constraint::unary(Fuzzy, "x", |v| {
///         Unit::clamped((v.as_int().unwrap() as f64 - 1.0) / 8.0)
///     }),
///     acceptance: Interval::levels(Unit::new(0.3).unwrap(), Unit::MAX),
/// };
///
/// let broker = Broker::new(Fuzzy, registry);
/// let sla = broker.negotiate(&request, Fuzzy::translate)?;
/// assert_eq!(sla.agreed_level, Unit::new(0.5).unwrap());
/// # Ok::<(), softsoa_soa::NegotiationError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Broker<S: Semiring> {
    semiring: S,
    registry: EpochRegistry,
    pub(crate) telemetry: Telemetry,
    /// Cross-batch contention history (per-client grants, starvation
    /// ages), shared across clones so every worker's joint allocations
    /// see the same fairness ledger.
    pub(crate) contention: crate::contention::ContentionState,
}

/// Inert: binding scans the domain and keeps no tables to size. Kept
/// only because the benchmark crate still names it; it goes with the
/// follow-up of ROADMAP.md item 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerConfig;

/// Epoch-versioned registry storage: the published registry lives
/// behind an [`Arc`] that every write replaces, so readers take a cheap
/// [`RegistrySnapshot`] (an `Arc` clone under a momentary lock) and
/// never block on — or observe a partial state from — a writer. The
/// replacement is cheap because [`Registry`] is copy-on-write: a writer
/// stages a clone (two pointers) that shares every node with the
/// published registry, and its publish or deregister copies only the
/// top array, middle node and leaf on the path of each key it touches.
/// Each write bumps the epoch.
///
/// Writers *serialize*: [`RegistryWriter`] holds the `write` mutex for
/// its whole lifetime, so a second writer (on this broker or a clone)
/// blocks until the first has published. Without that, two writers
/// staging from the same epoch would each publish their own copy and
/// the later drop would silently discard the earlier one's mutations.
/// Readers only ever touch the `state` mutex, held momentarily: a
/// writer swaps the new registry in under it and frees the replaced
/// one after releasing it.
#[derive(Debug, Clone, Default)]
pub(crate) struct EpochRegistry {
    shared: Arc<RegistryShared>,
}

#[derive(Debug, Default)]
struct RegistryShared {
    state: Mutex<(u64, Arc<Registry>)>,
    write: Mutex<()>,
}

impl EpochRegistry {
    fn new(registry: Registry) -> EpochRegistry {
        EpochRegistry {
            shared: Arc::new(RegistryShared {
                state: Mutex::new((0, Arc::new(registry))),
                write: Mutex::new(()),
            }),
        }
    }

    pub(crate) fn snapshot(&self) -> RegistrySnapshot {
        let guard = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        RegistrySnapshot {
            epoch: guard.0,
            registry: Arc::clone(&guard.1),
        }
    }
}

/// A read-only view of the registry at one epoch. Derefs to
/// [`Registry`], so discovery and lookups read as before; the snapshot
/// stays consistent even while writers publish new epochs.
#[derive(Debug)]
pub struct RegistrySnapshot {
    epoch: u64,
    registry: Arc<Registry>,
}

impl RegistrySnapshot {
    /// The epoch this snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Deref for RegistrySnapshot {
    type Target = Registry;

    fn deref(&self) -> &Registry {
        &self.registry
    }
}

/// A write guard over the registry: mutations stage on a private clone
/// — which shares every node it has not yet written with the published
/// registry — and are published atomically, with an epoch bump, when
/// the guard drops. Readers holding a [`RegistrySnapshot`] are
/// unaffected.
///
/// The guard holds the registry's writer lock, so concurrent writers
/// (e.g. on cloned brokers) queue behind it and always stage from the
/// latest published epoch — no mutation is ever lost to a concurrent
/// publish. Dropping the guard during a panic unwind discards the
/// staged copy instead of publishing a half-applied mutation.
#[derive(Debug)]
pub struct RegistryWriter<'a> {
    owner: &'a EpochRegistry,
    /// Serializes writers for the guard's lifetime.
    _serialize: MutexGuard<'a, ()>,
    staged: Option<Registry>,
    epoch: u64,
    telemetry: Telemetry,
}

impl RegistryWriter<'_> {
    /// The epoch this guard publishes when it drops: one past the
    /// epoch it staged from, since writers serialize.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Deref for RegistryWriter<'_> {
    type Target = Registry;

    fn deref(&self) -> &Registry {
        self.staged.as_ref().expect("staged registry present")
    }
}

impl DerefMut for RegistryWriter<'_> {
    fn deref_mut(&mut self) -> &mut Registry {
        self.staged.as_mut().expect("staged registry present")
    }
}

impl Drop for RegistryWriter<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // The mutation sequence was cut short; publishing the
            // staged copy would commit a half-applied write.
            return;
        }
        let staged = Arc::new(self.staged.take().expect("staged registry present"));
        let replaced = {
            let mut guard = self
                .owner
                .shared
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            guard.0 = self.epoch;
            std::mem::replace(&mut guard.1, staged)
        };
        // Free the replaced registry (if this was its last reference)
        // outside the lock every snapshot takes.
        drop(replaced);
        self.telemetry
            .gauge("broker.registry.epoch", self.epoch as i64);
    }
}

impl<S: Residuated> Broker<S> {
    /// Creates a broker over a registry.
    pub fn new(semiring: S, registry: Registry) -> Broker<S> {
        Broker {
            semiring,
            registry: EpochRegistry::new(registry),
            telemetry: Telemetry::disabled(),
            contention: crate::contention::ContentionState::default(),
        }
    }

    /// Inert: returns the broker unchanged. Kept only because the
    /// benchmark crate still names it; it goes with the follow-up of
    /// ROADMAP.md item 2.
    pub fn with_incremental(self, _incremental: bool) -> Broker<S> {
        self
    }

    /// Inert: returns the broker unchanged. Kept only because the
    /// benchmark crate still names it; it goes with the follow-up of
    /// ROADMAP.md item 2.
    pub fn with_broker_config(self, _config: BrokerConfig) -> Broker<S> {
        self
    }

    /// Attaches a telemetry handle: per-provider session latency and
    /// outcomes, binding-solve counters, and the nmsccp run metrics
    /// of every negotiation session flow through it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Broker<S> {
        self.telemetry = telemetry;
        self
    }

    /// The semiring the broker negotiates over.
    pub fn semiring(&self) -> &S {
        &self.semiring
    }

    /// A consistent snapshot of the broker's registry at the current
    /// epoch. Snapshots never block writers (and vice versa); cloned
    /// brokers share the registry and see each other's epochs.
    pub fn registry(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// Write access to the registry (to publish or deregister).
    /// Mutations stage on a clone of the registry that shares its
    /// nodes, so a write copies only the path to each key it touches,
    /// and publish atomically — bumping the registry epoch to
    /// [`RegistryWriter::epoch`] — when the returned guard drops.
    /// Writers serialize: while one guard is alive, `registry_mut` on a
    /// clone of this broker blocks, so no concurrent write is ever lost.
    pub fn registry_mut(&mut self) -> RegistryWriter<'_> {
        let serialize = self
            .registry
            .shared
            .write
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // Stage only after the writer lock is held, so serialized
        // writers always build on each other's published state.
        let current = self.registry.snapshot();
        RegistryWriter {
            owner: &self.registry,
            _serialize: serialize,
            staged: Some((*current.registry).clone()),
            epoch: current.epoch + 1,
            telemetry: self.telemetry.clone(),
        }
    }

    /// Negotiates a binding for the request, returning the best
    /// agreement among all discovered providers (steps 1–5).
    ///
    /// `translate` converts each provider QoS offer into a soft
    /// constraint over the broker's semiring — the paper's
    /// XML-to-constraint translation step.
    ///
    /// # Errors
    ///
    /// [`NegotiationError::NoProvider`] if discovery finds nothing,
    /// [`NegotiationError::NoAgreement`] if every per-provider
    /// negotiation fails the client's acceptance interval.
    pub fn negotiate<F>(
        &self,
        request: &NegotiationRequest<S>,
        translate: F,
    ) -> Result<Sla<S>, NegotiationError>
    where
        F: Fn(&QosOffer) -> Constraint<S>,
    {
        self.negotiate_at(&self.registry.snapshot(), request, translate)
    }

    /// [`Broker::negotiate`] against a caller-supplied snapshot, so a
    /// caller can report the epoch its agreement was computed under.
    pub(crate) fn negotiate_at<F>(
        &self,
        registry: &RegistrySnapshot,
        request: &NegotiationRequest<S>,
        translate: F,
    ) -> Result<Sla<S>, NegotiationError>
    where
        F: Fn(&QosOffer) -> Constraint<S>,
    {
        let agreements = self.negotiate_all_at(registry, request, translate)?;
        self.best(agreements)
            .ok_or_else(|| NegotiationError::NoAgreement(request.capability.clone()))
    }

    /// Negotiates with every discovered provider and returns every
    /// *successful* agreement (in registry order).
    ///
    /// # Errors
    ///
    /// [`NegotiationError::NoProvider`] if discovery finds nothing, or
    /// an underlying semantics/solve error.
    pub fn negotiate_all<F>(
        &self,
        request: &NegotiationRequest<S>,
        translate: F,
    ) -> Result<Vec<Sla<S>>, NegotiationError>
    where
        F: Fn(&QosOffer) -> Constraint<S>,
    {
        // One snapshot per negotiation: every provider in this round is
        // discovered and negotiated against the same registry epoch,
        // even if writers publish mid-round.
        let registry = self.registry.snapshot();
        self.negotiate_all_at(&registry, request, translate)
    }

    /// [`Broker::negotiate_all`] against a caller-supplied snapshot, so
    /// a *batch* of negotiations (contended allocation) can share one
    /// registry epoch across every client.
    pub(crate) fn negotiate_all_at<F>(
        &self,
        registry: &RegistrySnapshot,
        request: &NegotiationRequest<S>,
        translate: F,
    ) -> Result<Vec<Sla<S>>, NegotiationError>
    where
        F: Fn(&QosOffer) -> Constraint<S>,
    {
        let interpreter = Interpreter::new(Program::new()).with_telemetry(self.telemetry.clone());
        let (agreements, _) =
            self.run_sessions(registry, request, &translate, |_, _, agent, store| {
                interpreter.run(agent, store)
            })?;
        Ok(agreements)
    }

    /// The protocol's steps 2–5 against one registry snapshot: discover
    /// the providers, validate the acceptance interval, run one `nmsccp`
    /// session per provider with an offer on the negotiation variable,
    /// and bind every agreement. Returns the agreements and each
    /// session's report, both in registry order.
    ///
    /// How a session runs is the only part that varies: `run` receives
    /// the service, its translated policy, the `provider ‖ client`
    /// agent and the empty store, and drives them with a plain
    /// [`Interpreter`] or a fault-injecting `ResilientInterpreter`
    /// (which also records its own recovery counters).
    pub(crate) fn run_sessions<F, R>(
        &self,
        registry: &RegistrySnapshot,
        request: &NegotiationRequest<S>,
        translate: &F,
        run: impl Fn(&ServiceId, &Constraint<S>, Agent<S>, Store<S>) -> Result<R, SemanticsError>,
    ) -> Result<Sessions<S, R>, NegotiationError>
    where
        F: Fn(&QosOffer) -> Constraint<S>,
        R: AsRef<RunReport<S>>,
    {
        let t = &self.telemetry;
        t.gauge("broker.registry.epoch", registry.epoch() as i64);
        let candidates = registry.discover(&request.capability);
        if candidates.is_empty() {
            return Err(NegotiationError::NoProvider(request.capability.clone()));
        }
        // Reject contradictory acceptance intervals up front (Fig. 3's
        // side conditions): they would silently suspend every session.
        let domains =
            Arc::new(Domains::new().with(request.variable.clone(), request.domain.clone()));
        if matches!(
            request.acceptance.validate(&self.semiring, &domains),
            Err(softsoa_nmsccp::ValidationError::Invalid(_))
        ) {
            return Err(NegotiationError::InvalidAcceptance(
                request.capability.clone(),
            ));
        }
        // The client side of the session is provider-independent: build
        // its agent once and share it with every session. It publishes
        // its policy and then checks the agreement interval.
        let client = Arc::new(Agent::tell(
            request.constraint.clone(),
            Interval::any(&self.semiring),
            Agent::ask(
                Constraint::always(self.semiring.clone()),
                request.acceptance.clone(),
                Agent::success(),
            ),
        ));
        let mut agreements = Vec::new();
        let mut reports = Vec::new();
        for service in candidates {
            let Some(policy) = provider_constraint(service, request.variable.name(), translate)
            else {
                continue;
            };
            // The provider agent publishes its policy.
            let provider = Agent::tell(
                policy.clone(),
                Interval::any(&self.semiring),
                Agent::success(),
            );
            let store = Store::empty(self.semiring.clone(), Arc::clone(&domains));
            let id = service.id.as_str();
            let session_start = t.enabled().then(Instant::now);
            t.incr("broker.sessions");
            let report = run(
                &service.id,
                &policy,
                Agent::Par(Arc::new(provider), Arc::clone(&client)),
                store,
            )?;
            if let Some(start) = session_start {
                t.timing_labeled("broker.provider.latency", id, start.elapsed());
            }
            if let Outcome::Success { store } = &report.as_ref().outcome {
                t.count_labeled("broker.provider.agreements", id, 1);
                agreements.push(Sla {
                    service: service.id.clone(),
                    provider: service.provider.clone(),
                    agreed_level: store.consistency().map_err(SemanticsError::from)?,
                    binding: self.bind(&request.variable, &request.domain, store.sigma()),
                });
            } else {
                t.count_labeled("broker.provider.rejections", id, 1);
            }
            reports.push((service.id.clone(), report));
        }
        Ok((agreements, reports))
    }

    /// The best agreement under the semiring order: a later agreement
    /// replaces the incumbent only when strictly better, so among
    /// maximal levels the first in registry order wins.
    pub(crate) fn best(&self, agreements: Vec<Sla<S>>) -> Option<Sla<S>> {
        agreements.into_iter().reduce(|best, sla| {
            if self.semiring.lt(&best.agreed_level, &sla.agreed_level) {
                sla
            } else {
                best
            }
        })
    }

    /// Negotiates with iterative *relaxation*: if no provider yields an
    /// agreement inside the acceptance interval, the client retracts
    /// the next constraint from `relaxations` (a concession, applied
    /// through nmsccp's nonmonotonic `retract`) and the negotiation is
    /// retried — the generalisation of the paper's Example 2, where
    /// retracting `c1` turns a failed negotiation into an agreement.
    ///
    /// Returns the SLA together with the number of concessions spent.
    ///
    /// # Errors
    ///
    /// [`NegotiationError::NoProvider`] if discovery finds nothing;
    /// [`NegotiationError::NoAgreement`] if even the fully relaxed
    /// negotiation fails.
    pub fn negotiate_with_relaxation<F>(
        &self,
        request: &NegotiationRequest<S>,
        relaxations: &[Constraint<S>],
        translate: F,
    ) -> Result<(Sla<S>, usize), NegotiationError>
    where
        F: Fn(&QosOffer) -> Constraint<S> + Copy,
    {
        let mut current = request.clone();
        for (concessions, relaxation) in std::iter::once(None)
            .chain(relaxations.iter().map(Some))
            .enumerate()
        {
            if let Some(relaxation) = relaxation {
                // The concession: divide the client's policy by the
                // relaxed part (Example 2's partial removal).
                current.constraint = current.constraint.divide(relaxation);
            }
            match self.negotiate(&current, translate) {
                Ok(sla) => {
                    self.telemetry
                        .count("broker.concessions", concessions as u64);
                    return Ok((sla, concessions));
                }
                Err(NegotiationError::NoAgreement(_)) => continue,
                Err(other) => return Err(other),
            }
        }
        Err(NegotiationError::NoAgreement(request.capability.clone()))
    }

    /// Binds the negotiation variable to its best value under the
    /// agreed store `sigma` (protocol step 5): the projection
    /// `σ ⇓ {variable}`, read off by evaluating `sigma` once per domain
    /// value.
    ///
    /// Returns the first non-dominated, non-zero `(value, level)` in
    /// domain order — exactly `Scsp::solve().best().first()` of the
    /// single-variable problem, on total and partial orders alike — or
    /// `None` when `sigma` is `0` on the whole domain. The scan is
    /// reported as a `binding` solve of one node per domain value.
    ///
    /// # Panics
    ///
    /// If `sigma` constrains a variable other than `variable`; a store
    /// over the negotiation's domains never does.
    pub fn bind(
        &self,
        variable: &Var,
        domain: &Domain,
        sigma: &Constraint<S>,
    ) -> Option<(Assignment, S::Value)> {
        let start = self.telemetry.enabled().then(Instant::now);
        // σ's scope tuple is the value itself (or empty for a constant σ).
        let unary = match sigma.scope() {
            [] => false,
            [v] if v == variable => true,
            scope => panic!("cannot bind `{variable}` under a store over {scope:?}"),
        };
        let mut levels: Vec<S::Value> = domain
            .values()
            .iter()
            .map(|value| {
                let tuple = if unary {
                    std::slice::from_ref(value)
                } else {
                    &[]
                };
                sigma.eval_tuple(tuple)
            })
            .collect();
        if let Some(start) = start {
            let stats = SolverStats {
                nodes: levels.len() as u64,
                threads: 1,
                solve_time: start.elapsed(),
                ..SolverStats::default()
            };
            stats.emit(&self.telemetry, "binding");
        }
        // Core's `non_dominated`, then the first non-zero entry: on a
        // total order the levels equal to the `+`-sum of all, else the
        // levels no other level is strictly better than.
        let s = &self.semiring;
        let best = if s.is_total() {
            let max = levels.iter().fold(s.zero(), |acc, v| s.plus(&acc, v));
            levels.iter().position(|v| *v == max && !s.is_zero(v))
        } else {
            levels
                .iter()
                .position(|v| !s.is_zero(v) && !levels.iter().any(|w| s.lt(v, w)))
        }?;
        let eta = Assignment::new().bind(variable.clone(), domain.values()[best].clone());
        Some((eta, levels.swap_remove(best)))
    }
}

/// Combines a provider's offers on the negotiation variable into its
/// single policy constraint; `None` if no offer matches the variable.
pub(crate) fn provider_constraint<S: Semiring, F>(
    service: &ServiceDescription,
    variable: &str,
    translate: &F,
) -> Option<Constraint<S>>
where
    F: Fn(&QosOffer) -> Constraint<S>,
{
    let offers: Vec<Constraint<S>> = service
        .qos
        .offers
        .iter()
        .filter(|o| o.variable == variable)
        .map(translate)
        .collect();
    let first = offers.first()?.clone();
    Some(offers.iter().skip(1).fold(first, |acc, c| acc.combine(c)))
}

/// What [`Broker::run_sessions`] returns: every agreement, and every
/// provider session's report, in registry order.
pub(crate) type Sessions<S, R> = (Vec<Sla<S>>, Vec<(ServiceId, R)>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OfferShape, QosDocument, WireSemiring};
    use softsoa_core::Val;
    use softsoa_dependability::Attribute;
    use softsoa_semiring::{Fuzzy, Unit, Weight, Weighted};

    fn fuzzy_provider(id: &str, points: Vec<(i64, f64)>) -> ServiceDescription {
        ServiceDescription::new(
            id,
            "acme",
            "web-service",
            QosDocument::new(id).with_offer(QosOffer {
                attribute: Attribute::Reliability,
                variable: "x".into(),
                shape: OfferShape::Piecewise { points },
            }),
        )
    }

    fn fig5_request() -> NegotiationRequest<Fuzzy> {
        NegotiationRequest {
            capability: "web-service".into(),
            variable: Var::new("x"),
            domain: Domain::ints(1..=9),
            constraint: Constraint::unary(Fuzzy, "x", |v| {
                Unit::clamped((v.as_int().unwrap() as f64 - 1.0) / 8.0)
            }),
            acceptance: Interval::levels(Unit::new(0.3).unwrap(), Unit::MAX),
        }
    }

    #[test]
    fn fig5_fuzzy_agreement_at_half() {
        let mut registry = Registry::new();
        registry.publish(fuzzy_provider("svc-1", vec![(1, 1.0), (9, 0.0)]));
        let broker = Broker::new(Fuzzy, registry);
        let sla = broker.negotiate(&fig5_request(), Fuzzy::translate).unwrap();
        assert_eq!(sla.agreed_level, Unit::new(0.5).unwrap());
        // The agreement is at the intersection x = 5.
        let (eta, level) = sla.binding.unwrap();
        assert_eq!(eta.get(&Var::new("x")).unwrap().as_int(), Some(5));
        assert_eq!(level, Unit::new(0.5).unwrap());
    }

    #[test]
    fn broker_picks_the_better_provider() {
        let mut registry = Registry::new();
        // svc-flat keeps a high preference everywhere → better blevel
        // (0.8 against svc-steep's 0.5).
        registry.publish(fuzzy_provider("svc-steep", vec![(1, 1.0), (9, 0.0)]));
        registry.publish(fuzzy_provider("svc-flat", vec![(1, 0.8), (9, 0.8)]));
        let broker = Broker::new(Fuzzy, registry);
        let sla = broker.negotiate(&fig5_request(), Fuzzy::translate).unwrap();
        assert_eq!(sla.service, ServiceId::new("svc-flat"));
        assert_eq!(sla.agreed_level, Unit::new(0.8).unwrap());
    }

    #[test]
    fn best_keeps_the_first_of_equal_agreements() {
        let broker = Broker::new(Fuzzy, Registry::new());
        let sla = |id: &str, level: f64| Sla::<Fuzzy> {
            service: ServiceId::new(id),
            provider: ProviderId::new("acme"),
            agreed_level: Unit::new(level).unwrap(),
            binding: None,
        };
        let best = broker.best(vec![
            sla("svc-low", 0.2),
            sla("svc-first", 0.7),
            sla("svc-tied", 0.7),
            sla("svc-lower", 0.5),
        ]);
        assert_eq!(best.unwrap().service, ServiceId::new("svc-first"));
        assert!(broker.best(Vec::new()).is_none());
    }

    #[test]
    fn acceptance_interval_rejects_poor_agreements() {
        let mut registry = Registry::new();
        // The provider's preference peaks at 0.2: below the client's
        // floor of 0.3.
        registry.publish(fuzzy_provider("svc-bad", vec![(1, 0.2), (9, 0.2)]));
        let broker = Broker::new(Fuzzy, registry);
        let err = broker
            .negotiate(&fig5_request(), Fuzzy::translate)
            .unwrap_err();
        assert!(matches!(err, NegotiationError::NoAgreement(_)));
    }

    #[test]
    fn contradictory_acceptance_is_rejected_up_front() {
        let mut registry = Registry::new();
        registry.publish(fuzzy_provider("svc", vec![(1, 1.0), (9, 0.0)]));
        let broker = Broker::new(Fuzzy, registry);
        let mut request = fig5_request();
        // Fuzzy: lower 0.9 is better than upper 0.2 → contradictory.
        request.acceptance = Interval::levels(Unit::new(0.9).unwrap(), Unit::new(0.2).unwrap());
        let err = broker.negotiate(&request, Fuzzy::translate).unwrap_err();
        assert!(matches!(err, NegotiationError::InvalidAcceptance(_)));
    }

    #[test]
    fn missing_capability_is_no_provider() {
        let broker = Broker::new(Fuzzy, Registry::new());
        let err = broker
            .negotiate(&fig5_request(), Fuzzy::translate)
            .unwrap_err();
        assert!(matches!(err, NegotiationError::NoProvider(_)));
    }

    #[test]
    fn provider_without_matching_variable_is_skipped() {
        let mut registry = Registry::new();
        registry.publish(ServiceDescription::new(
            "svc-other",
            "acme",
            "web-service",
            QosDocument::new("svc-other").with_offer(QosOffer {
                attribute: Attribute::Reliability,
                variable: "y".into(), // not the negotiation variable
                shape: OfferShape::Constant { level: 1.0 },
            }),
        ));
        let broker = Broker::new(Fuzzy, registry);
        let err = broker
            .negotiate(&fig5_request(), Fuzzy::translate)
            .unwrap_err();
        assert!(matches!(err, NegotiationError::NoAgreement(_)));
    }

    #[test]
    fn relaxation_turns_failure_into_agreement() {
        // The paper's Example 2 through the broker: the client's policy
        // c4 = x + 5 makes the merged cost 3x + 5 ∉ [1, 4]; conceding
        // c1 = x + 3 leaves 2x + 2, level 2 ∈ [1, 4].
        let mut registry = Registry::new();
        registry.publish(ServiceDescription::new(
            "svc",
            "acme",
            "failure-mgmt",
            QosDocument::new("svc").with_offer(QosOffer {
                attribute: Attribute::Reliability,
                variable: "x".into(),
                shape: OfferShape::Linear {
                    slope: 2.0,
                    intercept: 0.0,
                }, // c3 = 2x
            }),
        ));
        let request = NegotiationRequest {
            capability: "failure-mgmt".into(),
            variable: Var::new("x"),
            domain: Domain::ints(0..=10),
            constraint: Constraint::unary(Weighted, "x", |v| {
                Weight::saturating(v.as_int().unwrap() as f64 + 5.0) // c4
            }),
            acceptance: Interval::levels(
                Weight::new(4.0).unwrap(), // no worse than 4 hours
                Weight::new(1.0).unwrap(), // no better than 1 hour
            ),
        };
        let broker = Broker::new(Weighted, registry);
        // Without relaxation: no agreement (level 5 ∉ [1, 4]).
        assert!(matches!(
            broker.negotiate(&request, Weighted::translate),
            Err(NegotiationError::NoAgreement(_))
        ));
        // Conceding c1 = x + 3 reaches level 2.
        let c1 = Constraint::unary(Weighted, "x", |v| {
            Weight::saturating(v.as_int().unwrap() as f64 + 3.0)
        });
        let (sla, concessions) = broker
            .negotiate_with_relaxation(&request, &[c1], Weighted::translate)
            .unwrap();
        assert_eq!(concessions, 1);
        assert_eq!(sla.agreed_level, Weight::new(2.0).unwrap());
    }

    #[test]
    fn exhausted_relaxations_still_fail() {
        let broker = Broker::new(Weighted, {
            let mut r = Registry::new();
            r.publish(ServiceDescription::new(
                "svc",
                "acme",
                "compute",
                QosDocument::new("svc").with_offer(QosOffer {
                    attribute: Attribute::Reliability,
                    variable: "x".into(),
                    shape: OfferShape::Constant { level: 100.0 }, // hopeless cost
                }),
            ));
            r
        });
        let request = NegotiationRequest {
            capability: "compute".into(),
            variable: Var::new("x"),
            domain: Domain::ints(0..=3),
            constraint: Constraint::always(Weighted),
            acceptance: Interval::levels(Weight::new(4.0).unwrap(), Weight::ZERO),
        };
        let err = broker
            .negotiate_with_relaxation(&request, &[], Weighted::translate)
            .unwrap_err();
        assert!(matches!(err, NegotiationError::NoAgreement(_)));
    }

    #[test]
    fn binding_reports_one_node_per_domain_value() {
        let mut registry = Registry::new();
        registry.publish(fuzzy_provider("svc-1", vec![(1, 1.0), (9, 0.0)]));
        let (telemetry, sink) = Telemetry::recording();
        let broker = Broker::new(Fuzzy, registry).with_telemetry(telemetry);
        let first = broker.negotiate(&fig5_request(), Fuzzy::translate).unwrap();
        let second = broker.negotiate(&fig5_request(), Fuzzy::translate).unwrap();
        assert_eq!(first.binding, second.binding);
        let counters = sink.snapshot().counters;
        // Two agreements, each bound by a scan of the 9-value domain.
        assert_eq!(counters.get("solve.runs{binding}"), Some(&2u64));
        assert_eq!(counters.get("solve.nodes"), Some(&18u64));
    }

    #[test]
    fn bind_takes_the_first_best_value_in_domain_order() {
        let broker = Broker::new(Fuzzy, Registry::new());
        let x = Var::new("x");
        let domain = Domain::ints(0..=5);
        // Levels 0.2, 0.7, 0.4, 0.7, 0.7, 0: three ties at the top.
        let levels = [0.2, 0.7, 0.4, 0.7, 0.7, 0.0];
        let sigma = Constraint::unary(Fuzzy, "x", move |v| {
            Unit::clamped(levels[v.as_int().unwrap() as usize])
        });
        let (eta, level) = broker.bind(&x, &domain, &sigma).unwrap();
        assert_eq!(eta.get(&x), Some(&Val::Int(1)));
        assert_eq!(level, Unit::new(0.7).unwrap());
        // A store that is 0 everywhere binds nothing.
        let zero = Constraint::unary(Fuzzy, "x", |_| Unit::MIN);
        assert_eq!(broker.bind(&x, &domain, &zero), None);
        // A constant store binds the first domain value.
        let (eta, _) = broker
            .bind(&x, &domain, &Constraint::always(Fuzzy))
            .unwrap();
        assert_eq!(eta.get(&x), Some(&Val::Int(0)));
    }

    #[test]
    fn hoisted_client_compilation_keeps_agreements() {
        // negotiate_all over one registry must agree, provider by
        // provider, with negotiating each provider in isolation — the
        // client-side hoist may not change any per-provider outcome.
        let providers = [
            ("svc-steep", vec![(1, 1.0), (9, 0.0)]),
            ("svc-flat", vec![(1, 0.8), (9, 0.8)]),
            ("svc-bad", vec![(1, 0.2), (9, 0.2)]),
        ];
        let mut registry = Registry::new();
        for (id, points) in &providers {
            registry.publish(fuzzy_provider(id, points.clone()));
        }
        let all = Broker::new(Fuzzy, registry)
            .negotiate_all(&fig5_request(), Fuzzy::translate)
            .unwrap();

        let mut isolated = Vec::new();
        for (id, points) in &providers {
            let mut registry = Registry::new();
            registry.publish(fuzzy_provider(id, points.clone()));
            match Broker::new(Fuzzy, registry).negotiate_all(&fig5_request(), Fuzzy::translate) {
                Ok(slas) => isolated.extend(slas),
                Err(NegotiationError::NoProvider(_)) => {}
                Err(other) => panic!("unexpected error: {other}"),
            }
        }

        // Registry discovery and the fixture array order providers
        // differently; compare by service id.
        let mut all = all;
        all.sort_by(|a, b| a.service.cmp(&b.service));
        isolated.sort_by(|a, b| a.service.cmp(&b.service));
        assert_eq!(all.len(), isolated.len());
        for (a, b) in all.iter().zip(&isolated) {
            assert_eq!(a.service, b.service);
            assert_eq!(a.agreed_level, b.agreed_level);
            assert_eq!(a.binding, b.binding);
        }
    }

    #[test]
    fn registry_snapshots_are_epoch_consistent() {
        let mut registry = Registry::new();
        registry.publish(fuzzy_provider("svc-1", vec![(1, 1.0), (9, 0.0)]));
        let mut broker = Broker::new(Fuzzy, registry);
        let before = broker.registry();
        assert_eq!(before.epoch(), 0);
        broker
            .registry_mut()
            .publish(fuzzy_provider("svc-2", vec![(1, 0.9), (9, 0.9)]));
        // The old snapshot still sees the pre-write registry; a fresh
        // snapshot sees the new epoch and the new provider.
        assert_eq!(before.len(), 1);
        let after = broker.registry();
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.len(), 2);
        // Clones share the registry (and its epochs).
        let clone = broker.clone();
        broker.registry_mut().deregister(&ServiceId::new("svc-2"));
        assert_eq!(clone.registry().epoch(), 2);
        assert_eq!(clone.registry().len(), 1);
    }

    #[test]
    fn concurrent_writers_do_not_lose_updates() {
        // Regression: writers used to stage read-copy-update style
        // with no conflict detection, so two cloned brokers writing
        // concurrently could both stage from the same epoch and the
        // later publish silently discarded the earlier one's services.
        let broker = Broker::new(Fuzzy, Registry::new());
        let mut clones: Vec<Broker<Fuzzy>> = (0..4).map(|_| broker.clone()).collect();
        std::thread::scope(|scope| {
            for (i, clone) in clones.iter_mut().enumerate() {
                scope.spawn(move || {
                    for j in 0..8 {
                        clone.registry_mut().publish(fuzzy_provider(
                            &format!("svc-{i}-{j}"),
                            vec![(1, 1.0), (9, 0.0)],
                        ));
                    }
                });
            }
        });
        assert_eq!(broker.registry().len(), 32, "every publish survived");
        assert_eq!(broker.registry().epoch(), 32, "one epoch per write");
    }

    #[test]
    fn panicking_writer_does_not_publish() {
        let mut broker = Broker::new(Fuzzy, Registry::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut writer = broker.registry_mut();
            writer.publish(fuzzy_provider("svc-half", vec![(1, 1.0), (9, 0.0)]));
            panic!("mutation sequence cut short");
        }));
        assert!(result.is_err());
        // The half-applied staged copy was discarded, not committed.
        assert_eq!(broker.registry().len(), 0);
        assert_eq!(broker.registry().epoch(), 0);
        // The writer lock was released by the unwind: writes still work.
        broker
            .registry_mut()
            .publish(fuzzy_provider("svc-next", vec![(1, 1.0), (9, 0.0)]));
        assert_eq!(broker.registry().len(), 1);
        assert_eq!(broker.registry().epoch(), 1);
    }

    #[test]
    fn weighted_negotiation_minimises_cost() {
        // Weighted variant: provider charges 2x, client charges x + 1;
        // acceptance requires total cost within [1, 6] at the best x.
        let mut registry = Registry::new();
        registry.publish(ServiceDescription::new(
            "svc-w",
            "acme",
            "compute",
            QosDocument::new("svc-w").with_offer(QosOffer {
                attribute: Attribute::Availability,
                variable: "x".into(),
                shape: OfferShape::Linear {
                    slope: 2.0,
                    intercept: 0.0,
                },
            }),
        ));
        let request = NegotiationRequest {
            capability: "compute".into(),
            variable: Var::new("x"),
            domain: Domain::ints(0..=10),
            constraint: Constraint::unary(Weighted, "x", |v| {
                Weight::saturating(v.as_int().unwrap() as f64 + 1.0)
            }),
            acceptance: Interval::levels(Weight::new(6.0).unwrap(), Weight::new(1.0).unwrap()),
        };
        let broker = Broker::new(Weighted, registry);
        let sla = broker.negotiate(&request, Weighted::translate).unwrap();
        // Best at x = 0: cost 1.
        assert_eq!(sla.agreed_level, Weight::new(1.0).unwrap());
        let (eta, _) = sla.binding.unwrap();
        assert_eq!(eta.get(&Var::new("x")).unwrap().as_int(), Some(0));
    }
}
