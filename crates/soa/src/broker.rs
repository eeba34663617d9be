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

use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard};

use softsoa_core::solve::{
    BranchAndBound, ConstraintId, IncrementalSolver, Parallelism, Solution, Solver, SolverConfig,
    VarOrder,
};
use softsoa_core::{Assignment, Constraint, Domain, Domains, Scsp, SolveError, Val, Var};
use softsoa_nmsccp::{Agent, Interpreter, Interval, Outcome, Program, SemanticsError, Store};
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
    /// Solving for the best binding failed.
    Solve(SolveError),
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
            NegotiationError::Solve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NegotiationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NegotiationError::Semantics(e) => Some(e),
            NegotiationError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SemanticsError> for NegotiationError {
    fn from(e: SemanticsError) -> NegotiationError {
        NegotiationError::Semantics(e)
    }
}

impl From<SolveError> for NegotiationError {
    fn from(e: SolveError) -> NegotiationError {
        NegotiationError::Solve(e)
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
///     QosOffer, Registry, ServiceDescription};
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
/// let sla = broker.negotiate(&request, QosOffer::to_fuzzy)?;
/// assert_eq!(sla.agreed_level, Unit::new(0.5).unwrap());
/// # Ok::<(), softsoa_soa::NegotiationError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Broker<S: Semiring> {
    semiring: S,
    registry: EpochRegistry,
    pub(crate) telemetry: Telemetry,
    pub(crate) cache: SolveCache,
    solver: SolverConfig,
    incremental: bool,
    /// One persistent incremental solver per binding problem shape
    /// (negotiation variable + domain), shared across clones.
    binding_solvers: BindingSolvers<S>,
    /// Cross-batch contention history (per-client grants, starvation
    /// ages), shared across clones so every worker's joint allocations
    /// see the same fairness ledger.
    pub(crate) contention: crate::contention::ContentionState,
}

/// Persistent per-binding-shape incremental solvers, keyed by the
/// negotiation variable and its domain, shared across broker clones.
///
/// Like [`SolveCache`], the table is bounded (LRU eviction at
/// [`DEFAULT_BINDING_SOLVER_CAPACITY`]): a churn stream whose domains
/// vary would otherwise retain one solver — witness, cache traffic and
/// all — per shape ever seen. Solvers are *taken out* of the table for
/// the duration of a solve and re-inserted afterwards, so the mutex is
/// only held for the map operations and concurrent negotiations on
/// cloned brokers never serialize on each other's searches.
#[derive(Debug, Clone)]
struct BindingSolvers<S: Semiring> {
    inner: Arc<Mutex<BindingSolversInner<S>>>,
}

#[derive(Debug)]
struct BindingSolversInner<S: Semiring> {
    entries: HashMap<(Var, Vec<Val>), BindingEntry<S>>,
    stamp: u64,
    capacity: usize,
}

#[derive(Debug)]
struct BindingEntry<S: Semiring> {
    solver: IncrementalSolver<S>,
    id: ConstraintId,
    stamp: u64,
}

/// Default bound on persistent per-shape binding solvers. Smaller than
/// the witness cache's: each entry holds a full solver (domains,
/// constraint, last witness), not just a winning value.
pub(crate) const DEFAULT_BINDING_SOLVER_CAPACITY: usize = 64;

/// Capacity limits for the broker's two bounded tables, surfaced so a
/// long-running deployment (notably the [`crate::server`] daemon) can
/// size memory explicitly instead of inheriting magic numbers.
///
/// Both bounds are entry counts, clamped to at least 1. Any capacity —
/// including 1 — yields identical negotiation results; smaller tables
/// only trade away warm-start and witness-reuse hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerConfig {
    /// Bound on cached binding witnesses ([`SolveCache`] entries).
    pub binding_cache_capacity: usize,
    /// Bound on persistent per-shape incremental binding solvers.
    pub binding_solver_capacity: usize,
}

impl Default for BrokerConfig {
    fn default() -> BrokerConfig {
        BrokerConfig {
            binding_cache_capacity: DEFAULT_BINDING_CACHE_CAPACITY,
            binding_solver_capacity: DEFAULT_BINDING_SOLVER_CAPACITY,
        }
    }
}

impl<S: Semiring> Default for BindingSolvers<S> {
    fn default() -> BindingSolvers<S> {
        BindingSolvers::with_capacity(DEFAULT_BINDING_SOLVER_CAPACITY)
    }
}

impl<S: Semiring> BindingSolvers<S> {
    fn with_capacity(capacity: usize) -> BindingSolvers<S> {
        BindingSolvers {
            inner: Arc::new(Mutex::new(BindingSolversInner {
                entries: HashMap::new(),
                stamp: 0,
                capacity: capacity.max(1),
            })),
        }
    }

    /// Removes and returns the solver for `key`, leaving the slot
    /// empty while the caller solves outside the lock.
    fn take(&self, key: &(Var, Vec<Val>)) -> Option<BindingEntry<S>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.entries.remove(key)
    }

    /// Puts a solver back (or registers a fresh one), batch-evicting
    /// the least-recently-used entries at capacity. If a racing
    /// negotiation re-created the same shape meanwhile,
    /// last-writer-wins — each solve is self-contained, so dropping
    /// the loser only costs its warm state.
    fn put(&self, key: (Var, Vec<Val>), solver: IncrementalSolver<S>, id: ConstraintId) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.stamp += 1;
        let stamp = inner.stamp;
        if inner.entries.len() >= inner.capacity && !inner.entries.contains_key(&key) {
            // Drop the oldest `capacity / EVICTION_DIVISOR` entries in
            // one O(n) pass instead of scanning for a single victim on
            // every insert at capacity — the same amortized scheme as
            // the core component cache.
            let k = (inner.capacity / EVICTION_DIVISOR)
                .max(1)
                .min(inner.entries.len());
            let mut stamps: Vec<u64> = inner.entries.values().map(|e| e.stamp).collect();
            let (_, cutoff, _) = stamps.select_nth_unstable(k - 1);
            let cutoff = *cutoff;
            inner.entries.retain(|_, e| e.stamp > cutoff);
        }
        inner
            .entries
            .insert(key, BindingEntry { solver, id, stamp });
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }
}

/// Epoch-versioned registry storage: the published registry lives
/// behind an [`Arc`] that every write replaces, so readers take a cheap
/// [`RegistrySnapshot`] (an `Arc` clone under a momentary lock) and
/// never block on — or observe a partial state from — a writer. The
/// replacement is cheap because [`Registry`] is copy-on-write by shard:
/// a writer stages a clone that shares every shard with the published
/// registry, and its publish or deregister copies only the shards it
/// touches. Each write bumps the epoch; [`SolveCache`] entries are
/// stamped with the epoch they were computed under so eviction can
/// prefer stale rounds.
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

    fn epoch(&self) -> u64 {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .0
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
/// — which shares every shard it has not yet written with the published
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

/// A cross-round cache of binding-solve witnesses.
///
/// Negotiation re-solves near-identical single-variable problems on
/// every provider, relaxation rung and chaos retry. The cache keys each
/// binding problem by a structural hash (variable, domain, a few probe
/// levels of the agreed store's policy) and remembers the winning
/// domain value; the next structurally matching solve re-evaluates that
/// witness on its *own* store — so the seeded level is achievable by
/// construction, even across hash collisions — and hands it to
/// [`BranchAndBound::solve_seeded`] as a warm incumbent. Hits are
/// counted on the `solver.warm_hits` telemetry counter.
///
/// Clones share the underlying table, so a cloned [`Broker`] keeps
/// benefiting from (and feeding) the same cache.
/// The table is bounded: each entry carries the registry epoch it was
/// computed under and a last-use stamp, and at capacity (default
/// [`DEFAULT_BINDING_CACHE_CAPACITY`], tunable via
/// [`Broker::with_cache_capacity`]) the entry from the stalest epoch —
/// least recently used within it — is evicted. A sustained churn
/// stream therefore keeps memory flat instead of growing one entry per
/// store shape ever seen.
#[derive(Debug, Clone)]
pub(crate) struct SolveCache {
    inner: Arc<Mutex<SolveCacheInner>>,
}

#[derive(Debug)]
struct SolveCacheInner {
    entries: HashMap<u64, CacheEntry>,
    stamp: u64,
    capacity: usize,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    witness: Val,
    epoch: u64,
    stamp: u64,
}

/// Default bound on cached binding witnesses.
pub(crate) const DEFAULT_BINDING_CACHE_CAPACITY: usize = 1024;

/// At capacity, both broker caches drop the oldest
/// `capacity / EVICTION_DIVISOR` entries (at least one) in one pass,
/// making eviction amortized-constant per insert under sustained churn
/// (mirrors the core component cache's scheme).
const EVICTION_DIVISOR: usize = 10;

impl Default for SolveCache {
    fn default() -> SolveCache {
        SolveCache::with_capacity(DEFAULT_BINDING_CACHE_CAPACITY)
    }
}

impl SolveCache {
    fn with_capacity(capacity: usize) -> SolveCache {
        SolveCache {
            inner: Arc::new(Mutex::new(SolveCacheInner {
                entries: HashMap::new(),
                stamp: 0,
                capacity: capacity.max(1),
            })),
        }
    }

    fn lookup(&self, key: u64) -> Option<Val> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.stamp += 1;
        let stamp = inner.stamp;
        let entry = inner.entries.get_mut(&key)?;
        entry.stamp = stamp;
        Some(entry.witness.clone())
    }

    fn store(&self, key: u64, witness: Val, epoch: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.stamp += 1;
        let stamp = inner.stamp;
        if inner.entries.len() >= inner.capacity && !inner.entries.contains_key(&key) {
            // Batch-evict from the stalest epochs first, LRU within
            // them: drop the oldest `capacity / EVICTION_DIVISOR`
            // entries (at least one) in a single O(n) pass, so
            // sustained churn pays amortized-constant eviction cost
            // instead of a full scan per insert.
            let k = (inner.capacity / EVICTION_DIVISOR)
                .max(1)
                .min(inner.entries.len());
            let mut order: Vec<(u64, u64)> =
                inner.entries.values().map(|e| (e.epoch, e.stamp)).collect();
            let (_, cutoff, _) = order.select_nth_unstable(k - 1);
            let cutoff = *cutoff;
            inner.entries.retain(|_, e| (e.epoch, e.stamp) > cutoff);
        }
        inner.entries.insert(
            key,
            CacheEntry {
                witness,
                epoch,
                stamp,
            },
        );
    }

    pub(crate) fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }
}

/// Domain points probed when hashing a binding problem: enough to
/// separate stores that differ anywhere a small problem can differ,
/// cheap enough that a key never costs more than a handful of evals.
const KEY_PROBES: usize = 4;

/// The structural hash (FNV-1a) of a single-variable binding problem.
///
/// Collisions are a heuristic miss, never an unsoundness: the cached
/// witness is re-evaluated on the actual store before seeding.
fn binding_key<S: Semiring>(variable: &Var, domain: &Domain, sigma: &Constraint<S>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let eat = |hash: &mut u64, bytes: &[u8]| {
        for &b in bytes {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&mut hash, variable.name().as_bytes());
    let values = domain.values();
    eat(&mut hash, format!("{values:?}").as_bytes());
    let probes = values.len().min(KEY_PROBES);
    for k in 0..probes {
        let i = if probes > 1 {
            k * (values.len() - 1) / (probes - 1)
        } else {
            0
        };
        let level = sigma.eval(&Assignment::new().bind(variable.clone(), values[i].clone()));
        eat(&mut hash, format!("{level:?}").as_bytes());
    }
    hash
}

impl<S: Residuated> Broker<S> {
    /// Creates a broker over a registry.
    pub fn new(semiring: S, registry: Registry) -> Broker<S> {
        Broker {
            semiring,
            registry: EpochRegistry::new(registry),
            telemetry: Telemetry::disabled(),
            cache: SolveCache::default(),
            // Binding problems are tiny: sequential search wins, and
            // the default root propagation / decomposition are no-ops
            // on a single variable.
            solver: SolverConfig::default().with_parallelism(Parallelism::Sequential),
            incremental: false,
            binding_solvers: BindingSolvers::default(),
            contention: crate::contention::ContentionState::default(),
        }
    }

    /// Routes binding solves through persistent per-problem
    /// [`IncrementalSolver`]s: each negotiation round applies the
    /// agreed store as an `update` delta instead of building a fresh
    /// problem, re-searching only when the policy actually changed and
    /// warm-starting from the previous round's optimum. Identical
    /// agreed levels and bindings; work avoided is reported on the
    /// `solver.incremental.*` telemetry family.
    pub fn with_incremental(mut self, incremental: bool) -> Broker<S> {
        self.incremental = incremental;
        self
    }

    /// Bounds the binding-witness cache (entries, not bytes). Existing
    /// entries are kept; the bound applies from the next insertion.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Broker<S> {
        self.cache = SolveCache::with_capacity(capacity);
        self
    }

    /// Applies a [`BrokerConfig`], replacing both bounded tables with
    /// fresh ones at the configured capacities. Call before the broker
    /// is cloned or used — the replaced tables are no longer shared
    /// with pre-existing clones.
    pub fn with_broker_config(mut self, config: BrokerConfig) -> Broker<S> {
        self.cache = SolveCache::with_capacity(config.binding_cache_capacity);
        self.binding_solvers = BindingSolvers::with_capacity(config.binding_solver_capacity);
        self
    }

    /// Overrides the engine configuration used for binding solves
    /// (propagation mode, decomposition, parallelism, bounds). Any
    /// configuration yields the same agreed levels; this is a
    /// performance knob surfaced to the CLI's `--propagate` and
    /// `--decompose` flags.
    pub fn with_solver_config(mut self, solver: SolverConfig) -> Broker<S> {
        self.solver = solver;
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
    /// shards, so a write copies only the shards it touches, and
    /// publish atomically — bumping the registry epoch to
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
        let agreements = self.negotiate_all(request, translate)?;
        // Keep the maximal agreed levels (non-dominated under the
        // semiring order), then the first by service id.
        agreements
            .into_iter()
            .fold(None::<Sla<S>>, |best, sla| match best {
                None => Some(sla),
                Some(best) => {
                    if self.semiring.lt(&best.agreed_level, &sla.agreed_level) {
                        Some(sla)
                    } else {
                        Some(best)
                    }
                }
            })
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
        self.telemetry
            .gauge("broker.registry.epoch", registry.epoch() as i64);
        let candidates = registry.discover(&request.capability);
        if candidates.is_empty() {
            return Err(NegotiationError::NoProvider(request.capability.clone()));
        }
        // Reject contradictory acceptance intervals up front (Fig. 3's
        // side conditions): they would silently suspend every session.
        let domains = Domains::new().with(request.variable.clone(), request.domain.clone());
        if matches!(
            request.acceptance.validate(&self.semiring, &domains),
            Err(softsoa_nmsccp::ValidationError::Invalid(_))
        ) {
            return Err(NegotiationError::InvalidAcceptance(
                request.capability.clone(),
            ));
        }
        // The client side of the session is provider-independent: build
        // its agent (and the session domains) once instead of
        // re-translating the client policy for every provider.
        let client = Agent::tell(
            request.constraint.clone(),
            Interval::any(&self.semiring),
            Agent::ask(
                Constraint::always(self.semiring.clone()),
                request.acceptance.clone(),
                Agent::success(),
            ),
        );
        let mut agreements = Vec::new();
        for service in candidates {
            if let Some(sla) =
                self.negotiate_one(request, service, &client, &domains, &translate)?
            {
                agreements.push(sla);
            }
        }
        Ok(agreements)
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

    /// Runs the nmsccp negotiation session against one provider
    /// (steps 3–4); `None` means the session failed the acceptance
    /// check.
    fn negotiate_one<F>(
        &self,
        request: &NegotiationRequest<S>,
        service: &ServiceDescription,
        client: &Agent<S>,
        domains: &Domains,
        translate: &F,
    ) -> Result<Option<Sla<S>>, NegotiationError>
    where
        F: Fn(&QosOffer) -> Constraint<S>,
    {
        // Translate the offers concerning the negotiation variable.
        let Some(provider_constraint) =
            provider_constraint(service, request.variable.name(), translate)
        else {
            return Ok(None);
        };

        // The provider agent publishes its policy; the (precompiled)
        // client agent publishes its own and then checks the agreement
        // interval.
        let provider = Agent::tell(
            provider_constraint,
            Interval::any(&self.semiring),
            Agent::success(),
        );
        let store = Store::empty(self.semiring.clone(), domains.clone());
        let session_start = self.telemetry.enabled().then(std::time::Instant::now);
        self.telemetry.incr("broker.sessions");
        let report = Interpreter::new(Program::new())
            .with_telemetry(self.telemetry.clone())
            .run(Agent::par(provider, client.clone()), store)?;
        if let Some(start) = session_start {
            self.telemetry.timing_labeled(
                "broker.provider.latency",
                service.id.as_str(),
                start.elapsed(),
            );
        }

        let final_store = match report.outcome {
            Outcome::Success { store } => store,
            _ => {
                self.telemetry
                    .count_labeled("broker.provider.rejections", service.id.as_str(), 1);
                return Ok(None);
            }
        };
        self.telemetry
            .count_labeled("broker.provider.agreements", service.id.as_str(), 1);
        let agreed_level = final_store.consistency().map_err(SemanticsError::from)?;

        // The concrete binding: the best value of the negotiation
        // variable under the agreed store.
        let solution =
            self.solve_binding(&request.variable, &request.domain, final_store.sigma())?;
        let binding = solution.best().first().cloned();

        Ok(Some(Sla {
            service: service.id.clone(),
            provider: service.provider.clone(),
            agreed_level,
            binding,
        }))
    }

    /// Solves the single-variable binding problem, warm-starting the
    /// incumbent from a structurally matching previous round's witness
    /// (see [`SolveCache`]). Identical `blevel` and first-best binding
    /// as the cold reference solve; warm hits increment the
    /// `solver.warm_hits` telemetry counter and the run's stats flow
    /// out on the usual `solve.*` / `solver.bound_prunes` families.
    pub(crate) fn solve_binding(
        &self,
        variable: &Var,
        domain: &Domain,
        sigma: &Constraint<S>,
    ) -> Result<Solution<S>, SolveError> {
        if self.incremental && self.semiring.is_total() {
            return self.solve_binding_incremental(variable, domain, sigma);
        }
        let problem = Scsp::new(self.semiring.clone())
            .with_domain(variable.clone(), domain.clone())
            .with_constraint(sigma.clone())
            .of_interest([variable.clone()]);
        if !self.semiring.is_total() {
            // Partially ordered QoS: stay on the reference solver.
            let solution = problem.solve()?;
            if let Some(stats) = solution.stats() {
                stats.emit(&self.telemetry, "binding");
            }
            return Ok(solution);
        }

        let key = binding_key(variable, domain, sigma);
        let seed = self.cache.lookup(key).and_then(|witness| {
            domain
                .values()
                .contains(&witness)
                .then(|| sigma.eval(&Assignment::new().bind(variable.clone(), witness)))
        });
        // Branch-and-bound in input order reproduces the reference
        // solver's lexicographically first best binding,
        // witness-exactly, warm or cold, under every engine
        // configuration (single-variable problems have one component
        // and propagation preserves the first witness).
        let solver = BranchAndBound::with_config(VarOrder::Input, self.solver);
        let solution = match seed {
            Some(level) if !self.semiring.is_zero(&level) => {
                self.telemetry.incr("solver.warm_hits");
                solver.solve_seeded(&problem, level)?
            }
            _ => solver.solve(&problem)?,
        };
        if let Some(stats) = solution.stats() {
            stats.emit(&self.telemetry, "binding");
        }
        if let Some((eta, _)) = solution.best().first() {
            if let Some(val) = eta.get(variable) {
                self.cache.store(key, val.clone(), self.registry.epoch());
                self.telemetry
                    .gauge("broker.cache.entries", self.cache.len() as i64);
            }
        }
        Ok(solution)
    }

    /// The `--incremental` binding path: a persistent
    /// [`IncrementalSolver`] per `(variable, domain)` shape receives
    /// the agreed store as an `update_constraint` delta and re-solves
    /// only what the delta dirtied, warm-starting from the previous
    /// round's witness. Same `blevel` and first-best binding as the
    /// from-scratch path (the differential harness in
    /// `tests/incremental_properties.rs` pins this).
    fn solve_binding_incremental(
        &self,
        variable: &Var,
        domain: &Domain,
        sigma: &Constraint<S>,
    ) -> Result<Solution<S>, SolveError> {
        let key = (variable.clone(), domain.values().to_vec());
        // Take the persistent solver out of the shared table (or build
        // a fresh one) so the solve itself runs without the lock:
        // concurrent incremental negotiations on cloned brokers must
        // not serialize on each other's searches.
        let (mut solver, id) = match self.binding_solvers.take(&key) {
            Some(entry) => {
                let mut solver = entry.solver;
                solver.update_constraint(entry.id, sigma.clone());
                (solver, entry.id)
            }
            None => {
                let mut solver = IncrementalSolver::new(self.semiring.clone())
                    .with_domain(variable.clone(), domain.clone())
                    .of_interest([variable.clone()])
                    .with_config(VarOrder::Input, self.solver);
                let id = solver.add_constraint(sigma.clone());
                (solver, id)
            }
        };
        let before = solver.stats().clone();
        let solution = solver.solve();
        let after = solver.stats().clone();
        // Re-insert even on error: the solver's state stays valid and
        // the next round may still reuse it.
        self.binding_solvers.put(key, solver, id);
        let solution = solution?;
        self.telemetry.incr("solver.incremental.solves");
        self.telemetry
            .count("solver.incremental.deltas", after.deltas - before.deltas);
        self.telemetry.count(
            "solver.incremental.components_resolved",
            after.components_resolved - before.components_resolved,
        );
        self.telemetry.count(
            "solver.incremental.components_reused",
            after.components_reused - before.components_reused,
        );
        self.telemetry.count(
            "solver.incremental.warm_seeds",
            after.warm_seeds - before.warm_seeds,
        );
        self.telemetry.gauge(
            "solver.incremental.reuse_ratio_permille",
            (after.reuse_ratio() * 1000.0) as i64,
        );
        Ok(solution)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OfferShape, QosDocument};
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
        let sla = broker
            .negotiate(&fig5_request(), QosOffer::to_fuzzy)
            .unwrap();
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
        let sla = broker
            .negotiate(&fig5_request(), QosOffer::to_fuzzy)
            .unwrap();
        assert_eq!(sla.service, ServiceId::new("svc-flat"));
        assert_eq!(sla.agreed_level, Unit::new(0.8).unwrap());
    }

    #[test]
    fn acceptance_interval_rejects_poor_agreements() {
        let mut registry = Registry::new();
        // The provider's preference peaks at 0.2: below the client's
        // floor of 0.3.
        registry.publish(fuzzy_provider("svc-bad", vec![(1, 0.2), (9, 0.2)]));
        let broker = Broker::new(Fuzzy, registry);
        let err = broker
            .negotiate(&fig5_request(), QosOffer::to_fuzzy)
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
        let err = broker.negotiate(&request, QosOffer::to_fuzzy).unwrap_err();
        assert!(matches!(err, NegotiationError::InvalidAcceptance(_)));
    }

    #[test]
    fn missing_capability_is_no_provider() {
        let broker = Broker::new(Fuzzy, Registry::new());
        let err = broker
            .negotiate(&fig5_request(), QosOffer::to_fuzzy)
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
            .negotiate(&fig5_request(), QosOffer::to_fuzzy)
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
            broker.negotiate(&request, QosOffer::to_weighted),
            Err(NegotiationError::NoAgreement(_))
        ));
        // Conceding c1 = x + 3 reaches level 2.
        let c1 = Constraint::unary(Weighted, "x", |v| {
            Weight::saturating(v.as_int().unwrap() as f64 + 3.0)
        });
        let (sla, concessions) = broker
            .negotiate_with_relaxation(&request, &[c1], QosOffer::to_weighted)
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
            .negotiate_with_relaxation(&request, &[], QosOffer::to_weighted)
            .unwrap_err();
        assert!(matches!(err, NegotiationError::NoAgreement(_)));
    }

    #[test]
    fn repeated_negotiations_warm_start_and_agree() {
        let mut registry = Registry::new();
        registry.publish(fuzzy_provider("svc-1", vec![(1, 1.0), (9, 0.0)]));
        let (telemetry, sink) = Telemetry::recording();
        let broker = Broker::new(Fuzzy, registry).with_telemetry(telemetry);
        let cold = broker
            .negotiate(&fig5_request(), QosOffer::to_fuzzy)
            .unwrap();
        assert_eq!(sink.snapshot().counters.get("solver.warm_hits"), None);
        // The second round re-solves the structurally identical binding
        // problem: a warm hit, with the identical agreement.
        let warm = broker
            .negotiate(&fig5_request(), QosOffer::to_fuzzy)
            .unwrap();
        assert_eq!(
            sink.snapshot().counters.get("solver.warm_hits"),
            Some(&1u64)
        );
        assert_eq!(warm.agreed_level, cold.agreed_level);
        assert_eq!(warm.binding, cold.binding);
        assert_eq!(warm.service, cold.service);
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
            .negotiate_all(&fig5_request(), QosOffer::to_fuzzy)
            .unwrap();

        let mut isolated = Vec::new();
        for (id, points) in &providers {
            let mut registry = Registry::new();
            registry.publish(fuzzy_provider(id, points.clone()));
            match Broker::new(Fuzzy, registry).negotiate_all(&fig5_request(), QosOffer::to_fuzzy) {
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
    fn solve_cache_stays_bounded_under_churn() {
        // Regression: the binding cache used to be an unbounded
        // HashMap; a churning registry (every provider reshaping its
        // policy each round) grew it one entry per store shape ever
        // seen. It must stay at its capacity.
        let mut registry = Registry::new();
        registry.publish(fuzzy_provider("svc-1", vec![(1, 1.0), (9, 0.0)]));
        let broker = Broker::new(Fuzzy, registry).with_cache_capacity(8);
        let request = fig5_request();
        for round in 0..64u64 {
            // A distinct policy each round → a distinct structural key.
            let wobble = (round % 32) as f64 / 64.0;
            let sigma = Constraint::unary(Fuzzy, "x", move |v| {
                Unit::clamped((v.as_int().unwrap() as f64 - 1.0) / 8.0 - wobble)
            });
            broker
                .solve_binding(&request.variable, &request.domain, &sigma)
                .unwrap();
        }
        assert!(broker.cache.len() <= 8, "cache grew past its capacity");
    }

    #[test]
    fn solve_cache_evicts_stalest_epoch_first() {
        // Pins the eviction order of the amortized batch scheme: at
        // capacity 4 each pass drops max(4/10, 1) = 1 entry, and the
        // victim is from the stalest (epoch, stamp) pair.
        let cache = SolveCache::with_capacity(4);
        cache.store(1, Val::Int(1), 5);
        cache.store(2, Val::Int(2), 1); // stalest epoch → first victim
        cache.store(3, Val::Int(3), 5);
        cache.store(4, Val::Int(4), 3); // next-stalest → second victim
        cache.store(5, Val::Int(5), 5);
        assert!(cache.lookup(2).is_none(), "stalest epoch must go first");
        cache.store(6, Val::Int(6), 5);
        assert!(cache.lookup(4).is_none(), "then the next-stalest epoch");
        for key in [1, 3, 5, 6] {
            assert!(cache.lookup(key).is_some(), "fresh entry {key} evicted");
        }
    }

    #[test]
    fn solve_cache_evicts_lru_within_an_epoch_in_batches() {
        // Same epoch everywhere → order falls back to the use stamp,
        // and capacity 20 drops 20/10 = 2 entries per eviction pass.
        let cache = SolveCache::with_capacity(20);
        for key in 0..20u64 {
            cache.store(key, Val::Int(key as i64), 7);
        }
        // Refresh key 0 so keys 1 and 2 hold the two oldest stamps.
        assert!(cache.lookup(0).is_some());
        cache.store(100, Val::Int(100), 7);
        assert_eq!(cache.len(), 19, "one batch pass drops two entries");
        assert!(cache.lookup(1).is_none(), "oldest stamp evicted");
        assert!(cache.lookup(2).is_none(), "second-oldest stamp evicted");
        assert!(cache.lookup(0).is_some(), "refreshed entry survives");
        assert!(cache.lookup(3).is_some(), "third-oldest survives the batch");
        // The next insert fits in the freed slot without evicting.
        cache.store(101, Val::Int(101), 7);
        assert_eq!(cache.len(), 20);
        assert!(cache.lookup(3).is_some());
    }

    #[test]
    fn binding_solvers_evict_least_recently_used_shapes() {
        let solvers: BindingSolvers<Fuzzy> = BindingSolvers::with_capacity(3);
        let shape = |name: &str| (Var::new(name), vec![Val::Int(1), Val::Int(2)]);
        let entry = || {
            let mut solver = IncrementalSolver::new(Fuzzy)
                .with_domain(Var::new("x"), Domain::ints(1..=2))
                .of_interest([Var::new("x")]);
            let id = solver.add_constraint(Constraint::unary(Fuzzy, "x", |_| Unit::MAX));
            (solver, id)
        };
        for name in ["a", "b", "c"] {
            let (solver, id) = entry();
            solvers.put(shape(name), solver, id);
        }
        // Refresh "a" (take + put bumps its stamp) so "b" is the LRU.
        let refreshed = solvers.take(&shape("a")).expect("entry a present");
        solvers.put(shape("a"), refreshed.solver, refreshed.id);
        let (solver, id) = entry();
        solvers.put(shape("d"), solver, id);
        assert_eq!(solvers.len(), 3);
        assert!(solvers.take(&shape("b")).is_none(), "LRU shape evicted");
        for name in ["a", "c", "d"] {
            assert!(solvers.take(&shape(name)).is_some(), "{name} survived");
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
    fn binding_solvers_stay_bounded_under_domain_churn() {
        // Regression: the per-shape solver table was unbounded — a
        // churn stream whose domains vary grew one persistent solver
        // per shape ever seen.
        let broker = Broker::new(Fuzzy, Registry::new()).with_incremental(true);
        let variable = Var::new("x");
        for round in 0..(3 * DEFAULT_BINDING_SOLVER_CAPACITY as i64) {
            // A distinct domain each round → a distinct solver shape.
            let domain = Domain::ints(0..=(1 + round % 150));
            let sigma = Constraint::unary(Fuzzy, "x", |v| {
                Unit::clamped(v.as_int().unwrap() as f64 / 200.0)
            });
            broker.solve_binding(&variable, &domain, &sigma).unwrap();
        }
        assert!(
            broker.binding_solvers.len() <= DEFAULT_BINDING_SOLVER_CAPACITY,
            "solver table grew past its capacity"
        );
    }

    #[test]
    fn capacity_one_broker_config_still_solves() {
        // The tightest possible BrokerConfig (both tables bounded at a
        // single entry) must change nothing about negotiation results:
        // caches and persistent solvers are performance state only.
        let mut registry = Registry::new();
        registry.publish(fuzzy_provider("svc-1", vec![(1, 1.0), (9, 0.0)]));
        registry.publish(fuzzy_provider("svc-flat", vec![(1, 0.8), (9, 0.8)]));
        let reference = Broker::new(Fuzzy, registry.clone());
        let tight = Broker::new(Fuzzy, registry)
            .with_broker_config(BrokerConfig {
                binding_cache_capacity: 1,
                binding_solver_capacity: 1,
            })
            .with_incremental(true);
        for round in 0..4 {
            let a = reference
                .negotiate(&fig5_request(), QosOffer::to_fuzzy)
                .unwrap();
            let b = tight
                .negotiate(&fig5_request(), QosOffer::to_fuzzy)
                .unwrap();
            assert_eq!(a.agreed_level, b.agreed_level, "round {round}");
            assert_eq!(a.binding, b.binding, "round {round}");
            // Distinct shapes each round keep evicting the single slot.
            let domain = Domain::ints(0..=(2 + round));
            let sigma = Constraint::unary(Fuzzy, "x", |v| {
                Unit::clamped(v.as_int().unwrap() as f64 / 10.0)
            });
            let solution = tight
                .solve_binding(&Var::new("x"), &domain, &sigma)
                .unwrap();
            let witness = solution
                .best_assignment()
                .and_then(|a| a.get(&Var::new("x")))
                .cloned();
            assert_eq!(witness, Some(Val::Int(2 + round)));
        }
        assert!(tight.binding_solvers.len() <= 1);
        assert!(tight.cache.len() <= 1);
    }

    #[test]
    fn incremental_bindings_match_from_scratch() {
        let mut registry = Registry::new();
        registry.publish(fuzzy_provider("svc-1", vec![(1, 1.0), (9, 0.0)]));
        registry.publish(fuzzy_provider("svc-flat", vec![(1, 0.8), (9, 0.8)]));
        let (telemetry, sink) = Telemetry::recording();
        let cold = Broker::new(Fuzzy, registry);
        let warm = cold
            .clone()
            .with_incremental(true)
            .with_telemetry(telemetry);
        // Several rounds (the second exercises the delta path on the
        // persistent solvers): identical agreements throughout.
        for _ in 0..3 {
            let a = cold.negotiate(&fig5_request(), QosOffer::to_fuzzy).unwrap();
            let b = warm.negotiate(&fig5_request(), QosOffer::to_fuzzy).unwrap();
            assert_eq!(a.agreed_level, b.agreed_level);
            assert_eq!(a.binding, b.binding);
            assert_eq!(a.service, b.service);
        }
        let snapshot = sink.snapshot();
        assert!(
            snapshot.counters.get("solver.incremental.solves").copied() >= Some(6),
            "every binding went through the incremental engine"
        );
        assert!(
            snapshot
                .counters
                .get("solver.incremental.warm_seeds")
                .copied()
                >= Some(1),
            "later rounds warm-start from the previous optimum"
        );
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
        let sla = broker.negotiate(&request, QosOffer::to_weighted).unwrap();
        // Best at x = 0: cost 1.
        assert_eq!(sla.agreed_level, Weight::new(1.0).unwrap());
        let (eta, _) = sla.binding.unwrap();
        assert_eq!(eta.get(&Var::new("x")).unwrap().as_int(), Some(0));
    }
}
