//! Contention-aware allocation: fair multi-client negotiation under
//! declared provider capacities.
//!
//! The paper's protocol negotiates one client at a time, so when
//! several clients contend for a capacity-limited service the broker
//! degenerates to first-come-first-served: whoever arrives first takes
//! the best slot and a late client can *starve* indefinitely. This
//! module solves the joint problem for a whole batch instead. Each
//! provider may declare a concurrent-binding capacity
//! ([`crate::ServiceDescription::with_capacity`]); the broker gathers
//! every client's feasible agreements against **one** registry epoch
//! (via `Broker::negotiate_all_at`) and then picks the joint
//! assignment optimising a [`Fairness`] objective:
//!
//! - [`Fairness::Fcfs`] — the historical baseline: arrival order, best
//!   remaining slot;
//! - [`Fairness::Utilitarian`] — maximise total softness (sum of
//!   per-client utilities);
//! - [`Fairness::Leximin`] — max-min: raise the worst-off client
//!   first, then the next, … (egalitarian);
//! - [`Fairness::Nash`] — maximise the Nash product of utilities
//!   (proportional fairness between the two extremes).
//!
//! Utilities are *effective*: a client's agreed softness is blended
//! with its cross-batch history (cumulative softness over rounds
//! participated), so a client denied in earlier rounds has a low
//! effective utility and the leximin/Nash objectives grant it first —
//! scarce slots rotate instead of pinning to the earliest arrival.
//!
//! Objectives are scored through the [`Lex`] lexicographic semiring
//! combinator: leximin compares `(min utility, Nash product)` pairs,
//! Nash compares `(Nash product, min utility)`, utilitarian
//! `(mean utility, min utility)` — the secondary tier breaks ties so
//! allocation is deterministic.
//!
//! For batches of up to [`MAX_EXACT_CLIENTS`] clients the allocator is
//! *exact*: a subset-DP over services and client bitmasks (the same
//! `O(services · 3^n)` idiom as coalition formation's
//! `exact_formation`). Larger batches fall back to greedy progressive
//! filling, which preserves the starvation-rotation property.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

use softsoa_core::Constraint;
use softsoa_semiring::{Lex, Probabilistic, Semiring, Unit};

use crate::broker::{Broker, NegotiationRequest, RegistrySnapshot, Sla};
use crate::qos::QosOffer;
use crate::registry::ServiceId;
use crate::server::protocol::WireSemiring;

/// Largest batch solved exactly by the subset-DP; larger batches use
/// greedy progressive filling. `O(services · 3^n)` states: at 10
/// clients that is ~59 k masks per service.
pub const MAX_EXACT_CLIENTS: usize = 10;

/// Feasible agreements kept per client (best-softness first). Bounds
/// the service set the DP iterates over.
const MAX_CANDIDATES_PER_CLIENT: usize = 6;

/// The joint-allocation objective for a contended batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fairness {
    /// First-come-first-served: the historical per-client protocol,
    /// reproduced as a baseline. Arrival order, best remaining slot.
    Fcfs,
    /// Maximise the sum of effective utilities (total welfare,
    /// starvation-blind).
    Utilitarian,
    /// Maximise the minimum effective utility, ties broken by the next
    /// smallest, … (egalitarian max-min).
    #[default]
    Leximin,
    /// Maximise the product of effective utilities (proportional
    /// fairness).
    Nash,
}

impl Fairness {
    /// Every objective, in wire-name order.
    pub const ALL: [Fairness; 4] = [
        Fairness::Fcfs,
        Fairness::Utilitarian,
        Fairness::Leximin,
        Fairness::Nash,
    ];

    /// The objective's wire/CLI name.
    pub fn as_str(self) -> &'static str {
        match self {
            Fairness::Fcfs => "fcfs",
            Fairness::Utilitarian => "utilitarian",
            Fairness::Leximin => "leximin",
            Fairness::Nash => "nash",
        }
    }

    /// Parses a wire/CLI name (`fcfs`, `utilitarian`, `leximin`,
    /// `nash`).
    pub fn parse(name: &str) -> Option<Fairness> {
        Fairness::ALL.into_iter().find(|f| f.as_str() == name)
    }
}

impl fmt::Display for Fairness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One client's request inside a contended batch.
#[derive(Debug, Clone)]
pub struct ContendedRequest<S: Semiring> {
    /// Stable client identity — the key of the cross-batch fairness
    /// ledger (grants, starvation age).
    pub client: String,
    /// The negotiation the client wants served.
    pub request: NegotiationRequest<S>,
}

/// What a contended batch decided for one client.
#[derive(Debug, Clone)]
pub enum ContentionOutcome<S: Semiring> {
    /// The client was bound to a service.
    Granted(Sla<S>),
    /// The client had feasible agreements and would have been granted
    /// under FCFS, but the fairness objective gave its slot to a
    /// worse-off client this round.
    Preempted,
    /// The client had feasible agreements but lost the capacity race
    /// even under FCFS; `age` counts its consecutive unserved rounds.
    Waitlisted {
        /// Consecutive rounds this client has gone ungranted.
        age: u64,
    },
    /// No provider produced an agreement inside the client's
    /// acceptance interval (capacity was not the obstacle).
    Unserved,
}

impl<S: Semiring> ContentionOutcome<S> {
    /// The outcome's wire label (`granted`, `preempted`, `waitlisted`,
    /// `unserved`).
    pub fn label(&self) -> &'static str {
        match self {
            ContentionOutcome::Granted(_) => "granted",
            ContentionOutcome::Preempted => "preempted",
            ContentionOutcome::Waitlisted { .. } => "waitlisted",
            ContentionOutcome::Unserved => "unserved",
        }
    }
}

/// Batch-level fairness metrics, computed over the effective-utility
/// vector the allocator optimised.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FairnessReport {
    /// Clients in the batch.
    pub clients: usize,
    /// Clients granted a binding.
    pub granted: usize,
    /// Clients preempted by the fairness objective (FCFS would have
    /// served them).
    pub preempted: usize,
    /// Clients waitlisted (unserved even under FCFS).
    pub waitlisted: usize,
    /// Clients with no feasible agreement at all.
    pub unserved: usize,
    /// Jain's fairness index over effective utilities: `(Σe)² / (n·Σe²)`,
    /// 1.0 when perfectly even.
    pub jain: f64,
    /// The worst client's effective utility.
    pub min_utility: f64,
    /// Total softness across granted bindings (the utilitarian
    /// objective value).
    pub sum_softness: f64,
    /// Softness spread across granted bindings (max − min; 0 with
    /// fewer than two grants).
    pub spread: f64,
    /// The oldest starvation age after this round (0 when every client
    /// with candidates was granted).
    pub max_starvation_age: u64,
}

/// The result of one contended batch: per-client outcomes plus the
/// fairness report, all decided against a single registry epoch.
#[derive(Debug, Clone)]
pub struct ContendedAllocation<S: Semiring> {
    /// The registry epoch every client in the batch was admitted
    /// against.
    pub epoch: u64,
    /// The objective that produced the assignment.
    pub fairness: Fairness,
    /// `(client, outcome)` in batch arrival order.
    pub outcomes: Vec<(String, ContentionOutcome<S>)>,
    /// Batch-level fairness metrics.
    pub report: FairnessReport,
}

/// Cross-batch contention history, shared across broker clones so
/// every worker's joint allocations see the same fairness ledger.
#[derive(Debug, Clone, Default)]
pub struct ContentionState {
    inner: Arc<Mutex<ContentionLedger>>,
}

#[derive(Debug, Default)]
struct ContentionLedger {
    round: u64,
    clients: HashMap<String, ClientHistory>,
}

/// One client's ledger entry.
#[derive(Debug, Clone, Copy, Default)]
struct ClientHistory {
    /// Contended rounds this client has participated in.
    rounds: u64,
    /// Cumulative softness over granted rounds.
    cum: f64,
    /// Consecutive rounds without a grant.
    age: u64,
}

impl ClientHistory {
    /// Effective utility if denied this round: the historical mean
    /// softness discounted by one more (empty-handed) round.
    fn denied_utility(&self) -> f64 {
        self.cum / (1.0 + self.rounds as f64)
    }

    /// Effective utility if granted `softness` this round.
    fn granted_utility(&self, softness: f64) -> f64 {
        (self.cum + softness) / (1.0 + self.rounds as f64)
    }
}

impl ContentionState {
    /// Snapshots the ledger entries for a batch's clients.
    fn snapshot(&self, clients: impl Iterator<Item = impl AsRef<str>>) -> Vec<ClientHistory> {
        let ledger = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        clients
            .map(|c| ledger.clients.get(c.as_ref()).copied().unwrap_or_default())
            .collect()
    }

    /// Folds one round's results into the ledger: every participant
    /// ages or resets, grants accumulate softness.
    fn record<'a>(&self, results: impl Iterator<Item = (&'a str, Option<f64>)>) {
        let mut ledger = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        ledger.round += 1;
        for (client, grant) in results {
            let entry = ledger.clients.entry(client.to_owned()).or_default();
            entry.rounds += 1;
            match grant {
                Some(softness) => {
                    entry.cum += softness;
                    entry.age = 0;
                }
                None => entry.age += 1,
            }
        }
    }
}

/// One feasible agreement for one client.
struct Candidate<S: Semiring> {
    sla: Sla<S>,
    softness: f64,
}

impl<S: WireSemiring> Broker<S> {
    /// Negotiates a *batch* of contending clients jointly.
    ///
    /// All clients are admitted against a single registry epoch; each
    /// declared service capacity is honoured as a slot budget across
    /// the whole batch; the assignment optimises `fairness` over
    /// *effective* utilities (agreed softness blended with each
    /// client's cross-batch grant history, so starvation raises a
    /// client's priority). Infeasibility is per-client, never an
    /// error: a client without agreements is reported
    /// [`ContentionOutcome::Unserved`] while the rest of the batch
    /// proceeds.
    ///
    /// # Examples
    ///
    /// ```
    /// use softsoa_core::{Constraint, Domain, Var};
    /// use softsoa_nmsccp::Interval;
    /// use softsoa_semiring::{Fuzzy, Unit};
    /// use softsoa_soa::*;
    /// use softsoa_dependability::Attribute;
    ///
    /// let mut registry = Registry::new();
    /// registry.publish(
    ///     ServiceDescription::new(
    ///         "svc-1", "acme", "web-service",
    ///         QosDocument::new("svc-1").with_offer(QosOffer {
    ///             attribute: Attribute::Reliability,
    ///             variable: "x".into(),
    ///             shape: OfferShape::Piecewise { points: vec![(1, 0.8), (9, 0.8)] },
    ///         }))
    ///     .with_capacity(1),
    /// );
    ///
    /// let request = NegotiationRequest {
    ///     capability: "web-service".into(),
    ///     variable: Var::new("x"),
    ///     domain: Domain::ints(1..=9),
    ///     constraint: Constraint::always(Fuzzy),
    ///     acceptance: Interval::levels(Unit::new(0.3).unwrap(), Unit::MAX),
    /// };
    /// let batch: Vec<_> = ["alice", "bob"]
    ///     .iter()
    ///     .map(|c| ContendedRequest { client: c.to_string(), request: request.clone() })
    ///     .collect();
    ///
    /// let broker = Broker::new(Fuzzy, registry);
    /// let allocation = broker.negotiate_contended(&batch, Fairness::Leximin, QosOffer::to_fuzzy);
    /// // One slot, two clients: exactly one is granted.
    /// assert_eq!(allocation.report.granted, 1);
    /// assert_eq!(allocation.report.clients, 2);
    /// ```
    pub fn negotiate_contended<F>(
        &self,
        requests: &[ContendedRequest<S>],
        fairness: Fairness,
        translate: F,
    ) -> ContendedAllocation<S>
    where
        F: Fn(&QosOffer) -> Constraint<S>,
    {
        let registry = self.registry();
        let epoch = registry.epoch();
        let n = requests.len();
        if n == 0 {
            return ContendedAllocation {
                epoch,
                fairness,
                outcomes: Vec::new(),
                report: FairnessReport {
                    jain: 1.0,
                    ..FairnessReport::default()
                },
            };
        }

        // Step 1: every client's feasible agreements, all against the
        // same snapshot. Per-client failures (no provider, no level in
        // the acceptance interval) simply mean no candidates.
        let candidates: Vec<Vec<Candidate<S>>> = requests
            .iter()
            .map(|r| {
                let mut cands: Vec<Candidate<S>> = self
                    .negotiate_all_at(&registry, &r.request, &translate)
                    .map(|slas| {
                        slas.into_iter()
                            .map(|sla| Candidate {
                                softness: S::softness(&sla.agreed_level),
                                sla,
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                cands.sort_by(|a, b| {
                    b.softness
                        .total_cmp(&a.softness)
                        .then_with(|| a.sla.service.cmp(&b.sla.service))
                });
                cands.truncate(MAX_CANDIDATES_PER_CLIENT);
                cands
            })
            .collect();

        // Step 2: the slot budget per contended service. Undeclared
        // capacity means unlimited, which a batch of n can never
        // exhaust, so cap at n.
        let slots = slot_budget(&registry, &candidates, n);

        // Step 3: ledger snapshot → effective-utility inputs.
        let histories = self
            .contention
            .snapshot(requests.iter().map(|r| r.client.as_str()));

        // Step 4: the FCFS baseline (both the Fcfs objective itself
        // and the reference that distinguishes "preempted by fairness"
        // from "genuinely out of capacity").
        let fcfs = fcfs_allocate(&candidates, slots.clone());

        let assignment = match fairness {
            Fairness::Fcfs => fcfs.clone(),
            _ if n <= MAX_EXACT_CLIENTS => {
                exact_allocate(fairness, &candidates, &histories, &slots)
            }
            _ => greedy_allocate(fairness, &candidates, &histories, slots.clone()),
        };

        // Step 5: classify, update the ledger, report.
        let utilities = utility_vector(&assignment, &candidates, &histories);
        let mut outcomes = Vec::with_capacity(n);
        let mut max_starvation_age = 0u64;
        for (i, request) in requests.iter().enumerate() {
            let outcome = match assignment[i] {
                Some(j) => ContentionOutcome::Granted(candidates[i][j].sla.clone()),
                None => {
                    max_starvation_age = max_starvation_age.max(histories[i].age + 1);
                    if candidates[i].is_empty() {
                        ContentionOutcome::Unserved
                    } else if fcfs[i].is_some() {
                        ContentionOutcome::Preempted
                    } else {
                        ContentionOutcome::Waitlisted {
                            age: histories[i].age + 1,
                        }
                    }
                }
            };
            outcomes.push((request.client.clone(), outcome));
        }
        self.contention
            .record(requests.iter().enumerate().map(|(i, r)| {
                let grant = assignment[i].map(|j| candidates[i][j].softness);
                (r.client.as_str(), grant)
            }));

        let report = build_report(
            &outcomes,
            &assignment,
            &candidates,
            &utilities,
            max_starvation_age,
        );
        self.emit_fairness_telemetry(fairness, &report);

        ContendedAllocation {
            epoch,
            fairness,
            outcomes,
            report,
        }
    }

    fn emit_fairness_telemetry(&self, fairness: Fairness, report: &FairnessReport) {
        let t = &self.telemetry;
        t.count_labeled("fairness.batch", fairness.as_str(), 1);
        t.count("fairness.granted", report.granted as u64);
        t.count("fairness.preempted", report.preempted as u64);
        t.count("fairness.waitlisted", report.waitlisted as u64);
        t.count("fairness.unserved", report.unserved as u64);
        t.gauge("fairness.jain.milli", (report.jain * 1000.0).round() as i64);
        t.gauge(
            "fairness.min_utility.milli",
            (report.min_utility * 1000.0).round() as i64,
        );
        t.gauge(
            "fairness.spread.milli",
            (report.spread * 1000.0).round() as i64,
        );
        t.gauge("fairness.starvation.age", report.max_starvation_age as i64);
    }
}

/// Slot budget per service appearing in any candidate list.
fn slot_budget<S: Semiring>(
    registry: &RegistrySnapshot,
    candidates: &[Vec<Candidate<S>>],
    batch: usize,
) -> BTreeMap<ServiceId, usize> {
    let mut slots = BTreeMap::new();
    for cand in candidates.iter().flatten() {
        slots.entry(cand.sla.service.clone()).or_insert_with(|| {
            registry
                .get(&cand.sla.service)
                .and_then(|d| d.capacity)
                .map(|c| c as usize)
                .unwrap_or(batch)
                .min(batch)
        });
    }
    slots
}

/// The effective-utility vector induced by an assignment:
/// `Some(j)` → granted utility of candidate `j`, `None` → denied
/// utility (historical mean discounted by the empty round).
fn utility_vector<S: Semiring>(
    assignment: &[Option<usize>],
    candidates: &[Vec<Candidate<S>>],
    histories: &[ClientHistory],
) -> Vec<f64> {
    assignment
        .iter()
        .enumerate()
        .map(|(i, a)| match a {
            Some(j) => histories[i].granted_utility(candidates[i][*j].softness),
            None => histories[i].denied_utility(),
        })
        .collect()
}

/// The lexicographic scoring key for an objective over a utility
/// vector, as a [`Lex<Probabilistic, Probabilistic>`] value: the
/// primary tier is the objective itself, the secondary breaks ties.
fn objective_key(fairness: Fairness, utilities: &[f64]) -> (Unit, Unit) {
    let n = utilities.len().max(1) as f64;
    let min = utilities
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
        .clamp(0.0, 1.0);
    // (1 + e) / 2 keeps every factor in (0, 1] so a zero-utility
    // client dents the product without annihilating it.
    let nash: f64 = utilities.iter().map(|e| (1.0 + e) / 2.0).product();
    let mean = utilities.iter().sum::<f64>() / n;
    let (primary, secondary) = match fairness {
        Fairness::Leximin => (min, nash),
        Fairness::Nash => (nash, min),
        Fairness::Utilitarian | Fairness::Fcfs => (mean, min),
    };
    (Unit::clamped(primary), Unit::clamped(secondary))
}

/// Whether utility vector `a` is strictly preferred to `b` under the
/// objective. Primary comparison goes through the [`Lex`] combinator;
/// exhausted keys fall back to full leximin (ascending-sorted
/// elementwise) comparison so the allocator is deterministic.
fn prefer(fairness: Fairness, a: &[f64], b: &[f64]) -> bool {
    let lex = Lex::new(Probabilistic, Probabilistic);
    let (pa, sa) = objective_key(fairness, a);
    let (pb, sb) = objective_key(fairness, b);
    let ka = lex.value(pa, sa);
    let kb = lex.value(pb, sb);
    match lex.partial_cmp(&ka, &kb) {
        Some(Ordering::Greater) => true,
        Some(Ordering::Less) => false,
        _ => {
            let mut va = a.to_vec();
            let mut vb = b.to_vec();
            va.sort_by(f64::total_cmp);
            vb.sort_by(f64::total_cmp);
            for (x, y) in va.iter().zip(vb.iter()) {
                match x.total_cmp(y) {
                    Ordering::Greater => return true,
                    Ordering::Less => return false,
                    Ordering::Equal => {}
                }
            }
            false
        }
    }
}

/// First-come-first-served: in arrival order, each client takes its
/// best candidate whose service still has a free slot.
fn fcfs_allocate<S: Semiring>(
    candidates: &[Vec<Candidate<S>>],
    mut slots: BTreeMap<ServiceId, usize>,
) -> Vec<Option<usize>> {
    candidates
        .iter()
        .map(|cands| {
            let pick = cands
                .iter()
                .position(|c| slots.get(&c.sla.service).copied().unwrap_or(0) > 0);
            if let Some(j) = pick {
                *slots.get_mut(&cands[j].sla.service).expect("budgeted") -= 1;
            }
            pick
        })
        .collect()
}

/// Exact joint allocation: a subset-DP over services × client
/// bitmasks, mirroring coalition formation's `exact_formation`. For
/// each service we extend every reachable client-mask with every
/// subset of still-free eligible clients that fits the slot budget,
/// keeping the best assignment per mask under the objective.
///
/// Keeping one best per mask is exact because all three objectives are
/// *merge-consistent*: clients outside the mask contribute identical
/// utilities to both sides of any comparison, so the winner among
/// partial states is the winner among their completions.
fn exact_allocate<S: Semiring>(
    fairness: Fairness,
    candidates: &[Vec<Candidate<S>>],
    histories: &[ClientHistory],
    slots: &BTreeMap<ServiceId, usize>,
) -> Vec<Option<usize>> {
    let n = candidates.len();
    // Per service: the clients it can serve, each with its (single,
    // best) candidate index for that service.
    let mut eligible: BTreeMap<&ServiceId, Vec<(usize, usize)>> = BTreeMap::new();
    for (i, cands) in candidates.iter().enumerate() {
        for (j, c) in cands.iter().enumerate() {
            eligible.entry(&c.sla.service).or_default().push((i, j));
        }
    }

    let score = |assignment: &[Option<usize>]| utility_vector(assignment, candidates, histories);
    let mut dp: HashMap<u32, Vec<Option<usize>>> = HashMap::new();
    dp.insert(0, vec![None; n]);

    for (service, served) in &eligible {
        let budget = slots.get(*service).copied().unwrap_or(0);
        if budget == 0 {
            continue;
        }
        let elig_mask: u32 = served.iter().fold(0, |m, (i, _)| m | (1 << i));
        let cand_of: HashMap<usize, usize> = served.iter().copied().collect();
        // Skipping the service entirely is always allowed: start from
        // the previous layer and only improve on it.
        let mut next = dp.clone();
        for (mask, assignment) in &dp {
            let free = elig_mask & !mask;
            let mut sub = free;
            while sub != 0 {
                if (sub.count_ones() as usize) <= budget {
                    let mut extended = assignment.clone();
                    for i in 0..n {
                        if sub & (1 << i) != 0 {
                            extended[i] = Some(cand_of[&i]);
                        }
                    }
                    let new_mask = mask | sub;
                    let replace = match next.get(&new_mask) {
                        Some(existing) => prefer(fairness, &score(&extended), &score(existing)),
                        None => true,
                    };
                    if replace {
                        next.insert(new_mask, extended);
                    }
                }
                sub = (sub - 1) & free;
            }
        }
        dp = next;
    }

    dp.into_values()
        .reduce(|best, cand| {
            if prefer(fairness, &score(&cand), &score(&best)) {
                cand
            } else {
                best
            }
        })
        .unwrap_or_else(|| vec![None; n])
}

/// Greedy progressive filling for batches past [`MAX_EXACT_CLIENTS`]:
/// repeatedly grant the neediest client (leximin/Nash: lowest denied
/// utility, oldest starvation age first; utilitarian: biggest softness
/// gain) its best feasible candidate until no slot fits anyone.
fn greedy_allocate<S: Semiring>(
    fairness: Fairness,
    candidates: &[Vec<Candidate<S>>],
    histories: &[ClientHistory],
    mut slots: BTreeMap<ServiceId, usize>,
) -> Vec<Option<usize>> {
    let n = candidates.len();
    let mut assignment: Vec<Option<usize>> = vec![None; n];
    loop {
        let mut pick: Option<(usize, usize)> = None;
        for i in 0..n {
            if assignment[i].is_some() {
                continue;
            }
            let Some(j) = candidates[i]
                .iter()
                .position(|c| slots.get(&c.sla.service).copied().unwrap_or(0) > 0)
            else {
                continue;
            };
            let better = match pick {
                None => true,
                Some((pi, pj)) => match fairness {
                    Fairness::Leximin | Fairness::Nash => {
                        let (need, prev) = (
                            histories[i].denied_utility(),
                            histories[pi].denied_utility(),
                        );
                        match need.total_cmp(&prev) {
                            Ordering::Less => true,
                            Ordering::Greater => false,
                            Ordering::Equal => histories[i].age > histories[pi].age,
                        }
                    }
                    Fairness::Utilitarian | Fairness::Fcfs => {
                        candidates[i][j].softness > candidates[pi][pj].softness
                    }
                },
            };
            if better {
                pick = Some((i, j));
            }
        }
        let Some((i, j)) = pick else { break };
        assignment[i] = Some(j);
        *slots
            .get_mut(&candidates[i][j].sla.service)
            .expect("budgeted") -= 1;
    }
    assignment
}

fn build_report<S: Semiring>(
    outcomes: &[(String, ContentionOutcome<S>)],
    assignment: &[Option<usize>],
    candidates: &[Vec<Candidate<S>>],
    utilities: &[f64],
    max_starvation_age: u64,
) -> FairnessReport {
    let n = outcomes.len();
    let mut report = FairnessReport {
        clients: n,
        max_starvation_age,
        jain: 1.0,
        min_utility: utilities
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .clamp(0.0, 1.0),
        ..FairnessReport::default()
    };
    for (_, outcome) in outcomes {
        match outcome {
            ContentionOutcome::Granted(_) => report.granted += 1,
            ContentionOutcome::Preempted => report.preempted += 1,
            ContentionOutcome::Waitlisted { .. } => report.waitlisted += 1,
            ContentionOutcome::Unserved => report.unserved += 1,
        }
    }
    let granted_soft: Vec<f64> = assignment
        .iter()
        .enumerate()
        .filter_map(|(i, a)| a.map(|j| candidates[i][j].softness))
        .collect();
    report.sum_softness = granted_soft.iter().sum();
    if granted_soft.len() >= 2 {
        let max = granted_soft
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let min = granted_soft.iter().copied().fold(f64::INFINITY, f64::min);
        report.spread = max - min;
    }
    let sum: f64 = utilities.iter().sum();
    let sumsq: f64 = utilities.iter().map(|e| e * e).sum();
    if sumsq > 0.0 {
        report.jain = (sum * sum) / (n as f64 * sumsq);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::{OfferShape, QosDocument, QosOffer};
    use crate::registry::{Registry, ServiceDescription};
    use softsoa_core::{Domain, Var};
    use softsoa_dependability::Attribute;
    use softsoa_nmsccp::Interval;
    use softsoa_semiring::Fuzzy;

    #[test]
    fn a_poisoned_ledger_keeps_recording() {
        let state = ContentionState::default();
        state.record([("a", Some(0.5))].into_iter());
        let poisoned = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = state.inner.lock().unwrap();
                    panic!("panic while holding the ledger lock");
                })
                .join()
        });
        assert!(poisoned.is_err() && state.inner.is_poisoned());
        // record and snapshot both still work.
        state.record([("a", None), ("b", Some(0.25))].into_iter());
        let history = state.snapshot(["a", "b", "c"].iter());
        assert_eq!((history[0].rounds, history[0].age), (2, 1));
        assert_eq!(history[0].cum, 0.5);
        assert_eq!((history[1].rounds, history[1].cum), (1, 0.25));
        assert_eq!(history[2].rounds, 0);
    }

    /// A provider whose every domain point offers a flat `level`, with
    /// `slots` concurrent-binding capacity.
    fn flat_provider(id: &str, level: f64, slots: u32) -> ServiceDescription {
        let permille = (level * 1000.0).round() as i64;
        ServiceDescription::new(
            id,
            "acme",
            "compute",
            QosDocument::new(id).with_offer(QosOffer {
                attribute: Attribute::Reliability,
                variable: "x".into(),
                shape: OfferShape::Piecewise {
                    points: vec![(1, permille as f64 / 1000.0), (9, permille as f64 / 1000.0)],
                },
            }),
        )
        .with_capacity(slots)
    }

    fn contended_registry() -> Registry {
        let mut registry = Registry::new();
        registry.publish(flat_provider("svc-a", 0.9, 1));
        registry.publish(flat_provider("svc-b", 0.6, 1));
        registry
    }

    fn compute_request(min_level: f64) -> NegotiationRequest<Fuzzy> {
        NegotiationRequest {
            capability: "compute".into(),
            variable: Var::new("x"),
            domain: Domain::ints(1..=9),
            constraint: Constraint::always(Fuzzy),
            acceptance: Interval::levels(Unit::clamped(min_level), Unit::MAX),
        }
    }

    fn batch(clients: &[&str]) -> Vec<ContendedRequest<Fuzzy>> {
        clients
            .iter()
            .map(|c| ContendedRequest {
                client: (*c).to_owned(),
                request: compute_request(0.5),
            })
            .collect()
    }

    fn granted_clients(allocation: &ContendedAllocation<Fuzzy>) -> Vec<String> {
        allocation
            .outcomes
            .iter()
            .filter(|(_, o)| matches!(o, ContentionOutcome::Granted(_)))
            .map(|(c, _)| c.clone())
            .collect()
    }

    #[test]
    fn fairness_names_round_trip() {
        for f in Fairness::ALL {
            assert_eq!(Fairness::parse(f.as_str()), Some(f));
            assert_eq!(f.to_string(), f.as_str());
        }
        assert_eq!(Fairness::parse("round-robin"), None);
        assert_eq!(Fairness::default(), Fairness::Leximin);
    }

    #[test]
    fn fcfs_serves_arrival_order_and_waitlists_the_tail() {
        let broker = Broker::new(Fuzzy, contended_registry());
        let requests = batch(&["a", "b", "c"]);
        let allocation = broker.negotiate_contended(&requests, Fairness::Fcfs, QosOffer::to_fuzzy);

        assert_eq!(allocation.report.granted, 2);
        assert_eq!(allocation.report.waitlisted, 1);
        assert_eq!(allocation.report.preempted, 0);
        assert_eq!(granted_clients(&allocation), vec!["a", "b"]);
        assert!(matches!(
            allocation.outcomes[2].1,
            ContentionOutcome::Waitlisted { age: 1 }
        ));
        // Arrival order: "a" took the better service.
        let ContentionOutcome::Granted(sla) = &allocation.outcomes[0].1 else {
            panic!("a should be granted");
        };
        assert_eq!(sla.service.as_str(), "svc-a");
    }

    #[test]
    fn fcfs_starves_the_last_client_across_waves() {
        let broker = Broker::new(Fuzzy, contended_registry());
        let requests = batch(&["a", "b", "c"]);
        for wave in 1..=4u64 {
            let allocation =
                broker.negotiate_contended(&requests, Fairness::Fcfs, QosOffer::to_fuzzy);
            assert_eq!(granted_clients(&allocation), vec!["a", "b"]);
            assert_eq!(allocation.report.max_starvation_age, wave);
            assert!(matches!(
                allocation.outcomes[2].1,
                ContentionOutcome::Waitlisted { age } if age == wave
            ));
        }
    }

    #[test]
    fn leximin_rotates_scarce_slots_so_nobody_starves() {
        let broker = Broker::new(Fuzzy, contended_registry());
        let requests = batch(&["a", "b", "c"]);
        let mut grants: HashMap<String, usize> = HashMap::new();
        for wave in 1..=4u64 {
            let allocation =
                broker.negotiate_contended(&requests, Fairness::Leximin, QosOffer::to_fuzzy);
            assert_eq!(allocation.report.granted, 2, "wave {wave}");
            for client in granted_clients(&allocation) {
                *grants.entry(client).or_default() += 1;
            }
            // Denied clients come back with top priority, so nobody is
            // ever two waves behind.
            assert!(
                allocation.report.max_starvation_age <= 1,
                "wave {wave}: starvation age {}",
                allocation.report.max_starvation_age
            );
        }
        for client in ["a", "b", "c"] {
            assert!(
                grants.get(client).copied().unwrap_or(0) >= 2,
                "{client} granted {grants:?}"
            );
        }
    }

    #[test]
    fn nash_also_rotates_scarce_slots() {
        let broker = Broker::new(Fuzzy, contended_registry());
        let requests = batch(&["a", "b", "c"]);
        for _ in 0..4 {
            let allocation =
                broker.negotiate_contended(&requests, Fairness::Nash, QosOffer::to_fuzzy);
            assert_eq!(allocation.report.granted, 2);
            assert!(allocation.report.max_starvation_age <= 1);
        }
    }

    #[test]
    fn preemption_is_classified_against_the_fcfs_baseline() {
        let broker = Broker::new(Fuzzy, contended_registry());
        let requests = batch(&["a", "b", "c"]);
        // Wave 1 under FCFS grants a and b, leaving c starving.
        broker.negotiate_contended(&requests, Fairness::Fcfs, QosOffer::to_fuzzy);
        // Wave 2 under leximin must serve c; one of the FCFS winners
        // loses its slot and is reported preempted, not waitlisted.
        let allocation =
            broker.negotiate_contended(&requests, Fairness::Leximin, QosOffer::to_fuzzy);
        assert!(granted_clients(&allocation).contains(&"c".to_owned()));
        assert_eq!(allocation.report.preempted, 1);
        assert_eq!(allocation.report.waitlisted, 0);
        let preempted: Vec<&str> = allocation
            .outcomes
            .iter()
            .filter(|(_, o)| matches!(o, ContentionOutcome::Preempted))
            .map(|(c, _)| c.as_str())
            .collect();
        assert!(preempted == ["a"] || preempted == ["b"], "{preempted:?}");
    }

    #[test]
    fn clients_without_agreements_are_unserved_not_errors() {
        let broker = Broker::new(Fuzzy, contended_registry());
        let mut requests = batch(&["a", "picky"]);
        // An acceptance floor above every offer: no agreement exists.
        requests[1].request = compute_request(0.95);
        let allocation =
            broker.negotiate_contended(&requests, Fairness::Leximin, QosOffer::to_fuzzy);
        assert!(matches!(
            allocation.outcomes[1].1,
            ContentionOutcome::Unserved
        ));
        assert_eq!(allocation.report.unserved, 1);
        assert_eq!(allocation.report.granted, 1);
    }

    #[test]
    fn utilitarian_maximises_total_softness_in_a_single_wave() {
        let broker = Broker::new(Fuzzy, contended_registry());
        let requests = batch(&["a", "b", "c"]);
        let allocation =
            broker.negotiate_contended(&requests, Fairness::Utilitarian, QosOffer::to_fuzzy);
        // Both slots used, sum = 0.9 + 0.6.
        assert_eq!(allocation.report.granted, 2);
        assert!((allocation.report.sum_softness - 1.5).abs() < 1e-9);
        assert!((allocation.report.spread - 0.3).abs() < 1e-9);
    }

    #[test]
    fn ample_capacity_grants_everyone_with_perfect_jain() {
        let mut registry = Registry::new();
        registry.publish(flat_provider("svc-a", 0.8, 3));
        let broker = Broker::new(Fuzzy, registry);
        let requests = batch(&["a", "b", "c"]);
        let allocation =
            broker.negotiate_contended(&requests, Fairness::Leximin, QosOffer::to_fuzzy);
        assert_eq!(allocation.report.granted, 3);
        assert_eq!(allocation.report.max_starvation_age, 0);
        assert!((allocation.report.jain - 1.0).abs() < 1e-9);
        assert_eq!(allocation.report.spread, 0.0);
    }

    #[test]
    fn batch_shares_one_registry_epoch() {
        let broker = Broker::new(Fuzzy, contended_registry());
        let requests = batch(&["a", "b"]);
        let allocation =
            broker.negotiate_contended(&requests, Fairness::Leximin, QosOffer::to_fuzzy);
        assert_eq!(allocation.epoch, broker.registry().epoch());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let broker = Broker::new(Fuzzy, contended_registry());
        let allocation = broker.negotiate_contended(
            &Vec::<ContendedRequest<Fuzzy>>::new(),
            Fairness::Leximin,
            QosOffer::to_fuzzy,
        );
        assert!(allocation.outcomes.is_empty());
        assert_eq!(allocation.report.clients, 0);
        assert_eq!(allocation.report.jain, 1.0);
    }

    #[test]
    fn greedy_fallback_still_rotates_for_large_batches() {
        let mut registry = Registry::new();
        registry.publish(flat_provider("svc-a", 0.9, 4));
        registry.publish(flat_provider("svc-b", 0.6, 4));
        let broker = Broker::new(Fuzzy, registry);
        let names: Vec<String> = (0..12).map(|i| format!("client-{i:02}")).collect();
        let requests: Vec<ContendedRequest<Fuzzy>> = names
            .iter()
            .map(|c| ContendedRequest {
                client: c.clone(),
                request: compute_request(0.5),
            })
            .collect();
        assert!(requests.len() > MAX_EXACT_CLIENTS);
        let mut grants: HashMap<String, usize> = HashMap::new();
        for _ in 0..3 {
            let allocation =
                broker.negotiate_contended(&requests, Fairness::Leximin, QosOffer::to_fuzzy);
            assert_eq!(allocation.report.granted, 8);
            assert!(allocation.report.max_starvation_age <= 1);
            for client in granted_clients(&allocation) {
                *grants.entry(client).or_default() += 1;
            }
        }
        // 24 grants across 12 clients over 3 waves: everyone served.
        for name in &names {
            assert!(grants.get(name).copied().unwrap_or(0) >= 1, "{name}");
        }
    }
}
