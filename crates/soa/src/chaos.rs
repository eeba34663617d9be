//! Chaos-mode negotiation and querying: provider faults injected into
//! running `nmsccp` sessions.
//!
//! The paper's dependability claim is that checked transitions keep a
//! negotiation inside its interval *while the environment misbehaves*
//! (the Sec. 5 module that "could take on any behaviour"). This module
//! closes the loop between the two fault models the repo already has:
//! the seeded [`SimService`] failure model decides *when* a provider
//! misbehaves, and the [`FaultPlan`] machinery of
//! `softsoa_nmsccp::resilience` decides *what* that does to the store
//! mid-negotiation. Everything is a pure function of the
//! [`ChaosConfig`] seed, so a chaos run is replayable bit for bit.
//!
//! Chaos negotiation is a setting of the broker's one session loop,
//! not a second copy of the protocol: [`Broker::negotiate_resilient`]
//! hands the loop a [`ResilientInterpreter`] (the provider's fault
//! plan and the recovery policy) where [`Broker::negotiate`] hands it
//! a plain interpreter. Discovery, validation, the agents, binding and
//! the best-SLA fold are shared, so with no faults and no relaxations
//! both reach the same agreement.

use std::collections::BTreeMap;

use softsoa_core::solve::SolverConfig;
use softsoa_core::Constraint;
use softsoa_nmsccp::{
    Bound, FaultAction, FaultEvent, FaultPlan, Interval, Program, RecoveryPolicy, ResilienceReport,
    ResilientInterpreter,
};
use softsoa_semiring::{Residuated, Semiring};

use crate::{
    Broker, NegotiationError, NegotiationRequest, QosOffer, QueryError, QueryPlan, Registry,
    RegistrySnapshot, ServiceId, ServiceQuery, SimConfig, SimService, Sla,
};

/// How hostile the environment is during a chaos run, and how much
/// patience the runtime has with it.
///
/// Provider faults are drawn from each provider's own seeded
/// [`SimService`] stream (`seed ^ fnv1a(service id)`), so adding or
/// removing a provider never perturbs the faults of the others.
#[derive(Debug, Clone)]
pub struct ChaosConfig<S: Semiring> {
    /// Base RNG seed; equal seeds give identical runs.
    pub seed: u64,
    /// Per-step probability that a provider misbehaves.
    pub fault_rate: f64,
    /// How many interpreter steps the fault model covers.
    pub horizon: usize,
    /// Degradation values injected after the two fixed fault kinds
    /// (each worsens the whole store by a fixed semiring value).
    pub degradations: Vec<S::Value>,
    /// Steps a blocked session idles before each retry.
    pub guard_deadline: usize,
    /// Retry budget per session (see [`RecoveryPolicy`]).
    pub max_retries: usize,
    /// Base of the deterministic exponential backoff.
    pub backoff_base: usize,
    /// Absolute per-session deadline on the virtual step clock (see
    /// [`RecoveryPolicy::deadline`]): retries clamp their idle waits
    /// to it and a session still blocked at the deadline ends with the
    /// typed `DeadlineExceeded` outcome. `None` (the default) leaves
    /// sessions unbounded.
    pub session_deadline: Option<usize>,
}

impl<S: Semiring> Default for ChaosConfig<S> {
    /// Seed 0, fault rate 0.1 over 16 steps, no degradations, and the
    /// default [`RecoveryPolicy`]'s patience.
    fn default() -> ChaosConfig<S> {
        let recovery = RecoveryPolicy::<S>::default();
        ChaosConfig {
            seed: 0,
            fault_rate: 0.1,
            horizon: 16,
            degradations: Vec::new(),
            guard_deadline: recovery.guard_deadline,
            max_retries: recovery.max_retries,
            backoff_base: recovery.backoff_base,
            session_deadline: recovery.deadline,
        }
    }
}

impl<S: Semiring> ChaosConfig<S> {
    /// The recovery policy this configuration induces, with the given
    /// relaxation ladder and invariant.
    fn recovery(
        &self,
        relaxations: &[Constraint<S>],
        invariant: Option<Interval<S>>,
    ) -> RecoveryPolicy<S> {
        RecoveryPolicy {
            guard_deadline: self.guard_deadline,
            max_retries: self.max_retries,
            backoff_base: self.backoff_base,
            relaxations: relaxations.to_vec(),
            invariant,
            deadline: self.session_deadline,
        }
    }
}

/// The report of one chaos negotiation: the best SLA (if any session
/// survived) plus each per-provider resilient session and the
/// aggregate recovery counters.
#[derive(Debug, Clone)]
pub struct ChaosReport<S: Semiring> {
    /// The best agreement among surviving sessions, if any.
    pub sla: Option<Sla<S>>,
    /// `(service, resilient session report)` for every discovered
    /// provider with a matching offer, in registry order.
    pub sessions: Vec<(ServiceId, ResilienceReport<S>)>,
    /// Total faults injected across sessions.
    pub faults_injected: usize,
    /// Total transitions dropped by faults.
    pub dropped_transitions: usize,
    /// Total retries spent.
    pub retries: usize,
    /// Total rollbacks performed.
    pub rollbacks: usize,
    /// Total relaxation rungs retracted.
    pub relaxations_applied: usize,
    /// Total interval violations observed.
    pub invariant_violations: usize,
}

impl<S: Semiring> ChaosReport<S> {
    /// Whether some session reached an agreement.
    pub fn is_success(&self) -> bool {
        self.sla.is_some()
    }
}

/// The report of a chaos query: the plan (if any attempt succeeded),
/// how many attempts were spent, which providers were blacked out per
/// attempt, and what the degradation ladder gave up.
#[derive(Debug, Clone)]
pub struct QueryChaosReport<S: Semiring> {
    /// The winning plan, if any attempt found one.
    pub plan: Option<QueryPlan<S>>,
    /// Attempts consumed (initial try + retries + degraded tries).
    pub attempts: usize,
    /// Blacked-out providers per attempt, in attempt order.
    pub blackouts: Vec<Vec<ServiceId>>,
    /// Whether graceful degradation dropped the query's `min_level`.
    pub dropped_min_level: bool,
    /// How many cross-stage constraints degradation dropped (from the
    /// last declared backwards).
    pub dropped_cross_constraints: usize,
}

/// FNV-1a, used to derive a per-provider fault seed from the base
/// chaos seed so providers fail independently but reproducibly.
fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in s.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Derives the per-provider chaos seed: `seed ^ fnv1a(service id)`.
///
/// Fault-plan replayability depends on this exact derivation — both
/// the negotiation fault plans and the query outage streams use it,
/// and a pinned-value test guards it against refactors.
pub fn provider_seed(base_seed: u64, service: &ServiceId) -> u64 {
    base_seed ^ fnv1a(service.as_str())
}

/// The steps (below `horizon`) at which a provider's seeded failure
/// stream misfires.
fn fault_steps(seed: u64, fault_rate: f64, horizon: usize) -> Vec<usize> {
    let mut svc = SimService::new(SimConfig {
        reliability: (1.0 - fault_rate).clamp(0.0, 1.0),
        mean_latency_ms: 1.0,
        seed,
    });
    (0..horizon).filter(|_| svc.invoke().is_err()).collect()
}

/// Maps a provider's [`ServiceFault`](crate::ServiceFault) stream to a
/// deterministic [`FaultPlan`]: every simulated failure below the
/// horizon becomes one injected store fault, cycling through a dropped
/// transition (a lost message), a retraction of the provider's told
/// policy (a provider reneging on its offer) and then each configured
/// degradation.
pub fn provider_fault_plan<S: Semiring>(
    chaos: &ChaosConfig<S>,
    service: &ServiceId,
    provider_policy: &Constraint<S>,
) -> FaultPlan<S> {
    let kinds: Vec<FaultAction<S>> = [
        FaultAction::DropTransition,
        FaultAction::Unconstrain(provider_policy.clone()),
    ]
    .into_iter()
    .chain(chaos.degradations.iter().cloned().map(FaultAction::Degrade))
    .collect();
    let steps = fault_steps(
        provider_seed(chaos.seed, service),
        chaos.fault_rate,
        chaos.horizon,
    );
    let events = steps
        .into_iter()
        .enumerate()
        .map(|(k, at_step)| FaultEvent {
            at_step,
            action: kinds[k % kinds.len()].clone(),
        })
        .collect();
    FaultPlan::new(events)
}

/// The dependability invariant a chaos session maintains: the store
/// must never fall below the acceptance interval's lower threshold.
/// (The upper threshold is left open — a *partially built* store is
/// legitimately better than the final agreement.)
fn lower_only_invariant<S: Semiring>(semiring: &S, acceptance: &Interval<S>) -> Interval<S> {
    Interval::new(acceptance.lower().clone(), Bound::Level(semiring.one()))
}

impl<S: Residuated> Broker<S> {
    /// Negotiates under chaos: the broker's one session loop, with
    /// every per-provider `nmsccp` session run in a
    /// [`ResilientInterpreter`] whose fault plan is derived from the
    /// provider's seeded failure model, and whose recovery policy
    /// retries, rolls back on interval violations and concedes rungs
    /// of `relaxations`.
    ///
    /// Unlike [`Broker::negotiate`], failing to agree is not an error:
    /// the [`ChaosReport`] carries `sla: None` together with every
    /// session's trace, so callers can measure *how* negotiations died.
    ///
    /// # Errors
    ///
    /// [`NegotiationError::NoProvider`] if discovery finds nothing,
    /// [`NegotiationError::InvalidAcceptance`] for a contradictory
    /// interval, or an underlying semantics/solve error.
    pub fn negotiate_resilient<F>(
        &self,
        request: &NegotiationRequest<S>,
        relaxations: &[Constraint<S>],
        chaos: &ChaosConfig<S>,
        translate: F,
    ) -> Result<ChaosReport<S>, NegotiationError>
    where
        F: Fn(&QosOffer) -> Constraint<S>,
    {
        self.negotiate_resilient_at(&self.registry(), request, relaxations, chaos, translate)
    }

    /// [`Broker::negotiate_resilient`] against a caller-supplied
    /// snapshot, so a caller can report the epoch its agreement was
    /// computed under.
    pub(crate) fn negotiate_resilient_at<F>(
        &self,
        registry: &RegistrySnapshot,
        request: &NegotiationRequest<S>,
        relaxations: &[Constraint<S>],
        chaos: &ChaosConfig<S>,
        translate: F,
    ) -> Result<ChaosReport<S>, NegotiationError>
    where
        F: Fn(&QosOffer) -> Constraint<S>,
    {
        let recovery = chaos.recovery(
            relaxations,
            Some(lower_only_invariant(self.semiring(), &request.acceptance)),
        );
        let t = &self.telemetry;
        let (agreements, sessions) = self.run_sessions(
            registry,
            request,
            &translate,
            |service, policy, agent, store| {
                let report = ResilientInterpreter::new(Program::new())
                    .with_plan(provider_fault_plan(chaos, service, policy))
                    .with_recovery(recovery.clone())
                    .with_telemetry(t.clone())
                    .run(agent, store)?;
                // The session's recovery counters; the loop records its
                // latency and its verdict.
                let id = service.as_str();
                t.count_labeled("broker.provider.retries", id, report.retries as u64);
                t.count_labeled("broker.provider.faults", id, report.faults_injected as u64);
                t.count_labeled("broker.provider.rollbacks", id, report.rollbacks as u64);
                let rungs = report.relaxations_applied as u64;
                t.count_labeled("broker.provider.degradation_rung", id, rungs);
                let excursions = report.invariant_violations as u64;
                t.count_labeled("broker.provider.interval_excursions", id, excursions);
                Ok(report)
            },
        )?;
        let sum = |f: fn(&ResilienceReport<S>) -> usize| {
            sessions.iter().map(|(_, r)| f(r)).sum::<usize>()
        };
        Ok(ChaosReport {
            faults_injected: sum(|r| r.faults_injected),
            dropped_transitions: sum(|r| r.dropped_transitions),
            retries: sum(|r| r.retries),
            rollbacks: sum(|r| r.rollbacks),
            relaxations_applied: sum(|r| r.relaxations_applied),
            invariant_violations: sum(|r| r.invariant_violations),
            sla: self.best(agreements),
            sessions,
        })
    }

    /// Answers a composite query under chaos: before each attempt,
    /// every registered provider is blacked out with probability
    /// `fault_rate` (drawn from its own seeded stream), and the query
    /// runs against the surviving registry. Failed attempts retry up
    /// to `max_retries` times; once retries are exhausted the query is
    /// *degraded gracefully* — first dropping `min_level`, then
    /// cross-stage constraints (last declared first) — one concession
    /// per further attempt, until a plan is found or nothing is left
    /// to concede.
    ///
    /// # Errors
    ///
    /// [`QueryError::Solve`] for hard solver failures. Exhausted
    /// attempts are not an error: the report carries `plan: None`.
    pub fn query_resilient<F>(
        &self,
        query: &ServiceQuery<S>,
        chaos: &ChaosConfig<S>,
        translate: F,
        config: &SolverConfig,
    ) -> Result<QueryChaosReport<S>, QueryError>
    where
        F: Fn(&QosOffer) -> Constraint<S>,
    {
        // One independent outage stream per registered service.
        let mut outages: BTreeMap<ServiceId, SimService> = self
            .registry()
            .iter()
            .map(|service| {
                let seed = provider_seed(chaos.seed, &service.id);
                (
                    service.id.clone(),
                    SimService::new(SimConfig {
                        reliability: (1.0 - chaos.fault_rate).clamp(0.0, 1.0),
                        mean_latency_ms: 1.0,
                        seed,
                    }),
                )
            })
            .collect();
        let mut draw_blackout = || {
            outages
                .iter_mut()
                .filter_map(|(id, svc)| svc.invoke().is_err().then(|| id.clone()))
                .collect::<Vec<ServiceId>>()
        };

        let mut current = query.clone();
        let mut attempts = 0usize;
        let mut blackouts = Vec::new();
        let mut dropped_min_level = false;
        let mut dropped_cross_constraints = 0usize;

        loop {
            // Concede one rung per attempt once the retry budget is
            // spent on the undegraded query.
            if attempts > chaos.max_retries {
                if current.min_level.take().is_some() {
                    dropped_min_level = true;
                } else if current.cross_constraints.pop().is_some() {
                    dropped_cross_constraints += 1;
                } else {
                    let report = QueryChaosReport {
                        plan: None,
                        attempts,
                        blackouts,
                        dropped_min_level,
                        dropped_cross_constraints,
                    };
                    self.emit_query(&report);
                    return Ok(report);
                }
            }
            attempts += 1;

            let down = draw_blackout();
            let mut registry: Registry = self.registry().clone();
            for id in &down {
                registry.deregister(id);
            }
            blackouts.push(down);
            let degraded_broker = Broker::new(self.semiring().clone(), registry)
                .with_telemetry(self.telemetry.clone());
            match degraded_broker.query_with(&current, &translate, config) {
                Ok(plan) => {
                    let report = QueryChaosReport {
                        plan: Some(plan),
                        attempts,
                        blackouts,
                        dropped_min_level,
                        dropped_cross_constraints,
                    };
                    self.emit_query(&report);
                    return Ok(report);
                }
                Err(QueryError::Solve(e)) => return Err(QueryError::Solve(e)),
                // No provider alive / no plan this round: retry or
                // degrade on the next iteration.
                Err(_) => continue,
            }
        }
    }

    /// Replays a finished chaos query into the attached telemetry:
    /// attempts, total provider blackouts, degradation concessions
    /// and the planned/exhausted tally.
    fn emit_query(&self, report: &QueryChaosReport<S>) {
        let t = &self.telemetry;
        if !t.enabled() {
            return;
        }
        t.count("broker.query.attempts", report.attempts as u64);
        t.count(
            "broker.query.blackouts",
            report.blackouts.iter().map(|b| b.len() as u64).sum(),
        );
        t.count(
            "broker.query.dropped_min_level",
            u64::from(report.dropped_min_level),
        );
        t.count(
            "broker.query.dropped_cross_constraints",
            report.dropped_cross_constraints as u64,
        );
        let outcome = if report.plan.is_some() {
            "broker.query.planned"
        } else {
            "broker.query.exhausted"
        };
        t.incr(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OfferShape, QosDocument, Registry, ServiceDescription, WireSemiring};
    use softsoa_core::{Domain, Var};
    use softsoa_dependability::Attribute;
    use softsoa_semiring::{Weight, Weighted};

    fn provider(id: &str, capability: &str, shape: OfferShape) -> ServiceDescription {
        ServiceDescription::new(
            id,
            "acme",
            capability,
            QosDocument::new(id).with_offer(QosOffer {
                attribute: Attribute::Reliability,
                variable: "x".into(),
                shape,
            }),
        )
    }

    fn example2_request() -> NegotiationRequest<Weighted> {
        NegotiationRequest {
            capability: "failure-mgmt".into(),
            variable: Var::new("x"),
            domain: Domain::ints(0..=10),
            constraint: Constraint::unary(Weighted, "x", |v| {
                Weight::saturating(v.as_int().unwrap() as f64 + 5.0) // c4
            })
            .with_label("c4"),
            acceptance: Interval::levels(
                Weight::new(4.0).unwrap(), // no worse than 4 hours
                Weight::new(1.0).unwrap(), // no better than 1 hour
            ),
        }
    }

    fn example2_registry() -> Registry {
        let mut registry = Registry::new();
        registry.publish(provider(
            "svc",
            "failure-mgmt",
            OfferShape::Linear {
                slope: 2.0,
                intercept: 0.0,
            }, // c3 = 2x
        ));
        registry
    }

    fn c1() -> Constraint<Weighted> {
        Constraint::unary(Weighted, "x", |v| {
            Weight::saturating(v.as_int().unwrap() as f64 + 3.0)
        })
        .with_label("c1")
    }

    /// The acceptance demo at the SOA layer: Example 2's negotiation
    /// deadlocks naively, completes under chaos-mode relaxation.
    #[test]
    fn chaos_negotiation_relaxes_where_naive_fails() {
        let broker = Broker::new(Weighted, example2_registry());
        assert!(matches!(
            broker.negotiate(&example2_request(), Weighted::translate),
            Err(NegotiationError::NoAgreement(_))
        ));
        let chaos = ChaosConfig {
            fault_rate: 0.0, // no faults: pure recovery semantics
            ..ChaosConfig::default()
        };
        let report = broker
            .negotiate_resilient(&example2_request(), &[c1()], &chaos, Weighted::translate)
            .unwrap();
        let sla = report.sla.expect("relaxed negotiation succeeds");
        assert_eq!(sla.agreed_level, Weight::new(2.0).unwrap());
        assert!(report.relaxations_applied >= 1);
    }

    #[test]
    fn chaos_negotiation_is_reproducible() {
        let broker = Broker::new(Weighted, example2_registry());
        let run = || {
            let chaos = ChaosConfig {
                seed: 99,
                fault_rate: 0.5,
                degradations: vec![Weight::new(1.0).unwrap()],
                ..ChaosConfig::default()
            };
            broker
                .negotiate_resilient(&example2_request(), &[c1()], &chaos, Weighted::translate)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.is_success(), b.is_success());
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.rollbacks, b.rollbacks);
        assert_eq!(a.relaxations_applied, b.relaxations_applied);
        assert_eq!(a.sessions.len(), b.sessions.len());
        for ((ida, ra), (idb, rb)) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(ida, idb);
            assert_eq!(ra.fault_log, rb.fault_log);
            assert_eq!(ra.report.steps, rb.report.steps);
            let notes = |r: &ResilienceReport<Weighted>| {
                r.report
                    .trace
                    .iter()
                    .map(|t| t.note.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(notes(ra), notes(rb));
        }
    }

    #[test]
    fn provider_fault_plans_are_per_service() {
        let chaos: ChaosConfig<Weighted> = ChaosConfig {
            seed: 5,
            fault_rate: 0.5,
            horizon: 32,
            ..ChaosConfig::default()
        };
        let policy = Constraint::always(Weighted);
        let a = provider_fault_plan(&chaos, &ServiceId::new("svc-a"), &policy);
        let b = provider_fault_plan(&chaos, &ServiceId::new("svc-b"), &policy);
        let steps =
            |p: &FaultPlan<Weighted>| p.events().iter().map(|e| e.at_step).collect::<Vec<_>>();
        // Same service, same plan; different services, different plans.
        assert_eq!(
            steps(&a),
            steps(&provider_fault_plan(
                &chaos,
                &ServiceId::new("svc-a"),
                &policy
            ))
        );
        assert_ne!(steps(&a), steps(&b));
    }

    /// Pins the per-provider seed derivation `seed ^ fnv1a(id)` to
    /// concrete values: stored fault plans and outage streams replay
    /// only while this derivation is stable, so a refactor that
    /// changes it must consciously break this test.
    #[test]
    fn provider_seed_derivation_is_pinned() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            provider_seed(0, &ServiceId::new("svc-a")),
            0xbfbe_289c_a313_c913
        );
        assert_eq!(
            provider_seed(0xdead_beef, &ServiceId::new("svc-a")),
            0xbfbe_289c_7dbe_77fc
        );
        // XOR with the base seed, nothing else.
        let id = ServiceId::new("video-transcode");
        assert_eq!(provider_seed(42, &id), 42 ^ provider_seed(0, &id));
    }

    #[test]
    fn query_survives_blackouts_through_retry() {
        // Two interchangeable providers: even when one is blacked out,
        // a retry finds an attempt where the stage is coverable.
        let mut registry = Registry::new();
        registry.publish(provider(
            "fast",
            "compute",
            OfferShape::Constant { level: 1.0 },
        ));
        registry.publish(provider(
            "slow",
            "compute",
            OfferShape::Constant { level: 2.0 },
        ));
        let broker = Broker::new(Weighted, registry);
        let query = ServiceQuery {
            stages: vec![crate::QueryStage {
                capability: "compute".into(),
                variable: Var::new("x"),
                domain: Domain::ints(0..=1),
                requirement: Constraint::always(Weighted),
            }],
            cross_constraints: vec![],
            min_level: None,
        };
        let chaos: ChaosConfig<Weighted> = ChaosConfig {
            seed: 3,
            fault_rate: 0.4,
            max_retries: 8,
            ..ChaosConfig::default()
        };
        let report = broker
            .query_resilient(
                &query,
                &chaos,
                Weighted::translate,
                &SolverConfig::default(),
            )
            .unwrap();
        let plan = report.plan.expect("some attempt finds live providers");
        assert!(report.attempts >= 1);
        assert_eq!(report.blackouts.len(), report.attempts);
        assert!(!plan.selections.is_empty());
    }

    #[test]
    fn query_degrades_gracefully_when_infeasible() {
        let mut registry = Registry::new();
        registry.publish(provider(
            "only",
            "compute",
            OfferShape::Constant { level: 5.0 },
        ));
        let broker = Broker::new(Weighted, registry);
        let query = ServiceQuery {
            stages: vec![crate::QueryStage {
                capability: "compute".into(),
                variable: Var::new("x"),
                domain: Domain::ints(0..=1),
                requirement: Constraint::always(Weighted),
            }],
            cross_constraints: vec![Constraint::never(Weighted)],
            // Weighted order: demands cost ≤ 1, impossible at cost 5.
            min_level: Some(Weight::new(1.0).unwrap()),
        };
        let chaos: ChaosConfig<Weighted> = ChaosConfig {
            seed: 1,
            fault_rate: 0.0,
            max_retries: 1,
            ..ChaosConfig::default()
        };
        let report = broker
            .query_resilient(
                &query,
                &chaos,
                Weighted::translate,
                &SolverConfig::default(),
            )
            .unwrap();
        // Both the floor and the impossible cross-constraint had to go.
        assert!(report.dropped_min_level);
        assert_eq!(report.dropped_cross_constraints, 1);
        let plan = report.plan.expect("fully degraded query succeeds");
        assert_eq!(plan.level, Weight::new(5.0).unwrap());
    }

    #[test]
    fn query_reports_exhaustion_without_panicking() {
        // A single provider with certain blackout: no attempt can ever
        // cover the stage, and there is nothing to degrade.
        let mut registry = Registry::new();
        registry.publish(provider(
            "only",
            "compute",
            OfferShape::Constant { level: 1.0 },
        ));
        let broker = Broker::new(Weighted, registry);
        let query = ServiceQuery {
            stages: vec![crate::QueryStage {
                capability: "compute".into(),
                variable: Var::new("x"),
                domain: Domain::ints(0..=1),
                requirement: Constraint::always(Weighted),
            }],
            cross_constraints: vec![],
            min_level: None,
        };
        let chaos: ChaosConfig<Weighted> = ChaosConfig {
            seed: 2,
            fault_rate: 1.0,
            max_retries: 2,
            ..ChaosConfig::default()
        };
        let report = broker
            .query_resilient(
                &query,
                &chaos,
                Weighted::translate,
                &SolverConfig::default(),
            )
            .unwrap();
        assert!(report.plan.is_none());
        assert_eq!(report.attempts, chaos.max_retries + 1);
    }
}
