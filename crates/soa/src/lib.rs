//! Service-oriented architecture substrate: services, registry, QoS
//! broker and SLA negotiation.
//!
//! This crate implements Secs. 3 and 4 of *Bistarelli & Santini, "Soft
//! Constraints for Dependable Service Oriented Architectures"* (DSN
//! 2008) — the SOA the soft constraint framework is embedded in:
//!
//! - [`QosDocument`] / [`QosOffer`] — the typed stand-in for the
//!   XML-based QoS documents providers publish, and their translation
//!   into soft constraints over each semiring;
//! - [`Registry`] — publication and discovery (the UDDI stand-in);
//! - [`Broker`] — the QoS broker of Fig. 6: it embeds a soft
//!   constraint solver and the `nmsccp` engine and runs the five-step
//!   negotiation protocol, producing [`Sla`] bindings;
//! - [`Composition`] — service aggregation with `⊗`-combined QoS and
//!   projection-defined interfaces;
//! - [`ServiceQuery`] — the SOA *query engine* (the paper's stated
//!   future work): composite-service queries compiled into one SCSP
//!   for joint provider selection and QoS binding;
//! - [`SimService`] / [`SlaMonitor`] — simulated services with seeded
//!   failure models, and the monitoring the paper requires for
//!   compositions;
//! - [`Orchestrator`] — workload execution over a composed pipeline
//!   with retries, per-stage measurement and SLA verdicts;
//! - [`ChaosConfig`] — chaos-mode negotiation and querying: provider
//!   faults from the seeded failure model are injected into running
//!   `nmsccp` sessions, which recover by retrying, rolling back and
//!   relaxing ([`Broker::negotiate_resilient`],
//!   [`Broker::query_resilient`]).
//!
//! # Example: negotiating the fuzzy agreement of Fig. 5
//!
//! ```
//! use softsoa_core::{Constraint, Domain, Var};
//! use softsoa_nmsccp::Interval;
//! use softsoa_semiring::{Fuzzy, Unit};
//! use softsoa_soa::*;
//! use softsoa_dependability::Attribute;
//!
//! let mut registry = Registry::new();
//! registry.publish(ServiceDescription::new(
//!     "svc-1", "acme", "web-service",
//!     QosDocument::new("svc-1").with_offer(QosOffer {
//!         attribute: Attribute::Reliability,
//!         variable: "x".into(),
//!         shape: OfferShape::Piecewise { points: vec![(1, 1.0), (9, 0.0)] },
//!     })));
//!
//! let request = NegotiationRequest {
//!     capability: "web-service".into(),
//!     variable: Var::new("x"),
//!     domain: Domain::ints(1..=9),
//!     constraint: Constraint::unary(Fuzzy, "x", |v| {
//!         Unit::clamped((v.as_int().unwrap() as f64 - 1.0) / 8.0)
//!     }),
//!     acceptance: Interval::levels(Unit::new(0.3).unwrap(), Unit::MAX),
//! };
//!
//! let sla = Broker::new(Fuzzy, registry).negotiate(&request, Fuzzy::translate)?;
//! assert_eq!(sla.agreed_level, Unit::new(0.5).unwrap());
//! # Ok::<(), NegotiationError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broker;
mod chaos;
mod compose;
mod contention;
mod orchestrator;
mod qos;
mod query;
mod registry;
pub mod server;
mod sim;

pub use broker::{
    Broker, BrokerConfig, NegotiationError, NegotiationRequest, RegistrySnapshot, RegistryWriter,
    Sla,
};
pub use chaos::{provider_fault_plan, ChaosConfig, ChaosReport, QueryChaosReport};
pub use compose::Composition;
pub use contention::{
    ContendedAllocation, ContendedRequest, ContentionOutcome, Fairness, FairnessReport,
    MAX_EXACT_CLIENTS,
};
pub use orchestrator::{Orchestrator, SlaVerdict, StageStats, WorkloadReport};
pub use qos::{OfferShape, QosDocument, QosOffer, WireSemiring};
pub use query::{QueryError, QueryPlan, QueryStage, ServiceQuery};
pub use registry::{ProviderId, Registry, ServiceDescription, ServiceId};
pub use server::{DrainReport, NegotiationServer, ServerConfig, ServerHandle, StoreChaos};
pub use sim::{MonitorReport, ServiceFault, SimConfig, SimService, SlaMonitor};
