//! Service composition with semiring QoS aggregation.
//!
//! Service aggregators "consolidate multiple services into a new,
//! single service offering" (Sec. 3); the broker/orchestrator selects
//! one provider per stage and the composed QoS is the `⊗`-combination
//! of the stage constraints. Because `×` distributes over `+`, the
//! end-to-end consistency level of stages over *disjoint* negotiation
//! variables is exactly the `×`-product of the per-stage levels — the
//! algebra the paper relies on when it "combines the levels of the
//! components".

use softsoa_core::{Constraint, Domains, MissingDomainError};
use softsoa_semiring::{Residuated, Semiring};

use crate::{Broker, NegotiationError, NegotiationRequest, QosOffer, Sla};

/// A composed (aggregated) service: the per-stage SLAs plus the
/// combined QoS constraint.
#[derive(Debug, Clone)]
pub struct Composition<S: Semiring> {
    /// The per-stage agreements, in request order.
    pub slas: Vec<Sla<S>>,
    /// The combined store constraint of all stages (`⊗` of the final
    /// per-stage stores).
    pub constraint: Constraint<S>,
    /// The domains of every stage variable.
    pub domains: Domains,
    /// The end-to-end agreed level (`⊗`-combination of stage levels).
    pub end_to_end_level: S::Value,
}

impl<S: Semiring> Composition<S> {
    /// The composed service's *interface*: the combined constraint
    /// projected onto the given variables (the paper's "projecting
    /// over some variables leads to the interface of the service").
    ///
    /// # Errors
    ///
    /// Returns [`MissingDomainError`] if a projected-out variable has
    /// no domain.
    pub fn interface(
        &self,
        vars: &[softsoa_core::Var],
    ) -> Result<Constraint<S>, MissingDomainError> {
        self.constraint.project(vars, &self.domains)
    }
}

impl<S: Residuated> Broker<S> {
    /// Composes a pipeline of services: negotiates each stage
    /// independently (best provider per stage) and aggregates the QoS.
    ///
    /// Stage variables should be distinct; the end-to-end level is
    /// then the `×`-product of the stage levels.
    ///
    /// # Errors
    ///
    /// Propagates the first stage's [`NegotiationError`]; a single
    /// failing stage fails the whole composition (the paper's
    /// monitored composition must satisfy *all* component
    /// requirements).
    pub fn compose<F>(
        &self,
        stages: &[NegotiationRequest<S>],
        translate: F,
    ) -> Result<Composition<S>, NegotiationError>
    where
        F: Fn(&QosOffer) -> Constraint<S> + Copy,
    {
        let semiring = self.semiring().clone();
        let mut slas = Vec::with_capacity(stages.len());
        let mut domains = Domains::new();
        let mut constraint = Constraint::always(semiring.clone());
        let mut level = semiring.one();
        for stage in stages {
            let sla = self.negotiate(stage, translate)?;
            level = semiring.times(&level, &sla.agreed_level);
            domains.insert(stage.variable.clone(), stage.domain.clone());
            // Recreate the agreed store constraint for the chosen
            // provider: client policy ⊗ chosen provider offers.
            let registry = self.registry();
            let service = registry
                .get(&sla.service)
                .expect("negotiated service is registered");
            let mut stage_constraint = stage.constraint.clone();
            for offer in &service.qos.offers {
                if offer.variable == stage.variable.name() {
                    stage_constraint = stage_constraint.combine(&translate(offer));
                }
            }
            constraint = constraint.combine(&stage_constraint);
            slas.push(sla);
        }
        Ok(Composition {
            slas,
            constraint,
            domains,
            end_to_end_level: level,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OfferShape, QosDocument, Registry, ServiceDescription, WireSemiring};
    use softsoa_core::{Domain, Var};
    use softsoa_dependability::Attribute;
    use softsoa_nmsccp::Interval;
    use softsoa_semiring::{Probabilistic, Unit};

    fn provider(id: &str, capability: &str, var: &str, level: f64) -> ServiceDescription {
        ServiceDescription::new(
            id,
            "acme",
            capability,
            QosDocument::new(id).with_offer(QosOffer {
                attribute: Attribute::Reliability,
                variable: var.into(),
                shape: OfferShape::Constant { level },
            }),
        )
    }

    fn stage(capability: &str, var: &str) -> NegotiationRequest<Probabilistic> {
        NegotiationRequest {
            capability: capability.into(),
            variable: Var::new(var),
            domain: Domain::ints(0..=1),
            constraint: Constraint::always(Probabilistic),
            acceptance: Interval::any(&Probabilistic),
        }
    }

    #[test]
    fn pipeline_reliability_multiplies() {
        let mut registry = Registry::new();
        registry.publish(provider("red", "red-filter", "r", 0.9));
        registry.publish(provider("bw", "bw-filter", "b", 0.96));
        let broker = Broker::new(Probabilistic, registry);
        let composition = broker
            .compose(
                &[stage("red-filter", "r"), stage("bw-filter", "b")],
                Probabilistic::translate,
            )
            .unwrap();
        assert_eq!(composition.slas.len(), 2);
        assert!((composition.end_to_end_level.get() - 0.864).abs() < 1e-12);
        // Aggregate level equals the consistency of the combined store
        // (distributivity over disjoint stage variables).
        let direct = composition
            .constraint
            .consistency(&composition.domains)
            .unwrap();
        assert_eq!(direct, composition.end_to_end_level);
    }

    #[test]
    fn composition_fails_if_any_stage_fails() {
        let mut registry = Registry::new();
        registry.publish(provider("red", "red-filter", "r", 0.9));
        let broker = Broker::new(Probabilistic, registry);
        let err = broker
            .compose(
                &[stage("red-filter", "r"), stage("bw-filter", "b")],
                Probabilistic::translate,
            )
            .unwrap_err();
        assert!(matches!(err, NegotiationError::NoProvider(_)));
    }

    #[test]
    fn interface_projects_out_stage_variables() {
        let mut registry = Registry::new();
        registry.publish(provider("red", "red-filter", "r", 0.9));
        let broker = Broker::new(Probabilistic, registry);
        let composition = broker
            .compose(&[stage("red-filter", "r")], Probabilistic::translate)
            .unwrap();
        let iface = composition.interface(&[]).unwrap();
        assert!(iface.scope().is_empty());
        assert_eq!(
            iface.eval(&softsoa_core::Assignment::new()),
            Unit::new(0.9).unwrap()
        );
    }
}
