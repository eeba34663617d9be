//! The SOA query engine — the paper's principal future work.
//!
//! > "The main results will be the development of a SOA query engine,
//! > that will use the constraint satisfaction solver to select which
//! > available service will satisfy a given query. It will also look
//! > for complex services by composing together simpler service
//! > interfaces." (Sec. 8)
//!
//! A [`ServiceQuery`] describes a composite service as a list of
//! *stages* (one capability each, with a per-stage QoS requirement)
//! plus *cross-stage* constraints (e.g. a total budget over all
//! stages). The engine compiles the whole query into **one SCSP**:
//! each stage contributes a symbolic *choice variable* ranging over
//! the candidate services and a QoS variable, linked by a dispatch
//! constraint that scores `(service, qos-value)` pairs with the
//! chosen provider's translated offer. Solving the SCSP performs
//! *joint* optimisation: unlike the greedy per-stage
//! [`Broker::compose`], it can sacrifice one stage to satisfy a
//! cross-stage constraint.

use std::collections::HashMap;
use std::fmt;

use softsoa_core::solve::{BranchAndBound, ParetoBranchAndBound, Solver, SolverConfig, VarOrder};
use softsoa_core::{Assignment, Constraint, Domain, Scsp, SolveError, Val, Var};
use softsoa_semiring::{Residuated, Semiring};

use crate::registry::ProviderId;
use crate::{Broker, QosOffer, ServiceId};

/// One stage of a composite-service query.
#[derive(Debug, Clone)]
pub struct QueryStage<S: Semiring> {
    /// The capability providers must advertise.
    pub capability: String,
    /// The stage's QoS variable (distinct across stages).
    pub variable: Var,
    /// The QoS variable's domain.
    pub domain: Domain,
    /// The client's requirement on this stage.
    pub requirement: Constraint<S>,
}

/// A query for a composite service.
#[derive(Debug, Clone)]
pub struct ServiceQuery<S: Semiring> {
    /// The stages to fill, in pipeline order.
    pub stages: Vec<QueryStage<S>>,
    /// Constraints spanning several stage variables (budgets,
    /// compatibility, end-to-end requirements).
    pub cross_constraints: Vec<Constraint<S>>,
    /// The minimum acceptable plan level, if any.
    pub min_level: Option<S::Value>,
}

/// The plan answering a query: one service per stage, the QoS binding
/// and the achieved level.
#[derive(Debug, Clone)]
pub struct QueryPlan<S: Semiring> {
    /// `(service, provider)` chosen for each stage, in stage order.
    pub selections: Vec<(ServiceId, ProviderId)>,
    /// The values of every stage QoS variable.
    pub binding: Assignment,
    /// The achieved combined level.
    pub level: S::Value,
}

/// An error produced by the query engine.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum QueryError {
    /// A stage's capability has no provider with a matching offer.
    NoProvider {
        /// Index of the stage.
        stage: usize,
        /// Its capability.
        capability: String,
    },
    /// The SCSP has no solution above `0` (or above `min_level`).
    NoPlan,
    /// Solving failed.
    Solve(SolveError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NoProvider { stage, capability } => {
                write!(f, "stage {stage}: no provider offers `{capability}`")
            }
            QueryError::NoPlan => write!(f, "no plan satisfies the query"),
            QueryError::Solve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for QueryError {
    fn from(e: SolveError) -> QueryError {
        QueryError::Solve(e)
    }
}

fn choice_var(stage: usize) -> Var {
    Var::new(format!("__svc{stage}"))
}

impl<S: Residuated> Broker<S> {
    /// Compiles the query into a single SCSP over choice and QoS
    /// variables (see the module docs) — exposed for inspection and
    /// for feeding alternative solvers.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::NoProvider`] if some stage has no
    /// candidate with a matching offer.
    pub fn compile_query<F>(
        &self,
        query: &ServiceQuery<S>,
        translate: F,
    ) -> Result<Scsp<S>, QueryError>
    where
        F: Fn(&QosOffer) -> Constraint<S>,
    {
        let semiring = self.semiring().clone();
        let mut problem = Scsp::new(semiring.clone());
        let mut con: Vec<Var> = Vec::new();

        for (index, stage) in query.stages.iter().enumerate() {
            // Candidates: providers of the capability whose offers
            // mention the stage variable.
            let mut dispatch: HashMap<Val, Constraint<S>> = HashMap::new();
            for service in self.registry().discover(&stage.capability) {
                let offers: Vec<Constraint<S>> = service
                    .qos
                    .offers
                    .iter()
                    .filter(|o| o.variable == stage.variable.name())
                    .map(&translate)
                    .collect();
                if offers.is_empty() {
                    continue;
                }
                let combined = offers
                    .iter()
                    .skip(1)
                    .fold(offers[0].clone(), |acc, c| acc.combine(c));
                dispatch.insert(Val::sym(service.id.as_str()), combined);
            }
            if dispatch.is_empty() {
                return Err(QueryError::NoProvider {
                    stage: index,
                    capability: stage.capability.clone(),
                });
            }

            let sv = choice_var(index);
            let candidates: Vec<Val> = dispatch.keys().cloned().collect();
            problem.add_domain(sv.clone(), Domain::new(candidates));
            problem.add_domain(stage.variable.clone(), stage.domain.clone());

            // The dispatch constraint: level of (service, qos value).
            let zero = semiring.zero();
            problem.add_constraint(
                Constraint::binary(
                    semiring.clone(),
                    sv.clone(),
                    stage.variable.clone(),
                    move |svc, x| match dispatch.get(svc) {
                        Some(offer) => offer.eval_tuple(std::slice::from_ref(x)),
                        None => zero.clone(),
                    },
                )
                .with_label(format!("offer[{}]", stage.capability)),
            );
            problem.add_constraint(stage.requirement.clone());
            con.push(sv);
            con.push(stage.variable.clone());
        }

        for cross in &query.cross_constraints {
            problem.add_constraint(cross.clone());
        }
        Ok(problem.of_interest(con))
    }

    /// Answers a composite-service query by jointly optimising the
    /// provider selection and QoS binding of every stage.
    ///
    /// Uses branch-and-bound for totally ordered semirings and
    /// Pareto (frontier-bounded) branch-and-bound otherwise; in the
    /// partial-order case the returned plan is one non-dominated
    /// provider/binding combination.
    ///
    /// # Errors
    ///
    /// [`QueryError::NoProvider`] if a stage has no candidates;
    /// [`QueryError::NoPlan`] if nothing scores above `0` (or above
    /// `query.min_level`).
    ///
    /// # Examples
    ///
    /// ```
    /// use softsoa_core::{Constraint, Domain, Var};
    /// use softsoa_semiring::Probabilistic;
    /// use softsoa_soa::*;
    /// use softsoa_dependability::Attribute;
    ///
    /// let mut registry = Registry::new();
    /// registry.publish(ServiceDescription::new(
    ///     "filter-1", "acme", "filter",
    ///     QosDocument::new("filter-1").with_offer(QosOffer {
    ///         attribute: Attribute::Reliability,
    ///         variable: "f".into(),
    ///         shape: OfferShape::Constant { level: 0.9 },
    ///     })));
    /// let broker = Broker::new(Probabilistic, registry);
    ///
    /// let query = ServiceQuery {
    ///     stages: vec![QueryStage {
    ///         capability: "filter".into(),
    ///         variable: Var::new("f"),
    ///         domain: Domain::ints(0..=1),
    ///         requirement: Constraint::always(Probabilistic),
    ///     }],
    ///     cross_constraints: vec![],
    ///     min_level: None,
    /// };
    /// let plan = broker.query(&query, Probabilistic::translate)?;
    /// assert_eq!(plan.selections[0].0, ServiceId::new("filter-1"));
    /// # Ok::<(), QueryError>(())
    /// ```
    pub fn query<F>(
        &self,
        query: &ServiceQuery<S>,
        translate: F,
    ) -> Result<QueryPlan<S>, QueryError>
    where
        F: Fn(&QosOffer) -> Constraint<S>,
    {
        self.query_with(query, translate, &SolverConfig::default())
    }

    /// Like [`Broker::query`] but under an explicit solver engine
    /// configuration (worker threads, propagation, decomposition).
    ///
    /// # Errors
    ///
    /// Same as [`Broker::query`].
    pub fn query_with<F>(
        &self,
        query: &ServiceQuery<S>,
        translate: F,
        config: &SolverConfig,
    ) -> Result<QueryPlan<S>, QueryError>
    where
        F: Fn(&QosOffer) -> Constraint<S>,
    {
        let semiring = self.semiring().clone();
        let problem = self.compile_query(query, translate)?;
        let solution = if semiring.is_total() {
            BranchAndBound::with_config(VarOrder::MostConstrained, *config).solve(&problem)?
        } else {
            ParetoBranchAndBound::with_config(*config).solve(&problem)?
        };
        if let Some(stats) = solution.stats() {
            stats.emit(&self.telemetry, "query");
        }
        let Some((eta, level)) = solution.best().first() else {
            return Err(QueryError::NoPlan);
        };
        if let Some(min) = &query.min_level {
            if semiring.lt(level, min) {
                return Err(QueryError::NoPlan);
            }
        }

        let mut selections = Vec::with_capacity(query.stages.len());
        let mut binding = Assignment::new();
        for (index, stage) in query.stages.iter().enumerate() {
            let choice = eta
                .get(&choice_var(index))
                .and_then(Val::as_sym)
                .expect("choice variable assigned");
            let service = ServiceId::new(choice);
            let provider = self
                .registry()
                .get(&service)
                .expect("selected service is registered")
                .provider
                .clone();
            selections.push((service, provider));
            if let Some(v) = eta.get(&stage.variable) {
                binding.set(stage.variable.clone(), v.clone());
            }
        }
        Ok(QueryPlan {
            selections,
            binding,
            level: level.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OfferShape, QosDocument, Registry, ServiceDescription, WireSemiring};
    use softsoa_core::solve::{EnumerationSolver, Parallelism};
    use softsoa_dependability::Attribute;
    use softsoa_semiring::{Probabilistic, Unit, Weighted, WeightedInt};

    fn provider(id: &str, capability: &str, var: &str, shape: OfferShape) -> ServiceDescription {
        ServiceDescription::new(
            id,
            format!("{id}-org").as_str(),
            capability,
            QosDocument::new(id).with_offer(QosOffer {
                attribute: Attribute::Reliability,
                variable: var.into(),
                shape,
            }),
        )
    }

    fn stage<S: Semiring>(
        capability: &str,
        var: &str,
        domain: Domain,
        requirement: Constraint<S>,
    ) -> QueryStage<S> {
        QueryStage {
            capability: capability.into(),
            variable: Var::new(var),
            domain,
            requirement,
        }
    }

    #[test]
    fn single_stage_query_picks_best_provider() {
        let mut registry = Registry::new();
        registry.publish(provider(
            "a",
            "filter",
            "f",
            OfferShape::Constant { level: 0.8 },
        ));
        registry.publish(provider(
            "b",
            "filter",
            "f",
            OfferShape::Constant { level: 0.95 },
        ));
        let broker = Broker::new(Probabilistic, registry);
        let query = ServiceQuery {
            stages: vec![stage(
                "filter",
                "f",
                Domain::ints(0..=1),
                Constraint::always(Probabilistic),
            )],
            cross_constraints: vec![],
            min_level: None,
        };
        let plan = broker.query(&query, Probabilistic::translate).unwrap();
        assert_eq!(plan.selections[0].0, ServiceId::new("b"));
        assert_eq!(plan.level, Unit::clamped(0.95));
    }

    #[test]
    fn joint_optimisation_beats_greedy_under_a_budget() {
        // Two stages, weighted (cost) semiring. Stage costs depend on a
        // per-stage quality knob q ∈ {0, 1} (higher quality, higher
        // cost). A cross-constraint demands total quality ≥ 1.
        //
        // Greedy per-stage composition would pick q = 0 twice (cheapest)
        // and violate the quality floor; the query engine must spend on
        // exactly one stage.
        let mut registry = Registry::new();
        registry.publish(provider(
            "s1",
            "stage1",
            "q1",
            OfferShape::Linear {
                slope: 5.0,
                intercept: 1.0,
            },
        ));
        registry.publish(provider(
            "s2",
            "stage2",
            "q2",
            OfferShape::Linear {
                slope: 3.0,
                intercept: 1.0,
            },
        ));
        let broker = Broker::new(Weighted, registry);
        let quality_floor =
            Constraint::crisp(Weighted, &softsoa_core::vars(["q1", "q2"]), |vals| {
                vals[0].as_int().unwrap() + vals[1].as_int().unwrap() >= 1
            });
        let query = ServiceQuery {
            stages: vec![
                stage(
                    "stage1",
                    "q1",
                    Domain::ints(0..=1),
                    Constraint::always(Weighted),
                ),
                stage(
                    "stage2",
                    "q2",
                    Domain::ints(0..=1),
                    Constraint::always(Weighted),
                ),
            ],
            cross_constraints: vec![quality_floor],
            min_level: None,
        };
        let plan = broker.query(&query, Weighted::translate).unwrap();
        // Cheapest feasible: raise quality on the cheaper stage 2:
        // cost = (5·0 + 1) + (3·1 + 1) = 5.
        assert_eq!(plan.level, softsoa_semiring::Weight::new(5.0).unwrap());
        assert_eq!(plan.binding.get(&Var::new("q1")).unwrap().as_int(), Some(0));
        assert_eq!(plan.binding.get(&Var::new("q2")).unwrap().as_int(), Some(1));
    }

    #[test]
    fn per_stage_provider_choice_interacts_with_cross_constraints() {
        // One capability, two providers with opposite cost curves; two
        // stages share a compatibility constraint: equal knob values.
        let mut registry = Registry::new();
        registry.publish(provider(
            "cheap-low",
            "compute",
            "k1",
            OfferShape::Linear {
                slope: 10.0,
                intercept: 0.0,
            },
        ));
        registry.publish(provider(
            "cheap-high",
            "compute",
            "k1",
            OfferShape::Linear {
                slope: -10.0,
                intercept: 20.0,
            },
        ));
        let broker = Broker::new(Weighted, registry);
        let query = ServiceQuery {
            stages: vec![stage(
                "compute",
                "k1",
                Domain::ints(0..=2),
                // The client needs the knob at 2.
                Constraint::crisp(Weighted, &softsoa_core::vars(["k1"]), |vals| {
                    vals[0].as_int() == Some(2)
                }),
            )],
            cross_constraints: vec![],
            min_level: None,
        };
        let plan = broker.query(&query, Weighted::translate).unwrap();
        // At k1 = 2: cheap-low costs 20, cheap-high costs 0.
        assert_eq!(plan.selections[0].0, ServiceId::new("cheap-high"));
        assert_eq!(plan.level, softsoa_semiring::Weight::ZERO);
    }

    #[test]
    fn partial_order_queries_use_the_frontier() {
        use softsoa_semiring::{Product, Weight};
        // Cost × reliability: the engine must pick a non-dominated plan.
        type CostRel = Product<Weighted, Probabilistic>;
        let semiring = CostRel::new(Weighted, Probabilistic);
        let mut registry = Registry::new();
        for (id, cost, rel) in [
            ("cheap", 5.0, 0.8),
            ("solid", 20.0, 0.99),
            ("bad", 25.0, 0.7),
        ] {
            registry.publish(ServiceDescription::new(
                id,
                "org",
                "compute",
                QosDocument::new(id).with_offer(QosOffer {
                    attribute: Attribute::Reliability,
                    variable: "k".into(),
                    shape: OfferShape::Constant { level: rel },
                }),
            ));
            // Attach the cost as a second offer on the same variable.
            let mut desc = registry.get(&ServiceId::new(id)).unwrap().clone();
            desc.qos = desc.qos.with_offer(QosOffer {
                attribute: Attribute::Maintainability,
                variable: "k".into(),
                shape: OfferShape::Constant { level: cost },
            });
            registry.publish(desc);
        }
        let broker = Broker::new(semiring, registry);
        let query = ServiceQuery {
            stages: vec![stage(
                "compute",
                "k",
                Domain::ints(0..=0),
                Constraint::always(semiring),
            )],
            cross_constraints: vec![],
            min_level: None,
        };
        // Translate both offers into the product semiring: reliability
        // offers carry full cost, cost offers carry full reliability.
        let plan = broker
            .query(&query, |offer: &QosOffer| match offer.attribute {
                Attribute::Maintainability => {
                    let shape = offer.shape.clone();
                    Constraint::unary(
                        CostRel::new(Weighted, Probabilistic),
                        Var::new(&offer.variable),
                        move |v| {
                            (
                                Weighted::level(shape.level_at(v.as_int().unwrap_or(0))),
                                Unit::MAX,
                            )
                        },
                    )
                }
                _ => {
                    let shape = offer.shape.clone();
                    Constraint::unary(
                        CostRel::new(Weighted, Probabilistic),
                        Var::new(&offer.variable),
                        move |v| {
                            (
                                Weight::ZERO,
                                Probabilistic::level(shape.level_at(v.as_int().unwrap_or(0))),
                            )
                        },
                    )
                }
            })
            .unwrap();
        // "bad" is dominated by "solid"; the plan must be one of the
        // frontier providers.
        let chosen = plan.selections[0].0.as_str();
        assert!(chosen == "cheap" || chosen == "solid", "chose {chosen}");
    }

    #[test]
    fn query_agrees_with_the_enumeration_oracle() {
        let mut registry = Registry::new();
        registry.publish(provider(
            "a",
            "filter",
            "f",
            OfferShape::Constant { level: 0.8 },
        ));
        registry.publish(provider(
            "b",
            "filter",
            "f",
            OfferShape::Constant { level: 0.95 },
        ));
        let broker = Broker::new(Probabilistic, registry);
        let query = ServiceQuery {
            stages: vec![stage(
                "filter",
                "f",
                Domain::ints(0..=1),
                Constraint::always(Probabilistic),
            )],
            cross_constraints: vec![],
            min_level: None,
        };
        let problem = broker
            .compile_query(&query, Probabilistic::translate)
            .unwrap();
        let oracle = EnumerationSolver::new().solve(&problem).unwrap();
        let sequential = SolverConfig::default().with_parallelism(Parallelism::Sequential);
        for plan in [
            broker.query(&query, Probabilistic::translate).unwrap(),
            broker
                .query_with(&query, Probabilistic::translate, &sequential)
                .unwrap(),
        ] {
            assert_eq!(&plan.level, oracle.blevel());
            let chosen = Val::sym(plan.selections[0].0.as_str());
            assert!(
                oracle.best().iter().any(|(eta, level)| {
                    *level == plan.level
                        && eta.get(&choice_var(0)) == Some(&chosen)
                        && eta.get(&Var::new("f")) == plan.binding.get(&Var::new("f"))
                }),
                "plan {:?} is not an optimal oracle entry",
                plan.selections
            );
        }
    }

    #[test]
    fn missing_capability_is_reported_with_its_stage() {
        let broker = Broker::new(WeightedInt, Registry::new());
        let query: ServiceQuery<WeightedInt> = ServiceQuery {
            stages: vec![stage(
                "nowhere",
                "x",
                Domain::ints(0..=1),
                Constraint::always(WeightedInt),
            )],
            cross_constraints: vec![],
            min_level: None,
        };
        match broker.query(&query, |_| Constraint::always(WeightedInt)) {
            Err(QueryError::NoProvider { stage, capability }) => {
                assert_eq!(stage, 0);
                assert_eq!(capability, "nowhere");
            }
            other => panic!("expected NoProvider, got {other:?}"),
        }
    }

    #[test]
    fn min_level_rejects_poor_plans() {
        let mut registry = Registry::new();
        registry.publish(provider(
            "a",
            "filter",
            "f",
            OfferShape::Constant { level: 0.5 },
        ));
        let broker = Broker::new(Probabilistic, registry);
        let query = ServiceQuery {
            stages: vec![stage(
                "filter",
                "f",
                Domain::ints(0..=1),
                Constraint::always(Probabilistic),
            )],
            cross_constraints: vec![],
            min_level: Some(Unit::clamped(0.9)),
        };
        assert!(matches!(
            broker.query(&query, Probabilistic::translate),
            Err(QueryError::NoPlan)
        ));
    }

    #[test]
    fn infeasible_cross_constraint_is_no_plan() {
        let mut registry = Registry::new();
        registry.publish(provider(
            "a",
            "filter",
            "f",
            OfferShape::Constant { level: 0.9 },
        ));
        let broker = Broker::new(Probabilistic, registry);
        let query = ServiceQuery {
            stages: vec![stage(
                "filter",
                "f",
                Domain::ints(0..=1),
                Constraint::always(Probabilistic),
            )],
            cross_constraints: vec![Constraint::never(Probabilistic)],
            min_level: None,
        };
        assert!(matches!(
            broker.query(&query, Probabilistic::translate),
            Err(QueryError::NoPlan)
        ));
    }
}
