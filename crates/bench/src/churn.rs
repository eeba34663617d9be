//! Registry-churn workload for the incremental re-solve engine (E17).
//!
//! Models a service registry under provider churn: `clusters`
//! independent 3-variable QoS clusters (each the binding problem of
//! one capability), hit by a stream of join / leave / QoS-update
//! events. Every event dirties exactly one cluster, so an incremental
//! solver re-searches one component while a from-scratch baseline
//! re-solves the whole registry.
//!
//! [`run_incremental`], [`run_warm`] and [`run_cold`] apply the *same*
//! delta stream through the same [`IncrementalSolver`] entry points —
//! the baselines merely snapshot [`IncrementalSolver::problem`] and
//! solve it from scratch after every event (the warm variant seeds the
//! search with the previous witness re-evaluated under the new store,
//! an always-admissible incumbent) — so
//! their per-event `blevel` sequences are directly comparable (and
//! asserted equal by the `churn_incremental` bench and the
//! differential test suite).

use rand::{rngs::StdRng, Rng, SeedableRng};
use softsoa_core::solve::{
    BranchAndBound, ConstraintId, IncrementalSolver, IncrementalStats, Parallelism, Solver,
    SolverConfig, VarOrder,
};
use softsoa_core::{Constraint, Domain, Var};
use softsoa_semiring::{Semiring, WeightedInt};

/// Shape of a churn workload over the weighted semiring.
#[derive(Debug, Clone, Copy)]
pub struct ChurnWorkload {
    /// Number of independent 2-variable clusters.
    pub clusters: usize,
    /// Domain size of every cluster variable (`0..domain_size`).
    pub domain_size: i64,
    /// Length of the churn event stream.
    pub events: usize,
    /// RNG seed for the event stream.
    pub seed: u64,
}

impl ChurnWorkload {
    /// The default E17 shape: 24 clusters of 3 variables over domain
    /// `{0..7}`, 64 churn events.
    pub fn default_shape() -> ChurnWorkload {
        ChurnWorkload {
            clusters: 24,
            domain_size: 8,
            events: 64,
            seed: 7,
        }
    }
}

/// One registry-churn delta against a single cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A provider joins: a fresh unary preference lands on the
    /// cluster's last variable.
    Join {
        /// Target cluster.
        cluster: usize,
        /// Slope of the provider's cost curve.
        weight: u64,
        /// Constant offset of the provider's cost curve.
        bias: u64,
    },
    /// The most recently joined provider of the cluster leaves again.
    Leave {
        /// Target cluster.
        cluster: usize,
    },
    /// A QoS re-publication rewrites the cluster's link constraint.
    Update {
        /// Target cluster.
        cluster: usize,
        /// New slope on the variable mismatch.
        weight: u64,
        /// New constant offset.
        bias: u64,
    },
}

/// Generates the deterministic event stream for `w`. `Leave` events
/// are only emitted against clusters that still have a joined
/// provider, so every event is applicable in order.
pub fn churn_events(w: &ChurnWorkload) -> Vec<ChurnEvent> {
    let mut rng = StdRng::seed_from_u64(w.seed);
    let mut joined = vec![0usize; w.clusters];
    (0..w.events)
        .map(|_| {
            let cluster = rng.random_range(0..w.clusters);
            let weight = rng.random_range(1..4u64);
            let bias = rng.random_range(0..5u64);
            match rng.random_range(0..3u32) {
                0 if joined[cluster] > 0 => {
                    joined[cluster] -= 1;
                    ChurnEvent::Leave { cluster }
                }
                // A leave against an empty cluster becomes a join.
                0 | 1 => {
                    joined[cluster] += 1;
                    ChurnEvent::Join {
                        cluster,
                        weight,
                        bias,
                    }
                }
                _ => ChurnEvent::Update {
                    cluster,
                    weight,
                    bias,
                },
            }
        })
        .collect()
}

/// Per-cluster constraint handles threaded through the delta stream.
#[derive(Debug, Clone)]
pub struct ChurnHandles {
    links: Vec<ConstraintId>,
    joins: Vec<Vec<ConstraintId>>,
}

fn cluster_vars(cluster: usize) -> (Var, Var, Var) {
    (
        Var::new(format!("c{cluster}_a")),
        Var::new(format!("c{cluster}_b")),
        Var::new(format!("c{cluster}_c")),
    )
}

fn link_constraint(cluster: usize, weight: u64, bias: u64) -> Constraint<WeightedInt> {
    let (a, b, _) = cluster_vars(cluster);
    Constraint::binary(WeightedInt, a, b, move |x, y| {
        weight * x.as_int().unwrap().abs_diff(y.as_int().unwrap()) + bias
    })
}

fn provider_constraint(cluster: usize, weight: u64, bias: u64) -> Constraint<WeightedInt> {
    let (_, _, c) = cluster_vars(cluster);
    Constraint::unary(WeightedInt, c, move |v| {
        weight * v.as_int().unwrap() as u64 + bias
    })
}

/// Builds the base registry: every cluster chains its three variables
/// with two link constraints plus a unary client preference, all
/// clusters independent of each other.
pub fn build(w: &ChurnWorkload) -> (IncrementalSolver<WeightedInt>, ChurnHandles) {
    let mut solver = IncrementalSolver::new(WeightedInt).with_config(
        VarOrder::Input,
        SolverConfig::default().with_parallelism(Parallelism::Sequential),
    );
    let mut con = Vec::new();
    let mut links = Vec::new();
    for cluster in 0..w.clusters {
        let (a, b, c) = cluster_vars(cluster);
        for v in [&a, &b, &c] {
            solver.declare(v.clone(), Domain::ints(0..w.domain_size));
        }
        solver.add_constraint(Constraint::unary(WeightedInt, a.clone(), |v| {
            v.as_int().unwrap() as u64
        }));
        links.push(solver.add_constraint(link_constraint(cluster, 1, 0)));
        solver.add_constraint(Constraint::binary(
            WeightedInt,
            b.clone(),
            c.clone(),
            |x, y| x.as_int().unwrap().abs_diff(y.as_int().unwrap()),
        ));
        con.extend([a, b, c]);
    }
    let solver = solver.of_interest(con);
    let joins = vec![Vec::new(); w.clusters];
    (solver, ChurnHandles { links, joins })
}

/// Applies one churn event as an incremental delta.
pub fn apply(
    solver: &mut IncrementalSolver<WeightedInt>,
    handles: &mut ChurnHandles,
    event: &ChurnEvent,
) {
    match *event {
        ChurnEvent::Join {
            cluster,
            weight,
            bias,
        } => {
            let id = solver.add_constraint(provider_constraint(cluster, weight, bias));
            handles.joins[cluster].push(id);
        }
        ChurnEvent::Leave { cluster } => {
            let id = handles.joins[cluster]
                .pop()
                .expect("leave against a cluster with no joined provider");
            solver.retract_constraint(id);
        }
        ChurnEvent::Update {
            cluster,
            weight,
            bias,
        } => {
            solver.update_constraint(
                handles.links[cluster],
                link_constraint(cluster, weight, bias),
            );
        }
    }
}

/// Runs the workload through the incremental engine: one persistent
/// solver, one `solve` per event. Returns the per-event blevels and
/// the accumulated work-avoidance stats.
pub fn run_incremental(w: &ChurnWorkload) -> (Vec<u64>, IncrementalStats) {
    let events = churn_events(w);
    let (mut solver, mut handles) = build(w);
    solver.solve().expect("base churn problem must solve");
    let blevels = events
        .iter()
        .map(|event| {
            apply(&mut solver, &mut handles, event);
            *solver.solve().expect("churn step must solve").blevel()
        })
        .collect();
    (blevels, solver.stats().clone())
}

/// Runs the same workload from scratch: after every event the current
/// problem is snapshotted and handed to a fresh [`BranchAndBound`].
pub fn run_cold(w: &ChurnWorkload) -> Vec<u64> {
    let events = churn_events(w);
    let (mut solver, mut handles) = build(w);
    let search = BranchAndBound::with_config(
        VarOrder::Input,
        SolverConfig::default().with_parallelism(Parallelism::Sequential),
    );
    search
        .solve(&solver.problem())
        .expect("base churn problem must solve");
    events
        .iter()
        .map(|event| {
            apply(&mut solver, &mut handles, event);
            *search
                .solve(&solver.problem())
                .expect("churn step must solve")
                .blevel()
        })
        .collect()
}

/// Runs the same workload warm: from-scratch search after every
/// event, but seeded with the previous witness re-evaluated under the
/// mutated store — an always-admissible incumbent.
pub fn run_warm(w: &ChurnWorkload) -> Vec<u64> {
    let events = churn_events(w);
    let (mut solver, mut handles) = build(w);
    let search = BranchAndBound::with_config(
        VarOrder::Input,
        SolverConfig::default().with_parallelism(Parallelism::Sequential),
    );
    let mut witness = search
        .solve(&solver.problem())
        .expect("base churn problem must solve")
        .best_assignment()
        .cloned();
    events
        .iter()
        .map(|event| {
            apply(&mut solver, &mut handles, event);
            let problem = solver.problem();
            let seed = witness.as_ref().and_then(|eta| {
                problem
                    .constraints()
                    .iter()
                    .try_fold(WeightedInt.one(), |acc, c| {
                        c.try_eval(eta).map(|v| WeightedInt.times(&acc, &v)).ok()
                    })
            });
            let solution = match seed {
                Some(seed) if !WeightedInt.is_zero(&seed) => search.solve_seeded(&problem, seed),
                _ => search.solve(&problem),
            }
            .expect("churn step must solve");
            witness = solution.best_assignment().cloned();
            *solution.blevel()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_matches_cold_blevels() {
        let w = ChurnWorkload {
            clusters: 6,
            domain_size: 3,
            events: 24,
            seed: 11,
        };
        let (incremental, stats) = run_incremental(&w);
        let cold = run_cold(&w);
        let warm = run_warm(&w);
        assert_eq!(incremental, cold);
        assert_eq!(incremental, warm);
        assert_eq!(incremental.len(), w.events);
        // Each event dirties one cluster; the other five come out of
        // the component cache.
        assert!(
            stats.components_reused > stats.components_resolved,
            "churn should mostly reuse: {stats:?}"
        );
    }

    #[test]
    fn leave_events_only_target_joined_clusters() {
        let w = ChurnWorkload::default_shape();
        let events = churn_events(&w);
        assert_eq!(events.len(), w.events);
        let mut joined = vec![0i64; w.clusters];
        for event in &events {
            match *event {
                ChurnEvent::Join { cluster, .. } => joined[cluster] += 1,
                ChurnEvent::Leave { cluster } => {
                    joined[cluster] -= 1;
                    assert!(joined[cluster] >= 0, "leave from empty cluster");
                }
                ChurnEvent::Update { cluster, .. } => assert!(cluster < w.clusters),
            }
        }
        assert!(
            events.iter().any(|e| matches!(e, ChurnEvent::Leave { .. })),
            "stream should exercise retractions"
        );
    }
}
