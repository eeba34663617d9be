//! Seeded generators of random and structured SCSPs.
//!
//! Used by the benchmark harness (experiment E9, `solver_comparison`)
//! and by cross-solver property tests. All generators are deterministic
//! given their seed.

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};
use softsoa_semiring::{Boolean, Fuzzy, Probabilistic, Product, Semiring, Unit, WeightedInt};

use crate::{Constraint, Domain, Scsp, Var};

/// Parameters of a random SCSP.
///
/// # Examples
///
/// ```
/// use softsoa_core::generate::{RandomScsp, random_weighted};
///
/// let cfg = RandomScsp { vars: 6, domain_size: 3, constraints: 8, arity: 2, seed: 42 };
/// let p = random_weighted(&cfg);
/// assert_eq!(p.constraints().len(), 8);
/// assert!(p.blevel().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomScsp {
    /// Number of variables `x0 .. x(vars-1)`.
    pub vars: usize,
    /// Size of every integer domain `{0 .. domain_size-1}`.
    pub domain_size: usize,
    /// Number of constraints.
    pub constraints: usize,
    /// Arity of each constraint (clamped to `vars`).
    pub arity: usize,
    /// RNG seed; equal seeds give equal problems.
    pub seed: u64,
}

fn var(i: usize) -> Var {
    Var::new(format!("x{i}"))
}

/// Generates a random SCSP over an arbitrary semiring, drawing each
/// table entry's level from `level`.
///
/// The first variable is the variable of interest.
pub fn random_scsp<S, F>(semiring: S, cfg: &RandomScsp, mut level: F) -> Scsp<S>
where
    S: Semiring,
    F: FnMut(&mut StdRng) -> S::Value,
{
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let arity = cfg.arity.clamp(1, cfg.vars.max(1));
    let mut p = Scsp::new(semiring.clone());
    for i in 0..cfg.vars {
        p.add_domain(var(i), Domain::ints(0..cfg.domain_size as i64));
    }
    let indices: Vec<usize> = (0..cfg.vars).collect();
    for _ in 0..cfg.constraints {
        let mut chosen: Vec<usize> = indices.choose_multiple(&mut rng, arity).copied().collect();
        chosen.sort();
        let scope: Vec<Var> = chosen.iter().map(|&i| var(i)).collect();
        let doms = p.domains().clone();
        let mut entries = Vec::new();
        for tuple in doms.tuples(&scope).expect("domains declared") {
            entries.push((tuple, level(&mut rng)));
        }
        let zero = semiring.zero();
        p.add_constraint(Constraint::table(semiring.clone(), &scope, entries, zero));
    }
    p.of_interest([var(0)])
}

/// A random weighted SCSP with integer costs in `0..=9` (and an
/// occasional `∞` forbidding the tuple).
pub fn random_weighted(cfg: &RandomScsp) -> Scsp<WeightedInt> {
    random_scsp(WeightedInt, cfg, |rng| {
        if rng.random_ratio(1, 10) {
            u64::MAX
        } else {
            rng.random_range(0..10)
        }
    })
}

/// A random fuzzy SCSP with preference levels drawn uniformly from
/// `{0.0, 0.1, .., 1.0}`.
pub fn random_fuzzy(cfg: &RandomScsp) -> Scsp<Fuzzy> {
    random_scsp(Fuzzy, cfg, |rng| {
        Unit::clamped(rng.random_range(0..=10) as f64 / 10.0)
    })
}

/// A random probabilistic SCSP with success probabilities drawn
/// uniformly from `{0.0, 0.1, .., 1.0}`.
pub fn random_probabilistic(cfg: &RandomScsp) -> Scsp<Probabilistic> {
    random_scsp(Probabilistic, cfg, |rng| {
        Unit::clamped(rng.random_range(0..=10) as f64 / 10.0)
    })
}

/// A random SCSP over the partially ordered product semiring
/// `Boolean × WeightedInt` (feasibility paired with cost).
pub fn random_product(cfg: &RandomScsp) -> Scsp<Product<Boolean, WeightedInt>> {
    random_scsp(Product::new(Boolean, WeightedInt), cfg, |rng| {
        (rng.random_ratio(4, 5), rng.random_range(0..10))
    })
}

/// A weighted *chain* `x0 — x1 — ... — x(n-1)` of binary distance
/// constraints: induced width 1, the best case for bucket elimination.
pub fn chain_weighted(n: usize, domain_size: usize, seed: u64) -> Scsp<WeightedInt> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Scsp::new(WeightedInt);
    for i in 0..n {
        p.add_domain(var(i), Domain::ints(0..domain_size as i64));
    }
    for i in 0..n.saturating_sub(1) {
        let offset = rng.random_range(0..domain_size as i64);
        p.add_constraint(Constraint::binary(
            WeightedInt,
            var(i),
            var(i + 1),
            move |a, b| (a.as_int().unwrap() + offset - b.as_int().unwrap()).unsigned_abs(),
        ));
    }
    p.of_interest([var(0)])
}

/// Parameters of a structured *union* SCSP: `components` independent
/// banded sub-problems with no constraints between them. The
/// constraint graph of each component is the band graph (variable `i`
/// constrained to its `band` predecessors), so its treewidth is at
/// most `band`; the whole problem decomposes into exactly
/// `components` connected components.
///
/// This is the family behind the `propagation_vs_blind` benchmark:
/// tight extensional tables give the root arc-consistency pass real
/// values to prune, and the component structure lets decomposition
/// replace one search of size `d^(k·m)` with `k` searches of size
/// `d^m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnionScsp {
    /// Number of independent components.
    pub components: usize,
    /// Variables in each component.
    pub vars_per_component: usize,
    /// Size of every integer domain.
    pub domain_size: usize,
    /// Bandwidth: variable `i` of a component is constrained to each
    /// of its `band` predecessors (clamped to at least 1).
    pub band: usize,
    /// RNG seed; equal seeds give equal problems.
    pub seed: u64,
}

/// Generates a structured union SCSP over an arbitrary semiring,
/// drawing each table entry's level from `level`. Variables are
/// `x0..` numbered component-major; the first variable of every
/// component is of interest.
pub fn union_scsp<S, F>(semiring: S, cfg: &UnionScsp, mut level: F) -> Scsp<S>
where
    S: Semiring,
    F: FnMut(&mut StdRng) -> S::Value,
{
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let band = cfg.band.max(1);
    let mut p = Scsp::new(semiring.clone());
    let total = cfg.components * cfg.vars_per_component;
    for i in 0..total {
        p.add_domain(var(i), Domain::ints(0..cfg.domain_size as i64));
    }
    for c in 0..cfg.components {
        let base = c * cfg.vars_per_component;
        for i in 1..cfg.vars_per_component {
            for j in i.saturating_sub(band)..i {
                let scope = vec![var(base + j), var(base + i)];
                let doms = p.domains().clone();
                let mut entries = Vec::new();
                for tuple in doms.tuples(&scope).expect("domains declared") {
                    entries.push((tuple, level(&mut rng)));
                }
                let zero = semiring.zero();
                p.add_constraint(Constraint::table(semiring.clone(), &scope, entries, zero));
            }
        }
    }
    p.of_interest((0..cfg.components).map(|c| var(c * cfg.vars_per_component)))
}

/// A weighted structured union with tight tables: roughly a third of
/// the tuples are forbidden (`∞`), the rest cost `0..=9` — dense
/// enough in `∞` that the root arc-consistency pass prunes real
/// domain values, sparse enough that components stay consistent.
pub fn union_weighted(cfg: &UnionScsp) -> Scsp<WeightedInt> {
    union_scsp(WeightedInt, cfg, |rng| {
        if rng.random_ratio(3, 10) {
            u64::MAX
        } else {
            rng.random_range(0..10)
        }
    })
}

/// A single-component banded problem of treewidth at most `band`
/// (a [`UnionScsp`] with one component).
pub fn banded_weighted(n: usize, domain_size: usize, band: usize, seed: u64) -> Scsp<WeightedInt> {
    union_weighted(&UnionScsp {
        components: 1,
        vars_per_component: n,
        domain_size,
        band,
        seed,
    })
}

fn one_component(n: usize, domain_size: usize, band: usize, seed: u64) -> UnionScsp {
    UnionScsp {
        components: 1,
        vars_per_component: n,
        domain_size,
        band,
        seed,
    }
}

/// A single-component banded fuzzy problem: the [`banded_weighted`]
/// band graph with preference levels from `{0.0, 0.1, .., 1.0}`,
/// roughly a tenth of the tuples fully rejected (`0.0`) so pruning and
/// consistency both stay exercised.
pub fn banded_fuzzy(n: usize, domain_size: usize, band: usize, seed: u64) -> Scsp<Fuzzy> {
    union_scsp(Fuzzy, &one_component(n, domain_size, band, seed), |rng| {
        if rng.random_ratio(1, 10) {
            Unit::MIN
        } else {
            Unit::clamped(rng.random_range(1..=10) as f64 / 10.0)
        }
    })
}

/// A single-component banded probabilistic problem: the
/// [`banded_weighted`] band graph with success probabilities from
/// `{0.0, 0.1, .., 1.0}`, roughly a tenth of the tuples impossible
/// (`0.0`). Probabilistic `×` rounds, so engines that re-associate the
/// product (tree elimination) may differ from search by final-ulp
/// noise — the cross-semiring equivalence suite compares accordingly.
pub fn banded_probabilistic(
    n: usize,
    domain_size: usize,
    band: usize,
    seed: u64,
) -> Scsp<Probabilistic> {
    union_scsp(
        Probabilistic,
        &one_component(n, domain_size, band, seed),
        |rng| {
            if rng.random_ratio(1, 10) {
                Unit::MIN
            } else {
                Unit::clamped(rng.random_range(1..=10) as f64 / 10.0)
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{BranchAndBound, BucketElimination, EnumerationSolver, Solver};

    #[test]
    fn generation_is_deterministic() {
        let cfg = RandomScsp {
            vars: 5,
            domain_size: 3,
            constraints: 6,
            arity: 2,
            seed: 7,
        };
        let a = random_weighted(&cfg).blevel().unwrap();
        let b = random_weighted(&cfg).blevel().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn solvers_agree_on_random_weighted_problems() {
        for seed in 0..10 {
            let cfg = RandomScsp {
                vars: 5,
                domain_size: 3,
                constraints: 7,
                arity: 2,
                seed,
            };
            let p = random_weighted(&cfg);
            let reference = EnumerationSolver::new().solve(&p).unwrap();
            let bnb = BranchAndBound::default().solve(&p).unwrap();
            let be = BucketElimination::default().solve(&p).unwrap();
            assert_eq!(reference.blevel(), bnb.blevel(), "seed {seed}");
            assert_eq!(reference.blevel(), be.blevel(), "seed {seed}");
        }
    }

    #[test]
    fn solvers_agree_on_random_fuzzy_problems() {
        for seed in 0..10 {
            let cfg = RandomScsp {
                vars: 4,
                domain_size: 4,
                constraints: 5,
                arity: 2,
                seed,
            };
            let p = random_fuzzy(&cfg);
            let reference = EnumerationSolver::new().solve(&p).unwrap();
            let bnb = BranchAndBound::default().solve(&p).unwrap();
            let be = BucketElimination::default().solve(&p).unwrap();
            assert_eq!(reference.blevel(), bnb.blevel(), "seed {seed}");
            assert_eq!(reference.blevel(), be.blevel(), "seed {seed}");
        }
    }

    #[test]
    fn probabilistic_and_product_generators_are_deterministic() {
        let cfg = RandomScsp {
            vars: 4,
            domain_size: 3,
            constraints: 5,
            arity: 2,
            seed: 11,
        };
        assert_eq!(
            random_probabilistic(&cfg).blevel().unwrap(),
            random_probabilistic(&cfg).blevel().unwrap()
        );
        assert_eq!(
            random_product(&cfg).blevel().unwrap(),
            random_product(&cfg).blevel().unwrap()
        );
    }

    #[test]
    fn chain_has_binary_constraints_only() {
        let p = chain_weighted(6, 3, 1);
        assert_eq!(p.constraints().len(), 5);
        assert!(p.constraints().iter().all(|c| c.scope().len() == 2));
    }

    #[test]
    fn union_splits_into_its_components() {
        let cfg = UnionScsp {
            components: 3,
            vars_per_component: 4,
            domain_size: 3,
            band: 2,
            seed: 9,
        };
        let p = union_weighted(&cfg);
        let comps = crate::solve::constraint_components(&p);
        assert_eq!(comps.len(), 3);
        assert!(comps.iter().all(|c| c.len() == 4));
        // Deterministic given the seed.
        assert_eq!(p.blevel().unwrap(), union_weighted(&cfg).blevel().unwrap());
    }

    #[test]
    fn banded_fuzzy_and_probabilistic_share_the_band_graph() {
        let w = banded_weighted(6, 3, 2, 4);
        let f = banded_fuzzy(6, 3, 2, 4);
        let pr = banded_probabilistic(6, 3, 2, 4);
        assert_eq!(w.constraints().len(), f.constraints().len());
        assert_eq!(w.constraints().len(), pr.constraints().len());
        for (a, b) in w.constraints().iter().zip(f.constraints()) {
            assert_eq!(a.scope(), b.scope());
        }
        // Deterministic given the seed.
        assert_eq!(
            f.blevel().unwrap(),
            banded_fuzzy(6, 3, 2, 4).blevel().unwrap()
        );
        assert_eq!(
            pr.blevel().unwrap(),
            banded_probabilistic(6, 3, 2, 4).blevel().unwrap()
        );
    }

    #[test]
    fn banded_respects_the_band() {
        let p = banded_weighted(5, 3, 2, 3);
        // Edges (j, i) with i - band <= j < i: 1 + 2 + 2 + 2.
        assert_eq!(p.constraints().len(), 7);
        for c in p.constraints() {
            let idx: Vec<i64> = c
                .scope()
                .iter()
                .map(|v| v.name()[1..].parse().unwrap())
                .collect();
            assert!((idx[1] - idx[0]).abs() <= 2);
        }
    }
}
