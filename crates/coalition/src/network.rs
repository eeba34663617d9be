//! Directed trust networks of service components (Fig. 9).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use softsoa_semiring::Unit;

/// An agent (service component) identifier: `0 .. n`.
pub type AgentId = u32;

/// A directed trust network: `t(i, j)` is the trust score agent `i`
/// has collected on agent `j` (the directed arcs of Fig. 9; the
/// direction captures the *subjectivity* of the estimation).
///
/// Scores live in `[0, 1]` and the diagonal `t(i, i)` models trust in
/// oneself (Def. 3 explicitly allows `i = j`).
///
/// # Examples
///
/// ```
/// use softsoa_coalition::TrustNetwork;
/// use softsoa_semiring::Unit;
///
/// let mut net = TrustNetwork::new(3, Unit::new(0.5)?);
/// net.set(0, 1, Unit::new(0.9)?);
/// assert_eq!(net.get(0, 1).get(), 0.9);
/// assert_eq!(net.get(1, 0).get(), 0.5); // direction matters
/// # Ok::<(), softsoa_semiring::UnitRangeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrustNetwork {
    n: u32,
    /// Row-major `n × n` matrix.
    trust: Vec<Unit>,
}

impl TrustNetwork {
    /// Creates a network of `n` agents with every score at `default`
    /// (self-trust included).
    pub fn new(n: u32, default: Unit) -> TrustNetwork {
        TrustNetwork {
            n,
            trust: vec![default; (n as usize) * (n as usize)],
        }
    }

    /// The number of agents.
    pub fn len(&self) -> u32 {
        self.n
    }

    /// Whether the network has no agents.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// All agent ids, `0 .. n`.
    pub fn agents(&self) -> impl Iterator<Item = AgentId> {
        0..self.n
    }

    fn index(&self, from: AgentId, to: AgentId) -> usize {
        assert!(from < self.n && to < self.n, "agent id out of range");
        (from as usize) * (self.n as usize) + to as usize
    }

    /// Sets the trust `from` has collected on `to`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn set(&mut self, from: AgentId, to: AgentId, trust: Unit) {
        let i = self.index(from, to);
        self.trust[i] = trust;
    }

    /// The trust `from` has collected on `to`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn get(&self, from: AgentId, to: AgentId) -> Unit {
        self.trust[self.index(from, to)]
    }

    /// A random network with scores drawn uniformly from
    /// `{0.0, 0.05, .., 1.0}` and full self-trust.
    pub fn random(n: u32, seed: u64) -> TrustNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = TrustNetwork::new(n, Unit::MIN);
        for i in 0..n {
            for j in 0..n {
                let t = if i == j {
                    Unit::MAX
                } else {
                    Unit::clamped(rng.random_range(0..=20) as f64 / 20.0)
                };
                net.set(i, j, t);
            }
        }
        net
    }

    /// A clustered network: agents are split into `clusters` blocks
    /// with high intra-block trust and low inter-block trust (plus
    /// seeded noise). The natural ground-truth partition is one
    /// coalition per block.
    pub fn clustered(n: u32, clusters: u32, intra: f64, inter: f64, seed: u64) -> TrustNetwork {
        assert!(clusters > 0, "at least one cluster");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = TrustNetwork::new(n, Unit::MIN);
        for i in 0..n {
            for j in 0..n {
                let t = if i == j {
                    Unit::MAX
                } else {
                    let base = if i % clusters == j % clusters {
                        intra
                    } else {
                        inter
                    };
                    let noise = (rng.random_range(0..=10) as f64 / 10.0 - 0.5) * 0.1;
                    Unit::clamped(base + noise)
                };
                net.set(i, j, t);
            }
        }
        net
    }

    /// The seven-component network of Figs. 9–10, with trust values
    /// chosen so that the partition `{x1, x2, x3} | {x4, .., x7}` of
    /// Fig. 10 exhibits exactly the blocking situation the paper
    /// describes: `x4` prefers coalition `C1` to the rest of its own
    /// `C2`, and `C1`'s trustworthiness grows by admitting `x4`.
    ///
    /// Agents are 0-indexed (`x1` is agent `0`).
    pub fn fig10() -> TrustNetwork {
        let u = |v: f64| Unit::clamped(v);
        let mut net = TrustNetwork::new(7, u(0.5));
        for i in 0..7 {
            net.set(i, i, Unit::MAX);
        }
        // C1 = {x1, x2, x3} trust each other well.
        for &(i, j) in &[(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)] {
            net.set(i, j, u(0.8));
        }
        // x4 (id 3) trusts C1's members highly...
        net.set(3, 0, u(0.9));
        net.set(3, 1, u(0.9));
        net.set(3, 2, u(0.9));
        // ...and C1's members trust x4 even more than each other.
        net.set(0, 3, u(0.9));
        net.set(1, 3, u(0.9));
        net.set(2, 3, u(0.9));
        // x4 has little trust in the rest of C2 = {x5, x6, x7}.
        net.set(3, 4, u(0.3));
        net.set(3, 5, u(0.3));
        net.set(3, 6, u(0.3));
        // C2's remaining members trust each other moderately.
        for &(i, j) in &[(4, 5), (5, 4), (4, 6), (6, 4), (5, 6), (6, 5)] {
            net.set(i, j, u(0.6));
        }
        // and have moderate opinions of x4.
        for i in 4..7 {
            net.set(i, 3, u(0.5));
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_set_get() {
        let mut net = TrustNetwork::new(2, Unit::MIN);
        assert_eq!(net.get(0, 1), Unit::MIN);
        net.set(0, 1, Unit::MAX);
        assert_eq!(net.get(0, 1), Unit::MAX);
        assert_eq!(net.get(1, 0), Unit::MIN);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let net = TrustNetwork::new(2, Unit::MIN);
        let _ = net.get(0, 2);
    }

    #[test]
    fn random_is_deterministic_and_self_trusting() {
        let a = TrustNetwork::random(5, 7);
        let b = TrustNetwork::random(5, 7);
        assert_eq!(a, b);
        for i in 0..5 {
            assert_eq!(a.get(i, i), Unit::MAX);
        }
    }

    #[test]
    fn clustered_has_higher_intra_trust() {
        let net = TrustNetwork::clustered(8, 2, 0.9, 0.1, 3);
        // Average intra vs inter.
        let (mut intra, mut ni, mut inter, mut nj) = (0.0, 0, 0.0, 0);
        for i in 0..8u32 {
            for j in 0..8u32 {
                if i == j {
                    continue;
                }
                if i % 2 == j % 2 {
                    intra += net.get(i, j).get();
                    ni += 1;
                } else {
                    inter += net.get(i, j).get();
                    nj += 1;
                }
            }
        }
        assert!(intra / ni as f64 > inter / nj as f64 + 0.5);
    }

    #[test]
    fn a_panicking_formation_worker_reraises_its_payload() {
        use crate::{exact_formation_enumerated, exact_formation_with, FormationConfig};
        use softsoa_core::solve::Parallelism;
        use softsoa_telemetry::Telemetry;
        use std::panic::catch_unwind;
        // A matrix one row long for six agents: every worker's first
        // lookup past row 0 panics with an index error.
        let broken = TrustNetwork {
            n: 6,
            trust: vec![Unit::MAX; 6],
        };
        let (cfg, threads) = (FormationConfig::default(), Parallelism::Threads(2));
        let dp =
            catch_unwind(|| exact_formation_with(&broken, cfg, threads, &Telemetry::disabled()))
                .unwrap_err();
        let bell = catch_unwind(|| exact_formation_enumerated(&broken, cfg, threads)).unwrap_err();
        for payload in [dp, bell] {
            let message = payload
                .downcast_ref::<String>()
                .expect("the worker's message");
            assert!(message.contains("index out of bounds"), "{message}");
        }
    }

    #[test]
    fn fig10_shape() {
        let net = TrustNetwork::fig10();
        assert_eq!(net.len(), 7);
        // x4 trusts C1 members more than its C2 fellows.
        assert!(net.get(3, 0) > net.get(3, 4));
        assert_eq!(net.get(3, 3), Unit::MAX);
    }
}
