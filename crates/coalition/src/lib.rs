//! Trust networks and trustworthy coalition formation for service
//! components.
//!
//! This crate implements Sec. 6 of *Bistarelli & Santini, "Soft
//! Constraints for Dependable Service Oriented Architectures"* (DSN
//! 2008): grouping service components into *trustworthy coalitions*.
//! Components rate each other on a directed [`TrustNetwork`] (Fig. 9);
//! a coalition's trustworthiness `T(C)` composes those 1-to-1 scores
//! through the social operator `◦` ([`TrustComposition`], Def. 3);
//! partitions must be *stable* — free of blocking pairs
//! ([`find_blocking`], Def. 4, Fig. 10) — and the Fuzzy-semiring
//! objective maximises the minimum coalition trustworthiness
//! (Sec. 6.1).
//!
//! Solvers:
//!
//! - [`formation_scsp`] / [`scsp_formation`] — the paper's SCSP
//!   encoding verbatim, solved by `softsoa-core` (small `n`);
//! - [`exact_formation`] — exact search via an `O(3ⁿ)` bitmask subset
//!   DP (up to `n = 18`; the Bell-number enumeration it replaced is
//!   kept as [`exact_formation_enumerated`], up to `n = 13`);
//! - [`individually_oriented`] / [`socially_oriented`] — the greedy
//!   mechanisms the paper contrasts (Breban & Vassileva);
//! - [`local_search`] and best-response [`stabilize`] — scalable
//!   heuristics.
//!
//! [`propagate`] additionally closes a sparse trust network over a
//! c-semiring (best referral chain), so coalitions can form between
//! components that never interacted directly.
//!
//! # Example
//!
//! ```
//! use softsoa_coalition::*;
//!
//! let net = TrustNetwork::fig10();
//! // The Fig. 10 partition is *not* stable: x4 defects to {x1,x2,x3}.
//! let fig10 = Partition::new(7, vec![
//!     [0, 1, 2].into_iter().collect(),
//!     [3, 4, 5, 6].into_iter().collect(),
//! ]).unwrap();
//! assert!(!is_stable(&net, &fig10, TrustComposition::Average));
//!
//! // Best-response dynamics repair it.
//! let (stable, ok) = stabilize(&net, fig10, TrustComposition::Average, 100);
//! assert!(ok && is_stable(&net, &stable, TrustComposition::Average));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coalition;
mod network;
mod propagate;
mod scsp;
mod solvers;
mod stability;

pub use coalition::{
    attachment, coalition_trust, Coalition, InvalidPartitionError, Partition, TrustComposition,
};
pub use network::{AgentId, TrustNetwork};
pub use propagate::propagate;
pub use scsp::{formation_scsp, scsp_formation, scsp_formation_with};
pub use solvers::{
    exact_formation, exact_formation_enumerated, exact_formation_with, individually_oriented,
    local_search, socially_oriented, stabilize, FormationConfig, FormationResult,
    MAX_ENUMERATED_AGENTS, MAX_EXACT_AGENTS,
};
pub use stability::{find_blocking, is_stable, BlockingPair};
