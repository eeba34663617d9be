//! Mini-bucket completion bounds for branch-and-bound.

use std::collections::BTreeSet;

use softsoa_semiring::Semiring;

use crate::compile::{CompiledProblem, DENSE_TABLE_LIMIT};
use crate::Val;

/// Per-depth admissible completion bounds from a width-bounded
/// mini-bucket pass over a compiled problem (Dechter & Rish's
/// mini-bucket elimination, specialised to a static bound vector).
///
/// For a compiled variable order `x₀ … xₙ₋₁`, `bound(d)` over-estimates
/// — in the semiring order, where `1̄` is the top — the combined level
/// of every `⊗`-operand whose scope completes at a depth greater than
/// `d`. During branch-and-bound, `partial ⊗ bound(d)` is therefore an
/// admissible optimistic estimate of the best full completion of a
/// depth-`d` prefix: if it cannot beat the incumbent, no completion
/// can (`×`-monotonicity plus `+` being the least upper bound).
///
/// The `ibound` parameter caps the *joint* scope of a mini-bucket:
/// operands completing at the same depth are greedily packed into
/// groups of at most `ibound` distinct variables, and each group is
/// bounded by the `+`-fold of its `⊗`-product over all assignments of
/// the joint scope. Larger `ibound` values yield tighter (never looser
/// per group) bounds at higher precompute cost; operands whose own
/// table would exceed [`DENSE_TABLE_LIMIT`] cells contribute the
/// trivial bound `1̄`.
///
/// # Examples
///
/// ```
/// use softsoa_core::compile::CompiledProblem;
/// use softsoa_core::solve::MiniBucketBound;
/// use softsoa_core::{Constraint, Domain, Scsp};
/// use softsoa_semiring::WeightedInt;
///
/// let p = Scsp::new(WeightedInt)
///     .with_domain("x", Domain::ints(0..=3))
///     .with_constraint(Constraint::unary(WeightedInt, "x", |v| {
///         v.as_int().unwrap() as u64 + 2
///     }))
///     .of_interest(["x"]);
/// let compiled = CompiledProblem::from_problem(&p)?;
/// let bound = MiniBucketBound::new(&compiled, 2);
/// // The bound at full depth is always 1̄ (nothing left to assign);
/// // at the root it is the best level any x can reach (cost 2).
/// assert_eq!(*bound.at(1), 0);
/// assert_eq!(*bound.at(0), 2);
/// # Ok::<(), softsoa_core::SolveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MiniBucketBound<S: Semiring> {
    ibound: usize,
    bounds: Vec<S::Value>,
}

impl<S: Semiring> MiniBucketBound<S> {
    /// Runs the mini-bucket pass over `compiled` with joint scopes
    /// capped at `ibound` variables.
    pub fn new(compiled: &CompiledProblem<S>, ibound: usize) -> MiniBucketBound<S> {
        let semiring = compiled.semiring();
        let n = compiled.vars().len();
        let mut bounds = vec![semiring.one(); n + 1];
        for d in (0..n).rev() {
            let bucket = Self::bucket_bound(compiled, d + 1, ibound);
            bounds[d] = semiring.times(&bucket, &bounds[d + 1]);
        }
        MiniBucketBound { ibound, bounds }
    }

    /// The joint-scope cap this bound was computed with.
    pub fn ibound(&self) -> usize {
        self.ibound
    }

    /// The admissible bound on the combined level of every operand
    /// completing at a depth greater than `depth`.
    pub fn at(&self, depth: usize) -> &S::Value {
        &self.bounds[depth]
    }

    /// The full bound vector, indexed by depth (`bounds()[n]` is `1̄`).
    pub fn bounds(&self) -> &[S::Value] {
        &self.bounds
    }

    /// Bounds the `⊗`-product of all operands completing exactly at
    /// `depth` by greedy mini-bucket packing.
    fn bucket_bound(compiled: &CompiledProblem<S>, depth: usize, ibound: usize) -> S::Value {
        let semiring = compiled.semiring();
        let sizes = compiled.sizes();
        let table_cells = |scope: &BTreeSet<usize>| -> usize {
            scope
                .iter()
                .map(|&p| sizes[p])
                .try_fold(1usize, |acc, s| acc.checked_mul(s))
                .unwrap_or(usize::MAX)
        };

        // Greedily pack operands into mini-buckets whose joint scope
        // stays within ibound variables (and a bounded table size); an
        // operand that fits nowhere opens its own bucket.
        let mut packs: Vec<(Vec<usize>, BTreeSet<usize>)> = Vec::new();
        for &oi in compiled.completing_at(depth) {
            let scope: BTreeSet<usize> = compiled.operand_scope(oi).iter().copied().collect();
            let mut placed = false;
            for (ops, joint) in packs.iter_mut() {
                let merged: BTreeSet<usize> = joint.union(&scope).copied().collect();
                if merged.len() <= ibound.max(1) && table_cells(&merged) <= DENSE_TABLE_LIMIT {
                    ops.push(oi);
                    *joint = merged;
                    placed = true;
                    break;
                }
            }
            if !placed {
                packs.push((vec![oi], scope));
            }
        }

        let mut acc = semiring.one();
        for (ops, joint) in &packs {
            let pack_bound = if table_cells(joint) <= DENSE_TABLE_LIMIT {
                Self::scope_lub(compiled, ops, joint)
            } else {
                // A single oversized operand: its exact maximum is as
                // expensive as materialising it, so stay trivial.
                semiring.one()
            };
            acc = semiring.times(&acc, &pack_bound);
        }
        acc
    }

    /// The `+`-fold (least upper bound) of the `⊗`-product of `ops`
    /// over every assignment of the joint `scope`.
    fn scope_lub(
        compiled: &CompiledProblem<S>,
        ops: &[usize],
        scope: &BTreeSet<usize>,
    ) -> S::Value {
        let semiring = compiled.semiring();
        let sizes = compiled.sizes();
        let positions: Vec<usize> = scope.iter().copied().collect();
        let mut idx = vec![0usize; compiled.vars().len()];
        let mut scratch: Vec<Val> = Vec::new();
        let mut acc = semiring.zero();
        'assignments: loop {
            let mut prod = semiring.one();
            for &oi in ops {
                if semiring.is_zero(&prod) {
                    break;
                }
                prod = semiring.times(&prod, &compiled.value_at(oi, &idx, &mut scratch));
            }
            acc = semiring.plus(&acc, &prod);
            // Mixed-radix increment over the joint scope positions.
            let mut k = positions.len();
            loop {
                if k == 0 {
                    break 'assignments;
                }
                k -= 1;
                idx[positions[k]] += 1;
                if idx[positions[k]] < sizes[positions[k]] {
                    break;
                }
                idx[positions[k]] = 0;
            }
        }
        acc
    }
}
