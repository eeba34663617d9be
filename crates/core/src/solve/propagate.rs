//! Soft arc-consistency propagation over a [`CompiledProblem`].
//!
//! A *revision* is a pair (operand, scope position): revising it
//! recomputes, for every live value `d` of that variable, the best
//! level `support(d)` any live tuple of the operand assigning `d` can
//! reach (the `⊕`-sum over the operand's live extensions). Because
//! `×` only worsens levels in a c-semiring (`a × b ≤ a`), the product
//! of a value's supports across every operand containing its variable
//! is an *upper bound* on the level of any complete assignment using
//! that value — so a value whose bound is `0`, or strictly below a
//! level already known achievable, can be pruned without touching the
//! `blevel` or the blind search's first witness.
//!
//! The engine is the classic AC-3 revision worklist: pruning a value
//! of `x` re-enqueues every revision of a *neighbouring* variable
//! (one sharing an operand with `x`), until fixpoint or until some
//! variable wipes out (no live values — the problem is inconsistent
//! at the current floor). It runs once, before the search; the
//! surviving live masks are the search space every worker reads.
//!
//! Only dense-materialised operands of arity ≥ 1 are revisable;
//! constants and lazy (too-big-to-materialise) operands contribute
//! the trivial bound `1`, which keeps every rule sound.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use softsoa_semiring::Semiring;

use crate::compile::CompiledProblem;

/// Per-operand revision counters, in the style of a classic AC-3
/// engine's per-constraint instrumentation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerConstraintStats {
    /// The operand's label (constraint label or `c{i}` fallback).
    pub label: String,
    /// How many times one of the operand's revisions was recomputed.
    pub revisions: u64,
    /// Domain values pruned by a bound tightened through this operand.
    pub prunes: u64,
    /// Wall-clock time spent inside this operand's revisions.
    pub time: Duration,
}

/// Counters describing the propagation work of one solve.
#[derive(Debug, Clone, Default)]
pub struct PropagationStats {
    /// Total revisions executed.
    pub revisions: u64,
    /// Domain values removed by the root fixpoint pass.
    pub root_prunes: u64,
    /// Domain wipeouts detected (each cuts a whole subtree).
    pub wipeouts: u64,
    /// Wall-clock time spent propagating.
    pub time: Duration,
    /// Per-operand revision counters, in operand order.
    pub per_constraint: Vec<PerConstraintStats>,
}

impl PropagationStats {
    /// Sums `other` into `self` (used to merge component stats).
    /// Per-constraint entries are matched positionally when the shapes
    /// agree and concatenated otherwise (distinct components compile
    /// distinct operand lists).
    pub(crate) fn absorb(&mut self, other: &PropagationStats) {
        self.revisions += other.revisions;
        self.root_prunes += other.root_prunes;
        self.wipeouts += other.wipeouts;
        self.time += other.time;
        let aligned = self.per_constraint.len() == other.per_constraint.len()
            && self
                .per_constraint
                .iter()
                .zip(&other.per_constraint)
                .all(|(a, b)| a.label == b.label);
        if aligned {
            for (acc, c) in self.per_constraint.iter_mut().zip(&other.per_constraint) {
                acc.revisions += c.revisions;
                acc.prunes += c.prunes;
                acc.time += c.time;
            }
        } else {
            self.per_constraint.extend(other.per_constraint.clone());
        }
    }
}

/// The revision-worklist propagator.
///
/// Lives as long as the compiled problem it prunes; after the root
/// pass the search workers share it read-only.
pub(crate) struct Propagator<'a, S: Semiring> {
    compiled: &'a CompiledProblem<S>,
    /// `×`-product of the constant (empty-scope) operands: a factor of
    /// every complete assignment, so it multiplies into every bound.
    constant: S::Value,
    /// rid → (operand id, position in the operand's scope).
    revs: Vec<(usize, usize)>,
    /// var position → rids revising that variable.
    var_revs: Vec<Vec<usize>>,
    /// var position → rids to re-enqueue when the variable shrinks
    /// (revisions of a *different* variable of a shared operand).
    requeue: Vec<Vec<usize>>,
    /// var position → live mask over its domain values.
    live: Vec<Vec<bool>>,
    live_count: Vec<usize>,
    /// rid → current per-value support bound (`1` until first revised).
    supports: Vec<Vec<S::Value>>,
    queue: VecDeque<usize>,
    in_queue: Vec<bool>,
    op_revisions: Vec<u64>,
    op_prunes: Vec<u64>,
    op_time: Vec<Duration>,
    root_prunes: u64,
    wipeouts: u64,
    time: Duration,
}

impl<'a, S: Semiring> Propagator<'a, S> {
    pub(crate) fn new(compiled: &'a CompiledProblem<S>) -> Propagator<'a, S> {
        let semiring = compiled.semiring();
        let nvars = compiled.vars().len();
        let mut revs = Vec::new();
        let mut var_revs = vec![Vec::new(); nvars];
        let mut requeue = vec![Vec::new(); nvars];
        let mut supports = Vec::new();
        let mut constant = semiring.one();
        for oi in 0..compiled.num_operands() {
            if let Some(value) = compiled.operand_const(oi) {
                constant = semiring.times(&constant, value);
            }
            if compiled.operand_dense(oi).is_none() {
                continue; // constants and lazy operands bound trivially
            }
            let emb = compiled.operand_scope(oi).to_vec();
            for (k, &var) in emb.iter().enumerate() {
                let rid = revs.len();
                revs.push((oi, k));
                var_revs[var].push(rid);
                for &other in &emb {
                    if other != var {
                        requeue[other].push(rid);
                    }
                }
                supports.push(vec![semiring.one(); compiled.sizes()[var]]);
            }
        }
        let in_queue = vec![false; revs.len()];
        Propagator {
            compiled,
            constant,
            revs,
            var_revs,
            requeue,
            live: compiled.sizes().iter().map(|&n| vec![true; n]).collect(),
            live_count: compiled.sizes().to_vec(),
            supports,
            queue: VecDeque::new(),
            in_queue,
            op_revisions: vec![0; compiled.num_operands()],
            op_prunes: vec![0; compiled.num_operands()],
            op_time: vec![Duration::ZERO; compiled.num_operands()],
            root_prunes: 0,
            wipeouts: 0,
            time: Duration::ZERO,
        }
    }

    /// Whether value `val` of the variable at `pos` is still live.
    pub(crate) fn is_live(&self, pos: usize, val: usize) -> bool {
        self.live[pos][val]
    }

    /// The current upper bound on any complete assignment giving the
    /// variable at `pos` the value `val`: the `×`-product of its
    /// supports across every revisable operand containing it.
    pub(crate) fn value_bound(&self, pos: usize, val: usize) -> S::Value {
        let semiring = self.compiled.semiring();
        let mut u = self.constant.clone();
        for &rid in &self.var_revs[pos] {
            u = semiring.times(&u, &self.supports[rid][val]);
            if semiring.is_zero(&u) {
                break;
            }
        }
        u
    }

    /// Live values remaining for the variable at `pos`.
    pub(crate) fn live_count(&self, pos: usize) -> usize {
        self.live_count[pos]
    }

    /// Runs the root fixpoint: every revision once, then to quiescence.
    /// Returns `false` on a wipeout (no complete assignment can reach
    /// the floor — for a floor of `0`, the problem is inconsistent).
    pub(crate) fn root(&mut self, floor: &S::Value) -> bool {
        // The constant factor caps every assignment outright: if it is
        // `0` (or below an achievable floor) nothing can succeed.
        let semiring = self.compiled.semiring();
        if semiring.is_zero(&self.constant) || semiring.lt(&self.constant, floor) {
            self.wipeouts += 1;
            return false;
        }
        for rid in 0..self.revs.len() {
            self.enqueue(rid);
        }
        self.drain(floor)
    }

    fn enqueue(&mut self, rid: usize) {
        if !self.in_queue[rid] {
            self.in_queue[rid] = true;
            self.queue.push_back(rid);
        }
    }

    fn drain(&mut self, floor: &S::Value) -> bool {
        let start = Instant::now();
        let mut alive = true;
        while let Some(rid) = self.queue.pop_front() {
            self.in_queue[rid] = false;
            if !self.revise(rid, floor) {
                alive = false;
                break;
            }
        }
        self.time += start.elapsed();
        alive
    }

    /// Recomputes one revision's supports and tightens its variable.
    /// Returns `false` on wipeout.
    fn revise(&mut self, rid: usize, floor: &S::Value) -> bool {
        let started = Instant::now();
        let (oi, k) = self.revs[rid];
        self.op_revisions[oi] += 1;
        let semiring = self.compiled.semiring();
        let emb = self.compiled.operand_scope(oi);
        let strides = self.compiled.operand_strides(oi);
        let table = self.compiled.operand_dense(oi).expect("revisable operand");
        let arity = emb.len();

        let mut supp = vec![semiring.zero(); self.compiled.sizes()[emb[k]]];
        let mut first = vec![0usize; arity];
        let mut idx = vec![0usize; arity];
        let mut wiped = false;
        for (j, &var) in emb.iter().enumerate() {
            match self.live[var].iter().position(|&b| b) {
                Some(d) => {
                    first[j] = d;
                    idx[j] = d;
                }
                None => wiped = true,
            }
        }
        if !wiped {
            // Odometer over the live tuples of the operand (last
            // position fastest, matching the dense stride layout).
            'tuples: loop {
                let mut flat = 0;
                for (j, &d) in idx.iter().enumerate() {
                    flat += d * strides[j];
                }
                supp[idx[k]] = semiring.plus(&supp[idx[k]], &table[flat]);
                let mut j = arity;
                loop {
                    if j == 0 {
                        break 'tuples;
                    }
                    j -= 1;
                    let var = emb[j];
                    let size = self.live[var].len();
                    idx[j] += 1;
                    while idx[j] < size && !self.live[var][idx[j]] {
                        idx[j] += 1;
                    }
                    if idx[j] < size {
                        idx[(j + 1)..arity].copy_from_slice(&first[(j + 1)..arity]);
                        break;
                    }
                    idx[j] = first[j];
                }
            }
        }
        self.supports[rid] = supp;
        self.op_time[oi] += started.elapsed();
        self.tighten(emb[k], oi, floor)
    }

    /// Prunes every live value of `var` whose combined bound is `0`
    /// or strictly below `floor`. Returns `false` on wipeout.
    fn tighten(&mut self, var: usize, oi: usize, floor: &S::Value) -> bool {
        let semiring = self.compiled.semiring().clone();
        for d in 0..self.live[var].len() {
            if !self.live[var][d] {
                continue;
            }
            let u = self.value_bound(var, d);
            if !(semiring.is_zero(&u) || semiring.lt(&u, floor)) {
                continue;
            }
            self.live[var][d] = false;
            self.live_count[var] -= 1;
            self.op_prunes[oi] += 1;
            self.root_prunes += 1;
            for i in 0..self.requeue[var].len() {
                self.enqueue(self.requeue[var][i]);
            }
            if self.live_count[var] == 0 {
                self.wipeouts += 1;
                return false;
            }
        }
        true
    }

    /// This fixpoint carried over to `compiled`, the same problem in
    /// another variable order ([`CompiledProblem::reordered`]). A
    /// revision is numbered by its operand and its position in the
    /// operand's own scope, which no variable order changes, so the
    /// supports and counters carry over as they are and each live mask
    /// moves with its variable. The root fixpoint is unique, so this is
    /// the state a root pass on `compiled` would reach.
    pub(crate) fn reorder<'b>(mut self, compiled: &'b CompiledProblem<S>) -> Propagator<'b, S> {
        let mut next = Propagator::new(compiled);
        debug_assert_eq!(next.revs, self.revs, "the same operands");
        for (pos, var) in compiled.vars().iter().enumerate() {
            let old = self.compiled.vars().iter().position(|v| v == var);
            let old = old.expect("the same variables");
            next.live[pos] = std::mem::take(&mut self.live[old]);
            next.live_count[pos] = self.live_count[old];
        }
        Propagator {
            supports: self.supports,
            op_revisions: self.op_revisions,
            op_prunes: self.op_prunes,
            op_time: self.op_time,
            root_prunes: self.root_prunes,
            wipeouts: self.wipeouts,
            time: self.time,
            ..next
        }
    }

    /// Snapshots the accumulated counters.
    pub(crate) fn stats(&self) -> PropagationStats {
        let per_constraint: Vec<PerConstraintStats> = (0..self.compiled.num_operands())
            .filter(|&oi| self.compiled.operand_dense(oi).is_some())
            .map(|oi| PerConstraintStats {
                label: self.compiled.operand_label(oi).to_string(),
                revisions: self.op_revisions[oi],
                prunes: self.op_prunes[oi],
                time: self.op_time[oi],
            })
            .collect();
        PropagationStats {
            revisions: per_constraint.iter().map(|c| c.revisions).sum(),
            root_prunes: self.root_prunes,
            wipeouts: self.wipeouts,
            time: self.time,
            per_constraint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fig1_problem;
    use crate::{Constraint, Domain, Scsp};
    use softsoa_semiring::{Semiring, WeightedInt};

    fn compiled(p: &Scsp<WeightedInt>) -> CompiledProblem<WeightedInt> {
        CompiledProblem::from_problem(p).unwrap()
    }

    #[test]
    fn root_pass_keeps_consistent_problems_alive() {
        let p = fig1_problem();
        let cp = compiled(&p);
        let mut prop = Propagator::new(&cp);
        assert!(prop.root(&WeightedInt.zero()));
        for pos in 0..cp.vars().len() {
            assert!(prop.live_count(pos) > 0);
        }
    }

    #[test]
    fn zero_supported_values_are_pruned_at_the_root() {
        // y = 1 is forbidden by the binary table: its only tuples are ∞.
        let p = Scsp::new(WeightedInt)
            .with_domain("x", Domain::ints(0..=1))
            .with_domain("y", Domain::ints(0..=1))
            .with_constraint(Constraint::binary(WeightedInt, "x", "y", |_, b| {
                if b.as_int() == Some(1) {
                    u64::MAX
                } else {
                    3
                }
            }))
            .of_interest(["x"]);
        let cp = compiled(&p);
        let mut prop = Propagator::new(&cp);
        assert!(prop.root(&WeightedInt.zero()));
        let y = cp.vars().iter().position(|v| v.name() == "y").unwrap();
        assert_eq!(prop.live_count(y), 1);
        assert!(prop.is_live(y, 0));
        assert!(!prop.is_live(y, 1));
        let stats = prop.stats();
        assert_eq!(stats.root_prunes, 1);
        assert!(stats.revisions > 0);
    }

    #[test]
    fn wipeout_on_inconsistent_problems() {
        let p = Scsp::new(WeightedInt)
            .with_domain("x", Domain::ints(0..=3))
            .with_constraint(Constraint::never(WeightedInt))
            .of_interest(["x"]);
        let cp = compiled(&p);
        let mut prop = Propagator::new(&cp);
        assert!(!prop.root(&WeightedInt.zero()));
        assert_eq!(prop.stats().wipeouts, 1);
    }

    #[test]
    fn achievable_floor_prunes_strictly_worse_values() {
        // Unary costs 0 / 5 / 9; floor 0 (the optimum, weighted order
        // is reversed so 0 is best) prunes the strictly worse values.
        let p = Scsp::new(WeightedInt)
            .with_domain("x", Domain::ints(0..=2))
            .with_constraint(Constraint::unary(WeightedInt, "x", |v| {
                [0u64, 5, 9][v.as_int().unwrap() as usize]
            }))
            .of_interest(["x"]);
        let cp = compiled(&p);
        let mut prop = Propagator::new(&cp);
        assert!(prop.root(&0u64));
        assert_eq!(prop.live_count(0), 1);
        assert!(prop.is_live(0, 0));
    }

    #[test]
    fn root_pass_iterates_to_fixpoint_on_chains() {
        // x < y < z over {0..2}: one revision each leaves x∈{0,1} and
        // z∈{1,2}; the fixpoint tightens x to {0} and z to {2} via y.
        let lt = |a: &str, b: &str| {
            Constraint::binary(WeightedInt, a, b, |a, b| {
                if a.as_int() < b.as_int() {
                    0
                } else {
                    u64::MAX
                }
            })
        };
        let mut p = Scsp::new(WeightedInt).of_interest(["x"]);
        for v in ["x", "y", "z"] {
            p.add_domain(v, Domain::ints(0..=2));
        }
        p.add_constraint(lt("x", "y"));
        p.add_constraint(lt("y", "z"));
        let cp = compiled(&p);
        let mut prop = Propagator::new(&cp);
        assert!(prop.root(&WeightedInt.zero()));
        let pos = |name: &str| cp.vars().iter().position(|v| v.name() == name).unwrap();
        let (x, z) = (pos("x"), pos("z"));
        assert_eq!(prop.live_count(x), 1);
        assert!(prop.is_live(x, 0));
        assert_eq!(prop.live_count(z), 1);
        assert!(prop.is_live(z, 2));
    }

    #[test]
    fn value_bounds_are_admissible_on_fig1() {
        // Fig. 1: x=a completes to 7, x=b to 16; the bound must not
        // underestimate (weighted order: bound ≤ true cost).
        let p = fig1_problem();
        let cp = compiled(&p);
        let mut prop = Propagator::new(&cp);
        assert!(prop.root(&WeightedInt.zero()));
        let x = cp.vars().iter().position(|v| v.name() == "x").unwrap();
        assert!(prop.value_bound(x, 0) <= 7);
        assert!(prop.value_bound(x, 1) <= 16);
    }
}
