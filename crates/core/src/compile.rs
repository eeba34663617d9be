//! Compiled evaluation of SCSPs.
//!
//! The lazy [`Constraint`] representation is convenient for the algebra
//! of Sec. 2 — `⊗` and `÷` build intensional constraints on demand —
//! but evaluating it in a solver's hot loop pays for that convenience
//! on every assignment: hash lookups for tables, per-call `Vec<Val>`
//! sub-tuple allocation, binary searches from parameter names to scope
//! positions.
//!
//! [`CompiledProblem`] performs that bookkeeping **once**:
//!
//! - every constraint's `⊗`-DAG is collapsed into a flat operand list
//!   (combinations are structural since `Constraint::combine`, so this
//!   is a walk, not a re-association);
//! - each operand's scope is embedded into the problem's variable
//!   order as precomputed `usize` indices;
//! - operands with small scopes are materialised into **dense tables**
//!   indexed by a mixed-radix flat index (row-major, last variable
//!   fastest — the same order as
//!   [`Domains::tuples`](crate::Domains::tuples)), so the hot loop is
//!   slice indexing with zero hashing and zero allocation. Operands
//!   whose table would exceed [`DENSE_TABLE_LIMIT`] cells stay lazy.
//!
//! Assignments are plain `&[usize]` domain-index tuples; semiring
//! values are the only things cloned per evaluation.

use std::time::{Duration, Instant};

use softsoa_semiring::Semiring;

use crate::domain::Cursor;
use crate::solve::ConstraintEvalStats;
use crate::{Assignment, Constraint, Domains, MissingDomainError, Scsp, Val, Var};

/// Maximum number of cells a compiled operand may materialise.
///
/// Operands with more cells than this stay lazy (the flat-index
/// embedding still applies; only the table lookup falls back to the
/// constraint's own evaluation).
pub const DENSE_TABLE_LIMIT: usize = 1 << 16;

enum OperandKind<S: Semiring> {
    /// A constant level (empty scope after compilation).
    Const(S::Value),
    /// A dense table indexed by the operand's mixed-radix flat index.
    Dense(Vec<S::Value>),
    /// Scope too large to materialise: evaluate the constraint lazily.
    Lazy(Constraint<S>),
}

struct CompiledOperand<S: Semiring> {
    label: String,
    /// Positions of the operand's (sorted) scope variables inside the
    /// compiled variable order.
    emb: Vec<usize>,
    /// Mixed-radix strides over the operand scope (last fastest);
    /// empty for constants and for scopes whose cell count overflows
    /// `usize`, unused for lazy operands.
    strides: Vec<usize>,
    cells: usize,
    materialize_time: Duration,
    kind: OperandKind<S>,
}

/// An SCSP compiled for fast repeated evaluation.
///
/// Built by [`CompiledProblem::from_problem`] (sorted variable order)
/// or [`CompiledProblem::with_order`] (solver-chosen search order).
/// Solvers walk assignments as `&[usize]` index tuples and call
/// [`CompiledProblem::apply_completed`] /
/// [`CompiledProblem::aggregate_range`].
pub struct CompiledProblem<S: Semiring> {
    semiring: S,
    vars: Vec<Var>,
    /// Domain values per variable, in `vars` order.
    domains: Vec<Vec<Val>>,
    sizes: Vec<usize>,
    operands: Vec<CompiledOperand<S>>,
    /// Operand ids whose scope completes at each assignment depth
    /// (index `d` holds operands fully assigned once `vars[..d]` are).
    completing: Vec<Vec<usize>>,
    con: Vec<Var>,
    /// Position of each `con` variable inside `vars`.
    con_pos: Vec<usize>,
    /// Mixed-radix strides over `con` (last fastest); empty when
    /// `con_cells` is `None`.
    con_strides: Vec<usize>,
    /// Number of `con` tuples, `None` when it overflows `usize`.
    con_cells: Option<usize>,
    compile_time: Duration,
}

/// Partial aggregation result produced by
/// [`CompiledProblem::aggregate_range`]: a dense `con`-table plus the
/// counters accumulated while producing it.
pub struct Aggregate<S: Semiring> {
    /// Accumulated value per `con` tuple, indexed by the con flat
    /// index; decode with [`CompiledProblem::con_entries`].
    pub table: Vec<S::Value>,
    /// Search-tree nodes visited.
    pub nodes: u64,
    /// Zero-absorption cuts taken.
    pub prunings: u64,
    /// Evaluations per operand.
    pub evals: Vec<u64>,
}

impl<S: Semiring> Aggregate<S> {
    /// Merges chunk aggregates by pointwise `+` (sound because `+` is
    /// associative and commutative); counters are summed.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the tables disagree in size.
    pub fn merge(semiring: &S, parts: Vec<Aggregate<S>>) -> Aggregate<S> {
        let mut parts = parts.into_iter();
        let mut merged = parts.next().expect("at least one aggregate chunk");
        for part in parts {
            assert_eq!(
                merged.table.len(),
                part.table.len(),
                "aggregate shape mismatch"
            );
            for (acc, v) in merged.table.iter_mut().zip(&part.table) {
                *acc = semiring.plus(acc, v);
            }
            merged.nodes += part.nodes;
            merged.prunings += part.prunings;
            for (acc, e) in merged.evals.iter_mut().zip(&part.evals) {
                *acc += e;
            }
        }
        merged
    }
}

impl<S: Semiring> CompiledProblem<S> {
    /// Compiles `problem` using its sorted variable order.
    ///
    /// # Errors
    ///
    /// Returns [`MissingDomainError`] if a problem variable has no
    /// domain.
    pub fn from_problem(problem: &Scsp<S>) -> Result<CompiledProblem<S>, MissingDomainError> {
        let vars = problem.problem_vars();
        CompiledProblem::with_order(problem, vars)
    }

    /// Compiles `problem` with an explicit variable order — the search
    /// order of branch-and-bound style solvers, so that "operand
    /// completes at depth `d`" matches their assignment depth.
    ///
    /// # Errors
    ///
    /// Returns [`MissingDomainError`] if a variable in `vars` has no
    /// domain.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is not a permutation of the problem variables.
    pub fn with_order(
        problem: &Scsp<S>,
        vars: Vec<Var>,
    ) -> Result<CompiledProblem<S>, MissingDomainError> {
        let mut sorted = vars.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(
            sorted,
            problem.problem_vars(),
            "variable order must be a permutation of the problem variables"
        );
        CompiledProblem::build(
            problem.semiring().clone(),
            problem.constraints(),
            vars,
            problem.con(),
            problem.domains(),
        )
    }

    /// Compiles an aggregation of `constraints` down to the `keep`
    /// variables — the workhorse behind bucket-elimination projections.
    /// The compiled variable set is the union of the constraint scopes
    /// and `keep` (sorted); `con` is `keep`.
    ///
    /// # Errors
    ///
    /// Returns [`MissingDomainError`] if a scope or `keep` variable has
    /// no domain.
    pub fn for_projection(
        semiring: S,
        constraints: &[Constraint<S>],
        keep: &[Var],
        domains: &Domains,
    ) -> Result<CompiledProblem<S>, MissingDomainError> {
        let mut vars: Vec<Var> = constraints
            .iter()
            .flat_map(|c| c.scope().iter().cloned())
            .chain(keep.iter().cloned())
            .collect();
        vars.sort();
        vars.dedup();
        CompiledProblem::build(semiring, constraints, vars, keep, domains)
    }

    fn build(
        semiring: S,
        constraints: &[Constraint<S>],
        vars: Vec<Var>,
        con: &[Var],
        domain_map: &Domains,
    ) -> Result<CompiledProblem<S>, MissingDomainError> {
        let start = Instant::now();
        let domains: Vec<Vec<Val>> = vars
            .iter()
            .map(|v| Ok(domain_map.get(v)?.values().to_vec()))
            .collect::<Result<_, MissingDomainError>>()?;
        let sizes: Vec<usize> = domains.iter().map(Vec::len).collect();
        let position = |v: &Var| -> usize {
            vars.iter()
                .position(|u| u == v)
                .expect("scope var is compiled")
        };

        let mut operands: Vec<CompiledOperand<S>> = Vec::new();
        for (ci, c) in constraints.iter().enumerate() {
            for (oi, (op, _)) in c.flat_operands().into_iter().enumerate() {
                let label = match op.label().or(c.label()) {
                    Some(l) => l.to_string(),
                    None if oi == 0 => format!("c{ci}"),
                    None => format!("c{ci}.{oi}"),
                };
                let emb: Vec<usize> = op.scope().iter().map(&position).collect();
                // An overflowing scope is far above the dense limit.
                let (strides, cells) =
                    mixed_radix(&emb, &sizes).unwrap_or((Vec::new(), usize::MAX));
                let mat_start = Instant::now();
                let (kind, cells) = if emb.is_empty() {
                    (OperandKind::Const(op.eval_tuple(&[])), 0)
                } else if cells <= DENSE_TABLE_LIMIT {
                    // Fill in flat-index order: enumerate the operand
                    // scope with the last variable fastest, matching
                    // the stride layout.
                    let mut table = Vec::with_capacity(cells);
                    let mut cursor = Cursor::over(emb.iter().map(|&p| &domains[p][..]).collect());
                    while let Some(tuple) = cursor.tuple() {
                        table.push(op.eval_tuple(tuple));
                        cursor.advance();
                    }
                    (OperandKind::Dense(table), cells)
                } else {
                    (OperandKind::Lazy(op.clone()), 0)
                };
                operands.push(CompiledOperand {
                    label,
                    emb,
                    strides,
                    cells,
                    materialize_time: mat_start.elapsed(),
                    kind,
                });
            }
        }

        let mut completing: Vec<Vec<usize>> = vec![Vec::new(); vars.len() + 1];
        for (oi, op) in operands.iter().enumerate() {
            let depth = op.emb.iter().copied().max().map_or(0, |d| d + 1);
            completing[depth].push(oi);
        }

        let con_pos: Vec<usize> = con.iter().map(&position).collect();
        let (con_strides, con_cells) = mixed_radix(&con_pos, &sizes)
            .map_or((Vec::new(), None), |(strides, cells)| {
                (strides, Some(cells))
            });

        Ok(CompiledProblem {
            semiring,
            vars,
            domains,
            sizes,
            operands,
            completing,
            con: con.to_vec(),
            con_pos,
            con_strides,
            con_cells,
            compile_time: start.elapsed(),
        })
    }

    /// The compiled variable order.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Domain sizes per variable, in compiled order.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The domain values of the variable at `pos`, sorted.
    pub fn domain(&self, pos: usize) -> &[Val] {
        &self.domains[pos]
    }

    /// Number of compiled `⊗`-operands.
    pub fn num_operands(&self) -> usize {
        self.operands.len()
    }

    /// Number of distinct `con` tuples (the aggregate table size), or
    /// `None` when that count overflows `usize`: such a `con` table
    /// cannot be materialised, though the problem can still be searched.
    pub fn con_cells(&self) -> Option<usize> {
        self.con_cells
    }

    /// Width of the outermost split loop: the first variable's domain
    /// size, or `1` for variable-free problems.
    pub fn outer_size(&self) -> usize {
        self.sizes.first().copied().unwrap_or(1)
    }

    /// Time spent flattening, embedding and materialising.
    pub fn compile_time(&self) -> Duration {
        self.compile_time
    }

    /// Operand ids whose scope is fully assigned once the first
    /// `depth` variables are bound (constants complete at depth `0`).
    pub fn completing_at(&self, depth: usize) -> &[usize] {
        &self.completing[depth]
    }

    /// The scope of operand `oi` as positions into [`vars`](Self::vars),
    /// in the operand's own (sorted-by-variable) scope order — empty
    /// for constants.
    pub fn operand_scope(&self, oi: usize) -> &[usize] {
        &self.operands[oi].emb
    }

    /// The mixed-radix strides of operand `oi` over its own scope
    /// (aligned with [`operand_scope`](Self::operand_scope), last
    /// variable fastest).
    pub(crate) fn operand_strides(&self, oi: usize) -> &[usize] {
        &self.operands[oi].strides
    }

    /// The dense table of operand `oi`, or `None` for constants and
    /// operands that stayed lazy.
    pub(crate) fn operand_dense(&self, oi: usize) -> Option<&[S::Value]> {
        match &self.operands[oi].kind {
            OperandKind::Dense(table) => Some(table),
            _ => None,
        }
    }

    /// The display label of operand `oi`.
    pub(crate) fn operand_label(&self, oi: usize) -> &str {
        &self.operands[oi].label
    }

    /// The fixed level of operand `oi`, when it is a constant.
    pub(crate) fn operand_const(&self, oi: usize) -> Option<&S::Value> {
        match &self.operands[oi].kind {
            OperandKind::Const(value) => Some(value),
            _ => None,
        }
    }

    /// Evaluates operand `oi` on the index tuple `idx` (one domain
    /// index per compiled variable; only the operand's own positions
    /// are read). `scratch` is reused for lazy operands' sub-tuples.
    pub fn value_at(&self, oi: usize, idx: &[usize], scratch: &mut Vec<Val>) -> S::Value {
        let op = &self.operands[oi];
        match &op.kind {
            OperandKind::Const(v) => v.clone(),
            OperandKind::Dense(table) => {
                let mut flat = 0;
                for (k, &p) in op.emb.iter().enumerate() {
                    flat += idx[p] * op.strides[k];
                }
                table[flat].clone()
            }
            OperandKind::Lazy(c) => {
                scratch.clear();
                scratch.extend(op.emb.iter().map(|&p| self.domains[p][idx[p]].clone()));
                c.eval_tuple(scratch)
            }
        }
    }

    /// Multiplies `value` by every operand completing at `depth`,
    /// short-circuiting on `0` (absorbing for `×`). `evals` counts
    /// operand evaluations; index it by operand id.
    pub fn apply_completed(
        &self,
        depth: usize,
        value: S::Value,
        idx: &[usize],
        scratch: &mut Vec<Val>,
        evals: &mut [u64],
    ) -> S::Value {
        let mut acc = value;
        for &oi in &self.completing[depth] {
            if self.semiring.is_zero(&acc) {
                break;
            }
            evals[oi] += 1;
            let level = self.value_at(oi, idx, scratch);
            acc = self.semiring.times(&acc, &level);
        }
        acc
    }

    /// Flat index of `idx`'s restriction to `con`.
    pub fn con_index(&self, idx: &[usize]) -> usize {
        let mut flat = 0;
        for (k, &p) in self.con_pos.iter().enumerate() {
            flat += idx[p] * self.con_strides[k];
        }
        flat
    }

    /// Aggregates all full assignments whose **first** variable index
    /// lies in `range`: the `×`-product of all operands, `+`-summed
    /// into a dense `con` table. Splitting the outermost variable
    /// across threads and [`Aggregate::merge`]-ing the chunks yields
    /// exactly `Sol(P) = (⊗C) ⇓ con` restricted to nothing.
    ///
    /// For variable-free problems pass `0..1` (the single empty
    /// assignment).
    ///
    /// # Panics
    ///
    /// Panics if [`con_cells`](Self::con_cells) is `None`.
    pub fn aggregate_range(&self, range: std::ops::Range<usize>) -> Aggregate<S> {
        let cells = self.con_cells.expect("con table size fits in usize");
        let mut agg = Aggregate {
            table: vec![self.semiring.zero(); cells],
            nodes: 0,
            prunings: 0,
            evals: vec![0; self.operands.len()],
        };
        let mut idx = vec![0usize; self.vars.len()];
        let mut scratch = Vec::new();
        if self.vars.is_empty() {
            if !range.is_empty() {
                agg.nodes += 1;
                let v = self.apply_completed(
                    0,
                    self.semiring.one(),
                    &idx,
                    &mut scratch,
                    &mut agg.evals,
                );
                agg.table[0] = self.semiring.plus(&agg.table[0], &v);
            }
            return agg;
        }
        let root = self.apply_completed(0, self.semiring.one(), &idx, &mut scratch, &mut agg.evals);
        for i in range {
            idx[0] = i;
            let value = self.apply_completed(1, root.clone(), &idx, &mut scratch, &mut agg.evals);
            self.agg_rec(1, &mut idx, value, &mut agg, &mut scratch);
        }
        agg
    }

    fn agg_rec(
        &self,
        depth: usize,
        idx: &mut Vec<usize>,
        value: S::Value,
        agg: &mut Aggregate<S>,
        scratch: &mut Vec<Val>,
    ) {
        agg.nodes += 1;
        if self.semiring.is_zero(&value) {
            // `0` is the identity of `+` and absorbing for `×`: the
            // whole subtree contributes nothing to any con cell.
            agg.prunings += 1;
            return;
        }
        if depth == self.vars.len() {
            let ci = self.con_index(idx);
            agg.table[ci] = self.semiring.plus(&agg.table[ci], &value);
            return;
        }
        for i in 0..self.sizes[depth] {
            idx[depth] = i;
            let next = self.apply_completed(depth + 1, value.clone(), idx, scratch, &mut agg.evals);
            self.agg_rec(depth + 1, idx, next, agg, scratch);
        }
    }

    /// Decodes a dense `con` table into `(tuple, value)` entries in
    /// lexicographic `con` order (the order of
    /// [`Domains::tuples`](crate::Domains::tuples)).
    pub fn con_entries(&self, table: Vec<S::Value>) -> Vec<(Vec<Val>, S::Value)> {
        table
            .into_iter()
            .enumerate()
            .map(|(flat, value)| {
                let tuple: Vec<Val> = self
                    .con_pos
                    .iter()
                    .zip(&self.con_strides)
                    .map(|(&p, &stride)| {
                        let digit = (flat / stride) % self.sizes[p];
                        self.domains[p][digit].clone()
                    })
                    .collect();
                (tuple, value)
            })
            .collect()
    }

    /// The `con` variables, as passed at compile time.
    pub fn con(&self) -> &[Var] {
        &self.con
    }

    /// Converts a full index tuple into an [`Assignment`] over all
    /// compiled variables.
    pub fn assignment(&self, idx: &[usize]) -> Assignment {
        self.vars
            .iter()
            .enumerate()
            .map(|(p, v)| (v.clone(), self.domains[p][idx[p]].clone()))
            .collect()
    }

    /// Converts a full index tuple into an [`Assignment`] over `con`.
    pub fn con_assignment(&self, idx: &[usize]) -> Assignment {
        self.con
            .iter()
            .zip(&self.con_pos)
            .map(|(v, &p)| (v.clone(), self.domains[p][idx[p]].clone()))
            .collect()
    }

    /// Per-operand [`ConstraintEvalStats`] from an eval-counter vector.
    pub fn eval_stats(&self, evals: &[u64]) -> Vec<ConstraintEvalStats> {
        self.operands
            .iter()
            .zip(evals)
            .map(|(op, &e)| ConstraintEvalStats {
                label: op.label.clone(),
                evals: e,
                dense_cells: op.cells,
                materialize_time: op.materialize_time,
            })
            .collect()
    }

    /// The semiring the compiled problem is valued in.
    pub fn semiring(&self) -> &S {
        &self.semiring
    }
}

/// Mixed-radix strides (last position fastest) over the variables at
/// `positions`, whose domain sizes are `sizes[p]`, with the total cell
/// count; `None` when the count overflows `usize`. A zero size empties
/// the space: its count is `0` and its strides are never read.
pub(crate) fn mixed_radix(positions: &[usize], sizes: &[usize]) -> Option<(Vec<usize>, usize)> {
    if positions.iter().any(|&p| sizes[p] == 0) {
        return Some((vec![0; positions.len()], 0));
    }
    let mut strides = vec![0; positions.len()];
    let mut cells = 1usize;
    for (k, &p) in positions.iter().enumerate().rev() {
        strides[k] = cells;
        cells = cells.checked_mul(sizes[p])?;
    }
    Some((strides, cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{EnumerationSolver, Solver};
    use crate::testutil::fig1_problem;
    use crate::{Domain, Scsp};
    use softsoa_semiring::WeightedInt;

    #[test]
    fn aggregate_matches_reference_on_fig1() {
        let p = fig1_problem();
        let cp = CompiledProblem::from_problem(&p).unwrap();
        let agg = cp.aggregate_range(0..cp.outer_size());
        let entries = cp.con_entries(agg.table);
        // Sol(P): x=a → 7, x=b → 16.
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].1, 7);
        assert_eq!(entries[1].1, 16);
    }

    #[test]
    fn chunked_aggregation_merges_to_the_same_table() {
        let p = crate::generate::random_weighted(&crate::generate::RandomScsp {
            vars: 5,
            domain_size: 3,
            constraints: 8,
            arity: 2,
            seed: 11,
        });
        let cp = CompiledProblem::from_problem(&p).unwrap();
        let whole = cp.aggregate_range(0..cp.outer_size());
        let parts: Vec<_> = (0..cp.outer_size())
            .map(|i| cp.aggregate_range(i..i + 1))
            .collect();
        let merged = Aggregate::merge(cp.semiring(), parts);
        assert_eq!(whole.table, merged.table);
    }

    #[test]
    fn large_scopes_stay_lazy() {
        // 9 variables of size 8 = 2^27 cells: must not materialise.
        let vars: Vec<Var> = (0..9).map(|i| Var::new(format!("x{i}"))).collect();
        let scope = vars.clone();
        let mut p = Scsp::new(WeightedInt).of_interest(["x0"]);
        for v in &vars {
            p.add_domain(v.clone(), Domain::ints(0..8));
        }
        p.add_constraint(Constraint::from_fn(WeightedInt, &scope, |vals| {
            vals.iter().map(|v| v.as_int().unwrap() as u64).sum()
        }));
        let cp = CompiledProblem::from_problem(&p).unwrap();
        let stats = cp.eval_stats(&vec![0; cp.num_operands()]);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].dense_cells, 0, "operand must stay lazy");
    }

    #[test]
    fn flattens_nested_combinations() {
        let p = fig1_problem();
        let combined = crate::combine_all(WeightedInt, p.constraints());
        let q = Scsp::new(WeightedInt)
            .with_domain("x", Domain::syms(["a", "b"]))
            .with_domain("y", Domain::syms(["a", "b"]))
            .with_constraint(combined)
            .of_interest(["x"]);
        let cp = CompiledProblem::from_problem(&q).unwrap();
        // The single combined constraint decomposes into 3 operands.
        assert_eq!(cp.num_operands(), 3);
        let sol = EnumerationSolver::new().solve(&p).unwrap();
        let agg = cp.aggregate_range(0..cp.outer_size());
        let entries = cp.con_entries(agg.table);
        let blevel = cp.semiring().sum(entries.iter().map(|(_, v)| v));
        assert_eq!(&blevel, sol.blevel());
    }

    #[test]
    fn variable_free_problem_aggregates_the_empty_tuple() {
        let p = Scsp::new(WeightedInt).with_constraint(Constraint::constant(WeightedInt, 4));
        let cp = CompiledProblem::from_problem(&p).unwrap();
        assert_eq!(cp.outer_size(), 1);
        let agg = cp.aggregate_range(0..1);
        assert_eq!(agg.table, vec![4]);
    }

    #[test]
    fn overflowing_con_has_no_cell_count() {
        let p = crate::testutil::wide_chain();
        let cp = CompiledProblem::with_order(&p, p.problem_vars()).unwrap();
        assert_eq!(cp.con_cells(), None);
        assert_eq!(cp.num_operands(), 19);
        // Narrowing con to two variables makes the table countable.
        let narrow = p.of_interest(["x00", "x19"]);
        let cp = CompiledProblem::from_problem(&narrow).unwrap();
        assert_eq!(cp.con_cells(), Some(100));
    }
}
