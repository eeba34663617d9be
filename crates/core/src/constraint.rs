//! Soft constraints: functions from assignments to semiring levels.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use softsoa_semiring::Semiring;

use crate::compile::mixed_radix;
use crate::domain::Cursor;
use crate::{Assignment, Domain, Domains, MissingDomainError, Val, Var};

/// An error returned when evaluating a constraint under an assignment
/// that does not bind its whole support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnboundVarError {
    var: Var,
}

impl UnboundVarError {
    /// The unbound variable.
    pub fn var(&self) -> &Var {
        &self.var
    }
}

impl fmt::Display for UnboundVarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "assignment does not bind support variable `{}`",
            self.var
        )
    }
}

impl std::error::Error for UnboundVarError {}

/// A soft constraint over the semiring `S`.
///
/// Following the paper (Sec. 2), a soft constraint is a function
/// `c : (V → D) → A` that maps every assignment `η` to a level of the
/// semiring, and depends only on a finite *support* (its scope).
///
/// Constraints come in three shapes:
///
/// - **constant** — the paper's `ā` functions, in particular `0̄` and
///   `1̄` ([`Constraint::never`], [`Constraint::always`]);
/// - **extensional** tables mapping value tuples to levels (Fig. 1),
///   either sparse ([`Constraint::table`]) or dense — one level per
///   tuple of the scope's domains, which is what
///   [`Constraint::materialize`] and [`Constraint::project`] build;
/// - **intensional** closures such as the paper's polynomial policies
///   (`c(x) = 2x`, "reliability is `5x + 80`").
///
/// All algebraic operators of the paper — combination `⊗`, division
/// `÷`, projection `⇓`, hiding `∃x`, the order `⊑`, entailment — are
/// methods — combine/divide/project/hide/leq and friends — all
/// defined in this crate's `ops` module.
///
/// # Examples
///
/// ```
/// use softsoa_core::{Constraint, Var, Val};
/// use softsoa_semiring::{WeightedInt, Semiring};
///
/// // c3(x) = 2x over the weighted semiring (Fig. 7 of the paper).
/// let c3 = Constraint::unary(WeightedInt, "x", |v| {
///     2 * v.as_int().expect("int domain") as u64
/// });
/// let eta = softsoa_core::Assignment::new().bind("x", 3);
/// assert_eq!(c3.eval(&eta), 6);
/// ```
#[derive(Clone)]
pub struct Constraint<S: Semiring> {
    semiring: S,
    /// Sorted, deduplicated support.
    scope: Vec<Var>,
    def: Def<S>,
    label: Option<Arc<str>>,
}

#[derive(Clone)]
enum Def<S: Semiring> {
    /// The constant function `ā`.
    Const(S::Value),
    /// A sparse extensional definition: tuple (in scope order) → level.
    Table(Arc<Table<S>>),
    /// A dense extensional definition, built by `materialize` and
    /// `project`.
    Dense(Arc<Dense<S>>),
    /// An intensional definition: closure over values in `params` order.
    Func(Arc<FuncDef<S>>),
    /// A structural `⊗`-combination of operands, kept flat so the
    /// compiler can collapse whole combine DAGs into one operand list.
    Combined(Arc<CombinedDef<S>>),
    /// A structural division `left ÷ right`.
    Divided(Arc<DividedDef<S>>),
}

struct Table<S: Semiring> {
    map: HashMap<Vec<Val>, S::Value>,
    default: S::Value,
}

/// One level per tuple of the scope's domains, row-major with the
/// last variable fastest — the order of [`Domains::tuples`] and the
/// layout of the compiled solvers' operand tables. A tuple with a
/// value outside its domain reads `0`, as a sparse table's default
/// does for a missing entry.
struct Dense<S: Semiring> {
    /// The domain of each scope variable, in scope order.
    domains: Vec<Domain>,
    /// Mixed-radix strides over `domains` (last fastest).
    strides: Vec<usize>,
    values: Vec<S::Value>,
}

impl<S: Semiring> Dense<S> {
    /// The cell of `tuple` (in scope order), `None` off the domains.
    fn index(&self, tuple: &[Val]) -> Option<usize> {
        let mut flat = 0;
        for ((domain, stride), v) in self.domains.iter().zip(&self.strides).zip(tuple) {
            flat += domain.values().binary_search(v).ok()? * stride;
        }
        Some(flat)
    }
}

type EvalFn<S> = Box<dyn Fn(&[Val]) -> <S as Semiring>::Value + Send + Sync>;

struct FuncDef<S: Semiring> {
    /// Parameter order the closure expects (may differ from the sorted
    /// scope).
    params: Vec<Var>,
    /// The scope position of each parameter; `None` when `params` is
    /// the sorted scope itself, so a scope tuple is passed as is.
    perm: Option<Vec<usize>>,
    f: EvalFn<S>,
}

/// A flat `⊗`-combination. Each operand carries the positions of its
/// scope variables inside the parent's sorted scope, computed once at
/// construction — nested combines compose these index maps instead of
/// re-sorting and re-searching scopes on every level.
///
/// Invariant: no operand is itself `Def::Combined` (the constructor
/// flattens), so evaluation and compilation never recurse through
/// combination nodes.
struct CombinedDef<S: Semiring> {
    operands: Vec<(Constraint<S>, Vec<usize>)>,
}

/// A structural division. The `div` function pointer captures the
/// `Residuated::div` of the semiring at construction time, where the
/// `Residuated` bound is available.
struct DividedDef<S: Semiring> {
    left: (Constraint<S>, Vec<usize>),
    right: (Constraint<S>, Vec<usize>),
    div: fn(&S, &S::Value, &S::Value) -> S::Value,
}

fn sorted_scope(vars: &[Var]) -> Vec<Var> {
    let mut scope = vars.to_vec();
    scope.sort();
    scope.dedup();
    scope
}

impl<S: Semiring> Constraint<S> {
    /// The constant constraint `ā`, associating `value` to every
    /// assignment. Its support is empty.
    pub fn constant(semiring: S, value: S::Value) -> Constraint<S> {
        Constraint {
            semiring,
            scope: Vec::new(),
            def: Def::Const(value),
            label: None,
        }
    }

    /// The constraint `1̄` — fully satisfied everywhere (the paper's
    /// empty store).
    pub fn always(semiring: S) -> Constraint<S> {
        let one = semiring.one();
        Constraint::constant(semiring, one)
    }

    /// The constraint `0̄` — violated everywhere.
    pub fn never(semiring: S) -> Constraint<S> {
        let zero = semiring.zero();
        Constraint::constant(semiring, zero)
    }

    /// An extensional constraint from `(tuple, level)` entries.
    ///
    /// `vars` fixes the order in which each entry tuple lists its
    /// values; assignments not matching any entry get `default`.
    ///
    /// # Panics
    ///
    /// Panics if an entry tuple's arity differs from `vars.len()`, or
    /// if `vars` contains duplicates.
    pub fn table<I>(semiring: S, vars: &[Var], entries: I, default: S::Value) -> Constraint<S>
    where
        I: IntoIterator<Item = (Vec<Val>, S::Value)>,
    {
        let scope = sorted_scope(vars);
        assert_eq!(
            scope.len(),
            vars.len(),
            "table scope contains duplicate variables"
        );
        // Permutation from user order to sorted scope order.
        let perm: Vec<usize> = scope
            .iter()
            .map(|v| vars.iter().position(|u| u == v).expect("var in scope"))
            .collect();
        let map = entries
            .into_iter()
            .map(|(tuple, value)| {
                assert_eq!(
                    tuple.len(),
                    vars.len(),
                    "table entry arity mismatch: expected {}, got {}",
                    vars.len(),
                    tuple.len()
                );
                let key: Vec<Val> = perm.iter().map(|&i| tuple[i].clone()).collect();
                (key, value)
            })
            .collect();
        Constraint {
            semiring,
            scope,
            def: Def::Table(Arc::new(Table { map, default })),
            label: None,
        }
    }

    /// An intensional constraint computed by a closure.
    ///
    /// The closure receives the values of `vars` *in the given order*.
    ///
    /// # Panics
    ///
    /// Panics if `vars` contains duplicates.
    pub fn from_fn<F>(semiring: S, vars: &[Var], f: F) -> Constraint<S>
    where
        F: Fn(&[Val]) -> S::Value + Send + Sync + 'static,
    {
        let scope = sorted_scope(vars);
        assert_eq!(
            scope.len(),
            vars.len(),
            "constraint scope contains duplicate variables"
        );
        let perm = (vars != scope.as_slice()).then(|| {
            vars.iter()
                .map(|v| scope.binary_search(v).expect("param is in sorted scope"))
                .collect()
        });
        Constraint {
            semiring,
            scope,
            def: Def::Func(Arc::new(FuncDef {
                params: vars.to_vec(),
                perm,
                f: Box::new(f),
            })),
            label: None,
        }
    }

    /// A unary intensional constraint over `var`.
    pub fn unary<F>(semiring: S, var: impl Into<Var>, f: F) -> Constraint<S>
    where
        F: Fn(&Val) -> S::Value + Send + Sync + 'static,
    {
        Constraint::from_fn(semiring, &[var.into()], move |vals| f(&vals[0]))
    }

    /// A binary intensional constraint over `(x, y)`; the closure
    /// receives the values in that order.
    pub fn binary<F>(semiring: S, x: impl Into<Var>, y: impl Into<Var>, f: F) -> Constraint<S>
    where
        F: Fn(&Val, &Val) -> S::Value + Send + Sync + 'static,
    {
        Constraint::from_fn(semiring, &[x.into(), y.into()], move |vals| {
            f(&vals[0], &vals[1])
        })
    }

    /// A crisp constraint: `1` where the predicate holds, `0` elsewhere.
    ///
    /// This casts classical constraints into any semiring, as the paper
    /// does for the partition and stability constraints of Sec. 6.1.
    pub fn crisp<F>(semiring: S, vars: &[Var], pred: F) -> Constraint<S>
    where
        F: Fn(&[Val]) -> bool + Send + Sync + 'static,
    {
        let one = semiring.one();
        let zero = semiring.zero();
        Constraint::from_fn(semiring, vars, move |vals| {
            if pred(vals) {
                one.clone()
            } else {
                zero.clone()
            }
        })
    }

    /// The diagonal constraint `d_xy`: `1` where `x = y`, `0` elsewhere.
    ///
    /// Diagonal constraints model parameter passing in procedure calls
    /// (rule R10 of the `nmsccp` transition system).
    pub fn diagonal(semiring: S, x: impl Into<Var>, y: impl Into<Var>) -> Constraint<S> {
        let one = semiring.one();
        let zero = semiring.zero();
        Constraint::binary(semiring, x, y, move |a, b| {
            if a == b {
                one.clone()
            } else {
                zero.clone()
            }
        })
        .with_label("d_xy")
    }

    /// Attaches a human-readable label, shown by `Debug`.
    pub fn with_label(mut self, label: impl AsRef<str>) -> Constraint<S> {
        self.label = Some(Arc::from(label.as_ref()));
        self
    }

    /// The label, if any.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// The semiring this constraint is valued in.
    pub fn semiring(&self) -> &S {
        &self.semiring
    }

    /// The support (scope) of the constraint, sorted.
    pub fn scope(&self) -> &[Var] {
        &self.scope
    }

    /// Whether the constraint is a constant function (empty support).
    pub fn is_constant(&self) -> bool {
        self.scope.is_empty()
    }

    /// If the constraint is a constant function, its value.
    pub fn as_constant(&self) -> Option<&S::Value> {
        match &self.def {
            Def::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Evaluates the constraint under `η`.
    ///
    /// # Errors
    ///
    /// Returns [`UnboundVarError`] if `η` does not bind the whole
    /// support.
    pub fn try_eval(&self, eta: &Assignment) -> Result<S::Value, UnboundVarError> {
        match &self.def {
            Def::Const(v) => Ok(v.clone()),
            Def::Table(table) => {
                let key = self.scope_tuple(eta)?;
                Ok(table
                    .map
                    .get(&key)
                    .cloned()
                    .unwrap_or_else(|| table.default.clone()))
            }
            Def::Func(func) => {
                let args: Vec<Val> = func
                    .params
                    .iter()
                    .map(|v| {
                        eta.get(v)
                            .cloned()
                            .ok_or_else(|| UnboundVarError { var: v.clone() })
                    })
                    .collect::<Result<_, _>>()?;
                Ok((func.f)(&args))
            }
            Def::Dense(_) | Def::Combined(_) | Def::Divided(_) => {
                let key = self.scope_tuple(eta)?;
                Ok(self.eval_tuple(&key))
            }
        }
    }

    /// Evaluates the constraint under `η` (the paper's `cη`).
    ///
    /// # Panics
    ///
    /// Panics if `η` does not bind the whole support; use
    /// [`Constraint::try_eval`] for a fallible variant.
    pub fn eval(&self, eta: &Assignment) -> S::Value {
        self.try_eval(eta)
            .unwrap_or_else(|e| panic!("constraint evaluation failed: {e}"))
    }

    /// Evaluates on a tuple of values given in *sorted scope order*.
    ///
    /// This is the fast path used by solvers that enumerate domain
    /// tuples directly.
    ///
    /// # Panics
    ///
    /// Panics if `tuple.len() != self.scope().len()`.
    pub fn eval_tuple(&self, tuple: &[Val]) -> S::Value {
        assert_eq!(tuple.len(), self.scope.len(), "scope tuple arity mismatch");
        match &self.def {
            Def::Const(v) => v.clone(),
            Def::Table(table) => table
                .map
                .get(tuple)
                .cloned()
                .unwrap_or_else(|| table.default.clone()),
            Def::Dense(dense) => dense
                .index(tuple)
                .map_or_else(|| self.semiring.zero(), |i| dense.values[i].clone()),
            Def::Func(func) => match &func.perm {
                None => (func.f)(tuple),
                Some(perm) => {
                    let args: Vec<Val> = perm.iter().map(|&i| tuple[i].clone()).collect();
                    (func.f)(&args)
                }
            },
            Def::Combined(def) => {
                let mut acc = self.semiring.one();
                let mut sub: Vec<Val> = Vec::new();
                for (c, emb) in &def.operands {
                    if self.semiring.is_zero(&acc) {
                        break; // 0 absorbs ×
                    }
                    let level = c.eval_tuple(restrict(tuple, emb, &mut sub));
                    acc = self.semiring.times(&acc, &level);
                }
                acc
            }
            Def::Divided(def) => {
                let ((l, l_emb), (r, r_emb)) = (&def.left, &def.right);
                let mut sub = Vec::new();
                let left = l.eval_tuple(restrict(tuple, l_emb, &mut sub));
                let right = r.eval_tuple(restrict(tuple, r_emb, &mut sub));
                (def.div)(&self.semiring, &left, &right)
            }
        }
    }

    /// Builds a flat `⊗`-combination over an already-computed sorted
    /// `scope`. Each part carries the embedding of its scope into
    /// `scope`; parts that are themselves combinations are flattened by
    /// composing their operands' embeddings, so the result's operand
    /// list is always one level deep.
    pub(crate) fn combined_from(
        semiring: S,
        scope: Vec<Var>,
        parts: Vec<(Constraint<S>, Vec<usize>)>,
    ) -> Constraint<S> {
        let mut operands: Vec<(Constraint<S>, Vec<usize>)> = Vec::with_capacity(parts.len());
        for (part, emb) in parts {
            debug_assert_eq!(part.scope.len(), emb.len(), "embedding arity mismatch");
            match &part.def {
                Def::Combined(def) => {
                    for (op, op_emb) in &def.operands {
                        let composed: Vec<usize> = op_emb.iter().map(|&i| emb[i]).collect();
                        operands.push((op.clone(), composed));
                    }
                }
                _ => operands.push((part, emb)),
            }
        }
        Constraint {
            semiring,
            scope,
            def: Def::Combined(Arc::new(CombinedDef { operands })),
            label: None,
        }
    }

    /// Builds a structural division over an already-computed sorted
    /// `scope`; `div` is the semiring's residuation operation.
    pub(crate) fn divided_from(
        semiring: S,
        scope: Vec<Var>,
        left: (Constraint<S>, Vec<usize>),
        right: (Constraint<S>, Vec<usize>),
        div: fn(&S, &S::Value, &S::Value) -> S::Value,
    ) -> Constraint<S> {
        Constraint {
            semiring,
            scope,
            def: Def::Divided(Arc::new(DividedDef { left, right, div })),
            label: None,
        }
    }

    /// The constraint's `⊗`-operands, each with the embedding of its
    /// scope into `self.scope()`. Non-combination constraints are their
    /// own single operand (identity embedding). This is the entry point
    /// the compiler uses to collapse combine DAGs into a flat list.
    pub(crate) fn flat_operands(&self) -> Vec<(&Constraint<S>, Vec<usize>)> {
        match &self.def {
            Def::Combined(def) => def
                .operands
                .iter()
                .map(|(c, emb)| (c, emb.clone()))
                .collect(),
            _ => vec![(self, (0..self.scope.len()).collect())],
        }
    }

    fn scope_tuple(&self, eta: &Assignment) -> Result<Vec<Val>, UnboundVarError> {
        self.scope
            .iter()
            .map(|v| {
                eta.get(v)
                    .cloned()
                    .ok_or_else(|| UnboundVarError { var: v.clone() })
            })
            .collect()
    }

    /// Renames a support variable, returning a constraint that behaves
    /// like `self` with `from` read from `to` instead.
    ///
    /// Used by the `nmsccp` hiding rule (R9), whose semantics renames
    /// the bound variable to a fresh one. If `from` is not in the
    /// support, the constraint is returned unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `to` is already in the support (variable capture).
    pub fn rename(&self, from: &Var, to: &Var) -> Constraint<S> {
        if from == to || !self.scope.contains(from) {
            return self.clone();
        }
        assert!(
            !self.scope.contains(to),
            "renaming `{from}` to `{to}` would capture an existing support variable"
        );
        let old = self.clone();
        // Parallel to the old sorted scope, with `from` replaced.
        let new_params: Vec<Var> = old
            .scope
            .iter()
            .map(|v| if v == from { to.clone() } else { v.clone() })
            .collect();
        let label = self.label.clone();
        let mut renamed = Constraint::from_fn(self.semiring.clone(), &new_params, move |vals| {
            // `vals` arrive in `new_params` order, which mirrors the old
            // sorted scope order exactly.
            old.eval_tuple(vals)
        });
        renamed.label = label;
        renamed
    }

    /// Materialises the constraint into an extensional table over its
    /// scope, enumerating the given domains.
    ///
    /// Evaluating the result never calls user closures again; the cost
    /// is the product of the scope's domain sizes. The table is dense
    /// (one level per tuple of `domains`, `0` for a value outside
    /// them). A constraint whose tuple count overflows `usize` is
    /// returned as is.
    ///
    /// # Errors
    ///
    /// Returns [`MissingDomainError`] if a scope variable has no domain.
    pub fn materialize(&self, domains: &Domains) -> Result<Constraint<S>, MissingDomainError> {
        if let Def::Const(_) = self.def {
            return Ok(self.clone());
        }
        let scope_domains = domains.of(&self.scope)?;
        let Some((_, cells)) = row_major(scope_domains.iter().copied()) else {
            return Ok(self.clone());
        };
        if self.cells_over(domains).is_some() {
            return Ok(self.clone()); // already dense over these domains
        }
        let mut values = Vec::with_capacity(cells);
        let mut cursor = Cursor::new(scope_domains.clone());
        while let Some(tuple) = cursor.tuple() {
            values.push(self.eval_tuple(tuple));
            cursor.advance();
        }
        let domains = scope_domains.into_iter().cloned().collect();
        let mut dense =
            Constraint::from_cells(self.semiring.clone(), self.scope.clone(), domains, values);
        dense.label = self.label.clone();
        Ok(dense)
    }

    /// A dense table over the sorted `scope`, whose domains are
    /// `domains`, from its levels in [`Domains::tuples`] order.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not hold one level per tuple.
    pub(crate) fn from_cells(
        semiring: S,
        scope: Vec<Var>,
        domains: Vec<Domain>,
        values: Vec<S::Value>,
    ) -> Constraint<S> {
        let (strides, cells) = row_major(&domains).expect("a filled table's cell count fits usize");
        assert_eq!(values.len(), cells, "one level per tuple");
        Constraint {
            semiring,
            scope,
            def: Def::Dense(Arc::new(Dense {
                domains,
                strides,
                values,
            })),
            label: None,
        }
    }

    /// The levels and strides of a dense table built over exactly the
    /// domains `domains` gives its scope; `None` for any other
    /// constraint, or for a table whose domains were since replaced.
    pub(crate) fn cells_over(&self, domains: &Domains) -> Option<(&[S::Value], &[usize])> {
        let Def::Dense(dense) = &self.def else {
            return None;
        };
        let same = self
            .scope
            .iter()
            .zip(&dense.domains)
            .all(|(v, d)| domains.get(v).is_ok_and(|e| e == d));
        same.then_some((&dense.values, &dense.strides))
    }
}

/// How a walk over the tuples of a scope (a [`Cursor`]) reads one
/// constraint whose scope embeds in it, set up once per walk.
pub(crate) enum Reader<'c, S: Semiring> {
    /// A dense table over the walked domains: the level of a tuple is
    /// the cell at its indices dotted with these strides (`0` at the
    /// walked positions outside the table's scope).
    Cells(&'c [S::Value], Vec<usize>),
    /// Anything else: evaluated on the walked tuple restricted to the
    /// embedding, through a reused buffer.
    Eval(&'c Constraint<S>, Vec<usize>, Vec<Val>),
}

impl<'c, S: Semiring> Reader<'c, S> {
    /// Reads `c`, embedded at `emb` in a walk of `arity` positions over
    /// `domains`.
    pub(crate) fn new(
        c: &'c Constraint<S>,
        emb: Vec<usize>,
        arity: usize,
        domains: &Domains,
    ) -> Self {
        if let Some((cells, strides)) = c.cells_over(domains) {
            let mut walk_strides = vec![0; arity];
            for (&pos, &stride) in emb.iter().zip(strides) {
                walk_strides[pos] = stride;
            }
            return Reader::Cells(cells, walk_strides);
        }
        Reader::Eval(c, emb, Vec::new())
    }

    /// The level at the walked tuple `tuple`, whose domain indices are
    /// `indices`.
    pub(crate) fn read(&mut self, indices: &[usize], tuple: &[Val]) -> S::Value {
        match self {
            Reader::Cells(cells, strides) => {
                let flat: usize = indices.iter().zip(strides.iter()).map(|(i, s)| i * s).sum();
                cells[flat].clone()
            }
            Reader::Eval(c, emb, buf) => c.eval_tuple(restrict(tuple, emb, buf)),
        }
    }
}

/// The row-major strides (last fastest) and cell count of a table over
/// `domains`; `None` when the count overflows `usize`.
pub(crate) fn row_major<'d>(
    domains: impl IntoIterator<Item = &'d Domain>,
) -> Option<(Vec<usize>, usize)> {
    let sizes: Vec<usize> = domains.into_iter().map(Domain::len).collect();
    let positions: Vec<usize> = (0..sizes.len()).collect();
    mixed_radix(&positions, &sizes)
}

/// `tuple` restricted to the positions `emb` — the embedding of an
/// operand's sorted scope into the parent's, so it is strictly
/// increasing and is the identity exactly when it covers the whole
/// tuple, in which case `tuple` is read as is.
fn restrict<'t>(tuple: &'t [Val], emb: &[usize], buf: &'t mut Vec<Val>) -> &'t [Val] {
    if emb.len() == tuple.len() {
        debug_assert!(emb.iter().enumerate().all(|(k, &i)| k == i));
        return tuple;
    }
    buf.clear();
    buf.extend(emb.iter().map(|&i| tuple[i].clone()));
    buf
}

impl<S: Semiring> fmt::Debug for Constraint<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &self.def {
            Def::Const(v) => format!("const({v:?})"),
            Def::Table(t) => format!("table({} entries)", t.map.len()),
            Def::Dense(t) => format!("table({} entries)", t.values.len()),
            Def::Func(_) => "fn".to_string(),
            Def::Combined(def) => format!("⊗({} operands)", def.operands.len()),
            Def::Divided(_) => "÷".to_string(),
        };
        let mut s = f.debug_struct("Constraint");
        if let Some(label) = &self.label {
            s.field("label", label);
        }
        s.field("scope", &self.scope).field("def", &kind).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;
    use softsoa_semiring::{Boolean, WeightedInt};

    fn x() -> Var {
        Var::new("x")
    }

    fn y() -> Var {
        Var::new("y")
    }

    #[test]
    fn constant_constraints() {
        let one = Constraint::always(WeightedInt);
        let zero = Constraint::never(WeightedInt);
        let eta = Assignment::new();
        assert_eq!(one.eval(&eta), 0); // weighted one is cost 0
        assert_eq!(zero.eval(&eta), u64::MAX);
        assert!(one.is_constant());
        assert_eq!(one.as_constant(), Some(&0));
    }

    #[test]
    fn table_reorders_to_sorted_scope() {
        // Declare with vars in (y, x) order; scope must sort to (x, y).
        let c = Constraint::table(
            WeightedInt,
            &[y(), x()],
            vec![(vec![Val::Int(1), Val::Int(2)], 7u64)], // y=1, x=2
            0,
        );
        assert_eq!(c.scope(), &[x(), y()]);
        let eta = Assignment::new().bind("x", 2).bind("y", 1);
        assert_eq!(c.eval(&eta), 7);
        // eval_tuple takes sorted scope order: (x, y).
        assert_eq!(c.eval_tuple(&[Val::Int(2), Val::Int(1)]), 7);
    }

    #[test]
    fn function_constraints_respect_param_order() {
        // f(x, y) = x - y, declared with params (y, x) swapped.
        let c = Constraint::from_fn(WeightedInt, &[y(), x()], |vals| {
            let yv = vals[0].as_int().unwrap();
            let xv = vals[1].as_int().unwrap();
            (xv - yv).unsigned_abs()
        });
        let eta = Assignment::new().bind("x", 5).bind("y", 2);
        assert_eq!(c.eval(&eta), 3);
        assert_eq!(c.eval_tuple(&[Val::Int(5), Val::Int(2)]), 3);
    }

    #[test]
    fn unbound_variable_error() {
        let c = Constraint::unary(WeightedInt, "x", |_| 1);
        let err = c.try_eval(&Assignment::new()).unwrap_err();
        assert_eq!(err.var(), &x());
    }

    #[test]
    fn crisp_and_diagonal() {
        let d = Constraint::diagonal(Boolean, "x", "y");
        let same = Assignment::new().bind("x", 1).bind("y", 1);
        let diff = Assignment::new().bind("x", 1).bind("y", 2);
        assert!(d.eval(&same));
        assert!(!d.eval(&diff));

        let c = Constraint::crisp(WeightedInt, &[x()], |vals| vals[0].as_int().unwrap() > 0);
        assert_eq!(c.eval(&Assignment::new().bind("x", 1)), 0);
        assert_eq!(c.eval(&Assignment::new().bind("x", -1)), u64::MAX);
    }

    #[test]
    fn materialize_agrees_with_function() {
        let doms = Domains::new().with("x", Domain::ints(0..=5));
        let c = Constraint::unary(WeightedInt, "x", |v| v.as_int().unwrap() as u64 + 3);
        let t = c.materialize(&doms).unwrap();
        for v in 0..=5 {
            let eta = Assignment::new().bind("x", v);
            assert_eq!(c.eval(&eta), t.eval(&eta));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate variables")]
    fn duplicate_scope_rejected() {
        let _ = Constraint::from_fn(WeightedInt, &[x(), x()], |_| 0);
    }

    #[test]
    fn rename_preserves_semantics() {
        let c = Constraint::binary(WeightedInt, "x", "y", |a, b| {
            (2 * a.as_int().unwrap() + b.as_int().unwrap()) as u64
        });
        let r = c.rename(&x(), &Var::new("z"));
        assert_eq!(r.scope(), &[y(), Var::new("z")]);
        let eta = Assignment::new().bind("z", 3).bind("y", 1);
        assert_eq!(r.eval(&eta), 7);
        // Renaming an absent variable is the identity.
        let same = c.rename(&Var::new("w"), &Var::new("q"));
        assert_eq!(same.scope(), c.scope());
    }

    #[test]
    #[should_panic(expected = "capture")]
    fn rename_rejects_capture() {
        let c = Constraint::binary(WeightedInt, "x", "y", |_, _| 0);
        let _ = c.rename(&x(), &y());
    }

    #[test]
    fn debug_shows_label() {
        let c = Constraint::always(Boolean).with_label("Memory");
        let dbg = format!("{c:?}");
        assert!(dbg.contains("Memory"));
    }
}
