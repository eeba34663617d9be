//! The algebraic operators of the soft constraint system.
//!
//! This module implements, exactly as defined in Sec. 2 of the paper:
//!
//! | Paper | Here |
//! |---|---|
//! | combination `c1 ⊗ c2` | [`Constraint::combine`] |
//! | division `c1 ÷ c2` | [`Constraint::divide`] |
//! | projection `c ⇓ V` | [`Constraint::project`] |
//! | hiding `∃x c` | [`Constraint::hide`] |
//! | order `c1 ⊑ c2` | [`Constraint::leq`] |
//! | entailment `C ⊢ c` | [`entails`] |
//! | `c ⇓ ∅` (consistency level) | [`Constraint::consistency`] |
//!
//! Combination and division are *lazy*: they return an intensional
//! constraint over the union scope that evaluates both operands on
//! demand (call [`Constraint::materialize`] to pay the enumeration cost
//! once). Projection is necessarily *eager* — it sums over the
//! eliminated variables' domains into a dense table — and therefore
//! needs a [`Domains`] map and can fail with [`MissingDomainError`].
//!
//! Every eager operator walks its tuples with one reusable buffer and
//! reads a dense table built over the same domains by index, so a
//! materialised store is folded, compared and projected as a slice.
//! The one-pass kernels [`Constraint::combine_over`] and
//! [`Constraint::divide_over`] are the lazy operator followed by
//! `materialize`, computed in one walk without building the lazy node.
//! When one operand is a dense table over the domains whose scope holds
//! the other's, a walk (and [`Constraint::leq`]) runs over that table's
//! own scope and layout instead of building its own.

use std::borrow::Cow;

use softsoa_semiring::{Residuated, Semiring};

use crate::constraint::{embedding, union_scope, Reader, Space};
use crate::{Constraint, Domains, MissingDomainError, Var};

/// The union of two sorted, deduplicated scopes together with both
/// operands' embeddings into it. Nested lazy combinations *compose*
/// these embeddings (index lookups) instead of recomputing them.
fn merge_scopes(a: &[Var], b: &[Var]) -> (Vec<Var>, Vec<usize>, Vec<usize>) {
    let scope = union_scope(a, b);
    let (emb_a, emb_b) = (embedding(a, &scope), embedding(b, &scope));
    (scope, emb_a, emb_b)
}

/// Where a `⊗`-operand sits in a walked space of `arity` positions:
/// its side's embedding there (`None`: the whole space) composed with
/// its own embedding in its side (`None`: the whole side); `None` when
/// the result is the whole space.
fn place<'c>(
    side: &Option<Cow<'c, [usize]>>,
    own: Option<&'c [usize]>,
    arity: usize,
) -> Option<Cow<'c, [usize]>> {
    let placed = match (side, own) {
        (None, None) => return None,
        (None, Some(own)) => Cow::Borrowed(own),
        (Some(side), None) => side.clone(),
        (Some(side), Some(own)) => Cow::Owned(own.iter().map(|&i| side[i]).collect()),
    };
    (placed.len() != arity).then_some(placed)
}

/// The pointwise operator of the one-pass kernel.
enum Pointwise<S: Semiring> {
    /// `⊗`, folded over the flat operands of both sides exactly as a
    /// lazy combination evaluates (`0` absorbs the rest).
    Combine,
    /// `÷`, the semiring's residuation of the left level by the right.
    Divide(fn(&S, &S::Value, &S::Value) -> S::Value),
}

impl<S: Semiring> Constraint<S> {
    /// `(self ∘ other).materialize(domains)`, computed in one walk of
    /// the union scope that reads each operand as the lazy `∘` node
    /// would, without building that node (unless the scope is too
    /// large to tabulate, when the node itself is returned).
    fn pointwise(
        &self,
        other: &Constraint<S>,
        op: Pointwise<S>,
        domains: &Domains,
    ) -> Result<Constraint<S>, MissingDomainError> {
        let semiring = self.semiring();
        assert!(
            semiring == other.semiring(),
            "cannot operate on constraints over different semirings"
        );
        let space = Space::union(self, other, domains)?;
        let Some(cells) = space.cells() else {
            let (scope, self_emb, other_emb) = merge_scopes(self.scope(), other.scope());
            let (left, right) = ((self.clone(), self_emb), (other.clone(), other_emb));
            return Ok(match op {
                Pointwise::Combine => {
                    Constraint::combined_from(semiring.clone(), scope, vec![left, right])
                }
                Pointwise::Divide(div) => {
                    Constraint::divided_from(semiring.clone(), scope, left, right, div)
                }
            });
        };
        let arity = space.scope().len();
        let mut readers = Vec::new();
        for side in [self, other] {
            let side_emb = space.embed(side.scope());
            match op {
                // One reader per flat operand, so a level folds exactly
                // as the lazy combination evaluates it.
                Pointwise::Combine => {
                    for (c, own) in side.flat_operands() {
                        let emb = place(&side_emb, own, arity);
                        readers.push(Reader::new(c, emb, &space, domains));
                    }
                }
                Pointwise::Divide(_) => readers.push(Reader::new(side, side_emb, &space, domains)),
            }
        }
        let mut values = Vec::with_capacity(cells);
        space.walk(|flat, indices, tuple| {
            values.push(match op {
                Pointwise::Combine => {
                    let mut acc = semiring.one();
                    for reader in &mut readers {
                        if semiring.is_zero(&acc) {
                            break;
                        }
                        acc = semiring.times(&acc, &reader.read(flat, indices, tuple));
                    }
                    acc
                }
                Pointwise::Divide(div) => {
                    let left = readers[0].read(flat, indices, tuple);
                    div(semiring, &left, &readers[1].read(flat, indices, tuple))
                }
            });
            true
        });
        Ok(space.table(semiring.clone(), values))
    }

    /// The materialised combination: equal to
    /// `self.combine(other).materialize(domains)`, computed in one walk
    /// of the union scope without building the lazy node. When one
    /// operand is a dense table over `domains` whose scope holds the
    /// other's, the walk is over that table's cells and the result
    /// shares its scope and layout.
    ///
    /// # Errors
    ///
    /// Returns [`MissingDomainError`] if a variable of the union scope
    /// has no domain.
    ///
    /// # Panics
    ///
    /// Panics if the two constraints are valued in different semirings.
    pub fn combine_over(
        &self,
        other: &Constraint<S>,
        domains: &Domains,
    ) -> Result<Constraint<S>, MissingDomainError> {
        self.pointwise(other, Pointwise::Combine, domains)
    }

    /// The materialised division: equal to
    /// `self.divide(other).materialize(domains)`, in one walk (see
    /// [`Constraint::combine_over`]).
    ///
    /// # Errors
    ///
    /// Returns [`MissingDomainError`] if a variable of the union scope
    /// has no domain.
    ///
    /// # Panics
    ///
    /// Panics if the two constraints are valued in different semirings.
    pub fn divide_over(
        &self,
        other: &Constraint<S>,
        domains: &Domains,
    ) -> Result<Constraint<S>, MissingDomainError>
    where
        S: Residuated,
    {
        self.pointwise(other, Pointwise::Divide(<S as Residuated>::div), domains)
    }

    /// The combination `self ⊗ other`: `(c1 ⊗ c2)η = c1η × c2η`.
    ///
    /// The support of the result is the union of the supports. The
    /// result is lazy; each evaluation evaluates both operands.
    ///
    /// # Panics
    ///
    /// Panics if the two constraints are valued in different semirings
    /// (e.g. set-based semirings with different universes).
    pub fn combine(&self, other: &Constraint<S>) -> Constraint<S> {
        assert!(
            self.semiring() == other.semiring(),
            "cannot combine constraints over different semirings"
        );
        let semiring = self.semiring().clone();
        let (scope, left_idx, right_idx) = merge_scopes(self.scope(), other.scope());
        Constraint::combined_from(
            semiring,
            scope,
            vec![(self.clone(), left_idx), (other.clone(), right_idx)],
        )
    }

    /// The division `self ÷ other`: `(c1 ÷ c2)η = c1η ÷ c2η`.
    ///
    /// This is the constraint-level residuation used by the `retract`
    /// action of the `nmsccp` language to remove `other`'s contribution.
    ///
    /// # Panics
    ///
    /// Panics if the two constraints are valued in different semirings.
    pub fn divide(&self, other: &Constraint<S>) -> Constraint<S>
    where
        S: Residuated,
    {
        assert!(
            self.semiring() == other.semiring(),
            "cannot divide constraints over different semirings"
        );
        let semiring = self.semiring().clone();
        let (scope, left_idx, right_idx) = merge_scopes(self.scope(), other.scope());
        Constraint::divided_from(
            semiring,
            scope,
            (self.clone(), left_idx),
            (other.clone(), right_idx),
            <S as Residuated>::div,
        )
    }

    /// The projection `self ⇓ keep`, eliminating every support variable
    /// not in `keep` by summing over its domain.
    ///
    /// The result is an extensional constraint over `scope ∩ keep`.
    /// Projection is how the paper extracts the *interface* of a
    /// service from its implementation (Sec. 5).
    ///
    /// # Errors
    ///
    /// Returns [`MissingDomainError`] if an eliminated variable has no
    /// domain.
    pub fn project(
        &self,
        keep: &[Var],
        domains: &Domains,
    ) -> Result<Constraint<S>, MissingDomainError> {
        let scope = self.scope();
        // Where each kept variable sits in the sorted scope.
        let kept_idx: Vec<usize> = (0..scope.len())
            .filter(|&i| keep.contains(&scope[i]))
            .collect();
        if kept_idx.len() == scope.len() {
            // Nothing to eliminate; materialise for a stable result shape.
            return self.materialize(domains);
        }
        let semiring = self.semiring().clone();
        let space = Space::around(self, domains)?;
        let kept: Vec<Var> = kept_idx.iter().map(|&i| scope[i].clone()).collect();
        let kept_domains = kept_idx.iter().map(|&i| space.domains()[i].clone());
        // The result's dense layout, as strides over the scope's positions.
        let kept_space = Space::over(kept.into(), kept_domains.collect());
        let cells = kept_space
            .cells()
            .expect("projection table size overflows usize");
        let mut to_kept = vec![0; scope.len()];
        for (&i, &stride) in kept_idx.iter().zip(kept_space.strides()) {
            to_kept[i] = stride;
        }

        // One walk over the whole scope: every tuple adds its level to
        // the cell of its kept sub-tuple. Each cell's summands arrive
        // in the lexicographic order of the eliminated tuples.
        let mut reader = Reader::new(self, None, &space, domains);
        let mut values = vec![semiring.zero(); cells];
        space.walk(|flat, indices, tuple| {
            let cell: usize = indices.iter().zip(&to_kept).map(|(i, s)| i * s).sum();
            values[cell] = semiring.plus(&values[cell], &reader.read(flat, indices, tuple));
            true
        });
        let mut projected = kept_space.table(semiring, values);
        if let Some(label) = self.label() {
            projected = projected.with_label(format!("{label}⇓"));
        }
        Ok(projected)
    }

    /// The hiding operator `∃x self`: `(∃x c)η = Σ_{d ∈ D} cη[x := d]`.
    ///
    /// Equivalent to projecting the support onto `scope \ {x}`.
    ///
    /// # Errors
    ///
    /// Returns [`MissingDomainError`] if `x` is in the support but has
    /// no domain.
    pub fn hide(&self, x: &Var, domains: &Domains) -> Result<Constraint<S>, MissingDomainError> {
        let keep: Vec<Var> = self.scope().iter().filter(|v| *v != x).cloned().collect();
        self.project(&keep, domains)
    }

    /// The consistency level `self ⇓ ∅`: the `+`-sum of the constraint
    /// over every assignment of its support.
    ///
    /// Applied to a problem's solution this is the paper's *best level
    /// of consistency* `blevel`.
    ///
    /// # Errors
    ///
    /// Returns [`MissingDomainError`] if a support variable has no
    /// domain.
    pub fn consistency(&self, domains: &Domains) -> Result<S::Value, MissingDomainError> {
        let semiring = self.semiring();
        if let Some(cells) = self.cells_over(domains) {
            return Ok(cells
                .iter()
                .fold(semiring.zero(), |acc, level| semiring.plus(&acc, level)));
        }
        let mut acc = semiring.zero();
        let mut cursor = domains.cursor(self.scope())?;
        while let Some(tuple) = cursor.tuple() {
            acc = semiring.plus(&acc, &self.eval_tuple(tuple));
            cursor.advance();
        }
        Ok(acc)
    }

    /// The constraint order `self ⊑ other`: `∀η. self η ≤S other η`.
    ///
    /// Quantifies over all assignments of the union scope drawn from
    /// `domains`.
    ///
    /// # Errors
    ///
    /// Returns [`MissingDomainError`] if a support variable has no
    /// domain.
    ///
    /// # Panics
    ///
    /// Panics if the two constraints are valued in different semirings.
    pub fn leq(
        &self,
        other: &Constraint<S>,
        domains: &Domains,
    ) -> Result<bool, MissingDomainError> {
        assert!(
            self.semiring() == other.semiring(),
            "cannot compare constraints over different semirings"
        );
        let semiring = self.semiring();
        let space = Space::union(self, other, domains)?;
        let mut left = Reader::new(self, space.embed(self.scope()), &space, domains);
        let mut right = Reader::new(other, space.embed(other.scope()), &space, domains);
        Ok(space.walk(|flat, indices, tuple| {
            semiring.leq(
                &left.read(flat, indices, tuple),
                &right.read(flat, indices, tuple),
            )
        }))
    }

    /// Extensional equality: `self ⊑ other ∧ other ⊑ self` over
    /// `domains`.
    ///
    /// # Errors
    ///
    /// Returns [`MissingDomainError`] if a support variable has no
    /// domain.
    pub fn equivalent(
        &self,
        other: &Constraint<S>,
        domains: &Domains,
    ) -> Result<bool, MissingDomainError> {
        Ok(self.leq(other, domains)? && other.leq(self, domains)?)
    }
}

/// Combines all constraints with `⊗`; the empty combination is `1̄`.
///
/// # Examples
///
/// ```
/// use softsoa_core::{combine_all, Constraint, Assignment};
/// use softsoa_semiring::WeightedInt;
///
/// let c1 = Constraint::unary(WeightedInt, "x", |v| v.as_int().unwrap() as u64 + 3);
/// let c3 = Constraint::unary(WeightedInt, "x", |v| 2 * v.as_int().unwrap() as u64);
/// let combined = combine_all(WeightedInt, [&c1, &c3]);
/// let eta = Assignment::new().bind("x", 2);
/// assert_eq!(combined.eval(&eta), 9); // (2+3) + (2*2)
/// ```
pub fn combine_all<'a, S, I>(semiring: S, constraints: I) -> Constraint<S>
where
    S: Semiring,
    I: IntoIterator<Item = &'a Constraint<S>>,
{
    let operands: Vec<&Constraint<S>> = constraints.into_iter().collect();
    match operands.len() {
        0 => Constraint::always(semiring),
        1 => operands[0].clone(),
        _ => {
            // The union scope is sorted and deduplicated once for the
            // whole combination, and each operand embedded once —
            // instead of once per fold step as the naive
            // `fold(always, combine)` would.
            let mut scope: Vec<Var> = operands
                .iter()
                .flat_map(|c| c.scope().iter().cloned())
                .collect();
            scope.sort();
            scope.dedup();
            let parts: Vec<(Constraint<S>, Vec<usize>)> = operands
                .into_iter()
                .map(|c| {
                    assert!(
                        c.semiring() == &semiring,
                        "cannot combine constraints over different semirings"
                    );
                    let emb = embedding(c.scope(), &scope);
                    (c.clone(), emb)
                })
                .collect();
            Constraint::combined_from(semiring, scope, parts)
        }
    }
}

/// The entailment relation `C ⊢ c ⇔ ⊗C ⊑ c` (Sec. 2).
///
/// # Errors
///
/// Returns [`MissingDomainError`] if a support variable has no domain.
pub fn entails<'a, S, I>(
    semiring: S,
    constraints: I,
    c: &Constraint<S>,
    domains: &Domains,
) -> Result<bool, MissingDomainError>
where
    S: Semiring,
    I: IntoIterator<Item = &'a Constraint<S>>,
{
    combine_all(semiring, constraints).leq(c, domains)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Assignment, Domain, Val};
    use softsoa_semiring::{Fuzzy, Unit, WeightedInt};

    fn doms_xy() -> Domains {
        Domains::new()
            .with("x", Domain::syms(["a", "b"]))
            .with("y", Domain::syms(["a", "b"]))
    }

    /// The three constraints of Fig. 1 (weighted semiring).
    fn fig1() -> (
        Constraint<WeightedInt>,
        Constraint<WeightedInt>,
        Constraint<WeightedInt>,
    ) {
        let c1 = Constraint::table(
            WeightedInt,
            &[Var::new("x")],
            vec![(vec![Val::sym("a")], 1u64), (vec![Val::sym("b")], 9)],
            u64::MAX,
        );
        let c2 = Constraint::table(
            WeightedInt,
            &[Var::new("x"), Var::new("y")],
            vec![
                (vec![Val::sym("a"), Val::sym("a")], 5u64),
                (vec![Val::sym("a"), Val::sym("b")], 1),
                (vec![Val::sym("b"), Val::sym("a")], 2),
                (vec![Val::sym("b"), Val::sym("b")], 2),
            ],
            u64::MAX,
        );
        let c3 = Constraint::table(
            WeightedInt,
            &[Var::new("y")],
            vec![(vec![Val::sym("a")], 5u64), (vec![Val::sym("b")], 5)],
            u64::MAX,
        );
        (c1, c2, c3)
    }

    #[test]
    fn fig1_combination_values() {
        let (c1, c2, c3) = fig1();
        let all = c1.combine(&c2).combine(&c3);
        let eta = |x: &str, y: &str| Assignment::new().bind("x", x).bind("y", y);
        assert_eq!(all.eval(&eta("a", "a")), 11);
        assert_eq!(all.eval(&eta("a", "b")), 7);
        assert_eq!(all.eval(&eta("b", "a")), 16);
        assert_eq!(all.eval(&eta("b", "b")), 16);
    }

    #[test]
    fn fig1_projection_and_blevel() {
        let (c1, c2, c3) = fig1();
        let all = c1.combine(&c2).combine(&c3);
        let sol = all.project(&[Var::new("x")], &doms_xy()).unwrap();
        let eta = |x: &str| Assignment::new().bind("x", x);
        assert_eq!(sol.eval(&eta("a")), 7);
        assert_eq!(sol.eval(&eta("b")), 16);
        assert_eq!(all.consistency(&doms_xy()).unwrap(), 7);
    }

    #[test]
    fn combine_is_commutative_and_has_unit() {
        let (c1, _, c3) = fig1();
        let doms = doms_xy();
        let ab = c1.combine(&c3);
        let ba = c3.combine(&c1);
        assert!(ab.equivalent(&ba, &doms).unwrap());
        let with_one = c1.combine(&Constraint::always(WeightedInt));
        assert!(with_one.equivalent(&c1, &doms).unwrap());
    }

    #[test]
    fn divide_undoes_combine_pointwise() {
        let (c1, c2, _) = fig1();
        let doms = doms_xy();
        let combined = c1.combine(&c2);
        let back = combined.divide(&c1);
        assert!(back.equivalent(&c2, &doms).unwrap());
    }

    #[test]
    fn projection_of_projection_composes() {
        let (c1, c2, c3) = fig1();
        let doms = doms_xy();
        let all = c1.combine(&c2).combine(&c3);
        let direct = all.project(&[], &doms).unwrap();
        let via_x = all
            .project(&[Var::new("x")], &doms)
            .unwrap()
            .project(&[], &doms)
            .unwrap();
        assert!(direct.equivalent(&via_x, &doms).unwrap());
    }

    #[test]
    fn hide_removes_variable_from_support() {
        let (_, c2, _) = fig1();
        let doms = doms_xy();
        let hidden = c2.hide(&Var::new("y"), &doms).unwrap();
        assert_eq!(hidden.scope(), &[Var::new("x")]);
        // For x=a the best extension is y=b with level 1.
        assert_eq!(hidden.eval(&Assignment::new().bind("x", "a")), 1);
        // Hiding a variable not in the support is the identity.
        let same = c2.hide(&Var::new("z"), &doms).unwrap();
        assert!(same.equivalent(&c2, &doms).unwrap());
    }

    #[test]
    fn leq_and_entailment() {
        let (c1, c2, c3) = fig1();
        let doms = doms_xy();
        // ⊗C ⊑ each member (combination only worsens levels).
        let all = combine_all(WeightedInt, [&c1, &c2, &c3]);
        assert!(all.leq(&c1, &doms).unwrap());
        assert!(all.leq(&c2, &doms).unwrap());
        assert!(entails(WeightedInt, [&c1, &c2, &c3], &c3, &doms).unwrap());
        // c1 alone does not entail c2.
        assert!(!entails(WeightedInt, [&c1], &c2, &doms).unwrap());
    }

    #[test]
    fn fuzzy_combination_flattens_to_min() {
        let u = |v: f64| Unit::new(v).unwrap();
        let cp = Constraint::unary(Fuzzy, "x", move |v| u(1.0 / (v.as_int().unwrap() as f64)));
        let cc = Constraint::unary(Fuzzy, "x", move |v| {
            u((v.as_int().unwrap() as f64 - 1.0) / 9.0)
        });
        let both = cp.combine(&cc);
        let eta = Assignment::new().bind("x", 2);
        let expected = (1.0f64 / 2.0).min((2.0 - 1.0) / 9.0);
        assert!((both.eval(&eta).get() - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different semirings")]
    fn combine_rejects_mismatched_semirings() {
        use softsoa_semiring::SetSemiring;
        let s1 = SetSemiring::from_iter(0u8..2);
        let s2 = SetSemiring::from_iter(0u8..3);
        let a = Constraint::always(s1);
        let b = Constraint::always(s2);
        let _ = a.combine(&b);
    }
}
