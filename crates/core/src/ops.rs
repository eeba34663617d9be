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

use softsoa_semiring::{Residuated, Semiring};

use crate::constraint::{row_major, Reader};
use crate::domain::Cursor;
use crate::{Constraint, Domain, Domains, MissingDomainError, Var};

/// Positions of each `sub` variable inside `sup` (both sorted).
///
/// # Panics
///
/// Panics if `sub` is not a subset of `sup`.
fn embedding(sub: &[Var], sup: &[Var]) -> Vec<usize> {
    sub.iter()
        .map(|v| {
            sup.binary_search(v)
                .expect("operand scope must embed in the union scope")
        })
        .collect()
}

/// Merges two sorted, deduplicated scopes in one linear pass, returning
/// the union scope together with both operands' embeddings into it.
///
/// This replaces the sort + dedup + per-variable binary search that the
/// lazy operators used to repeat on every nesting level: the embeddings
/// fall out of the merge for free, and nested combinations *compose*
/// them (index lookups) instead of recomputing them.
fn merge_scopes(a: &[Var], b: &[Var]) -> (Vec<Var>, Vec<usize>, Vec<usize>) {
    let mut scope = Vec::with_capacity(a.len() + b.len());
    let mut emb_a = Vec::with_capacity(a.len());
    let mut emb_b = Vec::with_capacity(b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let pos = scope.len();
        if j >= b.len() || (i < a.len() && a[i] < b[j]) {
            scope.push(a[i].clone());
            emb_a.push(pos);
            i += 1;
        } else if i >= a.len() || b[j] < a[i] {
            scope.push(b[j].clone());
            emb_b.push(pos);
            j += 1;
        } else {
            scope.push(a[i].clone());
            emb_a.push(pos);
            emb_b.push(pos);
            i += 1;
            j += 1;
        }
    }
    (scope, emb_a, emb_b)
}

impl<S: Semiring> Constraint<S> {
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
        let scope_domains = domains.of(scope)?;
        let kept: Vec<Var> = kept_idx.iter().map(|&i| scope[i].clone()).collect();
        let kept_domains: Vec<Domain> =
            kept_idx.iter().map(|&i| scope_domains[i].clone()).collect();
        // The result's dense layout, as strides over the scope's positions.
        let (strides, cells) =
            row_major(&kept_domains).expect("projection table size overflows usize");
        let mut to_kept = vec![0; scope.len()];
        for (&i, &stride) in kept_idx.iter().zip(&strides) {
            to_kept[i] = stride;
        }

        // One walk over the whole scope: every tuple adds its level to
        // the cell of its kept sub-tuple. Each cell's summands arrive
        // in the lexicographic order of the eliminated tuples.
        let mut reader = Reader::new(self, (0..scope.len()).collect(), scope.len(), domains);
        let mut values = vec![semiring.zero(); cells];
        let mut cursor = Cursor::new(scope_domains);
        while let Some(tuple) = cursor.tuple() {
            let indices = cursor.indices();
            let cell: usize = indices.iter().zip(&to_kept).map(|(i, s)| i * s).sum();
            values[cell] = semiring.plus(&values[cell], &reader.read(indices, tuple));
            cursor.advance();
        }
        let mut projected = Constraint::from_cells(semiring, kept, kept_domains, values);
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
        if let Some((cells, _)) = self.cells_over(domains) {
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
        let (scope, self_idx, other_idx) = merge_scopes(self.scope(), other.scope());
        let mut cursor = domains.cursor(&scope)?;
        let mut left = Reader::new(self, self_idx, scope.len(), domains);
        let mut right = Reader::new(other, other_idx, scope.len(), domains);
        while let Some(tuple) = cursor.tuple() {
            let indices = cursor.indices();
            if !semiring.leq(&left.read(indices, tuple), &right.read(indices, tuple)) {
                return Ok(false);
            }
            cursor.advance();
        }
        Ok(true)
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
