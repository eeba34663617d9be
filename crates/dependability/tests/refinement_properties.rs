//! Metamorphic tests of integrity as refinement (Sec. 5, Def. 1):
//! `S` locally refines `R` through the interface `E` iff
//! `S⇓E ⊑ R⇓E`.
//!
//! - Tightening the implementation keeps a refinement:
//!   if `S⇓E ⊑ R⇓E` then `(S ⊗ c)⇓E ⊑ R⇓E`, because `⊗` is intensive
//!   and `⇓` monotone.
//! - Widening the requirement keeps it: raising every level of `R`
//!   through `+` yields an `R'` with `S⇓E ⊑ R'⇓E`.
//!
//! Loosening the implementation is the converse, and it can break a
//! refinement: [`loosening_imp1s_red_filter_breaks_memory`] pins the
//! paper's `Imp2` counterexample.
//!
//! Each case draws `S`, `R`, `c` and the raise as tables over two or
//! three int variables, with levels from a small palette per semiring.
//! Half the cases build `R` from `S⇓E` raised, so the refinement holds
//! by construction and the implications are never vacuous.

use proptest::collection::vec;
use proptest::prelude::*;
use softsoa_core::{Constraint, Domain, Domains, Var};
use softsoa_dependability::{check_refinement, locally_refines, photo};
use softsoa_semiring::{Boolean, Fuzzy, Probabilistic, Semiring, Unit, WeightedInt};

const VARS: [&str; 3] = ["x", "y", "z"];
/// Every domain is `0..SIZE`, so a table has at most `SIZE³` cells.
const SIZE: i64 = 3;
const CELLS: usize = 27;

/// A table's draw: a scope bit mask and one palette pick per cell.
type Table = (u8, Vec<usize>);

/// One semiring and the levels its tables draw from.
struct Kind<S: Semiring> {
    semiring: S,
    palette: Vec<S::Value>,
}

impl<S: Semiring> Kind<S> {
    /// The variables of `mask` among the first `n`; all of them for an
    /// empty selection.
    fn scope(n: usize, mask: u8) -> Vec<Var> {
        let mask = if mask as usize % (1 << n) == 0 {
            !0
        } else {
            mask
        };
        (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| Var::new(VARS[i]))
            .collect()
    }

    fn level(&self, pick: usize) -> S::Value {
        self.palette[pick % self.palette.len()].clone()
    }

    fn table(&self, n: usize, (mask, picks): &Table, domains: &Domains) -> Constraint<S> {
        let scope = Self::scope(n, *mask);
        let tuples = domains.tuples(&scope).expect("domains declared");
        let entries = tuples.zip(picks).map(|(t, &p)| (t, self.level(p)));
        Constraint::table(self.semiring.clone(), &scope, entries, self.semiring.zero())
    }

    /// `r` with every level raised through `+` by one palette pick.
    fn raise(&self, r: &Constraint<S>, picks: &[usize], domains: &Domains) -> Constraint<S> {
        let tuples = domains.tuples(r.scope()).expect("domains declared");
        let entries: Vec<_> = tuples
            .zip(picks)
            .map(|(t, &p)| {
                let level = self.semiring.plus(&r.eval_tuple(&t), &self.level(p));
                (t, level)
            })
            .collect();
        Constraint::table(
            self.semiring.clone(),
            r.scope(),
            entries,
            self.semiring.zero(),
        )
    }

    fn check(&self, case: Case) {
        let ((n, e_mask, from_s), s, r, c, raise) = case;
        let domains = VARS[..n]
            .iter()
            .fold(Domains::new(), |d, v| d.with(*v, Domain::ints(0..SIZE)));
        let e = Self::scope(n, e_mask);
        let s = self.table(n, &s, &domains);
        let refines = |s: &Constraint<S>, r: &Constraint<S>| {
            locally_refines(s, r, &e, &domains).expect("domains declared")
        };
        let r = if from_s {
            let r = self.raise(&s.project(&e, &domains).unwrap(), &r.1, &domains);
            assert!(refines(&s, &r), "S⇓E ⊑ (S⇓E raised)⇓E");
            r
        } else {
            self.table(n, &r, &domains)
        };
        if !refines(&s, &r) {
            return;
        }
        let c = self.table(n, &c, &domains);
        assert!(
            refines(&s.combine(&c), &r),
            "tightening S by {c:?} broke it"
        );
        let wider = self.raise(&r, &raise, &domains);
        assert!(refines(&s, &wider), "widening R to {wider:?} broke it");
    }
}

/// Variable count, interface mask and whether `R` is built from
/// `S⇓E`; then `S`, `R`, `c` and the raise of `R`.
type Case = ((usize, u8, bool), Table, Table, Table, Vec<usize>);

fn table() -> impl Strategy<Value = Table> {
    (any::<u8>(), vec(0usize..64, CELLS))
}

fn case() -> impl Strategy<Value = Case> {
    (
        (2usize..=3, any::<u8>(), any::<bool>()),
        table(),
        table(),
        table(),
        vec(0usize..64, CELLS),
    )
}

fn units(levels: &[f64]) -> Vec<Unit> {
    levels.iter().map(|&l| Unit::clamped(l)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn boolean_refinement_survives_tightening_and_widening(case in case()) {
        Kind { semiring: Boolean, palette: vec![false, true, true] }.check(case);
    }

    #[test]
    fn fuzzy_refinement_survives_tightening_and_widening(case in case()) {
        let palette = units(&[0.0, 0.25, 0.5, 0.75, 1.0]);
        Kind { semiring: Fuzzy, palette }.check(case);
    }

    #[test]
    fn weighted_refinement_survives_tightening_and_widening(case in case()) {
        let palette = vec![0, 1, 2, 5, u64::MAX];
        Kind { semiring: WeightedInt, palette }.check(case);
    }

    #[test]
    fn probabilistic_refinement_survives_tightening_and_widening(case in case()) {
        let palette = units(&[0.0, 0.1, 0.5, 0.9, 0.99, 1.0]);
        Kind { semiring: Probabilistic, palette }.check(case);
    }
}

/// `Imp1 = Imp2 ⊗ RedFilter` refines `Memory`, so the converse of
/// tightening fails: loosening `Imp1`'s red filter to the unreliable
/// one (`Imp2`) breaks the refinement, at the assignment
/// `softsoa integrity` prints.
#[test]
fn loosening_imp1s_red_filter_breaks_memory() {
    let domains = photo::domains(4096, 512);
    let e = photo::interface();
    let tightened = photo::imp2().combine(&photo::red_filter());
    assert!(tightened.equivalent(&photo::imp1(), &domains).unwrap());
    assert!(locally_refines(&photo::imp1(), &photo::memory(), &e, &domains).unwrap());

    let report = check_refinement(&photo::imp2(), &photo::memory(), &e, &domains).unwrap();
    assert!(!report.holds());
    let counterexample = report.counterexample().expect("a violating assignment");
    assert_eq!(
        counterexample.assignment.to_string(),
        "[incomp:=512, outcomp:=0]"
    );
    assert!(counterexample.implementation_level);
    assert!(!counterexample.requirement_level);
}
