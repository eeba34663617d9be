//! Shared fixtures for unit tests (compiled only under `cfg(test)`).

use softsoa_semiring::WeightedInt;

use crate::{Constraint, Domain, Scsp, Val, Var};

/// Builds the weighted SCSP of Fig. 1 of the paper.
///
/// Two variables over `{a, b}`, constraints `c1` (unary on `x`), `c2`
/// (binary) and `c3` (unary on `y`), with `con = {x}`. The expected
/// solution is `⟨a⟩ → 7`, `⟨b⟩ → 16` and `blevel = 7`.
pub(crate) fn fig1_problem() -> Scsp<WeightedInt> {
    let x = Var::new("x");
    let y = Var::new("y");
    Scsp::new(WeightedInt)
        .with_domain(x.clone(), Domain::syms(["a", "b"]))
        .with_domain(y.clone(), Domain::syms(["a", "b"]))
        .with_constraint(
            Constraint::table(
                WeightedInt,
                std::slice::from_ref(&x),
                [(vec![Val::sym("a")], 1), (vec![Val::sym("b")], 9)],
                u64::MAX,
            )
            .with_label("c1"),
        )
        .with_constraint(
            Constraint::table(
                WeightedInt,
                &[x.clone(), y.clone()],
                [
                    (vec![Val::sym("a"), Val::sym("a")], 5),
                    (vec![Val::sym("a"), Val::sym("b")], 1),
                    (vec![Val::sym("b"), Val::sym("a")], 2),
                    (vec![Val::sym("b"), Val::sym("b")], 2),
                ],
                u64::MAX,
            )
            .with_label("c2"),
        )
        .with_constraint(
            Constraint::table(
                WeightedInt,
                std::slice::from_ref(&y),
                [(vec![Val::sym("a")], 5), (vec![Val::sym("b")], 5)],
                u64::MAX,
            )
            .with_label("c3"),
        )
        .of_interest([x])
}

/// A 20-variable distance chain over domains `0..=9` with `con` = every
/// variable: its `con` table would have 10²⁰ cells, more than `usize`
/// counts. The all-equal assignments cost `0`, so `blevel = 0`.
pub(crate) fn wide_chain() -> Scsp<WeightedInt> {
    let vars: Vec<Var> = (0..20).map(|i| Var::new(format!("x{i:02}"))).collect();
    let mut p = Scsp::new(WeightedInt).of_interest(vars.clone());
    for v in &vars {
        p.add_domain(v.clone(), Domain::ints(0..=9));
    }
    for pair in vars.windows(2) {
        p.add_constraint(Constraint::binary(
            WeightedInt,
            pair[0].clone(),
            pair[1].clone(),
            |a, b| (a.as_int().unwrap() - b.as_int().unwrap()).unsigned_abs(),
        ));
    }
    p
}
