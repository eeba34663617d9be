//! Differential tests of dense tables against the lazy constraints
//! they materialise.
//!
//! [`Constraint::materialize`] and [`Constraint::project`] return a
//! dense table: one level per tuple of the scope's domains, row-major
//! with the last variable fastest, reading `0` for a value outside its
//! domain. `consistency` folds such a table's levels directly and `leq`
//! reads it by index when it was built over the domains it is asked
//! about; otherwise both evaluate it per tuple. Each case draws one to
//! three int variables, random closure constraints over them (with
//! permuted parameters, and a second operand over a sub-scope) and
//! checks, on WeightedInt, Fuzzy, Probabilistic and Boolean:
//!
//! - `materialize` and `project` agree with the lazy constraint on
//!   every tuple, and read `0` off the domains;
//! - `consistency` and `leq` give the same answer on the dense table
//!   (fast path) as on the lazy constraint (generic path), and as a
//!   brute-force fold over the tuples;
//! - after a domain is replaced, a table built over the old domains
//!   behaves exactly like the sparse table of its old entries, and a
//!   `Store` whose domain `declare` replaced after a `tell` still
//!   matches the [`EnumerationSolver::new`] oracle;
//! - the one-pass kernels `combine_over` and `divide_over` equal
//!   `combine` and `divide` followed by `materialize`, cell for cell
//!   and bit for bit (Probabilistic included), whichever side is the
//!   dense table and whether the other side is a closure, a dense
//!   table or a structural `⊗`, over the table's scope or part of it.

use std::fmt::Debug;

use proptest::collection::vec;
use proptest::prelude::*;
use softsoa_core::solve::{EnumerationSolver, Solver};
use softsoa_core::{Assignment, Constraint, Domain, Domains, Scsp, Val, Var};
use softsoa_nmsccp::Store;
use softsoa_semiring::{Boolean, Fuzzy, Probabilistic, Residuated, Semiring, Unit, WeightedInt};

/// The (at most three) variables a case draws from.
const VARS: [&str; 3] = ["x", "y", "z"];

/// A value outside every domain a case declares.
const OFF: Val = Val::Int(100);

/// A random closure constraint: variable picks, a rotation of its
/// parameter order, a salt for its levels, and an optional second
/// `⊗`-operand over a sub-scope.
#[derive(Debug, Clone)]
struct Shape {
    vars: Vec<usize>,
    rotate: usize,
    salt: usize,
    second: Option<(Vec<usize>, usize)>,
}

fn shape() -> impl Strategy<Value = Shape> {
    (
        vec(0usize..3, 1..=3),
        0usize..3,
        0usize..64,
        (0usize..4, vec(0usize..3, 1..=2), 0usize..64),
    )
        .prop_map(|(vars, rotate, salt, (two, sub, salt2))| Shape {
            vars,
            rotate,
            salt,
            second: (two > 0).then_some((sub, salt2)),
        })
}

/// One case: the domains of `x`, `y`, `z` as `(lo, size)`, two
/// shapes, the variables a projection keeps, and a replacement
/// `(variable, lo, size)` for the stale-table checks.
#[derive(Debug, Clone)]
struct Case {
    domains: Vec<(i64, usize)>,
    a: Shape,
    b: Shape,
    keep: Vec<usize>,
    replace: (usize, i64, usize),
}

/// A domain size: mostly 1–4 values, sometimes empty.
fn size() -> impl Strategy<Value = usize> {
    (0usize..16).prop_map(|k| if k == 0 { 0 } else { 1 + k % 4 })
}

fn case() -> impl Strategy<Value = Case> {
    (
        vec((-2i64..3, size()), 3),
        shape(),
        shape(),
        vec(0usize..3, 0..=2),
        (0usize..3, -2i64..3, size()),
    )
        .prop_map(|(domains, a, b, keep, replace)| Case {
            domains,
            a,
            b,
            keep,
            replace,
        })
}

fn ints(lo: i64, size: usize) -> Domain {
    Domain::ints((lo..).take(size))
}

fn domains(case: &Case) -> Domains {
    let mut d = Domains::new();
    for (name, &(lo, size)) in VARS.iter().zip(&case.domains) {
        d.insert(Var::new(*name), ints(lo, size));
    }
    d
}

/// The variables picked by `picks`, sorted and deduplicated.
fn pick(picks: &[usize]) -> Vec<Var> {
    let mut vars: Vec<Var> = picks.iter().map(|&i| Var::new(VARS[i])).collect();
    vars.sort();
    vars.dedup();
    vars
}

/// A closure over `params` whose level depends on every value *and*
/// its parameter position, so a misrouted argument changes it.
fn closure<S: Semiring>(s: &S, palette: &[S::Value], params: &[Var], salt: usize) -> Constraint<S> {
    let palette = palette.to_vec();
    Constraint::from_fn(s.clone(), params, move |vals| {
        let mut h = salt;
        for (i, v) in vals.iter().enumerate() {
            h = h * 31 + (i + 1) * 7 * (v.as_int().expect("int value") + 5) as usize;
        }
        palette[h % palette.len()].clone()
    })
}

fn lazy<S: Semiring>(s: &S, palette: &[S::Value], shape: &Shape) -> Constraint<S> {
    let mut params = pick(&shape.vars);
    let len = params.len();
    params.rotate_left(shape.rotate % len);
    let first = closure(s, palette, &params, shape.salt);
    match &shape.second {
        None => first,
        Some((sub, salt)) => first.combine(&closure(s, palette, &pick(sub), *salt)),
    }
}

/// `Σ c` over the tuples of `domains` for `c`'s scope, evaluated one
/// tuple at a time.
fn brute_fold<S: Semiring>(c: &Constraint<S>, domains: &Domains) -> S::Value {
    let s = c.semiring();
    domains
        .tuples(c.scope())
        .unwrap()
        .fold(s.zero(), |acc, t| s.plus(&acc, &c.eval_tuple(&t)))
}

/// `∀η. a η ≤ b η` over the union scope, one assignment at a time.
fn brute_leq<S: Semiring>(a: &Constraint<S>, b: &Constraint<S>, domains: &Domains) -> bool {
    let mut scope: Vec<Var> = a.scope().iter().chain(b.scope()).cloned().collect();
    scope.sort();
    scope.dedup();
    domains.tuples(&scope).unwrap().all(|t| {
        let eta = Assignment::from_tuple(&scope, &t);
        a.semiring().leq(&a.eval(&eta), &b.eval(&eta))
    })
}

/// Every tuple of `c`'s scope over `domains`, with each position in
/// turn moved off its domain.
fn off_domain(c: &Constraint<impl Semiring>, domains: &Domains) -> Vec<Vec<Val>> {
    let mut out = Vec::new();
    for t in domains.tuples(c.scope()).unwrap() {
        for i in 0..t.len() {
            let mut off = t.clone();
            off[i] = OFF;
            out.push(off);
        }
    }
    out
}

/// `got` equals `want` on every tuple of `want`'s scope over `domains`.
fn assert_pointwise<S: Semiring>(
    got: &Constraint<S>,
    want: &Constraint<S>,
    domains: &Domains,
    what: &str,
) where
    S::Value: Debug,
{
    assert_eq!(got.scope(), want.scope(), "{what}: scope");
    for t in domains.tuples(want.scope()).unwrap() {
        assert_eq!(got.eval_tuple(&t), want.eval_tuple(&t), "{what} at {t:?}");
        let eta = Assignment::from_tuple(want.scope(), &t);
        assert_eq!(got.eval(&eta), want.eval(&eta), "{what} at η = {t:?}");
    }
}

/// `materialize` agrees with the lazy constraint, reads `0` off the
/// domains, and keeps the `table(N entries)` debug shape.
fn check_materialize<S: Semiring>(s: &S, palette: &[S::Value], case: &Case)
where
    S::Value: Debug,
{
    let d = domains(case);
    for shape in [&case.a, &case.b] {
        let c = lazy(s, palette, shape);
        let m = c.materialize(&d).unwrap();
        assert_pointwise(&m, &c, &d, "materialize");
        for t in off_domain(&c, &d) {
            assert!(s.is_zero(&m.eval_tuple(&t)), "off-domain {t:?} must read 0");
        }
        let cells = d.tuple_count(c.scope()).unwrap();
        assert!(format!("{m:?}").contains(&format!("table({cells} entries)")));
        // Materialising again over the same domains changes nothing.
        assert_pointwise(&m.materialize(&d).unwrap(), &c, &d, "re-materialize");
    }
}

/// `project` of the dense table and of the lazy constraint agree with
/// a brute-force sum, and read `0` off the domains.
fn check_project<S: Semiring>(s: &S, palette: &[S::Value], case: &Case)
where
    S::Value: Debug,
{
    let d = domains(case);
    let keep = pick(&case.keep);
    let c = lazy(s, palette, &case.a);
    let m = c.materialize(&d).unwrap();
    let kept: Vec<Var> = c
        .scope()
        .iter()
        .filter(|v| keep.contains(v))
        .cloned()
        .collect();
    let kept_pos: Vec<usize> = kept
        .iter()
        .map(|v| c.scope().iter().position(|u| u == v).unwrap())
        .collect();
    for (what, projected) in [
        ("lazy", c.project(&keep, &d).unwrap()),
        ("dense", m.project(&keep, &d).unwrap()),
    ] {
        assert_eq!(
            projected.scope(),
            kept.as_slice(),
            "{what} projection scope"
        );
        for kt in d.tuples(&kept).unwrap() {
            let want = d
                .tuples(c.scope())
                .unwrap()
                .filter(|t| kept_pos.iter().zip(&kt).all(|(&p, v)| &t[p] == v))
                .fold(s.zero(), |acc, t| s.plus(&acc, &c.eval_tuple(&t)));
            assert_eq!(
                projected.eval_tuple(&kt),
                want,
                "{what} projection at {kt:?}"
            );
        }
        for t in off_domain(&projected, &d) {
            assert!(
                s.is_zero(&projected.eval_tuple(&t)),
                "{what}: off-domain {t:?}"
            );
        }
    }
}

/// `consistency` and `leq` agree through the fast and the generic
/// path, and with brute force.
fn check_fold_and_order<S: Semiring>(s: &S, palette: &[S::Value], case: &Case)
where
    S::Value: Debug,
{
    let d = domains(case);
    let a = lazy(s, palette, &case.a);
    let b = lazy(s, palette, &case.b);
    // `a ⊗ b ⊑ a` always; `a ⊑ b` and `b ⊑ a` are up to the draw.
    let ab = a.combine(&b);
    for c in [&a, &b, &ab] {
        let want = brute_fold(c, &d);
        assert_eq!(c.consistency(&d).unwrap(), want, "generic fold");
        assert_eq!(
            c.materialize(&d).unwrap().consistency(&d).unwrap(),
            want,
            "dense fold"
        );
    }
    for (x, y) in [(&a, &b), (&b, &a), (&ab, &a), (&a, &ab), (&ab, &b)] {
        let want = brute_leq(x, y, &d);
        let (xm, ym) = (x.materialize(&d).unwrap(), y.materialize(&d).unwrap());
        assert_eq!(x.leq(y, &d).unwrap(), want, "lazy ⊑ lazy");
        assert_eq!(xm.leq(&ym, &d).unwrap(), want, "dense ⊑ dense");
        assert_eq!(xm.leq(y, &d).unwrap(), want, "dense ⊑ lazy");
        assert_eq!(x.leq(&ym, &d).unwrap(), want, "lazy ⊑ dense");
    }
}

/// After a domain is replaced, a table built over the old domains
/// behaves like the sparse table of its old entries (default `0`).
fn check_stale<S: Semiring>(s: &S, palette: &[S::Value], case: &Case)
where
    S::Value: Debug,
{
    let d = domains(case);
    let c = lazy(s, palette, &case.a);
    let m = c.materialize(&d).unwrap();
    let entries: Vec<(Vec<Val>, S::Value)> = d
        .tuples(c.scope())
        .unwrap()
        .map(|t| {
            let level = c.eval_tuple(&t);
            (t, level)
        })
        .collect();
    let sparse = Constraint::table(s.clone(), c.scope(), entries, s.zero());
    let (var, lo, size) = case.replace;
    let d2 = d.clone().with(VARS[var], ints(lo, size));

    assert_eq!(
        m.consistency(&d2).unwrap(),
        sparse.consistency(&d2).unwrap(),
        "stale fold"
    );
    let b = lazy(s, palette, &case.b);
    assert_eq!(
        m.leq(&b, &d2).unwrap(),
        sparse.leq(&b, &d2).unwrap(),
        "stale ⊑ b"
    );
    assert_eq!(
        b.leq(&m, &d2).unwrap(),
        b.leq(&sparse, &d2).unwrap(),
        "b ⊑ stale"
    );
    assert_pointwise(
        &m.materialize(&d2).unwrap(),
        &sparse,
        &d2,
        "stale re-materialize",
    );
    let keep = pick(&case.keep);
    assert_pointwise(
        &m.project(&keep, &d2).unwrap(),
        &sparse.project(&keep, &d2).unwrap(),
        &d2,
        "stale projection",
    );
}

/// `σ ⇓ ∅` by the lazy enumeration oracle: the blevel of `{σ}` with
/// `con = ∅`.
fn oracle<S: Semiring>(store: &Store<S>) -> S::Value {
    let mut problem = Scsp::new(store.semiring().clone()).with_constraint(store.sigma().clone());
    for (v, d) in store.domains().iter() {
        problem.add_domain(v.clone(), d.clone());
    }
    EnumerationSolver::new()
        .solve(&problem)
        .unwrap()
        .blevel()
        .clone()
}

/// A store whose domain `declare` replaced after a `tell` still
/// matches the oracle, before and after the next `tell`.
fn check_store<S: Semiring>(s: &S, palette: &[S::Value], case: &Case)
where
    S::Value: Debug,
{
    let (var, lo, size) = case.replace;
    let mut store = Store::empty(s.clone(), domains(case))
        .tell(&lazy(s, palette, &case.a))
        .unwrap();
    assert_eq!(store.consistency().unwrap(), oracle(&store), "after tell");
    store.declare(Var::new(VARS[var]), ints(lo, size));
    assert_eq!(
        store.consistency().unwrap(),
        oracle(&store),
        "after declare"
    );
    let b = lazy(s, palette, &case.b);
    let want = brute_leq(store.sigma(), &b, store.domains());
    assert_eq!(store.entails(&b).unwrap(), want, "entailment after declare");
    let store = store.tell(&b).unwrap();
    assert_eq!(
        store.consistency().unwrap(),
        oracle(&store),
        "tell after declare"
    );
}

/// `combine_over` and `divide_over` against the lazy operator followed
/// by `materialize`. `σ` is the first shape, dense over the domains
/// (and, for the generic walk, lazy); each operand is a closure, its
/// dense table or a structural `⊗` of it with a closure over its last
/// variable — whose product must fold one operand at a time, as the
/// lazy node evaluates it — over `σ`'s scope and over a sub-scope.
fn check_kernels<S: Residuated>(s: &S, palette: &[S::Value], case: &Case)
where
    S::Value: Debug,
{
    let d = domains(case);
    let lazy_sigma = lazy(s, palette, &case.a);
    let sigma = lazy_sigma.materialize(&d).unwrap();
    let scope = sigma.scope().to_vec();
    let mut sub: Vec<Var> = pick(&case.b.vars)
        .into_iter()
        .filter(|v| scope.contains(v) && *v != scope[0])
        .collect();
    if sub.is_empty() {
        sub.push(scope[0].clone());
    }
    for over in [scope, sub] {
        let salt = case.b.salt;
        let first = closure(s, palette, &over, salt);
        let last = closure(s, palette, &over[over.len() - 1..], salt + 1);
        let operands = [
            ("closure", first.clone()),
            ("dense", first.materialize(&d).unwrap()),
            ("structural ⊗", first.combine(&last)),
        ];
        for (what, op) in &operands {
            for (side, x) in [("dense σ", &sigma), ("lazy σ", &lazy_sigma)] {
                let at = format!("{side} with a {what} over {over:?}");
                for (l, r) in [(x, op), (op, x)] {
                    assert_pointwise(
                        &l.combine_over(r, &d).unwrap(),
                        &l.combine(r).materialize(&d).unwrap(),
                        &d,
                        &format!("combine_over, {at}"),
                    );
                    assert_pointwise(
                        &l.divide_over(r, &d).unwrap(),
                        &l.divide(r).materialize(&d).unwrap(),
                        &d,
                        &format!("divide_over, {at}"),
                    );
                }
            }
        }
    }
}

fn check<S: Residuated>(s: S, palette: &[S::Value], case: Case)
where
    S::Value: Debug,
{
    check_materialize(&s, palette, &case);
    check_project(&s, palette, &case);
    check_fold_and_order(&s, palette, &case);
    check_stale(&s, palette, &case);
    check_store(&s, palette, &case);
    check_kernels(&s, palette, &case);
}

fn units(levels: &[f64]) -> Vec<Unit> {
    levels.iter().map(|&l| Unit::new(l).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn weighted_int_dense_tables_match_the_lazy_constraint(c in case()) {
        check(WeightedInt, &[0, 1, 2, 3, 5, u64::MAX], c);
    }

    #[test]
    fn fuzzy_dense_tables_match_the_lazy_constraint(c in case()) {
        check(Fuzzy, &units(&[0.0, 0.25, 0.5, 0.75, 1.0]), c);
    }

    #[test]
    fn probabilistic_dense_tables_match_the_lazy_constraint(c in case()) {
        check(Probabilistic, &units(&[0.0, 0.3, 0.5, 0.9, 1.0]), c);
    }

    #[test]
    fn boolean_dense_tables_match_the_lazy_constraint(c in case()) {
        check(Boolean, &[false, true], c);
    }
}

#[test]
fn a_three_variable_table_is_row_major_over_its_domains() {
    // One fixed 2×3×4 case: every cell of the table is its own level,
    // so any stride or order slip shows as a wrong value.
    let d = Domains::new()
        .with("x", Domain::ints(0..2))
        .with("y", Domain::ints(0..3))
        .with("z", Domain::ints(0..4));
    let c = Constraint::from_fn(
        WeightedInt,
        &[Var::new("z"), Var::new("x"), Var::new("y")],
        |v| {
            let (z, x, y) = (
                v[0].as_int().unwrap(),
                v[1].as_int().unwrap(),
                v[2].as_int().unwrap(),
            );
            (100 * x + 10 * y + z) as u64
        },
    );
    let m = c.materialize(&d).unwrap();
    for x in 0..2 {
        for y in 0..3 {
            for z in 0..4 {
                let level = m.eval_tuple(&[Val::Int(x), Val::Int(y), Val::Int(z)]);
                assert_eq!(level, (100 * x + 10 * y + z) as u64);
            }
        }
    }
    assert_eq!(m.consistency(&d).unwrap(), 0);
    let yz = m.project(&[Var::new("y"), Var::new("z")], &d).unwrap();
    assert_eq!(yz.eval_tuple(&[Val::Int(2), Val::Int(3)]), 23);
}
