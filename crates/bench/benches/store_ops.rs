//! E25 — the nmsccp store's kernel operations: `tell` (σ ⊗ c,
//! materialised), `retract` (σ ÷ c after the `σ ⊑ c` check),
//! `entails` (σ ⊑ c) and `consistency` (the `σ ⇓ ∅` fold every checked
//! transition compares against its interval).
//!
//! Two stores: a 16-value Fuzzy store, the shape the negotiation
//! daemon's sessions use, and a 3-variable 8³ WeightedInt store. Each
//! σ is a materialised table over the store's domains, so these rows
//! time dense-table walks. `consistency` times the fold itself
//! (`σ.consistency(domains)`); `Store::consistency` memoises it once
//! per store.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use softsoa_core::{Constraint, Domain, Domains, Var};
use softsoa_nmsccp::Store;
use softsoa_semiring::{Fuzzy, Residuated, Unit, WeightedInt};
use std::hint::black_box;

/// Times the four operations on `store`, telling and retracting `c`
/// (which `store` must entail).
fn bench_store<S: Residuated>(
    c: &mut Criterion,
    name: &str,
    store: &Store<S>,
    told: &Constraint<S>,
) {
    assert!(
        store.entails(told).unwrap(),
        "{name}: the store must entail the retracted constraint"
    );
    let mut group = c.benchmark_group("store_ops");
    group.bench_function(BenchmarkId::new(name, "tell"), |b| {
        b.iter(|| black_box(store).tell(black_box(told)).unwrap())
    });
    group.bench_function(BenchmarkId::new(name, "retract"), |b| {
        b.iter(|| black_box(store).retract(black_box(told)).unwrap())
    });
    group.bench_function(BenchmarkId::new(name, "entails"), |b| {
        b.iter(|| black_box(store).entails(black_box(told)).unwrap())
    });
    group.bench_function(BenchmarkId::new(name, "consistency"), |b| {
        b.iter(|| {
            let store = black_box(store);
            store.sigma().consistency(store.domains()).unwrap()
        })
    });
    group.finish();
}

fn bench(c: &mut Criterion) {
    println!("--- E25 / store kernel operations over dense tables ---");
    let unit = |v: f64| Unit::new(v.clamp(0.0, 1.0)).unwrap();

    // A provider policy and a client requirement on x ∈ 0..16, as in a
    // daemon negotiation.
    let fuzzy = Store::empty(Fuzzy, Domains::new().with("x", Domain::ints(0..16)));
    let policy = Constraint::unary(Fuzzy, "x", move |v| {
        unit(0.2 + 0.05 * v.as_int().unwrap() as f64)
    });
    let requirement = Constraint::unary(Fuzzy, "x", move |v| {
        unit(1.0 - 0.04 * v.as_int().unwrap() as f64)
    });
    let fuzzy = fuzzy.tell(&policy).unwrap().tell(&requirement).unwrap();
    bench_store(c, "fuzzy16", &fuzzy, &requirement);

    // x, y, z ∈ 0..8: a ternary cost, a binary one, and a unary one to
    // tell and retract.
    let doms = Domains::new()
        .with("x", Domain::ints(0..8))
        .with("y", Domain::ints(0..8))
        .with("z", Domain::ints(0..8));
    let int = |v: &softsoa_core::Val| v.as_int().unwrap() as u64;
    let ternary = Constraint::from_fn(
        WeightedInt,
        &[Var::new("x"), Var::new("y"), Var::new("z")],
        move |v| int(&v[0]) + 2 * int(&v[1]) + 3 * int(&v[2]),
    );
    let binary = Constraint::binary(WeightedInt, "y", "z", move |y, z| int(y) * int(z));
    let unary = Constraint::unary(WeightedInt, "x", move |x| int(x));
    let weighted = Store::empty(WeightedInt, doms)
        .tell(&ternary)
        .unwrap()
        .tell(&binary)
        .unwrap();
    bench_store(c, "weighted8x3", &weighted, &unary);
}

criterion_group!(benches, bench);
criterion_main!(benches);
