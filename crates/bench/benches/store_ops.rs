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
//!
//! E26 adds two `step` rows on the empty 16-value Fuzzy store: a plain
//! `Interpreter::run` of a daemon negotiation (provider ‖ client: two
//! `tell`s and the client's checked `ask`), and the same run in a
//! `ResilientInterpreter` under a seeded plan of dropped transitions
//! and retractions, with the broker's recovery shape (a one-rung
//! relaxation ladder and a lower-bound invariant).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use softsoa_core::{Constraint, Domain, Domains, Var};
use softsoa_nmsccp::{
    Agent, Bound, FaultAction, FaultEvent, FaultPlan, Interpreter, Interval, Program,
    RecoveryPolicy, ResilientInterpreter, Store,
};
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

/// Times whole negotiation runs of `provider ‖ client` on the empty
/// store `empty`: plain, and resilient under a seeded plan.
fn bench_steps(
    c: &mut Criterion,
    name: &str,
    empty: &Store<Fuzzy>,
    policy: &Constraint<Fuzzy>,
    requirement: &Constraint<Fuzzy>,
) {
    let unit = |v: f64| Unit::new(v).unwrap();
    let any = Interval::any(&Fuzzy);
    let acceptance = Interval::levels(unit(0.3), unit(1.0));
    let provider = Agent::tell(policy.clone(), any.clone(), Agent::success());
    let client = Agent::tell(
        requirement.clone(),
        any,
        Agent::ask(Constraint::always(Fuzzy), acceptance, Agent::success()),
    );
    let agent = Agent::par(provider, client);
    // Faults on a seeded 1-in-3 of the first eight steps, alternating
    // a dropped transition with a retraction of the client's policy.
    let mut seed = 7u64;
    let mut events = Vec::new();
    for at_step in 0..8 {
        seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        if (seed >> 33) % 3 == 0 {
            let action = if events.len() % 2 == 0 {
                FaultAction::DropTransition
            } else {
                FaultAction::Unconstrain(requirement.clone())
            };
            events.push(FaultEvent { at_step, action });
        }
    }
    let recovery = RecoveryPolicy {
        relaxations: vec![requirement.clone()],
        invariant: Some(Interval::new(
            Bound::Level(unit(0.1)),
            Bound::Level(unit(1.0)),
        )),
        ..RecoveryPolicy::default()
    };
    let plain = Interpreter::new(Program::new());
    let resilient = ResilientInterpreter::new(Program::new())
        .with_plan(FaultPlan::new(events))
        .with_recovery(recovery);
    assert!(plain
        .run(agent.clone(), empty.clone())
        .unwrap()
        .outcome
        .is_success());
    assert!(resilient
        .run(agent.clone(), empty.clone())
        .unwrap()
        .is_success());

    let mut group = c.benchmark_group("store_ops");
    group.bench_function(BenchmarkId::new(name, "step_plain"), |b| {
        b.iter(|| {
            plain
                .run(black_box(agent.clone()), black_box(empty.clone()))
                .unwrap()
        })
    });
    group.bench_function(BenchmarkId::new(name, "step_resilient"), |b| {
        b.iter(|| {
            resilient
                .run(black_box(agent.clone()), black_box(empty.clone()))
                .unwrap()
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
    bench_steps(c, "fuzzy16", &fuzzy, &policy, &requirement);
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
