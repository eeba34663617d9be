//! E16 — the propagation-and-decomposition engine: blind
//! branch-and-bound vs root soft arc-consistency, estimate-driven
//! ordering, and connected-component decomposition.
//!
//! Every variant returns the identical `blevel` (property-tested in
//! `softsoa-core`); the series measures what the propagation and
//! decomposition layer buys in explored nodes and wall-clock on the
//! structured k-component union family, where both levers engage:
//! banded components give root pruning real forbidden values to cut,
//! and the union splits into independent subproblems.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use softsoa_core::generate::{union_weighted, UnionScsp};
use softsoa_core::solve::{
    BranchAndBound, Parallelism, PropagationMode, Solver, SolverConfig, VarOrder,
};
use std::hint::black_box;

fn problem(
    components: usize,
    vars_per_component: usize,
) -> softsoa_core::Scsp<softsoa_semiring::WeightedInt> {
    union_weighted(&UnionScsp {
        components,
        vars_per_component,
        domain_size: 3,
        band: 2,
        seed: 42,
    })
}

fn sequential() -> SolverConfig {
    SolverConfig::default().with_parallelism(Parallelism::Sequential)
}

fn blind() -> SolverConfig {
    sequential()
        .with_propagation(PropagationMode::Off)
        .with_decompose(false)
}

fn report_row() {
    // The acceptance shape in one line per size: identical blevel and
    // witness validity, with the full engine exploring at least 10x
    // fewer nodes than the blind run.
    println!(
        "--- E16 / propagation + decomposition (shape: engine explores >=10x fewer nodes) ---"
    );
    for (k, m) in [(3usize, 5usize), (4, 4), (4, 5)] {
        let p = problem(k, m);
        let reference = BranchAndBound::with_config(VarOrder::Input, blind())
            .solve(&p)
            .unwrap();
        let propagated = BranchAndBound::with_config(
            VarOrder::Input,
            sequential()
                .with_propagation(PropagationMode::Root)
                .with_decompose(false),
        )
        .solve(&p)
        .unwrap();
        let engine = BranchAndBound::with_config(VarOrder::Input, sequential())
            .solve(&p)
            .unwrap();
        assert_eq!(propagated.blevel(), reference.blevel());
        assert_eq!(
            propagated.best_assignment(),
            reference.best_assignment(),
            "root propagation must preserve the blind witness"
        );
        assert_eq!(engine.blevel(), reference.blevel());
        assert!(
            engine.best_assignment().is_some(),
            "the engine run lost its witness at k={k} m={m}"
        );
        let (b, r, e) = (
            reference.stats().unwrap(),
            propagated.stats().unwrap(),
            engine.stats().unwrap(),
        );
        assert!(
            e.nodes * 10 <= b.nodes,
            "engine {} nodes vs blind {} at k={k} m={m}: less than 10x",
            e.nodes,
            b.nodes
        );
        println!(
            "measured: k={k} m={m}  blind {:>9} nodes  root-AC {:>9} nodes  engine {:>7} nodes ({} components)",
            b.nodes, r.nodes, e.nodes, e.components
        );
    }
}

fn bench(c: &mut Criterion) {
    report_row();
    let mut group = c.benchmark_group("propagation_vs_blind");
    for (k, m) in [(3usize, 5usize), (4, 4), (4, 5)] {
        let p = problem(k, m);
        let id = format!("{k}x{m}");
        group.bench_with_input(BenchmarkId::new("blind", &id), &p, |b, p| {
            b.iter(|| {
                BranchAndBound::with_config(VarOrder::Input, blind())
                    .solve(black_box(p))
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("propagate_root", &id), &p, |b, p| {
            b.iter(|| {
                BranchAndBound::with_config(
                    VarOrder::Input,
                    sequential()
                        .with_propagation(PropagationMode::Root)
                        .with_decompose(false),
                )
                .solve(black_box(p))
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("estimate_order", &id), &p, |b, p| {
            b.iter(|| {
                BranchAndBound::with_config(VarOrder::Estimate, sequential().with_decompose(false))
                    .solve(black_box(p))
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("decomposed", &id), &p, |b, p| {
            b.iter(|| {
                BranchAndBound::with_config(VarOrder::Input, sequential())
                    .solve(black_box(p))
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
