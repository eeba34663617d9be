//! E1 — Fig. 1: the weighted SCSP and its solution.
//!
//! Regenerates the paper's numbers (solution `⟨a⟩ → 7`, `⟨b⟩ → 16`,
//! `blevel = 7`) and measures all three solvers on the problem; the
//! `_sequential` rows pin the configured solvers to one thread, the
//! reference their default (`Parallelism::Auto`) rows must stay near.

use criterion::{criterion_group, criterion_main, Criterion};
use softsoa_bench::fig1_problem;
use softsoa_core::solve::{
    BranchAndBound, BucketElimination, EnumerationSolver, Parallelism, Solver, SolverConfig,
    VarOrder,
};
use softsoa_core::Assignment;
use std::hint::black_box;

fn report_row() {
    let p = fig1_problem();
    let solution = p.solve().expect("fig1 solves");
    let table = solution.solution_constraint().expect("table");
    println!("--- E1 / Fig. 1 (paper: ⟨a⟩→7, ⟨b⟩→16, blevel = 7) ---");
    println!(
        "measured: ⟨a⟩→{}, ⟨b⟩→{}, blevel = {}",
        table.eval(&Assignment::new().bind("x", "a")),
        table.eval(&Assignment::new().bind("x", "b")),
        solution.blevel()
    );
    assert_eq!(*solution.blevel(), 7);
}

fn bench(c: &mut Criterion) {
    report_row();
    let p = fig1_problem();
    let mut group = c.benchmark_group("fig1");
    group.bench_function("enumeration", |b| {
        b.iter(|| EnumerationSolver::new().solve(black_box(&p)).unwrap())
    });
    group.bench_function("branch_and_bound", |b| {
        b.iter(|| BranchAndBound::default().solve(black_box(&p)).unwrap())
    });
    group.bench_function("bucket_elimination", |b| {
        b.iter(|| BucketElimination::default().solve(black_box(&p)).unwrap())
    });
    let sequential = SolverConfig::default().with_parallelism(Parallelism::Sequential);
    group.bench_function("branch_and_bound_sequential", |b| {
        b.iter(|| {
            BranchAndBound::with_config(VarOrder::default(), sequential)
                .solve(black_box(&p))
                .unwrap()
        })
    });
    group.bench_function("bucket_elimination_sequential", |b| {
        b.iter(|| {
            BucketElimination::with_config(sequential)
                .solve(black_box(&p))
                .unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
