//! E9 — solver comparison: the evaluation the paper defers to future
//! work ("we could program it from scratch or extend Gecode").
//!
//! Random dense problems: branch-and-bound prunes, enumeration pays
//! the full product of domains, bucket elimination depends on induced
//! width. Chains (induced width 1): bucket elimination wins by orders
//! of magnitude and enumeration becomes infeasible first.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use softsoa_core::generate::{chain_weighted, random_weighted, RandomScsp};
use softsoa_core::solve::{
    BranchAndBound, BucketElimination, EnumerationSolver, Parallelism, Solver, SolverConfig,
    VarOrder,
};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    println!(
        "--- E9 / solver comparison (shape: bnb & bucket beat enumeration; gap grows with n) ---"
    );
    let mut group = c.benchmark_group("solvers_random");
    for n in [6usize, 8, 10] {
        let cfg = RandomScsp {
            vars: n,
            domain_size: 3,
            constraints: 2 * n,
            arity: 2,
            seed: 42,
        };
        let p = random_weighted(&cfg);
        group.bench_with_input(BenchmarkId::new("enumeration", n), &p, |b, p| {
            b.iter(|| EnumerationSolver::new().solve(black_box(p)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("branch_and_bound", n), &p, |b, p| {
            b.iter(|| {
                BranchAndBound::new(VarOrder::MostConstrained)
                    .solve(black_box(p))
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("bucket", n), &p, |b, p| {
            b.iter(|| BucketElimination::new().solve(black_box(p)).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("solvers_chain");
    for n in [8usize, 12, 16] {
        let p = chain_weighted(n, 4, 7);
        // Enumeration only up to n = 8 (4^12 tuples already cost ~10⁸
        // evaluations per solve; 4^16 would take hours).
        if n <= 8 {
            group.bench_with_input(BenchmarkId::new("enumeration", n), &p, |b, p| {
                b.iter(|| EnumerationSolver::new().solve(black_box(p)).unwrap())
            });
        }
        group.bench_with_input(BenchmarkId::new("branch_and_bound", n), &p, |b, p| {
            b.iter(|| {
                BranchAndBound::new(VarOrder::Input)
                    .solve(black_box(p))
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("bucket", n), &p, |b, p| {
            b.iter(|| BucketElimination::new().solve(black_box(p)).unwrap())
        });
    }
    group.finish();

    // Lazy vs compiled evaluation: the enumeration oracle against the
    // compiled enumeration engine on the same problem, the only
    // difference being the flattened-operand dense-table engine. The
    // acceptance gate of the engine work is compiled ≥ 2× faster than
    // lazy enumeration at n = 10. `bnb_compiled` times branch-and-bound
    // on the same problem.
    let mut group = c.benchmark_group("lazy_vs_compiled");
    for n in [6usize, 8, 10] {
        let cfg = RandomScsp {
            vars: n,
            domain_size: 3,
            constraints: 2 * n,
            arity: 2,
            seed: 42,
        };
        let p = random_weighted(&cfg);
        let compiled = SolverConfig::default().with_parallelism(Parallelism::Sequential);
        group.bench_with_input(BenchmarkId::new("enumeration_lazy", n), &p, |b, p| {
            b.iter(|| EnumerationSolver::new().solve(black_box(p)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("enumeration_compiled", n), &p, |b, p| {
            b.iter(|| {
                EnumerationSolver::with_config(compiled)
                    .solve(black_box(p))
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("bnb_compiled", n), &p, |b, p| {
            b.iter(|| {
                BranchAndBound::with_config(VarOrder::MostConstrained, compiled)
                    .solve(black_box(p))
                    .unwrap()
            })
        });
    }
    group.finish();

    // Sequential vs parallel (E30): compiled enumeration splitting the
    // outermost domain across worker threads, at sizes bracketing
    // `MIN_CELLS_PER_THREAD` (65,536). The generator leaves one variable
    // unconstrained below n = 15, so n = 10..15 search 3^9 ≈ 20k,
    // 59k, 177k, 531k, 1.6M and 3^15 ≈ 14.3M cells; `auto` runs inline
    // until two threads get a grain each (from n = 12).
    let mut group = c.benchmark_group("sequential_vs_parallel");
    for n in [10usize, 11, 12, 13, 14, 15] {
        let cfg = RandomScsp {
            vars: n,
            domain_size: 3,
            constraints: 2 * n,
            arity: 2,
            seed: 42,
        };
        let p = random_weighted(&cfg);
        for (name, parallelism) in [
            ("sequential", Parallelism::Sequential),
            ("threads2", Parallelism::Threads(2)),
            ("auto", Parallelism::Auto),
        ] {
            let config = SolverConfig::default().with_parallelism(parallelism);
            group.bench_with_input(BenchmarkId::new(name, n), &p, |b, p| {
                b.iter(|| {
                    EnumerationSolver::with_config(config)
                        .solve(black_box(p))
                        .unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
