//! E15 — bounds-driven search: blind branch-and-bound vs mini-bucket
//! completion bounds vs a warm-started incumbent.
//!
//! All three variants return the identical `blevel` and witness
//! (property-tested in `softsoa-core`); the series measures what the
//! admissible bound and the seeded incumbent buy in explored nodes and
//! wall-clock as the problem grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use softsoa_core::generate::{random_weighted, RandomScsp};
use softsoa_core::solve::{BranchAndBound, Parallelism, Solver, SolverConfig, VarOrder};
use std::hint::black_box;

fn problem(n: usize) -> softsoa_core::Scsp<softsoa_semiring::WeightedInt> {
    random_weighted(&RandomScsp {
        vars: n,
        domain_size: 3,
        constraints: 2 * n,
        arity: 2,
        seed: 42,
    })
}

fn sequential() -> SolverConfig {
    SolverConfig::default().with_parallelism(Parallelism::Sequential)
}

fn report_row() {
    // The acceptance shape in one line per size: the bound prunes
    // strictly and the bounded search visits fewer nodes than blind.
    println!("--- E15 / bounds-driven search (shape: bounded explores fewer nodes than blind) ---");
    for n in [8usize, 10, 12] {
        let p = problem(n);
        let blind = BranchAndBound::with_config(VarOrder::MostConstrained, sequential())
            .solve(&p)
            .unwrap();
        let bounded = BranchAndBound::with_config(
            VarOrder::MostConstrained,
            sequential().with_ibound(Some(2)),
        )
        .solve(&p)
        .unwrap();
        let (b, m) = (blind.stats().unwrap(), bounded.stats().unwrap());
        assert_eq!(blind.blevel(), bounded.blevel());
        assert!(m.bound_prunes > 0, "ibound=2 never fired at n={n}");
        assert!(m.nodes < b.nodes, "no node reduction at n={n}");
        println!(
            "measured: n={n:2}  blind {:>8} nodes  ibound=2 {:>8} nodes ({} bound prunes)",
            b.nodes, m.nodes, m.bound_prunes
        );
    }
}

fn bench(c: &mut Criterion) {
    report_row();
    let mut group = c.benchmark_group("bounded_vs_blind");
    for n in [8usize, 10, 12] {
        let p = problem(n);
        group.bench_with_input(BenchmarkId::new("blind", n), &p, |b, p| {
            b.iter(|| {
                BranchAndBound::with_config(VarOrder::MostConstrained, sequential())
                    .solve(black_box(p))
                    .unwrap()
            })
        });
        for ibound in [1usize, 2, 3] {
            group.bench_with_input(
                BenchmarkId::new(format!("ibound_{ibound}"), n),
                &p,
                |b, p| {
                    b.iter(|| {
                        BranchAndBound::with_config(
                            VarOrder::MostConstrained,
                            sequential().with_ibound(Some(ibound)),
                        )
                        .solve(black_box(p))
                        .unwrap()
                    })
                },
            );
        }
        group.bench_with_input(BenchmarkId::new("dynamic_order", n), &p, |b, p| {
            b.iter(|| {
                BranchAndBound::with_config(VarOrder::Dynamic, sequential())
                    .solve(black_box(p))
                    .unwrap()
            })
        });
        // Warm re-solve: the previous round's optimum seeds the
        // incumbent. The seed is computed outside the timed
        // region — the bench measures only the re-solve.
        let seed = *BranchAndBound::with_config(VarOrder::MostConstrained, sequential())
            .solve(&p)
            .unwrap()
            .blevel();
        group.bench_with_input(BenchmarkId::new("warm_seeded", n), &p, |b, p| {
            b.iter(|| {
                BranchAndBound::with_config(VarOrder::MostConstrained, sequential())
                    .solve_seeded(black_box(p), seed)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("warm_plus_ibound_2", n), &p, |b, p| {
            b.iter(|| {
                BranchAndBound::with_config(
                    VarOrder::MostConstrained,
                    sequential().with_ibound(Some(2)),
                )
                .solve_seeded(black_box(p), seed)
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
