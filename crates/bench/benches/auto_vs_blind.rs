//! E15 — the engine row on random weighted SCSPs: branch-and-bound
//! under its two committed variable orders vs `Engine::Auto`.
//!
//! Rows: `blind` (most-constrained order, the default search config),
//! `dynamic_order` (the one row behind `solve --order dynamic`) and
//! `auto` (tree elimination where the width fits, search otherwise).
//! The preamble asserts that the three report the same `blevel`; it
//! asserts no timings. EXPERIMENTS.md E34 says why there are no
//! bound or warm-start rows.
//!
//! `generate::random_weighted` leaves one variable out of every scope
//! for some sizes, so rows are labelled by the compiled variable count
//! (`CompiledProblem::vars().len()`), not by the generator's `n`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use softsoa_core::compile::CompiledProblem;
use softsoa_core::generate::{random_weighted, RandomScsp};
use softsoa_core::solve::{BranchAndBound, Engine, Parallelism, Solver, SolverConfig, VarOrder};
use softsoa_core::Scsp;
use softsoa_semiring::WeightedInt;
use std::hint::black_box;

/// The generator sizes of the E15 rows.
const SIZES: [usize; 5] = [8, 10, 12, 14, 16];

fn problem(n: usize) -> Scsp<WeightedInt> {
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

/// The three engines of the row, by name.
fn engines() -> [(&'static str, BranchAndBound); 3] {
    [
        (
            "blind",
            BranchAndBound::with_config(VarOrder::MostConstrained, sequential()),
        ),
        (
            "dynamic_order",
            BranchAndBound::with_config(VarOrder::Dynamic, sequential()),
        ),
        (
            "auto",
            BranchAndBound::with_config(
                VarOrder::MostConstrained,
                sequential().with_engine(Engine::Auto),
            ),
        ),
    ]
}

/// The row label: the number of variables the problem really has.
fn compiled_vars(p: &Scsp<WeightedInt>) -> usize {
    CompiledProblem::from_problem(p)
        .expect("generated problems declare every domain")
        .vars()
        .len()
}

fn report_row() {
    println!("--- E15 / engine row (shape: blind, dynamic_order and auto agree) ---");
    for n in SIZES {
        let p = problem(n);
        let [blind, dynamic, auto] = engines().map(|(_, engine)| engine.solve(&p).unwrap());
        assert_eq!(dynamic.blevel(), blind.blevel(), "dynamic_order at n={n}");
        assert_eq!(auto.blevel(), blind.blevel(), "auto at n={n}");
        let nodes = |s: &softsoa_core::solve::Solution<WeightedInt>| s.stats().unwrap().nodes;
        let tree = auto.stats().unwrap().tree.as_ref().map_or_else(
            || "search".to_string(),
            |t| format!("tree width {}, {} cells", t.induced_width, t.table_cells),
        );
        println!(
            "measured: n={n:2} ({:2} vars)  blevel {}  blind {:>6} nodes  dynamic {:>6} nodes  auto {tree}",
            compiled_vars(&p),
            blind.blevel(),
            nodes(&blind),
            nodes(&dynamic),
        );
    }
}

fn bench(c: &mut Criterion) {
    report_row();
    let mut group = c.benchmark_group("auto_vs_blind");
    for n in SIZES {
        let p = problem(n);
        let vars = compiled_vars(&p);
        for (name, engine) in engines() {
            group.bench_with_input(BenchmarkId::new(name, vars), &p, |b, p| {
                b.iter(|| engine.solve(black_box(p)).unwrap())
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
