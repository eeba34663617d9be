//! E15 — coalition formation at scale: the restricted-growth-string
//! Bell-number enumeration vs the `O(3ⁿ)` subset DP.
//!
//! Both engines return the same optimal score (equivalence-tested in
//! `softsoa-coalition`); the series shows the DP pulling away as `n`
//! grows — `B(13) ≈ 27.6` million partitions against `3¹³ ≈ 1.6`
//! million DP transitions — and reaching `n = 16..18` where the
//! enumeration is out of the question.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use softsoa_coalition::{
    exact_formation, exact_formation_enumerated, FormationConfig, TrustComposition, TrustNetwork,
};
use softsoa_core::solve::Parallelism;
use std::hint::black_box;

fn config() -> FormationConfig {
    FormationConfig {
        compose: TrustComposition::Average,
        require_stability: false,
        max_coalitions: None,
    }
}

fn bench(c: &mut Criterion) {
    println!("--- E15 / Bell enumeration vs subset DP (shape: DP ≥ 5× faster at n = 13) ---");
    let mut group = c.benchmark_group("bell_vs_dp");
    for n in [10u32, 12, 13] {
        let net = TrustNetwork::clustered(n, 3, 0.85, 0.15, u64::from(n));
        group.bench_with_input(BenchmarkId::new("bell_enumeration", n), &net, |b, net| {
            b.iter(|| {
                exact_formation_enumerated(black_box(net), config(), Parallelism::Sequential)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("subset_dp", n), &net, |b, net| {
            b.iter(|| exact_formation(black_box(net), config()).unwrap())
        });
    }
    // Beyond the Bell ceiling: the DP alone, up to the new n = 18
    // exact-formation limit (3¹⁸ ≈ 193 million transitions).
    for n in [14u32, 16] {
        let net = TrustNetwork::clustered(n, 3, 0.85, 0.15, u64::from(n));
        group.bench_with_input(BenchmarkId::new("subset_dp", n), &net, |b, net| {
            b.iter(|| exact_formation(black_box(net), config()).unwrap())
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
