//! E2 — Fig. 5: the fuzzy SLA agreement, solved directly and through
//! the broker, swept over the resolution of the resource axis.
//!
//! The paper's picture fixes the agreement at the intersection of the
//! client's and provider's preference curves: level 0.5. The measured
//! series reports solve time against grid resolution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use softsoa_bench::fig5_problem;
use softsoa_core::{Constraint, Domain, Var};
use softsoa_dependability::Attribute;
use softsoa_nmsccp::Interval;
use softsoa_semiring::{Fuzzy, Unit};
use softsoa_soa::{
    Broker, NegotiationRequest, OfferShape, QosDocument, QosOffer, Registry, ServiceDescription,
    WireSemiring,
};
use std::hint::black_box;

fn report_row() {
    let blevel = fig5_problem(8).blevel().expect("solves");
    println!("--- E2 / Fig. 5 (paper: agreement level 0.5) ---");
    println!("measured: blevel = {blevel}");
    assert_eq!(blevel, Unit::new(0.5).unwrap());
}

fn broker_setup() -> (Broker<Fuzzy>, NegotiationRequest<Fuzzy>) {
    let mut registry = Registry::new();
    registry.publish(ServiceDescription::new(
        "svc",
        "provider",
        "web-service",
        QosDocument::new("svc").with_offer(QosOffer {
            attribute: Attribute::Reliability,
            variable: "x".into(),
            shape: OfferShape::Piecewise {
                points: vec![(1, 1.0), (9, 0.0)],
            },
        }),
    ));
    let request = NegotiationRequest {
        capability: "web-service".into(),
        variable: Var::new("x"),
        domain: Domain::ints(1..=9),
        constraint: Constraint::unary(Fuzzy, "x", |v| {
            Unit::clamped((v.as_int().unwrap() as f64 - 1.0) / 8.0)
        }),
        acceptance: Interval::any(&Fuzzy),
    };
    (Broker::new(Fuzzy, registry), request)
}

fn bench(c: &mut Criterion) {
    report_row();

    let mut group = c.benchmark_group("fig5");
    // Direct SCSP solve, sweeping the grid resolution.
    for steps in [2i64, 4, 8] {
        let p = fig5_problem(steps);
        group.bench_with_input(BenchmarkId::new("solve", steps + 1), &p, |b, p| {
            b.iter(|| black_box(p).blevel().unwrap())
        });
    }
    // The full broker path: discovery, nmsccp session, binding.
    let (broker, request) = broker_setup();
    group.bench_function("broker_negotiate", |b| {
        b.iter(|| {
            broker
                .negotiate(black_box(&request), Fuzzy::translate)
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
