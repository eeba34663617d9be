//! E35 — the service registry's operations on the 4,096-service
//! registry of a `churn_chaos` daemon (2,048 capabilities with two
//! services each):
//!
//! - `publish_deregister`: one publish and one deregister, each through
//!   `Broker::registry_mut`, so each stages a clone of the published
//!   registry and publishes it at a new epoch — the registry writes of a
//!   churn session;
//! - `discover`: the providers of one two-provider capability;
//! - `build`: publishing all 4,096 services into an empty registry
//!   (each publish clones a prebuilt description).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use softsoa_dependability::Attribute;
use softsoa_semiring::Fuzzy;
use softsoa_soa::{
    Broker, OfferShape, QosDocument, QosOffer, Registry, ServiceDescription, ServiceId,
};
use std::hint::black_box;

const SERVICES: usize = 4096;

fn service(id: &str, capability: &str, slope: f64) -> ServiceDescription {
    let offer = QosOffer {
        attribute: Attribute::Reliability,
        variable: "x".into(),
        shape: OfferShape::Linear {
            slope,
            intercept: 0.5,
        },
    };
    ServiceDescription::new(
        id,
        "provider",
        capability,
        QosDocument::new(id).with_offer(offer),
    )
}

fn bench(c: &mut Criterion) {
    let descriptions: Vec<ServiceDescription> = (0..SERVICES / 2)
        .flat_map(|c| {
            (0..2).map(move |k| service(&format!("svc-{c:04}-{k}"), &format!("cap-{c:04}"), 0.03))
        })
        .collect();
    let build = || {
        let mut registry = Registry::new();
        for description in &descriptions {
            registry.publish(description.clone());
        }
        registry
    };
    let registry = build();
    assert_eq!(registry.len(), SERVICES);
    assert_eq!(registry.discover("cap-0042").len(), 2);

    let mut group = c.benchmark_group("registry_ops");
    let mut broker = Broker::new(Fuzzy, registry.clone());
    let churn = service("churn-000", "cap-0042", 0.02);
    let id = ServiceId::new("churn-000");
    group.bench_function(BenchmarkId::new("publish_deregister", SERVICES), |b| {
        b.iter(|| {
            broker.registry_mut().publish(black_box(&churn).clone());
            broker.registry_mut().deregister(black_box(&id))
        })
    });
    group.bench_function(BenchmarkId::new("discover", 2), |b| {
        b.iter(|| black_box(&registry).discover(black_box("cap-0042")).len())
    });
    group.bench_function(BenchmarkId::new("build", SERVICES), |b| b.iter(build));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
