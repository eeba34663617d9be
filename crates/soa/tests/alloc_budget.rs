//! Allocation budget of the daemon's request path.
//!
//! A thread-local counting allocator counts the heap allocations
//! (`alloc`, `alloc_zeroed` and `realloc` calls) of one call on the
//! calling thread only, so tests running in parallel do not pollute
//! each other's counts. Each call runs once to warm lazily initialised
//! state, then once counted; the counts repeat exactly run to run.
//!
//! The budgets are this code's counts. A change that allocates more on
//! one of these paths fails here; one that allocates less should lower
//! the budget. EXPERIMENTS.md (E32) records the counts before the
//! allocation-lean negotiation path beside them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use softsoa_core::Domain;
use softsoa_dependability::Attribute;
use softsoa_nmsccp::Interval;
use softsoa_semiring::{Fuzzy, Unit};
use softsoa_soa::server::protocol::WireSemiring;
use softsoa_soa::{
    Broker, ChaosConfig, NegotiationRequest, OfferShape, QosDocument, QosOffer, Registry,
    ServerConfig, ServiceDescription, ServiceId,
};

/// One store-chaos negotiation (321 before the allocation-lean path).
const CHAOS_NEGOTIATION: u64 = 125;
/// One plain one-provider negotiation (101 before).
const PLAIN_NEGOTIATION: u64 = 43;
/// One publish plus one deregister, the description clone included
/// (184 before).
const REGISTRY_WRITE: u64 = 33;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread, after one uncounted call.
fn allocations(mut f: impl FnMut()) -> u64 {
    f();
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn offer(slope: f64, intercept: f64) -> QosOffer {
    QosOffer {
        attribute: Attribute::Reliability,
        variable: "x".into(),
        shape: OfferShape::Linear { slope, intercept },
    }
}

fn service(id: &str, capability: &str, offer: QosOffer) -> ServiceDescription {
    ServiceDescription::new(
        id,
        "provider",
        capability,
        QosDocument::new(id).with_offer(offer),
    )
}

fn request(capability: &str, max: i64) -> NegotiationRequest<Fuzzy> {
    NegotiationRequest {
        capability: capability.into(),
        variable: "x".into(),
        domain: Domain::ints(0..=max),
        constraint: Fuzzy::shape_constraint(
            "x",
            OfferShape::Linear {
                slope: -0.01,
                intercept: 0.9,
            },
        ),
        acceptance: Interval::levels(Unit::clamped(0.2), Unit::clamped(1.0)),
    }
}

/// One store-chaos negotiation shaped like a `churn_chaos` session:
/// one provider that agrees and one below every threshold, domain
/// `[0, 15]`, chaos seed 41 at rate 0.3, the daemon's step deadline.
#[test]
fn chaos_negotiation_budget() {
    let mut registry = Registry::new();
    registry.publish(service("svc-a", "cap", offer(0.03, 0.5)));
    registry.publish(service("svc-b", "cap", offer(0.001, 0.03)));
    let broker = Broker::new(Fuzzy, registry);
    let request = request("cap", 15);
    let chaos = ChaosConfig {
        seed: 41,
        fault_rate: 0.3,
        session_deadline: Some(ServerConfig::default().negotiation_deadline_steps),
        ..ChaosConfig::default()
    };
    let negotiate = || {
        broker
            .negotiate_resilient(&request, &[], &chaos, Fuzzy::translate)
            .expect("a provider is discovered")
    };
    let report = negotiate();
    assert_eq!(report.sessions.len(), 2);
    assert!(report.faults_injected > 0, "the fixture injects faults");
    let count = allocations(|| drop(negotiate()));
    println!("chaos negotiation: {count} allocations");
    assert!(count <= CHAOS_NEGOTIATION, "{count} > {CHAOS_NEGOTIATION}");
}

/// One plain negotiation with one provider over `[0, 6]`, shaped like
/// a `wire_light` session.
#[test]
fn plain_negotiation_budget() {
    let mut registry = Registry::new();
    registry.publish(service("svc-a", "compute", offer(0.03, 0.5)));
    let broker = Broker::new(Fuzzy, registry);
    let request = request("compute", 6);
    let negotiate = || {
        broker
            .negotiate(&request, Fuzzy::translate)
            .expect("the provider agrees")
    };
    assert!(negotiate().binding.is_some());
    let count = allocations(|| drop(negotiate()));
    println!("plain negotiation: {count} allocations");
    assert!(count <= PLAIN_NEGOTIATION, "{count} > {PLAIN_NEGOTIATION}");
}

/// One publish and one deregister through `registry_mut` on a
/// 4,096-service registry (2,048 capabilities with two services each),
/// the registry writes of a `churn_chaos` session.
#[test]
fn registry_write_budget() {
    let mut registry = Registry::new();
    for c in 0..2048 {
        for k in 0..2 {
            let id = format!("svc-{c:04}-{k}");
            registry.publish(service(&id, &format!("cap-{c:04}"), offer(0.03, 0.5)));
        }
    }
    let mut broker = Broker::new(Fuzzy, registry);
    let churn = service("churn-000", "cap-0042", offer(0.02, 0.6));
    let id = ServiceId::new("churn-000");
    let mut write = || {
        broker.registry_mut().publish(churn.clone());
        let removed = broker.registry_mut().deregister(&id);
        assert!(removed.is_some());
    };
    let count = allocations(&mut write);
    assert_eq!(broker.registry().len(), 4096);
    println!("registry publish + deregister: {count} allocations");
    assert!(count <= REGISTRY_WRITE, "{count} > {REGISTRY_WRITE}");
}
