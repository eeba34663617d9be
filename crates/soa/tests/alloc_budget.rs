//! Allocation budget of the daemon's request path.
//!
//! A thread-local counting allocator counts the heap allocations
//! (`alloc`, `alloc_zeroed` and `realloc` calls) of one call, and the
//! bytes live on the heap, on the calling thread only, so tests running
//! in parallel do not pollute each other's counts. Each call runs once
//! to warm lazily initialised state, then once counted; the counts
//! repeat exactly run to run.
//!
//! The budgets are this code's counts. A change that allocates more on
//! one of these paths fails here; one that allocates less should lower
//! the budget (the wire codec's rows and the registry's bytes row are
//! exact). EXPERIMENTS.md (E32, E33, E35) records the earlier counts
//! beside them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use softsoa_core::Domain;
use softsoa_dependability::Attribute;
use softsoa_nmsccp::Interval;
use softsoa_semiring::{Fuzzy, Unit};
use softsoa_soa::server::protocol::{
    NegotiateRequest, PublishRequest, Reply, Request, WireSemiring,
};
use softsoa_soa::{
    Broker, ChaosConfig, NegotiationRequest, OfferShape, QosDocument, QosOffer, Registry,
    ServerConfig, ServiceDescription, ServiceId,
};

/// One store-chaos negotiation (321 before the allocation-lean path,
/// 125 before constants shared one empty scope).
const CHAOS_NEGOTIATION: u64 = 122;
/// One plain one-provider negotiation (101, then 43).
const PLAIN_NEGOTIATION: u64 = 41;
/// One publish plus one deregister (184, then 33 while the removed
/// description was deep-copied, then 29 on sharded hash and B-tree
/// maps).
const REGISTRY_WRITE: u64 = 25;
/// The heap bytes a 4,096-service `churn_chaos` registry holds beyond
/// its descriptions (820,392 on sharded hash and B-tree maps).
const REGISTRY_STRUCTURE_BYTES: i64 = 152_352;
/// `Request::parse` of a negotiate frame (23 through a `Value` tree).
const REQUEST_PARSE: u64 = 2;
/// `Request::parse` of a `churn_chaos` publish frame: the request's
/// three strings and the offer's variable.
const PUBLISH_PARSE: u64 = 4;
/// `Reply::to_json` (and `Reply::to_frame`) of a `degraded` reply
/// (21 through a `Value` tree).
const REPLY_RENDER: u64 = 1;
/// `Reply::parse` of a `bound` frame (13 through a `Value` tree).
const REPLY_PARSE: u64 = 2;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts an allocation call that changes the live bytes by `bytes`.
fn bump(bytes: i64) {
    // `try_with`: the allocator also runs while thread locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|n| n.set(n.get() - layout.size() as i64));
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

/// What `f` returns, and the heap bytes it leaves live on this thread.
fn held<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE_BYTES.with(Cell::get);
    let value = f();
    (value, LIVE_BYTES.with(Cell::get) - before)
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

/// The `(capability, service)` indices of a `churn_chaos` registry:
/// 2,048 capabilities with two services each.
fn churn_chaos_slots() -> impl Iterator<Item = (usize, usize)> {
    (0..2048).flat_map(|c| (0..2).map(move |k| (c, k)))
}

fn churn_chaos_service((c, k): (usize, usize)) -> ServiceDescription {
    let id = format!("svc-{c:04}-{k}");
    service(&id, &format!("cap-{c:04}"), offer(0.03, 0.5))
}

fn churn_chaos_registry() -> Registry {
    let mut registry = Registry::new();
    for slot in churn_chaos_slots() {
        registry.publish(churn_chaos_service(slot));
    }
    registry
}

/// The heap bytes the 4,096-service `churn_chaos` registry holds beyond
/// its descriptions: its two tables and the capability slices.
#[test]
fn registry_structure_bytes() {
    drop(churn_chaos_registry());
    // Each description as the registry holds it, behind an `Arc`.
    let descriptions: i64 = churn_chaos_slots()
        .map(|slot| held(|| Arc::new(churn_chaos_service(slot))).1)
        .sum();
    let (registry, total) = held(churn_chaos_registry);
    assert_eq!(registry.len(), 4096);
    let structure = total - descriptions;
    println!("registry: {total} bytes, {descriptions} of them descriptions");
    assert_eq!(structure, REGISTRY_STRUCTURE_BYTES);
}

/// One publish and one deregister through `registry_mut` on a
/// 4,096-service registry (2,048 capabilities with two services each),
/// the registry writes of a `churn_chaos` session.
#[test]
fn registry_write_budget() {
    let mut broker = Broker::new(Fuzzy, churn_chaos_registry());
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

/// A negotiate request frame shaped like a `wire_light` request.
fn negotiate_frame() -> String {
    Request::Negotiate(NegotiateRequest {
        capability: "compute".into(),
        variable: "x".into(),
        domain: [0, 6],
        policy: OfferShape::Linear {
            slope: -0.0125,
            intercept: 0.875,
        },
        accept: [0.25, 1.0],
        client: None,
    })
    .to_json()
}

/// Parsing a negotiate frame allocates only the two strings the request
/// keeps.
#[test]
fn request_parse_budget() {
    let frame = negotiate_frame();
    let count = allocations(|| drop(Request::parse(&frame).expect("a well-formed request")));
    println!("negotiate request parse: {count} allocations");
    assert_eq!(count, REQUEST_PARSE);
}

/// Parsing a publish frame shaped like a `churn_chaos` churn publish
/// allocates only the strings the request keeps.
#[test]
fn publish_parse_budget() {
    let frame = Request::Publish(PublishRequest {
        service: "churn-042".into(),
        provider: "perfbench".into(),
        capability: "cap-0042".into(),
        offer: offer(0.0437, 0.512),
        capacity: None,
    })
    .to_json();
    let count = allocations(|| drop(Request::parse(&frame).expect("a well-formed request")));
    println!("publish request parse: {count} allocations");
    assert_eq!(count, PUBLISH_PARSE);
}

/// Rendering a `degraded` reply writes into one pre-sized buffer.
#[test]
fn reply_render_budget() {
    let reply = Reply::Degraded {
        service: "svc-0042-1".into(),
        provider: "provider".into(),
        level: 0.6699999999999999,
        binding: Some(15),
        epoch: 18_446_744_073_709_551_615,
        retries: 3,
        relaxations: 1,
    };
    let count = allocations(|| drop(reply.to_json()));
    println!("degraded reply render: {count} allocations");
    assert_eq!(count, REPLY_RENDER);
    assert_eq!(allocations(|| drop(reply.to_frame())), REPLY_RENDER);
}

/// Parsing a `bound` reply allocates only its two strings.
#[test]
fn reply_parse_budget() {
    let frame = Reply::Bound {
        service: "svc-a".into(),
        provider: "provider".into(),
        level: 0.78,
        binding: Some(4),
        epoch: 0,
    }
    .to_json();
    let count = allocations(|| drop(Reply::parse(&frame).expect("a well-formed reply")));
    println!("bound reply parse: {count} allocations");
    assert_eq!(count, REPLY_PARSE);
}
