//! Property tests for the copy-on-write [`Registry`].
//!
//! Random publish / republish / deregister scripts are replayed against
//! the registry and against a plain `BTreeMap<ServiceId,
//! ServiceDescription>` model. After every step, `discover` (in id
//! order), `get`, `iter` (in id order), `len` and `is_empty` must agree
//! with the model, and so must every clone taken earlier in the script:
//! a clone keeps answering as the model did when it was taken, however
//! many writes land on the other side afterwards. A clone is also
//! taken before every step, and after the step it must still answer
//! as the model did before it. Those checks guard the copy-on-write
//! tables — a write must copy a node, a leaf or a capability's slice
//! that a live clone still shares, never mutate it in place.
//!
//! Two pools: a small one, where republishes are frequent and most
//! leaves hold at most one entry, and a wide one, prefilled with
//! hundreds of services, where writes insert into and remove from
//! leaves of several entries and each capability's slice holds dozens.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;
use softsoa_soa::{QosDocument, Registry, ServiceDescription, ServiceId};

/// The ids and capabilities a script draws from.
#[derive(Debug, Clone, Copy)]
struct Pool {
    ids: usize,
    capabilities: usize,
}

/// Few ids, so republishes are frequent, and few capabilities, so
/// republishes often change capability and capabilities gain and lose
/// several providers.
const SMALL: Pool = Pool {
    ids: 48,
    capabilities: 8,
};

/// Enough ids that the registry's 256 leaves per table hold several
/// entries each, and few enough capabilities that each holds dozens of
/// services.
const WIDE: Pool = Pool {
    ids: 1024,
    capabilities: 16,
};

type Model = BTreeMap<ServiceId, ServiceDescription>;

#[derive(Debug, Clone)]
enum Op {
    /// Publish (or republish) service `id` under `capability`; `tag`
    /// varies the provider and capacity so a republish is observable.
    Publish {
        id: usize,
        capability: usize,
        tag: u8,
    },
    /// Deregister service `id` (a no-op when it is not published).
    Deregister(usize),
    /// Freeze a clone at this step. With `true` the script carries on
    /// writing to the clone and freezes the original instead.
    Fork(bool),
}

fn write_strategy(pool: Pool) -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..pool.ids, 0..pool.capabilities, any::<u8>())
            .prop_map(|(id, capability, tag)| Op::Publish { id, capability, tag }),
        3 => (0..pool.ids).prop_map(Op::Deregister),
    ]
}

fn op_strategy(pool: Pool) -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => write_strategy(pool),
        1 => any::<bool>().prop_map(Op::Fork),
    ]
}

fn service_id(i: usize) -> ServiceId {
    ServiceId::new(format!("svc-{i:02}"))
}

fn capability(i: usize) -> String {
    format!("cap-{i}")
}

fn description(id: usize, capability_index: usize, tag: u8) -> ServiceDescription {
    let id = service_id(id);
    let qos = QosDocument::new(id.as_str());
    ServiceDescription::new(
        id,
        format!("prov-{}", tag % 4),
        capability(capability_index),
        qos,
    )
    .with_capacity(u32::from(tag))
}

/// Every query of the registry agrees with the model.
fn check(pool: Pool, registry: &Registry, model: &Model) {
    let all: Vec<&ServiceDescription> = model.values().collect();
    assert_eq!(registry.iter().collect::<Vec<_>>(), all, "iter");
    assert_eq!(registry.len(), model.len(), "len");
    assert_eq!(registry.is_empty(), model.is_empty(), "is_empty");
    for i in 0..pool.ids {
        let id = service_id(i);
        assert_eq!(registry.get(&id), model.get(&id), "get {id}");
    }
    // One capability past the pool is never published.
    for c in 0..=pool.capabilities {
        let capability = capability(c);
        let providers: Vec<&ServiceDescription> = model
            .values()
            .filter(|s| s.capability == capability)
            .collect();
        assert_eq!(
            registry.discover(&capability),
            providers,
            "discover {capability}"
        );
    }
}

/// Replays `script` and checks the registry, the clone taken before
/// each step and every frozen clone against the model after each step.
fn replay(pool: Pool, script: &[Op]) {
    replay_from(pool, Registry::new(), Model::new(), script);
}

/// Applies `prefill` (checking what each write returns), checks the
/// result once, then replays `script` with every check.
fn replay_prefilled(pool: Pool, prefill: &[Op], script: &[Op]) {
    let mut registry = Registry::new();
    let mut model = Model::new();
    for op in prefill {
        apply(op, &mut registry, &mut model, &mut Vec::new());
    }
    check(pool, &registry, &model);
    replay_from(pool, registry, model, script);
}

fn replay_from(pool: Pool, mut registry: Registry, mut model: Model, script: &[Op]) {
    let mut frozen: Vec<(Registry, Model)> = Vec::new();
    for op in script {
        let before = (registry.clone(), model.clone());
        apply(op, &mut registry, &mut model, &mut frozen);
        check(pool, &registry, &model);
        check(pool, &before.0, &before.1);
        for (clone, at) in &frozen {
            check(pool, clone, at);
        }
    }
}

/// Applies one step to the registry and the model, checking what a
/// write returns; a fork freezes a clone into `frozen`.
fn apply(op: &Op, registry: &mut Registry, model: &mut Model, frozen: &mut Vec<(Registry, Model)>) {
    match *op {
        Op::Publish {
            id,
            capability,
            tag,
        } => {
            let description = description(id, capability, tag);
            let expected = model.insert(description.id.clone(), description.clone());
            assert_eq!(
                registry.publish(description).as_deref(),
                expected.as_ref(),
                "publish returns"
            );
        }
        Op::Deregister(id) => {
            let id = service_id(id);
            assert_eq!(
                registry.deregister(&id).as_deref(),
                model.remove(&id).as_ref(),
                "deregister returns"
            );
        }
        Op::Fork(swap) => {
            let mut clone = registry.clone();
            if swap {
                std::mem::swap(registry, &mut clone);
            }
            frozen.push((clone, model.clone()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn registry_matches_a_btreemap_model(script in vec(op_strategy(SMALL), 1..96)) {
        replay(SMALL, &script);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn full_leaves_and_long_capability_slices_match_the_model(
        prefill in vec(write_strategy(WIDE), 512..2048),
        script in vec(op_strategy(WIDE), 1..48),
    ) {
        replay_prefilled(WIDE, &prefill, &script);
    }
}

#[test]
fn republish_with_a_new_capability_moves_the_service() {
    replay(
        SMALL,
        &[
            Op::Publish {
                id: 1,
                capability: 0,
                tag: 0,
            },
            Op::Publish {
                id: 2,
                capability: 0,
                tag: 0,
            },
            Op::Fork(false),
            Op::Publish {
                id: 1,
                capability: 3,
                tag: 9,
            },
            Op::Fork(true),
            Op::Deregister(2),
            Op::Publish {
                id: 2,
                capability: 3,
                tag: 1,
            },
            Op::Deregister(1),
            Op::Deregister(1),
        ],
    );
}
