//! Property tests for the copy-on-write sharded [`Registry`].
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
//! shards and the capability index's shared id sets — a write must
//! copy a shard or an id set that a live clone still shares, never
//! mutate it in place.

use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;
use softsoa_soa::{QosDocument, Registry, ServiceDescription, ServiceId};

/// Ids drawn from a small pool, so republishes are frequent.
const IDS: usize = 48;
/// Capabilities drawn from a small pool, so republishes often change
/// capability and capabilities gain and lose several providers.
const CAPABILITIES: usize = 8;

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

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..IDS, 0..CAPABILITIES, any::<u8>())
            .prop_map(|(id, capability, tag)| Op::Publish { id, capability, tag }),
        3 => (0..IDS).prop_map(Op::Deregister),
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
fn check(registry: &Registry, model: &Model) {
    let all: Vec<&ServiceDescription> = model.values().collect();
    assert_eq!(registry.iter().collect::<Vec<_>>(), all, "iter");
    assert_eq!(registry.len(), model.len(), "len");
    assert_eq!(registry.is_empty(), model.is_empty(), "is_empty");
    for i in 0..IDS {
        let id = service_id(i);
        assert_eq!(registry.get(&id), model.get(&id), "get {id}");
    }
    // One capability past the pool is never published.
    for c in 0..=CAPABILITIES {
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

fn replay(script: &[Op]) {
    let mut registry = Registry::new();
    let mut model = Model::new();
    let mut frozen: Vec<(Registry, Model)> = Vec::new();
    for op in script {
        let before = (registry.clone(), model.clone());
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
                    std::mem::swap(&mut registry, &mut clone);
                }
                frozen.push((clone, model.clone()));
            }
        }
        check(&registry, &model);
        check(&before.0, &before.1);
        for (clone, at) in &frozen {
            check(clone, at);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn registry_matches_a_btreemap_model(script in vec(op_strategy(), 1..96)) {
        replay(&script);
    }
}

#[test]
fn republish_with_a_new_capability_moves_the_service() {
    replay(&[
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
    ]);
}
