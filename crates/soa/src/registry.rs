//! The service registry (the paper's UDDI stand-in).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::Arc;

use crate::QosDocument;

/// A unique service identifier.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceId(Arc<str>);

impl ServiceId {
    /// Creates a service id.
    pub fn new(id: impl AsRef<str>) -> ServiceId {
        ServiceId(Arc::from(id.as_ref()))
    }

    /// The id as a string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ServiceId {
    fn from(id: &str) -> ServiceId {
        ServiceId::new(id)
    }
}

/// A provider (the organisation offering services).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProviderId(Arc<str>);

impl ProviderId {
    /// Creates a provider id.
    pub fn new(id: impl AsRef<str>) -> ProviderId {
        ProviderId(Arc::from(id.as_ref()))
    }

    /// The id as a string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ProviderId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ProviderId {
    fn from(id: &str) -> ProviderId {
        ProviderId::new(id)
    }
}

/// A published service: identity, provider, advertised capability and
/// the QoS document describing its non-functional behaviour.
///
/// "Service descriptions are used to advertise the service
/// capabilities, interface, behaviour, and quality" (Sec. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDescription {
    /// The service identity.
    pub id: ServiceId,
    /// The organisation providing the service.
    pub provider: ProviderId,
    /// The advertised capability (discovery key).
    pub capability: String,
    /// The non-functional offer.
    pub qos: QosDocument,
    /// Declared concurrent-binding capacity: how many clients this
    /// service can serve at once. `None` means unlimited (the paper's
    /// original single-client model); contended allocation treats it
    /// as slot count.
    pub capacity: Option<u32>,
}

impl ServiceDescription {
    /// Creates a description with unlimited capacity.
    pub fn new(
        id: impl Into<ServiceId>,
        provider: impl AsRef<str>,
        capability: impl Into<String>,
        qos: QosDocument,
    ) -> ServiceDescription {
        ServiceDescription {
            id: id.into(),
            provider: ProviderId::new(provider),
            capability: capability.into(),
            qos,
            capacity: None,
        }
    }

    /// Declares a concurrent-binding capacity (slot count).
    pub fn with_capacity(mut self, slots: u32) -> ServiceDescription {
        self.capacity = Some(slots);
        self
    }
}

/// Entry shards and capability-index shards per registry. A write
/// copies one entry shard and at most two index shards; a clone copies
/// `2 * SHARDS` pointers.
const SHARDS: usize = 64;

/// One capability-index shard: capability → the ids advertising it,
/// each set shared until a write changes it.
type IndexShard = BTreeMap<Arc<str>, Arc<BTreeSet<ServiceId>>>;

/// The shard a key (service id or capability) lives in.
fn shard_of(key: &str) -> usize {
    (BuildHasherDefault::<DefaultHasher>::default().hash_one(key) % SHARDS as u64) as usize
}

/// The registry where providers publish services and the broker
/// discovers them (step 2 of the negotiation protocol).
///
/// Storage is a fixed set of copy-on-write shards: descriptions are
/// sharded by a hash of their id (a shard is a hash table, so copying
/// one is one allocation), and a capability index (capability →
/// the ids advertising it) by a hash of the capability. Cloning copies
/// only the shard pointers; a publish or deregister on a clone copies
/// the one entry shard and the one or two index shards it touches, so
/// every other shard stays shared with the original. An index shard's
/// keys and id sets are shared too: copying one copies pointers, and a
/// write copies only the one id set it changes. Discovery reads one
/// index shard instead of scanning every service.
///
/// # Examples
///
/// ```
/// use softsoa_soa::{QosDocument, Registry, ServiceDescription};
///
/// let mut registry = Registry::new();
/// registry.publish(ServiceDescription::new(
///     "red-filter-1", "acme", "red-filter", QosDocument::new("red-filter-1")));
/// assert_eq!(registry.discover("red-filter").len(), 1);
/// assert!(registry.discover("blur-filter").is_empty());
/// ```
#[derive(Clone)]
pub struct Registry {
    /// `ServiceId → description`, sharded by a hash of the id.
    services: [Arc<HashMap<ServiceId, Arc<ServiceDescription>>>; SHARDS],
    /// Capability → the ids advertising it, sharded by a hash of the
    /// capability.
    capabilities: [Arc<IndexShard>; SHARDS],
}

impl Default for Registry {
    fn default() -> Registry {
        // Every slot starts on one shared empty shard; the first write
        // to a slot gives it its own.
        let services = Arc::default();
        let capabilities = Arc::default();
        Registry {
            services: std::array::from_fn(|_| Arc::clone(&services)),
            capabilities: std::array::from_fn(|_| Arc::clone(&capabilities)),
        }
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("services", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Publishes (or republishes) a service, returning any previous
    /// description under the same id (shared, not copied: a clone of
    /// the registry may still hold it).
    pub fn publish(&mut self, description: ServiceDescription) -> Option<Arc<ServiceDescription>> {
        let id = description.id.clone();
        let shard = shard_of(id.as_str());
        let reindex = self.services[shard]
            .get(&id)
            .map_or(true, |old| old.capability != description.capability);
        if reindex {
            let capability = description.capability.as_str();
            let index = Arc::make_mut(&mut self.capabilities[shard_of(capability)]);
            match index.get_mut(capability) {
                Some(ids) => {
                    Arc::make_mut(ids).insert(id.clone());
                }
                None => {
                    let mut ids = BTreeSet::new();
                    ids.insert(id.clone());
                    index.insert(capability.into(), Arc::new(ids));
                }
            }
        }
        let previous =
            Arc::make_mut(&mut self.services[shard]).insert(id, Arc::new(description))?;
        if reindex {
            self.unindex(&previous);
        }
        Some(previous)
    }

    /// Removes a service from the registry, returning its description.
    pub fn deregister(&mut self, id: &ServiceId) -> Option<Arc<ServiceDescription>> {
        let shard = &mut self.services[shard_of(id.as_str())];
        if !shard.contains_key(id) {
            // Leave the shard shared: there is nothing to copy it for.
            return None;
        }
        let previous = Arc::make_mut(shard).remove(id)?;
        self.unindex(&previous);
        Some(previous)
    }

    /// Drops a description's id from its capability's index entry.
    fn unindex(&mut self, description: &ServiceDescription) {
        let capability = description.capability.as_str();
        let index = Arc::make_mut(&mut self.capabilities[shard_of(capability)]);
        if let Some(ids) = index.get_mut(capability) {
            if ids.len() == 1 && ids.contains(&description.id) {
                index.remove(capability);
            } else {
                Arc::make_mut(ids).remove(&description.id);
            }
        }
    }

    /// Looks up a service by id.
    pub fn get(&self, id: &ServiceId) -> Option<&ServiceDescription> {
        self.services[shard_of(id.as_str())]
            .get(id)
            .map(Arc::as_ref)
    }

    /// All services advertising the given capability, in id order.
    pub fn discover(&self, capability: &str) -> Vec<&ServiceDescription> {
        self.capabilities[shard_of(capability)]
            .get(capability)
            .into_iter()
            .flat_map(|ids| ids.iter())
            .filter_map(|id| self.get(id))
            .collect()
    }

    /// Iterates over all published services in id order.
    pub fn iter(&self) -> impl Iterator<Item = &ServiceDescription> {
        let mut all: Vec<&ServiceDescription> = self
            .services
            .iter()
            .flat_map(|shard| shard.values().map(Arc::as_ref))
            .collect();
        all.sort_unstable_by(|a, b| a.id.cmp(&b.id));
        all.into_iter()
    }

    /// The number of published services.
    pub fn len(&self) -> usize {
        self.services.iter().map(|shard| shard.len()).sum()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.services.iter().all(|shard| shard.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(id: &str, capability: &str) -> ServiceDescription {
        ServiceDescription::new(id, "prov", capability, QosDocument::new(id))
    }

    #[test]
    fn publish_and_discover() {
        let mut r = Registry::new();
        r.publish(desc("a", "filter"));
        r.publish(desc("b", "filter"));
        r.publish(desc("c", "storage"));
        assert_eq!(r.len(), 3);
        let filters = r.discover("filter");
        assert_eq!(filters.len(), 2);
        assert_eq!(filters[0].id, ServiceId::new("a"));
    }

    #[test]
    fn republish_replaces() {
        let mut r = Registry::new();
        assert!(r.publish(desc("a", "filter")).is_none());
        let old = r.publish(desc("a", "storage")).unwrap();
        assert_eq!(old.capability, "filter");
        assert_eq!(r.len(), 1);
        assert!(r.discover("filter").is_empty());
    }

    #[test]
    fn deregister() {
        let mut r = Registry::new();
        r.publish(desc("a", "filter"));
        assert!(r.deregister(&ServiceId::new("a")).is_some());
        assert!(r.is_empty());
        assert!(r.deregister(&ServiceId::new("a")).is_none());
    }

    /// How many slots two shard arrays share by pointer.
    fn shared<T>(a: &[Arc<T>], b: &[Arc<T>]) -> usize {
        a.iter().zip(b).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    #[test]
    fn a_write_on_a_clone_copies_only_the_shards_it_touches() {
        let mut original = Registry::new();
        for i in 0..512 {
            original.publish(desc(&format!("svc-{i}"), &format!("cap-{}", i % 97)));
        }
        let mut clone = original.clone();
        // A republish that changes capability: one entry shard, and the
        // index shards of the old and the new capability.
        clone.publish(desc("svc-7", "cap-new"));
        assert_eq!(shared(&original.services, &clone.services), SHARDS - 1);
        assert!(shared(&original.capabilities, &clone.capabilities) >= SHARDS - 2);
        // The original still answers as before the write.
        assert_eq!(
            original.get(&ServiceId::new("svc-7")).unwrap().capability,
            "cap-7"
        );
        assert_eq!(clone.discover("cap-new").len(), 1);
    }

    #[test]
    fn capacity_defaults_to_unlimited() {
        let d = desc("a", "filter");
        assert_eq!(d.capacity, None);
        assert_eq!(d.with_capacity(3).capacity, Some(3));
    }

    #[test]
    fn ids_display() {
        assert_eq!(ServiceId::new("svc-1").to_string(), "svc-1");
        assert_eq!(ProviderId::new("acme").to_string(), "acme");
    }
}
