//! The service registry (the paper's UDDI stand-in).

use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::sync::{Arc, OnceLock};

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

/// Middle nodes per table, and leaves per middle node: a table has
/// `FAN * FAN` leaves.
const FAN: usize = 16;

/// The leaf a key (service id or capability) lives in, as a
/// `(middle node, leaf)` path. The hash is keyed once per process at
/// random: ids and capabilities come from clients, and a fixed hash
/// would let them pile every service into one leaf.
fn leaf_of(key: &str) -> (usize, usize) {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    let hash = KEYS.get_or_init(RandomState::new).hash_one(key) as usize;
    (hash % FAN, hash / FAN % FAN)
}

/// An entry of a [`Table`], found by its key.
trait Keyed: Clone {
    fn key(&self) -> &str;
}

impl Keyed for Arc<ServiceDescription> {
    fn key(&self) -> &str {
        self.id.as_str()
    }
}

/// The services advertising one capability, in id order. Never empty,
/// so its first service names the capability.
type Providers = Arc<[Arc<ServiceDescription>]>;

impl Keyed for Providers {
    fn key(&self) -> &str {
        &self[0].capability
    }
}

/// A copy-on-write hash table of two levels: a top array of `FAN`
/// middle nodes, each an array of `FAN` leaves, each leaf a slice of
/// entries sorted by key. Cloning copies one pointer. A write copies
/// the top array, the middle node and the leaf on its key's path only
/// while a clone still shares them, so every other node stays shared;
/// on a table it owns alone, it edits the leaf in place.
///
/// A middle node is made, with all its leaves, by the first write
/// under it; until then its slot is empty, so an empty table is one
/// allocation. Its leaves are separate allocations from the start, so
/// once every middle node holds an entry (a few hundred keys), the
/// table's footprint depends on what it holds, not on where the
/// per-process hash puts it.
#[derive(Clone)]
struct Table<T>(Arc<[Option<Middle<T>>; FAN]>);

type Middle<T> = Arc<[Leaf<T>; FAN]>;

/// A leaf's entries, sorted by key and sized exactly.
type Leaf<T> = Arc<Box<[T]>>;

impl<T: Keyed> Table<T> {
    fn new() -> Table<T> {
        Table(Arc::default())
    }

    /// The leaf at a `(middle node, leaf)` path.
    fn leaf(&self, (middle, leaf): (usize, usize)) -> &[T] {
        self.0[middle].as_ref().map_or(&[], |middle| &middle[leaf])
    }

    /// The path of the leaf `key` lives in, and where `key` is (`Ok`)
    /// or would go (`Err`) in that leaf.
    fn find(&self, key: &str) -> ((usize, usize), Result<usize, usize>) {
        let path = leaf_of(key);
        let at = self
            .leaf(path)
            .binary_search_by(|entry| entry.key().cmp(key));
        (path, at)
    }

    fn get(&self, key: &str) -> Option<&T> {
        let (path, at) = self.find(key);
        at.ok().map(|i| &self.leaf(path)[i])
    }

    /// Sets the entry under `key` to `f` of the current one: `Some`
    /// inserts or replaces it, `None` removes it. Returns the entry it
    /// replaced or removed. Removing an absent key copies nothing.
    fn update(&mut self, key: &str, f: impl FnOnce(Option<&T>) -> Option<T>) -> Option<T> {
        let (path, at) = self.find(key);
        let entry = f(at.ok().map(|i| &self.leaf(path)[i]));
        if at.is_err() && entry.is_none() {
            return None;
        }
        let (middle, slot) = path;
        let middle = Arc::make_mut(&mut self.0)[middle]
            .get_or_insert_with(|| Arc::new(std::array::from_fn(|_| Arc::default())));
        let leaf = &mut Arc::make_mut(middle)[slot];
        let Some(entries) = Arc::get_mut(leaf) else {
            // A clone shares the leaf: write a copy.
            let previous = at.ok().map(|i| leaf[i].clone());
            *leaf = Arc::new(splice(leaf, at, entry));
            return previous;
        };
        // Sole owner: move the entries rather than clone them.
        let mut items = std::mem::take(entries).into_vec();
        let previous = match (at, entry) {
            (Ok(i), Some(entry)) => Some(std::mem::replace(&mut items[i], entry)),
            (Ok(i), None) => Some(items.remove(i)),
            (Err(i), Some(entry)) => {
                items.reserve_exact(1);
                items.insert(i, entry);
                None
            }
            (Err(_), None) => None,
        };
        *entries = items.into_boxed_slice();
        previous
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.0
            .iter()
            .flatten()
            .flat_map(|middle| middle.iter().flat_map(|leaf| leaf.iter()))
    }
}

/// `items` with an entry spliced in at a binary search's result:
/// `Ok(i)` replaces (or, with no entry, removes) item `i`, `Err(i)`
/// inserts before it. One allocation.
fn splice<T: Clone, C: FromIterator<T>>(
    items: &[T],
    at: Result<usize, usize>,
    entry: Option<T>,
) -> C {
    let (before, after) = match at {
        Ok(i) => (&items[..i], &items[i + 1..]),
        Err(i) => items.split_at(i),
    };
    before
        .iter()
        .cloned()
        .chain(entry)
        .chain(after.iter().cloned())
        .collect()
}

/// The registry where providers publish services and the broker
/// discovers them (step 2 of the negotiation protocol).
///
/// Storage is two copy-on-write tables of one shape — a top array
/// of 16 middle nodes of 16 sorted leaves, the leaf chosen by a
/// randomly keyed hash: the descriptions by id, and a capability index
/// that holds each capability's descriptions, in id order. Cloning
/// copies two pointers. A publish or deregister on a clone copies at
/// most the top array, one middle node and one leaf in each table it
/// touches (and the capability's description slice), so everything
/// else stays shared with the original; a deregister of an absent id
/// copies nothing. Discovery is one hash, one binary search and one
/// slice read.
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
    /// The descriptions, by id.
    services: Table<Arc<ServiceDescription>>,
    /// Each capability's descriptions, by capability.
    capabilities: Table<Providers>,
    /// The number of published services.
    len: usize,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry {
            services: Table::new(),
            capabilities: Table::new(),
            len: 0,
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
        let description = Arc::new(description);
        let previous = self
            .services
            .update(description.id.as_str(), |_| Some(Arc::clone(&description)));
        match &previous {
            None => self.len += 1,
            Some(old) if old.capability != description.capability => self.unindex(old),
            Some(_) => {}
        }
        // Insert the description into its capability's slice, or
        // replace the one it republishes there.
        self.capabilities
            .update(&description.capability, |providers| {
                let providers = providers.map_or(&[][..], |providers| &providers[..]);
                let at = providers.binary_search_by(|p| p.id.cmp(&description.id));
                Some(splice(providers, at, Some(Arc::clone(&description))))
            });
        previous
    }

    /// Removes a service from the registry, returning its description.
    pub fn deregister(&mut self, id: &ServiceId) -> Option<Arc<ServiceDescription>> {
        let previous = self.services.update(id.as_str(), |_| None)?;
        self.len -= 1;
        self.unindex(&previous);
        Some(previous)
    }

    /// Drops a published description from its capability's slice, and
    /// the capability with its last description.
    fn unindex(&mut self, description: &ServiceDescription) {
        self.capabilities
            .update(&description.capability, |providers| {
                let providers = providers.expect("a published capability is indexed");
                let at = providers.binary_search_by(|p| p.id.cmp(&description.id));
                (providers.len() > 1).then(|| splice(providers, at, None))
            });
    }

    /// Looks up a service by id.
    pub fn get(&self, id: &ServiceId) -> Option<&ServiceDescription> {
        self.services.get(id.as_str()).map(Arc::as_ref)
    }

    /// All services advertising the given capability, in id order.
    pub fn discover(&self, capability: &str) -> Vec<&ServiceDescription> {
        self.capabilities
            .get(capability)
            .map_or_else(Vec::new, |providers| {
                providers.iter().map(Arc::as_ref).collect()
            })
    }

    /// Iterates over all published services in id order.
    pub fn iter(&self) -> impl Iterator<Item = &ServiceDescription> {
        let mut all: Vec<&ServiceDescription> = self.services.iter().map(Arc::as_ref).collect();
        all.sort_unstable_by(|a, b| a.id.cmp(&b.id));
        all.into_iter()
    }

    /// The number of published services.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

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
    fn republish_under_the_same_capability_replaces_the_discovered_description() {
        let mut r = Registry::new();
        r.publish(desc("a", "filter"));
        r.publish(desc("b", "filter"));
        r.publish(desc("a", "filter").with_capacity(3));
        assert_eq!(r.len(), 2);
        let filters = r.discover("filter");
        assert_eq!(filters.len(), 2);
        assert_eq!(filters[0].capacity, Some(3));
        assert_eq!(filters[1].id, ServiceId::new("b"));
    }

    #[test]
    fn deregister() {
        let mut r = Registry::new();
        r.publish(desc("a", "filter"));
        assert!(r.deregister(&ServiceId::new("a")).is_some());
        assert!(r.is_empty());
        assert!(r.deregister(&ServiceId::new("a")).is_none());
    }

    /// A node of a table: the top array `(None, None)`, middle node
    /// `(Some(m), None)` or leaf `(Some(m), Some(l))`.
    type Path = (Option<usize>, Option<usize>);

    /// The nodes of `b` that `a` does not share by pointer (every
    /// middle node of both tables must exist).
    fn copied<T>(a: &Table<T>, b: &Table<T>) -> BTreeSet<Path> {
        let mut paths = BTreeSet::new();
        if !Arc::ptr_eq(&a.0, &b.0) {
            paths.insert((None, None));
        }
        for m in 0..FAN {
            let (a, b) = (a.0[m].as_ref().unwrap(), b.0[m].as_ref().unwrap());
            if !Arc::ptr_eq(a, b) {
                paths.insert((Some(m), None));
            }
            for l in 0..FAN {
                if !Arc::ptr_eq(&a[l], &b[l]) {
                    paths.insert((Some(m), Some(l)));
                }
            }
        }
        paths
    }

    /// The top-to-leaf paths of `keys`.
    fn paths_of(keys: &[&str]) -> BTreeSet<Path> {
        keys.iter()
            .flat_map(|key| {
                let (m, l) = leaf_of(key);
                [(None, None), (Some(m), None), (Some(m), Some(l))]
            })
            .collect()
    }

    #[test]
    fn a_write_on_a_clone_copies_only_the_paths_it_touches() {
        // The 4,096-service registry of a `churn_chaos` daemon.
        let mut original = Registry::new();
        for c in 0..2048 {
            for k in 0..2 {
                original.publish(desc(&format!("svc-{c:04}-{k}"), &format!("cap-{c:04}")));
            }
        }
        // A clone copies no node.
        let mut clone = original.clone();
        assert!(copied(&original.services, &clone.services).is_empty());
        assert!(copied(&original.capabilities, &clone.capabilities).is_empty());
        // A deregister of an absent id copies nothing either.
        assert!(clone.deregister(&ServiceId::new("svc-absent")).is_none());
        assert!(copied(&original.services, &clone.services).is_empty());
        assert!(copied(&original.capabilities, &clone.capabilities).is_empty());
        // A republish that changes capability copies one path per key
        // it touches: the id's, and the old and the new capability's.
        clone.publish(desc("svc-0007-1", "cap-new"));
        assert_eq!(
            copied(&original.services, &clone.services),
            paths_of(&["svc-0007-1"])
        );
        assert_eq!(
            copied(&original.capabilities, &clone.capabilities),
            paths_of(&["cap-0007", "cap-new"])
        );
        // A copied leaf still shares every entry the write left alone.
        let shared = |a: &Registry, b: &Registry, capability: &str| {
            Arc::ptr_eq(
                a.capabilities.get(capability).unwrap(),
                b.capabilities.get(capability).unwrap(),
            )
        };
        for c in (0..2048).filter(|&c| c != 7) {
            assert!(shared(&original, &clone, &format!("cap-{c:04}")));
        }
        assert!(!shared(&original, &clone, "cap-0007"));
        // The original still answers as before the write.
        assert_eq!(
            original
                .get(&ServiceId::new("svc-0007-1"))
                .unwrap()
                .capability,
            "cap-0007"
        );
        assert_eq!(original.discover("cap-0007").len(), 2);
        assert_eq!(clone.discover("cap-0007").len(), 1);
        assert_eq!(clone.discover("cap-new").len(), 1);
        assert_eq!((original.len(), clone.len()), (4096, 4096));
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
