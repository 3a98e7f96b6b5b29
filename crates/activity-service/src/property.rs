//! PropertyGroups: per-activity tuple spaces with configurable visibility
//! and propagation (§3.3 of the paper).

use std::collections::HashMap;
use std::sync::Arc;

use orb::{Value, ValueMap};
use parking_lot::RwLock;

use crate::error::ActivityError;

/// How a group behaves when an activity begins a nested activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NestedVisibility {
    /// Parent and child share one store: the child sees and makes changes
    /// in place (the paper's "updated properties ... transmitted within
    /// nested contexts").
    #[default]
    Shared,
    /// The child starts with a private *copy* of the parent's properties;
    /// its changes stay local ("available only for the specific context in
    /// which they were set").
    CopyOnWrite,
    /// The child starts empty.
    Isolated,
}

/// How a group travels to "downstream" nodes on remote invocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Propagation {
    /// A snapshot of the properties rides in the activity context.
    #[default]
    ByValue,
    /// Only the group's identity travels; the receiver resolves it against
    /// its own registry (sensible for node-local configuration).
    ByReference,
    /// The group never leaves the node.
    Local,
}

/// Behavioural contract of one property group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyGroupSpec {
    /// Group name (unique within an activity).
    pub name: String,
    /// Nested-activity behaviour.
    pub nested: NestedVisibility,
    /// Remote-invocation behaviour.
    pub propagation: Propagation,
}

impl PropertyGroupSpec {
    /// A spec with the default (shared, by-value) behaviour.
    pub fn new(name: impl Into<String>) -> Self {
        PropertyGroupSpec {
            name: name.into(),
            nested: NestedVisibility::default(),
            propagation: Propagation::default(),
        }
    }

    /// Builder-style: set nested visibility.
    #[must_use]
    pub fn nested(mut self, nested: NestedVisibility) -> Self {
        self.nested = nested;
        self
    }

    /// Builder-style: set propagation mode.
    #[must_use]
    pub fn propagation(mut self, propagation: Propagation) -> Self {
        self.propagation = propagation;
        self
    }
}

/// A property store: a tuple space of attribute–value pairs.
///
/// The paper deliberately does not mandate an implementation ("we simply
/// provide a mechanism for applications to obtain their own property store
/// implementations"); this trait is that mechanism, and
/// [`BasicPropertyGroup`] the bundled one.
pub trait PropertyGroup: Send + Sync {
    /// The group's behavioural contract.
    fn spec(&self) -> &PropertyGroupSpec;

    /// Read one property.
    fn get(&self, key: &str) -> Option<Value>;

    /// Write one property.
    fn set(&self, key: &str, value: Value);

    /// Remove one property, returning its previous value.
    fn remove(&self, key: &str) -> Option<Value>;

    /// A consistent snapshot of all properties.
    fn snapshot(&self) -> ValueMap;

    /// Bulk-load properties (used when materialising a by-value context on
    /// a downstream node).
    fn load(&self, properties: ValueMap);

    /// The view a nested activity should receive, per
    /// [`PropertyGroupSpec::nested`].
    fn for_child(self: Arc<Self>) -> Arc<dyn PropertyGroup>;
}

/// The bundled [`PropertyGroup`]: an `RwLock`-protected map.
#[derive(Debug)]
pub struct BasicPropertyGroup {
    spec: PropertyGroupSpec,
    store: RwLock<ValueMap>,
}

impl BasicPropertyGroup {
    /// An empty group with the given spec.
    pub fn new(spec: PropertyGroupSpec) -> Arc<Self> {
        Arc::new(BasicPropertyGroup { spec, store: RwLock::new(ValueMap::new()) })
    }

    /// A group pre-loaded with `properties`.
    pub fn with_properties(spec: PropertyGroupSpec, properties: ValueMap) -> Arc<Self> {
        Arc::new(BasicPropertyGroup { spec, store: RwLock::new(properties) })
    }
}

impl PropertyGroup for BasicPropertyGroup {
    fn spec(&self) -> &PropertyGroupSpec {
        &self.spec
    }

    fn get(&self, key: &str) -> Option<Value> {
        self.store.read().get(key).cloned()
    }

    fn set(&self, key: &str, value: Value) {
        self.store.write().insert(key.to_owned().into(), value);
    }

    fn remove(&self, key: &str) -> Option<Value> {
        self.store.write().remove(key)
    }

    fn snapshot(&self) -> ValueMap {
        self.store.read().clone()
    }

    fn load(&self, properties: ValueMap) {
        self.store.write().extend(properties);
    }

    fn for_child(self: Arc<Self>) -> Arc<dyn PropertyGroup> {
        match self.spec.nested {
            NestedVisibility::Shared => self,
            NestedVisibility::CopyOnWrite => {
                BasicPropertyGroup::with_properties(self.spec.clone(), self.snapshot())
            }
            NestedVisibility::Isolated => BasicPropertyGroup::new(self.spec.clone()),
        }
    }
}

/// The set of property groups registered with one activity. "An Activity
/// can support any number of registered PropertyGroups, each with its own
/// set of behaviour."
#[derive(Default)]
pub struct PropertyGroupManager {
    groups: RwLock<HashMap<String, Arc<dyn PropertyGroup>>>,
}

impl std::fmt::Debug for PropertyGroupManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PropertyGroupManager")
            .field("groups", &self.names())
            .finish()
    }
}

impl PropertyGroupManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a group under its spec name, replacing any previous one.
    pub fn register(&self, group: Arc<dyn PropertyGroup>) {
        self.groups.write().insert(group.spec().name.clone(), group);
    }

    /// Look up a group.
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::UnknownPropertyGroup`] when absent.
    pub fn group(&self, name: &str) -> Result<Arc<dyn PropertyGroup>, ActivityError> {
        self.groups
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| ActivityError::UnknownPropertyGroup(name.to_owned()))
    }

    /// Sorted names of registered groups.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.groups.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// The manager a nested activity should start with: each group
    /// contributes its [`PropertyGroup::for_child`] view.
    pub fn for_child(&self) -> PropertyGroupManager {
        let child = PropertyGroupManager::new();
        for group in self.groups.read().values() {
            child.register(Arc::clone(group).for_child());
        }
        child
    }

    /// Whether any group travels with a remote context (by value or by
    /// reference). Reads the specs only: nothing is copied.
    pub(crate) fn propagates_any(&self) -> bool {
        self.groups.read().values().any(|g| g.spec().propagation != Propagation::Local)
    }

    /// The `(group name, snapshot)` pairs that should ride in a by-value
    /// remote context, honouring each group's propagation mode.
    pub fn propagated_by_value(&self) -> Vec<(String, ValueMap)> {
        let mut out: Vec<(String, ValueMap)> = self
            .groups
            .read()
            .values()
            .filter(|g| g.spec().propagation == Propagation::ByValue)
            .map(|g| (g.spec().name.clone(), g.snapshot()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Names of groups propagated by reference.
    pub fn propagated_by_reference(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .groups
            .read()
            .values()
            .filter(|g| g.spec().propagation == Propagation::ByReference)
            .map(|g| g.spec().name.clone())
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(name: &str, nested: NestedVisibility) -> Arc<BasicPropertyGroup> {
        BasicPropertyGroup::new(PropertyGroupSpec::new(name).nested(nested))
    }

    #[test]
    fn basic_get_set_remove() {
        let g = group("env", NestedVisibility::Shared);
        assert_eq!(g.get("locale"), None);
        g.set("locale", Value::from("en_GB"));
        assert_eq!(g.get("locale"), Some(Value::from("en_GB")));
        assert_eq!(g.remove("locale"), Some(Value::from("en_GB")));
        assert_eq!(g.get("locale"), None);
    }

    #[test]
    fn shared_child_sees_and_makes_parent_changes() {
        let parent = group("ctx", NestedVisibility::Shared);
        parent.set("k", Value::from(1i64));
        let child = Arc::clone(&parent).for_child();
        assert_eq!(child.get("k"), Some(Value::from(1i64)));
        child.set("k", Value::from(2i64));
        assert_eq!(parent.get("k"), Some(Value::from(2i64)), "shared store");
    }

    #[test]
    fn copy_on_write_child_is_independent() {
        let parent = group("ctx", NestedVisibility::CopyOnWrite);
        parent.set("k", Value::from(1i64));
        let child = Arc::clone(&parent).for_child();
        assert_eq!(child.get("k"), Some(Value::from(1i64)), "starts with a copy");
        child.set("k", Value::from(2i64));
        assert_eq!(parent.get("k"), Some(Value::from(1i64)), "parent unchanged");
        parent.set("k2", Value::from(3i64));
        assert_eq!(child.get("k2"), None, "later parent writes invisible");
    }

    #[test]
    fn isolated_child_starts_empty() {
        let parent = group("ctx", NestedVisibility::Isolated);
        parent.set("k", Value::from(1i64));
        let child = Arc::clone(&parent).for_child();
        assert_eq!(child.get("k"), None);
    }

    #[test]
    fn manager_registers_and_resolves() {
        let m = PropertyGroupManager::new();
        assert!(matches!(m.group("x"), Err(ActivityError::UnknownPropertyGroup(_))));
        m.register(group("b", NestedVisibility::Shared));
        m.register(group("a", NestedVisibility::Shared));
        assert_eq!(m.names(), vec!["a", "b"]);
        assert!(m.group("a").is_ok());
    }

    #[test]
    fn manager_child_view_mixes_behaviours() {
        // The paper's example: PG1 = client environment (shared downwards),
        // PG2 = per-context data (not inherited).
        let m = PropertyGroupManager::new();
        let pg1 = group("client-env", NestedVisibility::Shared);
        pg1.set("locale", Value::from("fr_FR"));
        let pg2 = group("app-ctx", NestedVisibility::Isolated);
        pg2.set("step", Value::from(3i64));
        m.register(pg1);
        m.register(pg2);

        let child = m.for_child();
        assert_eq!(
            child.group("client-env").unwrap().get("locale"),
            Some(Value::from("fr_FR"))
        );
        assert_eq!(child.group("app-ctx").unwrap().get("step"), None);
    }

    #[test]
    fn propagation_modes_partition_groups() {
        let m = PropertyGroupManager::new();
        m.register(BasicPropertyGroup::new(
            PropertyGroupSpec::new("l").propagation(Propagation::Local),
        ));
        assert!(!m.propagates_any(), "a local group never travels");
        let by_value =
            BasicPropertyGroup::new(PropertyGroupSpec::new("v").propagation(Propagation::ByValue));
        by_value.set("k", Value::from(1i64));
        m.register(by_value);
        m.register(BasicPropertyGroup::new(
            PropertyGroupSpec::new("r").propagation(Propagation::ByReference),
        ));
        assert!(m.propagates_any());

        let by_value = m.propagated_by_value();
        assert_eq!(by_value.len(), 1);
        assert_eq!(by_value[0].0, "v");
        assert_eq!(by_value[0].1.get("k"), Some(&Value::from(1i64)));
        assert_eq!(m.propagated_by_reference(), vec!["r"]);
    }

    #[test]
    fn load_merges() {
        let g = group("g", NestedVisibility::Shared);
        g.set("a", Value::from(1i64));
        let mut incoming = ValueMap::new();
        incoming.insert("b".into(), Value::from(2i64));
        g.load(incoming);
        assert_eq!(g.snapshot().len(), 2);
    }
}
