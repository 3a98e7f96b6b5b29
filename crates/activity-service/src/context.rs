//! Activity contexts: what travels with remote invocations.
//!
//! The framework "relies on the Activity Service to manage the context
//! distribution and relationships between Activities"; this module defines
//! the wire form. A context carries the activity chain (root → current) and
//! the property groups whose propagation mode says they travel by value or
//! by reference (§3.3).

use orb::{Value, ValueMap};

use crate::activity::{Activity, ActivityId};
use crate::error::ActivityError;

/// One link in the propagated activity chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextEntry {
    /// The activity's id.
    pub id: ActivityId,
    /// The activity's name.
    pub name: String,
}

/// The propagated form of an activity: identity chain plus travelling
/// property groups.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ActivityContext {
    /// Activities from the root down to the current one.
    pub chain: Vec<ContextEntry>,
    /// Property groups propagated by value: `(group name, snapshot)`.
    pub properties: Vec<(String, ValueMap)>,
    /// Names of property groups propagated by reference (the receiver
    /// resolves them locally).
    pub by_reference: Vec<String>,
}

/// Wire form of one chain link.
fn entry_value(id: ActivityId, name: &str) -> Value {
    let mut m = ValueMap::new();
    m.insert("id".into(), Value::U64(id.raw()));
    m.insert("name".into(), Value::from(name));
    Value::Map(m)
}

/// Wire form of a whole context, from its three parts already in wire form.
fn context_value(chain: Vec<Value>, properties: Vec<(String, ValueMap)>, by_ref: Vec<String>) -> Value {
    let properties: Vec<Value> = properties
        .into_iter()
        .map(|(name, snapshot)| {
            let mut m = ValueMap::new();
            m.insert("group".into(), Value::Str(name));
            m.insert("values".into(), Value::Map(snapshot));
            Value::Map(m)
        })
        .collect();
    let mut m = ValueMap::new();
    m.insert("chain".into(), Value::List(chain));
    m.insert("properties".into(), Value::List(properties));
    m.insert("by_ref".into(), Value::List(by_ref.into_iter().map(Value::Str).collect()));
    Value::Map(m)
}

/// `link` of every activity from the root down to `activity`.
fn chain_of<T>(activity: &Activity, link: impl Fn(&Activity) -> T) -> Vec<T> {
    let mut chain = Vec::new();
    let mut cursor = Some(activity.clone());
    while let Some(a) = cursor {
        chain.push(link(&a));
        cursor = a.parent();
    }
    chain.reverse();
    chain
}

impl ActivityContext {
    /// The wire form of `activity`'s context, marshalled straight from the
    /// activity chain: equal to `ActivityContext::capture(activity).to_value()`
    /// without building the intermediate context. This is what the client
    /// interceptor stamps: marshalled once per activity and shared while no
    /// property group travels, afresh on every send once one does.
    pub fn marshal(activity: &Activity) -> Value {
        let chain = chain_of(activity, |a| entry_value(a.id(), a.name()));
        let properties = activity.properties();
        context_value(chain, properties.propagated_by_value(), properties.propagated_by_reference())
    }

    /// Capture the context of `activity` (including its ancestors).
    pub fn capture(activity: &Activity) -> Self {
        ActivityContext {
            chain: chain_of(activity, |a| ContextEntry { id: a.id(), name: a.name().to_owned() }),
            properties: activity.properties().propagated_by_value(),
            by_reference: activity.properties().propagated_by_reference(),
        }
    }

    /// The current (innermost) activity's entry.
    pub fn current(&self) -> Option<&ContextEntry> {
        self.chain.last()
    }

    /// Nesting depth of the propagated chain.
    pub fn depth(&self) -> usize {
        self.chain.len()
    }

    /// Serialise for the ORB service-context slot.
    pub fn to_value(&self) -> Value {
        let chain = self.chain.iter().map(|e| entry_value(e.id, &e.name)).collect();
        context_value(chain, self.properties.clone(), self.by_reference.clone())
    }

    /// Inverse of [`ActivityContext::to_value`].
    ///
    /// # Errors
    ///
    /// [`ActivityError::Context`] on malformed input.
    pub fn from_value(value: &Value) -> Result<Self, ActivityError> {
        let mut context = ActivityContext::default();
        walk(
            value,
            |id, name| context.chain.push(ContextEntry { id, name: name.to_owned() }),
            |group, values| {
                context.properties.push((group.to_owned(), values.cloned().unwrap_or_default()));
            },
            |name| context.by_reference.push(name.to_owned()),
        )?;
        Ok(context)
    }

    /// Check that `value` has the wire shape [`ActivityContext::from_value`]
    /// accepts, building nothing: the server interceptor rejects a malformed
    /// context when it arrives and decodes a well-formed one only when a
    /// servant asks for it.
    ///
    /// # Errors
    ///
    /// Exactly those of [`ActivityContext::from_value`].
    pub(crate) fn validate(value: &Value) -> Result<(), ActivityError> {
        walk(value, |_, _| {}, |_, _| {}, |_| {})
    }
}

/// The one walker of a context's wire shape, behind both
/// [`ActivityContext::from_value`] and [`ActivityContext::validate`]: `link`
/// sees each chain entry root first, `group` each by-value group (with its
/// snapshot, if it carries one), `by_ref` each by-reference name. A missing
/// list is empty; a by-reference entry that is not a string is skipped.
fn walk<'v>(
    value: &'v Value,
    mut link: impl FnMut(ActivityId, &'v str),
    mut group: impl FnMut(&'v str, Option<&'v ValueMap>),
    mut by_ref: impl FnMut(&'v str),
) -> Result<(), ActivityError> {
    let malformed = |what: &str| ActivityError::Context(what.into());
    let m = value.as_map().ok_or_else(|| malformed("activity context must be a map"))?;
    if let Some(Value::List(items)) = m.get("chain") {
        for item in items {
            let em = item.as_map().ok_or_else(|| malformed("chain entry must be a map"))?;
            let id = em
                .get("id")
                .and_then(Value::as_u64)
                .ok_or_else(|| malformed("chain entry missing id"))?;
            let name = em
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| malformed("chain entry missing name"))?;
            link(ActivityId::new(id), name);
        }
    }
    if let Some(Value::List(items)) = m.get("properties") {
        for item in items {
            let pm = item.as_map().ok_or_else(|| malformed("property entry must be a map"))?;
            let name = pm
                .get("group")
                .and_then(Value::as_str)
                .ok_or_else(|| malformed("property entry missing group"))?;
            group(name, pm.get("values").and_then(Value::as_map));
        }
    }
    if let Some(Value::List(items)) = m.get("by_ref") {
        for name in items.iter().filter_map(Value::as_str) {
            by_ref(name);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::{BasicPropertyGroup, Propagation, PropertyGroup, PropertyGroupSpec};
    use orb::SimClock;

    #[test]
    fn capture_walks_the_chain() {
        let root = Activity::new_root("root", SimClock::new());
        let mid = root.begin_child("mid").unwrap();
        let leaf = mid.begin_child("leaf").unwrap();
        let ctx = ActivityContext::capture(&leaf);
        assert_eq!(ctx.depth(), 3);
        let names: Vec<&str> = ctx.chain.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["root", "mid", "leaf"]);
        assert_eq!(ctx.current().unwrap().id, leaf.id());
    }

    #[test]
    fn capture_honours_propagation_modes() {
        let root = Activity::new_root("root", SimClock::new());
        let by_value = BasicPropertyGroup::new(
            PropertyGroupSpec::new("env").propagation(Propagation::ByValue),
        );
        by_value.set("locale", Value::from("en"));
        root.properties().register(by_value);
        root.properties().register(BasicPropertyGroup::new(
            PropertyGroupSpec::new("local-only").propagation(Propagation::Local),
        ));
        root.properties().register(BasicPropertyGroup::new(
            PropertyGroupSpec::new("shared-cfg").propagation(Propagation::ByReference),
        ));
        let ctx = ActivityContext::capture(&root);
        assert_eq!(ctx.properties.len(), 1);
        assert_eq!(ctx.properties[0].0, "env");
        assert_eq!(ctx.by_reference, vec!["shared-cfg"]);
    }

    #[test]
    fn value_roundtrip() {
        let root = Activity::new_root("root", SimClock::new());
        let child = root.begin_child("child").unwrap();
        let group = BasicPropertyGroup::new(PropertyGroupSpec::new("g"));
        group.set("k", Value::from(9i64));
        child.properties().register(group);
        let ctx = ActivityContext::capture(&child);
        let v = ctx.to_value();
        let back = ActivityContext::from_value(&v).unwrap();
        assert_eq!(back, ctx);
        // Binary codec too.
        let back2 = ActivityContext::from_value(&Value::decode(&v.encode()).unwrap()).unwrap();
        assert_eq!(back2, ctx);
    }

    #[test]
    fn marshal_is_capture_then_to_value_without_the_copy() {
        let root = Activity::new_root("root", SimClock::new());
        let by_value = BasicPropertyGroup::new(PropertyGroupSpec::new("env"));
        by_value.set("locale", Value::from("en"));
        root.properties().register(by_value);
        let child = root.begin_child("child").unwrap();
        child.properties().register(BasicPropertyGroup::new(
            PropertyGroupSpec::new("shared-cfg").propagation(Propagation::ByReference),
        ));
        for activity in [&root, &child] {
            let marshalled = ActivityContext::marshal(activity);
            assert_eq!(marshalled, ActivityContext::capture(activity).to_value());
            assert_eq!(
                ActivityContext::from_value(&marshalled).unwrap(),
                ActivityContext::capture(activity)
            );
        }
    }

    #[test]
    fn from_value_rejects_junk() {
        let entry = |fields: &[(&'static str, Value)]| {
            Value::Map(fields.iter().map(|(k, v)| ((*k).into(), v.clone())).collect())
        };
        let junk = [
            Value::I64(1),
            entry(&[("chain", Value::List(vec![Value::I64(1)]))]),
            entry(&[("chain", Value::List(vec![entry(&[("name", Value::from("a"))])]))]),
            entry(&[("properties", Value::List(vec![entry(&[])]))]),
        ];
        for value in &junk {
            let decoded = ActivityContext::from_value(value).map(drop).map_err(|e| e.to_string());
            assert!(decoded.is_err(), "{value} decoded");
            // The check on arrival rejects it with the decoder's own error.
            let checked = ActivityContext::validate(value).map_err(|e| e.to_string());
            assert_eq!(checked, decoded);
        }
        let good = ActivityContext::capture(&Activity::new_root("root", SimClock::new()));
        assert!(ActivityContext::validate(&good.to_value()).is_ok());
    }

    #[test]
    fn empty_context_roundtrip() {
        let ctx = ActivityContext::default();
        assert_eq!(ActivityContext::from_value(&ctx.to_value()).unwrap(), ctx);
        assert!(ctx.current().is_none());
    }
}
