//! Service contexts: the implicit-propagation channel for middleware state.
//!
//! CORBA requests carry a list of *service contexts* — opaque blobs keyed by
//! a service id — which interceptors read and write without the application
//! noticing. The Activity Service uses exactly this mechanism to propagate
//! the current activity context on every invocation (paper fig. 3: the
//! framework sits beside the ORB and piggybacks on its requests).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::OrbError;
use crate::value::Value;

/// Well-known service-context id used by the Activity Service.
pub const ACTIVITY_SERVICE_CONTEXT: &str = "ActivityService";

/// A set of named, dynamically typed context entries attached to a request.
///
/// Entries survive the trip through the (simulated) network byte-for-byte:
/// they are encoded with the same codec as [`Value`]. Each entry is a shared
/// handle, so a service that marshals its context once (the Activity
/// Service does, once per activity) stamps it on every request by
/// reference, and the receiving side reads the very value that was stamped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceContext {
    entries: BTreeMap<Cow<'static, str>, Arc<Value>>,
}

impl ServiceContext {
    /// Create an empty context set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach (or replace) the entry for `service_id`. The well-known ids
    /// are constants, so stamping one allocates no key.
    pub fn set(&mut self, service_id: impl Into<Cow<'static, str>>, payload: Value) {
        self.set_shared(service_id, Arc::new(payload));
    }

    /// Attach (or replace) the entry for `service_id` by reference: the
    /// request carries `payload` itself, not a copy of it.
    pub fn set_shared(&mut self, service_id: impl Into<Cow<'static, str>>, payload: Arc<Value>) {
        self.entries.insert(service_id.into(), payload);
    }

    /// Fetch the entry for `service_id`, if present.
    pub fn get(&self, service_id: &str) -> Option<&Value> {
        self.entries.get(service_id).map(|payload| &**payload)
    }

    /// Fetch the entry for `service_id` as the shared handle it travels in:
    /// a receiver that keeps it clones this, not the value.
    pub fn get_shared(&self, service_id: &str) -> Option<&Arc<Value>> {
        self.entries.get(service_id)
    }

    /// Remove and return the entry for `service_id`.
    pub fn remove(&mut self, service_id: &str) -> Option<Value> {
        self.entries.remove(service_id).map(Arc::unwrap_or_clone)
    }

    /// Whether no entries are attached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of attached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Iterate over `(service_id, payload)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (&**k, &**v))
    }

    /// Encode all entries into a single [`Value`] (used by the transport).
    pub fn to_value(&self) -> Value {
        Value::Map(self.entries.iter().map(|(k, v)| (k.clone(), Value::clone(v))).collect())
    }

    /// Decode a context set from a transported [`Value`].
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::Codec`] if the value is not a map.
    pub fn from_value(value: &Value) -> Result<Self, OrbError> {
        match value {
            Value::Map(m) => Ok(m.iter().map(|(k, v)| (k.clone(), v.clone())).collect()),
            other => Err(OrbError::Codec(format!(
                "service context must be a map, got {other}"
            ))),
        }
    }
}

impl<K: Into<Cow<'static, str>>> FromIterator<(K, Value)> for ServiceContext {
    fn from_iter<T: IntoIterator<Item = (K, Value)>>(iter: T) -> Self {
        ServiceContext {
            entries: iter.into_iter().map(|(k, v)| (k.into(), Arc::new(v))).collect(),
        }
    }
}

impl<K: Into<Cow<'static, str>>> Extend<(K, Value)> for ServiceContext {
    fn extend<T: IntoIterator<Item = (K, Value)>>(&mut self, iter: T) {
        self.entries.extend(iter.into_iter().map(|(k, v)| (k.into(), Arc::new(v))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut ctx = ServiceContext::new();
        assert!(ctx.is_empty());
        ctx.set(ACTIVITY_SERVICE_CONTEXT, Value::from("ctx-bytes"));
        assert_eq!(ctx.len(), 1);
        assert_eq!(
            ctx.get(ACTIVITY_SERVICE_CONTEXT).and_then(Value::as_str),
            Some("ctx-bytes")
        );
        assert!(ctx.get("other").is_none());
        assert_eq!(ctx.remove(ACTIVITY_SERVICE_CONTEXT), Some(Value::from("ctx-bytes")));
        assert!(ctx.is_empty());
    }

    #[test]
    fn a_shared_entry_is_carried_not_copied() {
        let payload = Arc::new(Value::from("ctx-bytes"));
        let mut shared = ServiceContext::new();
        shared.set_shared(ACTIVITY_SERVICE_CONTEXT, Arc::clone(&payload));
        assert!(Arc::ptr_eq(shared.get_shared(ACTIVITY_SERVICE_CONTEXT).unwrap(), &payload));
        // A clone of the set (a copy of the request) shares it too.
        let copy = shared.clone();
        assert!(Arc::ptr_eq(copy.get_shared(ACTIVITY_SERVICE_CONTEXT).unwrap(), &payload));
        // By reference or by value, the entry is the same value.
        let mut owned = ServiceContext::new();
        owned.set(ACTIVITY_SERVICE_CONTEXT, Value::from("ctx-bytes"));
        assert_eq!(owned, shared);
        assert_eq!(owned.to_value().encode(), shared.to_value().encode());
    }

    #[test]
    fn value_roundtrip() {
        let mut ctx = ServiceContext::new();
        ctx.set("a", Value::I64(1));
        ctx.set("b", Value::from("two"));
        let v = ctx.to_value();
        let decoded = ServiceContext::from_value(&v).unwrap();
        assert_eq!(decoded, ctx);
        // And through the binary codec too.
        let binary = v.encode();
        let decoded2 = ServiceContext::from_value(&Value::decode(&binary).unwrap()).unwrap();
        assert_eq!(decoded2, ctx);
    }

    #[test]
    fn from_value_rejects_non_map() {
        assert!(ServiceContext::from_value(&Value::I64(1)).is_err());
    }

    #[test]
    fn collect_and_extend() {
        let mut ctx: ServiceContext =
            vec![("x".to_string(), Value::Bool(true))].into_iter().collect();
        ctx.extend(vec![("y".to_string(), Value::Bool(false))]);
        assert_eq!(ctx.len(), 2);
        let keys: Vec<&str> = ctx.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["x", "y"]);
    }
}
