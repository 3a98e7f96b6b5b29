//! Service contexts: the implicit-propagation channel for middleware state.
//!
//! CORBA requests carry a list of *service contexts* — opaque blobs keyed by
//! a service id — which interceptors read and write without the application
//! noticing. The Activity Service uses exactly this mechanism to propagate
//! the current activity context on every invocation (paper fig. 3: the
//! framework sits beside the ORB and piggybacks on its requests).

use std::borrow::Cow;

use crate::error::OrbError;
use crate::value::{Value, ValueMap};

/// Well-known service-context id used by the Activity Service.
pub const ACTIVITY_SERVICE_CONTEXT: &str = "ActivityService";

/// A set of named, dynamically typed context entries attached to a request.
///
/// Entries survive the trip through the (simulated) network byte-for-byte:
/// they are encoded with the same codec as [`Value`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceContext {
    entries: ValueMap,
}

impl ServiceContext {
    /// Create an empty context set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach (or replace) the entry for `service_id`. The well-known ids
    /// are constants, so stamping one allocates no key.
    pub fn set(&mut self, service_id: impl Into<Cow<'static, str>>, payload: Value) {
        self.entries.insert(service_id.into(), payload);
    }

    /// Fetch the entry for `service_id`, if present.
    pub fn get(&self, service_id: &str) -> Option<&Value> {
        self.entries.get(service_id)
    }

    /// Remove and return the entry for `service_id`.
    pub fn remove(&mut self, service_id: &str) -> Option<Value> {
        self.entries.remove(service_id)
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
        self.entries.iter().map(|(k, v)| (&**k, v))
    }

    /// Encode all entries into a single [`Value`] (used by the transport).
    pub fn to_value(&self) -> Value {
        Value::Map(self.entries.clone())
    }

    /// Decode a context set from a transported [`Value`].
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::Codec`] if the value is not a map.
    pub fn from_value(value: &Value) -> Result<Self, OrbError> {
        match value {
            Value::Map(m) => Ok(ServiceContext { entries: m.clone() }),
            other => Err(OrbError::Codec(format!(
                "service context must be a map, got {other}"
            ))),
        }
    }
}

impl<K: Into<Cow<'static, str>>> FromIterator<(K, Value)> for ServiceContext {
    fn from_iter<T: IntoIterator<Item = (K, Value)>>(iter: T) -> Self {
        ServiceContext { entries: iter.into_iter().map(|(k, v)| (k.into(), v)).collect() }
    }
}

impl<K: Into<Cow<'static, str>>> Extend<(K, Value)> for ServiceContext {
    fn extend<T: IntoIterator<Item = (K, Value)>>(&mut self, iter: T) {
        self.entries.extend(iter.into_iter().map(|(k, v)| (k.into(), v)));
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
