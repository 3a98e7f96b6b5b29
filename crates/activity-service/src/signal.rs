//! Signals: the framework's demarcation and coordination events.
//!
//! Mirrors the paper's IDL:
//!
//! ```idl
//! struct Signal {
//!     string signal_name;
//!     string signal_set_name;
//!     any    application_specific_data;
//! };
//! ```
//!
//! The CORBA `any` is rendered as [`orb::Value`].

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use orb::{Value, ValueMap};

use crate::error::ActivityError;

/// A coordination event sent by a SignalSet to registered Actions.
///
/// "The information encoded within a Signal will depend upon the
/// implementation of the extended transaction model" — hence the open
/// [`Value`] payload.
///
/// A protocol's signal and set names are constants, so they are held
/// static-or-owned and a signal built from literals allocates nothing; the
/// delivery id is a shared handle that the remote proxy passes on to the
/// request (and the receiver's dedup window) without copying it.
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    name: Cow<'static, str>,
    signal_set_name: Cow<'static, str>,
    data: Value,
    delivery_id: Option<Arc<str>>,
}

impl Signal {
    /// A signal with no payload.
    pub fn new(
        name: impl Into<Cow<'static, str>>,
        signal_set_name: impl Into<Cow<'static, str>>,
    ) -> Self {
        Signal {
            name: name.into(),
            signal_set_name: signal_set_name.into(),
            data: Value::Null,
            delivery_id: None,
        }
    }

    /// Builder-style: attach application-specific data.
    #[must_use]
    pub fn with_data(mut self, data: Value) -> Self {
        self.data = data;
        self
    }

    /// Builder-style: attach a delivery id. Coordinators stamp one
    /// automatically before transmitting, so that *redelivery* of the same
    /// logical signal (at-least-once semantics, §3.4) is recognisable —
    /// the hook [`crate::exactly_once::ExactlyOnceAction`] builds on.
    #[must_use]
    pub fn with_delivery_id(mut self, delivery_id: impl Into<Arc<str>>) -> Self {
        self.delivery_id = Some(delivery_id.into());
        self
    }

    /// The delivery id, if one was stamped.
    pub fn delivery_id(&self) -> Option<&str> {
        self.delivery_id.as_deref()
    }

    /// The delivery id as the shared handle it travels in.
    pub fn shared_delivery_id(&self) -> Option<&Arc<str>> {
        self.delivery_id.as_ref()
    }

    /// The signal's name (e.g. `"prepare"`, `"outcome"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name as the static-or-owned handle it is held in (cloning it is
    /// free for a protocol's constant names).
    pub(crate) fn shared_name(&self) -> &Cow<'static, str> {
        &self.name
    }

    /// The name of the signal set that produced it.
    pub fn signal_set_name(&self) -> &str {
        &self.signal_set_name
    }

    /// The application-specific payload.
    pub fn data(&self) -> &Value {
        &self.data
    }

    /// Serialise for transport/logging.
    pub fn to_value(&self) -> Value {
        let mut m = ValueMap::new();
        m.insert("name".into(), Value::from(&*self.name));
        m.insert("set".into(), Value::from(&*self.signal_set_name));
        m.insert("data".into(), self.data.clone());
        if let Some(id) = &self.delivery_id {
            m.insert("delivery".into(), Value::from(&**id));
        }
        Value::Map(m)
    }

    /// Inverse of [`Signal::to_value`].
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::Context`] on malformed input.
    pub fn from_value(value: &Value) -> Result<Self, ActivityError> {
        let m = value
            .as_map()
            .ok_or_else(|| ActivityError::Context("signal must be a map".into()))?;
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| ActivityError::Context("signal missing name".into()))?;
        let set = m
            .get("set")
            .and_then(Value::as_str)
            .ok_or_else(|| ActivityError::Context("signal missing set".into()))?;
        let data = m.get("data").cloned().unwrap_or(Value::Null);
        let delivery_id = m.get("delivery").and_then(Value::as_str).map(Arc::from);
        Ok(Signal {
            name: name.to_owned().into(),
            signal_set_name: set.to_owned().into(),
            data,
            delivery_id,
        })
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.name, self.signal_set_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_builder() {
        let s = Signal::new("prepare", "2pc").with_data(Value::from(5i64));
        assert_eq!(s.name(), "prepare");
        assert_eq!(s.signal_set_name(), "2pc");
        assert_eq!(s.data().as_i64(), Some(5));
    }

    #[test]
    fn value_roundtrip() {
        let s = Signal::new("outcome", "Completed").with_data(Value::from("done"));
        let v = s.to_value();
        let back = Signal::from_value(&v).unwrap();
        assert_eq!(back, s);
        // Through the binary codec too.
        let decoded = Value::decode(&v.encode()).unwrap();
        assert_eq!(Signal::from_value(&decoded).unwrap(), s);
    }

    #[test]
    fn from_value_rejects_malformed() {
        assert!(Signal::from_value(&Value::Null).is_err());
        let mut m = ValueMap::new();
        m.insert("name".into(), Value::from("x"));
        assert!(Signal::from_value(&Value::Map(m)).is_err(), "missing set");
    }

    #[test]
    fn display_includes_both_names() {
        let s = Signal::new("confirm", "Complete");
        let printed = s.to_string();
        assert!(printed.contains("confirm"));
        assert!(printed.contains("Complete"));
    }
}
