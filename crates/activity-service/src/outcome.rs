//! Outcomes: what Actions return and what SignalSets collate.

use std::borrow::Cow;
use std::fmt;

use orb::{MapWriter, Value, ValueMap};

use crate::error::ActivityError;

/// Well-known outcome name for plain success.
pub const OUTCOME_DONE: &str = "done";
/// Well-known outcome name for refusal/abort votes.
pub const OUTCOME_ABORT: &str = "abort";
/// Well-known outcome name wrapping an [`crate::error::ActionError`].
pub const OUTCOME_ERROR: &str = "error";

/// The result of an Action processing a Signal, and also the collated result
/// a SignalSet reports for a whole protocol run.
///
/// Outcome names are a protocol's constants (`"done"`, `"abort"`, …), held
/// static-or-owned so the conventional outcomes allocate nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    name: Cow<'static, str>,
    data: Value,
}

impl Outcome {
    /// An outcome with no payload.
    pub fn new(name: impl Into<Cow<'static, str>>) -> Self {
        Outcome { name: name.into(), data: Value::Null }
    }

    /// The conventional success outcome (`"done"`).
    pub fn done() -> Self {
        Outcome::new(OUTCOME_DONE)
    }

    /// The conventional refusal outcome (`"abort"`).
    pub fn abort() -> Self {
        Outcome::new(OUTCOME_ABORT)
    }

    /// Wrap an action failure as an outcome so SignalSets can reason about
    /// it uniformly.
    pub fn from_error(message: impl Into<String>) -> Self {
        Outcome::new(OUTCOME_ERROR).with_data(Value::Str(message.into()))
    }

    /// Builder-style: attach payload data.
    #[must_use]
    pub fn with_data(mut self, data: Value) -> Self {
        self.data = data;
        self
    }

    /// The outcome's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The payload.
    pub fn data(&self) -> &Value {
        &self.data
    }

    /// Whether this is the conventional success outcome.
    pub fn is_done(&self) -> bool {
        self.name == OUTCOME_DONE
    }

    /// Whether this is an error or abort outcome.
    pub fn is_negative(&self) -> bool {
        self.name == OUTCOME_ABORT || self.name == OUTCOME_ERROR
    }

    /// Serialise for transport/logging.
    pub fn to_value(&self) -> Value {
        let mut m = ValueMap::new();
        m.insert("name".into(), Value::from(&*self.name));
        m.insert("data".into(), self.data.clone());
        Value::Map(m)
    }

    /// Write the fields of [`Outcome::to_value`]'s map, building nothing.
    pub(crate) fn write_fields(&self, fields: &mut MapWriter<'_>) {
        fields.value("data", &self.data).str("name", &self.name);
    }

    /// Inverse of [`Outcome::to_value`].
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::Context`] on malformed input.
    pub fn from_value(value: &Value) -> Result<Self, ActivityError> {
        let m = value
            .as_map()
            .ok_or_else(|| ActivityError::Context("outcome must be a map".into()))?;
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| ActivityError::Context("outcome missing name".into()))?;
        let data = m.get("data").cloned().unwrap_or(Value::Null);
        Ok(Outcome { name: name.to_owned().into(), data })
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conventions() {
        assert!(Outcome::done().is_done());
        assert!(!Outcome::done().is_negative());
        assert!(Outcome::abort().is_negative());
        assert!(Outcome::from_error("x").is_negative());
        assert!(!Outcome::new("custom").is_done());
        assert!(!Outcome::new("custom").is_negative());
    }

    #[test]
    fn value_roundtrip() {
        let o = Outcome::new("voted").with_data(Value::from(true));
        assert_eq!(Outcome::from_value(&o.to_value()).unwrap(), o);
        assert!(Outcome::from_value(&Value::I64(1)).is_err());
    }

    #[test]
    fn display_is_name() {
        assert_eq!(Outcome::done().to_string(), "done");
    }
}
