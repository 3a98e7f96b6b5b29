//! Coordination contexts: the WS-Coordination-style token that identifies
//! a coordinated piece of work and says where to register for it.

use std::sync::Arc;

use orb::{ObjectRef, Value, ValueMap};

use crate::error::WscfError;

/// Well-known coordination type for atomic (ACID-style) transactions.
pub const TYPE_ATOMIC_TRANSACTION: &str = "wscf:atomic-transaction";
/// Well-known coordination type for long-running business agreements.
pub const TYPE_BUSINESS_AGREEMENT: &str = "wscf:business-agreement";

/// The token that travels with application messages: which coordinated
/// work this is, what coordination type governs it, and (optionally) the
/// registration service to enlist with.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinationContext {
    /// Shared with the coordination service's own record of the context.
    id: Arc<str>,
    coordination_type: Arc<str>,
    registration: Option<ObjectRef>,
}

impl CoordinationContext {
    /// Build a context. Normally produced by
    /// [`crate::service::CoordinationService::create_context`].
    pub fn new(id: impl Into<Arc<str>>, coordination_type: impl Into<Arc<str>>) -> Self {
        CoordinationContext {
            id: id.into(),
            coordination_type: coordination_type.into(),
            registration: None,
        }
    }

    /// Builder-style: attach the registration service's reference so
    /// remote participants can enlist.
    #[must_use]
    pub fn with_registration(mut self, registration: ObjectRef) -> Self {
        self.registration = Some(registration);
        self
    }

    /// The context's unique id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The governing coordination type.
    pub fn coordination_type(&self) -> &str {
        &self.coordination_type
    }

    /// The registration endpoint, if one was attached.
    pub fn registration(&self) -> Option<&ObjectRef> {
        self.registration.as_ref()
    }

    /// Serialise for transport (rides in application messages).
    pub fn to_value(&self) -> Value {
        let mut m = ValueMap::new();
        m.insert("id".into(), Value::from(&*self.id));
        m.insert("type".into(), Value::from(&*self.coordination_type));
        if let Some(reg) = &self.registration {
            m.insert("registration".into(), reg.to_value());
        }
        Value::Map(m)
    }

    /// Inverse of [`CoordinationContext::to_value`].
    ///
    /// # Errors
    ///
    /// [`WscfError::Codec`] on malformed input.
    pub fn from_value(value: &Value) -> Result<Self, WscfError> {
        let m = value
            .as_map()
            .ok_or_else(|| WscfError::Codec("context must be a map".into()))?;
        let id = m
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| WscfError::Codec("context missing id".into()))?;
        let coordination_type = m
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| WscfError::Codec("context missing type".into()))?;
        let registration = m
            .get("registration")
            .map(|v| ObjectRef::from_value(v).map_err(|e| WscfError::Codec(e.to_string())))
            .transpose()?;
        Ok(CoordinationContext {
            id: id.into(),
            coordination_type: coordination_type.into(),
            registration,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orb::ObjectId;

    #[test]
    fn roundtrip_without_registration() {
        let ctx = CoordinationContext::new("ctx-1", TYPE_ATOMIC_TRANSACTION);
        let back = CoordinationContext::from_value(&ctx.to_value()).unwrap();
        assert_eq!(back, ctx);
        assert!(back.registration().is_none());
    }

    #[test]
    fn roundtrip_with_registration() {
        let reg = ObjectRef::new(ObjectId::new(1, 2), "node", "Registration");
        let ctx =
            CoordinationContext::new("ctx-2", TYPE_BUSINESS_AGREEMENT).with_registration(reg.clone());
        let back = CoordinationContext::from_value(&ctx.to_value()).unwrap();
        assert_eq!(back.registration(), Some(&reg));
        assert_eq!(back.coordination_type(), TYPE_BUSINESS_AGREEMENT);
    }

    #[test]
    fn malformed_contexts_rejected() {
        assert!(CoordinationContext::from_value(&Value::Null).is_err());
        let mut m = ValueMap::new();
        m.insert("id".into(), Value::from("x"));
        assert!(CoordinationContext::from_value(&Value::Map(m)).is_err());
    }
}
