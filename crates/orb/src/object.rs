//! Object identity, references and the servant trait.

use std::fmt;
use std::sync::Arc;

use crate::error::OrbError;
use crate::message::Request;
use crate::value::Value;

/// Globally unique identity of an object registered with the ORB.
///
/// The high half identifies the node the object was activated on; the low
/// half is a per-node sequence number. The pair is stable across the object's
/// lifetime, which is what lets the recovery machinery *rebind* references
/// after a crash (§3.4 of the paper: "rebinding of the activity structure").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId {
    node_seq: u64,
    object_seq: u64,
}

impl ObjectId {
    /// Create an identity from its node and object sequence numbers.
    pub fn new(node_seq: u64, object_seq: u64) -> Self {
        ObjectId { node_seq, object_seq }
    }

    /// Sequence number of the node the object lives on.
    pub fn node_seq(&self) -> u64 {
        self.node_seq
    }

    /// Per-node sequence number of the object.
    pub fn object_seq(&self) -> u64 {
        self.object_seq
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node_seq, self.object_seq)
    }
}

/// A location-transparent reference to a remote (or local) object.
///
/// `ObjectRef` is cheap to clone (the names are shared, so a clone copies
/// no text) and safe to ship across the simulated network (see
/// [`ObjectRef::to_value`] / [`ObjectRef::from_value`]); it is the analogue
/// of a CORBA IOR.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectRef {
    id: ObjectId,
    node: Arc<str>,
    interface: Arc<str>,
}

impl ObjectRef {
    /// Build a reference from its parts. Normally produced by
    /// [`crate::Node::activate`], not constructed by hand.
    pub fn new(id: ObjectId, node: impl Into<Arc<str>>, interface: impl Into<Arc<str>>) -> Self {
        ObjectRef { id, node: node.into(), interface: interface.into() }
    }

    /// The referenced object's identity.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// Name of the node hosting the object.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// The hosting node's name as the shared handle the invoke path routes
    /// requests with.
    pub fn shared_node(&self) -> &Arc<str> {
        &self.node
    }

    /// Interface (repository id) the object was activated under.
    pub fn interface(&self) -> &str {
        &self.interface
    }

    /// Serialise into a [`Value`] so the reference can ride inside signal
    /// payloads and log records (the paper's §4.2 Propagate signal carries
    /// "the identity of an Activity it should register itself with").
    pub fn to_value(&self) -> Value {
        let mut m = crate::value::ValueMap::new();
        m.insert("node_seq".into(), Value::U64(self.id.node_seq));
        m.insert("object_seq".into(), Value::U64(self.id.object_seq));
        m.insert("node".into(), Value::from(&*self.node));
        m.insert("interface".into(), Value::from(&*self.interface));
        Value::Map(m)
    }

    /// Inverse of [`ObjectRef::to_value`].
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::Codec`] if the value is not a well-formed
    /// reference map.
    pub fn from_value(value: &Value) -> Result<Self, OrbError> {
        let map = value
            .as_map()
            .ok_or_else(|| OrbError::Codec("object ref must be a map".into()))?;
        let field = |name: &str| {
            map.get(name)
                .ok_or_else(|| OrbError::Codec(format!("object ref missing field {name:?}")))
        };
        let node_seq = field("node_seq")?
            .as_u64()
            .ok_or_else(|| OrbError::Codec("node_seq must be u64".into()))?;
        let object_seq = field("object_seq")?
            .as_u64()
            .ok_or_else(|| OrbError::Codec("object_seq must be u64".into()))?;
        let node = field("node")?
            .as_str()
            .ok_or_else(|| OrbError::Codec("node must be a string".into()))?;
        let interface = field("interface")?
            .as_str()
            .ok_or_else(|| OrbError::Codec("interface must be a string".into()))?;
        Ok(ObjectRef::new(ObjectId::new(node_seq, object_seq), node, interface))
    }
}

impl fmt::Display for ObjectRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}#{}", self.interface, self.node, self.id)
    }
}

/// A server-side object implementation.
///
/// Servants receive fully decoded [`Request`]s and return a single [`Value`]
/// result. They must be `Send + Sync`: the simulated network may deliver
/// concurrent (and, with duplication faults enabled, repeated) requests, so
/// servants that act on the outside world are expected to be idempotent —
/// exactly the requirement the paper places on Actions under at-least-once
/// signal delivery (§3.4).
pub trait Servant: Send + Sync {
    /// Handle one request.
    ///
    /// # Errors
    ///
    /// Implementations should return [`OrbError::BadOperation`] for unknown
    /// operations and [`OrbError::Application`] for domain failures.
    fn dispatch(&self, request: &Request) -> Result<Value, OrbError>;
}

impl<T: Servant + ?Sized> Servant for Arc<T> {
    fn dispatch(&self, request: &Request) -> Result<Value, OrbError> {
        (**self).dispatch(request)
    }
}

impl<F> Servant for F
where
    F: Fn(&Request) -> Result<Value, OrbError> + Send + Sync,
{
    fn dispatch(&self, request: &Request) -> Result<Value, OrbError> {
        self(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_ref_value_roundtrip() {
        let r = ObjectRef::new(ObjectId::new(3, 99), "node-a", "IDL:Action:1.0");
        let v = r.to_value();
        let back = ObjectRef::from_value(&v).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn object_ref_from_bad_value() {
        assert!(ObjectRef::from_value(&Value::Null).is_err());
        let mut m = crate::value::ValueMap::new();
        m.insert("node_seq".into(), Value::U64(1));
        assert!(ObjectRef::from_value(&Value::Map(m)).is_err());
    }

    #[test]
    fn closure_is_a_servant() {
        let servant = |req: &Request| Ok(Value::Str(req.operation().to_owned()));
        let reply = servant.dispatch(&Request::new("ping")).unwrap();
        assert_eq!(reply.as_str(), Some("ping"));
    }

    #[test]
    fn display_forms() {
        let id = ObjectId::new(1, 2);
        assert_eq!(id.to_string(), "1:2");
        let r = ObjectRef::new(id, "n", "I");
        assert_eq!(r.to_string(), "I@n#1:2");
    }
}
