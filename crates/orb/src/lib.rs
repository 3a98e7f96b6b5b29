//! A simulated CORBA-like Object Request Broker: the *distribution
//! infrastructure* substrate that the Activity Service framework of Houston,
//! Little, Robinson, Shrivastava and Wheater ("The CORBA Activity Service
//! Framework for Supporting Extended Transactions", Middleware 2001 /
//! SP&E 33(4), 2003) assumes underneath it (fig. 3 of the paper).
//!
//! The paper's framework needs four things from its middleware, all of which
//! this crate provides without an IIOP wire protocol:
//!
//! 1. **Location-transparent invocation** — objects ([`Servant`]s) are
//!    registered on [`Node`]s and invoked through [`ObjectRef`]s regardless of
//!    which node the caller sits on.
//! 2. **Implicit context propagation** — [`ServiceContext`] entries attached
//!    to a [`Request`] travel with every invocation, and
//!    [`interceptor::ClientRequestInterceptor`] /
//!    [`interceptor::ServerRequestInterceptor`] pairs let a service (such as
//!    the Activity Service) piggyback its own context transparently.
//! 3. **Unreliable delivery** — the [`network::SimulatedNetwork`] can drop,
//!    duplicate and delay messages and partition nodes, which is what forces
//!    the paper's *at-least-once* Signal delivery semantics (§3.4) and the
//!    idempotence requirement on Actions.
//! 4. **A naming service** — [`registry::NameRegistry`] binds names to object
//!    references (the paper's §2.1(ii) name-server example).
//!
//! It also houses [`Env`], the one immutable context the cross-cutting
//! planes (clock, failpoints, failure detector, telemetry, flight recorder,
//! causal plane, delivery sequencer) travel in — see [`env`].
//!
//! # Example
//!
//! ```
//! use orb::{Orb, Request, Servant, Value};
//! use orb::error::OrbError;
//!
//! struct Echo;
//! impl Servant for Echo {
//!     fn dispatch(&self, request: &Request) -> Result<Value, OrbError> {
//!         Ok(request.arg("msg").cloned().unwrap_or(Value::Null))
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let orb = Orb::builder().build();
//! let node = orb.add_node("alpha")?;
//! let echo = node.activate("echo", Echo)?;
//! let reply = orb.invoke(&echo, Request::new("echo").with_arg("msg", Value::from("hi")))?;
//! assert_eq!(reply.result, Value::from("hi"));
//! # Ok(())
//! # }
//! ```

pub mod choice;
pub mod clock;
pub mod context;
pub mod dedup;
pub mod detector;
pub mod env;
pub mod error;
pub mod interceptor;
pub mod introspect;
pub mod message;
pub mod network;
pub mod node;
pub mod object;
pub mod pool;
pub mod registry;
pub mod retry;
pub mod value;

pub use choice::{DeliverySequencer, RegistrationOrder};
pub use clock::SimClock;
pub use context::ServiceContext;
pub use dedup::{DedupServant, DedupWindow};
pub use detector::{DetectorConfig, FailureDetector, HealthStatus};
pub use env::{Env, SpanGuard};
pub use error::OrbError;
pub use interceptor::{
    LamportClientInterceptor, LamportServerInterceptor, SpanClientInterceptor,
    SpanServerInterceptor,
};
pub use introspect::{Introspection, INTROSPECTION_INTERFACE};
pub use message::{Reply, Request};
pub use network::{FaultScript, NetworkConfig, PartitionWindow, SimulatedNetwork};
pub use node::{Node, Orb, OrbBuilder};
pub use retry::RetryPolicy;
pub use object::{ObjectId, ObjectRef, Servant};
pub use pool::{CancelToken, DispatchConfig, OrderedResults, Round, TaskOutcome, WorkerPool};
pub use registry::NameRegistry;
pub use value::{ListWriter, MapWriter, Value, ValueMap};
