//! Nodes, the ORB core, and the invocation path.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::RwLock;

use std::time::Duration;

use crate::clock::SimClock;
use crate::context::ServiceContext;
use crate::env::Env;
use crate::error::OrbError;
use crate::interceptor::{
    ClientRequestInterceptor, LamportClientInterceptor, LamportServerInterceptor,
    ServerRequestInterceptor, SpanClientInterceptor, SpanServerInterceptor,
};
use crate::message::{Reply, Request};
use crate::network::{Delivery, NetworkConfig, SimulatedNetwork};
use crate::object::{ObjectId, ObjectRef, Servant};
use crate::registry::NameRegistry;
use crate::retry::RetryPolicy;
use crate::value::Value;

/// Source name used when a caller invokes straight through [`Orb::invoke`]
/// without identifying a node (e.g. a test driver outside the simulation).
pub const EXTERNAL_CALLER: &str = "<external>";

struct NodeInner {
    name: Arc<str>,
    seq: u64,
    orb: Weak<OrbInner>,
    servants: RwLock<HashMap<ObjectId, Arc<dyn Servant>>>,
    object_seq: AtomicU64,
}

impl fmt::Debug for NodeInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("name", &self.name)
            .field("seq", &self.seq)
            .field("servants", &self.servants.read().len())
            .finish()
    }
}

/// A handle to one simulated process/host in the distributed system.
///
/// Objects ([`Servant`]s) are activated on a node and invoked through the
/// [`ObjectRef`]s the activation returns. Cloning the handle does not clone
/// the node.
#[derive(Debug, Clone)]
pub struct Node {
    inner: Arc<NodeInner>,
}

impl Node {
    /// This node's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Activate `servant` under the given interface name, returning a
    /// location-transparent reference to it.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::NodeNotFound`] if the owning ORB has been dropped.
    pub fn activate<S: Servant + 'static>(
        &self,
        interface: impl Into<Arc<str>>,
        servant: S,
    ) -> Result<ObjectRef, OrbError> {
        self.activate_arc(interface, Arc::new(servant))
    }

    /// Like [`Node::activate`] but shares an existing `Arc`-ed servant.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::NodeNotFound`] if the owning ORB has been dropped.
    pub fn activate_arc(
        &self,
        interface: impl Into<Arc<str>>,
        servant: Arc<dyn Servant>,
    ) -> Result<ObjectRef, OrbError> {
        if self.inner.orb.upgrade().is_none() {
            return Err(OrbError::NodeNotFound(self.inner.name.to_string()));
        }
        let id = ObjectId::new(
            self.inner.seq,
            self.inner.object_seq.fetch_add(1, Ordering::Relaxed),
        );
        self.inner.servants.write().insert(id, servant);
        Ok(ObjectRef::new(id, Arc::clone(&self.inner.name), interface))
    }

    /// Deactivate the object; later invocations fail with
    /// [`OrbError::ObjectNotFound`]. Returns whether the object was active.
    pub fn deactivate(&self, object: &ObjectRef) -> bool {
        self.inner.servants.write().remove(&object.id()).is_some()
    }

    /// Number of active servants.
    pub fn servant_count(&self) -> usize {
        self.inner.servants.read().len()
    }

    /// Invoke `object` with this node as the network source.
    ///
    /// # Errors
    ///
    /// Propagates transport errors ([`OrbError::Timeout`],
    /// [`OrbError::Partitioned`]) and servant failures.
    pub fn invoke(&self, object: &ObjectRef, mut request: Request) -> Result<Reply, OrbError> {
        let orb = self
            .inner
            .orb
            .upgrade()
            .ok_or_else(|| OrbError::NodeNotFound(self.inner.name.to_string()))?;
        orb.invoke_from(&self.inner.name, object, &mut request)
    }
}

/// An interceptor list as the invoke path reads it: an immutable snapshot
/// swapped whole on registration (cold), so a call clones one `Arc` instead
/// of the list.
type Snapshot<T> = RwLock<Arc<[Arc<T>]>>;

fn publish<T: ?Sized>(list: &Snapshot<T>, item: Arc<T>) {
    let mut list = list.write();
    *list = list.iter().cloned().chain(std::iter::once(item)).collect();
}

fn snapshot<T: ?Sized>(list: &Snapshot<T>) -> Arc<[Arc<T>]> {
    Arc::clone(&list.read())
}

struct OrbInner {
    network: SimulatedNetwork,
    nodes: RwLock<HashMap<Arc<str>, Arc<NodeInner>>>,
    node_seq: AtomicU64,
    client_interceptors: Snapshot<dyn ClientRequestInterceptor>,
    server_interceptors: Snapshot<dyn ServerRequestInterceptor>,
    registry: NameRegistry,
    delivery_seq: AtomicU64,
    /// [`EXTERNAL_CALLER`] as the shared handle requests are routed with.
    external: Arc<str>,
    env: Arc<Env>,
}

impl fmt::Debug for OrbInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Orb")
            .field("nodes", &self.nodes.read().len())
            .field("env", &self.env)
            .finish()
    }
}

/// The Object Request Broker: the hub owning nodes, the simulated network,
/// interceptors and the naming service.
///
/// Cheap to clone; all clones share state.
#[derive(Debug, Clone)]
pub struct Orb {
    inner: Arc<OrbInner>,
}

/// Configures and builds an [`Orb`].
#[derive(Debug, Default)]
pub struct OrbBuilder {
    config: NetworkConfig,
    env: Option<Arc<Env>>,
}

impl OrbBuilder {
    /// Use the given network fault/latency model.
    #[must_use]
    pub fn network(mut self, config: NetworkConfig) -> Self {
        self.config = config;
        self
    }

    /// Share an existing virtual clock instead of creating a fresh one:
    /// shorthand for `.env(Env::with_clock(clock))`, for set-ups with no
    /// planes.
    ///
    /// # Panics
    ///
    /// After [`OrbBuilder::env`]: the clock of a context is a field of it.
    #[must_use]
    pub fn clock(self, clock: SimClock) -> Self {
        assert!(self.env.is_none(), "clock() would discard the planes given to env()");
        self.env(Env::with_clock(clock))
    }

    /// Run under the given context (see [`Env`]'s fields for what each
    /// plane does to the ORB).
    #[must_use]
    pub fn env(mut self, env: Arc<Env>) -> Self {
        self.env = Some(env);
        self
    }

    /// Build the ORB. With telemetry in the context, the
    /// [`SpanClientInterceptor`]/[`SpanServerInterceptor`] pair makes span
    /// contexts ride every request and partition events feed the metrics
    /// registry; with a causal plane, the
    /// [`LamportClientInterceptor`]/[`LamportServerInterceptor`] pair stamps
    /// every request and reply and records `wire-send`/`wire-recv` events
    /// in the recorders registered with the plane.
    pub fn build(self) -> Orb {
        let env = self.env.unwrap_or_default();
        let network = SimulatedNetwork::new(self.config, env.clock.clone())
            .metered_by(env.telemetry.clone());
        let orb = Orb {
            inner: Arc::new(OrbInner {
                network,
                nodes: RwLock::new(HashMap::new()),
                node_seq: AtomicU64::new(1),
                client_interceptors: RwLock::new(Arc::from([])),
                server_interceptors: RwLock::new(Arc::from([])),
                registry: NameRegistry::new(),
                delivery_seq: AtomicU64::new(1),
                external: Arc::from(EXTERNAL_CALLER),
                env: Arc::clone(&env),
            }),
        };
        if let Some(telemetry) = &env.telemetry {
            orb.add_client_interceptor(Arc::new(SpanClientInterceptor::new(telemetry.clone())));
            orb.add_server_interceptor(Arc::new(SpanServerInterceptor::new(telemetry.clone())));
        }
        if let Some(plane) = &env.causality {
            orb.add_client_interceptor(Arc::new(LamportClientInterceptor::new(plane.clone())));
            orb.add_server_interceptor(Arc::new(LamportServerInterceptor::new(plane.clone())));
        }
        orb
    }
}

impl Default for Orb {
    fn default() -> Self {
        Orb::builder().build()
    }
}

impl Orb {
    /// Start configuring an ORB.
    pub fn builder() -> OrbBuilder {
        OrbBuilder::default()
    }

    /// Create a new ORB with a reliable zero-latency network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::DuplicateNode`] if the name is taken.
    pub fn add_node(&self, name: impl Into<String>) -> Result<Node, OrbError> {
        let name = name.into();
        let mut nodes = self.inner.nodes.write();
        if nodes.contains_key(name.as_str()) {
            return Err(OrbError::DuplicateNode(name));
        }
        let name: Arc<str> = name.into();
        let inner = Arc::new(NodeInner {
            name: Arc::clone(&name),
            seq: self.inner.node_seq.fetch_add(1, Ordering::Relaxed),
            orb: Arc::downgrade(&self.inner),
            servants: RwLock::new(HashMap::new()),
            object_seq: AtomicU64::new(1),
        });
        nodes.insert(name, Arc::clone(&inner));
        Ok(Node { inner })
    }

    /// Look up an existing node handle.
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::NodeNotFound`] for unknown names.
    pub fn node(&self, name: &str) -> Result<Node, OrbError> {
        self.inner
            .nodes
            .read()
            .get(name)
            .map(|inner| Node { inner: Arc::clone(inner) })
            .ok_or_else(|| OrbError::NodeNotFound(name.to_owned()))
    }

    /// The simulated network (partitions, fault stats, clock).
    pub fn network(&self) -> &SimulatedNetwork {
        &self.inner.network
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        self.inner.network.clock()
    }

    /// The naming service.
    pub fn registry(&self) -> &NameRegistry {
        &self.inner.registry
    }

    /// Register a client-side interceptor (runs on every outgoing request).
    pub fn add_client_interceptor(&self, interceptor: Arc<dyn ClientRequestInterceptor>) {
        publish(&self.inner.client_interceptors, interceptor);
    }

    /// Register a server-side interceptor (runs on every incoming request).
    pub fn add_server_interceptor(&self, interceptor: Arc<dyn ServerRequestInterceptor>) {
        publish(&self.inner.server_interceptors, interceptor);
    }

    /// Invoke from outside the simulation (source [`EXTERNAL_CALLER`]).
    ///
    /// # Errors
    ///
    /// Propagates transport errors and servant failures; see
    /// [`Node::invoke`].
    pub fn invoke(&self, object: &ObjectRef, mut request: Request) -> Result<Reply, OrbError> {
        self.inner.invoke_from(&self.inner.external, object, &mut request)
    }

    /// Invoke with an explicit source node name. Callers that hold the name
    /// as an `Arc<str>` pass a clone and the request is routed without
    /// copying it.
    ///
    /// # Errors
    ///
    /// Propagates transport errors and servant failures.
    pub fn invoke_from(
        &self,
        from: impl Into<Arc<str>>,
        object: &ObjectRef,
        mut request: Request,
    ) -> Result<Reply, OrbError> {
        self.inner.invoke_from(&from.into(), object, &mut request)
    }

    /// Invoke under an explicit [`RetryPolicy`] and optional absolute
    /// virtual-time `deadline` (the composition point for
    /// `Activity::set_timeout`: pass the activity's deadline and the retry
    /// loop can never outlive the activity).
    ///
    /// This is the one retry path, and it gives at-least-once semantics:
    /// the servant may run **more than once** for a single logical call —
    /// exactly the delivery guarantee the paper specifies for Signals
    /// (§3.4), which is why Actions must be idempotent.
    ///
    /// The request is stamped with a [`Request::delivery_id`] — once per
    /// *logical* call, before the first attempt — so every retry shares the
    /// id and dedup-guarded receivers process the call effect-once. Every
    /// attempt sends that one stamped request: it is borrowed, not cloned,
    /// and the client interceptors overwrite the contexts they set on the
    /// previous attempt. Per attempt, the target node's health is reported
    /// to the context's failure detector (if any).
    ///
    /// # Errors
    ///
    /// Transport errors once the policy's budget is spent,
    /// [`OrbError::DeadlineExceeded`] when the deadline cuts the loop short
    /// (including mid-backoff), and non-retryable failures immediately.
    pub fn invoke_with_policy(
        &self,
        from: impl Into<Arc<str>>,
        object: &ObjectRef,
        mut request: Request,
        policy: &RetryPolicy,
        deadline: Option<Duration>,
    ) -> Result<Reply, OrbError> {
        let from = from.into();
        self.inner.stamp_delivery_id(&from, &mut request);
        // Handles on the two names the loop reports, so the attempts can
        // borrow the request itself mutably.
        let delivery_id = Arc::clone(request.shared_delivery_id().expect("stamped above"));
        let operation = request.operation.clone();
        let env = &self.inner.env;
        let detector = env.detector.as_ref();
        policy.run(self.clock(), deadline, &operation, &delivery_id, |attempt| {
            // Each attempt is its own span, tagged with the shared logical
            // delivery id; re-attempts (attempt > 0) bump the retry
            // counter. Both are single-atomic-load no-ops when telemetry
            // is absent or disabled.
            let span = env.span(|| format!("attempt:{operation}"));
            if attempt > 0 {
                if let Some(telemetry) = span.telemetry() {
                    telemetry.metrics().incr("retry_attempts_total");
                }
            }
            span.attr("delivery_id", &delivery_id);
            span.attr("attempt", attempt);
            span.attr("to", object.node());
            let result = self.inner.invoke_from(&from, object, &mut request);
            if let Err(e) = &result {
                span.attr("error", e);
            }
            drop(span);
            if let Some(detector) = detector {
                match &result {
                    Ok(_) => detector.record_success(object.node()),
                    Err(e) if e.is_retryable() => detector.record_failure(object.node()),
                    Err(_) => {}
                }
            }
            result
        })
    }
}

impl OrbInner {
    fn stamp_delivery_id(&self, from: &str, request: &mut Request) {
        if request.delivery_id().is_none() {
            let seq = self.delivery_seq.fetch_add(1, Ordering::Relaxed);
            request.set_delivery_id(format!("{from}#{seq}"));
        }
    }

    /// Stamp the route and (if absent) a fresh delivery id — once per
    /// logical call, before client interceptors run, so every request on
    /// the wire is dedup-addressable and interceptors know both ends.
    fn prepare_request(&self, from: &Arc<str>, object: &ObjectRef, request: &mut Request) {
        self.stamp_delivery_id(from, request);
        request.set_route(Arc::clone(from), Arc::clone(object.shared_node()));
    }

    /// The servant behind `object`.
    fn locate(&self, object: &ObjectRef) -> Result<Arc<dyn Servant>, OrbError> {
        let node = self
            .nodes
            .read()
            .get(object.node())
            .cloned()
            .ok_or_else(|| OrbError::NodeNotFound(object.node().to_owned()))?;
        let servant = node.servants.read().get(&object.id()).cloned();
        servant.ok_or(OrbError::ObjectNotFound(object.id()))
    }

    /// One message leg through the network: how many copies arrive, or the
    /// transport error the caller sees instead.
    fn leg(&self, from: &str, to: &str, request: &Request) -> Result<u32, OrbError> {
        match self.network.transmit(from, to) {
            Delivery::Delivered { copies, .. } => Ok(copies),
            Delivery::Dropped => {
                Err(OrbError::Timeout { operation: request.operation().to_owned() })
            }
            Delivery::Partitioned => {
                Err(OrbError::Partitioned { from: from.to_owned(), to: to.to_owned() })
            }
        }
    }

    /// Dispatch (more than once, when the network duplicated the message).
    /// The first execution's result — and the reply contexts its server
    /// interceptors attached — is what rides back in the reply; duplicate
    /// executions model redelivery of the same message. A veto partway
    /// through the server interceptors still unwinds the ones that already
    /// ran, so no per-request state they established outlives the request.
    fn serve(
        &self,
        servant: &dyn Servant,
        request: &Request,
        copies: u32,
    ) -> Result<(Result<Value, OrbError>, ServiceContext), OrbError> {
        let server_interceptors = snapshot(&self.server_interceptors);
        let mut first = None;
        for _ in 0..copies {
            for (ran, si) in server_interceptors.iter().enumerate() {
                if let Err(veto) = si.receive_request(request) {
                    send_reply(&server_interceptors[..ran], request, &mut Reply::new(Value::Null));
                    return Err(veto);
                }
            }
            let result = servant.dispatch(request);
            let mut scratch = Reply::new(Value::Null);
            send_reply(&server_interceptors, request, &mut scratch);
            first.get_or_insert((result, scratch.contexts));
        }
        Ok(first.expect("at least one delivery"))
    }

    /// One attempt. The request is the caller's: a retry loop passes the
    /// same one again, so what is stamped here must be idempotent (the
    /// delivery id is kept, the route and the interceptors' contexts are
    /// overwritten).
    fn invoke_from(
        &self,
        from: &Arc<str>,
        object: &ObjectRef,
        request: &mut Request,
    ) -> Result<Reply, OrbError> {
        self.prepare_request(from, object, request);
        // 1. Client interceptors stamp the outgoing request. A veto
        //    partway through still notifies the interceptors that already
        //    ran, so their per-request state unwinds.
        let client_interceptors = snapshot(&self.client_interceptors);
        for (ran, ci) in client_interceptors.iter().enumerate() {
            if let Err(e) = ci.send_request(request) {
                let veto = match e {
                    veto @ OrbError::InterceptorVeto(_) => veto,
                    other => OrbError::InterceptorVeto(format!("{}: {other}", ci.name())),
                };
                notify_exception(&client_interceptors[..ran], request, &veto);
                return Err(veto);
            }
        }

        match self.invoke_transport(from, object, request) {
            Ok(mut reply) => {
                for ci in client_interceptors.iter().rev() {
                    ci.receive_reply(request, &mut reply);
                }
                Ok(reply)
            }
            Err(e) => {
                // No reply came back (transport loss, servant failure, or
                // a server-side veto): the error-path counterpart of
                // `receive_reply`.
                notify_exception(&client_interceptors, request, &e);
                Err(e)
            }
        }
    }

    fn invoke_transport(
        &self,
        from: &str,
        object: &ObjectRef,
        request: &Request,
    ) -> Result<Reply, OrbError> {
        // 2.–4. Locate the target, cross the network, dispatch.
        let servant = self.locate(object)?;
        let copies = self.leg(from, object.node(), request)?;
        let (result, contexts) = self.serve(servant.as_ref(), request, copies)?;

        // 5. Reply leg through the network: a dropped reply means the caller
        //    times out even though the servant already executed — the classic
        //    at-least-once hazard.
        self.leg(object.node(), from, request)?;

        let mut reply = Reply::new(result?);
        reply.contexts = contexts;
        reply.deliveries = copies;
        Ok(reply)
    }
}

/// Tell every interceptor in `ran` (reverse order) that the invocation
/// failed without a reply.
fn notify_exception(ran: &[Arc<dyn ClientRequestInterceptor>], request: &Request, error: &OrbError) {
    for ci in ran.iter().rev() {
        ci.receive_exception(request, error);
    }
}

/// Let every server interceptor in `ran` (reverse order) tear down what its
/// `receive_request` established.
fn send_reply(ran: &[Arc<dyn ServerRequestInterceptor>], request: &Request, reply: &mut Reply) {
    for si in ran.iter().rev() {
        si.send_reply(request, reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use std::sync::atomic::AtomicU32;

    struct Counter {
        hits: AtomicU32,
    }
    impl Servant for Counter {
        fn dispatch(&self, req: &Request) -> Result<Value, OrbError> {
            match req.operation() {
                "hit" => {
                    let n = self.hits.fetch_add(1, Ordering::SeqCst) + 1;
                    Ok(Value::U64(u64::from(n)))
                }
                "fail" => Err(OrbError::Application("deliberate".into())),
                other => Err(OrbError::BadOperation(other.to_owned())),
            }
        }
    }

    fn counter() -> Arc<Counter> {
        Arc::new(Counter { hits: AtomicU32::new(0) })
    }

    fn traced_orb(telemetry: &telemetry::Telemetry) -> Orb {
        let env = Env { telemetry: Some(telemetry.clone()), ..Default::default() };
        Orb::builder().env(env.wired()).build()
    }

    #[test]
    #[should_panic(expected = "discard the planes")]
    fn clock_after_env_is_refused() {
        let _ = Orb::builder().env(Env::new()).clock(SimClock::new());
    }

    #[test]
    fn basic_invocation() {
        let orb = Orb::new();
        let node = orb.add_node("n1").unwrap();
        let c = counter();
        let obj = node.activate_arc("Counter", c.clone()).unwrap();
        let reply = orb.invoke(&obj, Request::new("hit")).unwrap();
        assert_eq!(reply.result.as_u64(), Some(1));
        assert_eq!(c.hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn node_to_node_invocation() {
        let orb = Orb::new();
        let n1 = orb.add_node("n1").unwrap();
        let n2 = orb.add_node("n2").unwrap();
        let obj = n2.activate_arc("Counter", counter()).unwrap();
        let reply = n1.invoke(&obj, Request::new("hit")).unwrap();
        assert_eq!(reply.result.as_u64(), Some(1));
    }

    #[test]
    fn duplicate_node_rejected() {
        let orb = Orb::new();
        orb.add_node("n").unwrap();
        assert!(matches!(orb.add_node("n"), Err(OrbError::DuplicateNode(_))));
    }

    #[test]
    fn unknown_object_and_node() {
        let orb = Orb::new();
        let node = orb.add_node("n").unwrap();
        let obj = node.activate("C", |_req: &Request| Ok(Value::Null)).unwrap();
        assert!(node.deactivate(&obj));
        assert!(!node.deactivate(&obj));
        assert!(matches!(orb.invoke(&obj, Request::new("x")), Err(OrbError::ObjectNotFound(_))));
        let ghost = ObjectRef::new(ObjectId::new(99, 1), "ghost", "C");
        assert!(matches!(orb.invoke(&ghost, Request::new("x")), Err(OrbError::NodeNotFound(_))));
    }

    #[test]
    fn application_errors_propagate() {
        let orb = Orb::new();
        let node = orb.add_node("n").unwrap();
        let obj = node.activate_arc("Counter", counter()).unwrap();
        assert!(matches!(orb.invoke(&obj, Request::new("fail")), Err(OrbError::Application(_))));
        assert!(matches!(orb.invoke(&obj, Request::new("nope")), Err(OrbError::BadOperation(_))));
    }

    #[test]
    fn dropped_messages_time_out_and_retries_recover() {
        // 50% drop: a single shot will eventually fail, but at-least-once
        // delivery with a healthy budget succeeds.
        let orb = Orb::builder().network(NetworkConfig::lossy(0.5, 0.0, 11)).build();
        let node = orb.add_node("srv").unwrap();
        let c = counter();
        let obj = node.activate_arc("Counter", c.clone()).unwrap();
        let policy = RetryPolicy::immediate(65);
        let reply = orb
            .invoke_with_policy(EXTERNAL_CALLER, &obj, Request::new("hit"), &policy, None)
            .unwrap();
        assert!(reply.result.as_u64().unwrap() >= 1);
        assert!(c.hits.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn at_least_once_does_not_retry_application_errors() {
        let orb = Orb::new();
        let node = orb.add_node("srv").unwrap();
        let c = counter();
        let obj = node.activate_arc("Counter", c.clone()).unwrap();
        let policy = RetryPolicy::immediate(11);
        let err = orb
            .invoke_with_policy(EXTERNAL_CALLER, &obj, Request::new("fail"), &policy, None)
            .unwrap_err();
        assert!(matches!(err, OrbError::Application(_)));
        assert_eq!(orb.network().stats().sent, 2, "one request leg, one reply leg");
    }

    #[test]
    fn duplication_executes_servant_twice() {
        let orb = Orb::builder().network(NetworkConfig::lossy(0.0, 1.0, 5)).build();
        let node = orb.add_node("srv").unwrap();
        let c = counter();
        let obj = node.activate_arc("Counter", c.clone()).unwrap();
        let reply = orb.invoke(&obj, Request::new("hit")).unwrap();
        assert_eq!(reply.deliveries, 2);
        assert_eq!(c.hits.load(Ordering::SeqCst), 2);
        // The reply carries the FIRST execution's result.
        assert_eq!(reply.result.as_u64(), Some(1));
    }

    #[test]
    fn policy_invocation_shares_one_delivery_id_across_redeliveries() {
        use crate::network::FaultScript;
        use crate::retry::RetryPolicy;
        use parking_lot::Mutex;

        let orb = Orb::builder().network(NetworkConfig::lossy(0.0, 0.0, 7)).build();
        // Drop the first request leg (forcing a retry), duplicate the
        // retried one (forcing a redelivery): three servant-visible
        // deliveries of ONE logical call.
        orb.network().install_script(FaultScript::new().drop_nth(0).duplicate_nth(1));
        let node = orb.add_node("srv").unwrap();
        let seen: Arc<Mutex<Vec<Option<String>>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let obj = node
            .activate("C", move |req: &Request| {
                seen2.lock().push(req.delivery_id().map(str::to_owned));
                Ok(Value::Null)
            })
            .unwrap();
        orb.invoke_with_policy(
            EXTERNAL_CALLER,
            &obj,
            Request::new("x"),
            &RetryPolicy::immediate(3),
            None,
        )
        .unwrap();
        let seen = seen.lock();
        assert_eq!(seen.len(), 2, "dropped attempt never reached the servant");
        assert_eq!(seen[0], seen[1], "retry and duplicate share the logical id");
        assert!(seen[0].as_deref().unwrap().starts_with(EXTERNAL_CALLER));
    }

    #[test]
    fn policy_invocation_feeds_the_failure_detector() {
        use crate::detector::{DetectorConfig, FailureDetector, HealthStatus};
        use crate::retry::RetryPolicy;
        use std::time::Duration;

        let clock = SimClock::new();
        let detector = FailureDetector::with_config(
            clock.clone(),
            DetectorConfig {
                suspect_after: 1,
                quarantine_after: 3,
                probe_interval: Duration::from_millis(50),
            },
        );
        let orb = Orb::builder()
            .network(NetworkConfig::lossy(1.0, 0.0, 9))
            .env(Env { clock, detector: Some(detector.clone()), ..Default::default() }.wired())
            .build();
        let node = orb.add_node("srv").unwrap();
        let obj = node.activate_arc("Counter", counter()).unwrap();
        let err = orb
            .invoke_with_policy(
                EXTERNAL_CALLER,
                &obj,
                Request::new("hit"),
                &RetryPolicy::immediate(3),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, OrbError::Timeout { .. }));
        assert_eq!(detector.status("srv"), HealthStatus::Quarantined);
        assert_eq!(detector.suspicion("srv"), 3, "one failure per attempt");
    }

    #[test]
    fn policy_invocation_respects_the_deadline() {
        use crate::retry::RetryPolicy;
        use std::time::Duration;

        let orb = Orb::builder().network(NetworkConfig::lossy(1.0, 0.0, 13)).build();
        let node = orb.add_node("srv").unwrap();
        let obj = node.activate_arc("Counter", counter()).unwrap();
        let policy = RetryPolicy::new(64).with_base_backoff(Duration::from_millis(10));
        let deadline = Some(Duration::from_millis(25));
        let err = orb
            .invoke_with_policy(EXTERNAL_CALLER, &obj, Request::new("hit"), &policy, deadline)
            .unwrap_err();
        assert!(matches!(err, OrbError::DeadlineExceeded { .. }), "{err:?}");
        assert!(orb.clock().now() <= Duration::from_millis(25));
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        let orb = Orb::new();
        let a = orb.add_node("a").unwrap();
        let b = orb.add_node("b").unwrap();
        let obj = b.activate_arc("Counter", counter()).unwrap();
        orb.network().partition(&[&["a"], &["b"]]);
        assert!(matches!(a.invoke(&obj, Request::new("hit")), Err(OrbError::Partitioned { .. })));
        orb.network().heal();
        assert!(a.invoke(&obj, Request::new("hit")).is_ok());
    }

    #[test]
    fn interceptors_run_in_order_and_veto() {
        use crate::interceptor::ClientRequestInterceptor;
        struct Tag(&'static str);
        impl ClientRequestInterceptor for Tag {
            fn name(&self) -> &str {
                self.0
            }
            fn send_request(&self, request: &mut Request) -> Result<(), OrbError> {
                // Each interceptor appends its tag so order is observable.
                let prior = request
                    .contexts()
                    .get("tags")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned();
                request.contexts_mut().set("tags", Value::Str(prior + self.0));
                Ok(())
            }
        }
        let orb = Orb::new();
        orb.add_client_interceptor(Arc::new(Tag("a")));
        orb.add_client_interceptor(Arc::new(Tag("b")));
        let node = orb.add_node("n").unwrap();
        let obj = node
            .activate("Echo", |req: &Request| {
                Ok(req.contexts().get("tags").cloned().unwrap_or(Value::Null))
            })
            .unwrap();
        let reply = orb.invoke(&obj, Request::new("x")).unwrap();
        assert_eq!(reply.result.as_str(), Some("ab"));

        struct Nope;
        impl ClientRequestInterceptor for Nope {
            fn name(&self) -> &str {
                "nope"
            }
            fn send_request(&self, _r: &mut Request) -> Result<(), OrbError> {
                Err(OrbError::InterceptorVeto("blocked".into()))
            }
        }
        orb.add_client_interceptor(Arc::new(Nope));
        assert!(matches!(
            orb.invoke(&obj, Request::new("x")),
            Err(OrbError::InterceptorVeto(_))
        ));
    }

    #[test]
    fn server_interceptor_sees_context() {
        use crate::interceptor::ServerRequestInterceptor;
        struct Require;
        impl ServerRequestInterceptor for Require {
            fn name(&self) -> &str {
                "require"
            }
            fn receive_request(&self, request: &Request) -> Result<(), OrbError> {
                if request.contexts().get("token").is_some() {
                    Ok(())
                } else {
                    Err(OrbError::InterceptorVeto("missing token".into()))
                }
            }
        }
        let orb = Orb::new();
        orb.add_server_interceptor(Arc::new(Require));
        let node = orb.add_node("n").unwrap();
        let obj = node.activate("C", |_r: &Request| Ok(Value::Null)).unwrap();
        assert!(orb.invoke(&obj, Request::new("x")).is_err());
        let mut req = Request::new("x");
        req.contexts_mut().set("token", Value::Bool(true));
        assert!(orb.invoke(&obj, req).is_ok());
    }

    #[test]
    fn span_interceptors_record_propagated_trees() {
        let telemetry = telemetry::Telemetry::new();
        let orb = traced_orb(&telemetry);
        let node = orb.add_node("srv").unwrap();
        let obj = node.activate("C", |_r: &Request| Ok(Value::Null)).unwrap();
        orb.invoke(&obj, Request::new("ping")).unwrap();
        let tree = telemetry.span_tree();
        assert!(tree.verify().is_empty(), "{:?}", tree.verify());
        let call = tree.find("call:ping").expect("client span");
        let serve = tree.find("serve:ping").expect("server span");
        assert_eq!(serve.context.trace_id, call.context.trace_id, "one trace end to end");
        assert_eq!(serve.context.parent, Some(call.context.span_id));
    }

    #[test]
    fn retry_attempts_become_tagged_child_spans() {
        use crate::network::FaultScript;
        use crate::retry::RetryPolicy;

        let telemetry = telemetry::Telemetry::new();
        let orb = traced_orb(&telemetry);
        orb.network().install_script(FaultScript::new().drop_nth(0));
        let node = orb.add_node("srv").unwrap();
        let obj = node.activate("C", |_r: &Request| Ok(Value::Null)).unwrap();
        orb.invoke_with_policy(
            EXTERNAL_CALLER,
            &obj,
            Request::new("x"),
            &RetryPolicy::immediate(3),
            None,
        )
        .unwrap();
        let tree = telemetry.span_tree();
        assert!(tree.verify().is_empty(), "{:?}", tree.verify());
        let attempts: Vec<_> =
            tree.spans().iter().filter(|s| s.name == "attempt:x").collect();
        assert_eq!(attempts.len(), 2, "dropped first attempt plus the retry");
        assert_eq!(attempts[0].attr("attempt"), Some("0"));
        assert!(attempts[0].attr("error").is_some(), "first attempt timed out");
        assert_eq!(attempts[1].attr("attempt"), Some("1"));
        assert_eq!(
            attempts[0].attr("delivery_id"),
            attempts[1].attr("delivery_id"),
            "attempts share the logical delivery id"
        );
        assert_eq!(telemetry.metrics().counter_value("retry_attempts_total"), 1);
    }

    #[test]
    fn disabled_telemetry_records_nothing_on_the_invoke_path() {
        let telemetry = telemetry::Telemetry::disabled();
        let orb = traced_orb(&telemetry);
        let node = orb.add_node("srv").unwrap();
        let obj = node.activate("C", |_r: &Request| Ok(Value::Null)).unwrap();
        orb.invoke(&obj, Request::new("ping")).unwrap();
        assert_eq!(telemetry.span_count(), 0);
    }

    fn wire_details(
        recorder: &telemetry::FlightRecorder,
        leg: telemetry::RecordKind,
    ) -> Vec<String> {
        let events = recorder.events();
        events.iter().filter(|e| e.kind() == leg).map(telemetry::RecordedEvent::detail).collect()
    }

    #[test]
    fn causal_plane_stamps_wire_events_end_to_end() {
        use telemetry::{CausalityPlane, FlightRecorder, RecordKind};
        let plane = CausalityPlane::new();
        let rec_a = FlightRecorder::new("a", 64);
        let rec_b = FlightRecorder::new("b", 64);
        plane.register(&rec_a);
        plane.register(&rec_b);
        let env = Env { causality: Some(plane.clone()), ..Default::default() };
        let orb = Orb::builder().env(env.wired()).build();
        let a = orb.add_node("a").unwrap();
        let b = orb.add_node("b").unwrap();
        let obj = b.activate("C", |_r: &Request| Ok(Value::Null)).unwrap();
        a.invoke(&obj, Request::new("ping")).unwrap();

        // Four wire events: a sends, b receives, b sends the reply, a
        // receives it — two matched edges, each advancing the clock.
        let sends_a = wire_details(&rec_a, RecordKind::WireSend);
        let recvs_b = wire_details(&rec_b, RecordKind::WireRecv);
        assert_eq!(sends_a.len(), 1, "{sends_a:?}");
        assert_eq!(recvs_b.len(), 1, "{recvs_b:?}");
        assert_eq!(sends_a[0], recvs_b[0], "send and recv share token + route detail");
        assert!(sends_a[0].contains("ping a->b"), "{sends_a:?}");

        let dag = plane.merge().build();
        assert_eq!(dag.message_edges().len(), 2, "request and reply legs matched");
        assert!(dag.verify().is_empty(), "{:?}", dag.verify());
        for &(s, r) in dag.message_edges() {
            assert!(
                dag.events()[r].lamport > dag.events()[s].lamport,
                "receive stamp exceeds send stamp"
            );
        }
    }

    #[test]
    fn causal_plane_survives_duplication_and_loss() {
        use telemetry::{CausalityPlane, FlightRecorder, RecordKind};
        let plane = CausalityPlane::new();
        let rec = FlightRecorder::new("srv", 64);
        plane.register(&rec);
        // Every message duplicated: the servant runs twice per call.
        let orb = Orb::builder()
            .network(NetworkConfig::lossy(0.0, 1.0, 5))
            .env(Env { causality: Some(plane.clone()), ..Default::default() }.wired())
            .build();
        let node = orb.add_node("srv").unwrap();
        let c = counter();
        let obj = node.activate_arc("Counter", c.clone()).unwrap();
        let reply = orb.invoke(&obj, Request::new("hit")).unwrap();
        assert_eq!(reply.deliveries, 2);
        // Two receives of the one send (same token), two reply sends of
        // which only the first matched the caller's receive.
        assert_eq!(wire_details(&rec, RecordKind::WireRecv).len(), 2);
        assert_eq!(wire_details(&rec, RecordKind::WireSend).len(), 2);
        let dag = plane.merge().build();
        assert!(dag.verify().is_empty(), "{:?}", dag.verify());
    }

    #[test]
    fn every_invoke_carries_a_delivery_id() {
        use parking_lot::Mutex;
        let orb = Orb::new();
        let node = orb.add_node("srv").unwrap();
        let seen: Arc<Mutex<Vec<Option<String>>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let obj = node
            .activate("C", move |req: &Request| {
                seen2.lock().push(req.delivery_id().map(str::to_owned));
                Ok(Value::Null)
            })
            .unwrap();
        // Plain invoke (no policy) now stamps too: dedup-addressable
        // everywhere.
        orb.invoke(&obj, Request::new("x")).unwrap();
        orb.invoke(&obj, Request::new("x")).unwrap();
        let seen = seen.lock();
        assert!(seen[0].as_deref().unwrap().starts_with(EXTERNAL_CALLER));
        assert_ne!(seen[0], seen[1], "distinct logical calls get distinct ids");
    }

    #[test]
    fn a_request_is_routed_with_the_names_its_ends_already_hold() {
        use parking_lot::Mutex;
        let orb = Orb::new();
        let client = orb.add_node("client").unwrap();
        let server = orb.add_node("server").unwrap();
        let routes = Arc::new(Mutex::new(Vec::new()));
        let routes2 = Arc::clone(&routes);
        let obj = server
            .activate("C", move |req: &Request| {
                let (from, to) = req.route().expect("routed by the invoke path");
                routes2.lock().push((Arc::clone(from), Arc::clone(to)));
                Ok(Value::Null)
            })
            .unwrap();
        client.invoke(&obj, Request::new("x")).unwrap();
        let routes = routes.lock();
        assert!(Arc::ptr_eq(&routes[0].0, &client.inner.name), "the node's own name, not a copy");
        assert!(Arc::ptr_eq(&routes[0].1, obj.shared_node()), "the reference's name, not a copy");
        assert!(Arc::ptr_eq(obj.shared_node(), &server.inner.name));
    }

    #[test]
    fn orb_handles_are_shared() {
        let orb = Orb::new();
        let orb2 = orb.clone();
        orb.add_node("n").unwrap();
        assert!(orb2.node("n").is_ok());
    }
}
