//! Actions: the receivers of Signals.
//!
//! Mirrors the paper's IDL:
//!
//! ```idl
//! interface Action {
//!     Outcome process_signal(in Signal sig) raises(ActionError);
//! };
//! ```
//!
//! Because Signal delivery is **at-least-once** (§3.4), every Action must be
//! idempotent: processing the same Signal twice must equal processing it
//! once. The [`RemoteActionProxy`]/[`ActionServant`] pair carries this
//! contract across the simulated network.

use std::sync::Arc;
use std::time::Duration;

use orb::{Orb, Request, RetryPolicy, Servant, Value};

use crate::error::{ActionError, ActivityError};
use crate::outcome::Outcome;
use crate::signal::Signal;

/// A participant in activity coordination: receives Signals, returns
/// Outcomes.
pub trait Action: Send + Sync {
    /// Handle one signal. **Must be idempotent**: the same signal may be
    /// delivered more than once.
    ///
    /// # Errors
    ///
    /// Returns [`ActionError`] when the action cannot process the signal;
    /// coordinators convert the failure into an `"error"` outcome and let
    /// the signal set decide how the protocol proceeds.
    fn process_signal(&self, signal: &Signal) -> Result<Outcome, ActionError>;

    /// Diagnostic name, used in traces and recovery logs.
    fn name(&self) -> &str {
        "action"
    }
}

impl<T: Action + ?Sized> Action for Arc<T> {
    fn process_signal(&self, signal: &Signal) -> Result<Outcome, ActionError> {
        (**self).process_signal(signal)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Adapt a closure into a named [`Action`].
pub struct FnAction<F> {
    name: String,
    f: F,
}

impl<F> FnAction<F>
where
    F: Fn(&Signal) -> Result<Outcome, ActionError> + Send + Sync,
{
    /// Wrap `f` under `name`.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnAction { name: name.into(), f }
    }
}

impl<F> Action for FnAction<F>
where
    F: Fn(&Signal) -> Result<Outcome, ActionError> + Send + Sync,
{
    fn process_signal(&self, signal: &Signal) -> Result<Outcome, ActionError> {
        (self.f)(signal)
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// Operation name used for signal delivery over the ORB.
pub const PROCESS_SIGNAL_OP: &str = "process_signal";

/// Server side: exposes a local [`Action`] as an ORB [`Servant`], so remote
/// coordinators can signal it.
pub struct ActionServant {
    action: Arc<dyn Action>,
}

impl ActionServant {
    /// Wrap `action` for activation on a node.
    pub fn new(action: Arc<dyn Action>) -> Self {
        ActionServant { action }
    }
}

impl Servant for ActionServant {
    fn dispatch(&self, request: &Request) -> Result<Value, orb::OrbError> {
        if request.operation() != PROCESS_SIGNAL_OP {
            return Err(orb::OrbError::BadOperation(request.operation().to_owned()));
        }
        let signal_value = request
            .arg("signal")
            .ok_or_else(|| orb::OrbError::Codec("missing signal argument".into()))?;
        let signal = Signal::from_value(signal_value)
            .map_err(|e| orb::OrbError::Codec(e.to_string()))?;
        match self.action.process_signal(&signal) {
            Ok(outcome) => Ok(outcome.to_value()),
            Err(e) => Err(orb::OrbError::Application(e.message().to_owned())),
        }
    }
}

/// Client side: an [`Action`] that forwards every signal across the ORB with
/// **at-least-once** retry semantics, to an [`ActionServant`] activated
/// elsewhere.
pub struct RemoteActionProxy {
    name: String,
    orb: Orb,
    from_node: Arc<str>,
    target: orb::ObjectRef,
    policy: RetryPolicy,
    deadline: Option<Duration>,
}

impl RemoteActionProxy {
    /// Build a proxy that invokes `target` from `from_node`.
    pub fn new(
        name: impl Into<String>,
        orb: Orb,
        from_node: impl Into<Arc<str>>,
        target: orb::ObjectRef,
    ) -> Self {
        RemoteActionProxy {
            name: name.into(),
            orb,
            from_node: from_node.into(),
            target,
            policy: RetryPolicy::AT_LEAST_ONCE,
            deadline: None,
        }
    }

    /// Deliver signals under an explicit [`RetryPolicy`] (backoff timed on
    /// the ORB's virtual clock) instead of the default
    /// [`RetryPolicy::AT_LEAST_ONCE`].
    #[must_use]
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Bound every delivery (including its backoff sleeps) by an absolute
    /// virtual-time deadline — typically the owning activity's
    /// [`crate::Activity::deadline`], so retry can never outlive the
    /// activity's own timeout.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The remote object this proxy signals.
    pub fn target(&self) -> &orb::ObjectRef {
        &self.target
    }
}

impl Action for RemoteActionProxy {
    fn process_signal(&self, signal: &Signal) -> Result<Outcome, ActionError> {
        let mut request = Request::new(PROCESS_SIGNAL_OP).with_arg("signal", signal.to_value());
        // Bridge the activity-level delivery id down to the ORB layer: every
        // retry and every duplicate of this call shares it, so a
        // `DedupWindow` on the server side is effect-once even when the
        // remote action itself is not wrapped in `ExactlyOnceAction`.
        if let Some(id) = signal.shared_delivery_id() {
            request.set_delivery_id(Arc::clone(id));
        }
        let from = Arc::clone(&self.from_node);
        let reply = self
            .orb
            .invoke_with_policy(from, &self.target, request, &self.policy, self.deadline)
            .map_err(|e| ActionError::new(e.to_string()))?;
        Outcome::from_value(&reply.result).map_err(|e: ActivityError| ActionError::new(e.to_string()))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orb::NetworkConfig;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn fn_action_delegates() {
        let a = FnAction::new("echo", |sig: &Signal| {
            Ok(Outcome::new("seen").with_data(Value::from(sig.name())))
        });
        let out = a.process_signal(&Signal::new("ping", "set")).unwrap();
        assert_eq!(out.data().as_str(), Some("ping"));
        assert_eq!(a.name(), "echo");
    }

    #[test]
    fn remote_proxy_roundtrip() {
        let orb = Orb::new();
        let node = orb.add_node("server").unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let hits2 = Arc::clone(&hits);
        let action: Arc<dyn Action> = Arc::new(FnAction::new("counter", move |_s: &Signal| {
            hits2.fetch_add(1, Ordering::SeqCst);
            Ok(Outcome::done())
        }));
        let obj = node.activate("Action", ActionServant::new(action)).unwrap();
        let proxy = RemoteActionProxy::new("counter-proxy", orb.clone(), "client", obj);
        let out = proxy.process_signal(&Signal::new("go", "set")).unwrap();
        assert!(out.is_done());
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn remote_proxy_survives_lossy_network() {
        // 40% drop: at-least-once retry gets the signal through, possibly
        // executing it several times — the action must tolerate that.
        let orb = Orb::builder().network(NetworkConfig::lossy(0.4, 0.2, 99)).build();
        let node = orb.add_node("server").unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let hits2 = Arc::clone(&hits);
        let action: Arc<dyn Action> = Arc::new(FnAction::new("idempotent", move |_s: &Signal| {
            hits2.fetch_add(1, Ordering::SeqCst);
            Ok(Outcome::done())
        }));
        let obj = node.activate("Action", ActionServant::new(action)).unwrap();
        let proxy = RemoteActionProxy::new("p", orb, "client", obj)
            .with_policy(RetryPolicy::immediate(65));
        let out = proxy.process_signal(&Signal::new("go", "set")).unwrap();
        assert!(out.is_done());
        assert!(hits.load(Ordering::SeqCst) >= 1, "delivered at least once");
    }

    #[test]
    fn remote_action_error_propagates() {
        let orb = Orb::new();
        let node = orb.add_node("server").unwrap();
        let action: Arc<dyn Action> =
            Arc::new(FnAction::new("grumpy", |_s: &Signal| Err(ActionError::new("no thanks"))));
        let obj = node.activate("Action", ActionServant::new(action)).unwrap();
        let proxy = RemoteActionProxy::new("p", orb, "client", obj);
        let err = proxy.process_signal(&Signal::new("go", "set")).unwrap_err();
        assert!(err.message().contains("no thanks"));
    }

    #[test]
    fn proxy_policy_retries_through_a_lossy_network() {
        let orb = Orb::builder()
            .network(NetworkConfig::lossy(0.4, 0.0, 77))
            .build();
        let node = orb.add_node("server").unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let hits2 = Arc::clone(&hits);
        let action: Arc<dyn Action> = Arc::new(FnAction::new("idempotent", move |_s: &Signal| {
            hits2.fetch_add(1, Ordering::SeqCst);
            Ok(Outcome::done())
        }));
        let obj = node.activate("Action", ActionServant::new(action)).unwrap();
        let proxy = RemoteActionProxy::new("p", orb, "client", obj)
            .with_policy(RetryPolicy::new(64).with_base_backoff(Duration::from_micros(100)));
        let out = proxy.process_signal(&Signal::new("go", "set")).unwrap();
        assert!(out.is_done());
        assert!(hits.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn proxy_deadline_bounds_retry_and_reports_the_exhausted_budget() {
        // Total loss: without a deadline the policy would burn all its
        // attempts; with one, it stops as soon as the next backoff would
        // cross it — the activity's timeout composes with retry.
        let orb = Orb::builder()
            .network(NetworkConfig::lossy(1.0, 0.0, 78))
            .build();
        let node = orb.add_node("server").unwrap();
        let action: Arc<dyn Action> =
            Arc::new(FnAction::new("never", |_s: &Signal| Ok(Outcome::done())));
        let obj = node.activate("Action", ActionServant::new(action)).unwrap();
        let proxy = RemoteActionProxy::new("p", orb.clone(), "client", obj)
            .with_policy(RetryPolicy::new(1000).with_base_backoff(Duration::from_millis(1)))
            .with_deadline(Duration::from_millis(10));
        let err = proxy.process_signal(&Signal::new("go", "set")).unwrap_err();
        assert!(err.message().contains("deadline exceeded"), "{}", err.message());
        assert!(orb.clock().now() <= Duration::from_millis(10));
    }

    #[test]
    fn proxy_bridges_the_signal_delivery_id_onto_the_request() {
        use orb::Servant as _;
        use parking_lot::Mutex;

        let orb = Orb::new();
        let node = orb.add_node("server").unwrap();
        let seen: Arc<Mutex<Vec<Option<String>>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let action: Arc<dyn Action> =
            Arc::new(FnAction::new("a", |_s: &Signal| Ok(Outcome::done())));
        let servant = ActionServant::new(action);
        let obj = node
            .activate("Action", move |req: &Request| {
                seen2.lock().push(req.delivery_id().map(str::to_owned));
                servant.dispatch(req)
            })
            .unwrap();
        let proxy = RemoteActionProxy::new("p", orb, "client", obj);
        proxy
            .process_signal(&Signal::new("go", "set").with_delivery_id("act-1:set:1"))
            .unwrap();
        assert_eq!(seen.lock().as_slice(), &[Some("act-1:set:1".to_owned())]);
    }

    #[test]
    fn servant_rejects_unknown_operations() {
        let action: Arc<dyn Action> =
            Arc::new(FnAction::new("a", |_s: &Signal| Ok(Outcome::done())));
        let servant = ActionServant::new(action);
        let err = servant.dispatch(&Request::new("bogus")).unwrap_err();
        assert!(matches!(err, orb::OrbError::BadOperation(_)));
        let err = servant.dispatch(&Request::new(PROCESS_SIGNAL_OP)).unwrap_err();
        assert!(matches!(err, orb::OrbError::Codec(_)));
    }
}
