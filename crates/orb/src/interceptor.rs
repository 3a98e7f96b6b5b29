//! Request interceptors: the hook that lets middleware services piggyback
//! state on every invocation without application cooperation.
//!
//! The Activity Service registers a client interceptor that stamps the
//! current activity context into each outgoing request and a server
//! interceptor that establishes that context on the receiving node before
//! the servant runs (paper §3: "permitting such transactions to span a
//! network of systems connected indirectly by some distribution
//! infrastructure").

use crate::error::OrbError;
use crate::message::{Reply, Request};
use crate::value::Value;
use telemetry::{
    parse_wire_stamp, wire_stamp, CausalityPlane, RecordKind, SpanContext, Telemetry,
    LAMPORT_CONTEXT_KEY, SPAN_CONTEXT_KEY,
};

/// Client-side interception points.
///
/// Interceptors run in registration order on the way out and in reverse
/// order on the way back.
pub trait ClientRequestInterceptor: Send + Sync {
    /// Name used in diagnostics.
    fn name(&self) -> &str;

    /// Called before the request leaves the client node. May attach service
    /// contexts or veto the call by returning an error.
    ///
    /// A retry sends the *same* request again, still carrying what this
    /// interceptor attached on the previous attempt: attach with
    /// [`crate::ServiceContext::set`] or
    /// [`crate::ServiceContext::set_shared`], which replace, so every
    /// attempt leaves as a fresh copy would.
    ///
    /// # Errors
    ///
    /// Returning an error aborts the invocation with
    /// [`OrbError::InterceptorVeto`].
    fn send_request(&self, request: &mut Request) -> Result<(), OrbError> {
        let _ = request;
        Ok(())
    }

    /// Called after a reply (successful or not) returns to the client node.
    fn receive_reply(&self, request: &Request, reply: &mut Reply) {
        let _ = (request, reply);
    }

    /// Called when the invocation fails without a reply leg (transport
    /// loss, partition, servant failure, or a later interceptor's veto) —
    /// the counterpart of `receive_reply` for the error path, so
    /// interceptors that open per-request state in `send_request` can
    /// always close it.
    fn receive_exception(&self, request: &Request, error: &OrbError) {
        let _ = (request, error);
    }
}

/// Server-side interception points.
pub trait ServerRequestInterceptor: Send + Sync {
    /// Name used in diagnostics.
    fn name(&self) -> &str;

    /// Called on the server node before the servant dispatches. May read
    /// service contexts and establish thread/ambient state.
    ///
    /// # Errors
    ///
    /// Returning an error rejects the request with
    /// [`OrbError::InterceptorVeto`].
    fn receive_request(&self, request: &Request) -> Result<(), OrbError> {
        let _ = request;
        Ok(())
    }

    /// Called after the servant ran (even when it failed); may attach reply
    /// contexts and must tear down whatever `receive_request` established.
    /// It also runs when a later interceptor's `receive_request` vetoes the
    /// request: every interceptor whose `receive_request` succeeded is
    /// unwound, in reverse order, before the veto reaches the caller.
    fn send_reply(&self, request: &Request, reply: &mut Reply) {
        let _ = (request, reply);
    }
}

/// Client half of distributed-span propagation: opens a `call:` span per
/// attempt (a child of the calling thread's ambient span, so retries nest
/// under their logical call) and stamps its [`SpanContext`] into the
/// request's service contexts under [`SPAN_CONTEXT_KEY`] — the same §3
/// piggybacking mechanism the Activity Service uses for activity
/// contexts. The span closes in `receive_reply` on success and in
/// `receive_exception` on every failure path.
pub struct SpanClientInterceptor {
    telemetry: Telemetry,
}

impl SpanClientInterceptor {
    pub fn new(telemetry: Telemetry) -> Self {
        SpanClientInterceptor { telemetry }
    }

    fn stamped_span(&self, request: &Request) -> Option<SpanContext> {
        request
            .contexts()
            .get(SPAN_CONTEXT_KEY)
            .and_then(Value::as_str)
            .and_then(SpanContext::from_wire)
    }
}

impl ClientRequestInterceptor for SpanClientInterceptor {
    fn name(&self) -> &str {
        "telemetry-span-client"
    }

    fn send_request(&self, request: &mut Request) -> Result<(), OrbError> {
        if !self.telemetry.is_enabled() {
            return Ok(());
        }
        let span = self
            .telemetry
            .start_span(&format!("call:{}", request.operation()));
        if let Some(id) = request.delivery_id() {
            self.telemetry.set_attr(&span, "delivery_id", id);
        }
        if span.is_recording() {
            request
                .contexts_mut()
                .set(SPAN_CONTEXT_KEY, Value::Str(span.to_wire()));
        }
        Ok(())
    }

    fn receive_reply(&self, request: &Request, _reply: &mut Reply) {
        if let Some(span) = self.stamped_span(request) {
            self.telemetry.end(&span);
        }
    }

    fn receive_exception(&self, request: &Request, error: &OrbError) {
        if let Some(span) = self.stamped_span(request) {
            self.telemetry.set_attr(&span, "error", &error.to_string());
            self.telemetry.end(&span);
        }
    }
}

/// Server half of distributed-span propagation: reads the propagated
/// [`SpanContext`] before the servant dispatches, opens a `serve:` span
/// *continuing the caller's trace id*, and makes it the receiving
/// thread's ambient parent — so whatever the servant does (nested
/// invocations, subordinate-coordinator fan-out under interposition)
/// stays in the superior's trace. `send_reply` tears the ambient state
/// down and closes the span, mirroring the activity-context server
/// interceptor.
pub struct SpanServerInterceptor {
    telemetry: Telemetry,
}

impl SpanServerInterceptor {
    pub fn new(telemetry: Telemetry) -> Self {
        SpanServerInterceptor { telemetry }
    }

    fn remote_span(&self, request: &Request) -> Option<SpanContext> {
        request
            .contexts()
            .get(SPAN_CONTEXT_KEY)
            .and_then(Value::as_str)
            .and_then(SpanContext::from_wire)
    }
}

impl ServerRequestInterceptor for SpanServerInterceptor {
    fn name(&self) -> &str {
        "telemetry-span-server"
    }

    fn receive_request(&self, request: &Request) -> Result<(), OrbError> {
        if !self.telemetry.is_enabled() {
            return Ok(());
        }
        let Some(remote) = self.remote_span(request) else {
            return Ok(());
        };
        let span = self
            .telemetry
            .adopt(&remote, &format!("serve:{}", request.operation()));
        if let Some(id) = request.delivery_id() {
            self.telemetry.set_attr(&span, "delivery_id", id);
        }
        self.telemetry.enter(span);
        Ok(())
    }

    fn send_reply(&self, request: &Request, _reply: &mut Reply) {
        if !self.telemetry.is_enabled() || self.remote_span(request).is_none() {
            return;
        }
        if let Some(span) = self.telemetry.current() {
            self.telemetry.end(&span);
        }
        self.telemetry.exit();
    }
}

/// Client half of the §16 causal plane: ticks the source node's Lamport
/// clock once per send, stamps `"{lamport} {token}"` into the request's
/// service contexts under [`LAMPORT_CONTEXT_KEY`], and mirrors a
/// `wire-send` event (carrying the exact on-wire stamp) into the source
/// node's flight recorder. The token — `{delivery_id}@{lamport}` — is
/// what [`telemetry::CausalMerge`] matches send→receive pairs by: the
/// delivery id names the logical call, the send stamp disambiguates
/// retries so no cross-attempt edges arise. `receive_reply` observes the
/// reply leg's stamp (receive = max + 1).
pub struct LamportClientInterceptor {
    plane: CausalityPlane,
}

impl LamportClientInterceptor {
    pub fn new(plane: CausalityPlane) -> Self {
        LamportClientInterceptor { plane }
    }
}

impl ClientRequestInterceptor for LamportClientInterceptor {
    fn name(&self) -> &str {
        "telemetry-lamport-client"
    }

    fn send_request(&self, request: &mut Request) -> Result<(), OrbError> {
        let Some((from, to)) = request.route().map(|(from, to)| (from.clone(), to.clone())) else {
            // Unrouted request (constructed outside the invoke path):
            // nothing to stamp against.
            return Ok(());
        };
        let lamport = self.plane.clock(&from).tick();
        let token = format!("{}@{lamport}", request.delivery_id().unwrap_or("-"));
        request
            .contexts_mut()
            .set(LAMPORT_CONTEXT_KEY, Value::Str(wire_stamp(lamport, &token)));
        if let Some(recorder) = self.plane.recorder(&from) {
            let operation = request.operation().to_owned();
            recorder.record_stamped(RecordKind::WireSend, lamport, || {
                format!("{token} {operation} {from}->{to}")
            });
        }
        Ok(())
    }

    fn receive_reply(&self, request: &Request, reply: &mut Reply) {
        let Some(from) = request.source() else { return };
        let Some((remote, token)) = reply
            .contexts
            .get(LAMPORT_CONTEXT_KEY)
            .and_then(Value::as_str)
            .and_then(parse_wire_stamp)
        else {
            return;
        };
        let lamport = self.plane.clock(from).observe(remote);
        if let Some(recorder) = self.plane.recorder(from) {
            let token = token.to_owned();
            let operation = request.operation().to_owned();
            let to = request.target().unwrap_or("?").to_owned();
            recorder.record_stamped(RecordKind::WireRecv, lamport, || {
                format!("{token} reply:{operation} {to}->{from}")
            });
        }
    }
}

/// Server half of the §16 causal plane. `receive_request` observes the
/// request's wire stamp on the target node's clock (receive = max + 1)
/// and mirrors a `wire-recv` carrying the same token, so the merge can
/// pair it with the client's `wire-send`. `send_reply` ticks the target
/// node's clock and stamps the reply leg with a fresh token
/// (`{delivery_id}@{lamport}r`): each redelivered copy stamps its own
/// reply send, but only the copy whose contexts ride back is matched by
/// the client's receive — duplicated reply sends stay unmatched, exactly
/// like replies that never traveled.
pub struct LamportServerInterceptor {
    plane: CausalityPlane,
}

impl LamportServerInterceptor {
    pub fn new(plane: CausalityPlane) -> Self {
        LamportServerInterceptor { plane }
    }

    fn request_stamp(request: &Request) -> Option<(u64, &str)> {
        request
            .contexts()
            .get(LAMPORT_CONTEXT_KEY)
            .and_then(Value::as_str)
            .and_then(parse_wire_stamp)
    }
}

impl ServerRequestInterceptor for LamportServerInterceptor {
    fn name(&self) -> &str {
        "telemetry-lamport-server"
    }

    fn receive_request(&self, request: &Request) -> Result<(), OrbError> {
        let Some(to) = request.target() else { return Ok(()) };
        let Some((remote, token)) = Self::request_stamp(request) else {
            return Ok(());
        };
        let lamport = self.plane.clock(to).observe(remote);
        if let Some(recorder) = self.plane.recorder(to) {
            let token = token.to_owned();
            let operation = request.operation().to_owned();
            let from = request.source().unwrap_or("?").to_owned();
            let to = to.to_owned();
            recorder.record_stamped(RecordKind::WireRecv, lamport, || {
                format!("{token} {operation} {from}->{to}")
            });
        }
        Ok(())
    }

    fn send_reply(&self, request: &Request, reply: &mut Reply) {
        let (Some(from), Some(to)) = (request.source(), request.target()) else {
            return;
        };
        // Only stamp replies to requests that carried a stamp: the causal
        // plane is end-to-end or not at all.
        if Self::request_stamp(request).is_none() {
            return;
        }
        let lamport = self.plane.clock(to).tick();
        let token = format!("{}@{lamport}r", request.delivery_id().unwrap_or("-"));
        reply
            .contexts
            .set(LAMPORT_CONTEXT_KEY, Value::Str(wire_stamp(lamport, &token)));
        if let Some(recorder) = self.plane.recorder(to) {
            let operation = request.operation().to_owned();
            let (from, to) = (from.to_owned(), to.to_owned());
            recorder.record_stamped(RecordKind::WireSend, lamport, || {
                format!("{token} reply:{operation} {to}->{from}")
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    struct Stamp;
    impl ClientRequestInterceptor for Stamp {
        fn name(&self) -> &str {
            "stamp"
        }
        fn send_request(&self, request: &mut Request) -> Result<(), OrbError> {
            request.contexts_mut().set("stamp", Value::Bool(true));
            Ok(())
        }
    }

    struct Veto;
    impl ClientRequestInterceptor for Veto {
        fn name(&self) -> &str {
            "veto"
        }
        fn send_request(&self, _request: &mut Request) -> Result<(), OrbError> {
            Err(OrbError::InterceptorVeto("no".into()))
        }
    }

    #[test]
    fn default_hooks_are_noops() {
        struct Passive;
        impl ClientRequestInterceptor for Passive {
            fn name(&self) -> &str {
                "passive"
            }
        }
        impl ServerRequestInterceptor for Passive {
            fn name(&self) -> &str {
                "passive"
            }
        }
        let mut req = Request::new("x");
        assert!(ClientRequestInterceptor::send_request(&Passive, &mut req).is_ok());
        assert!(ServerRequestInterceptor::receive_request(&Passive, &req).is_ok());
    }

    #[test]
    fn stamping_interceptor_mutates_request() {
        let mut req = Request::new("x");
        Stamp.send_request(&mut req).unwrap();
        assert_eq!(req.contexts().get("stamp").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn veto_returns_error() {
        let mut req = Request::new("x");
        assert!(Veto.send_request(&mut req).is_err());
    }
}
