//! Span identities and records.
//!
//! A [`SpanContext`] is the triple the paper's §3 implicit-propagation
//! machinery carries in `Request` service contexts: a trace id naming the
//! causal tree, a span id naming this node of it, and the parent span id.
//! [`SpanRecord`] is the recorder-side state: name, virtual-time interval
//! (from `SimClock`, via the recorder's `TimeSource`), attributes, and
//! point events with a global sequence number so cross-span orderings
//! (e.g. the fig. 5 coordinator loop) survive tree reconstruction.

use std::fmt;
use std::time::Duration;

/// Identifier of one causal tree (one activity/transaction episode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifier of one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The propagated part of a span: what travels in a service context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    pub trace_id: TraceId,
    pub span_id: SpanId,
    pub parent: Option<SpanId>,
}

impl SpanContext {
    /// The null context returned by a disabled recorder: every operation
    /// on it is a no-op. Id 0 is never allocated to a live span.
    pub const DISABLED: SpanContext = SpanContext {
        trace_id: TraceId(0),
        span_id: SpanId(0),
        parent: None,
    };

    /// True when this context names a live, recorded span.
    pub fn is_recording(&self) -> bool {
        self.span_id.0 != 0
    }

    /// Wire encoding carried in `Request` service contexts:
    /// `"{trace_id}:{span_id}"`, both as fixed-width hex.
    pub fn to_wire(&self) -> String {
        format!("{}:{}", self.trace_id, self.span_id)
    }

    /// Parse the wire encoding back; the receiver becomes a child of the
    /// encoded span, so `parent` is the sender's span id.
    pub fn from_wire(wire: &str) -> Option<SpanContext> {
        let (trace, span) = wire.split_once(':')?;
        let trace_id = u64::from_str_radix(trace, 16).ok()?;
        let span_id = u64::from_str_radix(span, 16).ok()?;
        Some(SpanContext {
            trace_id: TraceId(trace_id),
            span_id: SpanId(span_id),
            parent: None,
        })
    }
}

/// Recorder-side state of one span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub context: SpanContext,
    pub name: String,
    /// Virtual-time open instant.
    pub start: Duration,
    /// Virtual-time close instant; `None` while the span is still open
    /// (a well-formed finished tree has no open spans).
    pub end: Option<Duration>,
    /// Attributes in insertion order.
    pub attrs: Vec<(String, String)>,
    /// Point events `(global sequence, text)`. The sequence numbers are
    /// allocated from one recorder-wide counter, so events from different
    /// spans can be merged back into their emission order — that merged
    /// stream is the coordinator projection oracle #7 compares against the
    /// recorded fig. 5 steps.
    pub events: Vec<(u64, String)>,
}

impl SpanRecord {
    /// Attribute lookup (first match).
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip() {
        let ctx = SpanContext {
            trace_id: TraceId(0xDEAD_BEEF),
            span_id: SpanId(42),
            parent: Some(SpanId(7)),
        };
        let wire = ctx.to_wire();
        let back = SpanContext::from_wire(&wire).expect("parse");
        assert_eq!(back.trace_id, ctx.trace_id);
        assert_eq!(back.span_id, ctx.span_id);
        assert_eq!(back.parent, None);
    }

    #[test]
    fn malformed_wire_rejected() {
        assert!(SpanContext::from_wire("nope").is_none());
        assert!(SpanContext::from_wire("zz:1").is_none());
        assert!(SpanContext::from_wire("").is_none());
    }

    #[test]
    fn disabled_context_is_not_recording() {
        assert!(!SpanContext::DISABLED.is_recording());
    }
}
