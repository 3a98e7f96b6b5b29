//! Causal telemetry plane for the Activity Service reproduction.
//!
//! The paper's contribution is that extended-transaction *coordination
//! structure* — Activities, Signals, SignalSets, the 2PC exchanges under
//! them — is explicit; this crate makes that structure observable at
//! runtime without perturbing it:
//!
//! - **Distributed spans** ([`Span`]-less by design: a [`SpanContext`]
//!   triple travels in `Request` service contexts via ORB interceptors,
//!   and the shared [`Telemetry`] recorder keeps the [`SpanRecord`]s).
//!   Timestamps are *virtual*: callers plug a [`TimeSource`] (the ORB's
//!   `SimClock` implements it) so span trees are deterministic per seed.
//! - **A metrics registry** ([`MetricsRegistry`]): counters and
//!   virtual-time histograms behind one `AtomicBool` gate — the disabled
//!   path is a single atomic load, no allocation — with a
//!   Prometheus-text exporter and a JSON snapshot.
//! - **Conformance surfaces** ([`SpanTree::verify`],
//!   [`SpanTree::fingerprint`]) consumed by harness oracle #7, which
//!   checks the span tree is well-formed and replays identically.
//! - **The one protocol-event stream** ([`ProtocolEvent`], [`Origin`]):
//!   every protocol step of every layer, typed and attributed, kept once in
//!   the [`FlightRecorder`] (DESIGN.md §20).
//!
//! The crate sits at the bottom of the workspace dependency stack (it
//! depends only on the vendored `parking_lot`), so every layer — orb,
//! ots, activity-service, wfengine, recovery-log — can instrument itself
//! with explicit handles. The handles travel in one immutable `orb::Env`
//! passed to the four top-level constructors (DESIGN.md §17). There is no
//! process-global state.

mod causality;
mod event;
mod metrics;
mod recorder;
mod sequence;
mod span;
mod tree;

pub use causality::{
    check_perfetto_schema, parse_wire_stamp, wire_stamp, CausalDag, CausalMerge, CausalViolation,
    CausalityPlane, LamportClock, LAMPORT_CONTEXT_KEY,
};
pub use event::{render_steps, Origin, ProtocolEvent, VoteKind};
pub use metrics::{Counter, Histogram, MetricsRegistry};
pub use recorder::{
    FlightRecorder, Record, RecordKind, RecordedEvent, DEFAULT_RECORDER_CAPACITY,
};
pub use sequence::{render_sequence, MSC_FROM, MSC_MSG, MSC_NOTE, MSC_REPLY, MSC_TO};
pub use span::{SpanContext, SpanId, SpanRecord, TraceId};
pub use tree::{CriticalPath, PhaseAttribution, SpanTree};

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::ThreadId;
use std::time::Duration;

/// Service-context key under which [`SpanContext`] travels in requests.
pub const SPAN_CONTEXT_KEY: &str = "telemetry.span";

/// 64-bit FNV-1a offset basis: the seed of every fingerprint in the
/// workspace.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into `hash`, FNV-1a. The one copy behind the recorder,
/// span-tree, causal-merge and sweep fingerprints and the retry jitter.
#[inline]
#[must_use]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A source of virtual time. The ORB's `SimClock` implements this in the
/// `orb` crate (the trait lives here so `telemetry` stays at the bottom
/// of the dependency stack); the default source pins everything to zero,
/// which keeps trees deterministic even without a clock.
pub trait TimeSource: Send + Sync {
    fn virtual_now(&self) -> Duration;
}

struct ZeroTime;

impl TimeSource for ZeroTime {
    fn virtual_now(&self) -> Duration {
        Duration::ZERO
    }
}

struct SpanStore {
    spans: Vec<SpanRecord>,
    index: HashMap<SpanId, usize>,
}

struct TelemetryInner {
    enabled: Arc<AtomicBool>,
    time: Arc<dyn TimeSource>,
    /// Shared allocator for trace and span ids; 0 is reserved for the
    /// disabled context.
    next_id: AtomicU64,
    store: Mutex<SpanStore>,
    /// Per-thread ambient span stack: the ORB server interceptor pushes
    /// before servant dispatch and pops in `send_reply`, so work done on
    /// behalf of a remote caller parents under the propagated context.
    stack: Mutex<HashMap<ThreadId, Vec<SpanContext>>>,
    metrics: MetricsRegistry,
    /// Optional flight recorder mirroring span open/close into the node's
    /// black box (DESIGN.md §15). Write-once after construction so the
    /// span paths read it with a single atomic load, no lock.
    recorder: OnceLock<FlightRecorder>,
}

/// The shared recorder handle. Cloning is cheap (one `Arc` bump); every
/// layer holds its own clone, all feeding one store.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl Telemetry {
    /// An enabled recorder with the zero time source.
    pub fn new() -> Telemetry {
        Telemetry::build(true, Arc::new(ZeroTime))
    }

    /// An enabled recorder reading virtual time from `time` (pass the
    /// simulation clock so span trees are deterministic per seed).
    pub fn with_time(time: Arc<dyn TimeSource>) -> Telemetry {
        Telemetry::build(true, time)
    }

    /// A recorder whose gate starts closed: every instrumentation call is
    /// a single atomic load until [`Telemetry::set_enabled`] opens it.
    pub fn disabled() -> Telemetry {
        Telemetry::build(false, Arc::new(ZeroTime))
    }

    fn build(enabled: bool, time: Arc<dyn TimeSource>) -> Telemetry {
        let gate = Arc::new(AtomicBool::new(enabled));
        Telemetry {
            inner: Arc::new(TelemetryInner {
                enabled: gate.clone(),
                time,
                next_id: AtomicU64::new(1),
                store: Mutex::new(SpanStore {
                    spans: Vec::new(),
                    index: HashMap::new(),
                }),
                stack: Mutex::new(HashMap::new()),
                metrics: MetricsRegistry::with_gate(gate),
                recorder: OnceLock::new(),
            }),
        }
    }

    /// Mirror span open/close into `recorder` from now on. The recorder's
    /// own gate still applies, so attaching to a disabled recorder stays
    /// allocation-free.
    /// Write-once; later calls are ignored.
    pub fn attach_recorder(&self, recorder: FlightRecorder) {
        let _ = self.inner.recorder.set(recorder);
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<FlightRecorder> {
        self.inner.recorder.get().cloned()
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Acquire)
    }

    /// Open or close the gate shared by spans and metrics.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Release);
    }

    /// The metrics registry sharing this recorder's gate.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Current virtual time as seen by this recorder.
    pub fn now(&self) -> Duration {
        self.inner.time.virtual_now()
    }

    fn alloc_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn insert(&self, context: SpanContext, name: &str) {
        let record = SpanRecord {
            context,
            name: name.to_string(),
            start: self.now(),
            end: None,
            attrs: Vec::new(),
        };
        let mut store = self.inner.store.lock();
        let idx = store.spans.len();
        store.index.insert(context.span_id, idx);
        store.spans.push(record);
        drop(store);
        if let Some(recorder) = self.inner.recorder.get() {
            recorder.record(RecordKind::SpanOpen, || name.to_string());
        }
    }

    /// Open a root span in a fresh trace.
    pub fn start_root(&self, name: &str) -> SpanContext {
        if !self.is_enabled() {
            return SpanContext::DISABLED;
        }
        let context = SpanContext {
            trace_id: TraceId(self.alloc_id()),
            span_id: SpanId(self.alloc_id()),
            parent: None,
        };
        self.insert(context, name);
        context
    }

    /// Open a child of an explicit parent (no-op context if the parent
    /// is not recording).
    pub fn start_child(&self, parent: &SpanContext, name: &str) -> SpanContext {
        if !self.is_enabled() || !parent.is_recording() {
            return SpanContext::DISABLED;
        }
        let context = SpanContext {
            trace_id: parent.trace_id,
            span_id: SpanId(self.alloc_id()),
            parent: Some(parent.span_id),
        };
        self.insert(context, name);
        context
    }

    /// Open a span under the calling thread's ambient current span, or a
    /// fresh root when there is none. Does not push.
    pub fn start_span(&self, name: &str) -> SpanContext {
        match self.current() {
            Some(parent) => self.start_child(&parent, name),
            None => self.start_root(name),
        }
    }

    /// Continue a propagated context on the receiving side: a child of
    /// the remote span, in the remote trace.
    pub fn adopt(&self, remote: &SpanContext, name: &str) -> SpanContext {
        if !self.is_enabled() || !remote.is_recording() {
            return SpanContext::DISABLED;
        }
        let context = SpanContext {
            trace_id: remote.trace_id,
            span_id: SpanId(self.alloc_id()),
            parent: Some(remote.span_id),
        };
        self.insert(context, name);
        context
    }

    /// Push a span onto the calling thread's ambient stack.
    pub fn enter(&self, context: SpanContext) {
        if !context.is_recording() {
            return;
        }
        self.inner
            .stack
            .lock()
            .entry(std::thread::current().id())
            .or_default()
            .push(context);
    }

    /// Pop the calling thread's ambient stack.
    pub fn exit(&self) {
        let thread = std::thread::current().id();
        let mut stack = self.inner.stack.lock();
        if let Some(frames) = stack.get_mut(&thread) {
            frames.pop();
            if frames.is_empty() {
                stack.remove(&thread);
            }
        }
    }

    /// The calling thread's current ambient span, if any.
    pub fn current(&self) -> Option<SpanContext> {
        self.inner
            .stack
            .lock()
            .get(&std::thread::current().id())
            .and_then(|frames| frames.last())
            .copied()
    }

    /// Close a span at the current virtual time. Closing an already
    /// closed or non-recording span is a no-op, so error paths can end
    /// unconditionally.
    pub fn end(&self, context: &SpanContext) {
        if !context.is_recording() {
            return;
        }
        let now = self.now();
        let recorder = self.inner.recorder.get().cloned();
        let mirror = recorder.as_ref().is_some_and(FlightRecorder::is_enabled);
        let mut closed_name = None;
        let mut store = self.inner.store.lock();
        if let Some(&idx) = store.index.get(&context.span_id) {
            let record = &mut store.spans[idx];
            if record.end.is_none() {
                record.end = Some(now);
                if mirror {
                    closed_name = Some(record.name.clone());
                }
            }
        }
        drop(store);
        if let (Some(name), Some(recorder)) = (closed_name, recorder) {
            recorder.record(RecordKind::SpanClose, || name);
        }
    }

    /// Attach an attribute (insertion order preserved).
    pub fn set_attr(&self, context: &SpanContext, key: &str, value: &str) {
        if !context.is_recording() {
            return;
        }
        let mut store = self.inner.store.lock();
        if let Some(&idx) = store.index.get(&context.span_id) {
            store.spans[idx]
                .attrs
                .push((key.to_string(), value.to_string()));
        }
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.inner.store.lock().spans.len()
    }

    /// Immutable snapshot of everything recorded so far.
    pub fn span_tree(&self) -> SpanTree {
        SpanTree::new(self.inner.store.lock().spans.clone())
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ambient_stack_parents_spans() {
        let tel = Telemetry::new();
        let root = tel.start_span("root");
        tel.enter(root);
        let child = tel.start_span("child");
        assert_eq!(child.parent, Some(root.span_id));
        assert_eq!(child.trace_id, root.trace_id);
        tel.enter(child);
        let grandchild = tel.start_span("grandchild");
        assert_eq!(grandchild.parent, Some(child.span_id));
        tel.end(&grandchild);
        tel.exit();
        tel.end(&child);
        tel.exit();
        tel.end(&root);
        assert!(tel.current().is_none());
        assert!(tel.span_tree().verify().is_empty());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let tel = Telemetry::disabled();
        let root = tel.start_root("root");
        assert!(!root.is_recording());
        tel.enter(root);
        tel.set_attr(&root, "ignored", "yes");
        tel.end(&root);
        assert_eq!(tel.span_count(), 0);
        assert!(tel.current().is_none());
        tel.set_enabled(true);
        let live = tel.start_root("live");
        assert!(live.is_recording());
        tel.end(&live);
        assert_eq!(tel.span_count(), 1);
    }

    #[test]
    fn adopt_continues_the_remote_trace() {
        let tel = Telemetry::new();
        let remote = tel.start_root("client");
        let server = tel.adopt(&remote, "server");
        assert_eq!(server.trace_id, remote.trace_id);
        assert_eq!(server.parent, Some(remote.span_id));
        tel.end(&server);
        tel.end(&remote);
        assert!(tel.span_tree().verify().is_empty());
    }

    #[test]
    fn double_end_keeps_first_close() {
        let tel = Telemetry::new();
        let root = tel.start_root("root");
        tel.end(&root);
        let first = tel.span_tree().spans()[0].end;
        tel.end(&root);
        assert_eq!(tel.span_tree().spans()[0].end, first);
    }

    #[test]
    fn same_structure_fingerprints_identically() {
        let build = || {
            let tel = Telemetry::new();
            let root = tel.start_root("activity:billing");
            tel.enter(root);
            for name in ["transmit:a", "transmit:b"] {
                let child = tel.start_span(name);
                tel.set_attr(&child, "outcome", "success");
                tel.end(&child);
            }
            tel.exit();
            tel.end(&root);
            tel.span_tree().fingerprint()
        };
        assert_eq!(build(), build());
    }
}
