//! Per-node flight recorder: a bounded ring of causally-ordered protocol
//! events on the virtual clock.
//!
//! The span tree answers "what was the causal structure"; the recorder
//! answers "what did *this node* believe, in order, right before it
//! failed". It is also the one journal: every protocol step
//! ([`ProtocolEvent`]) is kept here typed, beside its [`Origin`], next to
//! the textual records of the other planes — span open/close from
//! [`crate::Telemetry`], failpoint hits, detector transitions, partition
//! open/heal, restarts, wire events — each stamped with a recorder-wide
//! sequence number and the virtual time it happened. Whoever wants the
//! whole account rather than the last moments passes a capacity that never
//! evicts (`usize::MAX`) and filters [`FlightRecorder::steps`].
//!
//! Discipline matches the rest of the telemetry plane:
//!
//! - **Allocation-free when disabled.** [`FlightRecorder::record`] and
//!   [`FlightRecorder::record_step`] take what they record as a closure;
//!   when the gate is closed the call is a single atomic load and the
//!   closure never runs — no formatting, no lock.
//! - **Bounded.** The ring holds at most `capacity` events; recording the
//!   `capacity + 1`-th evicts the oldest. Eviction is strictly
//!   oldest-first, so the surviving window is always a causally-contiguous
//!   suffix.
//! - **Deterministic.** Sequence numbers and virtual timestamps come from
//!   the simulation, so [`FlightRecorder::fingerprint`] is bit-identical
//!   across double runs of a pinned seed — harness oracle #11 checks
//!   exactly that, and [`FlightRecorder::dump`] is what the explorer
//!   staples to a shrunk reproducer.

use crate::causality::LamportClock;
use crate::event::{Origin, ProtocolEvent};
use crate::{fnv1a, TimeSource, FNV_OFFSET};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default ring capacity: generous enough that no sweep scenario wraps,
/// small enough that a wrapped node stays bounded.
pub const DEFAULT_RECORDER_CAPACITY: usize = 256;

/// Taxonomy of recorded events (DESIGN.md §15 table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordKind {
    /// A telemetry span opened (detail: span name).
    SpanOpen,
    /// A telemetry span closed (detail: span name).
    SpanClose,
    /// A fig. 5 step of an activity coordinator.
    Trace,
    /// A two-phase-commit step of a transaction coordinator.
    Protocol,
    /// An activity lifecycle step (begun/completed).
    Activity,
    /// A failpoint site was passed (detail: site, and whether it fired).
    Failpoint,
    /// A failure-detector state transition.
    Detector,
    /// A metric delta worth narrating (e.g. heuristic counters).
    Metric,
    /// A partition window opened.
    PartitionOpen,
    /// A partition healed.
    PartitionHeal,
    /// A participant was killed and rebuilt from its WAL.
    Restart,
    /// A message left this node (detail: wire token, operation, route).
    WireSend,
    /// A message arrived at this node (detail mirrors the send's).
    WireRecv,
}

impl RecordKind {
    /// Stable label used in renderings and fingerprints.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RecordKind::SpanOpen => "span-open",
            RecordKind::SpanClose => "span-close",
            RecordKind::Trace => "trace",
            RecordKind::Protocol => "protocol",
            RecordKind::Activity => "activity",
            RecordKind::Failpoint => "failpoint",
            RecordKind::Detector => "detector",
            RecordKind::Metric => "metric",
            RecordKind::PartitionOpen => "partition-open",
            RecordKind::PartitionHeal => "partition-heal",
            RecordKind::Restart => "restart",
            RecordKind::WireSend => "wire-send",
            RecordKind::WireRecv => "wire-recv",
        }
    }
}

impl fmt::Display for RecordKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What one ring entry holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A protocol step, typed, with whose it is — written only by
    /// [`FlightRecorder::record_step`], i.e. by `orb::Env::emit`.
    Step(Origin, ProtocolEvent),
    /// A record of any other plane, as text. A `Text` whose detail merely
    /// reads like a protocol step is not one: no reader of steps sees it.
    Text(RecordKind, String),
}

/// One entry of the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Recorder-wide sequence number (never reused; survives eviction, so
    /// a wrapped dump shows exactly how much history was lost).
    pub seq: u64,
    /// Virtual time of the event.
    pub at: Duration,
    /// Lamport stamp: every local record ticks the node's clock, wire
    /// receives observe the sender's stamp (§16 stamp discipline), so a
    /// merged multi-node log is a happens-before DAG.
    pub lamport: u64,
    /// The recording node — [`crate::CausalMerge`] folds logs from many
    /// nodes, so each event carries the node it was recorded on (shared
    /// with the recorder, not copied per event).
    pub node: Arc<str>,
    pub record: Record,
}

/// A record's detail text: a step's `Display`, or the text as recorded.
impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Record::Step(_, event) => event.fmt(f),
            Record::Text(_, detail) => f.write_str(detail),
        }
    }
}

impl RecordedEvent {
    /// The kind the entry is labelled with: a step's follows from its
    /// variant.
    #[must_use]
    pub fn kind(&self) -> RecordKind {
        match &self.record {
            Record::Step(_, event) => event.kind(),
            Record::Text(kind, _) => *kind,
        }
    }

    /// The entry's detail text.
    #[must_use]
    pub fn detail(&self) -> String {
        self.record.to_string()
    }

    /// The canonical one-line rendering fingerprints and dumps share.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "#{:<4} @{:>10}us L{:<5} {:<14} {}",
            self.seq,
            self.at.as_micros(),
            self.lamport,
            self.kind(),
            self.record
        )
    }
}

/// FNV-1a over the canonical rendering of `events`, one per line.
fn fingerprint_of<'a>(events: impl Iterator<Item = &'a RecordedEvent>) -> u64 {
    events.fold(FNV_OFFSET, |hash, event| fnv1a(fnv1a(hash, event.render().as_bytes()), b"\n"))
}

struct ZeroTime;

impl TimeSource for ZeroTime {
    fn virtual_now(&self) -> Duration {
        Duration::ZERO
    }
}

struct RecorderInner {
    enabled: AtomicBool,
    time: Arc<dyn TimeSource>,
    node: Arc<str>,
    capacity: usize,
    seq: AtomicU64,
    /// The node's Lamport clock. Plain [`FlightRecorder::record`] ticks
    /// it; the ORB's wire interceptors tick/observe it directly and
    /// record the resulting stamp via [`FlightRecorder::record_stamped`],
    /// so local and wire events share one counter.
    lamport: LamportClock,
    ring: Mutex<VecDeque<RecordedEvent>>,
}

/// The shared recorder handle; cloning is one `Arc` bump, all clones feed
/// one ring (mirroring the `Telemetry` handle style).
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<RecorderInner>,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("node", &self.inner.node)
            .field("capacity", &self.inner.capacity)
            .field("recorded", &self.total_recorded())
            .finish()
    }
}

impl FlightRecorder {
    /// An enabled recorder for `node` with the zero time source.
    pub fn new(node: &str, capacity: usize) -> FlightRecorder {
        FlightRecorder::build(node, capacity, true, Arc::new(ZeroTime))
    }

    /// An enabled recorder reading virtual time from `time` (pass the
    /// simulation clock so dumps carry real virtual timestamps).
    pub fn with_time(node: &str, capacity: usize, time: Arc<dyn TimeSource>) -> FlightRecorder {
        FlightRecorder::build(node, capacity, true, time)
    }

    /// A recorder whose gate starts closed: every [`FlightRecorder::record`]
    /// is a single atomic load until [`FlightRecorder::set_enabled`] opens it.
    pub fn disabled(node: &str, capacity: usize) -> FlightRecorder {
        FlightRecorder::build(node, capacity, false, Arc::new(ZeroTime))
    }

    fn build(
        node: &str,
        capacity: usize,
        enabled: bool,
        time: Arc<dyn TimeSource>,
    ) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(RecorderInner {
                enabled: AtomicBool::new(enabled),
                time,
                node: node.into(),
                capacity: capacity.max(1),
                seq: AtomicU64::new(0),
                lamport: LamportClock::new(),
                ring: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 1024))),
            }),
        }
    }

    /// Which node this black box belongs to.
    pub fn node(&self) -> &str {
        &self.inner.node
    }

    /// The node's Lamport clock (shared with every clone). Register the
    /// recorder with a [`crate::CausalityPlane`] and the ORB's wire
    /// stamps advance this same counter.
    #[must_use]
    pub fn lamport_clock(&self) -> LamportClock {
        self.inner.lamport.clone()
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Acquire)
    }

    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Release);
    }

    /// Ring capacity (events retained at most).
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.ring.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.ring.lock().is_empty()
    }

    /// Total events ever recorded, evicted ones included.
    pub fn total_recorded(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    /// Record one textual event, ticking the node's Lamport clock. The
    /// gate is checked before `detail` runs, so the disabled path does no
    /// formatting and takes no lock.
    pub fn record(&self, kind: RecordKind, detail: impl FnOnce() -> String) {
        if !self.is_enabled() {
            return;
        }
        self.push(self.inner.lamport.tick(), Record::Text(kind, detail()));
    }

    /// Record one protocol step — kept as the typed event, not a rendering
    /// of it — ticking the node's Lamport clock. `step` only runs behind
    /// an open gate. Protocol code does not call this: it emits through
    /// `orb::Env::emit`, the one caller.
    pub fn record_step(&self, step: impl FnOnce() -> (Origin, ProtocolEvent)) {
        if !self.is_enabled() {
            return;
        }
        let (origin, event) = step();
        self.push(self.inner.lamport.tick(), Record::Step(origin, event));
    }

    /// Record one event carrying an explicit Lamport stamp — for wire
    /// events, where the caller already ticked (send) or observed
    /// (receive) the node's clock and the recorded stamp must equal the
    /// on-wire value exactly. Does NOT tick the clock.
    pub fn record_stamped(&self, kind: RecordKind, lamport: u64, detail: impl FnOnce() -> String) {
        if !self.is_enabled() {
            return;
        }
        self.push(lamport, Record::Text(kind, detail()));
    }

    fn push(&self, lamport: u64, record: Record) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let event = RecordedEvent {
            seq,
            at: self.inner.time.virtual_now(),
            lamport,
            node: Arc::clone(&self.inner.node),
            record,
        };
        let mut ring = self.inner.ring.lock();
        if ring.len() == self.inner.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Snapshot of the retained window, oldest first.
    pub fn events(&self) -> Vec<RecordedEvent> {
        self.inner.ring.lock().iter().cloned().collect()
    }

    /// The last `n` retained events, oldest first. `tail(0)` returns an
    /// empty vector without touching the ring (`Vec::new` does not
    /// allocate), and `n >= len` clones the whole window into a single
    /// exactly-sized allocation — no over-allocation, no reallocation.
    pub fn tail(&self, n: usize) -> Vec<RecordedEvent> {
        if n == 0 {
            return Vec::new();
        }
        let ring = self.inner.ring.lock();
        let take = ring.len().min(n);
        let skip = ring.len() - take;
        let mut out = Vec::with_capacity(take);
        out.extend(ring.iter().skip(skip).cloned());
        out
    }

    /// The retained protocol steps, oldest first, each with its origin —
    /// what every reader of the protocol's account narrows, by
    /// [`ProtocolEvent::kind`] and by origin.
    pub fn steps(&self) -> Vec<(Origin, ProtocolEvent)> {
        let ring = self.inner.ring.lock();
        let steps = ring.iter().filter_map(|entry| match &entry.record {
            Record::Step(origin, event) => Some((origin.clone(), event.clone())),
            Record::Text(..) => None,
        });
        steps.collect()
    }

    /// FNV-1a over the canonical rendering of the retained window. Since
    /// sequence numbers and virtual timestamps are simulation-driven, a
    /// pinned seed must reproduce this bit-identically (oracle #11).
    pub fn fingerprint(&self) -> u64 {
        fingerprint_of(self.inner.ring.lock().iter())
    }

    /// The black-box dump: header plus the retained window, one event per
    /// line. Rendered by the harness whenever an oracle fires, a heuristic
    /// outcome stands, or a participant restarts; attached to shrunk
    /// repros.
    pub fn dump(&self) -> String {
        let ring = self.inner.ring.lock();
        let total = self.inner.seq.load(Ordering::Relaxed);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight-recorder node={} retained={}/{} (capacity {}) fingerprint={:016x}",
            self.inner.node,
            ring.len(),
            total,
            self.inner.capacity,
            fingerprint_of(ring.iter())
        );
        match ring.front() {
            Some(first) if first.seq > 0 => {
                let _ = writeln!(out, "  ... {} earlier events evicted ...", first.seq);
            }
            // An empty ring dumps a self-describing marker instead of a
            // bare header (a recorder that never recorded and one whose
            // whole window was evicted render distinguishably).
            None if total > 0 => {
                let _ = writeln!(out, "  ... all {total} events evicted ...");
            }
            None => {
                let _ = writeln!(out, "  (no events retained)");
            }
            Some(_) => {}
        }
        for event in ring.iter() {
            let _ = writeln!(out, "  {}", event.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(top: u64) -> Origin {
        Origin::Transaction { top, branch: Vec::new() }
    }

    #[test]
    fn records_in_order_with_sequence_numbers() {
        let rec = FlightRecorder::new("coordinator", 8);
        rec.record_step(|| (tx(1), ProtocolEvent::PrepareSent { participant: "store".into() }));
        rec.record(RecordKind::Failpoint, || "ots.before_decision passed".into());
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[0].detail(), "prepare_sent(store)");
        assert_eq!(events[0].kind(), RecordKind::Protocol, "a step's kind follows its variant");
        assert_eq!(
            events[1].render(),
            "#1    @         0us L2     failpoint ots.before_decision passed"
        );
        assert_eq!(rec.total_recorded(), 2);
    }

    #[test]
    fn disabled_gate_skips_the_closure_entirely() {
        let rec = FlightRecorder::disabled("node", 8);
        let mut ran = false;
        rec.record(RecordKind::Trace, || {
            ran = true;
            "never".into()
        });
        rec.record_step(|| unreachable!("a step is not built behind a closed gate"));
        assert!(!ran, "the detail closure must not run behind a closed gate");
        assert_eq!(rec.len(), 0);
        assert_eq!(rec.total_recorded(), 0);
        rec.set_enabled(true);
        rec.record(RecordKind::Trace, || "now".into());
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn ring_evicts_oldest_first_and_stays_bounded() {
        let rec = FlightRecorder::new("node", 3);
        for i in 0..10 {
            rec.record(RecordKind::Trace, || format!("event-{i}"));
        }
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(rec.total_recorded(), 10);
        // The survivors are the exact tail, in order, original seqs kept.
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        assert_eq!(events[0].detail(), "event-7");
        let dump = rec.dump();
        assert!(dump.contains("7 earlier events evicted"), "{dump}");
        assert!(dump.contains("retained=3/10"), "{dump}");
    }

    #[test]
    fn fingerprint_is_deterministic_and_content_sensitive() {
        let build = |detail: &str| {
            let rec = FlightRecorder::new("node", 8);
            rec.record(RecordKind::Protocol, || detail.to_string());
            rec.fingerprint()
        };
        assert_eq!(build("a"), build("a"));
        assert_ne!(build("a"), build("b"));
    }

    #[test]
    fn dump_header_fingerprint_matches_the_method() {
        let rec = FlightRecorder::new("node", 8);
        rec.record(RecordKind::Failpoint, || "ots.before_decision fired".into());
        let expected = format!("{:016x}", rec.fingerprint());
        assert!(rec.dump().contains(&expected));
    }

    #[test]
    fn steps_are_the_typed_records_in_causal_order_and_nothing_else() {
        let rec = FlightRecorder::new("node", 8);
        let poll = ProtocolEvent::GetSignal { set: "Bill".into() };
        let decided = ProtocolEvent::DecisionForced { commit: true };
        rec.record_step(|| (Origin::Activity(7), poll.clone()));
        // Text that reads like a step is still text.
        rec.record(RecordKind::Protocol, || "decision_forced(commit=true)".into());
        rec.record_step(|| (tx(1), decided.clone()));
        assert_eq!(rec.steps(), vec![(Origin::Activity(7), poll), (tx(1), decided)]);
        // Rendered, the typed and the textual decision are the same line
        // but for their stamps.
        let events = rec.events();
        assert_eq!(events[1].detail(), events[2].detail());
        assert_eq!(events[1].kind(), events[2].kind());
    }

    #[test]
    fn tail_returns_the_last_n() {
        let rec = FlightRecorder::new("node", 8);
        for i in 0..5 {
            rec.record(RecordKind::Trace, || format!("e{i}"));
        }
        let tail = rec.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].detail(), "e3");
        assert_eq!(tail[1].detail(), "e4");
    }

    #[test]
    fn tail_zero_and_oversized_edges() {
        let rec = FlightRecorder::new("node", 8);
        assert!(rec.tail(0).is_empty(), "tail(0) of an empty ring");
        assert!(rec.tail(3).is_empty(), "tail(n) of an empty ring");
        for i in 0..4 {
            rec.record(RecordKind::Trace, || format!("e{i}"));
        }
        assert!(rec.tail(0).is_empty(), "tail(0) of a populated ring");
        let full = rec.tail(4);
        assert_eq!(full.len(), 4);
        assert_eq!(full.capacity(), 4, "n == len: one exactly-sized allocation");
        let over = rec.tail(100);
        assert_eq!(over.len(), 4, "n > len clamps to the window");
        assert_eq!(over.capacity(), 4, "n > len must not over-allocate");
        assert_eq!(over, rec.events());
    }

    #[test]
    fn empty_ring_dump_is_self_describing() {
        let rec = FlightRecorder::new("node", 2);
        let dump = rec.dump();
        assert!(dump.contains("retained=0/0"), "{dump}");
        assert!(dump.contains("(no events retained)"), "{dump}");
    }

    #[test]
    fn record_ticks_lamport_and_record_stamped_does_not() {
        let rec = FlightRecorder::new("node", 8);
        rec.record(RecordKind::Trace, || "a".into());
        rec.record(RecordKind::Trace, || "b".into());
        let events = rec.events();
        assert_eq!(events[0].lamport, 1);
        assert_eq!(events[1].lamport, 2);
        assert_eq!(&*events[0].node, "node");
        // A wire event carries the caller-computed stamp verbatim.
        let stamp = rec.lamport_clock().observe(41);
        assert_eq!(stamp, 42);
        rec.record_stamped(RecordKind::WireRecv, stamp, || "t@41 op peer->node".into());
        assert_eq!(rec.events()[2].lamport, 42);
        // The next local tick continues past the observed stamp.
        rec.record(RecordKind::Trace, || "c".into());
        assert_eq!(rec.events()[3].lamport, 43);
    }
}
