//! Benchmark-owned span recording and the per-layer ledger built from it.
//!
//! Spans are recorded around calls *into* the workspace crates, from the
//! benchmark's own decorators and generator code; nothing inside the
//! program is instrumented. Each span carries its name, start, duration,
//! the span that caused it, the op it belongs to, the recording thread and
//! that thread's allocation-counter delta over the same interval. Spans
//! stay in per-thread buffers until the run ends.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::alloc::thread_allocs;
use crate::stats::{self_time, union_len};

/// What a span measures. The name's prefix is the layer (= crate) the time
/// is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// One complete unit of work as the caller sees it.
    Op,
    /// The generator's compensation body in `order_pipeline`.
    Refund,
    /// `UserActivity::begin` plus signal-set association.
    AsBegin,
    /// `ActivityManager::register_action`.
    AsEnrol,
    /// `UserActivity::complete` / `CoordinationService::complete`.
    AsComplete,
    /// `Node::activate` / `Node::deactivate`.
    OrbActivate,
    /// One logical delivery through a `RemoteActionProxy`.
    OrbInvoke,
    /// One servant dispatch as the ORB sees it (outside `DedupServant`).
    OrbServe,
    /// One first-time servant run (inside `DedupServant`).
    OrbServeInner,
    /// The LRUOW `price` task.
    TxLruow,
    /// One `Resource::prepare/commit/rollback` on a participant.
    OtsResource,
    /// `TransactionalKv::write`.
    OtsKvWrite,
    /// `TransactionFactory::create` plus enlistment.
    OtsBegin,
    /// `Terminator::commit`.
    OtsCommit,
    /// `TransactionFactory::reap_completed`.
    OtsReap,
    /// Caller-level `Wal::append` / `append_batch`.
    WalAppend,
    /// Caller-level durability barrier (`append_durable`, `flush_lsn`, `sync`).
    WalForce,
    /// Caller-level `Wal::scan` / `scan_with`.
    WalRead,
    /// Sink-level write beneath `GroupCommitWal`.
    SinkWrite,
    /// Sink-level `sync` beneath `GroupCommitWal`.
    SinkSync,
    /// `WorkflowEngine::run`.
    WfRun,
    /// The `pay` task.
    WscfPay,
    /// One `register_remote`.
    WscfRegister,
    /// One signal processed by a WSCF participant.
    WscfParticipant,
    /// The `fulfil` task.
    BtpFulfil,
}

impl Kind {
    pub const ALL: [Kind; 25] = [
        Kind::Op,
        Kind::Refund,
        Kind::AsBegin,
        Kind::AsEnrol,
        Kind::AsComplete,
        Kind::OrbActivate,
        Kind::OrbInvoke,
        Kind::OrbServe,
        Kind::OrbServeInner,
        Kind::TxLruow,
        Kind::OtsResource,
        Kind::OtsKvWrite,
        Kind::OtsBegin,
        Kind::OtsCommit,
        Kind::OtsReap,
        Kind::WalAppend,
        Kind::WalForce,
        Kind::WalRead,
        Kind::SinkWrite,
        Kind::SinkSync,
        Kind::WfRun,
        Kind::WscfPay,
        Kind::WscfRegister,
        Kind::WscfParticipant,
        Kind::BtpFulfil,
    ];

    /// Span name as written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "loadgen.op",
            Kind::Refund => "loadgen.refund",
            Kind::AsBegin => "activity-service.begin",
            Kind::AsEnrol => "activity-service.enrol",
            Kind::AsComplete => "activity-service.complete",
            Kind::OrbActivate => "orb.activate",
            Kind::OrbInvoke => "orb.invoke",
            Kind::OrbServe => "orb.serve",
            Kind::OrbServeInner => "tx-models.serve",
            Kind::TxLruow => "tx-models.lruow",
            Kind::OtsResource => "ots.resource",
            Kind::OtsKvWrite => "ots.kv_write",
            Kind::OtsBegin => "ots.begin",
            Kind::OtsCommit => "ots.commit",
            Kind::OtsReap => "ots.reap",
            Kind::WalAppend => "recovery-log.append",
            Kind::WalForce => "recovery-log.force",
            Kind::WalRead => "recovery-log.read",
            Kind::SinkWrite => "recovery-log.sink_write",
            Kind::SinkSync => "recovery-log.sink_sync",
            Kind::WfRun => "wfengine.run",
            Kind::WscfPay => "wscf.pay",
            Kind::WscfRegister => "wscf.register",
            Kind::WscfParticipant => "wscf.participant",
            Kind::BtpFulfil => "btp.fulfil",
        }
    }

    /// The layer the span's self time is charged to.
    pub fn layer(self) -> &'static str {
        let name = self.name();
        &name[..name.find('.').expect("span names are layer.what")]
    }

    /// Caller-level WAL call (the spans whose union is the log's busy time).
    pub fn is_wal_call(self) -> bool {
        matches!(self, Kind::WalAppend | Kind::WalForce | Kind::WalRead)
    }
}

/// One recorded span. `parent == 0` marks a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub kind: Kind,
    pub thread: u16,
    pub start_ns: u64,
    pub dur_ns: u32,
    pub allocs: u32,
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static NEXT_TRACER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(op, span)` the calling thread is currently inside.
    static CURRENT: Cell<(u32, u32)> = const { Cell::new((0, 0)) };
    /// This thread's buffer, tagged with the tracer it belongs to.
    static BUFFER: RefCell<Option<(u64, u16, Buffer)>> = const { RefCell::new(None) };
}

/// Collects spans from every thread that records into it.
pub struct Tracer {
    serial: u64,
    epoch: Instant,
    next_span: AtomicU32,
    buffers: Mutex<Vec<Buffer>>,
    reserve: usize,
}

impl Tracer {
    /// A tracer whose per-thread buffers start with room for `reserve`
    /// spans, so recording does not allocate on the measured thread.
    pub fn new(reserve: usize) -> Arc<Self> {
        Arc::new(Tracer {
            serial: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            next_span: AtomicU32::new(1),
            buffers: Mutex::new(Vec::new()),
            reserve,
        })
    }

    /// Claim a span id ahead of time, for a span whose children are created
    /// before it starts (the proxies enrolled before `complete`).
    pub fn reserve_id(&self) -> u32 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Start the root span of op number `op` on the calling thread.
    pub fn begin_op(&self, op: u32) -> Guard<'_> {
        self.start(self.reserve_id(), 0, op, Kind::Op)
    }

    /// Start a span under whatever span the calling thread is inside.
    pub fn enter(&self, kind: Kind) -> Guard<'_> {
        let (op, parent) = CURRENT.with(Cell::get);
        self.start(self.reserve_id(), parent, op, kind)
    }

    /// Start a span with a pre-claimed id under the thread's current span.
    pub fn enter_reserved(&self, id: u32, kind: Kind) -> Guard<'_> {
        let (op, parent) = CURRENT.with(Cell::get);
        self.start(id, parent, op, kind)
    }

    /// Start a span under an explicit parent: the entry point of work that
    /// the dispatch pool may run on another thread.
    pub fn enter_under(&self, parent: u32, op: u32, kind: Kind) -> Guard<'_> {
        self.start(self.reserve_id(), parent, op, kind)
    }

    fn start(&self, id: u32, parent: u32, op: u32, kind: Kind) -> Guard<'_> {
        let previous = CURRENT.with(|current| current.replace((op, id)));
        Guard {
            tracer: self,
            id,
            parent,
            op,
            kind,
            previous,
            allocs: thread_allocs(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
        }
    }

    fn record(&self, span: Span) {
        BUFFER.with(|slot| {
            let mut slot = slot.borrow_mut();
            if slot.as_ref().map(|(serial, ..)| *serial) != Some(self.serial) {
                let buffer: Buffer = Arc::new(Mutex::new(Vec::with_capacity(self.reserve)));
                let mut buffers = self.buffers.lock().unwrap_or_else(PoisonError::into_inner);
                buffers.push(Arc::clone(&buffer));
                *slot = Some((self.serial, buffers.len() as u16, buffer));
            }
            let (_, thread, buffer) = slot.as_ref().expect("installed above");
            buffer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Span {
                    thread: *thread,
                    ..span
                });
        });
    }

    /// Every span recorded so far, from all threads.
    pub fn spans(&self) -> Vec<Span> {
        let buffers = self.buffers.lock().unwrap_or_else(PoisonError::into_inner);
        let mut all = Vec::new();
        for buffer in buffers.iter() {
            all.extend_from_slice(&buffer.lock().unwrap_or_else(PoisonError::into_inner));
        }
        all
    }
}

/// An open span; recorded when dropped.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    id: u32,
    parent: u32,
    op: u32,
    kind: Kind,
    previous: (u32, u32),
    allocs: u64,
    start_ns: u64,
}

impl Guard<'_> {
    /// This span's id (the parent handle for cross-thread children).
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.epoch.elapsed().as_nanos() as u64;
        let allocs = thread_allocs() - self.allocs;
        CURRENT.with(|current| current.set(self.previous));
        self.tracer.record(Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            kind: self.kind,
            thread: 0,
            start_ns: self.start_ns,
            dur_ns: (end_ns - self.start_ns).min(u64::from(u32::MAX)) as u32,
            allocs: allocs.min(u64::from(u32::MAX)) as u32,
        });
    }
}

/// Generator-side handle: `None` in the measured (untraced) world.
pub type Probe = Option<Arc<Tracer>>;

/// Open a span if this world is traced.
pub fn span(probe: &Probe, kind: Kind) -> Option<Guard<'_>> {
    probe.as_ref().map(|tracer| tracer.enter(kind))
}

/// Totals for one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
}

/// The per-layer cost ledger of one traced round.
#[derive(Debug, Default)]
pub struct Ledger {
    by_kind: HashMap<Kind, KindTotals>,
    durations: HashMap<Kind, Vec<u64>>,
    /// Union of caller-level WAL call spans, summed over ops.
    pub wal_busy_ns: u64,
    pub ops: u64,
}

impl Ledger {
    /// Build the ledger: self time is a span's duration minus the union of
    /// its children's intervals; self allocations are its allocation delta
    /// minus those of its children on the same thread (a child on another
    /// thread never counted against this thread's counter).
    pub fn build(spans: &[Span]) -> Ledger {
        let mut children: HashMap<u32, Vec<&Span>> = HashMap::new();
        for span in spans {
            if span.parent != 0 {
                children.entry(span.parent).or_default().push(span);
            }
        }
        let mut ledger = Ledger::default();
        let mut wal_calls: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        let mut intervals = Vec::new();
        for span in spans {
            let end_ns = span.start_ns + u64::from(span.dur_ns);
            intervals.clear();
            let mut child_allocs = 0;
            for child in children.get(&span.id).map_or(&[][..], Vec::as_slice) {
                intervals.push((child.start_ns, child.start_ns + u64::from(child.dur_ns)));
                if child.thread == span.thread {
                    child_allocs += u64::from(child.allocs);
                }
            }
            let totals = ledger.by_kind.entry(span.kind).or_default();
            totals.count += 1;
            totals.total_ns += u64::from(span.dur_ns);
            totals.self_ns += self_time((span.start_ns, end_ns), &mut intervals);
            totals.self_allocs += u64::from(span.allocs).saturating_sub(child_allocs);
            ledger
                .durations
                .entry(span.kind)
                .or_default()
                .push(u64::from(span.dur_ns));
            if span.kind.is_wal_call() {
                wal_calls
                    .entry(span.op)
                    .or_default()
                    .push((span.start_ns, end_ns));
            }
            if span.kind == Kind::Op {
                ledger.ops += 1;
            }
        }
        ledger.wal_busy_ns = wal_calls.values_mut().map(|calls| union_len(calls)).sum();
        for durations in ledger.durations.values_mut() {
            durations.sort_unstable();
        }
        ledger
    }

    pub fn totals(&self, kind: Kind) -> KindTotals {
        self.by_kind.get(&kind).copied().unwrap_or_default()
    }

    /// Ascending span durations of one kind, in nanoseconds.
    pub fn durations(&self, kind: Kind) -> &[u64] {
        self.durations.get(&kind).map_or(&[], Vec::as_slice)
    }

    /// Self time and self allocations summed over the kinds of one layer.
    pub fn layer(&self, layer: &str) -> KindTotals {
        let mut sum = KindTotals::default();
        for kind in Kind::ALL.into_iter().filter(|kind| kind.layer() == layer) {
            let totals = self.totals(kind);
            sum.count += totals.count;
            sum.total_ns += totals.total_ns;
            sum.self_ns += totals.self_ns;
            sum.self_allocs += totals.self_allocs;
        }
        sum
    }

    /// Self time summed over every span: equals the summed op time when no
    /// two spans of an op overlap (one client, serial dispatch).
    pub fn self_ns_all(&self) -> u64 {
        self.by_kind.values().map(|totals| totals.self_ns).sum()
    }
}

/// Write the spans of the first `max_ops` ops as one JSON object per line.
pub fn write_trace(path: &std::path::Path, spans: &[Span], max_ops: u32) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    let mut first = true;
    for span in spans.iter().filter(|span| span.op < max_ops) {
        if !std::mem::take(&mut first) {
            writeln!(out, ",")?;
        }
        write!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"layer\":\"{}\",\"thread\":{},\
             \"start_ns\":{},\"dur_ns\":{},\"allocs\":{}}}",
            span.id,
            span.parent,
            span.op,
            span.kind.name(),
            span.kind.layer(),
            span.thread,
            span.start_ns,
            span.dur_ns,
            span.allocs
        )?;
    }
    writeln!(out, "\n]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_inherit_op_and_parent_from_the_thread() {
        let tracer = Tracer::new(16);
        {
            let op = tracer.begin_op(7);
            let outer = tracer.enter(Kind::AsComplete);
            let outer_id = outer.id();
            {
                let _inner = tracer.enter(Kind::OrbInvoke);
            }
            drop(outer);
            let _sibling = tracer.enter(Kind::OrbActivate);
            assert_ne!(op.id(), outer_id);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        let by_kind = |kind| *spans.iter().find(|s| s.kind == kind).expect("recorded");
        let op = by_kind(Kind::Op);
        assert_eq!((op.parent, op.op), (0, 7));
        assert_eq!(by_kind(Kind::AsComplete).parent, op.id);
        assert_eq!(
            by_kind(Kind::OrbInvoke).parent,
            by_kind(Kind::AsComplete).id
        );
        assert_eq!(by_kind(Kind::OrbActivate).parent, op.id);
        assert!(spans.iter().all(|s| s.op == 7));
    }

    #[test]
    fn a_span_entered_on_another_thread_keeps_its_explicit_parent() {
        let tracer = Tracer::new(16);
        let op = tracer.begin_op(3);
        let parent = op.id();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _invoke = tracer.enter_under(parent, 3, Kind::OrbInvoke);
                let _serve = tracer.enter(Kind::OrbServe);
            });
        });
        drop(op);
        let spans = tracer.spans();
        let invoke = spans
            .iter()
            .find(|s| s.kind == Kind::OrbInvoke)
            .expect("invoke");
        let serve = spans
            .iter()
            .find(|s| s.kind == Kind::OrbServe)
            .expect("serve");
        let root = spans.iter().find(|s| s.kind == Kind::Op).expect("op");
        assert_eq!((invoke.parent, invoke.op), (parent, 3));
        assert_eq!((serve.parent, serve.op), (invoke.id, 3));
        assert_ne!(invoke.thread, root.thread);
    }

    fn fake(
        id: u32,
        parent: u32,
        kind: Kind,
        thread: u16,
        start: u64,
        dur: u32,
        allocs: u32,
    ) -> Span {
        Span {
            id,
            parent,
            op: 1,
            kind,
            thread,
            start_ns: start,
            dur_ns: dur,
            allocs,
        }
    }

    #[test]
    fn ledger_self_time_and_allocations() {
        let spans = [
            fake(1, 0, Kind::Op, 1, 0, 100, 10),
            fake(2, 1, Kind::AsComplete, 1, 10, 80, 8),
            // Two invokes run in parallel on pool threads, overlapping 30..50.
            fake(3, 2, Kind::OrbInvoke, 2, 20, 30, 3),
            fake(4, 2, Kind::OrbInvoke, 3, 30, 40, 4),
            fake(5, 3, Kind::WalForce, 2, 25, 10, 1),
            fake(6, 4, Kind::WalForce, 3, 30, 20, 1),
        ];
        let ledger = Ledger::build(&spans);
        assert_eq!(ledger.ops, 1);
        assert_eq!(ledger.totals(Kind::Op).self_ns, 20);
        // complete covers 10..90; its children cover 20..70 once.
        assert_eq!(ledger.totals(Kind::AsComplete).self_ns, 30);
        // The invokes ran on other threads: none of their allocations were
        // counted on the completing thread.
        assert_eq!(ledger.totals(Kind::AsComplete).self_allocs, 8);
        assert_eq!(ledger.totals(Kind::Op).self_allocs, 2);
        assert_eq!(ledger.totals(Kind::OrbInvoke).self_ns, 20 + 20);
        assert_eq!(ledger.totals(Kind::OrbInvoke).self_allocs, 2 + 3);
        // WAL calls 25..35 and 30..50 overlap: busy time is their union.
        assert_eq!(ledger.wal_busy_ns, 25);
        assert_eq!(ledger.durations(Kind::WalForce), &[10, 20]);
        assert_eq!(ledger.layer("orb").self_ns, 40);
    }

    #[test]
    fn serial_self_times_sum_to_the_op_time() {
        let spans = [
            fake(1, 0, Kind::Op, 1, 0, 100, 0),
            fake(2, 1, Kind::AsBegin, 1, 5, 20, 0),
            fake(3, 1, Kind::AsComplete, 1, 30, 60, 0),
            fake(4, 3, Kind::OrbInvoke, 1, 35, 50, 0),
            fake(5, 4, Kind::OrbServe, 1, 40, 30, 0),
        ];
        assert_eq!(Ledger::build(&spans).self_ns_all(), 100);
    }
}
