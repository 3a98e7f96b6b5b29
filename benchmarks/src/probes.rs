//! Timing decorators interposed at public trait seams of the traced world.
//!
//! Each wraps a trait object the program already accepts (`Action`,
//! `Servant`, `Resource`, `Wal`), opens a span around every call and
//! forwards it unchanged. The measured world contains none of them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use activity_service::{Action, ActionError, Outcome, Signal};
use orb::{OrbError, Request, Servant, Value};
use ots::{Resource, TxError, TxId, Vote};
use recovery_log::{LogError, LogRecord, Lsn, Wal};

use crate::trace::{Kind, Tracer};

/// Times every signal delivered through the wrapped [`Action`]. The pool
/// may run it on a worker thread, so it carries its op and parent span.
pub struct TimedAction {
    inner: Arc<dyn Action>,
    tracer: Arc<Tracer>,
    kind: Kind,
    op: u32,
    parent: u32,
}

impl TimedAction {
    pub fn new(
        inner: Arc<dyn Action>,
        tracer: Arc<Tracer>,
        kind: Kind,
        op: u32,
        parent: u32,
    ) -> Self {
        TimedAction {
            inner,
            tracer,
            kind,
            op,
            parent,
        }
    }
}

impl Action for TimedAction {
    fn process_signal(&self, signal: &Signal) -> Result<Outcome, ActionError> {
        let _span = self.tracer.enter_under(self.parent, self.op, self.kind);
        self.inner.process_signal(signal)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Times every request dispatched to the wrapped [`Servant`].
pub struct TimedServant {
    inner: Arc<dyn Servant>,
    tracer: Arc<Tracer>,
    kind: Kind,
}

impl TimedServant {
    pub fn new(inner: Arc<dyn Servant>, tracer: Arc<Tracer>, kind: Kind) -> Self {
        TimedServant {
            inner,
            tracer,
            kind,
        }
    }
}

impl Servant for TimedServant {
    fn dispatch(&self, request: &Request) -> Result<Value, OrbError> {
        let _span = self.tracer.enter(self.kind);
        self.inner.dispatch(request)
    }
}

/// Times the protocol calls of the wrapped [`Resource`] and counts the
/// commits that reach it (the exactly-once check under a lossy network).
pub struct TimedResource {
    inner: Arc<dyn Resource>,
    tracer: Arc<Tracer>,
    commits: AtomicU64,
}

impl TimedResource {
    pub fn new(inner: Arc<dyn Resource>, tracer: Arc<Tracer>) -> Self {
        TimedResource {
            inner,
            tracer,
            commits: AtomicU64::new(0),
        }
    }

    /// `commit` calls that reached the wrapped resource.
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }
}

impl Resource for TimedResource {
    fn prepare(&self, tx: &TxId) -> Result<Vote, TxError> {
        let _span = self.tracer.enter(Kind::OtsResource);
        self.inner.prepare(tx)
    }

    fn commit(&self, tx: &TxId) -> Result<(), TxError> {
        let _span = self.tracer.enter(Kind::OtsResource);
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.inner.commit(tx)
    }

    fn rollback(&self, tx: &TxId) -> Result<(), TxError> {
        let _span = self.tracer.enter(Kind::OtsResource);
        self.inner.rollback(tx)
    }

    fn commit_one_phase(&self, tx: &TxId) -> Result<(), TxError> {
        let _span = self.tracer.enter(Kind::OtsResource);
        self.inner.commit_one_phase(tx)
    }

    fn forget(&self, tx: &TxId) {
        self.inner.forget(tx);
    }

    fn resource_name(&self) -> &str {
        self.inner.resource_name()
    }

    fn read_only_hint(&self) -> bool {
        self.inner.read_only_hint()
    }
}

/// Work counted at the two WAL seams of a traced world, summed over its
/// logs.
#[derive(Debug, Default)]
pub struct WalCounters {
    /// Records appended by callers.
    pub appends: AtomicU64,
    /// Durability barriers requested by callers.
    pub forces: AtomicU64,
    /// Payload bytes appended by callers.
    pub bytes: AtomicU64,
    /// Records handed to the sink beneath the group-commit layer.
    pub sink_records: AtomicU64,
    /// `sync` calls that reached the sink.
    pub sink_syncs: AtomicU64,
}

/// Which side of `GroupCommitWal` a [`TimedWal`] sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalLevel {
    /// Above it: what the transaction and activity services call.
    Caller,
    /// Beneath it: what reaches the file or memory log.
    Sink,
}

/// Times and counts every call on the wrapped [`Wal`].
pub struct TimedWal<W> {
    inner: W,
    tracer: Arc<Tracer>,
    level: WalLevel,
    counters: Arc<WalCounters>,
}

impl<W: Wal> TimedWal<W> {
    pub fn new(inner: W, tracer: Arc<Tracer>, level: WalLevel, counters: Arc<WalCounters>) -> Self {
        TimedWal {
            inner,
            tracer,
            level,
            counters,
        }
    }

    fn write_kind(&self) -> Kind {
        match self.level {
            WalLevel::Caller => Kind::WalAppend,
            WalLevel::Sink => Kind::SinkWrite,
        }
    }

    fn force_kind(&self) -> Kind {
        match self.level {
            WalLevel::Caller => Kind::WalForce,
            WalLevel::Sink => Kind::SinkSync,
        }
    }

    fn count_records(&self, records: u64, bytes: u64) {
        // Relaxed: statistics read after the round's threads are joined.
        match self.level {
            WalLevel::Caller => {
                self.counters.appends.fetch_add(records, Ordering::Relaxed);
                self.counters.bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            WalLevel::Sink => {
                self.counters
                    .sink_records
                    .fetch_add(records, Ordering::Relaxed);
            }
        }
    }

    fn count_force(&self) {
        let counter = match self.level {
            WalLevel::Caller => &self.counters.forces,
            WalLevel::Sink => &self.counters.sink_syncs,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl<W: Wal> Wal for TimedWal<W> {
    fn append(&self, kind: u32, payload: &[u8]) -> Result<Lsn, LogError> {
        let _span = self.tracer.enter(self.write_kind());
        self.count_records(1, payload.len() as u64);
        self.inner.append(kind, payload)
    }

    fn append_durable(&self, kind: u32, payload: &[u8]) -> Result<Lsn, LogError> {
        let _span = self.tracer.enter(self.force_kind());
        self.count_records(1, payload.len() as u64);
        self.count_force();
        self.inner.append_durable(kind, payload)
    }

    fn append_batch(&self, records: &[(u32, &[u8])]) -> Result<Lsn, LogError> {
        let _span = self.tracer.enter(self.write_kind());
        let bytes: usize = records.iter().map(|(_, payload)| payload.len()).sum();
        self.count_records(records.len() as u64, bytes as u64);
        self.inner.append_batch(records)
    }

    fn flush_lsn(&self, lsn: Lsn) -> Result<(), LogError> {
        let _span = self.tracer.enter(self.force_kind());
        self.count_force();
        self.inner.flush_lsn(lsn)
    }

    fn scan(&self, from: Lsn) -> Result<Vec<LogRecord>, LogError> {
        let _span = self.tracer.enter(Kind::WalRead);
        self.inner.scan(from)
    }

    fn scan_with(
        &self,
        from: Lsn,
        visit: &mut dyn FnMut(&LogRecord) -> Result<(), LogError>,
    ) -> Result<(), LogError> {
        let _span = self.tracer.enter(Kind::WalRead);
        self.inner.scan_with(from, visit)
    }

    fn truncate_prefix(&self, upto: Lsn) -> Result<(), LogError> {
        self.inner.truncate_prefix(upto)
    }

    fn sync(&self) -> Result<(), LogError> {
        let _span = self.tracer.enter(self.force_kind());
        self.count_force();
        self.inner.sync()
    }

    fn next_lsn(&self) -> Lsn {
        self.inner.next_lsn()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}
