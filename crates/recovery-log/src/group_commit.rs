//! Leader/follower group commit: one coalesced write + one `sync_data`
//! per batch of concurrent appenders.
//!
//! The per-record durability path (`append` + `sync` on [`crate::FileWal`])
//! serializes every committer behind its own `sync_data`. Under concurrent
//! coordinators that is one fsync *per decision record* — the dominant cost
//! of 2PC commit latency. [`GroupCommitWal`] wraps any [`Wal`] sink and
//! turns N concurrent durability barriers into one:
//!
//! * appenders stage records into a shared write buffer and return
//!   immediately (the record rides the next batch);
//! * a durability barrier ([`Wal::append_durable`], [`Wal::flush_lsn`],
//!   [`Wal::sync`]) elects the first arriving waiter as *leader*: it takes
//!   the whole staged batch, hands it to the sink as one
//!   [`Wal::append_batch`] (one coalesced encode + `write_all` on
//!   [`crate::FileWal`]) followed by a single [`Wal::sync`], then wakes
//!   every follower whose LSN the batch covered — if any is parked: an
//!   uncontended force makes no wake-up call at all;
//! * plain appends also flush when the staged batch crosses the
//!   count or byte threshold in [`GroupCommitConfig`].
//!
//! There are **no wall-clock timers**: every flush is triggered by an
//! explicit barrier or a deterministic threshold, so runs under `SimClock`
//! and the simulation harness stay reproducible. Waiting uses a condvar
//! keyed purely on batch completion, never on time.
//!
//! # Durability contract
//!
//! Records are durable once the batch containing them has been flushed.
//! [`Wal::scan`]/[`Wal::scan_with`] force a flush first, so the base-trait
//! rule — only durable records are visible to scans — is preserved. A crash
//! (real or injected in the sink) loses the staged-but-unflushed tail;
//! every LSN acked by `append_durable`/`flush_lsn` is guaranteed to be in
//! the sink. After a flush failure the wal is poisoned: the staged tail is
//! discarded and every subsequent operation returns the original error
//! (a dead process stays dead), until [`GroupCommitWal::recover_from_sink`]
//! re-adopts the sink's surviving state — the "restart".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::error::LogError;
use crate::record::{LogRecord, Lsn};
use crate::retention::Hold;
use crate::wal::Wal;

/// Fixed header + checksum overhead per staged record, mirrored from the
/// record encoding so the byte threshold tracks on-disk size.
const RECORD_OVERHEAD: usize = 2 + 4 + 8 + 4 + 4;

/// Deterministic flush triggers for [`GroupCommitWal`]. No timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// Flush once this many records are staged.
    pub max_batch_records: usize,
    /// Flush once the staged batch's encoded size reaches this many bytes.
    pub max_batch_bytes: usize,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig { max_batch_records: 64, max_batch_bytes: 256 * 1024 }
    }
}

/// Records staged for one batch: their payloads back to back in one
/// buffer, and each record's kind and end offset.
#[derive(Debug, Default)]
struct Stage {
    payloads: Vec<u8>,
    ends: Vec<(u32, usize)>,
}

impl Stage {
    fn push(&mut self, kind: u32, payload: &[u8]) {
        self.payloads.extend_from_slice(payload);
        self.ends.push((kind, self.payloads.len()));
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Encoded size of the staged records.
    fn encoded_bytes(&self) -> usize {
        self.payloads.len() + RECORD_OVERHEAD * self.ends.len()
    }

    fn clear(&mut self) {
        self.payloads.clear();
        self.ends.clear();
    }

    /// The staged records as the sink's `append_batch` takes them.
    fn records(&self) -> impl Iterator<Item = (u32, &[u8])> {
        let mut start = 0;
        self.ends.iter().map(move |&(kind, end)| {
            let payload = &self.payloads[start..end];
            start = end;
            (kind, payload)
        })
    }
}

#[derive(Debug)]
struct GroupState {
    /// Staged records in LSN order; contiguous, ending at `next - 1`.
    staged: Stage,
    /// The stage the last leader flushed and handed back, emptied: the next
    /// leader swaps it in, so neither buffer is grown again from scratch.
    spare: Stage,
    /// Next LSN to assign (mirrors the sink's counter: the sink only ever
    /// sees our flush batches, in order).
    next: u64,
    /// Whether a leader currently owns a batch flush.
    flushing: bool,
    /// Followers waiting on `flushed`. A follower counts itself in and out
    /// under this lock, around its wait, so a leader that reads zero here
    /// after its flush knows nobody can miss the wake-up it skips.
    parked: usize,
    /// First flush failure; all later operations return a clone of it.
    poisoned: Option<LogError>,
}

struct GroupTelemetry {
    syncs: telemetry::Counter,
    metrics: telemetry::MetricsRegistry,
}

/// A group-committing [`Wal`] decorator (leader/follower batching over any
/// sink, typically [`crate::FileWal`]). See the module docs for the
/// protocol and durability contract.
pub struct GroupCommitWal<W> {
    inner: W,
    config: GroupCommitConfig,
    state: Mutex<GroupState>,
    /// Every LSN `<= durable` is flushed and synced into the sink. Written
    /// under the `state` lock; the holds this log forwards stop at it.
    durable: Arc<AtomicU64>,
    flushed: Condvar,
    telemetry: Option<GroupTelemetry>,
}

impl<W: Wal> GroupCommitWal<W> {
    /// Wrap `inner` with default flush thresholds.
    pub fn new(inner: W) -> Self {
        Self::with_config(inner, GroupCommitConfig::default())
    }

    /// Wrap `inner` with explicit flush thresholds.
    pub fn with_config(inner: W, config: GroupCommitConfig) -> Self {
        let next = inner.next_lsn().raw();
        GroupCommitWal {
            inner,
            config,
            state: Mutex::new(GroupState {
                staged: Stage::default(),
                spare: Stage::default(),
                next,
                flushing: false,
                parked: 0,
                poisoned: None,
            }),
            durable: Arc::new(AtomicU64::new(next - 1)),
            flushed: Condvar::new(),
            telemetry: None,
        }
    }

    /// Count into `telemetry`'s metrics: every batch flush bumps
    /// `wal_syncs_total` and records `wal_group_size` (records per batch)
    /// and `wal_batch_bytes` (encoded bytes per batch) histogram
    /// observations. Appends are counted by the sink's own counters.
    #[must_use]
    pub fn metered_by(mut self, telemetry: &telemetry::Telemetry) -> Self {
        self.telemetry = Some(GroupTelemetry {
            syncs: telemetry.metrics().counter("wal_syncs_total"),
            metrics: telemetry.metrics().clone(),
        });
        self
    }

    /// The wrapped sink (e.g. to reopen its file after a simulated crash).
    pub fn inner(&self) -> &W {
        &self.inner
    }

    /// Unwrap, returning the sink. Staged-but-unflushed records are lost —
    /// the same tear a crash produces.
    pub fn into_inner(self) -> W {
        self.inner
    }

    /// Highest LSN known durable in the sink. Records above this watermark
    /// are staged (or lost, if the wal is poisoned).
    pub fn durable_lsn(&self) -> Lsn {
        Lsn::new(self.durable.load(Ordering::Acquire))
    }

    /// Number of staged-but-unflushed records.
    pub fn staged_len(&self) -> usize {
        self.state.lock().unwrap().staged.len()
    }

    /// Render the durability pipeline's watermarks for the introspection
    /// plane: the durable LSN, the depth of the staged (group-commit) batch
    /// behind it, and how many followers are parked waiting on a flush.
    #[must_use]
    pub fn introspect(&self) -> String {
        let state = self.state.lock().unwrap();
        format!(
            "durable_lsn={} staged={} staged_bytes={} next_lsn={} parked={}\n",
            self.durable.load(Ordering::Acquire),
            state.staged.len(),
            state.staged.encoded_bytes(),
            state.next,
            state.parked,
        )
    }

    /// Simulate a crash-and-restart: discard the staged tail (a real crash
    /// loses the in-memory write buffer), clear any poison, and re-adopt
    /// the sink's surviving state as the durable truth — exactly what
    /// reopening the sink after a process death yields.
    pub fn recover_from_sink(&self) {
        let mut state = self.state.lock().unwrap();
        state.staged.clear();
        state.poisoned = None;
        state.next = self.inner.next_lsn().raw();
        self.durable.store(state.next - 1, Ordering::Release);
    }

    /// Wait (or lead a flush) until every LSN `<= lsn` is durable.
    fn ensure_durable(&self, lsn: u64) -> Result<(), LogError> {
        let mut state = self.state.lock().unwrap();
        loop {
            if self.durable.load(Ordering::Acquire) >= lsn {
                return Ok(());
            }
            if let Some(err) = &state.poisoned {
                return Err(err.clone());
            }
            if state.flushing {
                // Follower: a leader owns the in-flight batch; it will wake
                // us when the batch lands (or poisons the log).
                state.parked += 1;
                state = self.flushed.wait(state).unwrap();
                state.parked -= 1;
                continue;
            }
            // Leader: take the whole staged batch — everything up to
            // next - 1 — so every waiter it covers is woken at once.
            state.flushing = true;
            let spare = std::mem::take(&mut state.spare);
            let mut batch = std::mem::replace(&mut state.staged, spare);
            let batch_last = state.next - 1;
            drop(state);
            let result = self.flush_batch(&batch);
            state = self.state.lock().unwrap();
            state.flushing = false;
            match result {
                Ok(()) => {
                    self.durable.store(batch_last, Ordering::Release);
                    if let Some(tel) = &self.telemetry {
                        tel.syncs.incr();
                        tel.metrics.observe_count("wal_group_size", batch.len() as u64);
                        tel.metrics.observe_count("wal_batch_bytes", batch.encoded_bytes() as u64);
                    }
                }
                Err(e) => {
                    // The batch (or its barrier) failed: the staged tail is
                    // torn off and the wal stays dead until recovery.
                    state.poisoned = Some(e);
                }
            }
            batch.clear();
            state.spare = batch;
            // Read under the lock the followers park under: one that has
            // not counted itself in yet will find `flushing` false and the
            // new watermark when it gets the lock, so skipping the wake-up
            // (and its syscall) when nobody is parked loses none.
            if state.parked > 0 {
                self.flushed.notify_all();
            }
        }
    }

    /// One coalesced sink write + one sync for a taken batch. The sink's
    /// slice list of a batch of up to 16 records lives on the stack.
    fn flush_batch(&self, batch: &Stage) -> Result<(), LogError> {
        const INLINE: usize = 16;
        match batch.len() {
            0 => {}
            n if n <= INLINE => {
                let mut refs = [(0u32, &[] as &[u8]); INLINE];
                for (slot, record) in refs.iter_mut().zip(batch.records()) {
                    *slot = record;
                }
                self.inner.append_batch(&refs[..n])?;
            }
            _ => {
                let refs: Vec<(u32, &[u8])> = batch.records().collect();
                self.inner.append_batch(&refs)?;
            }
        }
        self.inner.sync()
    }

    /// Stage one record, returning its LSN and whether a threshold flush is
    /// due.
    fn stage(&self, kind: u32, payload: &[u8]) -> Result<(u64, bool), LogError> {
        let mut state = self.state.lock().unwrap();
        if let Some(err) = &state.poisoned {
            return Err(err.clone());
        }
        let lsn = state.next;
        state.next += 1;
        state.staged.push(kind, payload);
        let threshold_hit = state.staged.len() >= self.config.max_batch_records
            || state.staged.encoded_bytes() >= self.config.max_batch_bytes;
        Ok((lsn, threshold_hit))
    }
}

impl<W: Wal> Wal for GroupCommitWal<W> {
    fn append(&self, kind: u32, payload: &[u8]) -> Result<Lsn, LogError> {
        let (lsn, threshold_hit) = self.stage(kind, payload)?;
        if threshold_hit {
            self.ensure_durable(lsn)?;
        }
        Ok(Lsn::new(lsn))
    }

    fn append_durable(&self, kind: u32, payload: &[u8]) -> Result<Lsn, LogError> {
        let (lsn, _) = self.stage(kind, payload)?;
        self.ensure_durable(lsn)?;
        Ok(Lsn::new(lsn))
    }

    fn append_batch(&self, records: &[(u32, &[u8])]) -> Result<Lsn, LogError> {
        let mut last = Lsn::new(self.next_lsn().raw() - 1);
        let mut flush_to = None;
        for (kind, payload) in records {
            let (lsn, threshold_hit) = self.stage(*kind, payload)?;
            last = Lsn::new(lsn);
            if threshold_hit {
                flush_to = Some(lsn);
            }
        }
        if let Some(lsn) = flush_to {
            self.ensure_durable(lsn)?;
        }
        Ok(last)
    }

    fn flush_lsn(&self, lsn: Lsn) -> Result<(), LogError> {
        let appended = self.state.lock().unwrap().next - 1;
        self.ensure_durable(lsn.raw().min(appended))
    }

    fn scan_with(
        &self,
        from: Lsn,
        visit: &mut dyn FnMut(&LogRecord) -> Result<(), LogError>,
    ) -> Result<(), LogError> {
        self.sync()?;
        self.inner.scan_with(from, visit)
    }

    fn truncate_prefix(&self, upto: Lsn) -> Result<(), LogError> {
        // Only the already-durable prefix: dropping records never waits for
        // (or forces) a flush. The staged tail is above `upto.min(..)`.
        let durable = self.durable.load(Ordering::Acquire);
        self.inner.truncate_prefix(upto.min(Lsn::new(durable + 1)))
    }

    fn hold(&self) -> Option<Hold> {
        Some(self.inner.hold()?.capped_at(Arc::clone(&self.durable)))
    }

    fn sync(&self) -> Result<(), LogError> {
        let appended = self.state.lock().unwrap().next - 1;
        self.ensure_durable(appended)
    }

    fn next_lsn(&self) -> Lsn {
        Lsn::new(self.state.lock().unwrap().next)
    }

    fn len(&self) -> usize {
        // Retained in the sink plus staged: both O(1) with the sink's own
        // len override.
        let staged = self.state.lock().unwrap().staged.len();
        self.inner.len() + staged
    }
}

impl<W: Wal + std::fmt::Debug> std::fmt::Debug for GroupCommitWal<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().unwrap();
        f.debug_struct("GroupCommitWal")
            .field("inner", &self.inner)
            .field("config", &self.config)
            .field("next", &state.next)
            .field("durable", &self.durable)
            .field("staged", &state.staged.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashingWal;
    use crate::wal::MemWal;
    use std::sync::Arc;

    #[test]
    fn appends_stage_until_a_barrier_flushes_them() {
        let wal = GroupCommitWal::new(MemWal::new());
        assert_eq!(wal.append(1, b"a").unwrap(), Lsn::new(1));
        assert_eq!(wal.append(2, b"b").unwrap(), Lsn::new(2));
        assert_eq!(wal.staged_len(), 2);
        assert_eq!(wal.durable_lsn(), Lsn::new(0));
        assert_eq!(wal.len(), 2, "staged records count toward len");
        // The barrier flushes the whole batch in one go.
        assert_eq!(wal.append_durable(3, b"c").unwrap(), Lsn::new(3));
        assert_eq!(wal.staged_len(), 0);
        assert_eq!(wal.durable_lsn(), Lsn::new(3));
        assert_eq!(wal.inner().len(), 3);
    }

    #[test]
    fn scan_forces_a_flush_so_only_durable_records_are_visible() {
        let wal = GroupCommitWal::new(MemWal::new());
        wal.append(1, b"a").unwrap();
        wal.append(2, b"b").unwrap();
        let records = wal.scan(Lsn::new(0)).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(wal.durable_lsn(), Lsn::new(2));
    }

    #[test]
    fn count_threshold_triggers_a_flush() {
        let config = GroupCommitConfig { max_batch_records: 3, max_batch_bytes: usize::MAX };
        let wal = GroupCommitWal::with_config(MemWal::new(), config);
        wal.append(1, b"a").unwrap();
        wal.append(1, b"b").unwrap();
        assert_eq!(wal.staged_len(), 2);
        wal.append(1, b"c").unwrap();
        assert_eq!(wal.staged_len(), 0, "third append crosses the count threshold");
        assert_eq!(wal.durable_lsn(), Lsn::new(3));
    }

    #[test]
    fn byte_threshold_triggers_a_flush() {
        let config = GroupCommitConfig { max_batch_records: usize::MAX, max_batch_bytes: 64 };
        let wal = GroupCommitWal::with_config(MemWal::new(), config);
        wal.append(1, &[0u8; 10]).unwrap();
        assert_eq!(wal.staged_len(), 1);
        wal.append(1, &[0u8; 40]).unwrap();
        assert_eq!(wal.staged_len(), 0, "second append crosses the byte threshold");
    }

    #[test]
    fn flush_lsn_is_a_selective_barrier() {
        let wal = GroupCommitWal::new(MemWal::new());
        wal.append(1, b"a").unwrap();
        wal.flush_lsn(Lsn::new(1)).unwrap();
        assert_eq!(wal.durable_lsn(), Lsn::new(1));
        // A barrier past the end clamps to the last appended record.
        wal.append(1, b"b").unwrap();
        wal.flush_lsn(Lsn::new(99)).unwrap();
        assert_eq!(wal.durable_lsn(), Lsn::new(2));
        // An already-durable barrier is a no-op.
        wal.flush_lsn(Lsn::new(1)).unwrap();
    }

    #[test]
    fn lsns_match_the_sink_after_flushes() {
        let wal = GroupCommitWal::new(MemWal::new());
        for i in 0..10u32 {
            wal.append(i, &i.to_be_bytes()).unwrap();
            if i % 3 == 0 {
                wal.sync().unwrap();
            }
        }
        wal.sync().unwrap();
        let records = wal.inner().scan(Lsn::new(0)).unwrap();
        assert_eq!(records.len(), 10);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.lsn, Lsn::new(i as u64 + 1), "sink LSNs must match staged LSNs");
            assert_eq!(r.kind, i as u32);
        }
        assert_eq!(wal.next_lsn(), wal.inner().next_lsn());
    }

    #[test]
    fn wrapping_a_nonempty_sink_continues_its_lsns() {
        let sink = MemWal::new();
        sink.append(1, b"pre").unwrap();
        let wal = GroupCommitWal::new(sink);
        assert_eq!(wal.durable_lsn(), Lsn::new(1));
        assert_eq!(wal.append_durable(2, b"post").unwrap(), Lsn::new(2));
        assert_eq!(wal.inner().len(), 2);
    }

    #[test]
    fn a_failed_flush_poisons_the_wal_and_recovery_readopts_the_sink() {
        // The sink crashes on its 3rd append: the staged batch tears.
        let wal = GroupCommitWal::new(CrashingWal::new(MemWal::new(), 2));
        wal.append(1, b"a").unwrap();
        wal.append(1, b"b").unwrap();
        wal.append(1, b"c").unwrap();
        let err = wal.append_durable(1, b"d");
        assert!(matches!(err, Err(LogError::CrashInjected(_))));
        // Poisoned: every subsequent operation reports the crash.
        assert!(matches!(wal.append(1, b"e"), Err(LogError::CrashInjected(_))));
        assert!(matches!(wal.sync(), Err(LogError::CrashInjected(_))));
        // "Restart": the sink survived with the torn prefix; re-adopt it.
        wal.inner().defuse();
        wal.recover_from_sink();
        assert_eq!(wal.durable_lsn(), Lsn::new(2), "two appends reached the sink");
        assert_eq!(wal.append_durable(1, b"f").unwrap(), Lsn::new(3));
        assert_eq!(wal.inner().len(), 3);
    }

    #[test]
    fn a_failed_sync_keeps_acked_records_and_loses_no_acked_lsn() {
        // Writes land, the barrier itself crashes: the torn window between
        // write_all and sync_data.
        let wal = GroupCommitWal::new(CrashingWal::with_sync_crash(MemWal::new(), 1));
        wal.append_durable(1, b"acked").unwrap(); // first sync passes
        wal.append(1, b"staged").unwrap();
        let err = wal.append_durable(1, b"never-acked");
        assert!(matches!(err, Err(LogError::CrashInjected(ref s)) if s == "wal.sync"));
        let acked = wal.durable_lsn();
        assert_eq!(acked, Lsn::new(1));
        // Every acked LSN is present in the sink.
        let survived: Vec<u64> =
            wal.inner().scan(Lsn::new(0)).unwrap().iter().map(|r| r.lsn.raw()).collect();
        assert!(survived.contains(&acked.raw()));
    }

    #[test]
    fn concurrent_durable_appenders_share_flushes() {
        let tel = telemetry::Telemetry::new();
        let wal = Arc::new(GroupCommitWal::new(MemWal::new()).metered_by(&tel));
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let w = Arc::clone(&wal);
                s.spawn(move || {
                    for i in 0..50u32 {
                        w.append(t, &i.to_be_bytes()).unwrap();
                        w.append_durable(t, &i.to_be_bytes()).unwrap();
                    }
                });
            }
        });
        wal.sync().unwrap();
        let records = wal.inner().scan(Lsn::new(0)).unwrap();
        assert_eq!(records.len(), 800);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.lsn, Lsn::new(i as u64 + 1), "dense LSNs under concurrency");
        }
        // Group commit must have coalesced at least some barriers: there
        // were 400 append_durable barriers; strictly fewer syncs would
        // prove grouping, but scheduling may serialize them all, so only
        // the upper bound is asserted (the deterministic proofs are the
        // gated-sink tests and the telemetry test below).
        let syncs = tel.metrics().counter_value("wal_syncs_total");
        assert!(syncs <= 401, "at most one sync per barrier, got {syncs}");
    }

    /// A sink whose first `sync` announces itself, waits for the test's
    /// go-ahead and then succeeds or (with `fail_first_sync`) fails, and
    /// which notes the size of every batch it is handed.
    struct GatedSink {
        log: MemWal,
        batches: Mutex<Vec<usize>>,
        syncs: Mutex<usize>,
        entered: Mutex<std::sync::mpsc::Sender<()>>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
        fail_first_sync: bool,
    }

    /// A group-commit log over a [`GatedSink`], the receiver its first sync
    /// announces itself on, and the sender that lets that sync go on.
    fn gated(
        fail_first_sync: bool,
    ) -> (GroupCommitWal<GatedSink>, std::sync::mpsc::Receiver<()>, std::sync::mpsc::Sender<()>)
    {
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let wal = GroupCommitWal::new(GatedSink {
            log: MemWal::new(),
            batches: Mutex::new(Vec::new()),
            syncs: Mutex::new(0),
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
            fail_first_sync,
        });
        (wal, entered, release)
    }

    impl Wal for GatedSink {
        fn append(&self, kind: u32, payload: &[u8]) -> Result<Lsn, LogError> {
            self.log.append(kind, payload)
        }
        fn append_batch(&self, records: &[(u32, &[u8])]) -> Result<Lsn, LogError> {
            self.batches.lock().unwrap().push(records.len());
            self.log.append_batch(records)
        }
        fn scan_with(
            &self,
            from: Lsn,
            visit: &mut dyn FnMut(&LogRecord) -> Result<(), LogError>,
        ) -> Result<(), LogError> {
            self.log.scan_with(from, visit)
        }
        fn truncate_prefix(&self, upto: Lsn) -> Result<(), LogError> {
            self.log.truncate_prefix(upto)
        }
        fn hold(&self) -> Option<Hold> {
            self.log.hold()
        }
        fn sync(&self) -> Result<(), LogError> {
            let mut syncs = self.syncs.lock().unwrap();
            *syncs += 1;
            if *syncs == 1 {
                self.entered.lock().unwrap().send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
                if self.fail_first_sync {
                    return Err(LogError::Io("gated sync failed".into()));
                }
            }
            self.log.sync()
        }
        fn next_lsn(&self) -> Lsn {
            self.log.next_lsn()
        }
    }

    /// Hold the first committer's flush at its `sync`, let `waiters` more
    /// forces stage behind it, release. Returns the size of every batch the
    /// sink was handed and how many times it was synced.
    fn forces_staged_behind_a_held_flush(waiters: u64) -> (Vec<usize>, usize) {
        let (wal, entered, release) = gated(false);
        std::thread::scope(|s| {
            let wal = &wal;
            let first = s.spawn(|| wal.append_durable(1, b"first").unwrap());
            entered.recv().unwrap(); // the first flush is at its sync
            let rest: Vec<_> = (0..waiters)
                .map(|_| s.spawn(|| wal.append_durable(2, b"waiter").unwrap()))
                .collect();
            // A waiter has staged once its LSN is handed out; from there it
            // can only wait on the flush in flight.
            while wal.next_lsn() != Lsn::new(waiters + 2) {
                std::thread::yield_now();
            }
            assert_eq!(wal.staged_len() as u64, waiters, "staged behind the flush, not in it");
            assert_eq!(wal.durable_lsn(), Lsn::new(0));
            release.send(()).unwrap();
            assert_eq!(first.join().unwrap(), Lsn::new(1));
            let mut acked: Vec<u64> =
                rest.into_iter().map(|w| w.join().unwrap().raw()).collect();
            acked.sort_unstable();
            assert_eq!(acked, (2..waiters + 2).collect::<Vec<u64>>());
        });
        assert_eq!(wal.durable_lsn(), Lsn::new(waiters + 1));
        let sink = wal.into_inner();
        (sink.batches.into_inner().unwrap(), sink.syncs.into_inner().unwrap())
    }

    /// Why two alternating committers never share a sync (EXPERIMENTS.md
    /// W1): a flush covers what was staged when its leader took the batch.
    /// A barrier arriving while that flush is in flight stages behind it,
    /// waits it out as a follower, finds itself still not durable and leads
    /// the next flush alone.
    #[test]
    fn a_waiter_staged_during_a_flush_is_not_covered_by_it() {
        let (batches, syncs) = forces_staged_behind_a_held_flush(1);
        assert_eq!(batches, [1, 1], "batches of one each");
        assert_eq!(syncs, 2, "two forces, two syncs");
    }

    /// The sharing group commit exists for (the 8-committer row of
    /// EXPERIMENTS.md W1, counted instead of timed): every committer that
    /// stages while a flush is in flight is taken into the *next* flush
    /// together. Whichever of the eight wakes first leads; it takes all
    /// eight staged records, and the other seven find themselves durable.
    #[test]
    fn eight_waiters_staged_during_a_flush_share_the_next_one() {
        let (batches, syncs) = forces_staged_behind_a_held_flush(8);
        assert_eq!(batches, [1, 8], "one batch took all eight");
        assert_eq!(syncs, 2, "nine forces, two syncs");
    }

    /// A leader wakes followers only when one is parked, so the poison path
    /// must still wake the one that is: a follower parked behind a flush
    /// whose sync fails returns that error instead of waiting forever.
    #[test]
    fn a_follower_parked_behind_a_failed_sync_is_woken_with_its_error() {
        let (wal, entered, release) = gated(true);
        let wal = Arc::new(wal);
        let leader = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.append_durable(1, b"first"))
        };
        entered.recv().unwrap(); // the leader's flush is at its sync
        let (done, follower) = std::sync::mpsc::channel();
        let parked = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || done.send(wal.append_durable(2, b"follower")).unwrap())
        };
        while !wal.introspect().contains("parked=1") {
            std::thread::yield_now();
        }
        release.send(()).unwrap();
        let error = LogError::Io("gated sync failed".into());
        assert_eq!(leader.join().unwrap(), Err(error.clone()));
        let woken = follower.recv_timeout(std::time::Duration::from_secs(30));
        assert_eq!(woken.expect("the parked follower was never woken"), Err(error));
        parked.join().unwrap();
        assert!(wal.introspect().ends_with("parked=0\n"), "{}", wal.introspect());
    }

    /// Eight committers forcing 2 000 appends each over one log: every
    /// force returns (no wake-up is lost to the parked count), and every
    /// acknowledged LSN is durable when it is acknowledged.
    #[test]
    fn every_force_of_eight_committers_returns_durable() {
        const THREADS: u32 = 8;
        const FORCES: u32 = 2_000;
        let wal = Arc::new(GroupCommitWal::new(MemWal::new()));
        let (done, finished) = std::sync::mpsc::channel();
        let committers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (wal, done) = (Arc::clone(&wal), done.clone());
                std::thread::spawn(move || {
                    for i in 0..FORCES {
                        let lsn = wal.append_durable(t, &i.to_be_bytes()).unwrap();
                        let durable = wal.durable_lsn();
                        assert!(lsn <= durable, "{lsn} acknowledged above durable {durable}");
                    }
                    done.send(t).unwrap();
                })
            })
            .collect();
        drop(done); // a committer that panics disconnects instead of sending
        for _ in 0..THREADS {
            finished
                .recv_timeout(std::time::Duration::from_secs(120))
                .expect("a committer never returned from a force (or panicked)");
        }
        for committer in committers {
            committer.join().unwrap();
        }
        assert_eq!(wal.durable_lsn(), Lsn::new(u64::from(THREADS * FORCES)));
        assert!(wal.introspect().ends_with("parked=0\n"), "{}", wal.introspect());
    }

    /// A release costs no flush: it drops the already-durable prefix and
    /// stops there, whether it comes through a hold or through the
    /// sink-level primitive. Counted, not timed: the sink's `sync` count
    /// does not move.
    #[test]
    fn a_release_never_forces_or_waits_for_a_flush() {
        let (wal, _entered, release) = gated(false);
        release.send(()).unwrap(); // the first sync passes straight through
        let hold = wal.hold().expect("the decorator forwards its sink's registry");
        wal.append(1, b"a").unwrap();
        wal.append_durable(1, b"b").unwrap();
        wal.append(1, b"staged").unwrap();
        let syncs = |wal: &GroupCommitWal<GatedSink>| *wal.inner().syncs.lock().unwrap();
        assert_eq!((syncs(&wal), wal.staged_len()), (1, 1));

        hold.release_below(Lsn::new(99)).unwrap();
        assert_eq!(hold.low_water(), Lsn::new(3), "stops at the durable LSN");
        wal.truncate_prefix(Lsn::new(99)).unwrap();
        assert_eq!((syncs(&wal), wal.staged_len()), (1, 1), "nothing was flushed");
        assert_eq!(wal.inner().len(), 0, "the durable prefix is gone");
        // The staged record lands later, intact and with its own LSN.
        assert_eq!(wal.scan(Lsn::new(0)).unwrap()[0].lsn, Lsn::new(3));
    }

    #[test]
    fn telemetry_records_sync_count_and_group_size() {
        let tel = telemetry::Telemetry::new();
        let wal = GroupCommitWal::new(MemWal::new()).metered_by(&tel);
        for _ in 0..5 {
            wal.append(1, b"ride-the-batch").unwrap();
        }
        wal.append_durable(2, b"decision").unwrap();
        assert_eq!(tel.metrics().counter_value("wal_syncs_total"), 1);
        assert_eq!(tel.metrics().histogram_count("wal_group_size"), 1);
        assert_eq!(tel.metrics().histogram_count("wal_batch_bytes"), 1);
        let text = tel.metrics().render_prometheus();
        assert!(text.contains("wal_group_size_sum 6"), "one batch of 6 records:\n{text}");
    }
}
