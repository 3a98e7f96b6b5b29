//! The write-ahead log interface and its in-memory implementation.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::LogError;
use crate::record::{LogRecord, Lsn};
use crate::retention::{Hold, Holds, Retained};

/// A write-ahead log: append-only, scannable, prefix-truncatable.
///
/// Implementations must assign dense, strictly increasing [`Lsn`]s starting
/// at 1 and must make a record visible to [`Wal::scan`] only once it is
/// durable to the implementation's standard (in-memory logs are "durable" as
/// soon as the append returns; [`crate::FileWal`] after the bytes hit the
/// file).
pub trait Wal: Send + Sync {
    /// Append a record, returning its assigned [`Lsn`].
    ///
    /// # Errors
    ///
    /// Implementations may fail with [`LogError::Io`], [`LogError::Sealed`]
    /// or an injected [`LogError::CrashInjected`].
    fn append(&self, kind: u32, payload: &[u8]) -> Result<Lsn, LogError>;

    /// Append a record and force its durability before returning (the
    /// *forced* write of the 2PC forcing discipline: callers use this for
    /// decision records and plain [`Wal::append`] for records that may ride
    /// a later batch).
    ///
    /// The default is append-then-sync; batching logs override it with a
    /// group-commit barrier covering exactly this record's LSN.
    ///
    /// # Errors
    ///
    /// Propagates append and sync failures.
    fn append_durable(&self, kind: u32, payload: &[u8]) -> Result<Lsn, LogError> {
        let lsn = self.append(kind, payload)?;
        self.sync()?;
        Ok(lsn)
    }

    /// Append several records at once, returning the [`Lsn`] of the *last*
    /// one (records receive dense consecutive LSNs). An empty batch appends
    /// nothing and returns the LSN of the most recent record.
    ///
    /// The default loops [`Wal::append`]; file-backed logs override it with
    /// one coalesced encode + `write_all`. Durability is NOT implied — pair
    /// with [`Wal::sync`] or [`Wal::flush_lsn`].
    ///
    /// # Errors
    ///
    /// Propagates the first append failure; records before it were
    /// appended (the same torn-prefix contract a crash leaves on disk).
    fn append_batch(&self, records: &[(u32, &[u8])]) -> Result<Lsn, LogError> {
        let mut last = Lsn::new(self.next_lsn().raw().saturating_sub(1));
        for (kind, payload) in records {
            last = self.append(*kind, payload)?;
        }
        Ok(last)
    }

    /// Durability barrier: force everything up to and including `lsn`.
    /// A no-op when that prefix is already durable.
    ///
    /// The default syncs the whole log (correct, if coarser than needed);
    /// group-commit logs override it to wait only for the covering batch.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] on sync failure.
    fn flush_lsn(&self, lsn: Lsn) -> Result<(), LogError> {
        let _ = lsn;
        self.sync()
    }

    /// Return (clones of) every durable record at or after `from`, in LSN
    /// order: [`Wal::scan_with`], materialised, and failing as it does.
    fn scan(&self, from: Lsn) -> Result<Vec<LogRecord>, LogError> {
        let mut records = Vec::new();
        self.scan_with(from, &mut |record| {
            records.push(record.clone());
            Ok(())
        })?;
        Ok(records)
    }

    /// Visit every durable record at or after `from`, in LSN order, in
    /// place. Replay paths use this so recovery is zero-copy over the log's
    /// retained records (a file log decodes each into one reused record).
    ///
    /// Implementations may hold internal locks across the visits: `visit`
    /// must not call back into the same log.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] if the log cannot be read, and the first
    /// error `visit` returns. Torn or corrupt *tails* are not errors: the
    /// valid prefix is visited (file logs cut the scan at the first bad
    /// record).
    fn scan_with(
        &self,
        from: Lsn,
        visit: &mut dyn FnMut(&LogRecord) -> Result<(), LogError>,
    ) -> Result<(), LogError>;

    /// Drop all records with `lsn < upto`, whoever holds them: the sink-level
    /// primitive. Components release through their [`Hold`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] if the compaction cannot be persisted.
    fn truncate_prefix(&self, upto: Lsn) -> Result<(), LogError>;

    /// Register a holder of this log's records (see [`crate::retention`]):
    /// every component that appends takes one at construction and releases
    /// below its oldest unfinished unit of work.
    ///
    /// `None` — the default — means this log does not coordinate retention
    /// and is left alone; a decorator that does not forward `hold` thereby
    /// opts its log out.
    fn hold(&self) -> Option<Hold> {
        None
    }

    /// Force durability of everything appended so far.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] on sync failure.
    fn sync(&self) -> Result<(), LogError>;

    /// The LSN that the next append will receive.
    fn next_lsn(&self) -> Lsn;

    /// Number of currently retained records.
    fn len(&self) -> usize {
        self.scan(Lsn::new(0)).map(|r| r.len()).unwrap_or(0)
    }

    /// Whether the log retains no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An in-memory [`Wal`] for tests, benchmarks and volatile deployments.
#[derive(Debug, Default)]
pub struct MemWal {
    // Shared with the holds taken on this log.
    inner: Arc<Mutex<MemWalInner>>,
}

#[derive(Debug, Default)]
struct MemWalInner {
    // LSN order, so a released prefix pops off the front.
    records: VecDeque<LogRecord>,
    next: u64,
    sealed: bool,
    holds: Holds,
}

impl Retained for MemWalInner {
    fn holds(&mut self) -> &mut Holds {
        &mut self.holds
    }

    fn drop_below(&mut self, low_water: u64) -> Result<(), LogError> {
        while self.records.front().is_some_and(|r| r.lsn.raw() < low_water) {
            self.records.pop_front();
        }
        Ok(())
    }
}

impl MemWal {
    /// An empty in-memory log.
    pub fn new() -> Self {
        MemWal { inner: Arc::new(Mutex::new(MemWalInner { next: 1, ..Default::default() })) }
    }

    /// Seal the log: further appends fail with [`LogError::Sealed`]. Used to
    /// model a "dead" process whose log survives.
    pub fn seal(&self) {
        self.inner.lock().sealed = true;
    }

    /// Reopen a sealed log (the "restarted process" picks the log back up).
    pub fn unseal(&self) {
        self.inner.lock().sealed = false;
    }
}

impl Wal for MemWal {
    fn append(&self, kind: u32, payload: &[u8]) -> Result<Lsn, LogError> {
        let mut inner = self.inner.lock();
        if inner.sealed {
            return Err(LogError::Sealed);
        }
        let lsn = Lsn::new(inner.next);
        inner.next += 1;
        inner.records.push_back(LogRecord::new(lsn, kind, payload.to_vec()));
        Ok(lsn)
    }

    fn append_batch(&self, records: &[(u32, &[u8])]) -> Result<Lsn, LogError> {
        let mut inner = self.inner.lock();
        if inner.sealed {
            return Err(LogError::Sealed);
        }
        for (kind, payload) in records {
            let lsn = Lsn::new(inner.next);
            inner.next += 1;
            inner.records.push_back(LogRecord::new(lsn, *kind, payload.to_vec()));
        }
        Ok(Lsn::new(inner.next - 1))
    }

    fn scan_with(
        &self,
        from: Lsn,
        visit: &mut dyn FnMut(&LogRecord) -> Result<(), LogError>,
    ) -> Result<(), LogError> {
        let inner = self.inner.lock();
        for record in inner.records.iter().filter(|r| r.lsn >= from) {
            visit(record)?;
        }
        Ok(())
    }

    fn truncate_prefix(&self, upto: Lsn) -> Result<(), LogError> {
        let mut inner = self.inner.lock();
        let low_water = inner.holds.raise(upto.raw());
        inner.drop_below(low_water)
    }

    fn hold(&self) -> Option<Hold> {
        Some(Hold::on(self.inner.clone()))
    }

    fn sync(&self) -> Result<(), LogError> {
        Ok(())
    }

    fn next_lsn(&self) -> Lsn {
        Lsn::new(self.inner.lock().next)
    }

    fn len(&self) -> usize {
        self.inner.lock().records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_assign_dense_lsns() {
        let wal = MemWal::new();
        assert!(wal.is_empty());
        assert_eq!(wal.append(1, b"a").unwrap(), Lsn::new(1));
        assert_eq!(wal.append(2, b"b").unwrap(), Lsn::new(2));
        assert_eq!(wal.next_lsn(), Lsn::new(3));
        assert_eq!(wal.len(), 2);
    }

    #[test]
    fn scan_from_midpoint() {
        let wal = MemWal::new();
        for i in 0..5u32 {
            wal.append(i, &[i as u8]).unwrap();
        }
        let tail = wal.scan(Lsn::new(3)).unwrap();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].lsn, Lsn::new(3));
    }

    #[test]
    fn truncate_prefix_drops_old_records() {
        let wal = MemWal::new();
        for i in 0..5u32 {
            wal.append(i, b"x").unwrap();
        }
        wal.truncate_prefix(Lsn::new(4)).unwrap();
        let remaining = wal.scan(Lsn::new(0)).unwrap();
        assert_eq!(remaining.len(), 2);
        assert_eq!(remaining[0].lsn, Lsn::new(4));
        // LSNs keep counting even after truncation.
        assert_eq!(wal.append(9, b"y").unwrap(), Lsn::new(6));
    }

    #[test]
    fn the_log_drops_only_what_no_holder_needs() {
        let wal = MemWal::new();
        let (fast, slow) = (wal.hold().unwrap(), wal.hold().unwrap());
        for i in 0..6u32 {
            wal.append(i, b"x").unwrap();
        }
        fast.release_below(Lsn::new(5)).unwrap();
        assert_eq!(wal.len(), 6, "the slow holder still needs everything");
        assert_eq!(fast.low_water(), Lsn::new(0));
        slow.release_below(Lsn::new(3)).unwrap();
        assert_eq!(wal.scan(Lsn::new(0)).unwrap()[0].lsn, Lsn::new(3));
        assert_eq!(slow.low_water(), Lsn::new(3));
        // A dropped hold leaves with its component and releases nothing by
        // itself; the next release is measured against who is left.
        drop(slow);
        assert_eq!(wal.len(), 4);
        fast.release_below(Lsn::new(6)).unwrap();
        assert_eq!(wal.len(), 1);
        // Releasing past the end empties the log; LSNs keep counting.
        fast.release_below(wal.next_lsn()).unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.append(9, b"y").unwrap(), Lsn::new(7));
    }

    #[test]
    fn sealed_log_rejects_appends_but_still_scans() {
        let wal = MemWal::new();
        wal.append(1, b"a").unwrap();
        wal.seal();
        assert!(matches!(wal.append(1, b"b"), Err(LogError::Sealed)));
        assert_eq!(wal.scan(Lsn::new(0)).unwrap().len(), 1);
        wal.unseal();
        assert!(wal.append(1, b"b").is_ok());
    }

    #[test]
    fn append_durable_is_append_plus_sync() {
        let wal = MemWal::new();
        assert_eq!(wal.append_durable(1, b"d").unwrap(), Lsn::new(1));
        assert_eq!(wal.len(), 1);
        assert_eq!(wal.scan(Lsn::new(0)).unwrap()[0].payload, b"d");
    }

    #[test]
    fn append_batch_assigns_dense_lsns() {
        let wal = MemWal::new();
        wal.append(9, b"pre").unwrap();
        let last = wal
            .append_batch(&[(1, b"a".as_slice()), (2, b"b".as_slice()), (3, b"c".as_slice())])
            .unwrap();
        assert_eq!(last, Lsn::new(4));
        assert_eq!(wal.next_lsn(), Lsn::new(5));
        let records = wal.scan(Lsn::new(2)).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].kind, 1);
        assert_eq!(records[2].kind, 3);
        // An empty batch appends nothing and reports the last assigned LSN.
        assert_eq!(wal.append_batch(&[]).unwrap(), Lsn::new(4));
        // Sealed logs refuse batches like they refuse appends.
        wal.seal();
        assert!(matches!(wal.append_batch(&[(1, b"x".as_slice())]), Err(LogError::Sealed)));
    }

    #[test]
    fn scan_with_visits_in_order_and_stops_on_error() {
        let wal = MemWal::new();
        for i in 0..5u32 {
            wal.append(i, &[i as u8]).unwrap();
        }
        let mut seen = Vec::new();
        wal.scan_with(Lsn::new(3), &mut |r| {
            seen.push(r.lsn.raw());
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![3, 4, 5]);
        let mut visits = 0;
        let err = wal.scan_with(Lsn::new(0), &mut |_| {
            visits += 1;
            if visits == 2 {
                Err(LogError::Handler("enough".into()))
            } else {
                Ok(())
            }
        });
        assert!(matches!(err, Err(LogError::Handler(_))));
        assert_eq!(visits, 2, "the visitor error must stop the scan");
    }

    #[test]
    fn concurrent_appends_never_lose_records() {
        let wal = std::sync::Arc::new(MemWal::new());
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let w = std::sync::Arc::clone(&wal);
                s.spawn(move || {
                    for i in 0..250u32 {
                        w.append(t, &i.to_be_bytes()).unwrap();
                    }
                });
            }
        });
        let records = wal.scan(Lsn::new(0)).unwrap();
        assert_eq!(records.len(), 1000);
        // LSNs are dense and strictly increasing.
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.lsn, Lsn::new(i as u64 + 1));
        }
    }
}
