//! The transaction factory: creation, bookkeeping and recovery entry point.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use orb::pool::DispatchConfig;
use orb::Env;
use parking_lot::RwLock;
use recovery_log::{Hold, Lsn, Wal};

use crate::control::Control;
use crate::coordinator::Coordinator;
use crate::error::TxError;
use crate::txlog::{self, ParticipantResolver, TxRecoveryReport};
use crate::xid::{TxId, TxMap};

/// Creates transactions (mirrors CosTransactions::TransactionFactory) and
/// owns the service-wide pieces: the decision log, the [`Env`] every
/// coordinator inherits (failpoints, the virtual clock for timeouts,
/// detector, telemetry, sequencer), and the registry of in-flight
/// transactions.
pub struct TransactionFactory {
    next_top: AtomicU64,
    wal: Option<Arc<dyn Wal>>,
    /// This factory's claim on `wal`, moved up by `reap_completed`.
    hold: Option<Hold>,
    /// Raw LSN the hold never passes: the first record of the oldest commit
    /// a participant has not acknowledged (`replay_completion` must keep
    /// finding its decision), `u64::MAX` when there is none, 0 over a log
    /// that was not empty until `recover` has read it.
    floor: AtomicU64,
    env: Arc<Env>,
    dispatch: DispatchConfig,
    /// Each in-flight transaction with the LSN of its `TX_BEGUN` record.
    inflight: RwLock<TxMap<(Arc<Coordinator>, Lsn)>>,
}

impl std::fmt::Debug for TransactionFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransactionFactory")
            .field("next_top", &self.next_top.load(Ordering::Relaxed))
            .field("logged", &self.wal.is_some())
            .field("inflight", &self.inflight.read().len())
            .finish()
    }
}

impl Default for TransactionFactory {
    fn default() -> Self {
        Self::new()
    }
}

impl TransactionFactory {
    /// A factory with no durable log (volatile transactions).
    pub fn new() -> Self {
        TransactionFactory {
            next_top: AtomicU64::new(1),
            wal: None,
            hold: None,
            floor: AtomicU64::new(u64::MAX),
            env: Env::new(),
            dispatch: DispatchConfig::default(),
            inflight: RwLock::default(),
        }
    }

    /// A factory whose coordinators write decision records to `wal` and
    /// which releases it behind the transactions `reap_completed` forgets —
    /// over a log that already holds records, not before `recover` has run.
    pub fn with_wal(wal: Arc<dyn Wal>) -> Self {
        let floor = if wal.is_empty() { u64::MAX } else { 0 };
        TransactionFactory {
            hold: wal.hold(),
            floor: AtomicU64::new(floor),
            wal: Some(wal),
            ..Self::new()
        }
    }

    /// Run under the given context: every coordinator (and subtransaction)
    /// this factory creates shares it — see [`Env`]'s fields for what each
    /// plane does to the protocol. Its clock times
    /// [`TransactionFactory::create_with_timeout`]; suspicion its detector
    /// learns in one transaction carries into the next.
    #[must_use]
    pub fn with_env(mut self, env: Arc<Env>) -> Self {
        self.env = env;
        self
    }

    /// Choose how this factory's coordinators fan participant calls out
    /// during two-phase commit: [`DispatchConfig::serial`] reproduces the
    /// legacy one-at-a-time loops exactly; the default solicits votes and
    /// delivers phase-two outcomes concurrently on the shared worker pool.
    #[must_use]
    pub fn with_dispatch(mut self, dispatch: DispatchConfig) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Begin a new top-level transaction with no timeout.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Log`] when the begin record cannot be written.
    pub fn create(&self) -> Result<Control, TxError> {
        self.create_inner(None)
    }

    /// Begin a new top-level transaction that is doomed once the virtual
    /// clock passes `timeout` from now.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Log`] when the begin record cannot be written.
    pub fn create_with_timeout(&self, timeout: Duration) -> Result<Control, TxError> {
        self.create_inner(Some(self.env.clock.now() + timeout))
    }

    fn create_inner(&self, deadline: Option<Duration>) -> Result<Control, TxError> {
        let id = TxId::top_level(self.next_top.fetch_add(1, Ordering::Relaxed));
        let coordinator = Coordinator::new_top_level(
            id.clone(),
            self.wal.clone(),
            Arc::clone(&self.env),
            deadline,
            self.dispatch,
        );
        // The begin record is appended under the table lock: a reap sees
        // either no record or the transaction that pins it.
        let mut inflight = self.inflight.write();
        let begun = match &self.wal {
            Some(wal) => txlog::log_begun(wal.as_ref(), &id)?,
            None => Lsn::new(0),
        };
        inflight.insert(id, (Arc::clone(&coordinator), begun));
        Ok(Control::new(coordinator))
    }

    /// Look up an in-flight transaction by id.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Unknown`] for ids this factory never issued or has
    /// forgotten.
    pub fn lookup(&self, id: &TxId) -> Result<Arc<Coordinator>, TxError> {
        self.inflight
            .read()
            .get(id)
            .map(|(coordinator, _)| Arc::clone(coordinator))
            .ok_or_else(|| TxError::Unknown(id.clone()))
    }

    /// Drop terminal transactions from the in-flight table (returning how
    /// many) and release the log below the oldest transaction still live —
    /// or committed without every participant's acknowledgement: its
    /// decision must keep answering `replay_completion`.
    pub fn reap_completed(&self) -> usize {
        let mut inflight = self.inflight.write();
        let before = inflight.len();
        let mut floor = self.floor.load(Ordering::Relaxed);
        let mut oldest_live = None;
        inflight.retain(|_, (coordinator, begun)| {
            let live = !coordinator.status().is_terminal();
            if live {
                oldest_live = Some(oldest_live.map_or(*begun, |oldest: Lsn| oldest.min(*begun)));
            } else if coordinator.unacknowledged() {
                floor = floor.min(begun.raw());
            }
            live
        });
        self.floor.store(floor, Ordering::Relaxed);
        if let (Some(hold), Some(wal)) = (&self.hold, &self.wal) {
            // Read under the table lock, so no begin record is younger.
            let live_from = oldest_live.unwrap_or_else(|| wal.next_lsn());
            // A compaction that fails leaves more history, never less.
            let _ = hold.release_below(live_from.min(Lsn::new(floor)));
        }
        before - inflight.len()
    }

    /// Render the factory's gauges for the introspection plane: how many
    /// transactions are in flight, and its log's next LSN, low-water mark
    /// and records retained between them.
    #[must_use]
    pub fn introspect(&self) -> String {
        let low_water = self.hold.as_ref().map_or(Lsn::new(0), Hold::low_water);
        let (next_lsn, retained) =
            self.wal.as_ref().map_or((Lsn::new(0), 0), |wal| (wal.next_lsn(), wal.len()));
        let inflight = self.inflight.read().len();
        format!("inflight={inflight} next_lsn={next_lsn} low_water={low_water} retained={retained}\n")
    }

    /// Run crash recovery against this factory's log: re-deliver outcomes
    /// for every in-doubt transaction found there.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Log`] when there is no log or it cannot be read.
    pub fn recover(&self, resolver: &dyn ParticipantResolver) -> Result<TxRecoveryReport, TxError> {
        let wal = self.wal.as_ref().ok_or_else(|| TxError::Log("factory has no log".into()))?;
        let report = txlog::recover(wal.as_ref(), resolver)?;
        // Make sure new ids never collide with logged ones.
        let mut max_seen = 0;
        for tx in report.recommitted.iter().chain(report.presumed_aborted.iter()) {
            max_seen = max_seen.max(tx.top_seq());
        }
        let next = self.next_top.load(Ordering::Relaxed);
        if max_seen >= next {
            self.next_top.store(max_seen + 1, Ordering::Relaxed);
        }
        // The log has been read: the next reap may release it, up to
        // whatever is still unacknowledged.
        self.floor.store(report.retain_from.map_or(u64::MAX, Lsn::raw), Ordering::Relaxed);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::test_support::ScriptedResource;
    use crate::resource::{Resource, Vote};
    use crate::status::TxStatus;
    use orb::SimClock;
    use recovery_log::{FailpointSet, MemWal};

    fn failpoint_env(failpoints: &FailpointSet) -> Arc<Env> {
        Env { failpoints: Some(failpoints.clone()), ..Default::default() }.wired()
    }

    #[test]
    fn factory_issues_unique_ids() {
        let f = TransactionFactory::new();
        let a = f.create().unwrap();
        let b = f.create().unwrap();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn lookup_and_reap() {
        let f = TransactionFactory::new();
        let c = f.create().unwrap();
        let id = c.id().clone();
        assert!(f.lookup(&id).is_ok());
        c.terminator().commit().unwrap();
        assert_eq!(f.reap_completed(), 1);
        assert!(matches!(f.lookup(&id), Err(TxError::Unknown(_))));
    }

    #[test]
    fn crash_between_decision_and_completion_recovers_commit() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let failpoints = FailpointSet::new();
        let f = TransactionFactory::with_wal(Arc::clone(&wal)).with_env(failpoint_env(&failpoints));

        let store = ScriptedResource::voting("store", Vote::Commit);
        let witness = ScriptedResource::voting("witness", Vote::Commit);
        let control = f.create().unwrap();
        control.coordinator().register_resource(store.clone()).unwrap();
        control.coordinator().register_resource(witness.clone()).unwrap();
        failpoints.arm("ots.after_decision", 0);
        let err = control.terminator().commit().unwrap_err();
        assert!(matches!(err, TxError::Log(_)));
        // The decision is durable but phase two never ran.
        assert_eq!(store.calls(), vec!["prepare"]);

        // "Restart": a new factory over the same log.
        failpoints.clear();
        let f2 = TransactionFactory::with_wal(wal);
        let store2 = store.clone();
        let witness2 = witness.clone();
        let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
            match name {
                "store" => Some(store2.clone()),
                "witness" => Some(witness2.clone()),
                _ => None,
            }
        };
        let report = f2.recover(&resolver).unwrap();
        assert_eq!(report.recommitted.len(), 1);
        assert_eq!(store.calls(), vec!["prepare", "commit"]);
        assert_eq!(witness.calls(), vec!["prepare", "commit"]);
        // Ids continue past the recovered transaction.
        let fresh = f2.create().unwrap();
        assert!(fresh.id().top_seq() > report.recommitted[0].top_seq());
    }

    #[test]
    fn crash_before_decision_recovers_rollback() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let failpoints = FailpointSet::new();
        let f = TransactionFactory::with_wal(Arc::clone(&wal)).with_env(failpoint_env(&failpoints));
        let store = ScriptedResource::voting("store", Vote::Commit);
        let other = ScriptedResource::voting("other", Vote::Commit);
        let control = f.create().unwrap();
        control.coordinator().register_resource(store.clone()).unwrap();
        control.coordinator().register_resource(other.clone()).unwrap();
        failpoints.arm("ots.before_decision", 0);
        control.terminator().commit().unwrap_err();

        failpoints.clear();
        let f2 = TransactionFactory::with_wal(wal);
        let store2 = store.clone();
        let other2 = other.clone();
        let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
            match name {
                "store" => Some(store2.clone()),
                "other" => Some(other2.clone()),
                _ => None,
            }
        };
        let report = f2.recover(&resolver).unwrap();
        assert_eq!(report.presumed_aborted.len(), 1);
        assert_eq!(store.calls(), vec!["prepare", "rollback"]);
    }

    #[test]
    fn timeout_via_virtual_clock() {
        let clock = SimClock::new();
        let f = TransactionFactory::new().with_env(Env::with_clock(clock.clone()));
        let c = f.create_with_timeout(Duration::from_millis(10)).unwrap();
        assert_eq!(c.coordinator().status(), TxStatus::Active);
        clock.advance(Duration::from_millis(20));
        assert_eq!(c.coordinator().status(), TxStatus::MarkedRollback);
    }

    #[test]
    fn recover_without_log_fails() {
        let f = TransactionFactory::new();
        let resolver = |_: &str| -> Option<Arc<dyn Resource>> { None };
        assert!(matches!(f.recover(&resolver), Err(TxError::Log(_))));
    }
}
