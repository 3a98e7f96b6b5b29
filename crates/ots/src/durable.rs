//! A durable, recoverable transactional store.
//!
//! §3.4 of the paper: "many transaction systems simply state the
//! requirements they place on such objects if they are to be made
//! recoverable, and leave it up to the object implementers to determine the
//! best strategy for their object's persistence." [`DurableKv`] is such an
//! object implementer, done right:
//!
//! * **prepare** forces a redo record of the transaction's effects before
//!   voting commit (the participant contract: a prepared participant must
//!   survive a crash still able to commit *or* roll back);
//! * **commit** forces a commit record and applies the effects;
//! * **recovery** ([`DurableKv::recover`]) rebuilds the committed state and
//!   re-installs prepared-but-undecided workspaces, so the transaction
//!   service's own recovery ([`crate::txlog::recover`]) can finish the job
//!   by re-delivering the outcome.

use std::sync::Arc;

use orb::{ListWriter, MapWriter, Value};
use parking_lot::Mutex;
use recovery_log::{Hold, LogError, LogRecord, Lsn, Wal};

use crate::error::TxError;
use crate::memres::TransactionalKv;
use crate::resource::{Resource, Vote};
use crate::txlog::{txid_from_value, write_txid};
use crate::xid::{TxId, TxMap};

/// Record kind: a participant prepared; payload carries its effects.
pub const KIND_KV_PREPARED: u32 = 0x0401;
/// Record kind: a prepared transaction committed here.
pub const KIND_KV_COMMITTED: u32 = 0x0402;
/// Record kind: a prepared transaction rolled back here.
pub const KIND_KV_ABORTED: u32 = 0x0403;
/// Record kind: a full committed-state checkpoint.
pub const KIND_KV_CHECKPOINT: u32 = 0x0404;

/// A write-ahead-logged [`TransactionalKv`]: same locking and nesting
/// behaviour, plus crash-surviving prepared state.
pub struct DurableKv {
    inner: Arc<TransactionalKv>,
    wal: Arc<dyn Wal>,
    /// This store's claim on `wal`. Its committed state lives in the log
    /// until a checkpoint supersedes it, so only [`DurableKv::checkpoint`]
    /// moves the hold: until then the store pins a shared log.
    hold: Option<Hold>,
    /// LSN of the `KV_PREPARED` record of every still-undecided transaction.
    prepared: Mutex<TxMap<Lsn>>,
}

impl std::fmt::Debug for DurableKv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableKv").field("name", &self.inner.name()).finish_non_exhaustive()
    }
}

/// A transaction's effects: each key with its new value (`None` deletes).
type Effects = Vec<(String, Option<Value>)>;

/// One effect of a record's effect list: its key and, unless it deletes,
/// its new value.
fn write_effect(effects: &mut ListWriter<'_>, key: &str, value: Option<&Value>) {
    effects.map(|effect| {
        effect.str("key", key);
        if let Some(value) = value {
            effect.value("value", value);
        }
    });
}

fn effects_from_value(value: &Value) -> Result<Effects, TxError> {
    let list = value
        .as_list()
        .ok_or_else(|| TxError::Log("effects must be a list".into()))?;
    let mut effects = Vec::with_capacity(list.len());
    for entry in list {
        let m = entry
            .as_map()
            .ok_or_else(|| TxError::Log("effect entry must be a map".into()))?;
        let key = m
            .get("key")
            .and_then(Value::as_str)
            .ok_or_else(|| TxError::Log("effect entry missing key".into()))?;
        effects.push((key.to_owned(), m.get("value").cloned()));
    }
    Ok(effects)
}

impl DurableKv {
    /// A fresh durable store over `wal` (typically a
    /// [`recovery_log::FileWal`]); the log may be shared with other
    /// components — records are tagged with the store's name.
    pub fn new(name: impl Into<String>, wal: Arc<dyn Wal>) -> Arc<Self> {
        Self::over(Arc::new(TransactionalKv::new(name)), wal)
    }

    fn over(inner: Arc<TransactionalKv>, wal: Arc<dyn Wal>) -> Arc<Self> {
        Arc::new(DurableKv { inner, hold: wal.hold(), wal, prepared: Mutex::default() })
    }

    /// Rebuild a durable store from its log: committed effects are
    /// re-applied in order (from the latest checkpoint when present) and
    /// prepared-but-undecided workspaces are re-installed awaiting the
    /// transaction service's outcome re-delivery.
    ///
    /// # Errors
    ///
    /// [`TxError::Log`] when the log cannot be read or a record is
    /// malformed.
    pub fn recover(name: impl Into<String>, wal: Arc<dyn Wal>) -> Result<Arc<Self>, TxError> {
        let name = name.into();
        let store = Arc::new(TransactionalKv::new(name.clone()));
        let mut prepared: TxMap<(Effects, Lsn)> = TxMap::default();

        // Decoded in place, and only this store's kinds: nothing is cloned
        // out of the log.
        let mut replay = |record: &LogRecord| -> Result<(), TxError> {
            match record.kind {
                KIND_KV_CHECKPOINT | KIND_KV_PREPARED | KIND_KV_COMMITTED | KIND_KV_ABORTED => {}
                _ => return Ok(()),
            }
            let v = decode(&record.payload)?;
            let m = v
                .as_map()
                .ok_or_else(|| TxError::Log("record payload must be a map".into()))?;
            if m.get("store").and_then(Value::as_str) != Some(name.as_str()) {
                return Ok(());
            }
            let field = |key: &str| {
                m.get(key).ok_or_else(|| TxError::Log(format!("store record missing {key}")))
            };
            match record.kind {
                KIND_KV_CHECKPOINT => {
                    let entries = effects_from_value(field("state")?)?;
                    // Workspaces prepared before the checkpoint and still
                    // undecided at it stay: their outcome comes later.
                    store.load_committed(
                        entries.into_iter().filter_map(|(k, v)| v.map(|v| (k, v))),
                    );
                }
                KIND_KV_PREPARED => {
                    let effects = effects_from_value(field("effects")?)?;
                    prepared.insert(txid_from_value(field("tx")?)?, (effects, record.lsn));
                }
                KIND_KV_COMMITTED => {
                    let tx = txid_from_value(field("tx")?)?;
                    if let Some((effects, _)) = prepared.remove(&tx) {
                        store.restore_prepared(&tx, effects);
                        store.commit(&tx)?;
                    }
                }
                _ => {
                    prepared.remove(&txid_from_value(field("tx")?)?);
                }
            }
            Ok(())
        };
        wal.scan_with(Lsn::new(0), &mut |record| {
            replay(record).map_err(|e| LogError::Handler(e.to_string()))
        })?;
        // Whatever remains prepared is in doubt: reinstall it so outcome
        // re-delivery (commit or rollback) finds it waiting.
        let kv = Self::over(store, wal);
        for (tx, (effects, lsn)) in prepared {
            kv.inner.restore_prepared(&tx, effects);
            kv.prepared.lock().insert(tx, lsn);
        }
        Ok(kv)
    }

    /// The wrapped in-memory store (locking, reads, writes).
    pub fn store(&self) -> &Arc<TransactionalKv> {
        &self.inner
    }

    /// The store's name.
    pub fn name(&self) -> &str {
        self.inner.name()
    }

    /// Write a checkpoint of the committed state, bounding future replay,
    /// and release what it supersedes: everything below it that no
    /// still-prepared transaction needs.
    ///
    /// # Errors
    ///
    /// Propagates log failures.
    pub fn checkpoint(&self) -> Result<(), TxError> {
        // Written straight from the committed state, and forced: the
        // checkpoint must be durable before the prefix it supersedes may go.
        let checkpoint = MapWriter::encode(
            |fields| {
                fields
                    .list("state", |state| {
                        self.inner.for_each_committed(|key, value| {
                            write_effect(state, key, Some(value));
                        });
                    })
                    .str("store", self.name());
            },
            |record| self.wal.append_durable(KIND_KV_CHECKPOINT, record),
        )?;
        if let Some(hold) = &self.hold {
            let oldest_prepared = self.prepared.lock().values().copied().min();
            hold.release_below(oldest_prepared.map_or(checkpoint, |lsn| lsn.min(checkpoint)))?;
        }
        Ok(())
    }

    fn log_outcome(&self, kind: u32, tx: &TxId) -> Result<(), TxError> {
        // Durable before acking: under a group-commit log outcomes from
        // concurrent transactions share one sync.
        MapWriter::encode(
            |fields| {
                fields.str("store", self.name()).map("tx", |id| write_txid(id, tx));
            },
            |record| self.wal.append_durable(kind, record),
        )?;
        self.prepared.lock().remove(tx);
        Ok(())
    }
}

fn decode(payload: &[u8]) -> Result<Value, TxError> {
    Value::decode(payload).map_err(|e| TxError::Log(e.to_string()))
}

impl Resource for DurableKv {
    fn prepare(&self, tx: &TxId) -> Result<Vote, TxError> {
        let vote = self.inner.prepare(tx)?;
        if vote == Vote::Commit {
            // Force the redo record BEFORE voting: the participant
            // contract. Its effects are written straight from the prepared
            // workspace; appended and noted under one lock (no checkpoint in
            // between may release it), forced outside.
            let redo = MapWriter::encode(
                |fields| {
                    fields
                        .list("effects", |effects| {
                            self.inner.for_each_prepared(tx, |key, value| {
                                write_effect(effects, key, value);
                            });
                        })
                        .str("store", self.name())
                        .map("tx", |id| write_txid(id, tx));
                },
                |record| -> Result<Lsn, TxError> {
                    let mut prepared = self.prepared.lock();
                    let redo = self.wal.append(KIND_KV_PREPARED, record)?;
                    prepared.insert(tx.clone(), redo);
                    Ok(redo)
                },
            )?;
            self.wal.flush_lsn(redo)?;
        }
        Ok(vote)
    }

    fn commit(&self, tx: &TxId) -> Result<(), TxError> {
        // Idempotent like the inner store: a commit for an unknown tx is a
        // no-op and is not re-logged.
        if self.inner.for_each_prepared(tx, |_, _| {}) {
            self.log_outcome(KIND_KV_COMMITTED, tx)?;
        }
        self.inner.commit(tx)
    }

    fn rollback(&self, tx: &TxId) -> Result<(), TxError> {
        if self.inner.for_each_prepared(tx, |_, _| {}) {
            self.log_outcome(KIND_KV_ABORTED, tx)?;
        }
        self.inner.rollback(tx)
    }

    fn commit_one_phase(&self, tx: &TxId) -> Result<(), TxError> {
        match self.prepare(tx)? {
            Vote::Commit => self.commit(tx),
            Vote::ReadOnly => Ok(()),
            Vote::Rollback => {
                self.rollback(tx)?;
                Err(TxError::RolledBack(tx.clone()))
            }
        }
    }

    fn resource_name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::TransactionFactory;
    use recovery_log::{FailpointSet, MemWal};

    fn wal() -> Arc<dyn Wal> {
        Arc::new(MemWal::new())
    }

    #[test]
    fn committed_state_survives_restart() {
        let log = wal();
        let tx = TxId::top_level(1);
        {
            let kv = DurableKv::new("orders", Arc::clone(&log));
            kv.store().write(&tx, "k", Value::I64(7)).unwrap();
            assert_eq!(kv.prepare(&tx).unwrap(), Vote::Commit);
            kv.commit(&tx).unwrap();
            assert_eq!(kv.store().read_committed("k"), Some(Value::I64(7)));
        }
        let kv = DurableKv::recover("orders", log).unwrap();
        assert_eq!(kv.store().read_committed("k"), Some(Value::I64(7)));
    }

    #[test]
    fn prepared_state_survives_and_awaits_the_outcome() {
        let log = wal();
        let tx = TxId::top_level(2);
        {
            let kv = DurableKv::new("orders", Arc::clone(&log));
            kv.store().write(&tx, "k", Value::I64(9)).unwrap();
            assert_eq!(kv.prepare(&tx).unwrap(), Vote::Commit);
            // Crash here: prepared, undecided.
        }
        // Restart 1: outcome arrives as COMMIT (e.g. the coordinator's
        // decision record said so).
        let kv = DurableKv::recover("orders", Arc::clone(&log)).unwrap();
        assert_eq!(kv.store().read_committed("k"), None, "still undecided");
        kv.commit(&tx).unwrap();
        assert_eq!(kv.store().read_committed("k"), Some(Value::I64(9)));
        // Restart 2: the commit was logged, so it replays.
        let kv = DurableKv::recover("orders", log).unwrap();
        assert_eq!(kv.store().read_committed("k"), Some(Value::I64(9)));
    }

    #[test]
    fn aborted_prepared_state_is_discarded() {
        let log = wal();
        let tx = TxId::top_level(3);
        {
            let kv = DurableKv::new("orders", Arc::clone(&log));
            kv.store().write(&tx, "k", Value::I64(1)).unwrap();
            kv.prepare(&tx).unwrap();
            kv.rollback(&tx).unwrap();
        }
        let kv = DurableKv::recover("orders", log).unwrap();
        assert_eq!(kv.store().read_committed("k"), None);
        // Late redelivered commit is a no-op (nothing prepared).
        kv.commit(&tx).unwrap();
        assert_eq!(kv.store().read_committed("k"), None);
    }

    #[test]
    fn checkpoint_bounds_replay_and_preserves_state() {
        let log = wal();
        {
            let kv = DurableKv::new("orders", Arc::clone(&log));
            for i in 0..5i64 {
                let tx = TxId::top_level(i as u64 + 1);
                kv.store().write(&tx, &format!("k{i}"), Value::I64(i)).unwrap();
                kv.prepare(&tx).unwrap();
                kv.commit(&tx).unwrap();
            }
            kv.checkpoint().unwrap();
            let tx = TxId::top_level(99);
            kv.store().write(&tx, "post-cp", Value::I64(42)).unwrap();
            kv.prepare(&tx).unwrap();
            kv.commit(&tx).unwrap();
        }
        let kv = DurableKv::recover("orders", log).unwrap();
        for i in 0..5i64 {
            assert_eq!(kv.store().read_committed(&format!("k{i}")), Some(Value::I64(i)));
        }
        assert_eq!(kv.store().read_committed("post-cp"), Some(Value::I64(42)));
    }

    #[test]
    fn two_stores_share_one_log_without_crosstalk() {
        let log = wal();
        let tx = TxId::top_level(1);
        {
            let a = DurableKv::new("a", Arc::clone(&log));
            let b = DurableKv::new("b", Arc::clone(&log));
            a.store().write(&tx, "k", Value::I64(1)).unwrap();
            b.store().write(&tx, "k", Value::I64(2)).unwrap();
            a.prepare(&tx).unwrap();
            b.prepare(&tx).unwrap();
            a.commit(&tx).unwrap();
            b.commit(&tx).unwrap();
        }
        let a = DurableKv::recover("a", Arc::clone(&log)).unwrap();
        let b = DurableKv::recover("b", log).unwrap();
        assert_eq!(a.store().read_committed("k"), Some(Value::I64(1)));
        assert_eq!(b.store().read_committed("k"), Some(Value::I64(2)));
    }

    #[test]
    fn end_to_end_with_transaction_recovery() {
        // The full §3.4 story: coordinator crashes after its decision;
        // both the tx service AND the durable participant recover from the
        // same shared log, and the data is exactly right afterwards.
        let log = wal();
        let failpoints = FailpointSet::new();
        {
            let env = orb::Env { failpoints: Some(failpoints.clone()), ..Default::default() };
            let factory = TransactionFactory::with_wal(Arc::clone(&log)).with_env(env.wired());
            let kv = DurableKv::new("orders", Arc::clone(&log));
            let witness = DurableKv::new("audit", Arc::clone(&log));
            let control = factory.create().unwrap();
            control.coordinator().register_resource(Arc::clone(&kv) as Arc<dyn Resource>).unwrap();
            control
                .coordinator()
                .register_resource(Arc::clone(&witness) as Arc<dyn Resource>)
                .unwrap();
            kv.store().write(control.id(), "payment", Value::F64(9.99)).unwrap();
            witness.store().write(control.id(), "entry", Value::from("debit")).unwrap();
            failpoints.arm("ots.after_decision", 0);
            control.terminator().commit().unwrap_err();
        }

        // Restart: recover the stores first, then let the tx service
        // re-deliver the outcome through the resolver.
        let kv = DurableKv::recover("orders", Arc::clone(&log)).unwrap();
        let witness = DurableKv::recover("audit", Arc::clone(&log)).unwrap();
        assert_eq!(kv.store().read_committed("payment"), None, "undecided until re-delivery");
        let factory = TransactionFactory::with_wal(Arc::clone(&log));
        let kv2 = Arc::clone(&kv);
        let witness2 = Arc::clone(&witness);
        let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
            match name {
                "orders" => Some(kv2.clone()),
                "audit" => Some(witness2.clone()),
                _ => None,
            }
        };
        let report = factory.recover(&resolver).unwrap();
        assert_eq!(report.recommitted.len(), 1);
        assert_eq!(kv.store().read_committed("payment"), Some(Value::F64(9.99)));
        assert_eq!(witness.store().read_committed("entry"), Some(Value::from("debit")));

        // Third incarnation needs no resolver help at all: the participant
        // outcome records replay by themselves.
        let kv = DurableKv::recover("orders", log).unwrap();
        assert_eq!(kv.store().read_committed("payment"), Some(Value::F64(9.99)));
    }
}
