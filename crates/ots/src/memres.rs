//! A transactional, lock-based key-value store: the workhorse recoverable
//! resource used by examples, integration tests and benchmarks.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use orb::{SimClock, Value};
use parking_lot::{Mutex, RwLock};

use crate::control::Control;
use crate::error::TxError;
use crate::lockmgr::{LockManager, LockMode, LockStats};
use crate::resource::{Resource, SubtransactionAwareResource, Vote};
use crate::xid::{TxId, TxMap};

/// Buffered effects of one transaction: key → new value (`None` = delete).
type Workspace = BTreeMap<String, Option<Value>>;

/// An in-memory transactional key-value store.
///
/// * Writes buffer in a per-transaction workspace under strict two-phase
///   **exclusive** locks; reads take **shared** locks and see the
///   transaction's own effects first.
/// * Nested transactions: a subtransaction reads through its ancestors'
///   workspaces; on provisional commit its workspace and locks are inherited
///   by the parent (enlist the store with the subtransaction's control and
///   the inheritance is wired automatically).
/// * As a [`Resource`] it participates in 2PC; all participant operations
///   are idempotent, as recovery redelivery requires.
pub struct TransactionalKv {
    name: String,
    committed: RwLock<HashMap<String, Value>>,
    workspaces: Mutex<TxMap<Workspace>>,
    prepared: Mutex<TxMap<Workspace>>,
    locks: LockManager,
}

impl std::fmt::Debug for TransactionalKv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransactionalKv")
            .field("name", &self.name)
            .field("committed", &self.committed.read().len())
            .field("workspaces", &self.workspaces.lock().len())
            .finish()
    }
}

impl TransactionalKv {
    /// An empty store named `name` (the name is what decision logs record
    /// and recovery resolvers look up).
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_clock(name, SimClock::new())
    }

    /// An empty store whose lock-hold statistics are measured on `clock`.
    pub fn with_clock(name: impl Into<String>, clock: SimClock) -> Self {
        TransactionalKv {
            name: name.into(),
            committed: RwLock::new(HashMap::new()),
            workspaces: Mutex::default(),
            prepared: Mutex::default(),
            locks: LockManager::new(clock),
        }
    }

    /// The store's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Register this store with a transaction: as a [`Resource`] always,
    /// and as a [`SubtransactionAwareResource`] when the transaction is
    /// nested (so workspaces and locks are inherited on provisional commit).
    ///
    /// # Errors
    ///
    /// Propagates registration failures.
    pub fn enlist(self: &Arc<Self>, control: &Control) -> Result<(), TxError> {
        control.coordinator().register_resource(Arc::clone(self) as Arc<dyn Resource>)?;
        if !control.id().is_top_level() {
            control
                .coordinator()
                .register_subtransaction_aware(Arc::clone(self) as Arc<dyn SubtransactionAwareResource>)?;
        }
        Ok(())
    }

    /// Write `key = value` under `tx`.
    ///
    /// # Errors
    ///
    /// [`TxError::LockConflict`] when another transaction family holds the
    /// key.
    pub fn write(&self, tx: &TxId, key: &str, value: Value) -> Result<(), TxError> {
        self.locks.try_lock(tx, key, LockMode::Exclusive)?;
        self.workspaces
            .lock()
            .entry(tx.clone())
            .or_default()
            .insert(key.to_owned(), Some(value));
        Ok(())
    }

    /// Delete `key` under `tx`.
    ///
    /// # Errors
    ///
    /// [`TxError::LockConflict`] when another transaction family holds the
    /// key.
    pub fn delete(&self, tx: &TxId, key: &str) -> Result<(), TxError> {
        self.locks.try_lock(tx, key, LockMode::Exclusive)?;
        self.workspaces.lock().entry(tx.clone()).or_default().insert(key.to_owned(), None);
        Ok(())
    }

    /// Read `key` under `tx`: own workspace first, then ancestors', then the
    /// committed state.
    ///
    /// # Errors
    ///
    /// [`TxError::LockConflict`] when an unrelated writer holds the key.
    pub fn read(&self, tx: &TxId, key: &str) -> Result<Option<Value>, TxError> {
        self.locks.try_lock(tx, key, LockMode::Shared)?;
        let workspaces = self.workspaces.lock();
        let mut cursor = Some(tx.clone());
        while let Some(t) = cursor {
            if let Some(ws) = workspaces.get(&t) {
                if let Some(effect) = ws.get(key) {
                    return Ok(effect.clone());
                }
            }
            cursor = t.parent();
        }
        Ok(self.committed.read().get(key).cloned())
    }

    /// Read the committed value of `key`, outside any transaction.
    pub fn read_committed(&self, key: &str) -> Option<Value> {
        self.committed.read().get(key).cloned()
    }

    /// Number of committed keys.
    pub fn committed_len(&self) -> usize {
        self.committed.read().len()
    }

    /// Lock statistics (for the fig. 1 lock-hold-time experiment).
    pub fn lock_stats(&self) -> LockStats {
        self.locks.stats()
    }

    /// Visit the effects `tx` has prepared, in key order, as `(key, new
    /// value)` pairs (`None` = delete), copying nothing; `false` when `tx`
    /// has nothing prepared here. Used by durable wrappers that must log
    /// prepared state (see [`crate::durable::DurableKv`]).
    pub fn for_each_prepared(&self, tx: &TxId, mut visit: impl FnMut(&str, Option<&Value>)) -> bool {
        let prepared = self.prepared.lock();
        let Some(workspace) = prepared.get(tx) else { return false };
        for (key, value) in workspace {
            visit(key, value.as_ref());
        }
        true
    }

    /// Re-install a prepared workspace recovered from a log (the inverse of
    /// [`TransactionalKv::for_each_prepared`]); a later `commit(tx)` applies
    /// it, a `rollback(tx)` discards it.
    pub fn restore_prepared(&self, tx: &TxId, effects: Vec<(String, Option<Value>)>) {
        self.prepared.lock().insert(tx.clone(), effects.into_iter().collect());
    }

    /// Overwrite the committed state wholesale (recovery/checkpoint load).
    pub fn load_committed(&self, entries: impl IntoIterator<Item = (String, Value)>) {
        let mut committed = self.committed.write();
        committed.clear();
        committed.extend(entries);
    }

    /// Visit the committed state, copying nothing (for checkpoints).
    pub fn for_each_committed(&self, mut visit: impl FnMut(&str, &Value)) {
        for (key, value) in self.committed.read().iter() {
            visit(key, value);
        }
    }

    fn apply(&self, workspace: &Workspace) {
        let mut committed = self.committed.write();
        for (key, effect) in workspace {
            match effect {
                // Overwrite in place: a key already committed is not copied again.
                Some(value) => match committed.get_mut(key) {
                    Some(slot) => *slot = value.clone(),
                    None => {
                        committed.insert(key.clone(), value.clone());
                    }
                },
                None => {
                    committed.remove(key);
                }
            }
        }
    }
}

impl Resource for TransactionalKv {
    fn prepare(&self, tx: &TxId) -> Result<Vote, TxError> {
        // Idempotent: a second prepare (e.g. duplicate registration after
        // subtransaction inheritance) finds no workspace and votes
        // read-only.
        match self.workspaces.lock().remove(tx) {
            Some(ws) if !ws.is_empty() => {
                self.prepared.lock().insert(tx.clone(), ws);
                Ok(Vote::Commit)
            }
            // Nothing to commit here, or already prepared once: either way
            // stay out of the vote.
            _ => Ok(Vote::ReadOnly),
        }
    }

    fn commit(&self, tx: &TxId) -> Result<(), TxError> {
        if let Some(ws) = self.prepared.lock().remove(tx) {
            self.apply(&ws);
        }
        self.locks.release_all(tx);
        Ok(())
    }

    fn rollback(&self, tx: &TxId) -> Result<(), TxError> {
        self.workspaces.lock().remove(tx);
        self.prepared.lock().remove(tx);
        self.locks.release_all(tx);
        Ok(())
    }

    fn commit_one_phase(&self, tx: &TxId) -> Result<(), TxError> {
        if let Some(ws) = self.workspaces.lock().remove(tx) {
            self.apply(&ws);
        }
        self.locks.release_all(tx);
        Ok(())
    }

    fn resource_name(&self) -> &str {
        &self.name
    }
}

impl SubtransactionAwareResource for TransactionalKv {
    fn commit_subtransaction(&self, tx: &TxId, parent: &TxId) {
        // The parent inherits the child's buffered effects and locks.
        let child_ws = self.workspaces.lock().remove(tx);
        if let Some(child_ws) = child_ws {
            let mut workspaces = self.workspaces.lock();
            let parent_ws = workspaces.entry(parent.clone()).or_default();
            for (key, effect) in child_ws {
                parent_ws.insert(key, effect);
            }
        }
        self.locks.transfer(tx, parent);
    }

    fn rollback_subtransaction(&self, tx: &TxId) {
        self.workspaces.lock().remove(tx);
        self.locks.release_all(tx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::TransactionFactory;

    fn store() -> Arc<TransactionalKv> {
        Arc::new(TransactionalKv::new("store"))
    }

    #[test]
    fn committed_writes_become_visible() {
        let s = store();
        let f = TransactionFactory::new();
        let c = f.create().unwrap();
        s.enlist(&c).unwrap();
        s.write(c.id(), "k", Value::from(1i64)).unwrap();
        assert_eq!(s.read_committed("k"), None, "uncommitted writes invisible");
        assert_eq!(s.read(c.id(), "k").unwrap(), Some(Value::from(1i64)), "own writes visible");
        c.terminator().commit().unwrap();
        assert_eq!(s.read_committed("k"), Some(Value::from(1i64)));
    }

    #[test]
    fn rollback_discards_writes_and_releases_locks() {
        let s = store();
        let f = TransactionFactory::new();
        let c = f.create().unwrap();
        s.enlist(&c).unwrap();
        s.write(c.id(), "k", Value::from(1i64)).unwrap();
        c.terminator().rollback().unwrap();
        assert_eq!(s.read_committed("k"), None);
        // Lock released: another transaction may write.
        let c2 = f.create().unwrap();
        s.enlist(&c2).unwrap();
        s.write(c2.id(), "k", Value::from(2i64)).unwrap();
        c2.terminator().commit().unwrap();
        assert_eq!(s.read_committed("k"), Some(Value::from(2i64)));
    }

    #[test]
    fn writers_conflict_until_commit() {
        let s = store();
        let f = TransactionFactory::new();
        let c1 = f.create().unwrap();
        let c2 = f.create().unwrap();
        s.enlist(&c1).unwrap();
        s.enlist(&c2).unwrap();
        s.write(c1.id(), "k", Value::from(1i64)).unwrap();
        assert!(matches!(
            s.write(c2.id(), "k", Value::from(2i64)),
            Err(TxError::LockConflict { .. })
        ));
        c1.terminator().commit().unwrap();
        s.write(c2.id(), "k", Value::from(2i64)).unwrap();
        c2.terminator().commit().unwrap();
        assert_eq!(s.read_committed("k"), Some(Value::from(2i64)));
    }

    #[test]
    fn readers_share_but_block_writers() {
        let s = store();
        let f = TransactionFactory::new();
        let c1 = f.create().unwrap();
        let c2 = f.create().unwrap();
        let c3 = f.create().unwrap();
        for c in [&c1, &c2, &c3] {
            s.enlist(c).unwrap();
        }
        assert_eq!(s.read(c1.id(), "k").unwrap(), None);
        assert_eq!(s.read(c2.id(), "k").unwrap(), None);
        assert!(matches!(
            s.write(c3.id(), "k", Value::from(1i64)),
            Err(TxError::LockConflict { .. })
        ));
    }

    #[test]
    fn delete_is_transactional() {
        let s = store();
        let f = TransactionFactory::new();
        let c = f.create().unwrap();
        s.enlist(&c).unwrap();
        s.write(c.id(), "k", Value::from(1i64)).unwrap();
        c.terminator().commit().unwrap();

        let c2 = f.create().unwrap();
        s.enlist(&c2).unwrap();
        s.delete(c2.id(), "k").unwrap();
        assert_eq!(s.read(c2.id(), "k").unwrap(), None, "delete visible to itself");
        assert_eq!(s.read_committed("k"), Some(Value::from(1i64)));
        c2.terminator().commit().unwrap();
        assert_eq!(s.read_committed("k"), None);
    }

    #[test]
    fn read_only_transactions_vote_read_only() {
        let s = store();
        let f = TransactionFactory::new();
        let c = f.create().unwrap();
        s.enlist(&c).unwrap();
        let _ = s.read(c.id(), "k").unwrap();
        // Commit succeeds with no phase-two work.
        c.terminator().commit().unwrap();
    }

    #[test]
    fn nested_commit_inherits_into_parent() {
        let s = store();
        let f = TransactionFactory::new();
        let parent = f.create().unwrap();
        s.enlist(&parent).unwrap();
        let child = parent.begin_subtransaction().unwrap();
        s.enlist(&child).unwrap();
        s.write(child.id(), "k", Value::from(42i64)).unwrap();
        child.terminator().commit().unwrap();
        // Still invisible: only the parent's commit makes it durable.
        assert_eq!(s.read_committed("k"), None);
        assert_eq!(
            s.read(parent.id(), "k").unwrap(),
            Some(Value::from(42i64)),
            "parent sees inherited workspace"
        );
        parent.terminator().commit().unwrap();
        assert_eq!(s.read_committed("k"), Some(Value::from(42i64)));
    }

    #[test]
    fn nested_rollback_confines_failure() {
        let s = store();
        let f = TransactionFactory::new();
        let parent = f.create().unwrap();
        s.enlist(&parent).unwrap();
        s.write(parent.id(), "kept", Value::from(1i64)).unwrap();
        let child = parent.begin_subtransaction().unwrap();
        s.enlist(&child).unwrap();
        s.write(child.id(), "lost", Value::from(2i64)).unwrap();
        child.terminator().rollback().unwrap();
        parent.terminator().commit().unwrap();
        assert_eq!(s.read_committed("kept"), Some(Value::from(1i64)));
        assert_eq!(s.read_committed("lost"), None);
    }

    #[test]
    fn child_reads_through_parent_workspace() {
        let s = store();
        let f = TransactionFactory::new();
        let parent = f.create().unwrap();
        s.enlist(&parent).unwrap();
        s.write(parent.id(), "k", Value::from(7i64)).unwrap();
        let child = parent.begin_subtransaction().unwrap();
        s.enlist(&child).unwrap();
        assert_eq!(s.read(child.id(), "k").unwrap(), Some(Value::from(7i64)));
    }

    #[test]
    fn participant_operations_are_idempotent() {
        let s = store();
        let tx = TxId::top_level(1);
        s.write(&tx, "k", Value::from(1i64)).unwrap();
        assert_eq!(s.prepare(&tx).unwrap(), Vote::Commit);
        assert_eq!(s.prepare(&tx).unwrap(), Vote::ReadOnly, "second prepare is harmless");
        s.commit(&tx).unwrap();
        s.commit(&tx).unwrap();
        assert_eq!(s.read_committed("k"), Some(Value::from(1i64)));
        s.rollback(&tx).unwrap();
        assert_eq!(s.read_committed("k"), Some(Value::from(1i64)), "late rollback is a no-op");
    }
}
