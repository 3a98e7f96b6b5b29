//! A strict two-phase lock manager with nested-transaction inheritance.
//!
//! Locks are held until the *top-level* transaction completes (the paper,
//! §1: resources acquired within a subtransaction "are retained for the
//! duration of the top-level transaction"), which is exactly the behaviour
//! whose cost the fig. 1 experiment measures. The manager therefore also
//! tracks lock-hold durations and contention counts against the virtual
//! clock, so benchmarks can report them.

use std::collections::HashMap;
use std::time::Duration;

use orb::SimClock;
use parking_lot::Mutex;

use crate::error::TxError;
use crate::xid::TxId;

/// Lock compatibility mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Compatible with other shared locks.
    Shared,
    /// Compatible with nothing (except ancestors, see below).
    Exclusive,
}

#[derive(Debug)]
struct LockState {
    mode: LockMode,
    holders: Vec<TxId>,
    acquired_at: Duration,
}

/// Counters for lock behaviour, for the fig. 1 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockStats {
    /// Successful acquisitions.
    pub acquired: u64,
    /// Acquisitions refused because of a conflict.
    pub conflicts: u64,
    /// Locks fully released.
    pub released: u64,
    /// Sum of (release time − first acquisition time) over released locks,
    /// in virtual time.
    pub total_hold: Duration,
}

/// Result of a [`LockManager::lock_wait_die`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitDie {
    /// The lock was acquired.
    Granted,
    /// The requester is older than the holder: it may wait and retry.
    Wait,
    /// The requester is younger: it must abort (deadlock avoidance).
    Die,
}

/// A per-store lock table. No blocking: conflicting requests fail
/// immediately with [`TxError::LockConflict`] and the caller decides whether
/// to retry or abort; [`LockManager::lock_wait_die`] layers the classic
/// deadlock-avoidance policy on top.
#[derive(Debug)]
pub struct LockManager {
    locks: Mutex<HashMap<String, LockState>>,
    stats: Mutex<LockStats>,
    clock: SimClock,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new(SimClock::new())
    }
}

impl LockManager {
    /// A lock manager measuring hold times against `clock`.
    pub fn new(clock: SimClock) -> Self {
        LockManager {
            locks: Mutex::new(HashMap::new()),
            stats: Mutex::new(LockStats::default()),
            clock,
        }
    }

    fn count_acquired(&self) {
        self.stats.lock().acquired += 1;
    }

    fn count_conflict(&self) {
        self.stats.lock().conflicts += 1;
    }

    /// Try to acquire `key` in `mode` on behalf of `tx`.
    ///
    /// Grant rules:
    /// * free → granted;
    /// * every holder is `tx` itself or an *ancestor* of `tx` → granted
    ///   (nested inheritance: a child may use what its ancestors hold), with
    ///   upgrade to exclusive when requested;
    /// * shared request against shared holders → granted;
    /// * anything else → [`TxError::LockConflict`] immediately.
    ///
    /// # Errors
    ///
    /// [`TxError::LockConflict`] carrying the first conflicting holder.
    pub fn try_lock(&self, tx: &TxId, key: &str, mode: LockMode) -> Result<(), TxError> {
        let mut locks = self.locks.lock();
        let now = self.clock.now();
        match locks.get_mut(key) {
            None => {
                locks.insert(
                    key.to_owned(),
                    LockState { mode, holders: vec![tx.clone()], acquired_at: now },
                );
                self.count_acquired();
                Ok(())
            }
            Some(state) => {
                let family_only = state
                    .holders
                    .iter()
                    .all(|h| h == tx || h.is_ancestor_of(tx) || tx.is_ancestor_of(h));
                if family_only {
                    // Same lineage: grant, recording the strongest mode.
                    if !state.holders.contains(tx) {
                        state.holders.push(tx.clone());
                        self.count_acquired();
                    }
                    if mode == LockMode::Exclusive {
                        state.mode = LockMode::Exclusive;
                    }
                    return Ok(());
                }
                if mode == LockMode::Shared && state.mode == LockMode::Shared {
                    if !state.holders.contains(tx) {
                        state.holders.push(tx.clone());
                        self.count_acquired();
                    }
                    return Ok(());
                }
                self.count_conflict();
                Err(TxError::LockConflict {
                    key: key.to_owned(),
                    holder: state.holders[0].clone(),
                    requester: tx.clone(),
                })
            }
        }
    }

    /// Deadlock-avoiding acquisition with the classic **wait-die** policy,
    /// using the top-level transaction sequence number as the timestamp
    /// (lower = older):
    ///
    /// * grantable now → granted (same rules as [`LockManager::try_lock`]);
    /// * conflict, requester **older** than every holder → the caller may
    ///   wait and retry ([`WaitDie::Wait`]);
    /// * conflict, requester younger than some holder → the requester dies
    ///   ([`WaitDie::Die`]): it must abort (and may restart with its
    ///   original timestamp). No waits-for cycle can form because waiting
    ///   is only ever permitted in one age direction.
    pub fn lock_wait_die(&self, tx: &TxId, key: &str, mode: LockMode) -> WaitDie {
        match self.try_lock(tx, key, mode) {
            Ok(()) => WaitDie::Granted,
            Err(TxError::LockConflict { holder, .. }) => {
                if tx.top_seq() < holder.top_seq() {
                    WaitDie::Wait
                } else {
                    WaitDie::Die
                }
            }
            Err(_) => WaitDie::Die,
        }
    }

    /// Whether `tx` (or one of its ancestors) currently holds `key`.
    pub fn holds(&self, tx: &TxId, key: &str) -> bool {
        self.locks
            .lock()
            .get(key)
            .is_some_and(|s| s.holders.iter().any(|h| h == tx || h.is_ancestor_of(tx)))
    }

    /// Release every lock held by `tx`, returning how many keys became free.
    pub fn release_all(&self, tx: &TxId) -> usize {
        let mut locks = self.locks.lock();
        let now = self.clock.now();
        let mut released = 0;
        locks.retain(|_, state| {
            state.holders.retain(|h| h != tx);
            if state.holders.is_empty() {
                released += 1;
                let mut stats = self.stats.lock();
                stats.released += 1;
                stats.total_hold += now.saturating_sub(state.acquired_at);
                false
            } else {
                true
            }
        });
        released
    }

    /// Transfer all of `from`'s holdings to `to` (subtransaction commit:
    /// the parent inherits the child's locks).
    pub fn transfer(&self, from: &TxId, to: &TxId) {
        let mut locks = self.locks.lock();
        for state in locks.values_mut() {
            let mut had = false;
            state.holders.retain(|h| {
                if h == from {
                    had = true;
                    false
                } else {
                    true
                }
            });
            if had && !state.holders.contains(to) {
                state.holders.push(to.clone());
            }
        }
    }

    /// Current number of locked keys.
    pub fn locked_keys(&self) -> usize {
        self.locks.lock().len()
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> LockStats {
        *self.stats.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(n: u64) -> TxId {
        TxId::top_level(n)
    }

    #[test]
    fn exclusive_conflicts_with_everything() {
        let lm = LockManager::default();
        lm.try_lock(&tx(1), "k", LockMode::Exclusive).unwrap();
        assert!(lm.holds(&tx(1), "k"));
        assert!(matches!(
            lm.try_lock(&tx(2), "k", LockMode::Exclusive),
            Err(TxError::LockConflict { .. })
        ));
        assert!(lm.try_lock(&tx(1), "k", LockMode::Exclusive).is_ok(), "reentrant");
        assert!(matches!(
            lm.try_lock(&tx(2), "k", LockMode::Shared),
            Err(TxError::LockConflict { .. })
        ));
        assert_eq!(lm.stats().conflicts, 2);
    }

    #[test]
    fn shared_locks_coexist_and_block_writers() {
        let lm = LockManager::default();
        lm.try_lock(&tx(1), "k", LockMode::Shared).unwrap();
        lm.try_lock(&tx(2), "k", LockMode::Shared).unwrap();
        assert!(matches!(
            lm.try_lock(&tx(3), "k", LockMode::Exclusive),
            Err(TxError::LockConflict { .. })
        ));
    }

    #[test]
    fn sole_shared_holder_upgrades() {
        let lm = LockManager::default();
        lm.try_lock(&tx(1), "k", LockMode::Shared).unwrap();
        lm.try_lock(&tx(1), "k", LockMode::Exclusive).unwrap();
        assert!(matches!(
            lm.try_lock(&tx(2), "k", LockMode::Shared),
            Err(TxError::LockConflict { .. })
        ));
    }

    #[test]
    fn children_inherit_ancestor_locks() {
        let lm = LockManager::default();
        let parent = tx(1);
        let child = parent.child(0);
        lm.try_lock(&parent, "k", LockMode::Exclusive).unwrap();
        assert!(lm.try_lock(&child, "k", LockMode::Exclusive).is_ok());
        assert!(lm.holds(&child, "k"));
        // A stranger still conflicts.
        assert!(lm.try_lock(&tx(2), "k", LockMode::Shared).is_err());
    }

    #[test]
    fn release_all_frees_keys() {
        let lm = LockManager::default();
        lm.try_lock(&tx(1), "a", LockMode::Exclusive).unwrap();
        lm.try_lock(&tx(1), "b", LockMode::Shared).unwrap();
        lm.try_lock(&tx(2), "b", LockMode::Shared).unwrap();
        assert_eq!(lm.locked_keys(), 2);
        assert_eq!(lm.release_all(&tx(1)), 1, "only a became free");
        assert_eq!(lm.locked_keys(), 1, "b still held by tx-2");
        assert_eq!(lm.release_all(&tx(1)), 0, "nothing left to release");
        assert!(lm.try_lock(&tx(3), "a", LockMode::Exclusive).is_ok());
    }

    #[test]
    fn transfer_moves_holdings_to_parent() {
        let lm = LockManager::default();
        let parent = tx(1);
        let child = parent.child(0);
        lm.try_lock(&child, "k", LockMode::Exclusive).unwrap();
        lm.transfer(&child, &parent);
        assert!(lm.holds(&parent, "k"));
        lm.release_all(&child);
        assert!(lm.holds(&parent, "k"), "release of the child no longer matters");
    }

    #[test]
    fn hold_time_measured_on_virtual_clock() {
        let clock = SimClock::new();
        let lm = LockManager::new(clock.clone());
        lm.try_lock(&tx(1), "k", LockMode::Exclusive).unwrap();
        clock.advance(Duration::from_millis(250));
        lm.release_all(&tx(1));
        let stats = lm.stats();
        assert_eq!(stats.released, 1);
        assert_eq!(stats.total_hold, Duration::from_millis(250));
    }
}

#[cfg(test)]
mod wait_die_tests {
    use super::*;

    #[test]
    fn wait_die_direction_prevents_cycles() {
        let lm = LockManager::default();
        let old = TxId::top_level(1);
        let young = TxId::top_level(9);
        lm.try_lock(&young, "a", LockMode::Exclusive).unwrap();
        lm.try_lock(&old, "b", LockMode::Exclusive).unwrap();

        // The classic deadlock shape: old wants a (held by young), young
        // wants b (held by old). Wait-die breaks it: old may wait, young
        // must die — so at most one direction ever waits.
        assert_eq!(lm.lock_wait_die(&old, "a", LockMode::Exclusive), WaitDie::Wait);
        assert_eq!(lm.lock_wait_die(&young, "b", LockMode::Exclusive), WaitDie::Die);

        // The young transaction aborts, releasing its locks; the old one
        // retries and proceeds.
        lm.release_all(&young);
        assert_eq!(lm.lock_wait_die(&old, "a", LockMode::Exclusive), WaitDie::Granted);
    }

    #[test]
    fn grantable_requests_are_granted_regardless_of_age() {
        let lm = LockManager::default();
        let young = TxId::top_level(9);
        assert_eq!(lm.lock_wait_die(&young, "k", LockMode::Exclusive), WaitDie::Granted);
        // Re-entrant and family grants still work through the policy.
        assert_eq!(
            lm.lock_wait_die(&young.child(0), "k", LockMode::Exclusive),
            WaitDie::Granted
        );
    }

    #[test]
    fn shared_holders_age_check_uses_first_holder() {
        let lm = LockManager::default();
        lm.try_lock(&TxId::top_level(5), "k", LockMode::Shared).unwrap();
        // An older writer may wait; a younger writer dies.
        assert_eq!(
            lm.lock_wait_die(&TxId::top_level(2), "k", LockMode::Exclusive),
            WaitDie::Wait
        );
        assert_eq!(
            lm.lock_wait_die(&TxId::top_level(8), "k", LockMode::Exclusive),
            WaitDie::Die
        );
    }

    #[test]
    fn drive_a_contended_schedule_to_completion() {
        // Many transactions hammer two keys with wait-die + retry; every
        // one eventually commits and the system never deadlocks (bounded
        // retries prove progress).
        let lm = LockManager::default();
        let mut pending: Vec<TxId> = (1..=6).map(TxId::top_level).collect();
        let mut rounds = 0;
        while !pending.is_empty() {
            rounds += 1;
            assert!(rounds < 1000, "no progress: possible livelock");
            let mut still_pending = Vec::new();
            for tx in pending {
                let a = lm.lock_wait_die(&tx, "a", LockMode::Exclusive);
                let b = lm.lock_wait_die(&tx, "b", LockMode::Exclusive);
                match (a, b) {
                    (WaitDie::Granted, WaitDie::Granted) => {
                        lm.release_all(&tx); // "commit"
                    }
                    (_, WaitDie::Die) | (WaitDie::Die, _) => {
                        lm.release_all(&tx); // abort, restart with same age
                        still_pending.push(tx);
                    }
                    _ => {
                        // Waiting: keep whatever was granted and retry.
                        still_pending.push(tx);
                    }
                }
            }
            pending = still_pending;
        }
    }
}
