//! Deterministic crash injection.
//!
//! Two mechanisms:
//!
//! * [`FailpointSet`] — named failpoints armed to fire after N passages;
//!   protocol code calls [`FailpointSet::hit`] at interesting steps
//!   ("ots.before_commit_record", "activity.after_signal") and gets a
//!   [`LogError::CrashInjected`] back when the armed count is reached. Tests
//!   use this to build crash matrices over every protocol step (§3.4's
//!   recovery requirements).
//! * [`CrashingWal`] — a [`Wal`] decorator that fails after a configured
//!   number of appends (tests that want a *torn* record on disk append
//!   half an encoding to the [`crate::FileWal`]'s file directly).
//!
//! # Failpoint-site audit (the workspace-wide registry)
//!
//! Every [`FailpointSet::hit`] call site in the workspace uses a named
//! constant from its crate's `failpoints` module, and the set itself
//! *observes* every site that passes through it (armed or not), so a
//! simulation harness can discover the arm-able sites of a protocol run
//! instead of hardcoding strings (see [`FailpointSet::observed_sites`]).
//! The full list, audited against the actual call sites by
//! `harness::registry` tests:
//!
//! | site | crate | protocol step |
//! |---|---|---|
//! | `ots.before_prepare`           | `ots` | before phase one solicits any vote |
//! | `ots.after_prepare`            | `ots` | after every vote is collected, before the decision |
//! | `ots.before_decision`          | `ots` | before the commit decision record is forced |
//! | `ots.after_decision`           | `ots` | decision durable, before any phase-two delivery |
//! | `ots.before_completion_record` | `ots` | phase two delivered, before the completion record |
//! | `ots.recovery.after_prepared`  | `ots` | participant forced its prepared record, before the vote returns |
//! | `ots.recovery.before_apply`    | `ots` | outcome known to the participant, before it applies and records it |
//! | `ots.recovery.before_resolve`  | `ots` | before an in-doubt participant interrogates `replay_completion` |
//! | `activity.before_get_signal`   | `activity-service` | before the coordinator asks the set for a signal |
//! | `activity.before_transmit`     | `activity-service` | signal obtained, before fan-out to actions |
//! | `activity.before_outcome`      | `activity-service` | protocol ended, before the collated outcome is read |
//! | `activity.reaper.before_complete` | `activity-service` | orphan selected, before it is completed `FailOnly` |
//!
//! `wal.append` and `wal.sync` are not in the table: they are the synthetic
//! site names [`CrashingWal`] reports for its append-counting and
//! sync-counting crashes and have no `hit` call site to audit.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::error::LogError;
use crate::record::{LogRecord, Lsn};
use crate::retention::Hold;
use crate::wal::Wal;

/// A set of named failpoints shared across components.
///
/// Cloning shares the set.
#[derive(Debug, Clone, Default)]
pub struct FailpointSet {
    // name → remaining passages before firing (0 = fire now).
    armed: Arc<Mutex<HashMap<String, u32>>>,
    // every site name that has ever passed through `hit` — the
    // discoverable registry of arm-able sites for this set's components.
    observed: Arc<Mutex<BTreeSet<String>>>,
    // optional flight-recorder mirror: passages land in the node's black
    // box (kind `failpoint`), fired crashes flagged. Checked via the
    // recorder's own gate before any formatting.
    recorder: Arc<OnceLock<telemetry::FlightRecorder>>,
}

impl FailpointSet {
    /// An empty set; all failpoints disarmed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm `name` to fire on the `after`-th passage (0 = the very next one).
    pub fn arm(&self, name: impl Into<String>, after: u32) {
        self.armed.lock().insert(name.into(), after);
    }

    /// Disarm `name`. Returns whether it was armed.
    pub fn disarm(&self, name: &str) -> bool {
        self.armed.lock().remove(name).is_some()
    }

    /// Disarm everything.
    pub fn clear(&self) {
        self.armed.lock().clear();
    }

    /// Record a passage through failpoint `name`.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::CrashInjected`] when the armed passage count is
    /// reached; the failpoint stays armed at zero so every subsequent hit
    /// also crashes (a dead process stays dead until the test "restarts" it
    /// by disarming).
    pub fn hit(&self, name: &str) -> Result<(), LogError> {
        {
            let mut observed = self.observed.lock();
            if !observed.contains(name) {
                observed.insert(name.to_owned());
            }
        }
        let mut armed = self.armed.lock();
        let outcome = match armed.get_mut(name) {
            None => Ok(()),
            Some(0) => Err(LogError::CrashInjected(name.to_owned())),
            Some(n) => {
                *n -= 1;
                Ok(())
            }
        };
        drop(armed);
        if let Some(recorder) = self.recorder.get() {
            let fired = outcome.is_err();
            recorder.record(telemetry::RecordKind::Failpoint, || {
                if fired {
                    format!("{name} FIRED (crash injected)")
                } else {
                    format!("{name} passed")
                }
            });
        }
        outcome
    }

    /// Mirror every future passage into `recorder` (kind `failpoint`).
    /// Write-once so the hot path reads it with a single atomic load
    /// (no lock even when attached-but-disabled); later calls are ignored.
    pub fn set_recorder(&self, recorder: telemetry::FlightRecorder) {
        let _ = self.recorder.set(recorder);
    }

    /// Whether `name` is currently armed.
    pub fn is_armed(&self, name: &str) -> bool {
        self.armed.lock().contains_key(name)
    }

    /// Every site name that has passed through [`FailpointSet::hit`] on
    /// this (shared) set, sorted. A fault-free probe run of a workload
    /// therefore *discovers* the arm-able sites of every component wired to
    /// the set — the registry a simulation harness sweeps over instead of
    /// hardcoding site strings.
    pub fn observed_sites(&self) -> Vec<String> {
        self.observed.lock().iter().cloned().collect()
    }

    /// Forget the observed-site registry (the armed table is untouched).
    pub fn clear_observed(&self) {
        self.observed.lock().clear();
    }
}

/// A [`Wal`] decorator that injects a crash after a configured number of
/// successful appends, or (with [`CrashingWal::with_sync_crash`]) after a
/// configured number of successful syncs — the "between buffer write and
/// `sync_data`" window a group-commit crash matrix needs to reach.
#[derive(Debug)]
pub struct CrashingWal<W> {
    inner: W,
    remaining: Mutex<Option<u32>>,
    sync_remaining: Mutex<Option<u32>>,
}

impl<W: Wal> CrashingWal<W> {
    /// Wrap `inner`, crashing on the append after `appends_before_crash`
    /// successful ones.
    pub fn new(inner: W, appends_before_crash: u32) -> Self {
        CrashingWal {
            inner,
            remaining: Mutex::new(Some(appends_before_crash)),
            sync_remaining: Mutex::new(None),
        }
    }

    /// Wrap `inner`, crashing on the sync after `syncs_before_crash`
    /// successful ones; appends keep succeeding. Writes reach the inner log
    /// but their durability barrier fails — exactly the torn window between
    /// a group-commit leader's coalesced `write_all` and its `sync_data`.
    pub fn with_sync_crash(inner: W, syncs_before_crash: u32) -> Self {
        CrashingWal {
            inner,
            remaining: Mutex::new(None),
            sync_remaining: Mutex::new(Some(syncs_before_crash)),
        }
    }

    /// Disable any pending crash (the log "survives").
    pub fn defuse(&self) {
        *self.remaining.lock() = None;
        *self.sync_remaining.lock() = None;
    }

    /// Access the wrapped log (e.g. to reopen after the "crash").
    pub fn inner(&self) -> &W {
        &self.inner
    }

    /// Unwrap, returning the inner log.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Wal> Wal for CrashingWal<W> {
    fn append(&self, kind: u32, payload: &[u8]) -> Result<Lsn, LogError> {
        {
            let mut remaining = self.remaining.lock();
            match remaining.as_mut() {
                Some(0) => return Err(LogError::CrashInjected("wal.append".into())),
                Some(n) => *n -= 1,
                None => {}
            }
        }
        self.inner.append(kind, payload)
    }

    fn scan_with(
        &self,
        from: Lsn,
        visit: &mut dyn FnMut(&LogRecord) -> Result<(), LogError>,
    ) -> Result<(), LogError> {
        self.inner.scan_with(from, visit)
    }

    fn truncate_prefix(&self, upto: Lsn) -> Result<(), LogError> {
        self.inner.truncate_prefix(upto)
    }

    fn hold(&self) -> Option<Hold> {
        self.inner.hold()
    }

    fn sync(&self) -> Result<(), LogError> {
        {
            let mut remaining = self.sync_remaining.lock();
            match remaining.as_mut() {
                Some(0) => return Err(LogError::CrashInjected("wal.sync".into())),
                Some(n) => *n -= 1,
                None => {}
            }
        }
        self.inner.sync()
    }

    fn next_lsn(&self) -> Lsn {
        self.inner.next_lsn()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::MemWal;

    #[test]
    fn unarmed_failpoints_pass() {
        let fp = FailpointSet::new();
        for _ in 0..100 {
            fp.hit("anything").unwrap();
        }
    }

    #[test]
    fn armed_failpoint_fires_after_n_passages() {
        let fp = FailpointSet::new();
        fp.arm("step", 2);
        fp.hit("step").unwrap();
        fp.hit("step").unwrap();
        assert!(matches!(fp.hit("step"), Err(LogError::CrashInjected(_))));
        // Stays dead.
        assert!(fp.hit("step").is_err());
        assert!(fp.disarm("step"));
        fp.hit("step").unwrap();
    }

    #[test]
    fn clones_share_state() {
        let fp = FailpointSet::new();
        let fp2 = fp.clone();
        fp.arm("x", 0);
        assert!(fp2.is_armed("x"));
        assert!(fp2.hit("x").is_err());
        fp2.clear();
        assert!(fp.hit("x").is_ok());
    }

    #[test]
    fn hits_are_observed_as_discoverable_sites() {
        let fp = FailpointSet::new();
        fp.hit("b.second").unwrap();
        fp.hit("a.first").unwrap();
        fp.hit("b.second").unwrap();
        fp.arm("c.armed-only", 3);
        // Arming alone does not observe: only a real passage registers the
        // site (an armed-but-unreachable name is exactly the orphan the
        // audit test hunts for).
        assert_eq!(fp.observed_sites(), vec!["a.first".to_string(), "b.second".to_string()]);
        // Clones share the registry.
        let fp2 = fp.clone();
        fp2.hit("c.armed-only").unwrap();
        assert_eq!(fp.observed_sites().len(), 3);
        fp.clear_observed();
        assert!(fp2.observed_sites().is_empty());
    }

    #[test]
    fn sync_crash_mode_tears_the_durability_barrier() {
        let wal = CrashingWal::with_sync_crash(MemWal::new(), 1);
        wal.append_durable(1, b"a").unwrap(); // first sync passes
        let err = wal.append_durable(1, b"b"); // second sync crashes
        assert!(matches!(err, Err(LogError::CrashInjected(ref s)) if s == "wal.sync"));
        // The write reached the log even though its barrier failed: the
        // record is present but was never acked durable.
        assert_eq!(wal.len(), 2);
        // Stays dead until defused.
        assert!(wal.sync().is_err());
        wal.defuse();
        wal.append_durable(1, b"c").unwrap();
        assert_eq!(wal.len(), 3);
    }

    #[test]
    fn crashing_wal_counts_appends() {
        let wal = CrashingWal::new(MemWal::new(), 2);
        wal.append(1, b"a").unwrap();
        wal.append(1, b"b").unwrap();
        assert!(matches!(wal.append(1, b"c"), Err(LogError::CrashInjected(_))));
        // The first two records survived the crash.
        assert_eq!(wal.scan(Lsn::new(0)).unwrap().len(), 2);
        wal.defuse();
        wal.append(1, b"c").unwrap();
        assert_eq!(wal.into_inner().scan(Lsn::new(0)).unwrap().len(), 3);
    }
}
