//! Durable activity records and recovery of the activity structure (§3.4).
//!
//! The paper's recovery requirements map onto this module as follows:
//!
//! * **rebinding of the activity structure** — [`recover_activities`]
//!   rebuilds the activity tree (ids, names, parent links) from the log;
//! * **recover actions and signal sets** — sets and actions are re-created
//!   through the [`SignalSetFactories`] / [`ActionFactories`] registries
//!   keyed by the factory names recorded at registration time;
//! * **application logic** / **object consistency** — the returned
//!   [`RecoveredService::incomplete`] list is handed back to the
//!   application, which drives each in-flight activity to completion (it is
//!   "predominately the application that is responsible for driving
//!   recovery").

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use orb::{MapWriter, SimClock, Value, ValueMap};
use parking_lot::Mutex;
use recovery_log::{Hold, Lsn, Wal};

use crate::action::Action;
use crate::activity::{Activity, ActivityId};
use crate::completion::CompletionStatus;
use crate::error::ActivityError;
use crate::signal_set::SignalSet;

/// Record kind: an activity was begun.
pub const KIND_ACT_BEGUN: u32 = 0x0201;
/// Record kind: a recoverable SignalSet was associated.
pub const KIND_ACT_SIGNAL_SET: u32 = 0x0202;
/// Record kind: a recoverable Action was registered.
pub const KIND_ACT_ACTION: u32 = 0x0203;
/// Record kind: the completion status changed.
pub const KIND_ACT_STATUS: u32 = 0x0204;
/// Record kind: the completion SignalSet was designated.
pub const KIND_ACT_COMPLETION_SET: u32 = 0x0205;
/// Record kind: the activity completed.
pub const KIND_ACT_COMPLETED: u32 = 0x0206;

/// Each live root activity with the LSN of its `ACT_BEGUN` record. A deque
/// keeps its capacity: begin and complete allocate nothing in steady state.
type LiveRoots = VecDeque<(ActivityId, Lsn)>;

/// Writes activity lifecycle records to a [`Wal`] and releases the log
/// behind completed trees: a root's `ACT_BEGUN` is its tree's oldest record
/// and a root completes last, so the logger holds from its oldest live root.
/// Records of an earlier incarnation are held by the logger
/// [`recover_activities`] builds, not by a fresh one: after a restart, run
/// recovery before resuming work.
pub struct ActivityLogger {
    wal: Arc<dyn Wal>,
    /// The claim on `wal` and what it follows, if the log coordinates any.
    retention: Option<(Hold, Mutex<LiveRoots>)>,
}

impl std::fmt::Debug for ActivityLogger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActivityLogger").finish_non_exhaustive()
    }
}

impl ActivityLogger {
    /// A logger over `wal`.
    pub fn new(wal: Arc<dyn Wal>) -> Arc<Self> {
        Self::with_live_roots(wal, VecDeque::new())
    }

    fn with_live_roots(wal: Arc<dyn Wal>, live: LiveRoots) -> Arc<Self> {
        let retention = wal.hold().map(|hold| (hold, Mutex::new(live)));
        Arc::new(ActivityLogger { wal, retention })
    }

    /// The underlying log.
    pub fn wal(&self) -> &Arc<dyn Wal> {
        &self.wal
    }

    /// Record that activity `id` named `name` began, under `parent` unless
    /// it is a root.
    ///
    /// # Errors
    ///
    /// [`ActivityError::Log`] when the append fails.
    pub fn log_begun(
        &self,
        id: ActivityId,
        name: &str,
        parent: Option<ActivityId>,
    ) -> Result<(), ActivityError> {
        MapWriter::encode(
            |fields| {
                fields.u64("id", id.raw()).str("name", name);
                if let Some(parent) = parent {
                    fields.u64("parent", parent.raw());
                }
            },
            |record| -> Result<(), ActivityError> {
                match &self.retention {
                    // A root is appended and noted under one lock: a release
                    // in between would take its begin record for nobody's.
                    Some((_, live)) if parent.is_none() => {
                        let mut live = live.lock();
                        live.push_back((id, self.wal.append(KIND_ACT_BEGUN, record)?));
                    }
                    _ => {
                        self.wal.append(KIND_ACT_BEGUN, record)?;
                    }
                }
                Ok(())
            },
        )
    }

    /// Record that the set `set_name`, rebuilt at recovery by the signal-set
    /// factory registered as `factory`, was associated with activity `id`.
    ///
    /// # Errors
    ///
    /// [`ActivityError::Log`] when the append fails.
    pub fn log_signal_set(
        &self,
        id: ActivityId,
        set_name: &str,
        factory: &str,
    ) -> Result<(), ActivityError> {
        self.log_registration(KIND_ACT_SIGNAL_SET, id, set_name, factory)
    }

    /// Record that an action, rebuilt at recovery by the action factory
    /// registered as `factory`, was registered with set `set_name` of
    /// activity `id`.
    ///
    /// # Errors
    ///
    /// [`ActivityError::Log`] when the append fails.
    pub fn log_action(
        &self,
        id: ActivityId,
        set_name: &str,
        factory: &str,
    ) -> Result<(), ActivityError> {
        self.log_registration(KIND_ACT_ACTION, id, set_name, factory)
    }

    fn log_registration(
        &self,
        kind: u32,
        id: ActivityId,
        set_name: &str,
        factory: &str,
    ) -> Result<(), ActivityError> {
        MapWriter::encode(
            |fields| {
                fields.str("factory", factory).u64("id", id.raw()).str("set", set_name);
            },
            |record| self.wal.append(kind, record),
        )?;
        Ok(())
    }

    /// Record activity `id`'s new completion status.
    ///
    /// # Errors
    ///
    /// [`ActivityError::Log`] when the append fails.
    pub fn log_completion_status(
        &self,
        id: ActivityId,
        status: CompletionStatus,
    ) -> Result<(), ActivityError> {
        MapWriter::encode(
            |fields| {
                fields.u64("id", id.raw()).str("status", status.as_str());
            },
            |record| self.wal.append(KIND_ACT_STATUS, record),
        )?;
        Ok(())
    }

    /// Record that set `set_name` completes activity `id`.
    ///
    /// # Errors
    ///
    /// [`ActivityError::Log`] when the append fails.
    pub fn log_completion_set(&self, id: ActivityId, set_name: &str) -> Result<(), ActivityError> {
        MapWriter::encode(
            |fields| {
                fields.u64("id", id.raw()).str("set", set_name);
            },
            |record| self.wal.append(KIND_ACT_COMPLETION_SET, record),
        )?;
        Ok(())
    }

    /// Force activity `id`'s completion with `status` and `outcome`, and
    /// release the log behind its tree when it is a root.
    ///
    /// # Errors
    ///
    /// [`ActivityError::Log`] when the append or the release fails.
    pub fn log_completed(
        &self,
        id: ActivityId,
        status: CompletionStatus,
        outcome: &str,
    ) -> Result<(), ActivityError> {
        // The completion record is the activity's decision point: it alone
        // is awaited durably. Earlier lifecycle records ride the same group
        // barrier (presumed-incomplete on replay is safe — the application
        // re-drives any activity without a completion record).
        MapWriter::encode(
            |fields| {
                fields.u64("id", id.raw()).str("outcome", outcome).str("status", status.as_str());
            },
            |record| self.wal.append_durable(KIND_ACT_COMPLETED, record),
        )?;
        let Some((hold, live)) = &self.retention else { return Ok(()) };
        let mut live = live.lock();
        if let Some(at) = live.iter().position(|(root, _)| *root == id) {
            // A root completed, its whole tree before it: release the log
            // below the oldest root still live.
            live.remove(at);
            let oldest = live.iter().map(|(_, begun)| *begun).min();
            let oldest = oldest.unwrap_or_else(|| self.wal.next_lsn());
            drop(live);
            hold.release_below(oldest)?;
        }
        Ok(())
    }
}

/// Registry of named SignalSet constructors used to re-instantiate sets at
/// recovery time.
#[derive(Default)]
pub struct SignalSetFactories {
    factories: HashMap<String, Box<dyn Fn() -> Box<dyn SignalSet> + Send + Sync>>,
}

impl std::fmt::Debug for SignalSetFactories {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SignalSetFactories").field("keys", &self.keys()).finish()
    }
}

impl SignalSetFactories {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a constructor under `key`.
    pub fn register<F>(&mut self, key: impl Into<String>, factory: F)
    where
        F: Fn() -> Box<dyn SignalSet> + Send + Sync + 'static,
    {
        self.factories.insert(key.into(), Box::new(factory));
    }

    /// Instantiate the set registered under `key`.
    ///
    /// # Errors
    ///
    /// [`ActivityError::Recovery`] when the key is unknown.
    pub fn create(&self, key: &str) -> Result<Box<dyn SignalSet>, ActivityError> {
        self.factories
            .get(key)
            .map(|f| f())
            .ok_or_else(|| ActivityError::Recovery(format!("no signal set factory {key:?}")))
    }

    /// Sorted factory keys.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.factories.keys().cloned().collect();
        keys.sort();
        keys
    }
}

/// Registry of named Action constructors used at recovery time.
#[derive(Default)]
pub struct ActionFactories {
    factories: HashMap<String, Box<dyn Fn() -> Arc<dyn Action> + Send + Sync>>,
}

impl std::fmt::Debug for ActionFactories {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActionFactories").field("keys", &self.keys()).finish()
    }
}

impl ActionFactories {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a constructor under `key`.
    pub fn register<F>(&mut self, key: impl Into<String>, factory: F)
    where
        F: Fn() -> Arc<dyn Action> + Send + Sync + 'static,
    {
        self.factories.insert(key.into(), Box::new(factory));
    }

    /// Instantiate the action registered under `key`.
    ///
    /// # Errors
    ///
    /// [`ActivityError::Recovery`] when the key is unknown.
    pub fn create(&self, key: &str) -> Result<Arc<dyn Action>, ActivityError> {
        self.factories
            .get(key)
            .map(|f| f())
            .ok_or_else(|| ActivityError::Recovery(format!("no action factory {key:?}")))
    }

    /// Sorted factory keys.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.factories.keys().cloned().collect();
        keys.sort();
        keys
    }
}

#[derive(Debug, Default, Clone)]
struct LoggedActivity {
    name: String,
    parent: Option<u64>,
    signal_sets: Vec<(String, String)>,
    actions: Vec<(String, String)>,
    status: Option<CompletionStatus>,
    completion_set: Option<String>,
    completed: bool,
    /// LSN of the begin record, when the log still retains it.
    begun: Option<Lsn>,
}

/// Result of [`recover_activities`].
#[derive(Debug)]
pub struct RecoveredService {
    /// Rebuilt root activities (tree roots; children hang off them).
    pub roots: Vec<Activity>,
    /// Activities that had not completed at crash time, in begin order —
    /// the application must drive these to consistency.
    pub incomplete: Vec<Activity>,
    /// Ids of the completed activities the log still retains: a completed
    /// root's tree is released with it, so these are the completed
    /// descendants of incomplete roots (and whatever a slower holder of a
    /// shared log is keeping).
    pub completed: Vec<ActivityId>,
    /// The id the service's counter should continue from.
    pub next_id: u64,
}

/// Rebuild the activity structure recorded in `wal`.
///
/// # Errors
///
/// [`ActivityError::Log`] when the log cannot be read or decoded;
/// [`ActivityError::Recovery`] when a recorded factory key has no registered
/// constructor or a parent link dangles.
pub fn recover_activities(
    wal: Arc<dyn Wal>,
    set_factories: &SignalSetFactories,
    action_factories: &ActionFactories,
    clock: SimClock,
) -> Result<RecoveredService, ActivityError> {
    let mut logged: BTreeMap<u64, LoggedActivity> = BTreeMap::new();
    // Stream records in place (`scan_with`): nothing is cloned out of the
    // log while rebuilding the tree.
    let mut classify = |rec: &recovery_log::LogRecord| -> Result<(), ActivityError> {
        let payload = || {
            Value::decode(&rec.payload)
                .map_err(|e| ActivityError::Log(e.to_string()))
                .and_then(|v| {
                    v.as_map()
                        .cloned()
                        .ok_or_else(|| ActivityError::Log("record payload must be a map".into()))
                })
        };
        let field_id = |m: &ValueMap| {
            m.get("id")
                .and_then(Value::as_u64)
                .ok_or_else(|| ActivityError::Log("record missing id".into()))
        };
        match rec.kind {
            KIND_ACT_BEGUN => {
                let m = payload()?;
                let id = field_id(&m)?;
                let entry = logged.entry(id).or_default();
                entry.begun = Some(rec.lsn);
                entry.name = m.get("name").and_then(Value::as_str).unwrap_or("").to_owned();
                entry.parent = m.get("parent").and_then(Value::as_u64);
            }
            KIND_ACT_SIGNAL_SET => {
                let m = payload()?;
                let id = field_id(&m)?;
                let set = m.get("set").and_then(Value::as_str).unwrap_or("").to_owned();
                let factory = m.get("factory").and_then(Value::as_str).unwrap_or("").to_owned();
                logged.entry(id).or_default().signal_sets.push((set, factory));
            }
            KIND_ACT_ACTION => {
                let m = payload()?;
                let id = field_id(&m)?;
                let set = m.get("set").and_then(Value::as_str).unwrap_or("").to_owned();
                let factory = m.get("factory").and_then(Value::as_str).unwrap_or("").to_owned();
                logged.entry(id).or_default().actions.push((set, factory));
            }
            KIND_ACT_STATUS => {
                let m = payload()?;
                let id = field_id(&m)?;
                logged.entry(id).or_default().status =
                    m.get("status").and_then(Value::as_str).and_then(CompletionStatus::parse);
            }
            KIND_ACT_COMPLETION_SET => {
                let m = payload()?;
                let id = field_id(&m)?;
                logged.entry(id).or_default().completion_set =
                    m.get("set").and_then(Value::as_str).map(str::to_owned);
            }
            KIND_ACT_COMPLETED => {
                let m = payload()?;
                let id = field_id(&m)?;
                let entry = logged.entry(id).or_default();
                entry.completed = true;
                entry.status =
                    m.get("status").and_then(Value::as_str).and_then(CompletionStatus::parse);
            }
            _ => {}
        }
        Ok(())
    };
    wal.scan_with(Lsn::new(0), &mut |rec| {
        classify(rec).map_err(|e| recovery_log::LogError::Handler(e.to_string()))
    })?;

    let next_id = logged.keys().max().map_or(1, |m| m + 1);
    let id_source = Arc::new(AtomicU64::new(next_id));
    // The recovered logger holds the log from the oldest incomplete root on.
    let live = logged.iter().filter(|(_, info)| info.parent.is_none() && !info.completed);
    let live = live.filter_map(|(id, info)| Some((ActivityId::new(*id), info.begun?))).collect();
    let logger = ActivityLogger::with_live_roots(Arc::clone(&wal), live);
    let env = orb::Env::with_clock(clock);

    // Rebuild the tree. BTreeMap order means parents (lower ids) come first.
    let mut rebuilt: HashMap<u64, Activity> = HashMap::new();
    let mut roots = Vec::new();
    let mut incomplete = Vec::new();
    let mut completed = Vec::new();
    for (id, info) in &logged {
        // A completed tree whose root's begin record was released can leave
        // a tail above the low-water mark (its completion record, a late
        // child): nothing of it is live.
        let orphan = info.parent.is_some_and(|pid| !rebuilt.contains_key(&pid));
        if info.completed && (info.begun.is_none() || orphan) {
            continue;
        }
        if info.begun.is_none() {
            return Err(ActivityError::Recovery(format!(
                "activity {id} has records but no begin entry"
            )));
        }
        let parent = match info.parent {
            Some(pid) => Some(rebuilt.get(&pid).cloned().ok_or_else(|| {
                ActivityError::Recovery(format!("activity {id} has unknown parent {pid}"))
            })?),
            None => None,
        };
        let activity = Activity::assemble(
            ActivityId::new(*id),
            info.name.as_str().into(),
            parent.as_ref(),
            Arc::clone(&env),
            Some(Arc::clone(&logger)),
            Arc::clone(&id_source),
        );
        if info.parent.is_none() {
            roots.push(activity.clone());
        }
        if info.completed {
            activity.force_completed(info.status.unwrap_or(CompletionStatus::Success));
            completed.push(activity.id());
        } else {
            // Re-create the protocol machinery for in-flight activities.
            for (_, factory) in &info.signal_sets {
                activity.coordinator().add_signal_set(set_factories.create(factory)?)?;
            }
            for (set_name, factory) in &info.actions {
                activity
                    .coordinator()
                    .register_action(set_name, action_factories.create(factory)?);
            }
            if let Some(status) = info.status {
                activity.set_completion_status(status)?;
            }
            if let Some(set) = &info.completion_set {
                activity.set_completion_signal_set(set.clone());
            }
            incomplete.push(activity.clone());
        }
        rebuilt.insert(*id, activity);
    }

    Ok(RecoveredService { roots, incomplete, completed, next_id })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Outcome;
    use crate::signal::Signal;
    use crate::signal_set::BroadcastSignalSet;
    use crate::activity::ActivityState;
    use crate::action::FnAction;
    use recovery_log::MemWal;

    fn factories() -> (SignalSetFactories, ActionFactories) {
        let mut sets = SignalSetFactories::new();
        sets.register("completion-v1", || {
            Box::new(BroadcastSignalSet::new("Completion", "finished", Value::Null)) as Box<dyn SignalSet>
        });
        let mut actions = ActionFactories::new();
        actions.register("observer-v1", || {
            Arc::new(FnAction::new("observer", |_s: &Signal| Ok(Outcome::done()))) as Arc<dyn Action>
        });
        (sets, actions)
    }

    fn logged_root(wal: &Arc<dyn Wal>) -> Activity {
        let logger = ActivityLogger::new(Arc::clone(wal));
        Activity::new_root_with("job", orb::Env::new(), Some(logger), Arc::new(AtomicU64::new(1)))
    }

    #[test]
    fn factories_reject_unknown_keys() {
        let (sets, actions) = factories();
        assert!(sets.create("ghost").is_err());
        assert!(actions.create("ghost").is_err());
        assert_eq!(sets.keys(), vec!["completion-v1"]);
        assert_eq!(actions.keys(), vec!["observer-v1"]);
    }

    #[test]
    fn structure_is_rebuilt_after_crash() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        {
            let root = logged_root(&wal);
            let child = root.begin_child("step-1").unwrap();
            child
                .add_signal_set_recoverable(
                    "completion-v1",
                    Box::new(BroadcastSignalSet::new("Completion", "finished", Value::Null)),
                )
                .unwrap();
            child
                .register_action_recoverable(
                    "Completion",
                    "observer-v1",
                    Arc::new(FnAction::new("observer", |_s: &Signal| Ok(Outcome::done()))),
                )
                .unwrap();
            child.set_completion_signal_set("Completion");
            child.set_completion_status(CompletionStatus::Fail).unwrap();
            // Crash here: nothing completes.
        }
        let (sets, actions) = factories();
        let recovered =
            recover_activities(Arc::clone(&wal), &sets, &actions, SimClock::new()).unwrap();
        assert_eq!(recovered.roots.len(), 1);
        assert_eq!(recovered.incomplete.len(), 2);
        assert!(recovered.completed.is_empty());

        let root = &recovered.roots[0];
        assert_eq!(root.name(), "job");
        let children = root.children();
        assert_eq!(children.len(), 1);
        let child = &children[0];
        assert_eq!(child.name(), "step-1");
        assert_eq!(child.parent().unwrap().id(), root.id());
        assert_eq!(child.completion_status(), CompletionStatus::Fail);
        assert_eq!(child.completion_signal_set().as_deref(), Some("Completion"));
        assert_eq!(child.coordinator().action_count("Completion"), 1);

        // The application drives recovery to completion (§3.4). The
        // designated set (a broadcast here) produces the outcome; the
        // recovered Fail status is what the set was told.
        let out = child.complete().unwrap();
        assert!(out.is_done(), "the re-created broadcast set collates its actions' outcomes");
        assert_eq!(child.completion_status(), CompletionStatus::Fail);
        root.complete().unwrap();
    }

    #[test]
    fn completed_activities_recover_as_completed_until_their_root_completes() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        {
            let root = logged_root(&wal);
            root.begin_child("step").unwrap().complete().unwrap();
        }
        let (sets, actions) = factories();
        let recovered =
            recover_activities(Arc::clone(&wal), &sets, &actions, SimClock::new()).unwrap();
        // The live root holds its tree in the log, completed child included.
        assert_eq!(recovered.completed.len(), 1);
        assert_eq!(recovered.incomplete.len(), 1);
        let root = &recovered.roots[0];
        assert_eq!(root.children()[0].state(), ActivityState::Completed);
        // Once the root completes, the recovered logger releases the tree.
        root.complete().unwrap();
        assert!(wal.is_empty(), "nothing of a completed tree is retained");
        let again = recover_activities(wal, &sets, &actions, SimClock::new()).unwrap();
        assert!(again.roots.is_empty() && again.completed.is_empty());
        assert_eq!(again.next_id, 1, "an empty log starts the ids over");
    }

    #[test]
    fn a_released_trees_tail_is_not_an_activity() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let logger = ActivityLogger::new(Arc::clone(&wal));
        let ids = Arc::new(AtomicU64::new(1));
        let new_root = |name: &'static str| {
            Activity::new_root_with(name, orb::Env::new(), Some(Arc::clone(&logger)), Arc::clone(&ids))
        };
        // `old` begins first and completes while `young` is live: the log is
        // released up to young's begin record, which leaves old's child and
        // both completion records above the low-water mark without their
        // begin record (or parent).
        let old = new_root("old");
        let young = new_root("young");
        old.begin_child("late-child").unwrap().complete().unwrap();
        old.complete().unwrap();
        assert_eq!(wal.scan(Lsn::new(0)).unwrap()[0].kind, KIND_ACT_BEGUN);
        let (sets, actions) = factories();
        let recovered =
            recover_activities(Arc::clone(&wal), &sets, &actions, SimClock::new()).unwrap();
        assert_eq!(recovered.roots.len(), 1);
        assert_eq!(recovered.incomplete[0].id(), young.id());
        assert!(recovered.completed.is_empty());
        assert_eq!(recovered.next_id, 4, "ids never run backwards over a released tail");
    }

    #[test]
    fn next_id_continues_past_logged_ids() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        {
            let root = logged_root(&wal);
            let _ = root.begin_child("a").unwrap();
            let _ = root.begin_child("b").unwrap();
        }
        let (sets, actions) = factories();
        let recovered =
            recover_activities(Arc::clone(&wal), &sets, &actions, SimClock::new()).unwrap();
        assert_eq!(recovered.next_id, 4);
        // New children of recovered activities use fresh ids.
        let root = &recovered.roots[0];
        let fresh = root.begin_child("c").unwrap();
        assert_eq!(fresh.id().raw(), 4);
    }

    #[test]
    fn unknown_factory_key_fails_recovery() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        {
            let root = logged_root(&wal);
            root.add_signal_set_recoverable(
                "not-registered",
                Box::new(BroadcastSignalSet::new("S", "x", Value::Null)),
            )
            .unwrap();
        }
        let (sets, actions) = factories();
        let err = recover_activities(wal, &sets, &actions, SimClock::new()).unwrap_err();
        assert!(matches!(err, ActivityError::Recovery(_)));
    }

    #[test]
    fn recovery_after_recovery_is_stable() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        {
            let root = logged_root(&wal);
            let _child = root.begin_child("step").unwrap();
        }
        let (sets, actions) = factories();
        let first =
            recover_activities(Arc::clone(&wal), &sets, &actions, SimClock::new()).unwrap();
        // Complete everything; the completions are logged to the same wal.
        for a in first.incomplete.iter().rev() {
            a.complete().unwrap();
        }
        assert!(wal.is_empty(), "the recovered logger released the completed tree");
        let second = recover_activities(wal, &sets, &actions, SimClock::new()).unwrap();
        assert!(second.incomplete.is_empty(), "everything completed before the second crash");
        assert!(second.completed.is_empty(), "and nothing of it is retained");
    }
}
