//! Activities: units of (distributed) work that may or may not be
//! transactional (§3.1–3.2 of the paper).

use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

use orb::{Env, Value};
use parking_lot::Mutex;
use telemetry::{Origin, ProtocolEvent, SpanContext};

use crate::completion::CompletionStatus;
use crate::context::ActivityContext;
use crate::coordinator::ActivityCoordinator;
use crate::error::ActivityError;
use crate::outcome::Outcome;
use crate::property::PropertyGroupManager;
use crate::recovery::ActivityLogger;

/// Service-scoped identity of an activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActivityId(u64);

impl ActivityId {
    /// Wrap a raw id.
    pub const fn new(raw: u64) -> Self {
        ActivityId(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// This activity as the origin of the protocol steps it emits.
    pub const fn origin(self) -> Origin {
        Origin::Activity(self.0)
    }
}

impl fmt::Display for ActivityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "act-{}", self.0)
    }
}

/// Lifecycle state of an activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivityState {
    /// Running; work and registrations are accepted.
    Active,
    /// Paused; "activities can run over long periods of time and can thus
    /// be suspended and then resumed later".
    Suspended,
    /// Its completion protocol is being driven.
    Completing,
    /// Finished; the stored completion status is final.
    Completed,
}

impl fmt::Display for ActivityState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ActivityState::Active => "active",
            ActivityState::Suspended => "suspended",
            ActivityState::Completing => "completing",
            ActivityState::Completed => "completed",
        })
    }
}

struct ActivityInner {
    id: ActivityId,
    /// Shared: a caller that already holds the name as an `Arc<str>` (a
    /// compiled workflow's task names, a coordination context's id) begins
    /// the activity without copying it.
    name: Arc<str>,
    parent: Weak<ActivityInner>,
    children: Mutex<Vec<Activity>>,
    state: Mutex<ActivityState>,
    completion: Mutex<CompletionStatus>,
    coordinator: ActivityCoordinator,
    properties: PropertyGroupManager,
    /// Static-or-owned: designating a protocol's constant set name, and
    /// reading it back at completion, copies nothing.
    completion_set: Mutex<Option<Cow<'static, str>>>,
    outcome: Mutex<Option<Outcome>>,
    deadline: Mutex<Option<Duration>>,
    logger: Option<Arc<ActivityLogger>>,
    id_source: Arc<AtomicU64>,
    /// This activity's `activity:` span, set by the service that begins it
    /// under live telemetry: children parent under their *enclosing
    /// activity's* span (fig. 4 nesting) rather than whatever happens to be
    /// ambient, and suspend/resume move the ambient association with the
    /// activity between threads.
    span: OnceLock<SpanContext>,
    /// This activity's context in wire form, marshalled on its first send
    /// that carries no property group and shared by every such send after
    /// it: the chain from the root down to here is fixed at `begin`.
    wire_context: OnceLock<Arc<Value>>,
}

/// A unit of work, arranged in a tree (fig. 4), coordinated through its
/// [`ActivityCoordinator`], completed via a designated SignalSet.
///
/// `Activity` is a cheap handle; clones share the underlying state.
#[derive(Clone)]
pub struct Activity {
    inner: Arc<ActivityInner>,
}

impl fmt::Debug for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Activity")
            .field("id", &self.inner.id)
            .field("name", &self.inner.name)
            .field("state", &*self.inner.state.lock())
            .field("completion", &*self.inner.completion.lock())
            .finish()
    }
}

impl Activity {
    /// Create a root activity under `env`: an `Arc<Env>` to share (its
    /// whole tree inherits it), or a bare [`orb::SimClock`] for a
    /// plane-less context of its own. Most callers go through
    /// [`crate::service::ActivityService::begin`] instead, which wires the
    /// thread association, logging and the service's [`Env`].
    pub fn new_root(name: impl Into<Arc<str>>, env: impl Into<Arc<Env>>) -> Activity {
        Self::new_root_with(name, env.into(), None, Arc::new(AtomicU64::new(1)))
    }

    pub(crate) fn new_root_with(
        name: impl Into<Arc<str>>,
        env: Arc<Env>,
        logger: Option<Arc<ActivityLogger>>,
        id_source: Arc<AtomicU64>,
    ) -> Activity {
        let id = ActivityId::new(id_source.fetch_add(1, Ordering::Relaxed));
        let name = name.into();
        if let Some(logger) = &logger {
            let _ = logger.log_begun(id, &name, None);
        }
        let root = Self::assemble(id, name, None, env, logger, id_source);
        root.emit(|| root.begun());
        root
    }

    /// The one place an activity is put together (recovery calls it
    /// directly, with the logged id): a child takes its parent's property
    /// visibility and deadline and is linked into the parent's children; its
    /// coordinator runs under `env`.
    pub(crate) fn assemble(
        id: ActivityId,
        name: Arc<str>,
        parent: Option<&Activity>,
        env: Arc<Env>,
        logger: Option<Arc<ActivityLogger>>,
        id_source: Arc<AtomicU64>,
    ) -> Activity {
        let activity = Activity {
            inner: Arc::new(ActivityInner {
                id,
                name,
                parent: parent.map_or_else(Weak::new, |p| Arc::downgrade(&p.inner)),
                children: Mutex::new(Vec::new()),
                state: Mutex::new(ActivityState::Active),
                completion: Mutex::new(CompletionStatus::default()),
                coordinator: ActivityCoordinator::in_env(id, env),
                properties: parent.map_or_else(PropertyGroupManager::new, |p| {
                    p.inner.properties.for_child()
                }),
                completion_set: Mutex::new(None),
                outcome: Mutex::new(None),
                deadline: Mutex::new(parent.and_then(|p| *p.inner.deadline.lock())),
                logger,
                id_source,
                span: OnceLock::new(),
                wire_context: OnceLock::new(),
            }),
        };
        if let Some(parent) = parent {
            parent.inner.children.lock().push(activity.clone());
        }
        activity
    }

    /// The context this activity — and its whole tree — runs under.
    pub fn env(&self) -> &Arc<Env> {
        self.inner.coordinator.env()
    }

    /// The `activity:` span the owning service opened for this activity.
    pub(crate) fn span(&self) -> Option<SpanContext> {
        self.inner.span.get().copied()
    }

    pub(crate) fn set_span(&self, span: SpanContext) {
        let _ = self.inner.span.set(span);
    }

    /// This activity's context as the client interceptor stamps it: the one
    /// shared value while its property groups propagate none, a fresh
    /// [`ActivityContext::marshal`] on every send once one travels (by
    /// value its snapshot may have changed since the last send; by
    /// reference it may have been registered since). Either way the value
    /// equals `ActivityContext::capture(self).to_value()`.
    pub(crate) fn wire_context(&self) -> Arc<Value> {
        if self.inner.properties.propagates_any() {
            return Arc::new(ActivityContext::marshal(self));
        }
        let shared =
            self.inner.wire_context.get_or_init(|| Arc::new(ActivityContext::marshal(self)));
        Arc::clone(shared)
    }

    /// Emit one lifecycle step of this activity.
    fn emit(&self, event: impl FnOnce() -> ProtocolEvent) {
        self.env().emit(|| (self.inner.id.origin(), event()));
    }

    fn begun(&self) -> ProtocolEvent {
        ProtocolEvent::ActivityBegun {
            activity: self.inner.id.raw(),
            name: self.inner.name.as_ref().to_owned(),
            parent: self.inner.parent.upgrade().map(|p| p.id.raw()),
        }
    }

    /// Mark an activity completed during recovery without re-running its
    /// completion protocol (it already ran before the crash).
    pub(crate) fn force_completed(&self, status: CompletionStatus) {
        *self.inner.completion.lock() = status;
        *self.inner.state.lock() = ActivityState::Completed;
        let outcome =
            if status.is_failure() { Outcome::abort() } else { Outcome::done() };
        *self.inner.outcome.lock() = Some(outcome);
    }

    /// Begin a child activity nested inside this one. Property groups are
    /// inherited per their [`crate::property::NestedVisibility`]; the
    /// child's coordinator runs under this activity's [`Env`].
    ///
    /// # Errors
    ///
    /// [`ActivityError::InvalidState`] unless this activity is active;
    /// [`ActivityError::TimedOut`] when this activity's deadline passed.
    pub fn begin_child(&self, name: impl Into<Arc<str>>) -> Result<Activity, ActivityError> {
        self.check_active("begin a child")?;
        let id = ActivityId::new(self.inner.id_source.fetch_add(1, Ordering::Relaxed));
        let name = name.into();
        if let Some(logger) = &self.inner.logger {
            logger.log_begun(id, &name, Some(self.inner.id))?;
        }
        let child = Self::assemble(
            id,
            name,
            Some(self),
            Arc::clone(self.env()),
            self.inner.logger.clone(),
            Arc::clone(&self.inner.id_source),
        );
        child.emit(|| child.begun());
        Ok(child)
    }

    /// This activity's id.
    pub fn id(&self) -> ActivityId {
        self.inner.id
    }

    /// This activity's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The enclosing activity, if any.
    pub fn parent(&self) -> Option<Activity> {
        self.inner.parent.upgrade().map(|inner| Activity { inner })
    }

    /// Snapshot of child activities (completed ones included).
    pub fn children(&self) -> Vec<Activity> {
        self.inner.children.lock().clone()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ActivityState {
        *self.inner.state.lock()
    }

    /// Current completion status (what completion would report now).
    pub fn completion_status(&self) -> CompletionStatus {
        *self.inner.completion.lock()
    }

    /// The completed activity's outcome — "the result of a completed
    /// activity is its outcome, which can be used to determine subsequent
    /// flow of control to other activities" (§3.1). `None` until completed.
    pub fn outcome(&self) -> Option<Outcome> {
        self.inner.outcome.lock().clone()
    }

    /// Change the completion status, enforcing the §3.2.1 rules.
    ///
    /// # Errors
    ///
    /// [`ActivityError::CompletionStatus`] on an illegal transition (i.e.
    /// any attempt to leave `FailOnly`).
    pub fn set_completion_status(&self, status: CompletionStatus) -> Result<(), ActivityError> {
        let mut completion = self.inner.completion.lock();
        if !completion.can_transition_to(status) {
            return Err(ActivityError::CompletionStatus { from: *completion, to: status });
        }
        *completion = status;
        if let Some(logger) = &self.inner.logger {
            logger.log_completion_status(self.inner.id, status)?;
        }
        Ok(())
    }

    /// The coordinator: signal sets, action registration, protocol runs.
    pub fn coordinator(&self) -> &ActivityCoordinator {
        &self.inner.coordinator
    }

    /// The activity's property groups.
    pub fn properties(&self) -> &PropertyGroupManager {
        &self.inner.properties
    }

    /// Designate the SignalSet (by name) that [`Activity::complete`] drives.
    pub fn set_completion_signal_set(&self, set_name: impl Into<Cow<'static, str>>) {
        let set_name = set_name.into();
        if let Some(logger) = &self.inner.logger {
            let _ = logger.log_completion_set(self.inner.id, &set_name);
        }
        *self.inner.completion_set.lock() = Some(set_name);
    }

    /// Name of the designated completion SignalSet, if any.
    pub fn completion_signal_set(&self) -> Option<String> {
        self.inner.completion_set.lock().as_deref().map(str::to_owned)
    }

    /// Arm a timeout: once the virtual clock passes `now + timeout`, the
    /// activity is doomed to complete as `FailOnly`.
    pub fn set_timeout(&self, timeout: Duration) {
        *self.inner.deadline.lock() = Some(self.env().clock.now() + timeout);
    }

    /// The armed deadline as an **absolute** virtual-time instant, if any.
    /// Retry layers compose with it: pass this to
    /// [`orb::RetryPolicy::run`] (or a `RemoteActionProxy` deadline) so no
    /// backoff or re-attempt ever extends past the activity's own timeout.
    pub fn deadline(&self) -> Option<Duration> {
        *self.inner.deadline.lock()
    }

    /// Whether the activity's deadline has passed.
    pub fn timed_out(&self) -> bool {
        self.inner
            .deadline
            .lock()
            .is_some_and(|deadline| self.env().clock.now() > deadline)
    }

    /// Suspend the activity.
    ///
    /// # Errors
    ///
    /// [`ActivityError::InvalidState`] unless active.
    pub fn suspend(&self) -> Result<(), ActivityError> {
        let mut state = self.inner.state.lock();
        match *state {
            ActivityState::Active => {
                *state = ActivityState::Suspended;
                Ok(())
            }
            other => Err(self.invalid("suspend", other)),
        }
    }

    /// Resume a suspended activity.
    ///
    /// # Errors
    ///
    /// [`ActivityError::InvalidState`] unless suspended.
    pub fn resume(&self) -> Result<(), ActivityError> {
        let mut state = self.inner.state.lock();
        match *state {
            ActivityState::Suspended => {
                *state = ActivityState::Active;
                Ok(())
            }
            other => Err(self.invalid("resume", other)),
        }
    }

    /// Run an arbitrary associated SignalSet *now*, mid-lifetime ("signals
    /// may be communicated at arbitrary points during the lifetime of an
    /// activity and not just when it terminates").
    ///
    /// # Errors
    ///
    /// Propagates coordinator failures; the activity must be active.
    pub fn signal(&self, set_name: &str) -> Result<Outcome, ActivityError> {
        self.check_active("signal")?;
        self.inner.coordinator.process_signal_set(set_name)
    }

    /// Complete with the current completion status.
    ///
    /// # Errors
    ///
    /// See [`Activity::complete_with_status`].
    pub fn complete(&self) -> Result<Outcome, ActivityError> {
        let status = self.completion_status();
        self.complete_with_status(status)
    }

    /// Complete the activity: verify every child has completed, adopt
    /// `status` (forced to `FailOnly` when timed out), drive the designated
    /// completion SignalSet (when one is set) and become `Completed`.
    ///
    /// # Errors
    ///
    /// [`ActivityError::ChildrenActive`] when a child is still incomplete;
    /// [`ActivityError::InvalidState`] when not active;
    /// [`ActivityError::CompletionStatus`] on an illegal status transition.
    pub fn complete_with_status(
        &self,
        status: CompletionStatus,
    ) -> Result<Outcome, ActivityError> {
        {
            let mut state = self.inner.state.lock();
            if *state != ActivityState::Active {
                return Err(self.invalid("complete", *state));
            }
            let children = self.inner.children.lock();
            if children.iter().any(|c| c.state() != ActivityState::Completed) {
                return Err(ActivityError::ChildrenActive(self.inner.id));
            }
            *state = ActivityState::Completing;
        }
        let effective = if self.timed_out() { CompletionStatus::FailOnly } else { status };
        if let Err(e) = self.set_completion_status(effective) {
            *self.inner.state.lock() = ActivityState::Active;
            return Err(e);
        }

        let completion_set = self.inner.completion_set.lock().clone();
        let outcome = match completion_set.as_deref() {
            Some(set_name) => {
                self.inner.coordinator.set_completion_status(set_name, effective)?;
                match self.inner.coordinator.process_signal_set(set_name) {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        *self.inner.state.lock() = ActivityState::Active;
                        return Err(e);
                    }
                }
            }
            None => {
                if effective.is_failure() {
                    Outcome::abort()
                } else {
                    Outcome::done()
                }
            }
        };
        *self.inner.state.lock() = ActivityState::Completed;
        *self.inner.outcome.lock() = Some(outcome.clone());
        self.emit(|| ProtocolEvent::ActivityCompleted {
            activity: self.inner.id.raw(),
            status: match effective {
                CompletionStatus::Success => "Success",
                CompletionStatus::Fail => "Fail",
                CompletionStatus::FailOnly => "FailOnly",
            },
            outcome: outcome.name().to_owned(),
        });
        if let Some(logger) = &self.inner.logger {
            logger.log_completed(self.inner.id, effective, outcome.name())?;
        }
        Ok(outcome)
    }

    /// Associate a SignalSet re-creatable at recovery time: `factory_key`
    /// names a registered [`crate::recovery::SignalSetFactories`] entry.
    ///
    /// # Errors
    ///
    /// Propagates coordinator and log failures.
    pub fn add_signal_set_recoverable(
        &self,
        factory_key: &str,
        set: Box<dyn crate::signal_set::SignalSet>,
    ) -> Result<(), ActivityError> {
        let set_name = set.signal_set_name().to_owned();
        self.inner.coordinator.add_signal_set(set)?;
        if let Some(logger) = &self.inner.logger {
            logger.log_signal_set(self.inner.id, &set_name, factory_key)?;
        }
        Ok(())
    }

    /// Register an Action re-creatable at recovery time: `factory_key`
    /// names a registered [`crate::recovery::ActionFactories`] entry.
    ///
    /// # Errors
    ///
    /// Propagates log failures.
    pub fn register_action_recoverable(
        &self,
        set_name: &str,
        factory_key: &str,
        action: Arc<dyn crate::action::Action>,
    ) -> Result<(), ActivityError> {
        self.inner.coordinator.register_action(set_name, action);
        if let Some(logger) = &self.inner.logger {
            logger.log_action(self.inner.id, set_name, factory_key)?;
        }
        Ok(())
    }

    fn check_active(&self, operation: &str) -> Result<(), ActivityError> {
        if self.timed_out() {
            return Err(ActivityError::TimedOut(self.inner.id));
        }
        let state = *self.inner.state.lock();
        if state != ActivityState::Active {
            return Err(self.invalid(operation, state));
        }
        Ok(())
    }

    fn invalid(&self, operation: &str, state: ActivityState) -> ActivityError {
        ActivityError::InvalidState {
            activity: self.inner.id,
            operation: operation.to_owned(),
            state: state.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::FnAction;
    use crate::signal::Signal;
    use crate::signal_set::BroadcastSignalSet;
    use orb::{SimClock, Value};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn root() -> Activity {
        Activity::new_root("root", SimClock::new())
    }

    #[test]
    fn lifecycle_and_identity() {
        let a = root();
        assert_eq!(a.name(), "root");
        assert_eq!(a.state(), ActivityState::Active);
        assert_eq!(a.completion_status(), CompletionStatus::Success);
        assert!(a.parent().is_none());
        let out = a.complete().unwrap();
        assert!(out.is_done());
        assert_eq!(a.state(), ActivityState::Completed);
    }

    #[test]
    fn children_form_a_tree_and_gate_completion() {
        let a = root();
        let b = a.begin_child("b").unwrap();
        let c = a.begin_child("c").unwrap();
        assert_eq!(a.children().len(), 2);
        assert_eq!(b.parent().unwrap().id(), a.id());
        assert!(matches!(a.complete(), Err(ActivityError::ChildrenActive(_))));
        b.complete().unwrap();
        c.complete().unwrap();
        a.complete().unwrap();
    }

    #[test]
    fn completed_activity_rejects_everything() {
        let a = root();
        a.complete().unwrap();
        assert!(matches!(a.begin_child("x"), Err(ActivityError::InvalidState { .. })));
        assert!(matches!(a.complete(), Err(ActivityError::InvalidState { .. })));
        assert!(matches!(a.suspend(), Err(ActivityError::InvalidState { .. })));
        assert!(matches!(a.signal("s"), Err(ActivityError::InvalidState { .. })));
    }

    #[test]
    fn suspend_resume_cycle() {
        let a = root();
        a.suspend().unwrap();
        assert_eq!(a.state(), ActivityState::Suspended);
        assert!(matches!(a.suspend(), Err(ActivityError::InvalidState { .. })));
        assert!(matches!(a.begin_child("x"), Err(ActivityError::InvalidState { .. })));
        assert!(matches!(a.complete(), Err(ActivityError::InvalidState { .. })));
        a.resume().unwrap();
        assert!(matches!(a.resume(), Err(ActivityError::InvalidState { .. })));
        a.complete().unwrap();
    }

    #[test]
    fn completion_status_rules_enforced() {
        let a = root();
        a.set_completion_status(CompletionStatus::Fail).unwrap();
        a.set_completion_status(CompletionStatus::Success).unwrap();
        a.set_completion_status(CompletionStatus::FailOnly).unwrap();
        let err = a.set_completion_status(CompletionStatus::Success).unwrap_err();
        assert!(matches!(err, ActivityError::CompletionStatus { .. }));
        // Completing a FailOnly activity reports failure.
        let out = a.complete().unwrap();
        assert!(out.is_negative());
    }

    #[test]
    fn completion_drives_designated_signal_set() {
        let a = root();
        a.coordinator()
            .add_signal_set(Box::new(BroadcastSignalSet::new("Done", "finished", Value::Null)))
            .unwrap();
        a.set_completion_signal_set("Done");
        let hits = Arc::new(AtomicU32::new(0));
        let hits2 = Arc::clone(&hits);
        a.coordinator().register_action(
            "Done",
            Arc::new(FnAction::new("observer", move |_s: &Signal| {
                hits2.fetch_add(1, Ordering::SeqCst);
                Ok(Outcome::done())
            })),
        );
        let out = a.complete().unwrap();
        assert!(out.is_done());
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn signal_mid_lifetime() {
        let a = root();
        a.coordinator()
            .add_signal_set(Box::new(BroadcastSignalSet::new("Checkpoint", "save", Value::Null)))
            .unwrap();
        let out = a.signal("Checkpoint").unwrap();
        assert!(out.is_done());
        assert_eq!(a.state(), ActivityState::Active, "still running afterwards");
    }

    #[test]
    fn timeout_forces_fail_only() {
        let clock = SimClock::new();
        let a = Activity::new_root("slow", clock.clone());
        a.set_timeout(Duration::from_secs(1));
        assert!(!a.timed_out());
        clock.advance(Duration::from_secs(2));
        assert!(a.timed_out());
        assert!(matches!(a.begin_child("x"), Err(ActivityError::TimedOut(_))));
        let out = a.complete_with_status(CompletionStatus::Success).unwrap();
        assert!(out.is_negative(), "timeout overrides requested success");
        assert_eq!(a.completion_status(), CompletionStatus::FailOnly);
    }

    #[test]
    fn child_inherits_clock_and_deadline() {
        let clock = SimClock::new();
        let a = Activity::new_root("a", clock.clone());
        a.set_timeout(Duration::from_secs(1));
        let b = a.begin_child("b").unwrap();
        clock.advance(Duration::from_secs(2));
        assert!(b.timed_out(), "deadline inherited at begin time");
    }

    #[test]
    fn children_run_under_the_roots_env() {
        let fp = recovery_log::FailpointSet::new();
        let env = Env { failpoints: Some(fp.clone()), ..Default::default() }.wired();
        let a = Activity::new_root("a", Arc::clone(&env));
        let c = a.begin_child("b").unwrap().begin_child("c").unwrap();
        assert!(Arc::ptr_eq(c.coordinator().env(), &env));
        // The grandchild's protocol loop passes the root's failpoints.
        c.coordinator()
            .add_signal_set(Box::new(BroadcastSignalSet::new("S", "go", Value::Null)))
            .unwrap();
        fp.arm(crate::failpoints::BEFORE_GET_SIGNAL, 0);
        assert!(c.signal("S").is_err());
    }

    #[test]
    fn lifecycle_steps_are_emitted_in_order_under_each_activitys_own_origin() {
        let recorder = telemetry::FlightRecorder::new("test", usize::MAX);
        let env = Env { recorder: Some(recorder.clone()), ..Default::default() }.wired();
        let root = Activity::new_root("root", env);
        let child = root.begin_child("child").unwrap();
        child.complete().unwrap();
        root.complete_with_status(CompletionStatus::Fail).unwrap();

        let (root_id, child_id) = (root.id().raw(), child.id().raw());
        let begun = |activity, name: &str, parent| ProtocolEvent::ActivityBegun {
            activity,
            name: name.into(),
            parent,
        };
        let completed = |activity, status, outcome: &str| ProtocolEvent::ActivityCompleted {
            activity,
            status,
            outcome: outcome.into(),
        };
        assert_eq!(
            recorder.steps(),
            vec![
                (root.id().origin(), begun(root_id, "root", None)),
                (child.id().origin(), begun(child_id, "child", Some(root_id))),
                (child.id().origin(), completed(child_id, "Success", "done")),
                (root.id().origin(), completed(root_id, "Fail", "abort")),
            ]
        );
        // With nothing listening nothing is built, and nothing breaks.
        Activity::new_root("unheard", SimClock::new()).complete().unwrap();
    }

    #[test]
    fn ids_are_unique_within_a_tree() {
        let a = root();
        let b = a.begin_child("b").unwrap();
        let c = b.begin_child("c").unwrap();
        assert_ne!(a.id(), b.id());
        assert_ne!(b.id(), c.id());
        assert_ne!(a.id(), c.id());
    }
}

#[cfg(test)]
mod outcome_tests {
    use super::*;
    use crate::signal_set::BroadcastSignalSet;
    use orb::{SimClock, Value};

    #[test]
    fn outcome_is_stored_for_flow_control() {
        let a = Activity::new_root("a", SimClock::new());
        assert!(a.outcome().is_none(), "no outcome before completion");
        a.coordinator()
            .add_signal_set(Box::new(BroadcastSignalSet::new("Done", "fin", Value::Null)))
            .unwrap();
        a.set_completion_signal_set("Done");
        let returned = a.complete().unwrap();
        // A later activity can consult the stored outcome to decide its
        // own flow of control (§3.1).
        assert_eq!(a.outcome(), Some(returned));
    }

    #[test]
    fn failed_completion_stores_negative_outcome() {
        let a = Activity::new_root("a", SimClock::new());
        a.complete_with_status(CompletionStatus::FailOnly).unwrap();
        assert!(a.outcome().unwrap().is_negative());
    }
}

impl Activity {
    /// The outcomes of completed children, by name — the raw material for
    /// §3.1's "determine subsequent flow of control to other activities"
    /// and §2.2's "responsible entity" that must know "which have completed
    /// and what their outcomes were" and "which activities failed to
    /// complete".
    pub fn children_outcomes(&self) -> Vec<(String, Option<Outcome>)> {
        self.inner
            .children
            .lock()
            .iter()
            .map(|c| (c.name().to_owned(), c.outcome()))
            .collect()
    }
}

#[cfg(test)]
mod flow_control_tests {
    use super::*;

    #[test]
    fn children_outcomes_distinguish_states() {
        let parent = Activity::new_root("parent", orb::SimClock::new());
        let done = parent.begin_child("done").unwrap();
        done.complete().unwrap();
        let failed = parent.begin_child("failed").unwrap();
        failed.complete_with_status(CompletionStatus::Fail).unwrap();
        let _running = parent.begin_child("running").unwrap();

        let outcomes = parent.children_outcomes();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].1.as_ref().unwrap().is_done());
        assert!(outcomes[1].1.as_ref().unwrap().is_negative());
        assert!(outcomes[2].1.is_none(), "incomplete children have no outcome yet");
    }
}
