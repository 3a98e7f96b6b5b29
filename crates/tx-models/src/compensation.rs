//! Open nesting with compensation — the paper's §4.2 and fig. 9.
//!
//! Within a top-level transaction A, an independent top-level transaction B
//! commits early (releasing its resources); if A later rolls back, a
//! compensating transaction !B must undo B. The paper builds this from:
//!
//! * a **CompletionSignalSet** per enclosing activity with `success`,
//!   `failure` and `propagate` signals, and
//! * a **CompensationAction** that, on `propagate`, re-registers itself with
//!   the enclosing activity and, on a later `failure`, starts !B.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use activity_service::signal_set::{AfterResponse, NextSignal, SignalSet};
use activity_service::{
    ActionError, Activity, ActivityId, CompletionStatus, Outcome, Signal,
};
use orb::Value;
use parking_lot::Mutex;

use crate::common::{SIG_FAILURE, SIG_PROPAGATE, SIG_SUCCESS};

/// Conventional name of the completion signal set.
pub const COMPLETION_SET: &str = "CompletionSignalSet";

/// Resolves propagated activity identities back to live activities — the
/// in-process stand-in for a CORBA object reference riding in the signal.
pub trait ActivityRegistry: Send + Sync {
    /// Find the activity registered under `id`.
    fn resolve(&self, id: ActivityId) -> Option<Activity>;
}

/// A simple map-backed [`ActivityRegistry`].
#[derive(Default)]
pub struct InMemoryActivityRegistry {
    activities: Mutex<HashMap<ActivityId, Activity>>,
}

impl std::fmt::Debug for InMemoryActivityRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InMemoryActivityRegistry")
            .field("len", &self.activities.lock().len())
            .finish()
    }
}

impl InMemoryActivityRegistry {
    /// An empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Make `activity` resolvable by its id.
    pub fn register(&self, activity: &Activity) {
        self.activities.lock().insert(activity.id(), activity.clone());
    }
}

impl ActivityRegistry for InMemoryActivityRegistry {
    fn resolve(&self, id: ActivityId) -> Option<Activity> {
        self.activities.lock().get(&id).cloned()
    }
}

/// The §4.2 CompletionSignalSet: emits exactly one of `success`, `failure`
/// or `propagate` depending on the activity's completion status and whether
/// the activity's effects stay contingent on an enclosing activity.
#[derive(Debug)]
pub struct CompletionSignalSet {
    propagate_to: Option<ActivityId>,
    completion: CompletionStatus,
    sent: bool,
    negatives: usize,
}

impl CompletionSignalSet {
    /// A set for an activity with no outstanding dependencies: completion
    /// sends `success` or `failure`.
    pub fn new() -> Self {
        CompletionSignalSet {
            propagate_to: None,
            completion: CompletionStatus::Success,
            sent: false,
            negatives: 0,
        }
    }

    /// A set for an activity whose successful completion leaves its effects
    /// contingent on `enclosing`: completion sends `propagate` (carrying the
    /// enclosing activity's identity) instead of `success`.
    pub fn propagating_to(enclosing: ActivityId) -> Self {
        CompletionSignalSet { propagate_to: Some(enclosing), ..Self::new() }
    }
}

impl Default for CompletionSignalSet {
    fn default() -> Self {
        Self::new()
    }
}

impl SignalSet for CompletionSignalSet {
    fn signal_set_name(&self) -> &str {
        COMPLETION_SET
    }

    fn shared_signal_set_name(&self) -> Cow<'static, str> {
        Cow::Borrowed(COMPLETION_SET)
    }

    fn get_signal(&mut self) -> NextSignal {
        if self.sent {
            return NextSignal::End;
        }
        self.sent = true;
        let signal = if self.completion.is_failure() {
            Signal::new(SIG_FAILURE, COMPLETION_SET)
        } else {
            match self.propagate_to {
                Some(target) => Signal::new(SIG_PROPAGATE, COMPLETION_SET)
                    .with_data(Value::U64(target.raw())),
                None => Signal::new(SIG_SUCCESS, COMPLETION_SET),
            }
        };
        NextSignal::LastSignal(signal)
    }

    fn set_response(&mut self, response: &Outcome) -> AfterResponse {
        if response.is_negative() {
            self.negatives += 1;
        }
        AfterResponse::Continue
    }

    fn get_outcome(&mut self) -> Outcome {
        if self.negatives == 0 {
            Outcome::done()
        } else {
            Outcome::abort().with_data(Value::U64(self.negatives as u64))
        }
    }

    fn set_completion_status(&mut self, status: CompletionStatus) {
        self.completion = status;
    }

    fn completion_status(&self) -> CompletionStatus {
        self.completion
    }
}

#[derive(Default)]
struct CompensationState {
    propagated: bool,
    compensated: bool,
    retired: bool,
    /// Weak self-reference so the action can re-register *itself* with
    /// another activity on `propagate` (coordinators hold `Arc<dyn Action>`;
    /// `&self` alone cannot recover an owning handle).
    self_ref: std::sync::Weak<CompensationAction>,
}

/// The §4.2 CompensationAction. Its state machine, verbatim from the paper:
///
/// * `success` → "it can remove itself from the system";
/// * `propagate` → register with the encoded enclosing activity and
///   "remember that it has been propagated";
/// * `failure`, never propagated → remove itself (the protected transaction
///   rolled back on its own; nothing to undo);
/// * `failure`, propagated → "start !B running, before removing itself".
pub struct CompensationAction {
    name: String,
    registry: Arc<dyn ActivityRegistry>,
    compensate: Box<dyn Fn() -> Result<(), String> + Send + Sync>,
    state: Mutex<CompensationState>,
}

impl CompensationAction {
    /// Build a compensation action; `compensate` is "!B" — it runs at most
    /// once, only on a post-propagation failure.
    pub fn new<F>(
        name: impl Into<String>,
        registry: Arc<dyn ActivityRegistry>,
        compensate: F,
    ) -> Arc<Self>
    where
        F: Fn() -> Result<(), String> + Send + Sync + 'static,
    {
        Arc::new_cyclic(|weak| CompensationAction {
            name: name.into(),
            registry,
            compensate: Box::new(compensate),
            state: Mutex::new(CompensationState {
                self_ref: weak.clone(),
                ..CompensationState::default()
            }),
        })
    }

    /// Whether the compensation has run.
    pub fn compensated(&self) -> bool {
        self.state.lock().compensated
    }

    /// Whether the action has removed itself from the system.
    pub fn retired(&self) -> bool {
        self.state.lock().retired
    }
}

impl activity_service::Action for CompensationAction {
    fn process_signal(&self, signal: &Signal) -> Result<Outcome, ActionError> {
        match signal.name() {
            SIG_SUCCESS => {
                self.state.lock().retired = true;
                Ok(Outcome::done())
            }
            SIG_PROPAGATE => {
                let target = signal
                    .data()
                    .as_u64()
                    .ok_or_else(|| ActionError::new("propagate signal missing target id"))?;
                // Resolve before mutating state: a failed propagation must
                // stay retryable.
                let enclosing = self
                    .registry
                    .resolve(ActivityId::new(target))
                    .ok_or_else(|| ActionError::new(format!("unknown activity act-{target}")))?;
                let myself = {
                    let mut state = self.state.lock();
                    if state.propagated {
                        // Redelivered signal (at-least-once): already enlisted.
                        return Ok(Outcome::done());
                    }
                    state.propagated = true;
                    state
                        .self_ref
                        .upgrade()
                        .ok_or_else(|| ActionError::new("compensation action already dropped"))?
                };
                enclosing
                    .coordinator()
                    .register_action(COMPLETION_SET, myself as Arc<dyn activity_service::Action>);
                Ok(Outcome::done())
            }
            SIG_FAILURE => {
                let mut state = self.state.lock();
                if state.retired {
                    return Ok(Outcome::done());
                }
                if state.propagated && !state.compensated {
                    state.compensated = true;
                    drop(state);
                    (self.compensate)().map_err(ActionError::new)?;
                    self.state.lock().retired = true;
                } else {
                    state.retired = true;
                }
                Ok(Outcome::done())
            }
            other => Err(ActionError::new(format!("unexpected signal {other:?}"))),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use activity_service::Action;
    use orb::SimClock;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Wire the §4.2 structure: an enclosing activity A, a nested enclosing
    /// activity for B, and a CompensationAction protecting B's work.
    /// Returns (A, B's activity, the action, compensation counter).
    fn fig9_setup() -> (Activity, Activity, Arc<CompensationAction>, Arc<AtomicU32>) {
        let registry = InMemoryActivityRegistry::new();
        let a = Activity::new_root("A", SimClock::new());
        a.coordinator().add_signal_set(Box::new(CompletionSignalSet::new())).unwrap();
        a.set_completion_signal_set(COMPLETION_SET);
        registry.register(&a);

        let b = a.begin_child("B").unwrap();
        b.coordinator()
            .add_signal_set(Box::new(CompletionSignalSet::propagating_to(a.id())))
            .unwrap();
        b.set_completion_signal_set(COMPLETION_SET);
        registry.register(&b);

        let undone = Arc::new(AtomicU32::new(0));
        let undone2 = Arc::clone(&undone);
        let action =
            CompensationAction::new("compensate-B", registry.clone() as Arc<dyn ActivityRegistry>, move || {
                undone2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            });
        b.coordinator()
            .register_action(COMPLETION_SET, Arc::clone(&action) as Arc<dyn Action>);
        (a, b, action, undone)
    }

    #[test]
    fn b_commits_a_commits_no_compensation() {
        let (a, b, action, undone) = fig9_setup();
        b.complete().unwrap(); // propagate → action enlists with A
        assert!(!action.retired());
        a.complete().unwrap(); // success → action retires quietly
        assert!(action.retired());
        assert!(!action.compensated());
        assert_eq!(undone.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn b_commits_a_aborts_compensation_runs() {
        let (a, b, action, undone) = fig9_setup();
        b.complete().unwrap();
        a.set_completion_status(CompletionStatus::FailOnly).unwrap();
        a.complete().unwrap(); // failure → start !B
        assert!(action.compensated());
        assert!(action.retired());
        assert_eq!(undone.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn b_aborts_nothing_to_compensate() {
        let (a, b, action, undone) = fig9_setup();
        b.complete_with_status(CompletionStatus::Fail).unwrap(); // failure, never propagated
        assert!(action.retired());
        assert!(!action.compensated());
        // A may commit or abort; either way no compensation.
        a.set_completion_status(CompletionStatus::Fail).unwrap();
        a.complete().unwrap();
        assert_eq!(undone.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn redelivered_signals_are_idempotent() {
        let (a, b, action, undone) = fig9_setup();
        b.complete().unwrap();
        // Simulate at-least-once redelivery of the propagate signal.
        let redelivery = Signal::new(SIG_PROPAGATE, COMPLETION_SET).with_data(Value::U64(a.id().raw()));
        action.process_signal(&redelivery).unwrap();
        a.set_completion_status(CompletionStatus::FailOnly).unwrap();
        a.complete().unwrap();
        assert_eq!(
            undone.load(Ordering::SeqCst),
            1,
            "double propagation must not double-register (and so not double-compensate)"
        );
        // Redelivered failure after retirement is also a no-op.
        action.process_signal(&Signal::new(SIG_FAILURE, COMPLETION_SET)).unwrap();
        assert_eq!(undone.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn propagate_to_unknown_activity_is_an_error() {
        let registry = InMemoryActivityRegistry::new();
        let action = CompensationAction::new(
            "orphan",
            registry as Arc<dyn ActivityRegistry>,
            || Ok(()),
        );
        let signal = Signal::new(SIG_PROPAGATE, COMPLETION_SET).with_data(Value::U64(999));
        assert!(action.process_signal(&signal).is_err());
        let missing_target = Signal::new(SIG_PROPAGATE, COMPLETION_SET);
        // The first (failed) call consumed the propagated flag… it must NOT
        // have: a failed propagation is retryable.
        assert!(action.process_signal(&missing_target).is_err());
    }

    #[test]
    fn failed_compensation_reports_an_error_outcome() {
        let registry = InMemoryActivityRegistry::new();
        let a = Activity::new_root("A", SimClock::new());
        a.coordinator().add_signal_set(Box::new(CompletionSignalSet::new())).unwrap();
        a.set_completion_signal_set(COMPLETION_SET);
        registry.register(&a);
        let action = CompensationAction::new(
            "broken",
            registry.clone() as Arc<dyn ActivityRegistry>,
            || Err("cannot undo".into()),
        );
        // Propagate directly, then fail A.
        let signal = Signal::new(SIG_PROPAGATE, COMPLETION_SET).with_data(Value::U64(a.id().raw()));
        action.process_signal(&signal).unwrap();
        a.set_completion_status(CompletionStatus::FailOnly).unwrap();
        let outcome = a.complete().unwrap();
        assert!(outcome.is_negative(), "the set collates the compensation failure");
    }

    #[test]
    fn completion_set_emits_exactly_one_signal() {
        let mut set = CompletionSignalSet::new();
        assert_eq!(set.signal_set_name(), COMPLETION_SET);
        let NextSignal::LastSignal(sig) = set.get_signal() else { panic!("expected signal") };
        assert_eq!(sig.name(), SIG_SUCCESS);
        assert_eq!(set.get_signal(), NextSignal::End);

        let mut set = CompletionSignalSet::propagating_to(ActivityId::new(7));
        let NextSignal::LastSignal(sig) = set.get_signal() else { panic!("expected signal") };
        assert_eq!(sig.name(), SIG_PROPAGATE);
        assert_eq!(sig.data().as_u64(), Some(7));

        let mut set = CompletionSignalSet::propagating_to(ActivityId::new(7));
        set.set_completion_status(CompletionStatus::Fail);
        let NextSignal::LastSignal(sig) = set.get_signal() else { panic!("expected signal") };
        assert_eq!(sig.name(), SIG_FAILURE, "failure beats propagation");
    }
}
