//! Task controllers: the OPENflow coordination objects (§4.4).
//!
//! "Associated with each task is a transactional task controller object.
//! The purpose of a task controller is to receive notifications of outputs
//! of other task controllers and use this information to determine when its
//! associated task can be started."

use std::collections::BTreeMap;
use std::sync::Arc;

use activity_service::{ActionError, Outcome, Signal};
use orb::Value;
use parking_lot::Mutex;
use tx_models::common::{SIG_OUTCOME, SIG_OUTCOME_ACK};

use crate::graph::JoinKind;

/// Collects dependency outcomes for one task and decides when it may start.
///
/// Outcomes are held in slots aligned with the dependency list, so a
/// notification says which slot it fills and nothing is looked up by name.
pub struct TaskController {
    task: Arc<str>,
    dependencies: Arc<[Arc<str>]>,
    join: JoinKind,
    received: Mutex<Vec<Option<(bool, Value)>>>,
}

impl std::fmt::Debug for TaskController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskController")
            .field("task", &self.task)
            .field("dependencies", &self.dependencies)
            .field("received", &self.received.lock().iter().flatten().count())
            .finish()
    }
}

impl TaskController {
    /// A controller for `task`, which waits for `dependencies` under `join`.
    /// Both names are shared handles (a compiled workflow hands out its
    /// own), so a run's controllers copy no names.
    pub fn new(task: Arc<str>, dependencies: Arc<[Arc<str>]>, join: JoinKind) -> Self {
        let received = Mutex::new(vec![None; dependencies.len()]);
        TaskController { task, dependencies, join, received }
    }

    /// The controlled task's name.
    pub fn task(&self) -> &str {
        &self.task
    }

    /// Record the outcome of the dependency at `slot` of the dependency
    /// list (idempotent per slot: redelivery keeps the first notification).
    pub fn note_outcome(&self, slot: usize, success: bool, output: Value) {
        let mut received = self.received.lock();
        if received[slot].is_none() {
            received[slot] = Some((success, output));
        }
    }

    /// Whether the task may start now. A task that is not ready once every
    /// dependency has reported never will be — a required dependency
    /// failed — and its workflow reports it skipped.
    pub fn is_ready(&self) -> bool {
        let received = self.received.lock();
        let mut succeeded = received.iter().map(|slot| matches!(slot, Some((true, _))));
        match self.join {
            JoinKind::All => succeeded.all(|ok| ok),
            JoinKind::Any => received.is_empty() || succeeded.any(|ok| ok),
        }
    }

    /// Successful upstream outputs, keyed by task name.
    pub fn inputs(&self) -> BTreeMap<String, Value> {
        let received = self.received.lock();
        // Inserted one by one: collecting would stage the pairs in a
        // vector first to sort them.
        let mut inputs = BTreeMap::new();
        for (name, slot) in self.dependencies.iter().zip(received.iter()) {
            if let Some((true, output)) = slot {
                inputs.insert(name.as_ref().to_owned(), output.clone());
            }
        }
        inputs
    }
}

/// Adapts a controller into an Action registered with ONE dependency's
/// Completed SignalSet: "whenever a child activity is started the parent
/// activity registers an Action with it that is used to deliver the
/// 'outcome' Signal".
pub struct DependencyWatch {
    controllers: Arc<[TaskController]>,
    dependent: usize,
    slot: usize,
}

impl DependencyWatch {
    /// Watch, on behalf of the task controlled by `controllers[dependent]`
    /// (a run's controllers are one shared slice), the dependency at `slot`
    /// of its dependency list.
    pub fn new(controllers: Arc<[TaskController]>, dependent: usize, slot: usize) -> Arc<Self> {
        Arc::new(DependencyWatch { controllers, dependent, slot })
    }

    fn controller(&self) -> &TaskController {
        &self.controllers[self.dependent]
    }
}

impl activity_service::Action for DependencyWatch {
    fn process_signal(&self, signal: &Signal) -> Result<Outcome, ActionError> {
        if signal.name() != SIG_OUTCOME {
            return Err(ActionError::new(format!("unexpected signal {:?}", signal.name())));
        }
        let payload = signal
            .data()
            .as_map()
            .ok_or_else(|| ActionError::new("outcome payload must be a map"))?;
        let success = payload.get("success").and_then(Value::as_bool).unwrap_or(false);
        let result = payload.get("result").cloned().unwrap_or(Value::Null);
        self.controller().note_outcome(self.slot, success, result);
        Ok(Outcome::new(SIG_OUTCOME_ACK))
    }

    fn name(&self) -> &str {
        self.controller().task()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(deps: &[&str], join: JoinKind) -> TaskController {
        TaskController::new("d".into(), deps.iter().map(|d| Arc::from(*d)).collect(), join)
    }

    #[test]
    fn no_dependencies_means_always_ready() {
        assert!(controller(&[], JoinKind::All).is_ready());
        assert!(controller(&[], JoinKind::Any).is_ready());
    }

    #[test]
    fn all_join_waits_for_everyone() {
        let c = controller(&["b", "c"], JoinKind::All);
        assert!(!c.is_ready());
        c.note_outcome(0, true, Value::from(1i64));
        assert!(!c.is_ready());
        c.note_outcome(1, true, Value::from(2i64));
        assert!(c.is_ready());
        let inputs = c.inputs();
        assert_eq!(inputs["b"].as_i64(), Some(1));
        assert_eq!(inputs["c"].as_i64(), Some(2));
    }

    #[test]
    fn all_join_never_starts_after_a_failure() {
        let c = controller(&["b", "c"], JoinKind::All);
        c.note_outcome(0, false, Value::Null);
        c.note_outcome(1, true, Value::Null);
        assert!(!c.is_ready());
        // Failed outputs are not offered as inputs.
        assert_eq!(c.inputs().keys().collect::<Vec<_>>(), ["c"]);
    }

    #[test]
    fn any_join_fires_on_first_success() {
        let c = controller(&["b", "c"], JoinKind::Any);
        c.note_outcome(0, false, Value::Null);
        assert!(!c.is_ready(), "c might still succeed");
        c.note_outcome(1, true, Value::from(5i64));
        assert!(c.is_ready());
    }

    #[test]
    fn any_join_never_starts_when_all_fail() {
        let c = controller(&["b", "c"], JoinKind::Any);
        c.note_outcome(0, false, Value::Null);
        c.note_outcome(1, false, Value::Null);
        assert!(!c.is_ready());
    }

    #[test]
    fn redelivered_notifications_keep_the_first() {
        let c = controller(&["b"], JoinKind::All);
        c.note_outcome(0, true, Value::from(1i64));
        c.note_outcome(0, false, Value::from(2i64));
        assert!(c.is_ready());
        assert_eq!(c.inputs()["b"].as_i64(), Some(1));
    }

    #[test]
    fn dependency_watch_translates_outcome_signals() {
        use activity_service::Action;
        let controllers: Arc<[TaskController]> = [controller(&["b"], JoinKind::All)].into();
        let c = &controllers[0];
        let watch = DependencyWatch::new(Arc::clone(&controllers), 0, 0);
        let mut payload = orb::ValueMap::new();
        payload.insert("success".into(), Value::Bool(true));
        payload.insert("result".into(), Value::from("out"));
        let signal = Signal::new(SIG_OUTCOME, "Completed").with_data(Value::Map(payload));
        let ack = watch.process_signal(&signal).unwrap();
        assert_eq!(ack.name(), SIG_OUTCOME_ACK);
        assert!(c.is_ready());
        assert!(watch.process_signal(&Signal::new("bogus", "x")).is_err());
        let malformed = Signal::new(SIG_OUTCOME, "x").with_data(Value::from(1i64));
        assert!(watch.process_signal(&malformed).is_err());
    }
}
