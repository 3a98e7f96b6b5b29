//! Workflow coordination signals — §4.4 and fig. 10 of the paper.
//!
//! "The signal set required to coordinate a business activity contains four
//! signals, `start`, `start_ack`, `outcome` and `outcome_ack`." A parent
//! activity starts children by sending `start` through a **TaskStart**
//! SignalSet to the children's registered Actions (which acknowledge with
//! `start_ack` outcomes); a completing child notifies the parent's
//! registered Action with `outcome` through its **Completed** SignalSet
//! (acknowledged with `outcome_ack`).

use std::borrow::Cow;
use std::sync::Arc;

use activity_service::signal_set::{AfterResponse, NextSignal, SignalSet};
use activity_service::{ActionError, CompletionStatus, Outcome, Signal};
use orb::{Value, ValueMap};
use parking_lot::Mutex;

use crate::common::{SIG_OUTCOME, SIG_OUTCOME_ACK, SIG_START, SIG_START_ACK};

/// Name of the parent-side set that launches children.
pub const TASK_START_SET: &str = "TaskStartSignalSet";
/// Name of the child-side set that reports completion to the parent.
pub const COMPLETED_SET: &str = "CompletedSignalSet";

/// Parent side of fig. 10: broadcasts one `start` signal (with launch
/// parameters) and counts `start_ack` responses.
#[derive(Debug)]
pub struct TaskStartSignalSet {
    params: Value,
    sent: bool,
    acks: usize,
    failures: usize,
    completion: CompletionStatus,
}

impl TaskStartSignalSet {
    /// A set whose `start` signal carries `params` ("the
    /// application_specific_data part contains the information required to
    /// parameterise the starting of the activity").
    pub fn new(params: Value) -> Self {
        TaskStartSignalSet {
            params,
            sent: false,
            acks: 0,
            failures: 0,
            completion: CompletionStatus::Success,
        }
    }
}

impl SignalSet for TaskStartSignalSet {
    fn signal_set_name(&self) -> &str {
        TASK_START_SET
    }

    fn shared_signal_set_name(&self) -> Cow<'static, str> {
        Cow::Borrowed(TASK_START_SET)
    }

    fn get_signal(&mut self) -> NextSignal {
        if self.sent {
            return NextSignal::End;
        }
        self.sent = true;
        NextSignal::LastSignal(
            Signal::new(SIG_START, TASK_START_SET).with_data(self.params.clone()),
        )
    }

    fn set_response(&mut self, response: &Outcome) -> AfterResponse {
        if response.name() == SIG_START_ACK {
            self.acks += 1;
        } else {
            self.failures += 1;
        }
        AfterResponse::Continue
    }

    fn get_outcome(&mut self) -> Outcome {
        if self.failures == 0 {
            Outcome::done().with_data(Value::U64(self.acks as u64))
        } else {
            Outcome::abort().with_data(Value::U64(self.failures as u64))
        }
    }

    fn set_completion_status(&mut self, status: CompletionStatus) {
        self.completion = status;
    }

    fn completion_status(&self) -> CompletionStatus {
        self.completion
    }
}

/// Child side of fig. 10: on completion, broadcasts one `outcome` signal
/// whose payload reports the task's success and result, and counts
/// `outcome_ack` responses.
#[derive(Debug)]
pub struct CompletedSignalSet {
    result: Value,
    sent: bool,
    acks: usize,
    completion: CompletionStatus,
}

impl CompletedSignalSet {
    /// A set whose `outcome` signal will carry `result` alongside the
    /// child's completion status.
    pub fn new(result: Value) -> Self {
        CompletedSignalSet {
            result,
            sent: false,
            acks: 0,
            completion: CompletionStatus::Success,
        }
    }
}

impl SignalSet for CompletedSignalSet {
    fn signal_set_name(&self) -> &str {
        COMPLETED_SET
    }

    fn shared_signal_set_name(&self) -> Cow<'static, str> {
        Cow::Borrowed(COMPLETED_SET)
    }

    fn get_signal(&mut self) -> NextSignal {
        if self.sent {
            return NextSignal::End;
        }
        self.sent = true;
        let mut payload = ValueMap::new();
        payload.insert("success".into(), Value::Bool(!self.completion.is_failure()));
        payload.insert("result".into(), self.result.clone());
        NextSignal::LastSignal(
            Signal::new(SIG_OUTCOME, COMPLETED_SET).with_data(Value::Map(payload)),
        )
    }

    fn set_response(&mut self, response: &Outcome) -> AfterResponse {
        if response.name() == SIG_OUTCOME_ACK {
            self.acks += 1;
        }
        AfterResponse::Continue
    }

    fn get_outcome(&mut self) -> Outcome {
        Outcome::done().with_data(Value::U64(self.acks as u64))
    }

    fn set_completion_status(&mut self, status: CompletionStatus) {
        self.completion = status;
    }

    fn completion_status(&self) -> CompletionStatus {
        self.completion
    }
}

/// Body signature of a [`TaskAction`]: launch parameters in, task result
/// (or failure reason) out.
pub type TaskBody = Box<dyn Fn(&Value) -> Result<Value, String> + Send + Sync>;

/// Child-side Action launched by a `start` signal: runs the task body and
/// acknowledges with `start_ack`.
pub struct TaskAction {
    name: String,
    body: TaskBody,
    launched: Mutex<Option<Result<Value, String>>>,
}

impl TaskAction {
    /// A task that runs `body` with the `start` signal's parameters.
    pub fn new<F>(name: impl Into<String>, body: F) -> Arc<Self>
    where
        F: Fn(&Value) -> Result<Value, String> + Send + Sync + 'static,
    {
        Arc::new(TaskAction { name: name.into(), body: Box::new(body), launched: Mutex::new(None) })
    }

    /// The task's recorded result, once started.
    pub fn result(&self) -> Option<Result<Value, String>> {
        self.launched.lock().clone()
    }
}

impl activity_service::Action for TaskAction {
    fn process_signal(&self, signal: &Signal) -> Result<Outcome, ActionError> {
        if signal.name() != SIG_START {
            return Err(ActionError::new(format!("unexpected signal {:?}", signal.name())));
        }
        let mut launched = self.launched.lock();
        if launched.is_none() {
            // Idempotent under redelivery: the body runs once.
            *launched = Some((self.body)(signal.data()));
        }
        match launched.as_ref().expect("just set") {
            Ok(_) => Ok(Outcome::new(SIG_START_ACK)),
            Err(e) => Ok(Outcome::from_error(e.clone())),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Parent-side Action that receives a child's `outcome` signal, records it,
/// and acknowledges with `outcome_ack`.
pub struct OutcomeCollector {
    name: String,
    received: Mutex<Vec<(bool, Value)>>,
}

impl OutcomeCollector {
    /// A collector named `name` (typically after the child it watches).
    pub fn new(name: impl Into<String>) -> Arc<Self> {
        Arc::new(OutcomeCollector { name: name.into(), received: Mutex::new(Vec::new()) })
    }

    /// Outcomes received so far as `(success, result)` pairs.
    pub fn received(&self) -> Vec<(bool, Value)> {
        self.received.lock().clone()
    }
}

impl activity_service::Action for OutcomeCollector {
    fn process_signal(&self, signal: &Signal) -> Result<Outcome, ActionError> {
        if signal.name() != SIG_OUTCOME {
            return Err(ActionError::new(format!("unexpected signal {:?}", signal.name())));
        }
        let payload = signal
            .data()
            .as_map()
            .ok_or_else(|| ActionError::new("outcome signal payload must be a map"))?;
        let success = payload.get("success").and_then(Value::as_bool).unwrap_or(false);
        let result = payload.get("result").cloned().unwrap_or(Value::Null);
        self.received.lock().push((success, result));
        Ok(Outcome::new(SIG_OUTCOME_ACK))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use activity_service::Activity;
    use orb::{Env, SimClock};
    use telemetry::{FlightRecorder, ProtocolEvent, RecordKind};

    #[test]
    fn fig10_start_and_outcome_exchange() {
        // Activity `a` coordinates parallel b, c, then d (fig. 10). This
        // test reproduces the message exchange for the b∥c stage plus d.
        let recorder = FlightRecorder::new("test", usize::MAX);
        let env = Env { recorder: Some(recorder.clone()), ..Env::default() };
        let a = Activity::new_root("a", env.wired());

        // Stage 1: one TaskStart set that b and c both register with
        // ("t2 and t3 would register with the same SignalSet since they
        // need to be started together").
        a.coordinator()
            .add_signal_set(Box::new(TaskStartSignalSet::new(Value::from("order-17"))))
            .unwrap();
        let b_task = TaskAction::new("b", |params: &Value| {
            assert_eq!(params.as_str(), Some("order-17"));
            Ok(Value::from("b-result"))
        });
        let c_task = TaskAction::new("c", |_p: &Value| Ok(Value::from("c-result")));
        a.coordinator().register_action(TASK_START_SET, b_task.clone() as _);
        a.coordinator().register_action(TASK_START_SET, c_task.clone() as _);

        let start_outcome = a.signal(TASK_START_SET).unwrap();
        assert!(start_outcome.is_done());
        assert_eq!(start_outcome.data().as_u64(), Some(2), "two start_acks");
        assert_eq!(b_task.result().unwrap().unwrap().as_str(), Some("b-result"));

        // Children report back: each child activity drives its Completed
        // set at the parent's registered collector.
        let b = a.begin_child("b").unwrap();
        b.coordinator()
            .add_signal_set(Box::new(CompletedSignalSet::new(Value::from("b-result"))))
            .unwrap();
        b.set_completion_signal_set(COMPLETED_SET);
        let collector_b = OutcomeCollector::new("a-watches-b");
        b.coordinator().register_action(COMPLETED_SET, collector_b.clone() as _);
        b.complete().unwrap();
        assert_eq!(collector_b.received(), vec![(true, Value::from("b-result"))]);

        // The fig. 5 steps of `a` itself — `b` ran its Completed set under
        // the same recorder — show the fig. 10 start-stage exchange.
        let events: Vec<ProtocolEvent> = recorder
            .steps()
            .into_iter()
            .filter(|(origin, step)| {
                *origin == a.id().origin() && step.kind() == RecordKind::Trace
            })
            .map(|(_, step)| step)
            .collect();
        let start = |action: &str| ProtocolEvent::Transmit {
            set: TASK_START_SET.into(),
            signal: SIG_START.into(),
            action: action.into(),
        };
        let ack = || ProtocolEvent::SetResponse {
            set: TASK_START_SET.into(),
            outcome: SIG_START_ACK.into(),
        };
        assert_eq!(
            events,
            vec![
                ProtocolEvent::GetSignal { set: TASK_START_SET.into() },
                start("b"),
                ack(),
                start("c"),
                ack(),
                ProtocolEvent::GetOutcome { set: TASK_START_SET.into(), outcome: "done".into() },
            ]
        );
    }

    #[test]
    fn failed_task_reports_negative_start_outcome() {
        let a = Activity::new_root("a", SimClock::new());
        a.coordinator()
            .add_signal_set(Box::new(TaskStartSignalSet::new(Value::Null)))
            .unwrap();
        let bad = TaskAction::new("bad", |_p: &Value| Err("cannot start".into()));
        a.coordinator().register_action(TASK_START_SET, bad as _);
        let outcome = a.signal(TASK_START_SET).unwrap();
        assert!(outcome.is_negative());
    }

    #[test]
    fn failed_child_reports_failure_outcome_to_parent() {
        let a = Activity::new_root("a", SimClock::new());
        let child = a.begin_child("t4").unwrap();
        child
            .coordinator()
            .add_signal_set(Box::new(CompletedSignalSet::new(Value::Null)))
            .unwrap();
        child.set_completion_signal_set(COMPLETED_SET);
        let collector = OutcomeCollector::new("a-watches-t4");
        child.coordinator().register_action(COMPLETED_SET, collector.clone() as _);
        child.complete_with_status(CompletionStatus::Fail).unwrap();
        assert_eq!(collector.received(), vec![(false, Value::Null)]);
    }

    #[test]
    fn task_action_is_idempotent() {
        use activity_service::Action;
        let runs = Arc::new(Mutex::new(0u32));
        let runs2 = Arc::clone(&runs);
        let task = TaskAction::new("t", move |_p: &Value| {
            *runs2.lock() += 1;
            Ok(Value::Null)
        });
        let start = Signal::new(SIG_START, TASK_START_SET);
        task.process_signal(&start).unwrap();
        task.process_signal(&start).unwrap();
        assert_eq!(*runs.lock(), 1);
        assert!(task.process_signal(&Signal::new("bogus", TASK_START_SET)).is_err());
    }

    #[test]
    fn outcome_collector_rejects_malformed_payloads() {
        use activity_service::Action;
        let collector = OutcomeCollector::new("c");
        let bad = Signal::new(SIG_OUTCOME, COMPLETED_SET).with_data(Value::from(1i64));
        assert!(collector.process_signal(&bad).is_err());
        assert!(collector.process_signal(&Signal::new("bogus", COMPLETED_SET)).is_err());
    }
}
