//! Sagas [Garcia-Molina & Salem 1987] over the Activity Service.
//!
//! A saga is a sequence of steps, each an independent short transaction with
//! a compensating counterpart; when step *k* fails, compensations for steps
//! *k−1 … 1* run in reverse order. The paper cites Sagas as the canonical
//! model whose "compensation Signal may be required to be sent to Actions if
//! a failure has happened" (§3.2.3) — this module is that mapping: a
//! `SagaSignalSet` that emits one targeted `compensate` signal per completed
//! step (newest first) when the saga activity completes in failure.

use std::borrow::Cow;
use std::sync::Arc;

use activity_service::signal_set::{AfterResponse, NextSignal, SignalSet};
use activity_service::{
    ActionError, ActivityService, CompletionStatus, Outcome, Signal,
};
use orb::Value;
use parking_lot::Mutex;

use crate::common::SIG_COMPENSATE;

/// Conventional name of the saga completion signal set.
pub const SAGA_SET: &str = "SagaSignalSet";

/// Signal-data key carrying the targeted step name.
pub const STEP_KEY: &str = "step";

/// Shared record of which steps have committed, in order. The saga driver
/// appends; the [`SagaSignalSet`] (owned by the coordinator) reads.
#[derive(Debug, Clone, Default)]
pub struct CompletedSteps {
    steps: Arc<Mutex<Vec<String>>>,
}

impl CompletedSteps {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Note that `step` committed.
    pub fn push(&self, step: impl Into<String>) {
        self.steps.lock().push(step.into());
    }

    /// Completed steps, oldest first.
    pub fn snapshot(&self) -> Vec<String> {
        self.steps.lock().clone()
    }
}

/// The saga completion protocol: nothing to send on success; on failure one
/// `compensate` signal per completed step, newest first, each targeted via
/// the [`STEP_KEY`] payload entry.
#[derive(Debug)]
pub struct SagaSignalSet {
    completed: CompletedSteps,
    completion: CompletionStatus,
    queue: Option<Vec<String>>,
    failures: usize,
}

impl SagaSignalSet {
    /// A set reading committed steps from `completed`.
    pub fn new(completed: CompletedSteps) -> Self {
        SagaSignalSet {
            completed,
            completion: CompletionStatus::Success,
            queue: None,
            failures: 0,
        }
    }
}

impl SignalSet for SagaSignalSet {
    fn signal_set_name(&self) -> &str {
        SAGA_SET
    }

    fn shared_signal_set_name(&self) -> Cow<'static, str> {
        Cow::Borrowed(SAGA_SET)
    }

    fn get_signal(&mut self) -> NextSignal {
        if !self.completion.is_failure() {
            return NextSignal::End;
        }
        // Completed steps are recorded oldest-first; popping from the back
        // yields them newest-first, the saga compensation order.
        let queue = self.queue.get_or_insert_with(|| self.completed.snapshot());
        match queue.pop() {
            Some(step) => {
                let signal = Signal::new(SIG_COMPENSATE, SAGA_SET)
                    .with_data(Value::Str(step));
                if queue.is_empty() {
                    NextSignal::LastSignal(signal)
                } else {
                    NextSignal::Signal(signal)
                }
            }
            None => NextSignal::End,
        }
    }

    fn set_response(&mut self, response: &Outcome) -> AfterResponse {
        if response.is_negative() {
            self.failures += 1;
        }
        AfterResponse::Continue
    }

    fn get_outcome(&mut self) -> Outcome {
        if self.failures == 0 {
            Outcome::done()
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

/// Compensates exactly one saga step: reacts only to `compensate` signals
/// whose [`STEP_KEY`] names it; idempotent under redelivery.
pub struct StepCompensation {
    step: String,
    undo: Box<dyn Fn() -> Result<(), String> + Send + Sync>,
    ran: Mutex<bool>,
}

impl StepCompensation {
    /// Compensation for `step`.
    pub fn new<F>(step: impl Into<String>, undo: F) -> Arc<Self>
    where
        F: Fn() -> Result<(), String> + Send + Sync + 'static,
    {
        Arc::new(StepCompensation { step: step.into(), undo: Box::new(undo), ran: Mutex::new(false) })
    }

    /// Whether this compensation has executed.
    pub fn ran(&self) -> bool {
        *self.ran.lock()
    }
}

impl activity_service::Action for StepCompensation {
    fn process_signal(&self, signal: &Signal) -> Result<Outcome, ActionError> {
        if signal.name() != SIG_COMPENSATE {
            return Err(ActionError::new(format!("unexpected signal {:?}", signal.name())));
        }
        let target = signal.data().as_str().unwrap_or_default();
        if target != self.step {
            // Broadcast model: not addressed to this step.
            return Ok(Outcome::new("skipped"));
        }
        let mut ran = self.ran.lock();
        if *ran {
            return Ok(Outcome::done());
        }
        *ran = true;
        drop(ran);
        (self.undo)().map_err(ActionError::new)?;
        Ok(Outcome::done())
    }

    fn name(&self) -> &str {
        &self.step
    }
}

/// How a saga finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SagaOutcome {
    /// Every step committed.
    Completed,
    /// `failed_step` failed; all prior steps were compensated in reverse.
    Compensated {
        /// The step whose forward work failed.
        failed_step: String,
    },
}

/// Report of one saga run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SagaReport {
    /// Steps whose forward work committed, oldest first.
    pub committed: Vec<String>,
    /// Terminal outcome.
    pub outcome: SagaOutcome,
}

type StepFn = Box<dyn Fn() -> Result<(), String> + Send + Sync>;

/// A declarative saga: named steps with forward work and compensation.
pub struct Saga {
    name: String,
    steps: Vec<(String, StepFn, Arc<StepCompensation>)>,
}

impl std::fmt::Debug for Saga {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Saga")
            .field("name", &self.name)
            .field("steps", &self.steps.len())
            .finish()
    }
}

impl Saga {
    /// An empty saga named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Saga { name: name.into(), steps: Vec::new() }
    }

    /// Append a step with its forward work and compensation.
    #[must_use]
    pub fn step<F, U>(mut self, name: impl Into<String>, forward: F, undo: U) -> Self
    where
        F: Fn() -> Result<(), String> + Send + Sync + 'static,
        U: Fn() -> Result<(), String> + Send + Sync + 'static,
    {
        let name = name.into();
        let compensation = StepCompensation::new(name.clone(), undo);
        self.steps.push((name, Box::new(forward), compensation));
        self
    }

    /// Number of declared steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the saga has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Run the saga under `service`: one activity per step, with the
    /// framework's saga set driving compensation on failure.
    ///
    /// # Errors
    ///
    /// Propagates activity failures (the saga machinery itself); step
    /// failures are *not* errors — they are reported in the
    /// [`SagaReport::outcome`].
    pub fn run(
        &self,
        service: &ActivityService,
    ) -> Result<SagaReport, activity_service::ActivityError> {
        let saga_activity = service.begin(self.name.clone())?;
        let completed = CompletedSteps::new();
        saga_activity
            .coordinator()
            .add_signal_set(Box::new(SagaSignalSet::new(completed.clone())))?;
        saga_activity.set_completion_signal_set(SAGA_SET);

        let mut failed_step = None;
        for (name, forward, compensation) in &self.steps {
            let step_activity = saga_activity.begin_child(format!("{}/{name}", self.name))?;
            match forward() {
                Ok(()) => {
                    completed.push(name.clone());
                    saga_activity.coordinator().register_action(
                        SAGA_SET,
                        Arc::clone(compensation) as Arc<dyn activity_service::Action>,
                    );
                    step_activity.complete()?;
                }
                Err(_) => {
                    step_activity.complete_with_status(CompletionStatus::FailOnly)?;
                    failed_step = Some(name.clone());
                    break;
                }
            }
        }

        let committed = completed.snapshot();
        let outcome = match failed_step {
            Some(failed_step) => {
                service.complete_with_status(CompletionStatus::FailOnly)?;
                SagaOutcome::Compensated { failed_step }
            }
            None => {
                service.complete()?;
                SagaOutcome::Completed
            }
        };
        Ok(SagaReport { committed, outcome })
    }

    /// The per-step compensation handles (for inspection in tests).
    pub fn compensations(&self) -> Vec<Arc<StepCompensation>> {
        self.steps.iter().map(|(_, _, c)| Arc::clone(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn order_tracker() -> (Arc<Mutex<Vec<String>>>, impl Fn(&str) -> StepFn) {
        let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        let make = move |tag: &str| -> StepFn {
            let log = Arc::clone(&log2);
            let tag = tag.to_owned();
            Box::new(move || {
                log.lock().push(tag.clone());
                Ok(())
            })
        };
        (log, make)
    }

    #[test]
    fn all_steps_commit_no_compensation() {
        let service = ActivityService::new();
        let saga = Saga::new("booking")
            .step("taxi", || Ok(()), || panic!("must not compensate"))
            .step("hotel", || Ok(()), || panic!("must not compensate"));
        let report = saga.run(&service).unwrap();
        assert_eq!(report.outcome, SagaOutcome::Completed);
        assert_eq!(report.committed, vec!["taxi", "hotel"]);
    }

    #[test]
    fn failure_compensates_in_reverse_order() {
        let (log, _) = order_tracker();
        let service = ActivityService::new();
        let mk_undo = |tag: &str| {
            let log = Arc::clone(&log);
            let tag = format!("undo-{tag}");
            move || {
                log.lock().push(tag.clone());
                Ok(())
            }
        };
        let saga = Saga::new("booking")
            .step("taxi", || Ok(()), mk_undo("taxi"))
            .step("restaurant", || Ok(()), mk_undo("restaurant"))
            .step("theatre", || Ok(()), mk_undo("theatre"))
            .step("hotel", || Err("fully booked".into()), mk_undo("hotel"));
        let report = saga.run(&service).unwrap();
        assert_eq!(
            report.outcome,
            SagaOutcome::Compensated { failed_step: "hotel".into() }
        );
        assert_eq!(report.committed, vec!["taxi", "restaurant", "theatre"]);
        assert_eq!(
            *log.lock(),
            vec!["undo-theatre", "undo-restaurant", "undo-taxi"],
            "compensation must run newest-first"
        );
    }

    #[test]
    fn first_step_failure_compensates_nothing() {
        let service = ActivityService::new();
        let count = Arc::new(AtomicUsize::new(0));
        let count2 = Arc::clone(&count);
        let saga = Saga::new("s").step(
            "only",
            || Err("no".into()),
            move || {
                count2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        );
        let report = saga.run(&service).unwrap();
        assert_eq!(report.outcome, SagaOutcome::Compensated { failed_step: "only".into() });
        assert!(report.committed.is_empty());
        assert_eq!(count.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn empty_saga_completes() {
        let service = ActivityService::new();
        let report = Saga::new("empty").run(&service).unwrap();
        assert_eq!(report.outcome, SagaOutcome::Completed);
        assert!(report.committed.is_empty());
        assert!(Saga::new("empty").is_empty());
    }

    #[test]
    fn step_compensation_is_idempotent_and_targeted() {
        use activity_service::Action;
        let count = Arc::new(AtomicUsize::new(0));
        let count2 = Arc::clone(&count);
        let comp = StepCompensation::new("taxi", move || {
            count2.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        let mine = Signal::new(SIG_COMPENSATE, SAGA_SET).with_data(Value::from("taxi"));
        let other = Signal::new(SIG_COMPENSATE, SAGA_SET).with_data(Value::from("hotel"));
        assert_eq!(comp.process_signal(&other).unwrap().name(), "skipped");
        comp.process_signal(&mine).unwrap();
        comp.process_signal(&mine).unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert!(comp.ran());
        assert!(comp.process_signal(&Signal::new("bogus", SAGA_SET)).is_err());
    }

    #[test]
    fn saga_set_emits_nothing_on_success() {
        let completed = CompletedSteps::new();
        completed.push("a");
        let mut set = SagaSignalSet::new(completed);
        assert_eq!(set.get_signal(), NextSignal::End);
    }
}
