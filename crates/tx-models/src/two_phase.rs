//! Two-phase commit as Signals, SignalSets and Actions — the paper's §4.1
//! and fig. 8.
//!
//! "The coordinating activity initiates commit by invoking `get_signal` of
//! its 2PCSignalSet. The Set returns a 'prepare' signal that is sent to the
//! first registered Action, whose response — done, rather than abort in
//! this case — is communicated to the Set; the Set returns the prepare
//! signal again that is then sent to the next registered Action and so
//! forth."

use std::borrow::Cow;
use std::sync::Arc;

use activity_service::signal_set::{AfterResponse, NextSignal, SignalSet};
use activity_service::{ActionError, CompletionStatus, Outcome, Signal};
use orb::Value;
use ots::{Resource, TxError, TxId, Vote};

use crate::common::{
    OUT_COMMITTED, OUT_READ_ONLY, OUT_ROLLED_BACK, SIG_COMMIT, SIG_PREPARE, SIG_ROLLBACK,
};

/// Conventional name of the 2PC signal set.
pub const TWO_PC_SET: &str = "2PCSignalSet";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Nothing sent yet.
    Start,
    /// Prepare sent; waiting for the decision point.
    Voting,
    /// Phase two signal (commit or rollback) emitted.
    Deciding,
}

/// The fig. 8 SignalSet: `prepare` to all actions, then `commit` — or
/// `rollback` as soon as any action votes abort (or errors), or immediately
/// when the activity's completion status is a failure.
#[derive(Debug)]
pub struct TwoPhaseCommitSignalSet {
    phase: Phase,
    votes_done: usize,
    votes_read_only: usize,
    any_abort: bool,
    completion: CompletionStatus,
}

impl Default for TwoPhaseCommitSignalSet {
    fn default() -> Self {
        Self::new()
    }
}

impl TwoPhaseCommitSignalSet {
    /// A fresh protocol instance.
    pub fn new() -> Self {
        TwoPhaseCommitSignalSet {
            phase: Phase::Start,
            votes_done: 0,
            votes_read_only: 0,
            any_abort: false,
            completion: CompletionStatus::Success,
        }
    }

    fn committing(&self) -> bool {
        !self.any_abort && !self.completion.is_failure()
    }
}

impl SignalSet for TwoPhaseCommitSignalSet {
    fn signal_set_name(&self) -> &str {
        TWO_PC_SET
    }

    fn shared_signal_set_name(&self) -> Cow<'static, str> {
        Cow::Borrowed(TWO_PC_SET)
    }

    fn get_signal(&mut self) -> NextSignal {
        match self.phase {
            Phase::Start => {
                if self.completion.is_failure() {
                    // The activity is completing in failure: no vote, just
                    // roll everyone back.
                    self.phase = Phase::Deciding;
                    NextSignal::LastSignal(Signal::new(SIG_ROLLBACK, TWO_PC_SET))
                } else {
                    self.phase = Phase::Voting;
                    NextSignal::Signal(Signal::new(SIG_PREPARE, TWO_PC_SET))
                }
            }
            Phase::Voting => {
                self.phase = Phase::Deciding;
                if self.committing() {
                    NextSignal::LastSignal(Signal::new(SIG_COMMIT, TWO_PC_SET))
                } else {
                    NextSignal::LastSignal(Signal::new(SIG_ROLLBACK, TWO_PC_SET))
                }
            }
            Phase::Deciding => NextSignal::End,
        }
    }

    fn set_response(&mut self, response: &Outcome) -> AfterResponse {
        match self.phase {
            Phase::Voting => {
                if response.name() == OUT_READ_ONLY {
                    self.votes_read_only += 1;
                    AfterResponse::Continue
                } else if response.is_negative() {
                    // An abort vote decides the protocol immediately: stop
                    // delivering prepare, switch to rollback.
                    self.any_abort = true;
                    AfterResponse::RequestNext
                } else {
                    self.votes_done += 1;
                    AfterResponse::Continue
                }
            }
            _ => AfterResponse::Continue,
        }
    }

    fn get_outcome(&mut self) -> Outcome {
        if self.committing() {
            Outcome::new(OUT_COMMITTED).with_data(Value::U64(self.votes_done as u64))
        } else {
            Outcome::new(OUT_ROLLED_BACK)
        }
    }

    fn set_completion_status(&mut self, status: CompletionStatus) {
        self.completion = status;
    }

    fn completion_status(&self) -> CompletionStatus {
        self.completion
    }
}

/// Adapts an OTS [`Resource`] into an [`activity_service::Action`], so an
/// existing two-phase participant can be driven by the signal-based
/// protocol — the mapping the paper uses to show the framework subsumes the
/// classic commit protocol.
pub struct ResourceAction {
    name: String,
    tx: TxId,
    resource: Arc<dyn Resource>,
}

impl ResourceAction {
    /// Drive `resource` on behalf of `tx`.
    pub fn new(name: impl Into<String>, tx: TxId, resource: Arc<dyn Resource>) -> Self {
        ResourceAction { name: name.into(), tx, resource }
    }
}

impl activity_service::Action for ResourceAction {
    fn process_signal(&self, signal: &Signal) -> Result<Outcome, ActionError> {
        match signal.name() {
            SIG_PREPARE => match self.resource.prepare(&self.tx) {
                Ok(Vote::Commit) => Ok(Outcome::done()),
                Ok(Vote::ReadOnly) => Ok(Outcome::new(OUT_READ_ONLY)),
                Ok(Vote::Rollback) => Ok(Outcome::abort()),
                Err(e) => Err(ActionError::new(e.to_string())),
            },
            SIG_COMMIT => match self.resource.commit(&self.tx) {
                Ok(()) => Ok(Outcome::done()),
                Err(TxError::Heuristic { detail, .. }) => {
                    Ok(Outcome::from_error(format!("heuristic: {detail}")))
                }
                Err(e) => Err(ActionError::new(e.to_string())),
            },
            SIG_ROLLBACK => match self.resource.rollback(&self.tx) {
                Ok(()) => Ok(Outcome::done()),
                Err(e) => Err(ActionError::new(e.to_string())),
            },
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
    use activity_service::{Activity, FnAction};
    use orb::{Env, SimClock};
    use ots::TransactionalKv;
    use telemetry::{FlightRecorder, ProtocolEvent, RecordKind};

    /// An activity driven by the 2PC set, and the recorder keeping its steps.
    fn activity_with_2pc() -> (Activity, FlightRecorder) {
        let recorder = FlightRecorder::new("test", usize::MAX);
        let env = Env { recorder: Some(recorder.clone()), ..Env::default() };
        let a = Activity::new_root("tx", env.wired());
        a.coordinator()
            .add_signal_set(Box::new(TwoPhaseCommitSignalSet::new()))
            .unwrap();
        a.set_completion_signal_set(TWO_PC_SET);
        (a, recorder)
    }

    /// The fig. 5 steps recorded so far.
    fn trace(recorder: &FlightRecorder) -> Vec<ProtocolEvent> {
        let steps = recorder.steps().into_iter().map(|(_, step)| step);
        steps.filter(|step| step.kind() == RecordKind::Trace).collect()
    }

    #[test]
    fn commit_path_reproduces_fig8() {
        let (a, recorder) = activity_with_2pc();
        for name in ["action-1", "action-2"] {
            a.coordinator().register_action(
                TWO_PC_SET,
                Arc::new(FnAction::new(name, |_s: &Signal| Ok(Outcome::done()))),
            );
        }
        let outcome = a.complete().unwrap();
        assert_eq!(outcome.name(), OUT_COMMITTED);
        assert_eq!(outcome.data().as_u64(), Some(2));

        // The exact fig. 8 exchange: get_signal, prepare→A1, set_response,
        // prepare→A2, set_response, get_signal, commit→A1, set_response,
        // commit→A2, set_response, get_outcome.
        let transmit = |signal: &str, action: &str| ProtocolEvent::Transmit {
            set: TWO_PC_SET.into(),
            signal: signal.into(),
            action: action.into(),
        };
        let expected = vec![
            ProtocolEvent::GetSignal { set: TWO_PC_SET.into() },
            transmit(SIG_PREPARE, "action-1"),
            ProtocolEvent::SetResponse { set: TWO_PC_SET.into(), outcome: "done".into() },
            transmit(SIG_PREPARE, "action-2"),
            ProtocolEvent::SetResponse { set: TWO_PC_SET.into(), outcome: "done".into() },
            ProtocolEvent::GetSignal { set: TWO_PC_SET.into() },
            transmit(SIG_COMMIT, "action-1"),
            ProtocolEvent::SetResponse { set: TWO_PC_SET.into(), outcome: "done".into() },
            transmit(SIG_COMMIT, "action-2"),
            ProtocolEvent::SetResponse { set: TWO_PC_SET.into(), outcome: "done".into() },
            ProtocolEvent::GetOutcome { set: TWO_PC_SET.into(), outcome: OUT_COMMITTED.into() },
        ];
        let actual = trace(&recorder);
        assert_eq!(actual, expected, "\nactual trace:\n{}", telemetry::render_steps(&actual));
    }

    #[test]
    fn abort_vote_switches_to_rollback() {
        let (a, recorder) = activity_with_2pc();
        a.coordinator().register_action(
            TWO_PC_SET,
            Arc::new(FnAction::new("refuser", |s: &Signal| {
                if s.name() == SIG_PREPARE {
                    Ok(Outcome::abort())
                } else {
                    Ok(Outcome::done())
                }
            })),
        );
        a.coordinator().register_action(
            TWO_PC_SET,
            Arc::new(FnAction::new("witness", |s: &Signal| {
                assert_ne!(s.name(), SIG_COMMIT, "nobody may see commit after an abort vote");
                Ok(Outcome::done())
            })),
        );
        let outcome = a.complete().unwrap();
        assert_eq!(outcome.name(), OUT_ROLLED_BACK);
        // The witness never saw prepare (the protocol switched immediately)
        // but did see rollback.
        let witness_signals: Vec<String> = trace(&recorder)
            .into_iter()
            .filter_map(|e| match e {
                ProtocolEvent::Transmit { signal, action, .. } if action == "witness" => {
                    Some(signal)
                }
                _ => None,
            })
            .collect();
        assert_eq!(witness_signals, vec![SIG_ROLLBACK.to_string()]);
    }

    #[test]
    fn action_error_also_rolls_back() {
        let (a, _trace) = activity_with_2pc();
        a.coordinator().register_action(
            TWO_PC_SET,
            Arc::new(FnAction::new("broken", |s: &Signal| {
                if s.name() == SIG_PREPARE {
                    Err(ActionError::new("disk on fire"))
                } else {
                    Ok(Outcome::done())
                }
            })),
        );
        let outcome = a.complete().unwrap();
        assert_eq!(outcome.name(), OUT_ROLLED_BACK);
    }

    #[test]
    fn failure_completion_skips_prepare() {
        let (a, recorder) = activity_with_2pc();
        a.coordinator().register_action(
            TWO_PC_SET,
            Arc::new(FnAction::new("p", |s: &Signal| {
                assert_eq!(s.name(), SIG_ROLLBACK);
                Ok(Outcome::done())
            })),
        );
        a.set_completion_status(CompletionStatus::FailOnly).unwrap();
        let outcome = a.complete().unwrap();
        assert_eq!(outcome.name(), OUT_ROLLED_BACK);
        let prepares = trace(&recorder)
            .iter()
            .filter(|e| matches!(e, ProtocolEvent::Transmit { signal, .. } if signal == SIG_PREPARE))
            .count();
        assert_eq!(prepares, 0);
    }

    #[test]
    fn read_only_votes_do_not_count_as_commits() {
        let (a, _) = activity_with_2pc();
        a.coordinator().register_action(
            TWO_PC_SET,
            Arc::new(FnAction::new("reader", |s: &Signal| {
                if s.name() == SIG_PREPARE {
                    Ok(Outcome::new(OUT_READ_ONLY))
                } else {
                    Ok(Outcome::done())
                }
            })),
        );
        let outcome = a.complete().unwrap();
        assert_eq!(outcome.name(), OUT_COMMITTED);
        assert_eq!(outcome.data().as_u64(), Some(0), "no full votes");
    }

    #[test]
    fn resource_action_drives_a_real_store() {
        let store = Arc::new(TransactionalKv::new("store"));
        let tx = TxId::top_level(1);
        store.write(&tx, "k", Value::from(7i64)).unwrap();

        let a = Activity::new_root("tx", SimClock::new());
        a.coordinator()
            .add_signal_set(Box::new(TwoPhaseCommitSignalSet::new()))
            .unwrap();
        a.set_completion_signal_set(TWO_PC_SET);
        a.coordinator().register_action(
            TWO_PC_SET,
            Arc::new(ResourceAction::new("store", tx, store.clone() as Arc<dyn Resource>)),
        );
        let outcome = a.complete().unwrap();
        assert_eq!(outcome.name(), OUT_COMMITTED);
        assert_eq!(store.read_committed("k"), Some(Value::from(7i64)));
    }

    #[test]
    fn resource_action_rolls_back_a_real_store_on_failure() {
        let store = Arc::new(TransactionalKv::new("store"));
        let tx = TxId::top_level(2);
        store.write(&tx, "k", Value::from(7i64)).unwrap();

        let a = Activity::new_root("tx", SimClock::new());
        a.coordinator()
            .add_signal_set(Box::new(TwoPhaseCommitSignalSet::new()))
            .unwrap();
        a.set_completion_signal_set(TWO_PC_SET);
        a.coordinator().register_action(
            TWO_PC_SET,
            Arc::new(ResourceAction::new("store", tx, store.clone() as Arc<dyn Resource>)),
        );
        a.set_completion_status(CompletionStatus::Fail).unwrap();
        let outcome = a.complete().unwrap();
        assert_eq!(outcome.name(), OUT_ROLLED_BACK);
        assert_eq!(store.read_committed("k"), None);
    }

    #[test]
    fn resource_action_rejects_unknown_signals() {
        let store = Arc::new(TransactionalKv::new("s"));
        let action = ResourceAction::new("a", TxId::top_level(1), store as Arc<dyn Resource>);
        use activity_service::Action;
        assert!(action.process_signal(&Signal::new("bogus", TWO_PC_SET)).is_err());
    }
}
