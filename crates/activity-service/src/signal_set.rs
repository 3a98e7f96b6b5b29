//! SignalSets: the pluggable protocol engines (§3.2.3 and fig. 7).
//!
//! Mirrors the paper's IDL:
//!
//! ```idl
//! interface SignalSet {
//!     readonly attribute string signal_set_name;
//!     Signal get_signal (inout boolean lastSignal);
//!     Outcome get_outcome () raises(SignalSetActive);
//!     boolean set_response (in Outcome response, out boolean nextSignal)
//!                           raises (SignalSetInactive);
//!     void set_completion_status (in CompletionStatus cs);
//!     CompletionStatus get_completion_status ();
//! };
//! ```
//!
//! "The intelligence about which Signal to send to an Action is hidden
//! within a SignalSet and may be as complex or as simple as is required."

use std::borrow::Cow;

use crate::completion::CompletionStatus;
use crate::error::ActivityError;
use crate::outcome::Outcome;
use crate::signal::Signal;

/// What a [`SignalSet`] produces when asked for a signal.
#[derive(Debug, Clone, PartialEq)]
pub enum NextSignal {
    /// Send this signal to every registered action; more signals may follow.
    Signal(Signal),
    /// Send this signal; it is the set's last one.
    LastSignal(Signal),
    /// The set has nothing (more) to send.
    End,
}

/// How the set wants the coordinator to proceed after one action's response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AfterResponse {
    /// Keep delivering the current signal to the remaining actions.
    Continue,
    /// Abandon the current signal and request a new one immediately (e.g. a
    /// rollback vote arrived and the protocol must switch course).
    RequestNext,
}

/// A protocol engine: generates the Signals the coordinator distributes and
/// digests the Outcomes that come back.
///
/// Implementations are driven by exactly one coordinator run and must not be
/// reused after reaching their End state (fig. 7). They receive `&mut self`
/// because they are inherently stateful; the coordinator provides the
/// necessary synchronisation.
pub trait SignalSet: Send {
    /// The set's name — what Actions register interest under.
    fn signal_set_name(&self) -> &str;

    /// The name as the static-or-owned key the coordinator files the set
    /// under. A set named by a constant overrides this to hand the constant
    /// out, so associating it copies nothing.
    fn shared_signal_set_name(&self) -> Cow<'static, str> {
        Cow::Owned(self.signal_set_name().to_owned())
    }

    /// Produce the next signal (fig. 7: `Waiting`/`Get Signal` → `Get
    /// Signal`), or [`NextSignal::End`].
    fn get_signal(&mut self) -> NextSignal;

    /// Digest one action's response to the most recent signal.
    fn set_response(&mut self, response: &Outcome) -> AfterResponse;

    /// The collated outcome of the whole run. Only meaningful once the set
    /// has ended; the coordinator enforces this.
    fn get_outcome(&mut self) -> Outcome;

    /// Tell the set what completion status the activity is driving towards
    /// ("which SignalSet is used ... is indicated by an appropriate
    /// CompletionStatus value").
    fn set_completion_status(&mut self, status: CompletionStatus);

    /// The completion status previously set (default `Success`).
    fn completion_status(&self) -> CompletionStatus;
}

/// The fig. 7 state machine, enforced at runtime by the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SignalSetState {
    /// Created, not yet asked for a signal.
    #[default]
    Waiting,
    /// Producing signals.
    GetSignal,
    /// Finished; may not produce further signals and will not be reused.
    End,
}

impl SignalSetState {
    /// Apply the "coordinator asked for a signal" event.
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::SignalSetInactive`] when the set already
    /// ended.
    pub fn on_get_signal(self, set_name: &str, produced_end: bool) -> Result<Self, ActivityError> {
        match self {
            SignalSetState::Waiting | SignalSetState::GetSignal => {
                Ok(if produced_end { SignalSetState::End } else { SignalSetState::GetSignal })
            }
            SignalSetState::End => Err(ActivityError::SignalSetInactive(set_name.to_owned())),
        }
    }

    /// Apply the "all actions have seen the last signal" event.
    pub fn on_last_signal_delivered(self) -> Self {
        SignalSetState::End
    }

    /// Check that the outcome may be read.
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::SignalSetActive`] while signals are still
    /// being produced.
    pub fn check_outcome_readable(self, set_name: &str) -> Result<(), ActivityError> {
        match self {
            SignalSetState::End => Ok(()),
            _ => Err(ActivityError::SignalSetActive(set_name.to_owned())),
        }
    }
}

/// The simplest useful [`SignalSet`]: broadcast one fixed signal to every
/// registered action and report `done` unless any action responded
/// negatively.
///
/// Many of the paper's sketches ("the termination of one activity may
/// initiate the start/restart of other activities") need nothing more.
#[derive(Debug)]
pub struct BroadcastSignalSet {
    set_name: String,
    signal: Option<Signal>,
    negative: usize,
    responses: usize,
    completion: CompletionStatus,
}

impl BroadcastSignalSet {
    /// Broadcast `signal_name` (with `data`) under this set's name.
    pub fn new(set_name: impl Into<String>, signal_name: impl Into<String>, data: orb::Value) -> Self {
        let set_name = set_name.into();
        let signal = Signal::new(signal_name.into(), set_name.clone()).with_data(data);
        BroadcastSignalSet {
            set_name,
            signal: Some(signal),
            negative: 0,
            responses: 0,
            completion: CompletionStatus::default(),
        }
    }

    /// Number of responses digested.
    pub fn responses(&self) -> usize {
        self.responses
    }
}

impl SignalSet for BroadcastSignalSet {
    fn signal_set_name(&self) -> &str {
        &self.set_name
    }

    fn get_signal(&mut self) -> NextSignal {
        match self.signal.take() {
            Some(signal) => NextSignal::LastSignal(signal),
            None => NextSignal::End,
        }
    }

    fn set_response(&mut self, response: &Outcome) -> AfterResponse {
        self.responses += 1;
        if response.is_negative() {
            self.negative += 1;
        }
        AfterResponse::Continue
    }

    fn get_outcome(&mut self) -> Outcome {
        if self.negative == 0 {
            Outcome::done().with_data(orb::Value::U64(self.responses as u64))
        } else {
            Outcome::abort().with_data(orb::Value::U64(self.negative as u64))
        }
    }

    fn set_completion_status(&mut self, status: CompletionStatus) {
        self.completion = status;
    }

    fn completion_status(&self) -> CompletionStatus {
        self.completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_machine_follows_fig7() {
        let s = SignalSetState::default();
        assert_eq!(s, SignalSetState::Waiting);
        assert!(s.check_outcome_readable("x").is_err());

        let s = s.on_get_signal("x", false).unwrap();
        assert_eq!(s, SignalSetState::GetSignal);
        assert!(s.check_outcome_readable("x").is_err());
        let s = s.on_get_signal("x", false).unwrap();
        assert_eq!(s, SignalSetState::GetSignal);

        let s = s.on_last_signal_delivered();
        assert_eq!(s, SignalSetState::End);
        assert!(s.check_outcome_readable("x").is_ok());
        assert!(matches!(
            s.on_get_signal("x", false),
            Err(ActivityError::SignalSetInactive(_))
        ));
    }

    #[test]
    fn waiting_straight_to_end_when_no_signals() {
        // Fig. 7 allows Waiting → End for a set with nothing to send.
        let s = SignalSetState::Waiting.on_get_signal("x", true).unwrap();
        assert_eq!(s, SignalSetState::End);
    }

    #[test]
    fn broadcast_set_sends_once_and_collates() {
        let mut set = BroadcastSignalSet::new("Notify", "wake", orb::Value::Null);
        assert_eq!(set.signal_set_name(), "Notify");
        let NextSignal::LastSignal(sig) = set.get_signal() else {
            panic!("expected last signal")
        };
        assert_eq!(sig.name(), "wake");
        assert_eq!(sig.signal_set_name(), "Notify");
        assert_eq!(set.set_response(&Outcome::done()), AfterResponse::Continue);
        assert_eq!(set.set_response(&Outcome::done()), AfterResponse::Continue);
        assert_eq!(set.get_signal(), NextSignal::End);
        let out = set.get_outcome();
        assert!(out.is_done());
        assert_eq!(out.data().as_u64(), Some(2));
    }

    #[test]
    fn broadcast_set_reports_negatives() {
        let mut set = BroadcastSignalSet::new("Notify", "wake", orb::Value::Null);
        let _ = set.get_signal();
        set.set_response(&Outcome::done());
        set.set_response(&Outcome::abort());
        let out = set.get_outcome();
        assert!(out.is_negative());
        assert_eq!(out.data().as_u64(), Some(1));
    }

    #[test]
    fn completion_status_is_stored() {
        let mut set = BroadcastSignalSet::new("n", "s", orb::Value::Null);
        assert_eq!(set.completion_status(), CompletionStatus::Success);
        set.set_completion_status(CompletionStatus::FailOnly);
        assert_eq!(set.completion_status(), CompletionStatus::FailOnly);
    }
}
