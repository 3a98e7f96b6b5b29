//! The BTP signal sets of figs. 11 and 12.

use std::borrow::Cow;

use activity_service::signal_set::{AfterResponse, NextSignal, SignalSet};
use activity_service::{CompletionStatus, Outcome, Signal};
use orb::Value;
use tx_models::common::{SIG_CANCEL, SIG_CONFIRM, SIG_PREPARE};

use crate::participant::{OUT_CANCELLED, OUT_PREPARED, OUT_RESIGNED};

/// Conventional name of the prepare set (fig. 11).
pub const PREPARE_SET: &str = "PrepareSignalSet";
/// Conventional name of the completion set (fig. 12).
pub const COMPLETE_SET: &str = "CompleteSignalSet";

/// Fig. 11: "a user invokes the prepare phase of the atom protocol by
/// causing the ActivityCoordinator to drive the PrepareSignalSet, which
/// sends the prepare Signal to all Actions."
///
/// Unlike classic 2PC, a cancelled vote does **not** immediately switch the
/// protocol: phase two is user-driven, so the set finishes delivering
/// `prepare` and reports the tally; the decision belongs to the user.
#[derive(Debug, Default)]
pub struct PrepareSignalSet {
    sent: bool,
    prepared: usize,
    cancelled: usize,
    resigned: usize,
    completion: CompletionStatus,
}

impl PrepareSignalSet {
    /// A fresh prepare phase.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SignalSet for PrepareSignalSet {
    fn signal_set_name(&self) -> &str {
        PREPARE_SET
    }

    fn shared_signal_set_name(&self) -> Cow<'static, str> {
        Cow::Borrowed(PREPARE_SET)
    }

    fn get_signal(&mut self) -> NextSignal {
        if self.sent {
            return NextSignal::End;
        }
        self.sent = true;
        NextSignal::LastSignal(Signal::new(SIG_PREPARE, PREPARE_SET))
    }

    fn set_response(&mut self, response: &Outcome) -> AfterResponse {
        match response.name() {
            OUT_PREPARED => self.prepared += 1,
            OUT_RESIGNED => self.resigned += 1,
            // Cancelled votes and action errors both count against.
            _ => self.cancelled += 1,
        }
        AfterResponse::Continue
    }

    fn get_outcome(&mut self) -> Outcome {
        let name = if self.cancelled == 0 { OUT_PREPARED } else { OUT_CANCELLED };
        Outcome::new(name)
            .with_data(Value::List(vec![
                Value::U64(self.prepared as u64),
                Value::U64(self.cancelled as u64),
                Value::U64(self.resigned as u64),
            ]))
    }

    fn set_completion_status(&mut self, status: CompletionStatus) {
        self.completion = status;
    }

    fn completion_status(&self) -> CompletionStatus {
        self.completion
    }
}

/// The user's phase-two instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Deliver `confirm` (fig. 12).
    Confirm,
    /// Deliver `cancel`.
    Cancel,
}

/// Fig. 12: "the CompleteSignalSet can either issue a confirm or a cancel
/// Signal, depending upon how the atom is instructed to terminate",
/// indicated by the completion status (`Success` ⇒ confirm).
#[derive(Debug)]
pub struct CompleteSignalSet {
    sent: bool,
    failures: usize,
    completion: CompletionStatus,
}

impl Default for CompleteSignalSet {
    fn default() -> Self {
        Self::new()
    }
}

impl CompleteSignalSet {
    /// A fresh completion phase; direction is taken from the completion
    /// status the coordinator sets before driving it.
    pub fn new() -> Self {
        CompleteSignalSet { sent: false, failures: 0, completion: CompletionStatus::Success }
    }

    /// The decision this set will deliver, given its completion status.
    pub fn decision(&self) -> Decision {
        if self.completion.is_failure() {
            Decision::Cancel
        } else {
            Decision::Confirm
        }
    }
}

impl SignalSet for CompleteSignalSet {
    fn signal_set_name(&self) -> &str {
        COMPLETE_SET
    }

    fn shared_signal_set_name(&self) -> Cow<'static, str> {
        Cow::Borrowed(COMPLETE_SET)
    }

    fn get_signal(&mut self) -> NextSignal {
        if self.sent {
            return NextSignal::End;
        }
        self.sent = true;
        let name = match self.decision() {
            Decision::Confirm => SIG_CONFIRM,
            Decision::Cancel => SIG_CANCEL,
        };
        NextSignal::LastSignal(Signal::new(name, COMPLETE_SET))
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
            // Contradictions: the decision stands but some participant
            // could not apply it.
            Outcome::from_error(format!("{} contradictions", self.failures))
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
    fn prepare_set_tallies_votes() {
        let mut set = PrepareSignalSet::new();
        assert!(matches!(set.get_signal(), NextSignal::LastSignal(s) if s.name() == SIG_PREPARE));
        set.set_response(&Outcome::new(OUT_PREPARED));
        set.set_response(&Outcome::new(OUT_RESIGNED));
        set.set_response(&Outcome::new(OUT_PREPARED));
        let out = set.get_outcome();
        assert_eq!(out.name(), OUT_PREPARED);
        assert_eq!(
            out.data().as_list().unwrap(),
            &[Value::U64(2), Value::U64(0), Value::U64(1)]
        );
        assert_eq!(set.get_signal(), NextSignal::End);
    }

    #[test]
    fn any_cancellation_cancels_the_tally() {
        let mut set = PrepareSignalSet::new();
        let _ = set.get_signal();
        set.set_response(&Outcome::new(OUT_PREPARED));
        set.set_response(&Outcome::new(OUT_CANCELLED));
        assert_eq!(set.get_outcome().name(), OUT_CANCELLED);
    }

    #[test]
    fn complete_set_direction_follows_completion_status() {
        let mut set = CompleteSignalSet::new();
        assert_eq!(set.decision(), Decision::Confirm);
        assert!(matches!(set.get_signal(), NextSignal::LastSignal(s) if s.name() == SIG_CONFIRM));

        let mut set = CompleteSignalSet::new();
        set.set_completion_status(CompletionStatus::FailOnly);
        assert_eq!(set.decision(), Decision::Cancel);
        assert!(matches!(set.get_signal(), NextSignal::LastSignal(s) if s.name() == SIG_CANCEL));
    }

    #[test]
    fn contradictions_surface_in_the_outcome() {
        let mut set = CompleteSignalSet::new();
        let _ = set.get_signal();
        set.set_response(&Outcome::done());
        set.set_response(&Outcome::from_error("stuck"));
        assert!(set.get_outcome().is_negative());
    }
}
