//! The business-agreement protocol: the long-running, compensation-based
//! counterpart to [`crate::acid`] (the WS-BusinessActivity shape, which the
//! paper's framework — via WSCF — was designed to host alongside BTP).
//!
//! Participants do their work *immediately* (no prepared state); the
//! coordinator later tells each either `close` (the agreement succeeded;
//! discard compensation data) or `compensate` (undo). This is §4.2's
//! compensation idea packaged as a reusable coordination protocol.

use std::borrow::Cow;
use std::sync::Arc;

use activity_service::signal_set::{AfterResponse, NextSignal, SignalSet};
use activity_service::{ActionError, Activity, CompletionStatus, Outcome, Signal};
use orb::Value;
use parking_lot::Mutex;

use crate::error::WscfError;

/// Conventional name of the business-agreement signal set.
pub const BUSINESS_AGREEMENT_SET: &str = "BusinessAgreementSignalSet";

/// Signal name: the agreement succeeded; participants may discard their
/// compensation information.
pub const SIG_CLOSE: &str = "close";
/// Signal name: the agreement failed; participants must undo their work.
pub const SIG_COMPENSATE: &str = "compensate";

/// A participant in a business agreement.
pub trait BusinessParticipant: Send + Sync {
    /// The agreement succeeded; drop compensation data.
    ///
    /// # Errors
    ///
    /// Reported in the collated outcome.
    fn close(&self) -> Result<(), String>;

    /// The agreement failed; undo the completed work. Must be idempotent.
    ///
    /// # Errors
    ///
    /// Reported in the collated outcome (a compensation failure is a
    /// serious, operator-visible event).
    fn compensate(&self) -> Result<(), String>;

    /// Diagnostic name.
    fn name(&self) -> &str;
}

struct BusinessParticipantAction {
    participant: Arc<dyn BusinessParticipant>,
}

impl activity_service::Action for BusinessParticipantAction {
    fn process_signal(&self, signal: &Signal) -> Result<Outcome, ActionError> {
        let result = match signal.name() {
            SIG_CLOSE => self.participant.close(),
            SIG_COMPENSATE => self.participant.compensate(),
            other => return Err(ActionError::new(format!("unexpected signal {other:?}"))),
        };
        match result {
            Ok(()) => Ok(Outcome::done()),
            Err(e) => Ok(Outcome::from_error(e)),
        }
    }

    fn name(&self) -> &str {
        self.participant.name()
    }
}

/// The agreement's completion protocol: one `close` or `compensate`
/// broadcast, direction chosen by the completion status.
#[derive(Debug, Default)]
pub struct BusinessAgreementSignalSet {
    sent: bool,
    failures: usize,
    completion: CompletionStatus,
}

impl BusinessAgreementSignalSet {
    /// A fresh protocol instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SignalSet for BusinessAgreementSignalSet {
    fn signal_set_name(&self) -> &str {
        BUSINESS_AGREEMENT_SET
    }

    fn shared_signal_set_name(&self) -> Cow<'static, str> {
        Cow::Borrowed(BUSINESS_AGREEMENT_SET)
    }

    fn get_signal(&mut self) -> NextSignal {
        if self.sent {
            return NextSignal::End;
        }
        self.sent = true;
        let name = if self.completion.is_failure() { SIG_COMPENSATE } else { SIG_CLOSE };
        NextSignal::LastSignal(Signal::new(name, BUSINESS_AGREEMENT_SET))
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

/// A business agreement bound to one activity.
pub struct BusinessAgreement {
    activity: Activity,
    closed: Mutex<Option<bool>>, // None = open, Some(true) = closed, Some(false) = compensated
}

impl std::fmt::Debug for BusinessAgreement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BusinessAgreement")
            .field("activity", &self.activity.id())
            .field("closed", &*self.closed.lock())
            .finish()
    }
}

impl BusinessAgreement {
    /// Bind an agreement to `activity`.
    ///
    /// # Errors
    ///
    /// Propagates coordinator failures.
    pub fn new(activity: Activity) -> Result<Arc<Self>, WscfError> {
        activity
            .coordinator()
            .add_signal_set(Box::new(BusinessAgreementSignalSet::new()))?;
        activity.set_completion_signal_set(BUSINESS_AGREEMENT_SET);
        Ok(Arc::new(BusinessAgreement { activity, closed: Mutex::new(None) }))
    }

    /// The bound activity.
    pub fn activity(&self) -> &Activity {
        &self.activity
    }

    /// Enrol a participant (its forward work is already done or happens
    /// independently; the agreement only coordinates the ending).
    ///
    /// # Errors
    ///
    /// [`WscfError::InvalidState`] once ended.
    pub fn enroll(&self, participant: Arc<dyn BusinessParticipant>) -> Result<(), WscfError> {
        if self.closed.lock().is_some() {
            return Err(WscfError::InvalidState {
                operation: "enroll".into(),
                state: "ended".into(),
            });
        }
        self.activity.coordinator().register_action(
            BUSINESS_AGREEMENT_SET,
            Arc::new(BusinessParticipantAction { participant }) as _,
        );
        Ok(())
    }

    /// End the agreement successfully: `close` to everyone.
    ///
    /// # Errors
    ///
    /// [`WscfError::Aborted`] when any participant's close failed.
    pub fn close(&self) -> Result<(), WscfError> {
        self.end(CompletionStatus::Success, true)
    }

    /// End the agreement in failure: `compensate` to everyone.
    ///
    /// # Errors
    ///
    /// [`WscfError::Aborted`] when any compensation failed (an
    /// operator-visible condition).
    pub fn compensate(&self) -> Result<(), WscfError> {
        self.end(CompletionStatus::FailOnly, false)
    }

    fn end(&self, status: CompletionStatus, closing: bool) -> Result<(), WscfError> {
        {
            let closed = self.closed.lock();
            if closed.is_some() {
                return Err(WscfError::InvalidState {
                    operation: if closing { "close".into() } else { "compensate".into() },
                    state: "ended".into(),
                });
            }
        }
        self.activity.set_completion_status(status)?;
        let outcome = self.activity.complete()?;
        *self.closed.lock() = Some(closing);
        if outcome.is_negative() {
            Err(WscfError::Aborted(format!(
                "{} participant(s) failed to {}",
                outcome.data().as_u64().unwrap_or(0),
                if closing { "close" } else { "compensate" },
            )))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orb::SimClock;
    use std::sync::atomic::{AtomicU32, Ordering};

    struct Hotel {
        name: String,
        closes: AtomicU32,
        compensations: AtomicU32,
        fail_compensation: bool,
    }

    impl Hotel {
        fn new(name: &str) -> Arc<Self> {
            Arc::new(Hotel {
                name: name.into(),
                closes: AtomicU32::new(0),
                compensations: AtomicU32::new(0),
                fail_compensation: false,
            })
        }
    }

    impl BusinessParticipant for Hotel {
        fn close(&self) -> Result<(), String> {
            self.closes.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
        fn compensate(&self) -> Result<(), String> {
            if self.fail_compensation {
                return Err("records lost".into());
            }
            self.compensations.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
        fn name(&self) -> &str {
            &self.name
        }
    }

    fn agreement_with(hotels: &[Arc<Hotel>]) -> Arc<BusinessAgreement> {
        let activity = Activity::new_root("agreement", SimClock::new());
        let ba = BusinessAgreement::new(activity).unwrap();
        for h in hotels {
            ba.enroll(Arc::clone(h) as Arc<dyn BusinessParticipant>).unwrap();
        }
        ba
    }

    #[test]
    fn close_reaches_everyone() {
        let a = Hotel::new("a");
        let b = Hotel::new("b");
        let ba = agreement_with(&[Arc::clone(&a), Arc::clone(&b)]);
        ba.close().unwrap();
        assert_eq!(a.closes.load(Ordering::SeqCst), 1);
        assert_eq!(b.closes.load(Ordering::SeqCst), 1);
        assert_eq!(a.compensations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn compensate_reaches_everyone() {
        let a = Hotel::new("a");
        let b = Hotel::new("b");
        let ba = agreement_with(&[Arc::clone(&a), Arc::clone(&b)]);
        ba.compensate().unwrap();
        assert_eq!(a.compensations.load(Ordering::SeqCst), 1);
        assert_eq!(b.compensations.load(Ordering::SeqCst), 1);
        assert_eq!(a.closes.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn failed_compensation_is_loud() {
        let broken = Arc::new(Hotel {
            name: "broken".into(),
            closes: AtomicU32::new(0),
            compensations: AtomicU32::new(0),
            fail_compensation: true,
        });
        let fine = Hotel::new("fine");
        let ba = agreement_with(&[broken, Arc::clone(&fine)]);
        let err = ba.compensate().unwrap_err();
        assert!(matches!(err, WscfError::Aborted(_)));
        // The healthy participant still compensated.
        assert_eq!(fine.compensations.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn agreement_ends_exactly_once() {
        let ba = agreement_with(&[Hotel::new("a")]);
        ba.close().unwrap();
        assert!(matches!(ba.close(), Err(WscfError::InvalidState { .. })));
        assert!(matches!(ba.compensate(), Err(WscfError::InvalidState { .. })));
        assert!(matches!(ba.enroll(Hotel::new("late") as _), Err(WscfError::InvalidState { .. })));
    }
}
