//! Reference model of fig. 5 checked-signal processing.
//!
//! The paper's coordinator loop polls a SignalSet for its next signal,
//! transmits it to every registered action, and collates each action's
//! outcome back into the set before the set's overall outcome may be
//! read. The rules transcribed here:
//!
//! 1. a signal is transmitted only while the set is being solicited
//!    (a `get_signal` poll precedes the first transmit);
//! 2. a response is collated only for a signal actually transmitted —
//!    responses never outnumber transmits;
//! 3. the set outcome is read only once every transmitted signal's
//!    response has been collated (checked signals: no outcome over
//!    outstanding responses);
//! 4. once the outcome is read the set is concluded — no further polls,
//!    transmits or responses;
//! 5. **failure propagation**: if any collated response reported a
//!    failure, the set outcome must not read as a success.
//!
//! A set is identified by the activity whose coordinator runs it (the
//! step's origin) and its name (carried by every fig. 5 step), so two
//! coordinators running sets of the same name are two machines. Outcome
//! names are classified by [`conventional_failure`].

use std::collections::BTreeMap;

use telemetry::{Origin, ProtocolEvent};

use super::{SpecViolation, Step};

#[derive(Debug, Clone, Default)]
struct SetState {
    polled: bool,
    transmits: usize,
    responses: usize,
    any_failure_response: bool,
    concluded: bool,
}

/// The machine's state between events, one entry per (activity, set).
#[derive(Debug, Clone, Default)]
pub struct SignalSets {
    sets: BTreeMap<(Origin, String), SetState>,
}

impl SignalSets {
    /// Fresh state with no sets solicited.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn reject(index: usize, detail: String) -> Result<(), SpecViolation> {
        Err(SpecViolation { model: "signal_set", event_index: index, detail })
    }

    /// Advance by one step of `origin`'s coordinator; steps of other
    /// protocols are ignored.
    ///
    /// # Errors
    /// The first rule the event breaks, as a [`SpecViolation`].
    pub fn step(
        &mut self,
        index: usize,
        origin: &Origin,
        event: &ProtocolEvent,
    ) -> Result<(), SpecViolation> {
        let (ProtocolEvent::GetSignal { set }
        | ProtocolEvent::Transmit { set, .. }
        | ProtocolEvent::SetResponse { set, .. }
        | ProtocolEvent::GetOutcome { set, .. }) = event
        else {
            return Ok(());
        };
        let state = self.sets.entry((origin.clone(), set.clone())).or_default();
        match event {
            ProtocolEvent::GetSignal { .. } => {
                if state.concluded {
                    return Self::reject(index, format!("set {set} polled after its outcome was read"));
                }
                state.polled = true;
            }
            ProtocolEvent::Transmit { signal, .. } => {
                if state.concluded {
                    return Self::reject(
                        index,
                        format!("signal {signal} transmitted after set {set}'s outcome was read"),
                    );
                }
                if !state.polled {
                    return Self::reject(
                        index,
                        format!("signal {signal} transmitted before set {set} was polled"),
                    );
                }
                state.transmits += 1;
            }
            ProtocolEvent::SetResponse { outcome, .. } => {
                if state.concluded {
                    return Self::reject(index, format!("response collated after set {set}'s outcome was read"));
                }
                if state.responses >= state.transmits {
                    return Self::reject(
                        index,
                        format!("set {set} collated more responses than signals transmitted"),
                    );
                }
                state.responses += 1;
                state.any_failure_response |= conventional_failure(outcome);
            }
            ProtocolEvent::GetOutcome { outcome, .. } => {
                if state.concluded {
                    return Self::reject(index, format!("set {set}'s outcome read twice"));
                }
                if state.responses < state.transmits {
                    return Self::reject(
                        index,
                        format!(
                            "set {set}'s outcome read with {} of {} responses outstanding",
                            state.transmits - state.responses,
                            state.transmits
                        ),
                    );
                }
                if state.any_failure_response && !conventional_failure(outcome) {
                    return Self::reject(
                        index,
                        format!("set {set} read a success outcome despite a failure response — checked signals must propagate"),
                    );
                }
                state.concluded = true;
            }
            _ => {}
        }
        Ok(())
    }
}

/// Replay a stream, stopping at the first divergence.
#[must_use]
pub fn replay(stream: &[Step]) -> Vec<SpecViolation> {
    let mut machine = SignalSets::new();
    for (index, (origin, event)) in stream.iter().enumerate() {
        if let Err(violation) = machine.step(index, origin, event) {
            return vec![violation];
        }
    }
    Vec::new()
}

/// The conventional outcome classifier: `"abort"`, `"error"`, the
/// fail-ish completion statuses, a rolled-back or cancelled collation and
/// every heuristic outcome count as failures.
#[must_use]
pub fn conventional_failure(outcome: &str) -> bool {
    matches!(outcome, "abort" | "error" | "rolled_back" | "cancelled")
        || outcome.starts_with("fail")
        || outcome.starts_with("heuristic")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(activity: u64, event: ProtocolEvent) -> Step {
        (Origin::Activity(activity), event)
    }
    fn poll(set: &str) -> Step {
        of(1, ProtocolEvent::GetSignal { set: set.into() })
    }
    fn transmit(set: &str) -> Step {
        of(1, ProtocolEvent::Transmit { set: set.into(), signal: "s".into(), action: "a".into() })
    }
    fn outcome_name(failure: bool) -> String {
        if failure { "abort" } else { "done" }.to_owned()
    }
    fn respond(set: &str, failure: bool) -> Step {
        of(1, ProtocolEvent::SetResponse { set: set.into(), outcome: outcome_name(failure) })
    }
    fn outcome(set: &str, failure: bool) -> Step {
        of(1, ProtocolEvent::GetOutcome { set: set.into(), outcome: outcome_name(failure) })
    }

    #[test]
    fn a_checked_round_trip_passes() {
        let t = vec![
            poll("c"),
            transmit("c"),
            respond("c", false),
            poll("c"),
            transmit("c"),
            respond("c", false),
            outcome("c", false),
        ];
        assert!(replay(&t).is_empty());
    }

    #[test]
    fn outcome_over_outstanding_responses_is_rejected() {
        let t = vec![poll("c"), transmit("c"), outcome("c", false)];
        assert!(replay(&t)[0].detail.contains("outstanding"));
    }

    #[test]
    fn failure_response_must_propagate_to_the_outcome() {
        let t = vec![poll("c"), transmit("c"), respond("c", true), outcome("c", false)];
        assert!(replay(&t)[0].detail.contains("propagate"));
    }

    #[test]
    fn failure_outcome_after_failure_response_passes() {
        let t = vec![poll("c"), transmit("c"), respond("c", true), outcome("c", true)];
        assert!(replay(&t).is_empty());
    }

    #[test]
    fn transmit_before_any_poll_is_rejected() {
        assert!(replay(&[transmit("c")])[0].detail.contains("before set"));
    }

    #[test]
    fn activity_after_conclusion_is_rejected() {
        let t = vec![poll("c"), outcome("c", false), transmit("c")];
        assert!(replay(&t)[0].detail.contains("after set"));
    }

    #[test]
    fn the_same_set_name_under_another_activity_is_another_set() {
        // Activity 2 polls and concludes `c` while activity 1's `c` is
        // mid-run; activity 1's run is unaffected, and a transmit by
        // activity 2 after *its* conclusion is the one rejected.
        let poll2 = of(2, ProtocolEvent::GetSignal { set: "c".into() });
        let read2 = of(2, ProtocolEvent::GetOutcome { set: "c".into(), outcome: "done".into() });
        let mut t = vec![poll("c"), transmit("c"), poll2, read2, respond("c", false)];
        t.push(outcome("c", false));
        assert!(replay(&t).is_empty());
        let late = ProtocolEvent::Transmit { set: "c".into(), signal: "s".into(), action: "a".into() };
        t.push(of(2, late));
        let violations = replay(&t);
        assert_eq!(violations[0].event_index, t.len() - 1);
        assert!(violations[0].detail.contains("after set"));
    }
}
