//! Executable reference models of the paper's protocols.
//!
//! Each submodule is a small, pure state machine — `step(state, event)`
//! either advances the state or yields a [`SpecViolation`] — transcribing
//! one protocol the paper specifies:
//!
//! * [`twopc`] — presumed-abort two-phase commit (§2, §12 of DESIGN.md):
//!   a commit decision needs a unanimous yes-vote, only the decision is
//!   forced, commit deliveries happen only under a forced decision, and
//!   forget follows delivery.
//! * [`nesting`] — fig. 4 activity nesting: children begin under live
//!   parents and complete before them; nothing completes twice.
//! * [`signal_set`] — fig. 5 checked-signal processing: every transmitted
//!   signal's response is collated before the set outcome is read, and a
//!   failure response must propagate to the outcome.
//! * [`saga`] — §5.1 compensation: committed steps are compensated in
//!   reverse order, and an aborted saga compensates everything.
//!
//! The first three step on the protocols' own account of what they did —
//! the stream of `(origin, step)` pairs a run's flight recorder kept
//! (`telemetry::FlightRecorder::steps`, DESIGN.md §20) — with no
//! transcription in between: there is one 2PC machine per transaction, one
//! signal-set machine per (activity, set) and one nesting tree keyed by
//! activity id, so a stream may interleave any number of transactions and
//! coordinators running sets of the same name. Each machine ignores the
//! steps of the other protocols, and [`replay_all`] audits one stream
//! against all three at once. The saga machine has no emitter beneath it:
//! it takes the committed and compensated step lists a saga reports.
//! The explorer's refinement oracle (oracle #9) calls [`replay_all`] on
//! every execution it enumerates; the first divergence is shrunk to a
//! 1-minimal schedule.
//!
//! The models deliberately know nothing about the implementation: they
//! are transcriptions of the paper, auditable against PAPER.md alone.

pub mod nesting;
pub mod saga;
pub mod signal_set;
pub mod twopc;

use std::fmt;

use telemetry::{Origin, ProtocolEvent};

/// One recorded protocol step with whose it is: what the machines consume.
pub type Step = (Origin, ProtocolEvent);

/// A divergence between an observed execution and a reference model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecViolation {
    /// Which reference model rejected the trace.
    pub model: &'static str,
    /// Index into the stream of the offending step (its origin says whose).
    pub event_index: usize,
    /// What rule the event broke.
    pub detail: String,
}

impl fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] event #{}: {}", self.model, self.event_index, self.detail)
    }
}

/// Replay one stream through the three stream-fed reference models,
/// collecting every divergence. Each model sees the full stream and
/// ignores steps outside its vocabulary, so interleaved protocols audit
/// independently.
#[must_use]
pub fn replay_all(stream: &[Step]) -> Vec<SpecViolation> {
    let mut violations = Vec::new();
    violations.extend(twopc::replay(stream));
    violations.extend(nesting::replay(stream));
    violations.extend(signal_set::replay(stream));
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::VoteKind;

    fn tx(top: u64) -> Origin {
        Origin::Transaction { top, branch: Vec::new() }
    }

    /// One committing transaction over participant `a`.
    fn commit_of(top: u64) -> Vec<Step> {
        let a = || "a".to_owned();
        [
            ProtocolEvent::PrepareSent { participant: a() },
            ProtocolEvent::VoteRecorded { participant: a(), vote: VoteKind::Commit },
            ProtocolEvent::DecisionForced { commit: true },
            ProtocolEvent::OutcomeDelivered { participant: a(), commit: true, ok: true },
            ProtocolEvent::Forgotten { participant: a() },
            ProtocolEvent::TxCompleted { committed: true },
        ]
        .into_iter()
        .map(|step| (tx(top), step))
        .collect()
    }

    /// One activity's completion run of a set named `Completion` with one
    /// action, bracketed by its lifecycle.
    fn completion_of(activity: u64, parent: Option<u64>) -> Vec<Step> {
        let set = || "Completion".to_owned();
        [
            ProtocolEvent::ActivityBegun { activity, name: "a".into(), parent },
            ProtocolEvent::GetSignal { set: set() },
            ProtocolEvent::Transmit { set: set(), signal: "success".into(), action: "x".into() },
            ProtocolEvent::SetResponse { set: set(), outcome: "done".into() },
            ProtocolEvent::GetSignal { set: set() },
            ProtocolEvent::GetOutcome { set: set(), outcome: "done".into() },
            ProtocolEvent::ActivityCompleted { activity, status: "Success", outcome: "done".into() },
        ]
        .into_iter()
        .map(|step| (Origin::Activity(activity), step))
        .collect()
    }

    /// Two transactions and two activities dealt round-robin into one
    /// stream: both transactions use the same participant name and both
    /// coordinators run a set of the same name. `second` is transaction 2.
    fn interleaved(second: Vec<Step>) -> Vec<Step> {
        // The child begins after, and completes before, its parent.
        let mut parent = completion_of(1, None);
        let completed = parent.pop().expect("lifecycle end");
        let mut stream = vec![parent.remove(0)];
        let mut lanes =
            [commit_of(1), completion_of(2, Some(1)), second, parent].map(Vec::into_iter);
        loop {
            let dealt: Vec<Step> = lanes.iter_mut().filter_map(Iterator::next).collect();
            if dealt.is_empty() {
                break;
            }
            stream.extend(dealt);
        }
        stream.push(completed);
        stream
    }

    #[test]
    fn interleaved_transactions_and_same_named_sets_audit_clean_without_renaming() {
        let stream = interleaved(commit_of(2));
        assert_eq!(stream.len(), 2 * 6 + 2 * 7);
        // Transaction 2 votes after transaction 1 forced its decision, and
        // the child's set is polled while the parent's is mid-run.
        assert_eq!(replay_all(&stream), Vec::new());
    }

    #[test]
    fn a_planted_vote_after_decision_is_attributed_to_its_transaction() {
        // Transaction 2 records its vote only after forcing its decision.
        let mut second = commit_of(2);
        second.swap(1, 2);
        let stream = interleaved(second);
        let violations = replay_all(&stream);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].model, "twopc");
        // Its own machine rejects the decision, forced over an outstanding
        // vote; transaction 1, activities and sets are untouched.
        let (origin, step) = &stream[violations[0].event_index];
        assert_eq!(*origin, tx(2));
        assert_eq!(*step, ProtocolEvent::DecisionForced { commit: true });
        assert!(violations[0].detail.contains("outstanding"), "{}", violations[0].detail);
    }

    #[test]
    fn violations_carry_the_offending_event_index() {
        let t = vec![
            (tx(1), ProtocolEvent::PrepareSent { participant: "a".into() }),
            (
                tx(1),
                ProtocolEvent::VoteRecorded { participant: "a".into(), vote: VoteKind::Rollback },
            ),
            (tx(1), ProtocolEvent::DecisionForced { commit: true }),
        ];
        let violations = replay_all(&t);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].model, "twopc");
        assert_eq!(violations[0].event_index, 2);
    }
}
