//! Reference model of presumed-abort two-phase commit.
//!
//! Transcribed from the protocol the paper assumes of its OTS substrate
//! (and DESIGN.md §12's forcing discipline):
//!
//! 1. a participant votes at most once, and only after a prepare was sent
//!    to it;
//! 2. the coordinator forces exactly one decision; a **commit** decision
//!    requires every solicited participant to have voted, every vote to be
//!    a yes, and at least one `Commit` vote (all-read-only transactions
//!    complete without forcing anything — presumed abort);
//! 3. a commit outcome reaches a participant only **after** the decision
//!    was forced (no commit delivery may precede its durable decision),
//!    and only to a participant that voted `Commit`;
//! 4. a rollback outcome never follows a commit decision;
//! 5. `forget` follows outcome delivery — the coordinator drops its
//!    obligation only once the participant has heard;
//! 6. the transaction completes committed only under a commit decision
//!    (or all-read-only unanimity), and never completes aborted after a
//!    commit decision was forced.

use std::collections::BTreeMap;

use telemetry::{Origin, ProtocolEvent, VoteKind};

use super::{SpecViolation, Step};

/// Whether a vote permits a commit decision.
#[must_use]
pub fn is_yes(vote: VoteKind) -> bool {
    matches!(vote, VoteKind::Commit | VoteKind::ReadOnly)
}

/// Where one participant stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Participant {
    /// Prepare sent, vote outstanding.
    Solicited,
    /// Voted; phase two pending.
    Voted(VoteKind),
    /// Outcome delivered, in this direction.
    Delivered { commit: bool },
    /// Obligation dropped.
    Forgotten,
}

/// One transaction's state between events.
#[derive(Debug, Clone, Default)]
pub struct TwoPc {
    participants: BTreeMap<String, Participant>,
    /// `Some(commit)` once a decision was forced.
    decision: Option<bool>,
    any_no_vote: bool,
    any_commit_vote: bool,
    completed: Option<bool>,
}

impl TwoPc {
    /// Fresh, pre-prepare state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn reject(model_index: usize, detail: String) -> Result<(), SpecViolation> {
        Err(SpecViolation { model: "twopc", event_index: model_index, detail })
    }

    /// Advance by one step of this transaction; steps of other protocols
    /// are ignored.
    ///
    /// # Errors
    /// The first rule the event breaks, as a [`SpecViolation`].
    pub fn step(&mut self, index: usize, event: &ProtocolEvent) -> Result<(), SpecViolation> {
        match event {
            ProtocolEvent::PrepareSent { participant } => {
                if self.completed.is_some() {
                    return Self::reject(index, format!("prepare sent to {participant} after the transaction completed"));
                }
                if self.decision.is_some() {
                    return Self::reject(index, format!("prepare sent to {participant} after the decision was forced"));
                }
                if self.participants.contains_key(participant) {
                    return Self::reject(index, format!("{participant} was asked to prepare twice"));
                }
                self.participants.insert(participant.clone(), Participant::Solicited);
            }
            ProtocolEvent::VoteRecorded { participant, vote } => {
                match self.participants.get(participant) {
                    Some(Participant::Solicited) => {}
                    Some(_) => {
                        return Self::reject(index, format!("{participant} voted twice"));
                    }
                    None => {
                        return Self::reject(index, format!("{participant} voted without being asked to prepare"));
                    }
                }
                self.participants.insert(participant.clone(), Participant::Voted(*vote));
                if !is_yes(*vote) {
                    self.any_no_vote = true;
                }
                if *vote == VoteKind::Commit {
                    self.any_commit_vote = true;
                }
            }
            ProtocolEvent::DecisionForced { commit } => {
                if self.completed.is_some() {
                    return Self::reject(index, "decision forced after the transaction completed".into());
                }
                if self.decision.is_some() {
                    return Self::reject(index, "a second decision was forced".into());
                }
                if *commit {
                    if self.any_no_vote {
                        return Self::reject(
                            index,
                            "commit decision forced after a rollback/failed vote — presumed abort forbids it".into(),
                        );
                    }
                    if let Some(outstanding) = self.participants.iter().find_map(|(name, p)| {
                        (*p == Participant::Solicited).then_some(name)
                    }) {
                        return Self::reject(
                            index,
                            format!("commit decision forced while {outstanding}'s vote is outstanding"),
                        );
                    }
                    if !self.any_commit_vote {
                        return Self::reject(
                            index,
                            "commit decision forced with no Commit vote — all-read-only transactions must not force".into(),
                        );
                    }
                }
                self.decision = Some(*commit);
            }
            ProtocolEvent::OutcomeDelivered { participant, commit, .. } => {
                if self.completed.is_some() {
                    return Self::reject(index, format!("outcome delivered to {participant} after completion"));
                }
                if *commit {
                    if self.decision != Some(true) {
                        return Self::reject(
                            index,
                            format!("commit delivered to {participant} without a forced commit decision (§12 forcing discipline)"),
                        );
                    }
                    match self.participants.get(participant) {
                        Some(Participant::Voted(VoteKind::Commit)) => {}
                        Some(Participant::Voted(v)) => {
                            return Self::reject(index, format!("commit delivered to {participant}, which voted {v:?}"));
                        }
                        Some(Participant::Solicited) => {
                            return Self::reject(index, format!("commit delivered to {participant} before it voted"));
                        }
                        Some(_) => {
                            return Self::reject(index, format!("{participant} received a second outcome"));
                        }
                        None => {
                            return Self::reject(index, format!("commit delivered to unknown participant {participant}"));
                        }
                    }
                } else {
                    if self.decision == Some(true) {
                        return Self::reject(index, format!("rollback delivered to {participant} after a commit decision"));
                    }
                    // A rollback may legitimately reach a participant that
                    // never prepared (quarantine rolls back enlisted peers
                    // that were never asked), but not one already settled.
                    if matches!(
                        self.participants.get(participant),
                        Some(Participant::Delivered { .. } | Participant::Forgotten)
                    ) {
                        return Self::reject(index, format!("{participant} received a second outcome"));
                    }
                }
                self.participants.insert(participant.clone(), Participant::Delivered { commit: *commit });
            }
            ProtocolEvent::Forgotten { participant } => {
                match self.participants.get(participant) {
                    Some(Participant::Delivered { .. }) => {}
                    Some(Participant::Forgotten) => {
                        return Self::reject(index, format!("{participant} forgotten twice"));
                    }
                    _ => {
                        return Self::reject(index, format!("{participant} forgotten before its outcome was delivered"));
                    }
                }
                self.participants.insert(participant.clone(), Participant::Forgotten);
            }
            ProtocolEvent::TxCompleted { committed } => {
                if self.completed.is_some() {
                    return Self::reject(index, "the transaction completed twice".into());
                }
                if *committed {
                    let all_read_only = !self.any_no_vote
                        && !self.any_commit_vote
                        && self.participants.values().all(|p| !matches!(p, Participant::Solicited));
                    if self.decision != Some(true) && !all_read_only {
                        return Self::reject(
                            index,
                            "completed committed without a forced commit decision".into(),
                        );
                    }
                } else if self.decision == Some(true) {
                    return Self::reject(index, "completed aborted after a commit decision was forced".into());
                }
                self.completed = Some(*committed);
            }
            _ => {}
        }
        Ok(())
    }
}

/// Replay a stream, one machine per transaction, collecting the first
/// divergence (a broken machine's subsequent state is unspecified, so replay
/// stops at the first error).
#[must_use]
pub fn replay(stream: &[Step]) -> Vec<SpecViolation> {
    let mut transactions: BTreeMap<&Origin, TwoPc> = BTreeMap::new();
    for (index, (origin, event)) in stream.iter().enumerate() {
        if let Err(violation) = transactions.entry(origin).or_default().step(index, event) {
            return vec![violation];
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    use telemetry::VoteKind as Vote;

    fn of_one_transaction(event: ProtocolEvent) -> Step {
        (Origin::Transaction { top: 1, branch: Vec::new() }, event)
    }
    fn prepare(p: &str) -> Step {
        of_one_transaction(ProtocolEvent::PrepareSent { participant: p.into() })
    }
    fn vote(p: &str, v: Vote) -> Step {
        of_one_transaction(ProtocolEvent::VoteRecorded { participant: p.into(), vote: v })
    }
    fn decide() -> Step {
        of_one_transaction(ProtocolEvent::DecisionForced { commit: true })
    }
    fn deliver(p: &str, commit: bool) -> Step {
        let delivery = ProtocolEvent::OutcomeDelivered { participant: p.into(), commit, ok: true };
        of_one_transaction(delivery)
    }
    fn forget(p: &str) -> Step {
        of_one_transaction(ProtocolEvent::Forgotten { participant: p.into() })
    }
    fn complete(committed: bool) -> Step {
        of_one_transaction(ProtocolEvent::TxCompleted { committed })
    }

    #[test]
    fn clean_commit_passes() {
        let t = vec![
            prepare("a"),
            vote("a", Vote::Commit),
            prepare("b"),
            vote("b", Vote::ReadOnly),
            decide(),
            deliver("a", true),
            forget("a"),
            complete(true),
        ];
        assert!(replay(&t).is_empty());
    }

    #[test]
    fn presumed_abort_rollback_passes_without_a_decision() {
        let t = vec![
            prepare("a"),
            vote("a", Vote::Commit),
            prepare("b"),
            vote("b", Vote::Rollback),
            deliver("a", false),
            deliver("b", false),
            complete(false),
        ];
        assert!(replay(&t).is_empty());
    }

    #[test]
    fn all_read_only_commit_needs_no_decision() {
        let t = vec![
            prepare("a"),
            vote("a", Vote::ReadOnly),
            complete(true),
        ];
        assert!(replay(&t).is_empty());
    }

    #[test]
    fn commit_decision_after_a_no_vote_is_the_planted_violation() {
        let t = vec![
            prepare("a"),
            vote("a", Vote::Commit),
            prepare("c"),
            vote("c", Vote::Rollback),
            decide(),
        ];
        let v = replay(&t);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("presumed abort"));
    }

    #[test]
    fn commit_delivery_before_the_forced_decision_is_rejected() {
        let t = vec![prepare("a"), vote("a", Vote::Commit), deliver("a", true)];
        assert!(replay(&t)[0].detail.contains("forcing discipline"));
    }

    #[test]
    fn rollback_after_commit_decision_is_rejected() {
        let t = vec![
            prepare("a"),
            vote("a", Vote::Commit),
            decide(),
            deliver("a", false),
        ];
        assert!(replay(&t)[0].detail.contains("after a commit decision"));
    }

    #[test]
    fn forget_requires_prior_delivery() {
        let t = vec![
            prepare("a"),
            vote("a", Vote::Commit),
            decide(),
            forget("a"),
        ];
        assert!(replay(&t)[0].detail.contains("before its outcome"));
    }

    #[test]
    fn a_vote_or_a_delivery_after_its_moment_is_rejected() {
        // Once commit is forced every solicited participant has voted, so a
        // later vote is a second one.
        let t = vec![prepare("a"), vote("a", Vote::Commit), decide(), vote("a", Vote::Commit)];
        assert!(replay(&t)[0].detail.contains("voted twice"));
        // Phase two must land before the transaction completes.
        let t = vec![prepare("a"), vote("a", Vote::Commit), decide(), complete(true), deliver("a", true)];
        assert!(replay(&t)[0].detail.contains("after completion"));
    }

    #[test]
    fn completing_committed_without_a_decision_is_rejected() {
        let t = vec![
            prepare("a"),
            vote("a", Vote::Commit),
            complete(true),
        ];
        assert!(replay(&t)[0].detail.contains("without a forced commit decision"));
    }

    #[test]
    fn rollback_may_reach_a_never_prepared_participant() {
        // Quarantine rolls back enlisted peers that were never solicited.
        let t = vec![
            prepare("a"),
            vote("a", Vote::Failed),
            deliver("a", false),
            deliver("b", false),
            complete(false),
        ];
        assert!(replay(&t).is_empty());
    }
}
