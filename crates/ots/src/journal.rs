//! The protocol journal: the coordinator's own account of what it did,
//! event by event, for refinement checking against a reference model.
//!
//! The WAL records what must survive a crash (§12 forcing discipline); the
//! journal records what *happened* — every prepare solicited, every vote
//! collected, the forced decision, every phase-two outcome delivery and
//! forget. A conformance harness replays the journal through an executable
//! specification of presumed-abort 2PC and fails on the first divergence.
//!
//! Attach one with [`crate::TransactionFactory::with_journal`]; every
//! coordinator and subtransaction the factory creates shares it. Each
//! event is emitted once, at its source, through `orb::Env::emit`: mirrored
//! into the context's flight recorder (kind `protocol`) and then appended
//! here — with neither a recorder nor a journal the coordinator pays
//! nothing. Events are recorded from the serial dispatch path in delivery
//! order; under parallel dispatch they are recorded at collation, in
//! registration order (the joined result order — the journal stays
//! deterministic, but it then reflects collation, not wire order).

use std::fmt;

use crate::resource::Vote;

/// How a participant answered prepare, as the journal records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VoteKind {
    /// Voted to commit; expects a phase-two outcome.
    Commit,
    /// Read-only: no second phase needed.
    ReadOnly,
    /// Vetoed the commit.
    Rollback,
    /// The prepare call itself failed (transport-style error).
    Failed,
}

impl VoteKind {
    pub(crate) fn from_answer(answer: &Result<Vote, crate::error::TxError>) -> Self {
        match answer {
            Ok(Vote::Commit) => VoteKind::Commit,
            Ok(Vote::ReadOnly) => VoteKind::ReadOnly,
            Ok(Vote::Rollback) => VoteKind::Rollback,
            Err(_) => VoteKind::Failed,
        }
    }
}

/// One observable step of the two-phase-commit protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwoPcEvent {
    /// Phase one solicited this participant's vote.
    PrepareSent { participant: String },
    /// The participant's answer came back.
    VoteRecorded { participant: String, vote: VoteKind },
    /// The decision record was forced durable (`commit: true`) — presumed
    /// abort never forces an abort decision, so `commit` is always true
    /// when the coordinator emits this itself.
    DecisionForced { commit: bool },
    /// A phase-two outcome delivery: `commit` distinguishes commit from
    /// rollback deliveries; `ok` is whether the participant acknowledged.
    OutcomeDelivered { participant: String, commit: bool, ok: bool },
    /// The participant was told to forget the transaction.
    Forgotten { participant: String },
    /// The transaction reached its terminal state.
    Completed { committed: bool },
}

impl fmt::Display for TwoPcEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TwoPcEvent::PrepareSent { participant } => write!(f, "prepare_sent({participant})"),
            TwoPcEvent::VoteRecorded { participant, vote } => {
                write!(f, "vote_recorded({participant}, {vote:?})")
            }
            TwoPcEvent::DecisionForced { commit } => write!(f, "decision_forced(commit={commit})"),
            TwoPcEvent::OutcomeDelivered { participant, commit, ok } => {
                write!(f, "outcome_delivered({participant}, commit={commit}, ok={ok})")
            }
            TwoPcEvent::Forgotten { participant } => write!(f, "forgotten({participant})"),
            TwoPcEvent::Completed { committed } => write!(f, "completed(committed={committed})"),
        }
    }
}

/// A shared, append-only journal of [`TwoPcEvent`]s. Clones share storage.
pub type ProtocolJournal = telemetry::Journal<TwoPcEvent>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let journal = ProtocolJournal::new();
        let alias = journal.clone();
        journal.record(TwoPcEvent::PrepareSent { participant: "a".into() });
        alias.record(TwoPcEvent::VoteRecorded {
            participant: "a".into(),
            vote: VoteKind::Commit,
        });
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.events(), alias.events());
        assert!(!journal.is_empty());
    }

    #[test]
    fn vote_kinds_map_from_answers() {
        use crate::error::TxError;
        use crate::xid::TxId;
        assert_eq!(VoteKind::from_answer(&Ok(Vote::Commit)), VoteKind::Commit);
        assert_eq!(VoteKind::from_answer(&Ok(Vote::ReadOnly)), VoteKind::ReadOnly);
        assert_eq!(VoteKind::from_answer(&Ok(Vote::Rollback)), VoteKind::Rollback);
        assert_eq!(
            VoteKind::from_answer(&Err(TxError::RolledBack(TxId::top_level(1)))),
            VoteKind::Failed
        );
    }
}
