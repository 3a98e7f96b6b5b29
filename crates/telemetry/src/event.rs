//! The one protocol-event vocabulary (DESIGN.md §20).
//!
//! The paper draws every protocol it maps (figs. 8, 10, 11, 12) as a chart
//! over fig. 5's one exchange, `get_signal → transmit → set_response →
//! get_outcome`. [`ProtocolEvent`] is that exchange, the two steps of an
//! activity's lifecycle around it and the six steps of the presumed-abort
//! two-phase commit beneath it — each written down once, here, in the
//! lowest crate every emitter can name. A step is emitted at its source
//! through `orb::Env::emit` together with its [`Origin`] and kept, typed,
//! in the context's [`crate::FlightRecorder`]; the coordinator trace of a
//! figure test, the harness reference machines and the causal verifier are
//! filters over [`crate::FlightRecorder::steps`]. The `Display` texts are
//! what recorder dumps, span events and sweep fingerprints carry.

use std::fmt;

use crate::recorder::RecordKind;

/// Whose step it is. Carried beside every [`ProtocolEvent`] and never
/// rendered: it is what lets a reader tell two coordinators running a set
/// of the same name, or two transactions interleaved on one node, apart.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Origin {
    /// An activity, by raw id: its coordinator's fig. 5 steps and its own
    /// lifecycle.
    Activity(u64),
    /// A transaction: the top-level number and the subtransaction indices
    /// below it, outermost first (empty for the top-level transaction).
    Transaction { top: u64, branch: Vec<u32> },
}

/// How a participant answered prepare.
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

/// One observable protocol step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// Fig. 5: the coordinator asked the signal set for a signal.
    GetSignal { set: String },
    /// Fig. 5: a signal of the set being processed was transmitted to an
    /// action (the set is carried, not rendered).
    Transmit { set: String, signal: String, action: String },
    /// Fig. 5: the action's outcome was fed back to the set.
    SetResponse { set: String, outcome: String },
    /// Fig. 5: the coordinator read the collated outcome.
    GetOutcome { set: String, outcome: String },
    /// The activity entered the tree (root or child).
    ActivityBegun { activity: u64, name: String, parent: Option<u64> },
    /// The activity's completion protocol finished; `status` is the
    /// completion status's variant name.
    ActivityCompleted { activity: u64, status: &'static str, outcome: String },
    /// Phase one solicited this participant's vote.
    PrepareSent { participant: String },
    /// The participant's answer came back.
    VoteRecorded { participant: String, vote: VoteKind },
    /// The decision record was forced durable. Presumed abort never forces
    /// an abort decision, so a coordinator only emits `commit: true`.
    DecisionForced { commit: bool },
    /// A phase-two outcome delivery: `commit` distinguishes commit from
    /// rollback deliveries; `ok` is whether the participant acknowledged.
    OutcomeDelivered { participant: String, commit: bool, ok: bool },
    /// The participant was told to forget the transaction.
    Forgotten { participant: String },
    /// The transaction reached its terminal state.
    TxCompleted { committed: bool },
}

impl ProtocolEvent {
    /// The record kind — and so the label in a recorder dump — a step is
    /// kept under: `trace` for the fig. 5 exchange, `activity` for the
    /// lifecycle, `protocol` for two-phase commit.
    #[must_use]
    pub fn kind(&self) -> RecordKind {
        match self {
            ProtocolEvent::GetSignal { .. }
            | ProtocolEvent::Transmit { .. }
            | ProtocolEvent::SetResponse { .. }
            | ProtocolEvent::GetOutcome { .. } => RecordKind::Trace,
            ProtocolEvent::ActivityBegun { .. } | ProtocolEvent::ActivityCompleted { .. } => {
                RecordKind::Activity
            }
            ProtocolEvent::PrepareSent { .. }
            | ProtocolEvent::VoteRecorded { .. }
            | ProtocolEvent::DecisionForced { .. }
            | ProtocolEvent::OutcomeDelivered { .. }
            | ProtocolEvent::Forgotten { .. }
            | ProtocolEvent::TxCompleted { .. } => RecordKind::Protocol,
        }
    }
}

impl fmt::Display for ProtocolEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolEvent::GetSignal { set } => write!(f, "get_signal({set})"),
            ProtocolEvent::Transmit { signal, action, .. } => write!(f, "{signal:?} -> {action}"),
            ProtocolEvent::SetResponse { set, outcome } => {
                write!(f, "set_response({set}, {outcome})")
            }
            ProtocolEvent::GetOutcome { set, outcome } => {
                write!(f, "get_outcome({set}) = {outcome}")
            }
            ProtocolEvent::ActivityBegun { activity, name, parent } => match parent {
                Some(parent) => write!(f, "begun(act-{activity}, {name}, parent=act-{parent})"),
                None => write!(f, "begun(act-{activity}, {name}, root)"),
            },
            ProtocolEvent::ActivityCompleted { activity, status, outcome } => {
                write!(f, "completed(act-{activity}, {status}, {outcome})")
            }
            ProtocolEvent::PrepareSent { participant } => write!(f, "prepare_sent({participant})"),
            ProtocolEvent::VoteRecorded { participant, vote } => {
                write!(f, "vote_recorded({participant}, {vote:?})")
            }
            ProtocolEvent::DecisionForced { commit } => {
                write!(f, "decision_forced(commit={commit})")
            }
            ProtocolEvent::OutcomeDelivered { participant, commit, ok } => {
                write!(f, "outcome_delivered({participant}, commit={commit}, ok={ok})")
            }
            ProtocolEvent::Forgotten { participant } => write!(f, "forgotten({participant})"),
            ProtocolEvent::TxCompleted { committed } => {
                write!(f, "completed(committed={committed})")
            }
        }
    }
}

/// One step per line, the way a coordinator trace is printed and compared.
#[must_use]
pub fn render_steps<'a>(steps: impl IntoIterator<Item = &'a ProtocolEvent>) -> String {
    steps.into_iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// These strings are what the pinned sweep fingerprints hash.
    #[test]
    fn every_variant_renders_and_labels_as_pinned() {
        let table: Vec<(ProtocolEvent, &str, &str)> = vec![
            (ProtocolEvent::GetSignal { set: "2pc".into() }, "get_signal(2pc)", "trace"),
            (
                ProtocolEvent::Transmit {
                    set: "2pc".into(),
                    signal: "prepare".into(),
                    action: "a1".into(),
                },
                "\"prepare\" -> a1",
                "trace",
            ),
            (
                ProtocolEvent::SetResponse { set: "2pc".into(), outcome: "done".into() },
                "set_response(2pc, done)",
                "trace",
            ),
            (
                ProtocolEvent::GetOutcome { set: "2pc".into(), outcome: "done".into() },
                "get_outcome(2pc) = done",
                "trace",
            ),
            (
                ProtocolEvent::ActivityBegun { activity: 1, name: "root".into(), parent: None },
                "begun(act-1, root, root)",
                "activity",
            ),
            (
                ProtocolEvent::ActivityBegun { activity: 2, name: "child".into(), parent: Some(1) },
                "begun(act-2, child, parent=act-1)",
                "activity",
            ),
            (
                ProtocolEvent::ActivityCompleted {
                    activity: 1,
                    status: "Success",
                    outcome: "done".into(),
                },
                "completed(act-1, Success, done)",
                "activity",
            ),
            (
                ProtocolEvent::PrepareSent { participant: "a".into() },
                "prepare_sent(a)",
                "protocol",
            ),
            (
                ProtocolEvent::VoteRecorded { participant: "a".into(), vote: VoteKind::Commit },
                "vote_recorded(a, Commit)",
                "protocol",
            ),
            (
                ProtocolEvent::DecisionForced { commit: true },
                "decision_forced(commit=true)",
                "protocol",
            ),
            (
                ProtocolEvent::OutcomeDelivered {
                    participant: "a".into(),
                    commit: true,
                    ok: false,
                },
                "outcome_delivered(a, commit=true, ok=false)",
                "protocol",
            ),
            (ProtocolEvent::Forgotten { participant: "a".into() }, "forgotten(a)", "protocol"),
            (
                ProtocolEvent::TxCompleted { committed: true },
                "completed(committed=true)",
                "protocol",
            ),
        ];
        for (event, text, label) in &table {
            assert_eq!(event.to_string(), *text);
            assert_eq!(event.kind().label(), *label, "{text}");
        }
        for (vote, text) in [
            (VoteKind::ReadOnly, "vote_recorded(a, ReadOnly)"),
            (VoteKind::Rollback, "vote_recorded(a, Rollback)"),
            (VoteKind::Failed, "vote_recorded(a, Failed)"),
        ] {
            let event = ProtocolEvent::VoteRecorded { participant: "a".into(), vote };
            assert_eq!(event.to_string(), text);
        }
        assert_eq!(
            render_steps(table.iter().take(2).map(|(event, ..)| event)),
            "get_signal(2pc)\n\"prepare\" -> a1"
        );
    }
}
