//! The explorer's 2PC scenarios.
//!
//! [`ThreeParticipantTwoPhase`] is the real protocol: the seeded 2PC runner
//! with a third participant under the OTS coordinator, so every
//! prepare/phase-two round has delivery orders to enumerate, crossed with a
//! crash at each `ots.*` failpoint site. The steps the coordinator emitted
//! — its flight recorder's typed stream — are reported as they are, binding
//! the refinement oracle on every interleaving.
//!
//! [`BrokenAtomicCommitScenario`] is the planted spec violation the
//! explorer must catch: a hand-rolled commit loop that decides from the
//! **last** collected vote instead of all of them. Under registration
//! order the vetoing participant happens to be polled last and the bug is
//! invisible; any order that polls it earlier forces a commit decision
//! after a rollback vote — exactly the transition the presumed-abort
//! model rejects. Effects are arranged so every other oracle stays
//! quiet: only refinement (#9) sees it, and only under reordering. It keeps
//! its own list of what it did, because what it tells its recorder is not
//! that: it always reports a forced decision, commit or not.

use std::fmt::Write as _;

use orb::choice::DeliverySequencer;
use telemetry::{Origin, ProtocolEvent, VoteKind};

use super::two_phase::{run_two_phase, Participant};
use crate::enumerate::ChoiceDriver;
use crate::model::twopc::is_yes;
use crate::oracle::{BlackBox, Observation, RunOutcome};
use crate::scenario::Scenario;
use crate::schedule::FaultSchedule;

/// Three-participant logged 2PC: two real delivery choices per round.
pub struct ThreeParticipantTwoPhase;

const THREE_PARTICIPANTS: [Participant; 3] =
    [("store", "k", 1), ("witness", "w", 2), ("ledger", "l", 3)];

impl Scenario for ThreeParticipantTwoPhase {
    fn name(&self) -> &'static str {
        "explorable-two-phase"
    }

    fn run(&self, schedule: &FaultSchedule) -> Observation {
        run_two_phase(schedule, false, &THREE_PARTICIPANTS)
    }
}

/// The planted fixture: a commit loop that decides from the last vote.
pub struct BrokenAtomicCommitScenario;

struct BrokenParticipant {
    name: &'static str,
    vote: VoteKind,
    has_effect: bool,
}

impl Scenario for BrokenAtomicCommitScenario {
    fn name(&self) -> &'static str {
        "broken-atomic-commit"
    }

    fn run(&self, schedule: &FaultSchedule) -> Observation {
        let driver = ChoiceDriver::new(schedule.choices().to_vec());
        // "auditor" vetoes but holds no forward effects, so atomicity has
        // nothing to disagree with — only the decision rule is wrong.
        let participants = [
            BrokenParticipant { name: "store", vote: VoteKind::Commit, has_effect: true },
            BrokenParticipant { name: "witness", vote: VoteKind::Commit, has_effect: true },
            BrokenParticipant { name: "auditor", vote: VoteKind::Rollback, has_effect: false },
        ];
        let mut events = Vec::new();
        let mut did = |step| events.push((Origin::Transaction { top: 1, branch: Vec::new() }, step));
        let mut trace = String::new();
        // Even the planted bug keeps a black box: its dump rides the
        // minimized divergence, showing the vote order that exposed it.
        let recorder = telemetry::FlightRecorder::new(
            "broken-coordinator",
            telemetry::DEFAULT_RECORDER_CAPACITY,
        );

        // Vote solicitation in sequencer order. The bug: instead of
        // requiring unanimity, the decision tracks whichever vote arrived
        // last — under registration order that happens to be the veto, so
        // the default path looks correct.
        let mut pending: Vec<usize> = (0..participants.len()).collect();
        let mut last_vote = None;
        while !pending.is_empty() {
            let labels: Vec<&str> = pending.iter().map(|i| participants[*i].name).collect();
            let pick = if pending.len() > 1 {
                orb::choice::clamp_choice(driver.next_delivery("prepare", &labels), labels.len())
            } else {
                0
            };
            let participant = &participants[pending.remove(pick)];
            did(ProtocolEvent::PrepareSent { participant: participant.name.to_owned() });
            did(ProtocolEvent::VoteRecorded {
                participant: participant.name.to_owned(),
                vote: participant.vote,
            });
            driver.report("prepare", participant.name, is_yes(participant.vote));
            recorder.record(telemetry::RecordKind::Protocol, || {
                format!("vote_recorded({}, {:?})", participant.name, participant.vote)
            });
            let _ = writeln!(trace, "voted: {} {:?}", participant.name, participant.vote);
            last_vote = Some(participant.vote);
        }
        let commit = last_vote == Some(VoteKind::Commit);
        recorder
            .record(telemetry::RecordKind::Protocol, || format!("decision_forced(commit={commit})"));

        if commit {
            did(ProtocolEvent::DecisionForced { commit: true });
            for participant in participants.iter().filter(|p| p.vote == VoteKind::Commit) {
                did(ProtocolEvent::OutcomeDelivered {
                    participant: participant.name.to_owned(),
                    commit: true,
                    ok: true,
                });
                did(ProtocolEvent::Forgotten { participant: participant.name.to_owned() });
            }
        } else {
            for participant in &participants {
                did(ProtocolEvent::OutcomeDelivered {
                    participant: participant.name.to_owned(),
                    commit: false,
                    ok: true,
                });
            }
        }
        did(ProtocolEvent::TxCompleted { committed: commit });
        let _ = writeln!(trace, "decision: commit={commit}");

        let mut obs =
            Observation::new(if commit { RunOutcome::Committed } else { RunOutcome::Aborted });
        obs.participant_commits = participants
            .iter()
            .filter(|p| p.has_effect)
            .map(|p| (p.name.to_owned(), commit))
            .collect();
        obs.trace = trace;
        obs.model_events = Some(events);
        obs.report_choices(&driver);
        obs.black_box = Some(BlackBox::of(&recorder));
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{explore, ExploreConfig};
    use crate::oracle;

    fn ordered(choices: Vec<usize>) -> FaultSchedule {
        FaultSchedule::empty().with_choices(choices)
    }

    #[test]
    fn default_order_commits_cleanly_and_refines_the_model() {
        let obs = ThreeParticipantTwoPhase.run(&FaultSchedule::empty());
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert!(oracle::check_all(&obs).is_empty(), "{:?}", oracle::check_all(&obs));
        // Three participants in serial 2PC: two real delivery choices per
        // round (3 pending, then 2), prepare and phase two.
        assert_eq!(obs.choice_points.len(), 4);
        // The probe sees every ots site, so the explorer's fault plans
        // cover the full crash matrix.
        assert_eq!(obs.space.sites.len(), ots::failpoints::FAILPOINT_SITES.len());
    }

    #[test]
    fn a_prescribed_reordering_still_refines_the_model() {
        let obs = ThreeParticipantTwoPhase.run(&ordered(vec![2, 1, 1, 0]));
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert!(oracle::check_all(&obs).is_empty(), "{:?}", oracle::check_all(&obs));
        let chosen: Vec<usize> = obs.choice_points.iter().map(|point| point.chosen).collect();
        assert_eq!(chosen, vec![2, 1, 1, 0]);
    }

    #[test]
    fn the_broken_fixture_is_clean_in_registration_order() {
        let obs = BrokenAtomicCommitScenario.run(&FaultSchedule::empty());
        // The veto happens to be polled last, so the bug stays hidden.
        assert_eq!(obs.outcome, RunOutcome::Aborted);
        assert!(oracle::check_all(&obs).is_empty(), "{:?}", oracle::check_all(&obs));
    }

    #[test]
    fn polling_the_veto_first_forces_a_commit_after_a_no_vote() {
        let obs = BrokenAtomicCommitScenario.run(&ordered(vec![2]));
        assert_eq!(obs.outcome, RunOutcome::Committed);
        let violations = oracle::check_all(&obs);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].oracle, "refinement");
        assert!(violations[0].detail.contains("presumed abort"), "{}", violations[0].detail);
    }

    #[test]
    fn exploration_of_the_real_protocol_finds_no_divergence() {
        // Bounded but complete: every delivery order × every single-crash
        // plan, small enough to run in-tree (the full-budget version with
        // the reduction-factor assertion lives in tests/model_check.rs).
        let report = explore(&ThreeParticipantTwoPhase, &ExploreConfig::default());
        assert!(!report.truncated);
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert_eq!(report.fault_plans, 1 + ots::failpoints::FAILPOINT_SITES.len());
    }
}
