//! 2PC over the OTS coordinator with durable decision logging, crash
//! injection at every named protocol step, and WAL replay after the crash.
//!
//! Three scenario flavours share one runner: [`TwoPhaseScenario`] logs to a
//! per-record-sync [`MemWal`], [`TwoPhaseGroupCommitScenario`] routes the
//! same protocol through a [`GroupCommitWal`] wrapper, and
//! [`super::ThreeParticipantTwoPhase`] enlists a third participant so every
//! round has delivery orders worth enumerating. The group flavour
//! additionally reports durability accounting — the highest LSN the log
//! acknowledged before the crash and the LSNs that survived the restart —
//! which binds the harness's `durability` oracle: an injected crash discards
//! the staged (unacked) tail, and the oracle proves no acked record was
//! lost with it.
//!
//! Every flavour installs a [`ChoiceDriver`] replaying the schedule's
//! delivery choices as the coordinator's sequencer (an empty prescription
//! is registration order, byte for byte), and reports the protocol steps
//! its coordinator emitted — the flight recorder's typed stream — so the
//! refinement oracle replays every run through the presumed-abort 2PC
//! model.

use std::fmt::Write as _;
use std::sync::Arc;

use orb::pool::DispatchConfig;
use orb::Value;
use ots::txlog::KIND_TX_DECISION;
use ots::{Resource, TransactionFactory, TransactionalKv, TxError, TxId};
use recovery_log::{FailpointSet, GroupCommitWal, Lsn, MemWal, Wal};
use telemetry::ProtocolEvent;

use crate::enumerate::ChoiceDriver;
use crate::oracle::{BlackBox, Causal, Durability, Observation, Replay, RunOutcome};
use crate::scenario::Scenario;
use crate::schedule::FaultSchedule;

/// Two participants enlisted in one logged transaction; failpoint crashes
/// are recovered by a fresh factory over the surviving WAL, and the replay
/// is run twice to prove it is idempotent.
pub struct TwoPhaseScenario;

/// [`TwoPhaseScenario`] with the log routed through a group-commit wrapper:
/// only the decision record is awaited durably, everything else rides the
/// batch, and a crash loses the staged tail.
pub struct TwoPhaseGroupCommitScenario;

impl Scenario for TwoPhaseScenario {
    fn name(&self) -> &'static str {
        "two-phase-commit"
    }

    fn run(&self, schedule: &FaultSchedule) -> Observation {
        run_two_phase(schedule, false, &TWO_PARTICIPANTS)
    }
}

impl Scenario for TwoPhaseGroupCommitScenario {
    fn name(&self) -> &'static str {
        "two-phase-commit-group"
    }

    fn run(&self, schedule: &FaultSchedule) -> Observation {
        run_two_phase(schedule, true, &TWO_PARTICIPANTS)
    }
}

/// One participant of the logged transaction: resource name, the key it
/// writes and the value.
pub(super) type Participant = (&'static str, &'static str, i64);

const TWO_PARTICIPANTS: [Participant; 2] = [("store", "k", 1), ("witness", "w", 2)];

pub(super) fn run_two_phase(
    schedule: &FaultSchedule,
    group_commit: bool,
    participants: &[Participant],
) -> Observation {
    let group: Option<Arc<GroupCommitWal<MemWal>>> =
        group_commit.then(|| Arc::new(GroupCommitWal::new(MemWal::new())));
    let wal: Arc<dyn Wal> = match &group {
        Some(g) => Arc::clone(g) as Arc<dyn Wal>,
        None => Arc::new(MemWal::new()),
    };
    let failpoints = FailpointSet::new();
    schedule.arm_into(&failpoints);
    // The coordinator's black box (oracle #11): protocol steps, failpoint
    // passages and span open/close all land in one causally-ordered ring,
    // identically wired for both wal flavours so the byte-identity guard
    // between them keeps holding. Spans run on a virtual clock pinned at
    // zero — timestamps stay deterministic without a driven clock.
    let recorder =
        telemetry::FlightRecorder::new("coordinator", telemetry::DEFAULT_RECORDER_CAPACITY);
    let telemetry = telemetry::Telemetry::with_time(Arc::new(orb::SimClock::new()));
    let driver = ChoiceDriver::new(schedule.choices().to_vec());
    let env = orb::Env::wired(orb::Env {
        failpoints: Some(failpoints.clone()),
        telemetry: Some(telemetry.clone()),
        recorder: Some(recorder.clone()),
        sequencer: Some(Arc::clone(&driver) as Arc<dyn orb::DeliverySequencer>),
        ..Default::default()
    });
    let factory = TransactionFactory::with_wal(Arc::clone(&wal))
        .with_env(env)
        .with_dispatch(DispatchConfig::serial());
    let stores: Vec<Arc<TransactionalKv>> =
        participants.iter().map(|(name, ..)| Arc::new(TransactionalKv::new(*name))).collect();

    let control = factory.create().expect("begin record");
    for kv in &stores {
        kv.enlist(&control).expect("enlist");
    }
    for (kv, (_, key, value)) in stores.iter().zip(participants) {
        kv.write(control.id(), key, Value::from(*value)).expect("write");
    }

    let commit = control.terminator().commit();
    let mut obs = Observation::new(RunOutcome::Committed);
    let _ = writeln!(obs.trace, "commit: {commit:?}");
    obs.model_events = Some(recorder.steps());
    match commit {
        Ok(_) => {}
        Err(TxError::Log(_)) => {
            if let Some(group) = &group {
                // The crash kills the process: staged (unacked) records
                // are gone; whatever was acked durable must survive. Take
                // the acked watermark first, then model the restart.
                let acked_lsn = group.durable_lsn().raw();
                let low_water = group.hold().map_or(0, |hold| hold.low_water().raw());
                group.recover_from_sink();
                let survivors = group.inner().scan(Lsn::new(0)).expect("scan sink");
                let survived_lsns = survivors.iter().map(|r| r.lsn.raw()).collect();
                obs.durability = Some(Durability { acked_lsn, low_water, survived_lsns });
            }
            recover_from_crash(&wal, &failpoints, &stores, control.id(), &mut obs);
        }
        Err(other) => {
            let _ = writeln!(obs.trace, "non-crash failure: {other:?}");
            obs.outcome = RunOutcome::Aborted;
        }
    }

    obs.trace.push_str("final:");
    for (kv, (name, key, _)) in stores.iter().zip(participants) {
        let committed = kv.read_committed(key);
        obs.participant_commits.push(((*name).to_owned(), committed.is_some()));
        let _ = write!(obs.trace, " {name}={committed:?}");
    }
    obs.trace.push('\n');
    obs.space.sites = failpoints.observed_sites();
    obs.report_choices(&driver);
    obs.black_box = Some(BlackBox::of(&recorder));
    obs.critical_path_exact = telemetry.span_tree().critical_path().map(|path| path.is_exact());
    // Oracle #12: even a single-node run has a causal story — program
    // order plus the 2PC protocol-order rules over the recorded steps.
    let mut merge = telemetry::CausalMerge::new();
    merge.add_recorder(&recorder);
    obs.causal = Some(Causal::of(&merge.build()));
    obs
}

/// The aftermath of an injected coordinator crash. "Restart": disarm, then
/// a fresh factory (no sequencer, no recorder — recovery has no ordering
/// freedom) replays the surviving log on behalf of `transaction`, and a
/// second incarnation over the same log must find nothing left in doubt.
/// Reports the replay facts
/// and the outcome recovery settled, and closes the run's model stream —
/// the crash cut it short of its terminal step — with that direction, so
/// the refinement oracle holds it to §12 (a committed close without a
/// forced decision is a divergence).
fn recover_from_crash(
    wal: &Arc<dyn Wal>,
    failpoints: &FailpointSet,
    participants: &[Arc<TransactionalKv>],
    transaction: &TxId,
    obs: &mut Observation,
) {
    failpoints.clear();
    let decision_durable =
        wal.scan(Lsn::new(0)).expect("scan wal").iter().any(|r| r.kind == KIND_TX_DECISION);
    let resolver = |name: &str| -> Option<Arc<dyn Resource>> {
        let found = participants.iter().find(|participant| participant.name() == name)?;
        Some(Arc::clone(found) as Arc<dyn Resource>)
    };
    let report = TransactionFactory::with_wal(Arc::clone(wal)).recover(&resolver).expect("recovery");
    let replayed =
        if report.recommitted.is_empty() { RunOutcome::Aborted } else { RunOutcome::Committed };
    let _ = writeln!(
        obs.trace,
        "recovered: recommitted={:?} presumed_aborted={:?}",
        report.recommitted, report.presumed_aborted
    );
    let second =
        TransactionFactory::with_wal(Arc::clone(wal)).recover(&resolver).expect("second recovery");
    let stable = second.recommitted.is_empty() && second.presumed_aborted.is_empty();
    obs.replay = Some(Replay { decision_durable, outcome: replayed, stable });
    obs.outcome = replayed;
    let closing = ProtocolEvent::TxCompleted { committed: replayed == RunOutcome::Committed };
    obs.model_events.get_or_insert_with(Vec::new).push((transaction.origin(), closing));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::schedule::FaultEvent;

    fn decision_durable(obs: &Observation) -> bool {
        obs.replay.as_ref().expect("a replay ran").decision_durable
    }

    #[test]
    fn fault_free_run_commits_and_passes_oracles() {
        let obs = TwoPhaseScenario.run(&FaultSchedule::empty());
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert!(oracle::check_all(&obs).is_empty());
        // The probe discovers every ots failpoint site.
        assert_eq!(
            obs.space.sites,
            ots::failpoints::FAILPOINT_SITES
                .iter()
                .map(|s| (*s).to_owned())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn crash_after_decision_replays_to_commit() {
        let schedule = FaultSchedule::from_events(vec![FaultEvent::ArmFailpoint {
            site: "ots.after_decision".into(),
            after: 0,
        }]);
        let obs = TwoPhaseScenario.run(&schedule);
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert!(decision_durable(&obs));
        assert!(oracle::check_all(&obs).is_empty(), "{:?}", oracle::check_all(&obs));
    }

    #[test]
    fn crash_before_decision_presumed_aborts() {
        let schedule = FaultSchedule::from_events(vec![FaultEvent::ArmFailpoint {
            site: "ots.before_decision".into(),
            after: 0,
        }]);
        let obs = TwoPhaseScenario.run(&schedule);
        assert_eq!(obs.outcome, RunOutcome::Aborted);
        assert!(!decision_durable(&obs));
        assert!(oracle::check_all(&obs).is_empty());
    }

    #[test]
    fn group_commit_fault_free_run_matches_per_record_trace() {
        let per_record = TwoPhaseScenario.run(&FaultSchedule::empty());
        let grouped = TwoPhaseGroupCommitScenario.run(&FaultSchedule::empty());
        assert_eq!(grouped.outcome, RunOutcome::Committed);
        assert!(oracle::check_all(&grouped).is_empty());
        // The wal configuration is invisible to the protocol: fault-free
        // traces are byte-identical.
        assert_eq!(per_record.trace, grouped.trace);
        assert_eq!(per_record.participant_commits, grouped.participant_commits);
    }

    #[test]
    fn group_commit_crash_after_decision_keeps_acked_records() {
        let schedule = FaultSchedule::from_events(vec![FaultEvent::ArmFailpoint {
            site: "ots.after_decision".into(),
            after: 0,
        }]);
        let obs = TwoPhaseGroupCommitScenario.run(&schedule);
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert!(decision_durable(&obs));
        let acked = obs.durability.as_ref().expect("durability accounting").acked_lsn;
        assert!(acked >= 1, "the forced decision must have been acked");
        assert!(oracle::check_all(&obs).is_empty(), "{:?}", oracle::check_all(&obs));
    }

    #[test]
    fn group_commit_crash_before_decision_presumed_aborts() {
        let schedule = FaultSchedule::from_events(vec![FaultEvent::ArmFailpoint {
            site: "ots.before_decision".into(),
            after: 0,
        }]);
        let obs = TwoPhaseGroupCommitScenario.run(&schedule);
        assert_eq!(obs.outcome, RunOutcome::Aborted);
        assert!(!decision_durable(&obs));
        assert!(oracle::check_all(&obs).is_empty(), "{:?}", oracle::check_all(&obs));
    }
}
