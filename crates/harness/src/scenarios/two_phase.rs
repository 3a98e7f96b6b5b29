//! 2PC over the OTS coordinator with durable decision logging, crash
//! injection at every named protocol step, and WAL replay after the crash.
//!
//! Two scenario flavours share one runner: [`TwoPhaseScenario`] logs to a
//! per-record-sync [`MemWal`], [`TwoPhaseGroupCommitScenario`] routes the
//! same protocol through a [`GroupCommitWal`] wrapper. The group flavour
//! additionally reports durability accounting — the highest LSN the log
//! acknowledged before the crash and the LSNs that survived the restart —
//! which binds the harness's `durability` oracle: an injected crash discards
//! the staged (unacked) tail, and the oracle proves no acked record was
//! lost with it.
//!
//! Both flavours report the protocol steps their coordinator emitted — the
//! flight recorder's typed stream — so the refinement oracle replays every
//! sweep run through the presumed-abort 2PC model.

use std::fmt::Write as _;
use std::sync::Arc;

use orb::pool::DispatchConfig;
use orb::Value;
use ots::txlog::KIND_TX_DECISION;
use ots::{Resource, TransactionFactory, TransactionalKv, TxError, TxId};
use recovery_log::{FailpointSet, GroupCommitWal, Lsn, MemWal, Wal};
use telemetry::ProtocolEvent;

use crate::oracle::{Observation, RunOutcome};
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
        run_two_phase(schedule, false)
    }
}

impl Scenario for TwoPhaseGroupCommitScenario {
    fn name(&self) -> &'static str {
        "two-phase-commit-group"
    }

    fn run(&self, schedule: &FaultSchedule) -> Observation {
        run_two_phase(schedule, true)
    }
}

fn run_two_phase(schedule: &FaultSchedule, group_commit: bool) -> Observation {
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
    let env = orb::Env::wired(orb::Env {
        failpoints: Some(failpoints.clone()),
        telemetry: Some(telemetry.clone()),
        recorder: Some(recorder.clone()),
        ..Default::default()
    });
    let factory = TransactionFactory::with_wal(Arc::clone(&wal))
        .with_env(env)
        .with_dispatch(DispatchConfig::serial());
    let store = Arc::new(TransactionalKv::new("store"));
    let witness = Arc::new(TransactionalKv::new("witness"));

    let control = factory.create().expect("begin record");
    store.enlist(&control).expect("enlist store");
    witness.enlist(&control).expect("enlist witness");
    store.write(control.id(), "k", Value::from(1i64)).expect("write store");
    witness.write(control.id(), "w", Value::from(2i64)).expect("write witness");

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
                obs.durable_acked_lsn = Some(group.durable_lsn().raw());
                group.recover_from_sink();
                obs.survived_lsns = Some(
                    group
                        .inner()
                        .scan(Lsn::new(0))
                        .expect("scan sink")
                        .iter()
                        .map(|r| r.lsn.raw())
                        .collect(),
                );
            }
            recover_from_crash(&wal, &failpoints, &[&store, &witness], control.id(), &mut obs);
        }
        Err(other) => {
            let _ = writeln!(obs.trace, "non-crash failure: {other:?}");
            obs.outcome = RunOutcome::Aborted;
        }
    }

    obs.participant_commits = vec![
        ("store".into(), store.read_committed("k").is_some()),
        ("witness".into(), witness.read_committed("w").is_some()),
    ];
    let _ = writeln!(
        obs.trace,
        "final: store={:?} witness={:?}",
        store.read_committed("k"),
        witness.read_committed("w")
    );
    obs.observed_sites = failpoints.observed_sites();
    obs.report_recorder(&recorder);
    obs.critical_path_exact = telemetry.span_tree().critical_path().map(|path| path.is_exact());
    // Oracle #12: even a single-node run has a causal story — program
    // order plus the 2PC protocol-order rules over the recorded steps.
    let mut merge = telemetry::CausalMerge::new();
    merge.add_recorder(&recorder);
    let dag = merge.build();
    obs.report_causal(&dag);
    obs
}

/// The aftermath of an injected coordinator crash, shared by the seeded and
/// the explored 2PC runs. "Restart": disarm, then a fresh factory (no
/// sequencer, no recorder — recovery has no ordering freedom) replays the
/// surviving log on behalf of `transaction`, and a second incarnation over
/// the same log must find nothing left in doubt. Reports the replay facts
/// and the outcome recovery settled, and closes the run's model stream —
/// the crash cut it short of its terminal step — with that direction, so
/// the refinement oracle holds it to §12 (a committed close without a
/// forced decision is a divergence).
pub(super) fn recover_from_crash(
    wal: &Arc<dyn Wal>,
    failpoints: &FailpointSet,
    participants: &[&Arc<TransactionalKv>],
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
    obs.replay_stable = Some(second.recommitted.is_empty() && second.presumed_aborted.is_empty());
    obs.decision_durable = Some(decision_durable);
    obs.replay_outcome = Some(replayed);
    obs.outcome = replayed;
    let closing = ProtocolEvent::TxCompleted { committed: replayed == RunOutcome::Committed };
    obs.model_events.get_or_insert_with(Vec::new).push((transaction.origin(), closing));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::schedule::FaultEvent;

    #[test]
    fn fault_free_run_commits_and_passes_oracles() {
        let obs = TwoPhaseScenario.run(&FaultSchedule::empty());
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert!(oracle::check_all(&obs).is_empty());
        // The probe discovers every ots failpoint site.
        assert_eq!(
            obs.observed_sites,
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
        assert_eq!(obs.decision_durable, Some(true));
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
        assert_eq!(obs.decision_durable, Some(false));
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
        assert_eq!(obs.decision_durable, Some(true));
        let acked = obs.durable_acked_lsn.expect("durability accounting");
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
        assert_eq!(obs.decision_durable, Some(false));
        assert!(oracle::check_all(&obs).is_empty(), "{:?}", oracle::check_all(&obs));
    }
}
