//! §3.4 of the paper: treatment of failure and recovery, exercised as a
//! crash matrix. The OTS coordinator is crashed at every interesting
//! protocol step (via failpoints), the "process" restarts over the surviving
//! log, and recovery must drive every in-doubt transaction — and the
//! activity structure above it — back to consistency.

use std::sync::Arc;

use activity_service::{
    recover_activities, ActionFactories, ActivityLogger, ActivityService, BroadcastSignalSet,
    FnAction, Outcome, Signal, SignalSetFactories,
};
use orb::{Env, SimClock, Value};
use ots::{Resource, TransactionFactory, TransactionalKv, TxError};
use recovery_log::{
    CrashingWal, FailpointSet, FileWal, GroupCommitWal, LogError, Lsn, MemWal, Wal,
};

/// A logged factory whose coordinators pass `failpoints`.
fn failpoint_factory(wal: &Arc<dyn Wal>, failpoints: &FailpointSet) -> TransactionFactory {
    TransactionFactory::with_wal(Arc::clone(wal))
        .with_env(Env { failpoints: Some(failpoints.clone()), ..Default::default() }.wired())
}

/// One crash-matrix cell: crash at `failpoint`, recover, and state whether
/// the transaction's effects must be present afterwards.
fn crash_at(failpoint: &str) -> (bool, Arc<TransactionalKv>) {
    let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let failpoints = FailpointSet::new();
    let factory = failpoint_factory(&wal, &failpoints);
    let store = Arc::new(TransactionalKv::new("store"));
    let witness = Arc::new(TransactionalKv::new("witness"));

    let control = factory.create().unwrap();
    store.enlist(&control).unwrap();
    witness.enlist(&control).unwrap();
    store.write(control.id(), "k", Value::from(1i64)).unwrap();
    witness.write(control.id(), "w", Value::from(2i64)).unwrap();

    failpoints.arm(failpoint, 0);
    let result = control.terminator().commit();
    assert!(
        matches!(result, Err(TxError::Log(_))),
        "failpoint {failpoint} must crash the commit, got {result:?}"
    );

    // Restart: a fresh factory over the surviving log re-delivers outcomes.
    failpoints.clear();
    let recovered_factory = TransactionFactory::with_wal(wal);
    let store2 = Arc::clone(&store);
    let witness2 = Arc::clone(&witness);
    let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
        match name {
            "store" => Some(store2.clone()),
            "witness" => Some(witness2.clone()),
            _ => None,
        }
    };
    let report = recovered_factory.recover(&resolver).unwrap();
    let committed = !report.recommitted.is_empty();
    // A crash before the prepared record leaves nothing in doubt (presumed
    // abort needs no log); all later crash points leave exactly one.
    assert!(
        report.recommitted.len() + report.presumed_aborted.len() <= 1,
        "at most one in-doubt transaction at {failpoint}"
    );
    (committed, store)
}

#[test]
fn crash_before_prepare_presumed_abort() {
    let (committed, store) = crash_at("ots.before_prepare");
    assert!(!committed);
    assert_eq!(store.read_committed("k"), None);
}

#[test]
fn crash_after_prepare_presumed_abort() {
    let (committed, store) = crash_at("ots.after_prepare");
    assert!(!committed, "no decision record yet: presumed abort");
    assert_eq!(store.read_committed("k"), None);
}

#[test]
fn crash_before_decision_presumed_abort() {
    let (committed, store) = crash_at("ots.before_decision");
    assert!(!committed);
    assert_eq!(store.read_committed("k"), None);
}

#[test]
fn crash_after_decision_recommits() {
    let (committed, store) = crash_at("ots.after_decision");
    assert!(committed, "the decision was durable: recovery must push commit through");
    assert_eq!(store.read_committed("k"), Some(Value::from(1i64)));
}

#[test]
fn crash_before_completion_record_recommits_idempotently() {
    let (committed, store) = crash_at("ots.before_completion_record");
    assert!(committed);
    // Phase two already ran once before the crash; recovery re-delivered
    // commit. Idempotent participants keep the value exact.
    assert_eq!(store.read_committed("k"), Some(Value::from(1i64)));
}

/// Reliability-layer regression: a duplicate commit delivered *after* the
/// participant has applied, been told to forget, or the log has been
/// replayed must be acknowledged idempotently — same committed value, no
/// double-apply, no error. This is the receiver-side contract the
/// `orb::retry` at-least-once redelivery (and `DedupWindow`) leans on: a
/// retried commit message surfacing arbitrarily late is always safe.
#[test]
fn duplicate_commit_after_forget_and_after_replay_is_acked_idempotently() {
    let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let failpoints = FailpointSet::new();
    let factory = failpoint_factory(&wal, &failpoints);
    let store = Arc::new(TransactionalKv::new("store"));
    let witness = Arc::new(TransactionalKv::new("witness"));

    let control = factory.create().unwrap();
    let tx = control.id().clone();
    store.enlist(&control).unwrap();
    witness.enlist(&control).unwrap();
    store.write(&tx, "k", Value::from(1i64)).unwrap();
    witness.write(&tx, "w", Value::from(2i64)).unwrap();

    // Phase two runs, then the coordinator dies before the completion
    // record: the log still holds a commit decision, so replay MUST
    // re-deliver commit to participants that already applied it.
    failpoints.arm("ots.before_completion_record", 0);
    assert!(matches!(control.terminator().commit(), Err(TxError::Log(_))));
    assert_eq!(store.read_committed("k"), Some(Value::from(1i64)), "phase two already ran");

    // First replay: the second commit delivery lands on participants that
    // have already applied and released their locks.
    failpoints.clear();
    let store2 = Arc::clone(&store);
    let witness2 = Arc::clone(&witness);
    let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
        match name {
            "store" => Some(store2.clone()),
            "witness" => Some(witness2.clone()),
            _ => None,
        }
    };
    let report = TransactionFactory::with_wal(Arc::clone(&wal)).recover(&resolver).unwrap();
    assert_eq!(report.recommitted.len(), 1);
    assert_eq!(store.read_committed("k"), Some(Value::from(1i64)));
    assert_eq!(store.committed_len(), 1, "the redelivered commit must not double-apply");
    assert_eq!(witness.read_committed("w"), Some(Value::from(2i64)));

    // Even later duplicates — a retried commit message surfacing after the
    // coordinator told the participant to forget — are still acked with Ok
    // and change nothing.
    store.forget(&tx);
    assert!(store.commit(&tx).is_ok(), "post-Forget duplicate commit must ack, not error");
    assert!(store.commit(&tx).is_ok(), "and it stays idempotent on every redelivery");
    assert_eq!(store.read_committed("k"), Some(Value::from(1i64)));
    assert_eq!(store.committed_len(), 1);

    // The log side is equally idempotent: the completion record appended by
    // the first replay acks the transaction, so a second replay re-delivers
    // nothing.
    let store3 = Arc::clone(&store);
    let witness3 = Arc::clone(&witness);
    let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
        match name {
            "store" => Some(store3.clone()),
            "witness" => Some(witness3.clone()),
            _ => None,
        }
    };
    let again = TransactionFactory::with_wal(wal).recover(&resolver).unwrap();
    assert!(again.recommitted.is_empty(), "replay already completed the transaction");
    assert!(again.presumed_aborted.is_empty());
    assert_eq!(store.committed_len(), 1, "post-replay state is stable");
}

/// The torn-record matrix cell: the coordinator "process" dies *inside* the
/// decision-record append ([`CrashingWal`] counts it down), and the dying
/// process got half the record onto the real file before the power went.
/// Replay must truncate at the torn tail and presumed-abort the in-doubt
/// transaction — a torn decision is no decision.
#[test]
fn torn_decision_record_truncates_and_presumed_aborts() {
    let path = {
        let mut p = std::env::temp_dir();
        p.push(format!("torn-decision-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    };
    let store = Arc::new(TransactionalKv::new("store"));
    let witness = Arc::new(TransactionalKv::new("witness"));

    // ---- First process: crash mid-append of the decision record. ----
    {
        // Appends: 1 = begun, 2 = prepared; the third — the decision — dies.
        let wal: Arc<dyn Wal> = Arc::new(CrashingWal::new(FileWal::open(&path).unwrap(), 2));
        let factory = TransactionFactory::with_wal(wal);
        let control = factory.create().unwrap();
        store.enlist(&control).unwrap();
        witness.enlist(&control).unwrap();
        store.write(control.id(), "k", Value::from(1i64)).unwrap();
        witness.write(control.id(), "w", Value::from(2i64)).unwrap();
        let result = control.terminator().commit();
        assert!(
            matches!(result, Err(TxError::Log(_))),
            "the decision append must crash the commit, got {result:?}"
        );
        // Half of the decision record reached the disk before the crash.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x01, 0x03, 0xA5, 0xC7]).unwrap();
    }

    // ---- Second process: replay truncates at the torn tail... ----
    let wal: Arc<dyn Wal> = Arc::new(FileWal::open(&path).unwrap());
    let records = wal.scan(Lsn::new(0)).unwrap();
    assert_eq!(records.len(), 2, "begun + prepared survive; the torn tail is cut");
    assert!(
        records.iter().all(|r| r.kind != ots::txlog::KIND_TX_DECISION),
        "no decision record may be reconstructed from torn bytes"
    );

    // ---- ...and presumed-aborts the in-doubt transaction. ----
    let store2 = Arc::clone(&store);
    let witness2 = Arc::clone(&witness);
    let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
        match name {
            "store" => Some(store2.clone()),
            "witness" => Some(witness2.clone()),
            _ => None,
        }
    };
    let report = TransactionFactory::with_wal(Arc::clone(&wal)).recover(&resolver).unwrap();
    assert!(report.recommitted.is_empty(), "a torn decision must never commit");
    assert_eq!(report.presumed_aborted.len(), 1);
    assert_eq!(store.read_committed("k"), None);
    assert_eq!(witness.read_committed("w"), None);

    // The truncated log is clean: a fresh transaction over it commits.
    let factory = TransactionFactory::with_wal(wal);
    let control = factory.create().unwrap();
    store.enlist(&control).unwrap();
    store.write(control.id(), "k", Value::from(3i64)).unwrap();
    control.terminator().commit().unwrap();
    assert_eq!(store.read_committed("k"), Some(Value::from(3i64)));
    std::fs::remove_file(&path).unwrap();
}

/// Full-stack recovery: activity structure + transaction outcomes from one
/// crash, over a REAL file-backed log with a torn tail.
#[test]
fn activity_and_transaction_recovery_compose_over_file_wal() {
    let path = {
        let mut p = std::env::temp_dir();
        p.push(format!("crash-matrix-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    };

    // ---- "First process": work, then die. ----
    {
        let wal: Arc<dyn Wal> = Arc::new(FileWal::open(&path).unwrap());
        let service = ActivityService::builder().wal(Arc::clone(&wal)).build();
        let booking = service.begin("booking").unwrap();
        booking
            .add_signal_set_recoverable(
                "completion-broadcast",
                Box::new(BroadcastSignalSet::new("Done", "finished", Value::Null)),
            )
            .unwrap();
        booking
            .register_action_recoverable(
                "Done",
                "audit-action",
                Arc::new(FnAction::new("audit", |_s: &Signal| Ok(Outcome::done()))),
            )
            .unwrap();
        booking.set_completion_signal_set("Done");
        let _step = service.begin("step-1").unwrap();
        // Crash: nothing completes; half a record hits the disk.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xA5, 0xC7, 0x00]).unwrap(); // torn garbage
    }

    // ---- "Second process": recover. ----
    let wal: Arc<dyn Wal> = Arc::new(FileWal::open(&path).unwrap());
    let mut sets = SignalSetFactories::new();
    sets.register("completion-broadcast", || {
        Box::new(BroadcastSignalSet::new("Done", "finished", Value::Null)) as _
    });
    let mut actions = ActionFactories::new();
    let replayed = Arc::new(parking_lot::Mutex::new(0u32));
    let replayed2 = Arc::clone(&replayed);
    actions.register("audit-action", move || {
        let replayed = Arc::clone(&replayed2);
        Arc::new(FnAction::new("audit", move |_s: &Signal| {
            *replayed.lock() += 1;
            Ok(Outcome::done())
        })) as _
    });
    let recovered = recover_activities(Arc::clone(&wal), &sets, &actions, SimClock::new()).unwrap();
    assert_eq!(recovered.roots.len(), 1);
    assert_eq!(recovered.incomplete.len(), 2);

    // The application drives the in-flight activities to completion —
    // children first ("application logic … is required to drive recovery").
    for activity in recovered.incomplete.iter().rev() {
        activity.complete().unwrap();
    }
    assert_eq!(*replayed.lock(), 1, "the recovered completion action ran");

    // Third incarnation: everything completed, so the recovered logger
    // released the whole tree with its root — and, the file by then all
    // released records, compacted it down to the newest one, which a log
    // keeps so its LSNs go on past it. Recovery is stable: nothing.
    let wal: Arc<dyn Wal> = Arc::new(FileWal::open(&path).unwrap());
    assert_eq!(wal.len(), 1, "a completed tree is released with its root");
    let recovered = recover_activities(wal, &sets, &actions, SimClock::new()).unwrap();
    assert!(recovered.incomplete.is_empty());
    assert!(recovered.completed.is_empty() && recovered.roots.is_empty());
    std::fs::remove_file(&path).unwrap();
}

/// Recovery of the activity-service logger composes with an OTS factory
/// sharing the SAME wal: mixed record kinds must not confuse either side.
#[test]
fn shared_wal_between_services() {
    let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let service = ActivityService::builder().wal(Arc::clone(&wal)).build();
    let tx_factory = TransactionFactory::with_wal(Arc::clone(&wal));
    let store = Arc::new(TransactionalKv::new("store"));

    let _activity = service.begin("mixed").unwrap();
    let control = tx_factory.create().unwrap();
    store.enlist(&control).unwrap();
    store.write(control.id(), "k", Value::from(9i64)).unwrap();
    control.terminator().commit().unwrap();
    service.complete().unwrap();

    // Both recoveries parse the shared log without tripping on each
    // other's record kinds.
    let resolver = |_: &str| -> Option<Arc<dyn Resource>> { None };
    let tx_report = TransactionFactory::with_wal(Arc::clone(&wal)).recover(&resolver).unwrap();
    assert!(tx_report.recommitted.is_empty(), "transaction completed before the crash");
    // The activity logger released its completed root, but the factory
    // never reaped: its hold pins the shared log, so the activity's records
    // are all still there for the logger's recovery to read.
    let recovered = recover_activities(
        wal,
        &SignalSetFactories::new(),
        &ActionFactories::new(),
        SimClock::new(),
    )
    .unwrap();
    assert_eq!(recovered.completed.len(), 1, "retained by the slower holder");
    assert!(recovered.incomplete.is_empty());
}

/// A shared log carries other components' records between the activity
/// logger's own (a store's checkpoint, say): they are opaque to the activity
/// layer and must not corrupt its replay.
#[test]
fn activity_log_tolerates_foreign_checkpoint_records() {
    let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    {
        let service = ActivityService::builder().wal(Arc::clone(&wal)).build();
        let _a = service.begin("job").unwrap();
        wal.append_durable(ots::durable::KIND_KV_CHECKPOINT, b"opaque").unwrap();
        let _b = service.begin("job-child").unwrap();
    }
    let recovered = recover_activities(
        wal,
        &SignalSetFactories::new(),
        &ActionFactories::new(),
        SimClock::new(),
    )
    .unwrap();
    assert_eq!(recovered.incomplete.len(), 2);
}

/// Group-commit durability matrix: the process dies in the torn window
/// *between* the leader's coalesced buffer write and its sync ([`CrashingWal`]
/// in sync-crash mode counts the barrier down). Sweep the crash point across
/// the first several flushes: every `append_durable` LSN that was
/// acknowledged before the crash must still be in the log after restart; the
/// unacked tail may tear — or, having been written before the failed sync,
/// may happen to survive. Both are legal; losing an acked record is not.
#[test]
fn group_commit_sync_crash_matrix_keeps_every_acked_lsn() {
    for syncs_before_crash in 0..4u32 {
        let group =
            GroupCommitWal::new(CrashingWal::with_sync_crash(MemWal::new(), syncs_before_crash));
        let mut acked: Vec<u64> = Vec::new();
        let mut crashed = false;
        for i in 0..8u32 {
            match group.append_durable(0x0103, format!("decision-{i}").as_bytes()) {
                Ok(lsn) => acked.push(lsn.raw()),
                Err(err) => {
                    assert!(
                        matches!(err, LogError::CrashInjected(ref site) if site == "wal.sync"),
                        "cell {syncs_before_crash}: expected a sync crash, got {err:?}"
                    );
                    crashed = true;
                    break;
                }
            }
        }
        assert!(crashed, "cell {syncs_before_crash}: the armed sync crash must fire");
        assert_eq!(acked.len(), syncs_before_crash as usize);

        // Restart: disarm the fault, discard the staged (never-flushed)
        // tail, re-adopt whatever the sink physically holds.
        group.inner().defuse();
        group.recover_from_sink();
        let survived: Vec<u64> =
            group.scan(Lsn::new(0)).unwrap().iter().map(|r| r.lsn.raw()).collect();
        for lsn in &acked {
            assert!(
                survived.contains(lsn),
                "cell {syncs_before_crash}: acked LSN {lsn} lost; survivors {survived:?}"
            );
        }
        // The record whose sync crashed was written before the barrier
        // failed: it may survive as an unacked orphan, never as a gap.
        assert!(survived.len() >= acked.len());
        assert!(survived.len() <= acked.len() + 1, "at most the one torn-window record extra");

        // The restarted log continues cleanly past the survivors.
        let next = group.append_durable(0x0103, b"post-restart").unwrap();
        assert_eq!(next.raw(), survived.len() as u64 + 1);
    }
}

/// The same torn window under a full 2PC commit: the coordinator's forced
/// decision write crashes between the batch write and the sync, so the
/// commit call fails — but the decision record physically reached the sink.
/// Recovery must then push the commit through: the decision on disk, not
/// the lost acknowledgement, is the truth.
#[test]
fn group_commit_sync_crash_during_decision_recovers_from_surviving_batch() {
    let group = Arc::new(GroupCommitWal::new(CrashingWal::with_sync_crash(MemWal::new(), 0)));
    let wal: Arc<dyn Wal> = Arc::clone(&group) as Arc<dyn Wal>;
    let factory = TransactionFactory::with_wal(Arc::clone(&wal));
    let store = Arc::new(TransactionalKv::new("store"));
    let witness = Arc::new(TransactionalKv::new("witness"));

    let control = factory.create().unwrap();
    store.enlist(&control).unwrap();
    witness.enlist(&control).unwrap();
    store.write(control.id(), "k", Value::from(1i64)).unwrap();
    witness.write(control.id(), "w", Value::from(2i64)).unwrap();
    let result = control.terminator().commit();
    assert!(
        matches!(result, Err(TxError::Log(_))),
        "the decision barrier must crash the commit, got {result:?}"
    );
    assert_eq!(group.durable_lsn().raw(), 0, "nothing was ever acknowledged durable");

    // Restart over the surviving sink.
    group.inner().defuse();
    group.recover_from_sink();
    assert!(
        group
            .scan(Lsn::new(0))
            .unwrap()
            .iter()
            .any(|r| r.kind == ots::txlog::KIND_TX_DECISION),
        "the decision batch was written before the sync crashed"
    );
    let store2 = Arc::clone(&store);
    let witness2 = Arc::clone(&witness);
    let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
        match name {
            "store" => Some(store2.clone()),
            "witness" => Some(witness2.clone()),
            _ => None,
        }
    };
    let report = TransactionFactory::with_wal(wal).recover(&resolver).unwrap();
    assert_eq!(report.recommitted.len(), 1, "the surviving decision must recommit");
    assert_eq!(store.read_committed("k"), Some(Value::from(1i64)));
    assert_eq!(witness.read_committed("w"), Some(Value::from(2i64)));
}

/// Concurrent-committer durability stress: 16 threads each force 25 records
/// through one [`GroupCommitWal`] over a real file. Every acknowledged LSN
/// must survive a full process restart (fresh [`FileWal`] over the same
/// path), the LSN space must be dense, and the batching must have actually
/// shared sync barriers across committers.
#[test]
fn sixteen_concurrent_committers_survive_restart() {
    const THREADS: usize = 16;
    const COMMITS_PER_THREAD: usize = 25;
    let path = {
        let mut p = std::env::temp_dir();
        p.push(format!("group-stress-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    };

    let tel = telemetry::Telemetry::new();
    let acked: Vec<u64> = {
        let group =
            Arc::new(GroupCommitWal::new(FileWal::open(&path).unwrap()).metered_by(&tel));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let group = Arc::clone(&group);
            handles.push(std::thread::spawn(move || {
                let mut acked = Vec::with_capacity(COMMITS_PER_THREAD);
                for i in 0..COMMITS_PER_THREAD {
                    let payload = format!("commit-{t}-{i}");
                    acked.push(
                        group.append_durable(0x0103, payload.as_bytes()).unwrap().raw(),
                    );
                }
                acked
            }));
        }
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    };

    let total = THREADS * COMMITS_PER_THREAD;
    let mut sorted = acked.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), total, "acked LSNs must be unique");
    assert_eq!(sorted.first(), Some(&1));
    assert_eq!(sorted.last(), Some(&(total as u64)), "LSN space must be dense");

    let syncs = tel.metrics().counter_value("wal_syncs_total");
    assert!(syncs >= 1);
    assert!(
        (syncs as usize) < total,
        "group commit must share barriers: {syncs} syncs for {total} forced records"
    );

    // "Restart": a brand-new FileWal over the same path sees every acked
    // record.
    let reopened = FileWal::open(&path).unwrap();
    let survived: std::collections::BTreeSet<u64> =
        reopened.scan(Lsn::new(0)).unwrap().iter().map(|r| r.lsn.raw()).collect();
    for lsn in &acked {
        assert!(survived.contains(lsn), "acked LSN {lsn} missing after restart");
    }
    std::fs::remove_file(&path).unwrap();
}

/// Unique scratch path for the file-backed compaction cells.
fn compaction_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "crash-matrix-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(p.with_extension("compact-tmp"));
    p
}

/// Build the pre-compaction log (LSNs 1..=10) at `path` and return the
/// exact bytes a compaction below LSN 8 writes to its `.compact-tmp`
/// sibling before the rename — obtained by running the real compaction
/// against a throwaway copy of the log, triggered the way it is in
/// service: the log's one holder releases below 8, which leaves the file
/// more released bytes (seven records) than retained ones (three).
fn stage_compaction(path: &std::path::Path) -> Vec<u8> {
    {
        let wal = FileWal::open(path).unwrap();
        for i in 0..10u32 {
            wal.append(i + 1, &i.to_be_bytes()).unwrap();
        }
        wal.sync().unwrap();
    }
    let donor = path.with_extension("donor");
    std::fs::copy(path, &donor).unwrap();
    let compacting = FileWal::open(&donor).unwrap();
    compacting.hold().unwrap().release_below(Lsn::new(8)).unwrap();
    let new_bytes = std::fs::read(&donor).unwrap();
    assert!(new_bytes.len() < std::fs::read(path).unwrap().len(), "the release compacted");
    std::fs::remove_file(&donor).unwrap();
    new_bytes
}

fn lsns_of(wal: &FileWal) -> Vec<u64> {
    wal.scan(Lsn::new(0)).unwrap().iter().map(|r| r.lsn.raw()).collect()
}

/// Torn-compaction matrix, pre-rename side: a `FileWal` compaction
/// writes the retained suffix to a temp sibling, fsyncs it, then atomically
/// renames it over the log. Crash anywhere BEFORE the rename — sweep the
/// number of temp-file bytes that reached disk from zero to all of them —
/// and reopening the log path must see the complete OLD record set. The
/// orphaned `.compact-tmp` is never read; it is debris, not state. Old or
/// new, never a mix.
#[test]
fn compaction_crash_before_rename_keeps_the_old_complete_log() {
    let path = compaction_path("compact-pre-rename");
    let new_bytes = stage_compaction(&path);
    let old_bytes = std::fs::read(&path).unwrap();
    let tmp = path.with_extension("compact-tmp");
    let old_lsns: Vec<u64> = (1..=10).collect();

    for written in 0..=new_bytes.len() {
        std::fs::write(&tmp, &new_bytes[..written]).unwrap();
        let wal = FileWal::open(&path).unwrap();
        assert_eq!(
            lsns_of(&wal),
            old_lsns,
            "cell {written}/{}: a crash before the rename must leave the old log whole",
            new_bytes.len()
        );
        assert_eq!(wal.next_lsn(), Lsn::new(11));
        drop(wal);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            old_bytes,
            "cell {written}: reopening must not rewrite the untouched log"
        );
    }

    // The restarted log continues cleanly past the survivors.
    let wal = FileWal::open(&path).unwrap();
    assert_eq!(wal.append(99, b"post-crash").unwrap(), Lsn::new(11));
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&tmp).unwrap();
}

/// Torn-compaction matrix, post-rename side: once `std::fs::rename` has
/// happened the new prefix IS the log — reopening sees exactly the retained
/// records (LSNs 8..=10), the LSN space is preserved across the compaction
/// (next append is 11, not 4), and no temp debris remains because the
/// rename consumed it. Again: old or new, never a mix.
#[test]
fn compaction_crash_after_rename_sees_exactly_the_new_prefix() {
    let path = compaction_path("compact-post-rename");
    let new_bytes = stage_compaction(&path);
    let tmp = path.with_extension("compact-tmp");

    // Replay the compaction's final two steps: the fully synced temp file,
    // then the atomic swap. The crash lands immediately after.
    std::fs::write(&tmp, &new_bytes).unwrap();
    std::fs::rename(&tmp, &path).unwrap();

    let wal = FileWal::open(&path).unwrap();
    assert_eq!(lsns_of(&wal), vec![8, 9, 10], "exactly the new prefix, nothing mixed in");
    assert_eq!(wal.next_lsn(), Lsn::new(11), "the LSN space survives compaction");
    assert!(!tmp.exists(), "the rename consumed the temp file");
    assert_eq!(wal.append(99, b"post-crash").unwrap(), Lsn::new(11));
    std::fs::remove_file(&path).unwrap();
}

/// Drain cell: a file log released to its end reopens where it left off.
/// The factory reaps three committed transactions and releases its whole
/// log; the compaction keeps the newest record only (a `TX_COMPLETED`,
/// which recovery ignores on its own), so the restarted log hands out the
/// LSN after everything ever appended — not LSN 1 again — and nothing is in
/// doubt.
#[test]
fn a_drained_file_log_reopens_past_its_history_with_nothing_in_doubt() {
    let path = compaction_path("drained");
    let store = Arc::new(TransactionalKv::new("store"));
    let witness = Arc::new(TransactionalKv::new("witness"));
    let appended = {
        let wal: Arc<dyn Wal> = Arc::new(FileWal::open(&path).unwrap());
        let factory = TransactionFactory::with_wal(Arc::clone(&wal));
        for i in 0..3i64 {
            let control = factory.create().unwrap();
            store.enlist(&control).unwrap();
            witness.enlist(&control).unwrap();
            store.write(control.id(), "k", Value::from(i)).unwrap();
            witness.write(control.id(), "w", Value::from(i)).unwrap();
            control.terminator().commit().unwrap();
        }
        assert_eq!(factory.reap_completed(), 3);
        assert!(wal.is_empty(), "the reap released the whole log");
        wal.next_lsn().raw() - 1
    };

    let wal: Arc<dyn Wal> = Arc::new(FileWal::open(&path).unwrap());
    assert_eq!(wal.next_lsn(), Lsn::new(appended + 1), "the LSN space survives the drain");
    let (store2, witness2) = (Arc::clone(&store), Arc::clone(&witness));
    let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
        match name {
            "store" => Some(store2.clone()),
            "witness" => Some(witness2.clone()),
            _ => None,
        }
    };
    let report = TransactionFactory::with_wal(Arc::clone(&wal)).recover(&resolver).unwrap();
    assert!(report.recommitted.is_empty() && report.presumed_aborted.is_empty());
    assert!(report.unresolved.is_empty() && report.retain_from.is_none(), "nothing in doubt");
    assert_eq!(store.read_committed("k"), Some(Value::from(2i64)));
    assert_eq!(wal.append(99, b"next incarnation").unwrap(), Lsn::new(appended + 1));
    std::fs::remove_file(&path).unwrap();
}

/// Participant-side termination cells: the participant dies BETWEEN
/// forcing its prepared record and applying the outcome, restarts from its
/// own WAL, and resolves the doubt itself by interrogating
/// `replay_completion` on the coordinator's `RecoveryCoordinator` servant
/// over the simulated ORB. Returns the durable-decision fact and the two
/// restarted stores for the per-cell assertions.
fn participant_crash_cell(
    arms: &[(&str, u32)],
) -> (bool, Arc<ots::DurableKv>, Arc<ots::DurableKv>) {
    let coordinator_wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let participant_wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let failpoints = FailpointSet::new();
    for (site, after) in arms {
        failpoints.arm((*site).to_owned(), *after);
    }

    let factory = failpoint_factory(&coordinator_wal, &failpoints);
    let store = recoverable_store("store", &participant_wal, &failpoints);
    let witness = recoverable_store("witness", &participant_wal, &failpoints);
    let control = factory.create().unwrap();
    for (kv, resource) in [&store, &witness] {
        control.coordinator().register_resource(Arc::clone(resource) as Arc<dyn Resource>).unwrap();
        let (key, value) = if kv.name() == "store" { ("k", 1i64) } else { ("w", 2i64) };
        kv.store().write(control.id(), key, Value::from(value)).unwrap();
    }
    let result = control.terminator().commit();
    assert!(result.is_err(), "the armed participant crash must fail the commit: {result:?}");
    failpoints.clear();

    let decision_durable = coordinator_wal
        .scan(Lsn::new(0))
        .unwrap()
        .iter()
        .any(|r| r.kind == ots::txlog::KIND_TX_DECISION);

    // Restart the participant "process" from its surviving WAL.
    let store2 = restarted_store("store", &participant_wal);
    let witness2 = restarted_store("witness", &participant_wal);
    assert!(
        store2.1.in_doubt().len() + witness2.1.in_doubt().len() >= 1,
        "this matrix cell must leave at least one transaction in doubt"
    );

    // Interrogation over the ORB: the coordinator's log answers.
    for participant in [&store2.1, &witness2.1] {
        let report = interrogate(participant, &coordinator_wal);
        assert!(report.unresolved.is_empty(), "interrogation must answer every doubt");
        assert!(report.heuristic.is_empty(), "an answerable history needs no heuristic");
        assert!(participant.in_doubt().is_empty());
    }
    (decision_durable, store2.0, witness2.0)
}

/// Commit side: the decision was forced durably, then every participant
/// died before applying the outcome. Interrogation finds the decision
/// record and pushes the commit through.
#[test]
fn participant_crash_before_outcome_delivery_resolves_to_commit() {
    let (decided, store, witness) =
        participant_crash_cell(&[("ots.recovery.before_apply", 0)]);
    assert!(decided, "phase one completed: the decision record is durable");
    assert_eq!(store.store().read_committed("k"), Some(Value::from(1i64)));
    assert_eq!(witness.store().read_committed("w"), Some(Value::from(2i64)));
}

/// Presumed-abort side: the witness dies right after forcing its prepared
/// record (its vote surfaces as Failed), and the rollback delivery to the
/// dying process is lost with it. No decision record exists, so the
/// restarted participant's interrogation answers `rolled_back`.
#[test]
fn participant_crash_during_prepare_presumed_aborts_via_interrogation() {
    let (decided, store, witness) = participant_crash_cell(&[
        ("ots.recovery.after_prepared", 1),
        ("ots.recovery.before_apply", 1),
    ]);
    assert!(!decided, "the veto aborted the transaction before any decision");
    assert_eq!(store.store().read_committed("k"), None);
    assert_eq!(witness.store().read_committed("w"), None);
}

// ---- Retention cells (DESIGN.md §12, "Retention") -------------------------

/// A recoverable, durable store on `wal`: the `DurableKv` and the
/// `RecoverableResource` wrapped around it, each holding the log.
fn recoverable_store(
    name: &str,
    wal: &Arc<dyn Wal>,
    failpoints: &FailpointSet,
) -> (Arc<ots::DurableKv>, Arc<ots::RecoverableResource>) {
    let kv = ots::DurableKv::new(name, Arc::clone(wal));
    let resource = ots::RecoverableResource::new(
        Arc::clone(&kv) as Arc<dyn Resource>,
        Arc::clone(wal),
        "coordinator",
    )
    .with_failpoints(failpoints.clone());
    (kv, Arc::new(resource))
}

/// The restarted halves of [`recoverable_store`], in restart order: every
/// component takes its fresh hold (at LSN 0) before any of them works.
fn restarted_store(
    name: &str,
    wal: &Arc<dyn Wal>,
) -> (Arc<ots::DurableKv>, Arc<ots::RecoverableResource>) {
    let kv = ots::DurableKv::recover(name, Arc::clone(wal)).unwrap();
    let resource = ots::RecoverableResource::recover(
        Arc::clone(&kv) as Arc<dyn Resource>,
        Arc::clone(wal),
        "coordinator",
    )
    .unwrap();
    (kv, Arc::new(resource))
}

/// One committed transaction writing `key = value` at each of `stores`.
fn commit_at(
    factory: &TransactionFactory,
    stores: &[&(Arc<ots::DurableKv>, Arc<ots::RecoverableResource>)],
    key: &str,
    value: i64,
) -> Result<ots::TxId, TxError> {
    let control = factory.create().unwrap();
    for (kv, resource) in stores {
        control.coordinator().register_resource(Arc::clone(resource) as Arc<dyn Resource>)?;
        kv.store().write(control.id(), key, Value::from(value))?;
    }
    control.terminator().commit().map(|_| control.id().clone())
}

/// Have `participant` interrogate the `RecoveryCoordinator` over
/// `coordinator_wal` for everything it holds in doubt.
fn interrogate(
    participant: &ots::RecoverableResource,
    coordinator_wal: &Arc<dyn Wal>,
) -> ots::recovery::ResolutionReport {
    use ots::recovery::{CoordinatorLocator, RECOVERY_COORDINATOR_INTERFACE};
    let orb = orb::Orb::builder()
        .network(orb::NetworkConfig::reliable())
        .clock(SimClock::new())
        .build();
    let coordinator_node = orb.add_node("coordinator").unwrap();
    orb.add_node("participant").unwrap();
    let object = coordinator_node
        .activate(
            RECOVERY_COORDINATOR_INTERFACE,
            ots::RecoveryCoordinator::new(Arc::clone(coordinator_wal)),
        )
        .unwrap();
    let locate: CoordinatorLocator =
        Arc::new(move |node: &str| (node == "coordinator").then(|| object.clone()));
    let config = ots::ResolutionConfig::new(
        orb::RetryPolicy::new(3),
        std::time::Duration::from_secs(60),
    );
    participant.resolve_in_doubt(&orb, "participant", &locate, &config).unwrap()
}

/// Cell (a): one log shared by a factory, two `RecoverableResource`s and
/// the two `DurableKv`s under them. The factory and the resources release
/// as their transactions finish; the stores' committed state lives in the
/// log until they checkpoint, so they pin it — nothing a holder still needs
/// is ever dropped, and the log shrinks exactly when the slowest moves.
#[test]
fn a_shared_log_is_released_at_the_pace_of_its_slowest_holder() {
    let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let failpoints = FailpointSet::new();
    // Serial dispatch: the order of the records below is then the order of
    // registration, not of the pool's scheduling.
    let factory = TransactionFactory::with_wal(Arc::clone(&wal))
        .with_dispatch(ots::DispatchConfig::serial());
    let store = recoverable_store("store", &wal, &failpoints);
    let witness = recoverable_store("witness", &wal, &failpoints);
    for i in 0..8i64 {
        commit_at(&factory, &[&store, &witness], &format!("k{i}"), i).unwrap();
        assert_eq!(factory.reap_completed(), 1);
    }
    // Three of the five holders have released everything they wrote; the
    // stores have not checkpointed, and the log is whole.
    let appended = wal.next_lsn().raw() - 1;
    assert_eq!(wal.len() as u64, appended, "the stores' redo records pin the log");
    let restarted = ots::DurableKv::recover("store", Arc::clone(&wal)).unwrap();
    assert_eq!(restarted.store().read_committed("k7"), Some(Value::from(7i64)));
    drop(restarted);

    // One store checkpoints: it would let go, the other still pins.
    store.0.checkpoint().unwrap();
    assert_eq!(wal.len() as u64, appended + 1);
    // A transaction left prepared across the second checkpoint keeps its
    // redo record (and the participant's in-doubt record) under it.
    let in_doubt = ots::TxId::top_level(99);
    witness.0.store().write(&in_doubt, "pending", Value::from(1i64)).unwrap();
    assert_eq!(witness.1.prepare(&in_doubt).unwrap(), ots::Vote::Commit);
    witness.0.checkpoint().unwrap();
    // Now every holder has moved and the log is short. The slowest is the
    // idle `store` participant, which sits where it last released — at its
    // own last outcome, three records before the first checkpoint.
    let left: Vec<u32> = wal.scan(Lsn::new(0)).unwrap().iter().map(|r| r.kind).collect();
    assert_eq!(
        left,
        [
            ots::recovery::KIND_RES_RESOLVED,
            ots::durable::KIND_KV_COMMITTED,
            ots::txlog::KIND_TX_COMPLETED,
            ots::durable::KIND_KV_CHECKPOINT,
            ots::durable::KIND_KV_PREPARED,
            ots::recovery::KIND_RES_PREPARED,
            ots::durable::KIND_KV_CHECKPOINT,
        ],
        "{appended} records were appended"
    );

    // A restart over what is left loses nothing: both checkpoints, the
    // prepared workspace and the doubt.
    drop((factory, store, witness));
    let store = restarted_store("store", &wal);
    let witness = restarted_store("witness", &wal);
    for i in 0..8i64 {
        assert_eq!(store.0.store().read_committed(&format!("k{i}")), Some(Value::from(i)));
        assert_eq!(witness.0.store().read_committed(&format!("k{i}")), Some(Value::from(i)));
    }
    assert_eq!(witness.1.in_doubt().len(), 1);
    assert!(store.1.in_doubt().is_empty());
    witness.1.commit(&in_doubt).unwrap();
    assert_eq!(witness.0.store().read_committed("pending"), Some(Value::from(1i64)));
}

/// Cell (b): a commit whose phase two one participant never acknowledged
/// (it died before applying). The coordinator finishes, reaps and goes on
/// releasing behind three hundred later transactions — but not past that
/// decision: the participant restarts in doubt, interrogates, and must
/// still learn `committed`. A forgotten decision would answer presumed
/// abort.
#[test]
fn an_unacknowledged_decision_outlives_the_reap_and_a_coordinator_restart() {
    let coordinator_wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let participant_wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let failpoints = FailpointSet::new();
    let factory = TransactionFactory::with_wal(Arc::clone(&coordinator_wal))
        .with_dispatch(ots::DispatchConfig::serial());
    let store = recoverable_store("store", &participant_wal, &failpoints);
    let witness = recoverable_store("witness", &participant_wal, &failpoints);

    let acknowledged = commit_at(&factory, &[&store, &witness], "a", 1).unwrap();
    // The participants die with the outcome in hand: `before_apply` is
    // passed once per delivery, and a fired failpoint stays dead.
    failpoints.arm("ots.recovery.before_apply", 0);
    let hazard = commit_at(&factory, &[&store, &witness], "b", 2);
    assert!(matches!(hazard, Err(TxError::Heuristic { .. })), "got {hazard:?}");
    failpoints.clear();
    let witness_only = recoverable_store("w2", &participant_wal, &failpoints);
    for i in 0..300i64 {
        commit_at(&factory, &[&witness_only], "c", i).unwrap();
        factory.reap_completed();
    }
    let retained = coordinator_wal.len();
    assert!(retained > 300, "everything from the unacknowledged commit on is kept: {retained}");

    let answers = |wal: &Arc<dyn Wal>| {
        let coordinator = ots::RecoveryCoordinator::new(Arc::clone(wal));
        let in_doubt = ots::TxId::top_level(acknowledged.top_seq() + 1);
        (
            coordinator.replay_completion(&acknowledged).unwrap(),
            coordinator.replay_completion(&in_doubt).unwrap(),
        )
    };
    use ots::recovery::ReplayStatus::{Committed, RolledBack};
    assert_eq!(
        answers(&coordinator_wal),
        (RolledBack, Committed),
        "the acknowledged transaction is forgotten, the unacknowledged decision is not"
    );

    // The coordinator restarts too: the log says which completion was never
    // acknowledged, so the new factory keeps holding from there.
    drop(factory);
    let factory = TransactionFactory::with_wal(Arc::clone(&coordinator_wal));
    let none = |_: &str| -> Option<Arc<dyn Resource>> { None };
    let report = factory.recover(&none).unwrap();
    assert!(report.recommitted.is_empty() && report.presumed_aborted.is_empty());
    assert_eq!(report.retain_from, coordinator_wal.scan(Lsn::new(0)).unwrap().first().map(|r| r.lsn));
    commit_at(&factory, &[&witness_only], "c", 300).unwrap();
    factory.reap_completed();
    assert_eq!(answers(&coordinator_wal), (RolledBack, Committed));

    // The participant restarts in doubt and resolves it by asking.
    drop((store, witness));
    let store = restarted_store("store", &participant_wal);
    assert_eq!(store.1.in_doubt().len(), 1);
    let report = interrogate(&store.1, &coordinator_wal);
    assert_eq!(report.committed.len(), 1, "{report:?}");
    assert_eq!(store.0.store().read_committed("b"), Some(Value::from(2i64)));
}

/// A participant that, while it is being told to commit, begins the next
/// transaction — so that transaction's begin record lands between this
/// one's decision and its completion record.
struct BeginsTheNext {
    // Weak: the factory's table holds the coordinator this is registered at.
    factory: std::sync::Weak<TransactionFactory>,
    next: parking_lot::Mutex<Option<ots::Control>>,
}

impl Resource for BeginsTheNext {
    fn prepare(&self, _tx: &ots::TxId) -> Result<ots::Vote, TxError> {
        Ok(ots::Vote::Commit)
    }
    fn commit(&self, _tx: &ots::TxId) -> Result<(), TxError> {
        *self.next.lock() = Some(self.factory.upgrade().expect("factory is up").create()?);
        Ok(())
    }
    fn rollback(&self, _tx: &ots::TxId) -> Result<(), TxError> {
        Ok(())
    }
    fn resource_name(&self) -> &str {
        "begins-the-next"
    }
}

/// What a restart finds after [`crash_with_or_without_a_release`].
#[derive(Debug, PartialEq)]
struct Aftermath {
    recommitted: Vec<ots::TxId>,
    presumed_aborted: Vec<ots::TxId>,
    in_doubt: Vec<ots::TxId>,
    stored: Option<Value>,
}

/// Cell (c)'s scenario. Transaction A commits; transaction B begins inside
/// A's phase two, prepares at a recoverable store, forces its decision —
/// and the coordinator dies. With `release`, A is reaped in between, which
/// drops the coordinator's log up to B's begin record (leaving A's
/// completion record alone above it) and the participant's up to B's
/// prepared record.
fn crash_with_or_without_a_release(release: bool) -> (Aftermath, usize, usize) {
    let coordinator_wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let participant_wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let failpoints = FailpointSet::new();
    let factory = Arc::new(
        failpoint_factory(&coordinator_wal, &failpoints)
            .with_dispatch(ots::DispatchConfig::serial()),
    );
    let store = recoverable_store("store", &participant_wal, &failpoints);
    let witness = recoverable_store("witness", &participant_wal, &failpoints);
    let spawner =
        Arc::new(BeginsTheNext { factory: Arc::downgrade(&factory), next: Default::default() });

    let a = factory.create().unwrap();
    a.coordinator().register_resource(Arc::clone(&store.1) as Arc<dyn Resource>).unwrap();
    a.coordinator().register_resource(Arc::clone(&spawner) as Arc<dyn Resource>).unwrap();
    store.0.store().write(a.id(), "k", Value::from(1i64)).unwrap();
    a.terminator().commit().unwrap();
    let b = spawner.next.lock().take().expect("A's phase two began B");
    // The stores checkpoint, so their hold is not what keeps A's records.
    store.0.checkpoint().unwrap();
    witness.0.checkpoint().unwrap();
    if release {
        assert_eq!(factory.reap_completed(), 1, "A is finished, B is live");
        let kinds: Vec<u32> =
            coordinator_wal.scan(Lsn::new(0)).unwrap().iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            [ots::txlog::KIND_TX_BEGUN, ots::txlog::KIND_TX_COMPLETED],
            "B's begin record, then A's completion record on its own"
        );
    }
    for (kv, resource) in [&store, &witness] {
        b.coordinator().register_resource(Arc::clone(resource) as Arc<dyn Resource>).unwrap();
        kv.store().write(b.id(), "k", Value::from(2i64)).unwrap();
    }
    failpoints.arm("ots.after_decision", 0);
    assert!(matches!(b.terminator().commit(), Err(TxError::Log(_))));
    failpoints.clear();
    let survived = (coordinator_wal.len(), participant_wal.len());
    drop((a, b, spawner, factory, store, witness));

    // Restart. Order matters and is pinned here: every restarted component
    // takes its fresh hold before anything works, and a factory over a log
    // it has not read yet releases nothing however often it reaps.
    let store = restarted_store("store", &participant_wal);
    let witness = restarted_store("witness", &participant_wal);
    let factory = TransactionFactory::with_wal(Arc::clone(&coordinator_wal));
    factory.reap_completed();
    assert_eq!((coordinator_wal.len(), participant_wal.len()), survived);
    let in_doubt = store.1.in_doubt().into_iter().map(|(tx, _)| tx).collect();
    assert_eq!(witness.1.in_doubt().len(), 1);
    let (store2, witness2) = (Arc::clone(&store.1), Arc::clone(&witness.1));
    let resolver = move |name: &str| -> Option<Arc<dyn Resource>> {
        match name {
            "store" => Some(store2.clone()),
            "witness" => Some(witness2.clone()),
            _ => None,
        }
    };
    let report = factory.recover(&resolver).unwrap();
    assert_eq!(report.retain_from, None, "every redelivery was acknowledged");
    let aftermath = Aftermath {
        recommitted: report.recommitted,
        presumed_aborted: report.presumed_aborted,
        in_doubt,
        stored: store.0.store().read_committed("k"),
    };
    // Recovery ran: the next reap may release what it finished.
    factory.reap_completed();
    assert!(coordinator_wal.is_empty(), "nothing is live on the coordinator");
    (aftermath, survived.0, survived.1)
}

/// Cell (c): a crash right after a release. Both recoveries resolve the
/// same in-doubt set, to the same outcome, as over the unreleased log; the
/// released log is just shorter, and the completion record a release left
/// standing alone is ignored.
#[test]
fn recovery_after_a_release_resolves_what_it_would_have_without_it() {
    let (kept, kept_coordinator, kept_participant) = crash_with_or_without_a_release(false);
    let (released, coordinator, participant) = crash_with_or_without_a_release(true);
    assert_eq!(released, kept);
    assert_eq!(released.recommitted.len(), 1);
    assert_eq!(released.in_doubt, released.recommitted);
    assert_eq!(released.stored, Some(Value::from(2i64)));
    assert!(coordinator < kept_coordinator, "{coordinator} vs {kept_coordinator}");
    assert_eq!(participant, kept_participant, "the stores' checkpoints released it either way");
}

/// Cell (d): sixteen committers, each reaping (and so releasing) every
/// eighth commit, against each other's appends under one `GroupCommitWal`.
/// A transaction begun before the storm and left live pins the log
/// throughout: not one record from its begin record on may go missing,
/// whatever the interleaving. Once it finishes, the log drains.
#[test]
fn sixteen_committers_release_against_concurrent_appends() {
    const THREADS: usize = 16;
    const COMMITS_PER_THREAD: usize = 64;
    let group = Arc::new(GroupCommitWal::new(MemWal::new()));
    let wal: Arc<dyn Wal> = Arc::clone(&group) as Arc<dyn Wal>;
    let factory = Arc::new(TransactionFactory::with_wal(Arc::clone(&wal)));
    let pinned = factory.create().unwrap();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let factory = Arc::clone(&factory);
            scope.spawn(move || {
                let stores = [format!("a{t}"), format!("b{t}")]
                    .map(|name| Arc::new(TransactionalKv::new(name)));
                for i in 0..COMMITS_PER_THREAD {
                    let control = factory.create().unwrap();
                    for store in &stores {
                        store.enlist(&control).unwrap();
                        store.write(control.id(), "k", Value::from(i as i64)).unwrap();
                    }
                    control.terminator().commit().unwrap();
                    if i % 8 == 7 {
                        factory.reap_completed();
                    }
                }
                for store in &stores {
                    let last = Value::from(COMMITS_PER_THREAD as i64 - 1);
                    assert_eq!(store.read_committed("k"), Some(last));
                }
            });
        }
    });

    factory.reap_completed();
    let lsns: Vec<u64> = wal.scan(Lsn::new(0)).unwrap().iter().map(|r| r.lsn.raw()).collect();
    let appended = (THREADS * COMMITS_PER_THREAD * 4 + 1) as u64;
    assert_eq!(lsns, (1..=appended).collect::<Vec<u64>>(), "the live transaction pinned it all");
    pinned.terminator().rollback().unwrap();
    // A release stops at the durable LSN; the rollback's completion record
    // was not forced, so flush it for the log to drain completely.
    wal.sync().unwrap();
    factory.reap_completed();
    assert!(wal.is_empty(), "nothing is live: {} records left", wal.len());
    assert_eq!(wal.next_lsn(), Lsn::new(appended + 2), "LSNs keep counting past a drained log");
}

/// The counted gate behind the `native_2pc_mem` memory claim: a hundred
/// thousand commits, reaped every 256th, never retain more than the four
/// records of each transaction since the reap before last.
#[test]
fn a_sustained_run_keeps_a_constant_log() {
    const REAP_EVERY: usize = 256;
    let wal: Arc<dyn Wal> = Arc::new(GroupCommitWal::new(MemWal::new()));
    let factory = TransactionFactory::with_wal(Arc::clone(&wal))
        .with_dispatch(ots::DispatchConfig::serial());
    let stores = ["p0", "p1"].map(|name| Arc::new(TransactionalKv::new(name)));
    let mut most = 0;
    for i in 0..100_000usize {
        let control = factory.create().unwrap();
        for store in &stores {
            store.enlist(&control).unwrap();
            store.write(control.id(), "k", Value::from(i as i64)).unwrap();
        }
        control.terminator().commit().unwrap();
        if (i + 1) % REAP_EVERY == 0 {
            most = most.max(wal.len());
            factory.reap_completed();
            // Nothing is live at a reap; the last completion record, never
            // forced, is still staged above the durable LSN a release stops
            // at, and goes with the next one.
            assert!(wal.len() <= 1, "commit {i}: {} records kept", wal.len());
        }
    }
    assert!(most <= 4 * REAP_EVERY + 4, "retained {most} records at the worst");
    assert_eq!(wal.next_lsn(), Lsn::new(400_001));
}

/// Make sure ActivityLogger is reachable for documentation users.
#[test]
fn activity_logger_is_constructible() {
    let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let logger = ActivityLogger::new(Arc::clone(&wal));
    assert_eq!(logger.wal().next_lsn(), recovery_log::Lsn::new(1));
}

/// Components share logs (a workflow journal and a `RecoverableResource` on
/// one WAL is the documented deployment), and each finds its own records by
/// kind alone: no two kinds may share a number.
#[test]
fn record_kinds_are_pairwise_distinct() {
    use activity_service::{exactly_once, recovery as activity_recovery};
    use ots::{durable, recovery as resource_recovery, txlog};
    let kinds = [
        ("txlog::KIND_TX_BEGUN", txlog::KIND_TX_BEGUN),
        ("txlog::KIND_TX_PREPARED", txlog::KIND_TX_PREPARED),
        ("txlog::KIND_TX_DECISION", txlog::KIND_TX_DECISION),
        ("txlog::KIND_TX_COMPLETED", txlog::KIND_TX_COMPLETED),
        ("durable::KIND_KV_PREPARED", durable::KIND_KV_PREPARED),
        ("durable::KIND_KV_COMMITTED", durable::KIND_KV_COMMITTED),
        ("durable::KIND_KV_ABORTED", durable::KIND_KV_ABORTED),
        ("durable::KIND_KV_CHECKPOINT", durable::KIND_KV_CHECKPOINT),
        ("ots::recovery::KIND_RES_PREPARED", resource_recovery::KIND_RES_PREPARED),
        ("ots::recovery::KIND_RES_RESOLVED", resource_recovery::KIND_RES_RESOLVED),
        ("ots::recovery::KIND_RES_HEURISTIC", resource_recovery::KIND_RES_HEURISTIC),
        ("KIND_ACT_BEGUN", activity_recovery::KIND_ACT_BEGUN),
        ("KIND_ACT_SIGNAL_SET", activity_recovery::KIND_ACT_SIGNAL_SET),
        ("KIND_ACT_ACTION", activity_recovery::KIND_ACT_ACTION),
        ("KIND_ACT_STATUS", activity_recovery::KIND_ACT_STATUS),
        ("KIND_ACT_COMPLETION_SET", activity_recovery::KIND_ACT_COMPLETION_SET),
        ("KIND_ACT_COMPLETED", activity_recovery::KIND_ACT_COMPLETED),
        ("KIND_SIGNAL_PROCESSED", exactly_once::KIND_SIGNAL_PROCESSED),
        ("KIND_WF_TASK_DONE", wfengine::journal::KIND_WF_TASK_DONE),
    ];
    for (i, (name, kind)) in kinds.iter().enumerate() {
        for (other, same) in &kinds[i + 1..] {
            assert_ne!(kind, same, "{name} and {other} are both {kind:#06x}");
        }
    }
}
