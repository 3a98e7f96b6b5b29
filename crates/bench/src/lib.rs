//! Workload builders for the figure-regeneration harness
//! (`cargo run -p bench --bin figures`).
//!
//! Each function here implements one experiment's workload from DESIGN.md's
//! per-experiment index; `figures` prints the table, `tests/fig*.rs` assert
//! the shapes. Wall-clock numbers come from `benchmarks/` (DESIGN.md §5).

use std::sync::Arc;
use std::time::Duration;

use activity_service::{
    Action, Activity, ActivityService, CompletionStatus, FnAction, Outcome, Signal,
};
use orb::{Env, SimClock, Value};
use ots::{Resource, TransactionFactory, TransactionalKv, TxError, Vote};
use recovery_log::{MemWal, Wal};
use tx_models::{LruowStore, ResourceAction, Saga, TwoPhaseCommitSignalSet, TWO_PC_SET};
use wfengine::{TaskInput, TaskRegistry, TaskResult, WorkflowEngine, WorkflowGraph};

/// Virtual time one booking step takes in the fig. 1 scenario.
pub const STEP_TIME: Duration = Duration::from_secs(60);

/// Outcome of one fig. 1 run: how the locking behaved.
#[derive(Debug, Clone, Copy)]
pub struct Fig1Sample {
    /// Virtual mean lock-hold time across released locks.
    pub mean_hold: Duration,
    /// Competitor attempts (1/s of virtual time on the first resource)
    /// that hit a lock conflict.
    pub competitor_conflicts: u64,
    /// Competitor attempts that succeeded.
    pub competitor_successes: u64,
}

/// Fig. 1 workload: `steps` sequential booking steps, each writing its own
/// key and taking [`STEP_TIME`] of virtual time. In `chained` mode each
/// step is its own top-level transaction inside its own activity (the
/// paper's structure); otherwise one monolithic transaction holds
/// everything to the end. A competitor probes the *first* step's key once
/// per virtual second.
pub fn fig1_booking(steps: usize, chained: bool) -> Fig1Sample {
    let clock = SimClock::new();
    let factory = TransactionFactory::new().with_env(Env::with_clock(clock.clone()));
    let store = Arc::new(TransactionalKv::with_clock("bookings", clock.clone()));
    let mut conflicts = 0;
    let mut successes = 0;

    let mut probe = |store: &Arc<TransactionalKv>| {
        let tx = factory.create().expect("create probe tx");
        store.enlist(&tx).expect("enlist probe");
        match store.write(tx.id(), "step-0", Value::from("probe")) {
            Ok(()) => {
                successes += 1;
                // Don't actually keep the slot: undo immediately.
                tx.terminator().rollback().expect("probe rollback");
            }
            Err(TxError::LockConflict { .. }) => {
                conflicts += 1;
                tx.terminator().rollback().expect("probe rollback");
            }
            Err(e) => panic!("unexpected probe failure: {e}"),
        }
    };

    if chained {
        for step in 0..steps {
            let tx = factory.create().expect("create tx");
            store.enlist(&tx).expect("enlist");
            store
                .write(tx.id(), &format!("step-{step}"), Value::from(step as i64))
                .expect("write");
            for _ in 0..STEP_TIME.as_secs() {
                clock.advance(Duration::from_secs(1));
                probe(&store);
            }
            tx.terminator().commit().expect("commit");
        }
    } else {
        let tx = factory.create().expect("create tx");
        store.enlist(&tx).expect("enlist");
        for step in 0..steps {
            store
                .write(tx.id(), &format!("step-{step}"), Value::from(step as i64))
                .expect("write");
            for _ in 0..STEP_TIME.as_secs() {
                clock.advance(Duration::from_secs(1));
                probe(&store);
            }
        }
        tx.terminator().commit().expect("commit");
    }

    let stats = store.lock_stats();
    Fig1Sample {
        mean_hold: stats.total_hold / stats.released.max(1) as u32,
        competitor_conflicts: conflicts,
        competitor_successes: successes,
    }
}

/// Fig. 2 workload: a saga of `steps` booking steps where the last fails,
/// driving `steps - 1` compensations. Returns the number of committed
/// steps (all of which get compensated).
pub fn fig2_compensation(steps: usize) -> usize {
    let service = ActivityService::new();
    let mut saga = Saga::new("bench-saga");
    for i in 0..steps.saturating_sub(1) {
        saga = saga.step(format!("t{i}"), || Ok(()), || Ok(()));
    }
    saga = saga.step("failing", || Err("boom".into()), || Ok(()));
    let report = saga.run(&service).expect("saga run");
    report.committed.len()
}

/// Fig. 5 workload: one activity broadcasting one signal to `actions`
/// registered actions; returns the number of responses collated.
pub fn fig5_dispatch(actions: usize) -> u64 {
    let activity = Activity::new_root("dispatch", SimClock::new());
    let set = activity_service::BroadcastSignalSet::new("Bench", "ping", Value::Null);
    activity.coordinator().add_signal_set(Box::new(set)).expect("add set");
    for action in trivial_actions(actions) {
        activity.coordinator().register_action("Bench", action);
    }
    activity.signal("Bench").expect("signal").data().as_u64().unwrap_or(0)
}

/// A [`Resource`] decorator that advances the virtual clock on every
/// protocol call, so commit spans acquire real (virtual) durations — the
/// substrate the critical-path attribution and latency quantiles in the
/// `introspect` binary are computed from.
pub struct PacedResource {
    inner: Arc<dyn Resource>,
    clock: SimClock,
    pace: Duration,
}

impl PacedResource {
    /// Wrap `inner`, advancing `clock` by `pace` before each protocol call.
    pub fn new(inner: Arc<dyn Resource>, clock: SimClock, pace: Duration) -> Self {
        PacedResource { inner, clock, pace }
    }
}

impl Resource for PacedResource {
    fn prepare(&self, tx: &ots::TxId) -> Result<Vote, TxError> {
        self.clock.advance(self.pace);
        self.inner.prepare(tx)
    }

    fn commit(&self, tx: &ots::TxId) -> Result<(), TxError> {
        self.clock.advance(self.pace);
        self.inner.commit(tx)
    }

    fn rollback(&self, tx: &ots::TxId) -> Result<(), TxError> {
        self.clock.advance(self.pace);
        self.inner.rollback(tx)
    }

    fn forget(&self, tx: &ots::TxId) {
        self.inner.forget(tx);
    }

    fn resource_name(&self) -> &str {
        self.inner.resource_name()
    }
}

/// Fig. 8 workload, signal-framework flavour: a 2PC over `participants`
/// transactional stores driven by the TwoPhaseCommitSignalSet.
pub fn fig8_signal_2pc(participants: usize) -> bool {
    let activity = Activity::new_root("2pc", SimClock::new());
    activity
        .coordinator()
        .add_signal_set(Box::new(TwoPhaseCommitSignalSet::new()))
        .expect("add set");
    activity.set_completion_signal_set(TWO_PC_SET);
    let tx = ots::TxId::top_level(1);
    for i in 0..participants {
        let store = Arc::new(TransactionalKv::new(format!("s{i}")));
        store.write(&tx, "k", Value::from(i as i64)).expect("write");
        activity.coordinator().register_action(
            TWO_PC_SET,
            Arc::new(ResourceAction::new(
                format!("r{i}"),
                tx.clone(),
                store as Arc<dyn Resource>,
            )) as _,
        );
    }
    let outcome = activity.complete().expect("complete");
    outcome.name() == "committed"
}

/// Fig. 8 baseline: the same commit through the native OTS coordinator —
/// `participants` healthy transactional stores, each with one write.
pub fn fig8_native_2pc(participants: usize) -> bool {
    let control = TransactionFactory::new().create().expect("create");
    for i in 0..participants {
        let store = Arc::new(TransactionalKv::new(format!("s{i}")));
        store.enlist(&control).expect("enlist");
        store.write(control.id(), "k", Value::from(i as i64)).expect("write");
    }
    control.terminator().commit().is_ok()
}

/// A `width × depth` layered workflow: `depth` stages of `width` parallel
/// tasks, each stage fully dependent on the previous.
pub fn layered_workflow(width: usize, depth: usize) -> (WorkflowGraph, TaskRegistry) {
    let mut graph = WorkflowGraph::new();
    let mut registry = TaskRegistry::new();
    for d in 0..depth {
        for w in 0..width {
            let name = format!("t-{d}-{w}");
            graph.add_task(&name).expect("add task");
            registry.register(&name, |_i: &TaskInput| TaskResult::ok(Value::Null));
            if d > 0 {
                for upstream in 0..width {
                    graph
                        .add_dependency(&name, &format!("t-{}-{upstream}", d - 1))
                        .expect("dep");
                }
            }
        }
    }
    (graph, registry)
}

/// Fig. 10 workload: run the layered workflow; returns completed count.
pub fn fig10_workflow(width: usize, depth: usize, parallel: bool) -> usize {
    let (graph, registry) = layered_workflow(width, depth);
    let engine = WorkflowEngine::new(graph, registry).expect("engine");
    let service = ActivityService::new();
    let report = if parallel {
        engine.run_parallel(&service, "bench", Value::Null).expect("run")
    } else {
        engine.run(&service, "bench", Value::Null).expect("run")
    };
    report.completed.len()
}

/// Figs. 11/12 workload: one atom with `participants` reservations through
/// prepare + confirm.
pub fn fig11_atom(participants: usize) -> bool {
    let activity = Activity::new_root("atom", SimClock::new());
    let atom = btp::Atom::new("bench", activity).expect("atom");
    for i in 0..participants {
        atom.enroll(btp::Reservation::new(format!("p{i}")) as _).expect("enroll");
    }
    atom.prepare().expect("prepare");
    atom.confirm().is_ok()
}

/// Cohesion workload: `atoms` inferiors, one participant each; half end up
/// in the confirm-set.
pub fn fig11_cohesion(atoms: usize) -> usize {
    let activity = Activity::new_root("cohesion", SimClock::new());
    let cohesion = btp::Cohesion::new("bench", activity);
    let names: Vec<String> = (0..atoms).map(|i| format!("a{i}")).collect();
    for name in &names {
        let atom = cohesion.enroll_atom(name).expect("enroll atom");
        atom.enroll(btp::Reservation::new(format!("{name}-res")) as _).expect("enroll");
        cohesion.prepare(name).expect("prepare");
    }
    let confirm_set: Vec<&str> = names.iter().take(atoms / 2).map(String::as_str).collect();
    let report = cohesion.confirm(&confirm_set).expect("confirm");
    report.confirmed.len()
}

/// X1 workload: `ops` counter increments through LRUOW with an interloper
/// committing a conflicting write every `conflict_every` operations
/// (0 = never). Returns (successful first tries, retries needed).
pub fn lruow_counter(ops: usize, conflict_every: usize) -> (usize, usize) {
    let store = LruowStore::new("counter");
    store.write("n", Value::I64(0));
    let mut first_try = 0;
    let mut retries = 0;
    for i in 0..ops {
        let uow = store.begin_unit_of_work();
        let n = uow.read("n").unwrap().as_i64().unwrap();
        uow.write("n", Value::I64(n + 1));
        if conflict_every > 0 && i % conflict_every == 0 {
            // An interloper moves the key under the rehearsal.
            let v = store.read("n").unwrap().as_i64().unwrap();
            store.write("n", Value::I64(v));
        }
        match uow.perform() {
            Ok(()) => first_try += 1,
            Err(_) => {
                retries += 1;
                let retry = store.begin_unit_of_work();
                let n = retry.read("n").unwrap().as_i64().unwrap();
                retry.write("n", Value::I64(n + 1));
                retry.perform().expect("retry succeeds");
            }
        }
    }
    (first_try, retries)
}

/// X1 baseline: the same increments under strict locking
/// ([`TransactionalKv`]); an interloper holds the lock across every
/// `conflict_every`-th attempt, forcing a retry. Returns lock conflicts.
pub fn locking_counter(ops: usize, conflict_every: usize) -> usize {
    let factory = TransactionFactory::new();
    let store = Arc::new(TransactionalKv::new("counter"));
    let seed = factory.create().unwrap();
    store.enlist(&seed).unwrap();
    store.write(seed.id(), "n", Value::I64(0)).unwrap();
    seed.terminator().commit().unwrap();

    let mut conflicts = 0;
    for i in 0..ops {
        let interloper = if conflict_every > 0 && i % conflict_every == 0 {
            let t = factory.create().unwrap();
            store.enlist(&t).unwrap();
            store.write(t.id(), "n", Value::I64(-1)).unwrap();
            Some(t)
        } else {
            None
        };
        let mut interloper = interloper;
        loop {
            let t = factory.create().unwrap();
            store.enlist(&t).unwrap();
            match store.read(t.id(), "n") {
                Ok(v) => {
                    let n = v.unwrap().as_i64().unwrap();
                    store.write(t.id(), "n", Value::I64(n + 1)).unwrap();
                    t.terminator().commit().unwrap();
                    break;
                }
                Err(TxError::LockConflict { .. }) => {
                    conflicts += 1;
                    t.terminator().rollback().unwrap();
                    // The interloper finishes, releasing the lock.
                    if let Some(it) = interloper.take() {
                        it.terminator().rollback().unwrap();
                    }
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        if let Some(it) = interloper.take() {
            let _ = it.terminator().rollback();
        }
    }
    conflicts
}

/// X2 workload: build a log of `records` completed activities and replay
/// it. Returns the number of completed activities the log retained. A
/// completed root's records are released unless somebody else still needs
/// them, so the workload takes the part of that somebody: a second holder
/// of the log that never releases pins every record.
pub fn recovery_replay(records: usize) -> usize {
    let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let _pin = wal.hold();
    {
        let service = ActivityService::builder().wal(Arc::clone(&wal)).build();
        for i in 0..records {
            let a = service.begin(format!("a{i}")).expect("begin");
            a.set_completion_status(CompletionStatus::Fail).expect("status");
            a.set_completion_status(CompletionStatus::Success).expect("status");
            service.complete().expect("complete");
        }
    }
    let recovered = activity_service::recover_activities(
        wal,
        &activity_service::SignalSetFactories::new(),
        &activity_service::ActionFactories::new(),
        SimClock::new(),
    )
    .expect("recover");
    recovered.completed.len()
}

/// Ablation: dispatch a signal to actions directly (what "no framework"
/// would cost), for comparison with the checked coordinator loop.
pub fn direct_dispatch(actions: &[Arc<dyn Action>]) -> usize {
    let signal = Signal::new("ping", "Bench");
    let mut done = 0;
    for action in actions {
        if action.process_signal(&signal).map(|o| o.is_done()).unwrap_or(false) {
            done += 1;
        }
    }
    done
}

/// Build `n` trivial actions (each answers `done`) for the dispatch and
/// interposition workloads.
pub fn trivial_actions(n: usize) -> Vec<Arc<dyn Action>> {
    (0..n)
        .map(|i| {
            Arc::new(FnAction::new(format!("a{i}"), |_s: &Signal| Ok(Outcome::done())))
                as Arc<dyn Action>
        })
        .collect()
}

/// X8 workload: one broadcast over `participants` actions on a remote
/// node, flat (one proxy per action) or interposed (one relay); returns
/// the network messages the run cost.
pub fn interposition_messages(participants: usize, interposed: bool) -> u64 {
    use activity_service::{interpose, ActionServant, RemoteActionProxy};
    let orb = orb::Orb::new();
    orb.add_node("superior").expect("node");
    let node = orb.add_node("org").expect("node");
    let activity = Activity::new_root("x8", SimClock::new());
    activity
        .coordinator()
        .add_signal_set(Box::new(activity_service::BroadcastSignalSet::new(
            "S",
            "go",
            Value::Null,
        )))
        .expect("set");
    if interposed {
        let relay =
            interpose(activity.coordinator(), "S", &orb, &node, "relay").expect("interpose");
        for action in trivial_actions(participants) {
            relay.register_local(action);
        }
    } else {
        for action in trivial_actions(participants) {
            let obj = node.activate("Action", ActionServant::new(action)).expect("activate");
            activity.coordinator().register_action(
                "S",
                Arc::new(RemoteActionProxy::new("p", orb.clone(), "superior", obj)) as _,
            );
        }
    }
    let before = orb.network().stats().sent;
    activity.signal("S").expect("signal");
    orb.network().stats().sent - before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_chained_holds_less_and_conflicts_less() {
        let chained = fig1_booking(8, true);
        let mono = fig1_booking(8, false);
        assert!(chained.mean_hold < mono.mean_hold);
        assert!(chained.competitor_conflicts < mono.competitor_conflicts);
        assert!(chained.competitor_successes > mono.competitor_successes);
    }

    #[test]
    fn fig2_compensates_all_but_failures() {
        assert_eq!(fig2_compensation(5), 4);
    }

    #[test]
    fn fig5_reaches_everyone() {
        assert_eq!(fig5_dispatch(17), 17);
    }

    #[test]
    fn fig8_both_flavours_commit() {
        assert!(fig8_signal_2pc(4));
        assert!(fig8_native_2pc(4));
    }

    #[test]
    fn fig10_completes_all_tasks() {
        assert_eq!(fig10_workflow(3, 4, false), 12);
        assert_eq!(fig10_workflow(3, 4, true), 12);
    }

    #[test]
    fn fig11_protocols_run() {
        assert!(fig11_atom(5));
        assert_eq!(fig11_cohesion(6), 3);
    }

    #[test]
    fn lruow_conflicts_force_retries() {
        let (_first, retries) = lruow_counter(100, 10);
        assert_eq!(retries, 10);
        let (first, retries) = lruow_counter(100, 0);
        assert_eq!((first, retries), (100, 0));
    }

    #[test]
    fn locking_counter_counts_conflicts() {
        assert_eq!(locking_counter(50, 0), 0);
        assert!(locking_counter(50, 5) > 0);
    }

    #[test]
    fn replay_roundtrips() {
        assert_eq!(recovery_replay(25), 25);
    }

    #[test]
    fn direct_dispatch_matches() {
        let actions = trivial_actions(9);
        assert_eq!(direct_dispatch(&actions), 9);
    }
}
