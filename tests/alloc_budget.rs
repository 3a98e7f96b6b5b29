//! Allocation budgets for one signal hop (DESIGN.md "What one signal hop
//! costs"): coordinator → `RemoteActionProxy` → ORB → `DedupServant` →
//! `ActionServant`, on a reliable network with the activity service's
//! context interceptors attached.
//!
//! The budgets are counts made by this binary's own allocator, per thread
//! (the test harness runs tests on parallel threads), so they repeat exactly
//! from run to run. They are ceilings: lower them when a change earns it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use activity_service::{
    Action, ActionServant, ActivityCoordinator, ActivityId, ActivityService, DispatchConfig,
    FnAction, Outcome, RemoteActionProxy, Signal,
};
use orb::{DedupServant, DedupWindow, Env, FaultScript, NetworkConfig, Orb, RetryPolicy};

struct CountingAllocator;

thread_local! {
    // Const-initialised and without a destructor, so the allocator can bump
    // them at any point of a thread's life without allocating.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // Bytes this thread has allocated minus those it has freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn bump(grown: i64) {
    let _ = ALLOCS.try_with(|count| count.set(count.get() + 1));
    let _ = LIVE.try_with(|live| live.set(live.get() + grown));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are destructor-free
// thread-locals, so touching them neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations the calling thread makes while `work` runs.
fn allocs_during<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let result = work();
    (ALLOCS.with(Cell::get) - before, result)
}

/// One whole hop of a stamped 2PC `prepare`, both directions, including the
/// servant side (signal decode, the action, outcome encode, dedup memo).
/// The activity context is marshalled once per activity and stamped by
/// reference, and the server decodes it only when a servant asks. Measured
/// 14 when this budget was set; the commit before, which marshalled the
/// context on every send and decoded it on every receive, spent 20.
const HOP_BUDGET: u64 = 14;

/// What a second attempt of the same logical call may add once the first
/// reply is lost: re-stamping the borrowed request with the shared context,
/// the dedup hit's memo copy, the reply — and no copy of the request.
/// Measured 3; the commit before, which marshalled the context again for
/// the attempt, spent 9.
const RETRY_BUDGET: u64 = 3;

/// What the activity service's interceptors add to a hop under an activity
/// that has already sent once: the service-context map's one node, which
/// holds the shared context. Nothing is marshalled, decoded or copied.
const PROPAGATION_DELTA: u64 = 1;

struct Hop {
    orb: Orb,
    service: ActivityService,
    proxy: RemoteActionProxy,
    executions: Arc<AtomicU32>,
}

/// The hop's ORB, with the activity service's interceptors when `attached`.
fn hop(attached: bool) -> Hop {
    let orb = Orb::builder().network(NetworkConfig::lossy(0.0, 0.0, 1)).build();
    let service = ActivityService::new();
    if attached {
        service.attach_to_orb(&orb);
    }
    orb.add_node("coordinator").unwrap();
    let node = orb.add_node("participant").unwrap();
    let executions = Arc::new(AtomicU32::new(0));
    let executions2 = Arc::clone(&executions);
    let action: Arc<dyn Action> = Arc::new(FnAction::new("resource", move |_s: &Signal| {
        executions2.fetch_add(1, Ordering::SeqCst);
        Ok(Outcome::done())
    }));
    let servant = DedupServant::new(
        Arc::new(ActionServant::new(action)),
        // Never full in these tests: eviction would leave tombstones in the
        // window's hash map, and when those force a rehash depends on the
        // process's random hash seed.
        Arc::new(DedupWindow::new(1024)),
    );
    let object = node.activate("Action", servant).unwrap();
    let proxy = RemoteActionProxy::new("resource", orb.clone(), "coordinator", object)
        .with_policy(RetryPolicy::immediate(3));
    Hop { orb, service, proxy, executions }
}

fn prepare(seq: u32) -> Signal {
    Signal::new("prepare", "2PCSignalSet").with_delivery_id(format!("17:2PCSignalSet:{seq}"))
}

/// Warm `hop` up past every lazily initialised thread-local and to where
/// the dedup window's map and queue are far from their next doubling (at
/// 113 and 129 entries), then count one fault-free hop.
fn warm_hop_cost(hop: &Hop) -> u64 {
    for seq in 0..80 {
        hop.proxy.process_signal(&prepare(seq)).unwrap();
    }
    let signal = prepare(100);
    let (allocs, outcome) = allocs_during(|| hop.proxy.process_signal(&signal));
    assert!(outcome.unwrap().is_done());
    allocs
}

#[test]
fn one_signal_hop_stays_inside_its_allocation_budget() {
    let hop = hop(true);
    hop.service.begin("op").unwrap();
    let first = warm_hop_cost(&hop);
    assert!(first <= HOP_BUDGET, "one fault-free hop made {first} allocations, budget {HOP_BUDGET}");

    // Lose the next call's reply (remote messages are numbered from 0: two
    // per hop so far): its second attempt sends the same request again.
    let sent = hop.orb.network().remote_messages();
    hop.orb.network().install_script(FaultScript::new().drop_nth(sent + 1));
    let signal = prepare(101);
    let executed = hop.executions.load(Ordering::SeqCst);
    let (retried, outcome) = allocs_during(|| hop.proxy.process_signal(&signal));
    assert!(outcome.unwrap().is_done());
    assert_eq!(hop.orb.network().remote_messages(), sent + 4, "two attempts were made");
    assert_eq!(hop.executions.load(Ordering::SeqCst), executed + 1, "answered from the window");
    let second = retried - first;
    assert!(
        second <= RETRY_BUDGET && second <= first,
        "attempt 2 added {second} allocations to attempt 1's {first}, budget {RETRY_BUDGET}"
    );
    hop.service.complete().unwrap();
}

#[test]
fn propagating_an_activity_context_costs_a_hop_one_map_node() {
    let bare = warm_hop_cost(&hop(false));
    let attached = hop(true);
    attached.service.begin("op").unwrap();
    let propagated = warm_hop_cost(&attached);
    assert!(
        propagated <= bare + PROPAGATION_DELTA,
        "a hop under an activity made {propagated} allocations, {bare} without the service"
    );
    attached.service.complete().unwrap();
}

#[test]
fn a_coordinator_pays_nothing_for_its_default_dispatch_width() {
    // The first call reads the CPU count; from then on it is a constant.
    let width = DispatchConfig::default();
    let (allocs, _) = allocs_during(|| {
        for _ in 0..1_000 {
            assert_eq!(std::hint::black_box(DispatchConfig::default()), width);
        }
    });
    assert_eq!(allocs, 0, "DispatchConfig::default() allocated");

    // A coordinator therefore costs what its context costs and no more.
    let (contexts, _) = allocs_during(|| {
        for _ in 0..1_000 {
            std::hint::black_box(Env::new());
        }
    });
    let (coordinators, _) = allocs_during(|| {
        for id in 0..1_000 {
            std::hint::black_box(ActivityCoordinator::new(ActivityId::new(id)));
        }
    });
    assert_eq!(coordinators, contexts, "1 000 coordinators allocated beyond their contexts");
}

#[test]
fn a_width_one_round_of_deliveries_allocates_nothing_of_its_own() {
    use activity_service::BroadcastSignalSet;
    use orb::{Round, Value};

    // The primitive: starting a width-1 round and taking every delivery
    // boxes, shares and sends nothing.
    let hits = Arc::new(AtomicU32::new(0));
    let (allocs, _) = allocs_during(|| {
        let hits = Arc::clone(&hits);
        let mut round = Round::start(DispatchConfig::serial(), 64, move |index: usize| {
            hits.fetch_add(1, Ordering::Relaxed);
            index
        });
        for index in 0..64 {
            assert_eq!(round.take(index), index);
        }
    });
    assert_eq!((allocs, hits.load(Ordering::Relaxed)), (0, 64), "a width-1 round allocated");

    // The fig. 5 loop on top of it: what one protocol run costs does not
    // depend on how many actions the signal goes to.
    let run_cost = |actions: u32| {
        let coordinator = ActivityCoordinator::new(ActivityId::new(1));
        coordinator.set_dispatch_config(DispatchConfig::serial());
        for _ in 0..actions {
            coordinator.register_action(
                "S",
                Arc::new(FnAction::new("a", |_s: &Signal| Ok(Outcome::done()))) as Arc<dyn Action>,
            );
        }
        coordinator
            .add_signal_set(Box::new(BroadcastSignalSet::new("S", "go", Value::Null)))
            .unwrap();
        let (allocs, outcome) = allocs_during(|| coordinator.process_signal_set("S"));
        assert!(outcome.unwrap().is_done());
        allocs
    };
    assert_eq!(run_cost(32), run_cost(1), "deliveries of a width-1 round allocated");
}

#[test]
fn an_absent_telemetry_span_guard_allocates_nothing() {
    let absent = Env::new();
    let gated = Env { telemetry: Some(telemetry::Telemetry::disabled()), ..Env::default() }.wired();
    for env in [absent, gated] {
        let (allocs, _) = allocs_during(|| {
            for attempt in 0..100u32 {
                let scope = env.span(|| format!("commit:{attempt}"));
                scope.attr("top_level", true);
                let step = scope.child(|| format!("vote:{attempt}"));
                step.attr("attempt", attempt);
                drop(step);
                scope.attr("error", format_args!("attempt {attempt} failed"));
                assert!(scope.telemetry().is_none());
            }
        });
        assert_eq!(allocs, 0, "an inert span guard allocated");
    }
}

// ---------------------------------------------------------------------
// What setting a protocol up costs (DESIGN.md §19).
// ---------------------------------------------------------------------

/// Allocations of one root activity under a shared plane-less context:
/// begin it, let `set_up` associate whatever it wants, complete it.
fn activity_cost(set_up: impl FnOnce(&activity_service::Activity)) -> u64 {
    activity_cost_in(Env::new(), set_up)
}

fn activity_cost_in(env: Arc<Env>, set_up: impl FnOnce(&activity_service::Activity)) -> u64 {
    let begin = || {
        let activity = activity_service::Activity::new_root("op", Arc::clone(&env));
        activity.coordinator().set_dispatch_config(DispatchConfig::serial());
        activity
    };
    begin().complete().unwrap(); // past the process's lazily initialised statics
    let (allocs, outcome) = allocs_during(|| {
        let activity = begin();
        set_up(&activity);
        activity.complete()
    });
    outcome.unwrap();
    allocs
}

/// Associate a one-signal `Completed` set, designate it, register `actions`
/// clones of one pre-built action (the action's own construction is the
/// caller's business) and let `complete` drive it.
fn completed_run_cost(actions: usize) -> u64 {
    use tx_models::workflow_signals::{CompletedSignalSet, COMPLETED_SET};
    let action: Arc<dyn Action> =
        Arc::new(FnAction::new("watch", |_s: &Signal| Ok(Outcome::new("outcome_ack"))));
    activity_cost(|activity| {
        let set = Box::new(CompletedSignalSet::new(orb::Value::Null));
        activity.coordinator().add_signal_set(set).unwrap();
        activity.set_completion_signal_set(COMPLETED_SET);
        for _ in 0..actions {
            activity.coordinator().register_action(COMPLETED_SET, Arc::clone(&action));
        }
    })
}

#[test]
fn driving_a_signal_set_costs_its_box_its_slot_and_its_signal() {
    let bare = activity_cost(|_| {});
    // Nobody listening: the boxed set, the coordinator's slot vector and
    // the signal's payload map. No name is copied (the set's, the
    // designation's and the slot's key are the one constant), no delivery id
    // is stamped for nobody, and the empty registration list is the
    // process-wide one. The commit before spent 12 here.
    let unheard = completed_run_cost(0);
    assert!(unheard - bare <= 3, "a run nobody listens to added {} to a bare {bare}", unheard - bare);

    // The first listener brings the shared list, its buffer and the
    // delivery id there is now somebody to stamp for; from there a
    // registration appends in place (the commit before copied the whole
    // list: 4 allocations per action, now at most the buffer's doubling).
    let costs: Vec<u64> = (0..=8).map(completed_run_cost).collect();
    assert!(costs[1] - costs[0] <= 3, "the first action added {}", costs[1] - costs[0]);
    for (actions, pair) in costs.windows(2).enumerate().skip(1) {
        assert!(pair[1] - pair[0] <= 1, "action {} added {}", actions + 1, pair[1] - pair[0]);
    }
    assert!(costs[8] - costs[1] <= 1, "seven more actions added {}", costs[8] - costs[1]);
}

/// What a live flight recorder may add to one two-action 2PC run (two
/// signals to two actions, 13 steps with the activity's lifecycle): the
/// names inside the typed steps it keeps, and nothing else — no rendered
/// copy, no node name per entry, no growth of the pre-sized ring. Measured
/// 26, one per name; the commit before, which built each step, rendered it
/// into the ring and copied the node name beside it, spent 74.
const RECORDED_RUN_BUDGET: u64 = 26;

/// Allocations of one root activity completed by the 2PC set over two
/// `done`-answering actions, under `env`.
fn two_pc_run_cost(env: Arc<Env>) -> u64 {
    use tx_models::{TwoPhaseCommitSignalSet, TWO_PC_SET};
    let action: Arc<dyn Action> =
        Arc::new(FnAction::new("resource", |_s: &Signal| Ok(Outcome::done())));
    activity_cost_in(env, |activity| {
        let set = Box::new(TwoPhaseCommitSignalSet::new());
        activity.coordinator().add_signal_set(set).unwrap();
        activity.set_completion_signal_set(TWO_PC_SET);
        for _ in 0..2 {
            activity.coordinator().register_action(TWO_PC_SET, Arc::clone(&action));
        }
    })
}

#[test]
fn a_recorder_costs_a_protocol_run_its_typed_steps_and_nothing_when_gated_off() {
    use telemetry::FlightRecorder;
    let run_cost =
        |recorder: Option<FlightRecorder>| two_pc_run_cost(Env { recorder, ..Env::default() }.wired());
    run_cost(None); // past what the first 2PC run of the process initialises
    let unrecorded = run_cost(None);
    // Gated off, `Env::emit` stops at the gate: no step is built.
    let gated = run_cost(Some(FlightRecorder::disabled("node", 1024)));
    assert_eq!(gated, unrecorded, "a gated-off recorder cost allocations");

    let recorder = FlightRecorder::new("node", 1024);
    let recorded = run_cost(Some(recorder.clone()));
    assert_eq!(recorder.steps().len(), 2 + 13, "the warm-up's lifecycle, then the run");
    assert!(
        recorded - unrecorded <= RECORDED_RUN_BUDGET,
        "a live recorder added {} allocations to a run's {unrecorded}",
        recorded - unrecorded
    );
}

/// What the same two-action 2PC run costs with a live span tree: its
/// `activity:` span, one `signal_set:` span per signal with a `transmit:`
/// child per delivery, their attributes and the transmit counters. The
/// fig. 5 steps are not among them: a step is kept once, in the recorder
/// when there is one, and never again as span text. Measured 111; the
/// commit before, which also wrote every step into its span as rendered
/// text, spent 185.
const TRACED_RUN_BUDGET: u64 = 111;

/// The traced run with a live flight recorder beside the span tree: the
/// span tree's cost plus the typed steps'. Measured 147; the commit before
/// spent 197.
const TRACED_RECORDED_RUN_BUDGET: u64 = 147;

#[test]
fn a_traced_protocol_run_keeps_no_copy_of_its_steps_in_the_span_tree() {
    use telemetry::{FlightRecorder, Telemetry};
    let run_cost = |recorder: Option<FlightRecorder>| {
        two_pc_run_cost(Env { telemetry: Some(Telemetry::new()), recorder, ..Env::default() }.wired())
    };
    run_cost(None); // past what the first traced run of the process initialises
    let traced = run_cost(None);
    let recorded = run_cost(Some(FlightRecorder::new("node", 1024)));
    assert!(traced <= TRACED_RUN_BUDGET, "a traced 2PC run made {traced} allocations");
    assert!(
        recorded <= TRACED_RECORDED_RUN_BUDGET,
        "a traced and recorded 2PC run made {recorded} allocations"
    );
}

/// Allocations of one native OTS commit over two `TransactionalKv` stores,
/// one write each, by a factory under `env` — after a warm-up commit, so
/// nothing lazily initialised is charged to the measured one. Dispatch is
/// serial, so both phases run (and are counted) on the calling thread.
fn native_commit_cost(env: Arc<Env>) -> u64 {
    use ots::{TransactionFactory, TransactionalKv};
    let factory =
        TransactionFactory::new().with_env(env).with_dispatch(DispatchConfig::serial());
    let commit = || {
        let control = factory.create().unwrap();
        for name in ["s0", "s1"] {
            let store = Arc::new(TransactionalKv::new(name));
            store.enlist(&control).unwrap();
            store.write(control.id(), "k", orb::Value::from(1i64)).unwrap();
        }
        control.terminator().commit()
    };
    commit().unwrap();
    let (allocs, outcome) = allocs_during(commit);
    outcome.unwrap();
    allocs
}

/// What a consulted failure detector adds to one two-store commit on which
/// everybody stays healthy. Measured 1: the list of participants left after
/// the `should_skip` pass, built before any vote is solicited and dropped
/// again when nobody was skipped. The participants' detector entries are
/// made by the warm-up commit (the stores are named alike from commit to
/// commit), and `should_skip` / `record_success` on a known healthy
/// participant touch its entry in place.
const DETECTOR_COMMIT_DELTA: u64 = 1;

/// The disabled planes' whole cost on the OTS commit path, counted: a
/// gated-off span recorder, a gated-off flight recorder and an empty
/// failpoint set are each one test at every site, so they build no span
/// name, no step and no site string. (This is what the `< 2 %` wall-clock
/// budgets of EXPERIMENTS.md O1/O2 stood in for; the activity coordinator's
/// side is the recorder test above.)
#[test]
fn disabled_planes_cost_a_native_commit_nothing_and_a_detector_its_pinned_delta() {
    use telemetry::{FlightRecorder, Telemetry};
    let bare = native_commit_cost(Env::new());
    let gated = native_commit_cost(
        Env {
            telemetry: Some(Telemetry::disabled()),
            recorder: Some(FlightRecorder::disabled("node", 1024)),
            failpoints: Some(recovery_log::FailpointSet::new()),
            ..Env::default()
        }
        .wired(),
    );
    assert_eq!(gated, bare, "a disabled plane built something on the commit path");

    let detector = orb::FailureDetector::new(orb::SimClock::new());
    let consulted =
        native_commit_cost(Env { detector: Some(detector), ..Env::default() }.wired());
    assert_eq!(
        consulted - bare,
        DETECTOR_COMMIT_DELTA,
        "a consulted detector's cost on a healthy commit moved (bare {bare})"
    );
}

/// Releasing the log behind finished work is free of allocation: a reap of
/// 256 committed transactions over the native benchmark's log stack moves
/// the factory's hold, pops the released records off the front of the
/// in-memory log and frees them — and builds nothing. (The records' own
/// allocations were made, and are counted, by the appends.)
#[test]
fn reaping_and_releasing_the_log_allocates_nothing() {
    use ots::{TransactionFactory, TransactionalKv};
    use recovery_log::{GroupCommitWal, MemWal, Wal};
    let wal: Arc<dyn Wal> = Arc::new(GroupCommitWal::new(MemWal::new()));
    let factory = TransactionFactory::with_wal(Arc::clone(&wal))
        .with_dispatch(DispatchConfig::serial());
    let stores = ["s0", "s1"].map(|name| Arc::new(TransactionalKv::new(name)));
    let batch = || {
        for _ in 0..256 {
            let control = factory.create().unwrap();
            for store in &stores {
                store.enlist(&control).unwrap();
                store.write(control.id(), "k", orb::Value::from(1i64)).unwrap();
            }
            control.terminator().commit().unwrap();
        }
        let retained = wal.len();
        let (allocs, reaped) = allocs_during(|| factory.reap_completed());
        (allocs, reaped, retained, wal.len())
    };
    assert_eq!(batch().1, 256, "warm-up: the table and the log reach their working size");
    let (allocs, reaped, before, after) = batch();
    assert_eq!((reaped, before), (256, 4 * 256 + 1));
    assert!(after <= 1, "the reap released the log behind it, {after} records left");
    assert_eq!(allocs, 0, "reap + release allocated");
}

#[test]
fn a_thousand_registrations_append_in_place_even_under_a_running_protocol() {
    use activity_service::signal_set::{AfterResponse, NextSignal, SignalSet};
    use activity_service::CompletionStatus;
    use std::sync::atomic::AtomicU64;

    /// Two signals, `one` then `two`.
    struct TwoSignals(u8);
    impl SignalSet for TwoSignals {
        fn signal_set_name(&self) -> &str {
            "S"
        }
        fn get_signal(&mut self) -> NextSignal {
            self.0 += 1;
            match self.0 {
                1 => NextSignal::Signal(Signal::new("one", "S")),
                2 => NextSignal::LastSignal(Signal::new("two", "S")),
                _ => NextSignal::End,
            }
        }
        fn set_response(&mut self, _response: &Outcome) -> AfterResponse {
            AfterResponse::Continue
        }
        fn get_outcome(&mut self) -> Outcome {
            Outcome::done()
        }
        fn set_completion_status(&mut self, _status: CompletionStatus) {}
        fn completion_status(&self) -> CompletionStatus {
            CompletionStatus::Success
        }
    }

    let coordinator = Arc::new(ActivityCoordinator::new(ActivityId::new(1)));
    coordinator.set_dispatch_config(DispatchConfig::serial());
    coordinator.add_signal_set(Box::new(TwoSignals(0))).unwrap();

    let heard = Arc::new(parking_lot::Mutex::new(Vec::<String>::new()));
    let late: Arc<dyn Action> = Arc::new(FnAction::new("late", {
        let heard = Arc::clone(&heard);
        move |signal: &Signal| {
            heard.lock().push(signal.name().to_owned());
            Ok(Outcome::done())
        }
    }));
    // The first action enlists 1 024 more while the run that is delivering
    // `one` to it holds the registration list as its snapshot.
    let spent = Arc::new(AtomicU64::new(0));
    let enlister: Arc<dyn Action> = Arc::new(FnAction::new("enlister", {
        let (coordinator, spent) = (Arc::downgrade(&coordinator), Arc::clone(&spent));
        move |signal: &Signal| {
            if signal.name() == "one" {
                let coordinator = coordinator.upgrade().expect("running");
                let (allocs, ()) = allocs_during(|| {
                    for _ in 0..1_024 {
                        coordinator.register_action("S", Arc::clone(&late));
                    }
                });
                spent.store(allocs, Ordering::SeqCst);
            }
            Ok(Outcome::done())
        }
    }));
    coordinator.register_action("S", enlister);
    assert!(coordinator.process_signal_set("S").unwrap().is_done());

    // One copy of the list (the run keeps its snapshot), then doubling: 4,
    // 8, … 1 024 and once more. The commit before copied the list on every
    // registration: 3 072.
    let spent = spent.load(Ordering::SeqCst);
    assert!(spent <= 12, "1 024 registrations made {spent} allocations");
    assert_eq!(coordinator.action_count("S"), 1_025);
    let heard = heard.lock();
    assert_eq!(heard.len(), 1_024, "every late action heard exactly one signal");
    assert!(heard.iter().all(|name| name == "two"), "the snapshot of `one` predates them");
}

/// `WorkflowEngine::run` of the three-task order script with no-op bodies:
/// three activities and three fig. 10 exchanges beside the names in the
/// report and the inputs. Measured 44; the commit before, walking the graph
/// by name every round, spent 114.
const WORKFLOW_BUDGET: u64 = 44;

/// `chains` independent chains of `length` no-op tasks each.
fn chains_engine(chains: usize, length: usize) -> wfengine::WorkflowEngine {
    use wfengine::{TaskInput, TaskRegistry, TaskResult, WorkflowGraph};
    let name = |chain: usize, step: usize| format!("c{chain}-s{step}");
    let mut graph = WorkflowGraph::new();
    let mut registry = TaskRegistry::new();
    for chain in 0..chains {
        for step in 0..length {
            graph.add_task(name(chain, step)).unwrap();
            registry.register(name(chain, step), |_: &TaskInput| TaskResult::ok(orb::Value::Null));
            if step > 0 {
                graph.add_dependency(&name(chain, step), &name(chain, step - 1)).unwrap();
            }
        }
    }
    wfengine::WorkflowEngine::new(graph, registry).unwrap()
}

fn run_cost(engine: &wfengine::WorkflowEngine) -> u64 {
    let service = ActivityService::new();
    engine.run(&service, "warm-up", orb::Value::Null).unwrap();
    let (allocs, report) = allocs_during(|| engine.run(&service, "wf", orb::Value::Null));
    assert!(report.unwrap().succeeded());
    allocs
}

#[test]
fn a_workflow_run_walks_its_compiled_plan() {
    use wfengine::{script, TaskInput, TaskRegistry, TaskResult, WorkflowEngine};
    let mut registry = TaskRegistry::new();
    for name in ["price", "pay", "fulfil"] {
        registry.register(name, |_: &TaskInput| TaskResult::ok(orb::Value::Null));
    }
    let graph = script::parse("task price;\ntask pay after price;\ntask fulfil after pay;").unwrap();
    let order = run_cost(&WorkflowEngine::new(graph, registry).unwrap());
    assert!(order <= WORKFLOW_BUDGET, "price → pay → fulfil made {order} allocations");

    // Linear in tasks: eight chains of eight cost eight times one chain of
    // eight (and a little less — the run's own vectors are shared).
    let (one, eight) = (run_cost(&chains_engine(1, 8)), run_cost(&chains_engine(8, 8)));
    assert!(
        eight * 10 <= one * 8 * 11,
        "64 tasks made {eight} allocations, 8 tasks {one}: more than 8x + 10 %"
    );
}

// ---------------------------------------------------------------------
// What the log costs a durable node (DESIGN.md §12).
// ---------------------------------------------------------------------

fn scratch_log(tag: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("alloc-budget-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Allocations of one group-committed round — three staged appends and a
/// forced one, flushed together — after warm-up; with `release`, the log is
/// released behind each round, so one that keeps its records in memory
/// stays at its working size.
fn group_commit_round_cost(wal: &dyn recovery_log::Wal, release: bool) -> u64 {
    let hold = release.then(|| wal.hold().unwrap());
    let round = || {
        for _ in 0..3 {
            wal.append(1, &[0x5a; 48]).unwrap();
        }
        wal.append_durable(2, &[0xa5; 96]).unwrap();
        if let Some(hold) = &hold {
            hold.release_below(wal.next_lsn()).unwrap();
        }
    };
    for _ in 0..8 {
        round(); // both stage buffers and the sink's scratch at working size
    }
    allocs_during(round).0
}

/// Group commit stages into two reused buffers swapped with its leader and
/// hands the sink its slices from the stack; a file log encodes into one
/// reused buffer. So a staged append plus a forced flush allocates nothing
/// over `FileWal`, and over `MemWal` exactly the copy of each record that
/// `MemWal` keeps. The commit before spent a payload copy per record in the
/// stage, the slice list and a regrown stage per flush, and a record per
/// append in `FileWal`'s in-memory mirror.
#[test]
fn a_group_committed_append_allocates_only_what_its_sink_keeps() {
    use recovery_log::{FileWal, GroupCommitWal, MemWal};
    let path = scratch_log("group-commit");
    let file = GroupCommitWal::new(FileWal::open(&path).unwrap());
    let over_file = group_commit_round_cost(&file, false);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(over_file, 0, "four records through group commit into a file allocated");
    let over_memory = group_commit_round_cost(&GroupCommitWal::new(MemWal::new()), true);
    assert_eq!(over_memory, 4, "four records into memory: one copy each and nothing else");
}

/// A file log's memory does not grow with its history. Nobody holds this
/// one (the frozen benchmark's `PacedDisk` does not forward `hold`), so it
/// keeps every record: 100 000 of them end within 64 KiB of what the log
/// used after its first 1 000 — scans included.
#[test]
fn a_file_log_keeps_its_history_on_disk_not_in_memory() {
    use recovery_log::{FileWal, Lsn, Wal};
    let live = || LIVE.with(Cell::get);
    let path = scratch_log("history");
    let wal = FileWal::open(&path).unwrap();
    let count = |wal: &FileWal| {
        let mut seen = 0u64;
        wal.scan_with(Lsn::new(0), &mut |_| {
            seen += 1;
            Ok(())
        })
        .unwrap();
        seen
    };
    for _ in 0..1_000 {
        wal.append(1, &[0x5a; 40]).unwrap();
    }
    assert_eq!(count(&wal), 1_000);
    let warm = live();
    for _ in 1_000..100_000 {
        wal.append(1, &[0x5a; 40]).unwrap();
    }
    assert_eq!((count(&wal), wal.len()), (100_000, 100_000));
    let grown = live() - warm;
    drop(wal);
    std::fs::remove_file(&path).unwrap();
    assert!(grown.abs() <= 64 * 1024, "99 000 more records grew the log's memory by {grown} bytes");
}

// ---------------------------------------------------------------------
// What writing a log record costs (DESIGN.md §12).
// ---------------------------------------------------------------------

/// One native 2PC commit (`create`, two `enlist` + `write`, `commit`) over
/// the native benchmark's log stack: `GroupCommitWal<MemWal>`, serial
/// dispatch, a reap every 256 commits. Its four records are written field
/// by field into a reused buffer, so what the log costs is `MemWal`'s copy
/// of each. Measured 20: lock release builds no list of released keys and a
/// commit overwrites a committed key in place. The commit before spent 26,
/// and before records were written field by field, 39.
const LOGGED_COMMIT_BUDGET: u64 = 20;

#[test]
fn a_logged_native_commit_stays_inside_its_allocation_budget() {
    use ots::{TransactionFactory, TransactionalKv};
    use recovery_log::{GroupCommitWal, MemWal, Wal};
    let wal: Arc<dyn Wal> = Arc::new(GroupCommitWal::new(MemWal::new()));
    let factory = TransactionFactory::with_wal(wal).with_dispatch(DispatchConfig::serial());
    let stores = ["p0", "p1"].map(|name| Arc::new(TransactionalKv::new(name)));
    let commit = |index: u64| {
        let control = factory.create().unwrap();
        for store in &stores {
            store.enlist(&control).unwrap();
        }
        for store in &stores {
            store.write(control.id(), "k", orb::Value::U64(index)).unwrap();
        }
        control.terminator().commit()
    };
    // Past two reaps, so the table and the log are at their working size.
    for index in 0..600 {
        commit(index).unwrap();
        if index % 256 == 255 {
            factory.reap_completed();
        }
    }
    let (allocs, outcome) = allocs_during(|| commit(600));
    outcome.unwrap();
    assert!(
        allocs <= LOGGED_COMMIT_BUDGET,
        "a logged native commit made {allocs} allocations, budget {LOGGED_COMMIT_BUDGET}"
    );
}

/// One uncontended exclusive lock taken and released on a warm
/// `LockManager`: the key the lock table keeps and the holder list.
/// Measured 2; the commit before, whose `release_all` returned the released
/// key names cloned into a fresh vector, spent 4.
const LOCK_CYCLE_BUDGET: u64 = 2;

#[test]
fn a_lock_cycle_allocates_only_its_key_and_holder_list() {
    use ots::{LockManager, LockMode, TxId};
    let locks = LockManager::default();
    let tx = TxId::top_level(1);
    let cycle = || {
        locks.try_lock(&tx, "c0/k0001", LockMode::Exclusive).unwrap();
        locks.release_all(&tx)
    };
    for _ in 0..8 {
        cycle(); // the lock table at its working size
    }
    let (allocs, released) = allocs_during(cycle);
    assert_eq!((released, locks.locked_keys()), (1, 0));
    assert!(
        allocs <= LOCK_CYCLE_BUDGET,
        "try_lock + release_all made {allocs} allocations, budget {LOCK_CYCLE_BUDGET}"
    );
}

/// A log that keeps nothing: it numbers the records it is handed and notes
/// the appending thread's allocation count as the latest one arrives.
#[derive(Default)]
struct CountingSink {
    appended: std::sync::atomic::AtomicU64,
    allocs_at_append: std::sync::atomic::AtomicU64,
}

impl recovery_log::Wal for CountingSink {
    fn append(&self, _kind: u32, _payload: &[u8]) -> Result<recovery_log::Lsn, recovery_log::LogError> {
        self.allocs_at_append.store(ALLOCS.with(Cell::get), Ordering::Relaxed);
        Ok(recovery_log::Lsn::new(self.appended.fetch_add(1, Ordering::Relaxed) + 1))
    }

    fn scan_with(
        &self,
        _from: recovery_log::Lsn,
        _visit: &mut dyn FnMut(&recovery_log::LogRecord) -> Result<(), recovery_log::LogError>,
    ) -> Result<(), recovery_log::LogError> {
        Ok(())
    }

    fn truncate_prefix(&self, _upto: recovery_log::Lsn) -> Result<(), recovery_log::LogError> {
        Ok(())
    }

    fn sync(&self) -> Result<(), recovery_log::LogError> {
        Ok(())
    }

    fn next_lsn(&self) -> recovery_log::Lsn {
        recovery_log::Lsn::new(self.appended.load(Ordering::Relaxed) + 1)
    }
}

impl CountingSink {
    /// The allocations `write` made before its one record reached the sink.
    fn allocs_before(&self, write: impl FnOnce()) -> u64 {
        let appended = self.appended.load(Ordering::Relaxed);
        let before = ALLOCS.with(Cell::get);
        write();
        assert_eq!(self.appended.load(Ordering::Relaxed), appended + 1, "one record");
        self.allocs_at_append.load(Ordering::Relaxed) - before
    }
}

/// Every record kind reaches its log having cost nothing on a warm thread:
/// no value tree, no key or name copied, no buffer. Each is written through
/// the component that owns it; the transactions are top-level, so the
/// participants' own bookkeeping before the record (a prepared workspace
/// moved under a copied id) allocates nothing either. `RES_HEURISTIC` is
/// written by the same function as `RES_RESOLVED`. The commit before spent
/// 2 to 7 per record, 32 over the eight records of one `remote_2pc_mem` op.
#[test]
fn every_log_record_reaches_its_sink_without_an_allocation() {
    use activity_service::{ActivityLogger, CompletionStatus, ExactlyOnceAction};
    use ots::{txlog, DurableKv, RecoverableResource, Resource, TransactionalKv, TxId, TxStatus};
    use recovery_log::Wal;

    let sink = Arc::new(CountingSink::default());
    let wal: Arc<dyn Wal> = Arc::clone(&sink) as Arc<dyn Wal>;
    let store = Arc::new(TransactionalKv::new("store"));
    let resource = RecoverableResource::new(Arc::clone(&store) as _, Arc::clone(&wal), "coordinator");
    let kv = DurableKv::new("kv", Arc::clone(&wal));
    let logger = ActivityLogger::new(Arc::clone(&wal));
    let done: Arc<dyn Action> = Arc::new(FnAction::new("inner", |_s: &Signal| Ok(Outcome::done())));
    let exactly_once = ExactlyOnceAction::new("eo", done, Arc::clone(&wal)).unwrap();
    let journal = wfengine::WorkflowJournal::new("wf", Arc::clone(&wal));
    let output = orb::Value::from("shipped");

    let mut spent = Vec::new();
    for round in 0..3u64 {
        let mut note = |kind: &'static str, write: &mut dyn FnMut()| {
            let allocs = sink.allocs_before(write);
            if round == 2 {
                spent.push((kind, allocs));
            }
        };
        let (tx, aborted) = (TxId::top_level(2 * round), TxId::top_level(2 * round + 1));
        let value = || orb::Value::U64(round);
        note("TX_BEGUN", &mut || {
            txlog::log_begun(&*wal, &tx).unwrap();
        });
        note("TX_PREPARED", &mut || {
            txlog::log_prepared(&*wal, &tx, &["p0", "p1"]).unwrap();
        });
        note("TX_DECISION", &mut || {
            txlog::log_decision_commit(&*wal, &tx).unwrap();
        });
        note("TX_COMPLETED", &mut || {
            txlog::log_completion(&*wal, &tx, TxStatus::Committed, false).unwrap();
        });

        store.write(&tx, "k", value()).unwrap();
        note("RES_PREPARED", &mut || {
            resource.prepare(&tx).unwrap();
        });
        note("RES_RESOLVED", &mut || resource.commit(&tx).unwrap());

        kv.store().write(&tx, "k", value()).unwrap();
        note("KV_PREPARED", &mut || {
            kv.prepare(&tx).unwrap();
        });
        note("KV_COMMITTED", &mut || kv.commit(&tx).unwrap());
        kv.store().write(&aborted, "k", value()).unwrap();
        kv.prepare(&aborted).unwrap();
        note("KV_ABORTED", &mut || kv.rollback(&aborted).unwrap());
        note("KV_CHECKPOINT", &mut || kv.checkpoint().unwrap());

        let (id, parent) = (ActivityId::new(round + 2), Some(ActivityId::new(1)));
        note("ACT_BEGUN", &mut || logger.log_begun(id, "step", parent).unwrap());
        note("ACT_SIGNAL_SET", &mut || logger.log_signal_set(id, "Set", "set-v1").unwrap());
        note("ACT_ACTION", &mut || logger.log_action(id, "Set", "action-v1").unwrap());
        note("ACT_STATUS", &mut || logger.log_completion_status(id, CompletionStatus::Fail).unwrap());
        note("ACT_COMPLETION_SET", &mut || logger.log_completion_set(id, "Set").unwrap());
        note("ACT_COMPLETED", &mut || {
            logger.log_completed(id, CompletionStatus::Fail, "done").unwrap();
        });

        let signal = Signal::new("go", "Set").with_delivery_id(format!("1:Set:{round}"));
        note("SIGNAL_PROCESSED", &mut || {
            exactly_once.process_signal(&signal).unwrap();
        });
        note("WF_TASK_DONE", &mut || journal.record("ship", true, &output).unwrap());
    }
    assert_eq!(spent.len(), 18);
    assert!(spent.iter().all(|(_, allocs)| *allocs == 0), "allocations before the sink: {spent:?}");
}
