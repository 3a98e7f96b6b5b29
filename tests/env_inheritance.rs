//! One `Env`, four constructors (DESIGN.md §17): the planes handed to
//! `OrbBuilder::env`, `TransactionFactory::with_env`,
//! `ActivityServiceBuilder::env` and `WorkflowEngine::with_env` — and to
//! nothing else — reach every coordinator, subtransaction, child activity
//! and workflow task, and feed one flight recorder.

use std::collections::BTreeSet;
use std::sync::Arc;

use activity_service::{
    ActionServant, ActivityService, BroadcastSignalSet, FnAction, Outcome, RemoteActionProxy,
    Signal,
};
use orb::{Env, FailureDetector, Orb, SimClock, Value};
use ots::{TransactionFactory, TransactionalKv};
use recovery_log::FailpointSet;
use telemetry::{
    CausalityPlane, FlightRecorder, Origin, ProtocolEvent, RecordKind, RecordedEvent, Telemetry,
};
use wfengine::{script, TaskInput, TaskRegistry, TaskResult, WorkflowEngine};

const NODE: &str = "coordinator";

struct World {
    env: Arc<Env>,
    recorder: FlightRecorder,
    telemetry: Telemetry,
    failpoints: FailpointSet,
    orb: Orb,
    factory: TransactionFactory,
    service: ActivityService,
    engine: WorkflowEngine,
}

/// Build the whole stack under `env`, with no attach call of any kind.
fn world(
    env: Arc<Env>,
    recorder: FlightRecorder,
    telemetry: Telemetry,
    failpoints: FailpointSet,
) -> World {
    let orb = Orb::builder().env(Arc::clone(&env)).build();
    orb.add_node(NODE).unwrap();
    orb.add_node("worker").unwrap();
    let mut registry = TaskRegistry::new();
    registry.register("pick", |_i: &TaskInput| TaskResult::ok(Value::from("picked")));
    registry.register("pack", |_i: &TaskInput| TaskResult::ok(Value::from("packed")));
    let graph = script::parse("task pick;\ntask pack after pick;").unwrap();
    World {
        failpoints,
        factory: TransactionFactory::new().with_env(Arc::clone(&env)),
        service: ActivityService::builder().env(Arc::clone(&env)).build(),
        engine: WorkflowEngine::new(graph, registry).unwrap().with_env(Arc::clone(&env)),
        orb,
        env,
        recorder,
        telemetry,
    }
}

/// Recorder, telemetry, failpoints, detector and causal plane on one clock.
fn instrumented() -> World {
    let clock = SimClock::new();
    let recorder = FlightRecorder::with_time(NODE, 1024, Arc::new(clock.clone()));
    let telemetry = Telemetry::with_time(Arc::new(clock.clone()));
    let failpoints = FailpointSet::new();
    let env = Env::wired(Env {
        clock: clock.clone(),
        failpoints: Some(failpoints.clone()),
        detector: Some(FailureDetector::new(clock)),
        telemetry: Some(telemetry.clone()),
        recorder: Some(recorder.clone()),
        causality: Some(CausalityPlane::new()),
        ..Default::default()
    });
    world(env, recorder, telemetry, failpoints)
}

impl World {
    /// A three-deep activity nest whose innermost activity signals a remote
    /// action, with a subtransaction committed inside the middle one.
    fn run_nested_activity_with_subtransaction(&self) {
        let worker = self.orb.node("worker").unwrap();
        let action: Arc<dyn activity_service::Action> =
            Arc::new(FnAction::new("stock", |_s: &Signal| Ok(Outcome::done())));
        let object = worker.activate("Action", ActionServant::new(action)).unwrap();

        self.service.begin("order").unwrap();
        self.service.begin("fulfil").unwrap();

        let top = self.factory.create().unwrap();
        let sub = top.begin_subtransaction().unwrap();
        for name in ["ledger", "audit"] {
            let store = Arc::new(TransactionalKv::new(name));
            store.enlist(&sub).unwrap();
            store.write(sub.id(), "k", Value::from(1i64)).unwrap();
        }
        assert!(Arc::ptr_eq(sub.coordinator().env(), top.coordinator().env()));
        assert!(Arc::ptr_eq(top.coordinator().env(), &self.env));
        sub.terminator().commit().unwrap();
        top.terminator().commit().unwrap();

        let grandchild = self.service.begin("reserve").unwrap();
        assert!(Arc::ptr_eq(grandchild.env(), &self.env), "children share the service's Env");
        grandchild
            .coordinator()
            .add_signal_set(Box::new(BroadcastSignalSet::new("Reserve", "hold", Value::Null)))
            .unwrap();
        grandchild.set_completion_signal_set("Reserve");
        grandchild.coordinator().register_action(
            "Reserve",
            Arc::new(RemoteActionProxy::new("stock", self.orb.clone(), NODE, object)) as _,
        );
        for _ in 0..3 {
            self.service.complete().unwrap();
        }
    }

    fn run_two_task_workflow(&self) {
        let report = self.engine.run(&self.service, "ship", Value::Null).unwrap();
        assert_eq!(report.completed, vec!["pick", "pack"]);
    }

    fn recorded_kinds(&self) -> BTreeSet<&'static str> {
        self.recorder.events().iter().map(|event| event.kind().label()).collect()
    }

    fn recorded_details(&self, kind: RecordKind) -> Vec<String> {
        let events = self.recorder.events();
        events.iter().filter(|event| event.kind() == kind).map(RecordedEvent::detail).collect()
    }
}

#[test]
fn one_recorder_hears_every_layer() {
    let world = instrumented();
    world.run_nested_activity_with_subtransaction();
    world.run_two_task_workflow();

    let kinds = world.recorded_kinds();
    for kind in [
        "trace",
        "protocol",
        "activity",
        "failpoint",
        "span-open",
        "span-close",
        "wire-send",
        "wire-recv",
    ] {
        assert!(kinds.contains(kind), "no `{kind}` event in {kinds:?}");
    }
    let tree = world.telemetry.span_tree();
    assert_eq!(tree.verify(), Vec::<String>::new());
    // The workflow's task spans carry the children's signal-set runs without
    // any per-child attach.
    let task = tree.find("task:pick").expect("task span");
    assert!(tree
        .children(task.context.span_id)
        .iter()
        .any(|span| span.name.starts_with("signal_set:")));
}

#[test]
fn a_grandchild_coordinator_inherits_telemetry_and_failpoints() {
    let world = instrumented();
    world.run_nested_activity_with_subtransaction();

    // Its protocol run is a span under its own `activity:` span…
    let tree = world.telemetry.span_tree();
    let reserve = tree.find("activity:reserve").expect("grandchild activity span");
    let runs: Vec<&str> =
        tree.children(reserve.context.span_id).iter().map(|span| span.name.as_str()).collect();
    assert_eq!(runs, vec!["signal_set:Reserve"]);
    // …it passed the three activity.* sites on the service's failpoint set…
    let observed = world.failpoints.observed_sites();
    for site in activity_service::failpoints::FAILPOINT_SITES {
        assert!(observed.iter().any(|seen| seen == site), "{site} not in {observed:?}");
    }
    // …and an armed site kills a grandchild's run.
    world.failpoints.arm(activity_service::failpoints::BEFORE_OUTCOME, 0);
    world.service.begin("order-2").unwrap();
    world.service.begin("fulfil-2").unwrap();
    let doomed = world.service.begin("reserve-2").unwrap();
    doomed
        .coordinator()
        .add_signal_set(Box::new(BroadcastSignalSet::new("Reserve", "hold", Value::Null)))
        .unwrap();
    assert!(doomed.signal("Reserve").is_err(), "the inherited failpoint must fire");
    world.failpoints.clear();
    for _ in 0..3 {
        world.service.complete().unwrap();
    }
}

#[test]
fn a_subtransaction_and_its_parent_share_the_recorder() {
    let world = instrumented();
    world.run_nested_activity_with_subtransaction();

    // The provisional commit is a span of its own, mirrored as it opens…
    let opened = world.recorded_details(RecordKind::SpanOpen);
    assert!(opened.iter().any(|name| name == "commit:tx-1.0"), "{opened:?}");
    // …and the parent's 2PC over the inherited participants is journaled
    // step by step, with nothing attached anywhere.
    let protocol = world.recorded_details(RecordKind::Protocol);
    assert_eq!(
        protocol,
        vec![
            "prepare_sent(ledger)",
            "vote_recorded(ledger, Commit)",
            "prepare_sent(audit)",
            "vote_recorded(audit, Commit)",
            "decision_forced(commit=true)",
            "outcome_delivered(ledger, commit=true, ok=true)",
            "forgotten(ledger)",
            "outcome_delivered(audit, commit=true, ok=true)",
            "forgotten(audit)",
            "completed(committed=true)",
        ]
    );
}

#[test]
fn every_step_is_recorded_once_under_its_own_origin() {
    let world = instrumented();
    // A child activity…
    world.service.begin("order").unwrap();
    world.service.begin("fulfil").unwrap();
    // …a subtransaction rolled back under a top-level transaction that
    // commits without it…
    let top = world.factory.create().unwrap();
    let sub = top.begin_subtransaction().unwrap();
    let store = Arc::new(TransactionalKv::new("ledger"));
    store.enlist(&sub).unwrap();
    store.write(sub.id(), "k", Value::from(1i64)).unwrap();
    sub.terminator().rollback().unwrap();
    top.terminator().commit().unwrap();
    for _ in 0..2 {
        world.service.complete().unwrap();
    }
    // …and a workflow, whose tasks are activities of their own.
    world.run_two_task_workflow();

    let steps = world.recorder.steps();
    // Every activity began under its own origin, naming its parent.
    let mut begun = std::collections::BTreeMap::new();
    for (origin, step) in &steps {
        if let ProtocolEvent::ActivityBegun { activity, name, parent } = step {
            assert_eq!(*origin, Origin::Activity(*activity), "{name} began under a foreign origin");
            assert!(begun.insert(name.as_str(), (*activity, *parent)).is_none(), "{name} began twice");
        }
    }
    let id = |name: &str| begun[name].0;
    let parent = |name: &str| begun[name].1;
    assert_eq!(begun.len(), 5, "{begun:?}");
    assert_eq!(parent("order"), None);
    assert_eq!(parent("fulfil"), Some(id("order")));
    assert_eq!(parent("ship"), None);
    assert_eq!((parent("pick"), parent("pack")), (Some(id("ship")), Some(id("ship"))));
    let ids: BTreeSet<u64> = begun.values().map(|(activity, _)| *activity).collect();
    assert_eq!(ids.len(), 5, "five activities, five origins");
    // A task's signal-set runs are its own activity's, not the workflow's.
    for task in ["pick", "pack"] {
        let polled = steps.iter().any(|(origin, step)| {
            *origin == Origin::Activity(id(task)) && matches!(step, ProtocolEvent::GetSignal { .. })
        });
        assert!(polled, "no fig. 5 step under {task}'s origin");
    }

    // The rollback is the subtransaction's, the completion its parent's: the
    // branch path tells them apart and names the parent.
    let of = |branch: Vec<u32>| -> Vec<String> {
        let origin = Origin::Transaction { top: 1, branch };
        let own = steps.iter().filter(|(o, _)| *o == origin);
        own.map(|(_, step)| step.to_string()).collect()
    };
    assert_eq!(of(vec![0]), vec!["outcome_delivered(ledger, commit=false, ok=true)"]);
    assert_eq!(of(vec![]), vec!["completed(committed=true)"]);
}

#[test]
fn absent_and_disabled_planes_record_nothing() {
    // A default Env: nothing to record into, and the whole stack runs.
    let unused = FailpointSet::new();
    let bare = world(Env::new(), FlightRecorder::new(NODE, 8), Telemetry::disabled(), unused);
    bare.run_nested_activity_with_subtransaction();
    bare.run_two_task_workflow();
    assert!(bare.env.recorder.is_none() && bare.env.live_telemetry().is_none());
    assert!(bare.recorder.is_empty());

    // Planes present but gated off: every site reaches its gate and stops.
    let recorder = FlightRecorder::new(NODE, 64);
    recorder.set_enabled(false);
    let telemetry = Telemetry::disabled();
    let failpoints = FailpointSet::new();
    let env = Env::wired(Env {
        failpoints: Some(failpoints.clone()),
        telemetry: Some(telemetry.clone()),
        recorder: Some(recorder.clone()),
        causality: Some(CausalityPlane::new()),
        ..Default::default()
    });
    let gated = world(env, recorder, telemetry, failpoints);
    gated.run_nested_activity_with_subtransaction();
    gated.run_two_task_workflow();
    assert!(gated.recorder.is_empty());
    assert_eq!(gated.telemetry.span_count(), 0);
}
