//! Fig. 10 of the paper: activity `a` coordinating the parallel execution
//! of `b` and `c` followed by `d`, with the full
//! `start`/`start_ack`/`outcome`/`outcome_ack` exchange — 12 messages in
//! the figure, asserted here exactly.

mod common;

use std::sync::Arc;

use activity_service::ActivityService;
use orb::Value;
use parking_lot::Mutex;
use telemetry::ProtocolEvent;
use tx_models::common::{SIG_OUTCOME, SIG_OUTCOME_ACK, SIG_START, SIG_START_ACK};
use tx_models::workflow_signals::{
    CompletedSignalSet, OutcomeCollector, TaskAction, TaskStartSignalSet, COMPLETED_SET,
    TASK_START_SET,
};
use wfengine::{script, FailurePolicy, TaskInput, TaskRegistry, TaskResult, WorkflowEngine};

/// The raw-signal reproduction: every one of fig. 10's 12 messages, in
/// order, as (message, from, to) triples.
#[test]
fn fig10_exact_message_sequence() {
    let service = ActivityService::new();
    let a = service.begin("a").unwrap();
    let log: Arc<Mutex<Vec<(String, String, String)>>> = Arc::new(Mutex::new(Vec::new()));

    // a → b, a → c: one TaskStartSignalSet both register with; then a → d.
    // Each registered TaskAction records start/start_ack itself.
    let mk_task = |name: &str| {
        let log = Arc::clone(&log);
        let name_owned = name.to_owned();
        TaskAction::new(name, move |_p: &Value| {
            log.lock().push((SIG_START.into(), "a".into(), name_owned.clone()));
            log.lock().push((SIG_START_ACK.into(), name_owned.clone(), "a".into()));
            Ok(Value::Null)
        })
    };

    a.coordinator()
        .add_signal_set(Box::new(TaskStartSignalSet::new(Value::from("order"))))
        .unwrap();
    a.coordinator().register_action(TASK_START_SET, mk_task("b") as _);
    a.coordinator().register_action(TASK_START_SET, mk_task("c") as _);
    a.signal(TASK_START_SET).unwrap();

    // b and c complete (in parallel in the figure; the outcome order b, c
    // matches the figure's drawing).
    for child_name in ["b", "c"] {
        let child = a.begin_child(child_name).unwrap();
        child
            .coordinator()
            .add_signal_set(Box::new(CompletedSignalSet::new(Value::Null)))
            .unwrap();
        child.set_completion_signal_set(COMPLETED_SET);
        let log2 = Arc::clone(&log);
        let child_owned = child_name.to_owned();
        let collector = activity_service::FnAction::new("a", move |s: &activity_service::Signal| {
            log2.lock().push((SIG_OUTCOME.into(), child_owned.clone(), "a".into()));
            log2.lock().push((SIG_OUTCOME_ACK.into(), "a".into(), child_owned.clone()));
            assert_eq!(s.name(), SIG_OUTCOME);
            Ok(activity_service::Outcome::new(SIG_OUTCOME_ACK))
        });
        child.coordinator().register_action(COMPLETED_SET, Arc::new(collector) as _);
        child.complete().unwrap();
    }

    // d: started after both outcomes arrive, then completes.
    let second_stage = TaskStartSignalSet::new(Value::Null);
    // A fresh set instance (the first ended); the coordinator allows
    // replacement of ended sets.
    a.coordinator().add_signal_set(Box::new(second_stage)).unwrap();
    a.coordinator().unregister_action(TASK_START_SET, "b");
    a.coordinator().unregister_action(TASK_START_SET, "c");
    a.coordinator().register_action(TASK_START_SET, mk_task("d") as _);
    a.signal(TASK_START_SET).unwrap();

    let d = a.begin_child("d").unwrap();
    d.coordinator()
        .add_signal_set(Box::new(CompletedSignalSet::new(Value::Null)))
        .unwrap();
    d.set_completion_signal_set(COMPLETED_SET);
    let log2 = Arc::clone(&log);
    d.coordinator().register_action(
        COMPLETED_SET,
        Arc::new(activity_service::FnAction::new("a", move |_s: &activity_service::Signal| {
            log2.lock().push((SIG_OUTCOME.into(), "d".into(), "a".into()));
            log2.lock().push((SIG_OUTCOME_ACK.into(), "a".into(), "d".into()));
            Ok(activity_service::Outcome::new(SIG_OUTCOME_ACK))
        })) as _,
    );
    d.complete().unwrap();
    service.complete().unwrap();

    let expected: Vec<(String, String, String)> = vec![
        (SIG_START.into(), "a".into(), "b".into()),
        (SIG_START_ACK.into(), "b".into(), "a".into()),
        (SIG_START.into(), "a".into(), "c".into()),
        (SIG_START_ACK.into(), "c".into(), "a".into()),
        (SIG_OUTCOME.into(), "b".into(), "a".into()),
        (SIG_OUTCOME_ACK.into(), "a".into(), "b".into()),
        (SIG_OUTCOME.into(), "c".into(), "a".into()),
        (SIG_OUTCOME_ACK.into(), "a".into(), "c".into()),
        (SIG_START.into(), "a".into(), "d".into()),
        (SIG_START_ACK.into(), "d".into(), "a".into()),
        (SIG_OUTCOME.into(), "d".into(), "a".into()),
        (SIG_OUTCOME_ACK.into(), "a".into(), "d".into()),
    ];
    assert_eq!(*log.lock(), expected, "the 12 messages of fig. 10, in order");
}

/// The engine-level reproduction: the same a→(b∥c)→d shape through the
/// workflow engine, checking the collector-side bookkeeping.
#[test]
fn fig10_through_the_engine() {
    let graph = script::parse(
        "task b;
         task c;
         task d after b, c;",
    )
    .unwrap();
    let mut registry = TaskRegistry::new();
    for t in ["b", "c"] {
        let t_owned = t.to_owned();
        registry.register(t, move |_i: &TaskInput| TaskResult::ok(Value::from(t_owned.as_str())));
    }
    registry.register("d", |input: &TaskInput| {
        // d sees both upstream outputs — proof the outcome signals carried
        // the data.
        assert_eq!(input.upstream["b"].as_str(), Some("b"));
        assert_eq!(input.upstream["c"].as_str(), Some("c"));
        TaskResult::ok(Value::from("d"))
    });
    let engine = WorkflowEngine::new(graph, registry).unwrap();
    let service = ActivityService::new();
    let report = engine.run_parallel(&service, "fig10", Value::Null).unwrap();
    assert!(report.succeeded());
    assert_eq!(report.completed.last().map(String::as_str), Some("d"));
}

/// §4.4's failure variant: "if t4 sends a failure outcome … the parent
/// activity can use this information to start tc1 in order to do the
/// compensation."
#[test]
fn fig10_failure_triggers_tc1() {
    let graph = script::parse(
        "task t1;
         task t2 after t1;
         task t3 after t1;
         task t4 after t2, t3;
         compensate t2 with tc1;",
    )
    .unwrap();
    let compensated = Arc::new(Mutex::new(false));
    let compensated2 = Arc::clone(&compensated);
    let mut registry = TaskRegistry::new();
    for t in ["t1", "t2", "t3"] {
        registry.register(t, |_i: &TaskInput| TaskResult::ok(Value::Null));
    }
    registry.register("t4", |_i: &TaskInput| TaskResult::failed("crash"));
    registry.register("tc1", move |_i: &TaskInput| {
        *compensated2.lock() = true;
        TaskResult::ok(Value::Null)
    });
    let engine = WorkflowEngine::new(graph, registry)
        .unwrap()
        .with_policy(FailurePolicy::CompensateAndStop);
    let service = ActivityService::new();
    let report = engine.run(&service, "fig2-workflow", Value::Null).unwrap();
    assert_eq!(report.failed, vec!["t4"]);
    assert!(*compensated.lock(), "tc1 ran");
    assert_eq!(report.compensations.len(), 1);
}

/// The outcome collector used standalone records multiple children.
#[test]
fn outcome_collector_accumulates_children() {
    let (env, recorder) = common::recording_env();
    let service = ActivityService::builder().env(env).build();
    let parent = service.begin("parent").unwrap();
    let collector = OutcomeCollector::new("parent-collector");
    for (i, name) in ["x", "y"].iter().enumerate() {
        let child = parent.begin_child(*name).unwrap();
        child
            .coordinator()
            .add_signal_set(Box::new(CompletedSignalSet::new(Value::U64(i as u64))))
            .unwrap();
        child.set_completion_signal_set(COMPLETED_SET);
        child.coordinator().register_action(COMPLETED_SET, Arc::clone(&collector) as _);
        child.complete().unwrap();
    }
    assert_eq!(
        collector.received(),
        vec![(true, Value::U64(0)), (true, Value::U64(1))]
    );
    let outcome_count = common::trace(&recorder)
        .iter()
        .filter(|e| matches!(e, ProtocolEvent::Transmit { signal, .. } if signal == SIG_OUTCOME))
        .count();
    assert_eq!(outcome_count, 2);
    service.complete().unwrap();
}
