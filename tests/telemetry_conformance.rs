//! Telemetry conformance under chaos: the metrics registry must account
//! for the faults the simulation actually injected. Two cross-checks:
//!
//! 1. Across a seed-swept chaos run of the fig. 10 workflow, every message
//!    the network dropped forced a retry attempt — `retry_attempts_total`
//!    never under-counts `NetworkStats::dropped` — while the recorded span
//!    trees stay well-formed with their event projection byte-identical to
//!    the coordinator trace (the same surfaces harness oracle #7 sweeps).
//! 2. The failure detector's `detector_transitions_total` series agree
//!    with the fault accounting the liveness oracle reasons about: the
//!    transition counts are exactly those implied by the injected
//!    consecutive-failure run and the final rehabilitation.

mod common;

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use activity_service::{
    ActionServant, ActivityService, BroadcastSignalSet, DispatchConfig, ExactlyOnceAction,
    FnAction, Outcome, RemoteActionProxy, Signal,
};
use harness::scenarios::WorkflowScenario;
use harness::{generate, FaultSchedule, Scenario, ScheduleSpace};
use orb::detector::{DetectorConfig, FailureDetector, HealthStatus};
use orb::{Env, FaultScript, NetworkConfig, Orb, Request, RetryPolicy, SimClock, Value};
use recovery_log::{FailpointSet, MemWal, Wal};
use telemetry::{FlightRecorder, Telemetry};

/// The fig. 10 workflow wiring (mirrors the harness `WorkflowRetryScenario`)
/// with the run's `Telemetry` and `Orb` handed back for metric inspection.
fn run_instrumented_workflow(schedule: &FaultSchedule) -> (Telemetry, Orb, String) {
    let clock = SimClock::new();
    let telemetry = Telemetry::with_time(Arc::new(clock.clone()));
    let failpoints = FailpointSet::new();
    schedule.arm_into(&failpoints);
    // The coordinator trace is read back, whole, from the recorder.
    let recorder = FlightRecorder::new("coordinator", usize::MAX);
    let env = Env::wired(Env {
        clock,
        failpoints: Some(failpoints),
        telemetry: Some(telemetry.clone()),
        recorder: Some(recorder.clone()),
        ..Default::default()
    });
    let orb = Orb::builder()
        .network(NetworkConfig::lossy(0.0, 0.0, 0x5EED_0001))
        .env(Arc::clone(&env))
        .build();
    orb.add_node("coordinator").expect("coordinator node");
    let worker = orb.add_node("worker").expect("worker node");
    orb.network().install_script(schedule.to_fault_script());

    let effects = Arc::new(AtomicU32::new(0));
    let effects2 = Arc::clone(&effects);
    let inner: Arc<dyn activity_service::Action> =
        Arc::new(FnAction::new("debit", move |_s: &Signal| {
            effects2.fetch_add(1, Ordering::SeqCst);
            Ok(Outcome::done())
        }));
    let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
    let servant: Arc<dyn activity_service::Action> =
        ExactlyOnceAction::new("eo-debit", inner, wal).expect("exactly-once wrapper") as _;
    let obj = worker.activate("Action", ActionServant::new(servant)).expect("activate");

    let service = ActivityService::builder().env(env).build();
    while service.depth() > 0 {
        let _ = service.suspend();
    }
    let activity = service.begin("billing-run").expect("begin activity");
    activity.coordinator().set_dispatch_config(DispatchConfig::serial());
    activity
        .coordinator()
        .add_signal_set(Box::new(BroadcastSignalSet::new("Bill", "charge", Value::U64(25))))
        .expect("signal set");
    activity.set_completion_signal_set("Bill");
    let proxy = RemoteActionProxy::new("remote", orb.clone(), "coordinator", obj)
        .with_policy(RetryPolicy::new(8).with_base_backoff(Duration::from_millis(1)));
    activity.coordinator().register_action("Bill", Arc::new(proxy) as _);

    let _ = service.complete();
    // A crashed completion leaves the activity associated with its
    // `activity:` span ambient and open; close it as the harness does.
    while service.depth() > 0 {
        if let Some(span) = telemetry.current() {
            telemetry.end(&span);
        }
        let _ = service.suspend();
    }
    (telemetry, orb, telemetry::render_steps(&common::trace(&recorder)))
}

#[test]
fn dropped_deliveries_are_covered_by_retry_attempts_across_a_sweep() {
    // Discover the schedule space exactly like the chaos explorer does.
    let space =
        ScheduleSpace { max_events: 4, ..WorkflowScenario.run(&FaultSchedule::empty()).space };

    let mut runs_with_drops = 0u32;
    for seed in 0..40u64 {
        let schedule = generate(0x20260806 + seed, &space);
        let (telemetry, orb, trace) = run_instrumented_workflow(&schedule);
        let dropped = orb.network().stats().dropped;
        let retries = telemetry.metrics().counter_value("retry_attempts_total");
        // Every dropped delivery forces its invocation to fail, and the
        // 8-attempt budget comfortably covers the ≤4 scheduled faults, so
        // each drop is answered by at least one retry attempt.
        assert!(
            retries >= dropped,
            "seed {seed}: {dropped} drops but only {retries} retry attempts ({schedule:?})"
        );
        if dropped > 0 {
            runs_with_drops += 1;
        }

        // The span tree recorded under chaos stays conformant: well-formed,
        // and its event projection is byte-identical to the coordinator
        // trace (oracle #7's surfaces).
        let tree = telemetry.span_tree();
        assert_eq!(tree.verify(), Vec::<String>::new(), "seed {seed}");
        assert_eq!(tree.coordinator_projection(), trace, "seed {seed}");
    }
    assert!(runs_with_drops > 0, "the sweep must exercise dropped deliveries");
}

#[test]
fn detector_transition_counts_match_the_injected_fault_run() {
    // Five consecutive request drops against one server, then success:
    // the detector must walk healthy -> suspect -> quarantined -> healthy,
    // and the metrics registry must count exactly those transitions.
    let telemetry = Telemetry::new();
    let clock = SimClock::new();
    let detector = FailureDetector::with_config(
        clock.clone(),
        DetectorConfig {
            suspect_after: 2,
            quarantine_after: 4,
            probe_interval: Duration::from_millis(50),
        },
    );
    let env = Env::wired(Env {
        clock,
        detector: Some(detector.clone()),
        telemetry: Some(telemetry.clone()),
        ..Default::default()
    });
    let orb = Orb::builder().env(env).build();
    orb.network().install_script(
        FaultScript::new().drop_nth(0).drop_nth(1).drop_nth(2).drop_nth(3).drop_nth(4),
    );
    let node = orb.add_node("srv").unwrap();
    let obj = node.activate("C", |_r: &Request| Ok(Value::Null)).unwrap();

    orb.invoke_with_policy(
        orb::node::EXTERNAL_CALLER,
        &obj,
        Request::new("work"),
        &RetryPolicy::immediate(8),
        None,
    )
    .expect("sixth attempt gets through");

    let dropped = orb.network().stats().dropped;
    assert_eq!(dropped, 5);
    assert_eq!(
        telemetry.metrics().counter_value("retry_attempts_total"),
        dropped,
        "one retry per dropped delivery"
    );

    // Fault accounting: 5 consecutive failures cross the suspect threshold
    // once (at 2) and the quarantine threshold once (at 4); the final
    // success rehabilitates. Nothing else may be counted.
    let m = telemetry.metrics();
    assert_eq!(
        m.counter_value("detector_transitions_total{from=\"healthy\",to=\"suspect\"}"),
        1
    );
    assert_eq!(
        m.counter_value("detector_transitions_total{from=\"suspect\",to=\"quarantined\"}"),
        1
    );
    assert_eq!(
        m.counter_value("detector_transitions_total{from=\"quarantined\",to=\"healthy\"}"),
        1
    );
    assert_eq!(m.family_total("detector_transitions_total"), 3);
    assert_eq!(detector.status("srv"), HealthStatus::Healthy, "rehabilitated");
    assert_eq!(detector.suspicion("srv"), 0);
}
