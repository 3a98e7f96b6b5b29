//! Fig. 10-style workflow signalling over the simulated ORB: a coordinator
//! broadcasts a work signal to a remote action behind a scripted network.
//! With the `ExactlyOnceAction` wrapper, message duplication and loss must
//! never multiply the effect.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use activity_service::{
    ActionServant, ActivityService, BroadcastSignalSet, DispatchConfig, ExactlyOnceAction,
    FnAction, Outcome, RemoteActionProxy, Signal,
};
use orb::{Env, NetworkConfig, Orb, RetryPolicy, SimClock, Value};
use recovery_log::{FailpointSet, MemWal, Wal};

use crate::oracle::{BlackBox, EffectCount, FaultBudget, Observation, RunOutcome, Spans};
use crate::scenario::Scenario;
use crate::schedule::FaultSchedule;

/// Fixed network seed: every run replays the identical latency stream.
const NETWORK_SEED: u64 = 0x5EED_0001;

/// Shared wiring for the workflow scenario and the intentionally broken
/// fixture: `exactly_once` selects whether the remote effect is wrapped in
/// the WAL-backed dedup layer. Delivery is 65 immediate attempts with no
/// fault accounting, so the liveness oracle does not bind.
pub(crate) fn run_workflow(schedule: &FaultSchedule, exactly_once: bool) -> Observation {
    run_workflow_with(schedule, exactly_once, RetryPolicy::immediate(65), false)
}

/// Full wiring: `policy` is how the remote signal delivery handles
/// transport faults; `accounted` reports the schedule's fault counts and
/// the policy's retry budget, so the liveness-under-bounded-faults oracle
/// binds.
pub(crate) fn run_workflow_with(
    schedule: &FaultSchedule,
    exactly_once: bool,
    policy: RetryPolicy,
    accounted: bool,
) -> Observation {
    let clock = SimClock::new();
    // Spans are timestamped off the run's virtual clock, and the recorder
    // feeds oracle #7: the tree must stay well-formed on every schedule and
    // its event projection byte-identical to the coordinator trace.
    let telemetry = telemetry::Telemetry::with_time(Arc::new(clock.clone()));
    // The coordinator's flight recorder (oracle #11): every protocol step,
    // span open/close and failpoint passage lands in the ring on the same
    // virtual clock, so its fingerprint must be bit-identical across the
    // determinism oracle's double runs. The coordinator trace is read back
    // from it; no sweep schedule makes the ring wrap.
    let recorder = telemetry::FlightRecorder::with_time(
        "coordinator",
        telemetry::DEFAULT_RECORDER_CAPACITY,
        Arc::new(clock.clone()),
    );
    let failpoints = FailpointSet::new();
    if exactly_once {
        schedule.arm_into(&failpoints);
    }
    // One context for the ORB and the activity service: the coordinator
    // inherits failpoints, telemetry and recorder from the service.
    let env = Env::wired(Env {
        clock,
        failpoints: Some(failpoints.clone()),
        telemetry: Some(telemetry.clone()),
        recorder: Some(recorder.clone()),
        ..Default::default()
    });
    let orb = Orb::builder()
        .network(NetworkConfig::lossy(0.0, 0.0, NETWORK_SEED))
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
    let servant_action: Arc<dyn activity_service::Action> = if exactly_once {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        ExactlyOnceAction::new("eo-debit", inner, wal).expect("exactly-once wrapper") as _
    } else {
        inner
    };
    let obj = worker
        .activate("Action", ActionServant::new(servant_action))
        .expect("activate action");

    let service = ActivityService::builder().env(env).build();
    // A crashed completion intentionally keeps the thread association (so a
    // real caller can repair and retry); the harness drains any leftover
    // association instead, so every run is hermetic. A leaked activity would
    // re-parent this run's activity and shift its id, and that id lands in
    // span attrs — tripping the span-fingerprint half of oracle #7.
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
    let retry_budget = policy.max_attempts().saturating_sub(1);
    let proxy =
        RemoteActionProxy::new("remote", orb.clone(), "coordinator", obj).with_policy(policy);
    activity.coordinator().register_action("Bill", Arc::new(proxy) as _);

    let result = service.complete();
    // A crashed completion leaves the activity associated and its
    // `activity:` span ambient and open: the process died there. Close the
    // span as that death would, then drain the association.
    while service.depth() > 0 {
        if let Some(span) = telemetry.current() {
            telemetry.end(&span);
        }
        let _ = service.suspend();
    }
    let mut obs = Observation::new(match &result {
        Ok(outcome) if outcome.is_done() => RunOutcome::Committed,
        Ok(_) => RunOutcome::Aborted,
        Err(_) => RunOutcome::Crashed,
    });
    // At-least-once delivery with dedup: a committed run has exactly one
    // effect; a failed/crashed run may have stopped before (0) or after (1)
    // the delivery, but never more than one.
    let (min, max) = match obs.outcome {
        RunOutcome::Committed => (1, 1),
        RunOutcome::Aborted | RunOutcome::Crashed => (0, 1),
    };
    obs.effects = vec![EffectCount {
        action: "debit".into(),
        observed: u64::from(effects.load(Ordering::SeqCst)),
        min,
        max,
    }];
    obs.trace = super::coordinator_trace(&recorder.steps(), activity.id());
    let span_tree = telemetry.span_tree();
    obs.spans = Some(Spans::of(&span_tree));
    obs.black_box = Some(BlackBox::of(&recorder));
    obs.critical_path_exact = span_tree.critical_path().map(|path| path.is_exact());
    obs.space.sites = failpoints.observed_sites();
    obs.space.remote_messages = orb.network().remote_messages();
    // Fault accounting for the liveness oracle: only reported by the
    // scenarios that are about the reliability layer, so the plain
    // scenarios' observations (and fingerprints) are untouched.
    obs.fault_budget = accounted.then(|| FaultBudget::of(schedule, retry_budget));
    obs
}

/// The well-behaved workflow: remote effect wrapped in
/// [`ExactlyOnceAction`], activity failpoints armable.
pub struct WorkflowScenario;

impl Scenario for WorkflowScenario {
    fn name(&self) -> &'static str {
        "workflow-exactly-once"
    }

    fn run(&self, schedule: &FaultSchedule) -> Observation {
        run_workflow(schedule, true)
    }
}

/// The workflow with the `orb::retry` reliability layer enabled (8 attempts,
/// deterministic backoff + jitter on the virtual clock). Reports fault
/// accounting, so every sweep run additionally checks
/// **liveness-under-bounded-faults**: a schedule of ≤7 message drops and no
/// crash failpoints must still commit.
pub struct WorkflowRetryScenario;

impl Scenario for WorkflowRetryScenario {
    fn name(&self) -> &'static str {
        "workflow-retries"
    }

    fn run(&self, schedule: &FaultSchedule) -> Observation {
        let policy = RetryPolicy::new(8).with_base_backoff(std::time::Duration::from_millis(1));
        run_workflow_with(schedule, true, policy, true)
    }
}

/// The negative control: the same workflow with retry compiled down to a
/// single attempt. Used to demonstrate that the liveness property is really
/// carried by the reliability layer (a pinned drop schedule aborts here and
/// commits under [`WorkflowRetryScenario`]).
pub struct WorkflowNoRetryScenario;

impl Scenario for WorkflowNoRetryScenario {
    fn name(&self) -> &'static str {
        "workflow-no-retries"
    }

    fn run(&self, schedule: &FaultSchedule) -> Observation {
        run_workflow_with(schedule, true, RetryPolicy::none(), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::schedule::FaultEvent;

    #[test]
    fn fault_free_workflow_charges_once() {
        let obs = WorkflowScenario.run(&FaultSchedule::empty());
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert_eq!(obs.effects[0].observed, 1);
        assert!(oracle::check_all(&obs).is_empty());
        assert!(obs.space.remote_messages > 0, "the probe must count remote messages");
        let mut expected: Vec<String> = activity_service::failpoints::FAILPOINT_SITES
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        expected.sort();
        assert_eq!(obs.space.sites, expected);
    }

    #[test]
    fn duplicated_charge_message_is_deduplicated() {
        let schedule =
            FaultSchedule::from_events(vec![FaultEvent::DuplicateMessage { nth: 0 }]);
        let obs = WorkflowScenario.run(&schedule);
        assert_eq!(obs.effects[0].observed, 1, "exactly-once wrapper must dedup");
        assert!(oracle::check_all(&obs).is_empty(), "{:?}", oracle::check_all(&obs));
    }

    #[test]
    fn dropped_charge_message_is_retried() {
        let schedule = FaultSchedule::from_events(vec![FaultEvent::DropMessage { nth: 0 }]);
        let obs = WorkflowScenario.run(&schedule);
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert_eq!(obs.effects[0].observed, 1);
        assert!(oracle::check_all(&obs).is_empty());
    }

    #[test]
    fn retry_layer_is_invisible_on_the_fault_free_path() {
        // With no faults scheduled, enabling the reliability layer must not
        // change a single observable byte: same trace, same outcome, same
        // effect counts, same message count.
        let legacy = WorkflowScenario.run(&FaultSchedule::empty());
        let retrying = WorkflowRetryScenario.run(&FaultSchedule::empty());
        assert_eq!(legacy.trace, retrying.trace, "fault-free traces must be byte-identical");
        assert_eq!(legacy.outcome, retrying.outcome);
        assert_eq!(legacy.effects, retrying.effects);
        assert_eq!(legacy.space.remote_messages, retrying.space.remote_messages);
        let none = WorkflowNoRetryScenario.run(&FaultSchedule::empty());
        assert_eq!(legacy.trace, none.trace);
        assert_eq!(legacy.outcome, none.outcome);
    }

    #[test]
    fn bounded_drops_commit_with_retries_and_abort_without() {
        // One dropped request leg: within the retry budget the run must
        // commit; with retries disabled the same schedule loses liveness —
        // and the liveness oracle reports exactly that asymmetry.
        let schedule = FaultSchedule::from_events(vec![FaultEvent::DropMessage { nth: 0 }]);
        let retrying = WorkflowRetryScenario.run(&schedule);
        assert_eq!(retrying.outcome, RunOutcome::Committed);
        assert_eq!(
            retrying.fault_budget,
            Some(FaultBudget { transient: 1, hard: 0, retry_budget: 7 })
        );
        assert!(oracle::check_all(&retrying).is_empty(), "{:?}", oracle::check_all(&retrying));

        let bare = WorkflowNoRetryScenario.run(&schedule);
        assert_ne!(bare.outcome, RunOutcome::Committed, "no retry, no liveness");
        // Budget 0 < 1 transient fault: outside the envelope, so the oracle
        // stays silent — aborting is the *correct* bare-transport behaviour.
        assert!(oracle::check_all(&bare).is_empty(), "{:?}", oracle::check_all(&bare));
    }

    #[test]
    fn coordinator_crash_is_bounded_by_the_contract() {
        let schedule = FaultSchedule::from_events(vec![FaultEvent::ArmFailpoint {
            site: activity_service::failpoints::BEFORE_TRANSMIT.into(),
            after: 0,
        }]);
        let obs = WorkflowScenario.run(&schedule);
        assert_eq!(obs.outcome, RunOutcome::Crashed);
        assert_eq!(obs.effects[0].observed, 0);
        assert!(oracle::check_all(&obs).is_empty(), "{:?}", oracle::check_all(&obs));
    }
}
