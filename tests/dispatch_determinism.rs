//! Parallel dispatch must be observationally identical to the serial
//! loop: for every protocol engine, a pool=8 run and a pool=1 run must
//! produce byte-identical traces and the same final Outcome, because
//! results are collated in registration order and trace events are
//! emitted at collation time. Actions deliberately sleep for *longer on
//! earlier registrations* so the parallel run completes out of order
//! under the hood.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use activity_service::{
    Activity, BroadcastSignalSet, CompletionStatus, DispatchConfig, FnAction, Outcome, Signal,
};
use orb::Value;
use ots::{Resource, TransactionalKv, TxError, TxId, Vote};
use tx_models::sagas::CompletedSteps;
use tx_models::{ResourceAction, SagaSignalSet, StepCompensation, TwoPhaseCommitSignalSet,
    SAGA_SET, TWO_PC_SET};

/// Sleep long enough to invert completion order across a parallel pool.
fn stagger(index: usize, total: usize) -> Duration {
    Duration::from_micros(((total - index) * 200) as u64)
}

/// Run `scenario` under one dispatch config, returning the rendered
/// trace and the final outcome.
fn run_traced(
    config: DispatchConfig,
    scenario: impl Fn(&Activity),
    complete: bool,
) -> (String, String) {
    let (activity, recorder) = common::recorded_root("det");
    activity.coordinator().set_dispatch_config(config);
    scenario(&activity);
    let outcome = if complete {
        activity.complete().expect("complete")
    } else {
        activity.signal("S").expect("signal")
    };
    let trace = telemetry::render_steps(&common::trace(&recorder));
    (trace, format!("{}:{:?}", outcome.name(), outcome.data()))
}

fn assert_deterministic(scenario: impl Fn(&Activity) + Copy, complete: bool) {
    let serial = run_traced(DispatchConfig::serial(), scenario, complete);
    let parallel = run_traced(DispatchConfig::with_workers(8), scenario, complete);
    assert_eq!(serial.0, parallel.0, "the trace must be byte-identical");
    assert_eq!(serial.1, parallel.1, "final Outcome must be identical");
}

#[test]
fn broadcast_set_is_deterministic_across_pool_widths() {
    let scenario = |activity: &Activity| {
        activity
            .coordinator()
            .add_signal_set(Box::new(BroadcastSignalSet::new("S", "ping", Value::Null)))
            .unwrap();
        for i in 0..12usize {
            activity.coordinator().register_action(
                "S",
                Arc::new(FnAction::new(format!("a{i}"), move |_s: &Signal| {
                    std::thread::sleep(stagger(i, 12));
                    if i % 5 == 4 {
                        Err(activity_service::ActionError::new(format!("a{i} failed")))
                    } else {
                        Ok(Outcome::done())
                    }
                })) as _,
            );
        }
    };
    assert_deterministic(scenario, false);
}

struct VetoResource;
impl Resource for VetoResource {
    fn prepare(&self, _tx: &TxId) -> Result<Vote, TxError> {
        Ok(Vote::Rollback)
    }
    fn commit(&self, _tx: &TxId) -> Result<(), TxError> {
        Ok(())
    }
    fn rollback(&self, _tx: &TxId) -> Result<(), TxError> {
        Ok(())
    }
    fn resource_name(&self) -> &str {
        "veto"
    }
}

fn register_2pc_participants(activity: &Activity, veto_at: Option<usize>) {
    activity
        .coordinator()
        .add_signal_set(Box::new(TwoPhaseCommitSignalSet::new()))
        .unwrap();
    activity.set_completion_signal_set(TWO_PC_SET);
    let tx = TxId::top_level(1);
    for i in 0..8usize {
        let resource: Arc<dyn Resource> = if veto_at == Some(i) {
            Arc::new(VetoResource)
        } else {
            let store = Arc::new(TransactionalKv::new(format!("s{i}")));
            store.write(&tx, "k", Value::I64(i as i64)).unwrap();
            store
        };
        activity.coordinator().register_action(
            TWO_PC_SET,
            Arc::new(ResourceAction::new(format!("r{i}"), tx.clone(), resource)) as _,
        );
    }
}

#[test]
fn two_phase_commit_set_is_deterministic_across_pool_widths() {
    assert_deterministic(|activity| register_2pc_participants(activity, None), true);
}

#[test]
fn two_phase_early_break_on_veto_is_deterministic_across_pool_widths() {
    // A rollback vote makes the SignalSet answer RequestNext mid-delivery
    // (the EarlyBreak path): the parallel run cancels outstanding prepare
    // deliveries, yet the trace stops at exactly the same event as the
    // serial run because collation stops at the veto's registration index.
    assert_deterministic(|activity| register_2pc_participants(activity, Some(3)), true);
}

/// A participant whose prepare is slow enough to still be running when the
/// veto's `RequestNext` fires the batch's `CancelToken`. Counts entries and
/// exits so the test can tell "delivery never started" (cancelled while
/// queued) from "delivery ran speculatively" (idempotence contract).
struct SlowResource {
    started: Arc<AtomicUsize>,
    finished: Arc<AtomicUsize>,
}

impl Resource for SlowResource {
    fn prepare(&self, _tx: &TxId) -> Result<Vote, TxError> {
        self.started.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(50));
        self.finished.fetch_add(1, Ordering::SeqCst);
        Ok(Vote::Commit)
    }
    fn commit(&self, _tx: &TxId) -> Result<(), TxError> {
        Ok(())
    }
    fn rollback(&self, _tx: &TxId) -> Result<(), TxError> {
        Ok(())
    }
    fn resource_name(&self) -> &str {
        "slow"
    }
}

/// Vetoes like [`VetoResource`], but optionally waits until at least one
/// speculative prepare is genuinely mid-flight, so the early break is
/// guaranteed to race in-progress deliveries rather than only queued ones.
struct MidFlightVeto {
    started: Arc<AtomicUsize>,
    wait_for_mid_flight: bool,
}

impl Resource for MidFlightVeto {
    fn prepare(&self, _tx: &TxId) -> Result<Vote, TxError> {
        if self.wait_for_mid_flight {
            let deadline = Instant::now() + Duration::from_secs(2);
            while self.started.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
        Ok(Vote::Rollback)
    }
    fn commit(&self, _tx: &TxId) -> Result<(), TxError> {
        Ok(())
    }
    fn rollback(&self, _tx: &TxId) -> Result<(), TxError> {
        Ok(())
    }
    fn resource_name(&self) -> &str {
        "veto"
    }
}

/// The `RequestNext` → `CancelToken` path, observed from the participants'
/// side. Participant 0 vetoes the prepare while later participants' prepare
/// deliveries are mid-flight on the pool; the fired token must skip the
/// queued remainder, and whatever the speculative deliveries produced must
/// be invisible to the protocol (trace and outcome byte-identical to the
/// strictly serial run) — that is exactly the §3.4 idempotence contract:
/// an abandoned delivery is indistinguishable from a transport duplicate.
#[test]
fn request_next_cancels_speculative_deliveries_without_effect_leaks() {
    const PARTICIPANTS: usize = 24;

    let run = |config: DispatchConfig, wait_for_mid_flight: bool| {
        let started = Arc::new(AtomicUsize::new(0));
        let finished = Arc::new(AtomicUsize::new(0));
        let scenario = {
            let started = Arc::clone(&started);
            let finished = Arc::clone(&finished);
            move |activity: &Activity| {
                activity
                    .coordinator()
                    .add_signal_set(Box::new(TwoPhaseCommitSignalSet::new()))
                    .unwrap();
                activity.set_completion_signal_set(TWO_PC_SET);
                let tx = TxId::top_level(7);
                activity.coordinator().register_action(
                    TWO_PC_SET,
                    Arc::new(ResourceAction::new(
                        "veto",
                        tx.clone(),
                        Arc::new(MidFlightVeto {
                            started: Arc::clone(&started),
                            wait_for_mid_flight,
                        }),
                    )) as _,
                );
                for i in 1..PARTICIPANTS {
                    activity.coordinator().register_action(
                        TWO_PC_SET,
                        Arc::new(ResourceAction::new(
                            format!("g{i}"),
                            tx.clone(),
                            Arc::new(SlowResource {
                                started: Arc::clone(&started),
                                finished: Arc::clone(&finished),
                            }),
                        )) as _,
                    );
                }
            }
        };
        let (trace, outcome) = run_traced(config, scenario, true);
        // Let in-flight speculative prepares drain before counting: a
        // delivery that started before the cancel may still be sleeping.
        let deadline = Instant::now() + Duration::from_secs(5);
        while started.load(Ordering::SeqCst) != finished.load(Ordering::SeqCst)
            && Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        (trace, outcome, started.load(Ordering::SeqCst), finished.load(Ordering::SeqCst))
    };

    let (serial_trace, serial_outcome, serial_started, _) =
        run(DispatchConfig::serial(), false);
    let (par_trace, par_outcome, par_started, par_finished) =
        run(DispatchConfig::with_workers(8), true);

    // Serial early break never touches later participants at all.
    assert_eq!(serial_started, 0, "serial RequestNext must not deliver past the veto");
    // Parallel: at least one speculative prepare was genuinely mid-flight
    // when the veto collated (the veto waited for it)...
    assert!(par_started >= 1, "a speculative delivery should have been mid-flight");
    // ...every started delivery ran to completion (cancellation skips, it
    // never interrupts)...
    assert_eq!(par_started, par_finished, "started speculative deliveries must drain");
    // ...and the fired CancelToken skipped the queued remainder: far fewer
    // prepares ran than participants were registered.
    assert!(
        par_finished < PARTICIPANTS - 1,
        "cancellation must skip queued deliveries, yet {par_finished}/{} prepares ran",
        PARTICIPANTS - 1
    );
    // No effect leaks past the cancellation point: the speculative Commit
    // votes are discarded, so the protocol's trace and outcome are
    // byte-identical to the strictly serial run.
    assert_eq!(serial_trace, par_trace, "speculative outcomes leaked into the trace");
    assert_eq!(serial_outcome, par_outcome);
}

#[test]
fn saga_compensation_set_is_deterministic_across_pool_widths() {
    let scenario = |activity: &Activity| {
        let completed = CompletedSteps::new();
        for i in 0..6usize {
            completed.push(format!("step{i}"));
        }
        activity
            .coordinator()
            .add_signal_set(Box::new(SagaSignalSet::new(completed)))
            .unwrap();
        activity.set_completion_signal_set(SAGA_SET);
        for i in 0..6usize {
            activity.coordinator().register_action(
                SAGA_SET,
                StepCompensation::new(format!("step{i}"), move || {
                    std::thread::sleep(stagger(i, 6));
                    Ok(())
                }) as _,
            );
        }
        activity.set_completion_status(CompletionStatus::Fail).unwrap();
    };
    assert_deterministic(scenario, true);
}
