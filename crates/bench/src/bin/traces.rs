//! Prints the paper's sequence diagrams — figs. 8, 10, 11 and 12 — as
//! recorded from live protocol runs, so the figures can be compared line
//! by line against the published ones.
//!
//! Run with: `cargo run -q -p bench --bin traces`

use std::sync::Arc;

use activity_service::{Activity, CompletionStatus, FnAction, Outcome, Signal};
use orb::{Env, Value};
use telemetry::{FlightRecorder, Origin, ProtocolEvent, RecordKind};

fn banner(title: &str) {
    println!("\n==== {title} ====");
}

/// A root activity whose context keeps every protocol step of its tree, and
/// the recorder that keeps them.
fn recorded_root(name: &str) -> (Activity, FlightRecorder) {
    let recorder = FlightRecorder::new("traces", usize::MAX);
    let env = Env { recorder: Some(recorder.clone()), ..Env::default() };
    (Activity::new_root(name, env.wired()), recorder)
}

/// Print the fig. 5 steps among `steps` that are `activity`'s own.
fn print_trace(steps: &[(Origin, ProtocolEvent)], activity: &Activity) {
    for (origin, step) in steps {
        if *origin == activity.id().origin() && step.kind() == RecordKind::Trace {
            println!("  {step}");
        }
    }
}

fn fig8() {
    banner("fig. 8 — two-phase commit with Signals, SignalSets and Actions");
    let (activity, recorder) = recorded_root("tx");
    activity
        .coordinator()
        .add_signal_set(Box::new(tx_models::TwoPhaseCommitSignalSet::new()))
        .unwrap();
    activity.set_completion_signal_set(tx_models::TWO_PC_SET);
    for name in ["Action-1", "Action-2"] {
        activity.coordinator().register_action(
            tx_models::TWO_PC_SET,
            Arc::new(FnAction::new(name, |_s: &Signal| Ok(Outcome::done()))) as _,
        );
    }
    activity.complete().unwrap();
    print_trace(&recorder.steps(), &activity);
}

fn fig10() {
    banner("fig. 10 — workflow coordination: a starts b and c");
    let (activity, recorder) = recorded_root("a");
    activity
        .coordinator()
        .add_signal_set(Box::new(tx_models::TaskStartSignalSet::new(Value::from("order"))))
        .unwrap();
    for name in ["b", "c"] {
        activity.coordinator().register_action(
            tx_models::TASK_START_SET,
            tx_models::TaskAction::new(name, |_p: &Value| Ok(Value::from("started"))) as _,
        );
    }
    activity.signal(tx_models::TASK_START_SET).unwrap();
    print_trace(&recorder.steps(), &activity);

    println!("  --- child b reports its outcome back to a ---");
    let child = activity.begin_child("b").unwrap();
    child
        .coordinator()
        .add_signal_set(Box::new(tx_models::CompletedSignalSet::new(Value::from("b-result"))))
        .unwrap();
    child.set_completion_signal_set(tx_models::COMPLETED_SET);
    child.coordinator().register_action(
        tx_models::COMPLETED_SET,
        tx_models::OutcomeCollector::new("a") as _,
    );
    child.complete().unwrap();
    print_trace(&recorder.steps(), &child);
}

fn fig11_12() {
    banner("fig. 11 — the BTP PrepareSignalSet");
    let (activity, recorder) = recorded_root("atom");
    let atom = btp::Atom::new("booking", activity).unwrap();
    for name in ["Action-1", "Action-2"] {
        atom.enroll(btp::Reservation::new(name) as _).unwrap();
    }
    atom.prepare().unwrap();
    let prepared = recorder.steps();
    print_trace(&prepared, atom.activity());

    banner("fig. 12 — the BTP CompleteSignalSet (confirm)");
    atom.confirm().unwrap();
    print_trace(&recorder.steps()[prepared.len()..], atom.activity());

    banner("fig. 12 variant — cancel in place of confirm");
    let (activity, recorder) = recorded_root("atom-2");
    let atom = btp::Atom::new("booking-2", activity).unwrap();
    for name in ["Action-1", "Action-2"] {
        atom.enroll(btp::Reservation::new(name) as _).unwrap();
    }
    atom.prepare().unwrap();
    let prepared = recorder.steps().len();
    atom.cancel().unwrap();
    print_trace(&recorder.steps()[prepared..], atom.activity());
}

fn fig9() {
    banner("fig. 9 / sec 4.2 — open nesting: B propagates, A fails, !B runs");
    let registry = tx_models::InMemoryActivityRegistry::new();
    let (a, recorder) = recorded_root("A");
    a.coordinator()
        .add_signal_set(Box::new(tx_models::CompletionSignalSet::new()))
        .unwrap();
    a.set_completion_signal_set(tx_models::COMPLETION_SET);
    registry.register(&a);

    let b = a.begin_child("B").unwrap();
    b.coordinator()
        .add_signal_set(Box::new(tx_models::CompletionSignalSet::propagating_to(a.id())))
        .unwrap();
    b.set_completion_signal_set(tx_models::COMPLETION_SET);
    let undo = tx_models::CompensationAction::new(
        "CompensationAction",
        registry as Arc<dyn tx_models::ActivityRegistry>,
        || Ok(()),
    );
    b.coordinator()
        .register_action(tx_models::COMPLETION_SET, undo as _);

    b.complete().unwrap();
    println!("  --- B completes successfully: Propagate carries A's identity ---");
    print_trace(&recorder.steps(), &b);

    a.set_completion_status(CompletionStatus::FailOnly).unwrap();
    a.complete().unwrap();
    println!("  --- A later fails: the propagated action receives Failure and starts !B ---");
    print_trace(&recorder.steps(), &a);
}

fn main() {
    println!("Sequence-diagram reproduction: each block below is the live trace of the");
    println!("corresponding figure's protocol, in the paper's own message vocabulary.");
    fig8();
    fig9();
    fig10();
    fig11_12();
}
