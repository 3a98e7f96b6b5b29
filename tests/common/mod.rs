//! Shared by the root integration tests: reading a run's own account of its
//! protocol steps back from the flight recorder in its context.
#![allow(dead_code)]

use std::sync::Arc;

use activity_service::Activity;
use orb::Env;
use telemetry::{FlightRecorder, ProtocolEvent, RecordKind};

/// A context with no plane but a recorder that never evicts, and that
/// recorder.
pub fn recording_env() -> (Arc<Env>, FlightRecorder) {
    let recorder = FlightRecorder::new("test", usize::MAX);
    (Env { recorder: Some(recorder.clone()), ..Env::default() }.wired(), recorder)
}

/// A root activity whose whole tree is recorded, and the recorder.
pub fn recorded_root(name: &str) -> (Activity, FlightRecorder) {
    let (env, recorder) = recording_env();
    (Activity::new_root(name, env), recorder)
}

/// The fig. 5 steps `recorder` holds, whoever emitted them.
pub fn trace(recorder: &FlightRecorder) -> Vec<ProtocolEvent> {
    let steps = recorder.steps().into_iter().map(|(_, step)| step);
    steps.filter(|step| step.kind() == RecordKind::Trace).collect()
}
