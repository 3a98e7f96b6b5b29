//! Scenario adapters: one per figure-test of the paper.

mod broken;
mod btp_atom;
mod causal_fixture;
mod explore_two_phase;
mod nested;
mod saga;
mod termination;
mod two_phase;
mod workflow;

pub use broken::BrokenWorkflowScenario;
pub use btp_atom::BtpAtomScenario;
pub use causal_fixture::{ReorderedOutcomeScenario, RACE_SITE};
pub use explore_two_phase::{BrokenAtomicCommitScenario, ExplorableTwoPhase};
pub use nested::NestedCompensationScenario;
pub use saga::SagaScenario;
pub use termination::{ForgetfulCoordinatorScenario, TerminationScenario};
pub use two_phase::{TwoPhaseGroupCommitScenario, TwoPhaseScenario};
pub use workflow::{WorkflowNoRetryScenario, WorkflowRetryScenario, WorkflowScenario};

use crate::model::Step;
use crate::scenario::Scenario;

/// One coordinator's own trace, rendered a step per line: the fig. 5 steps
/// of `activity` in a run's recorded `stream`.
fn coordinator_trace(stream: &[Step], activity: activity_service::ActivityId) -> String {
    let own = stream.iter().filter(|(origin, step)| {
        *origin == activity.origin() && step.kind() == telemetry::RecordKind::Trace
    });
    telemetry::render_steps(own.map(|(_, step)| step))
}

/// Every well-behaved scenario (excludes the intentionally broken
/// fixture), in sweep order.
pub fn all() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(TwoPhaseScenario),
        Box::new(TwoPhaseGroupCommitScenario),
        Box::new(NestedCompensationScenario),
        Box::new(SagaScenario),
        Box::new(WorkflowScenario),
        Box::new(BtpAtomScenario),
        Box::new(TerminationScenario),
    ]
}
