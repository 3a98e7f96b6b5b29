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
pub use causal_fixture::{LaggingClockScenario, RACE_SITE};
pub use explore_two_phase::{BrokenAtomicCommitScenario, ThreeParticipantTwoPhase};
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::fault_plans;
    use crate::oracle::Observation;

    /// Which of the twelve oracles `obs` gives something to check, #1–#12.
    fn bound(obs: &Observation) -> [bool; 12] {
        let compensates = obs.compensation_required
            || !obs.completed_steps.is_empty()
            || !obs.compensated_steps.is_empty();
        [
            !obs.participant_commits.is_empty(),
            !obs.effects.is_empty(),
            compensates,
            obs.replay.is_some(),
            true,
            obs.fault_budget.is_some(),
            obs.spans.is_some(),
            obs.durability.is_some(),
            obs.model_events.is_some() || obs.saga_completed.is_some(),
            obs.termination.is_some(),
            obs.black_box.is_some() || obs.critical_path_exact.is_some(),
            obs.causal.is_some(),
        ]
    }

    /// DESIGN.md §13's model × oracle matrix cannot drift: each row is
    /// recomputed as the union of what the scenario reports across the
    /// runs the explorer makes of it — fault-free plus every single crash.
    #[test]
    fn the_model_by_oracle_matrix_in_design_md_is_what_the_scenarios_report() {
        let design = include_str!("../../../../DESIGN.md");
        let mut scenarios = all();
        scenarios.extend([
            Box::new(ThreeParticipantTwoPhase) as Box<dyn Scenario>,
            Box::new(WorkflowRetryScenario),
            Box::new(WorkflowNoRetryScenario),
            Box::new(BrokenWorkflowScenario),
            Box::new(ForgetfulCoordinatorScenario),
            Box::new(LaggingClockScenario),
            Box::new(BrokenAtomicCommitScenario),
        ]);
        let mut drifted = Vec::new();
        for scenario in &scenarios {
            let probe = scenario.run(&crate::FaultSchedule::empty());
            let mut row = [false; 12];
            for plan in fault_plans(&probe, 1) {
                let reported = bound(&scenario.run(&plan));
                row.iter_mut().zip(reported).for_each(|(cell, binds)| *cell |= binds);
            }
            let cells: Vec<&str> =
                row.iter().map(|binds| if *binds { "●" } else { "·" }).collect();
            let rendered = format!("| `{}` | {} |", scenario.name(), cells.join(" | "));
            if !design.lines().any(|line| line == rendered) {
                drifted.push(rendered);
            }
        }
        let missing = drifted.join("\n");
        assert!(drifted.is_empty(), "DESIGN.md §13 is missing these rows:\n{missing}");
    }
}
