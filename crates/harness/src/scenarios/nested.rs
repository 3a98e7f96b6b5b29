//! Fig. 9 open nesting: nested transaction B commits early inside
//! enclosing activity A; if A later fails, the CompensationAction must
//! undo B exactly once.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use activity_service::{Activity, CompletionStatus, DispatchConfig};
use orb::Env;
use recovery_log::FailpointSet;
use telemetry::FlightRecorder;
use tx_models::compensation::{
    ActivityRegistry, CompensationAction, CompletionSignalSet, InMemoryActivityRegistry,
    COMPLETION_SET,
};

use crate::oracle::{EffectCount, Observation, RunOutcome};
use crate::scenario::Scenario;
use crate::schedule::FaultSchedule;

/// Site making nested activity B fail instead of committing early.
pub const SITE_FAIL_B: &str = "fig9.fail_b";
/// Site making enclosing activity A complete in failure.
pub const SITE_FAIL_A: &str = "fig9.fail_a";

/// The fig. 9 structure under scripted completion faults.
pub struct NestedCompensationScenario;

impl Scenario for NestedCompensationScenario {
    fn name(&self) -> &'static str {
        "nested-compensation"
    }

    fn run(&self, schedule: &FaultSchedule) -> Observation {
        let failpoints = FailpointSet::new();
        schedule.arm_into(&failpoints);
        let b_fails = failpoints.hit(SITE_FAIL_B).is_err();
        let a_fails = failpoints.hit(SITE_FAIL_A).is_err();

        let registry = InMemoryActivityRegistry::new();
        // The whole account of the run: A and B share one context, so both
        // coordinators' steps and both lifecycles land in this recorder,
        // each under its activity's origin. It is read, not reported — the
        // scenario has no black box for oracle #11.
        let steps = FlightRecorder::new("activities", usize::MAX);
        let env = Env { recorder: Some(steps.clone()), ..Env::default() };
        let a = Activity::new_root("A", env.wired());
        a.coordinator().set_dispatch_config(DispatchConfig::serial());
        a.coordinator()
            .add_signal_set(Box::new(CompletionSignalSet::new()))
            .expect("A completion set");
        a.set_completion_signal_set(COMPLETION_SET);
        registry.register(&a);

        let b = a.begin_child("B").expect("begin B");
        b.coordinator().set_dispatch_config(DispatchConfig::serial());
        b.coordinator()
            .add_signal_set(Box::new(CompletionSignalSet::propagating_to(a.id())))
            .expect("B completion set");
        b.set_completion_signal_set(COMPLETION_SET);
        registry.register(&b);

        let undone = Arc::new(AtomicU32::new(0));
        let undone2 = Arc::clone(&undone);
        let action = CompensationAction::new(
            "compensate-B",
            registry.clone() as Arc<dyn ActivityRegistry>,
            move || {
                undone2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        );
        b.coordinator()
            .register_action(COMPLETION_SET, Arc::clone(&action) as _);

        if b_fails {
            b.complete_with_status(CompletionStatus::Fail).expect("fail B");
        } else {
            b.complete().expect("complete B");
        }
        if a_fails {
            a.set_completion_status(CompletionStatus::FailOnly).expect("doom A");
        }
        a.complete().expect("complete A");

        let mut obs = Observation::new(if a_fails {
            RunOutcome::Aborted
        } else {
            RunOutcome::Committed
        });
        // B's early-committed effect must survive exactly when A commits.
        if !b_fails {
            obs.completed_steps = vec!["B".into()];
            obs.participant_commits = vec![("B".into(), !action.compensated())];
        }
        if action.compensated() {
            obs.compensated_steps = vec!["B".into()];
        }
        obs.compensation_required = !b_fails && a_fails;
        let required = u64::from(obs.compensation_required);
        obs.effects = vec![EffectCount {
            action: "compensate-B".into(),
            observed: u64::from(undone.load(Ordering::SeqCst)),
            min: required,
            max: required,
        }];
        // The stream holds the fig. 4 nesting steps and each coordinator's
        // fig. 5 steps; both run a set named [`COMPLETION_SET`], which the
        // origins keep apart. The rendered trace is each coordinator's own.
        let stream = steps.steps();
        let trace_of = |activity: &Activity| super::coordinator_trace(&stream, activity.id());
        obs.trace = format!("--- A ---\n{}--- B ---\n{}", trace_of(&a), trace_of(&b));
        obs.space.sites = failpoints.observed_sites();
        obs.model_events = Some(stream);
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::schedule::FaultEvent;

    fn arm(site: &str) -> FaultEvent {
        FaultEvent::ArmFailpoint { site: site.into(), after: 0 }
    }

    #[test]
    fn fault_free_run_commits_b_without_compensation() {
        let obs = NestedCompensationScenario.run(&FaultSchedule::empty());
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert_eq!(obs.participant_commits, vec![("B".to_owned(), true)]);
        assert!(oracle::check_all(&obs).is_empty());
        assert_eq!(obs.space.sites, vec![SITE_FAIL_A, SITE_FAIL_B]);
    }

    #[test]
    fn a_failing_after_b_committed_compensates_b() {
        let obs =
            NestedCompensationScenario.run(&FaultSchedule::from_events(vec![arm(SITE_FAIL_A)]));
        assert_eq!(obs.outcome, RunOutcome::Aborted);
        assert_eq!(obs.compensated_steps, vec!["B"]);
        assert!(oracle::check_all(&obs).is_empty(), "{:?}", oracle::check_all(&obs));
    }

    #[test]
    fn b_failing_leaves_nothing_to_compensate() {
        let obs = NestedCompensationScenario
            .run(&FaultSchedule::from_events(vec![arm(SITE_FAIL_B), arm(SITE_FAIL_A)]));
        assert_eq!(obs.outcome, RunOutcome::Aborted);
        assert!(obs.compensated_steps.is_empty());
        assert!(obs.participant_commits.is_empty());
        assert!(oracle::check_all(&obs).is_empty());
    }
}
