//! Sagas: step failures injected through scenario-owned failpoint sites;
//! the compensation oracle checks reverse-order undo of committed steps.

use std::collections::BTreeMap;
use std::sync::Arc;

use activity_service::ActivityService;
use parking_lot::Mutex;
use recovery_log::FailpointSet;
use tx_models::sagas::{Saga, SagaOutcome};

use crate::oracle::{EffectCount, Observation, RunOutcome};
use crate::scenario::Scenario;
use crate::schedule::FaultSchedule;

const STEPS: &[&str] = &["taxi", "restaurant", "hotel"];

fn step_site(step: &str) -> String {
    format!("saga.step.{step}")
}

/// A three-step trip-booking saga. Arming `saga.step.<name>` makes that
/// step's forward work fail, which must trigger reverse-order compensation
/// of everything already committed.
pub struct SagaScenario;

impl Scenario for SagaScenario {
    fn name(&self) -> &'static str {
        "saga"
    }

    fn run(&self, schedule: &FaultSchedule) -> Observation {
        let failpoints = FailpointSet::new();
        schedule.arm_into(&failpoints);
        let service = ActivityService::new();
        let forward_effects: Arc<Mutex<BTreeMap<String, u64>>> =
            Arc::new(Mutex::new(BTreeMap::new()));
        let undo_order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

        let mut saga = Saga::new("trip");
        for step in STEPS {
            let fp = failpoints.clone();
            let effects = Arc::clone(&forward_effects);
            let undos = Arc::clone(&undo_order);
            let site = step_site(step);
            let forward_step = (*step).to_owned();
            let undo_step = (*step).to_owned();
            saga = saga.step(
                *step,
                move || {
                    fp.hit(&site).map_err(|e| e.to_string())?;
                    *effects.lock().entry(forward_step.clone()).or_insert(0) += 1;
                    Ok(())
                },
                move || {
                    undos.lock().push(undo_step.clone());
                    Ok(())
                },
            );
        }
        let report = saga.run(&service).expect("saga machinery");

        let mut obs = Observation::new(match report.outcome {
            SagaOutcome::Completed => RunOutcome::Committed,
            SagaOutcome::Compensated { .. } => RunOutcome::Aborted,
        });
        obs.compensation_required = matches!(report.outcome, SagaOutcome::Compensated { .. });
        obs.completed_steps = report.committed.clone();
        obs.compensated_steps = undo_order.lock().clone();

        let effects = forward_effects.lock();
        for step in STEPS {
            let committed = report.committed.iter().any(|s| s == step);
            let undone = obs.compensated_steps.iter().any(|s| s == step);
            obs.participant_commits.push(((*step).to_owned(), committed && !undone));
            let expected = u64::from(committed);
            obs.effects.push(EffectCount {
                action: (*step).to_owned(),
                observed: effects.get(*step).copied().unwrap_or(0),
                min: expected,
                max: expected,
            });
        }
        obs.trace = format!(
            "committed={:?} compensated={:?} outcome={:?}\n",
            report.committed,
            obs.compensated_steps,
            report.outcome
        );
        obs.space.sites = failpoints.observed_sites();
        // The committed and compensated lists above replay through the
        // §5.1 saga model once the saga's ending is reported with them.
        obs.saga_completed = Some(matches!(report.outcome, SagaOutcome::Completed));
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::schedule::FaultEvent;

    #[test]
    fn fault_free_saga_commits_every_step() {
        let obs = SagaScenario.run(&FaultSchedule::empty());
        assert_eq!(obs.outcome, RunOutcome::Committed);
        assert_eq!(obs.completed_steps, STEPS);
        assert!(oracle::check_all(&obs).is_empty());
        assert_eq!(obs.space.sites.len(), STEPS.len());
    }

    #[test]
    fn failing_the_last_step_compensates_in_reverse() {
        let schedule = FaultSchedule::from_events(vec![FaultEvent::ArmFailpoint {
            site: step_site("hotel"),
            after: 0,
        }]);
        let obs = SagaScenario.run(&schedule);
        assert_eq!(obs.outcome, RunOutcome::Aborted);
        assert_eq!(obs.completed_steps, vec!["taxi", "restaurant"]);
        assert_eq!(obs.compensated_steps, vec!["restaurant", "taxi"]);
        assert!(oracle::check_all(&obs).is_empty(), "{:?}", oracle::check_all(&obs));
    }

    #[test]
    fn failing_the_first_step_compensates_nothing() {
        let schedule = FaultSchedule::from_events(vec![FaultEvent::ArmFailpoint {
            site: step_site("taxi"),
            after: 0,
        }]);
        let obs = SagaScenario.run(&schedule);
        assert_eq!(obs.outcome, RunOutcome::Aborted);
        assert!(obs.completed_steps.is_empty());
        assert!(obs.compensated_steps.is_empty());
        assert!(oracle::check_all(&obs).is_empty());
    }
}
