//! The orphan reaper: times out activities whose enclosing coordinator has
//! gone unreachable.
//!
//! §3.2.1 of the paper dooms a timed-out activity to `FailOnly`, but an
//! *orphan* — one whose enclosing coordinator crashed or sits on the far
//! side of a partition — has nobody left to drive its completion. The
//! reaper is that somebody: given the roots it oversees and a reachability
//! predicate (typically `orb::SimulatedNetwork::reachable` or a
//! `FailureDetector` quarantine check), it completes every activity that is
//! still `Active`, past its [`crate::Activity::set_timeout`] deadline and
//! whose coordinator is unreachable. Completion goes through the ordinary
//! [`crate::Activity::complete_with_status`] path, so the timeout forces
//! `FailOnly`, the failure outcome is produced and the terminal lifecycle
//! step is emitted like any other — the refinement models see a legal
//! trace, not a vanished activity.
//!
//! Trees are reaped post-order (children before parents) because
//! completion refuses to run while a child is still active
//! ([`crate::error::ActivityError::ChildrenActive`]).

use crate::activity::{Activity, ActivityId, ActivityState};
use crate::completion::CompletionStatus;
use crate::error::ActivityError;

/// Named failpoint sites for the reaper (see the audit table in
/// `recovery-log/src/crash.rs` and `harness::registry`).
pub mod failpoints {
    /// The reaper decided to complete an orphan but crashes before the
    /// completion protocol runs — the orphan stays active for the next
    /// reaper pass. Passed through the *orphan's* context
    /// (`activity.env().hit(..)`), like every other `activity.*` site.
    pub const BEFORE_COMPLETE: &str = "activity.reaper.before_complete";
    /// Every site this module hits.
    pub const FAILPOINT_SITES: &[&str] = &[BEFORE_COMPLETE];
}

/// What one [`OrphanReaper::reap`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReapReport {
    /// Orphans completed as `FailOnly` by this pass.
    pub reaped: Vec<ActivityId>,
    /// Activities inspected but left alone (reachable coordinator, no
    /// deadline, or deadline not yet passed).
    pub skipped: Vec<ActivityId>,
}

/// Completes timed-out activities whose enclosing coordinator is
/// unreachable. Stateless between passes: run it from a detector
/// quarantine hook, after a partition heals, or on a periodic virtual-time
/// tick.
#[derive(Debug, Default, Clone, Copy)]
pub struct OrphanReaper;

impl OrphanReaper {
    /// A reaper.
    pub fn new() -> Self {
        OrphanReaper
    }

    /// Sweep the trees under `roots`, completing every orphan: an activity
    /// that is `Active`, past its deadline, and whose coordinator
    /// `reachable` denies. Children are visited before parents so a whole
    /// orphaned subtree collapses in one pass.
    ///
    /// # Errors
    ///
    /// [`ActivityError::Log`]-convertible crash injection (armed in the
    /// visited activity's [`orb::Env`]); completion
    /// errors other than [`ActivityError::ChildrenActive`] (a still-active
    /// child that was itself skipped is expected, not an error).
    pub fn reap(
        &self,
        roots: &[Activity],
        reachable: &dyn Fn(&Activity) -> bool,
    ) -> Result<ReapReport, ActivityError> {
        let mut report = ReapReport::default();
        for root in roots {
            self.reap_tree(root, reachable, &mut report)?;
        }
        Ok(report)
    }

    fn reap_tree(
        &self,
        activity: &Activity,
        reachable: &dyn Fn(&Activity) -> bool,
        report: &mut ReapReport,
    ) -> Result<(), ActivityError> {
        for child in activity.children() {
            self.reap_tree(&child, reachable, report)?;
        }
        if activity.state() != ActivityState::Active {
            return Ok(());
        }
        if !activity.timed_out() || reachable(activity) {
            report.skipped.push(activity.id());
            return Ok(());
        }
        activity.env().hit(failpoints::BEFORE_COMPLETE)?;
        match activity.complete_with_status(CompletionStatus::FailOnly) {
            // A child skipped in this same pass (not yet timed out) keeps
            // the parent alive; the next pass retries.
            Err(ActivityError::ChildrenActive(_)) => {
                report.skipped.push(activity.id());
                Ok(())
            }
            Err(e) => Err(e),
            Ok(_) => {
                report.reaped.push(activity.id());
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orb::{Env, SimClock};
    use recovery_log::FailpointSet;
    use std::time::Duration;

    fn orphan(clock: &SimClock) -> Activity {
        let a = Activity::new_root("orphan", clock.clone());
        a.set_timeout(Duration::from_millis(5));
        a
    }

    #[test]
    fn reaps_only_timed_out_unreachable_activities() {
        let clock = SimClock::new();
        let doomed = orphan(&clock);
        let healthy = Activity::new_root("healthy", clock.clone());
        healthy.set_timeout(Duration::from_millis(5));
        let patient = Activity::new_root("patient", clock.clone());
        patient.set_timeout(Duration::from_secs(60));
        clock.advance(Duration::from_millis(10));
        let reaper = OrphanReaper::new();
        let unreachable = |a: &Activity| a.name() == "healthy";
        let report = reaper
            .reap(&[doomed.clone(), healthy.clone(), patient.clone()], &unreachable)
            .unwrap();
        assert_eq!(report.reaped, vec![doomed.id()]);
        assert_eq!(report.skipped, vec![healthy.id(), patient.id()]);
        assert_eq!(doomed.state(), ActivityState::Completed);
        assert_eq!(doomed.completion_status(), CompletionStatus::FailOnly);
        assert_eq!(healthy.state(), ActivityState::Active);
        assert_eq!(patient.state(), ActivityState::Active);
    }

    #[test]
    fn orphaned_subtree_collapses_children_first() {
        let clock = SimClock::new();
        let root = orphan(&clock);
        let child = root.begin_child("child").unwrap();
        child.set_timeout(Duration::from_millis(5));
        clock.advance(Duration::from_millis(10));
        let report = OrphanReaper::new().reap(std::slice::from_ref(&root), &|_| false).unwrap();
        assert_eq!(report.reaped, vec![child.id(), root.id()]);
        assert_eq!(root.state(), ActivityState::Completed);
        assert_eq!(child.state(), ActivityState::Completed);
    }

    #[test]
    fn reaping_is_journaled_for_the_refinement_models() {
        let clock = SimClock::new();
        let recorder = telemetry::FlightRecorder::new("test", usize::MAX);
        let env = Env { clock: clock.clone(), recorder: Some(recorder.clone()), ..Env::default() };
        let root = Activity::new_root("orphan", env.wired());
        root.set_timeout(Duration::from_millis(5));
        clock.advance(Duration::from_millis(10));
        OrphanReaper::new().reap(std::slice::from_ref(&root), &|_| false).unwrap();
        let completed = recorder.steps().into_iter().any(|(origin, step)| {
            origin == root.id().origin()
                && matches!(
                    step,
                    telemetry::ProtocolEvent::ActivityCompleted { status: "FailOnly", .. }
                )
        });
        assert!(completed, "the reaper must journal the terminal event");
    }

    #[test]
    fn second_pass_finds_nothing_left() {
        let clock = SimClock::new();
        let root = orphan(&clock);
        clock.advance(Duration::from_millis(10));
        let reaper = OrphanReaper::new();
        assert_eq!(reaper.reap(std::slice::from_ref(&root), &|_| false).unwrap().reaped.len(), 1);
        let again = reaper.reap(&[root], &|_| false).unwrap();
        assert!(again.reaped.is_empty() && again.skipped.is_empty());
    }

    #[test]
    fn injected_crash_leaves_the_orphan_for_the_next_pass() {
        let clock = SimClock::new();
        let failpoints = FailpointSet::new();
        failpoints.arm(failpoints::BEFORE_COMPLETE, 0);
        let env = Env { clock: clock.clone(), failpoints: Some(failpoints.clone()), ..Env::default() };
        let root = Activity::new_root("orphan", env.wired());
        root.set_timeout(Duration::from_millis(5));
        clock.advance(Duration::from_millis(10));
        let reaper = OrphanReaper::new();
        assert!(reaper.reap(std::slice::from_ref(&root), &|_| false).is_err());
        assert_eq!(root.state(), ActivityState::Active, "crash before completion");
        // "Restart": the site is spent, the next pass succeeds.
        failpoints.clear();
        let report = reaper.reap(std::slice::from_ref(&root), &|_| false).unwrap();
        assert_eq!(report.reaped, vec![root.id()]);
    }
}
