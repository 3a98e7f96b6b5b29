//! Exhaustive bounded-schedule exploration with dynamic partial-order
//! reduction (DPOR).
//!
//! Where [`mod@crate::sweep`] *samples* the schedule space (seeded random
//! fault schedules), this module *enumerates* it: every interleaving of
//! ORB deliveries the coordinator can choose between, crossed with every
//! single-crash fault plan, up to a configurable execution/wall-clock
//! budget. Coverage claims ("no reachable execution at this depth
//! violates the spec") need enumeration, not sampling. Both run the same
//! [`Scenario`]s under the same [`FaultSchedule`]s, detect with the same
//! check and report the same [`FailureReport`]s.
//!
//! # How an execution is named
//!
//! A scenario exposes its nondeterminism through the
//! [`orb::choice::DeliverySequencer`] hook: wherever the implementation
//! has more than one pending delivery to pick from, it asks the sequencer
//! which to deliver next. A scenario with such a component installs a
//! [`ChoiceDriver`] replaying [`FaultSchedule::choices`] — a vector of
//! choice indices, one per decision point, with `0` (registration order)
//! assumed past the prescribed prefix — and reports the choice points the
//! run actually hit ([`Observation::report_choices`]). The explorer runs
//! the empty prescription first and pushes one child prescription per
//! untaken alternative — a depth-first search that visits each distinct
//! schedule exactly once. A scenario that reports no choice points is
//! enumerated over its fault plans alone.
//!
//! # The reduction
//!
//! Most alternatives commute: delivering `prepare` to `a` before `b` or
//! `b` before `a` reaches the same state when both vote yes, because
//! clean deliveries to distinct participants in the same round are
//! independent. The scenario reports each delivery's disruptiveness
//! through [`orb::choice::DeliverySequencer::report`] (`clean = false`
//! for a veto, an error, a crashed call); the driver counts dirty
//! reports, and each choice point remembers the count at its creation.
//! After a run, a choice point whose suffix saw **no** dirty delivery had
//! only commuting alternatives — the whole subtree is pruned (sleep-set
//! style). A veto keeps every earlier choice point hot (who vetoes first
//! is order-dependent), while crash fault plans arm failpoints *between*
//! rounds and leave clean rounds prunable: recovery resolves every
//! in-doubt participant uniformly from the durable decision, so
//! intra-round order cannot matter. The honesty check on the reduction is
//! measured, not assumed: [`ExploreReport::distinct_fingerprints`] must
//! match between a reduced and an unreduced enumeration of a scenario
//! whose facts do not record delivery order (see this module's tests).
//!
//! Every enumerated execution is run twice and checked by all twelve
//! oracles — including the refinement oracle replaying the run's journal
//! through [`crate::model`] — and any divergence is shrunk to a 1-minimal
//! schedule by [`crate::shrink`].

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use orb::choice::{clamp_choice, DeliverySequencer};
use parking_lot::Mutex;

use crate::oracle::Observation;
use crate::scenario::Scenario;
use crate::schedule::{FaultEvent, FaultSchedule};
use crate::sweep::{violations_for, FailureReport};
use telemetry::{fnv1a, FNV_OFFSET};

/// One decision point a run passed through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoicePoint {
    /// Protocol stage the choice arose in (`"prepare"`, `"phase2"`, ...).
    pub stage: String,
    /// Labels of the deliveries that were pending, registration order.
    pub pending: Vec<String>,
    /// How many alternatives existed (`pending.len()`).
    pub options: usize,
    /// The index actually taken.
    pub chosen: usize,
    /// The driver's dirty-delivery count when this point was created;
    /// compared against the final count for the DPOR pruning rule.
    pub dirty_at_creation: u64,
}

/// A [`DeliverySequencer`] that replays a prescription and records the
/// choice points it steers — the explorer's steering wheel and odometer
/// in one.
#[derive(Debug, Default)]
pub struct ChoiceDriver {
    prescribed: Vec<usize>,
    taken: Mutex<Vec<ChoicePoint>>,
    dirty: Mutex<u64>,
}

impl ChoiceDriver {
    /// A driver replaying `prescribed`, choosing index 0 (registration
    /// order) past its end.
    #[must_use]
    pub fn new(prescribed: Vec<usize>) -> Arc<Self> {
        Arc::new(ChoiceDriver { prescribed, taken: Mutex::new(Vec::new()), dirty: Mutex::new(0) })
    }

    /// The choice points the run hit, in order.
    #[must_use]
    pub fn taken(&self) -> Vec<ChoicePoint> {
        self.taken.lock().clone()
    }

    /// Total disruptive (non-clean) deliveries reported.
    #[must_use]
    pub fn total_dirty(&self) -> u64 {
        *self.dirty.lock()
    }
}

impl DeliverySequencer for ChoiceDriver {
    fn next_delivery(&self, stage: &str, pending: &[&str]) -> usize {
        let mut taken = self.taken.lock();
        let chosen =
            clamp_choice(self.prescribed.get(taken.len()).copied().unwrap_or(0), pending.len());
        taken.push(ChoicePoint {
            stage: stage.to_owned(),
            pending: pending.iter().map(|p| (*p).to_owned()).collect(),
            options: pending.len(),
            chosen,
            dirty_at_creation: *self.dirty.lock(),
        });
        chosen
    }

    fn report(&self, _stage: &str, _peer: &str, clean: bool) {
        if !clean {
            *self.dirty.lock() += 1;
        }
    }
}

/// Exploration bounds.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Crashes per fault plan (0 = fault-free only, 1 = one stay-dead plan
    /// per discovered site plus one crash-and-recover plan per restart
    /// site).
    pub max_crashes: u32,
    /// Whether the partial-order reduction prunes commuting subtrees.
    pub dpor: bool,
    /// Hard ceiling on enumerated executions; exceeding it sets
    /// [`ExploreReport::truncated`].
    pub max_executions: u64,
    /// Wall-clock budget; exceeding it sets [`ExploreReport::truncated`].
    pub budget: Option<Duration>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig { max_crashes: 1, dpor: true, max_executions: 20_000, budget: None }
    }
}

/// What an exploration covered and found.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Scenario explored.
    pub scenario: String,
    /// Executions enumerated (each is run twice, for the determinism
    /// oracle).
    pub executions: u64,
    /// Subtrees the reduction pruned (choice points whose alternatives
    /// all commuted).
    pub pruned_subtrees: u64,
    /// Distinct observation fingerprints across all executions — the
    /// state-coverage measure a reduced run must preserve.
    pub distinct_fingerprints: usize,
    /// Most choice points any single execution hit (the depth bound
    /// actually reached).
    pub max_choice_points: usize,
    /// Fault plans enumerated (fault-free probe plan included).
    pub fault_plans: usize,
    /// Oracle divergences, each with a minimized reproducer.
    pub divergences: Vec<FailureReport>,
    /// Whether a budget cut enumeration short — coverage claims are void.
    pub truncated: bool,
}

fn fingerprint(obs: &Observation) -> u64 {
    let mut hash = FNV_OFFSET;
    hash = fnv1a(hash, obs.trace.as_bytes());
    hash = fnv1a(hash, &[obs.outcome as u8]);
    for (name, committed) in &obs.participant_commits {
        hash = fnv1a(hash, name.as_bytes());
        hash = fnv1a(hash, &[u8::from(*committed)]);
    }
    if let Some(events) = &obs.model_events {
        hash = fnv1a(hash, format!("{events:?}").as_bytes());
    }
    hash
}

/// The fault plans [`explore`] crosses delivery orders with: the fault-free
/// plan, then (from one allowed crash up) a stay-dead crash at each
/// failpoint site the fault-free `probe` run passed and a
/// crash-and-recover at each restart site it declares.
pub(crate) fn fault_plans(probe: &Observation, max_crashes: u32) -> Vec<FaultSchedule> {
    let mut plans = vec![FaultSchedule::empty()];
    if max_crashes >= 1 {
        let space = &probe.space;
        let crashes =
            space.sites.iter().cloned().map(|site| FaultEvent::ArmFailpoint { site, after: 0 });
        let restarts =
            space.restart_sites.iter().cloned().map(|site| FaultEvent::Restart { site, after: 0 });
        plans.extend(crashes.chain(restarts).map(|crash| FaultSchedule::from_events(vec![crash])));
    }
    plans
}

/// Enumerate every execution of `scenario` within `config`'s bounds,
/// oracle-checking each one.
pub fn explore(scenario: &dyn Scenario, config: &ExploreConfig) -> ExploreReport {
    let started = Instant::now();
    let mut report = ExploreReport { scenario: scenario.name().to_owned(), ..Default::default() };

    // Probe: discover the sites the fault plans enumerate over.
    let plans = fault_plans(&scenario.run(&FaultSchedule::empty()), config.max_crashes);
    report.fault_plans = plans.len();

    let mut fingerprints = BTreeSet::new();
    'plans: for faults in plans {
        // Depth-first over prescriptions, starting from the default path.
        let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
        while let Some(prescription) = stack.pop() {
            let over_budget =
                config.budget.is_some_and(|budget| started.elapsed() >= budget);
            if report.executions >= config.max_executions || over_budget {
                report.truncated = true;
                break 'plans;
            }

            let prefix = prescription.len();
            let schedule = faults.clone().with_choices(prescription);
            let (obs, violations) = violations_for(scenario, &schedule);
            report.executions += 1;
            fingerprints.insert(fingerprint(&obs));
            if !violations.is_empty() {
                let failure = FailureReport::new(scenario, None, schedule, violations, true);
                report.divergences.push(failure);
            }

            let taken = &obs.choice_points;
            report.max_choice_points = report.max_choice_points.max(taken.len());

            // Branch on every choice point past the prescribed prefix: the
            // prefix was fixed by an ancestor, so re-branching it would
            // enumerate paths twice.
            for (index, point) in taken.iter().enumerate().skip(prefix) {
                if point.options <= 1 {
                    continue;
                }
                if config.dpor && obs.dirty_deliveries == point.dirty_at_creation {
                    // No disruptive delivery at or after this point: every
                    // alternative commutes with the chosen order.
                    report.pruned_subtrees += 1;
                    continue;
                }
                for alt in 1..point.options {
                    let mut child: Vec<usize> =
                        taken[..index].iter().map(|p| p.chosen).collect();
                    child.push(alt);
                    stack.push(child);
                }
            }
        }
    }
    report.distinct_fingerprints = fingerprints.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::RunOutcome;

    /// A synthetic scenario with two rounds of three pending deliveries.
    /// It journals nothing and violates an oracle only when the first
    /// round delivers "c" first — a planted order-dependence the explorer
    /// must find and the shrinker must reduce to `choices: [2]`.
    struct OrderSensitive;

    impl Scenario for OrderSensitive {
        fn name(&self) -> &'static str {
            "order-sensitive"
        }

        fn run(&self, schedule: &FaultSchedule) -> Observation {
            let driver = ChoiceDriver::new(schedule.choices().to_vec());
            let mut first_delivered = None;
            for round in ["prepare", "phase2"] {
                let mut pending = vec!["a", "b", "c"];
                while !pending.is_empty() {
                    let pick = if pending.len() > 1 {
                        driver.next_delivery(round, &pending)
                    } else {
                        0
                    };
                    let peer = pending.remove(pick);
                    // "c" is the disruptive peer: its delivery is dirty,
                    // so orders around it stay hot under DPOR.
                    driver.report(round, peer, peer != "c");
                    if round == "prepare" && first_delivered.is_none() {
                        first_delivered = Some(peer);
                    }
                }
            }
            let mut obs = Observation::new(RunOutcome::Committed);
            obs.trace = format!("first={first_delivered:?}");
            if first_delivered == Some("c") {
                // Planted: delivering c first loses a participant.
                obs.participant_commits = vec![("a".into(), false)];
            }
            obs.report_choices(&driver);
            obs
        }
    }

    #[test]
    fn exhaustive_enumeration_visits_every_interleaving() {
        // Two rounds of 3 pending deliveries: 6 orders each, but DFS
        // branches only where choices exist (3 * 2 per round) = 36 paths.
        let config = ExploreConfig { max_crashes: 0, dpor: false, ..Default::default() };
        let report = explore(&OrderSensitive, &config);
        assert_eq!(report.executions, 36);
        assert!(!report.truncated);
        assert_eq!(report.max_choice_points, 4);
    }

    #[test]
    fn the_planted_order_dependence_is_found_and_shrunk_to_one_choice() {
        let config = ExploreConfig { max_crashes: 0, dpor: false, ..Default::default() };
        let report = explore(&OrderSensitive, &config);
        // 12 of 36 paths deliver c first (choices starting [2] or [1,1]).
        assert_eq!(report.divergences.len(), 12);
        for divergence in &report.divergences {
            assert!(divergence.minimized.is_empty());
            assert_eq!(divergence.minimized.choices(), &[2], "{divergence:?}");
            assert!(divergence.repro().contains("]).with_choices(vec![2])"));
        }
    }

    #[test]
    fn dpor_reduces_without_losing_states_or_the_divergence() {
        // Once "c" (the only dirty delivery of a round) is out, the
        // remaining a/b orders commute — DPOR prunes those suffixes but
        // must preserve every distinct state and still hit the planted
        // divergence.
        let full = explore(&OrderSensitive, &ExploreConfig {
            max_crashes: 0,
            dpor: false,
            ..Default::default()
        });
        let reduced = explore(&OrderSensitive, &ExploreConfig {
            max_crashes: 0,
            dpor: true,
            ..Default::default()
        });
        assert!(reduced.executions < full.executions, "{reduced:?}");
        assert!(reduced.pruned_subtrees > 0);
        assert_eq!(reduced.distinct_fingerprints, full.distinct_fingerprints);
        assert!(!reduced.divergences.is_empty());
        assert_eq!(reduced.divergences[0].minimized.choices(), &[2]);
    }

    /// All-clean variant: every delivery commutes, so DPOR collapses the
    /// whole space to the default path.
    struct AllClean;

    impl Scenario for AllClean {
        fn name(&self) -> &'static str {
            "all-clean"
        }

        fn run(&self, schedule: &FaultSchedule) -> Observation {
            let driver = ChoiceDriver::new(schedule.choices().to_vec());
            let mut pending = vec!["a", "b", "c"];
            while !pending.is_empty() {
                let pick = if pending.len() > 1 {
                    driver.next_delivery("prepare", &pending)
                } else {
                    0
                };
                let peer = pending.remove(pick);
                driver.report("prepare", peer, true);
            }
            let mut obs = Observation::new(RunOutcome::Committed);
            obs.report_choices(&driver);
            obs
        }
    }

    #[test]
    fn a_fully_commuting_round_collapses_to_one_execution_under_dpor() {
        let reduced = explore(&AllClean, &ExploreConfig {
            max_crashes: 0,
            dpor: true,
            ..Default::default()
        });
        assert_eq!(reduced.executions, 1);
        assert_eq!(reduced.pruned_subtrees, 2);
        let full = explore(&AllClean, &ExploreConfig {
            max_crashes: 0,
            dpor: false,
            ..Default::default()
        });
        assert_eq!(full.executions, 6);
        // The reduction must not lose states: one distinct fingerprint
        // either way.
        assert_eq!(reduced.distinct_fingerprints, full.distinct_fingerprints);
    }

    #[test]
    fn the_execution_ceiling_truncates_and_says_so() {
        let config =
            ExploreConfig { max_crashes: 0, dpor: false, max_executions: 5, budget: None };
        let report = explore(&OrderSensitive, &config);
        assert!(report.truncated);
        assert_eq!(report.executions, 5);
    }

    #[test]
    fn a_zero_wall_clock_budget_truncates_immediately() {
        let config = ExploreConfig {
            max_crashes: 0,
            dpor: false,
            max_executions: u64::MAX,
            budget: Some(Duration::from_secs(0)),
        };
        let report = explore(&OrderSensitive, &config);
        assert!(report.truncated);
    }

    /// A scenario whose trace carries a process-wide counter: every single
    /// run looks healthy, and no two runs agree.
    struct Unrepeatable;

    impl Scenario for Unrepeatable {
        fn name(&self) -> &'static str {
            "unrepeatable"
        }

        fn run(&self, _schedule: &FaultSchedule) -> Observation {
            static RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let mut obs = Observation::new(RunOutcome::Committed);
            obs.trace = format!("run {}", RUNS.fetch_add(1, std::sync::atomic::Ordering::SeqCst));
            obs
        }
    }

    #[test]
    fn a_nondeterministic_scenario_is_reported_under_determinism() {
        let report = explore(&Unrepeatable, &ExploreConfig::default());
        assert_eq!(report.divergences.len(), 1, "{:?}", report.divergences);
        let violations = &report.divergences[0].violations;
        assert!(violations.iter().all(|v| v.oracle == "determinism"), "{violations:?}");
    }

    #[test]
    fn restart_sites_are_enumerated_as_crash_and_recover_plans() {
        use crate::scenarios::TerminationScenario;
        let probe = TerminationScenario.run(&FaultSchedule::empty());
        let (sites, restarts) = (probe.space.sites.len(), probe.space.restart_sites.len());
        assert_eq!((sites, restarts), (7, 3));
        let plans = fault_plans(&probe, 1);
        let recovered = plans.iter().filter(|plan| {
            matches!(plan.events(), [FaultEvent::Restart { after: 0, .. }])
        });
        assert_eq!(recovered.count(), restarts);
        let report = explore(&TerminationScenario, &ExploreConfig::default());
        assert_eq!(report.fault_plans, 1 + 7 + 3);
        assert!(!report.truncated);
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
    }
}
