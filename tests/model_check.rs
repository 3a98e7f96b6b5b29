//! Model-based conformance checking: exhaustive bounded-schedule
//! exploration of the real 2PC protocol against the executable reference
//! models, the measured DPOR reduction factor, every scenario under the
//! explorer, and the planted fixtures its crash/choice space must catch
//! and shrink.
//!
//! The CI `model-check` job runs this file with `--nocapture` and
//! uploads the printed reports as the divergence-repro artifact.

use std::time::Duration;

use harness::scenarios::{
    self, BrokenAtomicCommitScenario, ForgetfulCoordinatorScenario, ReorderedOutcomeScenario,
    ThreeParticipantTwoPhase, WorkflowRetryScenario,
};
use harness::{explore, ExploreConfig, ExploreReport, FaultSchedule, Scenario};

/// The wall-clock ceiling the CI job enforces; exploration must finish
/// (untruncated) well inside it.
const CI_BUDGET: Duration = Duration::from_secs(120);

fn budgeted(dpor: bool) -> ExploreConfig {
    ExploreConfig { dpor, budget: Some(CI_BUDGET), ..ExploreConfig::default() }
}

#[test]
fn exhaustive_exploration_of_three_participant_2pc_finds_no_divergence() {
    let report = explore(&ThreeParticipantTwoPhase, &budgeted(true));
    println!(
        "2pc dpor: executions={} pruned_subtrees={} fault_plans={} max_choice_points={}",
        report.executions, report.pruned_subtrees, report.fault_plans, report.max_choice_points
    );
    // The wall-clock budget guard: coverage claims are void if the budget
    // truncated enumeration, so the claim below is only as good as this.
    assert!(!report.truncated, "exploration exceeded the CI budget");
    // One fault-free plan plus one single-crash plan per ots site.
    assert_eq!(report.fault_plans, 1 + ots::failpoints::FAILPOINT_SITES.len());
    assert_eq!(report.fault_plans, 6);
    // The deepest execution decides two rounds of three deliveries.
    assert_eq!(report.max_choice_points, 4);
    for divergence in &report.divergences {
        eprintln!("{}", divergence.repro());
    }
    assert!(report.divergences.is_empty(), "{:?}", report.divergences);
}

#[test]
fn dpor_reduction_factor_is_at_least_five() {
    let naive = explore(&ThreeParticipantTwoPhase, &budgeted(false));
    let reduced = explore(&ThreeParticipantTwoPhase, &budgeted(true));
    assert!(!naive.truncated && !reduced.truncated);
    assert!(naive.divergences.is_empty() && reduced.divergences.is_empty());
    let factor = naive.executions as f64 / reduced.executions as f64;
    println!(
        "reduction factor: {factor:.1}x ({} naive executions, {} with dpor, {} subtrees pruned)",
        naive.executions, reduced.executions, reduced.pruned_subtrees
    );
    // Every delivery in a clean or crash-interrupted 2PC round commutes,
    // so the reduced enumeration collapses to one execution per fault
    // plan; the naive one pays 6 orders per two-choice round.
    assert!(
        factor >= 5.0,
        "DPOR reduced {} naive executions only to {}",
        naive.executions,
        reduced.executions
    );
    // Pinned: the explored space moves only when the protocol does.
    assert_eq!((naive.executions, reduced.executions), (91, 6));
    assert_eq!(reduced.pruned_subtrees, 14);
}

fn diverges(scenario: &dyn Scenario, schedule: &FaultSchedule) -> bool {
    !harness::check_all(&scenario.run(schedule)).is_empty()
}

/// Explore a planted fixture: it must be caught, by `oracle` alone, and
/// every reproducer must be 1-minimal under [`FaultSchedule::reductions`].
fn caught_by(scenario: &dyn Scenario, oracle: &str) -> ExploreReport {
    let report = explore(scenario, &budgeted(true));
    assert!(!report.truncated);
    assert!(!report.divergences.is_empty(), "{}: the planted bug escaped", report.scenario);
    for divergence in &report.divergences {
        println!("{}", divergence.repro());
        for violation in &divergence.violations {
            assert_eq!(violation.oracle, oracle, "{violation}");
        }
        // The minimized execution still reproduces, and no single shrink
        // move does: 1-minimal.
        assert!(diverges(scenario, &divergence.minimized));
        for candidate in divergence.minimized.reductions() {
            assert!(
                !diverges(scenario, &candidate),
                "shrink was not 1-minimal: {candidate} still diverges (from {})",
                divergence.minimized
            );
        }
    }
    report
}

#[test]
fn the_planted_commit_after_abort_vote_is_caught_and_shrunk_to_one_minimal() {
    // Registration order hides the bug; reordering exposes it — only the
    // explorer's enumeration can find it, and only oracle #9 sees it.
    let report = caught_by(&BrokenAtomicCommitScenario, "refinement");
    for divergence in &report.divergences {
        assert!(divergence.violations.iter().all(|v| v.detail.contains("presumed abort")));
        // Every shrunk reproducer carries the coordinator's black box —
        // the flight-recorder dump re-captured from the minimized
        // execution, not the original failing one.
        let repro = divergence.repro();
        assert!(
            repro.contains("flight recorder at failure:")
                && repro.contains("flight-recorder node=broken-coordinator"),
            "repro is missing the recorder dump:\n{repro}"
        );
    }
    // The sharpest repro is a single prescribed choice: poll the vetoing
    // participant first.
    assert!(
        report
            .divergences
            .iter()
            .any(|d| d.minimized.is_empty() && d.minimized.choices() == [2]),
        "expected a one-choice reproducer among {:?}",
        report.divergences.iter().map(|d| &d.minimized).collect::<Vec<_>>()
    );
}

#[test]
fn the_seeded_sweeps_planted_fixtures_are_caught_by_a_single_crash() {
    // The forgetful coordinator needs one undecided crash (oracle #10), the
    // reordered outcome one armed race (oracle #12): both are single-crash
    // plans, so enumeration reaches them without a seed. (The no-dedup
    // workflow needs a duplicated message and stays the sweep's.)
    let forgetful = caught_by(&ForgetfulCoordinatorScenario, "eventual-resolution");
    assert!(forgetful.divergences.iter().all(|d| d.minimized.len() == 1));
    let reordered = caught_by(&ReorderedOutcomeScenario, "causal-consistency");
    assert!(reordered.divergences.iter().all(|d| d.minimized.len() == 1));
    assert!(reordered.divergences.iter().all(|d| d.causal_trace.is_some()));
}

#[test]
fn every_scenario_is_enumerated_clean() {
    // One coverage row per scenario; `executions == fault_plans` says DPOR
    // collapsed every plan to its default order.
    let mut scenarios = scenarios::all();
    scenarios.push(Box::new(WorkflowRetryScenario));
    let expected_plans = [6, 6, 3, 4, 4, 4, 11, 4];
    assert_eq!(scenarios.len(), expected_plans.len());
    for (scenario, plans) in scenarios.iter().zip(expected_plans) {
        let report = explore(scenario.as_ref(), &budgeted(true));
        println!(
            "explored {:<24} fault_plans={:<2} executions={:<2} pruned_subtrees={} \
             max_choice_points={} divergences={}",
            report.scenario,
            report.fault_plans,
            report.executions,
            report.pruned_subtrees,
            report.max_choice_points,
            report.divergences.len()
        );
        assert!(!report.truncated, "{}", report.scenario);
        for divergence in &report.divergences {
            eprintln!("{}", divergence.repro());
        }
        assert!(report.divergences.is_empty(), "{}: {:?}", report.scenario, report.divergences);
        assert_eq!(report.fault_plans, plans, "{}", report.scenario);
        assert_eq!(report.executions, plans as u64, "{}", report.scenario);
    }
}

#[test]
fn a_tight_wall_clock_budget_truncates_instead_of_overrunning() {
    let config = ExploreConfig {
        budget: Some(Duration::from_millis(0)),
        ..ExploreConfig::default()
    };
    let report = explore(&ThreeParticipantTwoPhase, &config);
    assert!(report.truncated, "a zero budget must truncate");
}
