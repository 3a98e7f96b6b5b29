//! Tier-1 bounded simulation sweep: the deterministic chaos explorer runs
//! a fixed population of seeded fault schedules against every scenario
//! adapter and checks the twelve §3.4 invariant oracles after each run.
//!
//! Two properties are pinned here:
//!
//! 1. **Soundness** — no generated schedule violates any oracle on the
//!    well-behaved scenarios, and the whole sweep is bit-reproducible
//!    (identical fingerprints on two consecutive executions);
//! 2. **Sensitivity** — the intentionally broken fixture (non-idempotent
//!    action registered without `ExactlyOnceAction`) IS caught, and the
//!    violating schedule shrinks to a minimal reproducer of at most five
//!    fault events, printed with its seed.

use harness::scenarios::{self, BrokenWorkflowScenario};
use harness::scenarios::{TwoPhaseGroupCommitScenario, TwoPhaseScenario};
use harness::{
    generate, sweep, FaultEvent, FaultSchedule, Scenario, ScheduleSpace, SweepConfig,
};

/// 7 scenarios × 40 seeds = 280 distinct fault schedules, plus the broken
/// fixture's own 40 below.
const SEEDS_PER_SCENARIO: u64 = 40;

fn config() -> SweepConfig {
    SweepConfig {
        seed_start: 0x20260806,
        schedules: SEEDS_PER_SCENARIO,
        max_events: 4,
        shrink: true,
    }
}

/// The sweep fingerprints of this file's population, pinned: a refactor
/// that claims to leave behaviour alone must leave these alone.
const FINGERPRINTS: [(&str, u64); 7] = [
    ("two-phase-commit", 0xce5f_7649_b3bc_c71d),
    ("two-phase-commit-group", 0x113b_8d49_7287_b34f),
    ("nested-compensation", 0x199b_9a79_43fc_590c),
    ("saga", 0xbe34_5e01_0965_1659),
    ("workflow-exactly-once", 0xe9e4_94e1_0df2_94bd),
    ("btp-atom", 0x6558_8869_ae5f_7067),
    ("termination-protocol", 0xf5e9_ce79_6a3f_cb01),
];

#[test]
fn bounded_sweep_holds_every_oracle_and_is_reproducible() {
    let config = config();
    let mut total = 0;
    for (scenario, pinned) in scenarios::all().iter().zip(FINGERPRINTS) {
        let first = sweep(scenario.as_ref(), &config);
        assert_eq!(
            (first.scenario.as_str(), first.fingerprint),
            pinned,
            "{}: sweep fingerprint {:#018x} moved",
            first.scenario,
            first.fingerprint
        );
        let second = sweep(scenario.as_ref(), &config);
        assert_eq!(
            first.fingerprint, second.fingerprint,
            "{}: two consecutive sweeps diverged — simulation is not deterministic",
            first.scenario
        );
        assert!(
            first.failures.is_empty(),
            "{}: oracle violations:\n{}",
            first.scenario,
            first
                .failures
                .iter()
                .map(harness::FailureReport::repro)
                .collect::<Vec<_>>()
                .join("\n")
        );
        total += first.schedules_run;
    }
    assert!(
        total >= 240,
        "the tier-1 sweep must cover at least 240 distinct fault schedules, ran {total}"
    );
}

/// Tier-1 regression guard for the group-commit pipeline: the wal
/// configuration must be protocol-invisible. Fault-free runs produce
/// byte-identical traces with per-record sync and group commit; under every
/// seeded fault schedule of the sweep space the two configurations agree on
/// the terminal outcome and the participants' durable states, and both stay
/// oracle-green. (Crash-schedule *traces* may legitimately differ — the
/// group log loses its staged, never-acked tail — but the decision the
/// recovery reaches may not.)
#[test]
fn group_commit_is_protocol_invisible_across_the_sweep() {
    let per_record = TwoPhaseScenario;
    let grouped = TwoPhaseGroupCommitScenario;

    let probe_a = per_record.run(&FaultSchedule::empty());
    let probe_b = grouped.run(&FaultSchedule::empty());
    assert_eq!(
        probe_a.trace, probe_b.trace,
        "fault-free traces must be byte-identical across wal configurations"
    );
    assert_eq!(probe_a.participant_commits, probe_b.participant_commits);
    assert_eq!(
        probe_a.space.sites, probe_b.space.sites,
        "both configurations must expose the same schedule space"
    );

    let space = ScheduleSpace { max_events: 4, ..probe_a.space };
    for offset in 0..SEEDS_PER_SCENARIO {
        let seed = 0x20260806 + offset;
        let sched = generate(seed, &space);
        let a = per_record.run(&sched);
        let b = grouped.run(&sched);
        assert_eq!(
            a.outcome, b.outcome,
            "seed {seed}: outcomes diverged across wal configurations"
        );
        assert_eq!(
            a.participant_commits, b.participant_commits,
            "seed {seed}: participant states diverged across wal configurations"
        );
        assert!(
            harness::check_all(&a).is_empty(),
            "seed {seed}: per-record run violated an oracle"
        );
        assert!(
            harness::check_all(&b).is_empty(),
            "seed {seed}: group-commit run violated an oracle: {:?}",
            harness::check_all(&b)
        );
    }
}

#[test]
fn broken_fixture_is_caught_and_shrunk_to_a_tiny_reproducer() {
    let report = sweep(&BrokenWorkflowScenario, &config());
    assert!(
        !report.failures.is_empty(),
        "the sweep failed to catch the planted exactly-once bug"
    );
    for failure in &report.failures {
        // Print the copy-pasteable reproducer (visible with --nocapture
        // and in CI logs on failure).
        println!("{}", failure.repro());
        assert!(failure.seed.is_some(), "only seeded schedules may fail, not the probe");
        assert!(
            failure.violations.iter().any(|v| v.oracle == "exactly-once"),
            "the planted bug is an exactly-once violation, got {:?}",
            failure.violations
        );
        assert!(
            failure.minimized.len() <= 5,
            "shrinking must reach ≤5 fault events, got {}:\n{}",
            failure.minimized.len(),
            failure.minimized
        );
        assert!(
            !failure.minimized.is_empty(),
            "the broken fixture passes fault-free runs; the reproducer needs an event"
        );
        assert!(failure.repro().contains("seed"), "the reproducer must name its seed");
    }
    // The sharpest reproducer is the single duplication (a dropped reply,
    // retried, doubles the effect just as well).
    let duplicate = [FaultEvent::DuplicateMessage { nth: 0 }];
    assert!(report.failures.iter().any(|failure| failure.minimized.events() == duplicate));
    assert_eq!(report.fingerprint, 0x3dd6_52a8_ee7a_7808, "{:#018x}", report.fingerprint);
    assert_eq!(report.failures.len(), 12);
    // The same sweep is reproducible, failures included.
    let again = sweep(&BrokenWorkflowScenario, &config());
    assert_eq!(report.fingerprint, again.fingerprint);
    assert_eq!(report.failures.len(), again.failures.len());
}
