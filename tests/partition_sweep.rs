//! Tier-1 partition/restart chaos sweep over the termination-protocol
//! scenario: 240 seeded schedules whose space includes partition windows
//! and crash-restart arms, checked against all twelve oracles — in
//! particular #10 (`eventual-resolution`): once faults cease and
//! partitions heal, no participant stays in doubt.
//!
//! Sensitivity is proven with the planted forgetful-coordinator fixture
//! (answers `unknown` where presumed abort requires `rolled_back`): the
//! sweep must catch it via the eventual-resolution oracle and shrink every
//! violating schedule to a single fault event.

use std::time::Instant;

use harness::scenarios::{ForgetfulCoordinatorScenario, TerminationScenario};
use harness::{generate, sweep, FaultEvent, FaultSchedule, Scenario, ScheduleSpace, SweepConfig};

const SCHEDULES: u64 = 240;
const SEED_START: u64 = 0x9a27_0808;

fn config() -> SweepConfig {
    SweepConfig { seed_start: SEED_START, schedules: SCHEDULES, max_events: 4, shrink: true }
}

/// The schedule space a fault-free probe run discovers — the same
/// discovery the explorer performs before generating seeds.
fn probe_space() -> ScheduleSpace {
    ScheduleSpace { max_events: 4, ..TerminationScenario.run(&FaultSchedule::empty()).space }
}

#[test]
fn schedule_population_reaches_partition_and_restart_arms() {
    // The sweep below is only meaningful if the seeded population actually
    // draws the new fault kinds; count them over the exact seeds it runs.
    let space = probe_space();
    assert!(!space.partition_nodes.is_empty(), "probe must expose the topology");
    assert!(!space.restart_sites.is_empty(), "probe must expose restart sites");
    let (mut partitions, mut restarts, mut failpoints, mut messages) = (0u32, 0u32, 0u32, 0u32);
    for offset in 0..SCHEDULES {
        for event in generate(SEED_START + offset, &space).events() {
            match event {
                FaultEvent::Partition { until_us, from_us, .. } => {
                    assert!(until_us > from_us, "windows must be non-empty");
                    partitions += 1;
                }
                FaultEvent::Restart { .. } => restarts += 1,
                FaultEvent::ArmFailpoint { .. } => failpoints += 1,
                FaultEvent::DropMessage { .. } | FaultEvent::DuplicateMessage { .. } => {
                    messages += 1;
                }
            }
        }
    }
    assert!(partitions > 20, "population too thin on partition arms: {partitions}");
    assert!(restarts > 20, "population too thin on restart arms: {restarts}");
    assert!(failpoints > 20 && messages > 20, "legacy arms must survive the extension");
}

#[test]
fn partition_sweep_holds_every_oracle_and_is_reproducible() {
    let started = Instant::now();
    let config = config();
    let first = sweep(&TerminationScenario, &config);
    let second = sweep(&TerminationScenario, &config);
    assert_eq!(first.schedules_run, SCHEDULES);
    assert_eq!(
        first.fingerprint, second.fingerprint,
        "two consecutive partition sweeps diverged — simulation is not deterministic"
    );
    assert_eq!(first.fingerprint, 0x2233_262f_74a0_898b, "{:#018x}", first.fingerprint);
    assert!(
        first.failures.is_empty(),
        "oracle violations under partition/restart chaos:\n{}",
        first
            .failures
            .iter()
            .map(harness::FailureReport::repro)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Budget guard (CI mirrors this with a job-level timeout): the whole
    // double sweep is virtual-time simulation and must stay far from
    // wall-clock minutes.
    assert!(
        started.elapsed().as_secs() < 120,
        "partition sweep blew its wall-clock budget: {:?}",
        started.elapsed()
    );
}

#[test]
fn forgetful_coordinator_is_caught_and_shrunk_to_one_event() {
    let report = sweep(&ForgetfulCoordinatorScenario, &config());
    assert!(
        !report.failures.is_empty(),
        "the planted forgetful coordinator escaped a {SCHEDULES}-schedule sweep"
    );
    let mut single_event_repros = 0usize;
    for failure in &report.failures {
        assert!(
            failure.violations.iter().any(|v| v.oracle == "eventual-resolution"),
            "the forgetful fixture must be caught by the new oracle: {:?}",
            failure.violations
        );
        // 1-minimal, as the shrinker guarantees: every surviving event is
        // load-bearing. Most histories need a single undecided crash arm —
        // the only history where `unknown` differs from presumed abort —
        // but the veto path legitimately needs two (a crashed vote plus a
        // lost rollback delivery).
        assert!(
            !failure.minimized.is_empty() && failure.minimized.len() <= 2,
            "shrinking left noise events:\n{}",
            failure.repro()
        );
        if failure.minimized.len() == 1 {
            single_event_repros += 1;
            // Removing the sole event makes the failure vanish: 1-minimality
            // in its purest form, checked against a live run.
            let healthy = failure.minimized.without_event(0);
            let obs = ForgetfulCoordinatorScenario.run(&healthy);
            assert!(harness::check_all(&obs).is_empty());
        }
        let repro = failure.repro();
        assert!(
            repro.contains("FaultEvent::ArmFailpoint") || repro.contains("FaultEvent::Restart"),
            "unexpected minimal event:\n{repro}"
        );
        assert!(repro.contains("seed") && repro.contains("eventual-resolution"), "{repro}");
        // The shrunk reproducer ships with the participant's black box:
        // the flight-recorder dump of the *minimized* run, so the report
        // shows what the node believed right up to the divergence.
        assert!(
            repro.contains("flight recorder at failure:")
                && repro.contains("flight-recorder node=participant"),
            "repro is missing the recorder dump:\n{repro}"
        );
    }
    assert!(
        single_event_repros > 0,
        "some schedule must shrink all the way to one crash arm"
    );
    assert_eq!(report.fingerprint, 0xc8ff_48b1_6b90_7f99, "{:#018x}", report.fingerprint);
    assert_eq!(report.failures.len(), 15);
}
