//! Tier-1 causal merge-plane sweep (DESIGN.md §16): oracle #12
//! (`causal-consistency`) over the planted skewed-clock fixture.
//!
//! [`LaggingClockScenario`] sets participant `alpha`'s recorder one step
//! behind the simulation clock whenever its `causal.race` failpoint is
//! armed. Every per-node fact stays healthy — the run commits, both
//! participants keep their effects, the coordinator's steps refine the 2PC
//! model and each node's own log is monotone — so the skew is invisible to
//! the other eleven oracles; only the merged happens-before DAG shows
//! alpha receiving each request before it was sent. The sweep must catch
//! it via #12 alone, shrink every violating schedule to the single
//! failpoint arm, and staple a schema-clean Perfetto trace to the
//! reproducer.

use std::time::Instant;

use harness::scenarios::{LaggingClockScenario, RACE_SITE};
use harness::{sweep, FaultEvent, FaultSchedule, Scenario, SweepConfig};

const SCHEDULES: u64 = 120;
const SEED_START: u64 = 0xca05_0816;

fn config() -> SweepConfig {
    SweepConfig { seed_start: SEED_START, schedules: SCHEDULES, max_events: 4, shrink: true }
}

#[test]
fn fault_free_fixture_is_clean_and_reports_the_merge() {
    let obs = LaggingClockScenario.run(&FaultSchedule::empty());
    assert!(harness::check_all(&obs).is_empty());
    let causal = obs.causal.expect("the fixture always reports its merge");
    assert!(causal.violations.is_empty(), "clean merge on clean runs");
    telemetry::check_perfetto_schema(&causal.perfetto).expect("export is schema-clean");
}

#[test]
fn a_lagging_clock_is_caught_by_the_causal_oracle_alone() {
    let started = Instant::now();
    let report = sweep(&LaggingClockScenario, &config());
    assert!(
        !report.failures.is_empty(),
        "the planted skew escaped a {SCHEDULES}-schedule sweep"
    );
    for failure in &report.failures {
        // Oracle #12 and nothing else: the bug is invisible per-node.
        assert!(
            failure.violations.iter().all(|v| v.oracle == "causal-consistency"),
            "another oracle saw the skew, so the fixture is too loud: {:?}",
            failure.violations
        );
        // 1-minimal: the single skewing failpoint arm, nothing else.
        assert_eq!(failure.minimized.len(), 1, "shrinking left noise:\n{}", failure.repro());
        assert!(
            matches!(
                &failure.minimized.events()[0],
                FaultEvent::ArmFailpoint { site, .. } if site == RACE_SITE
            ),
            "unexpected minimal event:\n{}",
            failure.repro()
        );
        // Removing the sole event makes the failure vanish — 1-minimality
        // checked against a live run.
        let healthy = failure.minimized.without_event(0);
        let obs = LaggingClockScenario.run(&healthy);
        assert!(harness::check_all(&obs).is_empty());
        // The reproducer ships with the merged DAG's Perfetto export.
        let trace = failure.causal_trace.as_ref().expect("trace stapled to the repro");
        telemetry::check_perfetto_schema(trace).expect("stapled trace is schema-clean");
        assert!(failure.repro().contains("causal Perfetto trace attached"));
        assert!(failure.repro().contains("causal-consistency"));
    }
    assert!(
        started.elapsed().as_secs() < 120,
        "causal sweep blew its wall-clock budget: {:?}",
        started.elapsed()
    );
    assert_eq!(report.fingerprint, 0x39d7_5317_7a0d_ce2e, "{:#018x}", report.fingerprint);
    assert_eq!(report.failures.len(), 86);
}

#[test]
fn causal_sweeps_are_reproducible() {
    // The sweep fingerprint folds in every run's merge fingerprint, so a
    // nondeterministic DAG — stamp, edge or ordering jitter — splits the
    // two sweeps here even if no oracle fires.
    let a = sweep(&LaggingClockScenario, &config());
    let b = sweep(&LaggingClockScenario, &config());
    assert_eq!(a.fingerprint, b.fingerprint, "merge plane is not deterministic");
    assert_eq!(a.failures.len(), b.failures.len());
}

#[test]
fn failure_reports_write_perfetto_artifacts() {
    let report = sweep(&LaggingClockScenario, &config());
    let failure = report.failures.first().expect("sweep finds the planted bug");
    let dir = std::path::Path::new("target/causal-plane-test-traces");
    let path = failure.write_causal_trace(dir).expect("artifact written");
    let written = std::fs::read_to_string(&path).expect("artifact readable");
    assert_eq!(Some(written.as_str()), failure.causal_trace.as_deref());
    telemetry::check_perfetto_schema(&written).expect("artifact is schema-clean");
}

#[test]
fn every_well_behaved_scenario_merges_clean() {
    // Scenarios that build a causal merge must verify clean fault-free,
    // and their merge fingerprints must be stable across reruns.
    for scenario in harness::scenarios::all() {
        let Some(causal) = scenario.run(&FaultSchedule::empty()).causal else { continue };
        assert!(
            causal.violations.is_empty(),
            "{} merges dirty fault-free: {:?}",
            scenario.name(),
            causal.violations
        );
        let again = scenario.run(&FaultSchedule::empty()).causal.expect("merged before");
        assert_eq!(
            causal.fingerprint,
            again.fingerprint,
            "{} has an unstable merge fingerprint",
            scenario.name()
        );
    }
}
