//! Every workload at one hundredth of its size: the checks pass, every
//! metric is reported, counted metrics repeat exactly, and the predictions
//! the README records hold.
//!
//! One test function on purpose: allocation counts are process-wide, so
//! nothing else may run beside a workload.

use std::time::Duration;

use actbench::run::{run, Options, Report};
use actbench::spec::{Workload, END_TO_END, PER_LAYER};

fn small(workload: Workload) -> Report {
    let options = Options {
        workload,
        seed: 7,
        rounds: 2,
        shrink: 100,
        prim_budget: Duration::from_millis(3),
        out_dir: env!("CARGO_TARGET_TMPDIR").into(),
    };
    let report = run(&options).expect("workload runs");
    assert!(report.correct(), "{}: {:?}", workload.name(), report.errors);
    report
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metric(name)
        .unwrap_or_else(|| panic!("{name} is reported"))
        .value
}

#[test]
fn five_workloads_run_small_and_their_counts_repeat() {
    for workload in Workload::ALL {
        let report = small(workload);
        assert_eq!(report.failed, 0);
        assert_eq!(report.end_to_end.len(), END_TO_END.len());
        assert_eq!(report.per_layer.len(), PER_LAYER.len());
        for metric in &report.end_to_end {
            assert!(
                metric.value.is_finite() && metric.value > 0.0,
                "{} {} = {}",
                workload.name(),
                metric.name,
                metric.value
            );
        }
        assert!(report
            .per_layer
            .iter()
            .all(|metric| metric.value.is_finite()));
        assert!(value(&report, "loadgen.self_us_per_op") > 0.0);

        let layer_present = |prefix: &str| {
            report
                .per_layer
                .iter()
                .any(|m| m.name.starts_with(prefix) && m.samples > 0)
        };
        match workload {
            Workload::Remote2pcMem => {
                assert_eq!(value(&report, "activity-service.signals_per_op"), 4.0);
                assert_eq!(value(&report, "orb.invokes_per_op"), 4.0);
                assert_eq!(value(&report, "orb.retries_per_op"), 0.0);
                assert_eq!(value(&report, "orb.dedup_hits_per_op"), 0.0);
                assert_eq!(value(&report, "orb.useful_invoke_share"), 1.0);
                assert_eq!(value(&report, "orb.messages_per_op"), 8.0);
                assert_eq!(value(&report, "recovery-log.forces_per_op"), 5.0);
                assert!(value(&report, "orb.invoke_echo_ns") > 0.0);
            }
            Workload::Remote2pcLossy => {
                assert!(value(&report, "orb.retries_per_op") > 0.0);
                assert!(value(&report, "orb.dedup_hits_per_op") > 0.0);
                assert!(value(&report, "orb.useful_invoke_share") < 1.0);
                assert!(value(&report, "orb.dedup_lookup_ns") > 0.0);
            }
            Workload::Native2pcMem => {
                assert!(!layer_present("orb."), "native commit never enters the ORB");
                assert!(!layer_present("activity-service."));
                assert!(!layer_present("tx-models."));
                assert!(value(&report, "ots.self_us_per_op") > 0.0);
                assert!(value(&report, "ots.lock_cycle_ns") > 0.0);
            }
            Workload::Remote2pcDurable => {
                assert_eq!(value(&report, "recovery-log.forces_per_op"), 5.0);
                assert!(value(&report, "recovery-log.replay_us_per_record") > 0.0);
                assert!(value(&report, "recovery-log.force_us") > 0.0);
                assert!(value(&report, "orb.pool_scatter2_us") > 0.0);
            }
            Workload::OrderPipeline => {
                assert_eq!(value(&report, "wfengine.compensations_per_op"), 1.0 / 16.0);
                assert!(value(&report, "btp.fulfil_us_per_op") > 0.0);
                assert!(value(&report, "tx-models.lruow_us_per_op") > 0.0);
            }
        }

        // With one client every allocation and every signal is made by the
        // generator's own thread in a fixed order: the counts are exact.
        if report.clients == 1 {
            let again = small(workload);
            for name in [
                "allocs_per_op",
                "activity-service.signals_per_op",
                "orb.invokes_per_op",
                "recovery-log.forces_per_op",
            ] {
                assert_eq!(
                    value(&report, name).to_bits(),
                    value(&again, name).to_bits(),
                    "{} {name} differs between two runs at one seed",
                    workload.name()
                );
            }
        }
    }
}
