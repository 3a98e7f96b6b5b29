//! Telemetry disabled-path overhead harness (DESIGN.md §11): the cost of
//! leaving the span/metrics instrumentation compiled into the hot loops
//! with the recorder *disabled* — every site still runs, but collapses to
//! an atomic `is_enabled` load. Measured on the fig. 5 signal broadcast
//! and the fig. 8 native 2PC fan-out against the uninstrumented seed
//! paths. The budget pinned in EXPERIMENTS.md is <2% — within measurement
//! noise.
//!
//! The third table measures the flight recorder's own gate (DESIGN.md §15):
//! a disabled [`telemetry::FlightRecorder`] in the coordinator's context,
//! reached by every protocol step and failpoint passage, versus none at
//! all. Setting
//! `RECORDER_BUDGET_PCT` (the CI introspection job sets `2`) turns that
//! budget into a hard failure.
//!
//! Also writes one *enabled* run's metrics-registry JSON snapshot (the CI
//! artifact) to the path in `TELEMETRY_SNAPSHOT`, default
//! `target/telemetry_metrics.json`.
//!
//! Run with: `cargo run -q -p bench --bin telemetry_overhead --release`

use std::time::Instant;

/// One timed batch: µs/op over `iters` iterations.
fn batch_us(op: &mut impl FnMut(), iters: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    samples[samples.len() / 2]
}

/// Paired interleaved measurement: each batch times the baseline and the
/// instrumented workload back to back, so slow machine-load drift hits
/// both sides equally. The printed delta is the median of per-batch
/// deltas; the *returned* delta compares each side's fastest batch —
/// load noise is strictly additive, so min-vs-min estimates the true
/// cost and is what the budget gate enforces.
fn compare(
    n: usize,
    mut baseline: impl FnMut(),
    mut instrumented: impl FnMut(),
    iters: u32,
    batches: u32,
) -> f64 {
    for _ in 0..iters {
        baseline();
        instrumented();
    }
    let mut base_samples = Vec::with_capacity(batches as usize);
    let mut inst_samples = Vec::with_capacity(batches as usize);
    let mut deltas = Vec::with_capacity(batches as usize);
    for _ in 0..batches {
        let b = batch_us(&mut baseline, iters);
        let i = batch_us(&mut instrumented, iters);
        deltas.push((i - b) / b * 100.0);
        base_samples.push(b);
        inst_samples.push(i);
    }
    let best = |s: &[f64]| s.iter().copied().fold(f64::INFINITY, f64::min);
    let (b, i) = (best(&base_samples), best(&inst_samples));
    println!(
        "{n:>8} {:>13.1} {:>13.1} {:>+9.1}%",
        median(base_samples),
        median(inst_samples),
        median(deltas)
    );
    (i - b) / b * 100.0
}

fn main() {
    const BATCHES: u32 = 15;
    println!("## O1 (sec 11): telemetry disabled-path overhead, µs/op");
    println!("# paired interleaved batches, median of {BATCHES}; budget <2% (within noise)");

    println!("# fig. 5 signal broadcast: no recorder vs disabled recorder attached");
    println!("{:>8} {:>13} {:>13} {:>10}", "actions", "bare", "disabled", "delta");
    for n in [4usize, 16, 64] {
        let iters = (8192 / n).max(32) as u32;
        compare(
            n,
            || assert_eq!(bench::fig5_dispatch_telemetry(n, false), n as u64),
            || assert_eq!(bench::fig5_dispatch_telemetry(n, true), n as u64),
            iters,
            BATCHES,
        );
    }

    println!("# fig. 8 2PC fan-out: no recorder vs disabled recorder on the factory");
    println!("{:>8} {:>13} {:>13} {:>10}", "parts", "bare", "disabled", "delta");
    for n in [4usize, 16, 64] {
        let iters = (8192 / n).max(32) as u32;
        compare(
            n,
            || assert!(bench::two_phase_with_telemetry(n, false)),
            || assert!(bench::two_phase_with_telemetry(n, true)),
            iters,
            BATCHES,
        );
    }

    // The flight-recorder gate (DESIGN.md §15): protocol steps and failpoint
    // passages reaching a disabled recorder, versus no recorder at all. When the
    // `RECORDER_BUDGET_PCT` env is set (the CI introspection job sets it),
    // a median delta above the budget fails the run.
    println!("# fig. 8 2PC fan-out: no flight recorder vs disabled recorder on steps+failpoints");
    println!("{:>8} {:>13} {:>13} {:>10}", "parts", "bare", "disabled", "delta");
    let recorder =
        telemetry::FlightRecorder::disabled("bench", telemetry::DEFAULT_RECORDER_CAPACITY);
    let mut recorder_deltas = Vec::new();
    for n in [4usize, 16, 64] {
        let iters = (8192 / n).max(32) as u32;
        recorder_deltas.push(compare(
            n,
            || assert!(bench::two_phase_with_recorder(n, None)),
            || assert!(bench::two_phase_with_recorder(n, Some(&recorder))),
            iters,
            BATCHES,
        ));
    }
    if let Ok(budget) = std::env::var("RECORDER_BUDGET_PCT") {
        let budget: f64 = budget.parse().expect("RECORDER_BUDGET_PCT must be a number");
        // Median across fan-out sizes of the min-vs-min deltas: single
        // cells still carry machine-load noise the paired batching can't
        // fully cancel (the printed medians flip between -1% and +8% on a
        // loaded container), but each side's fastest batch is stable.
        let typical = median(recorder_deltas);
        assert!(
            typical <= budget,
            "recorder disabled-path overhead {typical:+.1}% exceeds the {budget}% budget"
        );
        println!("# recorder disabled-path within the {budget}% budget ({typical:+.1}%)");
    }

    // One enabled run's registry snapshot, archived by the CI telemetry job.
    let snapshot = bench::instrumented_metrics_snapshot();
    let path = std::env::var("TELEMETRY_SNAPSHOT")
        .unwrap_or_else(|_| "target/telemetry_metrics.json".to_owned());
    match std::fs::write(&path, &snapshot) {
        Ok(()) => println!("# metrics snapshot written to {path}"),
        Err(e) => println!("# metrics snapshot NOT written ({path}: {e})"),
    }
}
