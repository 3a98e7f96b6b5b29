//! Command line: one workload run (the form the benchmark driver calls),
//! `all` (the five workloads, one process each) and `aa` (two sets of runs
//! of the same build compared against the bounds).

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use crate::run::{run, Metric, Options, Report};
use crate::spec::{Better, Workload, END_TO_END, ROUNDS_PER_SECOND, RUN_SECONDS};
use crate::stats::{median, percentile, quartiles};

const USAGE: &str = "usage:
  actbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
  actbench all [--seed <n>] [--seconds <n>]
  actbench aa  [--runs <n>] [--seconds <n>] [--workload <name>]
  actbench spec            (print BENCHMARK.json from the tables in src/spec.rs)

workloads: remote_2pc_mem remote_2pc_lossy native_2pc_mem remote_2pc_durable order_pipeline
--seconds N runs 3N measured rounds of a fixed operation count (about 1/3 s each).
--trace picks which metrics the final JSON line carries: 0 end-to-end, 1 per-layer.";

/// `--seconds` when it is not given.
const DEFAULT_SECONDS: usize = RUN_SECONDS as usize;

#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<usize>,
    trace: bool,
    runs: usize,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 1,
        runs: 1,
        ..Args::default()
    };
    let mut args = args.peekable();
    if args.peek().is_some_and(|first| !first.starts_with("--")) {
        parsed.command = args.next();
    }
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => match number()? {
                seconds @ 1..=60 => parsed.seconds = Some(seconds as usize),
                _ => return Err("--seconds must be between 1 and 60".into()),
            },
            "--trace" => parsed.trace = number()? != 0,
            "--runs" => parsed.runs = number()?.max(1) as usize,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(parsed)
}

/// File logs and trace files go under the package's own `target/`, which
/// the repository ignores.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target")
}

pub fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_deref(), args.workload) {
        (None, Some(workload)) => single(&args, workload),
        (Some("all"), _) => all(&args),
        (Some("aa"), _) => aa(&args),
        (Some("spec"), _) => {
            print!("{}", crate::spec::benchmark_json());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn single(args: &Args, workload: Workload) -> ExitCode {
    let options = Options {
        workload,
        seed: args.seed,
        rounds: args.seconds.unwrap_or(DEFAULT_SECONDS) * ROUNDS_PER_SECOND,
        shrink: 1,
        prim_budget: Duration::from_millis(300),
        out_dir: out_dir(),
    };
    let report = match run(&options) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("{}: {error}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    print_report(&report, &options);
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!("{}", result_line(&report, metrics));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The driver's result: one JSON object, the last line of standard output.
fn result_line(report: &Report, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn print_report(report: &Report, options: &Options) {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!(
        "== actbench {} seed={} clients={} (closed loop) ops/round/client={} rounds={} nproc={nproc} ==",
        report.workload.name(),
        options.seed,
        report.clients,
        report.ops_per_round,
        report.rounds.len(),
    );
    for (number, round) in report.rounds.iter().enumerate() {
        println!(
            "round {}: {:>10.1} ops/s  p50 {:>8.2} us  p95 {:>8.2} us  failed {}",
            number + 1,
            round.ops_per_s(),
            percentile(&round.latencies_ns, 50.0) as f64 / 1e3,
            percentile(&round.latencies_ns, 95.0) as f64 / 1e3,
            round.failed,
        );
    }
    for round in &report.traced {
        println!(
            "traced:  {:>10.1} ops/s  p50 {:>8.2} us  p95 {:>8.2} us  failed {}",
            round.ops_per_s(),
            percentile(&round.latencies_ns, 50.0) as f64 / 1e3,
            percentile(&round.latencies_ns, 95.0) as f64 / 1e3,
            round.failed,
        );
    }
    println!(
        "ledger: self times of all spans sum to {:.2} us/op; the traced op takes {:.2} us",
        report.ledger_sum_us, report.traced_op_us,
    );
    println!(
        "end-to-end (the best round of each third of the run, then the median of the thirds):"
    );
    for metric in &report.end_to_end {
        print_metric(metric);
    }
    println!(
        "  {:<40} {:>14.6} {:<8} n={}",
        "failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
        "fraction",
        report.attempted
    );
    println!("per-layer (traced round; n=0 marks a metric this workload does not produce):");
    for metric in &report.per_layer {
        print_metric(metric);
    }
    if report.errors.is_empty() {
        println!("checks: all passed");
    } else {
        for error in &report.errors {
            println!("CHECK FAILED: {error}");
        }
    }
}

fn print_metric(metric: &Metric) {
    println!(
        "  {:<40} {:>14.4} {:<8} n={}",
        metric.name, metric.value, metric.unit, metric.samples
    );
}

/// Run one workload in a child process and hand back its standard output.
fn spawn_run(workload: Workload, seed: u64, seconds: usize, echo: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if echo {
        print!("{stdout}");
    }
    if output.status.success() {
        Ok(stdout)
    } else {
        Err(format!(
            "{} seed {seed}: exit {}",
            workload.name(),
            output.status
        ))
    }
}

fn all(args: &Args) -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        if let Err(message) = spawn_run(
            workload,
            args.seed,
            args.seconds.unwrap_or(DEFAULT_SECONDS),
            true,
        ) {
            eprintln!("{message}");
            ok = false;
        }
        println!();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Read one metric's value out of a result line this program printed.
fn metric_in(result_line: &str, name: &str) -> Option<f64> {
    let after = result_line
        .split(&format!("\"{name}\": {{\"value\": "))
        .nth(1)?;
    after[..after.find(',')?].parse().ok()
}

/// A/A: run the suite twice from this one build, side A and side B
/// alternating, and hold every workload × end-to-end metric to its bound.
/// With `--runs 10` this is the acceptance procedure: ten seeds a side, the
/// medians compared, and the quartile spread reported beside a third of the
/// bound.
fn aa(args: &Args) -> ExitCode {
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut within_bounds = true;
    for workload in workloads {
        let mut sides: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for run in 0..args.runs {
            let seed = args.seed + run as u64;
            // Alternate which side goes first.
            let order = if run % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                match spawn_run(workload, seed, seconds, false) {
                    Ok(stdout) => sides[side].push(stdout.lines().last().unwrap_or("").to_owned()),
                    Err(message) => {
                        eprintln!("{message}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        println!(
            "{} ({} runs a side, seeds {}..)",
            workload.name(),
            args.runs,
            args.seed
        );
        println!(
            "  {:<16} {:>14} {:>14} {:>9} {:>8} {:>9} {:>9}",
            "metric", "A", "B", "B vs A", "bound", "spread A", "spread B"
        );
        for spec in END_TO_END {
            let values = |side: &Vec<String>| -> Vec<f64> {
                side.iter()
                    .filter_map(|line| metric_in(line, spec.name))
                    .collect()
            };
            let (a, b) = (values(&sides[0]), values(&sides[1]));
            let (median_a, median_b) = (median(&a), median(&b));
            let worse = match spec.better {
                Better::Lower => (median_b - median_a) / median_a,
                Better::Higher => (median_a - median_b) / median_a,
            };
            let spread = |values: &[f64]| {
                let (q1, q3) = quartiles(values);
                (q3 - q1) / median(values)
            };
            let verdict = if worse > spec.bound {
                within_bounds = false;
                "  EXCEEDS BOUND"
            } else {
                ""
            };
            println!(
                "  {:<16} {:>14.4} {:>14.4} {:>+8.2}% {:>7.1}% {:>8.2}% {:>8.2}%{verdict}",
                spec.name,
                median_a,
                median_b,
                worse * 100.0,
                spec.bound * 100.0,
                spread(&a) * 100.0,
                spread(&b) * 100.0,
            );
        }
        // Every run made, in the order made.
        for spec in END_TO_END {
            for (label, side) in ["A", "B"].iter().zip(&sides) {
                let values: Vec<String> = side
                    .iter()
                    .filter_map(|line| metric_in(line, spec.name))
                    .map(|value| format!("{value:.4}"))
                    .collect();
                println!("  {:<16} {label}: {}", spec.name, values.join(" "));
            }
        }
    }
    if within_bounds {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let parsed = args(&[
            "--workload",
            "remote_2pc_lossy",
            "--seed",
            "42",
            "--seconds",
            "7",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(parsed.workload, Some(Workload::Remote2pcLossy));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (42, Some(7), true)
        );
        assert!(parsed.command.is_none());
        let parsed = args(&["aa", "--runs", "10"]).expect("parses");
        assert_eq!((parsed.command.as_deref(), parsed.runs), (Some("aa"), 10));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seconds", "61"]).is_err());
        assert!(args(&["--frobnicate", "1"]).is_err());
    }

    #[test]
    fn result_lines_round_trip_their_metrics() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
                    {\"ops_per_s\": {\"value\": 22840.5, \"unit\": \"ops/s\"}, \
                    \"op_p50_us\": {\"value\": 43.25, \"unit\": \"us\"}}}";
        assert_eq!(metric_in(line, "ops_per_s"), Some(22840.5));
        assert_eq!(metric_in(line, "op_p50_us"), Some(43.25));
        assert_eq!(metric_in(line, "setup_s"), None);
    }
}
