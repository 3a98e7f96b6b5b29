//! One benchmark run: set up, warm up, measure, trace, verify, report.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use orb::NetworkConfig;

use crate::load::{run_round, Round, World};
use crate::native::NativeWorld;
use crate::order::OrderWorld;
use crate::prims;
use crate::probes::WalCounters;
use crate::procfs::{prefault, rss_mib};
use crate::remote::{recover_from_files, BoxError, RemoteSpec, RemoteWorld};
use crate::spec::{Better, Workload, END_TO_END, ORDER_CYCLE, PER_LAYER, ROUNDS_PER_SECOND};
use crate::stats::{median, percentile};
use crate::trace::{write_trace, Kind, Ledger, Probe, Tracer};

/// How many times a run builds and warms a world; `setup_s` is the median.
const SETUPS: usize = 5;
/// The warm-up round is this fraction of a measured round.
const WARMUP_DIVISOR: usize = 2;
/// Memory touched and released before anything is timed (see
/// [`prefault`]): above the largest footprint of any workload at the default
/// seven rounds.
const PREFAULT_BYTES: usize = 1 << 30;
/// Ops whose spans are written to the trace file.
const TRACE_FILE_OPS: u32 = 1000;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measured rounds, each a fixed operation count: `--seconds N` runs
    /// `N * ROUNDS_PER_SECOND` of them.
    pub rounds: usize,
    /// Divide every operation count by this (tests use 100).
    pub shrink: usize,
    /// Time budget of each isolated primitive loop.
    pub prim_budget: Duration,
    /// Where file logs and trace files go.
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
}

#[derive(Debug)]
pub struct Report {
    pub workload: Workload,
    pub clients: usize,
    pub ops_per_round: usize,
    pub rounds: Vec<Round>,
    pub traced: Vec<Round>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Mean traced op time and the sum of every span's self time per op.
    pub traced_op_us: f64,
    pub ledger_sum_us: f64,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|metric| metric.name == name)
    }
}

/// What the measured phase of any world produces.
struct Measured {
    rounds: Vec<Round>,
    setup_s: f64,
    peak_rss_mb: f64,
    errors: Vec<String>,
    /// Ops acknowledged as committed on the measured world, warm-up included.
    acknowledged: u64,
}

/// Build and warm a world `SETUPS` times, then run the measured rounds on
/// the last one. The world lives across rounds, so state it retains shows
/// as memory and as later rounds slowing down; it is dropped on return.
fn measure<W: World>(
    options: &Options,
    ops: usize,
    build: &dyn Fn(&str) -> Result<W, BoxError>,
) -> Result<Measured, BoxError> {
    let warm_ops = (ops / WARMUP_DIVISOR).max(1);
    let mut setups = Vec::new();
    let mut last = None;
    for attempt in 0..SETUPS {
        drop(last.take());
        let begun = Instant::now();
        let world = build(&format!("setup{attempt}"))?;
        let mut clients = world.new_clients();
        let warm = run_round(&world, &mut clients, 0, warm_ops);
        setups.push(begun.elapsed().as_secs_f64());
        last = Some((world, clients, warm));
    }
    let (world, mut clients, warm) = last.expect("SETUPS is at least one");
    let mut errors = Vec::new();
    if warm.failed != 0 {
        errors.push(format!("{} ops failed during warm-up", warm.failed));
    }
    let mut acknowledged = warm.attempted - warm.failed;
    let mut rounds = Vec::with_capacity(options.rounds);
    for round in 0..options.rounds {
        let first = (warm_ops + round * ops) as u64;
        let measured = run_round(&world, &mut clients, first, ops);
        acknowledged += measured.attempted - measured.failed;
        rounds.push(measured);
    }
    // The world's state only grows, so what is resident now is the peak of
    // the measured phase (`VmHWM` would read the pre-faulted block instead).
    let peak_rss_mb = rss_mib();
    errors.extend(world.verify(&clients));
    Ok(Measured {
        rounds,
        setup_s: median(&setups),
        peak_rss_mb,
        errors,
        acknowledged,
    })
}

/// What the traced phase of any world produces.
struct Traced {
    rounds: Vec<Round>,
    ledger: Ledger,
    errors: Vec<String>,
}

impl Traced {
    fn attempted(&self) -> u64 {
        self.rounds.iter().map(|round| round.attempted).sum()
    }
}

/// One second of rounds on a second world built with the timing decorators
/// in place; the ledger covers all of them.
fn trace<W: World>(
    options: &Options,
    ops: usize,
    spans_per_op: usize,
    build: impl FnOnce(Probe) -> Result<W, BoxError>,
) -> Result<(W, Vec<W::Client>, Traced), BoxError> {
    let tracer = Tracer::new(ops * spans_per_op * ROUNDS_PER_SECOND);
    let world = build(Some(Arc::clone(&tracer)))?;
    let mut clients = world.new_clients();
    let rounds: Vec<Round> = (0..ROUNDS_PER_SECOND)
        .map(|round| run_round(&world, &mut clients, (round * ops) as u64, ops))
        .collect();
    let mut errors = world.verify(&clients);
    let failed: u64 = rounds.iter().map(|round| round.failed).sum();
    if failed != 0 {
        errors.push(format!("{failed} ops failed in the traced rounds"));
    }
    let spans = tracer.spans();
    let path = options
        .out_dir
        .join(format!("trace-{}.json", options.workload.name()));
    write_trace(&path, &spans, TRACE_FILE_OPS)?;
    let ledger = Ledger::build(&spans);
    Ok((
        world,
        clients,
        Traced {
            rounds,
            ledger,
            errors,
        },
    ))
}

/// Values that do not come from spans: counters read off the traced world
/// and the isolated primitive loops.
#[derive(Default)]
struct Extras {
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Extras {
    fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.values.insert(name, (value, samples));
    }

    fn set_prim(&mut self, ns: &'static str, allocs: Option<&'static str>, prim: prims::Prim) {
        let (_, unit, _) = PER_LAYER
            .iter()
            .find(|(name, ..)| *name == ns)
            .expect("a primitive reports a declared per-layer metric");
        self.set(
            ns,
            if *unit == "us" {
                prim.ns / 1e3
            } else {
                prim.ns
            },
            prim.calls,
        );
        if let Some(allocs) = allocs {
            self.set(allocs, prim.allocs, prim.calls);
        }
    }

    fn set_wal_counters(&mut self, counters: &WalCounters, ops: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        let per_op = |count: u64| count as f64 / ops as f64;
        let appends = counters.appends.load(Relaxed);
        let syncs = counters.sink_syncs.load(Relaxed);
        self.set("recovery-log.appends_per_op", per_op(appends), appends);
        self.set(
            "recovery-log.forces_per_op",
            per_op(counters.forces.load(Relaxed)),
            ops,
        );
        self.set(
            "recovery-log.bytes_per_op",
            per_op(counters.bytes.load(Relaxed)),
            appends,
        );
        self.set("recovery-log.syncs_per_op", per_op(syncs), syncs);
        let records = counters.sink_records.load(Relaxed);
        self.set(
            "recovery-log.records_per_sync",
            ratio(records as f64, syncs as f64),
            syncs,
        );
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The value a run reports for a per-round measurement: the best round of
/// each third of the run, and the median of the three.
///
/// A noisy neighbour slows stretches of rounds and only ever makes a round
/// worse, so the best round of a third stands for it as long as one of its
/// rounds ran undisturbed; the thirds are the small early world, the middle
/// and the grown late one, and their median survives a third with no quiet
/// round at all. (Best of three consecutive rounds, then the median of
/// those, needed a quiet round in most groups and spread half as much again
/// on the same disturbed runs.)
fn steady(per_round: &[f64], better: Better) -> f64 {
    let best_of_each_third: Vec<f64> = per_round
        .chunks(per_round.len().div_ceil(3).max(1))
        .map(|third| {
            third
                .iter()
                .copied()
                .fold(third[0], |best, value| match better {
                    Better::Lower => best.min(value),
                    Better::Higher => best.max(value),
                })
        })
        .collect();
    median(&best_of_each_third)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Run one workload start to finish.
pub fn run(options: &Options) -> Result<Report, BoxError> {
    let (clients, full_ops) = options.workload.size();
    // A multiple of ORDER_CYCLE, so one order in sixteen is exactly 1/16.
    let ops = (full_ops / options.shrink / ORDER_CYCLE as usize).max(1) * ORDER_CYCLE as usize;
    let run_dir = options.out_dir.join("wal").join(format!(
        "{}-{}",
        options.workload.name(),
        std::process::id()
    ));
    prefault(PREFAULT_BYTES / options.shrink);
    let result = run_in(options, clients, ops, &run_dir);
    if run_dir.exists() {
        std::fs::remove_dir_all(&run_dir)?;
    }
    result
}

fn run_in(
    options: &Options,
    clients: usize,
    ops: usize,
    run_dir: &Path,
) -> Result<Report, BoxError> {
    let budget = options.prim_budget;
    let mut extras = Extras::default();
    let (measured, traced) = match options.workload {
        Workload::Remote2pcMem | Workload::Remote2pcLossy | Workload::Remote2pcDurable => {
            let durable = options.workload == Workload::Remote2pcDurable;
            let lossy = options.workload == Workload::Remote2pcLossy;
            let spec = |tag: &str| RemoteSpec {
                network: if lossy {
                    NetworkConfig::lossy(0.05, 0.05, options.seed)
                } else {
                    NetworkConfig::reliable()
                },
                // Participants that block on fsync are what the dispatch
                // pool was built for; µs-scale ones only measure its
                // hand-off, so the in-memory worlds pin serial dispatch.
                serial: !durable,
                clients,
                wal_dir: durable.then(|| run_dir.join(tag)),
                seed: options.seed,
            };
            let mut measured = measure(options, ops, &|tag| RemoteWorld::build(&spec(tag), None))?;
            if durable {
                let recovery = recover_from_files(
                    &run_dir.join(format!("setup{}", SETUPS - 1)),
                    measured.acknowledged,
                )?;
                measured.errors.extend(recovery.errors);
                extras.set(
                    "recovery-log.replay_us_per_record",
                    ratio(us(recovery.elapsed_ns), recovery.records as f64),
                    recovery.records,
                );
            }

            let (world, states, mut traced) = trace(options, ops, 56, |probe| {
                RemoteWorld::build(&spec("traced"), probe)
            })?;
            let total_ops = traced.attempted();
            let (sent, dropped) = world.network_sent_dropped();
            let invokes = traced.ledger.totals(Kind::OrbInvoke).count;
            let first_runs = traced.ledger.totals(Kind::OrbServeInner).count;
            extras.set(
                "orb.retries_per_op",
                dropped as f64 / total_ops as f64,
                dropped,
            );
            extras.set("orb.messages_per_op", sent as f64 / total_ops as f64, sent);
            extras.set(
                "orb.useful_invoke_share",
                ratio(first_runs as f64, (invokes + dropped) as f64),
                invokes + dropped,
            );
            extras.set_wal_counters(&world.wal_counters, total_ops);
            // Exactly-once (§3.4): however often a commit signal was
            // redelivered, each participant's resource saw it once per op.
            for (participant, commits) in world.inner_commits().into_iter().enumerate() {
                if commits != total_ops {
                    traced.errors.push(format!(
                        "p{participant}: {commits} commits reached the resource for {total_ops} ops"
                    ));
                }
            }
            if lossy {
                let deliveries = traced.ledger.totals(Kind::OrbServe).count;
                if dropped == 0 || deliveries == first_runs {
                    traced.errors.push(format!(
                        "lossy network exercised nothing: {dropped} drops, {} dedup hits",
                        deliveries - first_runs
                    ));
                }
            }
            drop((world, states));

            match options.workload {
                Workload::Remote2pcMem => {
                    extras.set_prim(
                        "orb.invoke_echo_ns",
                        Some("orb.invoke_echo_allocs"),
                        prims::invoke_echo(budget)?,
                    );
                    extras.set_prim(
                        "orb.value_roundtrip_ns",
                        Some("orb.value_roundtrip_allocs"),
                        prims::value_roundtrip(budget),
                    );
                }
                Workload::Remote2pcLossy => {
                    extras.set_prim("orb.dedup_lookup_ns", None, prims::dedup_lookup(budget));
                }
                _ => {
                    extras.set_prim("orb.pool_scatter2_us", None, prims::pool_scatter2(budget));
                    extras.set_prim(
                        "recovery-log.append_ns",
                        Some("recovery-log.append_allocs"),
                        prims::wal_append(budget),
                    );
                    let (force, scan) = prims::wal_force_and_scan(budget, run_dir)?;
                    extras.set_prim("recovery-log.force_us", None, force);
                    extras.set_prim("recovery-log.scan_ns_per_record", None, scan);
                }
            }
            (measured, traced)
        }
        Workload::Native2pcMem => {
            let measured = measure(options, ops, &|_| {
                Ok(NativeWorld::build(options.seed, None))
            })?;
            let (world, states, traced) = trace(options, ops, 12, |probe| {
                Ok(NativeWorld::build(options.seed, probe))
            })?;
            extras.set_wal_counters(&world.wal_counters, traced.attempted());
            drop((world, states));
            extras.set_prim(
                "ots.lock_cycle_ns",
                Some("ots.lock_cycle_allocs"),
                prims::lock_cycle(budget),
            );
            (measured, traced)
        }
        Workload::OrderPipeline => {
            let measured = measure(options, ops, &|_| OrderWorld::build(options.seed, None))?;
            let (world, states, traced) = trace(options, ops, 16, |probe| {
                OrderWorld::build(options.seed, probe)
            })?;
            let compensations = states[0].compensations;
            extras.set(
                "wfengine.compensations_per_op",
                compensations as f64 / traced.attempted() as f64,
                compensations,
            );
            drop((world, states));
            (measured, traced)
        }
    };
    Ok(assemble(options, clients, ops, measured, traced, extras))
}

/// Turn the two phases into the named metrics.
fn assemble(
    options: &Options,
    clients: usize,
    ops: usize,
    measured: Measured,
    traced: Traced,
    extras: Extras,
) -> Report {
    let rounds = &measured.rounds;
    let attempted: u64 = rounds.iter().map(|round| round.attempted).sum();
    let failed: u64 = rounds.iter().map(|round| round.failed).sum();
    let completed = (attempted - failed).max(1);
    let samples: u64 = rounds
        .iter()
        .map(|round| round.latencies_ns.len() as u64)
        .sum();
    let per_round = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let throughputs = per_round(&|round| round.ops_per_s());
    let latency = |pct: f64| {
        steady(
            &per_round(&|round| us(percentile(&round.latencies_ns, pct))),
            Better::Lower,
        )
    };
    let p50 = latency(50.0);

    let e2e_value = |name: &str| -> (f64, u64) {
        match name {
            "ops_per_s" => (steady(&throughputs, Better::Higher), completed),
            "op_p50_us" => (p50, samples),
            "cpu_us_per_op" => (
                steady(
                    &per_round(&|round| {
                        us(round.cpu_ns) / (round.attempted - round.failed).max(1) as f64
                    }),
                    Better::Lower,
                ),
                completed,
            ),
            "allocs_per_op" => (
                rounds.iter().map(|round| round.allocs).sum::<u64>() as f64 / completed as f64,
                completed,
            ),
            "peak_rss_mb" => (measured.peak_rss_mb, 1),
            "setup_s" => (measured.setup_s, SETUPS as u64),
            other => unreachable!("end-to-end metric {other} has no source"),
        }
    };
    let end_to_end = END_TO_END
        .iter()
        .map(|spec| {
            let (value, samples) = e2e_value(spec.name);
            Metric {
                name: spec.name,
                unit: spec.unit,
                value,
                samples,
            }
        })
        .collect();

    let ledger = &traced.ledger;
    let traced_ops = traced.attempted().max(1);
    let per_op = |ns: u64| us(ns) / traced_ops as f64;
    let per_op_count = |count: u64| count as f64 / traced_ops as f64;
    let invokes = ledger.totals(Kind::OrbInvoke);
    let per_invoke = |ns: u64| ratio(us(ns), invokes.count as f64);
    let mean_us = |kind: Kind| {
        let totals = ledger.totals(kind);
        (
            ratio(us(totals.total_ns), totals.count as f64),
            totals.count,
        )
    };
    let spread = {
        let max = throughputs.iter().copied().fold(f64::MIN, f64::max);
        let min = throughputs.iter().copied().fold(f64::MAX, f64::min);
        ratio((max - min) * 100.0, median(&throughputs))
    };
    let traced_p50 = steady(
        &traced
            .rounds
            .iter()
            .map(|r| us(percentile(&r.latencies_ns, 50.0)))
            .collect::<Vec<_>>(),
        Better::Lower,
    );
    let ots_self = [Kind::OtsResource, Kind::OtsCommit, Kind::OtsBegin].map(|k| ledger.totals(k));

    let layer_value = |name: &str| -> (f64, u64) {
        if let Some(value) = extras.values.get(name) {
            return *value;
        }
        let activity = ledger.layer("activity-service");
        let serve = ledger.totals(Kind::OrbServe);
        let first_runs = ledger.totals(Kind::OrbServeInner);
        let workflow = ledger.totals(Kind::WfRun);
        let own = [Kind::Op, Kind::Refund].map(|k| ledger.totals(k));
        match name {
            "activity-service.self_us_per_op" => (per_op(activity.self_ns), activity.count),
            "activity-service.self_allocs_per_op" => {
                (per_op_count(activity.self_allocs), activity.count)
            }
            "activity-service.signals_per_op" => {
                let signals = invokes.count + ledger.totals(Kind::WscfParticipant).count;
                (per_op_count(signals), signals)
            }
            "orb.self_us_per_invoke" => (per_invoke(invokes.self_ns), invokes.count),
            "orb.self_allocs_per_invoke" => (
                ratio(invokes.self_allocs as f64, invokes.count as f64),
                invokes.count,
            ),
            "orb.invokes_per_op" => (per_op_count(invokes.count), invokes.count),
            "orb.dedup_hits_per_op" => {
                let hits = serve.count - first_runs.count;
                (per_op_count(hits), hits)
            }
            "orb.dedup_self_us_per_invoke" => (per_invoke(serve.self_ns), serve.count),
            "orb.activate_us_per_op" => {
                let activate = ledger.totals(Kind::OrbActivate);
                (per_op(activate.total_ns), activate.count)
            }
            "tx-models.adapter_self_us_per_invoke" => {
                (per_invoke(first_runs.self_ns), first_runs.count)
            }
            "tx-models.lruow_us_per_op" => {
                let price = ledger.totals(Kind::TxLruow);
                (per_op(price.total_ns), price.count)
            }
            "ots.self_us_per_op" => (
                per_op(ots_self.iter().map(|t| t.self_ns).sum()),
                ots_self.iter().map(|t| t.count).sum(),
            ),
            "ots.self_allocs_per_op" => (
                per_op_count(ots_self.iter().map(|t| t.self_allocs).sum()),
                ots_self.iter().map(|t| t.count).sum(),
            ),
            "ots.kv_write_us" => mean_us(Kind::OtsKvWrite),
            "ots.reap_us_per_op" => {
                let reap = ledger.totals(Kind::OtsReap);
                (per_op(reap.total_ns), reap.count)
            }
            "recovery-log.busy_us_per_op" => (
                per_op(ledger.wal_busy_ns),
                Kind::ALL
                    .iter()
                    .filter(|k| k.is_wal_call())
                    .map(|k| ledger.totals(*k).count)
                    .sum(),
            ),
            "recovery-log.force_wait_us_p50" => {
                let waits = ledger.durations(Kind::WalForce);
                (us(percentile(waits, 50.0)), waits.len() as u64)
            }
            "recovery-log.sync_us_p50" => {
                let syncs = ledger.durations(Kind::SinkSync);
                (us(percentile(syncs, 50.0)), syncs.len() as u64)
            }
            "wfengine.self_us_per_op" => (per_op(workflow.self_ns), workflow.count),
            "wfengine.self_allocs_per_op" => (per_op_count(workflow.self_allocs), workflow.count),
            "wscf.pay_us_per_op" => {
                let pay = ledger.totals(Kind::WscfPay);
                (per_op(pay.total_ns), pay.count)
            }
            "wscf.register_us_per_participant" => mean_us(Kind::WscfRegister),
            "btp.fulfil_us_per_op" => {
                let fulfil = ledger.totals(Kind::BtpFulfil);
                (per_op(fulfil.total_ns), fulfil.count)
            }
            "loadgen.self_us_per_op" => (
                per_op(own.iter().map(|t| t.self_ns).sum()),
                own.iter().map(|t| t.count).sum(),
            ),
            "loadgen.trace_overhead_pct" => (ratio((traced_p50 - p50) * 100.0, p50), traced_ops),
            "loadgen.op_p95_us" => (latency(95.0), samples),
            "loadgen.op_p99_us" => (latency(99.0), samples),
            "loadgen.op_p999_us" => (latency(99.9), samples),
            "loadgen.round_spread_pct" => (spread, rounds.len() as u64),
            // Not produced on this workload: a primitive that belongs to
            // another one, or a counter this world has no source for.
            _ => (0.0, 0),
        }
    };
    let per_layer = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let (value, samples) = layer_value(name);
            Metric {
                name,
                unit,
                value: if value.is_finite() { value } else { 0.0 },
                samples,
            }
        })
        .collect();

    let mut errors = measured.errors;
    errors.extend(traced.errors);
    Report {
        workload: options.workload,
        clients,
        ops_per_round: ops,
        attempted,
        failed,
        errors,
        end_to_end,
        per_layer,
        traced_op_us: per_op(ledger.totals(Kind::Op).total_ns),
        ledger_sum_us: per_op(ledger.self_ns_all()),
        rounds: measured.rounds,
        traced: traced.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_takes_the_best_round_of_each_third_then_the_median() {
        // Thirds: [10, 30, 11] [12, 12, 40] [50, 60, 70] -> bests 10, 12, 50.
        let latencies = [10.0, 30.0, 11.0, 12.0, 12.0, 40.0, 50.0, 60.0, 70.0];
        assert_eq!(steady(&latencies, Better::Lower), 12.0);
        // Throughput: bests 30, 40, 70.
        assert_eq!(steady(&latencies, Better::Higher), 40.0);
        // Seven rounds make thirds of 3, 3 and 1: bests 1, 4, 2.
        assert_eq!(
            steady(&[3.0, 1.0, 9.0, 4.0, 8.0, 5.0, 2.0], Better::Lower),
            2.0
        );
        // Fewer than three rounds are their own thirds.
        assert_eq!(steady(&[5.0, 4.0], Better::Lower), 4.5);
        assert_eq!(steady(&[7.0], Better::Lower), 7.0);
    }
}
