//! The normative tables: workloads, end-to-end metrics with their bounds,
//! and per-layer metric names. `BENCHMARK.json` states the same tables; a
//! test keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a caller of the stack sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Per-layer metrics `(name, unit, better)`, all from the traced world.
pub const PER_LAYER: [(&str, &str, Better); 51] = [
    ("activity-service.self_us_per_op", "us", Better::Lower),
    (
        "activity-service.self_allocs_per_op",
        "count",
        Better::Lower,
    ),
    ("activity-service.signals_per_op", "count", Better::Lower),
    ("orb.self_us_per_invoke", "us", Better::Lower),
    ("orb.self_allocs_per_invoke", "count", Better::Lower),
    ("orb.invokes_per_op", "count", Better::Lower),
    ("orb.retries_per_op", "count", Better::Lower),
    ("orb.dedup_hits_per_op", "count", Better::Lower),
    ("orb.useful_invoke_share", "fraction", Better::Higher),
    ("orb.messages_per_op", "count", Better::Lower),
    ("orb.dedup_self_us_per_invoke", "us", Better::Lower),
    ("orb.activate_us_per_op", "us", Better::Lower),
    ("orb.invoke_echo_ns", "ns", Better::Lower),
    ("orb.invoke_echo_allocs", "count", Better::Lower),
    ("orb.value_roundtrip_ns", "ns", Better::Lower),
    ("orb.value_roundtrip_allocs", "count", Better::Lower),
    ("orb.dedup_lookup_ns", "ns", Better::Lower),
    ("orb.pool_scatter2_us", "us", Better::Lower),
    ("tx-models.adapter_self_us_per_invoke", "us", Better::Lower),
    ("tx-models.lruow_us_per_op", "us", Better::Lower),
    ("ots.self_us_per_op", "us", Better::Lower),
    ("ots.self_allocs_per_op", "count", Better::Lower),
    ("ots.kv_write_us", "us", Better::Lower),
    ("ots.reap_us_per_op", "us", Better::Lower),
    ("ots.lock_cycle_ns", "ns", Better::Lower),
    ("ots.lock_cycle_allocs", "count", Better::Lower),
    ("recovery-log.busy_us_per_op", "us", Better::Lower),
    ("recovery-log.appends_per_op", "count", Better::Lower),
    ("recovery-log.forces_per_op", "count", Better::Lower),
    ("recovery-log.bytes_per_op", "bytes", Better::Lower),
    ("recovery-log.syncs_per_op", "count", Better::Lower),
    ("recovery-log.records_per_sync", "count", Better::Higher),
    ("recovery-log.force_wait_us_p50", "us", Better::Lower),
    ("recovery-log.sync_us_p50", "us", Better::Lower),
    ("recovery-log.append_ns", "ns", Better::Lower),
    ("recovery-log.append_allocs", "count", Better::Lower),
    ("recovery-log.force_us", "us", Better::Lower),
    ("recovery-log.scan_ns_per_record", "ns", Better::Lower),
    ("recovery-log.replay_us_per_record", "us", Better::Lower),
    ("wfengine.self_us_per_op", "us", Better::Lower),
    ("wfengine.self_allocs_per_op", "count", Better::Lower),
    ("wfengine.compensations_per_op", "count", Better::Lower),
    ("wscf.pay_us_per_op", "us", Better::Lower),
    ("wscf.register_us_per_participant", "us", Better::Lower),
    ("btp.fulfil_us_per_op", "us", Better::Lower),
    ("loadgen.self_us_per_op", "us", Better::Lower),
    ("loadgen.trace_overhead_pct", "%", Better::Lower),
    ("loadgen.op_p95_us", "us", Better::Lower),
    ("loadgen.op_p99_us", "us", Better::Lower),
    ("loadgen.op_p999_us", "us", Better::Lower),
    ("loadgen.round_spread_pct", "%", Better::Lower),
];

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Remote2pcMem,
    Remote2pcLossy,
    Native2pcMem,
    Remote2pcDurable,
    OrderPipeline,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Remote2pcMem,
        Workload::Remote2pcLossy,
        Workload::Native2pcMem,
        Workload::Remote2pcDurable,
        Workload::OrderPipeline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Remote2pcMem => "remote_2pc_mem",
            Workload::Remote2pcLossy => "remote_2pc_lossy",
            Workload::Native2pcMem => "native_2pc_mem",
            Workload::Remote2pcDurable => "remote_2pc_durable",
            Workload::OrderPipeline => "order_pipeline",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL
            .into_iter()
            .find(|workload| workload.name() == name)
    }

    /// Why the workload exists, as `BENCHMARK.json` records it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Remote2pcMem => {
                "full framework 2PC over the ORB on in-memory logs: orb and activity-service do most of the work, the WAL almost none"
            }
            Workload::Remote2pcLossy => {
                "the same path under 5% drops and 5% duplicates: retries, virtual-clock backoff and dedup hits beside fault-free invokes"
            }
            Workload::Native2pcMem => {
                "native OTS commit with no orb, activity-service or tx-models: the single-node baseline where only ots work shows"
            }
            Workload::Remote2pcDurable => {
                "two clients on file logs behind a modelled 150 us fsync (the shared disk drifts 20% by the minute), default parallel dispatch: recovery-log and its forces are most of the op"
            }
            Workload::OrderPipeline => {
                "workflow of LRUOW, WSCF atomic transaction and BTP cohesion with declined payments and refunds: the non-2PC models and their rollback paths"
            }
        }
    }

    /// Closed-loop client count and operations per client per round. The
    /// counts are constants, not time boxes, so that counted metrics repeat
    /// exactly; they are sized so that [`ROUNDS_PER_SECOND`] rounds take
    /// about a second on the two-core reference box. Multiples of
    /// [`ORDER_CYCLE`], so one order in sixteen is exactly 1/16 of a round.
    pub fn size(self) -> (usize, usize) {
        match self {
            Workload::Remote2pcMem => (1, 10_000),
            Workload::Remote2pcLossy => (1, 8_000),
            Workload::Native2pcMem => (1, 64_000),
            Workload::Remote2pcDurable => (2, 512),
            Workload::OrderPipeline => (1, 3_200),
        }
    }
}

/// Measured rounds per second of `--seconds`. Many short rounds rather than
/// a few long ones: a noisy neighbour slows a stretch of wall time, and the
/// median over rounds discards a stretch only if it is a minority of them.
pub const ROUNDS_PER_SECOND: usize = 3;
/// Keys each client cycles over.
pub const KEYS_PER_CLIENT: usize = 1024;
/// `reap_completed` period of `native_2pc_mem`, in ops.
pub const REAP_EVERY: u64 = 256;
/// One in this many orders has its payment declined, and one in this many
/// finds no courier.
pub const ORDER_CYCLE: u64 = 16;

/// How the driver starts a run; it appends `--workload`, `--seed`,
/// `--seconds` and `--trace`.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmarks/Cargo.toml",
    "--bin",
    "actbench",
    "--",
];
/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmarks"];
/// Measured rounds of about a second each that the driver asks for.
pub const RUN_SECONDS: u32 = 7;

/// The text of `BENCHMARK.json`: the tables above in the driver's schema.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| -> String {
        items
            .iter()
            .map(|item| format!("\"{item}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let lines = |items: Vec<String>| items.join(",\n");
    let workloads = lines(
        Workload::ALL
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                    w.name(),
                    w.why()
                )
            })
            .collect(),
    );
    let end_to_end = lines(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    );
    let per_layer = lines(
        PER_LAYER
            .iter()
            .map(|(name, unit, better)| {
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                    better.as_str()
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \
         \"per_layer\": [\n{per_layer}\n  ]\n}}\n",
        quoted(&COMMAND),
        quoted(&PATHS),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_drivers_schema() {
        let name_ok = |name: &str| {
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |unit: &str| {
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for metric in END_TO_END {
            assert!(
                name_ok(metric.name) && unit_ok(metric.unit),
                "{}",
                metric.name
            );
            assert!(metric.bound > 0.0 && metric.bound <= 0.25);
            names.push(metric.name);
        }
        for (name, unit, _) in PER_LAYER {
            assert!(name_ok(name) && unit_ok(unit), "{name}");
            names.push(name);
        }
        for workload in Workload::ALL {
            assert!(name_ok(workload.name()));
            assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
            names.push(workload.name());
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn benchmark_json_on_disk_states_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate it with `actbench spec`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
