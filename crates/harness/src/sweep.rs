//! The chaos explorer: sweep seeds into fault schedules, run every
//! schedule twice (the determinism oracle compares the runs), check the
//! invariant oracles, and shrink any violating schedule to a minimal
//! reproducer.

use crate::oracle::{self, Observation, Violation};
use crate::scenario::Scenario;
use crate::schedule::{self, FaultSchedule, ScheduleSpace};
use telemetry::{fnv1a, FNV_OFFSET};

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// First seed; schedules use `seed_start..seed_start + schedules`.
    pub seed_start: u64,
    /// Number of seeded schedules to run.
    pub schedules: u64,
    /// Largest number of fault events per schedule.
    pub max_events: usize,
    /// Whether violating schedules are shrunk to minimal reproducers.
    pub shrink: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig { seed_start: 0x5eed, schedules: 40, max_events: 4, shrink: true }
    }
}

/// One failing schedule with its (minimized) reproducer — what the seeded
/// sweep and the explorer both report.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// Scenario that failed.
    pub scenario: String,
    /// Seed the schedule was generated from (`None` for the fault-free
    /// probe and for enumerated schedules).
    pub seed: Option<u64>,
    /// The schedule as generated or enumerated.
    pub schedule: FaultSchedule,
    /// The schedule after shrinking (equals `schedule` when shrinking is
    /// disabled).
    pub minimized: FaultSchedule,
    /// Violations the original schedule produced.
    pub violations: Vec<Violation>,
    /// The flight recorder's dump from a run of the *minimized* schedule
    /// (`None` when the scenario attaches no recorder) — the black box
    /// that ships with the reproducer.
    pub recorder_dump: Option<String>,
    /// The merged happens-before DAG of the *minimized* schedule exported
    /// as Perfetto/Chrome-trace JSON (`None` when the scenario builds no
    /// causal merge) — load it in `ui.perfetto.dev` to see the failing
    /// interleaving, one track per node, flow arrows per message.
    pub causal_trace: Option<String>,
}

impl FailureReport {
    /// The one place a failure becomes a report: shrink `schedule` (when
    /// asked), then run the minimized schedule once more for the black box
    /// and the causal trace that match the reproducer the report ships.
    /// When `HARNESS_TRACE_DIR` is set (CI does this) the trace is written
    /// there as an artifact.
    pub(crate) fn new(
        scenario: &dyn Scenario,
        seed: Option<u64>,
        schedule: FaultSchedule,
        violations: Vec<Violation>,
        minimize: bool,
    ) -> Self {
        let minimized = if minimize { shrink(scenario, &schedule) } else { schedule.clone() };
        let rerun = scenario.run(&minimized);
        let report = FailureReport {
            scenario: scenario.name().to_owned(),
            seed,
            schedule,
            minimized,
            violations,
            recorder_dump: rerun.black_box.map(|black_box| black_box.dump),
            causal_trace: rerun.causal.map(|causal| causal.perfetto),
        };
        if let Ok(dir) = std::env::var("HARNESS_TRACE_DIR") {
            report.write_causal_trace(std::path::Path::new(&dir));
        }
        report
    }

    /// A copy-pasteable reproducer: seed, minimized schedule and the
    /// violated oracles, formatted as a Rust test body. When the scenario
    /// attaches a flight recorder, its dump from the minimized schedule is
    /// appended as comment lines.
    pub fn repro(&self) -> String {
        let oracles: Vec<&str> = self.violations.iter().map(|v| v.oracle).collect();
        let seed =
            self.seed.map_or_else(|| "none (probe or enumerated)".to_owned(), |s| s.to_string());
        let mut out = format!(
            "// scenario: {} | seed: {} | violated: {:?}\n\
             // minimal reproducer ({} fault event(s), {} prescribed choice(s)):\n\
             let schedule = {};\n\
             let violations = harness::oracle::check_all(&scenario.run(&schedule));\n\
             assert!(violations.is_empty(), \"{{violations:?}}\");\n",
            self.scenario,
            seed,
            oracles,
            self.minimized.len(),
            self.minimized.choices().len(),
            self.minimized,
        );
        if let Some(dump) = &self.recorder_dump {
            out.push_str("//\n// flight recorder at failure:\n");
            for line in dump.lines() {
                out.push_str("//   ");
                out.push_str(line);
                out.push('\n');
            }
        }
        if let Some(trace) = &self.causal_trace {
            out.push_str(&format!(
                "//\n// causal Perfetto trace attached ({} bytes) — write it to a\n\
                 // .json file and open in ui.perfetto.dev\n",
                trace.len()
            ));
        }
        out
    }

    /// Write the attached Perfetto trace to
    /// `{dir}/{scenario}-{seed}.perfetto.json` (an unseeded report is named
    /// by the hash of its minimized schedule) and return the path, or
    /// `None` when no causal trace was captured.
    pub fn write_causal_trace(&self, dir: &std::path::Path) -> Option<std::path::PathBuf> {
        let trace = self.causal_trace.as_ref()?;
        let tag = self.seed.map_or_else(
            || format!("x{:016x}", fnv1a(FNV_OFFSET, self.minimized.to_string().as_bytes())),
            |seed| seed.to_string(),
        );
        let path = dir.join(format!("{}-{tag}.perfetto.json", self.scenario));
        std::fs::create_dir_all(dir).ok()?;
        std::fs::write(&path, trace).ok()?;
        Some(path)
    }
}

/// Everything one sweep produced.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Scenario swept.
    pub scenario: String,
    /// Schedules executed (excluding the probe and shrink re-runs).
    pub schedules_run: u64,
    /// Order-sensitive digest of every run's observable facts; two sweeps
    /// of the same scenario and config must produce identical
    /// fingerprints.
    pub fingerprint: u64,
    /// Oracle violations found, with minimal reproducers.
    pub failures: Vec<FailureReport>,
}

fn fingerprint_run(hash: u64, seed: u64, obs: &Observation, violations: usize) -> u64 {
    let mut hash = fnv1a(hash, &seed.to_le_bytes());
    hash = fnv1a(hash, &[obs.outcome as u8, violations as u8]);
    hash = fnv1a(hash, obs.trace.as_bytes());
    for (name, committed) in &obs.participant_commits {
        hash = fnv1a(hash, name.as_bytes());
        hash = fnv1a(hash, &[u8::from(*committed)]);
    }
    for effect in &obs.effects {
        hash = fnv1a(hash, effect.action.as_bytes());
        hash = fnv1a(hash, &effect.observed.to_le_bytes());
    }
    if let Some(black_box) = &obs.black_box {
        hash = fnv1a(hash, &black_box.fingerprint.to_le_bytes());
    }
    if let Some(causal) = &obs.causal {
        hash = fnv1a(hash, &causal.fingerprint.to_le_bytes());
    }
    hash
}

/// The one check, behind the sweep, the explorer and the shrinker: run
/// `schedule` twice, put the first run to every single-observation oracle
/// and both to the determinism oracle. Returns the first run with what it
/// violated.
pub(crate) fn violations_for(
    scenario: &dyn Scenario,
    schedule: &FaultSchedule,
) -> (Observation, Vec<Violation>) {
    let first = scenario.run(schedule);
    let second = scenario.run(schedule);
    let mut violations = oracle::check_all(&first);
    violations.extend(oracle::check_determinism(&first, &second));
    (first, violations)
}

/// Shrink a violating schedule by greedy delta-debugging: move to the
/// first of [`FaultSchedule::reductions`] that still fails, start over
/// from it, and stop when none does. The result is 1-minimal — no event
/// can be dropped and no choice dropped or lowered with the failure
/// surviving.
pub fn shrink(scenario: &dyn Scenario, schedule: &FaultSchedule) -> FaultSchedule {
    let still_fails =
        |candidate: &FaultSchedule| !violations_for(scenario, candidate).1.is_empty();
    let mut current = schedule.clone();
    while let Some(smaller) = current.reductions().into_iter().find(still_fails) {
        current = smaller;
    }
    current
}

/// Sweep `scenario` under `config`: probe the schedule space, then run
/// every seeded schedule twice and oracle-check it.
pub fn sweep(scenario: &dyn Scenario, config: &SweepConfig) -> SweepReport {
    let mut fingerprint = FNV_OFFSET;
    let mut failures = Vec::new();
    let mut check = |seed: Option<u64>, schedule: FaultSchedule| {
        let (obs, violations) = violations_for(scenario, &schedule);
        fingerprint =
            fingerprint_run(fingerprint, seed.unwrap_or(u64::MAX), &obs, violations.len());
        if !violations.is_empty() {
            failures.push(FailureReport::new(scenario, seed, schedule, violations, config.shrink));
        }
        obs
    };

    let probe = check(None, FaultSchedule::empty());
    let space = ScheduleSpace { max_events: config.max_events, ..probe.space };
    for seed in config.seed_start..config.seed_start + config.schedules {
        check(Some(seed), schedule::generate(seed, &space));
    }

    SweepReport {
        scenario: scenario.name().to_owned(),
        schedules_run: config.schedules,
        fingerprint,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{EffectCount, RunOutcome};
    use crate::schedule::FaultEvent;

    /// A synthetic scenario violating exactly-once whenever the schedule
    /// contains `DuplicateMessage { nth: 1 }` — any other event is noise
    /// the shrinker must strip.
    struct Synthetic;

    impl Scenario for Synthetic {
        fn name(&self) -> &'static str {
            "synthetic"
        }

        fn run(&self, schedule: &FaultSchedule) -> Observation {
            let buggy = schedule
                .events()
                .iter()
                .any(|e| matches!(e, FaultEvent::DuplicateMessage { nth: 1 }));
            let mut obs = Observation::new(RunOutcome::Committed);
            obs.effects = vec![EffectCount {
                action: "effect".into(),
                observed: if buggy { 2 } else { 1 },
                min: 1,
                max: 1,
            }];
            obs.trace = format!("buggy={buggy}\n");
            obs.space.sites = vec!["syn.site".into()];
            obs.space.remote_messages = 2;
            obs
        }
    }

    #[test]
    fn shrink_strips_noise_events() {
        let schedule = FaultSchedule::from_events(vec![
            FaultEvent::DropMessage { nth: 0 },
            FaultEvent::ArmFailpoint { site: "syn.site".into(), after: 1 },
            FaultEvent::DuplicateMessage { nth: 1 },
            FaultEvent::DropMessage { nth: 3 },
        ]);
        let minimal = shrink(&Synthetic, &schedule);
        assert_eq!(minimal.events(), &[FaultEvent::DuplicateMessage { nth: 1 }]);
    }

    #[test]
    fn sweep_finds_and_minimizes_the_planted_bug() {
        let config = SweepConfig { seed_start: 0, schedules: 60, ..SweepConfig::default() };
        let report = sweep(&Synthetic, &config);
        assert_eq!(report.schedules_run, 60);
        assert!(!report.failures.is_empty(), "some seed must draw the buggy event");
        for failure in &report.failures {
            assert_eq!(failure.minimized.len(), 1);
            assert!(failure.repro().contains("seed"));
            assert!(failure.repro().contains("DuplicateMessage { nth: 1 }"));
        }
    }

    #[test]
    fn sweeps_are_reproducible() {
        let config = SweepConfig::default();
        let a = sweep(&Synthetic, &config);
        let b = sweep(&Synthetic, &config);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.failures.len(), b.failures.len());
    }
}
