//! Invariant oracles checked after every simulated run.
//!
//! Scenarios report *facts* in an [`Observation`]; the oracles here turn
//! facts into [`Violation`]s. Twelve oracles cover the §3.4 guarantees:
//!
//! 1. **atomicity** — participant effects are all-or-nothing with respect
//!    to the run outcome;
//! 2. **exactly-once** — every action's observed effect count lies inside
//!    its contractual `[min, max]` band (exactly-once actions pin the band
//!    to a point);
//! 3. **compensation** — when compensation is required, every completed
//!    step was compensated, in reverse completion order;
//! 4. **replay-equivalence** — post-crash WAL replay reaches the outcome
//!    the durable decision dictates (presumed abort without one), and a
//!    second replay changes nothing;
//! 5. **determinism** — the same schedule yields a byte-identical trace and
//!    identical facts (checked across two runs by
//!    [`check_determinism`]);
//! 6. **liveness-under-bounded-faults** — a run whose schedule injects only
//!    *transient* faults (message drops), no more of them than the retry
//!    budget and no hard faults (crash failpoints), must still reach a
//!    terminal forward outcome: the reliability layer absorbs bounded loss;
//! 7. **telemetry-conformance** — when the scenario records spans, the span
//!    tree must be well-formed (single-rooted per trace, no orphans, no
//!    never-closed spans, children inside their parents), and its
//!    fingerprint is compared across the determinism oracle's two runs.
//!    Spans time the work; they hold no copy of the protocol steps, which
//!    the flight recorder keeps once (DESIGN.md §20) and #9 judges;
//! 8. **durability** — every record the log acknowledged as durable before
//!    an injected crash must survive replay: if the scenario reports the
//!    highest acked LSN and the set of LSNs found after restart, LSNs
//!    `low_water..=acked` must all be present. The unacked tail may tear
//!    and what lies below the log's low-water mark was released by its
//!    holders; acked records in between may not go missing;
//! 9. **refinement** — when the scenario reports the protocol steps its
//!    run emitted (the flight recorder's typed stream, as is), they must
//!    replay cleanly through the executable reference models
//!    ([`crate::model::replay_all`]), and a reported saga through the saga
//!    model: the implementation's observable behaviour refines the paper's
//!    specification, event by event. The [`crate::enumerate`] module runs
//!    this oracle over every interleaving it enumerates;
//! 10. **eventual-resolution** — once injected faults cease and partitions
//!     heal, no participant may remain in-doubt: scenarios that drive
//!     termination report how many transactions were still unresolved after
//!     their bounded post-heal resolution rounds, and that count must be
//!     zero. Heuristic outcomes are reported only for genuinely hazarded
//!     histories — a heuristic on an unhazarded run means the participant
//!     gave up when interrogation would have answered;
//! 11. **recorder-consistency** — when the scenario reports its flight
//!     recorder, the critical-path attribution over the commit span must
//!     partition the root duration exactly, and the recorder's fingerprint
//!     is compared across the determinism oracle's two runs — the black box
//!     itself must be bit-identical under replay. (The trace *is* the
//!     recorder's view of the fig. 5 steps, so there is no second account
//!     to compare it with; strict oldest-first eviction is pinned by
//!     `tests/recorder_props.rs`.);
//! 12. **causal-consistency** — when the scenario merges its per-node
//!     flight-recorder logs into a global happens-before DAG
//!     (`telemetry::CausalMerge`), the merge must verify clean: the DAG is
//!     acyclic, and every edge's destination follows its source in both
//!     Lamport and virtual-clock order. That is what only the merge shows:
//!     a receive stamped before its send on another node's clock. It judges
//!     no protocol — within one node "causally before" is program order,
//!     which is the order #9 replays through the reference models, and every
//!     scenario that merges also reports its steps to #9 (DESIGN.md §13).
//!     The merge fingerprint is additionally compared across the
//!     determinism oracle's two runs — the *global* causal history must be
//!     bit-identical under replay, not just each node's local log.

use crate::enumerate::{ChoiceDriver, ChoicePoint};
use crate::schedule::{FaultSchedule, ScheduleSpace};

/// Terminal outcome of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunOutcome {
    /// The protocol completed in the forward direction (what a run is
    /// until something says otherwise).
    #[default]
    Committed,
    /// The protocol completed in the backward direction (rollback,
    /// cancellation or compensation).
    Aborted,
    /// An injected crash ended the run and no recovery pass applies
    /// (in-memory protocols with no durable state to replay).
    Crashed,
}

/// One action's effect accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectCount {
    /// The action whose side effects were counted.
    pub action: String,
    /// Effects actually observed.
    pub observed: u64,
    /// Fewest effects the contract allows for this run's outcome.
    pub min: u64,
    /// Most effects the contract allows (1 for exactly-once actions).
    pub max: u64,
}

/// Everything a scenario run reports to the oracles. What every run has is
/// a plain field; what only some oracles need is an `Option<section>`, and
/// `Some` is what makes that oracle bind — a scenario fills in only what it
/// claims, and a half-reported section is not representable.
#[derive(Debug, Clone, Default)]
pub struct Observation {
    /// Terminal outcome.
    pub outcome: RunOutcome,
    /// Participant name → whether its effects are durably present.
    pub participant_commits: Vec<(String, bool)>,
    /// Per-action effect accounting.
    pub effects: Vec<EffectCount>,
    /// Steps whose forward work completed, oldest first.
    pub completed_steps: Vec<String>,
    /// Steps compensated, in execution order.
    pub compensated_steps: Vec<String>,
    /// Whether the run's ending obliges compensation of completed steps.
    pub compensation_required: bool,
    /// Rendered protocol trace; byte-compared by the determinism oracle.
    pub trace: String,
    /// The schedule space the run exposes — failpoint sites passed, remote
    /// messages sent, partitionable nodes, restartable sites. Probe runs
    /// are how the sweep and the explorer discover what to inject.
    pub space: ScheduleSpace,
    /// The delivery choice points the run hit, in order
    /// ([`ChoiceDriver::taken`]; empty without a sequenced component) —
    /// what the explorer branches on.
    pub choice_points: Vec<ChoicePoint>,
    /// Disruptive deliveries the run reported
    /// ([`ChoiceDriver::total_dirty`]) — what the explorer prunes on.
    pub dirty_deliveries: u64,
    /// The protocol steps the run emitted, each with its origin — the
    /// flight recorder's typed stream as recorded (oracle #9 replays them
    /// through the reference models).
    pub model_events: Option<Vec<crate::model::Step>>,
    /// Whether the saga the run drove completed forward: with it,
    /// `completed_steps` and `compensated_steps` replay through the saga
    /// reference model (oracle #9).
    pub saga_completed: Option<bool>,
    /// Whether `SpanTree::critical_path` partitioned the commit span's
    /// duration exactly (oracle #11).
    pub critical_path_exact: Option<bool>,
    /// Oracle #4: a post-crash recovery pass ran.
    pub replay: Option<Replay>,
    /// Oracle #6: the scenario accounts for its faults and retries.
    pub fault_budget: Option<FaultBudget>,
    /// Oracle #7: the scenario records spans.
    pub spans: Option<Spans>,
    /// Oracle #8: the log's acked watermark and what survived the crash.
    pub durability: Option<Durability>,
    /// Oracle #10: the scenario drives termination.
    pub termination: Option<Termination>,
    /// Oracle #11: the node's flight recorder.
    pub black_box: Option<BlackBox>,
    /// Oracle #12: the merged happens-before DAG.
    pub causal: Option<Causal>,
}

/// What a post-crash WAL replay found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Whether a commit decision record was durable at the crash.
    pub decision_durable: bool,
    /// Outcome the replay reached.
    pub outcome: RunOutcome,
    /// Whether a *second* replay over the same log found nothing left to do.
    pub stable: bool,
}

/// The bounded-fault envelope a run was inside (or not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultBudget {
    /// Transient faults (dropped messages) the schedule injected.
    pub transient: u32,
    /// Hard faults (crash failpoints, restarts, partitions) it injected.
    pub hard: u32,
    /// The per-call retry budget the run's reliability layer had.
    pub retry_budget: u32,
}

impl FaultBudget {
    /// `schedule`'s fault counts against a budget of `retry_budget`.
    pub fn of(schedule: &FaultSchedule, retry_budget: u32) -> Self {
        FaultBudget {
            transient: schedule.transient_fault_count(),
            hard: schedule.hard_fault_count(),
            retry_budget,
        }
    }
}

/// The telemetry plane's account of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spans {
    /// Span-tree well-formedness defects from `SpanTree::verify`.
    pub defects: Vec<String>,
    /// Canonical span-tree fingerprint; compared across the determinism
    /// oracle's two runs.
    pub fingerprint: u64,
}

impl Spans {
    /// Everything the oracles read off `tree`.
    pub fn of(tree: &telemetry::SpanTree) -> Self {
        Spans {
            defects: tree.verify(),
            fingerprint: tree.fingerprint(),
        }
    }
}

/// Both sides of the durability contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Durability {
    /// Highest LSN the log acknowledged as durable before the crash.
    pub acked_lsn: u64,
    /// The log's low-water mark at the crash: records below it were
    /// released by their holders, not lost.
    pub low_water: u64,
    /// Raw LSNs found in the log after the post-crash restart.
    pub survived_lsns: Vec<u64>,
}

/// Post-heal resolution accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Termination {
    /// Participants still in doubt after faults ceased, partitions healed
    /// and the scenario ran its bounded resolution rounds.
    pub in_doubt: u32,
    /// Heuristic outcomes participants recorded during the run.
    pub heuristics: u32,
    /// Whether the history genuinely hazarded an outcome — the
    /// coordinator's decision was unknowable for long enough that a
    /// heuristic was the participant's only legal exit.
    pub hazarded: bool,
}

/// A node's flight recorder at the end of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlackBox {
    /// FNV fingerprint over the retained events; compared across the
    /// determinism oracle's two runs.
    pub fingerprint: u64,
    /// The rendered dump, attached verbatim to failure repros (never
    /// compared by oracles).
    pub dump: String,
}

impl BlackBox {
    /// `recorder`'s fingerprint and the dump a shrunk reproducer ships with.
    pub fn of(recorder: &telemetry::FlightRecorder) -> Self {
        BlackBox { fingerprint: recorder.fingerprint(), dump: recorder.dump() }
    }
}

/// The global happens-before DAG merged from every node's recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Causal {
    /// Rendered [`telemetry::CausalViolation`]s from verifying the DAG
    /// (empty means the merge verified clean).
    pub violations: Vec<String>,
    /// Fingerprint of the DAG (events + program-order + message edges);
    /// compared across the determinism oracle's two runs.
    pub fingerprint: u64,
    /// The DAG as Perfetto/Chrome-trace JSON, attached verbatim to failure
    /// repros (never compared by oracles).
    pub perfetto: String,
}

impl Causal {
    /// `dag`'s verification result, fingerprint and Perfetto export.
    pub fn of(dag: &telemetry::CausalDag) -> Self {
        Causal {
            violations: dag.verify().iter().map(ToString::to_string).collect(),
            fingerprint: dag.fingerprint(),
            perfetto: dag.to_perfetto(),
        }
    }
}

impl Observation {
    /// An observation with the given outcome and no other facts.
    pub fn new(outcome: RunOutcome) -> Self {
        Observation { outcome, ..Observation::default() }
    }

    /// Report the delivery choices `driver` steered: the points it hit and
    /// the disruptive deliveries it was told of.
    pub fn report_choices(&mut self, driver: &ChoiceDriver) {
        self.choice_points = driver.taken();
        self.dirty_deliveries = driver.total_dirty();
    }
}

/// One oracle violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle fired.
    pub oracle: &'static str,
    /// Human-readable account of the broken invariant.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// One single-observation oracle: the details of every way `obs` breaks it.
pub type Check = fn(&Observation) -> Vec<String>;

/// The single-observation oracles by name, in the order [`check_all`]
/// evaluates them. Oracle #5 needs two runs: [`check_determinism`].
pub const ORACLES: &[(&str, Check)] = &[
    ("atomicity", atomicity),
    ("exactly-once", exactly_once),
    ("compensation", compensation),
    ("replay-equivalence", replay_equivalence),
    ("liveness-under-bounded-faults", liveness),
    ("telemetry-conformance", telemetry_conformance),
    ("durability", durability),
    ("refinement", refinement),
    ("eventual-resolution", eventual_resolution),
    ("recorder-consistency", recorder_consistency),
    ("causal-consistency", causal_consistency),
];

/// Run every single-observation oracle (all but determinism).
pub fn check_all(obs: &Observation) -> Vec<Violation> {
    let tagged = ORACLES.iter().flat_map(|&(oracle, check)| {
        check(obs).into_iter().map(move |detail| Violation { oracle, detail })
    });
    tagged.collect()
}

fn atomicity(obs: &Observation) -> Vec<String> {
    // Every participant whose state is `wrong` for an outcome of `ended`.
    let uneven = |wrong: bool, ended: &str, verb: &str| {
        let offenders = obs.participant_commits.iter().filter(move |(_, c)| *c == wrong);
        offenders
            .map(|(name, _)| format!("outcome {ended} but participant {name:?} {verb} its effects"))
            .collect()
    };
    match obs.outcome {
        RunOutcome::Committed => uneven(false, "committed", "lost"),
        RunOutcome::Aborted => uneven(true, "aborted", "kept"),
        RunOutcome::Crashed => {
            // No recovery pass ran: the only claim is uniformity.
            let mixed = obs.participant_commits.iter().any(|(_, c)| *c)
                && obs.participant_commits.iter().any(|(_, c)| !*c);
            let detail = || {
                format!("crashed run left mixed participant states: {:?}", obs.participant_commits)
            };
            mixed.then(detail).into_iter().collect()
        }
    }
}

fn exactly_once(obs: &Observation) -> Vec<String> {
    let out_of_band = obs.effects.iter().filter(|e| e.observed < e.min || e.observed > e.max);
    out_of_band
        .map(|effect| {
            format!(
                "action {:?} produced {} effects, contract allows {}..={}",
                effect.action, effect.observed, effect.min, effect.max
            )
        })
        .collect()
}

fn compensation(obs: &Observation) -> Vec<String> {
    let mut out = Vec::new();
    if obs.compensation_required {
        let expected: Vec<String> = obs.completed_steps.iter().rev().cloned().collect();
        if obs.compensated_steps != expected {
            out.push(format!(
                "completed steps {:?} require compensations {expected:?}, observed {:?}",
                obs.completed_steps, obs.compensated_steps
            ));
        }
    } else if !obs.compensated_steps.is_empty() {
        out.push(format!(
            "no compensation was required but {:?} were compensated",
            obs.compensated_steps
        ));
    }
    out
}

fn replay_equivalence(obs: &Observation) -> Vec<String> {
    let Some(replay) = &obs.replay else { return Vec::new() };
    let mut out = Vec::new();
    match (replay.decision_durable, replay.outcome) {
        (true, RunOutcome::Committed) | (false, RunOutcome::Aborted) => {}
        (true, reached) => out.push(format!("decision was durable but replay reached {reached:?}")),
        (false, reached) => out.push(format!(
            "no durable decision (presumed abort) but replay reached {reached:?}"
        )),
    }
    if obs.outcome != replay.outcome {
        out.push(format!(
            "final outcome {:?} disagrees with replayed outcome {:?}",
            obs.outcome, replay.outcome
        ));
    }
    if !replay.stable {
        out.push("a second replay over the same log still found in-doubt work".into());
    }
    out
}

fn liveness(obs: &Observation) -> Vec<String> {
    let Some(faults) = &obs.fault_budget else { return Vec::new() };
    // Outside the bounded-fault envelope any outcome is legal.
    let bounded = faults.hard == 0 && faults.transient <= faults.retry_budget;
    if !bounded || obs.outcome == RunOutcome::Committed {
        return Vec::new();
    }
    vec![format!(
        "schedule injected {} transient fault(s) within the retry budget of {} and no hard \
         faults, yet the run ended {:?} instead of Committed",
        faults.transient, faults.retry_budget, obs.outcome
    )]
}

fn telemetry_conformance(obs: &Observation) -> Vec<String> {
    let Some(spans) = &obs.spans else { return Vec::new() };
    spans.defects.iter().map(|defect| format!("span tree malformed: {defect}")).collect()
}

fn durability(obs: &Observation) -> Vec<String> {
    let Some(Durability { acked_lsn, low_water, survived_lsns }) = &obs.durability else {
        return Vec::new();
    };
    let lost = ((*low_water).max(1)..=*acked_lsn).filter(|lsn| !survived_lsns.contains(lsn));
    lost.map(|lsn| {
        format!(
            "LSN {lsn} was acknowledged durable (acked up to {acked_lsn}) \
             but did not survive the crash; survivors: {survived_lsns:?}"
        )
    })
    .collect()
}

fn refinement(obs: &Observation) -> Vec<String> {
    // The oracle binds to what the scenario reports: its protocol steps,
    // its saga, or both.
    let mut out = Vec::new();
    if let Some(events) = &obs.model_events {
        for divergence in crate::model::replay_all(events) {
            let offending = events
                .get(divergence.event_index)
                .map_or_else(|| "<past end>".to_owned(), |e| format!("{e:?}"));
            out.push(format!("{divergence}; offending event: {offending}"));
        }
    }
    if let Some(completed) = obs.saga_completed {
        let divergences =
            crate::model::saga::replay(&obs.completed_steps, &obs.compensated_steps, completed);
        out.extend(divergences.iter().map(ToString::to_string));
    }
    out
}

fn eventual_resolution(obs: &Observation) -> Vec<String> {
    let Some(termination) = &obs.termination else { return Vec::new() };
    let mut out = Vec::new();
    if termination.in_doubt > 0 {
        out.push(format!(
            "{} participant transaction(s) remain in doubt after faults \
             ceased and partitions healed — interrogation never terminated",
            termination.in_doubt
        ));
    }
    if termination.heuristics > 0 && !termination.hazarded {
        out.push(format!(
            "{} heuristic outcome(s) recorded for an unhazarded \
             history — interrogation would have answered",
            termination.heuristics
        ));
    }
    out
}

fn recorder_consistency(obs: &Observation) -> Vec<String> {
    let inexact = obs.critical_path_exact == Some(false);
    let detail = || {
        "critical-path attribution does not partition the commit span's \
         duration exactly — a phase was double-counted or dropped"
            .to_owned()
    };
    inexact.then(detail).into_iter().collect()
}

fn causal_consistency(obs: &Observation) -> Vec<String> {
    obs.causal.as_ref().map_or_else(Vec::new, |causal| causal.violations.clone())
}

/// The determinism oracle: two runs of the same schedule must agree on
/// every observable fact, byte for byte in the trace.
pub fn check_determinism(first: &Observation, second: &Observation) -> Vec<Violation> {
    let mut out = Vec::new();
    if first.trace != second.trace {
        out.push(format!(
            "same schedule, different traces:\n--- run 1 ---\n{}\n--- run 2 ---\n{}",
            first.trace, second.trace
        ));
    }
    if first.outcome != second.outcome {
        out.push(format!("same schedule, outcomes {:?} vs {:?}", first.outcome, second.outcome));
    }
    if first.participant_commits != second.participant_commits {
        out.push(format!(
            "same schedule, participant states {:?} vs {:?}",
            first.participant_commits, second.participant_commits
        ));
    }
    if first.effects != second.effects {
        out.push(format!(
            "same schedule, effect counts {:?} vs {:?}",
            first.effects, second.effects
        ));
    }
    // A fingerprint binds when both runs carry its section.
    let mut fingerprints = |what: &str, a: Option<u64>, b: Option<u64>, consequence: &str| {
        if let (Some(a), Some(b)) = (a, b) {
            if a != b {
                out.push(format!(
                    "same schedule, {what} fingerprints {a:#018x} vs {b:#018x}{consequence}"
                ));
            }
        }
    };
    let spans = |obs: &Observation| obs.spans.as_ref().map(|s| s.fingerprint);
    fingerprints("span-tree", spans(first), spans(second), "");
    let black_box = |obs: &Observation| obs.black_box.as_ref().map(|b| b.fingerprint);
    fingerprints(
        "flight-recorder",
        black_box(first),
        black_box(second),
        " — the black box is not bit-identical under replay",
    );
    let causal = |obs: &Observation| obs.causal.as_ref().map(|c| c.fingerprint);
    fingerprints(
        "causal-merge",
        causal(first),
        causal(second),
        " — the global happens-before DAG is not bit-identical under replay",
    );
    out.into_iter().map(|detail| Violation { oracle: "determinism", detail }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_committed_run_passes() {
        let mut obs = Observation::new(RunOutcome::Committed);
        obs.participant_commits = vec![("store".into(), true), ("witness".into(), true)];
        obs.effects = vec![EffectCount { action: "eo".into(), observed: 1, min: 1, max: 1 }];
        assert!(check_all(&obs).is_empty());
    }

    #[test]
    fn mixed_participants_violate_atomicity() {
        let mut obs = Observation::new(RunOutcome::Committed);
        obs.participant_commits = vec![("store".into(), true), ("witness".into(), false)];
        let v = check_all(&obs);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "atomicity");
    }

    #[test]
    fn double_effect_violates_exactly_once() {
        let mut obs = Observation::new(RunOutcome::Committed);
        obs.effects = vec![EffectCount { action: "debit".into(), observed: 2, min: 1, max: 1 }];
        let v = check_all(&obs);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "exactly-once");
    }

    #[test]
    fn out_of_order_compensation_is_caught() {
        let mut obs = Observation::new(RunOutcome::Aborted);
        obs.compensation_required = true;
        obs.completed_steps = vec!["a".into(), "b".into()];
        obs.compensated_steps = vec!["a".into(), "b".into()]; // not reversed
        let v = check_all(&obs);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "compensation");
    }

    #[test]
    fn replay_must_follow_durable_decision() {
        let mut obs = Observation::new(RunOutcome::Aborted);
        obs.replay =
            Some(Replay { decision_durable: true, outcome: RunOutcome::Aborted, stable: true });
        let v = check_all(&obs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, "replay-equivalence");
    }

    fn budget(transient: u32, hard: u32, retry_budget: u32) -> Option<FaultBudget> {
        Some(FaultBudget { transient, hard, retry_budget })
    }

    #[test]
    fn bounded_transient_faults_must_still_commit() {
        let mut obs = Observation::new(RunOutcome::Aborted);
        obs.fault_budget = budget(2, 0, 4);
        let v = check_all(&obs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, "liveness-under-bounded-faults");
    }

    #[test]
    fn liveness_oracle_is_silent_outside_the_envelope() {
        // Over budget: an abort is legal.
        let mut obs = Observation::new(RunOutcome::Aborted);
        obs.fault_budget = budget(9, 0, 4);
        assert!(check_all(&obs).is_empty());
        // A hard fault voids the liveness claim too.
        obs.fault_budget = budget(1, 1, 4);
        assert!(check_all(&obs).is_empty());
        // No fault accounting reported: oracle does not bind.
        let obs = Observation::new(RunOutcome::Aborted);
        assert!(check_all(&obs).is_empty());
    }

    #[test]
    fn committed_run_within_the_envelope_passes() {
        let mut obs = Observation::new(RunOutcome::Committed);
        obs.fault_budget = budget(3, 0, 8);
        assert!(check_all(&obs).is_empty());
    }

    #[test]
    fn telemetry_oracle_does_not_bind_without_spans() {
        let obs = Observation::new(RunOutcome::Committed);
        assert!(check_all(&obs).is_empty());
    }

    #[test]
    fn malformed_span_tree_is_a_violation() {
        let mut obs = Observation::new(RunOutcome::Committed);
        obs.spans = Some(Spans { defects: vec!["span 3 never closed".into()], fingerprint: 0 });
        let v = check_all(&obs);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "telemetry-conformance");
    }

    #[test]
    fn determinism_compares_span_fingerprints() {
        let spans = |fingerprint| Some(Spans { defects: Vec::new(), fingerprint });
        let mut a = Observation::new(RunOutcome::Committed);
        a.spans = spans(0xDEAD);
        let mut b = a.clone();
        assert!(check_determinism(&a, &b).is_empty());
        b.spans = spans(0xBEEF);
        let v = check_determinism(&a, &b);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "determinism");
        // One-sided telemetry does not bind.
        b.spans = None;
        assert!(check_determinism(&a, &b).is_empty());
    }

    #[test]
    fn durability_oracle_does_not_bind_without_accounting() {
        let obs = Observation::new(RunOutcome::Crashed);
        assert!(check_all(&obs).is_empty());
    }

    #[test]
    fn acked_records_must_survive_the_crash() {
        let mut obs = Observation::new(RunOutcome::Crashed);
        // Lost LSN 3 after acking it.
        obs.durability = Some(Durability { acked_lsn: 3, low_water: 0, survived_lsns: vec![1, 2] });
        let v = check_all(&obs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, "durability");
        assert!(v[0].detail.contains("LSN 3"));
    }

    #[test]
    fn records_below_the_low_water_mark_were_released_not_lost() {
        let mut obs = Observation::new(RunOutcome::Crashed);
        // LSNs 1 and 2 were released by their holders before the crash.
        obs.durability = Some(Durability { acked_lsn: 4, low_water: 3, survived_lsns: vec![3, 4] });
        assert!(check_all(&obs).is_empty());
        // The mark excuses nothing at or above it.
        obs.durability = Some(Durability { acked_lsn: 4, low_water: 3, survived_lsns: vec![4] });
        let v = check_all(&obs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("LSN 3"));
    }

    #[test]
    fn unacked_tail_may_tear() {
        let mut obs = Observation::new(RunOutcome::Crashed);
        // LSNs 3 and 4 were staged but never acked: losing them is legal,
        // and so is their (partial) survival.
        obs.durability =
            Some(Durability { acked_lsn: 2, low_water: 0, survived_lsns: vec![1, 2, 4] });
        assert!(check_all(&obs).is_empty());
    }

    #[test]
    fn refinement_oracle_does_not_bind_without_model_events() {
        let obs = Observation::new(RunOutcome::Committed);
        assert!(check_all(&obs).is_empty());
    }

    fn of_one_transaction(steps: Vec<telemetry::ProtocolEvent>) -> Vec<crate::model::Step> {
        let origin = telemetry::Origin::Transaction { top: 1, branch: Vec::new() };
        steps.into_iter().map(|step| (origin.clone(), step)).collect()
    }

    #[test]
    fn a_spec_conformant_journal_passes_refinement() {
        use telemetry::{ProtocolEvent as Event, VoteKind};
        let mut obs = Observation::new(RunOutcome::Committed);
        obs.model_events = Some(of_one_transaction(vec![
            Event::PrepareSent { participant: "store".into() },
            Event::VoteRecorded { participant: "store".into(), vote: VoteKind::Commit },
            Event::DecisionForced { commit: true },
            Event::OutcomeDelivered { participant: "store".into(), commit: true, ok: true },
            Event::Forgotten { participant: "store".into() },
            Event::TxCompleted { committed: true },
        ]));
        assert!(check_all(&obs).is_empty());
    }

    #[test]
    fn a_spec_divergent_journal_fails_refinement() {
        use telemetry::{ProtocolEvent as Event, VoteKind};
        let mut obs = Observation::new(RunOutcome::Committed);
        obs.model_events = Some(of_one_transaction(vec![
            Event::PrepareSent { participant: "c".into() },
            Event::VoteRecorded { participant: "c".into(), vote: VoteKind::Rollback },
            Event::DecisionForced { commit: true },
        ]));
        let v = check_all(&obs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, "refinement");
        assert!(v[0].detail.contains("presumed abort"), "{}", v[0].detail);
    }

    #[test]
    fn a_reported_saga_replays_through_the_saga_model() {
        let mut obs = Observation::new(RunOutcome::Aborted);
        obs.compensation_required = true;
        obs.completed_steps = vec!["taxi".into(), "hotel".into()];
        obs.compensated_steps = vec!["hotel".into(), "taxi".into()];
        // Without the saga's ending the model does not bind.
        assert!(check_all(&obs).is_empty());
        obs.saga_completed = Some(false);
        assert!(check_all(&obs).is_empty());
        // A saga claiming forward completion after compensating diverges
        // (the compensation oracle has no opinion on the ending).
        obs.saga_completed = Some(true);
        let v = check_all(&obs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, "refinement");
        assert!(v[0].detail.contains("must not have compensated"), "{}", v[0].detail);
    }

    #[test]
    fn eventual_resolution_oracle_does_not_bind_without_accounting() {
        let obs = Observation::new(RunOutcome::Committed);
        assert!(check_all(&obs).is_empty());
    }

    fn terminated(in_doubt: u32, heuristics: u32, hazarded: bool) -> Option<Termination> {
        Some(Termination { in_doubt, heuristics, hazarded })
    }

    #[test]
    fn lingering_in_doubt_participants_are_a_violation() {
        let mut obs = Observation::new(RunOutcome::Aborted);
        obs.termination = terminated(1, 0, false);
        let v = check_all(&obs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, "eventual-resolution");
        assert!(v[0].detail.contains("remain in doubt"));
    }

    #[test]
    fn unhazarded_heuristics_are_a_violation() {
        let mut obs = Observation::new(RunOutcome::Aborted);
        obs.termination = terminated(0, 1, false);
        let v = check_all(&obs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, "eventual-resolution");
        assert!(v[0].detail.contains("unhazarded"));
    }

    #[test]
    fn hazarded_heuristics_and_clean_resolution_pass() {
        let mut obs = Observation::new(RunOutcome::Aborted);
        obs.termination = terminated(0, 1, true);
        assert!(check_all(&obs).is_empty());
        obs.termination = terminated(0, 0, false);
        assert!(check_all(&obs).is_empty());
    }

    #[test]
    fn inexact_critical_path_is_a_violation() {
        let mut obs = Observation::new(RunOutcome::Committed);
        obs.critical_path_exact = Some(true);
        assert!(check_all(&obs).is_empty());
        obs.critical_path_exact = Some(false);
        let v = check_all(&obs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, "recorder-consistency");
    }

    #[test]
    fn determinism_compares_recorder_fingerprints() {
        let black_box = |fingerprint| Some(BlackBox { fingerprint, dump: String::new() });
        let mut a = Observation::new(RunOutcome::Committed);
        a.black_box = black_box(0x1111);
        let mut b = a.clone();
        assert!(check_determinism(&a, &b).is_empty());
        b.black_box = black_box(0x2222);
        let v = check_determinism(&a, &b);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "determinism");
        assert!(v[0].detail.contains("flight-recorder"));
        // One-sided recorders do not bind.
        b.black_box = None;
        assert!(check_determinism(&a, &b).is_empty());
    }

    #[test]
    fn causal_oracle_does_not_bind_without_a_merge() {
        let obs = Observation::new(RunOutcome::Committed);
        assert!(check_all(&obs).is_empty());
    }

    #[test]
    fn clean_causal_merge_passes_and_violations_surface() {
        let merged = |violations: Vec<String>| {
            Some(Causal { violations, fingerprint: 0, perfetto: String::new() })
        };
        let mut obs = Observation::new(RunOutcome::Committed);
        obs.causal = merged(Vec::new());
        assert!(check_all(&obs).is_empty());
        obs.causal = merged(vec!["virtual-clock inversion on edge [a#0] -> [b#0]".into()]);
        let v = check_all(&obs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, "causal-consistency");
        assert!(v[0].detail.contains("inversion"));
    }

    #[test]
    fn determinism_compares_causal_fingerprints() {
        let merged = |fingerprint| {
            Some(Causal { violations: Vec::new(), fingerprint, perfetto: String::new() })
        };
        let mut a = Observation::new(RunOutcome::Committed);
        a.causal = merged(0xAAAA);
        let mut b = a.clone();
        assert!(check_determinism(&a, &b).is_empty());
        b.causal = merged(0xBBBB);
        let v = check_determinism(&a, &b);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "determinism");
        assert!(v[0].detail.contains("happens-before"));
        // One-sided merges do not bind.
        b.causal = None;
        assert!(check_determinism(&a, &b).is_empty());
    }

    #[test]
    fn determinism_compares_traces_bytewise() {
        let mut a = Observation::new(RunOutcome::Committed);
        a.trace = "GetSignal set=S\n".into();
        let mut b = a.clone();
        assert!(check_determinism(&a, &b).is_empty());
        b.trace.push(' ');
        let v = check_determinism(&a, &b);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "determinism");
    }
}
