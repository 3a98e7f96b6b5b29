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
//!    never-closed spans) and its projection onto coordinator events must be
//!    byte-identical to the rendered fig. 5 steps the flight recorder kept:
//!    spans are a second store, and the telemetry plane may never disagree
//!    with the protocol's own account of what happened;
//! 8. **durability** — every record the log acknowledged as durable before
//!    an injected crash must survive replay: if the scenario reports the
//!    highest acked LSN and the set of LSNs found after restart, LSNs
//!    `1..=acked` must all be present. The unacked tail may tear; acked
//!    records may not;
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
//!     acyclic, every message edge's receive stamp exceeds its send stamp
//!     in both Lamport and virtual-clock order, and the 2PC protocol events
//!     respect causal order (no outcome delivered before the decision was
//!     forced, no vote recorded after the decision, no completion before
//!     the decided outcome reached the participants). The merge fingerprint
//!     is additionally compared across the determinism oracle's two runs —
//!     the *global* causal history must be bit-identical under replay, not
//!     just each node's local log.

/// Terminal outcome of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The protocol completed in the forward direction.
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

/// Everything a scenario run reports to the oracles.
#[derive(Debug, Clone)]
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
    /// Whether a commit decision record was durable at the crash
    /// (`None` when no crash-recovery pass ran).
    pub decision_durable: Option<bool>,
    /// Outcome the WAL replay reached (`None` when no crash occurred).
    pub replay_outcome: Option<RunOutcome>,
    /// Whether a *second* replay over the same log found nothing left to
    /// do (`None` when no crash occurred).
    pub replay_stable: Option<bool>,
    /// Rendered protocol trace; byte-compared by the determinism oracle.
    pub trace: String,
    /// Failpoint sites the run passed through (probe runs use this to
    /// discover the schedule space).
    pub observed_sites: Vec<String>,
    /// Remote messages the run sent (probe runs use this to bound
    /// message-fault sequence numbers).
    pub remote_messages: u64,
    /// Transient faults (dropped messages) the schedule injected
    /// (`None` when the scenario does not report fault accounting).
    pub transient_faults: Option<u32>,
    /// Hard faults (armed crash failpoints) the schedule injected.
    pub hard_faults: Option<u32>,
    /// The per-call retry budget the run's reliability layer had
    /// (`None` when retries are disabled or unreported).
    pub retry_budget: Option<u32>,
    /// Span-tree well-formedness defects from `SpanTree::verify`
    /// (`None` when the scenario records no telemetry).
    pub span_wellformed: Option<Vec<String>>,
    /// The span tree's projection onto coordinator events
    /// (`None` when the scenario records no telemetry).
    pub span_projection: Option<String>,
    /// Canonical span-tree fingerprint; compared across the determinism
    /// oracle's two runs (`None` when the scenario records no telemetry).
    pub span_fingerprint: Option<u64>,
    /// Highest LSN the log acknowledged as durable before the crash
    /// (`None` when the scenario does not report durability accounting).
    pub durable_acked_lsn: Option<u64>,
    /// Raw LSNs found in the log after the post-crash restart
    /// (`None` when the scenario does not report durability accounting).
    pub survived_lsns: Option<Vec<u64>>,
    /// The protocol steps the run emitted, each with its origin — the
    /// flight recorder's typed stream as recorded (`None` when the scenario
    /// does not report it; the refinement oracle binds only when present).
    pub model_events: Option<Vec<crate::model::Step>>,
    /// Whether the saga the run drove completed forward (`None` when it
    /// drove none): with it, `completed_steps` and `compensated_steps`
    /// replay through the saga reference model.
    pub saga_completed: Option<bool>,
    /// Nodes the scenario exposes to [`crate::schedule::FaultEvent::Partition`]
    /// arms (probe runs use this to build the schedule space).
    pub partition_nodes: Vec<String>,
    /// Failpoint sites the scenario recovers from after a
    /// [`crate::schedule::FaultEvent::Restart`] crash (probe runs use this
    /// to build the schedule space).
    pub restart_sites: Vec<String>,
    /// Participants still in doubt after faults ceased, partitions healed
    /// and the scenario ran its bounded resolution rounds (`None` when the
    /// scenario does not drive termination; the eventual-resolution oracle
    /// binds only when present).
    pub in_doubt_after_resolution: Option<u32>,
    /// Heuristic outcomes participants recorded during the run (`None`
    /// when the scenario does not drive termination).
    pub heuristics: Option<u32>,
    /// Whether the history genuinely hazarded an outcome — i.e. the
    /// coordinator's decision was unknowable for long enough that a
    /// heuristic was the participant's only legal exit (`None` when the
    /// scenario does not report hazard accounting).
    pub hazarded: Option<bool>,
    /// FNV fingerprint over the recorder's retained events; compared across
    /// the determinism oracle's two runs (`None` without a recorder).
    pub recorder_fingerprint: Option<u64>,
    /// The recorder's rendered dump, attached verbatim to failure repros
    /// (`None` without a recorder; never compared by oracles).
    pub recorder_dump: Option<String>,
    /// Whether `SpanTree::critical_path` partitioned the commit span's
    /// duration exactly (`None` when the scenario computes no attribution).
    pub critical_path_exact: Option<bool>,
    /// Rendered [`telemetry::CausalViolation`]s from verifying the merged
    /// happens-before DAG (`None` when the scenario builds no causal
    /// merge; the causal-consistency oracle binds only when present —
    /// `Some(vec![])` means the merge verified clean).
    pub causal_violations: Option<Vec<String>>,
    /// Fingerprint of the merged causal DAG (events + program-order +
    /// message edges); compared across the determinism oracle's two runs
    /// (`None` without a causal merge).
    pub causal_fingerprint: Option<u64>,
    /// The merged DAG exported as Perfetto/Chrome-trace JSON, attached
    /// verbatim to failure repros (`None` without a causal merge; never
    /// compared by oracles).
    pub causal_perfetto: Option<String>,
}

impl Observation {
    /// An observation with the given outcome and no other facts.
    pub fn new(outcome: RunOutcome) -> Self {
        Observation {
            outcome,
            participant_commits: Vec::new(),
            effects: Vec::new(),
            completed_steps: Vec::new(),
            compensated_steps: Vec::new(),
            compensation_required: false,
            decision_durable: None,
            replay_outcome: None,
            replay_stable: None,
            trace: String::new(),
            observed_sites: Vec::new(),
            remote_messages: 0,
            transient_faults: None,
            hard_faults: None,
            retry_budget: None,
            span_wellformed: None,
            span_projection: None,
            span_fingerprint: None,
            durable_acked_lsn: None,
            survived_lsns: None,
            model_events: None,
            saga_completed: None,
            partition_nodes: Vec::new(),
            restart_sites: Vec::new(),
            in_doubt_after_resolution: None,
            heuristics: None,
            hazarded: None,
            recorder_fingerprint: None,
            recorder_dump: None,
            critical_path_exact: None,
            causal_violations: None,
            causal_fingerprint: None,
            causal_perfetto: None,
        }
    }

    /// Report the node's black box (oracle #11): its fingerprint and the
    /// dump a shrunk reproducer ships with.
    pub fn report_recorder(&mut self, recorder: &telemetry::FlightRecorder) {
        self.recorder_fingerprint = Some(recorder.fingerprint());
        self.recorder_dump = Some(recorder.dump());
    }

    /// Report the merged happens-before DAG (oracle #12): its violations,
    /// its fingerprint and its Perfetto export.
    pub fn report_causal(&mut self, dag: &telemetry::CausalDag) {
        self.causal_violations = Some(dag.verify().iter().map(ToString::to_string).collect());
        self.causal_fingerprint = Some(dag.fingerprint());
        self.causal_perfetto = Some(dag.to_perfetto());
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

/// Oracle names, in the order [`check_all`] evaluates them.
pub const ORACLES: &[&str] = &[
    "atomicity",
    "exactly-once",
    "compensation",
    "replay-equivalence",
    "determinism",
    "liveness-under-bounded-faults",
    "telemetry-conformance",
    "durability",
    "refinement",
    "eventual-resolution",
    "recorder-consistency",
    "causal-consistency",
];

/// Run every single-observation oracle (all but determinism).
pub fn check_all(obs: &Observation) -> Vec<Violation> {
    let mut violations = Vec::new();
    check_atomicity(obs, &mut violations);
    check_exactly_once(obs, &mut violations);
    check_compensation(obs, &mut violations);
    check_replay(obs, &mut violations);
    check_liveness(obs, &mut violations);
    check_telemetry(obs, &mut violations);
    check_durability(obs, &mut violations);
    check_refinement(obs, &mut violations);
    check_eventual_resolution(obs, &mut violations);
    check_recorder(obs, &mut violations);
    check_causal(obs, &mut violations);
    violations
}

fn check_atomicity(obs: &Observation, out: &mut Vec<Violation>) {
    match obs.outcome {
        RunOutcome::Committed => {
            for (name, committed) in &obs.participant_commits {
                if !committed {
                    out.push(Violation {
                        oracle: "atomicity",
                        detail: format!("outcome committed but participant {name:?} lost its effects"),
                    });
                }
            }
        }
        RunOutcome::Aborted => {
            for (name, committed) in &obs.participant_commits {
                if *committed {
                    out.push(Violation {
                        oracle: "atomicity",
                        detail: format!("outcome aborted but participant {name:?} kept its effects"),
                    });
                }
            }
        }
        RunOutcome::Crashed => {
            // No recovery pass ran: the only claim is uniformity.
            let committed: Vec<bool> =
                obs.participant_commits.iter().map(|(_, c)| *c).collect();
            if committed.iter().any(|c| *c) && committed.iter().any(|c| !*c) {
                out.push(Violation {
                    oracle: "atomicity",
                    detail: format!(
                        "crashed run left mixed participant states: {:?}",
                        obs.participant_commits
                    ),
                });
            }
        }
    }
}

fn check_exactly_once(obs: &Observation, out: &mut Vec<Violation>) {
    for effect in &obs.effects {
        if effect.observed < effect.min || effect.observed > effect.max {
            out.push(Violation {
                oracle: "exactly-once",
                detail: format!(
                    "action {:?} produced {} effects, contract allows {}..={}",
                    effect.action, effect.observed, effect.min, effect.max
                ),
            });
        }
    }
}

fn check_compensation(obs: &Observation, out: &mut Vec<Violation>) {
    if obs.compensation_required {
        let expected: Vec<String> = obs.completed_steps.iter().rev().cloned().collect();
        if obs.compensated_steps != expected {
            out.push(Violation {
                oracle: "compensation",
                detail: format!(
                    "completed steps {:?} require compensations {expected:?}, observed {:?}",
                    obs.completed_steps, obs.compensated_steps
                ),
            });
        }
    } else if !obs.compensated_steps.is_empty() {
        out.push(Violation {
            oracle: "compensation",
            detail: format!(
                "no compensation was required but {:?} were compensated",
                obs.compensated_steps
            ),
        });
    }
}

fn check_replay(obs: &Observation, out: &mut Vec<Violation>) {
    let Some(replayed) = obs.replay_outcome else { return };
    match obs.decision_durable {
        Some(true) if replayed != RunOutcome::Committed => out.push(Violation {
            oracle: "replay-equivalence",
            detail: format!("decision was durable but replay reached {replayed:?}"),
        }),
        Some(false) if replayed != RunOutcome::Aborted => out.push(Violation {
            oracle: "replay-equivalence",
            detail: format!("no durable decision (presumed abort) but replay reached {replayed:?}"),
        }),
        None => out.push(Violation {
            oracle: "replay-equivalence",
            detail: "replay ran but the scenario reported no durability fact".into(),
        }),
        _ => {}
    }
    if obs.outcome != replayed {
        out.push(Violation {
            oracle: "replay-equivalence",
            detail: format!(
                "final outcome {:?} disagrees with replayed outcome {replayed:?}",
                obs.outcome
            ),
        });
    }
    if obs.replay_stable == Some(false) {
        out.push(Violation {
            oracle: "replay-equivalence",
            detail: "a second replay over the same log still found in-doubt work".into(),
        });
    }
}

fn check_liveness(obs: &Observation, out: &mut Vec<Violation>) {
    // The oracle only binds when the scenario reports full fault accounting:
    // how many transient faults the schedule injected, that no hard fault
    // was armed, and what the reliability layer's retry budget was.
    let (Some(transient), Some(hard), Some(budget)) =
        (obs.transient_faults, obs.hard_faults, obs.retry_budget)
    else {
        return;
    };
    if hard > 0 || transient > budget {
        return; // outside the bounded-fault envelope: any outcome is legal
    }
    if obs.outcome != RunOutcome::Committed {
        out.push(Violation {
            oracle: "liveness-under-bounded-faults",
            detail: format!(
                "schedule injected {transient} transient fault(s) within the retry budget \
                 of {budget} and no hard faults, yet the run ended {:?} instead of Committed",
                obs.outcome
            ),
        });
    }
}

fn check_telemetry(obs: &Observation, out: &mut Vec<Violation>) {
    // The oracle binds only when the scenario records spans at all.
    if let Some(defects) = &obs.span_wellformed {
        for defect in defects {
            out.push(Violation {
                oracle: "telemetry-conformance",
                detail: format!("span tree malformed: {defect}"),
            });
        }
    }
    if let Some(projection) = &obs.span_projection {
        if *projection != obs.trace {
            out.push(Violation {
                oracle: "telemetry-conformance",
                detail: format!(
                    "span projection disagrees with the coordinator trace:\n\
                     --- projection ---\n{projection}\n--- trace ---\n{}",
                    obs.trace
                ),
            });
        }
    }
}

fn check_durability(obs: &Observation, out: &mut Vec<Violation>) {
    // The oracle binds only when the scenario reports both sides of the
    // durability contract: what the log acked and what the restart found.
    let (Some(acked), Some(survived)) = (obs.durable_acked_lsn, &obs.survived_lsns) else {
        return;
    };
    for lsn in 1..=acked {
        if !survived.contains(&lsn) {
            out.push(Violation {
                oracle: "durability",
                detail: format!(
                    "LSN {lsn} was acknowledged durable (acked up to {acked}) \
                     but did not survive the crash; survivors: {survived:?}"
                ),
            });
        }
    }
}

fn check_refinement(obs: &Observation, out: &mut Vec<Violation>) {
    // The oracle binds only to what the scenario reports: its protocol
    // steps, its saga, or both.
    if let Some(events) = &obs.model_events {
        for divergence in crate::model::replay_all(events) {
            let offending = events
                .get(divergence.event_index)
                .map_or_else(|| "<past end>".to_owned(), |e| format!("{e:?}"));
            out.push(Violation {
                oracle: "refinement",
                detail: format!("{divergence}; offending event: {offending}"),
            });
        }
    }
    if let Some(completed) = obs.saga_completed {
        let divergences =
            crate::model::saga::replay(&obs.completed_steps, &obs.compensated_steps, completed);
        for divergence in divergences {
            out.push(Violation { oracle: "refinement", detail: divergence.to_string() });
        }
    }
}

fn check_eventual_resolution(obs: &Observation, out: &mut Vec<Violation>) {
    // The oracle binds only when the scenario drives termination and
    // reports its post-heal resolution accounting.
    let Some(in_doubt) = obs.in_doubt_after_resolution else { return };
    if in_doubt > 0 {
        out.push(Violation {
            oracle: "eventual-resolution",
            detail: format!(
                "{in_doubt} participant transaction(s) remain in doubt after faults \
                 ceased and partitions healed — interrogation never terminated"
            ),
        });
    }
    if let Some(heuristics) = obs.heuristics {
        if heuristics > 0 && obs.hazarded == Some(false) {
            out.push(Violation {
                oracle: "eventual-resolution",
                detail: format!(
                    "{heuristics} heuristic outcome(s) recorded for an unhazarded \
                     history — interrogation would have answered"
                ),
            });
        }
    }
}

fn check_recorder(obs: &Observation, out: &mut Vec<Violation>) {
    if obs.critical_path_exact == Some(false) {
        out.push(Violation {
            oracle: "recorder-consistency",
            detail: "critical-path attribution does not partition the commit span's \
                     duration exactly — a phase was double-counted or dropped"
                .into(),
        });
    }
}

fn check_causal(obs: &Observation, out: &mut Vec<Violation>) {
    // The oracle binds only when the scenario merges its recorder logs
    // into a happens-before DAG and reports the verification result.
    let Some(violations) = &obs.causal_violations else { return };
    for violation in violations {
        out.push(Violation {
            oracle: "causal-consistency",
            detail: violation.clone(),
        });
    }
}

/// The determinism oracle: two runs of the same schedule must agree on
/// every observable fact, byte for byte in the trace.
pub fn check_determinism(first: &Observation, second: &Observation) -> Vec<Violation> {
    let mut out = Vec::new();
    if first.trace != second.trace {
        out.push(Violation {
            oracle: "determinism",
            detail: format!(
                "same schedule, different traces:\n--- run 1 ---\n{}\n--- run 2 ---\n{}",
                first.trace, second.trace
            ),
        });
    }
    if first.outcome != second.outcome {
        out.push(Violation {
            oracle: "determinism",
            detail: format!("same schedule, outcomes {:?} vs {:?}", first.outcome, second.outcome),
        });
    }
    if first.participant_commits != second.participant_commits {
        out.push(Violation {
            oracle: "determinism",
            detail: format!(
                "same schedule, participant states {:?} vs {:?}",
                first.participant_commits, second.participant_commits
            ),
        });
    }
    if first.effects != second.effects {
        out.push(Violation {
            oracle: "determinism",
            detail: format!(
                "same schedule, effect counts {:?} vs {:?}",
                first.effects, second.effects
            ),
        });
    }
    if let (Some(a), Some(b)) = (first.span_fingerprint, second.span_fingerprint) {
        if a != b {
            out.push(Violation {
                oracle: "determinism",
                detail: format!(
                    "same schedule, span-tree fingerprints {a:#018x} vs {b:#018x}"
                ),
            });
        }
    }
    if let (Some(a), Some(b)) = (first.recorder_fingerprint, second.recorder_fingerprint) {
        if a != b {
            out.push(Violation {
                oracle: "determinism",
                detail: format!(
                    "same schedule, flight-recorder fingerprints {a:#018x} vs {b:#018x} \
                     — the black box is not bit-identical under replay"
                ),
            });
        }
    }
    if let (Some(a), Some(b)) = (first.causal_fingerprint, second.causal_fingerprint) {
        if a != b {
            out.push(Violation {
                oracle: "determinism",
                detail: format!(
                    "same schedule, causal-merge fingerprints {a:#018x} vs {b:#018x} \
                     — the global happens-before DAG is not bit-identical under replay"
                ),
            });
        }
    }
    out
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
        obs.decision_durable = Some(true);
        obs.replay_outcome = Some(RunOutcome::Aborted);
        obs.replay_stable = Some(true);
        let v = check_all(&obs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, "replay-equivalence");
    }

    #[test]
    fn bounded_transient_faults_must_still_commit() {
        let mut obs = Observation::new(RunOutcome::Aborted);
        obs.transient_faults = Some(2);
        obs.hard_faults = Some(0);
        obs.retry_budget = Some(4);
        let v = check_all(&obs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, "liveness-under-bounded-faults");
    }

    #[test]
    fn liveness_oracle_is_silent_outside_the_envelope() {
        // Over budget: an abort is legal.
        let mut obs = Observation::new(RunOutcome::Aborted);
        obs.transient_faults = Some(9);
        obs.hard_faults = Some(0);
        obs.retry_budget = Some(4);
        assert!(check_all(&obs).is_empty());
        // A hard fault voids the liveness claim too.
        obs.transient_faults = Some(1);
        obs.hard_faults = Some(1);
        assert!(check_all(&obs).is_empty());
        // No fault accounting reported: oracle does not bind.
        let obs = Observation::new(RunOutcome::Aborted);
        assert!(check_all(&obs).is_empty());
    }

    #[test]
    fn committed_run_within_the_envelope_passes() {
        let mut obs = Observation::new(RunOutcome::Committed);
        obs.transient_faults = Some(3);
        obs.hard_faults = Some(0);
        obs.retry_budget = Some(8);
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
        obs.span_wellformed = Some(vec!["span 3 never closed".into()]);
        obs.span_projection = Some(String::new());
        let v = check_all(&obs);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "telemetry-conformance");
    }

    #[test]
    fn span_projection_must_match_the_trace_byte_for_byte() {
        let mut obs = Observation::new(RunOutcome::Committed);
        obs.trace = "get_signal(Bill)\n".into();
        obs.span_wellformed = Some(Vec::new());
        obs.span_projection = Some("get_signal(Bill)\n".into());
        assert!(check_all(&obs).is_empty());
        obs.span_projection = Some("get_signal(Bill)".into());
        let v = check_all(&obs);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "telemetry-conformance");
    }

    #[test]
    fn determinism_compares_span_fingerprints() {
        let mut a = Observation::new(RunOutcome::Committed);
        a.span_fingerprint = Some(0xDEAD);
        let mut b = a.clone();
        assert!(check_determinism(&a, &b).is_empty());
        b.span_fingerprint = Some(0xBEEF);
        let v = check_determinism(&a, &b);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "determinism");
        // One-sided telemetry does not bind.
        b.span_fingerprint = None;
        assert!(check_determinism(&a, &b).is_empty());
    }

    #[test]
    fn durability_oracle_does_not_bind_without_accounting() {
        let mut obs = Observation::new(RunOutcome::Crashed);
        assert!(check_all(&obs).is_empty());
        // One-sided reports do not bind either.
        obs.durable_acked_lsn = Some(3);
        assert!(check_all(&obs).is_empty());
    }

    #[test]
    fn acked_records_must_survive_the_crash() {
        let mut obs = Observation::new(RunOutcome::Crashed);
        obs.durable_acked_lsn = Some(3);
        obs.survived_lsns = Some(vec![1, 2]); // lost LSN 3 after acking it
        let v = check_all(&obs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, "durability");
        assert!(v[0].detail.contains("LSN 3"));
    }

    #[test]
    fn unacked_tail_may_tear() {
        let mut obs = Observation::new(RunOutcome::Crashed);
        obs.durable_acked_lsn = Some(2);
        // LSNs 3 and 4 were staged but never acked: losing them is legal,
        // and so is their (partial) survival.
        obs.survived_lsns = Some(vec![1, 2, 4]);
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

    #[test]
    fn lingering_in_doubt_participants_are_a_violation() {
        let mut obs = Observation::new(RunOutcome::Aborted);
        obs.in_doubt_after_resolution = Some(1);
        obs.heuristics = Some(0);
        obs.hazarded = Some(false);
        let v = check_all(&obs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, "eventual-resolution");
        assert!(v[0].detail.contains("remain in doubt"));
    }

    #[test]
    fn unhazarded_heuristics_are_a_violation() {
        let mut obs = Observation::new(RunOutcome::Aborted);
        obs.in_doubt_after_resolution = Some(0);
        obs.heuristics = Some(1);
        obs.hazarded = Some(false);
        let v = check_all(&obs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, "eventual-resolution");
        assert!(v[0].detail.contains("unhazarded"));
    }

    #[test]
    fn hazarded_heuristics_and_clean_resolution_pass() {
        let mut obs = Observation::new(RunOutcome::Aborted);
        obs.in_doubt_after_resolution = Some(0);
        obs.heuristics = Some(1);
        obs.hazarded = Some(true);
        assert!(check_all(&obs).is_empty());
        obs.heuristics = Some(0);
        obs.hazarded = Some(false);
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
        let mut a = Observation::new(RunOutcome::Committed);
        a.recorder_fingerprint = Some(0x1111);
        let mut b = a.clone();
        assert!(check_determinism(&a, &b).is_empty());
        b.recorder_fingerprint = Some(0x2222);
        let v = check_determinism(&a, &b);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "determinism");
        assert!(v[0].detail.contains("flight-recorder"));
        // One-sided recorders do not bind.
        b.recorder_fingerprint = None;
        assert!(check_determinism(&a, &b).is_empty());
    }

    #[test]
    fn causal_oracle_does_not_bind_without_a_merge() {
        let obs = Observation::new(RunOutcome::Committed);
        assert!(check_all(&obs).is_empty());
    }

    #[test]
    fn clean_causal_merge_passes_and_violations_surface() {
        let mut obs = Observation::new(RunOutcome::Committed);
        obs.causal_violations = Some(Vec::new());
        assert!(check_all(&obs).is_empty());
        obs.causal_violations = Some(vec![
            "outcome delivered at coord#4 before any decision was forced".into(),
        ]);
        let v = check_all(&obs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].oracle, "causal-consistency");
        assert!(v[0].detail.contains("before any decision"));
    }

    #[test]
    fn determinism_compares_causal_fingerprints() {
        let mut a = Observation::new(RunOutcome::Committed);
        a.causal_fingerprint = Some(0xAAAA);
        let mut b = a.clone();
        assert!(check_determinism(&a, &b).is_empty());
        b.causal_fingerprint = Some(0xBBBB);
        let v = check_determinism(&a, &b);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].oracle, "determinism");
        assert!(v[0].detail.contains("happens-before"));
        // One-sided merges do not bind.
        b.causal_fingerprint = None;
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
