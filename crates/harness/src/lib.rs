//! Deterministic simulation harness for the CORBA Activity Service
//! reproduction — a FoundationDB-style chaos explorer over the repo's
//! extended-transaction workloads.
//!
//! The paper's §3.4 makes hard guarantees — at-least-once Signal delivery,
//! exactly-once via the transaction service, presumed-abort recovery,
//! compensation on failure. This crate *hunts* for executions that break
//! them:
//!
//! * [`schedule`] — what one run is subjected to: a
//!   [`schedule::FaultSchedule`] is a small, discrete list of faults — arm
//!   a named failpoint ([`recovery_log::FailpointSet`]), drop or duplicate
//!   the n-th remote message ([`orb::FaultScript`]), partition a node over
//!   a virtual-time window, or crash-and-restart a site through its
//!   recovery path — plus the delivery choices a sequenced component
//!   replays. Seeds map deterministically to the faults; the explorer
//!   enumerates the choices. Discrete steps (not fault *rates*) make every
//!   run replayable and every schedule shrinkable.
//! * [`scenario`] + [`scenarios`] — the one contract,
//!   [`Scenario::run`]`(&FaultSchedule) -> Observation`, and its hermetic
//!   end-to-end adapters, one per figure-test: 2PC with WAL replay, fig. 9
//!   open nesting, Sagas, the fig. 10 workflow over the simulated ORB, BTP
//!   atoms, termination under partitions, plus the planted fixtures the
//!   sweep and the explorer must catch. Sampled or enumerated, a scenario
//!   is the same trait object.
//! * [`oracle`] — an [`Observation`] that reports by oracle (a section is
//!   `Some` exactly when its oracle binds) and the twelve invariants
//!   checked after every run: atomicity,
//!   exactly-once effect counts, reverse-order compensation completeness,
//!   WAL-replay equivalence, trace determinism (same seed ⇒ byte-identical
//!   trace), liveness under bounded transient faults (drops within the
//!   retry budget must not prevent commit), telemetry conformance (the
//!   span tree is well-formed and its projection onto coordinator events is
//!   byte-identical to the trace), durability (acked LSNs survive crashes),
//!   refinement (the protocol steps the run emitted replay cleanly through
//!   the executable reference models), and eventual resolution (once
//!   faults cease and partitions heal no participant stays in-doubt, and
//!   heuristics are recorded only for genuinely hazarded histories), and
//!   recorder consistency (the flight recorder's fingerprint replays
//!   bit-identically, and critical-path attribution partitions the
//!   commit span exactly), and causal consistency (the merged
//!   happens-before DAG over every node's Lamport-stamped log is acyclic,
//!   receive-after-send on every wire edge, and protocol-ordered — no
//!   outcome before its decision, no vote after it, no completion before
//!   phase two landed).
//! * [`model`] — executable reference models transcribed from the paper:
//!   presumed-abort 2PC, fig. 4 nesting, fig. 5 checked signal sets, §5.1
//!   saga compensation. Pure `step(state, event)` machines that consume
//!   the recorded `(origin, step)` stream as it is — one machine per
//!   transaction, per (activity, set), per activity tree.
//! * [`mod@sweep`] — the sweep loop: probe the schedule space (failpoint
//!   sites are *discovered* from the run, not hardcoded), generate seeded
//!   schedules, run each twice, oracle-check, and greedily shrink any
//!   violation to a 1-minimal reproducer printed as a copy-pasteable test.
//!   Its check (two runs, every oracle), its shrinker ([`shrink`]) and its
//!   [`FailureReport`] are the only ones: the explorer uses them too.
//! * [`enumerate`] — the exhaustive counterpart over the same scenarios:
//!   enumerate *every* delivery interleaving × single-crash (stay-dead or
//!   crash-and-recover) fault plan up to a bounded depth, with dynamic
//!   partial-order reduction pruning commuting subtrees; a divergence is
//!   the sweep's failure report.
//! * [`registry`] — the workspace failpoint-site audit: probe runs must
//!   observe exactly the sites each crate's `failpoints` constants
//!   declare.

pub mod enumerate;
pub mod model;
pub mod oracle;
pub mod registry;
pub mod scenario;
pub mod scenarios;
pub mod schedule;
pub mod sweep;

pub use enumerate::{explore, ChoiceDriver, ChoicePoint, ExploreConfig, ExploreReport};
pub use sweep::{shrink, sweep, FailureReport, SweepConfig, SweepReport};
pub use model::{replay_all, SpecViolation};
pub use oracle::{check_all, check_determinism, EffectCount, Observation, RunOutcome, Violation};
pub use scenario::Scenario;
pub use schedule::{generate, FaultEvent, FaultSchedule, ScheduleSpace};
