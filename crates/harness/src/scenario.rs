//! The scenario adapter contract — the only one: the seeded sweep, the
//! exhaustive explorer and the shrinker all drive a [`Scenario`].
//!
//! A scenario wires one of the repo's figure-tests — 2PC, fig. 9 open
//! nesting, Sagas, the fig. 10 workflow, BTP atoms — into a closed, seeded
//! end-to-end run: build every component fresh, apply the
//! [`FaultSchedule`] (its faults, and — where a component takes a
//! [`orb::DeliverySequencer`] — a [`crate::ChoiceDriver`] replaying its
//! delivery choices), drive the protocol to a terminal state (recovering
//! from injected crashes where a recovery path exists), and report the
//! facts the oracles need.

use crate::oracle::Observation;
use crate::schedule::FaultSchedule;

/// One end-to-end protocol workload under fault injection.
///
/// Implementations must be *hermetic*: every run constructs all state from
/// scratch with fixed seeds, so the same schedule always produces the same
/// [`Observation`] (the determinism oracle enforces this).
pub trait Scenario {
    /// Stable scenario name (appears in sweep reports and repro output).
    fn name(&self) -> &'static str;

    /// Execute one run under `schedule` and report what happened.
    fn run(&self, schedule: &FaultSchedule) -> Observation;
}
