//! `Env`: the one immutable context every cross-cutting plane travels in
//! (DESIGN.md §17).
//!
//! The virtual clock, crash-injection failpoints, the participant failure
//! detector, telemetry, the node's flight recorder, the causal plane and
//! the delivery sequencer used to be attached per component, each through
//! its own lock-guarded slot and its own hook. They are now fields of one
//! `Env`, built once and handed — as an `Arc` — to exactly four
//! constructors: [`crate::OrbBuilder::env`], `TransactionFactory::with_env`,
//! `ActivityServiceBuilder::env` and `WorkflowEngine::with_env`. Everything
//! those create (transaction coordinators, subtransactions, activities,
//! child activities, activity coordinators) inherits the context by cloning
//! that `Arc`; reading a plane on a protocol path is a field access.
//!
//! A plane that is not given is absent (`None`), which costs nothing; the
//! only thing a default `Env` owns is a fresh clock.

use std::fmt::{self, Display};
use std::sync::Arc;

use recovery_log::{FailpointSet, LogError};
use telemetry::{CausalityPlane, FlightRecorder, Journal, RecordKind, Telemetry};

use crate::choice::DeliverySequencer;
use crate::clock::SimClock;
use crate::detector::FailureDetector;

/// The shared context. Immutable once built; share it with `Arc::clone`.
#[derive(Default)]
pub struct Env {
    clock: SimClock,
    failpoints: Option<FailpointSet>,
    detector: Option<FailureDetector>,
    telemetry: Option<Telemetry>,
    recorder: Option<FlightRecorder>,
    causality: Option<CausalityPlane>,
    sequencer: Option<Arc<dyn DeliverySequencer>>,
}

impl fmt::Debug for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Env")
            .field("clock", &self.clock)
            .field("failpoints", &self.failpoints.is_some())
            .field("detector", &self.detector.is_some())
            .field("telemetry", &self.telemetry.is_some())
            .field("recorder", &self.recorder.is_some())
            .field("causality", &self.causality.is_some())
            .field("sequencer", &self.sequencer.is_some())
            .finish()
    }
}

/// Collects the planes and cross-wires them once, in [`EnvBuilder::build`].
#[derive(Default)]
pub struct EnvBuilder {
    env: Env,
}

impl EnvBuilder {
    /// Share an existing virtual clock instead of a fresh one.
    #[must_use]
    pub fn clock(mut self, clock: SimClock) -> Self {
        self.env.clock = clock;
        self
    }

    /// Crash-injection failpoints: every protocol loop under this context
    /// passes its named sites through the set.
    #[must_use]
    pub fn failpoints(mut self, failpoints: FailpointSet) -> Self {
        self.env.failpoints = Some(failpoints);
        self
    }

    /// The participant failure detector. The ORB feeds it per policy-driven
    /// attempt (by node), the OTS coordinator per vote and the activity
    /// coordinator per collated outcome (by participant name), the workflow
    /// engine per task; all of them consult it before soliciting.
    #[must_use]
    pub fn detector(mut self, detector: FailureDetector) -> Self {
        self.env.detector = Some(detector);
        self
    }

    /// Spans and metrics. Build it on the same clock
    /// (`Telemetry::with_time(Arc::new(clock.clone()))`) for deterministic
    /// timestamps.
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.env.telemetry = Some(telemetry);
        self
    }

    /// The node's flight recorder: typed protocol events, span open/close,
    /// failpoint passages and detector transitions all mirror into it.
    #[must_use]
    pub fn recorder(mut self, recorder: FlightRecorder) -> Self {
        self.env.recorder = Some(recorder);
        self
    }

    /// The cross-node causal plane (Lamport stamps on every request and
    /// reply of an ORB built with this context).
    #[must_use]
    pub fn causality(mut self, plane: CausalityPlane) -> Self {
        self.env.causality = Some(plane);
        self
    }

    /// Who picks the next delivery of a serial 2PC round (model checking).
    #[must_use]
    pub fn sequencer(mut self, sequencer: Arc<dyn DeliverySequencer>) -> Self {
        self.env.sequencer = Some(sequencer);
        self
    }

    /// Wire the planes to each other and freeze the context: the recorder
    /// is attached to telemetry, failpoints and detector and registered
    /// with the causal plane; telemetry's metrics count detector
    /// transitions. This is the only place those attachments happen, so no
    /// call order can leave one out.
    pub fn build(self) -> Arc<Env> {
        let env = self.env;
        if let Some(recorder) = &env.recorder {
            if let Some(telemetry) = &env.telemetry {
                telemetry.attach_recorder(recorder.clone());
            }
            if let Some(failpoints) = &env.failpoints {
                failpoints.set_recorder(recorder.clone());
            }
            if let Some(detector) = &env.detector {
                detector.set_recorder(recorder.clone());
            }
            if let Some(plane) = &env.causality {
                plane.register(recorder);
            }
        }
        if let (Some(detector), Some(telemetry)) = (&env.detector, &env.telemetry) {
            detector.set_telemetry(telemetry.clone());
        }
        Arc::new(env)
    }
}

impl Env {
    /// Start collecting planes.
    pub fn builder() -> EnvBuilder {
        EnvBuilder::default()
    }

    /// A context with a fresh clock and no planes.
    pub fn new() -> Arc<Env> {
        Arc::default()
    }

    /// A plane-less context on an existing clock.
    pub fn with_clock(clock: SimClock) -> Arc<Env> {
        Arc::new(Env { clock, ..Env::default() })
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Pass the named failpoint site (a no-op without a failpoint set).
    ///
    /// # Errors
    ///
    /// [`LogError::CrashInjected`] when the site's armed count is reached.
    pub fn hit(&self, site: &str) -> Result<(), LogError> {
        self.failpoints.as_ref().map_or(Ok(()), |failpoints| failpoints.hit(site))
    }

    /// The failure detector, if one was given.
    pub fn detector(&self) -> Option<&FailureDetector> {
        self.detector.as_ref()
    }

    /// Telemetry as given (its gate may be closed).
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Telemetry only while its gate is open: what instrumentation sites
    /// branch on, so an absent or disabled recorder costs one load.
    pub fn live_telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref().filter(|telemetry| telemetry.is_enabled())
    }

    /// The flight recorder, if one was given.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// The causal plane, if one was given.
    pub fn causality(&self) -> Option<&CausalityPlane> {
        self.causality.as_ref()
    }

    /// The delivery sequencer, if one was given.
    pub fn sequencer(&self) -> Option<&Arc<dyn DeliverySequencer>> {
        self.sequencer.as_ref()
    }

    /// Emit one typed protocol event from its source: mirror it into the
    /// flight recorder under `kind` (rendered with `Display`), then append
    /// it to the caller's typed `sink`. The event is only built when one of
    /// the two will take it.
    pub fn emit<E: Clone + Display>(
        &self,
        kind: RecordKind,
        sink: Option<&Journal<E>>,
        event: impl FnOnce() -> E,
    ) {
        let recorder = self.recorder.as_ref().filter(|recorder| recorder.is_enabled());
        if sink.is_none() && recorder.is_none() {
            return;
        }
        let event = event();
        if let Some(recorder) = recorder {
            recorder.record(kind, || event.to_string());
        }
        if let Some(sink) = sink {
            sink.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_mirrors_before_it_appends_and_skips_unwanted_events() {
        let sink: Journal<String> = Journal::new();
        // No recorder, no sink: the event is never built.
        Env::new().emit(RecordKind::Trace, None::<&Journal<String>>, || unreachable!());

        let recorder = FlightRecorder::new("n", 8);
        let env = Env::builder().recorder(recorder.clone()).build();
        env.emit(RecordKind::Protocol, Some(&sink), || "decided".to_owned());
        env.emit(RecordKind::Protocol, None::<&Journal<String>>, || "unsunk".to_owned());
        assert_eq!(sink.events(), vec!["decided"]);
        assert_eq!(recorder.details_of_kind(RecordKind::Protocol), vec!["decided", "unsunk"]);
    }
}
