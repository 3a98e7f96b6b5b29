//! `Env`: the one immutable context every cross-cutting plane travels in
//! (DESIGN.md §17).
//!
//! The virtual clock, crash-injection failpoints, the participant failure
//! detector, telemetry, the node's flight recorder, the causal plane and
//! the delivery sequencer used to be attached per component, each through
//! its own lock-guarded slot and its own hook. They are now fields of one
//! `Env`, written as a struct literal, frozen by [`Env::wired`] and handed
//! — as an `Arc` — to exactly four constructors: [`crate::OrbBuilder::env`],
//! `TransactionFactory::with_env`, `ActivityServiceBuilder::env` and
//! `WorkflowEngine::with_env`. Everything those create (transaction
//! coordinators, subtransactions, activities, child activities, activity
//! coordinators) inherits the context by cloning that `Arc`; reading a
//! plane on a protocol path is a field access.
//!
//! A plane that is not given is absent (`None`), which costs nothing; the
//! only thing a default `Env` owns is a fresh clock. What each plane does
//! to the protocols is described once, on the fields below.

use std::fmt::{self, Display};
use std::sync::Arc;

use recovery_log::{FailpointSet, LogError};
use telemetry::{CausalityPlane, FlightRecorder, Origin, ProtocolEvent, SpanContext, Telemetry};

use crate::choice::DeliverySequencer;
use crate::clock::SimClock;
use crate::detector::FailureDetector;

/// The shared context: `Env { telemetry: Some(t), ..Env::default() }.wired()`.
#[derive(Default)]
pub struct Env {
    /// The virtual clock: drives the ORB's network, times transaction and
    /// activity deadlines and per-vote latencies.
    pub clock: SimClock,
    /// Crash injection: every protocol loop passes its named sites
    /// (`ots::failpoints`, `activity_service::failpoints`) through
    /// [`Env::hit`], so crash-matrix and simulation tests can kill a
    /// coordinator at any step.
    pub failpoints: Option<FailpointSet>,
    /// The participant failure detector, fed and consulted at every layer.
    /// The ORB reports each policy-driven attempt (by node). The OTS
    /// coordinator feeds it per vote (by participant name) and consults it
    /// before phase one: quarantined read-only participants are dropped,
    /// and a quarantined *voter* forces early presumed abort instead of
    /// burning the vote timeout on a suspect peer. The activity coordinator
    /// feeds it per collated outcome (`"error"` is a failure) and skips
    /// quarantined actions for the current signal — they re-enter via
    /// half-open probes — so a crashed Action cannot stall every later
    /// signal. The workflow engine, keyed by task name, fails a quarantined
    /// ready task at once instead of burning its retry budget on a dead
    /// participant, so `CompensateAndStop` compensates the completed prefix
    /// right away and `ContinuePossible` reroutes around it (Any-joins fall
    /// through to healthy alternatives); executed results feed it back. A
    /// detector keeps the first recorder and telemetry it is wired to, so
    /// give each `Env` its own.
    pub detector: Option<FailureDetector>,
    /// Spans and metrics (build it on the same clock,
    /// `Telemetry::with_time(Arc::new(clock.clone()))`, for deterministic
    /// timestamps). The ORB registers the span interceptor pair and meters
    /// the network; a commit becomes a `commit:` span with `prepare` /
    /// `vote:` / `phase2` children, `twopc_vote_latency_seconds` and
    /// `twopc_commits_total` / `twopc_aborts_total`; a protocol run becomes
    /// a `signal_set:` span with one `transmit:` child per delivery, each
    /// fig. 5 step doubling as a span event with the step's exact text
    /// (what lets oracle #7 pin the span tree to the recorded trace);
    /// `begin`/`complete` pairs become nested `activity:`
    /// spans; a workflow run a `workflow:` span with one `task:` child per
    /// finished task (tagged with attempts and outcome) and one
    /// `compensate:` child per compensation.
    pub telemetry: Option<Telemetry>,
    /// The node's flight recorder, which is also the protocols' one
    /// journal: every step [`Env::emit`] is given is kept in it, typed and
    /// with its origin, next to span open/close, failpoint passages and
    /// detector transitions. Give it a capacity that never evicts
    /// (`usize::MAX`) to read back a whole run.
    pub recorder: Option<FlightRecorder>,
    /// The cross-node causal plane: an ORB built under this context stamps
    /// every request and reply with Lamport clocks and records
    /// `wire-send`/`wire-recv` in the recorders registered with the plane.
    pub causality: Option<CausalityPlane>,
    /// Who picks which delivery of a 2PC round (prepare, phase two,
    /// rollback) is taken next, so a model-checking explorer owns delivery
    /// order; without one, registration order rules. At width 1 taking a
    /// delivery *is* making it; under scattered dispatch every participant
    /// has already been asked and the pick only orders collation (journal,
    /// detector and `report` calls), so explorers pin
    /// `DispatchConfig::serial`.
    pub sequencer: Option<Arc<dyn DeliverySequencer>>,
}

impl fmt::Debug for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Env").field("clock", &self.clock).finish_non_exhaustive()
    }
}

/// A plane-less context on `clock`: what `Activity::new_root(name, clock)`
/// converts its argument with.
impl From<SimClock> for Arc<Env> {
    fn from(clock: SimClock) -> Self {
        Env::with_clock(clock)
    }
}

impl Env {
    /// A context with a fresh clock and no planes.
    pub fn new() -> Arc<Env> {
        Arc::default()
    }

    /// A plane-less context on an existing clock.
    pub fn with_clock(clock: SimClock) -> Arc<Env> {
        // Spelled out because `..Env::default()` would allocate, and drop,
        // a second clock: bare root activities come through here per op.
        Arc::new(Env {
            clock,
            failpoints: None,
            detector: None,
            telemetry: None,
            recorder: None,
            causality: None,
            sequencer: None,
        })
    }

    /// Wire the planes to each other and freeze the context: the recorder
    /// is attached to telemetry, failpoints and detector and registered
    /// with the causal plane; telemetry's metrics count detector
    /// transitions. This is the only place those attachments happen, so no
    /// call order can leave one out.
    pub fn wired(self) -> Arc<Env> {
        if let Some(recorder) = &self.recorder {
            if let Some(telemetry) = &self.telemetry {
                telemetry.attach_recorder(recorder.clone());
            }
            if let Some(failpoints) = &self.failpoints {
                failpoints.set_recorder(recorder.clone());
            }
            if let Some(detector) = &self.detector {
                detector.set_recorder(recorder.clone());
            }
            if let Some(plane) = &self.causality {
                plane.register(recorder);
            }
        }
        if let (Some(detector), Some(telemetry)) = (&self.detector, &self.telemetry) {
            detector.set_telemetry(telemetry.clone());
        }
        Arc::new(self)
    }

    /// Pass the named failpoint site (a no-op without a failpoint set).
    ///
    /// # Errors
    ///
    /// [`LogError::CrashInjected`] when the site's armed count is reached.
    pub fn hit(&self, site: &str) -> Result<(), LogError> {
        self.failpoints.as_ref().map_or(Ok(()), |failpoints| failpoints.hit(site))
    }

    /// Telemetry only while its gate is open: what instrumentation sites
    /// branch on, so an absent or disabled recorder costs one load.
    pub fn live_telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref().filter(|telemetry| telemetry.is_enabled())
    }

    /// Open a span named `name()` under the calling thread's ambient span
    /// and make it the ambient one until the returned guard drops. With
    /// telemetry absent or gated off the guard is inert: `name` is never
    /// called and nothing allocates.
    pub fn span(&self, name: impl FnOnce() -> String) -> SpanGuard<'_> {
        let live = self.live_telemetry().map(|telemetry| {
            let span = telemetry.start_span(&name());
            telemetry.enter(span);
            (telemetry, span)
        });
        SpanGuard { live, entered: true }
    }

    /// Emit one protocol step from its source, with whose it is: the only
    /// way a step is written down. It goes, typed, into the flight recorder
    /// (its kind label follows from the variant); with no recorder, or a
    /// gated-off one, `step` is never called and nothing is built.
    pub fn emit(&self, step: impl FnOnce() -> (Origin, ProtocolEvent)) {
        if let Some(recorder) = &self.recorder {
            recorder.record_step(step);
        }
    }
}

/// One open span ([`Env::span`], [`SpanGuard::child`]), closed when the
/// guard drops — on every path out of its scope, early `?` returns and
/// unwinding included, so no protocol step can leak a span open or leave
/// it on the thread's ambient stack (oracle #7 rejects both). An inert
/// guard (no live telemetry) ignores every call.
pub struct SpanGuard<'a> {
    live: Option<(&'a Telemetry, SpanContext)>,
    /// Whether the span sits on the ambient stack and must be popped.
    entered: bool,
}

impl<'a> SpanGuard<'a> {
    /// Open a span under this one **without** making it ambient: spans
    /// opened by the work it brackets (a participant's `attempt:`s, say)
    /// keep parenting under the enclosing scope.
    pub fn child(&self, name: impl FnOnce() -> String) -> SpanGuard<'a> {
        let live =
            self.live.map(|(telemetry, parent)| (telemetry, telemetry.start_child(&parent, &name())));
        SpanGuard { live, entered: false }
    }

    /// Attach an attribute; `value` is only rendered on a live span.
    pub fn attr(&self, key: &str, value: impl Display) {
        if let Some((telemetry, span)) = &self.live {
            telemetry.set_attr(span, key, &value.to_string());
        }
    }

    /// Attach a point event.
    pub fn event(&self, text: &str) {
        if let Some((telemetry, span)) = &self.live {
            telemetry.event(span, text);
        }
    }

    /// The telemetry this span records into (for the metrics that go with
    /// it); `None` on an inert guard.
    pub fn telemetry(&self) -> Option<&'a Telemetry> {
        self.live.map(|(telemetry, _)| telemetry)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((telemetry, span)) = &self.live {
            if std::thread::panicking() {
                telemetry.set_attr(span, "error", "panicked");
            }
            if self.entered {
                telemetry.exit();
            }
            telemetry.end(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_keeps_the_typed_step_and_builds_nothing_unheard() {
        // No recorder, or one gated off: the step is never built.
        Env::new().emit(|| unreachable!());
        let recorder = FlightRecorder::disabled("n", 8);
        let env = Env { recorder: Some(recorder.clone()), ..Env::default() }.wired();
        env.emit(|| unreachable!());

        recorder.set_enabled(true);
        let origin = Origin::Transaction { top: 1, branch: vec![0] };
        let decided = ProtocolEvent::DecisionForced { commit: true };
        env.emit(|| (origin.clone(), decided.clone()));
        assert_eq!(recorder.steps(), vec![(origin, decided)]);
        assert_eq!(
            recorder.events()[0].render(),
            "#0    @         0us L1     protocol decision_forced(commit=true)"
        );
    }

    #[test]
    fn span_guards_close_on_every_path_and_are_inert_without_telemetry() {
        // Absent or gated off: the name is never built.
        Env::new().span(|| unreachable!()).child(|| unreachable!()).attr("k", "v");
        let gated = Telemetry::disabled();
        let env = Env { telemetry: Some(gated.clone()), ..Env::default() }.wired();
        env.span(|| unreachable!()).attr("k", "v");
        assert_eq!(gated.span_count(), 0);

        let tel = Telemetry::new();
        let env = Env { telemetry: Some(tel.clone()), ..Env::default() }.wired();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let scope = env.span(|| "scope".into());
            let _step = scope.child(|| "step".into());
            // A child is not ambient; the scope is.
            assert_eq!(tel.current().map(|c| c.span_id), scope.live.map(|(_, c)| c.span_id));
            panic!("mid-scope");
        }));
        assert!(unwound.is_err());
        assert!(tel.current().is_none(), "the unwinding guard popped the ambient stack");
        let tree = tel.span_tree();
        assert_eq!(tree.verify(), Vec::<String>::new(), "both spans closed");
        assert_eq!(tree.roots()[0].attr("error"), Some("panicked"));
        assert_eq!(tree.children(tree.roots()[0].context.span_id)[0].name, "step");
    }
}
