//! Coordinated Atomic actions (CA actions) — Xu, Romanovsky & Randell,
//! reference \[13\] of the paper.
//!
//! §3.2.3: "a coordinator for a CA action model may be required to send a
//! Signal informing participants to perform **exception resolution**."
//! In the CA-action model, participants execute concurrently inside one
//! action; when one or more raise exceptions, the *set* of concurrently
//! raised exceptions is resolved — through an application-supplied
//! exception hierarchy — to a single covering exception, which every
//! participant then handles cooperatively. Only if handling fails does the
//! action abort.
//!
//! The mapping onto the framework: a shared [`RaisedExceptions`] board, an
//! [`ExceptionHierarchy`] for resolution, and a [`CaActionSignalSet`] that
//! emits `normal` when nothing was raised, `handle_exception` (carrying the
//! resolved exception) otherwise, and `abort` when cooperative handling
//! itself fails.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use activity_service::signal_set::{AfterResponse, NextSignal, SignalSet};
use activity_service::{CompletionStatus, Outcome, Signal};
use orb::Value;
use parking_lot::Mutex;

/// Conventional name of the CA-action signal set.
pub const CA_ACTION_SET: &str = "CaActionSignalSet";

/// Signal name: the action completed with no exceptions.
pub const SIG_NORMAL: &str = "normal";
/// Signal name: cooperative exception handling; payload carries the
/// resolved exception name.
pub const SIG_HANDLE_EXCEPTION: &str = "handle_exception";
/// Signal name: handling failed; undo everything.
pub const SIG_ABORT: &str = "abort";

/// An application-supplied exception hierarchy (a tree rooted at a
/// universal exception), used to resolve concurrently raised exceptions to
/// their least common ancestor.
#[derive(Debug, Clone)]
pub struct ExceptionHierarchy {
    root: String,
    parents: HashMap<String, String>,
}

impl ExceptionHierarchy {
    /// A hierarchy containing only the universal root exception.
    pub fn new(root: impl Into<String>) -> Self {
        ExceptionHierarchy { root: root.into(), parents: HashMap::new() }
    }

    /// Declare `child` as a specialisation of `parent`. Unknown parents are
    /// attached beneath the root implicitly.
    #[must_use]
    pub fn with(mut self, child: impl Into<String>, parent: impl Into<String>) -> Self {
        self.parents.insert(child.into(), parent.into());
        self
    }

    /// The universal root exception.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// The chain from `exception` up to (and including) the root.
    fn ancestry(&self, exception: &str) -> Vec<String> {
        let mut chain = vec![exception.to_owned()];
        let mut cursor = exception.to_owned();
        // Bounded walk: a malformed (cyclic) hierarchy cannot loop forever.
        for _ in 0..self.parents.len() + 1 {
            match self.parents.get(&cursor) {
                Some(parent) => {
                    chain.push(parent.clone());
                    cursor = parent.clone();
                }
                None => break,
            }
        }
        if chain.last().map(String::as_str) != Some(self.root.as_str()) {
            chain.push(self.root.clone());
        }
        chain
    }

    /// Resolve a set of concurrently raised exceptions to the deepest
    /// exception that covers them all (their least common ancestor);
    /// resolves to the root when nothing more specific covers the set.
    pub fn resolve<'a>(&self, exceptions: impl IntoIterator<Item = &'a str>) -> String {
        let mut iter = exceptions.into_iter();
        let Some(first) = iter.next() else {
            return self.root.clone();
        };
        let mut common = self.ancestry(first);
        for exception in iter {
            let chain = self.ancestry(exception);
            // Keep the suffix of `common` that also appears in `chain`,
            // preserving depth order (deepest first).
            common.retain(|c| chain.contains(c));
            if common.is_empty() {
                return self.root.clone();
            }
        }
        common.first().cloned().unwrap_or_else(|| self.root.clone())
    }
}

/// The shared board on which participants raise exceptions during the
/// action's execution phase.
#[derive(Debug, Clone, Default)]
pub struct RaisedExceptions {
    raised: Arc<Mutex<Vec<String>>>,
}

impl RaisedExceptions {
    /// An empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// A participant raises `exception`.
    pub fn raise(&self, exception: impl Into<String>) {
        self.raised.lock().push(exception.into());
    }

    /// All raised exceptions, in raise order.
    pub fn snapshot(&self) -> Vec<String> {
        self.raised.lock().clone()
    }

    /// Whether anything was raised.
    pub fn any(&self) -> bool {
        !self.raised.lock().is_empty()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CaPhase {
    Start,
    Handling,
    Aborting,
    Finished,
}

/// The CA-action completion protocol.
///
/// * no raised exceptions → one `normal` signal; outcome `done`;
/// * raised exceptions → resolve, one `handle_exception` signal to every
///   participant; if all handle it → outcome `handled` (carrying the
///   resolved exception); if any handler fails → one `abort` signal to
///   every participant → outcome `abort`.
#[derive(Debug)]
pub struct CaActionSignalSet {
    raised: RaisedExceptions,
    hierarchy: Arc<ExceptionHierarchy>,
    phase: CaPhase,
    resolved: Option<String>,
    handler_failures: usize,
    completion: CompletionStatus,
}

impl CaActionSignalSet {
    /// A set reading the shared board and resolving through `hierarchy`.
    pub fn new(raised: RaisedExceptions, hierarchy: Arc<ExceptionHierarchy>) -> Self {
        CaActionSignalSet {
            raised,
            hierarchy,
            phase: CaPhase::Start,
            resolved: None,
            handler_failures: 0,
            completion: CompletionStatus::Success,
        }
    }
}

impl SignalSet for CaActionSignalSet {
    fn signal_set_name(&self) -> &str {
        CA_ACTION_SET
    }

    fn shared_signal_set_name(&self) -> Cow<'static, str> {
        Cow::Borrowed(CA_ACTION_SET)
    }

    fn get_signal(&mut self) -> NextSignal {
        match self.phase {
            CaPhase::Start => {
                let raised = self.raised.snapshot();
                if raised.is_empty() && !self.completion.is_failure() {
                    self.phase = CaPhase::Finished;
                    NextSignal::LastSignal(Signal::new(SIG_NORMAL, CA_ACTION_SET))
                } else {
                    // A failure completion with no explicit exception
                    // resolves to the root exception.
                    let resolved = self
                        .hierarchy
                        .resolve(raised.iter().map(String::as_str));
                    self.resolved = Some(resolved.clone());
                    self.phase = CaPhase::Handling;
                    NextSignal::Signal(
                        Signal::new(SIG_HANDLE_EXCEPTION, CA_ACTION_SET)
                            .with_data(Value::from(resolved)),
                    )
                }
            }
            CaPhase::Handling => {
                self.phase = if self.handler_failures > 0 {
                    CaPhase::Aborting
                } else {
                    CaPhase::Finished
                };
                if self.handler_failures > 0 {
                    NextSignal::LastSignal(Signal::new(SIG_ABORT, CA_ACTION_SET))
                } else {
                    NextSignal::End
                }
            }
            CaPhase::Aborting | CaPhase::Finished => NextSignal::End,
        }
    }

    fn set_response(&mut self, response: &Outcome) -> AfterResponse {
        if self.phase == CaPhase::Handling && response.is_negative() {
            self.handler_failures += 1;
        }
        AfterResponse::Continue
    }

    fn get_outcome(&mut self) -> Outcome {
        match (&self.resolved, self.handler_failures) {
            (None, _) => Outcome::done(),
            (Some(resolved), 0) => {
                Outcome::new("handled").with_data(Value::from(resolved.as_str()))
            }
            (Some(resolved), _) => Outcome::abort().with_data(Value::from(resolved.as_str())),
        }
    }

    fn set_completion_status(&mut self, status: CompletionStatus) {
        self.completion = status;
    }

    fn completion_status(&self) -> CompletionStatus {
        self.completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use activity_service::{Activity, FnAction};
    use orb::SimClock;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn hierarchy() -> Arc<ExceptionHierarchy> {
        // Exception
        // └── HardwareFault
        //     ├── SensorFault
        //     │   ├── TempSensorFault
        //     │   └── PressureSensorFault
        //     └── ActuatorFault
        Arc::new(
            ExceptionHierarchy::new("Exception")
                .with("HardwareFault", "Exception")
                .with("SensorFault", "HardwareFault")
                .with("ActuatorFault", "HardwareFault")
                .with("TempSensorFault", "SensorFault")
                .with("PressureSensorFault", "SensorFault"),
        )
    }

    #[test]
    fn resolution_finds_least_common_ancestor() {
        let h = hierarchy();
        assert_eq!(h.resolve(["TempSensorFault"]), "TempSensorFault");
        assert_eq!(
            h.resolve(["TempSensorFault", "PressureSensorFault"]),
            "SensorFault"
        );
        assert_eq!(h.resolve(["TempSensorFault", "ActuatorFault"]), "HardwareFault");
        assert_eq!(h.resolve(["TempSensorFault", "unknown-thing"]), "Exception");
        assert_eq!(h.resolve([]), "Exception");
        assert_eq!(
            h.resolve(["SensorFault", "TempSensorFault"]),
            "SensorFault",
            "an ancestor among the raised set covers its descendants"
        );
    }

    fn ca_activity(
        raised: &RaisedExceptions,
    ) -> (Activity, Arc<AtomicU32>, Arc<Mutex<Vec<String>>>) {
        let activity = Activity::new_root("ca-action", SimClock::new());
        activity
            .coordinator()
            .add_signal_set(Box::new(CaActionSignalSet::new(raised.clone(), hierarchy())))
            .unwrap();
        activity.set_completion_signal_set(CA_ACTION_SET);
        let normals = Arc::new(AtomicU32::new(0));
        let handled: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let normals2 = Arc::clone(&normals);
            let handled2 = Arc::clone(&handled);
            activity.coordinator().register_action(
                CA_ACTION_SET,
                Arc::new(FnAction::new(format!("p{i}"), move |s: &Signal| {
                    match s.name() {
                        SIG_NORMAL => {
                            normals2.fetch_add(1, Ordering::SeqCst);
                            Ok(Outcome::done())
                        }
                        SIG_HANDLE_EXCEPTION => {
                            handled2.lock().push(s.data().as_str().unwrap_or("?").to_owned());
                            Ok(Outcome::done())
                        }
                        SIG_ABORT => Ok(Outcome::done()),
                        other => panic!("unexpected {other}"),
                    }
                })) as _,
            );
        }
        (activity, normals, handled)
    }

    #[test]
    fn normal_completion_sends_normal() {
        let raised = RaisedExceptions::new();
        let (activity, normals, handled) = ca_activity(&raised);
        let outcome = activity.complete().unwrap();
        assert!(outcome.is_done());
        assert_eq!(normals.load(Ordering::SeqCst), 3);
        assert!(handled.lock().is_empty());
    }

    #[test]
    fn concurrent_exceptions_are_resolved_and_handled_by_everyone() {
        let raised = RaisedExceptions::new();
        // Two participants raise concurrently during the action.
        raised.raise("TempSensorFault");
        raised.raise("PressureSensorFault");
        let (activity, normals, handled) = ca_activity(&raised);
        let outcome = activity.complete().unwrap();
        assert_eq!(outcome.name(), "handled");
        assert_eq!(outcome.data().as_str(), Some("SensorFault"));
        assert_eq!(normals.load(Ordering::SeqCst), 0);
        assert_eq!(
            *handled.lock(),
            vec!["SensorFault"; 3],
            "every participant handles the RESOLVED exception"
        );
    }

    #[test]
    fn handler_failure_aborts_the_action() {
        let raised = RaisedExceptions::new();
        raised.raise("ActuatorFault");
        let activity = Activity::new_root("ca-action", SimClock::new());
        activity
            .coordinator()
            .add_signal_set(Box::new(CaActionSignalSet::new(raised.clone(), hierarchy())))
            .unwrap();
        activity.set_completion_signal_set(CA_ACTION_SET);
        let abort_seen = Arc::new(AtomicU32::new(0));
        for i in 0..2 {
            let abort_seen2 = Arc::clone(&abort_seen);
            let fails = i == 0;
            activity.coordinator().register_action(
                CA_ACTION_SET,
                Arc::new(FnAction::new(format!("p{i}"), move |s: &Signal| match s.name() {
                    SIG_HANDLE_EXCEPTION => {
                        if fails {
                            Ok(Outcome::abort())
                        } else {
                            Ok(Outcome::done())
                        }
                    }
                    SIG_ABORT => {
                        abort_seen2.fetch_add(1, Ordering::SeqCst);
                        Ok(Outcome::done())
                    }
                    other => panic!("unexpected {other}"),
                })) as _,
            );
        }
        let outcome = activity.complete().unwrap();
        assert!(outcome.is_negative());
        assert_eq!(outcome.data().as_str(), Some("ActuatorFault"));
        assert_eq!(abort_seen.load(Ordering::SeqCst), 2, "abort reaches everyone");
    }

    #[test]
    fn failure_completion_without_exception_resolves_to_root() {
        let raised = RaisedExceptions::new();
        let (activity, _normals, handled) = ca_activity(&raised);
        activity.set_completion_status(CompletionStatus::FailOnly).unwrap();
        let outcome = activity.complete().unwrap();
        assert_eq!(outcome.name(), "handled");
        assert_eq!(*handled.lock(), vec!["Exception"; 3]);
    }
}
