//! The activity coordinator: drives SignalSets against registered Actions
//! (fig. 5 of the paper).

use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::Arc;

use orb::{Env, SpanGuard};
use parking_lot::Mutex;
use telemetry::{ProtocolEvent, MSC_FROM, MSC_MSG, MSC_REPLY, MSC_TO};

use crate::action::Action;
use crate::activity::ActivityId;
use crate::completion::CompletionStatus;
use crate::dispatch::{self, ActionList, DispatchConfig};
use crate::error::ActivityError;
use crate::outcome::Outcome;
use crate::signal_set::{AfterResponse, NextSignal, SignalSet, SignalSetState};

/// Named failpoint sites this crate's protocol code passes through.
///
/// The authoritative workspace-wide audit table lives in
/// `recovery_log::crash`'s module docs; the harness registry test checks
/// that a probe run observes exactly these names.
pub mod failpoints {
    /// Before the coordinator asks the set for a signal (fig. 5 step 1).
    pub const BEFORE_GET_SIGNAL: &str = "activity.before_get_signal";
    /// Signal obtained, before fan-out to the registered actions.
    pub const BEFORE_TRANSMIT: &str = "activity.before_transmit";
    /// Protocol ended, before the collated outcome is read.
    pub const BEFORE_OUTCOME: &str = "activity.before_outcome";

    /// Every site above, in protocol order.
    pub const FAILPOINT_SITES: &[&str] = &[BEFORE_GET_SIGNAL, BEFORE_TRANSMIT, BEFORE_OUTCOME];
}

struct SetEntry {
    set: Box<dyn SignalSet>,
    state: SignalSetState,
}

/// Where a slot's signal set is.
enum SetSlot {
    /// Actions registered interest before any set was associated.
    Vacant,
    /// Associated and at rest.
    Held(SetEntry),
    /// A processing run has the set checked out.
    Running,
}

/// Everything the coordinator keeps under one set name: the set associated
/// under it and the actions registered for it. Either may arrive first
/// ("Actions register interest in SignalSets, rather than specific
/// Signals").
struct Slot {
    /// A protocol's set name is nearly always a constant, so the key is
    /// static-or-owned and creating a slot copies nothing.
    name: Cow<'static, str>,
    set: SetSlot,
    /// Shared so the per-signal snapshot on the hot path is one `Arc` bump;
    /// registration appends in place unless a run holds a snapshot.
    actions: ActionList,
}

/// An activity has one or two set names, so the slots are a vector searched
/// linearly; slots are never removed, so a run may hold its slot's index.
#[derive(Default)]
struct CoordinatorInner {
    slots: Vec<Slot>,
}

impl CoordinatorInner {
    fn position(&self, set_name: &str) -> Option<usize> {
        self.slots.iter().position(|slot| slot.name == set_name)
    }

    fn slot(&self, set_name: &str) -> Option<&Slot> {
        self.slots.iter().find(|slot| slot.name == set_name)
    }

    fn slot_mut(&mut self, set_name: &str) -> Option<&mut Slot> {
        self.slots.iter_mut().find(|slot| slot.name == set_name)
    }

    /// The slot named `set_name`, created empty — keyed by `key()` — when
    /// this is the first mention of the name.
    fn slot_for(&mut self, set_name: &str, key: impl FnOnce() -> Cow<'static, str>) -> &mut Slot {
        let index = self.position(set_name).unwrap_or_else(|| {
            self.slots.push(Slot {
                name: key(),
                set: SetSlot::Vacant,
                actions: dispatch::no_actions(),
            });
            self.slots.len() - 1
        });
        &mut self.slots[index]
    }
}

/// Coordinates one activity's protocol runs.
///
/// The coordinator owns the fig. 5 loop: ask the SignalSet for a signal,
/// transmit it to every registered Action, feed each Outcome back into the
/// set, fetch the next signal when the set asks for one, and finally collate
/// the overall outcome — all while enforcing the fig. 7 state machine.
pub struct ActivityCoordinator {
    activity: ActivityId,
    inner: Mutex<CoordinatorInner>,
    /// The owning service's context, shared by the whole activity tree:
    /// failpoints, failure detector, telemetry, recorder.
    env: Arc<Env>,
    dispatch: Mutex<DispatchConfig>,
}

impl std::fmt::Debug for ActivityCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        let sets = inner.slots.iter().filter(|s| !matches!(s.set, SetSlot::Vacant)).count();
        let registrations = inner.slots.iter().filter(|s| !s.actions.is_empty()).count();
        f.debug_struct("ActivityCoordinator")
            .field("activity", &self.activity)
            .field("signal_sets", &sets)
            .field("registrations", &registrations)
            .finish()
    }
}

impl ActivityCoordinator {
    /// A coordinator for the given activity under a plane-less context,
    /// fanning signals out across the machine's available parallelism (see
    /// [`DispatchConfig`]). Coordinators of activities begun through an
    /// [`crate::ActivityService`] run under the service's context instead.
    pub fn new(activity: ActivityId) -> Self {
        Self::in_env(activity, Env::new())
    }

    pub(crate) fn in_env(activity: ActivityId, env: Arc<Env>) -> Self {
        ActivityCoordinator {
            activity,
            inner: Mutex::new(CoordinatorInner::default()),
            env,
            dispatch: Mutex::new(DispatchConfig::default()),
        }
    }

    /// The context this coordinator runs under, shared with its whole
    /// activity tree; [`Env`]'s fields say how each plane shapes the fig. 5
    /// loop.
    pub fn env(&self) -> &Arc<Env> {
        &self.env
    }

    /// Change the fan-out policy for subsequent protocol runs.
    /// [`DispatchConfig::serial`] reproduces the exact legacy serial loop
    /// and is what deterministic-replay tests pin.
    pub fn set_dispatch_config(&self, dispatch: DispatchConfig) {
        *self.dispatch.lock() = dispatch;
    }

    /// The current fan-out policy.
    pub fn dispatch_config(&self) -> DispatchConfig {
        *self.dispatch.lock()
    }

    /// The owning activity's id.
    pub fn activity(&self) -> ActivityId {
        self.activity
    }

    /// Associate a signal set with this activity, keyed by its
    /// `signal_set_name`. "A SignalSet is dynamically associated with an
    /// activity, and each activity can have a different SignalSet
    /// controlling it."
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::SignalSetActive`] when a set with that name
    /// is already associated (ended sets may be replaced).
    pub fn add_signal_set(&self, set: Box<dyn SignalSet>) -> Result<(), ActivityError> {
        let mut inner = self.inner.lock();
        let slot = inner.slot_for(set.signal_set_name(), || set.shared_signal_set_name());
        let in_use = match &slot.set {
            SetSlot::Held(entry) => entry.state != SignalSetState::End,
            SetSlot::Running => true,
            SetSlot::Vacant => false,
        };
        if in_use {
            return Err(ActivityError::SignalSetActive(slot.name.as_ref().to_owned()));
        }
        slot.set = SetSlot::Held(SetEntry { set, state: SignalSetState::Waiting });
        Ok(())
    }

    /// Register an action's interest in the named signal set. An Action
    /// "may register interest in more than one SignalSet", and registration
    /// may precede the set's association (only then is the name copied).
    pub fn register_action(&self, set_name: &str, action: Arc<dyn Action>) {
        let mut inner = self.inner.lock();
        let slot = inner.slot_for(set_name, || Cow::Owned(set_name.to_owned()));
        // In place unless a protocol run holds the list as its snapshot;
        // that run keeps what it took and sees the new action at its next
        // signal.
        Arc::make_mut(&mut slot.actions).push(action);
    }

    /// Remove every registration of the action named `action_name` from the
    /// named set. Returns how many registrations were removed.
    pub fn unregister_action(&self, set_name: &str, action_name: &str) -> usize {
        let mut inner = self.inner.lock();
        let Some(Slot { actions, .. }) = inner.slot_mut(set_name) else { return 0 };
        let before = actions.len();
        if actions.iter().any(|a| a.name() == action_name) {
            Arc::make_mut(actions).retain(|a| a.name() != action_name);
        }
        before - actions.len()
    }

    /// Number of actions currently registered for the named set.
    pub fn action_count(&self, set_name: &str) -> usize {
        self.inner.lock().slot(set_name).map_or(0, |slot| slot.actions.len())
    }

    /// The fig. 7 state of the named set.
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::UnknownSignalSet`] when not associated.
    pub fn signal_set_state(&self, set_name: &str) -> Result<SignalSetState, ActivityError> {
        let inner = self.inner.lock();
        match inner.slot(set_name).map(|slot| &slot.set) {
            Some(SetSlot::Held(entry)) => Ok(entry.state),
            Some(SetSlot::Running) => Ok(SignalSetState::GetSignal),
            Some(SetSlot::Vacant) | None => {
                Err(ActivityError::UnknownSignalSet(set_name.to_owned()))
            }
        }
    }

    /// Names of associated signal sets.
    pub fn signal_set_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .lock()
            .slots
            .iter()
            .filter(|slot| !matches!(slot.set, SetSlot::Vacant))
            .map(|slot| slot.name.as_ref().to_owned())
            .collect();
        names.sort();
        names
    }

    /// Forward a completion status to the named set before processing it.
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::UnknownSignalSet`] or
    /// [`ActivityError::SignalSetActive`] when the set is checked out.
    pub fn set_completion_status(
        &self,
        set_name: &str,
        status: CompletionStatus,
    ) -> Result<(), ActivityError> {
        let mut inner = self.inner.lock();
        match inner.slot_mut(set_name).map(|slot| &mut slot.set) {
            Some(SetSlot::Held(entry)) => {
                entry.set.set_completion_status(status);
                Ok(())
            }
            Some(SetSlot::Running) => Err(ActivityError::SignalSetActive(set_name.to_owned())),
            Some(SetSlot::Vacant) | None => {
                Err(ActivityError::UnknownSignalSet(set_name.to_owned()))
            }
        }
    }

    /// Run the named set's full protocol (fig. 5): repeatedly obtain a
    /// signal, transmit it to every action registered for the set (the
    /// registration list is re-read for each signal, so actions enlisted
    /// mid-protocol see later signals), feed responses back, and collate.
    ///
    /// Action failures are converted into `"error"` outcomes and fed to the
    /// set like any other response — it is the *set's* protocol knowledge
    /// that decides what failure means.
    ///
    /// # Errors
    ///
    /// [`ActivityError::UnknownSignalSet`] when no such set is associated;
    /// [`ActivityError::SignalSetInactive`] when it already ended;
    /// [`ActivityError::SignalSetActive`] when another run has it checked
    /// out.
    pub fn process_signal_set(&self, set_name: &str) -> Result<Outcome, ActivityError> {
        let mut checkout = {
            let mut inner = self.inner.lock();
            let Some(index) = inner.position(set_name) else {
                return Err(ActivityError::UnknownSignalSet(set_name.to_owned()));
            };
            let slot = &mut inner.slots[index].set;
            match std::mem::replace(slot, SetSlot::Running) {
                SetSlot::Held(entry) if entry.state != SignalSetState::End => {
                    Checkout { coordinator: self, index, entry: Some(entry) }
                }
                ended @ SetSlot::Held(_) => {
                    *slot = ended;
                    return Err(ActivityError::SignalSetInactive(set_name.to_owned()));
                }
                SetSlot::Running => {
                    return Err(ActivityError::SignalSetActive(set_name.to_owned()));
                }
                SetSlot::Vacant => {
                    *slot = SetSlot::Vacant;
                    return Err(ActivityError::UnknownSignalSet(set_name.to_owned()));
                }
            }
        };

        // A protocol run is one `signal_set:` span; it is entered on the
        // driving thread so remote-Action invocations (and their retry
        // attempts) parent under it via the ORB interceptors. The guard
        // closes it on *every* exit path — a crash-failpoint error or a
        // panicking Action must not leak an open span (oracle #7 rejects
        // never-closed spans) — and, declared after `checkout`, before the
        // set goes back.
        let scope = self.env.span(|| format!("signal_set:{set_name}"));
        scope.attr("activity", self.activity);
        let index = checkout.index;
        let entry = checkout.entry.as_mut().expect("held until drop");
        let result = self.drive(set_name, index, entry, &scope);
        match &result {
            Ok(outcome) => scope.attr("outcome", outcome.name()),
            Err(e) => scope.attr("error", e),
        }
        result
    }

    fn drive(
        &self,
        set_name: &str,
        slot: usize,
        entry: &mut SetEntry,
        scope: &SpanGuard<'_>,
    ) -> Result<Outcome, ActivityError> {
        let config = *self.dispatch.lock();
        let detector = self.env.detector.as_ref();
        let mut signal_seq = 0u64;
        loop {
            self.env.hit(failpoints::BEFORE_GET_SIGNAL)?;
            self.record(scope, || ProtocolEvent::GetSignal { set: set_name.to_owned() });
            let next = entry.set.get_signal();
            entry.state = entry
                .state
                .on_get_signal(set_name, matches!(next, NextSignal::End))?;
            let (signal, last) = match next {
                NextSignal::Signal(s) => (s, false),
                NextSignal::LastSignal(s) => (s, true),
                NextSignal::End => break,
            };
            signal_seq += 1;
            // Fresh snapshot per signal (one `Arc` bump): actions
            // registered while the protocol runs receive subsequent
            // signals.
            let actions = Arc::clone(&self.inner.lock().slots[slot].actions);
            // Stamp a delivery id unique to (activity, set, signal number):
            // redelivery of the same logical signal — including transport
            // retries inside a remote Action proxy — shares the id, so
            // exactly-once consumers can deduplicate (§3.4). A signal
            // nobody is registered for reaches nobody and goes unstamped.
            let signal = if signal.delivery_id().is_some() || actions.is_empty() {
                signal
            } else {
                signal.with_delivery_id(delivery_id(self.activity, set_name, signal_seq))
            };
            // Quarantined participants sit this signal out (each skip
            // decision is computed once — `should_skip` claims half-open
            // probe slots). At-least-once semantics make the skip sound:
            // it is indistinguishable from the transport dropping every
            // copy of this delivery.
            let actions = match detector {
                Some(detector) => {
                    let kept: Vec<Arc<dyn Action>> = actions
                        .iter()
                        .filter(|action| !detector.should_skip(action.name()))
                        .cloned()
                        .collect();
                    if kept.len() == actions.len() { actions } else { Arc::new(kept) }
                }
                None => actions,
            };
            self.env.hit(failpoints::BEFORE_TRANSMIT)?;
            // Transmit. The set's responses are fed in registration order
            // regardless of the fan-out width, so protocol decisions,
            // traces and what the detector sees are identical to a serial
            // run; `RequestNext` breaks delivery early and abandons
            // outstanding transmissions. The signal itself travels into
            // the round (scattered deliveries may outlive this frame);
            // collation reports it by its two shared names.
            let set = &mut entry.set;
            let (name, delivery_id) =
                (signal.shared_name().clone(), signal.shared_delivery_id().cloned());
            let request_next =
                dispatch::dispatch_signal(config, &actions, signal, |action, deliver| {
                    let span = scope.child(|| format!("transmit:{name}"));
                    span.attr(MSC_FROM, "coordinator");
                    span.attr(MSC_TO, action.name());
                    span.attr(MSC_MSG, &name);
                    if let Some(id) = &delivery_id {
                        span.attr("delivery_id", id);
                    }
                    if let Some(telemetry) = span.telemetry() {
                        telemetry
                            .metrics()
                            .incr(&format!("signals_transmitted_total{{set=\"{set_name}\"}}"));
                    }
                    self.record(&span, || ProtocolEvent::Transmit {
                        set: set_name.to_owned(),
                        signal: name.as_ref().to_owned(),
                        action: action.name().to_owned(),
                    });
                    let outcome = deliver();
                    if let Some(detector) = detector {
                        if outcome.name() == crate::outcome::OUTCOME_ERROR {
                            detector.record_failure(action.name());
                        } else {
                            detector.record_success(action.name());
                        }
                    }
                    self.record(scope, || ProtocolEvent::SetResponse {
                        set: set_name.to_owned(),
                        outcome: outcome.name().to_owned(),
                    });
                    span.attr(MSC_REPLY, outcome.name());
                    drop(span);
                    set.set_response(&outcome) == AfterResponse::RequestNext
                });
            if last && !request_next {
                entry.state = entry.state.on_last_signal_delivered();
                break;
            }
        }
        entry.state.check_outcome_readable(set_name)?;
        self.env.hit(failpoints::BEFORE_OUTCOME)?;
        let outcome = entry.set.get_outcome();
        self.record(scope, || ProtocolEvent::GetOutcome {
            set: set_name.to_owned(),
            outcome: outcome.name().to_owned(),
        });
        Ok(outcome)
    }

    /// Emit one fig. 5 step of this activity — and, on a live span, the
    /// same step's `Display` text as a span event — from the same call
    /// site, so the two views cannot drift apart. With neither listening
    /// (the common case for production coordinators) the event is never
    /// built.
    fn record(&self, span: &SpanGuard<'_>, event: impl FnOnce() -> ProtocolEvent) {
        let origin = || self.activity.origin();
        if span.telemetry().is_none() {
            return self.env.emit(|| (origin(), event()));
        }
        let event = event();
        span.event(&event.to_string());
        self.env.emit(|| (origin(), event));
    }
}

/// The text `{activity}:{set}:{seq}` as a shared handle, formatted on the
/// stack so the handle is the only allocation (an id too long for the
/// buffer — a set name past some 60 bytes — goes through a `String`).
fn delivery_id(activity: ActivityId, set_name: &str, seq: u64) -> Arc<str> {
    struct OnStack {
        bytes: [u8; 96],
        len: usize,
    }
    impl std::fmt::Write for OnStack {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            let end = self.len + s.len();
            self.bytes.get_mut(self.len..end).ok_or(std::fmt::Error)?.copy_from_slice(s.as_bytes());
            self.len = end;
            Ok(())
        }
    }
    let mut id = OnStack { bytes: [0; 96], len: 0 };
    match write!(id, "{activity}:{set_name}:{seq}") {
        Ok(()) => std::str::from_utf8(&id.bytes[..id.len]).expect("whole strs were written").into(),
        Err(_) => format!("{activity}:{set_name}:{seq}").into(),
    }
}

/// A signal set taken out of its slot for one protocol run. Dropping it
/// puts the set back, ended — also when the run unwinds (an Action
/// panicking inline, or its panic re-raised by collation), so the name
/// never stays `SignalSetActive` with nobody driving it.
struct Checkout<'a> {
    coordinator: &'a ActivityCoordinator,
    /// The slot the set came out of.
    index: usize,
    entry: Option<SetEntry>,
}

impl Drop for Checkout<'_> {
    fn drop(&mut self) {
        let mut entry = self.entry.take().expect("held until drop");
        entry.state = SignalSetState::End;
        // Return the (ended) set so late outcome queries and inactive-reuse
        // errors behave per the IDL.
        self.coordinator.inner.lock().slots[self.index].set = SetSlot::Held(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::FnAction;
    use crate::signal::Signal;
    use crate::signal_set::BroadcastSignalSet;
    use orb::Value;
    use std::sync::atomic::{AtomicU32, Ordering};
    use telemetry::{FlightRecorder, Telemetry};

    fn coordinator() -> ActivityCoordinator {
        ActivityCoordinator::new(ActivityId::new(1))
    }

    fn coordinator_in(env: Env) -> ActivityCoordinator {
        ActivityCoordinator::in_env(ActivityId::new(1), env.wired())
    }

    /// A coordinator whose steps are all kept, and the recorder keeping them.
    fn recorded(env: Env) -> (ActivityCoordinator, FlightRecorder) {
        let recorder = FlightRecorder::new("test", usize::MAX);
        (coordinator_in(Env { recorder: Some(recorder.clone()), ..env }), recorder)
    }

    fn steps(recorder: &FlightRecorder) -> Vec<ProtocolEvent> {
        recorder.steps().into_iter().map(|(_, step)| step).collect()
    }

    fn counting_action(name: &str, counter: Arc<AtomicU32>) -> Arc<dyn Action> {
        Arc::new(FnAction::new(name, move |_s: &Signal| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(Outcome::done())
        }))
    }

    #[test]
    fn broadcast_reaches_every_action() {
        let c = coordinator();
        c.add_signal_set(Box::new(BroadcastSignalSet::new("Notify", "wake", Value::Null)))
            .unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        for i in 0..5 {
            c.register_action("Notify", counting_action(&format!("a{i}"), Arc::clone(&hits)));
        }
        assert_eq!(c.action_count("Notify"), 5);
        let outcome = c.process_signal_set("Notify").unwrap();
        assert!(outcome.is_done());
        assert_eq!(hits.load(Ordering::SeqCst), 5);
        assert_eq!(c.signal_set_state("Notify").unwrap(), SignalSetState::End);
    }

    #[test]
    fn processing_without_actions_still_completes() {
        let c = coordinator();
        c.add_signal_set(Box::new(BroadcastSignalSet::new("Lonely", "x", Value::Null)))
            .unwrap();
        let outcome = c.process_signal_set("Lonely").unwrap();
        assert!(outcome.is_done());
        assert_eq!(outcome.data().as_u64(), Some(0));
    }

    #[test]
    fn ended_sets_cannot_be_reprocessed() {
        let c = coordinator();
        c.add_signal_set(Box::new(BroadcastSignalSet::new("Once", "x", Value::Null)))
            .unwrap();
        c.process_signal_set("Once").unwrap();
        assert!(matches!(
            c.process_signal_set("Once"),
            Err(ActivityError::SignalSetInactive(_))
        ));
        // But an ended set may be *replaced* (a new instance of the protocol).
        c.add_signal_set(Box::new(BroadcastSignalSet::new("Once", "x", Value::Null)))
            .unwrap();
        c.process_signal_set("Once").unwrap();
    }

    #[test]
    fn unknown_set_errors() {
        let c = coordinator();
        assert!(matches!(
            c.process_signal_set("ghost"),
            Err(ActivityError::UnknownSignalSet(_))
        ));
        assert!(matches!(
            c.signal_set_state("ghost"),
            Err(ActivityError::UnknownSignalSet(_))
        ));
    }

    #[test]
    fn duplicate_active_set_rejected() {
        let c = coordinator();
        c.add_signal_set(Box::new(BroadcastSignalSet::new("S", "x", Value::Null)))
            .unwrap();
        assert!(matches!(
            c.add_signal_set(Box::new(BroadcastSignalSet::new("S", "y", Value::Null))),
            Err(ActivityError::SignalSetActive(_))
        ));
    }

    #[test]
    fn action_errors_become_error_outcomes() {
        let c = coordinator();
        c.add_signal_set(Box::new(BroadcastSignalSet::new("S", "x", Value::Null)))
            .unwrap();
        c.register_action(
            "S",
            Arc::new(FnAction::new("bad", |_s: &Signal| {
                Err(crate::error::ActionError::new("cannot"))
            })),
        );
        let outcome = c.process_signal_set("S").unwrap();
        assert!(outcome.is_negative());
    }

    #[test]
    fn unregister_by_name() {
        let c = coordinator();
        let hits = Arc::new(AtomicU32::new(0));
        c.register_action("S", counting_action("keep", Arc::clone(&hits)));
        c.register_action("S", counting_action("drop", Arc::clone(&hits)));
        c.register_action("S", counting_action("drop", Arc::clone(&hits)));
        assert_eq!(c.unregister_action("S", "drop"), 2);
        assert_eq!(c.unregister_action("S", "ghost"), 0);
        assert_eq!(c.unregister_action("ghost-set", "x"), 0);
        assert_eq!(c.action_count("S"), 1);
    }

    #[test]
    fn trace_records_fig5_loop() {
        let (c, recorder) = recorded(Env::default());
        c.add_signal_set(Box::new(BroadcastSignalSet::new("S", "go", Value::Null)))
            .unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        c.register_action("S", counting_action("a1", Arc::clone(&hits)));
        c.register_action("S", counting_action("a2", Arc::clone(&hits)));
        c.process_signal_set("S").unwrap();
        let transmit = |action: &str| ProtocolEvent::Transmit {
            set: "S".into(),
            signal: "go".into(),
            action: action.into(),
        };
        assert_eq!(
            steps(&recorder),
            vec![
                ProtocolEvent::GetSignal { set: "S".into() },
                transmit("a1"),
                ProtocolEvent::SetResponse { set: "S".into(), outcome: "done".into() },
                transmit("a2"),
                ProtocolEvent::SetResponse { set: "S".into(), outcome: "done".into() },
                ProtocolEvent::GetOutcome { set: "S".into(), outcome: "done".into() },
            ]
        );
        // Every step is the activity's own.
        assert!(recorder.steps().iter().all(|(origin, _)| *origin == c.activity().origin()));
    }

    #[test]
    fn telemetry_projection_matches_the_trace_byte_for_byte() {
        let tel = Telemetry::new();
        let (c, recorder) = recorded(Env { telemetry: Some(tel.clone()), ..Default::default() });
        c.add_signal_set(Box::new(BroadcastSignalSet::new("S", "go", Value::Null)))
            .unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        c.register_action("S", counting_action("a1", Arc::clone(&hits)));
        c.register_action("S", counting_action("a2", Arc::clone(&hits)));
        c.process_signal_set("S").unwrap();

        let tree = tel.span_tree();
        assert_eq!(tree.verify(), Vec::<String>::new());
        assert_eq!(tree.coordinator_projection(), telemetry::render_steps(&steps(&recorder)));

        // One signal_set root carrying one transmit child per delivery.
        let roots = tree.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "signal_set:S");
        assert_eq!(roots[0].attr("outcome"), Some("done"));
        let children = tree.children(roots[0].context.span_id);
        assert_eq!(children.len(), 2);
        assert!(children.iter().all(|s| s.name == "transmit:go"));
        assert!(children.iter().all(|s| s.attr(MSC_REPLY) == Some("done")));
        assert_eq!(tel.metrics().family_total("signals_transmitted_total"), 2);
    }

    #[test]
    fn failpoint_crash_still_closes_the_signal_set_span() {
        let tel = Telemetry::new();
        let fp = recovery_log::FailpointSet::new();
        fp.arm(failpoints::BEFORE_OUTCOME, 0);
        let c = coordinator_in(Env {
            telemetry: Some(tel.clone()),
            failpoints: Some(fp),
            ..Default::default()
        });
        c.add_signal_set(Box::new(BroadcastSignalSet::new("S", "go", Value::Null)))
            .unwrap();
        assert!(c.process_signal_set("S").is_err());
        let tree = tel.span_tree();
        assert_eq!(tree.verify(), Vec::<String>::new(), "error path must close spans");
        assert!(tree.roots()[0].attr("error").is_some());
    }

    #[test]
    fn a_panicking_action_leaves_the_set_ended_and_no_span_behind() {
        // Xu, Randell, Romanovsky et al.: a coordinated action is never
        // left mid-state. Under both widths the panic surfaces from
        // `process_signal_set`, the set is back in its slot (ended, so it
        // can be replaced) and the `signal_set:` span is closed and off the
        // driving thread's ambient stack.
        for dispatch in [DispatchConfig::serial(), DispatchConfig::with_workers(4)] {
            let tel = Telemetry::new();
            let c = coordinator_in(Env { telemetry: Some(tel.clone()), ..Default::default() });
            c.set_dispatch_config(dispatch);
            c.add_signal_set(Box::new(BroadcastSignalSet::new("S", "prepare", Value::Null)))
                .unwrap();
            let hits = Arc::new(AtomicU32::new(0));
            c.register_action("S", counting_action("first", Arc::clone(&hits)));
            c.register_action(
                "S",
                Arc::new(FnAction::new("bomb", |s: &Signal| -> Result<Outcome, _> {
                    panic!("action blew up on {}", s.name())
                })),
            );
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = c.process_signal_set("S");
            }));
            assert!(unwound.is_err(), "{dispatch:?}: the panic must reach the driver");

            assert_eq!(c.signal_set_state("S").unwrap(), SignalSetState::End, "{dispatch:?}");
            assert!(matches!(
                c.process_signal_set("S"),
                Err(ActivityError::SignalSetInactive(_))
            ));
            c.add_signal_set(Box::new(BroadcastSignalSet::new("S", "prepare", Value::Null)))
                .expect("an ended set can be replaced");
            assert!(tel.current().is_none(), "{dispatch:?}: span left on the ambient stack");
            let tree = tel.span_tree();
            assert_eq!(tree.verify(), Vec::<String>::new(), "{dispatch:?}: span left open");
            assert_eq!(tree.roots()[0].attr("error"), Some("panicked"));
        }
    }

    #[test]
    fn multi_signal_set_requests_new_snapshot_per_signal() {
        // A set that emits two signals; an action registered between them
        // must only see the second.
        struct TwoSignals {
            sent: u32,
        }
        impl SignalSet for TwoSignals {
            fn signal_set_name(&self) -> &str {
                "Two"
            }
            fn get_signal(&mut self) -> NextSignal {
                self.sent += 1;
                match self.sent {
                    1 => NextSignal::Signal(Signal::new("first", "Two")),
                    2 => NextSignal::LastSignal(Signal::new("second", "Two")),
                    _ => NextSignal::End,
                }
            }
            fn set_response(&mut self, _r: &Outcome) -> AfterResponse {
                AfterResponse::Continue
            }
            fn get_outcome(&mut self) -> Outcome {
                Outcome::done()
            }
            fn set_completion_status(&mut self, _s: CompletionStatus) {}
            fn completion_status(&self) -> CompletionStatus {
                CompletionStatus::Success
            }
        }

        let c = Arc::new(coordinator());
        c.add_signal_set(Box::new(TwoSignals { sent: 0 })).unwrap();
        let seen = Arc::new(Mutex::new(Vec::<String>::new()));

        let seen_early = Arc::clone(&seen);
        let c2 = Arc::clone(&c);
        let seen_late_outer = Arc::clone(&seen);
        c.register_action(
            "Two",
            Arc::new(FnAction::new("early", move |s: &Signal| {
                seen_early.lock().push(format!("early:{}", s.name()));
                if s.name() == "first" {
                    // Register a late action mid-protocol.
                    let seen_late = Arc::clone(&seen_late_outer);
                    c2.register_action(
                        "Two",
                        Arc::new(FnAction::new("late", move |s: &Signal| {
                            seen_late.lock().push(format!("late:{}", s.name()));
                            Ok(Outcome::done())
                        })),
                    );
                }
                Ok(Outcome::done())
            })),
        );
        c.process_signal_set("Two").unwrap();
        assert_eq!(
            *seen.lock(),
            vec!["early:first", "early:second", "late:second"]
        );
    }

    #[test]
    fn request_next_switches_signal_mid_delivery() {
        // A set whose first signal aborts as soon as any action rejects:
        // remaining actions must not see the first signal again, and the
        // set switches to a "cancel" signal.
        struct AbortSwitch {
            phase: u32,
            saw_abort: bool,
        }
        impl SignalSet for AbortSwitch {
            fn signal_set_name(&self) -> &str {
                "Switch"
            }
            fn get_signal(&mut self) -> NextSignal {
                self.phase += 1;
                match (self.phase, self.saw_abort) {
                    (1, _) => NextSignal::Signal(Signal::new("try", "Switch")),
                    (2, true) => NextSignal::LastSignal(Signal::new("cancel", "Switch")),
                    _ => NextSignal::End,
                }
            }
            fn set_response(&mut self, r: &Outcome) -> AfterResponse {
                if r.is_negative() {
                    self.saw_abort = true;
                    AfterResponse::RequestNext
                } else {
                    AfterResponse::Continue
                }
            }
            fn get_outcome(&mut self) -> Outcome {
                if self.saw_abort {
                    Outcome::abort()
                } else {
                    Outcome::done()
                }
            }
            fn set_completion_status(&mut self, _s: CompletionStatus) {}
            fn completion_status(&self) -> CompletionStatus {
                CompletionStatus::Success
            }
        }

        // The bystander property below ("never sees the abandoned signal")
        // is strictly serial: under parallel dispatch the bystander may be
        // transmitted to speculatively (and the delivery discarded), which
        // the at-least-once contract permits. Pin the exact legacy path.
        let (c, recorder) = recorded(Env::default());
        c.set_dispatch_config(DispatchConfig::serial());
        c.add_signal_set(Box::new(AbortSwitch { phase: 0, saw_abort: false })).unwrap();
        c.register_action(
            "Switch",
            Arc::new(FnAction::new("refuser", |s: &Signal| {
                // Refuses the attempt, acknowledges the cancellation.
                if s.name() == "try" {
                    Ok(Outcome::abort())
                } else {
                    Ok(Outcome::done())
                }
            })),
        );
        c.register_action(
            "Switch",
            Arc::new(FnAction::new("bystander", |s: &Signal| {
                assert_ne!(s.name(), "try", "bystander must not see the abandoned signal");
                Ok(Outcome::done())
            })),
        );
        let outcome = c.process_signal_set("Switch").unwrap();
        assert!(outcome.is_negative());
        let transmits: Vec<String> = steps(&recorder)
            .into_iter()
            .filter_map(|e| match e {
                ProtocolEvent::Transmit { signal, action, .. } => {
                    Some(format!("{signal}->{action}"))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            transmits,
            vec!["try->refuser", "cancel->refuser", "cancel->bystander"]
        );
    }

    #[test]
    fn quarantined_action_sits_the_signal_out() {
        use orb::detector::{DetectorConfig, FailureDetector};
        use orb::SimClock;

        let detector = FailureDetector::with_config(
            SimClock::new(),
            DetectorConfig {
                suspect_after: 1,
                quarantine_after: 2,
                probe_interval: std::time::Duration::from_millis(50),
            },
        );
        detector.record_failure("flaky");
        detector.record_failure("flaky");
        let c = coordinator_in(Env { detector: Some(detector.clone()), ..Default::default() });
        c.add_signal_set(Box::new(BroadcastSignalSet::new("Notify", "wake", Value::Null)))
            .unwrap();
        let healthy_hits = Arc::new(AtomicU32::new(0));
        let flaky_hits = Arc::new(AtomicU32::new(0));
        c.register_action("Notify", counting_action("steady", Arc::clone(&healthy_hits)));
        c.register_action("Notify", counting_action("flaky", Arc::clone(&flaky_hits)));
        let outcome = c.process_signal_set("Notify").unwrap();
        assert!(outcome.is_done());
        assert_eq!(healthy_hits.load(Ordering::SeqCst), 1);
        assert_eq!(flaky_hits.load(Ordering::SeqCst), 0, "quarantined action skipped");
        // The broadcast set counted one response: only the healthy action
        // was solicited.
        assert_eq!(outcome.data().as_u64(), Some(1));
    }

    #[test]
    fn error_outcomes_feed_the_detector_and_success_rehabilitates() {
        use orb::detector::{FailureDetector, HealthStatus};
        use orb::SimClock;

        let detector = FailureDetector::new(SimClock::new());
        let c = coordinator_in(Env { detector: Some(detector.clone()), ..Default::default() });
        c.add_signal_set(Box::new(BroadcastSignalSet::new("Work", "go", Value::Null)))
            .unwrap();
        c.register_action(
            "Work",
            Arc::new(FnAction::new("grumpy", |_s: &Signal| {
                Err(crate::error::ActionError::new("down"))
            })),
        );
        let _ = c.process_signal_set("Work");
        assert_eq!(detector.suspicion("grumpy"), 1, "error outcome recorded as failure");

        // A later successful run clears the suspicion entirely.
        c.add_signal_set(Box::new(BroadcastSignalSet::new("Work2", "go", Value::Null)))
            .unwrap();
        c.register_action(
            "Work2",
            Arc::new(FnAction::new("grumpy", |_s: &Signal| Ok(Outcome::done()))),
        );
        let _ = c.process_signal_set("Work2");
        assert_eq!(detector.suspicion("grumpy"), 0);
        assert_eq!(detector.status("grumpy"), HealthStatus::Healthy);
    }
}
