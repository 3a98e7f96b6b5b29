//! Signal fan-out with ordered collation.
//!
//! The paper's fig. 5 loop transmits each Signal to every registered
//! Action and feeds the Outcomes back into the SignalSet. The Actions
//! are independent distributed objects, so the *transmissions* are
//! embarrassingly parallel — but SignalSet protocol engines are
//! stateful and the recorded trace is an ordered message-sequence chart, so
//! the *collation* must look exactly like the serial loop.
//!
//! [`dispatch_signal`] is that loop, written once over an
//! [`orb::pool::Round`]: at width 1 taking a delivery *is* making it, so
//! this is the legacy serial loop; otherwise the signal was handed to
//! every action when the round started and the loop collates the results
//! in registration order. Trace events are emitted at collation time, so
//! a parallel run's trace is byte-identical to a serial run's.
//!
//! **Early break.** When the SignalSet answers `RequestNext`, the loop
//! stops and the round is dropped. At width 1 the remaining actions never
//! see the signal. Scattered, the drop fires the round's [`CancelToken`]
//! (actions whose delivery has not started yet are skipped) and whatever
//! the already-running speculative deliveries produce is discarded.
//! Speculative delivery is sound because Signal delivery is at-least-once
//! and Actions are idempotent (§3.4) — an Action may see a signal the
//! protocol engine abandoned, exactly as it may see a duplicate from a
//! transport retry. Tests that assert the *strictly serial* property (no
//! action ever observes an abandoned signal) pin [`DispatchConfig::serial`].
//!
//! **Panics.** An action panic surfaces on the driving thread at the
//! panicking action's position in registration order, inside its
//! `collate` call — the same observable order under every width. Panics
//! past an early-break point are discarded with their results.

use std::sync::{Arc, OnceLock};

use orb::pool::Round;
pub use orb::pool::{CancelToken, DispatchConfig, TaskOutcome, WorkerPool};

use crate::action::Action;
use crate::outcome::Outcome;
use crate::signal::Signal;

/// The actions registered for one signal set, in registration order, as
/// the shared list a signal's round is started over.
pub(crate) type ActionList = Arc<Vec<Arc<dyn Action>>>;

/// The list of a set nobody registered for: one per process, so a protocol
/// run with no listeners allocates nothing for them.
pub(crate) fn no_actions() -> ActionList {
    static EMPTY: OnceLock<ActionList> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(ActionList::default))
}

/// Transmit `signal` to `actions` and collate in registration order.
///
/// For each action in turn, `collate(action, deliver)` runs: it calls
/// `deliver()` exactly once for the action's response — an action error is
/// already converted to an `"error"` outcome — with whatever belongs
/// before and after the transmission around that call. When it returns
/// `true` (the set requested the next signal) delivery of this signal
/// stops; see the module docs for what becomes of the rest. Returns
/// whether that early break happened.
pub(crate) fn dispatch_signal(
    config: DispatchConfig,
    actions: &ActionList,
    signal: Signal,
    mut collate: impl FnMut(&Arc<dyn Action>, &mut dyn FnMut() -> Outcome) -> bool,
) -> bool {
    let mut round = Round::start(config, actions.len(), {
        let actions = Arc::clone(actions);
        move |index| match actions[index].process_signal(&signal) {
            Ok(outcome) => outcome,
            Err(e) => Outcome::from_error(e.message()),
        }
    });
    for (index, action) in actions.iter().enumerate() {
        if collate(action, &mut || round.take(index)) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::FnAction;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Drive `dispatch_signal` the way the coordinator does: `before` runs
    /// ahead of each delivery, `after` consumes its outcome.
    fn dispatch(
        config: DispatchConfig,
        actions: Vec<Arc<dyn Action>>,
        signal: &Signal,
        mut before: impl FnMut(&Arc<dyn Action>),
        mut after: impl FnMut(Outcome) -> bool,
    ) -> bool {
        dispatch_signal(config, &Arc::new(actions), signal.clone(), |action, deliver| {
            before(action);
            after(deliver())
        })
    }

    fn spin_action(name: &str, hits: Arc<AtomicU32>) -> Arc<dyn Action> {
        Arc::new(FnAction::new(name, move |_s: &Signal| {
            hits.fetch_add(1, Ordering::SeqCst);
            Ok(Outcome::done())
        }))
    }

    #[test]
    fn parallel_collation_preserves_registration_order() {
        let hits = Arc::new(AtomicU32::new(0));
        let actions: Vec<Arc<dyn Action>> = (0..16)
            .map(|i| spin_action(&format!("a{i}"), Arc::clone(&hits)))
            .collect();
        let signal = Signal::new("go", "S");
        let mut seen = Vec::new();
        let broke = dispatch(
            DispatchConfig::with_workers(8),
            actions,
            &signal,
            |action| seen.push(action.name().to_owned()),
            |outcome| {
                assert!(outcome.is_done());
                false
            },
        );
        assert!(!broke);
        assert_eq!(hits.load(Ordering::SeqCst), 16);
        let expected: Vec<String> = (0..16).map(|i| format!("a{i}")).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn early_break_stops_collation_at_the_break_index() {
        let actions: Vec<Arc<dyn Action>> = (0..12)
            .map(|i| {
                Arc::new(FnAction::new(format!("a{i}"), move |_s: &Signal| {
                    Ok(if i == 3 { Outcome::abort() } else { Outcome::done() })
                })) as Arc<dyn Action>
            })
            .collect();
        let signal = Signal::new("try", "S");
        let mut fed = 0;
        let broke = dispatch(
            DispatchConfig::with_workers(4),
            actions,
            &signal,
            |_| {},
            |outcome| {
                fed += 1;
                outcome.is_negative()
            },
        );
        assert!(broke);
        assert_eq!(fed, 4, "responses past the break point must not be fed");
    }

    #[test]
    fn action_errors_become_error_outcomes_in_parallel() {
        let actions: Vec<Arc<dyn Action>> = vec![
            Arc::new(FnAction::new("ok", |_s: &Signal| Ok(Outcome::done()))),
            Arc::new(FnAction::new("bad", |_s: &Signal| {
                Err(crate::error::ActionError::new("nope"))
            })),
        ];
        let signal = Signal::new("go", "S");
        let mut outcomes = Vec::new();
        dispatch(
            DispatchConfig::with_workers(2),
            actions,
            &signal,
            |_| {},
            |outcome| {
                outcomes.push(outcome.name().to_owned());
                false
            },
        );
        assert_eq!(outcomes, vec!["done", "error"]);
    }

    #[test]
    fn serial_config_runs_inline_with_early_stop() {
        let hits = Arc::new(AtomicU32::new(0));
        let mut actions: Vec<Arc<dyn Action>> = Vec::new();
        actions.push(Arc::new(FnAction::new("veto", |_s: &Signal| Ok(Outcome::abort()))));
        for i in 0..4 {
            actions.push(spin_action(&format!("later{i}"), Arc::clone(&hits)));
        }
        let signal = Signal::new("try", "S");
        let broke = dispatch(
            DispatchConfig::serial(),
            actions,
            &signal,
            |_| {},
            |outcome| outcome.is_negative(),
        );
        assert!(broke);
        assert_eq!(
            hits.load(Ordering::SeqCst),
            0,
            "serial early break must not touch later actions at all"
        );
    }
}
