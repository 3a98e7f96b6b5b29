//! Property tests over the coordinator's protocol loop (figs. 5 and 7):
//! for ARBITRARY scripted SignalSets — any number of signals, any
//! mid-delivery switching — the framework's invariants must hold.

mod common;

use std::sync::Arc;

use activity_service::signal_set::{AfterResponse, NextSignal, SignalSet};
use activity_service::{Activity, CompletionStatus, FnAction, Outcome, Signal};
use orb::{SimClock, Value};
use parking_lot::Mutex;
use proptest::prelude::*;
use telemetry::ProtocolEvent;

/// A fully scripted signal set: emits `signals.len()` signals; after
/// feeding response `i` it requests the next signal early when
/// `switch_after[i]` says so.
#[derive(Debug)]
struct Scripted {
    signals: Vec<String>,
    switch_on_response: Vec<bool>,
    emitted: usize,
    responses: Mutex<usize>,
    completion: CompletionStatus,
}

impl SignalSet for Scripted {
    fn signal_set_name(&self) -> &str {
        "Scripted"
    }
    fn get_signal(&mut self) -> NextSignal {
        if self.emitted >= self.signals.len() {
            return NextSignal::End;
        }
        let name = self.signals[self.emitted].clone();
        self.emitted += 1;
        let signal = Signal::new(name, "Scripted");
        if self.emitted == self.signals.len() {
            NextSignal::LastSignal(signal)
        } else {
            NextSignal::Signal(signal)
        }
    }
    fn set_response(&mut self, _response: &Outcome) -> AfterResponse {
        let mut n = self.responses.lock();
        let switch = self
            .switch_on_response
            .get(*n)
            .copied()
            .unwrap_or(false);
        *n += 1;
        // Only switch while more signals remain; switching at the end just
        // terminates delivery early, which is also legal.
        if switch {
            AfterResponse::RequestNext
        } else {
            AfterResponse::Continue
        }
    }
    fn get_outcome(&mut self) -> Outcome {
        Outcome::done().with_data(Value::U64(*self.responses.lock() as u64))
    }
    fn set_completion_status(&mut self, status: CompletionStatus) {
        self.completion = status;
    }
    fn completion_status(&self) -> CompletionStatus {
        self.completion
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariants, for any script and any action count:
    /// 1. the run terminates and produces an outcome;
    /// 2. trace structure: every Transmit is followed by its SetResponse,
    ///    and GetOutcome comes last, exactly once;
    /// 3. signals are delivered in script order; within one signal, actions
    ///    are visited in registration order with no repeats;
    /// 4. without switching, every emitted signal reaches every action.
    #[test]
    fn coordinator_loop_invariants(
        signal_count in 0usize..5,
        action_count in 0usize..5,
        switches in proptest::collection::vec(any::<bool>(), 0..25),
    ) {
        let signals: Vec<String> = (0..signal_count).map(|i| format!("s{i}")).collect();
        let any_switch = switches.iter().any(|b| *b);
        let (activity, recorder) = common::recorded_root("prop");
        activity
            .coordinator()
            .add_signal_set(Box::new(Scripted {
                signals: signals.clone(),
                switch_on_response: switches,
                emitted: 0,
                responses: Mutex::new(0),
                completion: CompletionStatus::Success,
            }))
            .unwrap();
        for i in 0..action_count {
            activity.coordinator().register_action(
                "Scripted",
                Arc::new(FnAction::new(format!("a{i}"), |_s: &Signal| Ok(Outcome::done()))) as _,
            );
        }

        // (1) terminates with an outcome.
        let outcome = activity.signal("Scripted").unwrap();
        prop_assert!(outcome.is_done());

        let events = common::trace(&recorder);
        // (2) structure.
        let outcome_positions: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, ProtocolEvent::GetOutcome { .. }))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(outcome_positions.len(), 1);
        prop_assert_eq!(outcome_positions[0], events.len() - 1);
        for (i, e) in events.iter().enumerate() {
            if matches!(e, ProtocolEvent::Transmit { .. }) {
                prop_assert!(
                    matches!(events.get(i + 1), Some(ProtocolEvent::SetResponse { .. })),
                    "transmit at {} not followed by set_response",
                    i
                );
            }
        }

        // (3) delivery order respects the script and registration order.
        let transmits: Vec<(String, String)> = events
            .iter()
            .filter_map(|e| match e {
                ProtocolEvent::Transmit { signal, action, .. } => {
                    Some((signal.clone(), action.clone()))
                }
                _ => None,
            })
            .collect();
        let mut last_signal_idx = 0usize;
        let mut last_action_idx: Option<usize> = None;
        for (signal, action) in &transmits {
            let s_idx = signals.iter().position(|s| s == signal).unwrap();
            let a_idx = action[1..].parse::<usize>().unwrap();
            prop_assert!(s_idx >= last_signal_idx, "signals must not rewind");
            if s_idx == last_signal_idx {
                if let Some(prev) = last_action_idx {
                    prop_assert!(
                        a_idx > prev,
                        "within a signal, actions advance in registration order"
                    );
                }
            } else {
                last_signal_idx = s_idx;
            }
            last_action_idx = Some(a_idx);
            if s_idx != last_signal_idx {
                last_action_idx = Some(a_idx);
            }
        }

        // (4) full coverage when nothing switched.
        if !any_switch {
            prop_assert_eq!(transmits.len(), signal_count * action_count);
            prop_assert_eq!(
                outcome.data().as_u64().unwrap() as usize,
                signal_count * action_count
            );
        }

        // After the run the set has ended: reprocessing is rejected.
        prop_assert!(activity.signal("Scripted").is_err());
    }

    /// Re-associating a fresh set instance after End always works — the
    /// fig. 7 "will not be reused" rule applies to instances, not names.
    #[test]
    fn ended_sets_are_replaceable(count in 1usize..4) {
        let activity = Activity::new_root("prop", SimClock::new());
        for round in 0..count {
            activity
                .coordinator()
                .add_signal_set(Box::new(Scripted {
                    signals: vec![format!("round-{round}")],
                    switch_on_response: vec![],
                    emitted: 0,
                    responses: Mutex::new(0),
                    completion: CompletionStatus::Success,
                }))
                .unwrap();
            activity.signal("Scripted").unwrap();
        }
    }
}

/// A fixed regression: last-signal switching must still end cleanly.
#[test]
fn switch_on_last_signal_terminates() {
    let activity = Activity::new_root("edge", SimClock::new());
    activity
        .coordinator()
        .add_signal_set(Box::new(Scripted {
            signals: vec!["only".into()],
            switch_on_response: vec![true],
            emitted: 0,
            responses: Mutex::new(0),
            completion: CompletionStatus::Success,
        }))
        .unwrap();
    activity.coordinator().register_action(
        "Scripted",
        Arc::new(FnAction::new("a0", |_s: &Signal| Ok(Outcome::done()))) as _,
    );
    let outcome = activity.signal("Scripted").unwrap();
    assert!(outcome.is_done());
}
