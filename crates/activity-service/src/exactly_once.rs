//! Exactly-once signal processing over at-least-once delivery.
//!
//! §3.4 of the paper: "Minimally, the delivery semantics for Signals is
//! required to be at least once … **Stronger delivery semantics — exactly
//! once — can be provided by the activity service itself making use of the
//! underlying transaction service.**"
//!
//! [`ExactlyOnceAction`] is that provision: it wraps any [`Action`] and
//! consults a durable processed-set (a [`Wal`], the same persistence
//! substrate the transaction service uses for its decisions) keyed by the
//! delivery ids the coordinator stamps on every signal. A redelivered
//! signal — whether from a network duplicate, a transport retry, or a
//! post-crash re-drive — is answered with the *recorded* outcome instead
//! of re-executing the wrapped action.

use std::collections::HashMap;
use std::sync::Arc;

use orb::MapWriter;
use parking_lot::Mutex;
use recovery_log::{Hold, LogError, LogRecord, Lsn, Wal};

use crate::action::Action;
use crate::error::{ActionError, ActivityError};
use crate::outcome::Outcome;
use crate::signal::Signal;

/// Record kind for processed-signal entries (distinct from the `ots` and
/// activity kind spaces).
pub const KIND_SIGNAL_PROCESSED: u32 = 0x0301;

/// A wrapper giving any Action exactly-once processing semantics.
///
/// Signals without a delivery id cannot be deduplicated and are passed
/// straight through (the wrapped action's own idempotence is then the only
/// guard, as with a plain at-least-once deployment).
///
/// The processed-set has no end of life yet (nothing says when a delivery
/// id can no longer be redelivered), so the action holds its log from the
/// first record on and never releases: a log it shares is pinned.
pub struct ExactlyOnceAction {
    name: String,
    inner: Arc<dyn Action>,
    wal: Arc<dyn Wal>,
    _hold: Option<Hold>,
    processed: Mutex<HashMap<String, Outcome>>,
}

impl std::fmt::Debug for ExactlyOnceAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExactlyOnceAction")
            .field("name", &self.name)
            .field("processed", &self.processed.lock().len())
            .finish()
    }
}

impl ExactlyOnceAction {
    /// Wrap `inner`, persisting the processed-set to `wal`. The existing
    /// log is scanned so the dedup memory survives restarts.
    ///
    /// # Errors
    ///
    /// [`ActivityError::Log`] when the log cannot be scanned or contains a
    /// malformed processed-signal record.
    pub fn new(
        name: impl Into<String>,
        inner: Arc<dyn Action>,
        wal: Arc<dyn Wal>,
    ) -> Result<Arc<Self>, ActivityError> {
        let name = name.into();
        let mut processed = HashMap::new();
        // Decoded in place, and only this component's kind: nothing is
        // cloned out of the log.
        let mut replay = |record: &LogRecord| -> Result<(), ActivityError> {
            if record.kind != KIND_SIGNAL_PROCESSED {
                return Ok(());
            }
            let value = orb::Value::decode(&record.payload)
                .map_err(|e| ActivityError::Log(e.to_string()))?;
            let m = value
                .as_map()
                .ok_or_else(|| ActivityError::Log("processed record must be a map".into()))?;
            let owner = m.get("action").and_then(orb::Value::as_str).unwrap_or_default();
            if owner != name {
                return Ok(()); // another action's entry in a shared log
            }
            let id = m
                .get("id")
                .and_then(orb::Value::as_str)
                .ok_or_else(|| ActivityError::Log("processed record missing id".into()))?;
            let outcome = m
                .get("outcome")
                .map(Outcome::from_value)
                .transpose()?
                .unwrap_or_else(Outcome::done);
            processed.insert(id.to_owned(), outcome);
            Ok(())
        };
        wal.scan_with(Lsn::new(0), &mut |record| {
            replay(record).map_err(|e| LogError::Handler(e.to_string()))
        })?;
        Ok(Arc::new(ExactlyOnceAction {
            name,
            inner,
            _hold: wal.hold(),
            wal,
            processed: Mutex::new(processed),
        }))
    }

    /// Number of distinct signals processed so far.
    pub fn processed_count(&self) -> usize {
        self.processed.lock().len()
    }
}

impl Action for ExactlyOnceAction {
    fn process_signal(&self, signal: &Signal) -> Result<Outcome, ActionError> {
        let Some(id) = signal.delivery_id() else {
            // No identity to deduplicate on: degrade to at-least-once.
            return self.inner.process_signal(signal);
        };
        if let Some(previous) = self.processed.lock().get(id) {
            return Ok(previous.clone());
        }
        let outcome = self.inner.process_signal(signal)?;
        // Persist BEFORE acknowledging: if the append fails we surface an
        // error so the sender retries — the inner action must still be
        // idempotent against that narrow window, exactly as a transaction
        // participant must be between its work and its log force.
        MapWriter::encode(
            |fields| {
                fields
                    .str("action", &self.name)
                    .str("id", id)
                    .map("outcome", |fields| outcome.write_fields(fields));
            },
            |record| self.wal.append(KIND_SIGNAL_PROCESSED, record),
        )
        .map_err(|e| ActionError::new(e.to_string()))?;
        self.processed.lock().insert(id.to_owned(), outcome.clone());
        Ok(outcome)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::FnAction;
    use orb::Value;
    use recovery_log::MemWal;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn counting_inner() -> (Arc<dyn Action>, Arc<AtomicU32>) {
        let count = Arc::new(AtomicU32::new(0));
        let count2 = Arc::clone(&count);
        let inner: Arc<dyn Action> = Arc::new(FnAction::new("inner", move |s: &Signal| {
            count2.fetch_add(1, Ordering::SeqCst);
            Ok(Outcome::done().with_data(Value::from(s.name())))
        }));
        (inner, count)
    }

    #[test]
    fn duplicates_processed_once_with_recorded_outcome() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let (inner, count) = counting_inner();
        let action = ExactlyOnceAction::new("eo", inner, wal).unwrap();
        let signal = Signal::new("debit", "set").with_delivery_id("act-1:set:1");
        let first = action.process_signal(&signal).unwrap();
        let second = action.process_signal(&signal).unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert_eq!(first, second, "redelivery returns the recorded outcome");
        assert_eq!(action.processed_count(), 1);
    }

    #[test]
    fn distinct_delivery_ids_both_run() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let (inner, count) = counting_inner();
        let action = ExactlyOnceAction::new("eo", inner, wal).unwrap();
        action
            .process_signal(&Signal::new("s", "set").with_delivery_id("id-1"))
            .unwrap();
        action
            .process_signal(&Signal::new("s", "set").with_delivery_id("id-2"))
            .unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn dedup_memory_survives_restart() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let (inner, count) = counting_inner();
        {
            let action = ExactlyOnceAction::new("eo", Arc::clone(&inner), Arc::clone(&wal)).unwrap();
            action
                .process_signal(&Signal::new("s", "set").with_delivery_id("id-1"))
                .unwrap();
        }
        // "Restart": a new wrapper over the same log and (recovered) inner.
        let action = ExactlyOnceAction::new("eo", inner, wal).unwrap();
        assert_eq!(action.processed_count(), 1);
        let outcome = action
            .process_signal(&Signal::new("s", "set").with_delivery_id("id-1"))
            .unwrap();
        assert!(outcome.is_done());
        assert_eq!(count.load(Ordering::SeqCst), 1, "not re-executed after restart");
    }

    #[test]
    fn shared_log_keeps_actions_separate() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let (inner_a, count_a) = counting_inner();
        let (inner_b, count_b) = counting_inner();
        let a = ExactlyOnceAction::new("a", inner_a, Arc::clone(&wal)).unwrap();
        let signal = Signal::new("s", "set").with_delivery_id("id-1");
        a.process_signal(&signal).unwrap();
        // B sees the same log but must not inherit A's dedup entry.
        let b = ExactlyOnceAction::new("b", inner_b, wal).unwrap();
        assert_eq!(b.processed_count(), 0);
        b.process_signal(&signal).unwrap();
        assert_eq!(count_a.load(Ordering::SeqCst), 1);
        assert_eq!(count_b.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn signals_without_ids_pass_through() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let (inner, count) = counting_inner();
        let action = ExactlyOnceAction::new("eo", inner, wal).unwrap();
        let bare = Signal::new("s", "set");
        action.process_signal(&bare).unwrap();
        action.process_signal(&bare).unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 2, "no id, no dedup");
        assert_eq!(action.processed_count(), 0);
    }

    #[test]
    fn inner_errors_are_not_recorded() {
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let attempts = Arc::new(AtomicU32::new(0));
        let attempts2 = Arc::clone(&attempts);
        let flaky: Arc<dyn Action> = Arc::new(FnAction::new("flaky", move |_s: &Signal| {
            if attempts2.fetch_add(1, Ordering::SeqCst) == 0 {
                Err(ActionError::new("transient"))
            } else {
                Ok(Outcome::done())
            }
        }));
        let action = ExactlyOnceAction::new("eo", flaky, wal).unwrap();
        let signal = Signal::new("s", "set").with_delivery_id("id-1");
        assert!(action.process_signal(&signal).is_err());
        // Retry after the failure runs the inner action again…
        assert!(action.process_signal(&signal).unwrap().is_done());
        // …and only then is the outcome pinned.
        assert!(action.process_signal(&signal).unwrap().is_done());
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn coordinator_stamps_ids_end_to_end() {
        use crate::activity::Activity;
        use crate::signal_set::BroadcastSignalSet;
        let wal: Arc<dyn Wal> = Arc::new(MemWal::new());
        let (inner, count) = counting_inner();
        let action = ExactlyOnceAction::new("eo", inner, wal).unwrap();
        let activity = Activity::new_root("job", orb::SimClock::new());
        activity
            .coordinator()
            .add_signal_set(Box::new(BroadcastSignalSet::new("S", "go", Value::Null)))
            .unwrap();
        activity.coordinator().register_action("S", Arc::clone(&action) as _);
        activity.signal("S").unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert_eq!(action.processed_count(), 1, "the coordinator stamped an id");
    }
}
