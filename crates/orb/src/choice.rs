//! Deterministic delivery-choice hook: who owns message ordering.
//!
//! The simulated ORB already lets a harness *drop* or *duplicate* the n-th
//! remote message ([`crate::network::FaultScript`]), but the **order** in
//! which a protocol layer fans a round of deliveries out to its peers was
//! fixed (registration order). That hides an entire axis of the
//! interleaving space: a presumed-abort coordinator that stops soliciting
//! votes at the first veto behaves observably differently depending on
//! *when* the vetoing participant is asked.
//!
//! A [`DeliverySequencer`] hands that axis to the caller. A protocol layer
//! with a round of pending deliveries (a 2PC prepare round, a phase-two
//! outcome round, a rollback round) consults the sequencer before each
//! delivery: *given these still-pending peers, which goes next?* With no
//! sequencer attached every round goes in registration order, the
//! behaviour every layer had before the hook existed. A model-checking
//! explorer attaches its own implementation and enumerates every answer,
//! making delivery order a first-class schedule choice instead of an
//! accident of registration.
//!
//! After each delivery the layer reports back through
//! [`DeliverySequencer::report`] whether the delivery was *clean* (the
//! peer answered and the answer kept the round going) or *disruptive* (a
//! veto, an error, a delivery that cut the round short). Clean deliveries
//! to distinct peers commute — the report is what lets a partial-order
//! reducing explorer prune the orderings that cannot matter.

/// Chooses which of a round's still-pending deliveries goes next.
///
/// Implementations must be deterministic functions of their own state and
/// the arguments: the simulation harness replays runs and byte-compares
/// traces.
pub trait DeliverySequencer: Send + Sync {
    /// Pick the next delivery of round `stage` from `pending` (peer labels,
    /// in registration order). Returns an index into `pending`.
    ///
    /// `pending` is never empty. An out-of-range answer is treated as the
    /// last pending index, so a prefix-replaying sequencer can safely
    /// default past the end of its script.
    fn next_delivery(&self, stage: &str, pending: &[&str]) -> usize;

    /// Called after each sequenced delivery: `clean` is false when the
    /// delivery disrupted the round (veto, error, early break). The default
    /// implementation ignores the report.
    fn report(&self, stage: &str, peer: &str, clean: bool) {
        let _ = (stage, peer, clean);
    }
}

/// Resolve a sequencer's answer to a safe index: out-of-range choices
/// clamp to the last pending delivery.
#[must_use]
pub fn clamp_choice(choice: usize, pending_len: usize) -> usize {
    debug_assert!(pending_len > 0, "a delivery round is never empty");
    choice.min(pending_len.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_choices_clamp_to_the_tail() {
        assert_eq!(clamp_choice(0, 3), 0);
        assert_eq!(clamp_choice(2, 3), 2);
        assert_eq!(clamp_choice(99, 3), 2);
        assert_eq!(clamp_choice(99, 1), 0);
    }

    #[test]
    fn trait_objects_dispatch() {
        /// Always the last pending delivery: reverse registration order.
        struct LastFirst;
        impl DeliverySequencer for LastFirst {
            fn next_delivery(&self, _stage: &str, pending: &[&str]) -> usize {
                pending.len() - 1
            }
        }
        let seq: std::sync::Arc<dyn DeliverySequencer> = std::sync::Arc::new(LastFirst);
        assert_eq!(seq.next_delivery("prepare", &["a", "b", "c"]), 2);
        assert_eq!(seq.next_delivery("rollback", &["only"]), 0);
        // The default report is a no-op; it must at least not panic.
        seq.report("prepare", "c", true);
    }
}
