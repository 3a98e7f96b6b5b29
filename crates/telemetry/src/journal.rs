//! The one typed event sink: a shared, append-only journal.
//!
//! Every layer that keeps a typed account of what it did — the activity
//! coordinator's fig. 5 trace, the OTS coordinator's 2PC protocol journal,
//! the activity lifecycle journal — stores it in a `Journal<E>` and names
//! it with a type alias. The journal only stores: mirroring an event into
//! a [`crate::FlightRecorder`] happens at the emission site, before the
//! push, so the recorder sees events whether or not a journal is attached.

use std::fmt::Display;
use std::sync::Arc;

use parking_lot::Mutex;

/// A shared, append-only recording of `E`s. Clones share storage.
#[derive(Debug, Clone)]
pub struct Journal<E> {
    events: Arc<Mutex<Vec<E>>>,
}

impl<E> Default for Journal<E> {
    fn default() -> Self {
        Journal { events: Arc::default() }
    }
}

impl<E: Clone + Display> Journal<E> {
    /// An empty journal.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event.
    pub fn record(&self, event: E) {
        self.events.lock().push(event);
    }

    /// Snapshot the events recorded so far, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<E> {
        self.events.lock().clone()
    }

    /// Compact, line-per-event rendering (handy in assertion failures).
    #[must_use]
    pub fn render(&self) -> String {
        self.events.lock().iter().map(E::to_string).collect::<Vec<_>>().join("\n")
    }

    /// Clear all recorded events.
    pub fn clear(&self) {
        self.events.lock().clear();
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let journal: Journal<&str> = Journal::new();
        let alias = journal.clone();
        assert!(journal.is_empty());
        journal.record("prepare");
        alias.record("commit");
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.events(), alias.events());
        assert_eq!(alias.render(), "prepare\ncommit");
        alias.clear();
        assert!(journal.is_empty());
    }
}
