//! The activity journal: begin/complete observations for conformance
//! checking against a reference nesting model.
//!
//! The [`crate::trace::TraceLog`] already records what a coordinator's
//! SignalSet processing did; what it cannot see is the **activity
//! lifecycle** itself — which activities began under which parent, and in
//! what order they completed. A harness replaying a run through an
//! executable specification of fig. 4 nesting (a child must complete
//! before its parent; nothing completes twice; nothing completes that
//! never began) needs exactly those two events, so [`crate::Activity`]
//! records them here when a journal is attached via
//! [`crate::Activity::set_journal`]. Children inherit the parent's
//! journal at [`crate::Activity::begin_child`] time. Each event is emitted
//! once, at its source, through `orb::Env::emit`: mirrored into the
//! context's flight recorder (kind `activity`) and then appended here —
//! with neither, nothing is recorded and nothing is paid.

use std::fmt;

use crate::activity::ActivityId;
use crate::completion::CompletionStatus;

/// One observable lifecycle step of an activity tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActivityEvent {
    /// The activity entered the tree (root or child).
    Begun {
        activity: ActivityId,
        name: String,
        parent: Option<ActivityId>,
    },
    /// The activity's completion protocol finished.
    Completed {
        activity: ActivityId,
        status: CompletionStatus,
        outcome: String,
    },
}

/// One-line rendering used by the flight-recorder mirror.
impl fmt::Display for ActivityEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActivityEvent::Begun { activity, name, parent } => match parent {
                Some(parent) => write!(f, "begun({activity}, {name}, parent={parent})"),
                None => write!(f, "begun({activity}, {name}, root)"),
            },
            ActivityEvent::Completed { activity, status, outcome } => {
                write!(f, "completed({activity}, {status:?}, {outcome})")
            }
        }
    }
}

/// A shared, append-only journal of [`ActivityEvent`]s. Clones share
/// storage.
pub type ActivityJournal = telemetry::Journal<ActivityEvent>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Activity;
    use orb::SimClock;

    #[test]
    fn attached_journal_sees_begin_and_complete_in_order() {
        let root = Activity::new_root("root", SimClock::new());
        let journal = ActivityJournal::new();
        root.set_journal(journal.clone());
        let child = root.begin_child("child").unwrap();
        child.complete().unwrap();
        root.complete().unwrap();

        let events = journal.events();
        assert_eq!(events.len(), 4);
        assert!(matches!(
            &events[0],
            ActivityEvent::Begun { name, parent: None, .. } if name == "root"
        ));
        assert!(matches!(
            &events[1],
            ActivityEvent::Begun { name, parent: Some(p), .. }
                if name == "child" && *p == root.id()
        ));
        assert!(matches!(
            &events[2],
            ActivityEvent::Completed { activity, .. } if *activity == child.id()
        ));
        assert!(matches!(
            &events[3],
            ActivityEvent::Completed { activity, .. } if *activity == root.id()
        ));
    }

    #[test]
    fn without_a_journal_nothing_is_recorded() {
        let root = Activity::new_root("root", SimClock::new());
        root.complete().unwrap();
        // No journal was ever attached; this one stays empty.
        assert!(ActivityJournal::new().is_empty());
    }
}
