//! Reference model of fig. 4 activity nesting.
//!
//! The paper arranges activities in trees: a child begins under a live
//! parent and must complete before its parent does (the parent's
//! completion protocol collates over its children's outcomes, so a child
//! still running when the parent completes would have nothing to report
//! into). Nothing completes twice, and nothing completes that never
//! began.

use std::collections::BTreeMap;

use telemetry::ProtocolEvent;

use super::{SpecViolation, Step};

#[derive(Debug, Clone, PartialEq, Eq)]
enum Status {
    Active { children: Vec<u64> },
    Completed,
}

/// The machine's state between events.
#[derive(Debug, Clone, Default)]
pub struct Nesting {
    activities: BTreeMap<u64, Status>,
}

impl Nesting {
    /// Fresh, empty tree.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn reject(index: usize, detail: String) -> Result<(), SpecViolation> {
        Err(SpecViolation { model: "nesting", event_index: index, detail })
    }

    /// Advance by one event; steps of other protocols are ignored.
    ///
    /// # Errors
    /// The first rule the event breaks, as a [`SpecViolation`].
    pub fn step(&mut self, index: usize, event: &ProtocolEvent) -> Result<(), SpecViolation> {
        match event {
            ProtocolEvent::ActivityBegun { activity, parent, .. } => {
                if self.activities.contains_key(activity) {
                    return Self::reject(index, format!("activity {activity} began twice"));
                }
                if let Some(parent) = parent {
                    match self.activities.get_mut(parent) {
                        Some(Status::Active { children }) => children.push(*activity),
                        Some(Status::Completed) => {
                            return Self::reject(
                                index,
                                format!("activity {activity} began under completed parent {parent}"),
                            );
                        }
                        None => {
                            return Self::reject(
                                index,
                                format!("activity {activity} began under unknown parent {parent}"),
                            );
                        }
                    }
                }
                self.activities.insert(*activity, Status::Active { children: Vec::new() });
            }
            ProtocolEvent::ActivityCompleted { activity, .. } => match self.activities.get(activity) {
                Some(Status::Active { children }) => {
                    if let Some(open) = children
                        .iter()
                        .find(|c| self.activities.get(c) != Some(&Status::Completed))
                    {
                        return Self::reject(
                            index,
                            format!("activity {activity} completed while child {open} is still active"),
                        );
                    }
                    self.activities.insert(*activity, Status::Completed);
                }
                Some(Status::Completed) => {
                    return Self::reject(index, format!("activity {activity} completed twice"));
                }
                None => {
                    return Self::reject(index, format!("activity {activity} completed but never began"));
                }
            },
            _ => {}
        }
        Ok(())
    }
}

/// Replay a stream, stopping at the first divergence.
#[must_use]
pub fn replay(stream: &[Step]) -> Vec<SpecViolation> {
    let mut machine = Nesting::new();
    for (index, (_, event)) in stream.iter().enumerate() {
        if let Err(violation) = machine.step(index, event) {
            return vec![violation];
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    use telemetry::Origin;

    fn begun(a: u64, parent: Option<u64>) -> Step {
        let event = ProtocolEvent::ActivityBegun { activity: a, name: "a".into(), parent };
        (Origin::Activity(a), event)
    }
    fn completed(a: u64) -> Step {
        let event =
            ProtocolEvent::ActivityCompleted { activity: a, status: "Success", outcome: "done".into() };
        (Origin::Activity(a), event)
    }

    #[test]
    fn children_complete_before_parents() {
        let t = vec![begun(1, None), begun(2, Some(1)), completed(2), completed(1)];
        assert!(replay(&t).is_empty());
    }

    #[test]
    fn parent_completing_over_a_live_child_is_rejected() {
        let t = vec![begun(1, None), begun(2, Some(1)), completed(1)];
        assert!(replay(&t)[0].detail.contains("still active"));
    }

    #[test]
    fn double_completion_is_rejected() {
        let t = vec![begun(1, None), completed(1), completed(1)];
        assert!(replay(&t)[0].detail.contains("twice"));
    }

    #[test]
    fn completion_without_begin_is_rejected() {
        assert!(replay(&[completed(7)])[0].detail.contains("never began"));
    }

    #[test]
    fn beginning_under_a_completed_parent_is_rejected() {
        let t = vec![begun(1, None), completed(1), begun(2, Some(1))];
        assert!(replay(&t)[0].detail.contains("completed parent"));
    }
}
