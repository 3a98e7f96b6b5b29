//! Reference model of §5.1 saga compensation.
//!
//! A saga commits each forward step as it goes; on failure it runs the
//! compensators of every committed step in **reverse commit order**. The
//! rules transcribed here:
//!
//! 1. a step is compensated only if it committed, and compensations pop
//!    the committed stack — strictly newest-first;
//! 2. a saga that ends `completed` compensated nothing;
//! 3. a saga that ends aborted compensated **every** committed step
//!    (no orphaned forward effects).
//!
//! No protocol step is emitted for a saga step, so this machine is fed by
//! what a saga reports: the steps it committed, the compensations it ran,
//! each in execution order, and whether it completed. Forward steps commit
//! strictly before any compensation runs, so the two lists in that order
//! are the temporal order.

use super::SpecViolation;

/// Replay one saga's report, stopping at the first divergence;
/// `event_index` counts commits, then compensations, then the ending.
#[must_use]
pub fn replay(committed: &[String], compensated: &[String], completed: bool) -> Vec<SpecViolation> {
    let reject = |index: usize, detail: String| {
        vec![SpecViolation { model: "saga", event_index: index, detail }]
    };
    let mut stack: Vec<&String> = committed.iter().collect();
    for (offset, step) in compensated.iter().enumerate() {
        let index = committed.len() + offset;
        match stack.pop() {
            Some(top) if top == step => {}
            Some(top) => {
                return reject(
                    index,
                    format!("step {step} compensated out of order — {top} committed more recently"),
                );
            }
            None => return reject(index, format!("step {step} compensated but never committed")),
        }
    }
    let ending = committed.len() + compensated.len();
    if completed && !compensated.is_empty() {
        return reject(ending, "a completed saga must not have compensated".into());
    }
    if let (false, Some(orphan)) = (completed, stack.last()) {
        return reject(
            ending,
            format!("saga aborted with step {orphan} committed but not compensated"),
        );
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steps(names: &[&str]) -> Vec<String> {
        names.iter().map(|name| (*name).to_owned()).collect()
    }

    #[test]
    fn completed_saga_passes() {
        assert!(replay(&steps(&["taxi", "hotel"]), &[], true).is_empty());
    }

    #[test]
    fn reverse_order_compensation_passes() {
        let committed = steps(&["taxi", "restaurant"]);
        assert!(replay(&committed, &steps(&["restaurant", "taxi"]), false).is_empty());
    }

    #[test]
    fn forward_order_compensation_is_rejected() {
        let committed = steps(&["taxi", "restaurant"]);
        let violations = replay(&committed, &steps(&["taxi"]), false);
        assert!(violations[0].detail.contains("out of order"));
        assert_eq!(violations[0].event_index, 2);
    }

    #[test]
    fn aborting_with_an_uncompensated_step_is_rejected() {
        assert!(replay(&steps(&["taxi"]), &[], false)[0].detail.contains("not compensated"));
    }

    #[test]
    fn compensating_an_uncommitted_step_is_rejected() {
        assert!(replay(&[], &steps(&["hotel"]), false)[0].detail.contains("never committed"));
    }

    #[test]
    fn a_completed_saga_that_compensated_is_rejected() {
        let violations = replay(&steps(&["taxi"]), &steps(&["taxi"]), true);
        assert!(violations[0].detail.contains("must not have compensated"));
    }
}
