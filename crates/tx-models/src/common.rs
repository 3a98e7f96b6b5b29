//! Shared vocabulary for the extended transaction models of §4.

/// Signal name: phase one of two-phase commit (figs. 8 and 11).
pub const SIG_PREPARE: &str = "prepare";
/// Signal name: phase two, forward (fig. 8).
pub const SIG_COMMIT: &str = "commit";
/// Signal name: phase two, backward (fig. 8).
pub const SIG_ROLLBACK: &str = "rollback";
/// Signal name: BTP confirm (fig. 12).
pub const SIG_CONFIRM: &str = "confirm";
/// Signal name: BTP cancel (fig. 12).
pub const SIG_CANCEL: &str = "cancel";

/// Signal name: §4.2 completion with no dependencies.
pub const SIG_SUCCESS: &str = "success";
/// Signal name: §4.2 abnormal completion.
pub const SIG_FAILURE: &str = "failure";
/// Signal name: §4.2 successful completion with outstanding dependencies;
/// payload carries the activity to re-register with.
pub const SIG_PROPAGATE: &str = "propagate";

/// Signal name: workflow coordination (§4.4, fig. 10).
pub const SIG_START: &str = "start";
/// Acknowledgement of [`SIG_START`].
pub const SIG_START_ACK: &str = "start_ack";
/// Child → parent completion notification.
pub const SIG_OUTCOME: &str = "outcome";
/// Acknowledgement of [`SIG_OUTCOME`].
pub const SIG_OUTCOME_ACK: &str = "outcome_ack";

/// Signal name: LRUOW rehearsal freeze (§4.3).
pub const SIG_END_REHEARSAL: &str = "end_rehearsal";
/// Signal name: LRUOW performance phase (§4.3).
pub const SIG_PERFORM: &str = "perform";

/// Signal name: saga compensation step.
pub const SIG_COMPENSATE: &str = "compensate";

/// Outcome name: a participant voted read-only in phase one.
pub const OUT_READ_ONLY: &str = "read_only";
/// Outcome name: collated "transaction committed".
pub const OUT_COMMITTED: &str = "committed";
/// Outcome name: collated "transaction rolled back".
pub const OUT_ROLLED_BACK: &str = "rolled_back";
/// Outcome name: commit was decided, but some participant failed to
/// apply it — the outcome is no longer known to be atomic.
pub const OUT_HEURISTIC_HAZARD: &str = "heuristic_hazard";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        let all = [
            SIG_PREPARE,
            SIG_COMMIT,
            SIG_ROLLBACK,
            SIG_CONFIRM,
            SIG_CANCEL,
            SIG_SUCCESS,
            SIG_FAILURE,
            SIG_PROPAGATE,
            SIG_START,
            SIG_START_ACK,
            SIG_OUTCOME,
            SIG_OUTCOME_ACK,
            SIG_END_REHEARSAL,
            SIG_PERFORM,
            SIG_COMPENSATE,
        ];
        let unique: std::collections::HashSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
    }
}
