//! The terminator: the completion half of a transaction's control.

use std::sync::Arc;

use crate::coordinator::{Coordinator, TxOutcome};
use crate::error::TxError;

/// Ends a transaction (mirrors CosTransactions::Terminator).
///
/// Separated from [`Coordinator`] so that the *creator* of a transaction can
/// keep termination rights to itself while handing the coordinator (for
/// registration) to anyone.
#[derive(Debug, Clone)]
pub struct Terminator {
    coordinator: Arc<Coordinator>,
}

impl Terminator {
    pub(crate) fn new(coordinator: Arc<Coordinator>) -> Self {
        Terminator { coordinator }
    }

    /// Commit, reporting heuristic hazards.
    ///
    /// # Errors
    ///
    /// See [`Coordinator::commit`].
    pub fn commit(&self) -> Result<TxOutcome, TxError> {
        self.coordinator.commit(true)
    }

    /// Roll back.
    ///
    /// # Errors
    ///
    /// See [`Coordinator::rollback`].
    pub fn rollback(&self) -> Result<TxOutcome, TxError> {
        self.coordinator.rollback()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::TxStatus;
    use crate::xid::TxId;

    #[test]
    fn terminator_drives_coordinator() {
        let c = Coordinator::new_top_level(
            TxId::top_level(1),
            None,
            orb::Env::new(),
            None,
            orb::pool::DispatchConfig::default(),
        );
        let t = Terminator::new(Arc::clone(&c));
        assert_eq!(t.commit().unwrap(), TxOutcome::Committed);
        assert_eq!(c.status(), TxStatus::Committed);
    }

    #[test]
    fn terminator_rollback() {
        let c = Coordinator::new_top_level(
            TxId::top_level(2),
            None,
            orb::Env::new(),
            None,
            orb::pool::DispatchConfig::default(),
        );
        let t = Terminator::new(Arc::clone(&c));
        assert_eq!(t.rollback().unwrap(), TxOutcome::RolledBack);
        assert_eq!(c.status(), TxStatus::RolledBack);
    }
}
