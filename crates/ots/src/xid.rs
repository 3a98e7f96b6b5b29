//! Transaction identifiers with nesting-aware branch paths.

use std::fmt;

/// Identity of a transaction: a top-level sequence number plus the branch
/// path of subtransaction indices below it.
///
/// `tx-7` is a top-level transaction; `tx-7.0.2` is the third subtransaction
/// of the first subtransaction of `tx-7`. The path encoding makes ancestry
/// checks cheap, which both the nested-commit machinery and the Activity
/// Service's context propagation rely on.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId {
    top: u64,
    branch: Vec<u32>,
}

impl TxId {
    /// A top-level transaction id.
    pub fn top_level(top: u64) -> Self {
        TxId { top, branch: Vec::new() }
    }

    /// The id of this transaction's `index`-th subtransaction.
    #[must_use]
    pub fn child(&self, index: u32) -> Self {
        let mut branch = self.branch.clone();
        branch.push(index);
        TxId { top: self.top, branch }
    }

    /// The enclosing transaction's id, or `None` for a top-level one.
    pub fn parent(&self) -> Option<TxId> {
        if self.branch.is_empty() {
            None
        } else {
            let mut branch = self.branch.clone();
            branch.pop();
            Some(TxId { top: self.top, branch })
        }
    }

    /// The top-level ancestor (self, when already top-level).
    pub fn top_level_ancestor(&self) -> TxId {
        TxId::top_level(self.top)
    }

    /// Whether this is a top-level transaction.
    pub fn is_top_level(&self) -> bool {
        self.branch.is_empty()
    }

    /// Nesting depth: 0 for top-level.
    pub fn depth(&self) -> usize {
        self.branch.len()
    }

    /// Whether `self` is a proper ancestor of `other`.
    pub fn is_ancestor_of(&self, other: &TxId) -> bool {
        self.top == other.top
            && self.branch.len() < other.branch.len()
            && other.branch[..self.branch.len()] == self.branch[..]
    }

    /// Whether `self` and `other` belong to the same top-level transaction.
    pub fn same_family(&self, other: &TxId) -> bool {
        self.top == other.top
    }

    /// The raw top-level sequence number.
    pub fn top_seq(&self) -> u64 {
        self.top
    }

    /// The subtransaction indices below the top-level transaction, outermost
    /// first (empty for a top-level id).
    pub fn branch(&self) -> &[u32] {
        &self.branch
    }

    /// This transaction as the origin of the protocol steps it emits.
    pub fn origin(&self) -> telemetry::Origin {
        telemetry::Origin::Transaction { top: self.top, branch: self.branch.clone() }
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx-{}", self.top)?;
        for b in &self.branch {
            write!(f, ".{b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_child_roundtrip() {
        let top = TxId::top_level(7);
        assert!(top.is_top_level());
        assert_eq!(top.parent(), None);
        assert_eq!(top.depth(), 0);

        let child = top.child(0);
        assert!(!child.is_top_level());
        assert_eq!(child.depth(), 1);
        assert_eq!(child.parent(), Some(top.clone()));

        let grandchild = child.child(2);
        assert_eq!(grandchild.parent(), Some(child.clone()));
        assert_eq!(grandchild.top_level_ancestor(), top);
    }

    #[test]
    fn ancestry() {
        let a = TxId::top_level(1);
        let b = a.child(0);
        let c = b.child(1);
        assert!(a.is_ancestor_of(&b));
        assert!(a.is_ancestor_of(&c));
        assert!(b.is_ancestor_of(&c));
        assert!(!c.is_ancestor_of(&b));
        assert!(!a.is_ancestor_of(&a), "not a PROPER ancestor of itself");
        assert!(!a.is_ancestor_of(&TxId::top_level(2).child(0)));
        // Sibling branches are not ancestors.
        assert!(!a.child(0).is_ancestor_of(&a.child(1)));
        assert!(a.same_family(&c));
        assert!(!a.same_family(&TxId::top_level(2)));
    }

    #[test]
    fn display() {
        assert_eq!(TxId::top_level(3).to_string(), "tx-3");
        assert_eq!(TxId::top_level(3).child(0).child(2).to_string(), "tx-3.0.2");
    }

    #[test]
    fn usable_as_map_key() {
        let mut m = std::collections::HashMap::new();
        m.insert(TxId::top_level(1).child(0), "x");
        assert_eq!(m.get(&TxId::top_level(1).child(0)), Some(&"x"));
        assert_eq!(m.get(&TxId::top_level(1)), None);
    }
}
