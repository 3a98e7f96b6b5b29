//! Transaction identifiers with nesting-aware branch paths.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Identity of a transaction: a top-level sequence number plus the branch
/// path of subtransaction indices below it.
///
/// `tx-7` is a top-level transaction; `tx-7.0.2` is the third subtransaction
/// of the first subtransaction of `tx-7`. The path encoding makes ancestry
/// checks cheap, which both the nested-commit machinery and the Activity
/// Service's context propagation rely on.
///
/// Equality and hashing are written by hand (DESIGN.md §18): a derived `==`
/// compares the branches with the C library's `memcmp` even when both are
/// empty, as they are for every top-level transaction, and on some machines
/// that call costs a hundred times the comparison itself.
#[derive(Debug, Clone, Eq, PartialOrd, Ord)]
pub struct TxId {
    top: u64,
    branch: Vec<u32>,
}

impl PartialEq for TxId {
    fn eq(&self, other: &Self) -> bool {
        self.top == other.top
            && self.branch.len() == other.branch.len()
            && starts_with(&self.branch, &other.branch)
    }
}

/// Whether `branch` begins with `prefix`, compared element by element:
/// slice `==` (and `<[u32]>::starts_with`) would call `memcmp`, even for an
/// empty prefix.
fn starts_with(branch: &[u32], prefix: &[u32]) -> bool {
    branch.len() >= prefix.len() && branch.iter().zip(prefix).all(|(a, b)| a == b)
}

impl Hash for TxId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.top);
        state.write_usize(self.branch.len());
        for index in &self.branch {
            state.write_u32(*index);
        }
    }
}

/// A table keyed by transaction id, hashed with [`TxIdHasher`].
pub(crate) type TxMap<V> = HashMap<TxId, V, BuildHasherDefault<TxIdHasher>>;

/// A multiply-rotate hasher (the Fx scheme) for [`TxId`]s: a few integers
/// the service itself numbers, so flooding resistance buys nothing and
/// SipHash's rounds are pure cost. Keys that come from applications keep
/// the standard hasher.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TxIdHasher(u64);

impl TxIdHasher {
    const SEED: u64 = 0x517c_c1b7_2722_0a95;
}

impl Hasher for TxIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.write_u64(u64::from(*byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(Self::SEED);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
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
            && starts_with(&other.branch, &self.branch)
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
        let mut m = TxMap::default();
        m.insert(TxId::top_level(1).child(0), "x");
        assert_eq!(m.get(&TxId::top_level(1).child(0)), Some(&"x"));
        assert_eq!(m.get(&TxId::top_level(1)), None);
    }

    #[test]
    fn a_top_level_id_is_not_its_first_child() {
        let (top, child) = (TxId::top_level(7), TxId::top_level(7).child(0));
        assert_ne!(top, child);
        assert_ne!(top.cmp(&child), std::cmp::Ordering::Equal);
        assert_ne!(hash_with::<TxIdHasher>(&top), hash_with::<TxIdHasher>(&child));
    }

    fn hash_with<H: Hasher + Default>(tx: &TxId) -> u64 {
        let mut hasher = H::default();
        tx.hash(&mut hasher);
        hasher.finish()
    }

    /// Ids from a small space, so that equal ids, ids sharing `top`, empty
    /// branches and branches that are prefixes of each other all come often.
    fn arb_txid() -> proptest::strategy::BoxedStrategy<TxId> {
        use proptest::prelude::*;
        (0u64..3, proptest::collection::vec(0u32..3, 0..4))
            .prop_map(|(top, branch)| TxId { top, branch })
            .boxed()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]
        fn equality_ordering_hashing_and_ancestry_agree(a in arb_txid(), b in arb_txid()) {
            let fields_equal = a.top == b.top && a.branch == b.branch;
            proptest::prop_assert_eq!(a == b, fields_equal);
            proptest::prop_assert_eq!(a.cmp(&b) == std::cmp::Ordering::Equal, fields_equal);
            proptest::prop_assert_eq!(
                a.is_ancestor_of(&b),
                a.top == b.top && a.branch.len() < b.branch.len() && b.branch.starts_with(&a.branch)
            );
            if a == b {
                proptest::prop_assert_eq!(hash_with::<TxIdHasher>(&a), hash_with::<TxIdHasher>(&b));
                proptest::prop_assert_eq!(
                    hash_with::<std::collections::hash_map::DefaultHasher>(&a),
                    hash_with::<std::collections::hash_map::DefaultHasher>(&b)
                );
            }
        }

        fn a_tx_map_behaves_like_a_std_hash_map(
            script in proptest::collection::vec((0u8..3, arb_txid(), proptest::prelude::any::<u32>()), 0..64),
        ) {
            let mut tx_map = TxMap::default();
            let mut model = HashMap::new();
            for (op, tx, value) in script {
                match op {
                    0 => proptest::prop_assert_eq!(
                        tx_map.insert(tx.clone(), value),
                        model.insert(tx, value)
                    ),
                    1 => proptest::prop_assert_eq!(tx_map.get(&tx), model.get(&tx)),
                    _ => proptest::prop_assert_eq!(tx_map.remove(&tx), model.remove(&tx)),
                }
                proptest::prop_assert_eq!(tx_map.len(), model.len());
            }
        }
    }
}
