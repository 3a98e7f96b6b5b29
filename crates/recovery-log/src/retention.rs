//! Retention: which prefix of a log nobody needs any more.
//!
//! Every component that appends to a log takes a [`Hold`] on it
//! ([`crate::Wal::hold`]) and moves the hold up as its oldest unfinished
//! unit of work moves; the log drops the prefix below the minimum over its
//! live holds — the *low-water mark* — by itself. A hold starts at LSN 0
//! ("needs everything"), so a component that never releases pins the log:
//! sharing one log between components is safe by construction.
//!
//! Holds are volatile. A dropped hold leaves the registry with its
//! component and releases nothing; after a restart every component takes a
//! fresh hold at LSN 0 before any of them releases.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::LogError;
use crate::record::Lsn;

/// A log's storage as its holds see it, behind the log's one lock.
pub(crate) trait Retained: Send + std::fmt::Debug {
    fn holds(&mut self) -> &mut Holds;
    /// Drop every record below `low_water`.
    fn drop_below(&mut self, low_water: u64) -> Result<(), LogError>;
}

/// The holds registered on one log and the low-water mark they imply.
#[derive(Debug, Default)]
pub(crate) struct Holds {
    /// The LSN each live hold needs from; `None` for a dropped hold's slot.
    held: Vec<Option<u64>>,
    low_water: u64,
}

impl Holds {
    /// Register a hold at LSN 0.
    fn take(&mut self) -> usize {
        let slot = self.held.iter().position(Option::is_none).unwrap_or(self.held.len());
        if slot == self.held.len() {
            self.held.push(None);
        }
        self.held[slot] = Some(0);
        slot
    }

    /// Move `slot` up to `below` (a hold never moves down) and return the
    /// low-water mark: the minimum over the live holds, never falling.
    fn release(&mut self, slot: usize, below: u64) -> u64 {
        self.held[slot] = self.held[slot].max(Some(below));
        let floor = self.held.iter().flatten().copied().min().unwrap_or(0);
        self.raise(floor)
    }

    /// Raise the low-water mark to `to` (the sink-level `truncate_prefix`
    /// does, past the holds) and return it.
    pub(crate) fn raise(&mut self, to: u64) -> u64 {
        self.low_water = self.low_water.max(to);
        self.low_water
    }
}

/// One component's claim on a log's records, from [`crate::Wal::hold`].
/// Dropping it removes the claim with its component and releases nothing.
#[derive(Debug)]
pub struct Hold {
    log: Arc<Mutex<dyn Retained>>,
    slot: usize,
    /// A batching decorator's durable LSN: a release stops there rather
    /// than wait for (or force) a flush.
    durable: Option<Arc<AtomicU64>>,
}

impl Hold {
    /// Register a holder of `log` at LSN 0.
    pub(crate) fn on(log: Arc<Mutex<dyn Retained>>) -> Self {
        let slot = log.lock().holds().take();
        Hold { log, slot, durable: None }
    }

    /// Release nothing past `durable`, which the forwarding decorator updates.
    pub(crate) fn capped_at(mut self, durable: Arc<AtomicU64>) -> Self {
        self.durable = Some(durable);
        self
    }

    /// This holder needs no record below `lsn` any more. The log drops
    /// whatever no other holder needs either; a hold never moves down, so a
    /// stale or repeated release is a no-op.
    ///
    /// # Errors
    ///
    /// [`LogError::Io`] when a file log's compaction cannot be persisted
    /// (the records stay; the hold has moved).
    pub fn release_below(&self, lsn: Lsn) -> Result<(), LogError> {
        let durable = self.durable.as_ref().map_or(u64::MAX, |d| d.load(Ordering::Acquire));
        let mut log = self.log.lock();
        let low_water = log.holds().release(self.slot, lsn.raw().min(durable.saturating_add(1)));
        log.drop_below(low_water)
    }

    /// The log's low-water mark: every record below it has been released.
    pub fn low_water(&self) -> Lsn {
        Lsn::new(self.log.lock().holds().low_water)
    }
}

impl Drop for Hold {
    fn drop(&mut self) {
        self.log.lock().holds().held[self.slot] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_slowest_hold_sets_the_low_water_mark() {
        let mut holds = Holds::default();
        let (a, b) = (holds.take(), holds.take());
        assert_eq!(holds.release(a, 10), 0, "b still needs everything");
        assert_eq!(holds.release(b, 4), 4);
        assert_eq!(holds.release(b, 20), 10, "now a is the slowest");
        assert_eq!(holds.release(a, 3), 10, "a hold never moves down");
    }

    #[test]
    fn a_dropped_hold_releases_nothing_and_its_slot_is_reused() {
        let mut holds = Holds::default();
        let (a, b) = (holds.take(), holds.take());
        holds.release(a, 7);
        holds.held[b] = None;
        assert_eq!(holds.low_water, 0, "dropping the pin moved nothing");
        assert_eq!(holds.take(), b);
        assert_eq!(holds.release(a, 9), 0, "the fresh hold starts at LSN 0");
        assert_eq!(holds.release(b, 8), 8);
        // A hold taken after records were released cannot bring them back.
        let late = holds.take();
        assert_eq!(holds.release(late, 0), 8);
    }
}
