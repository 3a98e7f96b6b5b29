//! Receiver-side deduplication of redelivered requests.
//!
//! Retries ([`crate::retry`]) and network duplicates make every delivery
//! *at-least-once*; the [`DedupWindow`] turns at-least-once delivery into
//! **effect-once** processing at the receiver. Each logical request carries a
//! [`Request::delivery_id`](crate::Request::delivery_id) — every retry and
//! every duplicated copy shares the id — and the window memoizes the first
//! execution's result under that id, replaying it verbatim for redeliveries.
//!
//! This generalizes the activity service's `ExactlyOnceAction` (which pins
//! the same discipline to signal processing and persists its memo table in
//! the WAL so it survives replay) down to the ORB layer, where it covers
//! *any* servant — including the `prepare`/`commit`/`rollback` deliveries of
//! remote two-phase-commit participants. Durable receivers that must stay
//! deduplicated across a crash seed the window from their log at recovery
//! time with [`DedupWindow::seed`].
//!
//! Semantics shared with `ExactlyOnceAction`:
//!
//! * requests without a delivery id pass straight through (no id, no claim);
//! * only **successful** results are recorded — an error leaves no memo, so
//!   a retry genuinely re-executes;
//! * the window is bounded (FIFO eviction), because the sender's retry
//!   horizon is bounded by its policy's attempt budget and deadline.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::OrbError;
use crate::message::Request;
use crate::object::Servant;
use crate::value::Value;

/// Map key and eviction-queue entry of one id are the same shared text.
struct WindowInner {
    cached: HashMap<Arc<str>, Value>,
    order: VecDeque<Arc<str>>,
}

/// A bounded delivery-id → result memo table.
///
/// Cheap to share via `Arc`; all operations are deterministic.
pub struct DedupWindow {
    capacity: usize,
    inner: Mutex<WindowInner>,
}

impl std::fmt::Debug for DedupWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DedupWindow")
            .field("capacity", &self.capacity)
            .field("len", &self.inner.lock().cached.len())
            .finish()
    }
}

impl DedupWindow {
    /// A window remembering up to `capacity` delivery ids (at least 1).
    pub fn new(capacity: usize) -> Self {
        DedupWindow {
            capacity: capacity.max(1),
            inner: Mutex::new(WindowInner { cached: HashMap::new(), order: VecDeque::new() }),
        }
    }

    /// The memoized result for `delivery_id`, if this receiver already
    /// processed it.
    pub fn lookup(&self, delivery_id: &str) -> Option<Value> {
        self.inner.lock().cached.get(delivery_id).cloned()
    }

    /// Memoize `result` under `delivery_id`, evicting the oldest entry once
    /// past capacity. Recording the same id again refreshes the value
    /// without growing the window.
    pub fn record(&self, delivery_id: &str, result: Value) {
        self.record_shared(Arc::from(delivery_id), result);
    }

    /// [`DedupWindow::record`] for an id that already travels as a shared
    /// handle (a stamped request's): the window keeps the handle, not a copy.
    fn record_shared(&self, delivery_id: Arc<str>, result: Value) {
        let mut inner = self.inner.lock();
        if inner.cached.insert(Arc::clone(&delivery_id), result).is_none() {
            inner.order.push_back(delivery_id);
            while inner.order.len() > self.capacity {
                if let Some(evicted) = inner.order.pop_front() {
                    inner.cached.remove(&evicted);
                }
            }
        }
    }

    /// Pre-populate the window — the WAL-replay path: a durable receiver
    /// re-seeds the ids it already processed so post-crash redeliveries stay
    /// effect-once. Identical to [`DedupWindow::record`].
    pub fn seed(&self, delivery_id: &str, result: Value) {
        self.record(delivery_id, result);
    }

    /// Number of remembered delivery ids.
    pub fn len(&self) -> usize {
        self.inner.lock().cached.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the window's occupancy for the introspection plane.
    #[must_use]
    pub fn introspect(&self) -> String {
        format!("occupancy={}/{}\n", self.len(), self.capacity)
    }
}

/// Wraps any [`Servant`] with a [`DedupWindow`]: redeliveries of a stamped
/// request replay the memoized reply instead of re-executing.
pub struct DedupServant {
    inner: Arc<dyn Servant>,
    window: Arc<DedupWindow>,
}

impl DedupServant {
    /// Guard `inner` with `window`.
    pub fn new(inner: Arc<dyn Servant>, window: Arc<DedupWindow>) -> Self {
        DedupServant { inner, window }
    }

    /// The shared window (receivers seed it at recovery time).
    pub fn window(&self) -> &Arc<DedupWindow> {
        &self.window
    }
}

impl Servant for DedupServant {
    fn dispatch(&self, request: &Request) -> Result<Value, OrbError> {
        let Some(id) = request.shared_delivery_id() else {
            return self.inner.dispatch(request);
        };
        if let Some(memo) = self.window.lookup(id) {
            return Ok(memo);
        }
        let result = self.inner.dispatch(request)?;
        self.window.record_shared(Arc::clone(id), result.clone());
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn counting_servant(hits: Arc<AtomicU32>) -> Arc<dyn Servant> {
        Arc::new(move |req: &Request| match req.operation() {
            "hit" => Ok(Value::U64(u64::from(hits.fetch_add(1, Ordering::SeqCst) + 1))),
            _ => Err(OrbError::Application("refused".into())),
        })
    }

    #[test]
    fn stamped_redelivery_replays_the_memo() {
        let hits = Arc::new(AtomicU32::new(0));
        let servant =
            DedupServant::new(counting_servant(Arc::clone(&hits)), Arc::new(DedupWindow::new(8)));
        let req = Request::new("hit").with_delivery_id("d-1");
        assert_eq!(servant.dispatch(&req).unwrap(), Value::U64(1));
        assert_eq!(servant.dispatch(&req).unwrap(), Value::U64(1), "replayed, not re-run");
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // A different id is a different logical request.
        let req2 = Request::new("hit").with_delivery_id("d-2");
        assert_eq!(servant.dispatch(&req2).unwrap(), Value::U64(2));
    }

    #[test]
    fn the_window_keeps_the_requests_id_not_a_copy_of_it() {
        let hits = Arc::new(AtomicU32::new(0));
        let servant = DedupServant::new(counting_servant(hits), Arc::new(DedupWindow::new(8)));
        let id: Arc<str> = Arc::from("d-1");
        let req = Request::new("hit").with_delivery_id(Arc::clone(&id));
        servant.dispatch(&req).unwrap();
        assert_eq!(Arc::strong_count(&id), 4, "ours, the request's, the map key, the queue entry");
        assert_eq!(servant.window().lookup("d-1"), Some(Value::U64(1)));
    }

    #[test]
    fn unstamped_requests_pass_through() {
        let hits = Arc::new(AtomicU32::new(0));
        let servant =
            DedupServant::new(counting_servant(Arc::clone(&hits)), Arc::new(DedupWindow::new(8)));
        let req = Request::new("hit");
        servant.dispatch(&req).unwrap();
        servant.dispatch(&req).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 2, "no id, no dedup claim");
    }

    #[test]
    fn errors_are_not_memoized() {
        let hits = Arc::new(AtomicU32::new(0));
        let servant =
            DedupServant::new(counting_servant(Arc::clone(&hits)), Arc::new(DedupWindow::new(8)));
        let bad = Request::new("nope").with_delivery_id("d-err");
        assert!(servant.dispatch(&bad).is_err());
        assert_eq!(servant.window().len(), 0, "a failed execution leaves no memo");
    }

    #[test]
    fn window_is_bounded_fifo() {
        let window = DedupWindow::new(2);
        window.record("a", Value::U64(1));
        window.record("b", Value::U64(2));
        window.record("c", Value::U64(3));
        assert_eq!(window.len(), 2);
        assert!(window.lookup("a").is_none(), "oldest evicted");
        assert_eq!(window.lookup("c"), Some(Value::U64(3)));
        // Re-recording an existing id refreshes without eviction.
        window.record("c", Value::U64(4));
        assert_eq!(window.lookup("b"), Some(Value::U64(2)));
        assert_eq!(window.lookup("c"), Some(Value::U64(4)));
    }

    #[test]
    fn seeding_models_wal_replay() {
        let hits = Arc::new(AtomicU32::new(0));
        let window = Arc::new(DedupWindow::new(8));
        // "Recovery": the receiver replays its log and re-seeds processed ids.
        window.seed("processed-before-crash", Value::U64(41));
        let servant = DedupServant::new(counting_servant(Arc::clone(&hits)), window);
        let req = Request::new("hit").with_delivery_id("processed-before-crash");
        assert_eq!(servant.dispatch(&req).unwrap(), Value::U64(41));
        assert_eq!(hits.load(Ordering::SeqCst), 0, "post-replay redelivery is effect-free");
    }
}
