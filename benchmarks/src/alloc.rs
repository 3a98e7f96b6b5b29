//! Counting `#[global_allocator]` with per-thread counters.
//!
//! Every thread that allocates claims its own cache-line-padded slot, so the
//! two `remote_2pc_durable` clients (and the dispatch pool's workers) never
//! write the same line. A slot has one writer, so the bump is a plain
//! load + store rather than a locked read-modify-write; readers sum the
//! slots at round end. Threads past the slot table share the last slot and
//! fall back to `fetch_add` there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const SLOTS: usize = 256;
const SHARED: usize = SLOTS - 1;

#[repr(align(128))]
struct Slot(AtomicU64);

static COUNTS: [Slot; SLOTS] = [const { Slot(AtomicU64::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so the allocator can read
    // it at any point of a thread's life without allocating.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn slot() -> usize {
    MY_SLOT
        .try_with(|mine| {
            if mine.get() == usize::MAX {
                // Relaxed: the index publishes no other data.
                mine.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed).min(SHARED));
            }
            mine.get()
        })
        .unwrap_or(SHARED)
}

#[inline]
fn bump() {
    let index = slot();
    let count = &COUNTS[index].0;
    // Relaxed throughout: the counters are statistics.
    if index == SHARED {
        count.fetch_add(1, Ordering::Relaxed);
    } else {
        count.store(count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
}

/// The system allocator, counting every allocation request (`alloc`,
/// `alloc_zeroed` and `realloc`; frees are not counted).
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter bump touches only a static
// atomic and a destructor-free thread-local, so it neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made so far by the calling thread.
pub fn thread_allocs() -> u64 {
    COUNTS[slot()].0.load(Ordering::Relaxed)
}

/// Allocations made so far by every thread of the process.
pub fn total_allocs() -> u64 {
    COUNTS
        .iter()
        .map(|slot| slot.0.load(Ordering::Relaxed))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_boxed_value_is_one_allocation_on_this_thread() {
        let before = thread_allocs();
        let boxed = std::hint::black_box(Box::new(7u64));
        assert_eq!(thread_allocs() - before, 1);
        drop(boxed);
        assert_eq!(thread_allocs() - before, 1, "frees are not counted");
    }

    #[test]
    fn other_threads_count_in_their_own_slot_and_in_the_total() {
        let mine = thread_allocs();
        let total = total_allocs();
        std::thread::spawn(|| {
            let before = thread_allocs();
            let v = std::hint::black_box(vec![1u8; 32]);
            assert_eq!(thread_allocs() - before, 1);
            drop(v);
        })
        .join()
        .expect("counting thread");
        assert!(total_allocs() > total);
        // Spawning allocates on this thread too; the point is that the
        // child's vector did not land in this thread's slot as a write race.
        assert!(thread_allocs() >= mine);
    }
}
