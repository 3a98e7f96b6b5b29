//! A reusable worker pool for parallel fan-out with deterministic,
//! in-order result collation.
//!
//! Both coordination hot paths in this repo — the Activity Service's
//! fig. 5 signal loop and the OTS two-phase commit — transmit to a set
//! of independent participants and then consume the results *in
//! registration order* so protocol decisions and traces stay
//! deterministic. This module provides the shared machinery:
//!
//! * [`DispatchConfig`] — how wide to fan out (`1` = exact serial
//!   legacy behaviour, the default is the machine's available
//!   parallelism);
//! * [`WorkerPool`] — long-lived worker threads behind a global,
//!   lazily-created instance ([`WorkerPool::global`]), so short-lived
//!   coordinators never pay thread spawn/teardown;
//! * [`WorkerPool::scatter`] — submit a batch of indexed tasks and get
//!   an [`OrderedResults`] iterator that yields outcomes in submission
//!   order as they become available;
//! * [`CancelToken`] — cooperative cancellation: tasks not yet started
//!   when the token fires are skipped (the `EarlyBreak` optimisation:
//!   once a protocol engine asks for the next signal, outstanding
//!   deliveries of the current one are abandoned).
//!
//! Waiting collators **help**: while blocked on a result, the waiting
//! thread pulls queued jobs (from any batch) and runs them itself. This
//! makes nested dispatch — an action or resource that itself drives
//! another coordinator — deadlock-free even when every worker thread is
//! busy, and lets a zero-contention benchmark saturate the machine.
//!
//! Panic semantics mirror serial execution: a task panic is captured on
//! the worker and re-raised on the collating thread at the panicking
//! task's position in the order. Panics in tasks past a cancellation
//! point are discarded along with their results (speculative deliveries
//! are covered by the at-least-once/idempotence contract, §3.4 of the
//! paper).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// How a coordinator fans work out to its participants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchConfig {
    workers: usize,
}

impl DispatchConfig {
    /// Fan out across the machine's available parallelism.
    ///
    /// The width is fixed at first use: the CPU count is read once per
    /// process (on Linux each read walks the affinity mask and the cgroup
    /// quota files — syscalls and allocations no per-activity default may
    /// cost), so a later change to the affinity mask or the quota is not
    /// seen, exactly as [`WorkerPool::global`] is sized once.
    pub fn parallel() -> Self {
        static WORKERS: OnceLock<usize> = OnceLock::new();
        let workers = *WORKERS.get_or_init(|| {
            std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
        });
        DispatchConfig { workers }
    }

    /// Exact legacy serial behaviour: everything runs inline on the
    /// calling thread, in registration order, stopping at the first
    /// early break. Deterministic-replay tests use this.
    pub fn serial() -> Self {
        DispatchConfig { workers: 1 }
    }

    /// Fan out across at most `workers` concurrent tasks (`1` = serial).
    pub fn with_workers(workers: usize) -> Self {
        DispatchConfig { workers: workers.max(1) }
    }

    /// Configured fan-out width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether this config requests the inline serial path.
    pub fn is_serial(&self) -> bool {
        self.workers == 1
    }
}

impl Default for DispatchConfig {
    fn default() -> Self {
        DispatchConfig::parallel()
    }
}

/// Cooperative cancellation flag shared between a collator and the
/// batch's not-yet-started tasks.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fire the token: tasks that have not started yet are skipped.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// What became of one scattered task.
pub enum TaskOutcome<T> {
    /// The task ran to completion.
    Done(T),
    /// The task was skipped because its batch was cancelled first.
    Cancelled,
    /// The task panicked; the payload re-raises at the collation point.
    Panicked(Box<dyn std::any::Any + Send>),
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// A set of long-lived worker threads consuming a shared job queue.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.workers).finish()
    }
}

impl WorkerPool {
    /// A pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("orb-dispatch-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn dispatch worker")
            })
            .collect();
        WorkerPool { shared, workers, handles: Mutex::new(handles) }
    }

    /// The process-wide shared pool, created on first use and sized to
    /// the machine's available parallelism. Coordinators use this so
    /// that creating a coordinator never spawns threads.
    pub fn global() -> &'static WorkerPool {
        WorkerPool::shared(DispatchConfig::parallel().workers())
    }

    /// A process-wide pool with exactly `workers` threads, created on
    /// first use and cached for the process lifetime. Dispatch honours
    /// [`DispatchConfig::workers`] through this: participant calls model
    /// *remote invocations*, so a fan-out wider than the core count is
    /// meaningful — the threads overlap latency, not CPU.
    pub fn shared(workers: usize) -> &'static WorkerPool {
        static POOLS: OnceLock<Mutex<HashMap<usize, &'static WorkerPool>>> = OnceLock::new();
        let workers = workers.max(1);
        let mut pools = POOLS
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        pools
            .entry(workers)
            .or_insert_with(|| Box::leak(Box::new(WorkerPool::new(workers))))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueue one job.
    fn submit(&self, job: Job) {
        let mut queue = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.push_back(job);
        drop(queue);
        self.shared.available.notify_one();
    }

    /// Pop and run one queued job on the calling thread, if any is
    /// waiting. Used by collators to help while they block, which keeps
    /// nested dispatch deadlock-free.
    fn try_run_one(&self) -> bool {
        let job = {
            let mut queue = self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.pop_front()
        };
        match job {
            Some(job) => {
                job();
                true
            }
            None => false,
        }
    }

    /// Run every task on the pool, tagged with its index. The returned
    /// [`OrderedResults`] yields one [`TaskOutcome`] per task **in
    /// submission order**, blocking (and helping with queued work) as
    /// needed. Tasks observe `cancel` before starting: once it fires,
    /// unstarted tasks report [`TaskOutcome::Cancelled`] without running.
    pub fn scatter<T: Send + 'static>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
        cancel: &CancelToken,
    ) -> OrderedResults<'_, T> {
        let total = tasks.len();
        let (tx, rx): (Sender<(usize, TaskOutcome<T>)>, Receiver<_>) = std::sync::mpsc::channel();
        for (index, task) in tasks.into_iter().enumerate() {
            let tx = tx.clone();
            let cancel = cancel.clone();
            self.submit(Box::new(move || {
                let outcome = if cancel.is_cancelled() {
                    TaskOutcome::Cancelled
                } else {
                    match catch_unwind(AssertUnwindSafe(task)) {
                        Ok(value) => TaskOutcome::Done(value),
                        Err(payload) => TaskOutcome::Panicked(payload),
                    }
                };
                // The collator may have stopped listening (early break);
                // a closed channel is expected then.
                let _ = tx.send((index, outcome));
            }));
        }
        OrderedResults { pool: self, rx, buffer: BTreeMap::new(), next: 0, total }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        let handles = std::mem::take(
            &mut *self.handles.lock().unwrap_or_else(PoisonError::into_inner),
        );
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Jobs catch their own panics; this is a backstop so a worker
        // never dies and strands the queue.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// In-order consumer for one [`WorkerPool::scatter`] batch.
///
/// Dropping it early (after a cancellation) is fine: outstanding tasks
/// find the channel closed and their results are discarded.
pub struct OrderedResults<'p, T> {
    pool: &'p WorkerPool,
    rx: Receiver<(usize, TaskOutcome<T>)>,
    buffer: BTreeMap<usize, TaskOutcome<T>>,
    next: usize,
    total: usize,
}

impl<T> Iterator for OrderedResults<'_, T> {
    type Item = TaskOutcome<T>;

    /// The next task's outcome, in submission order. Returns `None`
    /// once every task has been yielded. Blocks until the outcome is
    /// available, running queued pool jobs on this thread while waiting.
    fn next(&mut self) -> Option<TaskOutcome<T>> {
        if self.next >= self.total {
            return None;
        }
        loop {
            if let Some(outcome) = self.buffer.remove(&self.next) {
                self.next += 1;
                return Some(outcome);
            }
            match self.rx.try_recv() {
                Ok((index, outcome)) => {
                    self.buffer.insert(index, outcome);
                }
                Err(TryRecvError::Empty) => {
                    // Help with queued work instead of spinning; park
                    // briefly only when the queue is dry too.
                    if !self.pool.try_run_one() {
                        match self.rx.recv_timeout(Duration::from_micros(100)) {
                            Ok((index, outcome)) => {
                                self.buffer.insert(index, outcome);
                            }
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => {
                                unreachable!(
                                    "scatter task {} vanished without reporting", self.next
                                );
                            }
                        }
                    }
                }
                Err(TryRecvError::Disconnected) => {
                    unreachable!("scatter task {} vanished without reporting", self.next);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_width_is_read_once() {
        let width = DispatchConfig::parallel();
        assert!(width.workers() >= 1);
        assert_eq!(DispatchConfig::default(), width);
        assert_eq!(WorkerPool::global().workers(), width.workers());
    }
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scatter_collates_in_submission_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..32usize)
            .map(|i| {
                Box::new(move || {
                    // Finish later tasks first to force reorder buffering.
                    std::thread::sleep(Duration::from_micros(((32 - i) * 50) as u64));
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let mut results = pool.scatter(tasks, &CancelToken::new());
        for expect in 0..32 {
            match results.next() {
                Some(TaskOutcome::Done(i)) => assert_eq!(i, expect),
                _ => panic!("task {expect} did not complete"),
            }
        }
        assert!(results.next().is_none());
    }

    #[test]
    fn cancellation_skips_unstarted_tasks() {
        let pool = WorkerPool::new(1);
        let cancel = CancelToken::new();
        let ran = Arc::new(AtomicUsize::new(0));
        // One slow task holds the single worker; the rest are queued
        // behind it when the token fires.
        let mut tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = Vec::new();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let started = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            let ran = Arc::clone(&ran);
            let started = Arc::clone(&started);
            tasks.push(Box::new(move || {
                started.store(true, Ordering::SeqCst);
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                ran.fetch_add(1, Ordering::SeqCst);
                0
            }));
        }
        for i in 1..8usize {
            let ran = Arc::clone(&ran);
            tasks.push(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
                i
            }));
        }
        let mut results = pool.scatter(tasks, &cancel);
        // Only cancel once the worker is inside task 0, so index 0 is
        // deterministically Done and the rest deterministically queued.
        while !started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        cancel.cancel();
        // Release the gate; the queued tasks now see the fired token.
        {
            let (lock, cv) = &*gate.clone();
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        // First task ran (it started before the cancel); collation
        // must still see every index.
        assert!(matches!(results.next(), Some(TaskOutcome::Done(0))));
        let mut cancelled = 0;
        for outcome in results {
            if matches!(outcome, TaskOutcome::Cancelled) {
                cancelled += 1;
            }
        }
        assert!(cancelled > 0, "queued tasks should have been skipped");
        assert!(ran.load(Ordering::SeqCst) < 8, "not every task may run after cancel");
    }

    #[test]
    fn panics_surface_at_the_right_index() {
        let pool = WorkerPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 10),
            Box::new(|| panic!("boom at 1")),
            Box::new(|| 12),
        ];
        let mut results = pool.scatter(tasks, &CancelToken::new());
        assert!(matches!(results.next(), Some(TaskOutcome::Done(10))));
        match results.next() {
            Some(TaskOutcome::Panicked(payload)) => {
                let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
                assert_eq!(msg, "boom at 1");
            }
            _ => panic!("expected the panic at index 1"),
        }
        assert!(matches!(results.next(), Some(TaskOutcome::Done(12))));
    }

    #[test]
    fn nested_scatter_does_not_deadlock() {
        // Every worker blocks in a collation that needs further pool
        // work; progress then relies on collators helping.
        let pool = WorkerPool::global();
        let width = pool.workers() + 2;
        let outer: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..width)
            .map(|i| {
                Box::new(move || {
                    let inner: Vec<Box<dyn FnOnce() -> usize + Send>> =
                        (0..4).map(|j| Box::new(move || i * 10 + j) as _).collect();
                    let mut results = WorkerPool::global().scatter(inner, &CancelToken::new());
                    let mut sum = 0;
                    while let Some(TaskOutcome::Done(v)) = results.next() {
                        sum += v;
                    }
                    sum
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let mut results = pool.scatter(outer, &CancelToken::new());
        for i in 0..width {
            match results.next() {
                Some(TaskOutcome::Done(sum)) => assert_eq!(sum, i * 40 + 6),
                _ => panic!("outer task {i} failed"),
            }
        }
    }

    #[test]
    fn dispatch_config_defaults() {
        assert!(DispatchConfig::serial().is_serial());
        assert_eq!(DispatchConfig::with_workers(0).workers(), 1);
        assert!(DispatchConfig::default().workers() >= 1);
        assert!(!DispatchConfig::with_workers(8).is_serial());
    }
}
