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
//! * [`Round`] — one round of deliveries, and the **only** place that
//!   decides between serial and scattered delivery: `take(i)` runs task
//!   `i` inline at width 1 and waits for scattered task `i` otherwise, so
//!   a protocol's collation loop is written once (DESIGN.md §8);
//! * [`WorkerPool::scatter`] — what a scattered round stands on: submit a
//!   batch of indexed tasks and get an [`OrderedResults`] iterator that
//!   yields outcomes in submission order as they become available;
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
        let mut tasks = tasks.into_iter();
        let total = tasks.len();
        self.scatter_each(total, |_| tasks.next().expect("one task per index"), cancel)
    }

    /// [`WorkerPool::scatter`] over tasks made on the spot: `task(index)`
    /// is what runs at `index`, and goes into its pool job unboxed.
    fn scatter_each<T: Send + 'static, J: FnOnce() -> T + Send + 'static>(
        &self,
        total: usize,
        mut task: impl FnMut(usize) -> J,
        cancel: &CancelToken,
    ) -> OrderedResults<'_, T> {
        let (tx, rx): (Sender<(usize, TaskOutcome<T>)>, Receiver<_>) = std::sync::mpsc::channel();
        for index in 0..total {
            let task = task(index);
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
        OrderedResults { pool: self, rx, buffer: BTreeMap::new(), received: 0, next: 0, total }
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
    /// How many tasks have reported so far (buffered or already yielded).
    received: usize,
    next: usize,
    total: usize,
}

impl<T> OrderedResults<'_, T> {
    /// Receive one more outcome into the buffer, if one arrives soon.
    /// While none does, help with queued pool work instead of spinning,
    /// and park briefly only when the queue is dry too.
    fn pump(&mut self) {
        let received = match self.rx.try_recv() {
            Ok(received) => received,
            Err(TryRecvError::Empty) if self.pool.try_run_one() => return,
            Err(TryRecvError::Empty) => {
                match self.rx.recv_timeout(Duration::from_micros(100)) {
                    Ok(received) => received,
                    Err(RecvTimeoutError::Timeout) => return,
                    Err(RecvTimeoutError::Disconnected) => {
                        unreachable!("a scatter task vanished without reporting");
                    }
                }
            }
            Err(TryRecvError::Disconnected) => {
                unreachable!("a scatter task vanished without reporting");
            }
        };
        self.received += 1;
        self.buffer.insert(received.0, received.1);
    }

    /// The outcome of task `index`, whichever order the tasks finish in.
    /// Blocks until it is available. Each index can be waited for once.
    fn wait_for(&mut self, index: usize) -> TaskOutcome<T> {
        loop {
            if let Some(outcome) = self.buffer.remove(&index) {
                return outcome;
            }
            assert!(self.received < self.total, "scatter task {index} was already collated");
            self.pump();
        }
    }

    /// Block until every task has reported.
    fn wait_all(&mut self) {
        while self.received < self.total {
            self.pump();
        }
    }
}

impl<T> Iterator for OrderedResults<'_, T> {
    type Item = TaskOutcome<T>;

    /// The next task's outcome, in submission order. Returns `None`
    /// once every task has been yielded.
    fn next(&mut self) -> Option<TaskOutcome<T>> {
        if self.next >= self.total {
            return None;
        }
        self.next += 1;
        Some(self.wait_for(self.next - 1))
    }
}

/// One round of `n` deliveries — the one place where "serial or
/// scattered" is decided, so that a protocol's collation loop
///
/// ```text
/// for i in order { before(i); let result = round.take(i); after(i, result); /* break to stop */ }
/// ```
///
/// is the same code under every [`DispatchConfig`]:
///
/// * at width 1 (or with at most one task) `take(i)` **runs task `i`
///   inline, now**: the caller's statements bracket the call exactly as in
///   a hand-written serial loop, a panic unwinds straight out of `take`,
///   and a `break` means the remaining tasks are never run at all. Nothing
///   is boxed, shared or sent — a width-1 round allocates nothing;
/// * otherwise every task was handed to the shared [`WorkerPool`] when the
///   round started and `take(i)` **waits for task `i`** (helping with
///   queued work meanwhile): the caller's statements bracket the wait, a
///   task's panic is re-raised at its own `take` and nowhere else, and
///   whatever is never taken is discarded, panics included.
///
/// How a round ends is the caller's protocol knowledge. Dropping it fires
/// its [`CancelToken`]: tasks that have not started are skipped and the
/// running ones finish unobserved, which at-least-once, idempotent signal
/// delivery permits (§3.4). [`Round::join`] instead waits for everything
/// that was asked — what 2PC needs before it tells a participant to roll
/// back. At width 1 the two coincide: nothing untaken ever started.
pub struct Round<T, F> {
    delivery: Delivery<T, F>,
}

enum Delivery<T, F> {
    /// Width 1: `take` is the call.
    Inline(F),
    /// Every task is on the pool; `take` collates.
    Scattered { results: OrderedResults<'static, T>, cancel: CancelToken },
}

impl<T, F> Round<T, F>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    /// Start a round of tasks `0..n` of `task` under `config`.
    pub fn start(config: DispatchConfig, n: usize, task: F) -> Self {
        // A single task gains nothing from the pool either.
        if config.is_serial() || n <= 1 {
            return Round { delivery: Delivery::Inline(task) };
        }
        // One shared task; each pool job carries a handle and its index.
        let task = Arc::new(task);
        let cancel = CancelToken::new();
        let results = WorkerPool::shared(config.workers()).scatter_each(
            n,
            |index| {
                let task = Arc::clone(&task);
                move || task(index)
            },
            &cancel,
        );
        Round { delivery: Delivery::Scattered { results, cancel } }
    }

    /// The result of task `index` (see the type's docs for what that
    /// means per width). Take each index at most once.
    pub fn take(&mut self, index: usize) -> T {
        match &mut self.delivery {
            Delivery::Inline(task) => task(index),
            Delivery::Scattered { results, .. } => match results.wait_for(index) {
                TaskOutcome::Done(value) => value,
                TaskOutcome::Panicked(payload) => std::panic::resume_unwind(payload),
                TaskOutcome::Cancelled => unreachable!("a round is only cancelled by its drop"),
            },
        }
    }

    /// End the round without abandoning anyone: wait until every task that
    /// was handed out has finished, discarding what was not taken.
    pub fn join(mut self) {
        if let Delivery::Scattered { results, .. } = &mut self.delivery {
            results.wait_all();
        }
    }
}

impl<T, F> Drop for Round<T, F> {
    fn drop(&mut self) {
        if let Delivery::Scattered { cancel, .. } = &self.delivery {
            cancel.cancel();
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

    /// A round of `n` tasks that log their index and return it doubled.
    fn logging_round(
        config: DispatchConfig,
        n: usize,
        ran: &Arc<Mutex<Vec<usize>>>,
    ) -> Round<usize, impl Fn(usize) -> usize + Send + Sync + 'static> {
        let ran = Arc::clone(ran);
        Round::start(config, n, move |index| {
            ran.lock().unwrap().push(index);
            index * 2
        })
    }

    #[test]
    fn a_width_one_round_runs_each_task_at_its_take_and_no_other() {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let mut round = logging_round(DispatchConfig::serial(), 6, &ran);
        assert!(ran.lock().unwrap().is_empty(), "starting a width-1 round runs nothing");
        // Any order: `take(i)` is the call.
        for index in [3, 0, 5] {
            assert_eq!(round.take(index), index * 2);
        }
        assert_eq!(*ran.lock().unwrap(), vec![3, 0, 5]);
        // A break after k takes: the rest never run, dropped or joined.
        drop(round);
        logging_round(DispatchConfig::serial(), 6, &ran).join();
        assert_eq!(*ran.lock().unwrap(), vec![3, 0, 5]);
        // A lone task is not worth the pool either, whatever the width.
        let mut lone = logging_round(DispatchConfig::with_workers(4), 1, &ran);
        assert_eq!(ran.lock().unwrap().len(), 3);
        assert_eq!(lone.take(0), 0);
    }

    #[test]
    fn a_scattered_round_collates_in_take_order_whatever_finishes_first() {
        let mut round = Round::start(DispatchConfig::with_workers(4), 16, |index: usize| {
            // Later tasks finish first.
            std::thread::sleep(Duration::from_micros(((16 - index) * 50) as u64));
            index
        });
        let order: Vec<usize> = (0..16).rev().step_by(2).chain((0..16).step_by(2)).collect();
        for index in order {
            assert_eq!(round.take(index), index);
        }
    }

    #[test]
    fn dropping_a_scattered_round_cancels_what_has_not_started() {
        // A width no other test scatters at (not 2, 4 or the machine's), so
        // this test has a pool of its own and nobody helps with its queue.
        // Every task blocks on a gate: once every worker is inside one,
        // the round is dropped, and only then is the gate opened — the
        // thirteen queued tasks can only see the fired token. What the
        // running ones return is discarded unobserved.
        let width = DispatchConfig::parallel().workers() + 5;
        let config = DispatchConfig::with_workers(width);
        let started = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let round = Round::start(config, width + 13, {
            let (started, gate) = (Arc::clone(&started), Arc::clone(&gate));
            move |index: usize| {
                started.fetch_add(1, Ordering::SeqCst);
                let (open, opened) = &*gate;
                drop(opened.wait_while(open.lock().unwrap(), |open| !*open).unwrap());
                index
            }
        });
        while started.load(Ordering::SeqCst) < width {
            std::thread::yield_now();
        }
        drop(round);
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        // The queue is FIFO: once a later round has been served, the
        // dropped one's jobs have all been popped (and skipped).
        let mut flush = Round::start(config, 2, |index: usize| index);
        assert_eq!((flush.take(0), flush.take(1)), (0, 1));
        assert_eq!(started.load(Ordering::SeqCst), width, "a queued task ran after the drop");
    }

    #[test]
    fn joining_a_scattered_round_waits_for_everything_it_asked() {
        let finished = Arc::new(AtomicUsize::new(0));
        let mut round = Round::start(DispatchConfig::with_workers(4), 12, {
            let finished = Arc::clone(&finished);
            move |index: usize| {
                std::thread::sleep(Duration::from_millis(2));
                finished.fetch_add(1, Ordering::SeqCst);
                index
            }
        });
        assert_eq!(round.take(0), 0);
        round.join();
        assert_eq!(finished.load(Ordering::SeqCst), 12, "join abandons nobody");
    }

    #[test]
    fn a_panicking_task_re_raises_at_its_own_take_and_nowhere_else() {
        for config in [DispatchConfig::serial(), DispatchConfig::with_workers(4)] {
            let mut round = Round::start(config, 4, |index: usize| {
                assert_ne!(index, 2, "boom at 2");
                index
            });
            assert_eq!(round.take(0), 0);
            assert_eq!(round.take(3), 3, "{config:?}: a later take is not poisoned");
            let caught = catch_unwind(AssertUnwindSafe(|| round.take(2)));
            let payload = caught.expect_err("the panic surfaces at take(2)");
            let message = payload.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(message.contains("boom at 2"), "{config:?}: {message}");
            assert_eq!(round.take(1), 1, "{config:?}: the round survives the panic");
            // An untaken panic is discarded with its round.
            Round::start(config, 3, |_: usize| -> usize { panic!("never observed") }).join();
        }
    }

    #[test]
    fn nested_rounds_from_inside_a_task_do_not_deadlock() {
        // More outer tasks than workers, each blocking on an inner round
        // of the same pool: progress relies on collators helping.
        let config = DispatchConfig::with_workers(2);
        let mut outer = Round::start(config, 6, move |i: usize| {
            let mut inner = Round::start(config, 4, move |j: usize| i * 10 + j);
            (0..4).map(|j| inner.take(j)).sum::<usize>()
        });
        for i in 0..6 {
            assert_eq!(outer.take(i), i * 40 + 6);
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
