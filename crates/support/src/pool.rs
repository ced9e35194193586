//! A spawn-once thread pool — the substrate every `par_map` in the
//! workspace dispatches onto, so hot paths that fan out thousands of times
//! per run (sharded search, per-day TextRank, batch analysis, ANN build)
//! never pay per-call OS thread creation.
//!
//! # Architecture
//!
//! * **Workers** are spawned once, lazily, on first use of the global pool
//!   ([`Pool::global`]). The worker count is `TL_POOL_THREADS` when set
//!   (any value ≥ 1), otherwise `available_parallelism`.
//! * **One task queue**: a single `Mutex<VecDeque>` of tasks (a task is one
//!   contiguous chunk of a mapped slice, not one item). Idle workers wait
//!   on one condvar and blocked joiners on another, both under the queue's
//!   own lock, so a push or a batch completion can never slip between a
//!   waiter's check and its wait. Workers pop the oldest task.
//! * **Cooperative joins**: a thread waiting for its batch *helps*: it runs
//!   its own chunk first, then pops the newest queued task (its own batch's
//!   or any other's) until its batch completes, sleeping only while the
//!   queue is empty and waking on the next push. A nested `par_map` issued
//!   from inside a worker therefore always makes progress on the calling
//!   thread itself — nesting can never deadlock, no matter how the pool is
//!   sized.
//! * **`Arc`-owned latches**: every batch counts its queued tasks down on a
//!   countdown latch that each task holds an `Arc` of, so the last finisher
//!   never touches memory the joiner may already have freed.
//! * **Panic containment**: every mapped item runs under `catch_unwind`; a
//!   panic poisons only that item's slot ([`TaskPanic`]). Workers never
//!   unwind and the pool never loses a thread to a user panic.
//! * **Determinism**: results are written into per-index slots and every
//!   cross-chunk reduction in the workspace is performed by the *caller*
//!   in fixed chunk order, so mapped output is a pure function of the
//!   input — independent of worker count, execution order, and
//!   `TL_POOL_THREADS`.
//!
//! Deadline-bounded fan-outs ([`Pool::deadline_map`]) are cooperative:
//! tasks that have not started when the budget expires are skipped, and
//! both skipped and wasted (finished-after-collection) tasks are counted in
//! [`Pool::abandoned_tasks`], so abandoned work is bounded by the pool and
//! observable.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// A contained panic from one mapped item: the payload message, with the
/// item's slot index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the item whose closure panicked.
    pub index: usize,
    /// Stringified panic payload (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Lock `m`, recovering the guard if a panicking holder poisoned it (no
/// pool lock is held across user code, so the data is always consistent).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A queued task; it receives the pool state of the thread that runs it.
type Task = Box<dyn FnOnce(&Shared) + Send + 'static>;

struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
    /// Joiners currently blocked on `Shared::joiners`.
    blocked: usize,
}

/// Shared pool state: the task queue and the cumulative counters.
struct Shared {
    queue: Mutex<Queue>,
    /// Idle workers wait here; signalled on every push and on shutdown.
    ready: Condvar,
    /// Blocked joiners wait here; signalled on every push and whenever a
    /// latch opens while one is blocked.
    joiners: Condvar,
    /// Deadline-map tasks skipped before start or finished after collection.
    abandoned: AtomicU64,
    /// Tasks executed to completion (chunk granularity).
    executed: AtomicU64,
}

impl Shared {
    fn push(&self, tasks: impl Iterator<Item = Task>) {
        let mut q = lock(&self.queue);
        let before = q.tasks.len();
        q.tasks.extend(tasks);
        let added = q.tasks.len() - before;
        let blocked = q.blocked > 0;
        drop(q);
        match added {
            0 => return,
            1 => self.ready.notify_one(),
            _ => self.ready.notify_all(),
        }
        if blocked {
            self.joiners.notify_all();
        }
    }

    fn run(&self, task: Task) {
        task(self);
        self.executed.fetch_add(1, Ordering::Relaxed);
    }

    /// Wait on `joiners`, counted in `q.blocked`, until woken or until
    /// `timeout` (if any) elapses.
    fn block<'a>(
        &self,
        mut q: MutexGuard<'a, Queue>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, Queue> {
        q.blocked += 1;
        q = match timeout {
            None => self.joiners.wait(q).unwrap_or_else(PoisonError::into_inner),
            Some(t) => {
                self.joiners
                    .wait_timeout(q, t)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
        };
        q.blocked -= 1;
        q
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut q = lock(&shared.queue);
    loop {
        if let Some(task) = q.tasks.pop_front() {
            drop(q);
            shared.run(task);
            q = lock(&shared.queue);
        } else if q.shutdown {
            return;
        } else {
            q = shared.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Countdown latch for one batch's queued tasks. Each task holds an `Arc`
/// of it, so `count_down` only ever touches memory the task itself keeps
/// alive (and the pool state its runner keeps alive), even when it lets the
/// joiner return.
struct Latch {
    remaining: AtomicUsize,
}

impl Latch {
    fn new(count: usize) -> Arc<Self> {
        Arc::new(Self {
            remaining: AtomicUsize::new(count),
        })
    }

    /// Release this task's writes to the joiner and, on the last count, wake
    /// blocked joiners. The check of `blocked` takes the queue lock, which a
    /// joiner holds from its own `is_open` check until it waits, so the
    /// wakeup cannot fall between the two.
    fn count_down(&self, shared: &Shared) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 && lock(&shared.queue).blocked > 0 {
            shared.joiners.notify_all();
        }
    }

    fn is_open(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }
}

/// Write-once result slots shared by the chunks of one scoped map.
///
/// Safety contract: chunk `c` writes only indices in its own `[lo, hi)`
/// range, each exactly once, before its `Latch::count_down`; the joiner
/// reads only after observing the latch open, and the latch's release
/// decrements and acquire load order every write before that observation.
struct Slots<R> {
    cells: Vec<std::cell::UnsafeCell<Option<R>>>,
}

// SAFETY: `cells` is the only field. Shared access only ever writes
// disjoint slots (see the contract above), and the written `R` values are
// later moved to the joining thread, hence the `R: Send` bound.
unsafe impl<R: Send> Sync for Slots<R> {}

impl<R> Slots<R> {
    fn new(n: usize) -> Self {
        Self {
            cells: (0..n).map(|_| std::cell::UnsafeCell::new(None)).collect(),
        }
    }

    /// Store into slot `i`.
    ///
    /// # Safety
    ///
    /// No other thread may access slot `i` until the joiner reads it after
    /// the batch latch opens (the struct-level contract).
    unsafe fn put(&self, i: usize, value: R) {
        *self.cells[i].get() = Some(value);
    }

    fn into_values(self) -> impl Iterator<Item = Option<R>> {
        self.cells.into_iter().map(|c| c.into_inner())
    }
}

/// The thread pool. See the module docs for the architecture.
pub struct Pool {
    shared: Arc<Shared>,
    threads: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    /// Build a private pool with exactly `threads` workers (clamped to
    /// ≥ 1). Intended for tests; production code uses [`Pool::global`].
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
                blocked: 0,
            }),
            ready: Condvar::new(),
            joiners: Condvar::new(),
            abandoned: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tl-pool-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            threads,
            handles: Mutex::new(handles),
        }
    }

    /// The process-wide pool, created on first use with
    /// [`default_threads`] workers. Touch it at service startup
    /// ([`warm_pool`]) so the first request never pays the spawn.
    pub fn global() -> &'static Pool {
        GLOBAL.get_or_init(|| Pool::new(default_threads()))
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Deadline-map tasks that were skipped (budget expired before start)
    /// or wasted (finished after their batch was collected) — cumulative.
    pub fn abandoned_tasks(&self) -> u64 {
        self.shared.abandoned.load(Ordering::Relaxed)
    }

    /// Chunk tasks executed to completion — cumulative.
    pub fn executed_tasks(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Stop the workers and join them. Pending tasks are drained first
    /// (workers exit only when they find nothing to run). Test-pool
    /// hygiene; never called on the global pool.
    pub fn shutdown(&self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.ready.notify_all();
        for h in std::mem::take(&mut *lock(&self.handles)) {
            let _ = h.join();
        }
    }

    /// Map `f` over `items` split into at most `chunks` contiguous chunk
    /// tasks, preserving order. The calling thread runs the first chunk
    /// itself, then helps the pool until the batch completes. A panic in
    /// `f` poisons only that item's slot.
    pub fn map_chunks<T, R, F>(
        &self,
        items: &[T],
        chunks: usize,
        f: &F,
    ) -> Vec<Result<R, TaskPanic>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        let run_item = |i: usize| -> Result<R, TaskPanic> {
            catch_unwind(AssertUnwindSafe(|| f(&items[i]))).map_err(|p| TaskPanic {
                index: i,
                message: payload_message(p),
            })
        };
        if chunks <= 1 || n <= 1 {
            return (0..n).map(run_item).collect();
        }

        let chunk_len = n.div_ceil(chunks.min(n));
        let chunks = n.div_ceil(chunk_len);
        let slots = Slots::new(n);
        let run_chunk = |c: usize| {
            let (lo, hi) = (c * chunk_len, ((c + 1) * chunk_len).min(n));
            for i in lo..hi {
                // SAFETY: this chunk exclusively owns slots [lo, hi).
                unsafe { slots.put(i, run_item(i)) };
            }
        };
        let latch = Latch::new(chunks - 1);
        self.shared.push((1..chunks).map(|c| {
            let latch = Arc::clone(&latch);
            let task: Box<dyn FnOnce(&Shared) + Send + '_> = Box::new(move |shared| {
                run_chunk(c);
                latch.count_down(shared);
            });
            // SAFETY: `run_chunk` borrows this frame (`items`, `f`, `slots`)
            // and is done with it before `count_down`; this function does
            // not return until the latch opens, and every queued chunk is
            // guaranteed to run (by a worker or by the help loop below).
            // `count_down` touches only the task's own `Arc` and the pool
            // state its runner keeps alive.
            unsafe { std::mem::transmute::<_, Task>(task) }
        }));
        run_chunk(0);
        self.help_until(&latch);
        slots
            .into_values()
            .map(|s| s.expect("every chunk fills its slots"))
            .collect()
    }

    /// Run queued tasks (any batch's, newest first, so a nested map's own
    /// chunks come before older outer work) until `latch` opens. While the
    /// queue is empty every chunk of this batch has been claimed, so sleep
    /// until either a task is pushed (often nested work of those chunks) or
    /// the latch opens.
    fn help_until(&self, latch: &Latch) {
        let shared = &*self.shared;
        let mut q = lock(&shared.queue);
        while !latch.is_open() {
            match q.tasks.pop_back() {
                Some(task) => {
                    drop(q);
                    shared.run(task);
                    q = lock(&shared.queue);
                }
                None => q = shared.block(q, None),
            }
        }
    }

    /// Map `f` over owned `items` within a wall-clock `timeout`; `None` in
    /// a slot means that item was abandoned (or its closure panicked).
    ///
    /// Item 0 always runs on the calling thread before the deadline is
    /// consulted, so slot 0 is always `Some` unless `f` panics on it — the
    /// graceful-degradation floor. The other items run as pool tasks; the
    /// caller waits (rather than helps, so the cutoff is precise) until they
    /// finish or the budget expires, then collects. A task that starts
    /// after the budget is skipped and one that finishes after collection
    /// is discarded; both are counted in [`Pool::abandoned_tasks`]. A zero
    /// budget therefore deterministically yields slot 0 alone.
    pub fn deadline_map<T, R, F>(&self, items: Vec<T>, timeout: Duration, f: F) -> Vec<Option<R>>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let start = Instant::now();
        let expired = move || start.elapsed() >= timeout;
        let f = Arc::new(f);
        // `None` once the caller has collected the batch.
        let results = Arc::new(Mutex::new(Some(
            (0..n).map(|_| None).collect::<Vec<Option<R>>>(),
        )));
        let latch = Latch::new(n - 1);
        let mut items = items.into_iter();
        let first = items.next().expect("n > 0");
        self.shared.push(items.enumerate().map(|(k, item)| {
            let (f, results, latch) = (Arc::clone(&f), Arc::clone(&results), Arc::clone(&latch));
            Box::new(move |shared: &Shared| {
                let admitted = !expired() && {
                    let value = catch_unwind(AssertUnwindSafe(|| f(item))).ok();
                    match lock(&results).as_mut() {
                        Some(slots) => {
                            slots[k + 1] = value;
                            true
                        }
                        None => false,
                    }
                };
                if !admitted {
                    shared.abandoned.fetch_add(1, Ordering::Relaxed);
                }
                latch.count_down(shared);
            }) as Task
        }));
        let first = catch_unwind(AssertUnwindSafe(|| f(first))).ok();
        let shared = &*self.shared;
        let mut q = lock(&shared.queue);
        while !latch.is_open() && !expired() {
            q = shared.block(q, Some(timeout.saturating_sub(start.elapsed())));
        }
        drop(q);
        let mut out = lock(&results).take().expect("collected once");
        out[0] = first;
        out
    }
}

/// Worker count the global pool is created with: `TL_POOL_THREADS` when set
/// (parsed as an integer ≥ 1), else `available_parallelism`.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("TL_POOL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Force-create the global pool (service startup calls this so the first
/// request never pays worker spawning); returns its worker count.
pub fn warm_pool() -> usize {
    Pool::global().threads()
}

/// The number of OS threads this process currently runs (Linux: counted
/// from `/proc/self/task`); `None` where unsupported. Test probe for the
/// "no hot path spawns threads per call" invariant.
pub fn process_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(|entries| entries.count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_chunks_preserves_order() {
        let pool = Pool::new(3);
        let xs: Vec<u64> = (0..500).collect();
        let out = pool.map_chunks(&xs, 8, &|&x| x * 2 + 1);
        let got: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, xs.iter().map(|&x| x * 2 + 1).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn panic_poisons_only_its_item() {
        let pool = Pool::new(2);
        let xs: Vec<u32> = (0..64).collect();
        let out = pool.map_chunks(&xs, 4, &|&x| {
            if x == 17 {
                panic!("boom {x}");
            }
            x + 1
        });
        for (i, r) in out.iter().enumerate() {
            if i == 17 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, 17);
                assert!(e.message.contains("boom 17"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u32 + 1);
            }
        }
        pool.shutdown();
    }

    #[test]
    fn generous_deadline_completes_everything() {
        let pool = Pool::new(2);
        let out = pool.deadline_map((0..40u64).collect(), Duration::from_secs(60), |x| x * 3);
        assert_eq!(out, (0..40u64).map(|x| Some(x * 3)).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn abandoned_counter_moves_on_expired_budget() {
        let pool = Pool::new(1);
        let before = pool.abandoned_tasks();
        let out = pool.deadline_map((0..6u64).collect(), Duration::ZERO, |x| {
            if x > 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            x
        });
        assert_eq!(
            out,
            [Some(0), None, None, None, None, None],
            "slot 0 is the guaranteed partition"
        );
        // Give stragglers time to be observed as abandoned.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.abandoned_tasks() < before + 5 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            pool.abandoned_tasks(),
            before + 5,
            "abandoned work must be counted"
        );
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_and_joins() {
        let pool = Pool::new(4);
        let xs: Vec<u64> = (0..100).collect();
        let _ = pool.map_chunks(&xs, 16, &|&x| x);
        pool.shutdown();
    }
}
