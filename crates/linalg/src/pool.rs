//! A persistent, channel-fed worker pool for the coding hot paths.
//!
//! Before this module, every [`crate::apply_parallel_into`] call and
//! every overlapped streaming batch spawned fresh OS threads through
//! [`std::thread::scope`] — a thread-create/join round trip per coding
//! group. The pool amortizes that: worker threads are spawned lazily
//! (never more than the pool's cap), park on a condition variable
//! between batches, and are joined only when the pool is dropped. The
//! process-wide instance behind [`global_pool`] therefore pays thread
//! creation `min(tasks, cap)` times per *process*, not per call.
//!
//! # Scheduling
//!
//! [`WorkerPool::run`] enqueues one job per task and then **helps drain
//! the queue itself** while it waits. This has two consequences:
//!
//! * Nested submission cannot deadlock. A worker running a streaming
//!   group-encode task may itself call `run` (the per-group
//!   `apply_parallel_into`); it will simply execute sub-tasks inline
//!   while waiting for stragglers, so progress is always possible even
//!   with a single worker thread.
//! * A pool capped below the requested fan-out still completes every
//!   batch — excess tasks run on whoever gets to them first, including
//!   the caller.
//!
//! Outputs are deterministic because tasks own disjoint output slices;
//! *which* thread runs a task is intentionally unspecified.
//!
//! # Telemetry
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `linalg.pool.tasks` | counter | tasks submitted through any pool |
//! | `linalg.pool.threads_spawned` | counter | worker threads ever created (stays ≤ cap per pool: the proof there is no per-call spawning) |
//! | `linalg.pool.threads` | gauge | live worker threads |
//! | `linalg.pool.queue_wait_us` | histogram | per-task wait between enqueue and first execution |
//!
//! # Operation context
//!
//! `run` captures the submitting thread's [`galloper_obs::OpContext`]
//! at enqueue time and installs it around each task, so spans recorded
//! inside pool tasks (and their queue waits) attribute to the operation
//! that submitted them even though an unrelated worker thread executes
//! them. When tracing is enabled and an operation is active, each task
//! additionally records a `pool.task` span — a cross-thread child that
//! the Chrome exporter links back to the submitter with a flow arrow.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Instant;

use galloper_obs::{counter, global, op, Histogram};

/// A borrowed unit of work for [`WorkerPool::run`]: any closure that can
/// move to another thread for the duration of the call.
pub type ScopedTask<'scope> = Box<dyn FnOnce() + Send + 'scope>;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

struct LatchState {
    remaining: usize,
    panicked: bool,
}

/// Completion latch for one `run` batch: counts outstanding tasks and
/// remembers whether any of them panicked.
struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

impl Latch {
    fn new(remaining: usize) -> Latch {
        Latch {
            state: Mutex::new(LatchState {
                remaining,
                panicked: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn complete(&self, panicked: bool) {
        let mut st = self.state.lock().unwrap();
        st.remaining -= 1;
        if panicked {
            st.panicked = true;
        }
        if st.remaining == 0 {
            self.cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.state.lock().unwrap().remaining == 0
    }

    fn wait_done(&self) {
        let mut st = self.state.lock().unwrap();
        while st.remaining > 0 {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn panicked(&self) -> bool {
        self.state.lock().unwrap().panicked
    }
}

/// A persistent pool of worker threads executing borrowed closures.
///
/// Most code uses the process-wide [`global_pool`]; private pools are
/// useful in tests (dropping one shuts its workers down and joins them).
pub struct WorkerPool {
    shared: Arc<Shared>,
    max_threads: usize,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("max_threads", &self.max_threads)
            .field("spawned", &self.handles.lock().unwrap().len())
            .finish()
    }
}

impl WorkerPool {
    /// An empty pool that will grow on demand to at most `max_threads`
    /// workers (clamped to at least 1). No threads are spawned until the
    /// first multi-task [`run`](WorkerPool::run).
    pub fn new(max_threads: usize) -> WorkerPool {
        WorkerPool {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    shutdown: false,
                }),
                cv: Condvar::new(),
            }),
            max_threads: max_threads.max(1),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// The cap this pool will never spawn past.
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// Worker threads spawned so far.
    pub fn spawned_threads(&self) -> usize {
        self.handles.lock().unwrap().len()
    }

    /// Runs every task to completion before returning, distributing them
    /// over the pool's workers (and this thread, which helps drain the
    /// queue while it waits).
    ///
    /// Single-task batches — and every batch on a pool capped at one
    /// thread — run inline on the caller.
    ///
    /// # Panics
    ///
    /// Panics (after all tasks have finished) if any task panicked.
    pub fn run(&self, tasks: Vec<ScopedTask<'_>>) {
        let n = tasks.len();
        if n == 0 {
            return;
        }
        if n == 1 || self.max_threads <= 1 {
            for task in tasks {
                task();
            }
            return;
        }
        counter!("linalg.pool.tasks", n);
        self.ensure_workers(n.min(self.max_threads));
        let latch = Arc::new(Latch::new(n));
        let ctx = op::current();
        {
            let mut st = self.shared.state.lock().unwrap();
            for task in tasks {
                // SAFETY: the only thing erased here is the `'scope`
                // lifetime bound. The job cannot outlive this call:
                // `run` returns only once the latch reports every task
                // complete, and the latch is decremented strictly
                // *after* the task has finished executing (panicking
                // tasks are caught and still complete the latch). Worker
                // threads hold no reference to a job after running it,
                // so no borrow in `task` is observable past this
                // function's return.
                #[allow(unsafe_code)]
                let task: Job = unsafe { std::mem::transmute::<ScopedTask<'_>, Job>(task) };
                let latch = Arc::clone(&latch);
                let enqueued = Instant::now();
                st.queue.push_back(Box::new(move || {
                    let wait_us = enqueued.elapsed().as_micros() as u64;
                    queue_wait_hist().record(wait_us);
                    op::add_queue_us(ctx.op, wait_us);
                    // Run inside the submitter's operation context so
                    // nested spans/metrics attribute correctly.
                    let _ctx = op::install(ctx);
                    let _span = ctx.is_active().then(|| op::span("pool.task", "pool"));
                    let panicked = catch_unwind(AssertUnwindSafe(task)).is_err();
                    latch.complete(panicked);
                }));
            }
        }
        self.shared.cv.notify_all();
        // Help-while-waiting: drain whatever is queued (our tasks or a
        // nested caller's) until our own batch completes.
        loop {
            if latch.is_done() {
                break;
            }
            let job = self.shared.state.lock().unwrap().queue.pop_front();
            match job {
                Some(job) => job(),
                None => latch.wait_done(),
            }
        }
        if latch.panicked() {
            panic!("worker-pool task panicked");
        }
    }

    fn ensure_workers(&self, want: usize) {
        let mut handles = self.handles.lock().unwrap();
        while handles.len() < want {
            let shared = Arc::clone(&self.shared);
            let handle = thread::Builder::new()
                .name(format!("galloper-pool-{}", handles.len()))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker-pool thread");
            handles.push(handle);
            counter!("linalg.pool.threads_spawned", 1);
            global().gauge("linalg.pool.threads").add(1);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.cv.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().unwrap());
        let joined = handles.len();
        for handle in handles {
            let _ = handle.join();
        }
        global().gauge("linalg.pool.threads").add(-(joined as i64));
    }
}

/// The shared queue-wait histogram, cached so per-task cost is one
/// atomic bump instead of a registry lookup.
fn queue_wait_hist() -> &'static Arc<Histogram> {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    HIST.get_or_init(|| global().histogram("linalg.pool.queue_wait_us"))
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break Some(job);
                }
                if st.shutdown {
                    break None;
                }
                st = shared.cv.wait(st).unwrap();
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

/// The process-wide pool used by [`crate::apply_parallel_into`] and the
/// streaming codec drivers.
///
/// Its cap is `max(available_parallelism, 2)` (4 when the parallelism
/// is unknown) — at least two so single-core CI still exercises
/// cross-thread overlap. This is the workspace's one thread-count rule:
/// the codecs fan each product out `max_threads()` wide. The pool lives
/// for the process lifetime (workers park between batches).
pub fn global_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let cores = thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        WorkerPool::new(cores.max(2))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_borrowed_tasks_to_completion() {
        let pool = WorkerPool::new(3);
        let mut outputs = [0usize; 17];
        {
            let tasks: Vec<ScopedTask<'_>> = outputs
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| Box::new(move || *slot = i * i) as ScopedTask<'_>)
                .collect();
            pool.run(tasks);
        }
        for (i, v) in outputs.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
        assert!(pool.spawned_threads() <= 3);
    }

    #[test]
    fn empty_and_single_batches_run_inline() {
        let pool = WorkerPool::new(4);
        pool.run(Vec::new());
        let hits = AtomicUsize::new(0);
        pool.run(vec![Box::new(|| {
            hits.fetch_add(1, Ordering::Relaxed);
        })]);
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(pool.spawned_threads(), 0, "inline batches spawn nothing");
    }

    #[test]
    fn threads_are_reused_across_batches() {
        let pool = WorkerPool::new(2);
        for _ in 0..20 {
            let counter = AtomicUsize::new(0);
            let tasks: Vec<ScopedTask<'_>> = (0..6)
                .map(|_| {
                    Box::new(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as ScopedTask<'_>
                })
                .collect();
            pool.run(tasks);
            assert_eq!(counter.load(Ordering::Relaxed), 6);
        }
        assert!(pool.spawned_threads() <= 2, "no per-batch spawning");
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        let pool = WorkerPool::new(2);
        let total = AtomicUsize::new(0);
        let tasks: Vec<ScopedTask<'_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    let inner: Vec<ScopedTask<'_>> = (0..4)
                        .map(|_| {
                            Box::new(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            }) as ScopedTask<'_>
                        })
                        .collect();
                    global_pool().run(inner);
                }) as ScopedTask<'_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn task_panics_propagate_after_the_batch_finishes() {
        let pool = WorkerPool::new(2);
        let survivors = AtomicUsize::new(0);
        let survivors_ref = &survivors;
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<ScopedTask<'_>> = (0..4)
                .map(|i| {
                    Box::new(move || {
                        if i == 1 {
                            panic!("boom");
                        }
                        survivors_ref.fetch_add(1, Ordering::Relaxed);
                    }) as ScopedTask<'_>
                })
                .collect();
            pool.run(tasks);
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(
            survivors.load(Ordering::Relaxed),
            3,
            "non-panicking tasks still ran to completion"
        );
    }

    #[test]
    fn tasks_inherit_the_submitters_op_context() {
        let pool = WorkerPool::new(2);
        let root = op::span("pool.test.op", "test");
        let expect = root.op();
        // Counted on this test's own operation: the process-global
        // `linalg.pool.queue_wait_us` histogram also moves with every
        // sibling test's pool.
        let tracker = op::track(expect);
        let seen: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let tasks: Vec<ScopedTask<'_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    seen.lock().unwrap().push(op::current().op);
                }) as ScopedTask<'_>
            })
            .collect();
        pool.run(tasks);
        drop(root);
        assert_eq!(*seen.lock().unwrap(), vec![expect; 4]);
        assert_eq!(
            tracker.accum().queue_samples(),
            4,
            "one queue-wait sample per pooled task"
        );
        // The context did not leak into the worker threads' idle state.
        let idle: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        pool.run(
            (0..4)
                .map(|_| Box::new(|| idle.lock().unwrap().push(op::current().op)) as ScopedTask<'_>)
                .collect(),
        );
        assert_eq!(*idle.lock().unwrap(), vec![0; 4]);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(2);
        let tasks: Vec<ScopedTask<'_>> =
            (0..4).map(|_| Box::new(|| {}) as ScopedTask<'_>).collect();
        pool.run(tasks);
        // Each worker thread holds a clone of this pool's shared state
        // until it exits, so the state dies with the pool only if drop
        // waited for every worker. (The `linalg.pool.threads` gauge
        // cannot tell: sibling tests' pools move it concurrently.)
        let shared = Arc::downgrade(&pool.shared);
        assert_eq!(shared.strong_count(), 3, "the pool and its two workers");
        drop(pool);
        assert_eq!(shared.strong_count(), 0, "a worker outlived its pool");
    }
}
