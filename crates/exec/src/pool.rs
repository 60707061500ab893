//! The persistent worker pool behind [`crate::Executor`].
//!
//! Every parallel region used to pay a fresh [`std::thread::scope`] spawn:
//! three regions per round means three `clone + spawn + join` cycles of the
//! whole worker set, tens of microseconds that the round loop pays at
//! N=10³ every few hundred microseconds of useful work. The pool spawns
//! its workers **once** and feeds them work over a channel; a round's
//! parallel regions become a handful of channel sends and one
//! condition-variable wait.
//!
//! # The generation handshake
//!
//! Scoped threads let workers borrow the caller's stack because the scope
//! *provably joins* before it returns. The pool replaces that proof with an
//! equivalent runtime handshake:
//!
//! 1. The submitter bumps the pool's **generation counter** and packages
//!    the region's closure as a set of lifetime-erased `Task`s tagged
//!    with that generation.
//! 2. Workers execute tasks and report completion on the region's shared
//!    counter — they hold the erased pointer only while the task runs and
//!    never store it past the completion signal.
//! 3. The submitter **blocks** until the region's completion count reaches
//!    its task count ([`RegionHandle::finish`] — or [`RegionHandle`]'s
//!    `Drop`, so a panicking submitter still waits), and only then lets the
//!    borrowed closure go out of scope.
//!
//! The borrow therefore strictly outlives every dereference, exactly the
//! guarantee `thread::scope` provides structurally. This module is one of
//! the workspace's two homes of `unsafe` code (the other is
//! `agsfl_tensor::dispatch`, whose `#[target_feature]` kernels argue their
//! own case), and every `unsafe` here is carried by that single argument.
//!
//! # Determinism
//!
//! The pool adds no scheduling freedom that can reach a result: regions
//! hand workers disjoint `&mut` chunks exactly like a scoped spawn, chunk
//! results come back through per-chunk slots concatenated in chunk order
//! (an **ordered completion queue** — see [`WorkerPool::submit_region`]'s
//! callers in `lib.rs`), and pipelined consumers run on the submitting
//! thread in item order. A worker panic is caught, recorded on the region,
//! and re-raised on the submitting thread after the region completes
//! ([`std::panic::resume_unwind`]), so failures behave exactly like a
//! scoped thread's propagating `join`.
#![allow(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::metrics::PoolMetrics;

thread_local! {
    /// Set for the lifetime of a pool worker thread. Nested parallel
    /// regions submitted *from* a worker run inline on that worker instead
    /// of re-entering the pool — re-submitting while every worker may be
    /// busy executing the outer region could otherwise wait on ourselves,
    /// and inline execution is bit-identical anyway (same closures, same
    /// data, same order).
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is a pool worker (any pool's). The executor
/// uses this to run nested regions inline (see the module docs).
pub fn on_worker_thread() -> bool {
    IN_POOL_WORKER.with(Cell::get)
}

/// Locks a mutex, ignoring poisoning: the pool's shared state (completion
/// counters, result slots, panic slot) stays consistent through unwinding
/// because every critical section is a handful of moves with no invariant
/// spanning a panic point.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Shared state of one submitted region — one generation of the handshake.
struct Region {
    /// The pool generation this region was submitted as (diagnostics; the
    /// per-region `remaining` counter is what the handshake waits on).
    generation: u64,
    /// Tasks not yet completed. The submitter blocks until this hits zero.
    remaining: Mutex<usize>,
    /// Signalled when `remaining` reaches zero.
    done: Condvar,
    /// First worker panic payload, re-raised on the submitting thread.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl Region {
    fn new(generation: u64, tasks: usize) -> Arc<Self> {
        Arc::new(Region {
            generation,
            remaining: Mutex::new(tasks),
            done: Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    /// Worker-side completion signal: the last task wakes the submitter.
    fn complete_one(&self) {
        let mut remaining = lock_unpoisoned(&self.remaining);
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Submitter-side wait for every task of this generation.
    fn wait(&self) {
        let mut remaining = lock_unpoisoned(&self.remaining);
        while *remaining > 0 {
            remaining = self
                .done
                .wait(remaining)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// A lifetime-erased unit of work: "run chunk `index` of the region whose
/// closure lives at `ctx`".
struct Task {
    /// Monomorphized trampoline that casts `ctx` back to the concrete
    /// closure type and calls it.
    call: unsafe fn(*const (), usize),
    /// Erased pointer to the submitting stack frame's `F: Fn(usize) + Sync`.
    ctx: *const (),
    /// Which chunk of the region this task runs.
    index: usize,
    /// The region's handshake state.
    region: Arc<Region>,
    /// Submission timestamp, stamped only while pool metrics are enabled.
    /// Doubles as the per-task metrics marker: the dequeue-side accounting
    /// (queue-depth decrement, dispatch latency, busy time) keys on this
    /// being `Some`, so enabling or disabling metrics mid-flight can never
    /// unbalance the queue-depth counter.
    submitted_at: Option<Instant>,
}

// SAFETY: `ctx` points at a closure owned by the submitting stack frame,
// which blocks in `RegionHandle::finish`/`Drop` until every task of the
// region has signalled completion; workers dereference `ctx` only before
// that signal. The closure is `Sync` (enforced by `submit_region`'s
// bound), so shared access from several workers is sound.
unsafe impl Send for Task {}

/// Casts the erased context back to `F` and runs chunk `index`.
///
/// # Safety
///
/// `ctx` must point to a live `F`; guaranteed by the generation handshake
/// (see the module docs).
unsafe fn call_erased<F: Fn(usize) + Sync>(ctx: *const (), index: usize) {
    // SAFETY: `submit_region` pairs this trampoline with a `ctx` cast from
    // an `&F` of the same `F`, so the cast restores the pointee's type; the
    // submitter blocks until the region completes, so the `&F` is live for
    // the whole call; and `F: Sync`, so sharing it with other workers
    // running sibling chunks is sound.
    let f = unsafe { &*(ctx.cast::<F>()) };
    f(index);
}

/// A long-lived, channel-fed worker pool.
///
/// Spawned lazily by the first parallel region of an [`crate::Executor`]
/// and shared by all its clones; dropped (joining every worker) when the
/// last clone goes away. See the module docs for the handshake that lets
/// persistent threads run borrowed closures safely.
pub struct WorkerPool {
    /// Work queue; `None` only during `Drop`, which disconnects the
    /// channel so workers drain and exit.
    sender: Option<Sender<Task>>,
    /// Worker handles, joined on `Drop` — the pool never leaks threads.
    workers: Vec<JoinHandle<()>>,
    /// Region generation counter (the "epoch" of the handshake).
    generation: AtomicU64,
    /// Observation-only pool metrics (disabled by default); shared with
    /// every worker.
    metrics: Arc<PoolMetrics>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("generation", &self.generation.load(Ordering::Relaxed))
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `workers` threads (`0` is treated as `1`).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (sender, receiver) = channel::<Task>();
        let receiver = Arc::new(Mutex::new(receiver));
        let metrics = Arc::new(PoolMetrics::new(workers));
        let workers = (0..workers)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("agsfl-pool-{i}"))
                    .spawn(move || worker_loop(&receiver, &metrics, i))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
            generation: AtomicU64::new(0),
            metrics,
        }
    }

    /// Number of regions submitted so far (the current generation).
    pub fn generations(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// The pool's observation-only metrics (per-worker busy/idle time,
    /// task counts, dispatch-latency rings). Disabled until
    /// [`PoolMetrics::set_enabled`] flips them on.
    pub fn metrics(&self) -> &PoolMetrics {
        &self.metrics
    }

    /// Submits a region of `tasks` chunk indices to the pool and returns a
    /// handle the submitter **must** resolve with [`RegionHandle::finish`]
    /// before `f` or anything it borrows goes out of scope (the handle's
    /// `Drop` enforces the wait even when the submitter unwinds).
    ///
    /// `f(i)` is called exactly once per `i in 0..tasks`, from worker
    /// threads, in no particular order; ordering guarantees are built on
    /// top by the callers (per-chunk result slots read in chunk order, or
    /// the pipeline's index-ordered consumer).
    pub fn submit_region<'pool, F>(&'pool self, tasks: usize, f: &F) -> RegionHandle<'pool>
    where
        F: Fn(usize) + Sync,
    {
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let region = Region::new(generation, tasks);
        let sender = self
            .sender
            .as_ref()
            .expect("worker pool used after shutdown");
        // One clock read per region (not per task): every task of a region
        // is submitted in the same instant for dispatch-latency purposes.
        let submitted_at = self.metrics.enabled().then(Instant::now);
        for index in 0..tasks {
            let task = Task {
                call: call_erased::<F>,
                ctx: (f as *const F).cast::<()>(),
                index,
                region: Arc::clone(&region),
                submitted_at,
            };
            sender
                .send(task)
                .expect("pool workers exited while the pool is alive");
        }
        RegionHandle {
            region,
            _pool: std::marker::PhantomData,
        }
    }

    /// Runs `f(i)` for every `i in 0..tasks` across the pool's workers,
    /// blocking until the whole region completes. A worker panic is
    /// re-raised here with its original payload.
    pub fn run_region<F>(&self, tasks: usize, f: &F)
    where
        F: Fn(usize) + Sync,
    {
        if tasks == 0 {
            return;
        }
        self.submit_region(tasks, f).finish();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the queue: workers drain outstanding tasks, observe
        // the hangup, and exit. Joining guarantees no thread leaks and no
        // worker outlives any borrow it could still hold.
        drop(self.sender.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Outstanding-region guard: proof obligation of the generation handshake.
///
/// The submitter calls [`RegionHandle::finish`] to block until the region
/// completes and to re-raise any worker panic. Dropping the handle without
/// finishing (e.g. while unwinding) still blocks until completion — the
/// soundness of the lifetime erasure rests on this wait — but swallows the
/// region's panic payload in that case (the submitter is already
/// panicking).
#[must_use = "the region handle must be finished (or dropped) before the submitted closure goes out of scope"]
pub struct RegionHandle<'pool> {
    region: Arc<Region>,
    _pool: std::marker::PhantomData<&'pool WorkerPool>,
}

impl RegionHandle<'_> {
    /// Blocks until every task of the region has completed, then re-raises
    /// the first worker panic, if any, on this thread.
    pub fn finish(self) {
        self.region.wait();
        if let Some(payload) = lock_unpoisoned(&self.region.panic).take() {
            std::panic::resume_unwind(payload);
        }
        // `Drop` runs next but `wait` is idempotent once remaining == 0.
    }

    /// The generation this region was submitted as.
    pub fn generation(&self) -> u64 {
        self.region.generation
    }
}

impl Drop for RegionHandle<'_> {
    fn drop(&mut self) {
        self.region.wait();
    }
}

/// Worker main loop: pull tasks until the pool hangs up the channel.
///
/// Metrics accounting is observation only and never changes which task
/// runs where: idle time is measured around the blocking dequeue when the
/// pool-level flag is on, and per-task accounting (queue-depth decrement,
/// dispatch latency, busy time) keys on the task's own `submitted_at`
/// stamp so it stays paired with the submit side.
fn worker_loop(receiver: &Mutex<Receiver<Task>>, metrics: &PoolMetrics, worker: usize) {
    IN_POOL_WORKER.with(|flag| flag.set(true));
    let stats = metrics.worker(worker);
    loop {
        // Hold the lock across `recv`: exactly one idle worker sleeps on
        // the channel while the rest sleep on the mutex, and a send wakes
        // exactly one of them. Tasks are coarse (one per chunk), so the
        // serialized dequeue is noise.
        let wait_start = metrics.enabled().then(Instant::now);
        let task = {
            let guard = lock_unpoisoned(receiver);
            match guard.recv() {
                Ok(task) => task,
                Err(_) => break, // pool dropped: exit
            }
        };
        if let Some(t0) = wait_start {
            stats.add_idle_ns(t0.elapsed().as_nanos() as u64);
        }
        let Task {
            call,
            ctx,
            index,
            region,
            submitted_at,
        } = task;
        let busy_start = submitted_at.map(|t0| {
            let now = Instant::now();
            stats.record_dispatch_ns(now.duration_since(t0).as_nanos() as u64);
            now
        });
        // SAFETY: `call` is `call_erased::<F>` and `ctx` an erased `&F` of
        // that same `F`, both stamped on the task by `submit_region`, which
        // is `call_erased`'s type contract. The submitter blocks until this
        // region's completion count reaches its task count, and this task
        // completes only after the call returns or unwinds, so `ctx` is live
        // for the whole call (see the `Task` Send impl and the module docs).
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { call(ctx, index) }));
        if let Some(t0) = busy_start {
            stats.add_busy_ns(t0.elapsed().as_nanos() as u64);
        }
        if let Err(payload) = outcome {
            lock_unpoisoned(&region.panic).get_or_insert(payload);
        }
        // The completion signal is the *last* touch of the region: after
        // this line the worker holds no pointer into the submitter's
        // frame.
        region.complete_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn region_runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
        pool.run_region(32, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(pool.generations(), 1);
    }

    #[test]
    fn generations_advance_per_region() {
        let pool = WorkerPool::new(2);
        for _ in 0..10 {
            pool.run_region(3, &|_| {});
        }
        assert_eq!(pool.generations(), 10);
    }

    #[test]
    fn worker_panic_reaches_the_submitter() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_region(4, &|i| assert!(i != 2, "task {i} exploded"));
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("task 2 exploded"), "{msg}");
        // The pool survives a panicked region.
        pool.run_region(4, &|_| {});
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(3);
        pool.run_region(8, &|_| {});
        drop(pool); // must not hang or leak; joined handles prove exit
    }

    #[test]
    fn metrics_account_tasks_without_changing_results() {
        let pool = WorkerPool::new(2);
        // Disabled (the default): regions run, counters stay zero.
        pool.run_region(8, &|_| {});
        let before = pool.metrics().snapshot();
        assert_eq!(before.total_tasks(), 0);
        assert_eq!(before.total_busy_ns(), 0);
        assert_eq!(before.total_idle_ns(), 0);
        // Enabled: every task is counted with its busy time (each sleeps,
        // so the clock must see it), and the dispatch rings hold one
        // sample per task.
        pool.metrics().set_enabled(true);
        let hits: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
        pool.run_region(16, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_micros(50));
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let after = pool.metrics().snapshot();
        assert_eq!(after.workers.len(), 2);
        assert_eq!(after.total_tasks(), 16);
        assert!(after.total_busy_ns() >= 16 * 50_000, "{after:?}");
        assert!(after.busy_fraction() > 0.0 && after.busy_fraction() <= 1.0);
        let mut hist = agsfl_telemetry::Histogram::new();
        assert_eq!(pool.metrics().drain_dispatch_into(&mut hist), 0);
        assert_eq!(hist.count(), 16);
        // Disabling mid-life stops the task and busy accounting.
        pool.metrics().set_enabled(false);
        pool.run_region(8, &|_| {});
        let off = pool.metrics().snapshot();
        assert_eq!(off.total_tasks(), 16);
        assert_eq!(off.total_busy_ns(), after.total_busy_ns());
    }

    #[test]
    fn borrowed_state_is_visible_and_mutations_survive() {
        let pool = WorkerPool::new(4);
        let cells: Vec<Mutex<u64>> = (0..16).map(|i| Mutex::new(i as u64)).collect();
        pool.run_region(16, &|i| {
            *lock_unpoisoned(&cells[i]) += 100;
        });
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(*lock_unpoisoned(cell), i as u64 + 100);
        }
    }
}
