//! Deterministic parallel execution for the AGSFL workspace.
//!
//! Every parallel region in the workspace — the fused per-client
//! gradient/upload pass, the probe-loss sweep, the evaluation sweep and
//! FedAvg's weight average — runs through one [`Executor`], configured
//! once per simulation from a [`Parallelism`] knob and reused every round.
//! The executor owns a lazily spawned, **persistent** [`pool::WorkerPool`]:
//! worker threads are created on the first parallel region and fed over a
//! channel from then on, so a region costs a few channel sends and one
//! condition-variable wait instead of a full `std::thread::scope`
//! spawn/join cycle (see `pool_dispatch` in `BENCH_kernels.json` for the
//! measured gap).
//!
//! # Determinism and thread safety
//!
//! Parallelism must never change results: the repository's load-bearing
//! invariant is *identical seeds → identical runs, independent of thread
//! count*. The executor guarantees its share of that invariant
//! structurally rather than by luck:
//!
//! * **Disjoint mutable state.** Every primitive hands each worker a
//!   disjoint `&mut` chunk of the input slice (clients, shards, reset
//!   buffers). Chunks are passed through take-once slots, so no two workers
//!   can observe the same chunk; there is no other shared mutable state.
//! * **Owned per-item randomness.** Each federated client owns its private
//!   RNG and mini-batch sampler, so applying a closure to clients in any
//!   interleaving draws exactly the same random streams as a sequential
//!   loop.
//! * **Ordered results.** [`Executor::map_mut`]/[`Executor::map_ref`]
//!   concatenate per-chunk outputs in chunk order, which is input order —
//!   a parallel map returns the same `Vec` a serial `iter().map()` would.
//!   [`Executor::pipeline_mut`] extends the same guarantee to overlapped
//!   stages: producers run on the pool in any order, but the consumer runs
//!   on the calling thread in strict item order over an index-ordered
//!   completion queue.
//! * **Exact merges downstream.** Consumers that reduce across workers
//!   only merge values whose reduction is exact (the integer histograms
//!   and counters of `agsfl-telemetry`), fold per-item results in item
//!   order on the calling thread (the evaluation sweep in `agsfl-ml`), or
//!   partition the floating-point work by coordinate so every sum is
//!   evaluated in the serial accumulation order (FedAvg's
//!   `averaged_params`). No floating-point reassociation ever happens
//!   behind the caller's back.
//!
//! The pool replaces a per-region scoped spawn with the generation
//! handshake documented in [`pool`]: the submitter blocks until every task
//! of its generation has completed, which is the same borrow-outlives-use
//! proof `std::thread::scope` provides structurally. So every primitive —
//! [`Executor::map_mut`], [`Executor::map_ref`], [`Executor::pipeline_mut`]
//! — ends its region before it returns; none hands back a handle to work
//! still running, and nothing overlaps the calling thread's next statement.
//! The executable spec of every primitive is its own serial fallback — the
//! plain iterator the tests pin the pool path against.
//!
//! Nested regions — a worker that itself calls an executor primitive —
//! run inline on that worker (bit-identical; see
//! [`pool::on_worker_thread`]), so the pool can never wait on itself. No
//! product code nests a region today; `nested_regions_run_inline_on_workers`
//! pins the rule anyway, because a deadlock is the price of forgetting it.
//!
//! # Serial fallback
//!
//! A region splits when there is more than one thread and more than one
//! item; otherwise it is an in-place sequential loop. The fallback runs
//! the *same closures on the same data in the same order*, so it is
//! observationally identical to the parallel path.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod mem;
pub mod metrics;
pub mod pool;

use std::num::NonZeroUsize;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use metrics::PoolMetricsSnapshot;
use pool::{lock_unpoisoned as lock, WorkerPool};

/// How many worker threads a simulation should use.
///
/// This is the serializable configuration knob threaded through
/// `ExperimentConfig` and `SimulationConfig`; resolve it to a concrete
/// [`Executor`] with [`Parallelism::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Parallelism {
    /// Use every core the OS reports ([`std::thread::available_parallelism`]).
    #[default]
    Auto,
    /// Run everything on the calling thread.
    Serial,
    /// Use exactly this many threads (`0` is treated as `1`).
    Threads(usize),
}

impl Parallelism {
    /// The concrete thread count this policy resolves to on this machine.
    pub fn resolve(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Builds the executor for this policy.
    pub fn build(self) -> Executor {
        Executor::new(self.resolve())
    }
}

/// How many chunks per worker [`Executor::pipeline_mut`] splits its input
/// into: finer chunks than the plain maps so the in-order consumer starts
/// draining while later chunks are still producing.
const PIPELINE_CHUNKS_PER_WORKER: usize = 4;

/// A chunked parallel executor over a persistent worker pool.
///
/// Holds a thread count and a lazily spawned [`pool::WorkerPool`] shared
/// by every clone. Cloning is cheap
/// (an `Arc` bump); the pool's workers are joined when the last clone is
/// dropped. See the crate docs for the determinism argument.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
    /// The shared pool, spawned by the first parallel region. `Executor`s
    /// that never parallelize (serial config, single-item inputs) never
    /// spawn a thread.
    pool: Arc<OnceLock<WorkerPool>>,
}

impl PartialEq for Executor {
    fn eq(&self, other: &Self) -> bool {
        // Configuration equality; the pool is an implementation detail.
        self.threads == other.threads
    }
}

impl Eq for Executor {}

impl Default for Executor {
    fn default() -> Self {
        Executor::auto()
    }
}

impl Executor {
    /// An executor with exactly `threads` workers (`0` is treated as `1`).
    ///
    /// No threads are spawned until the first region actually
    /// parallelizes.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            pool: Arc::new(OnceLock::new()),
        }
    }

    /// A single-threaded executor: every region runs as a plain loop.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// An executor sized to the machine ([`Parallelism::Auto`]).
    pub fn auto() -> Self {
        Parallelism::Auto.build()
    }

    /// Number of worker threads parallel regions may use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this executor never spawns (one thread).
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Whether the persistent pool has been spawned yet (it is created by
    /// the first region that parallelizes and reused from then on).
    #[cfg(test)]
    fn pool_started(&self) -> bool {
        self.pool.get().is_some()
    }

    /// Regions submitted to the pool so far, across every clone of this
    /// executor (`0` before the pool starts). Diagnostic: lifecycle tests
    /// assert the pool is reused, not respawned.
    pub fn pool_generations(&self) -> u64 {
        self.pool.get().map_or(0, WorkerPool::generations)
    }

    /// Turns the worker pool's observation-only metrics (per-worker
    /// busy/idle time, dispatch-latency samples, queue depth) on or off.
    ///
    /// Enabling on a multi-threaded executor spawns the pool if it has not
    /// started yet — metrics only exist on the pool, and a caller that
    /// enables them is about to use it. A serial executor has no pool and
    /// this is a no-op. Metrics never affect scheduling or results; the
    /// golden-trajectory pins run with them enabled.
    pub fn set_metrics_enabled(&self, on: bool) {
        if self.is_serial() {
            return;
        }
        self.pool().metrics().set_enabled(on);
    }

    /// Whether pool metrics are currently being recorded.
    #[cfg(test)]
    fn metrics_enabled(&self) -> bool {
        self.pool.get().is_some_and(|p| p.metrics().enabled())
    }

    /// A point-in-time copy of the pool's cumulative metrics counters, or
    /// `None` if the pool has not been spawned (serial executors, or no
    /// region has parallelized yet).
    pub fn pool_metrics(&self) -> Option<PoolMetricsSnapshot> {
        self.pool.get().map(|p| p.metrics().snapshot())
    }

    /// Drains every worker's dispatch-latency ring into `hist` (workers
    /// folded in index order), returning how many samples were lost to
    /// ring overwrites since the previous drain. `0` when the pool has not
    /// started.
    pub fn drain_dispatch_latency(&self, hist: &mut agsfl_telemetry::Histogram) -> u64 {
        self.pool
            .get()
            .map_or(0, |p| p.metrics().drain_dispatch_into(hist))
    }

    /// The executor's one rule: a region over `items` work items splits
    /// when there is more than one thread and more than one item.
    fn should_parallelize(&self, items: usize) -> bool {
        self.threads > 1 && items > 1
    }

    /// Threads a region over `len` items should actually use.
    fn plan(&self, len: usize) -> usize {
        if self.should_parallelize(len) {
            self.threads.min(len)
        } else {
            1
        }
    }

    /// The shared pool, spawning it on first use.
    fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| WorkerPool::new(self.threads))
    }

    /// Applies `f` to every item of `items`, splitting the slice across
    /// the pool's workers in contiguous chunks. Results are returned **in
    /// item order**, exactly as a sequential `iter_mut().map(f).collect()`.
    pub fn map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut T) -> R + Sync,
    {
        let total = items.len();
        match self.chunk_len(total) {
            None => items.iter_mut().map(f).collect(),
            Some(chunk) => self.map_chunks(total, items.chunks_mut(chunk), |c| {
                c.iter_mut().map(&f).collect()
            }),
        }
    }

    /// Read-only sibling of [`Executor::map_mut`]: applies `f` to every
    /// item of a shared slice, returning results in item order.
    pub fn map_ref<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let total = items.len();
        match self.chunk_len(total) {
            None => items.iter().map(f).collect(),
            Some(chunk) => {
                self.map_chunks(total, items.chunks(chunk), |c| c.iter().map(&f).collect())
            }
        }
    }

    /// Items per chunk when a map over `len` items goes to the pool (one
    /// contiguous chunk per planned thread); `None` when it runs inline —
    /// on one thread, on a single item, or on a pool worker.
    fn chunk_len(&self, len: usize) -> Option<usize> {
        let threads = self.plan(len);
        (threads > 1 && !pool::on_worker_thread()).then(|| len.div_ceil(threads))
    }

    /// The ordered-chunk body of [`Executor::map_mut`] and
    /// [`Executor::map_ref`]: maps each of `chunks` (`&mut [T]` or `&[T]`)
    /// with `f` on the pool and concatenates the results in chunk order,
    /// `total` items in all.
    fn map_chunks<C, R, F>(&self, total: usize, chunks: impl Iterator<Item = C>, f: F) -> Vec<R>
    where
        C: Send,
        R: Send,
        F: Fn(C) -> Vec<R> + Sync,
    {
        let pool = self.pool();
        // Take-once chunk slots plus one ordered result slot per chunk:
        // the ordered completion queue that makes the parallel map
        // indistinguishable from the serial one.
        let chunks: Vec<Mutex<Option<C>>> = chunks.map(|c| Mutex::new(Some(c))).collect();
        let results: Vec<Mutex<Option<Vec<R>>>> =
            (0..chunks.len()).map(|_| Mutex::new(None)).collect();
        let task = |i: usize| {
            let chunk = lock(&chunks[i]).take().expect("chunk dispatched once");
            let out = f(chunk);
            *lock(&results[i]) = Some(out);
        };
        pool.run_region(chunks.len(), &task);
        let mut out = Vec::with_capacity(total);
        for slot in results {
            out.extend(
                slot.into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .expect("completed region filled every slot"),
            );
        }
        out
    }

    /// Overlapped producer/consumer over one slice: `produce` runs on the
    /// pool's workers (chunked, any order), while `consume` runs on the
    /// calling thread **in strict item order** as chunks complete — an
    /// index-ordered completion queue buffers out-of-order chunks.
    ///
    /// Bit-identical to the serial interleaving
    /// `for (i, item) { let r = produce(item); consume(i, item, r) }`
    /// whenever `produce` is a pure per-item function (no cross-item
    /// state), because the consumer observes items and results in exactly
    /// that order. This is the primitive behind the round engine's client
    /// pass: each member's upload is finished on the pool while the server
    /// admits the finished ones in cohort order.
    ///
    /// Falls back to the serial interleaving on one thread, on a single
    /// item, or on a pool worker.
    pub fn pipeline_mut<T, R, F, C>(&self, items: &mut [T], produce: F, mut consume: C)
    where
        T: Send,
        R: Send,
        F: Fn(&mut T) -> R + Sync,
        C: FnMut(usize, &mut T, R),
    {
        let threads = self.plan(items.len());
        if threads <= 1 || pool::on_worker_thread() {
            for (index, item) in items.iter_mut().enumerate() {
                let produced = produce(item);
                consume(index, item, produced);
            }
            return;
        }
        let total = items.len();
        let n_chunks = total.min(threads * PIPELINE_CHUNKS_PER_WORKER);
        let chunk = total.div_ceil(n_chunks);
        let pool = self.pool();

        // Messages flow from producers back to this thread: the finished
        // chunk index, the chunk's exclusive borrow (handed back so the
        // consumer may mutate items the producers are done with), and the
        // per-item results — or the panic payload of a failed chunk.
        enum PipeMsg<'a, T, R> {
            Done(usize, &'a mut [T], Vec<R>),
            Failed(Box<dyn std::any::Any + Send + 'static>),
        }
        let chunks: Vec<Mutex<Option<&mut [T]>>> = items
            .chunks_mut(chunk)
            .map(|c| Mutex::new(Some(c)))
            .collect();
        let n = chunks.len();
        let (tx, rx) = channel::<PipeMsg<'_, T, R>>();
        let produce = &produce;
        let task = |i: usize| {
            let chunk = lock(&chunks[i]).take().expect("chunk dispatched once");
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut out = Vec::with_capacity(chunk.len());
                for item in chunk.iter_mut() {
                    out.push(produce(item));
                }
                out
            }));
            // Failures are reported through the queue rather than the
            // region, so the in-order consumer below can keep draining
            // and the submitter re-raises after the region completes.
            let msg = match outcome {
                Ok(out) => PipeMsg::Done(i, chunk, out),
                Err(payload) => PipeMsg::Failed(payload),
            };
            let _ = tx.send(msg);
        };
        let handle = pool.submit_region(n, &task);
        let mut pending: std::collections::BTreeMap<usize, (&mut [T], Vec<R>)> =
            std::collections::BTreeMap::new();
        let mut next = 0usize;
        let mut consumed_base = 0usize;
        let mut failure: Option<Box<dyn std::any::Any + Send + 'static>> = None;
        for _ in 0..n {
            match rx.recv() {
                Ok(PipeMsg::Done(i, chunk, out)) => {
                    pending.insert(i, (chunk, out));
                    while failure.is_none() {
                        let Some((chunk, out)) = pending.remove(&next) else {
                            break;
                        };
                        for (offset, (item, produced)) in chunk.iter_mut().zip(out).enumerate() {
                            consume(consumed_base + offset, item, produced);
                        }
                        consumed_base += chunk.len();
                        next += 1;
                    }
                }
                Ok(PipeMsg::Failed(payload)) => {
                    failure.get_or_insert(payload);
                }
                Err(_) => break, // unreachable: `tx` lives on this frame
            }
        }
        handle.finish();
        if let Some(payload) = failure {
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_mut_preserves_order_for_any_thread_count() {
        let expected: Vec<i64> = (0..97).map(|i| i * i).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let mut items: Vec<i64> = (0..97).collect();
            let exec = Executor::new(threads);
            let got = exec.map_mut(&mut items, |x| {
                *x *= 1; // exercise the &mut access
                *x * *x
            });
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn map_ref_preserves_order() {
        let items: Vec<usize> = (0..31).collect();
        let exec = Executor::new(4);
        assert_eq!(
            exec.map_ref(&items, |&x| x + 1),
            (1..32).collect::<Vec<usize>>()
        );
    }

    #[test]
    fn single_item_region_falls_back_to_serial() {
        // One item must not dispatch: the closure observes it runs on the
        // calling thread, and the pool is never spawned.
        let caller = std::thread::current().id();
        let mut items = [0u8; 1];
        let exec = Executor::new(8);
        assert!(!exec.should_parallelize(1) && exec.should_parallelize(2));
        exec.map_mut(&mut items, |_| {
            assert_eq!(std::thread::current().id(), caller);
        });
        assert!(!exec.pool_started());
    }

    #[test]
    fn parallelism_resolves_sensibly() {
        assert_eq!(Parallelism::Serial.resolve(), 1);
        assert_eq!(Parallelism::Threads(0).resolve(), 1);
        assert_eq!(Parallelism::Threads(6).resolve(), 6);
        assert!(Parallelism::Auto.resolve() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
        assert!(Executor::new(0).is_serial());
        assert!(!Executor::new(2).is_serial());
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        let exec = Executor::new(4);
        let mut empty: Vec<u32> = Vec::new();
        assert!(exec.map_mut(&mut empty, |x| *x).is_empty());
        let mut one = vec![5u32];
        assert_eq!(exec.map_mut(&mut one, |x| *x + 1), vec![6]);
    }

    // Regression: the result vector used to reserve `handles.len() * chunk`
    // elements — an over-reservation whenever `threads` does not divide
    // `len` (and a theoretical `usize` overflow) — instead of `len`. The
    // corners below pin the exact capacity for the empty slice and for
    // fewer items than threads.
    #[test]
    fn result_reservation_is_exact() {
        // len=5, threads=4 -> chunk=2, 3 chunks; old reservation was 6.
        let exec = Executor::new(4);
        let mut items: Vec<u8> = (0..5).collect();
        let out = exec.map_mut(&mut items, |x| *x);
        assert_eq!(out.len(), 5);
        assert_eq!(out.capacity(), 5, "reservation must be items.len()");
        let out = exec.map_ref(&items, |&x| x);
        assert_eq!(out.capacity(), 5, "reservation must be items.len()");
    }

    #[test]
    fn empty_slice_allocates_nothing_and_spawns_nothing() {
        let exec = Executor::new(8);
        let mut empty: Vec<u64> = Vec::new();
        let out = exec.map_mut(&mut empty, |x| *x);
        assert_eq!(out.capacity(), 0);
        assert!(!exec.pool_started(), "empty region must not spawn the pool");
    }

    #[test]
    fn fewer_items_than_threads_uses_one_chunk_per_item() {
        // len=2 < threads=8: 2 chunks, order kept.
        let exec = Executor::new(8);
        let mut items = vec![10u32, 20];
        let out = exec.map_mut(&mut items, |x| *x + 1);
        assert_eq!(out, vec![11, 21]);
        assert_eq!(out.capacity(), 2);
    }

    #[test]
    fn worker_panics_propagate_with_payload() {
        let exec = Executor::new(4);
        let mut items: Vec<usize> = (0..16).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.map_mut(&mut items, |&mut x| {
                assert!(x != 11, "boom at {x}");
                x
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("assert message preserved");
        assert!(msg.contains("boom at 11"), "{msg}");
        // The executor (and its pool) stays usable after the panic.
        let got = exec.map_ref(&[1u8, 2, 3], |&x| x);
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn executor_metrics_observe_without_changing_results() {
        let exec = Executor::new(2);
        // Serial executors have no pool: all metrics calls are no-ops.
        let serial = Executor::serial();
        serial.set_metrics_enabled(true);
        assert!(!serial.metrics_enabled());
        assert!(serial.pool_metrics().is_none());
        // Enabling spawns the pool and records every dispatched task.
        exec.set_metrics_enabled(true);
        assert!(exec.metrics_enabled());
        let mut items: Vec<u64> = (0..32).collect();
        let with_metrics = exec.map_mut(&mut items, |x| *x * 3);
        let snap = exec.pool_metrics().expect("pool spawned");
        assert!(snap.total_tasks() > 0);
        assert_eq!(snap.queue_depth, 0, "queue must drain");
        let mut hist = agsfl_telemetry::Histogram::new();
        exec.drain_dispatch_latency(&mut hist);
        assert_eq!(hist.count(), snap.total_tasks());
        // Same computation with metrics off is identical.
        exec.set_metrics_enabled(false);
        let without = exec.map_mut(&mut items, |x| *x * 3);
        assert_eq!(with_metrics, without);
    }

    #[test]
    fn pool_is_shared_across_clones_and_reused() {
        let exec = Executor::new(2);
        let clone = exec.clone();
        let mut items: Vec<u32> = (0..8).collect();
        exec.map_mut(&mut items, |x| *x);
        clone.map_mut(&mut items, |x| *x);
        assert!(exec.pool_started() && clone.pool_started());
        assert_eq!(
            exec.pool_generations(),
            clone.pool_generations(),
            "clones must share one pool"
        );
        assert!(exec.pool_generations() >= 2);
    }

    #[test]
    fn pool_and_serial_paths_are_bit_identical() {
        let exec = Executor::new(3);
        let items: Vec<f32> = (0..101).map(|i| i as f32 * 0.37).collect();
        let via_pool = exec.map_ref(&items, |&x| (x * x).to_bits());
        let serial: Vec<u32> = items.iter().map(|&x| (x * x).to_bits()).collect();
        assert_eq!(via_pool, serial);
    }

    #[test]
    fn pipeline_matches_serial_interleaving() {
        for threads in [1usize, 2, 4, 8] {
            let exec = Executor::new(threads);
            let mut items: Vec<u64> = (0..57).collect();
            let mut seen: Vec<(usize, u64, u64)> = Vec::new();
            exec.pipeline_mut(
                &mut items,
                |x| {
                    *x += 1;
                    *x * 2
                },
                |i, item, produced| seen.push((i, *item, produced)),
            );
            let expected: Vec<(usize, u64, u64)> = (0..57u64)
                .map(|i| (i as usize, i + 1, (i + 1) * 2))
                .collect();
            assert_eq!(seen, expected, "threads={threads}");
        }
    }

    #[test]
    fn pipeline_consumer_may_mutate_items() {
        let exec = Executor::new(4);
        let mut items: Vec<u64> = (0..40).collect();
        exec.pipeline_mut(
            &mut items,
            |x| *x * 10,
            |_, item, produced| *item = produced + 1,
        );
        let expected: Vec<u64> = (0..40).map(|i| i * 10 + 1).collect();
        assert_eq!(items, expected);
    }

    #[test]
    fn pipeline_producer_panic_propagates() {
        let exec = Executor::new(4);
        let mut items: Vec<usize> = (0..32).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.pipeline_mut(
                &mut items,
                |&mut x| {
                    assert!(x != 17, "pipe boom at {x}");
                    x
                },
                |_, _, _| {},
            );
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("pipe boom at 17"), "{msg}");
    }

    #[test]
    fn nested_regions_run_inline_on_workers() {
        // A region whose closure itself maps through the executor must not
        // deadlock: the nested call runs inline on the worker.
        let exec = Executor::new(2);
        let inner = exec.clone();
        let items: Vec<u32> = (0..8).collect();
        let nested: Vec<Vec<u32>> = exec.map_ref(&items, |&x| {
            let small: Vec<u32> = (0..4).map(|i| i + x).collect();
            inner.map_ref(&small, |&y| y * 2)
        });
        for (x, row) in nested.into_iter().enumerate() {
            let expected: Vec<u32> = (0..4).map(|i| (i + x as u32) * 2).collect();
            assert_eq!(row, expected);
        }
    }
}
