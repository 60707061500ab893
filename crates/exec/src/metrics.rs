//! Worker-pool metrics: per-worker busy/idle time, task counts, dispatch
//! latency, and queue depth, collected without locks on the hot path.
//!
//! Everything here is relaxed atomics and fixed, preallocated storage:
//!
//! * each worker owns a `WorkerStats` row (busy/idle nanoseconds, task
//!   count, and a lossy single-producer ring of dispatch-latency samples),
//!   written only by that worker with relaxed stores;
//! * the submitter maintains the queue depth (incremented per task at
//!   submit, decremented by the dequeuing worker) and its peak via
//!   `fetch_max`;
//! * recording is gated on one [`AtomicBool`]: with metrics disabled the
//!   pool pays a single relaxed load per region and per dequeue, and never
//!   reads the clock.
//!
//! The rings are drained — into an integer
//! [`Histogram`], workers folded in index
//! order — by whoever snapshots the pool (the runner's sink cadence,
//! `bench-report`, the scale sweep). A full ring overwrites its oldest
//! samples and counts them as dropped rather than ever blocking a worker.
//! None of this feeds back into scheduling or results: pool metrics are
//! observation only, and the golden-trajectory pins run with them enabled.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use agsfl_telemetry::Histogram;

/// Dispatch-latency samples retained per worker between drains.
const RING_SLOTS: usize = 1024;

/// A lossy single-producer ring of `u64` samples.
///
/// The owning worker pushes with relaxed stores; the (single) drainer
/// reads the youngest `RING_SLOTS` samples and advances its cursor. A
/// concurrent push may overwrite a slot mid-drain — the drain then sees
/// the newer sample, which is acceptable for latency histograms and keeps
/// the producer wait-free.
#[derive(Debug)]
struct SampleRing {
    slots: Vec<AtomicU64>,
    /// Total samples ever pushed (writer-owned).
    head: AtomicU64,
    /// Total samples consumed or dropped (drainer-owned).
    cursor: AtomicU64,
}

impl SampleRing {
    fn new() -> Self {
        Self {
            slots: (0..RING_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            head: AtomicU64::new(0),
            cursor: AtomicU64::new(0),
        }
    }

    /// Worker-side push: one store and one counter bump, never blocks.
    fn push(&self, sample: u64) {
        let h = self.head.load(Ordering::Relaxed);
        self.slots[(h % RING_SLOTS as u64) as usize].store(sample, Ordering::Relaxed);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Drains every sample since the last drain into `hist`, returning how
    /// many were overwritten before they could be read.
    fn drain_into(&self, hist: &mut Histogram) -> u64 {
        let head = self.head.load(Ordering::Acquire);
        let cursor = self.cursor.load(Ordering::Relaxed);
        let start = cursor.max(head.saturating_sub(RING_SLOTS as u64));
        for i in start..head {
            hist.record(self.slots[(i % RING_SLOTS as u64) as usize].load(Ordering::Relaxed));
        }
        self.cursor.store(head, Ordering::Relaxed);
        start - cursor
    }
}

/// One worker's cumulative accounting, written only by that worker.
#[derive(Debug)]
pub(crate) struct WorkerStats {
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    tasks: AtomicU64,
    ring: SampleRing,
}

impl WorkerStats {
    fn new() -> Self {
        Self {
            busy_ns: AtomicU64::new(0),
            idle_ns: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            ring: SampleRing::new(),
        }
    }

    /// Adds nanoseconds spent executing a task.
    pub(crate) fn add_busy_ns(&self, ns: u64) {
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.tasks.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds nanoseconds spent blocked waiting for work.
    pub(crate) fn add_idle_ns(&self, ns: u64) {
        self.idle_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one dispatch latency sample (submit → dequeue).
    pub(crate) fn record_dispatch_ns(&self, ns: u64) {
        self.ring.push(ns);
    }
}

/// Shared pool metrics: the enable gate, queue-depth accounting, and one
/// `WorkerStats` row per worker.
#[derive(Debug)]
pub struct PoolMetrics {
    enabled: AtomicBool,
    queue_depth: AtomicU64,
    queue_peak: AtomicU64,
    workers: Vec<WorkerStats>,
}

impl PoolMetrics {
    pub(crate) fn new(workers: usize) -> Self {
        Self {
            enabled: AtomicBool::new(false),
            queue_depth: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            workers: (0..workers).map(|_| WorkerStats::new()).collect(),
        }
    }

    /// Whether recording is on. The hot path's only unconditional cost.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Safe at any time; per-task accounting is
    /// keyed on the submit-time decision, so depth increments and
    /// decrements stay paired across a flip.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Submitter-side: one task entered the queue.
    pub(crate) fn task_submitted(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Worker-side: one instrumented task left the queue.
    pub(crate) fn task_dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn worker(&self, index: usize) -> &WorkerStats {
        &self.workers[index]
    }

    /// A point-in-time copy of every cumulative counter.
    pub fn snapshot(&self) -> PoolMetricsSnapshot {
        PoolMetricsSnapshot {
            workers: self
                .workers
                .iter()
                .map(|w| WorkerCounters {
                    busy_ns: w.busy_ns.load(Ordering::Relaxed),
                    idle_ns: w.idle_ns.load(Ordering::Relaxed),
                    tasks: w.tasks.load(Ordering::Relaxed),
                })
                .collect(),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_peak.load(Ordering::Relaxed),
        }
    }

    /// Drains every worker's dispatch-latency ring into `hist`, folding
    /// workers in index order, and returns how many samples were lost to
    /// ring overwrites since the previous drain.
    pub fn drain_dispatch_into(&self, hist: &mut Histogram) -> u64 {
        self.workers.iter().map(|w| w.ring.drain_into(hist)).sum()
    }
}

/// Cumulative counters of one worker at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Nanoseconds spent executing tasks.
    pub busy_ns: u64,
    /// Nanoseconds spent blocked waiting for work (while metrics were on).
    pub idle_ns: u64,
    /// Tasks executed.
    pub tasks: u64,
}

/// A point-in-time view of the pool's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolMetricsSnapshot {
    /// Per-worker counters, in worker index order.
    pub workers: Vec<WorkerCounters>,
    /// Tasks currently queued (submitted, not yet dequeued).
    pub queue_depth: u64,
    /// Largest queue depth ever observed.
    pub queue_depth_peak: u64,
}

impl PoolMetricsSnapshot {
    /// Summed busy nanoseconds across workers.
    pub fn total_busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }

    /// Summed idle nanoseconds across workers.
    pub fn total_idle_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.idle_ns).sum()
    }

    /// Tasks executed across workers.
    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks).sum()
    }

    /// Fraction of observed worker time spent executing tasks
    /// (`busy / (busy + idle)`); 0 before any accounting.
    pub fn busy_fraction(&self) -> f64 {
        let busy = self.total_busy_ns() as f64;
        let idle = self.total_idle_ns() as f64;
        if busy + idle == 0.0 {
            0.0
        } else {
            busy / (busy + idle)
        }
    }

    /// Chunk-imbalance ratio: the busiest worker's busy time over the mean
    /// busy time (1.0 = perfectly balanced chunks; 0 before any work).
    pub fn imbalance_ratio(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        let max = self.workers.iter().map(|w| w.busy_ns).max().unwrap_or(0) as f64;
        let mean = self.total_busy_ns() as f64 / self.workers.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_the_default() {
        let m = PoolMetrics::new(2);
        assert!(!m.enabled());
        m.set_enabled(true);
        assert!(m.enabled());
    }

    #[test]
    fn queue_depth_tracks_submissions_and_peak() {
        let m = PoolMetrics::new(1);
        m.task_submitted();
        m.task_submitted();
        m.task_dequeued();
        let snap = m.snapshot();
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.queue_depth_peak, 2);
    }

    #[test]
    fn worker_counters_and_fractions() {
        let m = PoolMetrics::new(2);
        m.worker(0).add_busy_ns(300);
        m.worker(0).add_idle_ns(100);
        m.worker(1).add_busy_ns(100);
        m.worker(1).add_idle_ns(300);
        let snap = m.snapshot();
        assert_eq!(snap.total_busy_ns(), 400);
        assert_eq!(snap.total_idle_ns(), 400);
        assert_eq!(snap.total_tasks(), 2);
        assert!((snap.busy_fraction() - 0.5).abs() < 1e-12);
        // Busiest worker did 300 of a 200 mean: ratio 1.5.
        assert!((snap.imbalance_ratio() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ring_drains_once_and_counts_overwrites() {
        let m = PoolMetrics::new(1);
        for i in 0..10u64 {
            m.worker(0).record_dispatch_ns(i);
        }
        let mut hist = Histogram::new();
        assert_eq!(m.drain_dispatch_into(&mut hist), 0);
        assert_eq!(hist.count(), 10);
        // Nothing new: second drain is empty.
        let mut again = Histogram::new();
        assert_eq!(m.drain_dispatch_into(&mut again), 0);
        assert!(again.is_empty());
        // Overflow the ring: the oldest samples are counted as dropped.
        for i in 0..(RING_SLOTS as u64 + 7) {
            m.worker(0).record_dispatch_ns(i);
        }
        let mut third = Histogram::new();
        assert_eq!(m.drain_dispatch_into(&mut third), 7);
        assert_eq!(third.count(), RING_SLOTS as u64);
    }
}
