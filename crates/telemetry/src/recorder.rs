//! The `Recorder` trait and its two implementations: the zero-cost
//! [`NoopRecorder`] default and the collecting [`StageRecorder`].

use crate::hist::Histogram;
use crate::ids::SpanId;

/// Sink for wall-clock stage spans.
///
/// A recorder observes time and nothing else: the round's deterministic
/// facts (`k`, the round time, the cohort, wire bytes, fault tallies) live
/// in the round report, the metrics line written from it and the run
/// history, never in a second copy here. Both methods have no-op defaults,
/// and [`Recorder::enabled`] defaults to `false`: instrumented code gates
/// its clock reads on `enabled()`, so a recorder that keeps the default
/// compiles the instrumentation away entirely after monomorphization.
/// Implementations must not draw randomness or otherwise feed back into
/// the computation they observe — telemetry is read-only with respect to
/// the trajectory.
pub trait Recorder {
    /// Whether this recorder wants events at all. Instrumented code skips
    /// clock reads (and any other observation cost) when this is `false`.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// Records one completed span of `nanos` under `id`.
    #[inline]
    fn span(&mut self, _id: SpanId, _nanos: u64) {}
}

/// The default recorder: discards everything, reports `enabled() = false`.
///
/// `Simulation::run_round` and the other un-instrumented entry points pass
/// this; the optimizer removes the instrumentation they contain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A collecting recorder: one [`Histogram`] per span (cumulative across
/// rounds) plus each span's nanoseconds since [`StageRecorder::begin_round`]
/// — the raw material for the per-round JSONL line and the cumulative
/// summary table.
///
/// All state is preallocated at construction; recording is array indexing
/// and integer adds, never an allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecorder {
    spans: Vec<Histogram>,
    round_span_ns: [u64; SpanId::COUNT],
}

impl Default for StageRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl StageRecorder {
    /// An empty recorder with every histogram preallocated.
    pub fn new() -> Self {
        Self {
            spans: (0..SpanId::COUNT).map(|_| Histogram::new()).collect(),
            round_span_ns: [0; SpanId::COUNT],
        }
    }

    /// Clears the per-round span nanoseconds; the cumulative histograms
    /// persist.
    pub fn begin_round(&mut self) {
        self.round_span_ns = [0; SpanId::COUNT];
    }

    /// The cumulative histogram of one span.
    pub fn span_histogram(&self, id: SpanId) -> &Histogram {
        &self.spans[id.index()]
    }

    /// Nanoseconds recorded under `id` since the last
    /// [`StageRecorder::begin_round`] (sum over samples).
    pub fn round_span_ns(&self, id: SpanId) -> u64 {
        self.round_span_ns[id.index()]
    }

    /// Folds another recorder into this one (shard merge, called in worker
    /// order): histograms merge bucket-wise and the per-round nanoseconds
    /// add. Integer operations only, so the fold is bit-identical
    /// regardless of how samples were sharded.
    pub fn merge(&mut self, other: &StageRecorder) {
        for (a, b) in self.spans.iter_mut().zip(other.spans.iter()) {
            a.merge(b);
        }
        for (a, &b) in self
            .round_span_ns
            .iter_mut()
            .zip(other.round_span_ns.iter())
        {
            *a = a.saturating_add(b);
        }
    }
}

impl Recorder for StageRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn span(&mut self, id: SpanId, nanos: u64) {
        self.spans[id.index()].record(nanos);
        let slot = &mut self.round_span_ns[id.index()];
        *slot = slot.saturating_add(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_free() {
        let mut rec = NoopRecorder;
        assert!(!rec.enabled());
        assert_eq!(crate::stage(&mut rec, SpanId::Selection, || 7), 7);
    }

    #[test]
    fn stage_recorder_collects_rounds_and_totals() {
        let mut rec = StageRecorder::new();
        assert!(rec.enabled());
        rec.begin_round();
        rec.span(SpanId::Selection, 100);
        rec.span(SpanId::Selection, 50);
        assert_eq!(rec.round_span_ns(SpanId::Selection), 150);
        assert_eq!(rec.span_histogram(SpanId::Selection).count(), 2);
        assert_eq!(crate::stage(&mut rec, SpanId::Probe, || 7), 7);
        assert_eq!(rec.span_histogram(SpanId::Probe).count(), 1);

        rec.begin_round();
        assert_eq!(rec.round_span_ns(SpanId::Selection), 0);
        // Cumulative state survives the round boundary.
        assert_eq!(rec.span_histogram(SpanId::Selection).count(), 2);
        assert_eq!(rec.span_histogram(SpanId::Selection).sum(), 150);
    }

    #[test]
    fn merge_is_bitwise_equal_to_single_recorder() {
        let mut whole = StageRecorder::new();
        let mut a = StageRecorder::new();
        let mut b = StageRecorder::new();
        for i in 0..100u64 {
            let ns = i * 37 + 5;
            whole.span(SpanId::ClientPass, ns);
            if i % 2 == 0 {
                a.span(SpanId::ClientPass, ns);
            } else {
                b.span(SpanId::ClientPass, ns);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }
}
