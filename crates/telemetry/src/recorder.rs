//! The `Recorder` trait and its two implementations: the zero-cost
//! [`NoopRecorder`] default and the collecting [`StageRecorder`].

use crate::hist::Histogram;
use crate::ids::{CounterId, GaugeId, SpanId};

/// Sink for instrumentation events.
///
/// Every method has a no-op default, and [`Recorder::enabled`] defaults to
/// `false`: instrumented code gates its clock reads on `enabled()`, so a
/// recorder that keeps the default compiles the instrumentation away
/// entirely after monomorphization. Implementations must not draw
/// randomness or otherwise feed back into the computation they observe —
/// telemetry is read-only with respect to the trajectory.
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

    /// Adds `delta` to the counter `id`.
    #[inline]
    fn counter(&mut self, _id: CounterId, _delta: u64) {}

    /// Sets the gauge `id` to `value`.
    #[inline]
    fn gauge(&mut self, _id: GaugeId, _value: u64) {}
}

/// The default recorder: discards everything, reports `enabled() = false`.
///
/// `Simulation::run_round` and the other un-instrumented entry points pass
/// this; the optimizer removes the instrumentation they contain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A collecting recorder: one [`Histogram`] per span (cumulative across
/// rounds), exact counters and last/max gauges, plus per-round deltas that
/// reset at [`StageRecorder::begin_round`] — the raw material for the
/// per-round JSONL line and the cumulative summary table.
///
/// All state is preallocated at construction; recording is array indexing
/// and integer adds, never an allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecorder {
    spans: Vec<Histogram>,
    round_span_ns: [u64; SpanId::COUNT],
    counters: [u64; CounterId::COUNT],
    round_counters: [u64; CounterId::COUNT],
    gauges: [u64; GaugeId::COUNT],
    gauge_max: [u64; GaugeId::COUNT],
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
            counters: [0; CounterId::COUNT],
            round_counters: [0; CounterId::COUNT],
            gauges: [0; GaugeId::COUNT],
            gauge_max: [0; GaugeId::COUNT],
        }
    }

    /// Clears the per-round deltas (span nanoseconds and counter deltas);
    /// the cumulative histograms, counters, and gauge maxima persist.
    pub fn begin_round(&mut self) {
        self.round_span_ns = [0; SpanId::COUNT];
        self.round_counters = [0; CounterId::COUNT];
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

    /// Cumulative value of a counter.
    pub fn counter_total(&self, id: CounterId) -> u64 {
        self.counters[id.index()]
    }

    /// Counter delta since the last [`StageRecorder::begin_round`].
    #[cfg(test)]
    fn round_counter(&self, id: CounterId) -> u64 {
        self.round_counters[id.index()]
    }

    /// Last value set on a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> u64 {
        self.gauges[id.index()]
    }

    /// Largest value ever set on a gauge.
    pub fn gauge_peak(&self, id: GaugeId) -> u64 {
        self.gauge_max[id.index()]
    }

    /// Folds another recorder into this one (shard merge, called in worker
    /// order): histograms merge bucket-wise, counters add, gauge maxima
    /// fold by max, and the per-round deltas add. Integer operations only,
    /// so the fold is bit-identical regardless of how samples were
    /// sharded.
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
        for (a, &b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a = a.saturating_add(b);
        }
        for (a, &b) in self
            .round_counters
            .iter_mut()
            .zip(other.round_counters.iter())
        {
            *a = a.saturating_add(b);
        }
        for (a, &b) in self.gauge_max.iter_mut().zip(other.gauge_max.iter()) {
            *a = (*a).max(b);
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

    #[inline]
    fn counter(&mut self, id: CounterId, delta: u64) {
        let total = &mut self.counters[id.index()];
        *total = total.saturating_add(delta);
        let round = &mut self.round_counters[id.index()];
        *round = round.saturating_add(delta);
    }

    #[inline]
    fn gauge(&mut self, id: GaugeId, value: u64) {
        self.gauges[id.index()] = value;
        let peak = &mut self.gauge_max[id.index()];
        *peak = (*peak).max(value);
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
        rec.counter(CounterId::UplinkBytes, 7);
        rec.gauge(GaugeId::QueueDepthPeak, 3);
        assert_eq!(rec.round_span_ns(SpanId::Selection), 150);
        assert_eq!(rec.span_histogram(SpanId::Selection).count(), 2);
        assert_eq!(rec.round_counter(CounterId::UplinkBytes), 7);
        assert_eq!(crate::stage(&mut rec, SpanId::Probe, || 7), 7);
        assert_eq!(rec.span_histogram(SpanId::Probe).count(), 1);

        rec.begin_round();
        assert_eq!(rec.round_span_ns(SpanId::Selection), 0);
        assert_eq!(rec.round_counter(CounterId::UplinkBytes), 0);
        // Cumulative state survives the round boundary.
        assert_eq!(rec.span_histogram(SpanId::Selection).count(), 2);
        assert_eq!(rec.counter_total(CounterId::UplinkBytes), 7);
        rec.gauge(GaugeId::QueueDepthPeak, 1);
        assert_eq!(rec.gauge_value(GaugeId::QueueDepthPeak), 1);
        assert_eq!(rec.gauge_peak(GaugeId::QueueDepthPeak), 3);
    }

    #[test]
    fn merge_is_bitwise_equal_to_single_recorder() {
        let mut whole = StageRecorder::new();
        let mut a = StageRecorder::new();
        let mut b = StageRecorder::new();
        for i in 0..100u64 {
            let ns = i * 37 + 5;
            whole.span(SpanId::ClientPass, ns);
            whole.counter(CounterId::Rounds, 1);
            if i % 2 == 0 {
                a.span(SpanId::ClientPass, ns);
                a.counter(CounterId::Rounds, 1);
            } else {
                b.span(SpanId::ClientPass, ns);
                b.counter(CounterId::Rounds, 1);
            }
        }
        a.merge(&b);
        assert_eq!(
            a.span_histogram(SpanId::ClientPass),
            whole.span_histogram(SpanId::ClientPass)
        );
        assert_eq!(
            a.counter_total(CounterId::Rounds),
            whole.counter_total(CounterId::Rounds)
        );
    }
}
