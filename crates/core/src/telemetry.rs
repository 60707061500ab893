//! Run-level telemetry: the [`TelemetrySpec`] knob, the per-round
//! `metrics.jsonl` emission, and the recorder state an [`Experiment`]
//! carries while a spec is installed.
//!
//! # The byte-identity contract
//!
//! A metrics line always carries the round's **deterministic facts** —
//! round number, `k`, training loss, simulated times, cohort size, wire
//! bytes, codec frame counts, fault tallies. Every one of them is a pure
//! function of the seeded trajectory, so two identically-configured runs
//! write **byte-identical** `metrics.jsonl` files (pinned by a test).
//! Wall-clock observations — stage span nanoseconds ([`TelemetrySpec::
//! timings`]), worker-pool counters ([`TelemetrySpec::pool`]), and process
//! memory probes ([`TelemetrySpec::memory`]) — vary run to run by nature,
//! so each set must be opted into explicitly and is appended *after* the
//! deterministic fields, keeping the stable prefix grep-able.
//!
//! Telemetry is observation only in the strong sense the rest of the
//! workspace pins: installing a spec draws no randomness and perturbs no
//! float fold, so a recorded run's trajectory is bit-identical to an
//! unobserved one (the goldens run with recording enabled in
//! `telemetry_determinism.rs`).
//!
//! [`Experiment`]: crate::Experiment

use std::io;
use std::path::PathBuf;

use agsfl_exec::metrics::PoolMetricsSnapshot;
use agsfl_fl::RoundReport;
use agsfl_telemetry::{GaugeId, Histogram, JsonlSink, Recorder, SpanId, StageRecorder};

/// How a run records and sinks telemetry. Install on an
/// [`Experiment`](crate::Experiment) with
/// [`Experiment::set_telemetry`](crate::Experiment::set_telemetry).
///
/// This is a runtime knob, not configuration: it is deliberately not part
/// of [`ExperimentConfig`](crate::ExperimentConfig) (and therefore never
/// serialized or fingerprinted into checkpoints), because observation must
/// never decide whether two runs count as "the same experiment".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySpec {
    /// Where to write the JSONL metrics stream (one self-describing object
    /// per round). `None` records in memory only — the
    /// [`StageRecorder`] is still available for summaries.
    pub path: Option<PathBuf>,
    /// Sink flush cadence in lines (0 is treated as 1: flush every line).
    /// Memory probes sample on the same cadence.
    pub flush_every: usize,
    /// Include wall-clock stage spans in each line. Non-deterministic.
    pub timings: bool,
    /// Include worker-pool counters (busy/idle fractions, dispatch
    /// latency, queue depth) and enable them on the executor.
    /// Non-deterministic.
    pub pool: bool,
    /// Include process memory probes (RSS, peak RSS, thread count),
    /// sampled every [`TelemetrySpec::flush_every`] rounds.
    /// Non-deterministic.
    pub memory: bool,
}

impl TelemetrySpec {
    /// The deterministic default: sink to `path`, flush every 32 lines, no
    /// wall-clock sets — two identical seeded runs produce byte-identical
    /// files.
    pub fn deterministic(path: impl Into<PathBuf>) -> Self {
        Self {
            path: Some(path.into()),
            flush_every: 32,
            ..Self::default()
        }
    }

    /// Everything on: the deterministic fields plus timings, pool, and
    /// memory sets. The file is no longer byte-reproducible.
    pub fn full(path: impl Into<PathBuf>) -> Self {
        Self {
            path: Some(path.into()),
            flush_every: 32,
            timings: true,
            pool: true,
            memory: true,
        }
    }

    /// Adds the wall-clock stage-span set.
    pub fn with_timings(mut self) -> Self {
        self.timings = true;
        self
    }
}

/// Live telemetry state of a run: the installed spec, the accumulating
/// recorder, and the open sink.
#[derive(Debug)]
pub struct TelemetryState {
    spec: TelemetrySpec,
    recorder: StageRecorder,
    dispatch: Histogram,
    sink: Option<JsonlSink>,
    lines: usize,
}

impl TelemetryState {
    /// Opens the sink (truncating any previous file) and prepares a fresh
    /// recorder.
    pub fn open(spec: TelemetrySpec) -> io::Result<Self> {
        let flush_every = spec.flush_every.max(1);
        let sink = match &spec.path {
            Some(path) => Some(JsonlSink::create(path, flush_every)?),
            None => None,
        };
        Ok(Self {
            spec,
            recorder: StageRecorder::new(),
            dispatch: Histogram::new(),
            sink,
            lines: 0,
        })
    }

    /// The installed spec.
    pub fn spec(&self) -> &TelemetrySpec {
        &self.spec
    }

    /// The accumulating recorder (for summaries after the run).
    pub fn recorder(&self) -> &StageRecorder {
        &self.recorder
    }

    /// Mutable recorder access for the round loop.
    pub(crate) fn recorder_mut(&mut self) -> &mut StageRecorder {
        &mut self.recorder
    }

    /// The cumulative task dispatch-latency histogram (submit → dequeue),
    /// drained from the worker pool on each round when the pool set is on.
    pub fn dispatch_histogram(&self) -> &Histogram {
        &self.dispatch
    }

    /// Mutable dispatch-histogram access for the round loop's drain.
    pub(crate) fn dispatch_mut(&mut self) -> &mut Histogram {
        &mut self.dispatch
    }

    /// Emits one round's metrics line and flushes on the spec's cadence.
    /// Call after `run_round_recorded` returned `report` into `self`'s
    /// recorder. `pool` is the executor's snapshot when the pool set is on.
    pub(crate) fn emit_round(
        &mut self,
        report: &RoundReport,
        pool: Option<&PoolMetricsSnapshot>,
    ) -> io::Result<()> {
        self.lines += 1;
        // Memory probes sample on the flush cadence (first line included)
        // and land in the recorder's gauges even when no sink is open.
        let sample_memory =
            self.spec.memory && (self.lines - 1).is_multiple_of(self.spec.flush_every.max(1));
        if sample_memory {
            if let Some(rss) = agsfl_exec::mem::current_rss_bytes() {
                self.recorder.gauge(GaugeId::RssBytes, rss);
            }
            if let Some(peak) = agsfl_exec::mem::peak_rss_bytes() {
                self.recorder.gauge(GaugeId::RssPeakBytes, peak);
            }
            if let Some(threads) = agsfl_exec::mem::thread_count() {
                self.recorder.gauge(GaugeId::Threads, threads);
            }
        }
        let Some(sink) = &mut self.sink else {
            return Ok(());
        };
        let line = render_line(&self.spec, &self.recorder, report, pool, sample_memory);
        sink.write_line(&line)
    }

    /// Flushes any buffered lines (also happens on drop).
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        match &mut self.sink {
            Some(sink) => sink.flush(),
            None => Ok(()),
        }
    }
}

/// Renders one self-describing JSONL object for a finished round. The
/// deterministic fields come first in a fixed order; opted-in wall-clock
/// sets follow.
fn render_line(
    spec: &TelemetrySpec,
    rec: &StageRecorder,
    report: &RoundReport,
    pool: Option<&PoolMetricsSnapshot>,
    include_memory: bool,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(256);
    let _ = write!(
        s,
        "{{\"round\":{},\"k\":{},\"train_loss\":{},\"round_time\":{},\"elapsed_time\":{},\"cohort\":{},\"downlink_elements\":{}",
        report.round,
        report.k_used,
        report.train_loss,
        report.round_time,
        report.elapsed_time,
        report.cohort.len(),
        report.downlink_elements,
    );
    if let Some(wire) = &report.wire {
        let uplink: u64 = wire.uplink_bytes.iter().map(|&b| b as u64).sum();
        let _ = write!(
            s,
            ",\"uplink_bytes\":{},\"max_uplink_bytes\":{},\"downlink_bytes\":{},\"uplink_frames\":{},\"downlink_codec\":\"{}\"",
            uplink,
            wire.max_uplink_bytes,
            wire.downlink_bytes,
            wire.uplink_codecs.len(),
            wire.downlink_codec.name(),
        );
    }
    if let Some(fault) = &report.fault {
        let _ = write!(
            s,
            ",\"fault\":{{\"offline\":{},\"dropped\":{},\"stragglers\":{},\"corrupt_frames\":{},\"lost\":{},\"retries\":{},\"retransmitted_bytes\":{},\"survivors\":{}}}",
            fault.offline,
            fault.dropped,
            fault.stragglers,
            fault.corrupt_frames,
            fault.corrupt_lost + fault.deadline_dropped,
            fault.retries,
            fault.retransmitted_bytes,
            fault.survivors,
        );
    }
    if spec.timings {
        s.push_str(",\"spans_ns\":{");
        let mut first = true;
        for id in SpanId::ALL {
            let ns = rec.round_span_ns(id);
            if ns == 0 {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "\"{}\":{}", id.name(), ns);
        }
        s.push('}');
    }
    if spec.pool {
        if let Some(snap) = pool {
            let _ = write!(
                s,
                ",\"pool\":{{\"workers\":{},\"busy_ns\":{},\"idle_ns\":{},\"tasks\":{},\"queue_depth_peak\":{},\"imbalance\":{}}}",
                snap.workers.len(),
                snap.total_busy_ns(),
                snap.total_idle_ns(),
                snap.total_tasks(),
                snap.queue_depth_peak,
                snap.imbalance_ratio(),
            );
        }
    }
    if include_memory {
        let _ = write!(
            s,
            ",\"mem\":{{\"rss_bytes\":{},\"rss_peak_bytes\":{},\"threads\":{}}}",
            rec.gauge_value(GaugeId::RssBytes),
            rec.gauge_value(GaugeId::RssPeakBytes),
            rec.gauge_value(GaugeId::Threads),
        );
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_spec_has_no_wallclock_sets() {
        let spec = TelemetrySpec::deterministic("m.jsonl");
        assert!(!spec.timings && !spec.pool && !spec.memory);
        assert_eq!(spec.flush_every, 32);
        let full = TelemetrySpec::full("m.jsonl");
        assert!(full.timings && full.pool && full.memory);
    }

    #[test]
    fn line_orders_deterministic_fields_first() {
        let spec = TelemetrySpec {
            path: None,
            flush_every: 1,
            timings: true,
            pool: false,
            memory: false,
        };
        let mut rec = StageRecorder::new();
        rec.begin_round();
        rec.span(SpanId::ClientPass, 1234);
        let report = RoundReport {
            round: 1,
            k_used: 8,
            train_loss: 0.5,
            round_time: 2.0,
            elapsed_time: 2.0,
            downlink_elements: 8,
            max_uplink_scalars: 8,
            cohort: vec![0, 1, 2],
            contributions: vec![1, 2, 3],
            probe: None,
            wire: None,
            fault: None,
        };
        let line = render_line(&spec, &rec, &report, None, false);
        assert!(line.starts_with("{\"round\":1,\"k\":8,\"train_loss\":0.5"));
        assert!(line.contains("\"spans_ns\":{\"client_pass\":1234}"));
        assert!(line.ends_with('}'));
        assert!(!line.contains('\n'));
    }
}
