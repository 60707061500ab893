//! Plain-text rendering of experiment results.
//!
//! The paper presents its results as figures; this reproduction regenerates
//! the underlying *series* and prints them as aligned text tables so the
//! shapes (who wins, by how much, where curves cross) can be read directly
//! from the benchmark output.

use agsfl_fl::RunHistory;
use agsfl_telemetry::{Histogram, SpanId};

use crate::telemetry::TelemetryState;

/// Formats a `(time, value)` series sampled at the given time points from a
/// set of labelled histories, using the global-loss channel.
pub fn loss_table(histories: &[&RunHistory], times: &[f64]) -> String {
    sampled_table(histories, times, |h, t| h.loss_at_time(t))
}

/// Formats a `(time, value)` series sampled at the given time points from a
/// set of labelled histories, using the test-accuracy channel.
pub fn accuracy_table(histories: &[&RunHistory], times: &[f64]) -> String {
    sampled_table(histories, times, |h, t| h.accuracy_at_time(t))
}

fn sampled_table(
    histories: &[&RunHistory],
    times: &[f64],
    sample: impl Fn(&RunHistory, f64) -> Option<f64>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:>12}", "time"));
    for h in histories {
        out.push_str(&format!("  {:>24}", truncate(&h.label, 24)));
    }
    out.push('\n');
    for &t in times {
        out.push_str(&format!("{t:>12.1}"));
        for h in histories {
            match sample(h, t) {
                Some(v) => out.push_str(&format!("  {v:>24.4}")),
                None => out.push_str(&format!("  {:>24}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Formats the `k_m` trajectory of each history, sub-sampled to at most
/// `max_rows` rows.
pub fn k_trajectory_table(histories: &[&RunHistory], max_rows: usize) -> String {
    let longest = histories.iter().map(|h| h.len()).max().unwrap_or(0);
    let step = (longest / max_rows.max(1)).max(1);
    let mut out = String::new();
    out.push_str(&format!("{:>10}", "round"));
    for h in histories {
        out.push_str(&format!("  {:>24}", truncate(&h.label, 24)));
    }
    out.push('\n');
    let mut round = 0usize;
    while round < longest {
        out.push_str(&format!("{:>10}", round + 1));
        for h in histories {
            match h.points().get(round) {
                Some(p) => out.push_str(&format!("  {:>24}", p.k)),
                None => out.push_str(&format!("  {:>24}", "-")),
            }
        }
        out.push('\n');
        round += step;
    }
    out
}

/// Formats the per-client contribution CDFs of the given histories at a fixed
/// set of quantiles (the data behind Fig. 4, right panel).
pub fn contribution_summary(histories: &[&RunHistory]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26}{:>14}{:>14}{:>14}{:>18}\n",
        "method", "min", "median", "max", "clients with 0"
    ));
    for h in histories {
        let cdf = h.contribution_cdf();
        let zero_fraction = cdf.eval(0.0);
        out.push_str(&format!(
            "{:<26}{:>14.0}{:>14.0}{:>14.0}{:>17.1}%\n",
            truncate(&h.label, 26),
            cdf.quantile(0.0).unwrap_or(0.0),
            cdf.quantile(0.5).unwrap_or(0.0),
            cdf.quantile(1.0).unwrap_or(0.0),
            zero_fraction * 100.0
        ));
    }
    out
}

/// Formats the accumulated fault counters of the given histories: uploads
/// lost per fault class, stragglers and corrupted frames, retry overhead on
/// the wire, and the smallest cohort the server ever aggregated over.
pub fn fault_summary(histories: &[&RunHistory]) -> String {
    let mut out = String::from(
        "method                      lost  offline  drop  corrupt  ddl  straggle  frames  retries   rtx [B]  min surv\n",
    );
    for h in histories {
        let t = h.fault_totals();
        let min_survivors = t
            .min_survivors
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "{:<26}{:>6}{:>9}{:>6}{:>9}{:>5}{:>10}{:>8}{:>9}{:>10}{:>10}\n",
            truncate(&h.label, 26),
            t.lost(),
            t.offline,
            t.dropped,
            t.corrupt_lost,
            t.deadline_dropped,
            t.stragglers,
            t.corrupt_frames,
            t.retries,
            t.retransmitted_bytes,
            min_survivors
        ));
    }
    out
}

/// Formats the cumulative wall-clock telemetry of a run: one row per
/// observed stage span (count, p50/p95/p99 and total wall time), the
/// worker pool's dispatch latency when it was drained, and the last
/// process memory sample when one was taken. The run's deterministic
/// totals — wire bytes, codec counts, fault tallies — are the
/// [`RunHistory`]'s ([`fault_summary`], [`RunHistory::wire_bytes`]).
///
/// Quantiles come from the log-bucketed [`Histogram`], so they are bucket
/// lower bounds — stable summaries, not exact order statistics.
pub fn telemetry_summary(state: &TelemetryState) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18}{:>10}{:>14}{:>14}{:>14}{:>16}\n",
        "span", "count", "p50 [us]", "p95 [us]", "p99 [us]", "total [ms]"
    ));
    let span_row = |out: &mut String, name: &str, h: &Histogram| {
        let us = |q: Option<u64>| q.unwrap_or(0) as f64 / 1_000.0;
        out.push_str(&format!(
            "{:<18}{:>10}{:>14.1}{:>14.1}{:>14.1}{:>16.2}\n",
            truncate(name, 18),
            h.count(),
            us(h.p50()),
            us(h.p95()),
            us(h.p99()),
            h.sum() as f64 / 1_000_000.0,
        ));
    };
    for id in SpanId::ALL {
        let h = state.recorder().span_histogram(id);
        if !h.is_empty() {
            span_row(&mut out, id.name(), h);
        }
    }
    if !state.dispatch_histogram().is_empty() {
        span_row(&mut out, "pool_dispatch", state.dispatch_histogram());
    }
    if let Some(mem) = state.memory {
        let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
        out.push_str(&format!(
            "\nmemory: rss {:.1} MiB, peak rss {:.1} MiB, {} threads\n",
            mib(mem.rss_bytes),
            mib(mem.rss_peak_bytes),
            mem.threads
        ));
    }
    out
}

/// Evenly spaced sample times from 0 to `max_time` (inclusive) with `steps`
/// intervals.
pub fn sample_times(max_time: f64, steps: usize) -> Vec<f64> {
    let steps = steps.max(1);
    (1..=steps)
        .map(|i| max_time * i as f64 / steps as f64)
        .collect()
}

fn truncate(s: &str, width: usize) -> String {
    if s.len() <= width {
        s.to_string()
    } else {
        s.chars().take(width).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agsfl_fl::{MetricPoint, RoundReport};

    fn history(label: &str, losses: &[(f64, f64)]) -> RunHistory {
        let mut h = RunHistory::new(label, 2);
        for (i, &(t, l)) in losses.iter().enumerate() {
            h.push(MetricPoint {
                round: i + 1,
                elapsed_time: t,
                k: 5 + i,
                train_loss: l,
                global_loss: Some(l),
                test_accuracy: Some(1.0 - l / 10.0),
            });
        }
        h.record_round(&RoundReport {
            round: 1,
            k_used: 5,
            train_loss: 0.0,
            round_time: 1.0,
            elapsed_time: 1.0,
            downlink_elements: 3,
            max_uplink_scalars: 3,
            cohort: vec![0, 1],
            contributions: vec![3, 0],
            probe: None,
            wire: None,
            fault: None,
        });
        h
    }

    #[test]
    fn loss_table_contains_labels_and_values() {
        let a = history("method-a", &[(1.0, 4.0), (2.0, 3.0)]);
        let b = history("method-b", &[(1.0, 5.0), (2.0, 2.0)]);
        let table = loss_table(&[&a, &b], &[1.0, 2.0]);
        assert!(table.contains("method-a"));
        assert!(table.contains("method-b"));
        assert!(table.contains("3.0000"));
        assert!(table.lines().count() == 3);
    }

    #[test]
    fn accuracy_table_uses_accuracy_channel() {
        let a = history("acc", &[(1.0, 4.0)]);
        let table = accuracy_table(&[&a], &[1.0]);
        assert!(table.contains("0.6000"));
    }

    #[test]
    fn missing_samples_render_as_dash() {
        let a = history("late", &[(10.0, 1.0)]);
        let table = loss_table(&[&a], &[1.0]);
        assert!(table.contains('-'));
    }

    #[test]
    fn k_trajectory_subsamples() {
        let a = history("k", &(0..50).map(|i| (i as f64, 1.0)).collect::<Vec<_>>());
        let table = k_trajectory_table(&[&a], 10);
        assert!(table.lines().count() <= 12);
        assert!(table.contains("round"));
    }

    #[test]
    fn contribution_summary_reports_zero_clients() {
        let a = history("fair", &[(1.0, 1.0)]);
        let summary = contribution_summary(&[&a]);
        assert!(summary.contains("50.0%"), "{summary}");
    }

    #[test]
    fn fault_summary_reports_totals_and_dashes_cleanly() {
        use agsfl_fl::FaultRoundReport;
        let clean = history("clean", &[(1.0, 1.0)]);
        let mut faulty = history("faulty", &[(1.0, 1.0)]);
        faulty.record_fault(&FaultRoundReport {
            offline: 1,
            dropped: 2,
            retries: 3,
            retransmitted_bytes: 512,
            survivors: 5,
            ..FaultRoundReport::default()
        });
        let table = fault_summary(&[&clean, &faulty]);
        assert!(table.contains("clean"));
        assert!(table.contains("faulty"));
        assert!(table.contains("512"), "{table}");
        assert!(table.contains('-'), "clean run has no min survivors");
    }

    #[test]
    fn sample_times_are_increasing_and_end_at_max() {
        let times = sample_times(100.0, 4);
        assert_eq!(times, vec![25.0, 50.0, 75.0, 100.0]);
    }

    #[test]
    fn telemetry_summary_lists_observed_spans_dispatch_and_memory() {
        use agsfl_telemetry::Recorder;
        let mut state = TelemetryState::open(Default::default()).unwrap();
        let table = telemetry_summary(&state);
        assert_eq!(table.lines().count(), 1, "header only: {table}");
        state.recorder.span(SpanId::ClientPass, 2_000);
        state.recorder.span(SpanId::ClientPass, 4_000);
        state.dispatch.record(500);
        state.memory = Some(crate::telemetry::MemorySample {
            rss_bytes: 3 << 20,
            rss_peak_bytes: 5 << 20,
            threads: 4,
        });
        let table = telemetry_summary(&state);
        assert!(table.contains("client_pass"), "{table}");
        assert!(table.contains("pool_dispatch"), "{table}");
        assert!(
            table.contains("rss 3.0 MiB, peak rss 5.0 MiB, 4 threads"),
            "{table}"
        );
        // Unobserved spans stay out of the table.
        assert!(!table.contains("checkpoint_write"), "{table}");
    }
}
