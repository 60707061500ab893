//! Fault-severity sweep: convergence under client dropout, crashes,
//! stragglers and frame corruption (a robustness companion to the paper's
//! communication-time sweeps, which assume every client answers every
//! round).
//!
//! Each severity level in [`FaultSweepConfig::severities`] is a complete
//! [`FaultModel`]; the sweep runs every level once with a **fixed** `k` and
//! once with Algorithm 3 **adapting** `k` against the byte-priced channel.
//! Because dropped clients keep their updates in the residual accumulator
//! (error feedback absorbs the loss), the interesting output is not whether
//! training survives — it always does — but how much wall-clock time and
//! final loss each severity level costs, and how many bytes retries add to
//! the wire.

use serde::{Deserialize, Serialize};

use agsfl_fl::{FaultModel, FaultTotals};

use crate::config::ExperimentConfig;
use crate::controllers::ControllerSpec;
use crate::runner::{Experiment, StopCondition};

/// Configuration of the fault sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepConfig {
    /// Base workload; its `fault` field is overridden per sweep cell. The
    /// base must carry a `wire` spec when any severity level injects
    /// wire-dependent faults (corruption, straggling, deadlines).
    pub base: ExperimentConfig,
    /// Labelled fault severities to compare. Use `None` for the fault-free
    /// baseline row.
    pub severities: Vec<(String, Option<FaultModel>)>,
    /// Rounds per run.
    pub rounds: usize,
    /// The fixed sparsity degree, as a fraction of the model dimension.
    pub fixed_k_fraction: f64,
}

impl Default for FaultSweepConfig {
    fn default() -> Self {
        Self {
            base: ExperimentConfig::default(),
            severities: default_severities(),
            rounds: 120,
            fixed_k_fraction: 0.05,
        }
    }
}

/// The default severity ladder: fault-free, mild dropout, lossy transport
/// with retries, and a chaotic regime combining every fault class.
fn default_severities() -> Vec<(String, Option<FaultModel>)> {
    vec![
        ("none".to_string(), None),
        (
            "dropout".to_string(),
            Some(FaultModel {
                drop_prob: 0.1,
                seed: 0xD0,
                ..FaultModel::default()
            }),
        ),
        (
            "lossy".to_string(),
            Some(FaultModel {
                drop_prob: 0.05,
                corrupt_prob: 0.15,
                max_retries: 2,
                retry_backoff: 0.05,
                seed: 0xD1,
                ..FaultModel::default()
            }),
        ),
        (
            "chaos".to_string(),
            Some(FaultModel {
                drop_prob: 0.1,
                crash_prob: 0.05,
                outage_rounds: (1, 3),
                straggle_prob: 0.2,
                straggle_factor: 4.0,
                corrupt_prob: 0.15,
                max_retries: 2,
                retry_backoff: 0.05,
                seed: 0xD2,
                ..FaultModel::default()
            }),
        ),
    ]
}

/// One sweep cell: a fault severity under a fixed or adaptive `k` policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepCell {
    /// Severity label.
    pub severity: String,
    /// Final global loss.
    pub final_loss: f64,
    /// Channel-priced time the run consumed.
    pub elapsed_time: f64,
    /// Mean `k` over the last quarter of the run.
    pub tail_mean_k: f64,
    /// Accumulated fault counters over the run.
    pub totals: FaultTotals,
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepResult {
    /// Fixed-`k` cells, one per severity level.
    pub fixed: Vec<FaultSweepCell>,
    /// Adaptive-`k` cells (Algorithm 3), one per severity level.
    pub adaptive: Vec<FaultSweepCell>,
}

impl FaultSweepResult {
    fn render_table(out: &mut String, title: &str, cells: &[FaultSweepCell]) {
        out.push_str(&format!("\n{title}\n"));
        out.push_str(&format!(
            "{:>12}{:>10}{:>12}{:>10}{:>8}{:>10}{:>12}{:>10}\n",
            "severity", "loss", "time", "tail k", "lost", "retries", "rtx [B]", "min surv"
        ));
        for c in cells {
            let min_survivors = c
                .totals
                .min_survivors
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "{:>12}{:>10.4}{:>12.1}{:>10.0}{:>8}{:>10}{:>12}{:>10}\n",
                c.severity,
                c.final_loss,
                c.elapsed_time,
                c.tail_mean_k,
                c.totals.lost(),
                c.totals.retries,
                c.totals.retransmitted_bytes,
                min_survivors
            ));
        }
    }

    /// Renders both tables.
    pub fn render(&self) -> String {
        let mut out = String::from("Fault severity sweep (survivor-only aggregation)\n");
        Self::render_table(&mut out, "Fixed k", &self.fixed);
        Self::render_table(&mut out, "Adaptive k (Algorithm 3)", &self.adaptive);
        out
    }
}

/// Cell lookups for the tests, which assert on single cells.
#[cfg(test)]
impl FaultSweepResult {
    /// The fixed-`k` cell for a severity level.
    fn fixed_cell(&self, severity: &str) -> Option<&FaultSweepCell> {
        self.fixed.iter().find(|c| c.severity == severity)
    }
}

fn run_cell(
    config: &FaultSweepConfig,
    label: &str,
    fault: Option<FaultModel>,
    adaptive: bool,
) -> FaultSweepCell {
    let experiment_config = ExperimentConfig {
        fault,
        ..config.base.clone()
    };
    let mut experiment = Experiment::new(&experiment_config);
    let stop = StopCondition::after_rounds(config.rounds);
    let history = if adaptive {
        experiment.run_adaptive(ControllerSpec::Algorithm3, &stop)
    } else {
        let k = ((experiment.dim() as f64 * config.fixed_k_fraction) as usize).max(1);
        experiment.run_fixed_k(k, &stop)
    };
    FaultSweepCell {
        severity: label.to_string(),
        final_loss: history.final_global_loss().unwrap_or(f64::NAN),
        elapsed_time: history
            .points()
            .last()
            .map(|p| p.elapsed_time)
            .unwrap_or(0.0),
        tail_mean_k: super::tail_mean_k(&history.k_sequence()),
        totals: *history.fault_totals(),
    }
}

/// Runs the sweep.
pub fn run(config: &FaultSweepConfig) -> FaultSweepResult {
    assert!(!config.severities.is_empty(), "need at least one severity");
    let mut fixed = Vec::new();
    let mut adaptive = Vec::new();
    for (label, fault) in &config.severities {
        fixed.push(run_cell(config, label, fault.clone(), false));
        adaptive.push(run_cell(config, label, fault.clone(), true));
    }
    FaultSweepResult { fixed, adaptive }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChannelSpec, DatasetSpec, ModelSpec, WireSpec};
    use agsfl_wire::CodecSpec;

    fn tiny_sweep() -> FaultSweepConfig {
        FaultSweepConfig {
            base: ExperimentConfig::builder()
                .dataset(DatasetSpec::femnist_tiny())
                .model(ModelSpec::Linear)
                .learning_rate(0.05)
                .batch_size(8)
                .eval_every(10)
                .wire(WireSpec {
                    codec: CodecSpec::Auto,
                    channel: ChannelSpec::uniform(2_000.0, 8_000.0, 0.05),
                })
                .seed(29)
                .build(),
            severities: default_severities(),
            rounds: 20,
            fixed_k_fraction: 0.05,
        }
    }

    #[test]
    fn sweep_covers_every_severity_and_counts_faults() {
        let result = run(&tiny_sweep());
        assert_eq!(result.fixed.len(), 4);
        assert_eq!(result.adaptive.len(), 4);
        for cell in result.fixed.iter().chain(result.adaptive.iter()) {
            assert!(cell.final_loss.is_finite(), "{cell:?}");
            assert!(cell.elapsed_time > 0.0, "{cell:?}");
        }
        // The fault-free baseline records nothing.
        let none = result.fixed_cell("none").unwrap();
        assert_eq!(none.totals, FaultTotals::default());
        // Chaos injects every fault class at probabilities high enough that
        // 20 rounds x 8 clients cannot stay clean.
        let chaos = result.fixed_cell("chaos").unwrap();
        assert!(chaos.totals.lost() > 0, "{:?}", chaos.totals);
        assert!(chaos.totals.stragglers > 0, "{:?}", chaos.totals);
        assert!(chaos.totals.min_survivors.is_some());
    }

    #[test]
    fn retries_add_retransmitted_bytes_under_corruption() {
        let result = run(&tiny_sweep());
        let lossy = result.fixed_cell("lossy").unwrap();
        assert!(lossy.totals.corrupt_frames > 0, "{:?}", lossy.totals);
        assert!(lossy.totals.retries > 0, "{:?}", lossy.totals);
        assert!(lossy.totals.retransmitted_bytes > 0, "{:?}", lossy.totals);
    }

    #[test]
    fn faults_never_abort_a_run() {
        // Every severity completes the full round budget: survivor-only
        // aggregation plus error feedback keeps the loop alive even when
        // whole cohorts go dark.
        let cfg = tiny_sweep();
        let result = run(&cfg);
        for cell in result.fixed.iter().chain(result.adaptive.iter()) {
            assert!(cell.tail_mean_k >= 1.0, "{cell:?}");
        }
    }

    #[test]
    fn render_lists_both_tables() {
        let mut cfg = tiny_sweep();
        cfg.rounds = 6;
        cfg.severities = vec![
            ("none".into(), None),
            ("chaos".into(), default_severities()[3].1.clone()),
        ];
        let result = run(&cfg);
        let text = result.render();
        assert!(text.contains("Fixed k"));
        assert!(text.contains("Adaptive k"));
        assert!(text.contains("chaos"));
        assert!(text.contains("min surv"));
    }
}
