//! Figs. 7 and 8: the communication-time sweep with cross-applied `k`
//! sequences.
//!
//! For every communication time `β ∈ {0.1, 1, 10, 100}` the paper adapts
//! `k` with Algorithm 3, records the sequence `{k_m,β}`, and then replays
//! **every** recorded sequence under **every** communication time. Two
//! shapes are expected: the adapted `k` decreases as communication gets more
//! expensive, and the sequence adapted for a given `β` performs best when
//! replayed under that same `β`. Fig. 7 uses FEMNIST, Fig. 8 the
//! one-class-per-client CIFAR-10 partition.

use serde::{Deserialize, Serialize};

use crate::config::{DatasetSpec, ExperimentConfig};
use crate::controllers::ControllerSpec;
use crate::runner::{Experiment, StopCondition};

/// Configuration of the communication-time sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Base workload; its `comm_time` field is overridden per sweep point.
    pub base: ExperimentConfig,
    /// The communication times to sweep. The paper uses `{0.1, 1, 10, 100}`.
    pub comm_times: Vec<f64>,
    /// Number of rounds of the adaptation phase (the phase that records the
    /// `{k_m,β}` sequence).
    pub adaptation_rounds: usize,
    /// Fraction of the adaptation run's elapsed time used as the time budget
    /// for the cross-application runs under the same communication time.
    pub replay_time_fraction: f64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            base: ExperimentConfig::default(),
            comm_times: vec![0.1, 1.0, 10.0, 100.0],
            adaptation_rounds: 300,
            replay_time_fraction: 0.8,
        }
    }
}

/// Result of adapting `k` for one communication time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptedSequence {
    /// The communication time this sequence was adapted for.
    pub comm_time: f64,
    /// The recorded `{k_m}` sequence.
    pub k_sequence: Vec<usize>,
    /// Normalized time the adaptation run consumed.
    pub adaptation_time: f64,
    /// Mean of `k` over the last quarter of the adaptation run.
    pub tail_mean_k: f64,
}

/// One cell of the cross-application matrix: sequence adapted for
/// `source_comm_time`, replayed under `target_comm_time`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayOutcome {
    /// Communication time the sequence was adapted for.
    pub source_comm_time: f64,
    /// Communication time the sequence was replayed under.
    pub target_comm_time: f64,
    /// Final global loss of the replay.
    pub final_loss: f64,
    /// Final test accuracy of the replay.
    pub final_accuracy: f64,
    /// Time budget the replay ran for.
    pub time_budget: f64,
}

/// The full sweep result (one paper figure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Dataset label ("FEMNIST" or "CIFAR-10").
    pub dataset: String,
    /// The adapted sequences, one per communication time.
    pub sequences: Vec<AdaptedSequence>,
    /// The cross-application matrix (all source × target combinations).
    pub replays: Vec<ReplayOutcome>,
}

impl SweepResult {
    /// The replay outcome for a given source/target pair.
    pub fn replay(&self, source: f64, target: f64) -> Option<&ReplayOutcome> {
        self.replays
            .iter()
            .find(|r| r.source_comm_time == source && r.target_comm_time == target)
    }

    /// Returns `true` if the tail-mean adapted `k` is non-increasing in the
    /// communication time (the paper's "larger k for smaller communication
    /// time" observation), comparing the two extreme communication times.
    pub fn k_decreases_with_comm_time(&self) -> bool {
        if self.sequences.len() < 2 {
            return true;
        }
        let first = &self.sequences[0];
        let last = &self.sequences[self.sequences.len() - 1];
        first.tail_mean_k >= last.tail_mean_k
    }

    /// For a given target communication time, returns the source whose
    /// sequence achieved the lowest final loss.
    pub fn best_source_for(&self, target: f64) -> Option<f64> {
        self.replays
            .iter()
            .filter(|r| r.target_comm_time == target)
            .min_by(|a, b| {
                a.final_loss
                    .partial_cmp(&b.final_loss)
                    .expect("finite losses")
            })
            .map(|r| r.source_comm_time)
    }

    /// Renders the adapted-`k` summary and the cross-application loss matrix.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Comm-time sweep with cross-applied k sequences (dataset: {})\n",
            self.dataset
        ));
        out.push_str("\nAdapted k per communication time\n");
        out.push_str(&format!(
            "{:>12}{:>16}{:>20}\n",
            "comm time", "tail mean k", "adaptation time"
        ));
        for s in &self.sequences {
            out.push_str(&format!(
                "{:>12.1}{:>16.0}{:>20.1}\n",
                s.comm_time, s.tail_mean_k, s.adaptation_time
            ));
        }
        out.push_str("\nFinal global loss: rows = sequence source, columns = replay target\n");
        out.push_str(&format!("{:>12}", "source\\tgt"));
        for s in &self.sequences {
            out.push_str(&format!("{:>12.1}", s.comm_time));
        }
        out.push('\n');
        for source in &self.sequences {
            out.push_str(&format!("{:>12.1}", source.comm_time));
            for target in &self.sequences {
                match self.replay(source.comm_time, target.comm_time) {
                    Some(r) => out.push_str(&format!("{:>12.4}", r.final_loss)),
                    None => out.push_str(&format!("{:>12}", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str("\nBest source sequence per target comm time\n");
        for s in &self.sequences {
            if let Some(best) = self.best_source_for(s.comm_time) {
                out.push_str(&format!(
                    "  target {:>6.1}: best source {:>6.1}\n",
                    s.comm_time, best
                ));
            }
        }
        out
    }
}

/// Mean of `k` over the last quarter of a run's `{k_m}` sequence (at least
/// its last round; `0` for an empty run).
fn tail_mean_k(ks: &[usize]) -> f64 {
    let tail = &ks[ks.len().saturating_sub((ks.len() / 4).max(1))..];
    tail.iter().sum::<usize>() as f64 / tail.len().max(1) as f64
}

/// Runs the sweep for an arbitrary base configuration.
pub fn run(config: &SweepConfig, dataset_label: &str) -> SweepResult {
    assert!(!config.comm_times.is_empty(), "need at least one comm time");
    // Phase 1: adapt k for every communication time.
    let mut sequences = Vec::new();
    for &beta in &config.comm_times {
        let experiment_config = ExperimentConfig {
            comm_time: beta,
            ..config.base.clone()
        };
        let mut experiment = Experiment::new(&experiment_config);
        let history = experiment.run_adaptive(
            ControllerSpec::Algorithm3,
            &StopCondition::after_rounds(config.adaptation_rounds),
        );
        let k_sequence = history.k_sequence();
        let tail_mean_k = tail_mean_k(&k_sequence);
        let adaptation_time = history
            .points()
            .last()
            .map(|p| p.elapsed_time)
            .unwrap_or(0.0);
        sequences.push(AdaptedSequence {
            comm_time: beta,
            k_sequence,
            adaptation_time,
            tail_mean_k,
        });
    }

    // Phase 2: replay every sequence under every communication time.
    let mut replays = Vec::new();
    for target in &sequences {
        let time_budget = target.adaptation_time * config.replay_time_fraction;
        for source in &sequences {
            let experiment_config = ExperimentConfig {
                comm_time: target.comm_time,
                ..config.base.clone()
            };
            let mut experiment = Experiment::new(&experiment_config);
            let history = experiment
                .run_k_sequence(&source.k_sequence, &StopCondition::after_time(time_budget));
            replays.push(ReplayOutcome {
                source_comm_time: source.comm_time,
                target_comm_time: target.comm_time,
                final_loss: history.final_global_loss().unwrap_or(f64::NAN),
                final_accuracy: history.final_test_accuracy().unwrap_or(f64::NAN),
                time_budget,
            });
        }
    }
    SweepResult {
        dataset: dataset_label.to_string(),
        sequences,
        replays,
    }
}

/// Fig. 7: the sweep on the FEMNIST-like dataset.
pub fn run_femnist(config: &SweepConfig) -> SweepResult {
    run(config, "FEMNIST")
}

/// Fig. 8: the sweep on the one-class-per-client CIFAR-10-like dataset.
/// The base dataset in `config` is replaced by the CIFAR benchmark spec if it
/// is not already a CIFAR spec.
pub fn run_cifar(config: &SweepConfig) -> SweepResult {
    let mut config = config.clone();
    if !matches!(config.base.dataset, DatasetSpec::Cifar(_)) {
        config.base.dataset = DatasetSpec::cifar_bench();
    }
    run(&config, "CIFAR-10")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DatasetSpec, ModelSpec};

    fn tiny_sweep() -> SweepConfig {
        SweepConfig {
            base: ExperimentConfig::builder()
                .dataset(DatasetSpec::femnist_tiny())
                .model(ModelSpec::Linear)
                .learning_rate(0.05)
                .batch_size(8)
                .eval_every(10)
                .seed(5)
                .build(),
            comm_times: vec![0.1, 100.0],
            adaptation_rounds: 80,
            replay_time_fraction: 0.5,
        }
    }

    #[test]
    fn sweep_produces_all_combinations() {
        let result = run_femnist(&tiny_sweep());
        assert_eq!(result.sequences.len(), 2);
        assert_eq!(result.replays.len(), 4);
        assert!(result.replay(0.1, 100.0).is_some());
        assert!(result.replay(100.0, 0.1).is_some());
        for r in &result.replays {
            assert!(r.final_loss.is_finite());
        }
        for s in &result.sequences {
            let ks = &s.k_sequence;
            let tail = &ks[ks.len() - (ks.len() / 4).max(1)..];
            let mean = tail.iter().sum::<usize>() as f64 / tail.len() as f64;
            assert_eq!(s.tail_mean_k, mean, "{} rounds", ks.len());
        }
    }

    #[test]
    fn adapted_k_decreases_with_communication_time() {
        let result = run_femnist(&tiny_sweep());
        assert!(
            result.k_decreases_with_comm_time(),
            "tail k: {:?}",
            result
                .sequences
                .iter()
                .map(|s| (s.comm_time, s.tail_mean_k))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn cifar_sweep_uses_cifar_dataset() {
        let mut cfg = tiny_sweep();
        cfg.adaptation_rounds = 30;
        let result = run_cifar(&cfg);
        assert_eq!(result.dataset, "CIFAR-10");
        assert_eq!(result.sequences.len(), 2);
    }

    #[test]
    fn render_contains_matrix_and_summary() {
        let result = run_femnist(&tiny_sweep());
        let text = result.render();
        assert!(text.contains("Adapted k"));
        assert!(text.contains("source\\tgt"));
        assert!(text.contains("Best source"));
    }
}
