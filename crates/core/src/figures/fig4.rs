//! Fig. 4: comparison of gradient sparsification methods at fixed `k`.
//!
//! The paper fixes `k = 1000` (of `D > 400,000`) and a communication time of
//! 10, and compares FAB-top-k against FUB-top-k, unidirectional top-k,
//! periodic-k, always-send-all and FedAvg on: loss vs normalized time,
//! accuracy vs normalized time, and the CDF of the number of gradient
//! elements used from each client.

use serde::{Deserialize, Serialize};

use super::Comparison;
use crate::config::{ExperimentConfig, SparsifierSpec};
use crate::runner::{Experiment, StopCondition};

/// Configuration of the Fig. 4 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Config {
    /// Base workload. The communication time should be 10 to match the
    /// paper.
    pub base: ExperimentConfig,
    /// Sparsity degree as a fraction of `D` (the paper's 1000 / ~400k ≈
    /// 0.0025).
    pub k_fraction: f64,
    /// Normalized time budget for every method.
    pub max_time: f64,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Self {
            base: ExperimentConfig::default(),
            k_fraction: 0.02,
            max_time: 1_500.0,
        }
    }
}

/// Runs the Fig. 4 experiment: the five GS methods in
/// [`SparsifierSpec::all`] order, then FedAvg.
pub fn run(config: &Fig4Config) -> Comparison {
    let stop = StopCondition::after_time(config.max_time);
    let mut histories = Vec::new();
    let mut last_arm = None;
    for spec in SparsifierSpec::all() {
        // One arm's simulation in memory at a time.
        drop(last_arm.take());
        let experiment_config = ExperimentConfig {
            sparsifier: spec,
            ..config.base.clone()
        };
        let mut experiment = Experiment::new(&experiment_config);
        let dim = experiment.dim();
        let k = ((dim as f64 * config.k_fraction).round() as usize).clamp(1, dim);
        let mut history = experiment.run_fixed_k(k, &stop);
        history.label = spec.name().to_string();
        histories.push(history);
        last_arm = Some((experiment, k));
    }
    // FedAvg at the equal-average-overhead period. `run_fedavg` reads only
    // the experiment's dataset, executor and configured hyper-parameters —
    // never its sparsifier or the simulation's state — so the last GS arm's
    // experiment serves, and the dataset is not generated a sixth time.
    let (experiment, k) = last_arm.expect("SparsifierSpec::all is not empty");
    let mut fedavg = experiment.run_fedavg(k, &stop);
    fedavg.label = "FedAvg".to_string();
    histories.push(fedavg);
    Comparison {
        title: format!(
            "GS methods at k = {k}, communication time {}",
            config.base.comm_time
        ),
        histories,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DatasetSpec, ModelSpec};

    fn tiny_config() -> Fig4Config {
        Fig4Config {
            base: ExperimentConfig::builder()
                .dataset(DatasetSpec::femnist_tiny())
                .model(ModelSpec::Linear)
                .learning_rate(0.05)
                .batch_size(8)
                .comm_time(10.0)
                .eval_every(5)
                .seed(1)
                .build(),
            k_fraction: 0.05,
            max_time: 150.0,
        }
    }

    #[test]
    fn produces_six_methods() {
        let result = run(&tiny_config());
        assert_eq!(result.histories.len(), 6);
        assert!(result.history("FAB-top-k").is_some());
        assert!(result.history("FedAvg").is_some());
        for h in &result.histories {
            assert!(!h.is_empty(), "{} produced no rounds", h.label);
            assert!(h.final_global_loss().is_some());
        }
    }

    #[test]
    fn every_method_respects_the_time_budget() {
        let cfg = tiny_config();
        let result = run(&cfg);
        for h in &result.histories {
            let last = h.points().last().unwrap();
            // One round may overshoot the budget, but not by more than a full
            // dense round.
            assert!(last.elapsed_time <= cfg.max_time + 11.0, "{}", h.label);
        }
    }

    #[test]
    fn fab_provides_fairer_contributions_than_fub() {
        let result = run(&tiny_config());
        let fab = result.history("FAB-top-k").unwrap().contribution_cdf();
        let fub = result.history("FUB-top-k").unwrap().contribution_cdf();
        // Fraction of clients that contributed nothing: FAB must not be worse.
        assert!(fab.eval(0.0) <= fub.eval(0.0) + 1e-9);
        // And the least-contributing FAB client contributes at least as much
        // as the least-contributing FUB client.
        assert!(fab.quantile(0.0).unwrap() >= fub.quantile(0.0).unwrap());
    }

    #[test]
    fn fedavg_equals_a_run_on_a_fresh_experiment() {
        let cfg = tiny_config();
        let result = run(&cfg);
        let experiment = Experiment::new(&cfg.base);
        let dim = experiment.dim();
        let k = ((dim as f64 * cfg.k_fraction).round() as usize).clamp(1, dim);
        let mut fresh = experiment.run_fedavg(k, &StopCondition::after_time(cfg.max_time));
        fresh.label = "FedAvg".to_string();
        assert_eq!(result.history("FedAvg"), Some(&fresh));
    }

    #[test]
    fn render_contains_all_sections() {
        let cfg = tiny_config();
        let result = run(&cfg);
        let text = result.render(cfg.max_time);
        assert!(text.contains("Global loss"));
        assert!(text.contains("Test accuracy"));
        assert!(text.contains("CDF"));
        assert!(text.contains("FedAvg"));
    }
}
