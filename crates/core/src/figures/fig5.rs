//! Figs. 5 and 6: comparison of online-learning methods for adapting `k`.
//!
//! At a communication time of 10, the paper compares its Algorithm 3 against
//! value-based derivative descent, EXP3 and the continuous bandit, reporting
//! loss and accuracy versus normalized time and the trajectories of `k_m`
//! (Fig. 5). Fig. 6 is the same run with the lineup Algorithm 3, Algorithm 2
//! at a communication time of 100: the extended algorithm (shrinking search
//! intervals) learns faster in wall-clock terms and its `k_m` fluctuates
//! much less than plain Algorithm 2's.

use serde::{Deserialize, Serialize};

use super::Comparison;
use crate::config::ExperimentConfig;
use crate::controllers::ControllerSpec;
use crate::runner::{Experiment, StopCondition};

/// Configuration of the Fig. 5 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Config {
    /// Base workload (communication time 10 in Fig. 5, 100 in Fig. 6).
    pub base: ExperimentConfig,
    /// Normalized time budget per method.
    pub max_time: f64,
    /// The adaptive methods to compare; defaults to the paper's Fig. 5
    /// lineup.
    pub controllers: Vec<ControllerSpec>,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Self {
            base: ExperimentConfig::default(),
            max_time: 1_500.0,
            controllers: ControllerSpec::fig5_lineup().to_vec(),
        }
    }
}

/// Runs the Fig. 5 experiment: one fresh experiment per controller, in
/// lineup order. With `controllers: vec![Algorithm3, Algorithm2]` at a
/// communication time of 100 it is Fig. 6.
pub fn run(config: &Fig5Config) -> Comparison {
    let stop = StopCondition::after_time(config.max_time);
    let histories = config
        .controllers
        .iter()
        .map(|spec| {
            let mut experiment = Experiment::new(&config.base);
            let mut history = experiment.run_adaptive(*spec, &stop);
            history.label = spec.name().to_string();
            history
        })
        .collect();
    Comparison {
        title: format!(
            "Adaptive-k methods at communication time {}",
            config.base.comm_time
        ),
        histories,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DatasetSpec, ModelSpec};

    fn tiny_config() -> Fig5Config {
        Fig5Config {
            base: ExperimentConfig::builder()
                .dataset(DatasetSpec::femnist_tiny())
                .model(ModelSpec::Linear)
                .learning_rate(0.05)
                .batch_size(8)
                .comm_time(10.0)
                .eval_every(5)
                .seed(2)
                .build(),
            max_time: 120.0,
            controllers: ControllerSpec::fig5_lineup().to_vec(),
        }
    }

    #[test]
    fn produces_one_history_per_controller() {
        let result = run(&tiny_config());
        assert_eq!(result.histories.len(), 4);
        for h in &result.histories {
            assert!(!h.is_empty(), "{} produced no rounds", h.label);
        }
        assert!(result.history("Proposed (Algorithm 3)").is_some());
        assert!(result.history("EXP3").is_some());
    }

    #[test]
    fn proposed_method_k_is_more_stable_than_exp3() {
        let result = run(&tiny_config());
        let spreads = result.k_spread(20);
        let get = |label: &str| {
            spreads
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, s)| *s)
                .unwrap()
        };
        assert!(
            get("Proposed (Algorithm 3)") <= get("EXP3"),
            "spreads {spreads:?}"
        );
    }

    #[test]
    fn render_lists_all_methods() {
        let cfg = tiny_config();
        let result = run(&cfg);
        let text = result.render(cfg.max_time);
        for spec in &cfg.controllers {
            assert!(text.contains(&spec.name()[..10.min(spec.name().len())]));
        }
    }

    /// The Fig. 6 lineup at a communication time of 100.
    fn alg3_vs_alg2_config() -> Fig5Config {
        Fig5Config {
            base: ExperimentConfig {
                comm_time: 100.0,
                eval_every: 10,
                seed: 4,
                ..tiny_config().base
            },
            max_time: 1_200.0,
            controllers: vec![ControllerSpec::Algorithm3, ControllerSpec::Algorithm2],
        }
    }

    #[test]
    fn both_algorithms_produce_histories() {
        let result = run(&alg3_vs_alg2_config());
        assert_eq!(result.histories.len(), 2);
        for (h, (_, loss)) in result.histories.iter().zip(result.final_losses()) {
            assert!(!h.is_empty(), "{} produced no rounds", h.label);
            assert!(loss.is_finite(), "{}", h.label);
        }
    }

    #[test]
    fn algorithm3_k_fluctuates_no_more_than_algorithm2() {
        let result = run(&alg3_vs_alg2_config());
        let spreads = result.k_spread(20);
        let (s3, s2) = (spreads[0].1, spreads[1].1);
        assert!(
            s3 <= s2 + 1.0,
            "Algorithm 3 spread {s3} vs Algorithm 2 {s2}"
        );
    }

    #[test]
    fn render_contains_both_algorithms() {
        let cfg = alg3_vs_alg2_config();
        let text = run(&cfg).render(cfg.max_time);
        assert!(text.contains("Algorithm 3"));
        assert!(text.contains("Algorithm 2"));
        assert!(text.contains("k spread"));
    }

    #[test]
    fn render_title_carries_the_configured_comm_time() {
        let cfg = Fig5Config {
            max_time: 300.0,
            ..alg3_vs_alg2_config()
        };
        let text = run(&cfg).render(cfg.max_time);
        let title = text.lines().next().unwrap();
        assert!(title.contains("communication time 100"), "{title}");
    }
}
