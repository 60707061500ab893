//! Adaptive-`k` controller specifications.

use agsfl_online::{
    ContinuousBandit, Exp3, ExtendedConfig, ExtendedSignOgd, FixedK, KController, SearchInterval,
    SignOgd, ValueBasedDescent,
};
use serde::{Deserialize, Serialize};

/// Which method chooses the sparsity degree `k` over the course of a run.
///
/// The variants correspond to the methods compared in Fig. 5 and Fig. 6 of
/// the paper, plus the fixed-`k` baseline used by Fig. 1 and Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ControllerSpec {
    /// A fixed sparsity degree.
    Fixed(f64),
    /// Algorithm 2: sign-of-derivative online gradient descent.
    Algorithm2,
    /// Algorithm 3: Algorithm 2 with shrinking search intervals (the paper's
    /// recommended method).
    Algorithm3,
    /// Value-based derivative descent (baseline).
    ValueBased,
    /// EXP3 multi-armed bandit over a geometric grid of `k` values
    /// (baseline).
    Exp3 {
        /// Number of arms in the geometric grid.
        num_arms: usize,
    },
    /// Continuous one-point bandit (baseline).
    ContinuousBandit,
}

impl ControllerSpec {
    /// Human-readable name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Fixed(_) => "Fixed k",
            Self::Algorithm2 => "Algorithm 2",
            Self::Algorithm3 => "Proposed (Algorithm 3)",
            Self::ValueBased => "Value-based gradient/derivative descent",
            Self::Exp3 { .. } => "EXP3",
            Self::ContinuousBandit => "Continuous bandit",
        }
    }

    /// The adaptive methods compared in Fig. 5, in the paper's order
    /// (the proposed method first).
    pub fn fig5_lineup() -> [ControllerSpec; 4] {
        [
            Self::Algorithm3,
            Self::ValueBased,
            Self::Exp3 { num_arms: 16 },
            Self::ContinuousBandit,
        ]
    }

    /// Builds the controller for a model of dimension `dim`.
    ///
    /// The search range follows the paper's Section V-B settings:
    /// `kmin = 0.002·D`, `kmax = D`, `α = 1.5`, `Mu = 20`; the baselines use
    /// the same range. The initial `k` is `D/2` for all methods.
    pub fn build(&self, dim: usize, seed: u64) -> Box<dyn KController> {
        let paper = ExtendedConfig::paper_defaults(dim);
        let interval = SearchInterval::new(paper.k_min, paper.k_max);
        let initial = paper.initial_k;
        match self {
            Self::Fixed(k) => Box::new(FixedK::new(k.clamp(1.0, dim as f64))),
            Self::Algorithm2 => Box::new(SignOgd::new(interval, initial)),
            Self::Algorithm3 => Box::new(ExtendedSignOgd::new(paper)),
            Self::ValueBased => Box::new(ValueBasedDescent::new(interval, initial)),
            Self::Exp3 { num_arms } => {
                let arms = Exp3::geometric_arms(paper.k_min, paper.k_max, (*num_arms).max(2));
                Box::new(Exp3::new(arms, 0.1, seed))
            }
            Self::ContinuousBandit => Box::new(ContinuousBandit::with_default_scales(
                interval, initial, seed,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_controllers_with_valid_initial_k() {
        let dim = 5_000usize;
        for spec in [
            ControllerSpec::Fixed(100.0),
            ControllerSpec::Algorithm2,
            ControllerSpec::Algorithm3,
            ControllerSpec::ValueBased,
            ControllerSpec::Exp3 { num_arms: 8 },
            ControllerSpec::ContinuousBandit,
        ] {
            let controller = spec.build(dim, 7);
            let k = controller.propose_k();
            assert!(
                (1.0..=dim as f64).contains(&k),
                "{}: initial k {k} out of range",
                controller.name()
            );
        }
    }

    #[test]
    fn fixed_is_clamped_to_dimension() {
        let controller = ControllerSpec::Fixed(1e9).build(100, 0);
        assert_eq!(controller.propose_k(), 100.0);
    }

    #[test]
    fn fig5_lineup_starts_with_proposed_method() {
        let lineup = ControllerSpec::fig5_lineup();
        assert_eq!(lineup[0], ControllerSpec::Algorithm3);
        assert_eq!(lineup.len(), 4);
    }

    /// Every learning controller asks for a probe (the sign-based ones for
    /// their `k'`, the bandits for the probe's two losses); a prescribed `k`
    /// — fixed or replayed — asks for none.
    #[test]
    fn learning_controllers_request_probes_prescribed_k_does_not() {
        let dim = 2_000;
        for spec in [
            ControllerSpec::Algorithm2,
            ControllerSpec::Algorithm3,
            ControllerSpec::ValueBased,
            ControllerSpec::Exp3 { num_arms: 4 },
            ControllerSpec::ContinuousBandit,
        ] {
            assert!(spec.build(dim, 0).probe_k().is_some(), "{}", spec.name());
        }
        assert!(ControllerSpec::Fixed(10.0)
            .build(dim, 0)
            .probe_k()
            .is_none());
        assert!(agsfl_online::KSequence::new(vec![10, 20])
            .probe_k()
            .is_none());
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = [
            ControllerSpec::Algorithm2,
            ControllerSpec::Algorithm3,
            ControllerSpec::ValueBased,
            ControllerSpec::Exp3 { num_arms: 4 },
            ControllerSpec::ContinuousBandit,
        ]
        .iter()
        .map(|s| s.name())
        .collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }
}
