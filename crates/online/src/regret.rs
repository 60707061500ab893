//! Synthetic cost environments and regret accounting.
//!
//! Theorems 1 and 2 of the paper bound the regret of Algorithm 2 by
//! `G·B·√(2M)` (exact signs) and `G·H·B·√(2M)` (estimated signs). The types
//! in this module generate non-stochastic convex cost sequences satisfying
//! Assumption 2 so that the bounds can be checked empirically — this is the
//! "regret_bounds" benchmark of the reproduction.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::sign_ogd::{SearchInterval, SignOgd};

/// A sequence of convex per-round costs `τ_m(k) = a_m · |k − k*| + c_m`
/// sharing the same minimizer `k*` (Item c of Assumption 2), with slopes
/// bounded by `G = max_m a_m` (Item b) and convexity by construction
/// (Item a).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticCostEnv {
    k_star: f64,
    slopes: Vec<f64>,
    offsets: Vec<f64>,
}

impl SyntheticCostEnv {
    /// Generates an environment with `rounds` cost functions, minimizer
    /// `k_star`, and slopes drawn uniformly from `[slope_min, slope_max]`.
    ///
    /// # Panics
    ///
    /// Panics if the slope range is invalid or non-positive.
    pub fn generate(rounds: usize, k_star: f64, slope_min: f64, slope_max: f64, seed: u64) -> Self {
        assert!(
            0.0 < slope_min && slope_min <= slope_max,
            "invalid slope range"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let slopes = (0..rounds)
            .map(|_| rng.gen_range(slope_min..=slope_max))
            .collect();
        let offsets = (0..rounds).map(|_| rng.gen_range(0.0..1.0)).collect();
        Self {
            k_star,
            slopes,
            offsets,
        }
    }

    /// Number of rounds in the environment.
    pub fn rounds(&self) -> usize {
        self.slopes.len()
    }

    /// The common minimizer `k*`.
    pub fn k_star(&self) -> f64 {
        self.k_star
    }

    /// The derivative bound `G` of this environment.
    fn g_bound(&self) -> f64 {
        self.slopes.iter().cloned().fold(0.0, f64::max)
    }

    /// The cost `τ_m(k)` of round `m` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `m >= rounds()`.
    pub fn cost(&self, m: usize, k: f64) -> f64 {
        self.slopes[m] * (k - self.k_star).abs() + self.offsets[m]
    }

    /// The exact derivative sign of `τ_m` at `k`.
    fn derivative_sign(&self, m: usize, k: f64) -> i8 {
        let _ = self.slopes[m];
        if k > self.k_star {
            1
        } else if k < self.k_star {
            -1
        } else {
            0
        }
    }

    /// A noisy sign oracle that flips the exact sign with probability
    /// `flip_prob < 0.5`. Such an oracle satisfies Eqs. (6)–(7) with
    /// `H = 1 / (1 − 2·flip_prob)`.
    fn noisy_sign<R: Rng + ?Sized>(&self, m: usize, k: f64, flip_prob: f64, rng: &mut R) -> i8 {
        assert!(
            (0.0..0.5).contains(&flip_prob),
            "flip_prob must be in [0, 0.5)"
        );
        let exact = self.derivative_sign(m, k);
        if rng.gen::<f64>() < flip_prob {
            -exact
        } else {
            exact
        }
    }
}

/// The outcome of running an online algorithm against a synthetic
/// environment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegretOutcome {
    /// Cumulative regret after each round.
    pub cumulative_regret: Vec<f64>,
    /// The theoretical bound `G·H·B·√(2m)` after each round (with `H = 1`
    /// when exact signs were used).
    pub bound: Vec<f64>,
    /// The sequence of `k` values played.
    pub k_sequence: Vec<f64>,
}

impl RegretOutcome {
    /// Final cumulative regret.
    fn final_regret(&self) -> f64 {
        self.cumulative_regret.last().copied().unwrap_or(0.0)
    }

    /// Returns `true` if the empirical regret stays at or below the bound in
    /// every round.
    pub fn within_bound(&self) -> bool {
        self.cumulative_regret
            .iter()
            .zip(self.bound.iter())
            .all(|(r, b)| r <= &(b + 1e-9))
    }

    /// Average regret per round at the end of the run (should approach zero
    /// for a no-regret algorithm).
    pub fn average_regret(&self) -> f64 {
        if self.cumulative_regret.is_empty() {
            0.0
        } else {
            self.final_regret() / self.cumulative_regret.len() as f64
        }
    }
}

/// Runs Algorithm 2 against a synthetic environment using exact derivative
/// signs and returns the regret trajectory together with Theorem 1's bound.
pub fn run_sign_ogd_exact(
    env: &SyntheticCostEnv,
    interval: SearchInterval,
    initial_k: f64,
) -> RegretOutcome {
    run_sign_ogd_with_oracle(env, interval, initial_k, 1.0, |env, m, k, _| {
        env.derivative_sign(m, k)
    })
}

/// Runs Algorithm 2 with a noisy sign oracle flipping the sign with
/// probability `flip_prob`, and returns the regret trajectory together with
/// Theorem 2's bound (using `H = 1/(1 − 2·flip_prob)`).
pub fn run_sign_ogd_noisy(
    env: &SyntheticCostEnv,
    interval: SearchInterval,
    initial_k: f64,
    flip_prob: f64,
    seed: u64,
) -> RegretOutcome {
    let h = 1.0 / (1.0 - 2.0 * flip_prob);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    run_sign_ogd_with_oracle(env, interval, initial_k, h, move |env, m, k, _| {
        env.noisy_sign(m, k, flip_prob, &mut rng)
    })
}

fn run_sign_ogd_with_oracle(
    env: &SyntheticCostEnv,
    interval: SearchInterval,
    initial_k: f64,
    h: f64,
    mut oracle: impl FnMut(&SyntheticCostEnv, usize, f64, &SearchInterval) -> i8,
) -> RegretOutcome {
    let mut alg = SignOgd::new(interval, initial_k);
    let g = env.g_bound();
    let b = interval.width();
    let k_star_proj = interval.project(env.k_star());
    let mut cumulative = 0.0f64;
    let mut cumulative_regret = Vec::with_capacity(env.rounds());
    let mut bound = Vec::with_capacity(env.rounds());
    let mut k_sequence = Vec::with_capacity(env.rounds());
    for m in 0..env.rounds() {
        let k = alg.k();
        k_sequence.push(k);
        cumulative += env.cost(m, k) - env.cost(m, k_star_proj);
        cumulative_regret.push(cumulative);
        bound.push(g * h * b * (2.0 * (m + 1) as f64).sqrt());
        let sign = oracle(env, m, k, &interval);
        alg.step(Some(sign));
    }
    RegretOutcome {
        cumulative_regret,
        bound,
        k_sequence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn env(rounds: usize, seed: u64) -> SyntheticCostEnv {
        SyntheticCostEnv::generate(rounds, 300.0, 0.5, 1.5, seed)
    }

    #[test]
    fn cost_is_minimized_at_k_star() {
        let e = env(10, 0);
        for m in 0..10 {
            assert!(e.cost(m, 300.0) <= e.cost(m, 200.0));
            assert!(e.cost(m, 300.0) <= e.cost(m, 400.0));
        }
    }

    #[test]
    fn derivative_sign_matches_geometry() {
        let e = env(5, 1);
        assert_eq!(e.derivative_sign(0, 400.0), 1);
        assert_eq!(e.derivative_sign(0, 200.0), -1);
        assert_eq!(e.derivative_sign(0, 300.0), 0);
    }

    #[test]
    fn g_bound_dominates_all_slopes() {
        let e = env(50, 2);
        let g = e.g_bound();
        assert!((0.5..=1.5).contains(&g));
    }

    #[test]
    fn exact_sign_regret_is_within_theorem_1_bound() {
        let e = env(2_000, 3);
        let interval = SearchInterval::new(1.0, 1001.0);
        let outcome = run_sign_ogd_exact(&e, interval, 900.0);
        assert!(outcome.within_bound(), "regret exceeded Theorem 1 bound");
        // Sub-linear: the average regret at the end is much smaller than the
        // average over the first 100 rounds.
        let early = outcome.cumulative_regret[99] / 100.0;
        assert!(outcome.average_regret() < early * 0.5);
    }

    #[test]
    fn noisy_sign_regret_is_within_theorem_2_bound() {
        let e = env(2_000, 4);
        let interval = SearchInterval::new(1.0, 1001.0);
        let outcome = run_sign_ogd_noisy(&e, interval, 900.0, 0.2, 11);
        assert!(outcome.within_bound(), "regret exceeded Theorem 2 bound");
    }

    #[test]
    fn k_sequence_approaches_k_star() {
        let e = env(3_000, 5);
        let interval = SearchInterval::new(1.0, 1001.0);
        let outcome = run_sign_ogd_exact(&e, interval, 1_000.0);
        let tail = &outcome.k_sequence[outcome.k_sequence.len() - 50..];
        let avg: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!((avg - 300.0).abs() < 60.0, "tail average {avg}");
    }

    #[test]
    fn noisy_oracle_respects_flip_probability() {
        let e = env(1, 6);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut flips = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if e.noisy_sign(0, 500.0, 0.3, &mut rng) != e.derivative_sign(0, 500.0) {
                flips += 1;
            }
        }
        let rate = flips as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "flip rate {rate}");
    }

    #[test]
    #[should_panic]
    fn invalid_flip_probability_panics() {
        let e = env(1, 7);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let _ = e.noisy_sign(0, 100.0, 0.6, &mut rng);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_regret_always_within_bound(
            seed in 0u64..200,
            k_star in 50.0f64..950.0,
            initial in 1.0f64..1000.0,
        ) {
            let e = SyntheticCostEnv::generate(500, k_star, 0.2, 2.0, seed);
            let interval = SearchInterval::new(1.0, 1001.0);
            let outcome = run_sign_ogd_exact(&e, interval, initial);
            prop_assert!(outcome.within_bound());
        }
    }
}
