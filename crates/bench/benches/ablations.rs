//! Ablation benchmarks for the reproduction's design choices: the FAB
//! fairness guarantee, Algorithm 3's update window `Mu` and inflation
//! factor `α`, and stochastic vs floor rounding of the continuous `k`.

use agsfl_bench::{banner, femnist_base};
use agsfl_core::{Experiment, ExperimentConfig, SparsifierSpec, StopCondition};
use agsfl_online::{stochastic_round, ExtendedConfig, ExtendedSignOgd};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn fairness_ablation() {
    banner("Ablation A — fairness-aware vs fairness-unaware selection (one-class-per-client data)");
    let base = agsfl_bench::cifar_base(10.0);
    println!(
        "{:<14}{:>12}{:>12}{:>16}{:>22}",
        "method", "loss", "accuracy", "min contrib", "clients with zero"
    );
    for spec in [SparsifierSpec::FabTopK, SparsifierSpec::FubTopK] {
        let config = ExperimentConfig {
            sparsifier: spec,
            ..base.clone()
        };
        let mut experiment = Experiment::new(&config);
        let k = experiment.dim() / 50;
        let history = experiment.run_fixed_k(k, &StopCondition::after_time(600.0));
        let cdf = history.contribution_cdf();
        println!(
            "{:<14}{:>12.4}{:>12.3}{:>16.0}{:>21.1}%",
            spec.name(),
            history.final_global_loss().unwrap_or(f64::NAN),
            history.final_test_accuracy().unwrap_or(f64::NAN),
            cdf.quantile(0.0).unwrap_or(0.0),
            cdf.eval(0.0) * 100.0
        );
    }
}

fn algorithm3_parameter_ablation() {
    banner("Ablation B — Algorithm 3 sensitivity to the update window Mu and inflation alpha");
    let base = femnist_base(100.0);
    println!(
        "{:<24}{:>12}{:>14}{:>14}",
        "setting", "loss", "tail mean k", "k spread"
    );
    for (label, alpha, mu) in [
        ("paper (a=1.5, Mu=20)", 1.5, 20usize),
        ("narrow (a=1.1, Mu=20)", 1.1, 20),
        ("wide (a=3.0, Mu=20)", 3.0, 20),
        ("short window (Mu=5)", 1.5, 5),
        ("long window (Mu=60)", 1.5, 60),
    ] {
        let mut experiment = Experiment::new(&base);
        let dim = experiment.dim() as f64;
        let mut controller = ExtendedSignOgd::new(ExtendedConfig {
            k_min: (0.002 * dim).max(1.0),
            k_max: dim,
            alpha,
            update_window: mu,
            initial_k: dim / 2.0,
        });
        let history = experiment.run_with_controller(
            &mut controller,
            &StopCondition::after_rounds(400),
            label,
        );
        let ks = history.k_sequence();
        let tail = &ks[ks.len().saturating_sub(100)..];
        let tail_mean = tail.iter().sum::<usize>() as f64 / tail.len() as f64;
        let spread = (*tail.iter().max().unwrap() - *tail.iter().min().unwrap()) as f64;
        println!(
            "{:<24}{:>12.4}{:>14.0}{:>14.0}",
            label,
            history.final_global_loss().unwrap_or(f64::NAN),
            tail_mean,
            spread
        );
    }
}

fn rounding_ablation() {
    banner("Ablation C — stochastic rounding (Definition 2) vs floor rounding of continuous k");
    let mut rng = ChaCha8Rng::seed_from_u64(agsfl_bench::BENCH_SEED);
    let k_values = [10.5f64, 100.25, 999.75];
    println!(
        "{:<12}{:>22}{:>16}{:>18}",
        "k", "stochastic mean", "floor value", "stochastic bias"
    );
    for &k in &k_values {
        let n = 200_000;
        let mean: f64 = (0..n)
            .map(|_| stochastic_round(k, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        println!(
            "{:<12}{:>22.4}{:>16}{:>18.5}",
            k,
            mean,
            k.floor() as usize,
            mean - k
        );
    }
    println!("Stochastic rounding is unbiased; floor rounding systematically under-communicates.");
}

fn main() {
    fairness_ablation();
    algorithm3_parameter_ablation();
    rounding_ablation();
}
