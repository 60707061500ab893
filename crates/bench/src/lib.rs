//! Shared configuration for the benchmark harness.
//!
//! Every figure of the paper has its own `cargo bench` target in `benches/`;
//! they all build on the bench-scale workload defined here so results are
//! comparable across figures and reproducible from the fixed seed. The
//! bench scale is a scaled-down version of the paper's setup (synthetic
//! FEMNIST/CIFAR-10-like data and smaller models): the qualitative shapes
//! are preserved while the full suite runs in minutes on a laptop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use agsfl_core::{DatasetSpec, ExperimentConfig, ModelSpec};

pub mod kernel_workload;

/// Master seed used by all benchmark workloads.
pub const BENCH_SEED: u64 = 2020;

/// The bench-scale FEMNIST workload: 40 writer-style clients, 20 classes,
/// an MLP of a few thousand parameters, mini-batch 16.
pub fn femnist_base(comm_time: f64) -> ExperimentConfig {
    ExperimentConfig::builder()
        .dataset(DatasetSpec::femnist_bench())
        .model(ModelSpec::Mlp { hidden: vec![32] })
        .learning_rate(0.03)
        .batch_size(16)
        .comm_time(comm_time)
        .eval_every(10)
        .seed(BENCH_SEED)
        .build()
}

/// The bench-scale CIFAR-10 workload: 30 clients, one class per client.
pub fn cifar_base(comm_time: f64) -> ExperimentConfig {
    ExperimentConfig::builder()
        .dataset(DatasetSpec::cifar_bench())
        .model(ModelSpec::Mlp { hidden: vec![32] })
        .learning_rate(0.03)
        .batch_size(16)
        .comm_time(comm_time)
        .eval_every(10)
        .seed(BENCH_SEED)
        .build()
}

/// Prints a figure banner so the tee'd bench output is easy to navigate.
pub fn banner(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_configs_are_valid() {
        femnist_base(10.0).validate();
        cifar_base(100.0).validate();
    }

    #[test]
    fn bench_configs_use_fixed_seed() {
        assert_eq!(femnist_base(1.0).seed, BENCH_SEED);
        assert_eq!(cifar_base(1.0).seed, BENCH_SEED);
    }
}
