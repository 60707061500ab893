//! Quickstart: federated learning with FAB-top-k sparsification and online
//! adaptation of the sparsity degree `k`.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- --metrics metrics.jsonl
//! ```
//!
//! The example trains a small model on a tiny synthetic FEMNIST-like
//! federated dataset, first with a fixed `k`, then with the paper's
//! Algorithm 3 adapting `k` online, and prints the loss/accuracy achieved
//! within the same normalized time budget.
//!
//! `--metrics <path>` streams one JSON line per adaptive round to `<path>`
//! (stage timings, pool metrics and memory probes included) and prints, at
//! the end, the run's totals from its history (wire bytes, codec frame
//! counts, fault tallies) and resident client states next to the
//! cumulative wall-clock telemetry summary. Telemetry is observation only:
//! the trained trajectory is bit-identical with or without the flag.

use agsfl::core::telemetry::TelemetrySpec;
use agsfl::core::{
    report, ControllerSpec, DatasetSpec, Experiment, ExperimentConfig, ModelSpec, StopCondition,
};
use agsfl::exec::Parallelism;
use agsfl::wire::CodecId;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let metrics = args
        .iter()
        .position(|a| a == "--metrics")
        .map(|i| args.get(i + 1).expect("--metrics needs a path").clone());
    // `Parallelism::Auto` sizes the round engine to the machine; results are
    // bit-identical for every setting (`Serial`, `Threads(n)`, `Auto`) — the
    // knob only changes wall-clock time.
    let parallelism = Parallelism::Auto;
    let config = ExperimentConfig::builder()
        .dataset(DatasetSpec::femnist_tiny())
        .model(ModelSpec::Mlp { hidden: vec![16] })
        .learning_rate(0.05)
        .batch_size(8)
        .comm_time(10.0)
        .eval_every(10)
        .seed(42)
        .parallelism(parallelism)
        .build();

    let time_budget = 400.0;
    println!("Model dimension D = {}", Experiment::new(&config).dim());
    println!(
        "Round engine: {parallelism:?} -> {} worker thread(s)",
        parallelism.resolve()
    );
    println!("Normalized time budget = {time_budget}\n");

    // 1. Fixed k = 5% of D.
    let mut fixed = Experiment::new(&config);
    let k = fixed.dim() / 20;
    let fixed_history = fixed.run_fixed_k(k, &StopCondition::after_time(time_budget));
    println!(
        "Fixed k = {k:>5}: {} rounds, final loss {:.4}, test accuracy {:.3}",
        fixed_history.len(),
        fixed_history.final_global_loss().unwrap_or(f64::NAN),
        fixed_history.final_test_accuracy().unwrap_or(f64::NAN),
    );

    // 2. Adaptive k with the paper's Algorithm 3 — telemetered when asked.
    let mut adaptive = Experiment::new(&config);
    if let Some(path) = &metrics {
        adaptive
            .set_telemetry(TelemetrySpec::full(path))
            .expect("open metrics sink");
    }
    let adaptive_history = adaptive.run_adaptive(
        ControllerSpec::Algorithm3,
        &StopCondition::after_time(time_budget),
    );
    let ks = adaptive_history.k_sequence();
    println!(
        "Adaptive k     : {} rounds, final loss {:.4}, test accuracy {:.3}",
        adaptive_history.len(),
        adaptive_history.final_global_loss().unwrap_or(f64::NAN),
        adaptive_history.final_test_accuracy().unwrap_or(f64::NAN),
    );
    println!(
        "Adaptive k trajectory: start {} -> end {} (min {}, max {})",
        ks.first().unwrap(),
        ks.last().unwrap(),
        ks.iter().min().unwrap(),
        ks.iter().max().unwrap()
    );

    if let Some(state) = adaptive.take_telemetry() {
        let (uplink, downlink) = adaptive_history.wire_bytes();
        println!("\nRun totals (adaptive run):");
        println!("wire bytes: {uplink} up, {downlink} down");
        for (id, &frames) in CodecId::ALL.iter().zip(adaptive_history.codec_counts()) {
            if frames > 0 {
                println!("{} uplink frames: {frames}", id.name());
            }
        }
        print!("{}", report::fault_summary(&[&adaptive_history]));
        println!(
            "resident clients: {}",
            adaptive.simulation().resident_clients()
        );
        println!("\nTelemetry summary (adaptive run):");
        print!("{}", report::telemetry_summary(&state));
        println!(
            "Per-round metrics written to {}",
            metrics.as_deref().unwrap_or("-")
        );
    }
}
