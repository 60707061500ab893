//! Adaptive `k` training through injected client faults on a fluctuating
//! byte-priced channel.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release --example fault_injection
//! ```
//!
//! The example wires a chaotic [`FaultModel`] — Bernoulli dropout, crash
//! outages spanning several rounds, 4x straggler slowdowns, corrupted
//! uplink frames with bounded retries, and an uplink deadline — into the
//! simulator and lets Algorithm 3 adapt the sparsity degree `k` on top.
//! Each round prints who survived and what the faults cost; no round ever
//! aborts, because the server aggregates over survivors only and dropped
//! clients keep their updates in the error-feedback residual for later
//! rounds.

use agsfl::core::{report, ChannelSpec, CodecSpec, ControllerSpec};
use agsfl::exec::Parallelism;
use agsfl::fl::{
    FaultModel, MetricPoint, RunHistory, Simulation, SimulationConfig, TimeModel, WireConfig,
};
use agsfl::ml::data::{SyntheticFemnist, SyntheticFemnistConfig};
use agsfl::ml::model::Mlp;
use agsfl::online::{stochastic_round, RoundFeedback};
use agsfl::sparse::FabTopK;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let seed = 11u64;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dataset = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
    let model = Mlp::new(dataset.feature_dim(), &[16], dataset.num_classes());
    let num_clients = dataset.num_clients();

    // A fluctuating channel: bandwidth fades to a quarter of nominal and
    // back over a 10-round period, with per-client phase offsets.
    let channel = ChannelSpec::uniform(20_000.0, 80_000.0, 0.05)
        .with_spread(2.0)
        .with_fluctuation(10, 0.75)
        .build(num_clients, seed);

    // Every fault class at once. All draws come from a dedicated seeded
    // stream, so this run is bit-reproducible.
    let fault = FaultModel {
        drop_prob: 0.10,
        crash_prob: 0.05,
        outage_rounds: (1, 3),
        straggle_prob: 0.20,
        straggle_factor: 4.0,
        deadline: Some(60.0),
        corrupt_prob: 0.15,
        max_retries: 2,
        retry_backoff: 0.05,
        seed: seed ^ 0xFA,
    };

    let mut sim = Simulation::new(
        Box::new(model),
        dataset,
        Box::new(FabTopK::new()),
        SimulationConfig {
            learning_rate: 0.05,
            batch_size: 8,
            time_model: TimeModel::normalized(10.0), // unused: wire pricing below
            seed,
            parallelism: Parallelism::Auto,
            wire: Some(WireConfig {
                codec: CodecSpec::Auto,
                channel,
            }),
            fault: Some(fault),
            cohort: None,
        },
    );

    let dim = sim.dim();
    let mut controller = ControllerSpec::Algorithm3.build(dim, seed);
    let mut rounding_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x517C_C1B7_2722_0A95);
    let mut history = RunHistory::new("algorithm3+chaos", num_clients);

    println!(
        "Fault injection on a fluctuating channel (D = {dim}, N = {num_clients}, deadline = 60.0)\n"
    );
    println!(
        "{:>5}{:>7}{:>6}{:>9}{:>6}{:>9}{:>9}{:>9}{:>9}{:>12}",
        "round", "k", "surv", "offline", "drop", "straggle", "corrupt", "ddl", "retries", "rtx [B]"
    );

    for _ in 0..36 {
        let k_cont = controller.propose_k().clamp(1.0, dim as f64);
        let k = stochastic_round(k_cont, &mut rounding_rng).min(dim);
        let probe_k = controller
            .probe_k()
            .map(|p| p.round().max(1.0) as usize)
            .unwrap_or(k);
        let report = sim.run_round(k, Some(probe_k));
        let f = report.fault.as_ref().expect("fault model is configured");
        println!(
            "{:>5}{:>7}{:>6}{:>9}{:>6}{:>9}{:>9}{:>9}{:>9}{:>12}",
            report.round,
            report.k_used,
            f.survivors,
            f.offline,
            f.dropped,
            f.stragglers,
            f.corrupt_frames,
            f.deadline_dropped,
            f.retries,
            f.retransmitted_bytes
        );
        history.record_fault(f);
        history.push(MetricPoint {
            round: report.round,
            elapsed_time: sim.elapsed_time(),
            k: report.k_used,
            train_loss: report.train_loss,
            global_loss: None,
            test_accuracy: None,
        });

        controller.observe(&RoundFeedback {
            k_used: report.k_used,
            round_time: report.round_time,
            probe_loss_prev: report.probe.map(|p| p.loss_prev),
            probe_loss_now: report.probe.map(|p| p.loss_now),
            probe_loss_alt: report.probe.map(|p| p.loss_probe),
            probe_round_time: report.probe.map(|p| p.probe_round_time),
            probe_k: report.probe.map(|p| p.probe_k),
            loss_decrease: None,
        });
    }

    println!("\nRun totals over {} rounds:", history.len());
    print!("{}", report::fault_summary(&[&history]));

    let eval = sim.evaluate();
    println!(
        "\nFinal global train loss {:.4}, test accuracy {:.3} after {:.1} time units",
        eval.train_loss,
        eval.test_accuracy,
        sim.elapsed_time()
    );
}
