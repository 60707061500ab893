//! Adaptive `k` under a fluctuating per-client bandwidth trace, with real
//! bytes on the wire.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release --example bandwidth_trace
//! ```
//!
//! The example builds a heterogeneous channel whose per-client bandwidths
//! oscillate round by round (a sinusoidal trace with per-client phase
//! offsets), frames every message through the `Auto` wire codec, and lets
//! the paper's Algorithm 3 adapt the sparsity degree `k` against the
//! **byte-priced** round time. Each round prints the bytes that actually
//! crossed the wire and which concrete encoding `Auto` picked; watch `k`
//! sink when the channel fades and recover when it clears — the behaviour
//! the scalar `2k` proxy cannot express.

use agsfl::core::{controlled_round, rounding_rng, ChannelSpec, CodecSpec, ControllerSpec};
use agsfl::exec::Parallelism;
use agsfl::fl::{Simulation, SimulationConfig, TimeModel, WireConfig};
use agsfl::ml::data::{SyntheticFemnist, SyntheticFemnistConfig};
use agsfl::ml::model::Mlp;
use agsfl::sparse::FabTopK;
use agsfl::telemetry::NoopRecorder;
use agsfl::wire::CodecId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let seed = 7u64;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dataset = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
    let model = Mlp::new(dataset.feature_dim(), &[16], dataset.num_classes());
    let num_clients = dataset.num_clients();

    // A heterogeneous channel (4x log-uniform bandwidth spread across
    // clients) that fades to a quarter of nominal capacity and back over a
    // 12-round period, with per-client phase offsets.
    let channel = ChannelSpec::uniform(20_000.0, 80_000.0, 0.05)
        .with_spread(4.0)
        .with_fluctuation(12, 0.75)
        .build(num_clients, seed);

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
            fault: None,
            cohort: None,
        },
    );

    let dim = sim.dim();
    let mut controller = ControllerSpec::Algorithm3.build(dim, seed);
    let mut rounding_rng = rounding_rng(seed);

    println!(
        "Adaptive k over a fluctuating byte-priced channel (D = {dim}, N = {num_clients}, codec = auto)\n"
    );
    println!(
        "{:>5}{:>7}{:>12}{:>12}{:>12}{:>14}{:>16}",
        "round", "k", "up [B]", "down [B]", "time", "codec (down)", "uplink codecs"
    );

    let mut total_up = 0u64;
    let mut total_down = 0u64;
    for _ in 0..36 {
        let report = controlled_round(
            &mut sim,
            controller.as_mut(),
            &mut rounding_rng,
            &mut NoopRecorder,
        );
        let wire = report.wire.as_ref().expect("byte-priced round");

        // Count which concrete encodings Auto picked for the uplinks.
        let mut counts = [0usize; 3];
        for &id in &wire.uplink_codecs {
            counts[id as usize] += 1;
        }
        let uplink_mix = CodecId::ALL
            .iter()
            .zip(counts.iter())
            .filter(|(_, &c)| c > 0)
            .map(|(id, c)| format!("{}x{}", c, id.name()))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:>5}{:>7}{:>12}{:>12}{:>12.2}{:>14}{:>16}",
            report.round,
            report.k_used,
            wire.uplink_bytes.iter().sum::<usize>(),
            wire.downlink_bytes,
            report.round_time,
            wire.downlink_codec.name(),
            uplink_mix
        );
        total_up += wire.uplink_bytes.iter().map(|&b| b as u64).sum::<u64>();
        total_down += wire.downlink_bytes as u64;
    }

    let eval = sim.evaluate();
    println!(
        "\nTotal bytes on wire: {total_up} up + {total_down} down = {} over {:.1} time units",
        total_up + total_down,
        sim.elapsed_time()
    );
    println!(
        "Final global train loss {:.4}, test accuracy {:.3}",
        eval.train_loss, eval.test_accuracy
    );
}
