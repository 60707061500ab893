//! Golden-trajectory pins for the cohort round engine.
//!
//! The hashes below were captured from the historical owned-client engine
//! (one resident `Client` per dataset shard, dense per-client state). The
//! cohort engine — a `ClientPopulation` of one `ClientState` per client id,
//! swapped into a reusable arena of one `Client` per sampled member — must
//! keep every trajectory — plain, byte-priced, and fault-injected — **bit
//! identical**, and a full-population cohort (`cohort: Some(N)` or `None`)
//! must match the historical path exactly. Any change to these hashes is a
//! silent break of the determinism contract and must be treated as a bug,
//! not re-captured.

use agsfl_exec::Parallelism;
use agsfl_fl::{ChannelModel, FaultModel, Simulation, SimulationConfig, TimeModel, WireConfig};
use agsfl_ml::data::{FederatedDataset, SyntheticFemnist, SyntheticFemnistConfig};
use agsfl_ml::model::{Mlp, SimpleCnn};
use agsfl_sparse::{FabTopK, FubTopK, PeriodicK, SendAll, Sparsifier, UnidirectionalTopK};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// FNV-1a over a byte stream.
fn fnv_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// FNV-1a over the little-endian bytes of the weight vector.
fn fnv(params: &[f32]) -> u64 {
    fnv_bytes(params.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

fn sparsifiers() -> Vec<Box<dyn Sparsifier>> {
    vec![
        Box::new(FabTopK::new()),
        Box::new(FubTopK::new()),
        Box::new(UnidirectionalTopK::new()),
        Box::new(PeriodicK::new()),
        Box::new(SendAll::new()),
    ]
}

fn tiny_dataset(seed: u64) -> FederatedDataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng)
}

fn chaos_model(seed: u64) -> FaultModel {
    FaultModel {
        drop_prob: 0.2,
        crash_prob: 0.1,
        outage_rounds: (1, 2),
        straggle_prob: 0.25,
        straggle_factor: 5.0,
        deadline: Some(40.0),
        corrupt_prob: 0.3,
        max_retries: 2,
        retry_backoff: 0.01,
        seed,
    }
}

/// Runs `rounds` rounds, probing on the even ones, and returns the
/// weight-vector hash plus the elapsed-time bits.
fn run(sim: &mut Simulation, rounds: usize) -> (u64, u64) {
    for round in 0..rounds {
        let probe = (round % 2 == 0).then_some(4);
        sim.run_round(8, probe);
    }
    (fnv(sim.params()), sim.elapsed_time().to_bits())
}

/// The historical scalar-proxy trajectories, one per sparsifier.
const PLAIN_GOLDEN: [(u64, u64); 5] = [
    (0x74fc29cadc8985c7, 0x4017878787878788), // FAB-top-k
    (0xaed054333c0967ee, 0x4017878787878788), // FUB-top-k
    (0xa2102885277a096b, 0x40251e1e1e1e1e1e), // Unidirectional top-k
    (0x0abe9967c7524efa, 0x4017878787878788), // Periodic-k
    (0x892fe4fe8c000b7a, 0x4038000000000000), // Always send all
];

/// The historical byte-priced trajectories (Auto codec, uniform channel).
const WIRE_GOLDEN: [(u64, u64); 5] = [
    (0x2675f3a18f23e381, 0x401220c49ba5e354), // FAB-top-k
    (0x5b8d5874550c6685, 0x401220c49ba5e354), // FUB-top-k
    (0x5be7d40b4b67ee4c, 0x4012c8b439581063), // Unidirectional top-k
    (0x2c66bd30006b88c5, 0x401220c49ba5e354), // Periodic-k
    (0x6063f78cb8c35c2c, 0x401a15810624dd2f), // Always send all
];

/// The historical fault-injected trajectory (FUB-top-k, wired, chaos model).
const FAULT_GOLDEN: (u64, u64) = (0xe4d0f29a4b5293cc, 0x406ecbb645a1cac1);

/// FNV-1a over every round of the fault-golden run: each
/// `FaultRoundReport` field, the round-time bits and the per-member uplink
/// bytes, as little-endian `u64` words. Captured from the barrier fault path
/// (separate wire-fault pass and decode loop) before it was folded into the
/// pipelined admission consumer; fences the retry, retransmission, straggler
/// and deadline accounting that the params + elapsed pair cannot see.
const FAULT_REPORT_GOLDEN: u64 = 0xc0270eb2df69ccd4;

/// Every golden is pinned at each of these worker counts: the serial
/// reference path and 2/4/8 channel-fed workers through the persistent
/// pool. Bit-identity across the whole list is the pool's ordered-
/// completion guarantee made executable.
const WORKER_COUNTS: [Parallelism; 4] = [
    Parallelism::Serial,
    Parallelism::Threads(2),
    Parallelism::Threads(4),
    Parallelism::Threads(8),
];

fn plain_config(seed: u64, cohort: Option<usize>, parallelism: Parallelism) -> SimulationConfig {
    SimulationConfig {
        learning_rate: 0.05,
        batch_size: 8,
        time_model: TimeModel::normalized(5.0),
        seed,
        parallelism,
        wire: None,
        fault: None,
        cohort,
    }
}

fn wire_config(
    seed: u64,
    num_clients: usize,
    fault: Option<FaultModel>,
    cohort: Option<usize>,
    parallelism: Parallelism,
) -> SimulationConfig {
    SimulationConfig {
        learning_rate: 0.05,
        batch_size: 8,
        time_model: TimeModel::normalized(5.0),
        seed,
        parallelism,
        wire: Some(WireConfig {
            codec: agsfl_wire::CodecSpec::Auto,
            channel: ChannelModel::uniform(num_clients, 1.0, 2_000.0, 4_000.0, 0.05),
        }),
        fault,
        cohort,
    }
}

#[test]
fn plain_trajectories_match_the_owned_client_engine() {
    // `None` and `Some(N)` both run the full population; both must
    // reproduce the historical hashes exactly.
    for parallelism in WORKER_COUNTS {
        for cohort_of in [
            (|_n: usize| None) as fn(usize) -> Option<usize>,
            |n: usize| Some(n),
        ] {
            for (sp, &(want_params, want_elapsed)) in sparsifiers().into_iter().zip(&PLAIN_GOLDEN) {
                let name = sp.name();
                let fed = tiny_dataset(42);
                let cohort = cohort_of(fed.num_clients());
                let model = Mlp::new(fed.feature_dim(), &[], fed.num_classes());
                let mut sim = Simulation::new(
                    Box::new(model),
                    fed,
                    sp,
                    plain_config(42, cohort, parallelism),
                );
                let (params, elapsed) = run(&mut sim, 4);
                assert_eq!(
                    params, want_params,
                    "{name} params drifted (cohort {cohort:?}, {parallelism:?})"
                );
                assert_eq!(
                    elapsed, want_elapsed,
                    "{name} elapsed drifted (cohort {cohort:?}, {parallelism:?})"
                );
            }
        }
    }
}

#[test]
fn wire_trajectories_match_the_owned_client_engine() {
    for parallelism in WORKER_COUNTS {
        for cohort_of in [
            (|_n: usize| None) as fn(usize) -> Option<usize>,
            |n: usize| Some(n),
        ] {
            for (sp, &(want_params, want_elapsed)) in sparsifiers().into_iter().zip(&WIRE_GOLDEN) {
                let name = sp.name();
                let fed = tiny_dataset(7);
                let n = fed.num_clients();
                let cohort = cohort_of(n);
                let model = Mlp::new(fed.feature_dim(), &[], fed.num_classes());
                let mut sim = Simulation::new(
                    Box::new(model),
                    fed,
                    sp,
                    wire_config(7, n, None, cohort, parallelism),
                );
                let (params, elapsed) = run(&mut sim, 4);
                assert_eq!(
                    params, want_params,
                    "{name} params drifted (cohort {cohort:?}, {parallelism:?})"
                );
                assert_eq!(
                    elapsed, want_elapsed,
                    "{name} elapsed drifted (cohort {cohort:?}, {parallelism:?})"
                );
            }
        }
    }
}

#[test]
fn fault_trajectory_matches_the_owned_client_engine() {
    for parallelism in WORKER_COUNTS {
        for cohort_of in [
            (|_n: usize| None) as fn(usize) -> Option<usize>,
            |n: usize| Some(n),
        ] {
            let fed = tiny_dataset(11);
            let n = fed.num_clients();
            let cohort = cohort_of(n);
            let model = Mlp::new(fed.feature_dim(), &[], fed.num_classes());
            let mut sim = Simulation::new(
                Box::new(model),
                fed,
                Box::new(FubTopK::new()),
                wire_config(11, n, Some(chaos_model(11)), cohort, parallelism),
            );
            let mut words: Vec<u64> = Vec::new();
            for _ in 0..6 {
                let report = sim.run_round(8, None);
                let fr = report.fault.expect("fault model configured");
                words.extend(
                    [
                        fr.offline,
                        fr.dropped,
                        fr.stragglers,
                        fr.corrupt_frames,
                        fr.corrupt_lost,
                        fr.deadline_dropped,
                        fr.retries,
                        fr.survivors,
                    ]
                    .map(|count| count as u64),
                );
                words.push(fr.retransmitted_bytes);
                words.push(report.round_time.to_bits());
                let wire = report.wire.expect("wired run");
                words.extend(wire.uplink_bytes.iter().map(|&bytes| bytes as u64));
            }
            assert_eq!(
                fnv(sim.params()),
                FAULT_GOLDEN.0,
                "fault params drifted (cohort {cohort:?}, {parallelism:?})"
            );
            assert_eq!(
                sim.elapsed_time().to_bits(),
                FAULT_GOLDEN.1,
                "fault elapsed drifted (cohort {cohort:?}, {parallelism:?})"
            );
            assert_eq!(
                fnv_bytes(words.iter().flat_map(|word| word.to_le_bytes())),
                FAULT_REPORT_GOLDEN,
                "fault reports drifted (cohort {cohort:?}, {parallelism:?})"
            );
        }
    }
}

/// Runs `rounds` rounds at `k = D / 10`, probing `k / 2` on the even
/// ones, and returns the FNV-1a hash of every round's training loss and
/// probe losses.
fn probing_run(sim: &mut Simulation, rounds: usize) -> u64 {
    let k = sim.dim() / 10;
    let mut losses: Vec<u64> = Vec::new();
    for round in 0..rounds {
        let probe = (round % 2 == 0).then_some(k / 2);
        let report = sim.run_round(k, probe);
        losses.push(report.train_loss.to_bits());
        if let Some(p) = report.probe {
            losses.extend([p.loss_prev, p.loss_now, p.loss_probe].map(f64::to_bits));
        }
    }
    fnv_bytes(losses.iter().flat_map(|word| word.to_le_bytes()))
}

/// `(channels, height, width, filters)` of a `SimpleCnn`.
type CnnGeometry = (usize, usize, usize, usize);
/// `(params, per-round losses, evaluated point)` hashes.
type CnnPin = (u64, u64, u64);

/// The CNN pins: `(params, per-round losses, evaluated point)` hashes of a
/// FAB-top-k run on a `SimpleCnn`, one per geometry. Captured from the im2col
/// convolution (bias-seeded `matmul_acc` product, then a separate ReLU and
/// 2x2 average-pool pass; its backward the pre-activation gradient's row
/// sums and its product against the columns) before the fused convolution
/// kernels replaced it; they keep every fold, so none may move, at any
/// worker count.
const CNN_GOLDEN: [(CnnGeometry, CnnPin); 2] = [
    // 1 channel, 14x14, 8 filters: even convolution output, paired filters.
    (
        (1, 14, 14, 8),
        (0x1cee65aa298e31e9, 0xc33de4efa3623b85, 0xc0078cd1d438e47f),
    ),
    // 3 channels, 11x11, 5 filters: odd convolution output (an uncovered
    // pooling edge) and an unpaired last filter.
    (
        (3, 11, 11, 5),
        (0xbc5ce5584dc71f32, 0x325def985b089c4f, 0x5b987b221ce73514),
    ),
];

#[test]
fn cnn_trajectories_match_the_fused_conv_engine() {
    for parallelism in [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
        Parallelism::Threads(8),
    ] {
        for &((channels, height, width, filters), want) in &CNN_GOLDEN {
            let mut rng = ChaCha8Rng::seed_from_u64(23);
            let fed = SyntheticFemnist::new(SyntheticFemnistConfig {
                feature_dim: channels * height * width,
                ..SyntheticFemnistConfig::tiny()
            })
            .generate(&mut rng);
            let model = SimpleCnn::new(channels, height, width, filters, fed.num_classes());
            let mut sim = Simulation::new(
                Box::new(model),
                fed,
                Box::new(FabTopK::new()),
                plain_config(23, None, parallelism),
            );
            let losses = probing_run(&mut sim, 4);
            let eval = sim.evaluate();
            let point = [eval.train_loss, eval.train_accuracy, eval.test_accuracy];
            let got = (
                fnv(sim.params()),
                losses,
                fnv_bytes(point.iter().flat_map(|v| v.to_bits().to_le_bytes())),
            );
            assert_eq!(
                got, want,
                "CNN {channels}x{height}x{width}, {filters} filters drifted ({parallelism:?})"
            );
        }
    }
}

/// `(params, elapsed, per-round losses)` of an 8-round FAB-top-k run on
/// `Mlp::new(16, &[16], 10)` over the tiny FEMNIST data, `k = D / 10`,
/// probing `k / 2` on the even rounds. Captured from the MLP that copied
/// its input batch and kept every pre-activation for the ReLU derivative,
/// before it read the derivative off the post-ReLU activations.
const MLP_GOLDEN: (u64, u64, u64) = (0x304b95463f5517d0, 0x402fed774fed7750, 0xe81f6421464760ca);

#[test]
fn mlp_trajectory_matches_the_pre_activation_engine() {
    for parallelism in WORKER_COUNTS {
        let fed = tiny_dataset(29);
        let model = Mlp::new(fed.feature_dim(), &[16], fed.num_classes());
        let mut sim = Simulation::new(
            Box::new(model),
            fed,
            Box::new(FabTopK::new()),
            plain_config(29, None, parallelism),
        );
        let losses = probing_run(&mut sim, 8);
        let got = (fnv(sim.params()), sim.elapsed_time().to_bits(), losses);
        assert_eq!(
            got, MLP_GOLDEN,
            "MLP [16] drifted ({parallelism:?}): {got:#x?}"
        );
    }
}
