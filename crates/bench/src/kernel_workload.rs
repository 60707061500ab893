//! The kernel workloads.
//!
//! The `bench-report` binary (plain timing + `BENCH_kernels.json`) must
//! measure exactly the same inputs from one PR to the next so its numbers
//! are comparable; it builds them here. Five workload families are
//! tracked: the FAB server selection (and, at the paper's dimension, the
//! probe's restriction of it), the paper-shape CNN forward pass and
//! gradient (im2col vs the seed scalar loops), one client step into a
//! residual at the CNN and at `sparse_wide_linear`'s linear model, and
//! that gradient's four matrix products one by one (scalar spec vs each
//! dispatch level), the
//! per-evaluation `O(N·D)` metric sweep (fused executor sweep vs the
//! seed's three serial passes), and the wire-codec message (encode/decode
//! fast paths vs the allocating reference implementations).

use agsfl_exec::Parallelism;
use agsfl_fl::{ChannelModel, Simulation, SimulationConfig, TimeModel, WireConfig};
use agsfl_ml::data::{FederatedDataset, SyntheticFemnist, SyntheticFemnistConfig};
use agsfl_ml::model::{Mlp, Model, SimpleCnn};
use agsfl_sparse::{topk, ClientUpload, FabTopK, SparseGradient};
use agsfl_tensor::{Matrix, Product, Store};
use agsfl_wire::CodecSpec;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Model dimension of the FAB selection workload (the paper's 400k-weight
/// CNN scale is the roadmap target; 10⁵ is the tracked bench point).
pub const FAB_DIM: usize = 100_000;

/// Number of clients in the FAB selection workload.
pub const FAB_CLIENTS: usize = 40;

/// Sparsity degree `k = dim / 100` of the FAB selection workload.
pub const FAB_K: usize = FAB_DIM / 100;

/// Builds the ranked top-k uploads of the FAB selection workload
/// (`FAB_CLIENTS` clients, dimension [`FAB_DIM`], degree [`FAB_K`], fixed
/// seed).
pub fn fab_workload() -> Vec<ClientUpload> {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    (0..FAB_CLIENTS)
        .map(|i| {
            let dense: Vec<f32> = (0..FAB_DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            ClientUpload::new(
                i,
                1.0 / FAB_CLIENTS as f64,
                topk::top_k_entries(&dense, FAB_K),
            )
        })
        .collect()
}

/// Dimension of the client top-k and rank workloads: the paper's CNN.
pub const TOPK_DIM: usize = 419_582;

/// The three degrees the client top-k pair is tracked at: a fixed-`k`
/// round (`faulty_auto_resume`'s `k`), an adaptive run's first rounds
/// (`k = D/2`, the controller's `k_max`) and the low end Algorithm 3 probes
/// in `paper_cnn_adaptive` (`k = 839`).
pub const TOPK_KS: [usize; 3] = [12_000, TOPK_DIM / 2, 839];

/// The two server shapes tracked at [`TOPK_DIM`], as `(selection kernel,
/// probe kernel, clients, k, probe k')`: `sparse_wide_linear`'s round (16
/// clients, a small fixed `k`) and an adaptive run's `k ≈ D/2` round on
/// `paper_cnn_adaptive` (8 clients, probing at three fifths of `k`, which is
/// where Algorithm 3's `k' = k − δ/2` sits in those rounds).
pub const SERVER_SHAPES: [(&str, &str, usize, usize, usize); 2] = [
    ("fab_select_wide", "probe_restrict_wide", 16, 20_000, 10_000),
    (
        "fab_select_kmax",
        "probe_restrict_kmax",
        8,
        TOPK_DIM / 2,
        TOPK_DIM / 2 / 5 * 3,
    ),
];

/// Builds the top-`k` uploads of `clients` clients at [`TOPK_DIM`]
/// (independent uniform accumulators, fixed seed), shaped as the round
/// engine delivers them: entries in index order, with their ranked key
/// view.
pub fn server_workload(clients: usize, k: usize) -> Vec<ClientUpload> {
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let (mut keys, mut entries) = (Vec::new(), Vec::new());
    (0..clients)
        .map(|i| {
            let dense: Vec<f32> = (0..TOPK_DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            topk::top_k_entries_indexed_into(&dense, k, &mut keys, &mut entries);
            ClientUpload::new(i, 1.0 / clients as f64, entries.clone())
        })
        .collect()
}

/// Builds the dense vector of the client top-k workload (dimension
/// [`TOPK_DIM`], fixed seed).
pub fn topk_workload() -> Vec<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    (0..TOPK_DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Builds the wire-codec workload: one sparse gradient message at the
/// acceptance shape (dim = [`FAB_DIM`] = 10⁵, [`FAB_K`] = 10³ entries,
/// fixed seed) — the message a `k = D/100` round actually broadcasts.
pub fn wire_workload() -> SparseGradient {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let dense: Vec<f32> = (0..FAB_DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let entries = topk::top_k_entries(&dense, FAB_K);
    SparseGradient::from_entries(FAB_DIM, entries)
}

/// Dimension and degree of the wired-upload workloads: `sparse_wide_linear`'s
/// 784 × 534 linear model at its fixed `k`.
pub const WIRED_DIM: usize = 418_624;
/// See [`WIRED_DIM`].
pub const WIRED_K: usize = 20_000;
/// Reset indices one client receives in a `sparse_wide_linear` round (≈34k
/// over 16 clients).
pub const WIRED_RESETS: usize = 2_125;

/// Builds one client's residual for the wired-upload workloads (dimension
/// [`WIRED_DIM`], fixed seed).
pub fn wired_workload() -> Vec<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    (0..WIRED_DIM)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect()
}

/// Input channels of the CNN forward workload.
const CNN_CHANNELS: usize = 1;
/// Input height of the CNN forward workload (FEMNIST-like 28x28 images).
const CNN_HEIGHT: usize = 28;
/// Input width of the CNN forward workload.
const CNN_WIDTH: usize = 28;
/// Number of 3x3 filters of the CNN forward workload.
const CNN_FILTERS: usize = 40;
/// Output classes of the CNN forward workload (FEMNIST's 62).
const CNN_CLASSES: usize = 62;
/// Mini-batch size of the CNN forward workload (the paper's 32).
pub const CNN_BATCH: usize = 32;

/// Builds the paper-shape CNN forward workload: a ~420k-parameter
/// `SimpleCnn` (the paper trains a >400k-weight CNN), initialized weights
/// and one mini-batch of synthetic 28x28 images with labels.
pub fn cnn_workload() -> (SimpleCnn, Vec<f32>, Matrix, Vec<usize>) {
    let model = SimpleCnn::new(
        CNN_CHANNELS,
        CNN_HEIGHT,
        CNN_WIDTH,
        CNN_FILTERS,
        CNN_CLASSES,
    );
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let params = model.init_params(&mut rng);
    let x = Matrix::from_fn(CNN_BATCH, model.input_dim(), |_, _| {
        rng.gen_range(-1.0f32..1.0)
    });
    let labels = (0..CNN_BATCH).map(|i| i % CNN_CLASSES).collect();
    (model, params, x, labels)
}

/// Features of the linear client-step workload: `sparse_wide_linear`'s
/// `Mlp` without a hidden layer, 6751 x 62 weights and 62 biases
/// ([`WIRED_DIM`]).
const LINEAR_FEATURES: usize = 6_751;
/// Mini-batch size of the linear client-step workload.
const LINEAR_BATCH: usize = 8;
/// Entries a client of the CNN client-step workload uploads.
pub const CLIENT_STEP_K: usize = 12_000;

/// Builds the linear client-step workload: `sparse_wide_linear`'s model
/// (`LINEAR_FEATURES` x `CNN_CLASSES`, D = [`WIRED_DIM`]), initialized
/// weights and one mini-batch of `LINEAR_BATCH` rows with labels.
pub fn linear_workload() -> (Mlp, Vec<f32>, Matrix, Vec<usize>) {
    let model = Mlp::new(LINEAR_FEATURES, &[], CNN_CLASSES);
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    let params = model.init_params(&mut rng);
    let x = Matrix::from_fn(LINEAR_BATCH, LINEAR_FEATURES, |_, _| {
        rng.gen_range(-1.0f32..1.0)
    });
    let labels = (0..LINEAR_BATCH).map(|i| (7 * i) % CNN_CLASSES).collect();
    (model, params, x, labels)
}

/// A client's residual after some rounds, the accumulator a client step
/// lands its gradient in: small values of both signs, with every fifth
/// coordinate an exact zero (reset by the server's last selection).
pub fn residual_workload(dim: usize) -> Vec<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    (0..dim)
        .map(|j| {
            let v = rng.gen_range(-0.05f32..0.05);
            if j % 5 == 4 {
                0.0
            } else {
                v
            }
        })
        .collect()
}

/// One entry of [`PRODUCT_SHAPES`]: `(pair name, product, lhs shape, rhs
/// shape)`.
type ProductShape = (&'static str, Product, (usize, usize), (usize, usize));

/// The four matrix products of one batch-32 gradient of the paper-shape
/// CNN: the fully
/// connected forward (`pooled · W`), weight gradient (`pooledᵀ · dlogits`)
/// and input gradient (`dlogits · Wᵀ`), and the convolution's weight
/// gradient against the im2col columns (`dpre · colsᵀ`). 6760 = 40 filters
/// x 13 x 13 pooled positions, 21,632 = 32 samples x 26 x 26 positions.
/// The convolution's forward is the fused kernel, paired on its own
/// (`conv_relu_pool@…`).
pub const PRODUCT_SHAPES: [ProductShape; 4] = [
    ("fc_fwd", Product::MatmulAcc, (CNN_BATCH, 6760), (6760, 62)),
    (
        "fc_wgrad",
        Product::TransposeMatmulGrouped(Store::Overwrite),
        (CNN_BATCH, 6760),
        (CNN_BATCH, 62),
    ),
    (
        "fc_dinput",
        Product::MatmulTransposeAcc,
        (CNN_BATCH, 62),
        (6760, 62),
    ),
    (
        "conv_wgrad",
        Product::MatmulTransposeAcc,
        (40, 21_632),
        (9, 21_632),
    ),
];

/// Operand data for one of [`PRODUCT_SHAPES`]: uniform values, with every
/// fourth lhs element an exact zero so the products' skip rules are on the
/// timed path (activations after ReLU and their gradients are like that).
pub fn product_workload(lhs: (usize, usize), rhs: (usize, usize)) -> (Vec<f32>, Vec<f32>) {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let a = (0..lhs.0 * lhs.1)
        .map(|i| {
            let v = rng.gen_range(-1.0f32..1.0);
            if i % 4 == 3 {
                0.0
            } else {
                v
            }
        })
        .collect();
    let b = (0..rhs.0 * rhs.1)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    (a, b)
}

/// Number of clients of the evaluation-sweep workload.
pub const EVAL_CLIENTS: usize = 40;
/// Samples per client of the evaluation-sweep workload.
const EVAL_SAMPLES_PER_CLIENT: usize = 60;

/// Builds the evaluation-sweep workload: the bench-scale federated FEMNIST
/// dataset (40 clients, 30 classes, 400 test samples) plus an MLP and its
/// initialized weights — the `O(N·D)` pass every `eval_every` round runs.
pub fn eval_workload() -> (Box<dyn Model>, Vec<f32>, FederatedDataset) {
    let mut rng = ChaCha8Rng::seed_from_u64(super::BENCH_SEED);
    let dataset = SyntheticFemnist::new(SyntheticFemnistConfig {
        num_clients: EVAL_CLIENTS,
        samples_per_client: EVAL_SAMPLES_PER_CLIENT,
        feature_dim: 48,
        num_classes: 30,
        classes_per_client: 6,
        writer_shift_std: 0.6,
        noise_std: 0.7,
        test_samples: 400,
    })
    .generate(&mut rng);
    let model = Mlp::new(dataset.feature_dim(), &[64], dataset.num_classes());
    let params = model.init_params(&mut rng);
    (Box::new(model), params, dataset)
}

/// Feature dimension of the checkpoint workload; with [`CKPT_CLASSES`]
/// classes the linear model carries `(6751 + 1) * 62 = 418,624` parameters
/// — the paper's >400k-weight scale.
const CKPT_FEATURES: usize = 6_751;
/// Output classes of the checkpoint workload (FEMNIST's 62).
const CKPT_CLASSES: usize = 62;
/// Clients of the checkpoint workload.
pub const CKPT_CLIENTS: usize = 8;

fn ckpt_config() -> SyntheticFemnistConfig {
    SyntheticFemnistConfig {
        num_clients: CKPT_CLIENTS,
        samples_per_client: 4,
        feature_dim: CKPT_FEATURES,
        num_classes: CKPT_CLASSES,
        classes_per_client: 4,
        writer_shift_std: 0.4,
        noise_std: 0.3,
        test_samples: 8,
    }
}

fn ckpt_sim_config() -> SimulationConfig {
    SimulationConfig {
        learning_rate: 0.05,
        batch_size: 4,
        time_model: TimeModel::normalized(10.0),
        seed: super::BENCH_SEED,
        parallelism: Parallelism::Serial,
        wire: None,
        fault: None,
        cohort: None,
    }
}

/// Builds the checkpoint workload: a ~420k-parameter linear simulation
/// (8 clients) advanced a few rounds so per-client residuals, RNG streams
/// and the server model all carry non-trivial state.
pub fn checkpoint_workload() -> Simulation {
    let mut sim = fresh_checkpoint_sim();
    for _ in 0..3 {
        sim.run_round(CKPT_FEATURES / 100, None);
    }
    sim
}

/// Builds the checkpoint-workload simulation at round zero — the
/// "rebuild from scratch" baseline a restore is measured against.
pub fn fresh_checkpoint_sim() -> Simulation {
    let mut rng = ChaCha8Rng::seed_from_u64(super::BENCH_SEED);
    let dataset = SyntheticFemnist::new(ckpt_config()).generate(&mut rng);
    let model = Mlp::new(dataset.feature_dim(), &[], dataset.num_classes());
    Simulation::new(
        Box::new(model),
        dataset,
        Box::new(FabTopK::new()),
        ckpt_sim_config(),
    )
}

/// Clients of the telemetry workload.
pub const TELEM_CLIENTS: usize = 16;
/// Sparsity degree of the telemetry workload.
pub const TELEM_K: usize = 16;

/// Builds the telemetry workload: a wired multi-thread simulation small
/// enough to run thousands of rounds inside the timing budget, so the
/// recorded-vs-noop round pair prices the *instrumentation* (clock reads,
/// histogram buckets, pool counters), not the training math. The wire
/// layer is on so the span set covers encode/decode stages too.
pub fn telemetry_workload() -> Simulation {
    let mut rng = ChaCha8Rng::seed_from_u64(super::BENCH_SEED ^ 0x7e1e);
    let dataset = SyntheticFemnist::new(SyntheticFemnistConfig {
        num_clients: TELEM_CLIENTS,
        samples_per_client: 16,
        feature_dim: 32,
        num_classes: 10,
        classes_per_client: 4,
        writer_shift_std: 0.5,
        noise_std: 0.5,
        test_samples: 32,
    })
    .generate(&mut rng);
    let model = Mlp::new(dataset.feature_dim(), &[], dataset.num_classes());
    let num_clients = dataset.num_clients();
    Simulation::new(
        Box::new(model),
        dataset,
        Box::new(FabTopK::new()),
        SimulationConfig {
            learning_rate: 0.05,
            batch_size: 8,
            time_model: TimeModel::normalized(5.0),
            seed: super::BENCH_SEED,
            parallelism: Parallelism::Threads(2),
            wire: Some(WireConfig {
                codec: CodecSpec::Auto,
                channel: ChannelModel::uniform(num_clients, 1.0, 2_000.0, 4_000.0, 0.05),
            }),
            fault: None,
            cohort: None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shape_matches_acceptance_spec() {
        let uploads = fab_workload();
        assert_eq!(uploads.len(), FAB_CLIENTS);
        assert!(uploads.iter().all(|u| u.len() == FAB_K));
        assert_eq!(FAB_K, FAB_DIM / 100);
    }

    #[test]
    fn server_workload_is_engine_shaped() {
        let uploads = server_workload(3, 5_000);
        assert_eq!(uploads.len(), 3);
        for upload in &uploads {
            assert_eq!(upload.len(), 5_000);
            assert!(upload.entries.windows(2).all(|w| w[0].0 < w[1].0));
            let mut ranked = upload.entries.clone();
            topk::rank_by_magnitude(&mut ranked, &mut Vec::new());
            let view: Vec<(usize, f32)> = upload
                .ranked
                .iter()
                .map(|&key| topk::key_entry(key))
                .collect();
            assert_eq!(view, ranked);
        }
    }

    #[test]
    fn cnn_workload_is_paper_scale() {
        let (model, params, x, labels) = cnn_workload();
        assert!(
            model.num_params() > 400_000,
            "paper CNN has >400k weights, got {}",
            model.num_params()
        );
        assert_eq!(params.len(), model.num_params());
        assert_eq!(x.shape(), (CNN_BATCH, model.input_dim()));
        assert_eq!(labels.len(), CNN_BATCH);
    }

    #[test]
    fn product_shapes_are_the_paper_cnn_s() {
        let (model, _, _, _) = cnn_workload();
        let (ph, pw) = model.pooled_size();
        let (ch, cw) = model.conv_output_size();
        assert_eq!(PRODUCT_SHAPES[0].2, (CNN_BATCH, CNN_FILTERS * ph * pw));
        assert_eq!(PRODUCT_SHAPES[0].3, (CNN_FILTERS * ph * pw, CNN_CLASSES));
        assert_eq!(PRODUCT_SHAPES[3].2, (CNN_FILTERS, CNN_BATCH * ch * cw));
        assert_eq!(PRODUCT_SHAPES[3].3, (CNN_CHANNELS * 9, CNN_BATCH * ch * cw));
        for (_, op, lhs, rhs) in PRODUCT_SHAPES {
            let (a, b) = product_workload(lhs, rhs);
            let a = agsfl_tensor::MatrixView::new(lhs.0, lhs.1, &a);
            let b = agsfl_tensor::MatrixView::new(rhs.0, rhs.1, &b);
            let (rows, cols) = op.output_shape(a, b);
            assert!(rows * cols > 0);
        }
    }

    #[test]
    fn wire_workload_is_acceptance_shape() {
        let g = wire_workload();
        assert_eq!(g.dim(), FAB_DIM);
        assert_eq!(g.nnz(), FAB_K);
    }

    #[test]
    fn eval_workload_matches_bench_scale() {
        let (model, params, dataset) = eval_workload();
        assert_eq!(dataset.num_clients(), EVAL_CLIENTS);
        assert_eq!(params.len(), model.num_params());
        assert_eq!(dataset.test().len(), 400);
    }

    #[test]
    fn telemetry_workload_records_wire_spans() {
        use agsfl_telemetry::{SpanId, StageRecorder};
        let mut sim = telemetry_workload();
        let mut rec = StageRecorder::new();
        rec.begin_round();
        let report = sim.run_round_recorded(TELEM_K, None, &mut rec);
        let wire = report.wire.expect("the telemetry workload is wired");
        assert!(wire.uplink_bytes.iter().sum::<usize>() > 0);
        assert_eq!(rec.span_histogram(SpanId::ClientPass).count(), 1);
        assert!(rec.span_histogram(SpanId::ServerDecode).sum() > 0);
    }

    #[test]
    fn checkpoint_workload_is_paper_scale_and_restorable() {
        let sim = checkpoint_workload();
        assert!(
            sim.dim() > 400_000,
            "paper scale is >400k weights, got {}",
            sim.dim()
        );
        assert_eq!(sim.num_clients(), CKPT_CLIENTS);
        let blob = sim.save_state();
        let mut fresh = fresh_checkpoint_sim();
        fresh
            .restore_state(&blob)
            .expect("same-fingerprint restore");
        assert_eq!(fresh.save_state(), blob);
    }
}
