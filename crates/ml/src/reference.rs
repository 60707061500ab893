//! Seed (pre-im2col) model kernels and the sequential dataset generators,
//! kept as executable specifications.
//!
//! [`femnist_generate`] and [`cifar_generate`] are the generators as they
//! drew before generation went to the pool: every draw in order on one
//! stream. `SyntheticFemnist::generate_on` and `SyntheticCifar::generate_on`
//! must reproduce them bit for bit — features, labels, test shard and the
//! stream's final position — at every worker count
//! (`crates/ml/tests/generate_schedule.rs`), and `bench-report` asserts
//! its `dataset_generate_wide` row against [`femnist_generate`].
//!
//! Mirroring `agsfl_sparse::reference`, this module preserves the original
//! scalar-loop implementation of [`SimpleCnn`]'s forward and backward passes
//! exactly as the seed wrote them: six nested loops per convolution, an
//! explicit pooling/ReLU pass and per-sample fully connected accumulation.
//! The optimized path (the fused convolution kernels, forward and backward;
//! see [`crate::model::CnnScratch`]) is property-tested against
//! these functions in `crates/ml/tests/cnn_equivalence.rs`.
//!
//! **Equivalence is ULP-level, not bit-level.** The fast path folds each
//! receptive field in four-way groups from a bias seed where the seed loops
//! fold it term by term, and the fully connected
//! matmul accumulates from `0.0` before the bias broadcast. IEEE additions
//! reassociated this way can differ in the last bits, so the equivalence
//! tests assert a small relative tolerance instead of byte equality — in
//! contrast to the selection kernels in `agsfl-sparse`, whose folds are
//! reproduced order-exactly and are therefore pinned bit-identical.
//!
//! [`SimpleCnn`]: crate::model::SimpleCnn

use agsfl_tensor::{init, ops, Matrix};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::data::{
    partition_one_class_per_client, ClientShard, FederatedDataset, SyntheticCifarConfig,
    SyntheticFemnistConfig,
};
use crate::loss::batch_cross_entropy_with_grad;
use crate::model::{Model, SimpleCnn};

const KERNEL: usize = 3;

/// Seed convolution + ReLU + average pooling for one sample.
///
/// Returns `(pre_activation, pooled)` where `pre_activation` is the raw
/// convolution output (needed for the ReLU derivative).
fn cnn_forward_sample(model: &SimpleCnn, params: &[f32], sample: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let (conv_w_off, conv_b_off, _, _) = model.offsets();
    let (ch, cw) = model.conv_output_size();
    let out_channels = model.filters();
    let in_channels = model.in_channels();
    let mut pre = vec![0.0f32; out_channels * ch * cw];
    for o in 0..out_channels {
        let bias = params[conv_b_off + o];
        for y in 0..ch {
            for x in 0..cw {
                let mut acc = bias;
                for c in 0..in_channels {
                    for ky in 0..KERNEL {
                        for kx in 0..KERNEL {
                            acc += sample[model.input_index(c, y + ky, x + kx)]
                                * params[conv_w_off + model.conv_w_index(o, c, ky, kx)];
                        }
                    }
                }
                pre[(o * ch + y) * cw + x] = acc;
            }
        }
    }
    let (ph, pw) = model.pooled_size();
    let mut pooled = vec![0.0f32; out_channels * ph * pw];
    for o in 0..out_channels {
        for py in 0..ph {
            for px in 0..pw {
                let mut acc = 0.0f32;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let y = py * 2 + dy;
                        let x = px * 2 + dx;
                        acc += ops::relu(pre[(o * ch + y) * cw + x]);
                    }
                }
                pooled[(o * ph + py) * pw + px] = acc / 4.0;
            }
        }
    }
    (pre, pooled)
}

/// Seed forward pass: per-sample scalar convolution loops plus a strided
/// per-class fully connected accumulation.
pub fn cnn_forward(model: &SimpleCnn, params: &[f32], x: &Matrix) -> Matrix {
    let (_, _, fc_w_off, fc_b_off) = model.offsets();
    let num_classes = model.num_classes();
    let mut logits = Matrix::zeros(x.rows(), num_classes);
    for i in 0..x.rows() {
        let (_, pooled) = cnn_forward_sample(model, params, x.row(i));
        let out = logits.row_mut(i);
        for (j, out_j) in out.iter_mut().enumerate() {
            let mut acc = params[fc_b_off + j];
            for (p, &v) in pooled.iter().enumerate() {
                acc += v * params[fc_w_off + p * num_classes + j];
            }
            *out_j = acc;
        }
    }
    logits
}

/// Seed backward pass: the original nested-loop backpropagation.
pub fn cnn_loss_and_grad(
    model: &SimpleCnn,
    params: &[f32],
    x: &Matrix,
    labels: &[usize],
) -> (f32, Vec<f32>) {
    let (conv_w_off, conv_b_off, fc_w_off, fc_b_off) = model.offsets();
    let (ch, cw) = model.conv_output_size();
    let (ph, pw) = model.pooled_size();
    let out_channels = model.filters();
    let in_channels = model.in_channels();
    let num_classes = model.num_classes();

    // Forward pass, caching per-sample intermediates.
    let mut pres = Vec::with_capacity(x.rows());
    let mut pooleds = Vec::with_capacity(x.rows());
    let mut logits = Matrix::zeros(x.rows(), num_classes);
    for i in 0..x.rows() {
        let (pre, pooled) = cnn_forward_sample(model, params, x.row(i));
        let out = logits.row_mut(i);
        for (j, out_j) in out.iter_mut().enumerate() {
            let mut acc = params[fc_b_off + j];
            for (p, &v) in pooled.iter().enumerate() {
                acc += v * params[fc_w_off + p * num_classes + j];
            }
            *out_j = acc;
        }
        pres.push(pre);
        pooleds.push(pooled);
    }
    let (loss, dlogits) = batch_cross_entropy_with_grad(&logits, labels);

    let mut grad = vec![0.0f32; model.num_params()];
    for i in 0..x.rows() {
        let sample = x.row(i);
        let dlog = dlogits.row(i);
        let pooled = &pooleds[i];
        let pre = &pres[i];

        // Fully connected layer gradients and back-propagated pooled grad.
        let mut dpooled = vec![0.0f32; pooled.len()];
        for (p, &pv) in pooled.iter().enumerate() {
            for j in 0..num_classes {
                grad[fc_w_off + p * num_classes + j] += pv * dlog[j];
                dpooled[p] += params[fc_w_off + p * num_classes + j] * dlog[j];
            }
        }
        for j in 0..num_classes {
            grad[fc_b_off + j] += dlog[j];
        }

        // Average pooling + ReLU backward into the convolution output.
        let mut dpre = vec![0.0f32; pre.len()];
        for o in 0..out_channels {
            for py in 0..ph {
                for px in 0..pw {
                    let g = dpooled[(o * ph + py) * pw + px] / 4.0;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let y = py * 2 + dy;
                            let x_ = px * 2 + dx;
                            let idx = (o * ch + y) * cw + x_;
                            dpre[idx] += g * ops::relu_grad(pre[idx]);
                        }
                    }
                }
            }
        }

        // Convolution weight and bias gradients.
        for o in 0..out_channels {
            for y in 0..ch {
                for x_ in 0..cw {
                    let g = dpre[(o * ch + y) * cw + x_];
                    if g == 0.0 {
                        continue;
                    }
                    grad[conv_b_off + o] += g;
                    for c in 0..in_channels {
                        for ky in 0..KERNEL {
                            for kx in 0..KERNEL {
                                grad[conv_w_off + model.conv_w_index(o, c, ky, kx)] +=
                                    g * sample[model.input_index(c, y + ky, x_ + kx)];
                            }
                        }
                    }
                }
            }
        }
    }
    (loss, grad)
}

/// Sequential FEMNIST generator: prototypes, then each writer's style,
/// class subset, preferences and rows, then the unseen-writer test rows,
/// all on `rng` in that order. `cfg` must be valid (as
/// `SyntheticFemnist::new` checks).
pub fn femnist_generate<R: Rng + ?Sized>(
    cfg: &SyntheticFemnistConfig,
    rng: &mut R,
) -> FederatedDataset {
    let prototypes = prototypes(cfg.num_classes, cfg.feature_dim, rng);
    let mut clients = Vec::with_capacity(cfg.num_clients);
    for _ in 0..cfg.num_clients {
        let style = init::normal_vec(cfg.feature_dim, 0.0, cfg.writer_shift_std, rng);
        let mut classes: Vec<usize> = (0..cfg.num_classes).collect();
        classes.shuffle(rng);
        classes.truncate(cfg.classes_per_client);
        let prefs: Vec<f64> = (0..classes.len())
            .map(|_| rng.gen_range(0.2f64..1.0))
            .collect();
        let mut flat = Vec::with_capacity(cfg.samples_per_client * cfg.feature_dim);
        let mut labels = Vec::with_capacity(cfg.samples_per_client);
        for _ in 0..cfg.samples_per_client {
            let slot = init::sample_weighted(&prefs, rng).unwrap_or(0);
            let class = classes[slot];
            flat.extend(features(prototypes.row(class), &style, cfg.noise_std, rng));
            labels.push(class);
        }
        clients.push(ClientShard::new(
            Matrix::from_vec(cfg.samples_per_client, cfg.feature_dim, flat),
            labels,
        ));
    }
    let mut flat = Vec::with_capacity(cfg.test_samples * cfg.feature_dim);
    let mut labels = Vec::with_capacity(cfg.test_samples);
    for _ in 0..cfg.test_samples {
        let class = rng.gen_range(0..cfg.num_classes);
        let style = init::normal_vec(cfg.feature_dim, 0.0, cfg.writer_shift_std, rng);
        flat.extend(features(prototypes.row(class), &style, cfg.noise_std, rng));
        labels.push(class);
    }
    let test = ClientShard::new(
        Matrix::from_vec(cfg.test_samples, cfg.feature_dim, flat),
        labels,
    );
    FederatedDataset::new(clients, test, cfg.num_classes)
}

/// Sequential CIFAR generator: prototypes, the whole training pool (each
/// row a scene shift, then its features), the one-class-per-client
/// partition of it, then the test pool, all on `rng` in that order. `cfg`
/// must be valid (as `SyntheticCifar::new` checks).
pub fn cifar_generate<R: Rng + ?Sized>(
    cfg: &SyntheticCifarConfig,
    rng: &mut R,
) -> FederatedDataset {
    let prototypes = prototypes(cfg.num_classes, cfg.feature_dim, rng);
    let pool = cifar_pool(cfg.train_samples, &prototypes, cfg.noise_std, rng);
    let clients = partition_one_class_per_client(&pool, cfg.num_clients, cfg.num_classes, rng);
    let test = cifar_pool(cfg.test_samples, &prototypes, cfg.noise_std, rng);
    FederatedDataset::new(clients, test, cfg.num_classes)
}

fn prototypes<R: Rng + ?Sized>(num_classes: usize, feature_dim: usize, rng: &mut R) -> Matrix {
    let mut m = Matrix::from_vec(
        num_classes,
        feature_dim,
        init::normal_vec(num_classes * feature_dim, 0.0, 1.0, rng),
    );
    m.scale(1.2);
    m
}

/// `prototype + shift + noise`, one noise draw per feature.
fn features<R: Rng + ?Sized>(
    prototype: &[f32],
    shift: &[f32],
    noise_std: f32,
    rng: &mut R,
) -> Vec<f32> {
    (0..prototype.len())
        .map(|j| prototype[j] + shift[j] + init::normal(0.0, noise_std, rng))
        .collect()
}

fn cifar_pool<R: Rng + ?Sized>(
    samples: usize,
    prototypes: &Matrix,
    noise_std: f32,
    rng: &mut R,
) -> ClientShard {
    let (num_classes, dim) = (prototypes.rows(), prototypes.cols());
    let mut flat = Vec::with_capacity(samples * dim);
    let mut labels = Vec::with_capacity(samples);
    for s in 0..samples {
        let class = s % num_classes;
        let scene = init::normal_vec(dim, 0.0, noise_std * 0.5, rng);
        flat.extend(features(prototypes.row(class), &scene, noise_std, rng));
        labels.push(class);
    }
    ClientShard::new(Matrix::from_vec(samples, dim, flat), labels)
}
