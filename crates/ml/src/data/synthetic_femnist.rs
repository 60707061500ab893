//! Synthetic stand-in for the FEMNIST dataset.
//!
//! FEMNIST partitions handwritten characters by *writer*: each federated
//! client holds the samples of one writer, so shards are non-i.i.d. both in
//! label distribution (writers don't write all 62 symbols equally often) and
//! in feature distribution (every writer has a personal style). The synthetic
//! generator reproduces both effects:
//!
//! * every class `c` has a global prototype vector `p_c`,
//! * every client (writer) `i` has a style-shift vector `s_i` and a random
//!   subset of classes it writes,
//! * a sample of class `c` at client `i` is `p_c + s_i + noise`.
//!
//! The held-out test set is drawn from all classes with fresh writer styles,
//! mimicking FEMNIST's unseen-writer evaluation.

use agsfl_exec::Executor;
use agsfl_tensor::{init, Matrix};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::data::seeked::{fill_seeked, normal_words, skip};
use crate::data::{ClientShard, FederatedDataset};

/// Configuration of the synthetic FEMNIST generator.
///
/// The defaults mirror the paper's setup scaled to laptop size: 156 clients,
/// 62 classes, roughly 222 samples per client (the paper's 34,659 training
/// samples over 156 clients), with a reduced feature dimension (64 instead of
/// 784) to keep the full benchmark suite fast. All fields are public so
/// experiments can override any of them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticFemnistConfig {
    /// Number of clients (writers). Paper: 156.
    pub num_clients: usize,
    /// Training samples per client. Paper average: ~222.
    pub samples_per_client: usize,
    /// Dimension of each feature vector.
    pub feature_dim: usize,
    /// Number of classes. FEMNIST has 62 (digits + upper/lower case letters).
    pub num_classes: usize,
    /// How many distinct classes each writer produces.
    pub classes_per_client: usize,
    /// Standard deviation of the per-writer style shift.
    pub writer_shift_std: f32,
    /// Standard deviation of per-sample noise.
    pub noise_std: f32,
    /// Number of held-out test samples.
    pub test_samples: usize,
}

impl Default for SyntheticFemnistConfig {
    fn default() -> Self {
        Self {
            num_clients: 156,
            samples_per_client: 222,
            feature_dim: 64,
            num_classes: 62,
            classes_per_client: 12,
            writer_shift_std: 0.4,
            noise_std: 0.3,
            test_samples: 4_073,
        }
    }
}

impl SyntheticFemnistConfig {
    /// A small configuration suitable for unit tests and the quickstart
    /// example (8 clients, 10 classes, 32 samples each).
    pub fn tiny() -> Self {
        Self {
            num_clients: 8,
            samples_per_client: 32,
            feature_dim: 16,
            num_classes: 10,
            classes_per_client: 4,
            writer_shift_std: 0.4,
            noise_std: 0.3,
            test_samples: 64,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or `classes_per_client > num_classes`.
    pub(crate) fn validate(&self) {
        assert!(self.num_clients > 0, "num_clients must be positive");
        assert!(
            self.samples_per_client > 0,
            "samples_per_client must be positive"
        );
        assert!(self.feature_dim > 0, "feature_dim must be positive");
        assert!(self.num_classes > 1, "num_classes must be at least 2");
        assert!(
            (1..=self.num_classes).contains(&self.classes_per_client),
            "classes_per_client must be in 1..=num_classes"
        );
        assert!(self.writer_shift_std >= 0.0 && self.noise_std >= 0.0);
    }
}

/// Generator for the synthetic FEMNIST-like federated dataset.
///
/// # Examples
///
/// ```
/// use agsfl_ml::data::{SyntheticFemnist, SyntheticFemnistConfig};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
/// assert_eq!(fed.num_clients(), 8);
/// assert_eq!(fed.num_classes(), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticFemnist {
    config: SyntheticFemnistConfig,
}

impl SyntheticFemnist {
    /// Creates a generator with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SyntheticFemnistConfig`]).
    pub fn new(config: SyntheticFemnistConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &SyntheticFemnistConfig {
        &self.config
    }

    /// Generates the federated dataset on the calling thread:
    /// [`SyntheticFemnist::generate_on`] with a serial executor.
    pub fn generate(&self, rng: &mut ChaCha8Rng) -> FederatedDataset {
        self.generate_on(rng, &Executor::serial())
    }

    /// Generates the federated dataset, drawing its Gaussian blocks on
    /// `exec`'s pool.
    ///
    /// The output is fully determined by the RNG state, and the same for
    /// every executor: a sequential pass makes the writers' class-subset
    /// shuffles and preference weights and the test rows' classes on `rng`
    /// and skips every fixed-width block, which the pool then fills from
    /// seeked copies (see `seeked`). `rng` is left at the word the
    /// sequential draw order ends at.
    pub fn generate_on(&self, rng: &mut ChaCha8Rng, exec: &Executor) -> FederatedDataset {
        let (cfg, dim) = (&self.config, self.config.feature_dim);
        let prototypes = class_prototypes(cfg.num_classes, dim, rng, exec);

        // Each writer's header: its style block, the variable-length class
        // draws, then its block of rows.
        let mut writers: Vec<(u128, u128, WriterHeader)> = (0..cfg.num_clients)
            .map(|_| {
                let style = skip(rng, normal_words(dim));
                let header = WriterHeader::with_style(cfg, vec![0.0; dim], rng);
                let rows = skip(rng, cfg.samples_per_client as u128 * row_words(dim));
                (style, rows, header)
            })
            .collect();
        let mut styles: Vec<_> = writers
            .iter_mut()
            .map(|(start, _, header)| (*start, header.style.as_mut_slice()))
            .collect();
        fill_seeked(exec, rng, normal_words(dim), &mut styles, |rng, style| {
            fill_normals(cfg.writer_shift_std, rng, style)
        });

        let mut clients: Vec<ClientShard> = (0..cfg.num_clients)
            .map(|_| ClientShard {
                features: Matrix::zeros(cfg.samples_per_client, dim),
                labels: vec![0; cfg.samples_per_client],
            })
            .collect();
        let mut rows: Vec<_> = writers
            .iter()
            .zip(&mut clients)
            .flat_map(|((_, start, header), shard)| {
                let rows = shard.features.as_mut_slice().chunks_mut(dim);
                (0..)
                    .zip(rows.zip(&mut shard.labels))
                    .map(move |(r, row)| (start + r * row_words(dim), (header, row)))
            })
            .collect();
        fill_seeked(
            exec,
            rng,
            row_words(dim),
            &mut rows,
            |rng, (header, (out, label))| **label = header.write_row(cfg, &prototypes, rng, out),
        );

        let test = unseen_writer_test(cfg, &prototypes, rng, exec);
        FederatedDataset::new(clients, test, cfg.num_classes)
    }
}

/// How much the unit-normal class prototypes are stretched: separable
/// classes, but not trivially so once writer shift and noise are added.
const PROTOTYPE_SCALE: f32 = 1.2;

/// Draws well-separated class prototype vectors, one seeked block per
/// class.
pub(crate) fn class_prototypes(
    num_classes: usize,
    feature_dim: usize,
    rng: &mut ChaCha8Rng,
    exec: &Executor,
) -> Matrix {
    let width = normal_words(feature_dim);
    let start = skip(rng, num_classes as u128 * width);
    let mut m = Matrix::zeros(num_classes, feature_dim);
    let mut rows: Vec<_> = (0..)
        .zip(m.as_mut_slice().chunks_mut(feature_dim))
        .map(|(c, row)| (start + c * width, row))
        .collect();
    fill_seeked(exec, rng, width, &mut rows, |rng, row| {
        for v in row.iter_mut() {
            *v = init::normal(0.0, 1.0, rng) * PROTOTYPE_SCALE;
        }
    });
    m
}

/// Overwrites `out` with i.i.d. `N(0, std²)` draws, in order.
fn fill_normals(std: f32, rng: &mut ChaCha8Rng, out: &mut [f32]) {
    for v in out.iter_mut() {
        *v = init::normal(0.0, std, rng);
    }
}

/// The held-out test set: unseen writers, uniform over classes — the one
/// recipe of the eager generator and the lazy source. Each row's class is
/// drawn on `rng`, then its fresh writer style and its features are one
/// `4 · feature_dim`-word block, drawn on `exec`'s pool from a seeked copy
/// ([`shifted_row_into`]).
pub(crate) fn unseen_writer_test(
    cfg: &SyntheticFemnistConfig,
    prototypes: &Matrix,
    rng: &mut ChaCha8Rng,
    exec: &Executor,
) -> ClientShard {
    let (n, dim) = (cfg.test_samples, cfg.feature_dim);
    let width = 2 * normal_words(dim);
    let mut test = ClientShard::empty(dim);
    test.features.resize_for_overwrite(n, dim);
    let starts: Vec<u128> = (0..n)
        .map(|_| {
            test.labels.push(rng.gen_range(0..cfg.num_classes));
            skip(rng, width)
        })
        .collect();
    let rows = test
        .labels
        .iter()
        .zip(test.features.as_mut_slice().chunks_mut(dim));
    let mut rows: Vec<_> = starts.into_iter().zip(rows).collect();
    fill_seeked(exec, rng, width, &mut rows, |rng, (class, out)| {
        shifted_row_into(
            prototypes.row(**class),
            cfg.writer_shift_std,
            cfg.noise_std,
            rng,
            out,
        )
    });
    test
}

/// One sample with a shift of its own — a FEMNIST test row's unseen-writer
/// style, a CIFAR row's scene: `out.len()` shift draws, then
/// `prototype + shift + noise` per feature, `4 · out.len()` keystream words.
/// The shift is drawn into `out` and read back in place.
pub(crate) fn shifted_row_into(
    prototype: &[f32],
    shift_std: f32,
    noise_std: f32,
    rng: &mut ChaCha8Rng,
    out: &mut [f32],
) {
    fill_normals(shift_std, rng, out);
    for (o, &p) in out.iter_mut().zip(prototype) {
        *o = p + *o + init::normal(0.0, noise_std, rng);
    }
}

/// One writer's draws that precede its samples: the style shift, the class
/// subset it writes, and its preference weights over that subset.
pub(crate) struct WriterHeader {
    style: Vec<f32>,
    classes: Vec<usize>,
    prefs: Vec<f64>,
}

impl WriterHeader {
    /// Draws the header: style vector, class-subset shuffle, preference
    /// weights — the head of every lazy writer's stream. The eager
    /// generator draws the same words, its style from a seeked block.
    pub(crate) fn draw<R: Rng + ?Sized>(cfg: &SyntheticFemnistConfig, rng: &mut R) -> Self {
        let style = init::normal_vec(cfg.feature_dim, 0.0, cfg.writer_shift_std, rng);
        Self::with_style(cfg, style, rng)
    }

    /// The header's variable-length draws after its style: the class
    /// subset and the preference weights.
    fn with_style<R: Rng + ?Sized>(
        cfg: &SyntheticFemnistConfig,
        style: Vec<f32>,
        rng: &mut R,
    ) -> Self {
        // Pick the writer's class subset.
        let mut classes: Vec<usize> = (0..cfg.num_classes).collect();
        classes.shuffle(rng);
        classes.truncate(cfg.classes_per_client);
        // Give the writer a skewed preference over its classes so label
        // frequencies are non-uniform even within a writer.
        let prefs = (0..classes.len())
            .map(|_| rng.gen_range(0.2f64..1.0))
            .collect();
        Self {
            style,
            classes,
            prefs,
        }
    }

    /// The row body: draws one sample's class slot and features into
    /// `features` and returns its label. Every row of every writer — the
    /// eager generator's, and both lazy entry points' — comes from here.
    pub(crate) fn write_row<R: Rng + ?Sized>(
        &self,
        cfg: &SyntheticFemnistConfig,
        prototypes: &Matrix,
        rng: &mut R,
        features: &mut [f32],
    ) -> usize {
        let slot = init::sample_weighted(&self.prefs, rng).unwrap_or(0);
        let class = self.classes[slot];
        let prototype = prototypes.row(class);
        for ((o, &p), &s) in features.iter_mut().zip(prototype).zip(&self.style) {
            *o = p + s + init::normal(0.0, cfg.noise_std, rng);
        }
        class
    }
}

/// Keystream words one [`WriterHeader::write_row`] consumes from a
/// `ChaCha8Rng`: always `2 + 2 · feature_dim`, whatever the draws turn out
/// to be, so row `r` of a writer starts `r` strides after its header and a
/// lazy source can seek straight to it.
///
/// * `sample_weighted` draws exactly one `next_u64` (two words): the
///   preference weights lie in `[0.2, 1)`, so they are never empty and
///   never sum to zero, and it returns on its single draw.
/// * Each feature is one Gaussian, two words ([`normal_words`]).
pub(crate) fn row_words(feature_dim: usize) -> u128 {
    2 + normal_words(feature_dim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn default_config_matches_paper_scale() {
        let cfg = SyntheticFemnistConfig::default();
        assert_eq!(cfg.num_clients, 156);
        assert_eq!(cfg.num_classes, 62);
    }

    #[test]
    fn generated_shapes_match_config() {
        let cfg = SyntheticFemnistConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let fed = SyntheticFemnist::new(cfg).generate(&mut rng);
        assert_eq!(fed.num_clients(), cfg.num_clients);
        assert_eq!(fed.num_classes(), cfg.num_classes);
        assert_eq!(fed.feature_dim(), cfg.feature_dim);
        assert!(fed
            .clients()
            .iter()
            .all(|c| c.len() == cfg.samples_per_client));
        assert_eq!(fed.test().len(), cfg.test_samples);
    }

    #[test]
    fn clients_are_label_skewed() {
        let cfg = SyntheticFemnistConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let fed = SyntheticFemnist::new(cfg).generate(&mut rng);
        for client in fed.clients() {
            let distinct = client.distinct_labels();
            assert!(distinct.len() <= cfg.classes_per_client);
            assert!(!distinct.is_empty());
        }
        // Different clients should not all share the same class set.
        let first = fed.client(0).distinct_labels();
        assert!(fed.clients().iter().any(|c| c.distinct_labels() != first));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = SyntheticFemnistConfig::tiny();
        let a = SyntheticFemnist::new(cfg).generate(&mut ChaCha8Rng::seed_from_u64(7));
        let b = SyntheticFemnist::new(cfg).generate(&mut ChaCha8Rng::seed_from_u64(7));
        let c = SyntheticFemnist::new(cfg).generate(&mut ChaCha8Rng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn dataset_is_learnable_by_linear_model() {
        use crate::model::{Mlp, Model};
        use crate::optim::sgd_step;
        let cfg = SyntheticFemnistConfig {
            num_clients: 4,
            samples_per_client: 64,
            feature_dim: 16,
            num_classes: 5,
            classes_per_client: 3,
            writer_shift_std: 0.2,
            noise_std: 0.2,
            test_samples: 50,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let fed = SyntheticFemnist::new(cfg).generate(&mut rng);
        let model = Mlp::new(cfg.feature_dim, &[], cfg.num_classes);
        let mut params = model.init_params(&mut rng);
        // Pool all client data and train centrally for a few epochs.
        let initial: f32 = crate::metrics::global_loss(&model, &params, fed.clients());
        for _ in 0..60 {
            for shard in fed.clients() {
                let (_, grad) = model.loss_and_grad(&params, &shard.features, &shard.labels);
                sgd_step(&mut params, &grad, 0.3);
            }
        }
        let trained = crate::metrics::global_loss(&model, &params, fed.clients());
        assert!(trained < initial * 0.6, "loss {initial} -> {trained}");
        let test_acc = model.accuracy(&params, &fed.test().features, &fed.test().labels);
        assert!(test_acc > 0.5, "test accuracy {test_acc}");
    }

    #[test]
    #[should_panic]
    fn invalid_config_panics() {
        let cfg = SyntheticFemnistConfig {
            classes_per_client: 100,
            ..SyntheticFemnistConfig::tiny()
        };
        let _ = SyntheticFemnist::new(cfg);
    }
}
