//! Synthetic stand-in for the one-class-per-client CIFAR-10 setup.
//!
//! The paper's CIFAR-10 experiment uses a deliberately pathological
//! partition: 100 clients, each holding images of exactly **one** class
//! (class `i % 10` for client `i`), with the images of each class split
//! randomly among the clients assigned to it. This module generates a
//! synthetic 10-class dataset and applies exactly that partition via
//! [`partition_one_class_per_client`].

use agsfl_tensor::{init, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::data::synthetic_femnist::{class_prototypes, sample_features};
use crate::data::{partition_one_class_per_client, ClientShard, FederatedDataset};

/// Configuration of the synthetic CIFAR-10-like generator.
///
/// Defaults follow the paper (100 clients, 10 classes) with a reduced number
/// of samples and feature dimension so the full sweep of Fig. 8 stays fast.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticCifarConfig {
    /// Number of clients. Paper: 100.
    pub num_clients: usize,
    /// Number of classes. CIFAR-10 has 10.
    pub num_classes: usize,
    /// Total number of training samples (split across clients by class).
    pub train_samples: usize,
    /// Number of held-out test samples.
    pub test_samples: usize,
    /// Dimension of each feature vector.
    pub feature_dim: usize,
    /// Standard deviation of per-sample noise. Larger values make the task
    /// harder, mimicking the higher intrinsic difficulty of CIFAR-10 relative
    /// to FEMNIST.
    pub noise_std: f32,
}

impl Default for SyntheticCifarConfig {
    fn default() -> Self {
        Self {
            num_clients: 100,
            num_classes: 10,
            train_samples: 10_000,
            test_samples: 1_000,
            feature_dim: 96,
            noise_std: 0.8,
        }
    }
}

impl SyntheticCifarConfig {
    /// A small configuration for tests (10 clients, 400 samples).
    pub fn tiny() -> Self {
        Self {
            num_clients: 10,
            num_classes: 10,
            train_samples: 400,
            test_samples: 100,
            feature_dim: 24,
            noise_std: 0.6,
        }
    }

    fn validate(&self) {
        assert!(self.num_clients > 0, "num_clients must be positive");
        assert!(self.num_classes > 1, "num_classes must be at least 2");
        assert!(
            self.train_samples >= self.num_clients,
            "need at least one sample per client"
        );
        assert!(self.feature_dim > 0, "feature_dim must be positive");
        assert!(self.noise_std >= 0.0, "noise_std must be non-negative");
    }
}

/// Generator for the synthetic CIFAR-10-like federated dataset with the
/// paper's one-class-per-client partition.
///
/// # Examples
///
/// ```
/// use agsfl_ml::data::{SyntheticCifar, SyntheticCifarConfig};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// let fed = SyntheticCifar::new(SyntheticCifarConfig::tiny()).generate(&mut rng);
/// assert_eq!(fed.num_clients(), 10);
/// // Every client holds exactly one class.
/// assert!(fed.clients().iter().all(|c| c.distinct_labels().len() == 1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticCifar {
    config: SyntheticCifarConfig,
}

impl SyntheticCifar {
    /// Creates a generator with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: SyntheticCifarConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &SyntheticCifarConfig {
        &self.config
    }

    /// Generates the federated dataset with the one-class-per-client
    /// partition.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> FederatedDataset {
        let cfg = &self.config;
        let prototypes = class_prototypes(cfg.num_classes, cfg.feature_dim, rng);

        // Pooled training data with (roughly) balanced classes.
        let pool = generate_pool(cfg.train_samples, &prototypes, cfg.noise_std, rng);
        let clients = partition_one_class_per_client(&pool, cfg.num_clients, cfg.num_classes, rng);

        let test = generate_pool(cfg.test_samples, &prototypes, cfg.noise_std, rng);
        FederatedDataset::new(clients, test, cfg.num_classes)
    }
}

fn generate_pool<R: Rng + ?Sized>(
    samples: usize,
    prototypes: &Matrix,
    noise_std: f32,
    rng: &mut R,
) -> ClientShard {
    let num_classes = prototypes.rows();
    let dim = prototypes.cols();
    let mut flat = Vec::with_capacity(samples * dim);
    let mut labels = Vec::with_capacity(samples);
    for s in 0..samples {
        // Round-robin class assignment keeps classes balanced; the partition
        // step shuffles within each class.
        let class = s % num_classes;
        // Per-sample "scene" shift models the higher intra-class variance of
        // natural images compared to handwritten characters.
        let scene = init::normal_vec(dim, 0.0, noise_std * 0.5, rng);
        flat.extend(sample_features(
            prototypes.row(class),
            Some(&scene),
            noise_std,
            rng,
        ));
        labels.push(class);
    }
    ClientShard::new(Matrix::from_vec(samples, dim, flat), labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn default_config_matches_paper_scale() {
        let cfg = SyntheticCifarConfig::default();
        assert_eq!(cfg.num_clients, 100);
        assert_eq!(cfg.num_classes, 10);
    }

    #[test]
    fn every_client_has_exactly_one_class() {
        let cfg = SyntheticCifarConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let fed = SyntheticCifar::new(cfg).generate(&mut rng);
        assert_eq!(fed.num_clients(), cfg.num_clients);
        for (i, client) in fed.clients().iter().enumerate() {
            let distinct = client.distinct_labels();
            assert_eq!(distinct.len(), 1, "client {i} holds classes {distinct:?}");
            assert_eq!(distinct[0], i % cfg.num_classes);
        }
    }

    #[test]
    fn all_training_samples_are_assigned() {
        let cfg = SyntheticCifarConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let fed = SyntheticCifar::new(cfg).generate(&mut rng);
        assert_eq!(fed.total_samples(), cfg.train_samples);
        assert_eq!(fed.test().len(), cfg.test_samples);
    }

    #[test]
    fn more_clients_than_classes_is_supported() {
        let cfg = SyntheticCifarConfig {
            num_clients: 25,
            ..SyntheticCifarConfig::tiny()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let fed = SyntheticCifar::new(cfg).generate(&mut rng);
        assert_eq!(fed.num_clients(), 25);
        assert!(fed.clients().iter().all(|c| !c.is_empty()));
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SyntheticCifarConfig::tiny();
        let a = SyntheticCifar::new(cfg).generate(&mut ChaCha8Rng::seed_from_u64(4));
        let b = SyntheticCifar::new(cfg).generate(&mut ChaCha8Rng::seed_from_u64(4));
        assert_eq!(a, b);
    }

    #[test]
    fn dataset_is_learnable_centrally() {
        use crate::model::{Mlp, Model};
        use crate::optim::sgd_step;
        let cfg = SyntheticCifarConfig {
            num_clients: 10,
            num_classes: 5,
            train_samples: 300,
            test_samples: 80,
            feature_dim: 20,
            noise_std: 0.4,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let fed = SyntheticCifar::new(cfg).generate(&mut rng);
        let model = Mlp::new(cfg.feature_dim, &[], cfg.num_classes);
        let mut params = model.init_params(&mut rng);
        for _ in 0..40 {
            for shard in fed.clients() {
                let (_, grad) = model.loss_and_grad(&params, &shard.features, &shard.labels);
                sgd_step(&mut params, &grad, 0.2);
            }
        }
        let acc = model.accuracy(&params, &fed.test().features, &fed.test().labels);
        assert!(acc > 0.5, "test accuracy {acc}");
    }

    #[test]
    #[should_panic]
    fn invalid_config_panics() {
        let cfg = SyntheticCifarConfig {
            train_samples: 1,
            num_clients: 10,
            ..SyntheticCifarConfig::tiny()
        };
        let _ = SyntheticCifar::new(cfg);
    }
}
