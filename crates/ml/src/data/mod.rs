//! Synthetic federated datasets and partitioning utilities.
//!
//! The paper evaluates on FEMNIST (156 writer-partitioned clients, 62
//! classes) and CIFAR-10 (100 clients, one class each). Real image corpora
//! are not available offline, so this module generates *synthetic* datasets
//! that preserve the properties the algorithms react to:
//!
//! * non-i.i.d. shards (label skew and per-client feature shift),
//! * a classification loss that decreases under SGD,
//! * per-client sample counts `C_i` used for weighted aggregation.
//!
//! Algorithms 1–3 see the data only through these properties: the
//! gradients they sparsify and the losses they observe. So a seeded
//! generator that reproduces them stands in for the real corpora, and the
//! experiments stay runnable offline and bit-reproducible.

mod partition;
mod sampler;
mod seeked;
mod source;
mod synthetic_cifar;
mod synthetic_femnist;

pub use partition::partition_one_class_per_client;
pub use sampler::MinibatchSampler;
pub use source::{LazySyntheticFemnist, ShardSource};
pub use synthetic_cifar::{SyntheticCifar, SyntheticCifarConfig};
pub use synthetic_femnist::{SyntheticFemnist, SyntheticFemnistConfig};

use agsfl_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// The local dataset of one federated client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientShard {
    /// Feature matrix of shape `(samples, feature_dim)`.
    pub features: Matrix,
    /// Integer class label per sample.
    pub labels: Vec<usize>,
}

impl ClientShard {
    /// Creates a shard from a feature matrix and labels.
    ///
    /// # Panics
    ///
    /// Panics if `features.rows() != labels.len()`.
    pub fn new(features: Matrix, labels: Vec<usize>) -> Self {
        assert_eq!(
            features.rows(),
            labels.len(),
            "shard has {} feature rows but {} labels",
            features.rows(),
            labels.len()
        );
        Self { features, labels }
    }

    /// Creates an empty shard with the given feature dimension.
    pub fn empty(feature_dim: usize) -> Self {
        Self {
            features: Matrix::zeros(0, feature_dim),
            labels: Vec::new(),
        }
    }

    /// Number of samples in the shard.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the shard has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Returns `(features, label)` of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn sample(&self, i: usize) -> (&[f32], usize) {
        (self.features.row(i), self.labels[i])
    }

    /// Builds a sub-shard from the given sample indices (used by
    /// partitioners).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> ClientShard {
        let mut out = ClientShard::empty(self.feature_dim());
        self.subset_into(indices, &mut out);
        out
    }

    /// [`ClientShard::subset`] into `out`, reusing its buffers: row `i` of
    /// `out` is sample `indices[i]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub(crate) fn subset_into(&self, indices: &[usize], out: &mut ClientShard) {
        out.features
            .resize_for_overwrite(indices.len(), self.feature_dim());
        out.labels.clear();
        for (row, &i) in indices.iter().enumerate() {
            out.labels.push(self.labels[i]);
            out.features
                .row_mut(row)
                .copy_from_slice(self.features.row(i));
        }
    }

    /// Set of distinct labels present in the shard, sorted ascending.
    pub fn distinct_labels(&self) -> Vec<usize> {
        let mut labels = self.labels.clone();
        labels.sort_unstable();
        labels.dedup();
        labels
    }
}

/// A complete federated dataset: one shard per client plus a held-out test
/// shard used for global accuracy reporting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederatedDataset {
    clients: Vec<ClientShard>,
    test: ClientShard,
    num_classes: usize,
}

impl FederatedDataset {
    /// Creates a federated dataset from client shards and a test shard.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty, if the shards disagree on feature
    /// dimension, or if any label is `>= num_classes`.
    pub fn new(clients: Vec<ClientShard>, test: ClientShard, num_classes: usize) -> Self {
        assert!(
            !clients.is_empty(),
            "a federated dataset needs at least one client"
        );
        let dim = clients[0].feature_dim();
        for (i, shard) in clients.iter().enumerate() {
            assert_eq!(shard.feature_dim(), dim, "client {i} feature dim mismatch");
            assert!(
                shard.labels.iter().all(|&l| l < num_classes),
                "client {i} has a label >= num_classes"
            );
        }
        assert_eq!(test.feature_dim(), dim, "test shard feature dim mismatch");
        assert!(
            test.labels.iter().all(|&l| l < num_classes),
            "test shard has a label >= num_classes"
        );
        Self {
            clients,
            test,
            num_classes,
        }
    }

    /// Number of clients `N`.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.clients[0].feature_dim()
    }

    /// Borrows client `i`'s shard.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_clients()`.
    pub fn client(&self, i: usize) -> &ClientShard {
        &self.clients[i]
    }

    /// All client shards.
    pub fn clients(&self) -> &[ClientShard] {
        &self.clients
    }

    /// The held-out test shard.
    pub fn test(&self) -> &ClientShard {
        &self.test
    }

    /// Total number of training samples `C`.
    pub fn total_samples(&self) -> usize {
        self.clients.iter().map(ClientShard::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(labels: Vec<usize>, dim: usize) -> ClientShard {
        let n = labels.len();
        ClientShard::new(Matrix::from_fn(n, dim, |i, j| (i + j) as f32), labels)
    }

    #[test]
    fn shard_basic_accessors() {
        let s = shard(vec![0, 1, 1], 3);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.feature_dim(), 3);
        assert_eq!(s.sample(1).1, 1);
        assert_eq!(s.distinct_labels(), vec![0, 1]);
    }

    #[test]
    fn empty_shard() {
        let s = ClientShard::empty(4);
        assert!(s.is_empty());
        assert_eq!(s.feature_dim(), 4);
        assert!(s.distinct_labels().is_empty());
    }

    #[test]
    fn subset_preserves_rows() {
        let s = shard(vec![0, 1, 2, 3], 2);
        let sub = s.subset(&[3, 1]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.labels, vec![3, 1]);
        assert_eq!(sub.features.row(0), s.features.row(3));
        assert_eq!(sub.features.row(1), s.features.row(1));
    }

    #[test]
    #[should_panic]
    fn shard_length_mismatch_panics() {
        let _ = ClientShard::new(Matrix::zeros(2, 2), vec![0]);
    }

    #[test]
    fn federated_dataset_accessors() {
        let clients = vec![shard(vec![0, 1], 2), shard(vec![1], 2)];
        let test = shard(vec![0, 1], 2);
        let fed = FederatedDataset::new(clients, test, 2);
        assert_eq!(fed.num_clients(), 2);
        assert_eq!(fed.num_classes(), 2);
        assert_eq!(fed.feature_dim(), 2);
        assert_eq!(fed.total_samples(), 3);
        assert_eq!(fed.client(1).len(), 1);
        assert_eq!(fed.test().len(), 2);
    }

    #[test]
    #[should_panic]
    fn federated_dataset_rejects_bad_labels() {
        let clients = vec![shard(vec![0, 5], 2)];
        let test = shard(vec![0], 2);
        let _ = FederatedDataset::new(clients, test, 2);
    }

    #[test]
    #[should_panic]
    fn federated_dataset_rejects_dim_mismatch() {
        let clients = vec![shard(vec![0], 2), shard(vec![0], 3)];
        let test = shard(vec![0], 2);
        let _ = FederatedDataset::new(clients, test, 2);
    }
}
