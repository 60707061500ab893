//! Partitioners splitting a pooled dataset into per-client shards.
//!
//! The paper's CIFAR-10 setup assigns **one class per client** ("each client
//! only has one class of images that is randomly partitioned among all the
//! clients with this image class"); [`partition_one_class_per_client`]
//! reproduces that.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::data::ClientShard;

/// Assigns every client exactly one class: client `i` receives a random
/// subset of the samples of class `i % num_classes`, and the samples of each
/// class are split evenly among the clients assigned to that class.
///
/// This is the paper's "strong non-i.i.d." CIFAR-10 partition.
///
/// # Panics
///
/// Panics if `num_clients == 0` or `num_classes == 0`.
pub fn partition_one_class_per_client<R: Rng + ?Sized>(
    pool: &ClientShard,
    num_clients: usize,
    num_classes: usize,
    rng: &mut R,
) -> Vec<ClientShard> {
    one_class_per_client_rows(&pool.labels, num_clients, num_classes, rng)
        .iter()
        .map(|rows| pool.subset(rows))
        .collect()
}

/// The rows [`partition_one_class_per_client`] hands each client, from
/// the pool's labels alone: client `i`'s list holds indices of samples
/// labelled `i % num_classes`, in the order the client's shard holds them.
///
/// # Panics
///
/// Panics if `num_clients == 0`, `num_classes == 0` or a label is
/// `>= num_classes`.
pub(crate) fn one_class_per_client_rows<R: Rng + ?Sized>(
    labels: &[usize],
    num_clients: usize,
    num_classes: usize,
    rng: &mut R,
) -> Vec<Vec<usize>> {
    assert!(num_clients > 0, "num_clients must be positive");
    assert!(num_classes > 0, "num_classes must be positive");
    // Group sample indices by class and shuffle within each class.
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (i, &label) in labels.iter().enumerate() {
        assert!(label < num_classes, "label {label} out of range");
        by_class[label].push(i);
    }
    for class_indices in &mut by_class {
        class_indices.shuffle(rng);
    }
    // Count how many clients serve each class so we can split evenly.
    let mut clients_per_class = vec![0usize; num_classes];
    for client in 0..num_clients {
        clients_per_class[client % num_classes] += 1;
    }
    let mut next_slot = vec![0usize; num_classes];
    (0..num_clients)
        .map(|client| {
            let class = client % num_classes;
            let total = by_class[class].len();
            let parts = clients_per_class[class];
            let slot = next_slot[class];
            next_slot[class] += 1;
            let start = total * slot / parts;
            let end = total * (slot + 1) / parts;
            by_class[class][start..end].to_vec()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use agsfl_tensor::Matrix;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn pool(samples_per_class: usize, num_classes: usize, dim: usize) -> ClientShard {
        let n = samples_per_class * num_classes;
        let labels: Vec<usize> = (0..n).map(|i| i % num_classes).collect();
        ClientShard::new(Matrix::from_fn(n, dim, |i, j| (i * dim + j) as f32), labels)
    }

    #[test]
    fn one_class_per_client_is_pure() {
        let p = pool(20, 5, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let shards = partition_one_class_per_client(&p, 10, 5, &mut rng);
        assert_eq!(shards.len(), 10);
        for (c, shard) in shards.iter().enumerate() {
            let distinct = shard.distinct_labels();
            assert_eq!(distinct.len(), 1, "client {c} has classes {distinct:?}");
            assert_eq!(distinct[0], c % 5);
        }
        let total: usize = shards.iter().map(ClientShard::len).sum();
        assert_eq!(total, p.len());
    }

    #[test]
    fn one_class_per_client_fewer_clients_than_classes() {
        let p = pool(6, 4, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let shards = partition_one_class_per_client(&p, 2, 4, &mut rng);
        assert_eq!(shards.len(), 2);
        // Only classes 0 and 1 are used; samples of other classes are unused.
        assert_eq!(shards[0].distinct_labels(), vec![0]);
        assert_eq!(shards[1].distinct_labels(), vec![1]);
    }
}
