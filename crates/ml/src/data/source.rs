//! Lazily materialized federated data: the [`ShardSource`] abstraction.
//!
//! A [`FederatedDataset`] holds every client shard in memory, which caps
//! simulated populations in the low thousands. A [`ShardSource`] inverts
//! the contract: it *describes* the population (client count, per-client
//! shard sizes, label space) up front and materializes data on demand into
//! a caller-owned buffer — any chosen rows of one client's shard
//! ([`ShardSource::materialize_rows_into`], what a training round reads:
//! one mini-batch, or one probe sample) or the whole shard
//! ([`ShardSource::materialize_into`], what an evaluation sweep reads). A
//! million-client simulation then keeps O(cohort · batch) rows resident
//! instead of O(N) shards.
//!
//! Determinism contract: both calls must be pure functions of the source
//! and their arguments — same source, same client, same rows, same bytes,
//! and row `r` reads the same whichever call and whichever other rows
//! fetch it — so a cohort-sampled simulation stays bit-identical
//! regardless of which rounds touch which clients, of the order slots
//! hydrate, and of which pool worker fetches which member's rows (the
//! fetch runs inside the parallel client pass). [`FederatedDataset`]
//! implements the trait by copying rows of its eager shards;
//! [`LazySyntheticFemnist`] regenerates a writer's rows from a per-writer
//! RNG stream derived from the source seed, seeking straight to each
//! requested row.

use agsfl_exec::Executor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::data::synthetic_femnist::{
    class_prototypes, row_words, unseen_writer_test, WriterHeader,
};
use crate::data::{ClientShard, FederatedDataset, SyntheticFemnistConfig};
use agsfl_tensor::Matrix;

/// A federated client population whose shards can be materialized one at a
/// time (see the module docs for the determinism contract).
pub trait ShardSource: Send + Sync + std::fmt::Debug {
    /// Number of clients `N`.
    fn num_clients(&self) -> usize;

    /// Number of label classes.
    fn num_classes(&self) -> usize;

    /// Dimension of each feature vector.
    fn feature_dim(&self) -> usize;

    /// Number of local samples `C_i` of client `client`, without
    /// materializing the shard.
    fn shard_len(&self, client: usize) -> usize;

    /// Total number of training samples `C = Σ_i C_i`.
    ///
    /// The default sums [`ShardSource::shard_len`] over every client; O(1)
    /// sources should override it.
    fn total_samples(&self) -> usize {
        (0..self.num_clients()).map(|i| self.shard_len(i)).sum()
    }

    /// The held-out test shard (always resident — it is O(test), not O(N)).
    fn test(&self) -> &ClientShard;

    /// Writes client `client`'s whole shard into `out`, reusing its
    /// buffers. The evaluation sweep over a lazy source is its caller; a
    /// training round never needs a whole shard.
    ///
    /// Must be a pure function of `(self, client)` (see
    /// [`ShardSource::materialize_rows_into`]), and row `r` of `out` must
    /// equal what `materialize_rows_into(client, &[r], …)` writes.
    ///
    /// # Panics
    ///
    /// Panics if `client >= num_clients()`.
    fn materialize_into(&self, client: usize, out: &mut ClientShard);

    /// Writes rows `rows` of client `client`'s shard into `out`, reusing its
    /// buffers: row `i` of `out` is shard row `rows[i]`. `rows` may be in
    /// any order and may repeat.
    ///
    /// Must be a pure function of `(self, client, rows)`, through `&self`
    /// with no interior state that an interleaving could observe: the round
    /// engine calls this concurrently from its pool workers — one call per
    /// cohort member for its mini-batch, or for an offline member's stale
    /// probe sample — for distinct clients and in no fixed order. Purity
    /// and the trait's `Sync` bound are what keep a run bit-identical
    /// across worker counts — load-bearing, not advisory.
    ///
    /// # Panics
    ///
    /// Panics if `client >= num_clients()` or any row is
    /// `>= shard_len(client)`.
    fn materialize_rows_into(&self, client: usize, rows: &[usize], out: &mut ClientShard);

    /// Borrows the fully materialized dataset when the source is eager.
    ///
    /// The FL round engine's evaluation sweep puts an eager dataset's
    /// shards on one parallel work list
    /// ([`global_evaluation`](crate::metrics::global_evaluation) takes
    /// `&[ClientShard]`); lazy sources return `None` and the sweep streams
    /// shard by shard instead.
    fn as_dataset(&self) -> Option<&FederatedDataset> {
        None
    }
}

impl ShardSource for FederatedDataset {
    fn num_clients(&self) -> usize {
        FederatedDataset::num_clients(self)
    }

    fn num_classes(&self) -> usize {
        FederatedDataset::num_classes(self)
    }

    fn feature_dim(&self) -> usize {
        FederatedDataset::feature_dim(self)
    }

    fn shard_len(&self, client: usize) -> usize {
        self.client(client).len()
    }

    fn total_samples(&self) -> usize {
        FederatedDataset::total_samples(self)
    }

    fn test(&self) -> &ClientShard {
        FederatedDataset::test(self)
    }

    fn materialize_into(&self, client: usize, out: &mut ClientShard) {
        let src = self.client(client);
        out.features
            .resize_for_overwrite(src.features.rows(), src.features.cols());
        out.features
            .as_mut_slice()
            .copy_from_slice(src.features.as_slice());
        out.labels.clear();
        out.labels.extend_from_slice(&src.labels);
    }

    fn materialize_rows_into(&self, client: usize, rows: &[usize], out: &mut ClientShard) {
        self.client(client).subset_into(rows, out);
    }

    fn as_dataset(&self) -> Option<&FederatedDataset> {
        Some(self)
    }
}

/// Mixes the source seed and a writer id into the writer's private data
/// seed (a splitmix-style affine step; any fixed injective-ish mix works —
/// what matters is that it is a pure function of `(seed, client)`).
fn writer_seed(seed: u64, client: usize) -> u64 {
    (seed ^ 0xA5A5_5EED_0F00_0001).wrapping_add((client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// [`SyntheticFemnist`](crate::data::SyntheticFemnist) as a lazy
/// [`ShardSource`]: prototypes and the test set are generated at
/// construction, but a writer's rows only exist while a round holds them.
///
/// Each writer's rows are regenerated on demand from its own `ChaCha8Rng`
/// stream seeded by `(seed, writer)`: the writer's header, then one row
/// after another, each a fixed number of keystream words long
/// (`synthetic_femnist::row_words`). So row `r` starts at a known word
/// position, [`ShardSource::materialize_rows_into`] seeks to each requested
/// row and draws only those, both calls are pure, and the resident
/// footprint is O(prototypes + test), independent of `num_clients`. Note
/// the stream layout differs from the eager generator (which interleaves
/// every writer on one master RNG), so a lazy source and an eager dataset
/// built from the same seed hold *different* (equally distributed) data.
#[derive(Debug, Clone)]
pub struct LazySyntheticFemnist {
    config: SyntheticFemnistConfig,
    seed: u64,
    prototypes: Matrix,
    test: ClientShard,
}

impl LazySyntheticFemnist {
    /// Creates the source: draws class prototypes and the held-out test set
    /// from a master RNG seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SyntheticFemnistConfig`]).
    pub fn new(config: SyntheticFemnistConfig, seed: u64) -> Self {
        config.validate();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let serial = Executor::serial();
        let prototypes =
            class_prototypes(config.num_classes, config.feature_dim, &mut rng, &serial);
        let test = unseen_writer_test(&config, &prototypes, &mut rng, &serial);
        Self {
            config,
            seed,
            prototypes,
            test,
        }
    }

    /// The source's configuration.
    pub fn config(&self) -> &SyntheticFemnistConfig {
        &self.config
    }

    /// The source seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl ShardSource for LazySyntheticFemnist {
    fn num_clients(&self) -> usize {
        self.config.num_clients
    }

    fn num_classes(&self) -> usize {
        self.config.num_classes
    }

    fn feature_dim(&self) -> usize {
        self.config.feature_dim
    }

    fn shard_len(&self, client: usize) -> usize {
        assert!(
            client < self.config.num_clients,
            "client {client} out of range"
        );
        self.config.samples_per_client
    }

    fn total_samples(&self) -> usize {
        self.config.num_clients * self.config.samples_per_client
    }

    fn test(&self) -> &ClientShard {
        &self.test
    }

    fn materialize_into(&self, client: usize, out: &mut ClientShard) {
        let (header, mut rng, start) = self.writer(client);
        let (cfg, stride) = (&self.config, row_words(self.config.feature_dim));
        out.features
            .resize_for_overwrite(cfg.samples_per_client, cfg.feature_dim);
        out.labels.clear();
        for row in 0..cfg.samples_per_client {
            let label =
                header.write_row(cfg, &self.prototypes, &mut rng, out.features.row_mut(row));
            out.labels.push(label);
            debug_assert_eq!(
                rng.get_word_pos(),
                start + (row as u128 + 1) * stride,
                "a row drew other than `row_words` keystream words"
            );
        }
    }

    fn materialize_rows_into(&self, client: usize, rows: &[usize], out: &mut ClientShard) {
        let (header, mut rng, start) = self.writer(client);
        let (cfg, stride) = (&self.config, row_words(self.config.feature_dim));
        out.features
            .resize_for_overwrite(rows.len(), cfg.feature_dim);
        out.labels.clear();
        for (i, &r) in rows.iter().enumerate() {
            assert!(
                r < cfg.samples_per_client,
                "row {r} out of range for client {client}"
            );
            rng.set_word_pos(start + r as u128 * stride);
            let label = header.write_row(cfg, &self.prototypes, &mut rng, out.features.row_mut(i));
            out.labels.push(label);
        }
    }
}

impl LazySyntheticFemnist {
    /// Writer `client`'s stream positioned after its header, with the header
    /// and the word position of row 0.
    fn writer(&self, client: usize) -> (WriterHeader, ChaCha8Rng, u128) {
        assert!(
            client < self.config.num_clients,
            "client {client} out of range"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(writer_seed(self.seed, client));
        let header = WriterHeader::draw(&self.config, &mut rng);
        let start = rng.get_word_pos();
        (header, rng, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{SyntheticFemnist, SyntheticFemnistConfig};

    #[test]
    fn eager_dataset_source_copies_shards_bit_exactly() {
        let cfg = SyntheticFemnistConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let fed = SyntheticFemnist::new(cfg).generate(&mut rng);
        let mut out = ClientShard::empty(cfg.feature_dim);
        for i in 0..ShardSource::num_clients(&fed) {
            fed.materialize_into(i, &mut out);
            assert_eq!(out.features.as_slice(), fed.client(i).features.as_slice());
            assert_eq!(out.labels, fed.client(i).labels);
        }
        assert_eq!(ShardSource::total_samples(&fed), fed.total_samples());
        assert!(fed.as_dataset().is_some());
    }

    #[test]
    fn lazy_source_is_pure_per_client() {
        let cfg = SyntheticFemnistConfig::tiny();
        let src = LazySyntheticFemnist::new(cfg, 9);
        let mut a = ClientShard::empty(cfg.feature_dim);
        let mut b = ClientShard::empty(cfg.feature_dim);
        // Materialize in different orders and into dirty buffers: bytes must
        // depend only on (source, client).
        src.materialize_into(3, &mut a);
        src.materialize_into(0, &mut b);
        src.materialize_into(3, &mut b);
        assert_eq!(a.features.as_slice(), b.features.as_slice());
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.len(), cfg.samples_per_client);
        assert_eq!(src.shard_len(3), cfg.samples_per_client);
        assert_eq!(
            src.total_samples(),
            cfg.num_clients * cfg.samples_per_client
        );
        assert_eq!(src.test().len(), cfg.test_samples);
        assert!(src.as_dataset().is_none());
    }

    #[test]
    fn lazy_source_distinguishes_clients_and_seeds() {
        let cfg = SyntheticFemnistConfig::tiny();
        let src_a = LazySyntheticFemnist::new(cfg, 1);
        let src_b = LazySyntheticFemnist::new(cfg, 2);
        let mut x = ClientShard::empty(cfg.feature_dim);
        let mut y = ClientShard::empty(cfg.feature_dim);
        src_a.materialize_into(0, &mut x);
        src_a.materialize_into(1, &mut y);
        assert_ne!(x.features.as_slice(), y.features.as_slice());
        src_b.materialize_into(0, &mut y);
        assert_ne!(x.features.as_slice(), y.features.as_slice());
    }
}
