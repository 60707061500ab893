//! `ShardSource::materialize_rows_into` against the whole-shard call.
//!
//! A training round fetches only its mini-batch rows, and an evaluation
//! sweep fetches whole shards; both must read the same bytes. For the lazy
//! source that rests on the stride argument next to
//! `synthetic_femnist::row_words`: every row takes the same number of
//! keystream words, so the rows path can seek straight to row `r`. The
//! grid below covers a one-feature row (a 4-word stride, inside one ChaCha
//! block), 16 features (34 words, over two block boundaries) and 33 (68
//! words, over four), shards of 1, 7 and 64
//! rows, and writers with one class (a one-weight preference draw) or all
//! of them. Row lists come in every order, with repeats.
//!
//! The eager generators seek on the same kind of argument: every Gaussian
//! is two keystream words, so each fixed-width block — a prototype row, a
//! FEMNIST test row after its class draw, a CIFAR pool row — has a width
//! known before it is drawn. The last three tests pin those widths on the
//! sequential generators of `agsfl_ml::reference`, over many seeds and with
//! standard deviations of 0.

use agsfl_ml::data::{
    ClientShard, FederatedDataset, LazySyntheticFemnist, ShardSource, SyntheticCifarConfig,
    SyntheticFemnist, SyntheticFemnistConfig,
};
use agsfl_ml::reference;
use agsfl_tensor::init;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const NUM_CLASSES: usize = 5;

fn config(
    feature_dim: usize,
    samples_per_client: usize,
    classes_per_client: usize,
) -> SyntheticFemnistConfig {
    SyntheticFemnistConfig {
        num_clients: 3,
        samples_per_client,
        feature_dim,
        num_classes: NUM_CLASSES,
        classes_per_client,
        writer_shift_std: 0.4,
        noise_std: 0.3,
        test_samples: 2,
    }
}

/// Every configuration of the grid.
fn grid() -> Vec<SyntheticFemnistConfig> {
    let mut out = Vec::new();
    for feature_dim in [1, 16, 33] {
        for samples in [1, 7, 64] {
            for classes in [1, NUM_CLASSES] {
                out.push(config(feature_dim, samples, classes));
            }
        }
    }
    out
}

/// Row lists over a shard of `len` rows: ascending, descending, every row
/// twice in shuffled order, one row alone, none, and random lists with
/// repeats.
fn row_lists(len: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<usize>> {
    let mut twice: Vec<usize> = (0..len).chain(0..len).collect();
    twice.shuffle(rng);
    let mut lists = vec![
        (0..len).collect(),
        (0..len).rev().collect(),
        twice,
        vec![len - 1],
        Vec::new(),
    ];
    for _ in 0..4 {
        let n = rng.gen_range(1..=2 * len);
        lists.push((0..n).map(|_| rng.gen_range(0..len)).collect());
    }
    lists
}

/// For every client: each row list, fetched into one reused (dirty)
/// buffer, equals the matching rows of the whole shard bit for bit.
fn assert_rows_match_shard(source: &dyn ShardSource, rng: &mut ChaCha8Rng) {
    let mut shard = ClientShard::empty(source.feature_dim());
    let mut rows_out = ClientShard::empty(source.feature_dim());
    for client in 0..source.num_clients() {
        source.materialize_into(client, &mut shard);
        assert_eq!(shard.len(), source.shard_len(client));
        for rows in row_lists(shard.len(), rng) {
            source.materialize_rows_into(client, &rows, &mut rows_out);
            assert_eq!(rows_out.len(), rows.len(), "client {client}, rows {rows:?}");
            assert_eq!(rows_out.feature_dim(), source.feature_dim());
            for (i, &r) in rows.iter().enumerate() {
                let (want, want_label) = shard.sample(r);
                let (got, got_label) = rows_out.sample(i);
                assert_eq!(got_label, want_label, "client {client}, row {r}");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(want), "client {client}, row {r}");
            }
        }
    }
}

#[test]
fn lazy_rows_equal_the_whole_shard_rows() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for (i, cfg) in grid().into_iter().enumerate() {
        let source = LazySyntheticFemnist::new(cfg, 100 + i as u64);
        assert_rows_match_shard(&source, &mut rng);
    }
}

#[test]
fn eager_rows_equal_the_whole_shard_rows() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    for (i, cfg) in grid().into_iter().enumerate() {
        let fed: FederatedDataset =
            SyntheticFemnist::new(cfg).generate(&mut ChaCha8Rng::seed_from_u64(i as u64));
        assert_rows_match_shard(&fed, &mut rng);
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn lazy_row_out_of_range_panics() {
    let source = LazySyntheticFemnist::new(config(4, 7, 2), 3);
    let mut out = ClientShard::empty(4);
    source.materialize_rows_into(1, &[0, 7], &mut out);
}

#[test]
#[should_panic(expected = "out of range")]
fn lazy_client_out_of_range_panics() {
    let source = LazySyntheticFemnist::new(config(4, 7, 2), 3);
    let mut out = ClientShard::empty(4);
    source.materialize_rows_into(3, &[0], &mut out);
}

#[test]
#[should_panic]
fn eager_row_out_of_range_panics() {
    let fed = SyntheticFemnist::new(config(4, 7, 2)).generate(&mut ChaCha8Rng::seed_from_u64(0));
    let mut out = ClientShard::empty(4);
    fed.materialize_rows_into(1, &[0, 7], &mut out);
}

/// A `ChaCha8Rng` that logs the keystream words of every call, in order:
/// 1 for `next_u32`, 2 for `next_u64`.
struct Tap {
    rng: ChaCha8Rng,
    words: Vec<u8>,
}

impl RngCore for Tap {
    fn next_u32(&mut self) -> u32 {
        self.words.push(1);
        self.rng.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.words.push(2);
        self.rng.next_u64()
    }
}

#[test]
fn a_prototype_normal_is_two_words() {
    for seed in 0..64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for std in [0.0, 1.0, 0.3] {
            for _ in 0..200 {
                let before = rng.get_word_pos();
                init::normal(0.0, std, &mut rng);
                assert_eq!(rng.get_word_pos() - before, 2, "seed {seed}, std {std}");
            }
        }
    }
}

/// Every test row of the sequential FEMNIST generator is one class draw
/// (a `u64` per attempt: `gen_range` rejects) followed by `4 · feature_dim`
/// single words: the writer style, then the features.
#[test]
fn a_femnist_test_row_is_four_words_per_feature_after_its_class_draw() {
    for seed in 0..32 {
        for (feature_dim, std) in [(1, 0.0), (16, 0.0), (33, 0.0), (16, 0.4)] {
            let cfg = SyntheticFemnistConfig {
                num_clients: 2,
                samples_per_client: 3,
                feature_dim,
                num_classes: 6,
                classes_per_client: 3,
                writer_shift_std: std,
                noise_std: std,
                test_samples: 5,
            };
            let mut tap = Tap {
                rng: ChaCha8Rng::seed_from_u64(seed),
                words: Vec::new(),
            };
            reference::femnist_generate(&cfg, &mut tap);
            let mut calls = tap.words.iter().rev().peekable();
            for row in (0..cfg.test_samples).rev() {
                let mut singles = 0;
                while calls.next_if_eq(&&1).is_some() {
                    singles += 1;
                }
                assert_eq!(singles, 4 * feature_dim, "seed {seed}, test row {row}");
                let mut attempts = 0;
                while calls.next_if_eq(&&2).is_some() {
                    attempts += 1;
                }
                assert!(attempts >= 1, "seed {seed}, test row {row}: no class draw");
            }
        }
    }
}

/// Each CIFAR pool row — a scene shift, then the features — is
/// `4 · feature_dim` words: a test pool of `t` rows, the last block drawn,
/// moves the stream `4 · feature_dim · t` words further than none does.
#[test]
fn a_cifar_pool_row_is_four_words_per_feature() {
    for seed in 0..32 {
        for (feature_dim, noise_std) in [(1, 0.0), (16, 0.0), (33, 0.0), (16, 0.6)] {
            let end = |test_samples: usize| {
                let cfg = SyntheticCifarConfig {
                    num_clients: 3,
                    num_classes: 4,
                    train_samples: 13,
                    test_samples,
                    feature_dim,
                    noise_std,
                };
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                reference::cifar_generate(&cfg, &mut rng);
                rng.get_word_pos()
            };
            for rows in [1, 7] {
                assert_eq!(
                    end(rows) - end(0),
                    4 * feature_dim as u128 * rows as u128,
                    "seed {seed}, dim {feature_dim}, {rows} rows"
                );
            }
        }
    }
}
