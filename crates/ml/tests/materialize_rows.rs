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

use agsfl_ml::data::{
    ClientShard, FederatedDataset, LazySyntheticFemnist, ShardSource, SyntheticFemnist,
    SyntheticFemnistConfig,
};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
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
