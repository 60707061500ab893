//! Dataset generation does not depend on the schedule.
//!
//! `SyntheticFemnist::generate_on` and `SyntheticCifar::generate_on` make
//! the variable-length draws on the master stream and fill every
//! fixed-width Gaussian block on the pool from a seeked copy. Whatever the
//! worker count, the result must be the sequential generator's in
//! `agsfl_ml::reference`, bit for bit: every client's features and labels,
//! the test shard, and the master stream's word position and next word
//! after the call. The grids cover one client and one sample per client,
//! rows of 1, 16 and 33 features (strides inside one ChaCha block and
//! across its boundaries), writers with one class or all of them, an empty
//! test set, more workers than prototype rows, and CIFAR pools that the
//! class count does not divide.

use agsfl_exec::{Executor, Parallelism};
use agsfl_ml::data::{
    ClientShard, FederatedDataset, SyntheticCifar, SyntheticCifarConfig, SyntheticFemnist,
    SyntheticFemnistConfig,
};
use agsfl_ml::reference;
use rand::RngCore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn executors() -> Vec<(Parallelism, Executor)> {
    [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(3),
        Parallelism::Threads(8),
    ]
    .into_iter()
    .map(|p| (p, p.build()))
    .collect()
}

fn bits(shard: &ClientShard) -> Vec<u32> {
    shard
        .features
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

fn assert_same_shard(got: &ClientShard, want: &ClientShard, what: &str) {
    assert_eq!(got.features.rows(), want.features.rows(), "{what}: rows");
    assert_eq!(got.features.cols(), want.features.cols(), "{what}: cols");
    assert_eq!(got.labels, want.labels, "{what}: labels");
    assert_eq!(bits(got), bits(want), "{what}: feature bits");
}

/// `got` and `want` hold the same bits, and the two streams stand at the
/// same word with the same next word.
fn assert_same_generation(
    got: (&FederatedDataset, &mut ChaCha8Rng),
    want: (&FederatedDataset, &mut ChaCha8Rng),
    what: &str,
) {
    let ((got, got_rng), (want, want_rng)) = (got, want);
    assert_eq!(got.num_clients(), want.num_clients(), "{what}: clients");
    assert_eq!(got.num_classes(), want.num_classes(), "{what}: classes");
    for (i, (g, w)) in got.clients().iter().zip(want.clients()).enumerate() {
        assert_same_shard(g, w, &format!("{what}, client {i}"));
    }
    assert_same_shard(got.test(), want.test(), &format!("{what}, test"));
    assert_eq!(
        got_rng.get_word_pos(),
        want_rng.get_word_pos(),
        "{what}: word position after the call"
    );
    assert_eq!(got_rng.next_u32(), want_rng.next_u32(), "{what}: next word");
}

fn femnist_grid() -> Vec<SyntheticFemnistConfig> {
    let mut out = Vec::new();
    for num_clients in [1, 3] {
        for samples_per_client in [1, 5] {
            for feature_dim in [1, 16, 33] {
                for num_classes in [2, 5] {
                    for classes_per_client in [1, num_classes] {
                        for test_samples in [0, 3] {
                            out.push(SyntheticFemnistConfig {
                                num_clients,
                                samples_per_client,
                                feature_dim,
                                num_classes,
                                classes_per_client,
                                writer_shift_std: 0.4,
                                noise_std: 0.3,
                                test_samples,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

fn cifar_grid() -> Vec<SyntheticCifarConfig> {
    let mut out = Vec::new();
    for num_clients in [1, 3, 12] {
        for num_classes in [2, 5] {
            // 13 and 37 are divided by neither class count, 12 only by 2.
            for train_samples in [12, 13, 37] {
                for test_samples in [0, 7] {
                    for feature_dim in [1, 16, 33] {
                        out.push(SyntheticCifarConfig {
                            num_clients,
                            num_classes,
                            train_samples,
                            test_samples,
                            feature_dim,
                            noise_std: 0.6,
                        });
                    }
                }
            }
        }
    }
    out
}

#[test]
fn femnist_generation_is_the_sequential_generators_at_every_worker_count() {
    let executors = executors();
    for (i, cfg) in femnist_grid().into_iter().enumerate() {
        let seed = 1_000 + i as u64;
        let mut want_rng = ChaCha8Rng::seed_from_u64(seed);
        let want = reference::femnist_generate(&cfg, &mut want_rng);
        for (parallelism, exec) in &executors {
            let mut got_rng = ChaCha8Rng::seed_from_u64(seed);
            let got = SyntheticFemnist::new(cfg).generate_on(&mut got_rng, exec);
            let mut want_rng = want_rng.clone();
            assert_same_generation(
                (&got, &mut got_rng),
                (&want, &mut want_rng),
                &format!("{cfg:?} at {parallelism:?}"),
            );
        }
    }
}

#[test]
fn cifar_generation_is_the_sequential_generators_at_every_worker_count() {
    let executors = executors();
    for (i, cfg) in cifar_grid().into_iter().enumerate() {
        let seed = 2_000 + i as u64;
        let mut want_rng = ChaCha8Rng::seed_from_u64(seed);
        let want = reference::cifar_generate(&cfg, &mut want_rng);
        for (parallelism, exec) in &executors {
            let mut got_rng = ChaCha8Rng::seed_from_u64(seed);
            let got = SyntheticCifar::new(cfg).generate_on(&mut got_rng, exec);
            let mut want_rng = want_rng.clone();
            assert_same_generation(
                (&got, &mut got_rng),
                (&want, &mut want_rng),
                &format!("{cfg:?} at {parallelism:?}"),
            );
        }
    }
}

/// The serial entry point is the pool path on one thread: a stream that
/// keeps drawing after the call (as the callers' model initialisation
/// does) sees the same words.
#[test]
fn serial_generation_leaves_the_stream_where_the_sequential_generator_does() {
    let cfg = SyntheticFemnistConfig::tiny();
    let mut got_rng = ChaCha8Rng::seed_from_u64(3);
    let mut want_rng = ChaCha8Rng::seed_from_u64(3);
    let got = SyntheticFemnist::new(cfg).generate(&mut got_rng);
    let want = reference::femnist_generate(&cfg, &mut want_rng);
    assert_same_generation((&got, &mut got_rng), (&want, &mut want_rng), "tiny");
    let after: Vec<u64> = (0..40).map(|_| got_rng.next_u64()).collect();
    let expected: Vec<u64> = (0..40).map(|_| want_rng.next_u64()).collect();
    assert_eq!(after, expected);
}
