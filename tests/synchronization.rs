//! Verifies the paper's synchronization invariant: because every client
//! applies the same downlink update, independently maintained per-client
//! weight copies remain bit-identical — so the simulator's single shared
//! weight vector is a faithful representation of Algorithm 1.

use agsfl::ml::data::{SyntheticFemnist, SyntheticFemnistConfig};
use agsfl::ml::model::{Mlp, Model};
use agsfl::sparse::{ClientUpload, FabTopK, ResidualAccumulator, Sparsifier, UploadPlan};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A hand-rolled reimplementation of Algorithm 1 that keeps a *separate*
/// weight vector per client, used to check the invariant independently of
/// the `agsfl-fl` simulator.
#[test]
fn per_client_weight_copies_stay_identical_under_fab_topk() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
    let model = Mlp::new(fed.feature_dim(), &[], fed.num_classes());
    let dim = model.num_params();
    let init = model.init_params(&mut rng);
    let n = fed.num_clients();
    let total: usize = fed.clients().iter().map(|c| c.len()).sum();

    // Independent weight copies and accumulators per client.
    let mut weights: Vec<Vec<f32>> = vec![init; n];
    let mut accumulators: Vec<ResidualAccumulator> =
        (0..n).map(|_| ResidualAccumulator::new(dim)).collect();
    let sparsifier = FabTopK::new();
    let k = dim / 10;
    let eta = 0.05f32;

    for round in 0..15 {
        // Every client computes a gradient on its own (full) shard at its own
        // weight copy and accumulates it.
        for (i, shard) in fed.clients().iter().enumerate() {
            let (_, grad) = model.loss_and_grad(&weights[i], &shard.features, &shard.labels);
            accumulators[i].add(&grad);
        }
        let mut plan_rng = ChaCha8Rng::seed_from_u64(round);
        let plan = sparsifier.upload_plan(dim, k, &mut plan_rng);
        assert_eq!(plan, UploadPlan::TopKOwn);
        let uploads: Vec<ClientUpload> = (0..n)
            .map(|i| {
                ClientUpload::new(
                    i,
                    fed.client(i).len() as f64 / total as f64,
                    accumulators[i].top_k_entries(k),
                )
            })
            .collect();
        let selection = sparsifier.select(&uploads, dim, k);
        // Every client applies the same downlink update to its own copy and
        // resets its own accumulator entries.
        for i in 0..n {
            selection.aggregated.apply_sgd(&mut weights[i], eta);
            let resets: Vec<usize> = selection.resets(&uploads[i]).collect();
            accumulators[i].reset_indices(&resets);
        }
        // Invariant: all weight copies identical after every round.
        for i in 1..n {
            assert_eq!(
                weights[0], weights[i],
                "client {i} diverged in round {round}"
            );
        }
    }
}

#[test]
fn fab_fairness_holds_throughout_training() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
    let model = Mlp::new(fed.feature_dim(), &[], fed.num_classes());
    let dim = model.num_params();
    let mut weights = model.init_params(&mut rng);
    let n = fed.num_clients();
    let total: usize = fed.clients().iter().map(|c| c.len()).sum();
    let mut accumulators: Vec<ResidualAccumulator> =
        (0..n).map(|_| ResidualAccumulator::new(dim)).collect();
    let sparsifier = FabTopK::new();
    let k = 2 * n; // floor(k/N) = 2 elements guaranteed per client.

    for _ in 0..10 {
        for (i, shard) in fed.clients().iter().enumerate() {
            let (_, grad) = model.loss_and_grad(&weights, &shard.features, &shard.labels);
            accumulators[i].add(&grad);
        }
        let uploads: Vec<ClientUpload> = (0..n)
            .map(|i| {
                ClientUpload::new(
                    i,
                    fed.client(i).len() as f64 / total as f64,
                    accumulators[i].top_k_entries(k),
                )
            })
            .collect();
        let selection = sparsifier.select(&uploads, dim, k);
        assert!(selection.aggregated.nnz() <= k);
        for (i, contribution) in selection.contributions(&uploads).iter().enumerate() {
            assert!(
                *contribution >= k / n,
                "client {i} contributed {contribution} < floor(k/N) = {}",
                k / n
            );
        }
        selection.aggregated.apply_sgd(&mut weights, 0.05);
        for (acc, upload) in accumulators.iter_mut().zip(&uploads) {
            let resets: Vec<usize> = selection.resets(upload).collect();
            acc.reset_indices(&resets);
        }
    }
}
