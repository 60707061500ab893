//! The FedAvg send-all-or-nothing baseline.
//!
//! The paper compares its GS-based FL against federated averaging at *equal
//! average communication overhead*: FedAvg exchanges the full model every
//! `⌊D/(2k)⌋` rounds (the division by 2 accounts for the index transmission
//! that sparse messages need), and performs purely local SGD steps in the
//! rounds in between.
//!
//! Like the sparse simulator, FedAvg runs its `O(N·D)` passes through the
//! [`agsfl_exec::Executor`] it is built with (the runner hands it the
//! experiment's own, so the baseline shares the sparse run's pool): the
//! per-round local SGD steps are a client-parallel map (each client owns its
//! RNG and sampler, results reduce in client order), the `N×D` weight
//! average is sharded by *dimension stripe* so every coordinate keeps its
//! serial client-order sum, and evaluation uses the fused sweep of
//! [`agsfl_ml::metrics::global_evaluation`]. All of it is bit-identical to
//! the serial path for every thread count; see `ARCHITECTURE.md`.

use agsfl_exec::Executor;
use agsfl_ml::data::{ClientShard, FederatedDataset, MinibatchSampler, ShardSource};
use agsfl_ml::metrics::{global_evaluation, GlobalEvaluation};
use agsfl_ml::model::Model;
use agsfl_ml::optim::sgd_step;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::time::TimeModel;

/// Configuration of a [`FedAvgSimulation`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FedAvgConfig {
    /// SGD step size `η`.
    pub learning_rate: f32,
    /// Mini-batch size per client per round.
    pub batch_size: usize,
    /// Normalized time model.
    pub time_model: TimeModel,
    /// Weight aggregation period in rounds. Use
    /// [`TimeModel::fedavg_period`] to match the average communication
    /// overhead of `k`-element GS.
    pub aggregation_period: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for FedAvgConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.01,
            batch_size: 32,
            time_model: TimeModel::default(),
            aggregation_period: 10,
            seed: 0,
        }
    }
}

/// Report of one FedAvg round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FedAvgRoundReport {
    /// Round index (1-based).
    pub round: usize,
    /// Whether this round ended with a weight aggregation.
    pub aggregated: bool,
    /// Average (weighted) mini-batch loss at the start-of-round weights.
    pub train_loss: f64,
    /// Normalized time of this round.
    pub round_time: f64,
    /// Cumulative normalized time.
    pub elapsed_time: f64,
}

/// One FedAvg client: its diverging local weights plus the private sampler
/// and RNG that make the client-parallel round pass deterministic in any
/// interleaving, and the reused buffers its mini-batch is drawn into.
#[derive(Debug, Clone)]
struct FedAvgClient {
    id: usize,
    weight: f64,
    params: Vec<f32>,
    sampler: MinibatchSampler,
    rng: ChaCha8Rng,
    /// This round's batch indices into the client's shard.
    indices: Vec<usize>,
    /// This round's batch rows.
    batch: ClientShard,
}

/// Federated averaging with periodic full-model exchange.
pub struct FedAvgSimulation {
    model: Box<dyn Model>,
    dataset: FederatedDataset,
    config: FedAvgConfig,
    /// Per-client state (local weights diverge between aggregations).
    clients: Vec<FedAvgClient>,
    /// The executor the run was built with, reused by the round pass, the
    /// weight average and the evaluation sweeps. Results are bit-identical
    /// for every thread count.
    executor: Executor,
    round: usize,
    elapsed: f64,
}

impl std::fmt::Debug for FedAvgSimulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FedAvgSimulation")
            .field("num_clients", &self.clients.len())
            .field("round", &self.round)
            .field("aggregation_period", &self.config.aggregation_period)
            .finish()
    }
}

impl FedAvgSimulation {
    /// Creates a FedAvg run with all clients initialized to the same weights,
    /// running its parallel passes on `executor`.
    ///
    /// # Panics
    ///
    /// Panics if `aggregation_period == 0` or the model/dataset dimensions
    /// disagree.
    pub fn new(
        model: Box<dyn Model>,
        dataset: FederatedDataset,
        config: FedAvgConfig,
        executor: Executor,
    ) -> Self {
        assert!(
            config.aggregation_period > 0,
            "aggregation period must be positive"
        );
        assert_eq!(
            model.input_dim(),
            dataset.feature_dim(),
            "feature dim mismatch"
        );
        let mut init_rng = ChaCha8Rng::seed_from_u64(config.seed);
        let init = model.init_params(&mut init_rng);
        let total = dataset.total_samples() as f64;
        let clients = dataset
            .clients()
            .iter()
            .enumerate()
            .map(|(i, shard)| FedAvgClient {
                id: i,
                weight: shard.len() as f64 / total,
                params: init.clone(),
                sampler: MinibatchSampler::new(shard.len(), config.batch_size),
                rng: ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(17).wrapping_add(i as u64)),
                indices: Vec::new(),
                batch: ClientShard::empty(shard.feature_dim()),
            })
            .collect();
        Self {
            model,
            dataset,
            config,
            clients,
            executor,
            round: 0,
            elapsed: 0.0,
        }
    }

    /// Rounds completed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Cumulative normalized time consumed so far.
    pub fn elapsed_time(&self) -> f64 {
        self.elapsed
    }

    /// Client `i`'s current local weights.
    #[cfg(test)]
    fn local_params(&self, i: usize) -> &[f32] {
        &self.clients[i].params
    }

    /// The weighted average of the clients' current local weights — the
    /// "global model" FedAvg would report at this point.
    ///
    /// The `N×D` reduction is sharded across the executor's workers by
    /// *dimension stripe*: each worker owns a contiguous coordinate range
    /// and folds over the clients in client order, so every coordinate's sum
    /// is evaluated in exactly the serial association and the result is
    /// bit-identical for any stripe count. A one-thread executor gets one
    /// stripe, which the executor runs as a plain loop.
    pub fn averaged_params(&self) -> Vec<f32> {
        let dim = self.clients[0].params.len();
        let mut avg = vec![0.0f64; dim];
        let stripe = dim.div_ceil(self.executor.threads()).max(1);
        let mut stripes: Vec<(usize, &mut [f64])> = avg.chunks_mut(stripe).enumerate().collect();
        let clients = &self.clients;
        self.executor.map_mut(&mut stripes, |(i, chunk)| {
            let lo = *i * stripe;
            for client in clients {
                let src = &client.params[lo..lo + chunk.len()];
                for (a, &p) in chunk.iter_mut().zip(src.iter()) {
                    *a += client.weight * p as f64;
                }
            }
        });
        avg.into_iter().map(|v| v as f32).collect()
    }

    /// Evaluates loss, test accuracy and train accuracy in one shot:
    /// the `N×D` weight average is computed a single time and all three
    /// metrics come from one fused parallel sweep
    /// ([`agsfl_ml::metrics::global_evaluation`]).
    pub fn evaluate(&self) -> GlobalEvaluation {
        let avg = self.averaged_params();
        global_evaluation(
            self.model.as_ref(),
            &avg,
            self.dataset.clients(),
            self.dataset.test(),
            &self.executor,
        )
    }

    /// Runs one FedAvg round: a local SGD step at every client (one
    /// client-parallel map; each client owns its RNG and sampler, and the
    /// weighted loss reduces in client order on the calling thread), plus a
    /// full weight aggregation every `aggregation_period` rounds.
    pub fn run_round(&mut self) -> FedAvgRoundReport {
        self.round += 1;
        let lr = self.config.learning_rate;
        let model = self.model.as_ref();
        let dataset = &self.dataset;
        let losses: Vec<(f64, f32)> = self.executor.map_mut(&mut self.clients, |client| {
            client
                .sampler
                .next_indices_into(&mut client.rng, &mut client.indices);
            dataset.materialize_rows_into(client.id, &client.indices, &mut client.batch);
            let batch = &client.batch;
            let (loss, grad) = model.loss_and_grad(&client.params, &batch.features, &batch.labels);
            sgd_step(&mut client.params, &grad, lr);
            (client.weight, loss)
        });
        let mut train_loss = 0.0f64;
        for (weight, loss) in losses {
            train_loss += weight * loss as f64;
        }

        let aggregated = self.round.is_multiple_of(self.config.aggregation_period);
        let dim = self.clients[0].params.len();
        let round_time = if aggregated {
            let avg = self.averaged_params();
            for client in &mut self.clients {
                client.params.copy_from_slice(&avg);
            }
            self.config.time_model.dense_round_time(dim)
        } else {
            self.config.time_model.local_round_time()
        };
        self.elapsed += round_time;

        FedAvgRoundReport {
            round: self.round,
            aggregated,
            train_loss,
            round_time,
            elapsed_time: self.elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agsfl_exec::Parallelism;
    use agsfl_ml::data::{SyntheticFemnist, SyntheticFemnistConfig};
    use agsfl_ml::model::Mlp;

    fn tiny_fedavg_with(
        period: usize,
        beta: f64,
        seed: u64,
        parallelism: Parallelism,
    ) -> FedAvgSimulation {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
        let model = Mlp::new(fed.feature_dim(), &[], fed.num_classes());
        FedAvgSimulation::new(
            Box::new(model),
            fed,
            FedAvgConfig {
                learning_rate: 0.05,
                batch_size: 8,
                time_model: TimeModel::normalized(beta),
                aggregation_period: period,
                seed,
            },
            parallelism.build(),
        )
    }

    fn tiny_fedavg(period: usize, beta: f64, seed: u64) -> FedAvgSimulation {
        tiny_fedavg_with(period, beta, seed, Parallelism::Auto)
    }

    #[test]
    fn aggregation_happens_on_schedule() {
        let mut sim = tiny_fedavg(3, 10.0, 0);
        let mut aggregations = Vec::new();
        for _ in 0..6 {
            let r = sim.run_round();
            aggregations.push(r.aggregated);
        }
        assert_eq!(aggregations, vec![false, false, true, false, false, true]);
    }

    #[test]
    fn round_time_depends_on_aggregation() {
        let mut sim = tiny_fedavg(2, 10.0, 1);
        let local = sim.run_round();
        assert_eq!(local.round_time, 1.0);
        let agg = sim.run_round();
        assert_eq!(agg.round_time, 11.0);
        assert!((sim.elapsed_time() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn local_weights_synchronized_after_aggregation() {
        let mut sim = tiny_fedavg(2, 1.0, 2);
        sim.run_round();
        // After one local round, clients differ.
        assert_ne!(sim.local_params(0), sim.local_params(1));
        sim.run_round();
        // After the aggregation round, everyone holds the average.
        assert_eq!(sim.local_params(0), sim.local_params(1));
    }

    #[test]
    fn training_reduces_loss() {
        let mut sim = tiny_fedavg(4, 1.0, 3);
        let initial = sim.evaluate().train_loss;
        for _ in 0..120 {
            sim.run_round();
        }
        let trained = sim.evaluate();
        assert!(
            trained.train_loss < initial * 0.9,
            "loss {initial} -> {}",
            trained.train_loss
        );
        assert!(trained.test_accuracy > 0.1);
    }

    #[test]
    fn averaged_params_is_weighted_mean() {
        let mut sim = tiny_fedavg(100, 1.0, 4);
        sim.run_round();
        let avg = sim.averaged_params();
        let mut manual = vec![0.0f64; avg.len()];
        for client in &sim.clients {
            for (m, &v) in manual.iter_mut().zip(client.params.iter()) {
                *m += client.weight * v as f64;
            }
        }
        for (a, m) in avg.iter().zip(manual.iter()) {
            assert!((*a as f64 - m).abs() < 1e-6);
        }
    }

    /// The evaluation invariant: a serial and a multi-threaded FedAvg run of
    /// the same seed produce equal round reports, bit-equal averaged
    /// weights and equal evaluations, across 1–8 workers.
    #[test]
    fn serial_and_parallel_fedavg_runs_are_identical() {
        let mut serial = tiny_fedavg_with(2, 5.0, 9, Parallelism::Serial);
        let mut parallel: Vec<FedAvgSimulation> = (2..=8)
            .step_by(3)
            .map(|t| tiny_fedavg_with(2, 5.0, 9, Parallelism::Threads(t)))
            .collect();
        for _ in 0..4 {
            let rs = serial.run_round();
            for sim in &mut parallel {
                assert_eq!(rs, sim.run_round());
            }
        }
        let expected_eval = serial.evaluate();
        let expected_avg = serial.averaged_params();
        for sim in &parallel {
            assert_eq!(expected_avg, sim.averaged_params());
            assert_eq!(expected_eval, sim.evaluate());
        }
    }

    /// The dimension-striped average must be bit-identical to the
    /// one-stripe fold at a dimension that splits into uneven stripes.
    #[test]
    fn striped_average_matches_serial_at_large_dim() {
        use agsfl_ml::data::{ClientShard, FederatedDataset};
        use agsfl_tensor::Matrix;
        let dim_features = 2_100; // zero-hidden `Mlp` params: 2100*2 + 2
        let shard = |seed: usize, n: usize| {
            ClientShard::new(
                Matrix::from_fn(n, dim_features, |i, j| {
                    ((i * 31 + j * 7 + seed * 13) % 17) as f32 * 0.05 - 0.4
                }),
                (0..n).map(|i| (i + seed) % 2).collect(),
            )
        };
        let build = |parallelism: Parallelism| {
            let fed =
                FederatedDataset::new(vec![shard(0, 5), shard(1, 3), shard(2, 7)], shard(9, 4), 2);
            FedAvgSimulation::new(
                Box::new(Mlp::new(dim_features, &[], 2)),
                fed,
                FedAvgConfig {
                    batch_size: 2,
                    ..FedAvgConfig::default()
                },
                parallelism.build(),
            )
        };
        let mut serial = build(Parallelism::Serial);
        serial.run_round();
        let expected = serial.averaged_params();
        for threads in [2usize, 3, 5, 8] {
            let mut sim = build(Parallelism::Threads(threads));
            sim.run_round();
            assert_eq!(expected, sim.averaged_params(), "threads={threads}");
        }
    }

    #[test]
    #[should_panic]
    fn zero_period_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
        let model = Mlp::new(fed.feature_dim(), &[], fed.num_classes());
        let _ = FedAvgSimulation::new(
            Box::new(model),
            fed,
            FedAvgConfig {
                aggregation_period: 0,
                ..FedAvgConfig::default()
            },
            Executor::serial(),
        );
    }
}
