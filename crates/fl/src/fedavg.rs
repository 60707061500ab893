//! The FedAvg send-all-or-nothing baseline.
//!
//! The paper compares its GS-based FL against federated averaging at *equal
//! average communication overhead*: FedAvg exchanges the full model every
//! `⌊D/(2k)⌋` rounds (the division by 2 accounts for the index transmission
//! that sparse messages need), and performs purely local SGD steps in the
//! rounds in between.
//!
//! A FedAvg run is the baseline *of* a GS [`Simulation`]: it borrows that
//! simulation's model, dataset and executor and reads its learning rate,
//! batch size, time model and seed, so the two runs cannot disagree on any
//! of them. Only the aggregation period is its own.
//!
//! Like the sparse simulator, FedAvg runs its `O(N·D)` passes through the
//! borrowed [`agsfl_exec::Executor`]: the per-round local SGD steps are a
//! client-parallel map (each client owns its RNG and sampler, results reduce
//! in client order), the `N×D` weight average is sharded by *dimension
//! stripe* so every coordinate keeps its serial client-order sum, and
//! evaluation uses the fused sweep of
//! [`agsfl_ml::metrics::global_evaluation`]. All of it is bit-identical to
//! the serial path for every thread count; see `ARCHITECTURE.md`.

use agsfl_ml::data::{ClientShard, FederatedDataset, MinibatchSampler, ShardSource};
use agsfl_ml::metrics::{global_evaluation, GlobalEvaluation};
use agsfl_ml::optim::sgd_step;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::Simulation;

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

/// Federated averaging with periodic full-model exchange, as the baseline of
/// a borrowed GS [`Simulation`].
pub struct FedAvgSimulation<'a> {
    /// The GS run this is the baseline of: the model, the executor (reused by
    /// the round pass, the weight average and the evaluation sweeps) and the
    /// hyper-parameters.
    sim: &'a Simulation,
    /// `sim`'s dataset.
    dataset: &'a FederatedDataset,
    aggregation_period: usize,
    /// Per-client state (local weights diverge between aggregations).
    clients: Vec<FedAvgClient>,
    round: usize,
    elapsed: f64,
}

impl std::fmt::Debug for FedAvgSimulation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FedAvgSimulation")
            .field("num_clients", &self.clients.len())
            .field("round", &self.round)
            .field("aggregation_period", &self.aggregation_period)
            .finish()
    }
}

impl<'a> FedAvgSimulation<'a> {
    /// Creates the FedAvg baseline of `sim`, exchanging the full model every
    /// `aggregation_period` rounds ([`crate::TimeModel::fedavg_period`]
    /// matches the average communication overhead of `k`-element GS). Every
    /// client starts from the weights `sim` was initialized with.
    ///
    /// # Panics
    ///
    /// Panics if `aggregation_period == 0` or `sim` runs over a lazy shard
    /// source: FedAvg keeps every client's weights, so it needs the whole
    /// dataset.
    pub fn new(sim: &'a Simulation, aggregation_period: usize) -> Self {
        assert!(
            aggregation_period > 0,
            "aggregation period must be positive"
        );
        let dataset = sim
            .source()
            .as_dataset()
            .expect("a FedAvg baseline runs on an eagerly generated dataset");
        let config = sim.config();
        let init = sim
            .model()
            .init_params(&mut ChaCha8Rng::seed_from_u64(config.seed));
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
            sim,
            dataset,
            aggregation_period,
            clients,
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
        let executor = self.sim.executor();
        let stripe = dim.div_ceil(executor.threads()).max(1);
        let mut stripes: Vec<(usize, &mut [f64])> = avg.chunks_mut(stripe).enumerate().collect();
        let clients = &self.clients;
        executor.map_mut(&mut stripes, |(i, chunk)| {
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
            self.sim.model(),
            &avg,
            self.dataset.clients(),
            self.dataset.test(),
            self.sim.executor(),
        )
    }

    /// Runs one FedAvg round: a local SGD step at every client (one
    /// client-parallel map; each client owns its RNG and sampler, and the
    /// weighted loss reduces in client order on the calling thread), plus a
    /// full weight aggregation every `aggregation_period` rounds.
    pub fn run_round(&mut self) -> FedAvgRoundReport {
        self.round += 1;
        let (sim, dataset) = (self.sim, self.dataset);
        let (model, config) = (sim.model(), sim.config());
        let losses: Vec<(f64, f32)> = sim.executor().map_mut(&mut self.clients, |client| {
            client
                .sampler
                .next_indices_into(&mut client.rng, &mut client.indices);
            dataset.materialize_rows_into(client.id, &client.indices, &mut client.batch);
            let batch = &client.batch;
            let (loss, grad) = model.loss_and_grad(&client.params, &batch.features, &batch.labels);
            sgd_step(&mut client.params, &grad, config.learning_rate);
            (client.weight, loss)
        });
        let mut train_loss = 0.0f64;
        for (weight, loss) in losses {
            train_loss += weight * loss as f64;
        }

        let aggregated = self.round.is_multiple_of(self.aggregation_period);
        let dim = self.clients[0].params.len();
        let round_time = if aggregated {
            let avg = self.averaged_params();
            for client in &mut self.clients {
                client.params.copy_from_slice(&avg);
            }
            config.time_model.dense_round_time(dim)
        } else {
            config.time_model.local_round_time()
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
    use crate::fixture::tiny_sim;
    use crate::{SimulationConfig, TimeModel};
    use agsfl_exec::Parallelism;
    use agsfl_ml::model::Mlp;
    use agsfl_sparse::FabTopK;

    /// The fixture's GS simulation at `seed` with communication time `beta`
    /// on `parallelism`: the run each baseline here is built from.
    fn gs(seed: u64, beta: f64, parallelism: Parallelism) -> Simulation {
        tiny_sim(Box::new(FabTopK::new()), seed, |config, _| {
            config.time_model = TimeModel::normalized(beta);
            config.parallelism = parallelism;
        })
    }

    #[test]
    fn aggregation_happens_on_schedule() {
        let gs = gs(0, 10.0, Parallelism::Auto);
        let mut sim = FedAvgSimulation::new(&gs, 3);
        let mut aggregations = Vec::new();
        for _ in 0..6 {
            let r = sim.run_round();
            aggregations.push(r.aggregated);
        }
        assert_eq!(aggregations, vec![false, false, true, false, false, true]);
    }

    #[test]
    fn round_time_depends_on_aggregation() {
        let gs = gs(1, 10.0, Parallelism::Auto);
        let mut sim = FedAvgSimulation::new(&gs, 2);
        let local = sim.run_round();
        assert_eq!(local.round_time, 1.0);
        let agg = sim.run_round();
        assert_eq!(agg.round_time, 11.0);
        assert!((sim.elapsed_time() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn local_weights_synchronized_after_aggregation() {
        let gs = gs(2, 1.0, Parallelism::Auto);
        let mut sim = FedAvgSimulation::new(&gs, 2);
        sim.run_round();
        // After one local round, clients differ.
        assert_ne!(sim.local_params(0), sim.local_params(1));
        sim.run_round();
        // After the aggregation round, everyone holds the average.
        assert_eq!(sim.local_params(0), sim.local_params(1));
    }

    #[test]
    fn training_reduces_loss() {
        let gs = gs(3, 1.0, Parallelism::Auto);
        let mut sim = FedAvgSimulation::new(&gs, 4);
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
        let gs = gs(4, 1.0, Parallelism::Auto);
        let mut sim = FedAvgSimulation::new(&gs, 100);
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
        let serial_gs = gs(9, 5.0, Parallelism::Serial);
        let mut serial = FedAvgSimulation::new(&serial_gs, 2);
        let parallel_gs: Vec<Simulation> = (2..=8)
            .step_by(3)
            .map(|t| gs(9, 5.0, Parallelism::Threads(t)))
            .collect();
        let mut parallel: Vec<FedAvgSimulation> = parallel_gs
            .iter()
            .map(|gs| FedAvgSimulation::new(gs, 2))
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
            Simulation::new(
                Box::new(Mlp::new(dim_features, &[], 2)),
                FederatedDataset::new(vec![shard(0, 5), shard(1, 3), shard(2, 7)], shard(9, 4), 2),
                Box::new(FabTopK::new()),
                SimulationConfig {
                    batch_size: 2,
                    parallelism,
                    ..SimulationConfig::default()
                },
            )
        };
        let serial_gs = build(Parallelism::Serial);
        let mut serial = FedAvgSimulation::new(&serial_gs, 10);
        serial.run_round();
        let expected = serial.averaged_params();
        for threads in [2usize, 3, 5, 8] {
            let gs = build(Parallelism::Threads(threads));
            let mut sim = FedAvgSimulation::new(&gs, 10);
            sim.run_round();
            assert_eq!(expected, sim.averaged_params(), "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "aggregation period must be positive")]
    fn zero_period_panics() {
        let _ = FedAvgSimulation::new(&gs(0, 5.0, Parallelism::Serial), 0);
    }
}
