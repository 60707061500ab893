//! The evaluation sweep, run between rounds.

use agsfl_ml::data::{ClientShard, FederatedDataset};
use agsfl_ml::metrics::{global_evaluation, shard_metrics, GlobalEvaluation};

use crate::simulation::Shared;

/// The one evaluation body: [`global_evaluation`] over the resident client
/// shards (when `train`) and the test set (when `test`); a half that is
/// left out reads `0.0`.
///
/// A lazy source has no resident shards to put on the work list: its train
/// metrics stream every shard through one reusable buffer — evaluation
/// stays `O(shard)` resident even at a million clients — taking each
/// shard's loss and accuracy from one forward ([`shard_metrics`], the
/// eager sweep's per-shard body) and folding `metric * len` in shard order,
/// which is exactly the serial association of
/// `agsfl_ml::metrics::global_loss` / `global_accuracy`, so the lazy sweep
/// is bit-identical to the eager one for a source that materializes the
/// same shards.
pub(crate) fn sweep(shared: &Shared, train: bool, test: bool) -> GlobalEvaluation {
    let (model, params) = (shared.model.as_ref(), &shared.params[..]);
    let source = shared.source.as_ref();
    let none = ClientShard::empty(source.feature_dim());
    let test_set = if test { source.test() } else { &none };
    let resident = source.as_dataset().map(FederatedDataset::clients);
    let shards = if train { resident.unwrap_or(&[]) } else { &[] };
    let mut eval = global_evaluation(model, params, shards, test_set, &shared.executor);
    let total = source.total_samples();
    if train && resident.is_none() && total > 0 {
        let mut shard = ClientShard::empty(source.feature_dim());
        let (mut loss, mut accuracy) = (0.0f64, 0.0f64);
        for id in 0..source.num_clients() {
            source.materialize_into(id, &mut shard);
            if shard.is_empty() {
                continue;
            }
            let len = shard.len() as f64;
            let (shard_loss, shard_accuracy) = shard_metrics(model, params, &shard);
            loss += shard_loss as f64 * len;
            accuracy += shard_accuracy as f64 * len;
        }
        eval.train_loss = (loss / total as f64) as f32;
        eval.train_accuracy = (accuracy / total as f64) as f32;
    }
    eval
}

#[cfg(test)]
mod tests {
    use crate::fixture::tiny_sim;
    use crate::{Parallelism, Simulation, SimulationConfig, TimeModel};
    use agsfl_ml::data::{
        ClientShard, FederatedDataset, LazySyntheticFemnist, ShardSource, SyntheticFemnistConfig,
    };
    use agsfl_ml::model::LinearSoftmax;
    use agsfl_sparse::FabTopK;

    /// The accessors are restrictions of the fused evaluation sweep: equal
    /// to its fields bit for bit, serial or parallel, across 1–8 workers.
    #[test]
    fn fused_evaluation_matches_accessors_for_any_worker_count() {
        for threads in [1usize, 2, 3, 4, 5, 8] {
            let parallelism = if threads == 1 {
                Parallelism::Serial
            } else {
                Parallelism::Threads(threads)
            };
            let mut sim = tiny_sim(Box::new(FabTopK::new()), 21, |c, _| {
                c.parallelism = parallelism
            });
            for _ in 0..3 {
                sim.run_round(sim.dim() / 6, None);
            }
            let eval = sim.evaluate();
            assert_eq!(
                (eval.train_loss as f64).to_bits(),
                sim.global_train_loss().to_bits(),
                "threads={threads}"
            );
            assert_eq!(
                (eval.test_accuracy as f64).to_bits(),
                sim.test_accuracy().to_bits(),
                "threads={threads}"
            );
        }
    }

    /// Evaluation sweeps are part of the determinism invariant: the same
    /// trained state evaluates to identical bits for every worker count.
    #[test]
    fn serial_and_parallel_evaluations_are_identical() {
        let build = |parallelism| {
            tiny_sim(Box::new(FabTopK::new()), 22, |c, _| {
                c.parallelism = parallelism
            })
        };
        let mut serial = build(Parallelism::Serial);
        let mut parallel = build(Parallelism::Threads(4));
        for _ in 0..3 {
            serial.run_round(40, None);
            parallel.run_round(40, None);
        }
        assert_eq!(serial.evaluate(), parallel.evaluate());
        assert_eq!(serial.global_train_loss(), parallel.global_train_loss());
        assert_eq!(serial.test_accuracy(), parallel.test_accuracy());
    }

    /// A lazy [`ShardSource`] behind `with_source` is indistinguishable
    /// from an eager dataset holding the same bytes: identical round
    /// reports, identical weights, and the streamed evaluation sweeps are
    /// bit-identical to the eager parallel ones.
    #[test]
    fn lazy_source_matches_eager_dataset_with_same_shards() {
        let cfg = SyntheticFemnistConfig::tiny();
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(4),
            Parallelism::Threads(8),
        ] {
            let src = LazySyntheticFemnist::new(cfg, 5);
            let n = ShardSource::num_clients(&src);
            let mut shards = Vec::new();
            for i in 0..n {
                let mut shard = ClientShard::empty(cfg.feature_dim);
                src.materialize_into(i, &mut shard);
                shards.push(shard);
            }
            let fed = FederatedDataset::new(shards, src.test().clone(), cfg.num_classes);
            let config = SimulationConfig {
                learning_rate: 0.05,
                batch_size: 8,
                time_model: TimeModel::normalized(5.0),
                seed: 5,
                parallelism,
                wire: None,
                fault: None,
                cohort: Some(4),
            };
            let mut lazy = Simulation::with_source(
                Box::new(LinearSoftmax::new(cfg.feature_dim, cfg.num_classes)),
                Box::new(src),
                Box::new(FabTopK::new()),
                config.clone(),
            );
            let mut eager = Simulation::new(
                Box::new(LinearSoftmax::new(cfg.feature_dim, cfg.num_classes)),
                fed,
                Box::new(FabTopK::new()),
                config,
            );
            for round in 0..5 {
                let probe = (round % 2 == 0).then_some(4);
                assert_eq!(
                    lazy.run_round(8, probe),
                    eager.run_round(8, probe),
                    "round {round} under {parallelism:?}"
                );
            }
            assert_eq!(lazy.params(), eager.params());
            let (le, ee) = (lazy.evaluate(), eager.evaluate());
            assert_eq!(le.train_loss.to_bits(), ee.train_loss.to_bits());
            assert_eq!(le.train_accuracy.to_bits(), ee.train_accuracy.to_bits());
            assert_eq!(le.test_accuracy.to_bits(), ee.test_accuracy.to_bits());
            for sim in [&lazy, &eager] {
                assert_eq!(
                    sim.global_train_loss().to_bits(),
                    (le.train_loss as f64).to_bits(),
                    "{parallelism:?}"
                );
                assert_eq!(
                    sim.test_accuracy().to_bits(),
                    (le.test_accuracy as f64).to_bits(),
                    "{parallelism:?}"
                );
            }
        }
    }
}
