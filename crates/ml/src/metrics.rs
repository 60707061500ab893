//! Evaluation helpers: weighted global loss/accuracy over federated clients.
//!
//! The paper's global loss is the data-size-weighted average of per-client
//! losses, `L(w) = Σ_i C_i L(w, i) / C` (Section III-A); [`global_loss`] and
//! [`global_accuracy`] implement that weighting for any [`Model`], serially:
//! they are the oracles the sweep below is pinned against.
//!
//! # The executor-sharded sweep
//!
//! At every evaluation point the simulators sweep **all** `N` clients (and
//! the test set) at the current `D`-dimensional weights — an `O(N·D)` pass
//! that dominates wall time at `eval_every` rounds once the per-round engine
//! is parallel. [`global_evaluation`] is the one sweep that runs through an
//! [`agsfl_exec::Executor`]: one parallel region over one work list (client
//! shards plus test-row chunks) whose results come back in item order, with
//! the reduction performed serially on the caller's thread in exactly the
//! serial path's association. An empty shard list makes it the test-accuracy
//! sweep, an empty test shard the train-metrics sweep. Results are
//! **bit-identical** to the serial functions for every thread count:
//!
//! * per-shard losses/accuracies are computed independently (purity of
//!   [`Model`]), so each item's value matches the serial pass bit-for-bit;
//! * the test set is split into contiguous *row* chunks, which is bit-stable
//!   because [`Model::forward`] is row-independent (see the trait contract)
//!   and per-chunk correct counts merge by integer addition;
//! * the weighted folds over shards run on the caller's thread in shard
//!   order, the serial association.

use agsfl_exec::Executor;
use agsfl_tensor::Matrix;

use crate::data::ClientShard;
use crate::loss::batch_cross_entropy;
use crate::model::Model;

/// Data-size-weighted global loss `Σ_i C_i L(w, i) / C` over client shards.
///
/// Returns `0.0` if the shards hold no samples at all.
pub fn global_loss(model: &dyn Model, params: &[f32], shards: &[ClientShard]) -> f32 {
    let total: usize = shards.iter().map(ClientShard::len).sum();
    if total == 0 {
        return 0.0;
    }
    let mut acc = 0.0f64;
    for shard in shards {
        if shard.is_empty() {
            continue;
        }
        let loss = model.loss(params, &shard.features, &shard.labels) as f64;
        acc += loss * shard.len() as f64;
    }
    (acc / total as f64) as f32
}

/// Data-size-weighted global accuracy over client shards, in `[0, 1]`.
///
/// Returns `0.0` if the shards hold no samples at all.
pub fn global_accuracy(model: &dyn Model, params: &[f32], shards: &[ClientShard]) -> f32 {
    let total: usize = shards.iter().map(ClientShard::len).sum();
    if total == 0 {
        return 0.0;
    }
    let mut correct = 0.0f64;
    for shard in shards {
        if shard.is_empty() {
            continue;
        }
        let acc = model.accuracy(params, &shard.features, &shard.labels) as f64;
        correct += acc * shard.len() as f64;
    }
    (correct / total as f64) as f32
}

/// Number of rows of `logits` whose argmax is the row's label.
///
/// The integer building block of the sweep's accuracies: counts merge
/// exactly across chunks, unlike the `f32` fraction [`Model::accuracy`]
/// returns.
fn correct_rows(logits: &Matrix, labels: &[usize]) -> usize {
    logits
        .iter_rows()
        .zip(labels.iter())
        .filter(|(row, &label)| agsfl_tensor::vecops::argmax(row) == Some(label))
        .count()
}

/// Loss and accuracy of one non-empty shard from a single forward pass —
/// the per-shard body of [`global_evaluation`] and of a sweep that streams
/// shards one at a time. Bit-identical to [`Model::loss`] and
/// [`Model::accuracy`] on the shard while a model keeps their default
/// bodies (no model in this crate overrides them).
pub fn shard_metrics(model: &dyn Model, params: &[f32], shard: &ClientShard) -> (f32, f32) {
    let logits = model.forward(params, &shard.features);
    (
        batch_cross_entropy(&logits, &shard.labels),
        correct_rows(&logits, &shard.labels) as f32 / shard.len() as f32,
    )
}

/// Everything an evaluation point reports, computed by one fused sweep
/// ([`global_evaluation`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalEvaluation {
    /// Data-size-weighted global training loss `L(w)`.
    pub train_loss: f32,
    /// Data-size-weighted training accuracy, in `[0, 1]`.
    pub train_accuracy: f32,
    /// Held-out test accuracy, in `[0, 1]`.
    pub test_accuracy: f32,
}

/// One work item of the fused evaluation sweep.
enum EvalItem<'a> {
    /// A client shard, evaluated for loss and accuracy from one forward pass.
    Shard(&'a ClientShard),
    /// A contiguous row chunk of the test set.
    TestChunk(std::ops::Range<usize>),
}

/// Per-item result of the fused evaluation sweep.
enum EvalPartial {
    Shard { loss: f32, accuracy: f32 },
    TestCorrect(usize),
}

/// Rows per test chunk of the fused sweep's work list. `map_ref` hands each
/// worker a contiguous run of *items*, so the runs carry equal rows only if
/// the items do: the test set is cut into chunks of the mean (non-empty)
/// shard length — one chunk per worker when there are no shards. Test counts
/// merge by integer addition, so the layout cannot change a bit.
fn test_chunk_rows(shards: &[ClientShard], test_rows: usize, threads: usize) -> usize {
    let non_empty = shards.iter().filter(|s| !s.is_empty()).count();
    let total: usize = shards.iter().map(ClientShard::len).sum();
    if non_empty == 0 {
        test_rows.div_ceil(threads)
    } else {
        total.div_ceil(non_empty)
    }
}

/// Fused evaluation sweep: global train loss, global train accuracy and test
/// accuracy in **one** parallel region over one work list (client shards
/// plus test-row chunks), forwarding every shard exactly once.
///
/// Bit-identical to the serial reference
/// (`global_loss` / `global_accuracy` / [`Model::accuracy`] on the test set)
/// for every executor configuration: per-shard loss and accuracy come from
/// the same logits the serial functions would compute, the weighted folds
/// run on the caller's thread in shard order, and test chunks merge by
/// integer addition. Pinned by `serial_and_parallel_evaluations_match` tests
/// in `agsfl-ml` and the simulator crates.
pub fn global_evaluation(
    model: &dyn Model,
    params: &[f32],
    shards: &[ClientShard],
    test: &ClientShard,
    exec: &Executor,
) -> GlobalEvaluation {
    let mut items: Vec<EvalItem> = shards
        .iter()
        .filter(|s| !s.is_empty())
        .map(EvalItem::Shard)
        .collect();
    if !test.is_empty() {
        // A serial sweep forwards the test set in one piece.
        let chunk = if exec.is_serial() {
            test.len()
        } else {
            test_chunk_rows(shards, test.len(), exec.threads())
        };
        items.extend(
            (0..test.len().div_ceil(chunk))
                .map(|i| EvalItem::TestChunk(i * chunk..((i + 1) * chunk).min(test.len()))),
        );
    }
    let partials = exec.map_ref(&items, |item| match item {
        EvalItem::Shard(shard) => {
            let (loss, accuracy) = shard_metrics(model, params, shard);
            EvalPartial::Shard { loss, accuracy }
        }
        EvalItem::TestChunk(rows) => EvalPartial::TestCorrect(correct_rows(
            &model.forward_view(params, test.features.view().row_block(rows.clone())),
            &test.labels[rows.clone()],
        )),
    });

    let total: usize = shards.iter().map(ClientShard::len).sum();
    let mut loss_acc = 0.0f64;
    let mut correct_acc = 0.0f64;
    let mut test_correct = 0usize;
    for (item, partial) in items.iter().zip(partials) {
        match (item, partial) {
            (EvalItem::Shard(shard), EvalPartial::Shard { loss, accuracy }) => {
                loss_acc += loss as f64 * shard.len() as f64;
                correct_acc += accuracy as f64 * shard.len() as f64;
            }
            (EvalItem::TestChunk(_), EvalPartial::TestCorrect(count)) => test_correct += count,
            _ => unreachable!("map_ref preserves item order"),
        }
    }
    GlobalEvaluation {
        train_loss: if total == 0 {
            0.0
        } else {
            (loss_acc / total as f64) as f32
        },
        train_accuracy: if total == 0 {
            0.0
        } else {
            (correct_acc / total as f64) as f32
        },
        test_accuracy: if test.is_empty() {
            0.0
        } else {
            test_correct as f32 / test.len() as f32
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::ClientShard;
    use crate::model::Mlp;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn shard(features: Vec<Vec<f32>>, labels: Vec<usize>) -> ClientShard {
        let dim = features[0].len();
        let flat: Vec<f32> = features.into_iter().flatten().collect();
        ClientShard::new(Matrix::from_vec(labels.len(), dim, flat), labels)
    }

    #[test]
    fn global_loss_is_weighted_by_client_size() {
        let model = Mlp::new(2, &[], 2);
        let params = vec![0.0; model.num_params()];
        // Uniform logits -> loss = ln(2) per sample everywhere, so weighting is
        // invisible; instead check against the unweighted formula explicitly.
        let a = shard(vec![vec![1.0, 0.0]; 3], vec![0, 0, 0]);
        let b = shard(vec![vec![0.0, 1.0]; 1], vec![1]);
        let loss = global_loss(&model, &params, &[a.clone(), b.clone()]);
        let expected = (model.loss(&params, &a.features, &a.labels) * 3.0
            + model.loss(&params, &b.features, &b.labels))
            / 4.0;
        assert!((loss - expected).abs() < 1e-6);
    }

    #[test]
    fn global_metrics_empty_shards() {
        let model = Mlp::new(2, &[], 2);
        let params = vec![0.0; model.num_params()];
        assert_eq!(global_loss(&model, &params, &[]), 0.0);
        assert_eq!(global_accuracy(&model, &params, &[]), 0.0);
    }

    #[test]
    fn global_accuracy_perfect_model() {
        let model = Mlp::new(2, &[], 2);
        // Weights mapping feature 0 -> class 0, feature 1 -> class 1.
        let params = vec![5.0, -5.0, -5.0, 5.0, 0.0, 0.0];
        let a = shard(vec![vec![1.0, 0.0], vec![0.0, 1.0]], vec![0, 1]);
        assert_eq!(global_accuracy(&model, &params, &[a]), 1.0);
    }

    /// The evaluation-sweep invariant: the fused sweep and its two
    /// restrictions (shards only, test only) match the serial oracles
    /// exactly for 1–8 workers — on the CNN too, whose row independence is
    /// what lets the test set be cut into chunks — and so do the 2- and
    /// 3-item work lists on 2 workers, the smallest regions that split.
    #[test]
    fn serial_and_parallel_evaluations_match() {
        use crate::model::SimpleCnn;
        use agsfl_exec::Executor;
        let linear = Mlp::new(6, &[], 4);
        let cnn = SimpleCnn::new(2, 7, 6, 3, 4);
        for model in [&linear as &dyn Model, &cnn] {
            let dim = model.input_dim();
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let params = model.init_params(&mut rng);
            let shards: Vec<ClientShard> = (0..9)
                .map(|s| {
                    let n = 3 + (s * 5) % 7;
                    ClientShard::new(
                        Matrix::from_fn(n, dim, |i, j| {
                            ((i * 31 + j * 17 + s * 13) % 23) as f32 * 0.1 - 1.0
                        }),
                        (0..n).map(|i| (i + s) % 4).collect(),
                    )
                })
                .collect();
            let test_rows = |n: usize| {
                ClientShard::new(
                    Matrix::from_fn(n, dim, |i, j| ((i * 7 + j * 29) % 19) as f32 * 0.1 - 0.9),
                    (0..n).map(|i| i % 4).collect(),
                )
            };
            let none = ClientShard::empty(dim);
            let check = |shards: &[ClientShard], test: &ClientShard, threads: usize| {
                let exec = Executor::new(threads);
                let fused = global_evaluation(model, &params, shards, test, &exec);
                let what = format!("threads={threads} shards={}", shards.len());
                assert_eq!(
                    fused.train_loss,
                    global_loss(model, &params, shards),
                    "{what}"
                );
                assert_eq!(
                    fused.train_accuracy,
                    global_accuracy(model, &params, shards),
                    "{what}"
                );
                assert_eq!(
                    fused.test_accuracy,
                    model.accuracy(&params, &test.features, &test.labels),
                    "{what} test rows={}",
                    test.len()
                );
            };
            let test = test_rows(25);
            for threads in 1..=8 {
                check(&shards, &test, threads);
                check(&shards, &none, threads);
                check(&[], &test, threads);
            }
            for items in [2, 3] {
                check(&shards[..items], &none, 2);
                check(&[], &test_rows(items), 2);
            }
        }
    }

    /// On the paper workload's shape (8 shards of 64 rows, 512 test rows, 2
    /// workers) the two halves of the work list carry 512 rows each; one
    /// test chunk per worker put 320 rows on one side and 704 on the other.
    #[test]
    fn fused_sweep_work_list_is_balanced_by_rows() {
        let eight = vec![shard(vec![vec![0.0; 2]; 64], vec![0; 64]); 8];
        assert_eq!(test_chunk_rows(&eight, 512, 2), 64);
        // Ragged shards and empty ones: the mean over the non-empty.
        let mut ragged = vec![shard(vec![vec![0.0; 2]; 10], vec![0; 10]); 3];
        ragged.push(ClientShard::empty(2));
        ragged.push(shard(vec![vec![0.0; 2]; 31], vec![0; 31]));
        assert_eq!(test_chunk_rows(&ragged, 100, 2), 16);
        // No shards: one chunk per worker.
        assert_eq!(test_chunk_rows(&[], 101, 2), 51);
        assert_eq!(test_chunk_rows(&[ClientShard::empty(2)], 7, 4), 2);
    }

    #[test]
    fn fused_evaluation_handles_empty_inputs() {
        use agsfl_exec::Executor;
        let model = Mlp::new(2, &[], 2);
        let params = vec![0.0; model.num_params()];
        let exec = Executor::new(4);
        let empty = global_evaluation(&model, &params, &[], &ClientShard::empty(2), &exec);
        assert_eq!(empty.train_loss, 0.0);
        assert_eq!(empty.train_accuracy, 0.0);
        assert_eq!(empty.test_accuracy, 0.0);
        // Empty shards in a non-empty list are skipped, like global_loss.
        let a = shard(vec![vec![1.0, 0.0]; 2], vec![0, 0]);
        let with_hole = vec![a.clone(), ClientShard::empty(2), a];
        let fused = global_evaluation(&model, &params, &with_hole, &ClientShard::empty(2), &exec);
        assert_eq!(fused.train_loss, global_loss(&model, &params, &with_hole));
    }

    #[test]
    fn global_accuracy_matches_model_accuracy_single_shard() {
        let model = Mlp::new(3, &[], 2);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let params = model.init_params(&mut rng);
        let s = shard(vec![vec![0.1, 0.2, 0.3], vec![0.3, 0.2, 0.1]], vec![0, 1]);
        let a = global_accuracy(&model, &params, std::slice::from_ref(&s));
        let b = model.accuracy(&params, &s.features, &s.labels);
        assert!((a - b).abs() < 1e-6);
    }
}
