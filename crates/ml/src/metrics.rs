//! Evaluation helpers: weighted global loss/accuracy over federated clients.
//!
//! The paper's global loss is the data-size-weighted average of per-client
//! losses, `L(w) = Σ_i C_i L(w, i) / C` (Section III-A); [`global_loss`] and
//! [`global_accuracy`] implement that weighting for any [`Model`].
//!
//! # Executor-sharded sweeps
//!
//! At every evaluation point the simulators sweep **all** `N` clients (and
//! the test set) at the current `D`-dimensional weights — an `O(N·D)` pass
//! that dominates wall time at `eval_every` rounds once the per-round engine
//! is parallel. The `*_parallel` variants and the fused
//! [`global_evaluation`] run those sweeps through an
//! [`agsfl_exec::Executor`] as chunked maps whose results come back in item
//! order, with the reduction performed serially on the caller's thread in
//! exactly the serial path's association. Results are therefore
//! **bit-identical** to the serial functions for every thread count:
//!
//! * per-shard losses/accuracies are computed independently (purity of
//!   [`Model`]), so each item's value matches the serial pass bit-for-bit;
//! * the test set is split into contiguous *row* chunks, which is bit-stable
//!   because [`Model::forward`] is row-independent (see the trait contract)
//!   and per-chunk correct counts merge by integer addition;
//! * the weighted folds over shards run on the caller's thread in shard
//!   order, the serial association.
//!
//! [`global_evaluation`] additionally fuses the three sweeps the figure
//! pipelines report (train loss, train accuracy, test accuracy) into one
//! parallel region over one work list, so an evaluation point spawns one
//! set of workers and forwards every shard once instead of twice.

use agsfl_exec::Executor;
use agsfl_tensor::{Matrix, MatrixView};

use crate::data::ClientShard;
use crate::loss::batch_cross_entropy;
use crate::model::Model;

/// Fraction of correctly classified rows of `x` under `params`, in `[0, 1]`.
///
/// Convenience wrapper around [`Model::accuracy`] for callers that hold the
/// model behind a reference.
pub fn accuracy(model: &dyn Model, params: &[f32], x: &Matrix, labels: &[usize]) -> f32 {
    model.accuracy(params, x, labels)
}

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

/// Number of correctly classified rows of `x` under `params`.
///
/// The integer building block behind the chunked accuracy sweeps: counts
/// merge exactly across chunks, unlike the `f32` fraction
/// [`Model::accuracy`] returns.
///
/// Takes the rows as a borrowed view, so a chunk of a larger matrix is
/// forwarded where it lies.
pub fn correct_count(
    model: &dyn Model,
    params: &[f32],
    x: MatrixView<'_>,
    labels: &[usize],
) -> usize {
    let logits = model.forward_view(params, x);
    logits
        .iter_rows()
        .zip(labels.iter())
        .filter(|(row, &label)| agsfl_tensor::vecops::argmax(row) == Some(label))
        .count()
}

/// Splits `rows` into one contiguous chunk per executor worker (or a single
/// chunk when the executor would not parallelize the sweep).
fn row_chunks(rows: usize, exec: &Executor) -> Vec<std::ops::Range<usize>> {
    if !exec.should_parallelize(rows) {
        return std::iter::once(0..rows).collect();
    }
    let chunk = rows.div_ceil(exec.threads());
    (0..rows.div_ceil(chunk))
        .map(|i| i * chunk..((i + 1) * chunk).min(rows))
        .collect()
}

/// Row-chunked accuracy sweep, in `[0, 1]`.
///
/// Bit-identical to [`Model::accuracy`] for every executor configuration:
/// each chunk's logits match the unsplit forward pass row-for-row (row
/// independence, see the [`Model`] contract) and chunk counts merge by
/// integer addition before the single final division.
pub fn accuracy_parallel(
    model: &dyn Model,
    params: &[f32],
    x: &Matrix,
    labels: &[usize],
    exec: &Executor,
) -> f32 {
    if labels.is_empty() {
        return 0.0;
    }
    let chunks = row_chunks(x.rows(), exec);
    if chunks.len() == 1 {
        // Serial fallback: forward the matrix directly, no row copy.
        return correct_count(model, params, x.view(), labels) as f32 / labels.len() as f32;
    }
    // `row_chunks` already made the parallelize-or-not decision, so the map
    // must not re-apply the executor's min-items gate to the (small) chunk
    // count — a 2-chunk sweep on a 2-thread executor should actually spawn.
    let counts = exec.clone().with_min_items(1).map_ref(&chunks, |rows| {
        correct_count(
            model,
            params,
            x.view().row_block(rows.clone()),
            &labels[rows.clone()],
        )
    });
    counts.iter().sum::<usize>() as f32 / labels.len() as f32
}

/// Executor-sharded [`global_loss`]: one parallel map over the shards, with
/// the weighted fold run serially in shard order. Bit-identical to the
/// serial function for every executor configuration.
pub fn global_loss_parallel(
    model: &dyn Model,
    params: &[f32],
    shards: &[ClientShard],
    exec: &Executor,
) -> f32 {
    let total: usize = shards.iter().map(ClientShard::len).sum();
    if total == 0 {
        return 0.0;
    }
    let losses = exec.map_ref(shards, |shard| {
        if shard.is_empty() {
            None
        } else {
            Some(model.loss(params, &shard.features, &shard.labels))
        }
    });
    let mut acc = 0.0f64;
    for (shard, loss) in shards.iter().zip(losses) {
        if let Some(loss) = loss {
            acc += loss as f64 * shard.len() as f64;
        }
    }
    (acc / total as f64) as f32
}

/// Executor-sharded [`global_accuracy`]; bit-identical to the serial
/// function for every executor configuration (same structure as
/// [`global_loss_parallel`]).
pub fn global_accuracy_parallel(
    model: &dyn Model,
    params: &[f32],
    shards: &[ClientShard],
    exec: &Executor,
) -> f32 {
    let total: usize = shards.iter().map(ClientShard::len).sum();
    if total == 0 {
        return 0.0;
    }
    let fractions = exec.map_ref(shards, |shard| {
        if shard.is_empty() {
            None
        } else {
            Some(model.accuracy(params, &shard.features, &shard.labels))
        }
    });
    let mut correct = 0.0f64;
    for (shard, frac) in shards.iter().zip(fractions) {
        if let Some(frac) = frac {
            correct += frac as f64 * shard.len() as f64;
        }
    }
    (correct / total as f64) as f32
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
    let num_shards = items.len();
    // Parallelize when either the shard list or the test set clears the
    // executor's gate; the map itself then runs with min_items = 1, because
    // the work list already encodes that decision (a few-item list on a
    // 2-thread executor must still spawn).
    let parallel = exec.should_parallelize(num_shards) || exec.should_parallelize(test.len());
    if !test.is_empty() {
        let chunk = if parallel {
            test_chunk_rows(shards, test.len(), exec.threads())
        } else {
            test.len()
        };
        items.extend(
            (0..test.len().div_ceil(chunk))
                .map(|i| EvalItem::TestChunk(i * chunk..((i + 1) * chunk).min(test.len()))),
        );
    }
    let map_exec = if parallel {
        exec.clone().with_min_items(1)
    } else {
        Executor::serial()
    };
    let partials = map_exec.map_ref(&items, |item| match item {
        EvalItem::Shard(shard) => {
            let logits = model.forward(params, &shard.features);
            let correct = logits
                .iter_rows()
                .zip(shard.labels.iter())
                .filter(|(row, &label)| agsfl_tensor::vecops::argmax(row) == Some(label))
                .count();
            EvalPartial::Shard {
                loss: batch_cross_entropy(&logits, &shard.labels),
                accuracy: correct as f32 / shard.len() as f32,
            }
        }
        EvalItem::TestChunk(rows) => EvalPartial::TestCorrect(correct_count(
            model,
            params,
            test.features.view().row_block(rows.clone()),
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

/// A labelled confusion matrix over `num_classes` classes.
///
/// Row = true class, column = predicted class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    num_classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty confusion matrix.
    pub fn new(num_classes: usize) -> Self {
        Self {
            num_classes,
            counts: vec![0; num_classes * num_classes],
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if either class index is out of range.
    pub fn record(&mut self, true_class: usize, predicted: usize) {
        assert!(true_class < self.num_classes && predicted < self.num_classes);
        self.counts[true_class * self.num_classes + predicted] += 1;
    }

    /// Fills the matrix from model predictions on a batch.
    pub fn record_batch(
        &mut self,
        model: &dyn Model,
        params: &[f32],
        x: &Matrix,
        labels: &[usize],
    ) {
        let logits = model.forward(params, x);
        for (row, &label) in logits.iter_rows().zip(labels.iter()) {
            let pred = agsfl_tensor::vecops::argmax(row).unwrap_or(0);
            self.record(label, pred);
        }
    }

    /// Count for `(true_class, predicted)`.
    pub fn count(&self, true_class: usize, predicted: usize) -> u64 {
        self.counts[true_class * self.num_classes + predicted]
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy (trace / total), `0.0` when empty.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let diag: u64 = (0..self.num_classes).map(|i| self.count(i, i)).sum();
        diag as f64 / total as f64
    }

    /// Per-class recall (`None` for classes never observed).
    pub fn recall(&self, class: usize) -> Option<f64> {
        let row_total: u64 = (0..self.num_classes).map(|j| self.count(class, j)).sum();
        if row_total == 0 {
            None
        } else {
            Some(self.count(class, class) as f64 / row_total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::ClientShard;
    use crate::model::LinearSoftmax;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn shard(features: Vec<Vec<f32>>, labels: Vec<usize>) -> ClientShard {
        let dim = features[0].len();
        let flat: Vec<f32> = features.into_iter().flatten().collect();
        ClientShard::new(Matrix::from_vec(labels.len(), dim, flat), labels)
    }

    #[test]
    fn global_loss_is_weighted_by_client_size() {
        let model = LinearSoftmax::new(2, 2);
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
        let model = LinearSoftmax::new(2, 2);
        let params = vec![0.0; model.num_params()];
        assert_eq!(global_loss(&model, &params, &[]), 0.0);
        assert_eq!(global_accuracy(&model, &params, &[]), 0.0);
    }

    #[test]
    fn global_accuracy_perfect_model() {
        let model = LinearSoftmax::new(2, 2);
        // Weights mapping feature 0 -> class 0, feature 1 -> class 1.
        let params = vec![5.0, -5.0, -5.0, 5.0, 0.0, 0.0];
        let a = shard(vec![vec![1.0, 0.0], vec![0.0, 1.0]], vec![0, 1]);
        assert_eq!(global_accuracy(&model, &params, &[a]), 1.0);
    }

    #[test]
    fn confusion_matrix_counts_and_accuracy() {
        let mut cm = ConfusionMatrix::new(3);
        cm.record(0, 0);
        cm.record(0, 1);
        cm.record(1, 1);
        cm.record(2, 2);
        assert_eq!(cm.total(), 4);
        assert_eq!(cm.count(0, 1), 1);
        assert!((cm.accuracy() - 0.75).abs() < 1e-12);
        assert_eq!(cm.recall(0), Some(0.5));
        assert_eq!(cm.recall(1), Some(1.0));
    }

    #[test]
    fn confusion_matrix_record_batch() {
        let model = LinearSoftmax::new(2, 2);
        let params = vec![5.0, -5.0, -5.0, 5.0, 0.0, 0.0];
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 0.0]]);
        let labels = vec![0, 1, 1];
        let mut cm = ConfusionMatrix::new(2);
        cm.record_batch(&model, &params, &x, &labels);
        assert_eq!(cm.total(), 3);
        assert_eq!(cm.count(1, 0), 1); // the mislabelled third sample
        assert!((cm.accuracy() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn recall_of_unseen_class_is_none() {
        let cm = ConfusionMatrix::new(2);
        assert_eq!(cm.recall(0), None);
        assert_eq!(cm.accuracy(), 0.0);
    }

    /// The evaluation-sweep invariant: serial and parallel sweeps are
    /// bit-identical for 1–8 workers, and the fused sweep matches the three
    /// individual serial functions exactly.
    #[test]
    fn serial_and_parallel_evaluations_match() {
        use agsfl_exec::Executor;
        let model = LinearSoftmax::new(6, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let params = model.init_params(&mut rng);
        let shards: Vec<ClientShard> = (0..9)
            .map(|s| {
                let n = 3 + (s * 5) % 7;
                ClientShard::new(
                    Matrix::from_fn(n, 6, |i, j| {
                        ((i * 31 + j * 17 + s * 13) % 23) as f32 * 0.1 - 1.0
                    }),
                    (0..n).map(|i| (i + s) % 4).collect(),
                )
            })
            .collect();
        let test = ClientShard::new(
            Matrix::from_fn(25, 6, |i, j| ((i * 7 + j * 29) % 19) as f32 * 0.1 - 0.9),
            (0..25).map(|i| i % 4).collect(),
        );

        let expected_loss = global_loss(&model, &params, &shards);
        let expected_acc = global_accuracy(&model, &params, &shards);
        let expected_test = model.accuracy(&params, &test.features, &test.labels);
        for threads in 1..=8 {
            let exec = Executor::new(threads).with_min_items(1);
            assert_eq!(
                global_loss_parallel(&model, &params, &shards, &exec),
                expected_loss,
                "threads={threads}"
            );
            assert_eq!(
                global_accuracy_parallel(&model, &params, &shards, &exec),
                expected_acc,
                "threads={threads}"
            );
            assert_eq!(
                accuracy_parallel(&model, &params, &test.features, &test.labels, &exec),
                expected_test,
                "threads={threads}"
            );
            let fused = global_evaluation(&model, &params, &shards, &test, &exec);
            assert_eq!(fused.train_loss, expected_loss, "threads={threads}");
            assert_eq!(fused.train_accuracy, expected_acc, "threads={threads}");
            assert_eq!(fused.test_accuracy, expected_test, "threads={threads}");
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
        let model = LinearSoftmax::new(2, 2);
        let params = vec![0.0; model.num_params()];
        let exec = Executor::new(4).with_min_items(1);
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
        let model = LinearSoftmax::new(3, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let params = model.init_params(&mut rng);
        let s = shard(vec![vec![0.1, 0.2, 0.3], vec![0.3, 0.2, 0.1]], vec![0, 1]);
        let a = global_accuracy(&model, &params, std::slice::from_ref(&s));
        let b = model.accuracy(&params, &s.features, &s.labels);
        assert!((a - b).abs() < 1e-6);
    }
}
