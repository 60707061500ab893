//! Cross-entropy loss over mini-batches of logits.
//!
//! The paper trains classification models with the standard soft-max
//! cross-entropy objective; the global loss `L(w)` is the data-size-weighted
//! average of the per-client losses (Section III-A).
//!
//! # Examples
//!
//! ```
//! use agsfl_ml::loss::batch_cross_entropy;
//! use agsfl_tensor::Matrix;
//!
//! let logits = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]);
//! let loss = batch_cross_entropy(&logits, &[0, 1]);
//! assert!(loss > 0.0 && loss < 0.2);
//! ```

use agsfl_tensor::ops;
use agsfl_tensor::Matrix;

/// Mean cross-entropy of a batch of logits against integer class labels.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or any label is out of range.
pub fn batch_cross_entropy(logits: &Matrix, labels: &[usize]) -> f32 {
    assert_eq!(
        logits.rows(),
        labels.len(),
        "batch_cross_entropy: {} logit rows vs {} labels",
        logits.rows(),
        labels.len()
    );
    if labels.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f32;
    for (row, &label) in logits.iter_rows().zip(labels.iter()) {
        total += ops::cross_entropy_with_logits(row, label);
    }
    total / labels.len() as f32
}

/// Mean cross-entropy of a batch of logits and its gradient with respect
/// to the logits, in one pass.
///
/// The gradient has the shape of `logits` and holds
/// `(softmax(logits) - one_hot(label)) / batch_size` per row, the quantity
/// back-propagated through the network layers. Each row's maximum,
/// exponentials and their sum are computed once: the exponentials land in
/// the gradient row, and the row's loss is read off the same maximum and
/// sum. The loss is [`batch_cross_entropy`]'s and the gradient the
/// per-row soft-max's, bit for bit (a NaN up to its sign and payload, which
/// Rust leaves unspecified).
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or any label is out of range.
pub fn batch_cross_entropy_with_grad(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    assert_eq!(
        logits.rows(),
        labels.len(),
        "batch_cross_entropy_with_grad: {} logit rows vs {} labels",
        logits.rows(),
        labels.len()
    );
    let batch = labels.len().max(1) as f32;
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    let mut total = 0.0f32;
    for (i, &label) in labels.iter().enumerate() {
        let row = logits.row(i);
        assert!(label < row.len(), "label {label} out of range");
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let out = grad.row_mut(i);
        let mut sum = 0.0f32;
        for (g, &x) in out.iter_mut().zip(row) {
            *g = (x - max).exp();
            sum += *g;
        }
        // `ops::cross_entropy_with_logits`: an infinite maximum is the
        // row's log-sum-exp.
        let log_sum_exp = if max.is_infinite() {
            max
        } else {
            max + sum.ln()
        };
        total += log_sum_exp - row[label];
        for (j, g) in out.iter_mut().enumerate() {
            *g = (*g / sum - if j == label { 1.0 } else { 0.0 }) / batch;
        }
    }
    let loss = if labels.is_empty() {
        0.0
    } else {
        total / labels.len() as f32
    };
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn loss_of_perfect_prediction_is_small() {
        let logits = Matrix::from_rows(&[&[20.0, 0.0], &[0.0, 20.0]]);
        assert!(batch_cross_entropy(&logits, &[0, 1]) < 1e-6);
    }

    #[test]
    fn loss_of_uniform_prediction_is_log_classes() {
        let logits = Matrix::zeros(3, 4);
        let loss = batch_cross_entropy(&logits, &[0, 1, 2]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn empty_batch_is_zero_loss() {
        let logits = Matrix::zeros(0, 4);
        assert_eq!(batch_cross_entropy(&logits, &[]), 0.0);
    }

    /// The two passes the one-pass function replaced, kept as its spec:
    /// the loss through [`batch_cross_entropy`], then the gradient through
    /// a soft-max of each row into a fresh `Vec`.
    fn two_pass(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
        let batch = labels.len().max(1) as f32;
        let mut grad = Matrix::zeros(logits.rows(), logits.cols());
        for (i, &label) in labels.iter().enumerate() {
            let row = logits.row(i);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            let probs: Vec<f32> = exps.into_iter().map(|e| e / sum).collect();
            for (j, p) in probs.into_iter().enumerate() {
                grad.row_mut(i)[j] = (p - if j == label { 1.0 } else { 0.0 }) / batch;
            }
        }
        (batch_cross_entropy(logits, labels), grad)
    }

    /// The bits of each value, every NaN as one canonical NaN: Rust leaves
    /// the sign and payload of a NaN that arithmetic produces unspecified
    /// (x86 passes on the first operand's, and the optimizer may swap the
    /// operands of an addition), so only NaN-ness is comparable.
    fn bits(values: &[f32]) -> Vec<u32> {
        let canonical = |v: &f32| if v.is_nan() { f32::NAN } else { *v }.to_bits();
        values.iter().map(canonical).collect()
    }

    fn assert_matches_two_pass(logits: &Matrix, labels: &[usize]) {
        let (loss, grad) = batch_cross_entropy_with_grad(logits, labels);
        let (want_loss, want_grad) = two_pass(logits, labels);
        assert_eq!(bits(&[loss]), bits(&[want_loss]), "loss of {logits:?}");
        let (got, want) = (bits(grad.as_slice()), bits(want_grad.as_slice()));
        assert_eq!(got, want, "gradient of {logits:?}");
    }

    #[test]
    fn one_pass_matches_two_passes_on_special_values() {
        let inf = f32::INFINITY;
        let nan = f32::NAN;
        let rows: [[f32; 3]; 10] = [
            [1.0, -2.0, 0.5],
            [inf, 0.0, 1.0],
            [-inf, 0.0, 1.0],
            [inf, inf, 0.0],
            [-inf, -inf, -inf],
            [nan, 0.0, 1.0],
            [nan, nan, nan],
            [-0.0, 0.0, -0.0],
            [1000.0, -1000.0, 0.0],
            [f32::MIN_POSITIVE / 4.0, -f32::MAX, f32::MAX],
        ];
        for row in rows {
            for label in 0..3 {
                assert_matches_two_pass(&Matrix::from_rows(&[&row]), &[label]);
            }
        }
        let all: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        assert_matches_two_pass(&Matrix::from_rows(&all), &[0, 1, 2, 0, 1, 2, 0, 1, 2, 0]);
        assert_matches_two_pass(&Matrix::zeros(0, 4), &[]);
        let (loss, grad) = batch_cross_entropy_with_grad(&Matrix::zeros(0, 4), &[]);
        assert_eq!((loss.to_bits(), grad.shape()), (0, (0, 4)));
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        let logits = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 0.0, 0.0]]);
        let (_, grad) = batch_cross_entropy_with_grad(&logits, &[2, 0]);
        for i in 0..grad.rows() {
            let s: f32 = grad.row(i).iter().sum();
            assert!(s.abs() < 1e-6, "row {i} sums to {s}");
        }
    }

    #[test]
    fn grad_is_the_shift_invariant_soft_max_less_the_label() {
        let probs = |row: &[f32]| {
            let (_, grad) = batch_cross_entropy_with_grad(&Matrix::from_rows(&[row]), &[0]);
            let mut p = grad.row(0).to_vec();
            p[0] += 1.0;
            p
        };
        let (a, b) = (probs(&[1.0, 2.0, 3.0]), probs(&[1001.0, 1002.0, 1003.0]));
        assert!((a.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(a[2] > a[1] && a[1] > a[0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn grad_points_away_from_true_class() {
        let logits = Matrix::from_rows(&[&[0.0, 0.0]]);
        let (_, grad) = batch_cross_entropy_with_grad(&logits, &[0]);
        assert!(grad.get(0, 0) < 0.0);
        assert!(grad.get(0, 1) > 0.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_labels_panic() {
        let logits = Matrix::zeros(2, 2);
        let _ = batch_cross_entropy(&logits, &[0]);
    }

    proptest! {
        #[test]
        fn prop_one_pass_matches_two_passes(
            rows in 0usize..5,
            values in proptest::collection::vec(-40.0f32..40.0, 20),
            label_seed in 0usize..1000,
        ) {
            let logits = Matrix::from_vec(rows, 4, values[..rows * 4].to_vec());
            let labels: Vec<usize> = (0..rows).map(|i| (label_seed + i) % 4).collect();
            assert_matches_two_pass(&logits, &labels);
        }

        #[test]
        fn prop_grad_is_finite_difference_of_loss(
            base in proptest::collection::vec(-3.0f32..3.0, 6),
        ) {
            // Single-sample batch, 6 logits; compare analytic gradient with a
            // central finite difference.
            let labels = [3usize];
            let logits = Matrix::from_vec(1, 6, base.clone());
            let (_, grad) = batch_cross_entropy_with_grad(&logits, &labels);
            let eps = 1e-2f32;
            for j in 0..6 {
                let mut plus = base.clone();
                plus[j] += eps;
                let mut minus = base.clone();
                minus[j] -= eps;
                let lp = batch_cross_entropy(&Matrix::from_vec(1, 6, plus), &labels);
                let lm = batch_cross_entropy(&Matrix::from_vec(1, 6, minus), &labels);
                let fd = (lp - lm) / (2.0 * eps);
                prop_assert!((fd - grad.get(0, j)).abs() < 2e-2,
                    "j={} fd={} analytic={}", j, fd, grad.get(0, j));
            }
        }
    }
}
