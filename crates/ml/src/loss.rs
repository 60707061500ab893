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

/// Gradient of the mean cross-entropy with respect to the logits.
///
/// Returns a matrix of the same shape as `logits` containing
/// `(softmax(logits) - one_hot(label)) / batch_size` per row, which is the
/// quantity back-propagated through the network layers.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or any label is out of range.
fn cross_entropy_logit_grad(logits: &Matrix, labels: &[usize]) -> Matrix {
    assert_eq!(
        logits.rows(),
        labels.len(),
        "cross_entropy_logit_grad: {} logit rows vs {} labels",
        logits.rows(),
        labels.len()
    );
    let batch = labels.len().max(1) as f32;
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    for (i, &label) in labels.iter().enumerate() {
        let probs = ops::softmax(logits.row(i));
        assert!(label < logits.cols(), "label {label} out of range");
        let row = grad.row_mut(i);
        for (j, p) in probs.into_iter().enumerate() {
            row[j] = (p - if j == label { 1.0 } else { 0.0 }) / batch;
        }
    }
    grad
}

/// Loss and logit gradient in one pass (avoids recomputing the soft-max).
pub fn batch_cross_entropy_with_grad(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    (
        batch_cross_entropy(logits, labels),
        cross_entropy_logit_grad(logits, labels),
    )
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

    #[test]
    fn grad_rows_sum_to_zero() {
        let logits = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 0.0, 0.0]]);
        let grad = cross_entropy_logit_grad(&logits, &[2, 0]);
        for i in 0..grad.rows() {
            let s: f32 = grad.row(i).iter().sum();
            assert!(s.abs() < 1e-6, "row {i} sums to {s}");
        }
    }

    #[test]
    fn grad_points_away_from_true_class() {
        let logits = Matrix::from_rows(&[&[0.0, 0.0]]);
        let grad = cross_entropy_logit_grad(&logits, &[0]);
        assert!(grad.get(0, 0) < 0.0);
        assert!(grad.get(0, 1) > 0.0);
    }

    #[test]
    fn combined_matches_separate() {
        let logits = Matrix::from_rows(&[&[1.0, 2.0], &[-1.0, 0.5]]);
        let (l, g) = batch_cross_entropy_with_grad(&logits, &[1, 0]);
        assert_eq!(l, batch_cross_entropy(&logits, &[1, 0]));
        assert_eq!(g, cross_entropy_logit_grad(&logits, &[1, 0]));
    }

    #[test]
    #[should_panic]
    fn mismatched_labels_panic() {
        let logits = Matrix::zeros(2, 2);
        let _ = batch_cross_entropy(&logits, &[0]);
    }

    proptest! {
        #[test]
        fn prop_grad_is_finite_difference_of_loss(
            base in proptest::collection::vec(-3.0f32..3.0, 6),
        ) {
            // Single-sample batch, 6 logits; compare analytic gradient with a
            // central finite difference.
            let labels = [3usize];
            let logits = Matrix::from_vec(1, 6, base.clone());
            let grad = cross_entropy_logit_grad(&logits, &labels);
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
