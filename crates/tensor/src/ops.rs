//! Numerically careful reductions used by the neural-network layers.
//!
//! # Examples
//!
//! ```
//! use agsfl_tensor::ops;
//!
//! let probs = ops::softmax(&[1.0, 2.0, 3.0]);
//! assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
//! assert!(probs[2] > probs[1] && probs[1] > probs[0]);
//! ```

/// Numerically stable soft-max of a logit vector.
///
/// Returns a probability vector that sums to one. An empty input yields an
/// empty output.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Numerically stable `log(sum(exp(x)))`.
///
/// Returns negative infinity for an empty slice.
fn log_sum_exp(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return f32::NEG_INFINITY;
    }
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if max.is_infinite() {
        return max;
    }
    max + xs.iter().map(|&x| (x - max).exp()).sum::<f32>().ln()
}

/// Negative log-likelihood of class `target` under `logits`, computed in a
/// numerically stable way (equivalent to cross-entropy after soft-max).
///
/// # Panics
///
/// Panics if `target >= logits.len()`.
pub fn cross_entropy_with_logits(logits: &[f32], target: usize) -> f32 {
    assert!(target < logits.len(), "target {target} out of range");
    log_sum_exp(logits) - logits[target]
}

/// Rectified linear unit `max(x, 0)`: `x` where `x > 0`, else `+0.0`, so
/// NaN and `-0.0` map to `+0.0`.
///
/// Written as the comparison rather than `f32::max`, whose result on
/// `-0.0` is unspecified and differs between optimized and unoptimized
/// builds; an optimized build compiles both to the same x86 `max(x, 0)`.
#[inline]
pub fn relu(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// Derivative of [`relu`] with the convention `relu'(0) = 0`.
#[inline]
pub fn relu_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_empty() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn log_sum_exp_known_values() {
        assert_eq!(log_sum_exp(&[]), f32::NEG_INFINITY);
        assert!((log_sum_exp(&[0.0, 0.0]) - std::f32::consts::LN_2).abs() < 1e-6);
        // Large values must not overflow.
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert!((v - (1000.0 + std::f32::consts::LN_2)).abs() < 1e-3);
    }

    #[test]
    fn cross_entropy_matches_manual_softmax() {
        let logits = [0.5, -1.0, 2.0];
        let p = softmax(&logits);
        for (target, &pt) in p.iter().enumerate() {
            let ce = cross_entropy_with_logits(&logits, target);
            assert!((ce + pt.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn activation_functions() {
        assert_eq!(relu(-2.0), 0.0);
        assert_eq!(relu(2.0), 2.0);
        assert_eq!(relu_grad(-2.0), 0.0);
        assert_eq!(relu_grad(2.0), 1.0);
    }

    proptest! {
        #[test]
        fn prop_softmax_is_probability_vector(
            logits in proptest::collection::vec(-20.0f32..20.0, 1..20)
        ) {
            let p = softmax(&logits);
            prop_assert_eq!(p.len(), logits.len());
            prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
            prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }

        #[test]
        fn prop_cross_entropy_nonnegative(
            logits in proptest::collection::vec(-10.0f32..10.0, 2..10),
            t_raw in 0usize..100,
        ) {
            let target = t_raw % logits.len();
            let ce = cross_entropy_with_logits(&logits, target);
            prop_assert!(ce >= -1e-4);
        }
    }
}
