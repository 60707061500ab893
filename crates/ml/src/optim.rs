//! Optimizers operating on flat parameter vectors.
//!
//! Federated learning in the paper uses plain synchronous SGD with step size
//! `η` (Eq. (1)): `w(m) = w(m-1) - η ∇_s L(w(m-1))`. [`sgd_step`] implements
//! exactly that.
//!
//! # Examples
//!
//! ```
//! use agsfl_ml::optim::sgd_step;
//!
//! let mut w = vec![1.0, 2.0];
//! sgd_step(&mut w, &[0.5, -1.0], 0.1);
//! assert_eq!(w, vec![0.95, 2.1]);
//! ```

use agsfl_tensor::vecops;

/// Applies one SGD step `w -= lr * grad` in place.
///
/// # Panics
///
/// Panics if `weights.len() != grad.len()`.
pub fn sgd_step(weights: &mut [f32], grad: &[f32], lr: f32) {
    vecops::axpy(weights, -lr, grad);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sgd_step_matches_axpy() {
        let mut w = vec![1.0, -1.0, 0.5];
        sgd_step(&mut w, &[1.0, 1.0, 1.0], 0.1);
        assert_eq!(w, vec![0.9, -1.1, 0.4]);
    }

    proptest! {
        #[test]
        fn prop_sgd_step_is_linear_in_lr(
            w0 in proptest::collection::vec(-5.0f32..5.0, 1..20),
            lr in 0.001f32..1.0,
        ) {
            let grad: Vec<f32> = w0.iter().map(|x| x * 0.5 + 0.1).collect();
            let mut one_step = w0.clone();
            sgd_step(&mut one_step, &grad, lr);
            let mut two_half_steps = w0.clone();
            sgd_step(&mut two_half_steps, &grad, lr / 2.0);
            sgd_step(&mut two_half_steps, &grad, lr / 2.0);
            for i in 0..w0.len() {
                prop_assert!((one_step[i] - two_half_steps[i]).abs() < 1e-4);
            }
        }
    }
}
