//! Free functions over flat `f32` slices.
//!
//! Flattened model parameter vectors, gradient vectors and gradient residual
//! accumulators in the higher-level crates are plain `Vec<f32>`/`&[f32]`
//! values; this module provides the handful of BLAS-level-1 style operations
//! they need.
//!
//! # Examples
//!
//! ```
//! use agsfl_tensor::vecops;
//!
//! let mut w = vec![1.0, 2.0, 3.0];
//! vecops::axpy(&mut w, -0.5, &[2.0, 2.0, 2.0]);
//! assert_eq!(w, vec![0.0, 1.0, 2.0]);
//! assert_eq!(vecops::argmax(&w), Some(2));
//! ```

/// Dot product of two equally long slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot: length mismatch {} vs {}",
        a.len(),
        b.len()
    );
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// In-place AXPY update `y += alpha * x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    assert_eq!(
        y.len(),
        x.len(),
        "axpy: length mismatch {} vs {}",
        y.len(),
        x.len()
    );
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// In-place scalar multiplication `y *= alpha`.
pub fn scale(y: &mut [f32], alpha: f32) {
    for yi in y.iter_mut() {
        *yi *= alpha;
    }
}

/// Fills the slice with zeros.
pub fn zero(y: &mut [f32]) {
    for yi in y.iter_mut() {
        *yi = 0.0;
    }
}

/// Index of the maximum element, `None` for an empty slice.
///
/// NaN elements are never selected; if every element is NaN the first index is
/// returned.
pub fn argmax(a: &[f32]) -> Option<usize> {
    if a.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut best_val = a[0];
    for (i, &v) in a.iter().enumerate().skip(1) {
        if v > best_val || best_val.is_nan() {
            best = i;
            best_val = v;
        }
    }
    Some(best)
}

/// Arithmetic mean, `0.0` for an empty slice.
pub fn mean(a: &[f32]) -> f32 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f32>() / a.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_known_value() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn axpy_and_friends() {
        let mut y = vec![1.0, 1.0];
        axpy(&mut y, 2.0, &[1.0, 3.0]);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn scale_and_zero() {
        let mut y = vec![2.0, -4.0];
        scale(&mut y, 0.5);
        assert_eq!(y, vec![1.0, -2.0]);
        zero(&mut y);
        assert_eq!(y, vec![0.0, 0.0]);
    }

    #[test]
    fn argmax_behaviour() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0]), Some(0));
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        // NaN at the front is skipped over.
        assert_eq!(argmax(&[f32::NAN, 1.0, 2.0]), Some(2));
    }

    #[test]
    fn mean_known_values() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    #[should_panic]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    proptest! {
        #[test]
        fn prop_dot_symmetry(a in proptest::collection::vec(-10.0f32..10.0, 1..50)) {
            let b: Vec<f32> = a.iter().map(|x| x * 0.5 - 1.0).collect();
            let ab = dot(&a, &b);
            let ba = dot(&b, &a);
            prop_assert!((ab - ba).abs() <= 1e-3 * (1.0 + ab.abs()));
        }

        #[test]
        fn prop_axpy_matches_manual(
            y0 in proptest::collection::vec(-5.0f32..5.0, 1..30),
            alpha in -3.0f32..3.0,
        ) {
            let x: Vec<f32> = y0.iter().map(|v| v + 1.0).collect();
            let mut y = y0.clone();
            axpy(&mut y, alpha, &x);
            for i in 0..y.len() {
                prop_assert!((y[i] - (y0[i] + alpha * x[i])).abs() < 1e-4);
            }
        }

        #[test]
        fn prop_argmax_returns_maximum(a in proptest::collection::vec(-100.0f32..100.0, 1..50)) {
            let idx = argmax(&a).unwrap();
            for &v in &a {
                prop_assert!(a[idx] >= v);
            }
        }
    }
}
