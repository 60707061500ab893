//! Free functions over flat `f32` slices.
//!
//! Flattened model parameter vectors and logit rows in the higher-level
//! crates are plain `Vec<f32>`/`&[f32]` values; this module provides the two
//! operations they need: the SGD step's AXPY and the accuracy count's
//! arg-max.
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn axpy_known_value() {
        let mut y = vec![1.0, 1.0];
        axpy(&mut y, 2.0, &[1.0, 3.0]);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn argmax_behaviour() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0]), Some(0));
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        // NaN at the front is skipped over.
        assert_eq!(argmax(&[f32::NAN, 1.0, 2.0]), Some(2));
    }

    proptest! {
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
