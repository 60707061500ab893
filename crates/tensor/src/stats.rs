//! Small statistics helpers used by the experiment harness.
//!
//! The paper reports empirical CDFs (Fig. 4, right panel) and time series of
//! loss/accuracy; [`Ecdf`] backs the former.
//!
//! # Examples
//!
//! ```
//! use agsfl_tensor::stats::Ecdf;
//!
//! let cdf = Ecdf::new(vec![1.0, 2.0, 2.0, 4.0]);
//! assert_eq!(cdf.eval(0.5), 0.0);
//! assert_eq!(cdf.eval(2.0), 0.75);
//! assert_eq!(cdf.eval(10.0), 1.0);
//! ```

use serde::{Deserialize, Serialize};

/// Empirical cumulative distribution function over a set of samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f32>,
}

impl Ecdf {
    /// Builds an ECDF from raw samples (the samples are sorted internally;
    /// NaN samples are dropped).
    pub fn new(mut samples: Vec<f32>) -> Self {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN removed above"));
        Self { sorted: samples }
    }

    /// Number of (non-NaN) samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if the ECDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Evaluates `P(X <= x)`. Returns `0.0` for an empty ECDF.
    pub fn eval(&self, x: f32) -> f32 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point gives the count of samples <= x.
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f32 / self.sorted.len() as f32
    }

    /// Returns the `q`-quantile (`q` in `[0, 1]`) using the nearest-rank
    /// method. Returns `None` for an empty ECDF.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&self, q: f32) -> Option<f32> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.sorted.is_empty() {
            return None;
        }
        let idx =
            ((q * (self.sorted.len() - 1) as f32).round() as usize).min(self.sorted.len() - 1);
        Some(self.sorted[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ecdf_eval_known_values() {
        let cdf = Ecdf::new(vec![4.0, 1.0, 2.0, 2.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.eval(0.0), 0.0);
        assert_eq!(cdf.eval(1.0), 0.25);
        assert_eq!(cdf.eval(2.0), 0.75);
        assert_eq!(cdf.eval(3.9), 0.75);
        assert_eq!(cdf.eval(4.0), 1.0);
    }

    #[test]
    fn ecdf_drops_nan_and_handles_empty() {
        let cdf = Ecdf::new(vec![f32::NAN]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.eval(1.0), 0.0);
        assert_eq!(cdf.quantile(0.5), None);
    }

    #[test]
    fn ecdf_quantiles() {
        let cdf = Ecdf::new((1..=5).map(|x| x as f32).collect());
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(5.0));
        assert_eq!(cdf.quantile(0.5), Some(3.0));
    }

    proptest! {
        #[test]
        fn prop_ecdf_is_monotone_in_x(samples in proptest::collection::vec(-50.0f32..50.0, 1..40)) {
            let cdf = Ecdf::new(samples);
            let mut prev = 0.0f32;
            let mut x = -60.0f32;
            while x <= 60.0 {
                let v = cdf.eval(x);
                prop_assert!(v >= prev - 1e-6);
                prop_assert!((0.0..=1.0).contains(&v));
                prev = v;
                x += 5.0;
            }
        }
    }
}
