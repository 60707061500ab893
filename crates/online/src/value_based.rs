//! Value-based derivative descent baseline.

use agsfl_wire::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use serde::{Deserialize, Serialize};

use crate::sign_ogd::{SearchInterval, SignOgd};

/// Online gradient (derivative) descent that uses the *value* of the
/// estimated derivative rather than only its sign — the first baseline of
/// Fig. 5 ("Value-based gradient/derivative descent").
///
/// The update is `k_{m+1} = P_K(k_m − δ_m · d̂_m)` with the same step size
/// schedule `δ_m = B/√(2m)` as Algorithm 2 and the derivative estimate of
/// Section IV-E. Because `d̂_m` is a noisy ratio of time and loss
/// differences, its magnitude can vary over orders of magnitude, which is why
/// the paper's sign-only update behaves much better in practice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValueBasedDescent {
    /// Algorithm 2's interval, decision and step schedule, stepped with the
    /// derivative's value where Algorithm 2 steps with its sign.
    descent: SignOgd,
}

impl ValueBasedDescent {
    /// Creates the baseline with search interval `K` and initial `k_1`.
    pub fn new(interval: SearchInterval, initial_k: f64) -> Self {
        Self {
            descent: SignOgd::new(interval, initial_k),
        }
    }

    /// The current (continuous) decision `k_m`.
    pub fn k(&self) -> f64 {
        self.descent.k()
    }

    /// The search interval.
    pub fn interval(&self) -> &SearchInterval {
        self.descent.interval()
    }

    /// The step size that will scale the next derivative estimate.
    #[cfg(test)]
    fn next_step_size(&self) -> f64 {
        self.descent.next_step_size()
    }

    /// The probe sparsity `k' = k − δ/2` used to estimate the derivative.
    pub fn probe_k(&self) -> f64 {
        self.descent.probe_k()
    }

    /// Consumes one derivative estimate (`None` or a non-finite value leaves
    /// `k` unchanged) and returns the new `k`.
    pub fn step(&mut self, derivative: Option<f64>) -> f64 {
        match derivative {
            Some(d) if d.is_finite() => self.descent.descend(d),
            _ => self.k(),
        }
    }
}

/// The bytes of the underlying descent state: `interval, k, m`.
impl Snapshot for ValueBasedDescent {
    fn write_state(&self, w: &mut SnapshotWriter) {
        self.descent.write_state(w);
    }

    fn read_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.descent.read_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_scales_with_derivative_value() {
        let interval = SearchInterval::new(1.0, 1001.0);
        let mut small = ValueBasedDescent::new(interval, 500.0);
        let mut large = ValueBasedDescent::new(interval, 500.0);
        small.step(Some(0.001));
        large.step(Some(0.1));
        assert!(large.k() < small.k());
        assert!(small.k() < 500.0);
    }

    #[test]
    fn projection_keeps_k_in_interval() {
        let interval = SearchInterval::new(10.0, 100.0);
        let mut alg = ValueBasedDescent::new(interval, 50.0);
        alg.step(Some(1e9));
        assert_eq!(alg.k(), 10.0);
        alg.step(Some(-1e9));
        assert_eq!(alg.k(), 100.0);
    }

    #[test]
    fn missing_or_nonfinite_derivative_is_noop() {
        let interval = SearchInterval::new(1.0, 100.0);
        let mut alg = ValueBasedDescent::new(interval, 40.0);
        alg.step(None);
        assert_eq!(alg.k(), 40.0);
        alg.step(Some(f64::NAN));
        assert_eq!(alg.k(), 40.0);
        assert_eq!(alg.next_step_size(), 99.0 / 2.0f64.sqrt());
    }

    #[test]
    fn probe_is_below_current_k() {
        let alg = ValueBasedDescent::new(SearchInterval::new(1.0, 101.0), 60.0);
        assert!(alg.probe_k() < alg.k());
        assert!(alg.probe_k() >= 1.0);
    }

    #[test]
    fn huge_derivatives_cause_oscillation_between_bounds() {
        // This is exactly the failure mode that motivates the sign-based
        // update: with derivative magnitudes ≫ 1 the iterate ping-pongs
        // between the interval end points.
        let interval = SearchInterval::new(1.0, 1001.0);
        let mut alg = ValueBasedDescent::new(interval, 500.0);
        let mut visited = Vec::new();
        for m in 0..20 {
            let d = if m % 2 == 0 { 50.0 } else { -50.0 };
            visited.push(alg.step(Some(d)));
        }
        assert!(visited.contains(&1.0));
        assert!(visited.contains(&1001.0));
    }
}
