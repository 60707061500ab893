//! The practical derivative-sign estimator of Section IV-E.

use crate::RoundFeedback;

/// Estimates `∂τ_m/∂k` at `k_m` from a round's three single-sample losses
/// (Eqs. (10)–(11) of the paper), or `None` if the round carries no usable
/// estimate. Exposed apart from [`derivative_sign`] because the value-based
/// baseline uses the raw estimate without the `sign(·)`.
///
/// The estimator maps the time of one hypothetical `k'`-element round onto
/// the loss interval achieved by the actual `k_m`-element round:
///
/// ```text
/// τ̂_m(k') = θ_m(k') · (L̃(w(m-1)) − L̃(w(m))) / (L̃(w(m-1)) − L̃(w'(m)))
/// ŝ_m = sign( (τ_m(k_m) − τ̂_m(k')) / (k_m − k') )
/// ```
///
/// with `τ_m(k_m)` the feedback's `round_time`, `θ_m(k')` its
/// `probe_round_time` and the three losses its `probe_loss_*`. A round that
/// ran no probe, or probed at `k' = k_m`, has no estimate. When either
/// single-sample loss fails to decrease (`L̃(w(m-1)) ≤ L̃(w(m))` or
/// `L̃(w(m-1)) ≤ L̃(w'(m))`), Eq. (10) has no physical meaning and the
/// estimate is `None` too; the online algorithms then leave `k` unchanged
/// for that round.
pub fn derivative(feedback: &RoundFeedback) -> Option<f64> {
    let k = feedback.k_used as f64;
    let k_alt = feedback.probe_k? as f64;
    if k == k_alt {
        return None;
    }
    let loss_prev = feedback.probe_loss_prev?;
    let drop_actual = loss_prev - feedback.probe_loss_now?;
    let drop_alt = loss_prev - feedback.probe_loss_alt?;
    // Both one-round loss decreases must be positive for the mapping in
    // Eq. (10) to make sense.
    if drop_actual <= 0.0 || drop_alt <= 0.0 {
        return None;
    }
    let tau_alt = feedback.probe_round_time? * drop_actual / drop_alt;
    let derivative = (feedback.round_time - tau_alt) / (k - k_alt);
    derivative.is_finite().then_some(derivative)
}

/// The estimated derivative sign `ŝ_m ∈ {-1, 0, 1}`, or `None` if
/// [`derivative`] has no estimate this round.
///
/// # Examples
///
/// ```
/// use agsfl_online::{derivative_sign, RoundFeedback};
///
/// // The smaller k' makes the same loss progress in less time, so the
/// // derivative with respect to k is positive (k should decrease).
/// let sign = derivative_sign(&RoundFeedback {
///     k_used: 100,
///     round_time: 10.0,
///     probe_loss_prev: Some(2.0),
///     probe_loss_now: Some(1.9),
///     probe_loss_alt: Some(1.9),
///     probe_round_time: Some(8.0),
///     probe_k: Some(80),
///     loss_decrease: None,
/// });
/// assert_eq!(sign, Some(1));
/// ```
pub fn derivative_sign(feedback: &RoundFeedback) -> Option<i8> {
    derivative(feedback).map(|d| {
        if d > 0.0 {
            1
        } else if d < 0.0 {
            -1
        } else {
            0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A probed round: `k` and its probe `k'`, the losses
    /// `[L̃(w(m-1)), L̃(w(m)), L̃(w'(m))]`, `τ_m(k)` and `θ_m(k')`.
    fn probed(
        k: usize,
        k_alt: usize,
        [loss_prev, loss_now, loss_alt]: [f64; 3],
        round_time: f64,
        alt_round_time: f64,
    ) -> RoundFeedback {
        RoundFeedback {
            k_used: k,
            round_time,
            probe_loss_prev: Some(loss_prev),
            probe_loss_now: Some(loss_now),
            probe_loss_alt: Some(loss_alt),
            probe_round_time: Some(alt_round_time),
            probe_k: Some(k_alt),
            loss_decrease: None,
        }
    }

    fn base() -> RoundFeedback {
        probed(200, 150, [3.0, 2.8, 2.85], 6.0, 5.0)
    }

    #[test]
    fn positive_derivative_when_smaller_k_is_cheaper_per_loss() {
        // k' reaches almost the same loss in less time: τ̂(k') < τ(k), and
        // k > k', so the derivative is positive.
        let feedback = RoundFeedback {
            probe_loss_alt: Some(2.8),
            ..base()
        };
        assert_eq!(derivative_sign(&feedback), Some(1));
    }

    #[test]
    fn negative_derivative_when_smaller_k_is_much_slower() {
        // k' barely reduces the loss, so mapped to the same loss interval it
        // would take far longer: τ̂(k') > τ(k) ⇒ negative derivative.
        let feedback = RoundFeedback {
            probe_loss_alt: Some(2.99),
            ..base()
        };
        assert_eq!(derivative_sign(&feedback), Some(-1));
    }

    #[test]
    fn unavailable_when_losses_do_not_decrease() {
        let no_actual_drop = RoundFeedback {
            probe_loss_now: Some(3.1),
            ..base()
        };
        assert_eq!(derivative_sign(&no_actual_drop), None);
        let no_alt_drop = RoundFeedback {
            probe_loss_alt: Some(3.0),
            ..base()
        };
        assert_eq!(derivative_sign(&no_alt_drop), None);
    }

    #[test]
    fn unavailable_when_k_equals_probe() {
        let same_k = RoundFeedback {
            probe_k: Some(200),
            ..base()
        };
        assert_eq!(derivative_sign(&same_k), None);
    }

    #[test]
    fn derivative_value_matches_formula() {
        let d = derivative(&base()).unwrap();
        let tau_alt = 5.0 * (3.0 - 2.8) / (3.0 - 2.85);
        let expected = (6.0 - tau_alt) / (200.0 - 150.0);
        assert!((d - expected).abs() < 1e-12);
    }

    #[test]
    fn exactly_equal_times_give_zero_sign() {
        // Construct inputs where τ̂(k') == τ(k).
        let feedback = probed(100, 50, [2.0, 1.5, 1.5], 4.0, 4.0);
        assert_eq!(derivative_sign(&feedback), Some(0));
    }

    proptest! {
        #[test]
        fn prop_sign_matches_derivative_sign(
            k in 100usize..1000,
            dk in 1usize..100,
            loss_prev in 1.0f64..5.0,
            drop_actual in 0.001f64..0.5,
            drop_alt in 0.001f64..0.5,
            round_time in 0.5f64..50.0,
            alt_round_time in 0.5f64..50.0,
        ) {
            let feedback = probed(
                k,
                k - dk,
                [loss_prev, loss_prev - drop_actual, loss_prev - drop_alt],
                round_time,
                alt_round_time,
            );
            let d = derivative(&feedback).unwrap();
            let s = derivative_sign(&feedback).unwrap();
            prop_assert_eq!(s as f64, d.signum() * if d == 0.0 { 0.0 } else { 1.0 });
        }
    }
}
