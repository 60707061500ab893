//! Numerically careful reductions used by the neural-network layers.
//!
//! # Examples
//!
//! ```
//! use agsfl_tensor::ops;
//!
//! // Uniform logits over two classes: the loss is ln 2.
//! let loss = ops::cross_entropy_with_logits(&[1.0, 1.0], 0);
//! assert!((loss - std::f32::consts::LN_2).abs() < 1e-6);
//! assert_eq!(ops::relu(-1.5), 0.0);
//! ```

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

    /// NaNs of both signs and payloads, ±0, ±inf, the subnormal extremes
    /// and the normal extremes.
    const SPECIAL_BITS: [u32; 14] = [
        0x7fc0_0000, // quiet NaN
        0xffc0_0000, // negative quiet NaN
        0x7f80_0001, // signalling NaN
        0xffff_ffff, // negative NaN, full payload
        0x0000_0000, // +0
        0x8000_0000, // -0
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x0000_0001, // smallest positive subnormal
        0x8000_0001, // smallest negative subnormal
        0x007f_ffff, // largest positive subnormal
        0x807f_ffff, // largest negative subnormal
        0x7f7f_ffff, // f32::MAX
        0xff7f_ffff, // f32::MIN
    ];

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
        let logits = [0.5f32, -1.0, 2.0];
        let z: f32 = logits.iter().map(|x| x.exp()).sum();
        let p = logits.map(|x| x.exp() / z);
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
        /// The MLP reads ReLU's derivative off the post-ReLU activations:
        /// `relu_grad(relu(z))` is `relu_grad(z)` for every `f32`. Each
        /// case checks every special value — NaN, ±0, ±inf, subnormals —
        /// and one uniform bit pattern.
        #[test]
        fn prop_relu_grad_reads_the_same_off_relu(random in 0u32..=u32::MAX) {
            for bits in SPECIAL_BITS.into_iter().chain([random]) {
                let z = f32::from_bits(bits);
                let (got, want) = (relu_grad(relu(z)).to_bits(), relu_grad(z).to_bits());
                prop_assert_eq!(got, want, "z = {:#x}", bits);
            }
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
