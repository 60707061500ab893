//! Deterministic random initialisation of weights and synthetic data.
//!
//! All randomness in the simulator flows through [`rand::Rng`] instances owned
//! by the caller, so experiments are reproducible from a single seed.
//!
//! # Examples
//!
//! ```
//! use agsfl_tensor::init;
//! use rand::SeedableRng;
//! use rand::rngs::StdRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let w = init::xavier_uniform(784, 64, &mut rng);
//! assert_eq!(w.shape(), (784, 64));
//! ```

use rand::Rng;

use crate::Matrix;

/// Draws a standard-normal sample using the Box–Muller transform.
///
/// `rand` 0.8 without `rand_distr` has no normal distribution, so we provide a
/// tiny, dependency-free implementation. The second Box–Muller output is
/// discarded for simplicity; the initialisers below are not in a hot path.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // Avoid u1 == 0 which would make ln(0) = -inf.
    let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
    let u2: f32 = rng.gen::<f32>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Draws a normal sample with the given `mean` and standard deviation `std`.
pub fn normal<R: Rng + ?Sized>(mean: f32, std: f32, rng: &mut R) -> f32 {
    mean + std * standard_normal(rng)
}

/// Fills a vector of length `n` with i.i.d. normal samples.
pub fn normal_vec<R: Rng + ?Sized>(n: usize, mean: f32, std: f32, rng: &mut R) -> Vec<f32> {
    (0..n).map(|_| normal(mean, std, rng)).collect()
}

/// Fills a vector of length `n` with i.i.d. uniform samples from `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo >= hi`.
fn uniform_vec<R: Rng + ?Sized>(n: usize, lo: f32, hi: f32, rng: &mut R) -> Vec<f32> {
    assert!(lo < hi, "uniform_vec: empty range");
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Xavier/Glorot uniform initialisation for a `fan_in x fan_out` weight matrix.
///
/// Samples from `U(-limit, limit)` with `limit = sqrt(6 / (fan_in + fan_out))`,
/// the standard choice for tanh/sigmoid-style layers and a safe default for
/// the small networks used in the experiments.
pub fn xavier_uniform<R: Rng + ?Sized>(fan_in: usize, fan_out: usize, rng: &mut R) -> Matrix {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Matrix::from_vec(
        fan_in,
        fan_out,
        uniform_vec(fan_in * fan_out, -limit, limit, rng),
    )
}

/// He/Kaiming normal initialisation for a `fan_in x fan_out` weight matrix.
///
/// Samples from `N(0, sqrt(2 / fan_in))`, appropriate for ReLU layers.
pub fn he_normal<R: Rng + ?Sized>(fan_in: usize, fan_out: usize, rng: &mut R) -> Matrix {
    let std = (2.0 / fan_in as f32).sqrt();
    Matrix::from_vec(fan_in, fan_out, normal_vec(fan_in * fan_out, 0.0, std, rng))
}

/// Draws an index in `0..weights.len()` proportionally to the (non-negative)
/// weights. Returns `None` if the weights are empty or all zero/negative.
///
/// Used by the EXP3 baseline and the synthetic data generators.
pub fn sample_weighted<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> Option<usize> {
    let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
    if weights.is_empty() || total <= 0.0 {
        return None;
    }
    let mut target = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        target -= w;
        if target <= 0.0 {
            return Some(i);
        }
    }
    // Floating-point round-off: return the last positive-weight index.
    weights.iter().rposition(|&w| w > 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn normal_samples_have_reasonable_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let xs = normal_vec(20_000, 1.0, 2.0, &mut rng);
        let mean = xs.iter().sum::<f32>() / xs.len() as f32;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / xs.len() as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn uniform_vec_respects_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let xs = uniform_vec(1000, -0.5, 0.5, &mut rng);
        assert!(xs.iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn xavier_limit_respected() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let w = xavier_uniform(100, 50, &mut rng);
        let limit = (6.0f32 / 150.0).sqrt();
        assert!(w.as_slice().iter().all(|&x| x.abs() <= limit));
        assert_eq!(w.shape(), (100, 50));
    }

    #[test]
    fn he_normal_shape_and_scale() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let w = he_normal(200, 30, &mut rng);
        assert_eq!(w.shape(), (200, 30));
        let std = (w.as_slice().iter().map(|x| x * x).sum::<f32>() / w.len() as f32).sqrt();
        let expected = (2.0f32 / 200.0).sqrt();
        assert!(
            (std - expected).abs() < 0.03,
            "std {std} expected {expected}"
        );
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        assert_eq!(
            normal_vec(16, 0.0, 1.0, &mut a),
            normal_vec(16, 0.0, 1.0, &mut b)
        );
    }

    #[test]
    fn sample_weighted_edge_cases() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(sample_weighted(&[], &mut rng), None);
        assert_eq!(sample_weighted(&[0.0, 0.0], &mut rng), None);
        assert_eq!(sample_weighted(&[0.0, 1.0, 0.0], &mut rng), Some(1));
    }

    #[test]
    fn sample_weighted_is_approximately_proportional() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let weights = [1.0, 3.0];
        let mut counts = [0usize; 2];
        for _ in 0..20_000 {
            counts[sample_weighted(&weights, &mut rng).unwrap()] += 1;
        }
        let frac = counts[1] as f64 / 20_000.0;
        assert!((frac - 0.75).abs() < 0.03, "frac {frac}");
    }
}
