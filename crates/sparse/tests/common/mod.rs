//! Upload generators shared by the selection proptests.

use agsfl_sparse::{topk, ClientUpload};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Ranked uploads built to hit the corners a uniform generator almost never
/// does: a dimension small enough that clients share most of their indices,
/// magnitudes drawn from five values so ranks are mostly index tie-breaks,
/// and per-client lengths anywhere in `0..=max_len` (empty uploads
/// included). Within one upload the indices are distinct, as in every
/// message a client builds.
pub fn ragged_tied_uploads(
    rng: &mut ChaCha8Rng,
    n_clients: usize,
    dim: usize,
    max_len: usize,
) -> Vec<ClientUpload> {
    const MAGNITUDES: [f32; 5] = [0.5, 1.0, 1.0, 2.0, 4.0];
    let mut pool: Vec<usize> = (0..dim).collect();
    let mut keys = Vec::new();
    let mut weights: Vec<f64> = (0..n_clients).map(|_| rng.gen_range(0.1..1.0)).collect();
    let total: f64 = weights.iter().sum();
    weights.iter_mut().for_each(|w| *w /= total);
    (0..n_clients)
        .map(|i| {
            let len = rng.gen_range(0..=max_len.min(dim));
            let (chosen, _) = pool.partial_shuffle(rng, len);
            let mut entries: Vec<(usize, f32)> = chosen
                .iter()
                .map(|&j| {
                    let magnitude = MAGNITUDES[rng.gen_range(0..MAGNITUDES.len())];
                    (
                        j,
                        if rng.gen_bool(0.5) {
                            magnitude
                        } else {
                            -magnitude
                        },
                    )
                })
                .collect();
            topk::rank_by_magnitude(&mut entries, &mut keys);
            ClientUpload::new(i, weights[i], entries)
        })
        .collect()
}

/// Builds uploads sharing one random sorted coordinate set (periodic-k).
pub fn random_coordinate_uploads(
    rng: &mut ChaCha8Rng,
    n_clients: usize,
    dim: usize,
    k: usize,
) -> Vec<ClientUpload> {
    let mut pool: Vec<usize> = (0..dim).collect();
    let (chosen, _) = pool.partial_shuffle(rng, k.min(dim));
    let mut coords = chosen.to_vec();
    coords.sort_unstable();
    (0..n_clients)
        .map(|i| {
            let entries = coords
                .iter()
                .map(|&j| (j, rng.gen_range(-5.0f32..5.0)))
                .collect();
            ClientUpload::new(i, 1.0 / n_clients as f64, entries)
        })
        .collect()
}

/// Builds dense uploads (send-all).
pub fn random_dense_uploads(
    rng: &mut ChaCha8Rng,
    n_clients: usize,
    dim: usize,
) -> Vec<ClientUpload> {
    (0..n_clients)
        .map(|i| {
            let entries = (0..dim).map(|j| (j, rng.gen_range(-5.0f32..5.0))).collect();
            ClientUpload::new(i, 1.0 / n_clients as f64, entries)
        })
        .collect()
}
