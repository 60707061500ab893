//! Upload generators shared by the selection proptests.

use agsfl_sparse::{reference, topk, ClientUpload, SelectionResult, SparseGradient};

/// The uploads as the round engine delivers them: the same entries in
/// index order, carrying their ranked key view when the plan ranks and
/// none otherwise.
pub fn engine_shaped(uploads: &[ClientUpload], rank: bool) -> Vec<ClientUpload> {
    uploads
        .iter()
        .map(|u| {
            let mut entries = u.entries.clone();
            entries.sort_unstable_by_key(|&(j, _)| j);
            let mut upload = ClientUpload::new(u.client, u.weight, entries);
            if !rank {
                upload.ranked.clear();
            }
            upload
        })
        .collect()
}

/// A gradient's entries, values as their bits.
pub fn bits(gradient: &SparseGradient) -> Vec<(usize, u32)> {
    gradient
        .entries()
        .iter()
        .map(|&(j, v)| (j, v.to_bits()))
        .collect()
}

/// Two selections over the same uploads listed in different entry orders
/// (`a_uploads`, `b_uploads`) agree bit for bit: the aggregate, the
/// accounting, and every upload's reset *set* (each lists its resets in
/// its upload's entry order).
pub fn assert_same_selection(
    a: &SelectionResult,
    a_uploads: &[ClientUpload],
    b: &SelectionResult,
    b_uploads: &[ClientUpload],
) {
    assert_eq!(bits(&a.aggregated), bits(&b.aggregated));
    assert_eq!(a.max_uplink_scalars(), b.max_uplink_scalars());
    assert_eq!(a.downlink_scalars(), b.downlink_scalars());
    for (u, (a_upload, b_upload)) in a_uploads.iter().zip(b_uploads).enumerate() {
        let mut set: Vec<usize> = a.resets(a_upload).collect();
        set.sort_unstable();
        let mut other: Vec<usize> = b.resets(b_upload).collect();
        other.sort_unstable();
        assert_eq!(set, other, "upload {u}");
    }
}

/// Every upload's resets read off `result` — and so its contribution —
/// equal the reset list the seed sweep ([`reference::aggregate_selected`])
/// builds for the result's `J`.
pub fn assert_resets_match_reference(
    result: &SelectionResult,
    uploads: &[ClientUpload],
    dim: usize,
) {
    let selected: Vec<usize> = result.aggregated.indices().collect();
    let (_, lists) = reference::aggregate_selected(uploads, &selected, dim);
    for (u, (upload, list)) in uploads.iter().zip(&lists).enumerate() {
        assert_eq!(
            &result.resets(upload).collect::<Vec<_>>(),
            list,
            "upload {u}"
        );
    }
    let lengths: Vec<usize> = lists.iter().map(Vec::len).collect();
    assert_eq!(result.contributions(uploads), lengths);
}

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
