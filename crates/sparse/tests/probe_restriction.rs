//! `Sparsifier::probe_aggregate` against the selection it replaces.
//!
//! The probe stage used to run a second full `select_into` at `k'` over the
//! uploads the round had just selected from at `k`. `probe_aggregate`
//! answers from the round's own result instead — `selection.aggregated`
//! restricted to `J(k')` — and these tests hold it, bit for bit, to that
//! independent selection, for all five sparsifiers and on both sides of the
//! `k' <= k` line where the restriction hands over to the fallback — on
//! rank-ordered uploads built by `ClientUpload::new` and on the same
//! uploads engine-shaped, which must probe the same bits.

mod common;

use agsfl_sparse::{
    ClientUpload, FabTopK, FubTopK, PeriodicK, SelectionScratch, SendAll, Sparsifier,
    UnidirectionalTopK,
};
use common::bits;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Every probe degree worth a case around the round's `k` and the size of
/// what it selected: the smallest, the middle, one below, the same, and the
/// two around `nnz` (which sit above `k` for the sparsifiers that fill
/// their budget).
fn probe_degrees(k: usize, nnz: usize) -> [usize; 6] {
    [1, k / 2, k.saturating_sub(1), k, nnz, nnz + 1]
}

/// [`assert_restriction_matches_on`] over `uploads` as built and
/// engine-shaped (`rank`: whether the plan ranks), with equal bits from
/// both.
fn assert_restriction_matches(
    sparsifier: &dyn Sparsifier,
    uploads: &[ClientUpload],
    dim: usize,
    k: usize,
    rank: bool,
) {
    let built = assert_restriction_matches_on(sparsifier, uploads, dim, k);
    let engine = common::engine_shaped(uploads, rank);
    let (a, b) = (
        sparsifier.select(uploads, dim, k),
        sparsifier.select(&engine, dim, k),
    );
    common::assert_same_selection(&a, uploads, &b, &engine);
    common::assert_resets_match_reference(&a, uploads, dim);
    common::assert_resets_match_reference(&b, &engine, dim);
    assert_eq!(
        built,
        assert_restriction_matches_on(sparsifier, &engine, dim, k),
        "{} k={}: engine-shaped uploads probed other bits",
        sparsifier.name(),
        k
    );
}

/// Selects at `k`, then checks `probe_aggregate` at every probe degree
/// against a fresh-scratch `select_into` at that degree. The probe runs on
/// the scratch the selection just used, as it does in the round engine.
/// Returns every probed aggregate's bits.
fn assert_restriction_matches_on(
    sparsifier: &dyn Sparsifier,
    uploads: &[ClientUpload],
    dim: usize,
    k: usize,
) -> Vec<Vec<(usize, u32)>> {
    let mut scratch = SelectionScratch::new();
    let selection = sparsifier.select_into(uploads, dim, k, &mut scratch);
    let mut probed_bits = Vec::new();
    for probe_k in probe_degrees(k, selection.aggregated.nnz()) {
        let expected = sparsifier.select(uploads, dim, probe_k).aggregated;
        let probed = sparsifier.probe_aggregate(uploads, dim, k, &selection, probe_k, &mut scratch);
        let got = probed.as_ref().unwrap_or(&selection.aggregated);
        assert_eq!(got.dim(), expected.dim());
        assert_eq!(
            bits(got),
            bits(&expected),
            "{} k={} probe_k={} (own aggregate: {})",
            sparsifier.name(),
            k,
            probe_k,
            probed.is_none()
        );
        // No second selection when the answer is inside the round's own.
        if probe_k <= k && probe_k >= selection.aggregated.nnz() {
            prop_assert!(
                probed.is_none(),
                "{} probe_k={}",
                sparsifier.name(),
                probe_k
            );
        }
        probed_bits.push(bits(got));
    }
    probed_bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The three top-k-upload sparsifiers over shared indices, tied
    /// magnitudes and ragged (often empty) uploads.
    #[test]
    fn prop_top_k_family_restricts_to_the_independent_selection(
        seed in 0u64..1_000_000,
        n_clients in 1usize..=24,
        dim in 2usize..40,
        max_len in 0usize..24,
        k_raw in 0usize..64,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let uploads = common::ragged_tied_uploads(&mut rng, n_clients, dim, max_len);
        let k = 1 + k_raw % dim;
        assert_restriction_matches(&FabTopK::new(), &uploads, dim, k, true);
        assert_restriction_matches(&FubTopK::new(), &uploads, dim, k, true);
        assert_restriction_matches(&UnidirectionalTopK::new(), &uploads, dim, k, true);
    }

    /// The coordinate-set and dense sparsifiers, whose selection never reads
    /// `k`: the probe aggregate is always the round's own.
    #[test]
    fn prop_k_blind_sparsifiers_answer_with_the_rounds_aggregate(
        seed in 0u64..1_000_000,
        n_clients in 1usize..=24,
        dim in 2usize..40,
        k_raw in 0usize..64,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let k = 1 + k_raw % dim;
        let sparse = common::random_coordinate_uploads(&mut rng, n_clients, dim, k);
        assert_restriction_matches(&PeriodicK::new(), &sparse, dim, k, false);
        let dense = common::random_dense_uploads(&mut rng, n_clients, dim);
        assert_restriction_matches(&SendAll::new(), &dense, dim, k, false);
    }
}

/// The corners by hand: one candidate index offered by several clients at
/// the fill level, a selection that stops short of its budget, and a probe
/// above `k` (the fallback).
#[test]
fn hand_built_corners() {
    let uploads = vec![
        ClientUpload::new(0, 0.5, vec![(0, 4.0), (7, 2.0), (3, 1.0)]),
        ClientUpload::new(1, 0.3, vec![(0, -4.0), (7, 2.0), (5, 1.0)]),
        ClientUpload::new(2, 0.2, vec![(1, 4.0), (7, -2.0)]),
    ];
    for k in 1..=8 {
        for sparsifier in [&FabTopK::new() as &dyn Sparsifier, &FubTopK::new()] {
            assert_restriction_matches(sparsifier, &uploads, 8, k, true);
        }
    }
    // {0, 1} fits k = 3; level 1 offers index 7 three times and overflows
    // nothing, so J(3) = {0, 1, 7} and J(2) = {0, 1}.
    let fab = FabTopK::new();
    let mut scratch = SelectionScratch::new();
    let selection = fab.select_into(&uploads, 8, 3, &mut scratch);
    assert_eq!(
        selection.aggregated.indices().collect::<Vec<_>>(),
        [0, 1, 7]
    );
    let probe = fab
        .probe_aggregate(&uploads, 8, 3, &selection, 2, &mut scratch)
        .expect("a proper restriction");
    assert_eq!(probe.indices().collect::<Vec<_>>(), [0, 1]);
    assert_eq!(
        probe.get(0).to_bits(),
        selection.aggregated.get(0).to_bits()
    );
}
