//! Reference-equivalence and scratch-soundness tests for the fast selection
//! pipeline.
//!
//! `Sparsifier::select_into` replaced the seed's hash-based selection with
//! dense sums each upload is accumulated into and a bitset `J`; these tests
//! pin the fast paths to the seed implementations kept in
//! `agsfl_sparse::reference`:
//!
//! * for all five sparsifiers, random uploads/dims/k must produce
//!   **byte-identical** `SelectionResult`s (the aggregation accumulates in
//!   the same order, so even the floating point output is bit-equal), and
//!   every upload's resets read off the result must equal the seed sweep's
//!   reset list;
//! * uploads accumulated one at a time, as the round engine admits them,
//!   with a lost member skipped, select what the reference selects over
//!   the uploads that were kept;
//! * repeated `select_into` calls on one shared scratch must return
//!   identical results — no stale sum or mark ever leaks;
//! * the uploads built rank-ordered by `ClientUpload::new` and the same
//!   uploads engine-shaped (index-ordered entries, ranked key view) select
//!   the same bits, each against the reference on its own shape.

mod common;

use agsfl_sparse::{
    reference, ClientUpload, FabTopK, FubTopK, PeriodicK, SelectionResult, SelectionScratch,
    SendAll, Sparsifier, UnidirectionalTopK,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Builds ranked top-k uploads from random dense per-client accumulators.
fn random_topk_uploads(
    rng: &mut ChaCha8Rng,
    n_clients: usize,
    dim: usize,
    k: usize,
) -> Vec<ClientUpload> {
    (0..n_clients)
        .map(|i| {
            let dense: Vec<f32> = (0..dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
            ClientUpload::new(
                i,
                1.0 / n_clients as f64,
                agsfl_sparse::topk::top_k_entries(&dense, k),
            )
        })
        .collect()
}

/// Asserts the fast path equals `expected` both through the default-method
/// wrapper and through an explicitly shared scratch called twice (scratch
/// reuse must be observationally pure).
fn assert_equivalent(
    sparsifier: &dyn Sparsifier,
    uploads: &[ClientUpload],
    dim: usize,
    k: usize,
    expected: &SelectionResult,
    scratch: &mut SelectionScratch,
) {
    let via_wrapper = sparsifier.select(uploads, dim, k);
    assert_eq!(
        &via_wrapper,
        expected,
        "{} select() diverged from the reference implementation",
        sparsifier.name()
    );
    let first = sparsifier.select_into(uploads, dim, k, scratch);
    let second = sparsifier.select_into(uploads, dim, k, scratch);
    assert_eq!(
        &first,
        expected,
        "{} select_into() diverged from the reference implementation",
        sparsifier.name()
    );
    assert_eq!(
        first,
        second,
        "{} select_into() is not idempotent on a reused scratch",
        sparsifier.name()
    );
    common::assert_resets_match_reference(&first, uploads, dim);
    scratch.recycle(first);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All five sparsifiers, random workloads, one shared scratch:
    /// byte-identical to the seed implementation.
    #[test]
    fn prop_select_into_matches_reference(
        seed in 0u64..10_000,
        n_clients in 1usize..7,
        dim in 2usize..48,
        k_raw in 1usize..24,
    ) {
        let k = 1 + k_raw % dim;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // One scratch shared by every sparsifier and both calls per check:
        // cross-sparsifier reuse is exactly what `Simulation::run_round`
        // does with its probe selection.
        let mut scratch = SelectionScratch::new();

        let ranked = random_topk_uploads(&mut rng, n_clients, dim, k);
        let coordinates = common::random_coordinate_uploads(&mut rng, n_clients, dim, k);
        let dense = common::random_dense_uploads(&mut rng, n_clients, dim);
        let shapes = [
            (ranked.clone(), coordinates.clone(), dense.clone()),
            (
                common::engine_shaped(&ranked, true),
                common::engine_shaped(&coordinates, false),
                common::engine_shaped(&dense, false),
            ),
        ];
        let mut results = Vec::new();
        for (topk_uploads, coord_uploads, dense_uploads) in &shapes {
            let expected = reference::fab_select(topk_uploads, dim, k);
            assert_equivalent(&FabTopK::new(), topk_uploads, dim, k, &expected, &mut scratch);
            results.push(expected);

            let expected = reference::fub_select(topk_uploads, dim, k);
            assert_equivalent(&FubTopK::new(), topk_uploads, dim, k, &expected, &mut scratch);
            results.push(expected);

            let expected = reference::unidirectional_select(topk_uploads, dim);
            assert_equivalent(
                &UnidirectionalTopK::new(), topk_uploads, dim, k, &expected, &mut scratch,
            );
            results.push(expected);

            let expected = reference::periodic_select(coord_uploads, dim);
            assert_equivalent(&PeriodicK::new(), coord_uploads, dim, k, &expected, &mut scratch);
            results.push(expected);

            let expected = reference::send_all_select(dense_uploads, dim);
            assert_equivalent(&SendAll::new(), dense_uploads, dim, k, &expected, &mut scratch);
            results.push(expected);
        }
        let (rank_ordered, engine) = results.split_at(5);
        for (u, (a, b)) in rank_ordered.iter().zip(engine).enumerate() {
            let (a_uploads, b_uploads) = match u {
                0..=2 => (&shapes[0].0, &shapes[1].0),
                3 => (&shapes[0].1, &shapes[1].1),
                _ => (&shapes[0].2, &shapes[1].2),
            };
            common::assert_same_selection(a, a_uploads, b, b_uploads);
        }
    }

    /// FAB's sorted `select_indices` equals the (sorted) reference selection.
    #[test]
    fn prop_fab_select_indices_sorted_and_equal(
        seed in 0u64..10_000,
        n_clients in 1usize..6,
        dim in 2usize..40,
        k_raw in 1usize..16,
    ) {
        let k = 1 + k_raw % dim;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let uploads = random_topk_uploads(&mut rng, n_clients, dim, k);
        let fast = FabTopK::select_indices(&uploads, k);
        let slow = reference::fab_select_indices(&uploads, k);
        prop_assert!(fast.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(fast, slow);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The round engine's two halves: the uploads are accumulated one at a
    /// time, in admission order, with one member skipped — lost in transit,
    /// so its entries never enter the sums — and the sparsifier then
    /// selects from the sums. All five must equal the reference over the
    /// uploads that were kept, resets included, on one shared scratch.
    #[test]
    fn prop_uploads_accumulated_as_admitted_select_what_the_reference_selects(
        seed in 0u64..10_000,
        n_clients in 2usize..7,
        dim in 2usize..48,
        k_raw in 1usize..24,
        lost_raw in 0usize..7,
    ) {
        let k = 1 + k_raw % dim;
        let lost = lost_raw % n_clients;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut scratch = SelectionScratch::new();
        let ranked = common::engine_shaped(&random_topk_uploads(&mut rng, n_clients, dim, k), true);
        let coordinates = common::engine_shaped(
            &common::random_coordinate_uploads(&mut rng, n_clients, dim, k),
            false,
        );
        let dense = common::engine_shaped(&common::random_dense_uploads(&mut rng, n_clients, dim), false);
        let kept = |uploads: &[ClientUpload]| -> Vec<ClientUpload> {
            uploads.iter().enumerate().filter(|&(i, _)| i != lost).map(|(_, u)| u.clone()).collect()
        };
        let (ranked, coordinates, dense) = (kept(&ranked), kept(&coordinates), kept(&dense));
        let cases: [(&dyn Sparsifier, &[ClientUpload], SelectionResult); 5] = [
            (&FabTopK::new(), &ranked, reference::fab_select(&ranked, dim, k)),
            (&FubTopK::new(), &ranked, reference::fub_select(&ranked, dim, k)),
            (&UnidirectionalTopK::new(), &ranked, reference::unidirectional_select(&ranked, dim)),
            (&PeriodicK::new(), &coordinates, reference::periodic_select(&coordinates, dim)),
            (&SendAll::new(), &dense, reference::send_all_select(&dense, dim)),
        ];
        for (sparsifier, uploads, expected) in cases {
            scratch.begin(dim);
            for upload in uploads {
                scratch.accumulate(upload);
            }
            let got = sparsifier.select_accumulated(uploads, dim, k, &mut scratch);
            prop_assert_eq!(&got, &expected, "{}", sparsifier.name());
            common::assert_resets_match_reference(&got, uploads, dim);
            scratch.recycle(got);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// FAB's rank-major scan against the reference where uniform uploads
    /// never go: clients sharing most indices, magnitudes that tie (so the
    /// fill level offers one index from several clients and ranks it by the
    /// index tie-break), ragged and empty uploads, `κ` running into its
    /// `min(k, longest upload)` bound, and `k` on either side of the number
    /// of distinct indices.
    #[test]
    fn prop_fab_scan_matches_reference_on_shared_tied_ragged_uploads(
        seed in 0u64..1_000_000,
        n_clients in 1usize..=24,
        dim in 2usize..40,
        max_len in 0usize..24,
        k_raw in 0usize..64,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ranked = common::ragged_tied_uploads(&mut rng, n_clients, dim, max_len);
        let engine = common::engine_shaped(&ranked, true);
        let k = 1 + k_raw % dim;
        let mut scratch = SelectionScratch::new();
        let mut results = Vec::new();
        for uploads in [&ranked, &engine] {
            let expected = reference::fab_select(uploads, dim, k);
            assert_equivalent(&FabTopK::new(), uploads, dim, k, &expected, &mut scratch);
            prop_assert_eq!(
                FabTopK::select_indices(uploads, k),
                reference::fab_select_indices(uploads, k)
            );
            results.push(expected);
        }
        common::assert_same_selection(&results[0], &ranked, &results[1], &engine);
    }
}

/// `κ` at its `min(k, longest upload)` bound with budget left over: only an
/// upload repeating an index (which no client builds) gets there, and the
/// reference then still fills from the level at the bound. The scan reads
/// that level too.
#[test]
fn fab_fills_from_the_level_at_the_kappa_bound() {
    let uploads = vec![ClientUpload::new(
        0,
        1.0,
        vec![(0, 3.0), (0, 2.0), (1, 1.0), (2, 0.5)],
    )];
    let expected = reference::fab_select(&uploads, 3, 2);
    assert_eq!(expected.aggregated.indices().collect::<Vec<_>>(), [0, 1]);
    let mut scratch = SelectionScratch::new();
    assert_equivalent(&FabTopK::new(), &uploads, 3, 2, &expected, &mut scratch);
}

/// Scratch-reuse soundness: many rounds of shifting workloads on one
/// scratch, each checked against a fresh-scratch run and the reference.
#[test]
fn scratch_reuse_across_shifting_workloads_is_sound() {
    let mut rng = ChaCha8Rng::seed_from_u64(2020);
    let mut shared = SelectionScratch::new();
    let fab = FabTopK::new();
    // Dimensions intentionally shrink and grow to exercise buffer reuse with
    // stale high-index state present.
    for &(dim, n, k) in &[
        (64, 5, 9),
        (8, 2, 3),
        (128, 7, 17),
        (16, 3, 4),
        (128, 7, 17),
    ] {
        let uploads = random_topk_uploads(&mut rng, n, dim, k);
        let expected = reference::fab_select(&uploads, dim, k);
        let got = fab.select_into(&uploads, dim, k, &mut shared);
        assert_eq!(got, expected, "dim {dim}, n {n}, k {k}");
        let again = fab.select_into(&uploads, dim, k, &mut shared);
        assert_eq!(again, expected, "repeat on same scratch: dim {dim}");
    }
}

/// An out-of-range upload index must panic in every sparsifier's sweep: on a
/// scratch still sized for a larger round, the `assert!(j < dim)` checks are
/// all that keeps a hostile index from landing in a stale slot silently.
#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_index_panics() {
    let uploads: Vec<ClientUpload> = (0..4)
        .map(|i| ClientUpload::new(i, 0.25, vec![(i, 1.0), (9, 1.0)]))
        .collect();
    let others: [&dyn Sparsifier; 4] = [
        &FubTopK::new(),
        &UnidirectionalTopK::new(),
        &PeriodicK::new(),
        &SendAll::new(),
    ];
    for sparsifier in others {
        let select = std::panic::AssertUnwindSafe(|| sparsifier.select(&uploads, 5, 2));
        let caught = std::panic::catch_unwind(select);
        assert!(caught.is_err(), "{} accepted index 9", sparsifier.name());
    }
    let mut scratch = SelectionScratch::new();
    let _ = FabTopK::new().select_into(&uploads, 5, 2, &mut scratch);
}

/// Degenerate inputs go through the same equivalence check, for all five
/// sparsifiers on one shared scratch.
#[test]
fn degenerate_inputs_match_reference() {
    let mut scratch = SelectionScratch::new();
    let cases: [(Vec<ClientUpload>, usize, usize); 4] = [
        // No uploads at all.
        (vec![], 10, 3),
        // k = 0.
        (
            vec![ClientUpload::new(0, 1.0, vec![(1, 2.0), (3, -1.0)])],
            5,
            0,
        ),
        // Clients with empty uploads mixed in.
        (
            vec![
                ClientUpload::new(0, 0.5, vec![]),
                ClientUpload::new(1, 0.5, vec![(2, 4.0), (0, -3.0)]),
            ],
            4,
            2,
        ),
        // k larger than the union of the uploads.
        (
            vec![
                ClientUpload::new(0, 0.5, vec![(0, 3.0), (2, -1.0)]),
                ClientUpload::new(1, 0.5, vec![(0, 1.0)]),
            ],
            4,
            10,
        ),
    ];
    for (uploads, dim, k) in &cases {
        let (dim, k) = (*dim, *k);
        let checks: [(&dyn Sparsifier, SelectionResult); 5] = [
            (&FabTopK::new(), reference::fab_select(uploads, dim, k)),
            (&FubTopK::new(), reference::fub_select(uploads, dim, k)),
            (
                &UnidirectionalTopK::new(),
                reference::unidirectional_select(uploads, dim),
            ),
            (&PeriodicK::new(), reference::periodic_select(uploads, dim)),
            (&SendAll::new(), reference::send_all_select(uploads, dim)),
        ];
        for (sparsifier, expected) in &checks {
            assert_equivalent(*sparsifier, uploads, dim, k, expected, &mut scratch);
        }
    }
}
