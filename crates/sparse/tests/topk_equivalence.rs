//! Spec-equivalence, totality and scratch-soundness tests for the integer-key
//! magnitude order.
//!
//! `agsfl_sparse::topk` takes every ordering on packed `u64` keys (sampled
//! select, radix rank, integer quickselect on short inputs); the comparator
//! implementations kept in `agsfl_sparse::reference` and
//! `topk::compare_magnitude_then_index` are the executable spec. These tests
//! pin the two together **entry for entry and bit for bit**:
//!
//! * over dimensions and list lengths straddling every internal cut-over
//!   (`SMALL_DIM` = 8192 coordinates, `SMALL_SORT` = 1024 keys, the streaming
//!   select's `2k` against `D`), every edge `k`, and value generators that
//!   force heavy exact ties, all-equal, all-zero, one-hot,
//!   full-dynamic-range and periodic vectors;
//! * at the paper's dimension, outside proptest's small sizes;
//! * on one scratch vector reused across shrinking and growing shapes, whose
//!   capacity must settle (steady-state rounds allocate nothing), and on a
//!   fresh one, whose capacity must stay within what the two-pass histogram
//!   select reserved;
//! * and on NaN/±∞/±0/subnormal inputs, where the comparator is not a total
//!   order and the keys must be.

use agsfl_sparse::{reference, topk};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Dimensions on both sides of the streaming/sampled cut-over (`SMALL_DIM`
/// = 8192), where the sample's 4096 strata are one or two coordinates
/// wide, plus tiny, odd and wider ones.
const DIMS: [usize; 14] = [
    1, 2, 7, 64, 527, 4095, 4096, 4097, 5000, 8191, 8192, 8193, 9001, 65_537,
];

/// List lengths on both sides of the sort/radix cut-over.
const LENS: [usize; 8] = [0, 1, 2, 33, 1023, 1024, 1025, 3000];

const GENERATORS: usize = 8;

/// Strata of the top-k sample (`topk::SAMPLES`).
const SAMPLES: usize = 4096;

/// One dense vector of the requested flavour.
fn dense(rng: &mut ChaCha8Rng, generator: usize, dim: usize) -> Vec<f32> {
    let sign = |rng: &mut ChaCha8Rng| {
        if rng.gen_range(0..2) == 0 {
            1.0f32
        } else {
            -1.0
        }
    };
    match generator {
        // Mixed signs, essentially tie-free.
        0 => (0..dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect(),
        // Quantised: a few dozen distinct magnitudes, heavy exact ties.
        1 => (0..dim)
            .map(|_| rng.gen_range(-16i32..16) as f32 * 0.25)
            .collect(),
        // All-equal magnitude (the whole vector is one tie), random signs.
        2 => {
            let c = rng.gen_range(0.5f32..2.0);
            (0..dim).map(|_| c * sign(rng)).collect()
        }
        // All-zero, both zeros.
        3 => (0..dim).map(|_| 0.0 * sign(rng)).collect(),
        // One-hot.
        4 => {
            let mut v = vec![0.0; dim];
            v[rng.gen_range(0..dim)] = sign(rng) * 3.0;
            v
        }
        // Large magnitudes repeating with a period — the linear model's
        // class stride (62), or the sample's stratum width — on small
        // noise, which a strided sample would alias with.
        6 | 7 => {
            let period = if generator == 6 {
                62
            } else {
                (dim / SAMPLES).max(1)
            };
            let phase = rng.gen_range(0..period);
            (0..dim)
                .map(|j| {
                    let noise = rng.gen_range(-1.0f32..1.0);
                    if j % period == phase {
                        noise + 10.0 * sign(rng)
                    } else {
                        noise
                    }
                })
                .collect()
        }
        // Random bit patterns: every exponent, subnormals, ±∞ — but no NaN,
        // on which the comparator spec is not an order.
        _ => (0..dim)
            .map(|_| {
                let v = f32::from_bits(rng.gen::<u32>());
                if v.is_nan() {
                    f32::INFINITY * sign(rng)
                } else {
                    v
                }
            })
            .collect(),
    }
}

/// Bit-exact view of an entry list (`-0.0 == 0.0` under `PartialEq`).
fn bits(entries: &[(usize, f32)]) -> Vec<(usize, u32)> {
    entries.iter().map(|&(j, v)| (j, v.to_bits())).collect()
}

/// The `k` values the issue names, plus the rank cut-over where it fits.
fn edge_ks(dim: usize) -> Vec<usize> {
    let half = dim / 2;
    let mut ks = vec![0, 1, half.saturating_sub(1), half, dim - 1, dim, dim + 7];
    ks.extend([1023, 1024, 1025].into_iter().filter(|&k| k < dim));
    ks
}

/// A sparse entry list over `len` distinct indices below `dim`, index-sorted.
fn sparse(rng: &mut ChaCha8Rng, generator: usize, dim: usize, len: usize) -> Vec<(usize, f32)> {
    let mut pool: Vec<usize> = (0..dim).collect();
    let (chosen, _) = pool.partial_shuffle(rng, len);
    let mut indices = chosen.to_vec();
    indices.sort_unstable();
    let values = dense(rng, generator, len.max(1));
    indices.into_iter().zip(values).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Client top-k == the comparator reference, at every edge `k`, on one
    /// scratch and output buffer reused across the whole sweep.
    #[test]
    fn prop_top_k_matches_reference(
        seed in 0u64..1_000_000,
        dim_idx in 0usize..DIMS.len(),
        generator in 0usize..GENERATORS,
    ) {
        let dim = DIMS[dim_idx];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let values = dense(&mut rng, generator, dim);
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        for k in edge_ks(dim) {
            topk::top_k_entries_into(&values, k, &mut scratch, &mut out);
            prop_assert_eq!(
                bits(&out),
                bits(&reference::top_k_entries(&values, k)),
                "dim {}, k {}, generator {}", dim, k, generator
            );
        }
    }

    /// Keyed rank == a stable comparator sort, for index-sorted input (the
    /// three-pass path) and shuffled input (index passes first).
    #[test]
    fn prop_rank_by_magnitude_matches_comparator_sort(
        seed in 0u64..1_000_000,
        len_idx in 0usize..LENS.len(),
        generator in 0usize..GENERATORS,
        shuffle in 0usize..2,
    ) {
        let len = LENS[len_idx];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut entries = sparse(&mut rng, generator, 3 * len + 5, len);
        if shuffle == 1 {
            entries.shuffle(&mut rng);
        }
        let mut expected = entries.clone();
        expected.sort_by(topk::compare_magnitude_then_index);
        let mut scratch = Vec::new();
        topk::rank_by_magnitude(&mut entries, &mut scratch);
        prop_assert_eq!(bits(&entries), bits(&expected));
        // Ranking a ranked list is the identity (and takes the index passes).
        topk::rank_by_magnitude(&mut entries, &mut scratch);
        prop_assert_eq!(bits(&entries), bits(&expected));
    }

    /// The byte-priced client path against the unwired one: the index-ordered
    /// selection is the ranked selection sorted by index, entry for entry, on
    /// both sides of the streaming/histogram cut-over, at every edge `k`
    /// (`k ≥ dim` included), with ties, both zeros and NaN in the vector. The
    /// selection leaves exactly its entries' order keys in the scratch, and
    /// ranking those (or the entries, through `rank_entries_into`) gives the
    /// ranked selection back as a key view.
    #[test]
    fn prop_indexed_selection_is_the_ranked_selection_sorted_by_index(
        seed in 0u64..1_000_000,
        dim_idx in 0usize..DIMS.len(),
        generator in 0usize..GENERATORS,
        nans in 0usize..3,
    ) {
        let dim = DIMS[dim_idx];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut values = dense(&mut rng, generator, dim);
        for _ in 0..nans {
            values[rng.gen_range(0..dim)] = f32::from_bits(0x7fc0_0000 | rng.gen::<u32>());
        }
        let (mut scratch, mut ranked, mut indexed) = (Vec::new(), Vec::new(), vec![(9, 9.0)]);
        for k in edge_ks(dim) {
            topk::top_k_entries_into(&values, k, &mut scratch, &mut ranked);
            topk::top_k_entries_indexed_into(&values, k, &mut scratch, &mut indexed);
            let mut expected = ranked.clone();
            expected.sort_by_key(|&(j, _)| j);
            prop_assert_eq!(bits(&indexed), bits(&expected), "dim {}, k {}", dim, k);

            let keys: Vec<u64> = indexed
                .iter()
                .map(|&(j, v)| topk::order_key(j as u32, v))
                .collect();
            prop_assert_eq!(&scratch, &keys, "dim {}, k {}", dim, k);
            let mut view = vec![9];
            topk::rank_index_ordered_keys_into(&mut scratch, &mut view);
            let reranked: Vec<(usize, f32)> = view.iter().map(|&key| topk::key_entry(key)).collect();
            prop_assert_eq!(bits(&reranked), bits(&ranked), "dim {}, k {}", dim, k);
            let mut from_entries = vec![9];
            topk::rank_entries_into(&indexed, &mut scratch, &mut from_entries);
            prop_assert_eq!(&from_entries, &view, "dim {}, k {}", dim, k);
        }
    }

    /// The two set-level helpers: `sort_by_index` inverts a ranking, and
    /// `truncate_to_top_k` keeps exactly the ranked prefix, as a set.
    #[test]
    fn prop_index_sort_and_candidate_cut_match_comparator_sort(
        seed in 0u64..1_000_000,
        len_idx in 0usize..LENS.len(),
        generator in 0usize..GENERATORS,
    ) {
        let len = LENS[len_idx];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let by_index = sparse(&mut rng, generator, 3 * len + 5, len);
        let mut ranked = by_index.clone();
        ranked.sort_by(topk::compare_magnitude_then_index);
        let mut scratch = Vec::new();

        let mut entries = ranked.clone();
        topk::sort_by_index(&mut entries, &mut scratch);
        prop_assert_eq!(bits(&entries), bits(&by_index));

        for k in [0, 1, len / 2, len.saturating_sub(1), len, len + 7] {
            let mut cut = by_index.clone();
            cut.shuffle(&mut rng);
            topk::truncate_to_top_k(&mut cut, k, &mut scratch);
            cut.sort_by(topk::compare_magnitude_then_index);
            prop_assert_eq!(bits(&cut), bits(&ranked[..k.min(len)]), "len {}, k {}", len, k);
        }
    }
}

/// The large path at the paper's dimension, where proptest's sizes never
/// reach: `k` = 12,000 and `k` = D/2, tie-free and tie-heavy.
#[test]
fn paper_shape_matches_reference() {
    const DIM: usize = 419_582;
    let mut rng = ChaCha8Rng::seed_from_u64(16);
    let (mut scratch, mut out) = (Vec::new(), Vec::new());
    for generator in [0, 1] {
        let values = dense(&mut rng, generator, DIM);
        for k in [12_000, DIM / 2] {
            topk::top_k_entries_into(&values, k, &mut scratch, &mut out);
            let expected = reference::top_k_entries(&values, k);
            assert_eq!(bits(&out), bits(&expected), "generator {generator}, k {k}");

            // The wired round trip it replaced: index-sort, then re-rank.
            topk::sort_by_index(&mut out, &mut scratch);
            assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
            // The wired round itself: select in index order, rank from keys.
            let mut indexed = Vec::new();
            topk::top_k_entries_indexed_into(&values, k, &mut scratch, &mut indexed);
            assert_eq!(bits(&indexed), bits(&out), "generator {generator}, k {k}");
            topk::rank_by_magnitude(&mut out, &mut scratch);
            assert_eq!(bits(&out), bits(&expected), "generator {generator}, k {k}");
            topk::top_k_entries_indexed_into(&values, k, &mut scratch, &mut indexed);
            let mut view = Vec::new();
            topk::rank_index_ordered_keys_into(&mut scratch, &mut view);
            let ranked: Vec<(usize, f32)> = view.iter().map(|&key| topk::key_entry(key)).collect();
            assert_eq!(
                bits(&ranked),
                bits(&expected),
                "generator {generator}, k {k}"
            );
        }
    }
}

/// One scratch vector and one output buffer across shrinking and growing
/// `(D, k)`: every result is checked against the reference, and once the
/// schedule has run once the buffers' capacities never move again — the
/// steady-state client path allocates nothing.
#[test]
fn scratch_reuse_across_shifting_shapes_is_sound_and_settles() {
    let mut rng = ChaCha8Rng::seed_from_u64(2020);
    let shapes = [
        (9001, 4500, 1),
        (64, 9, 0),
        (20_000, 700, 1),
        (528, 32, 0),
        (4097, 4097, 2),
        (7, 3, 1),
        (20_000, 19_999, 0),
    ];
    let inputs: Vec<(Vec<f32>, usize)> = shapes
        .iter()
        .map(|&(dim, k, generator)| (dense(&mut rng, generator, dim), k))
        .collect();
    let (mut scratch, mut out, mut entries) = (Vec::new(), Vec::new(), Vec::new());
    let mut settled = None;
    for _round in 0..4 {
        for (values, k) in &inputs {
            topk::top_k_entries_into(values, *k, &mut scratch, &mut out);
            let expected = reference::top_k_entries(values, *k);
            assert_eq!(bits(&out), bits(&expected), "dim {}, k {k}", values.len());

            entries.clone_from(&out);
            topk::sort_by_index(&mut entries, &mut scratch);
            topk::rank_by_magnitude(&mut entries, &mut scratch);
            assert_eq!(
                bits(&entries),
                bits(&expected),
                "dim {}, k {k}",
                values.len()
            );
        }
        let capacities = (scratch.capacity(), out.capacity(), entries.capacity());
        assert_eq!(*settled.get_or_insert(capacities), capacities);
    }
}

/// The sampled select reserves its candidate buffer exactly; it never
/// doubles it. On a fresh scratch, at `sparse_wide_linear`'s shape
/// (418,624, 20,000) and at `paper_cnn_adaptive`'s `k = D/2` (419,582,
/// 209,791), the buffer's capacity after the index-ordered and the ranked
/// selection stays within what the two-pass histogram select it replaced
/// reserved for the same call on the same vector — recorded from that
/// implementation: 41,777 and 41,777 keys, 230,281 and 460,562 keys.
#[test]
fn fresh_scratch_capacity_stays_within_the_histogram_select() {
    for (dim, k, indexed_cap, ranked_cap) in [
        (418_624, 20_000, 41_777, 41_777),
        (419_582, 209_791, 230_281, 460_562),
    ] {
        let mut rng = ChaCha8Rng::seed_from_u64(418);
        let values = dense(&mut rng, 0, dim);
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        topk::top_k_entries_indexed_into(&values, k, &mut scratch, &mut out);
        assert!(
            scratch.capacity() <= indexed_cap,
            "dim {dim}, k {k}: indexed selection reserved {} keys",
            scratch.capacity()
        );
        let mut scratch = Vec::new();
        topk::top_k_entries_into(&values, k, &mut scratch, &mut out);
        assert!(
            scratch.capacity() <= ranked_cap,
            "dim {dim}, k {k}: ranked selection reserved {} keys",
            scratch.capacity()
        );
    }
}

/// NaN used to make the comparator a non-order (`(0, 1.0) < (1, NaN) <
/// (2, 2.0) < (0, 1.0)`), which `sort_unstable_by`/`select_nth_unstable_by`
/// may answer with a panic. The keys are total: nothing panics, the result
/// is deterministic, every index appears at most once, and the documented
/// policy holds — NaN above ±∞ above every finite magnitude, `-0.0` tied
/// with `0.0`, subnormals ordered like any other magnitude.
#[test]
fn non_finite_inputs_rank_totally() {
    let specials = [
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::MIN_POSITIVE / 4.0,
        -f32::MIN_POSITIVE / 2.0,
        f32::MAX,
        1.0,
        -2.0,
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(81);
    // Short (streaming select, `sort_unstable`) and long (histograms, radix).
    for dim in [3, 40, 4096, 6000] {
        let values: Vec<f32> = (0..dim)
            .map(|_| match rng.gen_range(0..3) {
                0 => specials[rng.gen_range(0..specials.len())],
                _ => rng.gen_range(-1.0f32..1.0),
            })
            .collect();
        let magnitude = |v: f32| v.to_bits() & 0x7fff_ffff;
        let (mut scratch, mut got) = (Vec::new(), Vec::new());
        for k in [1, dim / 3, dim / 2, dim - 1, dim] {
            topk::top_k_entries_into(&values, k, &mut scratch, &mut got);
            assert_eq!(bits(&got), bits(&topk::top_k_entries(&values, k)));
            assert_eq!(got.len(), k);
            assert!(got.iter().all(|&(j, v)| v.to_bits() == values[j].to_bits()));
            // Strictly decreasing in (magnitude bits, then index): a ranking
            // with no index twice.
            assert!(got.windows(2).all(|w| {
                let (a, b) = (magnitude(w[0].1), magnitude(w[1].1));
                a > b || (a == b && w[0].0 < w[1].0)
            }));
            // Nothing left out beats the last one kept.
            let floor = magnitude(got[k - 1].1);
            let kept: std::collections::HashSet<usize> = got.iter().map(|e| e.0).collect();
            assert!((0..dim)
                .filter(|j| !kept.contains(j))
                .all(|j| magnitude(values[j]) <= floor));

            let mut reranked = got.clone();
            topk::sort_by_index(&mut reranked, &mut scratch);
            topk::rank_by_magnitude(&mut reranked, &mut scratch);
            assert_eq!(bits(&reranked), bits(&got), "dim {dim}, k {k}");
            reranked.shuffle(&mut rng);
            topk::rank_by_magnitude(&mut reranked, &mut scratch);
            assert_eq!(bits(&reranked), bits(&got), "dim {dim}, k {k}");
        }
    }
    // The policy, spelled out on one small vector.
    let ranked = topk::top_k_entries(
        &[
            1.0,
            f32::INFINITY,
            -0.0,
            f32::NAN,
            0.0,
            f32::NEG_INFINITY,
            1e-40,
        ],
        7,
    );
    let order: Vec<usize> = ranked.iter().map(|e| e.0).collect();
    assert_eq!(order, vec![3, 1, 5, 0, 6, 2, 4]);
}
