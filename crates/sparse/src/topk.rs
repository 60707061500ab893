//! The magnitude order, and selection of the `k` largest-magnitude
//! coordinates of a dense vector.
//!
//! Clients in Algorithm 1 compute `J_i`, the indices of the top-`k` absolute
//! values of their accumulated gradient `a_i`, and FAB-top-k needs that list
//! *ranked*: larger `|v|` first, ties broken by the smaller index
//! ([`compare_magnitude_then_index`] is the executable spec of that order).
//!
//! # One integer key
//!
//! Every ordering in this module is taken on one packed `u64` key per entry,
//!
//! ```text
//! [ !magnitude bits : 31 ][ index : 32 ][ sign : 1 ]
//! ```
//!
//! where the magnitude bits are `v.to_bits() & 0x7fff_ffff`. For IEEE-754
//! floats the magnitude order *is* the unsigned order of those bits, so
//! ascending key order is exactly "larger `|v|` first, then smaller index",
//! and the key alone rebuilds `(index, value)` bit for bit. Nothing compares
//! floats:
//!
//! * [`top_k_entries_into`] finds the `k`-th magnitude with a three-level
//!   bucket histogram over the magnitude bits (11 + 10 + 10 bits, `O(D)`):
//!   the first level scans the vector, one index-order sweep gathers
//!   everything in or above the boundary bucket, the two finer levels read
//!   only that bucket, and a last in-place sweep keeps what is strictly
//!   above the threshold plus the first few ties — which *is* the index
//!   tie-break. The survivors are ranked with a stable LSD radix sort on the
//!   magnitude bits.
//! * [`rank_by_magnitude`] is the same radix rank: three magnitude passes
//!   when the input is already index-sorted (a decoded frame always is),
//!   index passes first otherwise.
//! * Short inputs skip the histograms, whose fixed cost would dominate:
//!   vectors of at most `SMALL_DIM` coordinates select by a streaming
//!   integer `select_nth_unstable`, lists of at most `SMALL_SORT` keys rank
//!   by a plain `sort_unstable`. The cut-overs are where the two sides
//!   measured equal (`k = D/2` at `D ≈ 8k`; `n ≈ 1–2k` keys).
//!
//! # Non-finite values
//!
//! The key order is total by construction, so no input can make a sort
//! misbehave: NaN ranks above `+∞` (by its bit pattern, larger payloads
//! first), `±∞` above every finite value, `-0.0` ties with `0.0`, and
//! subnormals order like any other magnitude. On finite inputs the order is
//! identical to [`compare_magnitude_then_index`].
//!
//! # Examples
//!
//! ```
//! use agsfl_sparse::topk::top_k_indices;
//!
//! let values = [0.1, -5.0, 3.0, 0.0, 4.0];
//! let mut top2 = top_k_indices(&values, 2);
//! top2.sort_unstable();
//! assert_eq!(top2, vec![1, 4]);
//! ```

use std::cmp::Ordering;

/// The magnitude bits of an `f32`: everything but the sign.
const MAG_MASK: u32 = 0x7fff_ffff;

/// Radix digits `(shift, bits)` of the key's inverted-magnitude field, least
/// significant first. The top digit (exponent + 3 mantissa bits) is also the
/// first level of the selection histogram.
const MAG_DIGITS: [(u32, u32); 3] = [(33, 10), (43, 10), (53, 11)];

/// Radix digits of the key's index field followed by [`MAG_DIGITS`]: the
/// full `(magnitude, index)` order for input in arbitrary order.
const ALL_DIGITS: [(u32, u32); 6] = [(1, 11), (12, 11), (23, 10), (33, 10), (43, 10), (53, 11)];

/// Largest histogram any level or radix pass uses (11 bits).
const MAX_BUCKETS: usize = 1 << 11;

/// Dimensions up to this select through [`select_streaming`] instead of
/// [`select_by_histogram`]. Measured on uniform values at `k = D/50`, `D/10`
/// and `D/2`: streaming wins all three at `D = 4200` (5.3/11.2/25 µs against
/// 8.1/14/43 µs), the histograms win `k = D/2` from `D = 8400` (53 against
/// 62 µs) and `k = D/10` from `D = 16800` (42 against 66 µs).
const SMALL_DIM: usize = 4096;

/// Key lists up to this long are sorted by `sort_unstable` instead of the
/// radix passes. Measured: 4.5 against 5.9 µs at 512 keys, 9.2 against 9.6 µs
/// at 1024, 21 against 19 µs at 2048.
const SMALL_SORT: usize = 1024;

/// Packs one entry into its order key (see the module docs). `j` must fit
/// in 32 bits; callers assert that once per call, not per entry.
#[inline]
fn pack(j: usize, v: f32) -> u64 {
    let bits = v.to_bits();
    u64::from(!bits & MAG_MASK) << 33 | (j as u64) << 1 | u64::from(bits >> 31)
}

/// Inverse of [`pack`].
#[inline]
fn unpack(key: u64) -> (usize, f32) {
    let bits = !((key >> 33) as u32) & MAG_MASK | (key as u32) << 31;
    ((key >> 1) as u32 as usize, f32::from_bits(bits))
}

/// Overwrites `entries` with the unpacked `keys` (equally long).
fn unpack_into(keys: &[u64], entries: &mut [(usize, f32)]) {
    for (entry, &key) in entries.iter_mut().zip(keys) {
        *entry = unpack(key);
    }
}

/// Refills `keys` with the packed entries; returns whether the entries were
/// in strictly increasing index order.
///
/// # Panics
///
/// Panics if an index does not fit in 32 bits.
fn pack_entries(entries: &[(usize, f32)], keys: &mut Vec<u64>) -> bool {
    keys.clear();
    let (mut index_bits, mut prev, mut sorted) = (0, None, true);
    keys.extend(entries.iter().map(|&(j, v)| {
        index_bits |= j;
        sorted &= prev < Some(j);
        prev = Some(j);
        pack(j, v)
    }));
    assert!(
        index_bits <= u32::MAX as usize,
        "entry index exceeds the 32-bit key field"
    );
    sorted
}

/// One stable counting-sort pass of `src` into `dst` on the `bits`-bit
/// digit at `shift`. Returns `false`, leaving `dst` unwritten, when every
/// key shares the digit (the pass would be a copy).
fn radix_pass(src: &[u64], dst: &mut [u64], shift: u32, bits: u32) -> bool {
    let mask = (1usize << bits) - 1;
    let digit = |key: u64| (key >> shift) as usize & mask;
    let mut offsets = [0u32; MAX_BUCKETS];
    for &key in src {
        offsets[digit(key)] += 1;
    }
    if src
        .first()
        .is_some_and(|&key| offsets[digit(key)] as usize == src.len())
    {
        return false;
    }
    let mut start = 0;
    for slot in &mut offsets[..=mask] {
        start += std::mem::replace(slot, start);
    }
    for &key in src {
        let slot = &mut offsets[digit(key)];
        dst[*slot as usize] = key;
        *slot += 1;
    }
    true
}

/// Stable LSD radix sort of `keys` on `digits` (least significant first);
/// returns the sorted run, which lives in either half of the doubled buffer.
fn radix_sort<'a>(keys: &'a mut Vec<u64>, digits: &[(u32, u32)]) -> &'a [u64] {
    let n = keys.len();
    assert!(n <= u32::MAX as usize, "radix offsets are 32-bit");
    keys.resize(2 * n, 0);
    let (mut src, mut dst) = keys.split_at_mut(n);
    for &(shift, bits) in digits {
        if radix_pass(src, dst, shift, bits) {
            std::mem::swap(&mut src, &mut dst);
        }
    }
    src
}

/// Sorts `keys` into the magnitude order and returns the sorted run.
/// `index_sorted` says the keys already arrive in index order, so only the
/// magnitude digits are left to sort; short lists take `sort_unstable` on
/// the whole key, which is the same order.
fn rank_keys(keys: &mut Vec<u64>, index_sorted: bool) -> &[u64] {
    if keys.len() <= SMALL_SORT {
        keys.sort_unstable();
        return keys;
    }
    radix_sort(
        keys,
        if index_sorted {
            &MAG_DIGITS
        } else {
            &ALL_DIGITS
        },
    )
}

/// Walks `hist` up from bucket 0 (inverted digits: the largest magnitudes)
/// to the bucket holding the `need`-th best element; returns that bucket
/// and how many of its elements are still needed.
fn cut(hist: &[u32], mut need: usize) -> (u64, usize) {
    for (bucket, &count) in hist.iter().enumerate() {
        if count as usize >= need {
            return (bucket as u64, need);
        }
        need -= count as usize;
    }
    unreachable!("histogram holds fewer elements than requested");
}

/// Refills `keys` with the best `k` of `values` (`0 < k < len`), in index
/// order, without comparing: a histogram of the top magnitude digit finds
/// the bucket the `k`-th magnitude falls in; one sweep gathers every entry
/// in or above that bucket (the survivors plus, typically, `D/16` boundary
/// candidates or fewer); two finer histograms over the boundary bucket pin
/// the `k`-th magnitude exactly; and an in-place sweep drops what is below
/// it, keeping only the first few of the entries tied *at* it — which is
/// the index tie-break.
fn select_by_histogram(values: &[f32], k: usize, keys: &mut Vec<u64>) {
    let [(low_shift, _), (mid_shift, _), (top_shift, _)] = MAG_DIGITS;
    let mut hist = [0u32; MAX_BUCKETS];
    for &v in values {
        hist[(pack(0, v) >> top_shift) as usize] += 1;
    }
    let (top, need) = cut(&hist, k);

    // Branch-free gather: always write, advance only on a match. The spare
    // slot absorbs the writes after the last match.
    let candidates = k - need + hist[top as usize] as usize;
    keys.clear();
    keys.resize(candidates + 1, 0);
    let mut n = 0;
    for (j, &v) in values.iter().enumerate() {
        let key = pack(j, v);
        keys[n] = key;
        n += usize::from(key >> top_shift <= top);
    }
    keys.truncate(candidates);

    // One finer level: the 10-bit digit at `shift`, over the keys whose
    // bits from `above` up equal `prefix`.
    let refine = |prefix: u64, above: u32, shift: u32, need: usize| {
        let mut hist = [0u32; 1 << 10];
        for &key in keys.iter() {
            if key >> above == prefix {
                hist[(key >> shift) as usize & 0x3ff] += 1;
            }
        }
        let (digit, need) = cut(&hist, need);
        (prefix << 10 | digit, need)
    };
    let (prefix, need) = refine(top, top_shift, mid_shift, need);
    let (threshold, ties) = refine(prefix, mid_shift, low_shift, need);

    let (mut n, mut seen) = (0, 0);
    for i in 0..candidates {
        let key = keys[i];
        let tie = key >> low_shift == threshold;
        let take = key >> low_shift < threshold || (tie && seen < ties);
        seen += usize::from(tie);
        keys[n] = key;
        n += usize::from(take);
    }
    debug_assert_eq!(n, k);
    keys.truncate(k);
}

/// Refills `keys` with the best `k` of `values` (unordered) for short
/// vectors, where a histogram's fixed cost would dominate: one streaming
/// pass over a `2k` buffer, compacted by integer `select_nth_unstable`
/// whenever it fills; later entries are admitted only below the running
/// `k`-th best key.
fn select_streaming(values: &[f32], k: usize, keys: &mut Vec<u64>) {
    keys.clear();
    let cap = 2 * k;
    let mut threshold = u64::MAX;
    for (j, &v) in values.iter().enumerate() {
        let key = pack(j, v);
        if key > threshold {
            continue;
        }
        keys.push(key);
        if keys.len() == cap && cap < values.len() {
            keys.select_nth_unstable(k - 1);
            keys.truncate(k);
            threshold = keys[k - 1];
        }
    }
    if k < keys.len() {
        keys.select_nth_unstable(k - 1);
        keys.truncate(k);
    }
}

/// Returns the indices of the `k` largest absolute values of `values`.
///
/// If `k >= values.len()` all indices are returned. The output is ranked by
/// decreasing magnitude, **not** sorted by index; callers that need index
/// order must sort it themselves.
pub fn top_k_indices(values: &[f32], k: usize) -> Vec<usize> {
    top_k_entries(values, k)
        .into_iter()
        .map(|(j, _)| j)
        .collect()
}

/// Returns `(index, value)` pairs of the `k` largest absolute values,
/// ordered by decreasing magnitude (ties broken by index).
///
/// Allocates a fresh key buffer; hot paths that run every round should use
/// [`top_k_entries_with`] and reuse one.
pub fn top_k_entries(values: &[f32], k: usize) -> Vec<(usize, f32)> {
    top_k_entries_with(values, k, &mut Vec::new())
}

/// [`top_k_entries`] with a caller-provided key buffer.
///
/// `scratch` is cleared and refilled on every call and holds at most
/// `max(2k, boundary bucket)` packed keys (see the module docs); reusing
/// one buffer across rounds (as `agsfl_fl::Client` does) makes the
/// steady-state path allocation-free apart from the returned vector, which
/// holds only the `k` selected entries and is handed off to the upload
/// message.
pub fn top_k_entries_with(values: &[f32], k: usize, scratch: &mut Vec<u64>) -> Vec<(usize, f32)> {
    let mut out = Vec::new();
    top_k_entries_into(values, k, scratch, &mut out);
    out
}

/// [`top_k_entries_with`] writing the ranked selection into a caller-owned
/// output buffer (cleared first): identical selection and order, zero
/// allocation once both buffers have grown. This is the cohort engine's
/// per-slot uplink builder.
///
/// # Panics
///
/// Panics if `values.len()` exceeds `u32::MAX` (indices are packed into a
/// 32-bit key field).
pub fn top_k_entries_into(
    values: &[f32],
    k: usize,
    scratch: &mut Vec<u64>,
    out: &mut Vec<(usize, f32)>,
) {
    out.clear();
    let dim = values.len();
    assert!(
        dim <= u32::MAX as usize,
        "dimension exceeds the 32-bit key field"
    );
    let k = k.min(dim);
    if k == 0 {
        return;
    }
    if dim <= SMALL_DIM {
        select_streaming(values, k, scratch);
        scratch.sort_unstable();
        out.extend(scratch.iter().map(|&key| unpack(key)));
        return;
    }
    if k < dim {
        select_by_histogram(values, k, scratch);
    } else {
        scratch.clear();
        scratch.extend(values.iter().enumerate().map(|(j, &v)| pack(j, v)));
    }
    // Either way the keys are in index order: the magnitude digits finish it.
    out.extend(rank_keys(scratch, true).iter().map(|&key| unpack(key)));
}

/// Returns the `kappa` largest-magnitude entries of an *already ranked*
/// upload list (entries sorted by decreasing magnitude), i.e. the per-client
/// `J_i^kappa` sets used by the fairness-aware selection.
pub fn prefix_indices(
    ranked_entries: &[(usize, f32)],
    kappa: usize,
) -> impl Iterator<Item = usize> + '_ {
    ranked_entries.iter().take(kappa).map(|&(j, _)| j)
}

/// Sorts entries by decreasing magnitude with deterministic index
/// tie-break, through the packed keys in `scratch` (cleared first; it grows
/// to `2 · entries.len()` keys and is reusable across calls).
///
/// Entries sharing an index *and* a magnitude (which no upload contains)
/// come out in an unspecified relative order.
///
/// # Panics
///
/// Panics if an index does not fit in 32 bits.
pub fn rank_by_magnitude(entries: &mut [(usize, f32)], scratch: &mut Vec<u64>) {
    let index_sorted = pack_entries(entries, scratch);
    unpack_into(rank_keys(scratch, index_sorted), entries);
}

/// Sorts entries by increasing index — the wire codecs' canonical order —
/// with the same radix passes as [`rank_by_magnitude`].
///
/// # Panics
///
/// Panics if an index does not fit in 32 bits.
pub fn sort_by_index(entries: &mut [(usize, f32)], scratch: &mut Vec<u64>) {
    if entries.len() <= SMALL_SORT {
        entries.sort_unstable_by_key(|&(j, _)| j);
        return;
    }
    if pack_entries(entries, scratch) {
        return;
    }
    unpack_into(radix_sort(scratch, &ALL_DIGITS[..3]), entries);
}

/// Cuts `entries` down to its `k` best under the magnitude order, as an
/// unordered set (FUB-top-k's candidate cut re-sorts by index anyway).
///
/// # Panics
///
/// Panics if an index does not fit in 32 bits.
pub fn truncate_to_top_k(entries: &mut Vec<(usize, f32)>, k: usize, scratch: &mut Vec<u64>) {
    if k >= entries.len() {
        return;
    }
    pack_entries(entries, scratch);
    if k > 0 {
        scratch.select_nth_unstable(k - 1);
    }
    entries.clear();
    entries.extend(scratch[..k].iter().map(|&key| unpack(key)));
}

/// The executable specification of the magnitude order: larger magnitude
/// first, ties broken by smaller index. Product code never sorts with it
/// (`scripts/verify.sh` greps for that) — it takes the order on integer
/// keys — but `reference` and the equivalence tests do, on finite values,
/// where the two orders agree. It is **not** a total order once NaN is
/// involved, which is why nothing on the round path may sort by it.
pub fn compare_magnitude_then_index(a: &(usize, f32), b: &(usize, f32)) -> Ordering {
    match b.1.abs().partial_cmp(&a.1.abs()) {
        Some(Ordering::Equal) | None => a.0.cmp(&b.0),
        Some(ord) => ord,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn selects_largest_magnitudes() {
        let v = [1.0, -10.0, 5.0, 0.5, -6.0];
        let entries = top_k_entries(&v, 3);
        assert_eq!(entries, vec![(1, -10.0), (4, -6.0), (2, 5.0)]);
    }

    #[test]
    fn k_zero_and_k_too_large() {
        let v = [1.0, 2.0];
        assert!(top_k_entries(&v, 0).is_empty());
        let all = top_k_indices(&v, 10);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn ties_are_broken_by_index() {
        let v = [2.0, -2.0, 2.0, 1.0];
        let idx = top_k_indices(&v, 2);
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn empty_input() {
        assert!(top_k_indices(&[], 3).is_empty());
    }

    #[test]
    fn scratch_variant_matches_allocating_variant() {
        let v = [1.0, -10.0, 5.0, 0.5, -6.0, 0.0, 3.25];
        let mut scratch = Vec::new();
        for k in 0..=v.len() + 1 {
            assert_eq!(
                top_k_entries_with(&v, k, &mut scratch),
                top_k_entries(&v, k)
            );
        }
    }

    /// Pins the streaming/compaction path against a naive full sort on
    /// inputs large enough that `2k < D` (the bounded-buffer branch), with
    /// adversarial duplicates so the index tie-break is exercised.
    #[test]
    fn streaming_path_matches_full_sort_reference() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let mut scratch = Vec::new();
        for (dim, k) in [(500, 5), (500, 32), (1000, 1), (257, 100), (64, 31)] {
            // Quantized values force plenty of exact magnitude ties.
            let values: Vec<f32> = (0..dim)
                .map(|_| (rng.gen_range(-50i32..50) as f32) * 0.25)
                .collect();
            let mut ranked: Vec<(usize, f32)> =
                values.iter().enumerate().map(|(j, &v)| (j, v)).collect();
            ranked.sort_by(compare_magnitude_then_index);
            let expected: Vec<(usize, f32)> = ranked.into_iter().take(k).collect();
            let got = top_k_entries_with(&values, k, &mut scratch);
            assert_eq!(got, expected, "dim={dim}, k={k}");
        }
    }

    #[test]
    fn values_are_preserved_with_sign() {
        let v = [0.0, -3.5, 2.0];
        let entries = top_k_entries(&v, 2);
        assert_eq!(entries[0], (1, -3.5));
        assert_eq!(entries[1], (2, 2.0));
    }

    #[test]
    fn rank_by_magnitude_orders_descending() {
        let mut entries = vec![(0, 1.0), (5, -4.0), (2, 2.5)];
        rank_by_magnitude(&mut entries, &mut Vec::new());
        assert_eq!(entries, vec![(5, -4.0), (2, 2.5), (0, 1.0)]);
    }

    #[test]
    fn prefix_indices_takes_leading_entries() {
        let ranked = vec![(5, -4.0), (2, 2.5), (0, 1.0)];
        let first_two: Vec<usize> = prefix_indices(&ranked, 2).collect();
        assert_eq!(first_two, vec![5, 2]);
        let none: Vec<usize> = prefix_indices(&ranked, 0).collect();
        assert!(none.is_empty());
    }

    proptest! {
        #[test]
        fn prop_topk_returns_true_top_k(
            values in proptest::collection::vec(-100.0f32..100.0, 1..80),
            k_raw in 0usize..80,
        ) {
            let k = k_raw % (values.len() + 1);
            let selected = top_k_indices(&values, k);
            prop_assert_eq!(selected.len(), k.min(values.len()));
            // The smallest selected magnitude is >= the largest unselected one.
            let selected_set: std::collections::HashSet<usize> = selected.iter().copied().collect();
            let min_selected = selected.iter().map(|&j| values[j].abs()).fold(f32::INFINITY, f32::min);
            let max_unselected = values
                .iter()
                .enumerate()
                .filter(|(j, _)| !selected_set.contains(j))
                .map(|(_, v)| v.abs())
                .fold(f32::NEG_INFINITY, f32::max);
            if k > 0 && k < values.len() {
                prop_assert!(min_selected >= max_unselected - 1e-6);
            }
        }

        #[test]
        fn prop_topk_entries_sorted_by_magnitude(
            values in proptest::collection::vec(-10.0f32..10.0, 1..40),
            k_raw in 1usize..40,
        ) {
            let k = 1 + k_raw % values.len();
            let entries = top_k_entries(&values, k);
            prop_assert!(entries.windows(2).all(|w| w[0].1.abs() >= w[1].1.abs() - 1e-6));
            // No duplicate indices.
            let mut idx: Vec<usize> = entries.iter().map(|&(j, _)| j).collect();
            idx.sort_unstable();
            idx.dedup();
            prop_assert_eq!(idx.len(), entries.len());
        }
    }
}
