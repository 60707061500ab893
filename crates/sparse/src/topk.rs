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
//!   magnitude bits (every digit counted in one sweep up front).
//!   [`top_k_entries_indexed_into`] stops before that rank: the survivors
//!   are already in index order, which is what a wire codec encodes and
//!   what every upload the round engine delivers holds.
//! * [`rank_by_magnitude`] is the same radix rank: three magnitude passes
//!   when the input is already index-sorted, index passes first otherwise.
//!   [`rank_index_ordered_keys_into`] is its key-to-key form for an
//!   index-ordered upload: the selection (or a decoder's visitor) leaves
//!   the [`order_key`]s in index order and the magnitude passes rank them
//!   into the upload's ranked key view, which [`key_entry`] reads back.
//!   [`rank_entries_into`] builds the same view from entries in any order.
//! * [`sort_indices`] sorts bare indices (a downlink set `J`) with the index
//!   passes.
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
//! use agsfl_sparse::topk::top_k_entries;
//!
//! let values = [0.1, -5.0, 3.0, 0.0, 4.0];
//! assert_eq!(top_k_entries(&values, 2), vec![(1, -5.0), (4, 4.0)]);
//! ```

use std::cmp::Ordering;

/// The magnitude bits of an `f32`: everything but the sign.
const MAG_MASK: u32 = 0x7fff_ffff;

/// Radix digits `(shift, bits)` of the key's inverted-magnitude field, least
/// significant first. The top digit (exponent + 3 mantissa bits) is also the
/// first level of the selection histogram.
const MAG_DIGITS: [(u32, u32); 3] = [(33, 10), (43, 10), (53, 11)];

/// Radix digits of the key's index field, least significant first.
const INDEX_DIGITS: [(u32, u32); 3] = [(1, 11), (12, 11), (23, 10)];

/// [`INDEX_DIGITS`] followed by [`MAG_DIGITS`]: the full `(magnitude,
/// index)` order for input in arbitrary order.
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

/// The index field of a key.
#[inline]
fn index_field(key: u64) -> u32 {
    (key >> 1) as u32
}

/// The entry `(j, v)` a key packs, bit for bit: the inverse of
/// [`order_key`], for readers of a ranked key view.
#[inline]
pub fn key_entry(key: u64) -> (usize, f32) {
    let bits = !((key >> 33) as u32) & MAG_MASK | (key as u32) << 31;
    (index_field(key) as usize, f32::from_bits(bits))
}

/// Refills `out` with the unpacked `keys`.
fn unpack_to(keys: &[u64], out: &mut Vec<(usize, f32)>) {
    out.clear();
    out.extend(keys.iter().map(|&key| key_entry(key)));
}

/// Overwrites `entries` with the unpacked `keys` (equally long).
fn unpack_into(keys: &[u64], entries: &mut [(usize, f32)]) {
    for (entry, &key) in entries.iter_mut().zip(keys) {
        *entry = key_entry(key);
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

/// The `bits`-bit digit of `key` at `shift`.
#[inline]
fn digit(key: u64, (shift, bits): (u32, u32)) -> usize {
    (key >> shift) as usize & ((1 << bits) - 1)
}

/// One stable counting-sort scatter of `src` into `dst` on digit `d`, whose
/// histogram `counts` already holds; the counts become the write cursors.
///
/// A function of its own on purpose: written inline in
/// [`radix_sort_between`]'s pass loop the same scatter ran up to twice as
/// slow (measured at k ≥ 54,000 keys).
fn scatter(src: &[u64], dst: &mut [u64], counts: &mut [u32; MAX_BUCKETS], d: (u32, u32)) {
    let mut start = 0;
    for slot in &mut counts[..1 << d.1] {
        start += std::mem::replace(slot, start);
    }
    for &key in src {
        let slot = &mut counts[digit(key, d)];
        dst[*slot as usize] = key;
        *slot += 1;
    }
}

/// Stable LSD radix sort on `digits` (least significant first) of the keys
/// in `keys`, ping-ponging with `other` (as long, contents ignored); returns
/// whether the sorted run ended in `other`.
///
/// Every digit is counted in one sweep up front: a digit's histogram is a
/// property of the key multiset, not of the order the earlier passes left
/// the keys in. A digit every key shares is skipped (its pass would be a
/// copy).
fn radix_sort_between<const N: usize>(
    keys: &mut [u64],
    other: &mut [u64],
    digits: &[(u32, u32); N],
) -> bool {
    let n = keys.len();
    assert_eq!(other.len(), n, "the ping-pong halves must be equally long");
    assert!(n <= u32::MAX as usize, "radix offsets are 32-bit");
    let mut counts = [[0u32; MAX_BUCKETS]; N];
    for &key in keys.iter() {
        for (counts, &d) in counts.iter_mut().zip(digits) {
            counts[digit(key, d)] += 1;
        }
    }
    let (mut src, mut dst, mut in_other) = (keys, other, false);
    for (counts, &d) in counts.iter_mut().zip(digits) {
        let shared = src
            .first()
            .is_none_or(|&key| counts[digit(key, d)] as usize == n);
        if !shared {
            scatter(src, dst, counts, d);
            std::mem::swap(&mut src, &mut dst);
            in_other = !in_other;
        }
    }
    in_other
}

/// [`radix_sort_between`] the two halves of `keys` doubled; returns the
/// sorted run, which lives in either half.
fn radix_sort<'a, const N: usize>(keys: &'a mut Vec<u64>, digits: &[(u32, u32); N]) -> &'a [u64] {
    let n = keys.len();
    keys.resize(2 * n, 0);
    let (front, back) = keys.split_at_mut(n);
    if radix_sort_between(front, back, digits) {
        &keys[n..]
    } else {
        &keys[..n]
    }
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
    if index_sorted {
        radix_sort(keys, &MAG_DIGITS)
    } else {
        radix_sort(keys, &ALL_DIGITS)
    }
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
    let index_sorted = select_keys(values, k, scratch);
    unpack_to(rank_keys(scratch, index_sorted), out);
}

/// The selection of [`top_k_entries_into`] in increasing index order — what
/// a wire codec encodes and what an upload holds. The histogram select
/// already leaves its survivors in index order, so this skips the rank
/// altogether; a short vector sorts its at most `k` selected keys by their
/// index field. Equal, entry for entry, to the ranked selection sorted by
/// index. On return `scratch` holds the [`order_key`]s of `out`, in the
/// same order, ready for [`rank_index_ordered_keys_into`].
///
/// # Panics
///
/// Panics if `values.len()` exceeds `u32::MAX`.
pub fn top_k_entries_indexed_into(
    values: &[f32],
    k: usize,
    scratch: &mut Vec<u64>,
    out: &mut Vec<(usize, f32)>,
) {
    if !select_keys(values, k, scratch) {
        scratch.sort_unstable_by_key(|&key| index_field(key));
    }
    unpack_to(scratch, out);
}

/// Refills `keys` with the keys of the best `min(k, len)` of `values`;
/// returns whether they are in index order (they are unless the vector is
/// short enough to select by streaming, which leaves them unordered).
fn select_keys(values: &[f32], k: usize, keys: &mut Vec<u64>) -> bool {
    let dim = values.len();
    assert!(
        dim <= u32::MAX as usize,
        "dimension exceeds the 32-bit key field"
    );
    let k = k.min(dim);
    if k == 0 {
        keys.clear();
    } else if dim <= SMALL_DIM {
        select_streaming(values, k, keys);
        return false;
    } else if k < dim {
        select_by_histogram(values, k, keys);
    } else {
        keys.clear();
        keys.extend(values.iter().enumerate().map(|(j, &v)| pack(j, v)));
    }
    true
}

/// The order key of entry `(j, v)` (see the module docs), for a producer
/// that streams entries straight into a key buffer —
/// [`rank_index_ordered_keys_into`] ranks them without an entry list in
/// between, and [`key_entry`] reads one back.
#[inline]
pub fn order_key(j: u32, v: f32) -> u64 {
    pack(j as usize, v)
}

/// Ranks [`order_key`]s that arrive in strictly increasing index order (an
/// upload's entries always are) into `ranked` (refilled): the magnitude
/// digits are all that is left to sort. The passes ping-pong between
/// `keys`, consumed as scratch, and `ranked`, so neither buffer grows past
/// the key count.
pub fn rank_index_ordered_keys_into(keys: &mut [u64], ranked: &mut Vec<u64>) {
    debug_assert!(
        keys.windows(2)
            .all(|w| index_field(w[0]) < index_field(w[1])),
        "keys must arrive in strictly increasing index order"
    );
    ranked.clear();
    if keys.len() <= SMALL_SORT {
        keys.sort_unstable();
        ranked.extend_from_slice(keys);
        return;
    }
    ranked.resize(keys.len(), 0);
    if !radix_sort_between(keys, ranked, &MAG_DIGITS) {
        ranked.copy_from_slice(keys);
    }
}

/// Writes the [`order_key`]s of `entries` (any order) into `ranked`
/// (cleared first) in the magnitude order — an upload's ranked key view,
/// for a caller that holds only its entries. `scratch` is cleared and
/// reused.
///
/// # Panics
///
/// Panics if an index does not fit in 32 bits.
pub fn rank_entries_into(entries: &[(usize, f32)], scratch: &mut Vec<u64>, ranked: &mut Vec<u64>) {
    let index_sorted = pack_entries(entries, scratch);
    ranked.clear();
    ranked.extend_from_slice(rank_keys(scratch, index_sorted));
}

/// The indices of the first `kappa` keys of a ranked key view, i.e. the
/// per-client `J_i^kappa` sets used by the fairness-aware selection.
pub fn prefix_indices(ranked: &[u64], kappa: usize) -> impl Iterator<Item = usize> + '_ {
    ranked
        .iter()
        .take(kappa)
        .map(|&key| index_field(key) as usize)
}

/// Sorts `indices` ascending — a downlink set `J` before the shared sweep —
/// with the index passes of [`sort_by_index`] on `scratch` (cleared first;
/// it grows to `2 · indices.len()` keys), or `sort_unstable` up to
/// `SMALL_SORT` indices.
///
/// # Panics
///
/// Panics if an index does not fit in 32 bits.
pub fn sort_indices(indices: &mut [usize], scratch: &mut Vec<u64>) {
    if indices.len() <= SMALL_SORT {
        indices.sort_unstable();
        return;
    }
    scratch.clear();
    let mut index_bits = 0;
    scratch.extend(indices.iter().map(|&j| {
        index_bits |= j;
        (j as u64) << 1
    }));
    assert!(
        index_bits <= u32::MAX as usize,
        "index exceeds the 32-bit key field"
    );
    for (j, &key) in indices.iter_mut().zip(radix_sort(scratch, &INDEX_DIGITS)) {
        *j = index_field(key) as usize;
    }
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
    unpack_into(radix_sort(scratch, &INDEX_DIGITS), entries);
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
    entries.extend(scratch[..k].iter().map(|&key| key_entry(key)));
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
        let all = top_k_entries(&v, 10);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn ties_are_broken_by_index() {
        let v = [2.0, -2.0, 2.0, 1.0];
        let entries = top_k_entries(&v, 2);
        assert_eq!(entries, vec![(0, 2.0), (1, -2.0)]);
    }

    #[test]
    fn empty_input() {
        assert!(top_k_entries(&[], 3).is_empty());
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

    /// Counting every digit in one sweep before the first scatter must sort
    /// exactly as counting each digit on the run the previous pass left: on
    /// the full key (`ALL_DIGITS`, arbitrary order in), on the magnitude
    /// digits of index-ordered keys (`MAG_DIGITS`), and on the index digits
    /// (`INDEX_DIGITS`, a stable sort by index) — with shared digits, whose
    /// passes are skipped, and repeated keys.
    #[test]
    fn single_sweep_radix_sort_equals_comparison_sorts_of_the_keys() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        for (n, index_range, quantized) in [
            (0usize, 10u32, false),
            (1, 10, false),
            (2, 2, true),
            (700, 5_000, true),
            (5_000, 5_000, false),
            (5_000, u32::MAX, false),
            (5_000, 3, true),
        ] {
            let keys: Vec<u64> = (0..n)
                .map(|_| {
                    let v = if quantized {
                        rng.gen_range(-3i32..3) as f32 * 0.5
                    } else {
                        f32::from_bits(rng.gen())
                    };
                    pack(rng.gen_range(0..index_range) as usize, v)
                })
                .collect();
            // No digit covers the sign bit: keys that differ in nothing else
            // keep their input order, as in a stable sort on the rest.
            let mut expected = keys.clone();
            expected.sort_by_key(|&key| key >> 1);
            let mut all = keys.clone();
            assert_eq!(radix_sort(&mut all, &ALL_DIGITS), expected, "n {n}");

            let mut by_index = keys.clone();
            by_index.sort_by_key(|&key| index_field(key));
            let mut index_pass = keys.clone();
            assert_eq!(
                radix_sort(&mut index_pass, &INDEX_DIGITS)
                    .iter()
                    .map(|&key| index_field(key))
                    .collect::<Vec<_>>(),
                by_index
                    .iter()
                    .map(|&key| index_field(key))
                    .collect::<Vec<_>>(),
                "n {n}"
            );
            // Stable in the magnitude digits alone: distinct indices make the
            // index order the tie-break, i.e. the full key order.
            by_index.dedup_by_key(|key| index_field(*key));
            let mut expected = by_index.clone();
            expected.sort_unstable();
            assert_eq!(radix_sort(&mut by_index, &MAG_DIGITS), expected, "n {n}");
        }
    }

    #[test]
    fn prefix_indices_takes_leading_keys() {
        let (mut ranked, mut scratch) = (Vec::new(), Vec::new());
        rank_entries_into(&[(0, 1.0), (2, 2.5), (5, -4.0)], &mut scratch, &mut ranked);
        assert_eq!(
            ranked.iter().map(|&key| key_entry(key)).collect::<Vec<_>>(),
            [(5, -4.0), (2, 2.5), (0, 1.0)]
        );
        let first_two: Vec<usize> = prefix_indices(&ranked, 2).collect();
        assert_eq!(first_two, vec![5, 2]);
        let none: Vec<usize> = prefix_indices(&ranked, 0).collect();
        assert!(none.is_empty());
    }

    proptest! {
        /// The index radix against `sort_unstable`, on both sides of the
        /// `SMALL_SORT` cut-over, with indices up to the 32-bit field's top
        /// digit (so no index pass is skipped as shared).
        #[test]
        fn prop_sort_indices_matches_sort_unstable(
            len in 0usize..3000,
            bound_idx in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let bound = [5_000usize, 419_582, u32::MAX as usize][bound_idx];
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut indices: Vec<usize> = (0..len)
                .map(|_| rand::Rng::gen_range(&mut rng, 0..=bound))
                .collect();
            indices.sort_unstable();
            indices.dedup();
            let expected = indices.clone();
            indices.shuffle(&mut rng);
            let mut scratch = vec![7; 3];
            sort_indices(&mut indices, &mut scratch);
            prop_assert_eq!(indices, expected);
        }

        #[test]
        fn prop_topk_returns_true_top_k(
            values in proptest::collection::vec(-100.0f32..100.0, 1..80),
            k_raw in 0usize..80,
        ) {
            let k = k_raw % (values.len() + 1);
            let selected: Vec<usize> = top_k_entries(&values, k).into_iter().map(|(j, _)| j).collect();
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
