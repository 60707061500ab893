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
//! * [`top_k_entries_into`] reads the vector once. A stratified sample of
//!   4096 coordinates bounds the `k`-th magnitude from below and above; one
//!   index-order pass gathers the key of every entry at or above the lower
//!   bound (a bit mask per 64-coordinate chunk; only the set lanes are
//!   packed); and the exact cut runs over those candidates alone: a
//!   histogram of the band between the two bounds (everything above the
//!   upper one is a certain survivor), at most two finer levels inside the
//!   boundary bucket, and a last in-place sweep that keeps what is strictly
//!   above the threshold plus the first few ties — which *is* the index
//!   tie-break. The sample only sizes the candidate set, so the selection
//!   is exact whatever it draws: a gather that comes back with fewer than
//!   `k` candidates retries at a lower bound, the last at 0. The survivors
//!   are ranked with a stable LSD radix sort on the magnitude bits (every
//!   digit counted in one sweep up front).
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
//! * Short inputs skip the sample and the histograms, whose fixed cost
//!   would dominate: vectors of at most `SMALL_DIM` coordinates select by a
//!   streaming integer `select_nth_unstable`, lists of at most `SMALL_SORT`
//!   keys rank by a plain `sort_unstable`. The cut-overs are where the two
//!   sides measured about equal (`D ≈ 8–12k`; `n ≈ 1–2k` keys).
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
/// [`select_by_sample`], whose sample alone costs about 25 µs. Measured on
/// uniform values, index-ordered selection, at `k = D/50`, `D/10` and
/// `D/2`: streaming wins the first two at `D = 8192` (11.3 and 26.5 µs
/// against 29.6 and 33.5 µs) and loses only `k = D/2` (64.7 against 54.2
/// µs); at `D = 12,000` the sample wins `D/10` and `D/2` (38.7 and 78.6 µs
/// against 40.7 and 112.7 µs).
const SMALL_DIM: usize = 8192;

/// Strata of the sample that bounds the `k`-th magnitude
/// ([`sample_bounds`]). Measured on residuals recorded from the
/// benchmark's `sparse_wide_linear` (69 selections, `k = 20,000` of
/// 418,624) and `paper_cnn_adaptive` (69 selections, `k` = 839 to 210,211
/// of 419,582) runs, as total selection time against the two-pass
/// histogram select: 1024 strata 0.50/0.67 (one gather fell short), 2048
/// 0.53/0.67, 4096 0.52/0.66, 8192 0.54/0.68, 16,384 0.60/0.76 — the
/// sample's own cost against the candidates its margin admits (a median
/// 23 % of `k` past `k` at 4096 strata, 15 % at 8192).
const SAMPLES: usize = 4096;

const _: () = assert!(SAMPLES <= SMALL_DIM, "every stratum needs a coordinate");

/// The sample's margin, gather by gather, in units of `σ + 1` sample
/// ranks, `σ` the binomial standard deviation of the rank the `k`-th
/// magnitude is expected at (the `+ 1` covers small ranks: `k = 839` of
/// 419,582 expects rank 8). A gather that falls short of `k` retries at
/// four times the margin, and then at lower bound 0 — every coordinate.
/// Measured over nine benchmark runs (`sparse_wide_linear`,
/// `paper_cnn_adaptive` and `faulty_auto_resume`, seeds 7, 11 and 13;
/// 10,265 selections): one gather fell short at 3, where `3σ` alone fell
/// short on 5 of 6,920 (seeds 7 and 11) and `2σ` alone on 3 of 238
/// recorded residuals.
const MARGIN_SIGMAS: [Option<f64>; 3] = [Some(3.0), Some(12.0), None];

/// Lanes of the gather's mask: one mispredicted loop exit per 64
/// coordinates instead of per 16. Measured at `D = 418,624`: 0.26 against
/// 0.45 ms at 6 % of the vector gathered, 0.41 against 0.75 ms at 50 %.
const LANES: usize = 64;

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

/// The inverted magnitude field of a key: smaller is larger `|v|`.
#[inline]
fn inverted_magnitude(key: u64) -> u32 {
    (key >> 33) as u32
}

/// The entry `(j, v)` a key packs, bit for bit: the inverse of
/// [`order_key`], for readers of a ranked key view.
#[inline]
pub fn key_entry(key: u64) -> (usize, f32) {
    let bits = !inverted_magnitude(key) & MAG_MASK | (key as u32) << 31;
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

/// Walks `hist` up from bucket 0 (inverted magnitudes: the largest first)
/// to the bucket holding the `need`-th best element; returns that bucket
/// and how many of its elements are still needed.
fn cut(hist: &[u32], mut need: usize) -> (u32, usize) {
    for (bucket, &count) in hist.iter().enumerate() {
        if count as usize >= need {
            return (bucket as u32, need);
        }
        need -= count as usize;
    }
    unreachable!("histogram holds fewer elements than requested");
}

/// The sample's bounds on the `k`-th magnitude of `values`.
struct Bounds {
    /// Magnitude bits at or below the `k`-th magnitude, with high
    /// probability; 0 takes every coordinate.
    lower: u32,
    /// Magnitude bits at or above the `k`-th magnitude, with high
    /// probability; `MAG_MASK` is at or above every magnitude.
    upper: u32,
    /// How many coordinates the sample expects at or above `lower`.
    estimate: usize,
}

/// Bounds the `k`-th magnitude of `values` (`SAMPLES ≤ len`, `0 < k < len`)
/// from a stratified sample: each of the `SAMPLES` equal strata gives one
/// coordinate at a fixed pseudo-random offset, and the bounds are the
/// sample magnitudes `sigmas · (σ + 1)` ranks below and above the rank the
/// `k`-th magnitude is expected at (see `MARGIN_SIGMAS`).
fn sample_bounds(values: &[f32], k: usize, sigmas: f64) -> Bounds {
    let dim = values.len();
    let mut sample = [0u32; SAMPLES];
    for (s, slot) in sample.iter_mut().enumerate() {
        let (lo, hi) = (s * dim / SAMPLES, (s + 1) * dim / SAMPLES);
        *slot = values[lo + jitter(s) % (hi - lo)].to_bits() & MAG_MASK;
    }
    let p = k as f64 / dim as f64;
    let expected = p * SAMPLES as f64;
    let margin = sigmas * ((expected * (1.0 - p)).sqrt() + 1.0);
    // Ranks count from the largest sample magnitude; `select_nth_unstable`
    // counts from the smallest.
    let mut rank = |rank: f64| *sample.select_nth_unstable(SAMPLES - 1 - rank as usize).1;
    let lower = if expected + margin < (SAMPLES - 1) as f64 {
        rank((expected + margin).ceil())
    } else {
        0
    };
    let upper = if expected - margin >= 1.0 {
        rank((expected - margin).floor())
    } else {
        MAG_MASK
    };
    let at_least = sample.iter().filter(|&&m| m >= lower).count();
    Bounds {
        lower,
        upper,
        estimate: (at_least * dim).div_ceil(SAMPLES),
    }
}

/// The offset of stratum `s`'s sample (the SplitMix64 finalizer): fixed, so
/// a selection is a function of its input, and scrambled, so the sample
/// does not alias with a periodic layout such as a weight matrix's rows.
fn jitter(s: usize) -> usize {
    let mut z = (s as u64)
        .wrapping_add(1)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as usize
}

/// One level of the exact cut: the inverted magnitude fields
/// ([`inverted_magnitude`]) `lo..=hi` the `k`-th best key is known to lie in,
/// histogrammed in at most 2048 buckets of `1 << shift` fields each, and
/// how many keys lie above that interval (smaller fields, larger
/// magnitudes).
#[derive(Clone, Copy)]
struct Level {
    lo: u32,
    hi: u32,
    shift: u32,
    better: usize,
}

impl Level {
    fn new(lo: u32, hi: u32, better: usize) -> Self {
        let shift = (u32::BITS - (hi - lo).leading_zeros()).saturating_sub(11);
        Level {
            lo,
            hi,
            shift,
            better,
        }
    }

    /// The first level over candidate `keys` (every field at most `hi`):
    /// the band `lo..=hi`, and above it the certain survivors. The band's
    /// keys are interleaved at random with the rest, so this counts
    /// without a branch. A key above the band wraps its offset to at least
    /// `2^31`, which any shift of at most 20 leaves at `MAX_BUCKETS` or
    /// more, so a `min` sends it to a spare bucket — spread by position, so
    /// that consecutive increments do not chain — and the spares' total is
    /// `better`. (Measured over 216,730 candidates at `D = 418,624`,
    /// `k = D/2`: 0.40 ms, against 0.49 ms for the branch [`Level::scan`]
    /// takes.)
    fn first(keys: &[u64], lo: u32, hi: u32) -> (Self, [u32; MAX_BUCKETS]) {
        let mut level = Level::new(lo, hi, 0);
        let mut hist = [0u32; MAX_BUCKETS + 8];
        for (i, &key) in keys.iter().enumerate() {
            let offset = inverted_magnitude(key).wrapping_sub(lo) >> level.shift;
            hist[(offset as usize).min(MAX_BUCKETS + i % 8)] += 1;
        }
        let (band, spares) = hist.split_at(MAX_BUCKETS);
        level.better = spares.iter().sum::<u32>() as usize;
        (
            level,
            band.try_into().expect("the band is MAX_BUCKETS long"),
        )
    }

    /// This level's histogram of `keys`, for a finer level: few keys fall
    /// inside it, and a branch skips the rest. (Measured as above: 0.21 ms,
    /// against 0.40 ms branch-free.)
    fn scan(self, keys: &[u64]) -> [u32; MAX_BUCKETS] {
        let mut hist = [0u32; MAX_BUCKETS];
        for &key in keys {
            let offset = inverted_magnitude(key).wrapping_sub(self.lo);
            if offset <= self.hi - self.lo {
                hist[(offset >> self.shift) as usize] += 1;
            }
        }
        hist
    }

    /// Where this level's histogram puts the `k`-th best key.
    fn narrow(self, hist: &[u32; MAX_BUCKETS], k: usize) -> Narrowed {
        let Some(need) = k.checked_sub(self.better).filter(|&need| need > 0) else {
            return Narrowed::Above;
        };
        let (bucket, ties) = cut(hist, need);
        let lo = self.lo + (bucket << self.shift);
        if self.shift == 0 {
            Narrowed::At(lo, ties)
        } else {
            let hi = self.hi.min(lo + ((1 << self.shift) - 1));
            Narrowed::Inside(Level::new(lo, hi, k - ties))
        }
    }
}

/// Where a [`Level`] puts the `k`-th best key.
enum Narrowed {
    /// At this field, with this many of the keys tied at it surviving.
    At(u32, usize),
    /// Inside this finer level (one bucket of the last).
    Inside(Level),
    /// Above the level's interval: `k` or more keys lie above it.
    Above,
}

/// Refills `keys` with the order keys of every entry whose magnitude bits
/// are at least `lower`, in index order, in one pass: each `LANES`-wide
/// chunk becomes a bit mask (16-lane `bool` arrays folded into words), and
/// only the set bits are packed. The buffer is reserved exactly, to
/// `estimate` and past it to the count still expected at the density seen
/// so far — it never doubles.
fn gather_at_least(values: &[f32], lower: u32, estimate: usize, keys: &mut Vec<u64>) {
    keys.clear();
    keys.reserve_exact(estimate);
    let mut chunks = values.chunks_exact(LANES);
    for (c, chunk) in (&mut chunks).enumerate() {
        let mut lanes = [false; LANES];
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane = v.to_bits() & MAG_MASK >= lower;
        }
        let mut mask = lanes.chunks_exact(16).rev().fold(0u64, |mask, word| {
            let word = word
                .iter()
                .rev()
                .fold(0u32, |w, &lane| w << 1 | u32::from(lane));
            mask << 16 | u64::from(word)
        });
        let base = c * LANES;
        if keys.capacity() - keys.len() < LANES {
            let rest = (keys.len() + 1) * (values.len() - base) / (base + 1);
            keys.reserve_exact(rest + LANES);
        }
        while mask != 0 {
            let lane = mask.trailing_zeros() as usize;
            keys.push(pack(base + lane, chunk[lane]));
            mask &= mask - 1;
        }
    }
    let (base, rest) = (values.len() - chunks.remainder().len(), chunks.remainder());
    keys.reserve_exact(rest.len());
    for (j, &v) in rest.iter().enumerate() {
        if v.to_bits() & MAG_MASK >= lower {
            keys.push(pack(base + j, v));
        }
    }
}

/// Refills `keys` with the best `k` of `values` (`SAMPLES ≤ len`,
/// `0 < k < len`), in index order, reading the vector once; returns how
/// many gathers that took. A stratified sample bounds the `k`-th magnitude
/// ([`sample_bounds`]), one pass gathers every entry at or above the lower
/// bound — the survivors plus a margin — and the exact cut reads those
/// candidates alone ([`cut_candidates`]). A gather that comes back with
/// fewer than `k` candidates retries at a wider margin, and the last at
/// lower bound 0: every coordinate.
fn select_by_sample(values: &[f32], k: usize, keys: &mut Vec<u64>) -> usize {
    let mut gathers = 0;
    let bounds = loop {
        let bounds = match MARGIN_SIGMAS[gathers] {
            Some(sigmas) => sample_bounds(values, k, sigmas),
            None => Bounds {
                lower: 0,
                upper: MAG_MASK,
                estimate: values.len(),
            },
        };
        gather_at_least(values, bounds.lower, bounds.estimate, keys);
        gathers += 1;
        if keys.len() >= k {
            break bounds;
        }
    };
    cut_candidates(keys, k, &bounds);
    gathers
}

/// Cuts the index-ordered candidate `keys` (at least `k`, none below
/// `bounds.lower`) to their best `k`, in place and in index order. The
/// first level histograms only the band between the two bounds, since
/// everything above the upper one is a certain survivor; each level
/// narrows to the bucket that holds the `k`-th magnitude (a 31-bit field
/// takes at most three levels), and an in-place sweep drops what is below
/// it, keeping only the first few of the entries tied *at* it — which is
/// the index tie-break. Should `k` or more candidates lie above the upper
/// bound, the count restarts from the largest magnitude.
fn cut_candidates(keys: &mut Vec<u64>, k: usize, bounds: &Bounds) {
    let invert = |magnitude: u32| !magnitude & MAG_MASK;
    let (mut level, mut hist) = Level::first(keys, invert(bounds.upper), invert(bounds.lower));
    let (threshold, ties) = loop {
        (level, hist) = match level.narrow(&hist, k) {
            Narrowed::At(threshold, ties) => break (threshold, ties),
            Narrowed::Inside(finer) => (finer, finer.scan(keys)),
            Narrowed::Above => Level::first(keys, 0, level.hi),
        };
    };
    let (mut n, mut seen) = (0, 0);
    for i in 0..keys.len() {
        let key = keys[i];
        let field = inverted_magnitude(key);
        let tie = field == threshold;
        let take = field < threshold || (tie && seen < ties);
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
/// Allocates a fresh key buffer and output; hot paths that run every round
/// should use [`top_k_entries_into`] and reuse both.
pub fn top_k_entries(values: &[f32], k: usize) -> Vec<(usize, f32)> {
    let mut out = Vec::new();
    top_k_entries_into(values, k, &mut Vec::new(), &mut out);
    out
}

/// [`top_k_entries`] with a caller-provided key buffer, writing the ranked
/// selection into a caller-owned output buffer (cleared first): identical
/// selection and order, zero allocation once both buffers have grown.
///
/// `scratch` is cleared and refilled on every call and holds at most
/// `max(2k, candidates)` packed keys, the candidates being the survivors
/// plus the sample's margin, reserved exactly (see the module docs).
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
    // The radix rank ping-pongs through a second half: reserve exactly
    // that, rather than let it double a buffer sized for the candidates.
    scratch.reserve_exact(scratch.len());
    unpack_to(rank_keys(scratch, index_sorted), out);
}

/// The selection of [`top_k_entries_into`] in increasing index order — what
/// a wire codec encodes and what an upload holds. The sampled select
/// gathers and keeps its survivors in index order, so this skips the rank
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
        select_by_sample(values, k, keys);
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
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        for k in 0..=v.len() + 1 {
            top_k_entries_into(&v, k, &mut scratch, &mut out);
            assert_eq!(out, top_k_entries(&v, k));
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
        let (mut scratch, mut got) = (Vec::new(), Vec::new());
        for (dim, k) in [(500, 5), (500, 32), (1000, 1), (257, 100), (64, 31)] {
            // Quantized values force plenty of exact magnitude ties.
            let values: Vec<f32> = (0..dim)
                .map(|_| (rng.gen_range(-50i32..50) as f32) * 0.25)
                .collect();
            let mut ranked: Vec<(usize, f32)> =
                values.iter().enumerate().map(|(j, &v)| (j, v)).collect();
            ranked.sort_by(compare_magnitude_then_index);
            let expected: Vec<(usize, f32)> = ranked.into_iter().take(k).collect();
            top_k_entries_into(&values, k, &mut scratch, &mut got);
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

    /// The reference selection: a full comparator sort, cut to `k`.
    fn sorted_top_k(values: &[f32], k: usize) -> Vec<(usize, u32)> {
        let mut ranked: Vec<(usize, f32)> = values.iter().copied().enumerate().collect();
        ranked.sort_by(compare_magnitude_then_index);
        ranked.truncate(k);
        ranked.sort_by_key(|&(j, _)| j);
        ranked.into_iter().map(|(j, v)| (j, v.to_bits())).collect()
    }

    /// Where [`sample_bounds`] reads `values`.
    fn sample_positions(dim: usize) -> impl Iterator<Item = usize> {
        (0..SAMPLES).map(move |s| {
            let (lo, hi) = (s * dim / SAMPLES, (s + 1) * dim / SAMPLES);
            lo + jitter(s) % (hi - lo)
        })
    }

    /// The largest magnitudes sit exactly where the sample reads, so the
    /// sample sees a vector of giants and sets its lower bound far above
    /// the `k`-th magnitude: the first gather and the wider retry come back
    /// with fewer than `k` candidates, and the last gather (lower bound 0)
    /// still selects exactly.
    #[test]
    fn a_sample_on_the_largest_magnitudes_retries_down_to_every_coordinate() {
        let (dim, k) = (50_000, 5_000);
        let mut values: Vec<f32> = (0..dim).map(|j| (j % 997) as f32 * 1e-3 - 0.5).collect();
        for (s, j) in sample_positions(dim).enumerate() {
            values[j] = 1e3 + s as f32;
        }
        let bounds = sample_bounds(
            &values,
            k,
            MARGIN_SIGMAS[0].expect("a sampled first gather"),
        );
        let mut keys = Vec::new();
        gather_at_least(&values, bounds.lower, bounds.estimate, &mut keys);
        assert!(keys.len() < k, "the first gather must fall short");

        assert_eq!(select_by_sample(&values, k, &mut keys), MARGIN_SIGMAS.len());
        let got: Vec<(usize, u32)> = keys
            .iter()
            .map(|&key| key_entry(key))
            .map(|(j, v)| (j, v.to_bits()))
            .collect();
        assert_eq!(got, sorted_top_k(&values, k));
    }

    /// The smallest magnitudes sit where the sample reads, so its upper
    /// bound falls below the `k`-th magnitude and more than `k` candidates
    /// lie above it: the cut must restart its count from the largest
    /// magnitude, and still select exactly.
    #[test]
    fn a_sample_on_the_smallest_magnitudes_restarts_the_cut() {
        let (dim, k) = (50_000, 20_000);
        let mut values: Vec<f32> = (0..dim).map(|j| 1.0 + (j % 991) as f32 * 1e-3).collect();
        for j in sample_positions(dim) {
            values[j] = 1e-3;
        }
        let bounds = sample_bounds(
            &values,
            k,
            MARGIN_SIGMAS[0].expect("a sampled first gather"),
        );
        let mut keys = Vec::new();
        gather_at_least(&values, bounds.lower, bounds.estimate, &mut keys);
        let invert = |magnitude: u32| !magnitude & MAG_MASK;
        let (level, hist) = Level::first(&keys, invert(bounds.upper), invert(bounds.lower));
        assert!(level.better >= k);
        assert!(matches!(level.narrow(&hist, k), Narrowed::Above));

        assert_eq!(select_by_sample(&values, k, &mut keys), 1);
        let got: Vec<(usize, u32)> = keys
            .iter()
            .map(|&key| key_entry(key))
            .map(|(j, v)| (j, v.to_bits()))
            .collect();
        assert_eq!(got, sorted_top_k(&values, k));
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
