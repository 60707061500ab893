//! Log-bucketed HDR-style histogram over `u64` samples.
//!
//! Values below 16 land in exact unit buckets; from 16 up, each power-of-2
//! octave is split into 16 sub-buckets (`SUB_BITS = 4`), so relative
//! resolution is bounded by 1/16 ≈ 6.25% across the full `u64` range and
//! the bucket count is a fixed 976 — small enough to hold one histogram
//! per stage without allocation after construction.
//!
//! Everything the histogram stores is an integer (bucket counts, exact
//! total count/sum, exact min/max), all updated with saturating adds, so
//! merging shard histograms in worker order is associative, commutative,
//! and bit-identical to recording the samples into one histogram.
//! Quantiles return the *lower bound* of the bucket holding the requested
//! rank: a deterministic integer, never an interpolation.

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 4;
const SUBS_PER_OCTAVE: usize = 1 << SUB_BITS;

/// Total bucket count: 16 exact unit buckets for values `0..16`, then 16
/// sub-buckets for each of the 60 octaves `2^4 ..= 2^63`.
pub const NUM_BUCKETS: usize = SUBS_PER_OCTAVE * (64 - SUB_BITS as usize + 1);

/// The bucket index a value lands in.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUBS_PER_OCTAVE as u64 {
        v as usize
    } else {
        // Highest set bit is `octave >= SUB_BITS`; the next SUB_BITS bits
        // below it pick the sub-bucket.
        let octave = 63 - v.leading_zeros();
        let sub = ((v >> (octave - SUB_BITS)) & (SUBS_PER_OCTAVE as u64 - 1)) as usize;
        (octave - SUB_BITS + 1) as usize * SUBS_PER_OCTAVE + sub
    }
}

/// The smallest value that lands in bucket `idx` (the quantile estimate
/// reported for ranks falling inside it).
#[inline]
fn bucket_lower_bound(idx: usize) -> u64 {
    if idx < SUBS_PER_OCTAVE {
        idx as u64
    } else {
        let octave = (idx / SUBS_PER_OCTAVE) as u32 + SUB_BITS - 1;
        let sub = (idx % SUBS_PER_OCTAVE) as u64;
        (1u64 << octave) | (sub << (octave - SUB_BITS))
    }
}

/// A log-bucketed histogram of `u64` samples with exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram. The bucket array is the only allocation the
    /// histogram ever performs.
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples. All totals saturate instead of
    /// wrapping, so u64-extreme inputs degrade gracefully (pinned by the
    /// saturation proptests).
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let b = &mut self.counts[bucket_of(value)];
        *b = b.saturating_add(n);
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one. Integer adds only: merging
    /// shards in any grouping/order is bit-identical to recording every
    /// sample into one histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, &b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Resets the histogram to empty without releasing the bucket array.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample; `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample; `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The quantile estimate for `q ∈ [0, 1]`: the lower bound of the
    /// bucket containing the sample of rank `ceil(q · count)` (rank 1 for
    /// `q = 0`). Deterministic — a pure function of the integer bucket
    /// counts. `None` if the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(bucket_lower_bound(idx));
            }
        }
        // Saturated bucket counts can undercount `seen`; fall back to the
        // highest occupied bucket.
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(bucket_lower_bound)
    }

    /// Median estimate (`quantile(0.50)`).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// The bucket index a value lands in (exposed for the boundary
    /// proptests).
    pub fn bucket_index(value: u64) -> usize {
        bucket_of(value)
    }

    /// The smallest value mapping to bucket `idx` (exposed for the
    /// boundary proptests).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= NUM_BUCKETS`.
    pub fn bucket_floor(idx: usize) -> u64 {
        assert!(idx < NUM_BUCKETS, "bucket index out of range");
        bucket_lower_bound(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        for v in 0..16u64 {
            assert_eq!(h.quantile((v as f64 + 1.0) / 16.0), Some(v));
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.sum(), 120);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(15));
    }

    #[test]
    fn bucket_scheme_is_monotone_and_contiguous() {
        // Index 15 -> 16 is the unit/octave seam; floors must keep
        // increasing and every value must land at or above its floor.
        let mut prev_floor = None;
        for idx in 0..NUM_BUCKETS {
            let floor = bucket_lower_bound(idx);
            assert_eq!(bucket_of(floor), idx, "floor of bucket {idx} maps back");
            if let Some(p) = prev_floor {
                assert!(floor > p, "floors must be strictly increasing at {idx}");
            }
            prev_floor = Some(floor);
        }
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        for &v in &[17u64, 1000, 123_456, 1 << 40, u64::MAX / 3] {
            let floor = bucket_lower_bound(bucket_of(v));
            assert!(floor <= v);
            // The bucket width is floor/16 at most, so the lower bound is
            // within 1/16 of the true value.
            assert!(
                v - floor <= v / (SUBS_PER_OCTAVE as u64 - 1) + 1,
                "v={v} floor={floor}"
            );
        }
    }

    #[test]
    fn quantiles_walk_the_distribution() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        let p50 = h.p50().unwrap();
        let p99 = h.p99().unwrap();
        assert_eq!(p50, bucket_lower_bound(bucket_of(100)));
        assert_eq!(p99, bucket_lower_bound(bucket_of(10_000)));
        assert!(h.p95().unwrap() >= p50);
        assert!(p99 >= h.p95().unwrap());
    }

    #[test]
    fn merge_matches_single_recording() {
        let samples: Vec<u64> = (0..500).map(|i| (i * i * 7919 + i) as u64).collect();
        let mut whole = Histogram::new();
        for &s in &samples {
            whole.record(s);
        }
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, &s) in samples.iter().enumerate() {
            if i % 2 == 0 {
                a.record(s);
            } else {
                b.record(s);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn saturation_never_wraps() {
        let mut h = Histogram::new();
        h.record_n(u64::MAX, u64::MAX);
        h.record_n(u64::MAX, u64::MAX);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.quantile(1.0), Some(bucket_lower_bound(NUM_BUCKETS - 1)));
    }

    #[test]
    fn clear_resets_to_empty() {
        let mut h = Histogram::new();
        h.record(42);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h, Histogram::new());
    }
}
