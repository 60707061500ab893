//! Reusable server-side selection workspace.
//!
//! Every structure here exists to make the per-round server hot path
//! allocation-free: the buffers are sized to the model dimension once and
//! "cleared" by bumping a generation counter instead of a `memset` or a
//! hash-map rebuild. See the crate-level docs for the complexity picture.

/// A dense buffer whose entries are valid only when their generation stamp
/// matches the buffer's current epoch.
///
/// `begin()` bumps the epoch, which invalidates every slot in O(1); slots are
/// lazily re-initialised on first write. This replaces `HashSet`/`HashMap`
/// rebuilds in the selection hot path with branch-predictable array probes.
#[derive(Debug, Clone, Default)]
pub(crate) struct StampedBuf<T> {
    epoch: u64,
    stamp: Vec<u64>,
    data: Vec<T>,
}

impl<T: Copy + Default> StampedBuf<T> {
    /// Starts a new generation covering indices `< dim`. O(1) unless the
    /// dimension grew (buffers are extended once, and never shrink).
    pub(crate) fn begin(&mut self, dim: usize) {
        if self.stamp.len() < dim {
            self.stamp.resize(dim, 0);
            self.data.resize(dim, T::default());
        }
        self.epoch += 1;
    }

    /// Number of slots currently resident (for memory audits and tests).
    #[cfg(test)]
    pub(crate) fn resident_slots(&self) -> usize {
        self.stamp.len()
    }

    /// Is slot `j` set in the current generation?
    #[inline]
    pub(crate) fn is_set(&self, j: usize) -> bool {
        self.stamp[j] == self.epoch
    }

    /// Writes slot `j`, stamping it into the current generation.
    #[inline]
    pub(crate) fn set(&mut self, j: usize, value: T) {
        self.stamp[j] = self.epoch;
        self.data[j] = value;
    }

    /// Takes slot `j` back out of the current generation (`begin` has run at
    /// least once, so no generation is ever stamped 0).
    #[inline]
    pub(crate) fn unset(&mut self, j: usize) {
        self.stamp[j] = 0;
    }

    /// Reads slot `j`; `None` if it was not written this generation.
    #[cfg(test)]
    pub(crate) fn get(&self, j: usize) -> Option<T> {
        if self.is_set(j) {
            Some(self.data[j])
        } else {
            None
        }
    }

    /// Reads slot `j` without checking the stamp. Only valid after a
    /// matching `set` in the current generation.
    #[inline]
    pub(crate) fn get_unchecked(&self, j: usize) -> T {
        debug_assert!(self.is_set(j));
        self.data[j]
    }
}

impl StampedBuf<f64> {
    /// Adds `v` to slot `j` if it is set this generation; one stamp probe,
    /// no re-stamping. Returns whether the slot was set.
    #[inline]
    pub(crate) fn add_if_set(&mut self, j: usize, v: f64) -> bool {
        if self.stamp[j] == self.epoch {
            self.data[j] += v;
            true
        } else {
            false
        }
    }
}

/// Reusable workspace for [`Sparsifier::select_into`].
///
/// One `SelectionScratch` amortises every temporary the server-side
/// selection/aggregation pipeline needs across rounds:
///
/// * `sums` — per-index weighted aggregation accumulator, whose stamps
///   double as the "selected" marks (FAB's rank-major scan dedups its
///   levels through them),
/// * `ranks` — an index-membership set that leaves the sums generation
///   alone (FUB's reset sweep),
/// * `touched` / `selected` / `candidates` — index and candidate lists
///   reused between rounds,
/// * `keys` — the packed order keys [`crate::topk`] ranks candidates through.
///
/// Capacity is grow-only — every buffer is sized to the largest geometry
/// seen and never shrinks — and contents are invalidated by epoch bumps, so
/// repeated calls perform zero allocations in steady state. The
/// workspace carries no round state across calls: calling `select_into`
/// twice with the same inputs returns identical results (there is a
/// regression test for exactly this).
///
/// [`Sparsifier::select_into`]: crate::Sparsifier::select_into
#[derive(Debug, Clone, Default)]
pub struct SelectionScratch {
    /// Index membership for a phase that must not disturb `sums`.
    pub(crate) ranks: StampedBuf<usize>,
    /// Weighted per-index sums for aggregation.
    pub(crate) sums: StampedBuf<f64>,
    /// Distinct indices observed this round, in first-appearance order.
    pub(crate) touched: Vec<usize>,
    /// The selected downlink index set, sorted ascending.
    pub(crate) selected: Vec<usize>,
    /// Fill candidates `(index, value)` at prefix level `κ`.
    pub(crate) candidates: Vec<(usize, f32)>,
    /// Packed magnitude-order keys of `candidates` (see [`crate::topk`]).
    pub(crate) keys: Vec<u64>,
}

impl SelectionScratch {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begins an aggregation phase for a round of dimension `dim`.
    pub(crate) fn begin_sums(&mut self, dim: usize) {
        self.sums.begin(dim);
    }

    /// Begins a membership phase for a round of dimension `dim`: an index
    /// set in the `ranks` buffer, expressed without touching the sums
    /// generation.
    pub(crate) fn begin_members(&mut self, dim: usize) {
        self.ranks.begin(dim);
    }

    /// Adds `j` to the current membership set.
    #[inline]
    pub(crate) fn add_member(&mut self, j: usize) {
        self.ranks.set(j, 0);
    }

    /// Whether `j` is in the current membership set.
    #[inline]
    pub(crate) fn is_member(&self, j: usize) -> bool {
        self.ranks.is_set(j)
    }

    /// Marks `j` as selected for aggregation (sum starts at zero).
    #[inline]
    pub(crate) fn mark_selected(&mut self, j: usize) {
        self.sums.set(j, 0.0);
    }

    /// Whether `j` is marked for aggregation this phase.
    #[inline]
    pub(crate) fn is_marked(&self, j: usize) -> bool {
        self.sums.is_set(j)
    }

    /// Takes the mark of `j` back (FAB un-accepts the level that overflowed).
    #[inline]
    pub(crate) fn unmark(&mut self, j: usize) {
        self.sums.unset(j);
    }

    /// Adds `v` to the sum of a marked index.
    #[inline]
    pub(crate) fn accumulate(&mut self, j: usize, v: f64) {
        debug_assert!(self.sums.is_set(j));
        let added = self.sums.add_if_set(j, v);
        debug_assert!(added);
    }

    /// Adds `v` to the sum of `j` if it is marked; single stamp probe.
    /// Returns whether `j` was marked.
    #[inline]
    pub(crate) fn accumulate_if_marked(&mut self, j: usize, v: f64) -> bool {
        self.sums.add_if_set(j, v)
    }

    /// Reads the sum of a marked index.
    #[inline]
    pub(crate) fn sum(&self, j: usize) -> f64 {
        self.sums.get_unchecked(j)
    }

    /// Capacities of the list buffers, in field order (`touched`,
    /// `selected`, `candidates`, `keys`), for memory audits and tests.
    pub fn list_capacities(&self) -> [usize; 4] {
        [
            self.touched.capacity(),
            self.selected.capacity(),
            self.candidates.capacity(),
            self.keys.capacity(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_bump_invalidates_all_slots() {
        let mut buf: StampedBuf<usize> = StampedBuf::default();
        buf.begin(8);
        buf.set(3, 42);
        assert_eq!(buf.get(3), Some(42));
        assert_eq!(buf.get(4), None);
        buf.begin(8);
        assert_eq!(buf.get(3), None, "stale generation must not leak");
    }

    #[test]
    fn growing_dimension_preserves_epoch_semantics() {
        let mut buf: StampedBuf<f64> = StampedBuf::default();
        buf.begin(4);
        buf.set(1, 1.5);
        buf.begin(16);
        assert_eq!(buf.get(1), None);
        assert_eq!(buf.get(12), None);
        buf.set(12, 2.5);
        assert_eq!(buf.get(12), Some(2.5));
    }

    #[test]
    fn unmark_takes_one_index_out_of_the_generation() {
        let mut scratch = SelectionScratch::new();
        scratch.begin_sums(8);
        scratch.mark_selected(5);
        scratch.mark_selected(6);
        scratch.unmark(5);
        assert!(!scratch.is_marked(5));
        assert!(scratch.is_marked(6));
        scratch.mark_selected(5);
        assert_eq!(scratch.sum(5), 0.0);
    }

    #[test]
    fn stamped_buf_steady_state_is_stable() {
        let mut buf: StampedBuf<usize> = StampedBuf::default();
        buf.begin(4096);
        let settled = buf.resident_slots();
        for _ in 0..50 {
            buf.begin(4096);
        }
        assert_eq!(buf.resident_slots(), settled);
    }

    #[test]
    fn accumulation_is_per_generation() {
        let mut scratch = SelectionScratch::new();
        scratch.begin_sums(4);
        scratch.mark_selected(2);
        scratch.accumulate(2, 1.25);
        scratch.accumulate(2, 0.75);
        assert_eq!(scratch.sum(2), 2.0);
        assert!(!scratch.is_marked(3));
        scratch.begin_sums(4);
        assert!(!scratch.is_marked(2));
    }
}
