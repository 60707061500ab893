//! Reusable server-side selection workspace.
//!
//! Every temporary of the per-round server path lives here, so a round
//! allocates only the [`crate::SelectionResult`] it returns (the
//! aggregate's entries, the flat reset list and its offsets): the buffers
//! are sized to the model dimension once and "cleared" by bumping a
//! generation counter instead of a `memset` or a hash-map rebuild. See the
//! crate-level docs for the complexity picture.

/// Reusable workspace for [`Sparsifier::select_into`].
///
/// One `SelectionScratch` amortises every temporary the server-side
/// selection/aggregation pipeline needs across rounds:
///
/// * `sums` — per-index weighted aggregation sums, each valid only while
///   its `stamp` matches the current `epoch`. A stamped index is *marked*:
///   FAB's rank-major scan dedups its levels through the marks, and the
///   shared sweep aggregates exactly the marked indices. Bumping the epoch
///   unmarks every index in O(1), with branch-predictable array probes in
///   place of `HashSet`/`HashMap` rebuilds,
/// * `selected` / `candidates` — index and candidate lists reused between
///   rounds,
/// * `keys` — the packed keys [`crate::topk`] ranks fill candidates and
///   sorts `J` through.
///
/// Capacity is grow-only — every buffer is sized to the largest geometry
/// seen and never shrinks — and contents are invalidated by epoch bumps, so
/// repeated calls allocate nothing here in steady state. The
/// workspace carries no round state across calls: calling `select_into`
/// twice with the same inputs returns identical results (there is a
/// regression test for exactly this).
///
/// [`Sparsifier::select_into`]: crate::Sparsifier::select_into
#[derive(Debug, Clone, Default)]
pub struct SelectionScratch {
    /// The current sums generation; a phase has begun before any index is
    /// marked, so no generation is ever 0.
    epoch: u64,
    /// Per index: the generation it was last marked in.
    stamp: Vec<u64>,
    /// Per index: the weighted sum, valid only where `stamp` is `epoch`.
    sums: Vec<f64>,
    /// The selected downlink index set `J`: sorted ascending once a
    /// sparsifier hands it to the shared sweep.
    pub(crate) selected: Vec<usize>,
    /// Fill candidates `(index, value)` at prefix level `κ`.
    pub(crate) candidates: Vec<(usize, f32)>,
    /// Packed keys of `candidates` or of `selected` (see [`crate::topk`]).
    pub(crate) keys: Vec<u64>,
}

impl SelectionScratch {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begins an aggregation phase for a round of dimension `dim`, with no
    /// index marked. O(1) unless the dimension grew (the buffers are
    /// extended once, and never shrink).
    pub(crate) fn begin_sums(&mut self, dim: usize) {
        if self.stamp.len() < dim {
            self.stamp.resize(dim, 0);
            self.sums.resize(dim, 0.0);
        }
        self.epoch += 1;
    }

    /// Begins an aggregation phase with exactly `selected` marked — step
    /// one's last move for a sparsifier that chose `J` without marking it.
    pub(crate) fn mark_selection(&mut self, dim: usize) {
        self.begin_sums(dim);
        for &j in &self.selected {
            assert!(j < dim, "selected index {j} out of range (dim {dim})");
            self.stamp[j] = self.epoch;
            self.sums[j] = 0.0;
        }
    }

    /// Marks `j` as selected for aggregation (sum starts at zero).
    #[inline]
    pub(crate) fn mark_selected(&mut self, j: usize) {
        self.stamp[j] = self.epoch;
        self.sums[j] = 0.0;
    }

    /// Whether `j` is marked for aggregation this phase.
    #[inline]
    pub(crate) fn is_marked(&self, j: usize) -> bool {
        self.stamp[j] == self.epoch
    }

    /// Takes the mark of `j` back (FAB un-accepts the level that overflowed).
    #[inline]
    pub(crate) fn unmark(&mut self, j: usize) {
        self.stamp[j] = 0;
    }

    /// Adds `v` to the sum of a marked index.
    #[inline]
    pub(crate) fn accumulate(&mut self, j: usize, v: f64) {
        debug_assert!(self.is_marked(j));
        self.sums[j] += v;
    }

    /// Adds `v` to the sum of `j` if it is marked; single stamp probe.
    /// Returns whether `j` was marked.
    #[inline]
    pub(crate) fn accumulate_if_marked(&mut self, j: usize, v: f64) -> bool {
        if self.stamp[j] == self.epoch {
            self.sums[j] += v;
            true
        } else {
            false
        }
    }

    /// Reads the sum of a marked index.
    #[inline]
    pub(crate) fn sum(&self, j: usize) -> f64 {
        debug_assert!(self.is_marked(j));
        self.sums[j]
    }

    /// Capacities of the list buffers, in field order (`selected`,
    /// `candidates`, `keys`), for memory audits and tests.
    pub fn list_capacities(&self) -> [usize; 3] {
        [
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
        let mut scratch = SelectionScratch::new();
        scratch.begin_sums(8);
        scratch.mark_selected(3);
        assert!(scratch.is_marked(3));
        assert!(!scratch.is_marked(4));
        scratch.begin_sums(8);
        assert!(!scratch.is_marked(3), "stale generation must not leak");
    }

    #[test]
    fn growing_dimension_preserves_epoch_semantics() {
        let mut scratch = SelectionScratch::new();
        scratch.begin_sums(4);
        scratch.mark_selected(1);
        scratch.begin_sums(16);
        assert!(!scratch.is_marked(1));
        assert!(!scratch.is_marked(12));
        scratch.mark_selected(12);
        scratch.accumulate(12, 2.5);
        assert_eq!(scratch.sum(12), 2.5);
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
    fn stamps_steady_state_is_stable() {
        let mut scratch = SelectionScratch::new();
        scratch.begin_sums(4096);
        let settled = (scratch.stamp.len(), scratch.sums.len());
        for _ in 0..50 {
            scratch.begin_sums(4096);
        }
        assert_eq!((scratch.stamp.len(), scratch.sums.len()), settled);
    }

    #[test]
    fn mark_selection_marks_exactly_the_selected_set_at_zero() {
        let mut scratch = SelectionScratch::new();
        scratch.begin_sums(6);
        scratch.mark_selected(0);
        scratch.accumulate(0, 1.0);
        scratch.selected.extend([2, 5]);
        scratch.mark_selection(6);
        let marked: Vec<usize> = (0..6).filter(|&j| scratch.is_marked(j)).collect();
        assert_eq!(marked, [2, 5]);
        assert_eq!((scratch.sum(2), scratch.sum(5)), (0.0, 0.0));
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
