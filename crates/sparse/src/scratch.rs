//! Reusable server-side selection workspace.
//!
//! The server's half of Algorithm 1 runs in two phases over one
//! `SelectionScratch`: every upload is *accumulated* into a dense
//! per-coordinate sum as it arrives ([`SelectionScratch::accumulate`]),
//! then a sparsifier *selects* `J` into a bitset and the aggregate is the
//! bitset read in index order with each coordinate's sum (one gather). The
//! buffers are sized to the model dimension once and never shrink, and the
//! returned [`SelectionResult`]'s two buffers come back through
//! [`SelectionScratch::recycle`], so a steady-state round allocates
//! nothing here. See the crate-level docs for the complexity picture.

use crate::sparsifier::{ClientUpload, SelectionResult};
use crate::SparseGradient;

/// Reusable workspace for [`Sparsifier::select_into`] and its two phases.
///
/// One `SelectionScratch` amortises every temporary the server-side
/// selection/aggregation pipeline needs across rounds:
///
/// * `sums` — per index, the weighted sum `Σ w_i · a_ij` over the uploads
///   accumulated since [`SelectionScratch::begin`], each term added in
///   accumulation order; zero wherever nothing was uploaded. The selection
///   that reads them zeroes them again with one fill of the round's
///   dimension,
/// * `marks` — one bit per index: the downlink set `J` as the sparsifier
///   picks it (FAB's rank-major scan also dedups its levels through it).
///   The result takes it; `spare_marks` and `spare_entries` are a recycled
///   result's bitset and entry list, reused by the next selection,
/// * `candidates` / `keys` — FAB's per-level fill candidates, FUB's
///   aggregated union, and the packed keys [`crate::topk`] ranks them
///   through.
///
/// Capacity is grow-only — every buffer is sized to the largest geometry
/// seen and never shrinks. The workspace carries no round state across
/// selections: calling `select_into` twice with the same inputs returns
/// identical results (there is a regression test for exactly this).
///
/// [`Sparsifier::select_into`]: crate::Sparsifier::select_into
#[derive(Debug, Clone, Default)]
pub struct SelectionScratch {
    /// The dimension of the round being accumulated.
    dim: usize,
    /// How many uploads were accumulated since `begin`; `None` once a
    /// selection has read (and zeroed) the sums, until the next `begin`.
    /// A count above zero means the sums may hold adds.
    accumulated: Option<usize>,
    /// Per index: the weighted sum of the accumulated uploads.
    sums: Vec<f64>,
    /// `J`: bit `j % 64` of word `j / 64` is set when `j` is selected.
    marks: Vec<u64>,
    /// A recycled result's bitset, the next selection's `marks`.
    spare_marks: Vec<u64>,
    /// A recycled result's entry list, the next aggregate's.
    spare_entries: Vec<(usize, f32)>,
    /// Fill candidates `(index, value)`, or FUB's aggregated union.
    pub(crate) candidates: Vec<(usize, f32)>,
    /// Packed keys of `candidates` (see [`crate::topk`]).
    pub(crate) keys: Vec<u64>,
}

impl SelectionScratch {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begins a round of dimension `dim`: no upload accumulated, every sum
    /// zero. O(1) unless the dimension grew (the sums are extended once,
    /// and never shrink) or the previous round's sums were never selected
    /// from.
    pub fn begin(&mut self, dim: usize) {
        if self.accumulated.is_some_and(|n| n > 0) {
            self.sums.fill(0.0);
        }
        if self.sums.len() < dim {
            self.sums.resize(dim, 0.0);
        }
        self.dim = dim;
        self.accumulated = Some(0);
    }

    /// Adds one upload into the round's sums: `weight × value` onto each
    /// entry's coordinate, in entry order. Accumulating the delivered
    /// uploads one by one, in upload order, gives every coordinate exactly
    /// the `f64` adds, in exactly the order, of a sweep over the whole
    /// upload list.
    ///
    /// # Panics
    ///
    /// Panics if no round was begun since the last selection, or if an
    /// entry's index is not below the dimension given to
    /// [`SelectionScratch::begin`].
    pub fn accumulate(&mut self, upload: &ClientUpload) {
        let count = self
            .accumulated
            .as_mut()
            .expect("accumulate after begin, before the round's selection");
        *count += 1;
        let dim = self.dim;
        for &(j, v) in &upload.entries {
            assert!(j < dim, "upload index {j} out of range (dim {dim})");
            self.sums[j] += upload.weight * v as f64;
        }
    }

    /// Takes a finished round's bitset and entry list back for the next
    /// selection, so a round that recycles its result allocates nothing.
    pub fn recycle(&mut self, result: SelectionResult) {
        let aggregated = self.take_aggregate(result);
        self.spare_entries = aggregated.into_entries();
    }

    /// Keeps a throwaway result's bitset for reuse and returns its
    /// aggregate. The bitset refills `marks` if a result took it with no
    /// spare to replace it, else the spare.
    pub(crate) fn take_aggregate(&mut self, result: SelectionResult) -> SparseGradient {
        let (aggregated, selected) = result.into_parts();
        if self.marks.capacity() == 0 {
            self.marks = selected;
        } else {
            self.spare_marks = selected;
        }
        aggregated
    }

    /// Unmarks every index and sizes the bitset to `dim`.
    pub(crate) fn clear_marks(&mut self, dim: usize) {
        self.marks.clear();
        self.marks.resize(dim.div_ceil(64), 0);
    }

    /// Marks every index below `dim`.
    pub(crate) fn mark_all(&mut self, dim: usize) {
        self.marks.clear();
        self.marks.resize(dim / 64, u64::MAX);
        if !dim.is_multiple_of(64) {
            self.marks.push((1 << (dim % 64)) - 1);
        }
    }

    /// Marks every index the uploads carry: their union.
    ///
    /// # Panics
    ///
    /// Panics if an index is not below `dim`.
    pub(crate) fn mark_entries(&mut self, uploads: &[ClientUpload], dim: usize) {
        for upload in uploads {
            for &(j, _) in &upload.entries {
                assert!(j < dim, "upload index {j} out of range (dim {dim})");
                self.mark(j);
            }
        }
    }

    /// Marks `j` as selected.
    #[inline]
    pub(crate) fn mark(&mut self, j: usize) {
        self.marks[j / 64] |= 1 << (j % 64);
    }

    /// Takes the mark of `j` back (FAB un-accepts the level that overflowed).
    #[inline]
    pub(crate) fn unmark(&mut self, j: usize) {
        self.marks[j / 64] &= !(1 << (j % 64));
    }

    /// Whether `j` is marked.
    #[inline]
    pub(crate) fn is_marked(&self, j: usize) -> bool {
        self.marks[j / 64] >> (j % 64) & 1 == 1
    }

    /// The marked indices, ascending.
    pub(crate) fn marked(&self) -> impl Iterator<Item = usize> + '_ {
        ones(&self.marks)
    }

    /// The marked indices with their sums, ascending — FUB's candidates.
    pub(crate) fn marked_sums_into_candidates(&mut self) {
        self.candidates.clear();
        let sums = &self.sums;
        self.candidates
            .extend(ones(&self.marks).map(|j| (j, sums[j] as f32)));
    }

    /// The last step of every selection: the aggregate is the marked `J`
    /// read in index order, each coordinate with its sum (Line 10 of
    /// Algorithm 1), and the result keeps the bitset. The sums are then
    /// zeroed for the next round.
    ///
    /// # Panics
    ///
    /// Panics unless the sums are `uploads`' — begun at `dim`, one
    /// accumulation per upload, not yet read by another selection.
    pub(crate) fn gather(
        &mut self,
        uploads: &[ClientUpload],
        dim: usize,
        indexed: bool,
    ) -> SelectionResult {
        let accumulated = self.accumulated.take();
        assert!(
            self.dim == dim && accumulated == Some(uploads.len()),
            "the selection reads {} uploads at dim {dim}, but {accumulated:?} were accumulated at dim {}",
            uploads.len(),
            self.dim
        );
        let count = self.marks.iter().map(|w| w.count_ones() as usize).sum();
        let mut entries = std::mem::take(&mut self.spare_entries);
        entries.clear();
        entries.reserve_exact(count);
        for (w, &word) in self.marks.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let j = w * 64 + bits.trailing_zeros() as usize;
                entries.push((j, self.sums[j] as f32));
                bits &= bits - 1;
            }
        }
        self.sums[..dim].fill(0.0);
        let selected = std::mem::replace(&mut self.marks, std::mem::take(&mut self.spare_marks));
        SelectionResult::new(
            SparseGradient::from_sorted_entries(dim, entries),
            selected,
            uploads,
            indexed,
        )
    }

    /// Capacities of the workspace's buffers, for memory audits and tests:
    /// the sums, the bitset and its spare, the spare entry list, the
    /// candidates and the keys, in that order.
    pub fn capacities(&self) -> [usize; 6] {
        [
            self.sums.capacity(),
            self.marks.capacity(),
            self.spare_marks.capacity(),
            self.spare_entries.capacity(),
            self.candidates.capacity(),
            self.keys.capacity(),
        ]
    }
}

/// The set bits of a bitset, ascending.
pub(crate) fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let j = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                j
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upload(weight: f64, entries: &[(usize, f32)]) -> ClientUpload {
        ClientUpload::new(0, weight, entries.to_vec())
    }

    #[test]
    fn accumulate_adds_each_upload_in_order() {
        let mut scratch = SelectionScratch::new();
        scratch.begin(4);
        scratch.accumulate(&upload(0.75, &[(1, 4.0), (2, 1.0)]));
        scratch.accumulate(&upload(0.25, &[(1, -4.0), (3, 8.0)]));
        assert_eq!(scratch.sums[..4], [0.0, 2.0, 0.75, 2.0]);
    }

    #[test]
    fn gather_reads_the_marks_in_index_order_and_zeroes_the_sums() {
        let mut scratch = SelectionScratch::new();
        let uploads = [upload(1.0, &[(70, 2.0), (3, 1.0), (64, -1.0)])];
        scratch.begin(130);
        scratch.accumulate(&uploads[0]);
        scratch.clear_marks(130);
        for j in [70, 3, 129] {
            scratch.mark(j);
        }
        let result = scratch.gather(&uploads, 130, true);
        assert_eq!(
            result.aggregated.entries(),
            [(3, 1.0), (70, 2.0), (129, 0.0)]
        );
        assert!(scratch.sums.iter().all(|&s| s == 0.0));
        assert_eq!(scratch.accumulated, None);
    }

    #[test]
    fn begin_clears_sums_no_selection_read() {
        let mut scratch = SelectionScratch::new();
        scratch.begin(8);
        scratch.accumulate(&upload(1.0, &[(5, 3.0)]));
        scratch.begin(16);
        assert!(scratch.sums.iter().all(|&s| s == 0.0));
        assert_eq!((scratch.dim, scratch.accumulated), (16, Some(0)));
    }

    #[test]
    fn marks_set_unset_and_fill() {
        let mut scratch = SelectionScratch::new();
        scratch.clear_marks(100);
        scratch.mark(5);
        scratch.mark(99);
        scratch.mark(6);
        scratch.unmark(6);
        assert!(scratch.is_marked(5) && !scratch.is_marked(6));
        assert_eq!(scratch.marked().collect::<Vec<_>>(), [5, 99]);
        scratch.mark_all(70);
        assert_eq!(scratch.marked().count(), 70);
        scratch.clear_marks(70);
        assert_eq!(scratch.marked().count(), 0);
    }

    #[test]
    fn recycled_buffers_are_reused_and_capacity_is_grow_only() {
        let mut scratch = SelectionScratch::new();
        let uploads = [upload(1.0, &[(1, 1.0), (2, 2.0)])];
        for _ in 0..3 {
            scratch.begin(4096);
            scratch.accumulate(&uploads[0]);
            scratch.mark_all(4096);
            let result = scratch.gather(&uploads, 4096, false);
            scratch.recycle(result);
        }
        // One bitset cycles between the scratch and the results when no
        // probe needs a second one while a result holds the first.
        let settled = scratch.capacities();
        assert!([0, 1, 3].iter().all(|&i| settled[i] > 0), "{settled:?}");
        scratch.begin(8);
        scratch.accumulate(&uploads[0]);
        scratch.mark_all(8);
        let result = scratch.gather(&uploads, 8, false);
        scratch.recycle(result);
        assert_eq!(scratch.capacities(), settled);
    }
}
