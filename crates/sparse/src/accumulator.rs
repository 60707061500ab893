use serde::{Deserialize, Serialize};

use crate::topk;

/// The per-client accumulated local gradient `a_i` of Algorithm 1.
///
/// Every round the client adds its freshly computed full local gradient to
/// the accumulator, uploads the top-`k` entries, and — after hearing from the
/// server which of its entries were actually used — resets exactly those
/// coordinates to zero (Lines 4, 6 and 16–17 of Algorithm 1). Coordinates
/// that were *not* used keep accumulating, which is the error-feedback
/// mechanism that lets top-k sparsification converge.
///
/// # Examples
///
/// ```
/// use agsfl_sparse::ResidualAccumulator;
///
/// let mut acc = ResidualAccumulator::new(4);
/// acc.add(&[1.0, -5.0, 0.5, 2.0]);
/// let upload = acc.top_k_entries(2);
/// assert_eq!(upload[0].0, 1); // largest magnitude first
/// acc.reset_indices(&[1]);
/// assert_eq!(acc.as_slice()[1], 0.0);
/// assert_eq!(acc.as_slice()[3], 2.0); // unused coordinate keeps its residual
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResidualAccumulator {
    residual: Vec<f32>,
}

impl ResidualAccumulator {
    /// Creates a zero accumulator of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            residual: vec![0.0; dim],
        }
    }

    /// Dimension `D`.
    pub fn dim(&self) -> usize {
        self.residual.len()
    }

    /// Borrows the accumulated gradient.
    pub fn as_slice(&self) -> &[f32] {
        &self.residual
    }

    /// Adds a freshly computed local gradient (Line 4 of Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != dim()`.
    pub fn add(&mut self, grad: &[f32]) {
        assert_eq!(grad.len(), self.residual.len(), "gradient length mismatch");
        for (r, g) in self.residual.iter_mut().zip(grad.iter()) {
            *r += g;
        }
    }

    /// Lends the residual to `add`, which adds a freshly computed
    /// `dim`-long local gradient into it in place (Line 4 of Algorithm 1) —
    /// [`ResidualAccumulator::add`] for a gradient that never exists on its
    /// own, such as `agsfl_ml`'s `Model::loss_and_accumulate_into`. Returns
    /// what `add` returns.
    ///
    /// # Panics
    ///
    /// Panics if `dim != dim()`, before `add` runs.
    pub fn add_with<R>(&mut self, dim: usize, add: impl FnOnce(&mut [f32]) -> R) -> R {
        assert_eq!(dim, self.residual.len(), "gradient length mismatch");
        add(&mut self.residual)
    }

    /// Returns the top-`k` entries `(index, accumulated value)` ranked by
    /// decreasing magnitude — the uplink message `A_i`.
    ///
    /// Allocates a fresh key buffer and message; per-round callers should
    /// prefer [`ResidualAccumulator::top_k_entries_indexed_into`] with
    /// reused ones.
    pub fn top_k_entries(&self, k: usize) -> Vec<(usize, f32)> {
        topk::top_k_entries(&self.residual, k)
    }

    /// The top-`k` entries in increasing index order
    /// ([`topk::top_k_entries_indexed_into`]), through a caller-provided key
    /// buffer into a caller-owned one (cleared first) — the allocation-free
    /// uplink builder of the cohort engine. The selection reads the
    /// residual once: a stratified sample bounds the `k`-th magnitude, and
    /// one pass gathers only the entries at or above that bound — the
    /// survivors plus the sample's margin — as packed 8-byte keys, which an
    /// exact histogram cut trims to `k` (see [`mod@topk`]); there is no
    /// full-dimension candidate copy unless the sample falls short twice.
    /// It leaves the entries' keys in `scratch`, in index order, for the
    /// upload's rank.
    pub fn top_k_entries_indexed_into(
        &self,
        k: usize,
        scratch: &mut Vec<u64>,
        out: &mut Vec<(usize, f32)>,
    ) {
        topk::top_k_entries_indexed_into(&self.residual, k, scratch, out);
    }

    /// Writes the values at the given indices into a caller-owned buffer
    /// (cleared first); used by sparsifiers where the server dictates the
    /// coordinate set, e.g. periodic-k.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn entries_at_into(&self, indices: &[usize], out: &mut Vec<(usize, f32)>) {
        out.clear();
        out.extend(indices.iter().map(|&j| {
            assert!(j < self.residual.len(), "index {j} out of range");
            (j, self.residual[j])
        }));
    }

    /// Writes every coordinate `(j, a_j)` into a caller-owned buffer
    /// (cleared first) — the [`crate::UploadPlan::Dense`] upload.
    pub fn dense_entries_into(&self, out: &mut Vec<(usize, f32)>) {
        out.clear();
        out.extend(self.residual.iter().copied().enumerate());
    }

    /// Resets the accumulator to a zero residual of dimension `dim`,
    /// reusing the current buffer's capacity.
    ///
    /// Equivalent to `*self = ResidualAccumulator::new(dim)` without the
    /// allocation once the buffer has grown; used when a cohort slot is
    /// bound to a client that has no stored state yet.
    pub fn reset_to_dim(&mut self, dim: usize) {
        self.residual.clear();
        self.residual.resize(dim, 0.0);
    }

    /// Resets the given coordinates to zero (Lines 16–17 of Algorithm 1:
    /// `a_ij <- 0` for `j ∈ J ∩ J_i`).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn reset_indices(&mut self, indices: &[usize]) {
        for &j in indices {
            assert!(j < self.residual.len(), "index {j} out of range");
            self.residual[j] = 0.0;
        }
    }

    /// Resets the given coordinates, seeding each with its quantization
    /// error instead of zero — the lossy-tier extension of
    /// [`ResidualAccumulator::reset_indices`].
    ///
    /// `errors` holds `(j, v - v̂)` pairs sorted by index: the gap between
    /// what the client computed and what the lossy wire codec actually
    /// delivered. A transmitted coordinate that the codec reproduced
    /// exactly (or that has no entry in `errors`) resets to zero exactly as
    /// before, so with an empty `errors` slice this is bit-identical to
    /// `reset_indices`. Otherwise the reset indices are merged against the
    /// error list in one forward sweep of both — directly when they are
    /// already ascending (every reset list of an upload the round engine
    /// delivers is), else after sorting them into `sorted` (cleared first,
    /// reusable across calls); an error at an index that is not reset is
    /// ignored, a repeated reset index is harmless.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn reset_indices_to(
        &mut self,
        indices: &[usize],
        errors: &[(usize, f32)],
        sorted: &mut Vec<u64>,
    ) {
        if errors.is_empty() {
            return self.reset_indices(indices);
        }
        debug_assert!(
            errors.windows(2).all(|w| w[0].0 < w[1].0),
            "errors must be sorted by strictly increasing index"
        );
        if indices.is_sorted() {
            return self.merge_errors(indices.iter().copied(), errors);
        }
        sorted.clear();
        sorted.extend(indices.iter().map(|&j| j as u64));
        sorted.sort_unstable();
        self.merge_errors(sorted.iter().map(|&j| j as usize), errors);
    }

    /// The merge of [`ResidualAccumulator::reset_indices_to`]: `ascending`
    /// reset indices against the index-sorted `errors`.
    fn merge_errors(&mut self, ascending: impl Iterator<Item = usize>, errors: &[(usize, f32)]) {
        let mut pending = errors;
        for j in ascending {
            assert!(j < self.residual.len(), "index {j} out of range");
            let skip = pending.iter().take_while(|&&(i, _)| i < j).count();
            pending = &pending[skip..];
            self.residual[j] = match pending.first() {
                Some(&(i, error)) if i == j => error,
                _ => 0.0,
            };
        }
    }

    /// Sum of absolute residual values — a measure of how much gradient mass
    /// is still waiting to be communicated.
    pub fn residual_l1(&self) -> f32 {
        self.residual.iter().map(|r| r.abs()).sum()
    }
}

/// An accumulator holding `residual` as is — a checkpointed residual, bit
/// for bit, or an empty buffer whose capacity a later
/// [`ResidualAccumulator::reset_to_dim`] fills without allocating.
impl From<Vec<f32>> for ResidualAccumulator {
    fn from(residual: Vec<f32>) -> Self {
        Self { residual }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_accumulates_across_rounds() {
        let mut acc = ResidualAccumulator::new(3);
        acc.add(&[1.0, 2.0, 3.0]);
        acc.add(&[1.0, -1.0, 0.0]);
        assert_eq!(acc.as_slice(), &[2.0, 1.0, 3.0]);
    }

    /// A gradient added in place through the lent slice is the same add,
    /// and a gradient of another dimension never reaches the residual.
    #[test]
    fn add_with_lends_the_residual_and_checks_its_dimension() {
        let grad = [1.0, -0.0, 3.0];
        let mut by_add = ResidualAccumulator::new(3);
        let mut in_place = ResidualAccumulator::new(3);
        for _ in 0..2 {
            by_add.add(&grad);
            let seen = in_place.add_with(3, |residual| {
                for (r, g) in residual.iter_mut().zip(&grad) {
                    *r += g;
                }
                residual.len()
            });
            assert_eq!(seen, 3);
        }
        assert_eq!(in_place, by_add);
        let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            in_place.add_with(4, |residual| residual.fill(f32::NAN))
        }));
        assert!(rejected.is_err());
        assert_eq!(in_place, by_add);
    }

    #[test]
    fn reset_indices_only_clears_listed() {
        let mut acc = ResidualAccumulator::new(4);
        acc.add(&[1.0, 2.0, 3.0, 4.0]);
        acc.reset_indices(&[0, 2]);
        assert_eq!(acc.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn top_k_entries_come_from_residual() {
        let mut acc = ResidualAccumulator::new(5);
        acc.add(&[0.1, -4.0, 2.0, 0.0, 3.0]);
        let top = acc.top_k_entries(2);
        assert_eq!(top, vec![(1, -4.0), (4, 3.0)]);
    }

    #[test]
    fn entries_at_returns_requested_coordinates() {
        let mut acc = ResidualAccumulator::new(4);
        acc.add(&[1.0, 2.0, 3.0, 4.0]);
        let mut out = vec![(9, 9.0)];
        acc.entries_at_into(&[3, 0], &mut out);
        assert_eq!(out, vec![(3, 4.0), (0, 1.0)]);
    }

    #[test]
    fn unsent_coordinates_keep_accumulating() {
        let mut acc = ResidualAccumulator::new(3);
        for _ in 0..5 {
            acc.add(&[0.1, 1.0, 0.1]);
            // Suppose only index 1 is ever selected and reset.
            acc.reset_indices(&[1]);
        }
        assert!((acc.as_slice()[0] - 0.5).abs() < 1e-6);
        assert_eq!(acc.as_slice()[1], 0.0);
    }

    #[test]
    fn reset_indices_to_seeds_quantization_errors() {
        let mut acc = ResidualAccumulator::new(4);
        acc.add(&[1.0, 2.0, 3.0, 4.0]);
        // Index 0 was delivered exactly, index 2 lost 0.25 to quantization.
        acc.reset_indices_to(&[0, 2], &[(2, 0.25)], &mut Vec::new());
        assert_eq!(acc.as_slice(), &[0.0, 2.0, 0.25, 4.0]);
    }

    #[test]
    fn reset_indices_to_with_empty_errors_matches_reset_indices() {
        let mut a = ResidualAccumulator::new(4);
        let mut b = ResidualAccumulator::new(4);
        a.add(&[1.0, -2.0, 3.0, -4.0]);
        b.add(&[1.0, -2.0, 3.0, -4.0]);
        a.reset_indices(&[1, 3]);
        b.reset_indices_to(&[1, 3], &[], &mut Vec::new());
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reset_indices_to_rejects_an_out_of_range_index() {
        let mut acc = ResidualAccumulator::new(4);
        acc.reset_indices_to(&[1, 4], &[(1, 0.5)], &mut Vec::new());
    }

    #[test]
    #[should_panic]
    fn add_length_mismatch_panics() {
        let mut acc = ResidualAccumulator::new(2);
        acc.add(&[1.0]);
    }

    proptest! {
        /// The merge against the per-index binary search it replaced, on
        /// reset lists in arbitrary order with repeats, on the same lists
        /// ascending (merged in place, the way an upload's resets arrive),
        /// and on error lists that also name indices outside the reset set.
        #[test]
        fn prop_reset_by_merge_equals_reset_by_binary_search(
            grad in proptest::collection::vec(-5.0f32..5.0, 40),
            resets in proptest::collection::vec(0usize..40, 0..60),
            error_picks in proptest::collection::vec((0usize..40, -1.0f32..1.0), 0..40),
        ) {
            let mut errors = error_picks;
            errors.sort_unstable_by_key(|&(j, _)| j);
            errors.dedup_by_key(|&mut (j, _)| j);
            let mut ascending = resets.clone();
            ascending.sort_unstable();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for resets in [resets, ascending] {
                let mut acc = ResidualAccumulator::new(40);
                acc.add(&grad);
                let mut expected = grad.clone();
                crate::reference::reset_indices_to(&mut expected, &resets, &errors);
                let mut scratch = vec![7; 3];
                acc.reset_indices_to(&resets, &errors, &mut scratch);
                prop_assert_eq!(bits(acc.as_slice()), bits(&expected));
            }
        }

        #[test]
        fn prop_reset_then_l1_decreases(
            grad in proptest::collection::vec(-5.0f32..5.0, 8),
            k in 0usize..8,
        ) {
            let mut acc = ResidualAccumulator::new(8);
            acc.add(&grad);
            let before = acc.residual_l1();
            let top: Vec<usize> = acc.top_k_entries(k).into_iter().map(|(j, _)| j).collect();
            acc.reset_indices(&top);
            prop_assert!(acc.residual_l1() <= before + 1e-6);
        }
    }
}
