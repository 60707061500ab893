use serde::{Deserialize, Serialize};

use crate::{topk, SelectionResult};

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

/// Entries [`ResidualAccumulator::reset_selected`] packs before it writes
/// their residual coordinates.
const RESET_CHUNK: usize = 256;

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

    /// Resets the coordinates of its own upload that the server selected —
    /// `a_ij <- 0` for `j ∈ J ∩ J_i` (Lines 16–17 of Algorithm 1) — seeding
    /// each with its quantization error instead of zero on the lossy tier,
    /// and returns how many it reset (`|J ∩ J_i|`, the client's
    /// contribution).
    ///
    /// `sent` is the upload's entries as the server aggregated them; the
    /// client derives `J ∩ J_i` from them and the round's `J` itself, with
    /// no list from the server. The walk goes `RESET_CHUNK` entries at a
    /// time: the entries in `J` are packed into a stack buffer without a
    /// data-dependent branch (every entry is written, the cursor advances
    /// on the bit), and then only those coordinates of the residual are
    /// written — so neither the membership test nor the residual lines of
    /// unselected entries cost a mispredicted branch or a store, whatever
    /// share of the upload was selected. `errors` is empty, or holds one
    /// quantization error `v - v̂` per sent entry: the gap between what the
    /// client computed and what the lossy wire codec delivered, zero where
    /// the codec was exact. A reset coordinate is seeded with its error
    /// (error feedback), so with an empty `errors` slice this is
    /// [`Self::reset_indices`] over `J ∩ J_i`; the error of an entry that
    /// is not reset is ignored.
    ///
    /// # Panics
    ///
    /// Panics if a selected entry's index is out of range, or if `errors`
    /// is neither empty nor as long as `sent`. A sent index outside the
    /// selection's dimension is never in `J`, so it resets nothing.
    pub fn reset_selected(
        &mut self,
        sent: &[(usize, f32)],
        selection: &SelectionResult,
        errors: &[f32],
    ) -> usize {
        assert!(
            errors.is_empty() || errors.len() == sent.len(),
            "{} quantization errors for {} sent entries",
            errors.len(),
            sent.len()
        );
        let selected = selection.selected_words();
        // One chunk's selected coordinates and their reset values, as bits.
        let mut packed = [(0usize, 0u32); RESET_CHUNK];
        let mut resets = 0;
        for (at, chunk) in sent.chunks(RESET_CHUNK).enumerate() {
            let chunk_errors = errors.get(at * RESET_CHUNK..).unwrap_or_default();
            let mut n = 0;
            for (e, &(j, _)) in chunk.iter().enumerate() {
                let value = chunk_errors.get(e).map_or(0, |v| v.to_bits());
                packed[n] = (j, value);
                n += (selected[j / 64] >> (j % 64)) as usize & 1;
            }
            for &(j, value) in &packed[..n] {
                self.residual[j] = f32::from_bits(value);
            }
            resets += n;
        }
        resets
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
    use crate::SparseGradient;
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

    /// A selection of dimension `dim` whose `J` is `selected`.
    fn selection(dim: usize, selected: &[usize]) -> SelectionResult {
        let mut bits = vec![0u64; dim.div_ceil(64)];
        for &j in selected {
            bits[j / 64] |= 1 << (j % 64);
        }
        let aggregate = selected.iter().map(|&j| (j, 1.0)).collect();
        SelectionResult::new(
            SparseGradient::from_entries(dim, aggregate),
            bits,
            &[],
            true,
        )
    }

    #[test]
    fn reset_selected_seeds_quantization_errors() {
        let mut acc = ResidualAccumulator::new(5);
        acc.add(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let sent = [(0, 1.0), (2, 3.0), (3, 4.0)];
        // Index 0 was delivered exactly, index 2 lost 0.25 to quantization,
        // index 3 lost 0.5 but was not selected.
        let resets = acc.reset_selected(&sent, &selection(5, &[0, 2, 4]), &[0.0, 0.25, 0.5]);
        assert_eq!(resets, 2);
        assert_eq!(acc.as_slice(), &[0.0, 2.0, 0.25, 4.0, 5.0]);
    }

    #[test]
    fn reset_selected_without_errors_resets_the_selected_sent_coordinates() {
        let mut a = ResidualAccumulator::new(70);
        let grad: Vec<f32> = (0..70).map(|j| j as f32 - 20.5).collect();
        a.add(&grad);
        let mut b = a.clone();
        // Any entry order, an unselected entry, a selected index not sent.
        let sent = [(65, 1.0), (3, 1.0), (40, 1.0), (1, 1.0)];
        let resets = a.reset_selected(&sent, &selection(70, &[1, 3, 8, 65]), &[]);
        b.reset_indices(&[65, 3, 1]);
        assert_eq!((resets, a.as_slice()), (3, b.as_slice()));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn reset_selected_rejects_a_selected_index_out_of_range() {
        let mut acc = ResidualAccumulator::new(4);
        acc.reset_selected(&[(1, 1.0), (65, 1.0)], &selection(70, &[1, 65]), &[]);
    }

    #[test]
    #[should_panic(expected = "1 quantization errors for 2 sent entries")]
    fn a_lossy_reset_wants_an_error_per_sent_entry() {
        let mut acc = ResidualAccumulator::new(4);
        acc.reset_selected(&[(1, 1.0), (3, 1.0)], &selection(4, &[1]), &[0.5]);
    }

    #[test]
    #[should_panic]
    fn add_length_mismatch_panics() {
        let mut acc = ResidualAccumulator::new(2);
        acc.add(&[1.0]);
    }

    proptest! {
        /// The packed walk against the per-index binary search of the spec
        /// over `J ∩ J_i`, on sent entries in any order and ascending (the
        /// way an upload arrives), past a chunk boundary, without errors
        /// and with errors on a random part of the entries, some of them
        /// not reset.
        #[test]
        fn prop_packed_reset_equals_reset_by_binary_search(
            grad in proptest::collection::vec(-5.0f32..5.0, 300),
            sent_picks in proptest::collection::vec(0usize..300, 0..600),
            selected_picks in proptest::collection::vec(0usize..300, 0..200),
            error_picks in proptest::collection::vec((0usize..3, -1.0f32..1.0), 600),
        ) {
            let mut distinct = std::collections::HashSet::new();
            let sent: Vec<(usize, f32)> = sent_picks
                .into_iter()
                .filter(|&j| distinct.insert(j))
                .map(|j| (j, 1.0))
                .collect();
            let mut ascending = sent.clone();
            ascending.sort_unstable_by_key(|&(j, _)| j);
            let errors: Vec<f32> = error_picks[..sent.len()]
                .iter()
                .map(|&(keep, e)| if keep > 0 { e } else { 0.0 })
                .collect();
            let selection = selection(300, &selected_picks);
            let chosen: std::collections::HashSet<usize> = selected_picks.into_iter().collect();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for sent in [&sent, &ascending] {
                for errors in [&[][..], &errors[..]] {
                    let mut acc = ResidualAccumulator::new(300);
                    acc.add(&grad);
                    let resets: Vec<usize> = sent
                        .iter()
                        .map(|&(j, _)| j)
                        .filter(|j| chosen.contains(j))
                        .collect();
                    // The spec's errors: index-sorted, only where the codec
                    // changed a value.
                    let mut by_index: Vec<(usize, f32)> = sent
                        .iter()
                        .zip(errors)
                        .filter(|&(_, &e)| e != 0.0)
                        .map(|(&(j, _), &e)| (j, e))
                        .collect();
                    by_index.sort_unstable_by_key(|&(j, _)| j);
                    let mut expected = grad.clone();
                    crate::reference::reset_indices_to(&mut expected, &resets, &by_index);
                    let count = acc.reset_selected(sent, &selection, errors);
                    prop_assert_eq!(count, resets.len());
                    prop_assert_eq!(bits(acc.as_slice()), bits(&expected));
                }
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
