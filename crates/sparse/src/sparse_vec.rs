use serde::{Deserialize, Serialize};

/// A sparse gradient vector stored as sorted `(index, value)` pairs.
///
/// This is the object exchanged between clients and the server: the uplink
/// message `A_i = {(j, a_ij)}` and the downlink message `B = {(j, b_j)}` of
/// Algorithm 1 are both `SparseGradient`s.
///
/// Invariants: indices are strictly increasing and all indices are `< dim`.
///
/// # Examples
///
/// ```
/// use agsfl_sparse::SparseGradient;
///
/// let g = SparseGradient::from_entries(8, vec![(5, 1.0), (2, -3.0)]);
/// assert_eq!(g.nnz(), 2);
/// assert_eq!(g.get(2), -3.0);
/// assert_eq!(g.get(3), 0.0);
///
/// let dense = g.to_dense();
/// assert_eq!(dense[5], 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseGradient {
    dim: usize,
    entries: Vec<(usize, f32)>,
}

impl SparseGradient {
    /// Creates an empty sparse gradient of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self {
            dim,
            entries: Vec::new(),
        }
    }

    /// Creates a sparse gradient from unsorted entries.
    ///
    /// Entries are sorted by index; duplicate indices are summed.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= dim`.
    pub fn from_entries(dim: usize, mut entries: Vec<(usize, f32)>) -> Self {
        assert!(
            entries.iter().all(|&(j, _)| j < dim),
            "sparse gradient index out of range (dim {dim})"
        );
        entries.sort_unstable_by_key(|&(j, _)| j);
        let mut dedup: Vec<(usize, f32)> = Vec::with_capacity(entries.len());
        for (j, v) in entries {
            match dedup.last_mut() {
                Some((last_j, last_v)) if *last_j == j => *last_v += v,
                _ => dedup.push((j, v)),
            }
        }
        Self {
            dim,
            entries: dedup,
        }
    }

    /// Creates a sparse gradient from entries that are **already sorted by
    /// strictly increasing index** with no duplicates, skipping the
    /// sort/dedup pass of [`SparseGradient::from_entries`].
    ///
    /// This is the fast path used by the scratch-based aggregation in
    /// [`crate::Sparsifier::select_into`], which emits entries in index
    /// order by construction.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= dim`; debug-asserts the ordering
    /// invariant (strictly increasing indices).
    pub fn from_sorted_entries(dim: usize, entries: Vec<(usize, f32)>) -> Self {
        // The range check covers every entry (not just the last) so an
        // unsorted input cannot smuggle an out-of-range index past it in
        // release builds; the ordering invariant itself stays a debug
        // assertion since this is the hot-path constructor.
        assert!(
            entries.iter().all(|&(j, _)| j < dim),
            "sparse gradient index out of range (dim {dim})"
        );
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "from_sorted_entries requires strictly increasing indices"
        );
        Self { dim, entries }
    }

    /// Dimension `D` of the underlying dense space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored entries as sorted `(index, value)` pairs.
    pub fn entries(&self) -> &[(usize, f32)] {
        &self.entries
    }

    /// The entry list, for a workspace that reuses its capacity.
    pub(crate) fn into_entries(self) -> Vec<(usize, f32)> {
        self.entries
    }

    /// The stored indices, sorted ascending.
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries.iter().map(|&(j, _)| j)
    }

    /// Value at index `j` (zero if not stored).
    ///
    /// # Panics
    ///
    /// Panics if `j >= dim`.
    pub fn get(&self, j: usize) -> f32 {
        assert!(j < self.dim, "index {j} out of range (dim {})", self.dim);
        match self.entries.binary_search_by_key(&j, |&(i, _)| i) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => 0.0,
        }
    }

    /// Returns `true` if index `j` is stored.
    pub fn contains(&self, j: usize) -> bool {
        self.entries.binary_search_by_key(&j, |&(i, _)| i).is_ok()
    }

    /// Expands to a dense vector of length `dim`.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut dense = vec![0.0f32; self.dim];
        for &(j, v) in &self.entries {
            dense[j] = v;
        }
        dense
    }

    /// Applies the sparse gradient to a dense weight vector:
    /// `weights[j] -= lr * value` for every stored entry. This is exactly the
    /// weight update of Eq. (1) restricted to the sparse support.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != dim`.
    pub fn apply_sgd(&self, weights: &mut [f32], lr: f32) {
        assert_eq!(weights.len(), self.dim, "weight vector length mismatch");
        for &(j, v) in &self.entries {
            weights[j] -= lr * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_entries_sorts_and_dedups() {
        let g = SparseGradient::from_entries(10, vec![(7, 1.0), (2, 2.0), (7, 3.0)]);
        assert_eq!(g.entries(), &[(2, 2.0), (7, 4.0)]);
        assert_eq!(g.nnz(), 2);
    }

    #[test]
    fn from_sorted_entries_matches_from_entries() {
        let entries = vec![(1, 2.0), (4, -1.0), (9, 0.5)];
        let fast = SparseGradient::from_sorted_entries(10, entries.clone());
        let slow = SparseGradient::from_entries(10, entries);
        assert_eq!(fast, slow);
    }

    #[test]
    #[should_panic]
    fn from_sorted_entries_rejects_out_of_range() {
        let _ = SparseGradient::from_sorted_entries(3, vec![(1, 1.0), (3, 1.0)]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn from_sorted_entries_debug_asserts_order() {
        let _ = SparseGradient::from_sorted_entries(5, vec![(2, 1.0), (1, 1.0)]);
    }

    #[test]
    fn get_and_contains() {
        let g = SparseGradient::from_entries(6, vec![(1, 5.0), (4, -1.0)]);
        assert_eq!(g.get(1), 5.0);
        assert_eq!(g.get(0), 0.0);
        assert!(g.contains(4));
        assert!(!g.contains(2));
    }

    #[test]
    #[should_panic]
    fn out_of_range_entry_panics() {
        let _ = SparseGradient::from_entries(3, vec![(3, 1.0)]);
    }

    #[test]
    fn apply_sgd_matches_dense_update() {
        let g = SparseGradient::from_entries(4, vec![(1, 2.0), (3, -1.0)]);
        let mut w_sparse = vec![1.0, 1.0, 1.0, 1.0];
        g.apply_sgd(&mut w_sparse, 0.5);
        let mut w_dense = vec![1.0, 1.0, 1.0, 1.0];
        let dense = g.to_dense();
        for (w, d) in w_dense.iter_mut().zip(dense.iter()) {
            *w -= 0.5 * d;
        }
        assert_eq!(w_sparse, w_dense);
    }

    #[test]
    fn zeros_is_empty() {
        let g = SparseGradient::zeros(5);
        assert!(g.is_empty());
        assert_eq!(g.dim(), 5);
        assert_eq!(g.to_dense(), vec![0.0; 5]);
    }

    proptest! {
        #[test]
        fn prop_entries_sorted_and_unique(
            raw in proptest::collection::vec((0usize..32, -3.0f32..3.0), 0..40)
        ) {
            let g = SparseGradient::from_entries(32, raw);
            let idx: Vec<usize> = g.indices().collect();
            prop_assert!(idx.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
