use rand::RngCore;

use crate::scratch::SelectionScratch;
use crate::sparsifier::{ClientUpload, SelectionResult, Sparsifier, UploadPlan};
use crate::SparseGradient;

/// Unidirectional top-k sparsification.
///
/// Clients upload the top-`k` entries of their accumulated gradients, and the
/// server aggregates and broadcasts **every** uploaded coordinate. Because
/// different clients select different indices, the downlink can carry up to
/// `k · N` elements (\[22\] and related work), which is the communication
/// inefficiency bidirectional schemes remove.
///
/// # Examples
///
/// ```
/// use agsfl_sparse::{ClientUpload, Sparsifier, UnidirectionalTopK};
///
/// let uni = UnidirectionalTopK::new();
/// let uploads = vec![
///     ClientUpload::new(0, 0.5, vec![(0, 1.0), (1, 1.0)]),
///     ClientUpload::new(1, 0.5, vec![(2, 1.0), (3, 1.0)]),
/// ];
/// let result = uni.select(&uploads, 8, 2);
/// // Disjoint selections: the downlink carries k * N = 4 elements.
/// assert_eq!(result.downlink_elements(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnidirectionalTopK;

impl UnidirectionalTopK {
    /// Creates the sparsifier.
    pub fn new() -> Self {
        Self
    }
}

impl Sparsifier for UnidirectionalTopK {
    fn name(&self) -> &'static str {
        "Unidirectional top-k"
    }

    fn upload_plan(&self, _dim: usize, _k: usize, _rng: &mut dyn RngCore) -> UploadPlan {
        UploadPlan::TopKOwn
    }

    fn select_accumulated(
        &self,
        uploads: &[ClientUpload],
        dim: usize,
        _k: usize,
        scratch: &mut SelectionScratch,
    ) -> SelectionResult {
        // The downlink is the union of every uploaded coordinate, each
        // with the sum every upload of it added.
        scratch.clear_marks(dim);
        scratch.mark_entries(uploads, dim);
        scratch.gather(uploads, dim, true)
    }

    fn probe_aggregate(
        &self,
        _uploads: &[ClientUpload],
        _dim: usize,
        _k: usize,
        _selection: &SelectionResult,
        _probe_k: usize,
        _scratch: &mut SelectionScratch,
    ) -> Option<SparseGradient> {
        // The selection never reads k.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn downlink_is_union_of_uploads() {
        let uploads = vec![
            ClientUpload::new(0, 0.5, vec![(0, 1.0), (4, -1.0)]),
            ClientUpload::new(1, 0.5, vec![(4, 2.0), (7, 0.5)]),
        ];
        let result = UnidirectionalTopK::new().select(&uploads, 8, 2);
        assert_eq!(result.downlink_elements(), 3);
        assert!(result.aggregated.contains(0));
        assert!(result.aggregated.contains(4));
        assert!(result.aggregated.contains(7));
        // Every client contributed everything it uploaded.
        assert_eq!(result.contributions(&uploads), vec![2, 2]);
    }

    #[test]
    fn downlink_can_reach_k_times_n() {
        let n = 5usize;
        let k = 3usize;
        let uploads: Vec<ClientUpload> = (0..n)
            .map(|i| {
                let entries = (0..k).map(|e| (i * k + e, 1.0f32)).collect();
                ClientUpload::new(i, 1.0 / n as f64, entries)
            })
            .collect();
        let result = UnidirectionalTopK::new().select(&uploads, n * k, k);
        assert_eq!(result.downlink_elements(), n * k);
    }

    #[test]
    fn aggregation_matches_weighted_sum() {
        let uploads = vec![
            ClientUpload::new(0, 0.25, vec![(1, 4.0)]),
            ClientUpload::new(1, 0.75, vec![(1, -4.0)]),
        ];
        let result = UnidirectionalTopK::new().select(&uploads, 3, 1);
        assert!((result.aggregated.get(1) - (-2.0)).abs() < 1e-6);
    }

    #[test]
    fn works_on_dense_like_uploads() {
        let dense: Vec<f32> = (0..6).map(|i| i as f32 - 3.0).collect();
        let uploads = vec![ClientUpload::new(0, 1.0, topk::top_k_entries(&dense, 6))];
        let result = UnidirectionalTopK::new().select(&uploads, 6, 6);
        // Index 3 has value 0.0 but is still part of the upload.
        assert_eq!(result.downlink_elements(), 6);
    }

    #[test]
    fn name_and_plan() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let uni = UnidirectionalTopK::new();
        assert_eq!(uni.name(), "Unidirectional top-k");
        assert_eq!(uni.upload_plan(4, 2, &mut rng), UploadPlan::TopKOwn);
    }
}
