use rand::RngCore;

use crate::scratch::SelectionScratch;
use crate::sparsifier::{ClientUpload, SelectionResult, Sparsifier, UploadPlan};
use crate::topk;
use crate::SparseGradient;

/// Fairness-unaware bidirectional top-k (FUB-top-k).
///
/// Clients upload the top-`k` entries of their accumulated gradients exactly
/// as in FAB-top-k, but the server simply aggregates all uploaded values and
/// keeps the `k` aggregated elements with the largest absolute values — the
/// behaviour of global/bidirectional top-k schemes that ignore fairness
/// (\[28\], \[31\] in the paper). Clients whose updates are consistently small
/// may contribute nothing at all, which is the bias FAB-top-k avoids.
///
/// # Examples
///
/// ```
/// use agsfl_sparse::{ClientUpload, FubTopK, Sparsifier};
///
/// let fub = FubTopK::new();
/// let uploads = vec![
///     ClientUpload::new(0, 0.5, vec![(0, 10.0), (1, 9.0)]),
///     ClientUpload::new(1, 0.5, vec![(5, 0.1), (6, 0.05)]),
/// ];
/// let result = fub.select(&uploads, 8, 2);
/// // The small client is starved: all k slots go to client 0's indices.
/// assert_eq!(result.contributions(&uploads)[1], 0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FubTopK;

impl FubTopK {
    /// Creates the sparsifier.
    pub fn new() -> Self {
        Self
    }
}

impl Sparsifier for FubTopK {
    fn name(&self) -> &'static str {
        "FUB-top-k"
    }

    fn upload_plan(&self, _dim: usize, _k: usize, _rng: &mut dyn RngCore) -> UploadPlan {
        UploadPlan::TopKOwn
    }

    fn select_accumulated(
        &self,
        uploads: &[ClientUpload],
        dim: usize,
        k: usize,
        scratch: &mut SelectionScratch,
    ) -> SelectionResult {
        // Every uploaded coordinate is aggregated already: read the union's
        // sums, keep the top-k of the aggregated magnitudes, and mark them.
        scratch.clear_marks(dim);
        scratch.mark_entries(uploads, dim);
        scratch.marked_sums_into_candidates();
        // Only the top-k *set* matters (`J` is read back in index order),
        // so an O(U) partial selection replaces a full O(U log U) sort; the
        // key order is total, so the set is identical.
        topk::truncate_to_top_k(&mut scratch.candidates, k, &mut scratch.keys);
        scratch.clear_marks(dim);
        for i in 0..scratch.candidates.len() {
            scratch.mark(scratch.candidates[i].0);
        }
        scratch.gather(uploads, dim, true)
    }

    fn probe_aggregate(
        &self,
        uploads: &[ClientUpload],
        dim: usize,
        k: usize,
        selection: &SelectionResult,
        probe_k: usize,
        scratch: &mut SelectionScratch,
    ) -> Option<SparseGradient> {
        if probe_k > k {
            let probe = self.select_into(uploads, dim, probe_k, scratch);
            return Some(scratch.take_aggregate(probe));
        }
        if probe_k >= selection.aggregated.nnz() {
            return None;
        }
        // The k kept entries carry the very `(index, sum as f32)` pairs the
        // candidate cut ordered, so its best k' are the best k' of them.
        scratch.candidates.clear();
        scratch
            .candidates
            .extend_from_slice(selection.aggregated.entries());
        topk::truncate_to_top_k(&mut scratch.candidates, probe_k, &mut scratch.keys);
        topk::sort_by_index(&mut scratch.candidates, &mut scratch.keys);
        Some(SparseGradient::from_sorted_entries(
            dim,
            scratch.candidates.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn uploads_from_dense(clients: &[Vec<f32>], k: usize) -> Vec<ClientUpload> {
        let n = clients.len();
        clients
            .iter()
            .enumerate()
            .map(|(i, acc)| ClientUpload::new(i, 1.0 / n as f64, topk::top_k_entries(acc, k)))
            .collect()
    }

    #[test]
    fn keeps_largest_aggregated_magnitudes() {
        let clients = vec![vec![3.0, 0.0, 0.0, 1.0], vec![3.0, 0.0, 2.5, 0.0]];
        let uploads = uploads_from_dense(&clients, 2);
        let result = FubTopK::new().select(&uploads, 4, 2);
        // Aggregated values: j0 = 3.0, j2 = 1.25, j3 = 0.5 -> keep {0, 2}.
        assert!(result.aggregated.contains(0));
        assert!(result.aggregated.contains(2));
        assert!(!result.aggregated.contains(3));
        assert!((result.aggregated.get(0) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn can_starve_a_small_client() {
        let clients = vec![
            vec![10.0, 9.0, 8.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.01, 0.02, 0.03],
        ];
        let uploads = uploads_from_dense(&clients, 3);
        let result = FubTopK::new().select(&uploads, 6, 3);
        assert_eq!(result.contributions(&uploads)[1], 0);
        assert_eq!(result.contributions(&uploads)[0], 3);
    }

    #[test]
    fn downlink_never_exceeds_k() {
        let clients = vec![vec![1.0, 2.0, 3.0, 4.0, 5.0]; 4];
        let uploads = uploads_from_dense(&clients, 3);
        let result = FubTopK::new().select(&uploads, 5, 3);
        assert_eq!(result.downlink_elements(), 3);
        assert_eq!(result.aggregated.nnz(), 3);
    }

    #[test]
    fn name_and_plan() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(FubTopK::new().name(), "FUB-top-k");
        assert_eq!(
            FubTopK::new().upload_plan(10, 2, &mut rng),
            UploadPlan::TopKOwn
        );
    }

    #[test]
    fn aggregation_uses_client_weights() {
        let uploads = vec![
            ClientUpload::new(0, 0.9, vec![(0, 1.0)]),
            ClientUpload::new(1, 0.1, vec![(0, -1.0)]),
        ];
        let result = FubTopK::new().select(&uploads, 2, 1);
        assert!((result.aggregated.get(0) - 0.8).abs() < 1e-6);
    }
}
