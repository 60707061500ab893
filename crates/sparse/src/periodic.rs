use rand::seq::SliceRandom;
use rand::RngCore;

use crate::scratch::SelectionScratch;
use crate::sparsifier::{ClientUpload, SelectionResult, Sparsifier, UploadPlan};
use crate::SparseGradient;

/// Periodic / random-k sparsification.
///
/// Every round the server picks `k` coordinates uniformly at random (the same
/// set for every client); clients upload their accumulated values at exactly
/// those coordinates and the server aggregates and broadcasts them. Over
/// enough rounds every coordinate is visited, which is the "periodic
/// averaging" family of GS methods (\[8\], \[30\] in the paper). The random
/// choice ignores gradient magnitudes, which is why it generally loses to
/// top-k selection.
///
/// # Examples
///
/// ```
/// use agsfl_sparse::{PeriodicK, Sparsifier, UploadPlan};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let periodic = PeriodicK::new();
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// match periodic.upload_plan(100, 5, &mut rng) {
///     UploadPlan::Coordinates(coords) => assert_eq!(coords.len(), 5),
///     other => panic!("unexpected plan {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeriodicK;

impl PeriodicK {
    /// Creates the sparsifier.
    pub fn new() -> Self {
        Self
    }
}

impl Sparsifier for PeriodicK {
    fn name(&self) -> &'static str {
        "Periodic-k"
    }

    fn upload_plan(&self, dim: usize, k: usize, rng: &mut dyn RngCore) -> UploadPlan {
        let k = k.min(dim);
        // Sample k distinct coordinates uniformly at random.
        let mut pool: Vec<usize> = (0..dim).collect();
        let (chosen, _) = pool.partial_shuffle(rng, k);
        let mut coords = chosen.to_vec();
        coords.sort_unstable();
        UploadPlan::Coordinates(coords)
    }

    fn select_accumulated(
        &self,
        uploads: &[ClientUpload],
        dim: usize,
        _k: usize,
        scratch: &mut SelectionScratch,
    ) -> SelectionResult {
        // Every client uploaded the same coordinate set, the plan; the
        // selection is that set (taken from the first upload; empty if
        // there are no clients). A direct caller's repeated coordinate
        // (out of contract) is marked once.
        scratch.clear_marks(dim);
        scratch.mark_entries(&uploads[..uploads.len().min(1)], dim);
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
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn plan_has_k_distinct_sorted_coordinates() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        match PeriodicK::new().upload_plan(50, 8, &mut rng) {
            UploadPlan::Coordinates(coords) => {
                assert_eq!(coords.len(), 8);
                assert!(coords.windows(2).all(|w| w[0] < w[1]));
                assert!(coords.iter().all(|&c| c < 50));
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn plan_clamps_k_to_dim() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        match PeriodicK::new().upload_plan(3, 10, &mut rng) {
            UploadPlan::Coordinates(coords) => assert_eq!(coords, vec![0, 1, 2]),
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn coordinates_vary_across_rounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = PeriodicK::new().upload_plan(1000, 10, &mut rng);
        let b = PeriodicK::new().upload_plan(1000, 10, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn select_aggregates_common_coordinates() {
        let uploads = vec![
            ClientUpload::new(0, 0.5, vec![(2, 1.0), (7, -2.0)]),
            ClientUpload::new(1, 0.5, vec![(2, 3.0), (7, 2.0)]),
        ];
        let result = PeriodicK::new().select(&uploads, 10, 2);
        assert_eq!(result.downlink_elements(), 2);
        assert!((result.aggregated.get(2) - 2.0).abs() < 1e-6);
        assert!((result.aggregated.get(7) - 0.0).abs() < 1e-6);
        assert_eq!(result.contributions(&uploads), vec![2, 2]);
    }

    #[test]
    fn empty_uploads_select_nothing() {
        let result = PeriodicK::new().select(&[], 10, 4);
        assert!(result.aggregated.is_empty());
        assert_eq!(result.downlink_elements(), 0);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(PeriodicK::new().name(), "Periodic-k");
    }
}
