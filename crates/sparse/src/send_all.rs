use rand::RngCore;

use crate::scratch::SelectionScratch;
use crate::sparsifier::{ClientUpload, SelectionResult, Sparsifier, UploadPlan};
use crate::SparseGradient;

/// Always-send-all: clients upload their full accumulated gradients and the
/// server broadcasts the full aggregated gradient every round.
///
/// This is the no-sparsification upper baseline of Fig. 4: it makes the most
/// learning progress per round but pays the full communication cost every
/// round. Because every coordinate is exchanged, messages are dense and carry
/// no index overhead.
///
/// # Examples
///
/// ```
/// use agsfl_sparse::{SendAll, Sparsifier, UploadPlan};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(0);
/// assert_eq!(SendAll::new().upload_plan(100, 5, &mut rng), UploadPlan::Dense);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendAll;

impl SendAll {
    /// Creates the sparsifier.
    pub fn new() -> Self {
        Self
    }
}

impl Sparsifier for SendAll {
    fn name(&self) -> &'static str {
        "Always send all"
    }

    fn upload_plan(&self, _dim: usize, _k: usize, _rng: &mut dyn RngCore) -> UploadPlan {
        UploadPlan::Dense
    }

    fn select_accumulated(
        &self,
        uploads: &[ClientUpload],
        dim: usize,
        _k: usize,
        scratch: &mut SelectionScratch,
    ) -> SelectionResult {
        scratch.mark_all(dim);
        scratch.gather(uploads, dim, false)
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

    fn dense_upload(client: usize, weight: f64, values: &[f32]) -> ClientUpload {
        ClientUpload::new(
            client,
            weight,
            values.iter().enumerate().map(|(j, &v)| (j, v)).collect(),
        )
    }

    #[test]
    fn aggregates_every_coordinate() {
        let uploads = vec![
            dense_upload(0, 0.5, &[1.0, 2.0, 3.0]),
            dense_upload(1, 0.5, &[3.0, 2.0, 1.0]),
        ];
        let result = SendAll::new().select(&uploads, 3, 1);
        assert_eq!(result.downlink_elements(), 3);
        assert_eq!(result.aggregated.to_dense(), vec![2.0, 2.0, 2.0]);
        assert_eq!(result.contributions(&uploads), vec![3, 3]);
        assert!(!result.indexed());
    }

    #[test]
    fn scalar_accounting_is_dense() {
        let uploads = vec![dense_upload(0, 1.0, &[1.0, 2.0, 3.0, 4.0])];
        let result = SendAll::new().select(&uploads, 4, 2);
        assert_eq!(result.max_uplink_scalars(), 4);
        assert_eq!(result.downlink_scalars(), 4);
    }

    #[test]
    fn name_and_plan() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(SendAll::new().name(), "Always send all");
        assert_eq!(
            SendAll::new().upload_plan(7, 3, &mut rng),
            UploadPlan::Dense
        );
    }

    #[test]
    fn reset_covers_all_uploaded_indices() {
        let uploads = vec![dense_upload(0, 1.0, &[0.5, -0.5])];
        let result = SendAll::new().select(&uploads, 2, 1);
        assert_eq!(result.resets(&uploads[0]).collect::<Vec<_>>(), [0, 1]);
    }
}
