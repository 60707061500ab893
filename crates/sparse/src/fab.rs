use rand::RngCore;

use crate::scratch::SelectionScratch;
use crate::sparsifier::{ClientUpload, SelectionResult, Sparsifier, UploadPlan};
use crate::topk;
use crate::SparseGradient;

/// Fairness-aware bidirectional top-k gradient sparsification (FAB-top-k) —
/// the paper's proposed method (Section III-B, Algorithm 1).
///
/// Both the uplink and the downlink carry exactly `k` gradient elements.
/// The downlink set `J` is chosen fairness-aware: the server finds the
/// largest per-client prefix length `κ` such that the union of every client's
/// top-`κ` uploaded indices still fits in `k`, takes that union, and fills the
/// remaining slots with the largest-magnitude candidates from the next prefix
/// level. Because `|∪_i J_i^κ| ≤ k` always holds for `κ = ⌊k/N⌋`, every
/// client is guaranteed to contribute at least `⌊k/N⌋` elements.
///
/// # Examples
///
/// ```
/// use agsfl_sparse::{ClientUpload, FabTopK, Sparsifier};
///
/// let fab = FabTopK::new();
/// let uploads = vec![
///     // Client 0 has huge values, client 1 small ones.
///     ClientUpload::new(0, 0.5, vec![(0, 10.0), (1, 9.0), (2, 8.0)]),
///     ClientUpload::new(1, 0.5, vec![(5, 0.3), (6, 0.2), (7, 0.1)]),
/// ];
/// let result = fab.select(&uploads, 8, 2);
/// // Fairness: even though client 1's values are tiny, it still contributes
/// // at least floor(2/2) = 1 element.
/// assert!(result.contributions(&uploads)[1] >= 1);
/// assert_eq!(result.aggregated.nnz(), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabTopK;

impl FabTopK {
    /// Creates the sparsifier.
    pub fn new() -> Self {
        Self
    }

    /// Selects the downlink index set `J` of size at most `k`, returned
    /// **sorted ascending** (the historical implementation returned hash-set
    /// iteration order, which was nondeterministic across processes).
    ///
    /// Exposed for testing and for the ablation benchmarks; the round loop
    /// goes through [`Sparsifier::select_accumulated`], which reuses the
    /// scratch.
    pub fn select_indices(uploads: &[ClientUpload], k: usize) -> Vec<usize> {
        let dim = uploads
            .iter()
            .flat_map(|u| u.entries.iter().map(|&(j, _)| j + 1))
            .max()
            .unwrap_or(0);
        let mut scratch = SelectionScratch::new();
        Self::scan_levels(uploads, dim, k, &mut scratch);
        scratch.marked().collect()
    }

    /// The rank-major scan behind every FAB selection: reads the uploads'
    /// ranked key views level by level — level `r` is every client's
    /// rank-`r` key — and stops at the first level that does not fit in
    /// `k`. The views are the only part of an upload the scan reads.
    ///
    /// An index is first seen at its minimum rank across clients, so once
    /// level `r` is marked the marked set is exactly `∪_i J_i^{r+1}` and its
    /// size is that union's: the largest feasible `κ` is the first level
    /// whose first-seen indices would overflow `k`, and that level's
    /// entries not marked before it are precisely the fill candidates of
    /// Algorithm 1. The scan therefore reads `N·(κ+1)` upload entries, not
    /// all `N·k` (`crate::reference` keeps the seed's binary search over
    /// `HashSet` unions as the specification).
    ///
    /// `κ` never exceeds `min(k, longest upload)`; the level *at* that bound
    /// is only ever a fill level, and taking all of a level that fits is the
    /// same set as filling from it in magnitude order until it runs out.
    ///
    /// On return the scratch's bitset holds exactly `J`, whose size is
    /// returned: read in index order, the bitset is the round's selection,
    /// or restricts a larger round's aggregate.
    fn scan_levels(
        uploads: &[ClientUpload],
        dim: usize,
        k: usize,
        scratch: &mut SelectionScratch,
    ) -> usize {
        debug_assert!(
            uploads.iter().all(|u| u.ranked.len() == u.entries.len()),
            "FAB reads every upload's ranked key view"
        );
        scratch.clear_marks(dim);
        if k == 0 {
            return 0;
        }
        let mut selected = 0;
        let max_prefix = uploads.iter().map(|u| u.ranked.len()).max().unwrap_or(0);
        // One slot per upload: a level's candidates fit.
        scratch.candidates.clear();
        scratch.candidates.resize(uploads.len(), (0, 0.0));
        for level in 0..=max_prefix.min(k) {
            // Mark the level, keeping the indices first seen here.
            // Branch-free: every entry is written, and the cursor advances
            // on an unmarked index.
            let mut n = 0;
            for upload in uploads {
                if let Some(&key) = upload.ranked.get(level) {
                    let (j, v) = topk::key_entry(key);
                    assert!(j < dim, "upload index {j} out of range (dim {dim})");
                    scratch.candidates[n] = (j, v);
                    n += usize::from(!scratch.is_marked(j));
                    scratch.mark(j);
                }
            }
            selected += n;
            if selected < k {
                continue;
            }
            if selected > k {
                // κ = level. Un-accept it and fill up to k with its
                // largest-magnitude entries not marked before it — an
                // index several clients rank here is a candidate once per
                // client.
                for i in 0..n {
                    scratch.unmark(scratch.candidates[i].0);
                }
                selected -= n;
                let mut m = 0;
                for upload in uploads {
                    if let Some(&key) = upload.ranked.get(level) {
                        let (j, v) = topk::key_entry(key);
                        scratch.candidates[m] = (j, v);
                        m += usize::from(!scratch.is_marked(j));
                    }
                }
                scratch.candidates.truncate(m);
                topk::rank_by_magnitude(&mut scratch.candidates, &mut scratch.keys);
                for i in 0..scratch.candidates.len() {
                    if selected >= k {
                        break;
                    }
                    let j = scratch.candidates[i].0;
                    // The same index may appear from several clients.
                    if !scratch.is_marked(j) {
                        scratch.mark(j);
                        selected += 1;
                    }
                }
            }
            return selected;
        }
        selected
    }
}

impl Sparsifier for FabTopK {
    fn name(&self) -> &'static str {
        "FAB-top-k"
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
        Self::scan_levels(uploads, dim, k, scratch);
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
        // A selection that stopped short of its budget took every level, so
        // any budget at least its size takes the same ones.
        if probe_k >= selection.aggregated.nnz() {
            return None;
        }
        let kept = Self::scan_levels(uploads, dim, probe_k, scratch);
        // Keep the marked entries of the round's aggregate, in its (index)
        // order. Branch-free: always write, advance only on a marked index;
        // the spare slot absorbs the writes after the last match.
        scratch.candidates.resize(kept + 1, (0, 0.0));
        let mut n = 0;
        for &entry in selection.aggregated.entries() {
            scratch.candidates[n] = entry;
            n += usize::from(scratch.is_marked(entry.0));
        }
        debug_assert_eq!(n, kept, "J(k') ⊆ J(k)");
        scratch.candidates.truncate(kept);
        Some(SparseGradient::from_sorted_entries(
            dim,
            scratch.candidates.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Builds ranked uploads from dense per-client accumulators.
    fn uploads_from_dense(clients: &[Vec<f32>], k: usize) -> Vec<ClientUpload> {
        let n = clients.len();
        clients
            .iter()
            .enumerate()
            .map(|(i, acc)| ClientUpload::new(i, 1.0 / n as f64, topk::top_k_entries(acc, k)))
            .collect()
    }

    #[test]
    fn selects_exactly_k_when_enough_candidates() {
        let clients = vec![
            vec![5.0, 4.0, 3.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 2.0, 1.5, 1.0],
        ];
        let uploads = uploads_from_dense(&clients, 3);
        let fab = FabTopK::new();
        let result = fab.select(&uploads, 6, 3);
        assert_eq!(result.aggregated.nnz(), 3);
        assert_eq!(result.downlink_elements(), 3);
    }

    #[test]
    fn fairness_guarantee_floor_k_over_n() {
        // Client 1's values are all much smaller; FUB would ignore it entirely,
        // FAB must include at least floor(k/N) = 2 of its elements.
        let clients = vec![
            vec![9.0, 8.0, 7.0, 6.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.01, 0.02, 0.03, 0.04, 0.05],
        ];
        let uploads = uploads_from_dense(&clients, 4);
        let result = FabTopK::new().select(&uploads, 10, 4);
        assert!(
            result.contributions(&uploads)[1] >= 2,
            "{:?}",
            result.contributions(&uploads)
        );
        assert!(
            result.contributions(&uploads)[0] >= 2,
            "{:?}",
            result.contributions(&uploads)
        );
    }

    #[test]
    fn overlapping_indices_are_aggregated() {
        let clients = vec![vec![4.0, 0.0, 0.0], vec![2.0, 0.0, 0.0]];
        let uploads = uploads_from_dense(&clients, 1);
        let result = FabTopK::new().select(&uploads, 3, 1);
        assert_eq!(result.aggregated.nnz(), 1);
        assert!((result.aggregated.get(0) - 3.0).abs() < 1e-6);
        assert_eq!(result.contributions(&uploads), vec![1, 1]);
    }

    #[test]
    fn k_zero_selects_nothing() {
        let clients = vec![vec![1.0, 2.0]];
        let uploads = uploads_from_dense(&clients, 2);
        let result = FabTopK::new().select(&uploads, 2, 0);
        assert!(result.aggregated.is_empty());
        assert_eq!(result.downlink_elements(), 0);
    }

    #[test]
    fn upload_plan_is_top_k_own() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(
            FabTopK::new().upload_plan(10, 3, &mut rng),
            UploadPlan::TopKOwn
        );
        assert_eq!(FabTopK::new().name(), "FAB-top-k");
    }

    #[test]
    fn reset_indices_subset_of_uploads() {
        let clients = vec![
            vec![1.0, -2.0, 3.0, -4.0, 5.0],
            vec![5.0, -4.0, 3.0, -2.0, 1.0],
        ];
        let uploads = uploads_from_dense(&clients, 3);
        let result = FabTopK::new().select(&uploads, 5, 3);
        for upload in &uploads {
            let uploaded: std::collections::HashSet<usize> =
                upload.entries.iter().map(|&(j, _)| j).collect();
            for j in result.resets(upload) {
                assert!(uploaded.contains(&j));
                assert!(result.aggregated.contains(j));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_selection_size_and_fairness(
            seed in 0u64..500,
            n_clients in 1usize..6,
            dim in 4usize..40,
            k_raw in 1usize..20,
        ) {
            let k = 1 + k_raw % dim.min(16);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let clients: Vec<Vec<f32>> = (0..n_clients)
                .map(|_| (0..dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect())
                .collect();
            let uploads = uploads_from_dense(&clients, k);
            let result = FabTopK::new().select(&uploads, dim, k);

            // select_indices returns a sorted set — the selection order is
            // part of the API contract now (the historical implementation
            // leaked hash-set iteration order).
            let indices = FabTopK::select_indices(&uploads, k);
            prop_assert!(indices.windows(2).all(|w| w[0] < w[1]),
                "select_indices must return sorted, duplicate-free indices");
            prop_assert_eq!(indices.len(), result.downlink_elements());

            // Never more than k downlink elements; exactly k when the clients
            // collectively uploaded at least k distinct nonzero-capable indices.
            prop_assert!(result.aggregated.nnz() <= k);
            let distinct: std::collections::HashSet<usize> = uploads
                .iter()
                .flat_map(|u| u.entries.iter().map(|&(j, _)| j))
                .collect();
            prop_assert_eq!(result.aggregated.nnz(), k.min(distinct.len()));

            // Fairness: every client contributes at least floor(k / N) elements
            // (as long as it uploaded that many).
            let floor_share = k / n_clients;
            for (upload, &contrib) in uploads.iter().zip(result.contributions(&uploads).iter()) {
                prop_assert!(contrib >= floor_share.min(upload.len()),
                    "contribution {} < floor share {}", contrib, floor_share);
            }
        }
    }
}
