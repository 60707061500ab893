//! The historical (seed) server-selection implementations, kept verbatim as
//! an executable specification.
//!
//! [`Sparsifier::select_into`](crate::Sparsifier::select_into) replaced these
//! hash-based paths with dense per-coordinate sums each upload is
//! accumulated into, a bitset `J` and single-pass union counting. The
//! functions here are the slow-but-obviously-correct baselines they are
//! checked against:
//!
//! * the reference-equivalence property test in `tests/select_equivalence.rs`
//!   asserts the fast paths return byte-identical `SelectionResult`s for all
//!   five sparsifiers over random uploads, dims and `k`, and that every
//!   upload's resets read off the result equal the reset list
//!   [`aggregate_selected`] builds;
//! * the `bench-report` binary asserts the fast paths it times against
//!   them, computed once per run; the baselines themselves are not timed.
//!
//! Complexity of the FAB baseline: each binary-search probe rebuilds a
//! `HashSet` over all uploads — O(Σ|uploads|) hashing per probe and O(log k)
//! probes — and aggregation runs through a `HashMap` plus a sort in
//! `SparseGradient::from_entries`. The fast path adds each upload into a
//! dense sum as it arrives, no hashing, and reads `J`'s sums off a bitset
//! in index order.

use std::collections::{HashMap, HashSet};

use crate::sparsifier::{ClientUpload, SelectionResult};
use crate::{topk, SparseGradient};

/// The seed implementation of the aggregate-and-reset sweep: `HashSet`
/// membership, `HashMap` accumulation, sort-and-dedup gradient
/// construction, and one reset list per upload (the seed's per-client
/// resets; a [`SelectionResult`] keeps `J` and lets each client derive its
/// own).
pub fn aggregate_selected(
    uploads: &[ClientUpload],
    selected: &[usize],
    dim: usize,
) -> (SparseGradient, Vec<Vec<usize>>) {
    let selected_set: HashSet<usize> = selected.iter().copied().collect();
    let mut sums: HashMap<usize, f64> = selected.iter().map(|&j| (j, 0.0)).collect();
    let mut reset_indices = vec![Vec::new(); uploads.len()];
    for (slot, upload) in uploads.iter().enumerate() {
        for &(j, v) in &upload.entries {
            assert!(j < dim, "upload index {j} out of range (dim {dim})");
            if selected_set.contains(&j) {
                *sums.get_mut(&j).expect("initialised above") += upload.weight * v as f64;
                reset_indices[slot].push(j);
            }
        }
    }
    let entries: Vec<(usize, f32)> = sums.into_iter().map(|(j, v)| (j, v as f32)).collect();
    (SparseGradient::from_entries(dim, entries), reset_indices)
}

fn result_from(
    uploads: &[ClientUpload],
    selected: &[usize],
    dim: usize,
    indexed: bool,
) -> SelectionResult {
    let (aggregated, _) = aggregate_selected(uploads, selected, dim);
    let mut bits = vec![0u64; dim.div_ceil(64)];
    for &j in selected {
        bits[j / 64] |= 1 << (j % 64);
    }
    SelectionResult::new(aggregated, bits, uploads, indexed)
}

/// Size of `∪_i J_i^κ`, rebuilt from scratch — the per-probe cost the fast
/// path eliminates. Prefixes are read from each upload's ranked key view.
fn fab_union_size(uploads: &[ClientUpload], kappa: usize) -> usize {
    let mut set = HashSet::new();
    for upload in uploads {
        set.extend(topk::prefix_indices(&upload.ranked, kappa));
    }
    set.len()
}

/// The seed FAB-top-k downlink selection: binary search over `κ` with a
/// hash-set union rebuild per probe, over the uploads' ranked key views.
/// Returns the selected set **sorted** so results compare directly against
/// the fast path (the seed returned hash-set iteration order; every
/// downstream consumer re-sorted).
pub fn fab_select_indices(uploads: &[ClientUpload], k: usize) -> Vec<usize> {
    if k == 0 || uploads.is_empty() {
        return Vec::new();
    }
    let max_prefix = uploads.iter().map(|u| u.ranked.len()).max().unwrap_or(0);
    let mut lo = 0usize;
    let mut hi = max_prefix.min(k);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if fab_union_size(uploads, mid) <= k {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let kappa = lo;

    let mut selected: HashSet<usize> = HashSet::new();
    for upload in uploads {
        selected.extend(topk::prefix_indices(&upload.ranked, kappa));
    }

    if selected.len() < k && kappa < max_prefix {
        let mut candidates: Vec<(usize, f32)> = Vec::new();
        for upload in uploads {
            if let Some(&key) = upload.ranked.get(kappa) {
                let (j, v) = topk::key_entry(key);
                if !selected.contains(&j) {
                    candidates.push((j, v));
                }
            }
        }
        candidates.sort_by(topk::compare_magnitude_then_index);
        for (j, _) in candidates {
            if selected.len() >= k {
                break;
            }
            selected.insert(j);
        }
    }
    let mut out: Vec<usize> = selected.into_iter().collect();
    out.sort_unstable();
    out
}

/// Seed FAB-top-k server selection.
pub fn fab_select(uploads: &[ClientUpload], dim: usize, k: usize) -> SelectionResult {
    let selected = fab_select_indices(uploads, k);
    result_from(uploads, &selected, dim, true)
}

/// Seed FUB-top-k server selection (hash-map aggregation, then global top-k).
pub fn fub_select(uploads: &[ClientUpload], dim: usize, k: usize) -> SelectionResult {
    let mut sums: HashMap<usize, f64> = HashMap::new();
    for upload in uploads {
        for &(j, v) in &upload.entries {
            assert!(j < dim, "upload index {j} out of range (dim {dim})");
            *sums.entry(j).or_insert(0.0) += upload.weight * v as f64;
        }
    }
    let mut candidates: Vec<(usize, f32)> = sums.into_iter().map(|(j, v)| (j, v as f32)).collect();
    candidates.sort_by(topk::compare_magnitude_then_index);
    candidates.truncate(k);
    let selected: Vec<usize> = candidates.iter().map(|&(j, _)| j).collect();
    result_from(uploads, &selected, dim, true)
}

/// Seed periodic-k server selection (first upload's coordinate set).
pub fn periodic_select(uploads: &[ClientUpload], dim: usize) -> SelectionResult {
    let selected: Vec<usize> = uploads
        .first()
        .map(|u| u.entries.iter().map(|&(j, _)| j).collect())
        .unwrap_or_default();
    result_from(uploads, &selected, dim, true)
}

/// Seed send-all server selection (every coordinate, dense messages).
pub fn send_all_select(uploads: &[ClientUpload], dim: usize) -> SelectionResult {
    let selected: Vec<usize> = (0..dim).collect();
    result_from(uploads, &selected, dim, false)
}

/// The seed client-side top-k: materializes a full-dimension `(index,
/// |value|)` candidate copy, partially selects and sorts it.
///
/// [`topk::top_k_entries_into`] replaced this with a sampled select and
/// radix rank on packed integer keys; this comparator version is the
/// executable spec of the order on finite values
/// (`tests/topk_equivalence.rs`) and the value `bench-report`'s
/// `client_top_k` rows are asserted against.
pub fn top_k_entries(values: &[f32], k: usize) -> Vec<(usize, f32)> {
    let mut candidates: Vec<(usize, f32)> = values
        .iter()
        .enumerate()
        .map(|(j, &v)| (j, v.abs()))
        .collect();
    let k = k.min(candidates.len());
    if k == 0 {
        return Vec::new();
    }
    if k < candidates.len() {
        candidates.select_nth_unstable_by(k - 1, topk::compare_magnitude_then_index);
        candidates.truncate(k);
    }
    candidates.sort_unstable_by(topk::compare_magnitude_then_index);
    candidates.iter().map(|&(j, _)| (j, values[j])).collect()
}

/// The lossy tier's residual reset, one binary search of the index-sorted
/// `errors` per reset index: `residual[j]` becomes `j`'s quantization error
/// when it has one and zero otherwise.
///
/// [`ResidualAccumulator::reset_selected`](crate::ResidualAccumulator::reset_selected)
/// replaced this with a client's walk of its own upload against `J`, which
/// reads one error per sent entry at the entry's position; this per-index
/// version over `J ∩ J_i` is what it is tested against (and what
/// `bench-report`'s `reset_errors_merge` row is asserted against).
///
/// # Panics
///
/// Panics if any index is out of range.
pub fn reset_indices_to(residual: &mut [f32], indices: &[usize], errors: &[(usize, f32)]) {
    for &j in indices {
        assert!(j < residual.len(), "index {j} out of range");
        residual[j] = errors
            .binary_search_by_key(&j, |&(i, _)| i)
            .map(|p| errors[p].1)
            .unwrap_or(0.0);
    }
}

/// Seed unidirectional top-k server selection (union of all uploads).
pub fn unidirectional_select(uploads: &[ClientUpload], dim: usize) -> SelectionResult {
    let mut selected: Vec<usize> = uploads
        .iter()
        .flat_map(|u| u.entries.iter().map(|&(j, _)| j))
        .collect();
    selected.sort_unstable();
    selected.dedup();
    result_from(uploads, &selected, dim, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fab_union_size_counts_distinct_prefix_indices() {
        let uploads = vec![
            ClientUpload::new(0, 0.5, vec![(0, 5.0), (1, 4.0), (2, 3.0)]),
            ClientUpload::new(1, 0.5, vec![(0, 5.0), (3, 4.0), (4, 3.0)]),
        ];
        assert_eq!(fab_union_size(&uploads, 0), 0);
        assert_eq!(fab_union_size(&uploads, 1), 1);
        assert_eq!(fab_union_size(&uploads, 2), 3);
        assert_eq!(fab_union_size(&uploads, 3), 5);
    }

    #[test]
    fn seed_top_k_matches_streaming_implementation() {
        let values: Vec<f32> = (0..600)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.25)
            .collect();
        for k in [0, 1, 7, 100, 599, 600, 700] {
            assert_eq!(
                top_k_entries(&values, k),
                topk::top_k_entries(&values, k),
                "k={k}"
            );
        }
    }

    #[test]
    fn reference_fab_matches_seed_behaviour() {
        let uploads = vec![
            ClientUpload::new(0, 0.5, vec![(0, 10.0), (1, 9.0), (2, 8.0)]),
            ClientUpload::new(1, 0.5, vec![(5, 0.3), (6, 0.2), (7, 0.1)]),
        ];
        let result = fab_select(&uploads, 8, 2);
        assert_eq!(result.aggregated.nnz(), 2);
        assert!(result.contributions(&uploads)[1] >= 1);
    }
}
