use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::scratch::SelectionScratch;
use crate::{topk, SparseGradient};

/// What each client should upload in the current round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum UploadPlan {
    /// Every client uploads the top-`k` entries of its own accumulated
    /// gradient (top-k family of sparsifiers).
    TopKOwn,
    /// Every client uploads exactly these coordinates of its accumulated
    /// gradient (periodic/random-k sparsification — the coordinate set is
    /// common to all clients and chosen by the server).
    Coordinates(Vec<usize>),
    /// Every client uploads its full accumulated gradient (send-all).
    Dense,
}

/// The uplink message of one client: `(client id, C_i / C, entries)`, plus
/// the entries' magnitude ranking as a packed key view.
///
/// Every upload the round engine delivers holds its `entries` in strictly
/// increasing index order — the order a wire frame carries — so the
/// aggregation sweep and the residual resets stream through memory. The
/// magnitude ranking that FAB-top-k's prefixes `J_i^κ` need lives in
/// `ranked`, the entries' [`topk::order_key`]s sorted by decreasing
/// magnitude (ties by index), read back with [`topk::key_entry`]. FAB's
/// scan and the wired probe's prefix pricing are its only readers; an
/// upload under a plan that does not rank carries it empty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientUpload {
    /// Index of the uploading client.
    pub client: usize,
    /// The client's aggregation weight `C_i / C`.
    pub weight: f64,
    /// Uploaded `(index, accumulated value)` pairs.
    pub entries: Vec<(usize, f32)>,
    /// The entries' order keys in the magnitude order (empty when the plan
    /// does not rank).
    pub ranked: Vec<u64>,
}

impl ClientUpload {
    /// Creates an upload message with `entries` in the order given and
    /// derives their ranked key view. So a rank-ordered `entries` keeps
    /// meaning "a top-`k` prefix is `entries[..k]`", and an index-ordered
    /// one is the shape the round engine delivers; every selection reads
    /// the same bits from both.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative or not finite, or if an index does
    /// not fit in 32 bits.
    pub fn new(client: usize, weight: f64, entries: Vec<(usize, f32)>) -> Self {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "invalid client weight {weight}"
        );
        let mut ranked = Vec::new();
        topk::rank_entries_into(&entries, &mut Vec::new(), &mut ranked);
        Self {
            client,
            weight,
            entries,
            ranked,
        }
    }

    /// Number of uploaded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the upload is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Result of the server-side selection and aggregation step of one round.
///
/// Besides the aggregate it keeps the downlink set `J` as a bitset, so each
/// client derives its own resets `J ∩ J_i` from its own upload
/// ([`SelectionResult::resets`]) — the server builds no per-client list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectionResult {
    /// The aggregated sparse gradient `B = {(j, b_j)}` broadcast to clients.
    pub aggregated: SparseGradient,
    /// `J`: bit `j % 64` of word `j / 64` is set when `j` is selected; one
    /// word per 64 indices of the dimension.
    selected: Vec<u64>,
    /// Length of the longest upload, in gradient elements.
    max_upload_len: usize,
    /// Whether messages carry explicit indices alongside values (`true` for
    /// sparse messages, `false` for dense full-vector ones); the uplink and
    /// the downlink always agree.
    indexed: bool,
}

impl SelectionResult {
    /// A result over `uploads` whose `J` is the `selected` bitset.
    pub(crate) fn new(
        aggregated: SparseGradient,
        selected: Vec<u64>,
        uploads: &[ClientUpload],
        indexed: bool,
    ) -> Self {
        debug_assert_eq!(selected.len(), aggregated.dim().div_ceil(64));
        Self {
            aggregated,
            selected,
            max_upload_len: uploads.iter().map(ClientUpload::len).max().unwrap_or(0),
            indexed,
        }
    }

    /// The aggregate and the `J` bitset, for a workspace that reuses them.
    pub(crate) fn into_parts(self) -> (SparseGradient, Vec<u64>) {
        (self.aggregated, self.selected)
    }

    /// The `J` bitset, one word per 64 indices.
    pub(crate) fn selected_words(&self) -> &[u64] {
        &self.selected
    }

    /// Whether index `j` is in the downlink set `J`.
    pub fn selects(&self, j: usize) -> bool {
        self.selected
            .get(j / 64)
            .is_some_and(|word| word >> (j % 64) & 1 == 1)
    }

    /// The indices `J ∩ J_i` the client that sent `upload` must reset in
    /// its accumulator (Lines 16–17 of Algorithm 1), in the upload's entry
    /// order — so ascending for every upload the round engine delivers.
    /// The round engine's members fuse this test into the reset itself
    /// ([`crate::ResidualAccumulator::reset_selected`]).
    pub fn resets<'a>(&'a self, upload: &'a ClientUpload) -> impl Iterator<Item = usize> + 'a {
        upload
            .entries
            .iter()
            .map(|&(j, _)| j)
            .filter(|&j| self.selects(j))
    }

    /// Per upload: how many of its elements were used in the aggregate
    /// (`|J ∩ J_i|`, the length of [`Self::resets`]). This is the quantity
    /// whose CDF the paper plots in Fig. 4 (right).
    pub fn contributions(&self, uploads: &[ClientUpload]) -> Vec<usize> {
        uploads.iter().map(|u| self.resets(u).count()).collect()
    }

    /// Number of gradient elements broadcast to every client.
    pub fn downlink_elements(&self) -> usize {
        self.aggregated.nnz()
    }

    /// Whether messages carry explicit indices alongside values.
    pub fn indexed(&self) -> bool {
        self.indexed
    }

    /// Largest per-client uplink scalar count (values plus indices when the
    /// message is indexed): clients transmit in parallel, so the slowest
    /// link determines the round's uplink time.
    pub fn max_uplink_scalars(&self) -> usize {
        self.scalars(self.max_upload_len)
    }

    /// Scalars transmitted on the downlink to each client.
    pub fn downlink_scalars(&self) -> usize {
        self.scalars(self.downlink_elements())
    }

    /// Scalars a message of `elements` gradient elements carries — what the
    /// normalized time model charges for.
    fn scalars(&self, elements: usize) -> usize {
        if self.indexed {
            2 * elements
        } else {
            elements
        }
    }
}

/// A gradient sparsification method: decides what clients upload and how the
/// server selects/aggregates the downlink message.
///
/// Implementations are stateless selection logic (all per-round state lives in
/// the FL simulator and the caller-owned [`SelectionScratch`]), which keeps
/// them trivially reusable both inside the simulator and in the unit/property
/// tests of this crate.
pub trait Sparsifier: Send + Sync + std::fmt::Debug {
    /// Human-readable method name used in reports (e.g. `"FAB-top-k"`).
    fn name(&self) -> &'static str;

    /// Decides what clients upload this round.
    ///
    /// `dim` is the model dimension `D` and `k` the current sparsity degree.
    /// The RNG is used by randomized plans (periodic-k).
    fn upload_plan(&self, dim: usize, k: usize, rng: &mut dyn RngCore) -> UploadPlan;

    /// Server-side selection from uploads already accumulated into
    /// `scratch`: the sparsifier picks `J` (Line 10) into the scratch's
    /// bitset, and the aggregate is that bitset read in index order with
    /// each coordinate's accumulated sum. The round engine accumulates each
    /// delivered upload as it is admitted
    /// ([`SelectionScratch::accumulate`]) and then calls this once; the
    /// sparsifier reads `uploads` only for what picks `J` — FAB-top-k their
    /// ranked key views, FUB-top-k and unidirectional top-k their union,
    /// periodic-k the plan's coordinates — never to aggregate.
    ///
    /// # Panics
    ///
    /// Panics unless `scratch` was begun at `dim` and has accumulated
    /// exactly `uploads.len()` uploads, or if an upload references an
    /// index `>= dim`.
    fn select_accumulated(
        &self,
        uploads: &[ClientUpload],
        dim: usize,
        k: usize,
        scratch: &mut SelectionScratch,
    ) -> SelectionResult;

    /// Server-side selection: from the client uploads, produce the aggregated
    /// sparse gradient, the downlink set and the communication accounting.
    ///
    /// This is Algorithm 1's server step in one call, serial on the
    /// caller's thread: accumulate every upload, in order, then
    /// [`Sparsifier::select_accumulated`] — the one path, which the round
    /// engine runs in two halves. All temporaries live in `scratch`; a
    /// caller that reuses one workspace across rounds and hands each
    /// result back ([`SelectionScratch::recycle`]) allocates nothing,
    /// whatever the number of clients.
    ///
    /// # Panics
    ///
    /// Panics if an upload references an index `>= dim`.
    fn select_into(
        &self,
        uploads: &[ClientUpload],
        dim: usize,
        k: usize,
        scratch: &mut SelectionScratch,
    ) -> SelectionResult {
        scratch.begin(dim);
        for upload in uploads {
            scratch.accumulate(upload);
        }
        self.select_accumulated(uploads, dim, k, scratch)
    }

    /// The aggregate `select_into(uploads, dim, probe_k, ..)` would return,
    /// for a caller that already holds `selection`, the result of
    /// `select_into(uploads, dim, k, ..)` over the *same* uploads — the
    /// derivative-sign probe of Section IV-E, which wants the hypothetical
    /// `k'`-element update next to the real `k`-element one. `None` means
    /// "`selection.aggregated` itself".
    ///
    /// For `probe_k <= k` no second selection runs; the probe aggregate is
    /// `selection.aggregated` *restricted* to `J(k')`, bit for bit, because
    ///
    /// 1. **`b_j` does not depend on `J`.** `b_j = Σ_i w_i · a_ij` sums, in
    ///    upload order, over every client that uploaded `j`; which other
    ///    indices were selected never enters it, so the value aggregated for
    ///    `j` at `k` is the value a selection at `k'` would aggregate.
    /// 2. **`J` is nested in `k`.** FAB-top-k's `κ` is monotone in `k` and
    ///    its fill takes a prefix of one ranked candidate list, FUB-top-k
    ///    keeps a prefix of one total order, and the other three ignore `k`;
    ///    so `J(k') ⊆ J(k)` over the same uploads.
    ///
    /// An implementation therefore only has to find `J(k')` — FAB by its
    /// rank-major scan at `k'`, FUB by a top-`k'` cut of the `k` aggregated
    /// entries, the `k`-blind three by answering `None`. For `probe_k > k`
    /// (the runner's stochastic rounding can put `k'` one above `k`, and
    /// direct `run_round` callers may ask for anything) `J(k')` is not
    /// inside `J(k)` and the independent `select_into` at `probe_k` runs —
    /// which is also this provided body, so a sparsifier without a
    /// restriction of its own is correct by default.
    ///
    /// Reuses (and so overwrites) the scratch's lists; `selection` is an
    /// owned result and is not affected.
    fn probe_aggregate(
        &self,
        uploads: &[ClientUpload],
        dim: usize,
        k: usize,
        selection: &SelectionResult,
        probe_k: usize,
        scratch: &mut SelectionScratch,
    ) -> Option<SparseGradient> {
        let _ = (k, selection);
        let probe = self.select_into(uploads, dim, probe_k, scratch);
        Some(scratch.take_aggregate(probe))
    }

    /// Convenience wrapper over [`Sparsifier::select_into`] that allocates a
    /// throwaway [`SelectionScratch`]. Handy in tests and one-shot callers;
    /// round loops should own a scratch and call `select_into` directly.
    fn select(&self, uploads: &[ClientUpload], dim: usize, k: usize) -> SelectionResult {
        let mut scratch = SelectionScratch::new();
        self.select_into(uploads, dim, k, &mut scratch)
    }

    /// Forwards to `select_into`. Kept, with the `ShardedScratch` alias, only because the frozen
    /// `benchmark/` probe `sparse.select_parallel_ratio` calls it; both go when that probe does.
    #[doc(hidden)]
    fn select_parallel(
        &self,
        uploads: &[ClientUpload],
        dim: usize,
        k: usize,
        scratch: &mut crate::ShardedScratch,
        _exec: &agsfl_exec::Executor,
    ) -> SelectionResult {
        self.select_into(uploads, dim, k, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_accessors() {
        let u = ClientUpload::new(3, 0.25, vec![(1, 2.0), (4, -1.0)]);
        assert_eq!(u.len(), 2);
        assert!(!u.is_empty());
    }

    #[test]
    #[should_panic]
    fn negative_weight_panics() {
        let _ = ClientUpload::new(0, -0.1, vec![]);
    }

    /// Accumulates the uploads, marks a given `J`, and gathers.
    fn aggregate(
        uploads: &[ClientUpload],
        selected: &[usize],
        dim: usize,
        scratch: &mut SelectionScratch,
        indexed: bool,
    ) -> SelectionResult {
        scratch.begin(dim);
        for upload in uploads {
            scratch.accumulate(upload);
        }
        scratch.clear_marks(dim);
        for &j in selected {
            scratch.mark(j);
        }
        scratch.gather(uploads, dim, indexed)
    }

    /// Every upload's resets, collected.
    fn resets(result: &SelectionResult, uploads: &[ClientUpload]) -> Vec<Vec<usize>> {
        uploads.iter().map(|u| result.resets(u).collect()).collect()
    }

    #[test]
    fn selection_result_scalar_accounting() {
        let ones = |range: std::ops::Range<usize>| range.map(|j| (j, 1.0)).collect();
        let uploads = vec![
            ClientUpload::new(0, 0.5, ones(0..3)),
            ClientUpload::new(1, 0.5, ones(5..10)),
        ];
        let mut scratch = SelectionScratch::new();
        let r = aggregate(&uploads, &[3, 4, 5, 9], 10, &mut scratch, true);
        assert_eq!(r.max_uplink_scalars(), 10);
        assert_eq!(r.downlink_elements(), 4);
        assert_eq!(r.downlink_scalars(), 8);
        assert_eq!(r.contributions(&uploads), vec![0, 2]);
        assert_eq!(resets(&r, &uploads), [vec![], vec![5, 9]]);
    }

    #[test]
    fn dense_messages_do_not_double_count() {
        let entries = (0..10).map(|j| (j, 1.0)).collect();
        let uploads = vec![ClientUpload::new(0, 1.0, entries)];
        let mut scratch = SelectionScratch::new();
        let selected: Vec<usize> = (0..10).collect();
        let r = aggregate(&uploads, &selected, 10, &mut scratch, false);
        assert!(!r.indexed());
        assert_eq!(r.max_uplink_scalars(), 10);
        assert_eq!(r.downlink_scalars(), 10);
        assert_eq!(r.contributions(&uploads), vec![10]);
    }

    #[test]
    fn aggregate_selected_weights_and_masks() {
        let uploads = vec![
            ClientUpload::new(0, 0.75, vec![(1, 4.0), (2, 1.0)]),
            ClientUpload::new(1, 0.25, vec![(1, -4.0), (3, 8.0)]),
        ];
        let mut scratch = SelectionScratch::new();
        let r = aggregate(&uploads, &[1, 3], 5, &mut scratch, true);
        // b_1 = 0.75*4 + 0.25*(-4) = 2.0 ; b_3 = 0.25*8 = 2.0 ; index 2 excluded.
        assert_eq!(r.aggregated.get(1), 2.0);
        assert_eq!(r.aggregated.get(3), 2.0);
        assert!(!r.aggregated.contains(2));
        assert_eq!(resets(&r, &uploads), [vec![1], vec![1, 3]]);
        assert!(r.selects(3) && !r.selects(2) && !r.selects(500));
    }

    #[test]
    fn aggregate_selected_with_no_uploads() {
        let mut scratch = SelectionScratch::new();
        let r = aggregate(&[], &[0, 1], 4, &mut scratch, true);
        assert_eq!(r.aggregated.nnz(), 2);
        assert_eq!(r.aggregated.get(0), 0.0);
        assert!(r.contributions(&[]).is_empty());
        assert_eq!(r.max_uplink_scalars(), 0);
    }

    #[test]
    fn aggregate_scratch_reuse_is_stateless() {
        let uploads = vec![ClientUpload::new(0, 1.0, vec![(0, 1.0), (2, 2.0)])];
        let mut scratch = SelectionScratch::new();
        let first = aggregate(&uploads, &[0, 2], 3, &mut scratch, true);
        let second = aggregate(&uploads, &[0, 2], 3, &mut scratch, true);
        assert_eq!(first, second);
        scratch.recycle(first);
        // A different selected set on the same scratch must not see stale
        // sums or marks.
        let r = aggregate(&uploads, &[1], 3, &mut scratch, true);
        assert_eq!(r.aggregated.get(1), 0.0);
        assert!(!r.aggregated.contains(0));
        assert_eq!(resets(&r, &uploads), [Vec::<usize>::new()]);
    }

    #[test]
    fn resets_keep_each_uploads_entry_order() {
        let uploads = vec![
            ClientUpload::new(0, 0.5, vec![(1, 1.0)]),
            ClientUpload::new(1, 0.25, vec![]),
            ClientUpload::new(2, 0.25, vec![(2, 1.0), (0, 1.0), (3, 1.0)]),
        ];
        let mut scratch = SelectionScratch::new();
        let r = aggregate(&uploads, &[0, 1, 2], 4, &mut scratch, true);
        assert_eq!(resets(&r, &uploads), [vec![1], vec![], vec![2, 0]]);
        assert_eq!(r.contributions(&uploads), vec![1, 0, 2]);
        assert_eq!(r.max_uplink_scalars(), 6);
    }

    #[test]
    #[should_panic(expected = "were accumulated")]
    fn selecting_uploads_that_were_not_accumulated_panics() {
        let uploads = vec![ClientUpload::new(0, 1.0, vec![(0, 1.0)])];
        let mut scratch = SelectionScratch::new();
        scratch.begin(4);
        let _ = crate::FabTopK::new().select_accumulated(&uploads, 4, 1, &mut scratch);
    }

    /// A selection zeroes the sums it read, so a second one from the same
    /// round would aggregate zeros: it must begin and accumulate again.
    #[test]
    #[should_panic(expected = "None were accumulated")]
    fn selecting_twice_from_one_accumulation_panics() {
        let uploads = vec![ClientUpload::new(0, 1.0, vec![(0, 1.0)])];
        let mut scratch = SelectionScratch::new();
        let fab = crate::FabTopK::new();
        let _ = fab.select_into(&uploads, 4, 1, &mut scratch);
        let _ = fab.select_accumulated(&uploads, 4, 1, &mut scratch);
    }
}
