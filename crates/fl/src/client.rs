//! A federated client: its persistent [`ClientState`] — the residual
//! accumulator, private stream and mini-batch sampler — plus the
//! round-transient batch rows and scratch.
//!
//! A client holds no gradient: its local step lands the model's gradient
//! straight in the residual accumulator
//! ([`Client::compute_local_gradient`]).

use agsfl_ml::data::{ClientShard, MinibatchSampler, ShardSource};
use agsfl_ml::model::Model;
use agsfl_sparse::{topk, ResidualAccumulator, SelectionResult, UploadPlan};
use agsfl_wire::{decode_frame_with, Codec, WireScratch};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The part of a client that outlives a round, and all of it: the private
/// RNG stream, the residual accumulator `a_i` (the error-feedback memory of
/// Algorithm 1), the mini-batch sampler's epoch, and the estimator's
/// bookkeeping. It is what one checkpoint row holds, and the whole of what
/// the population stores per client id: hydration swaps it into a cohort
/// slot's [`Client`] and dehydration swaps it back.
#[derive(Debug, Clone)]
pub(crate) struct ClientState {
    pub rng: ChaCha8Rng,
    pub residual: ResidualAccumulator,
    pub sampler: MinibatchSampler,
    /// Indices (into the shard) of the most recent mini-batch, used by the
    /// derivative-sign estimator to re-evaluate a single sample's loss.
    pub last_batch: Vec<usize>,
    /// The sample within `last_batch` chosen for the estimator this round.
    pub probe_sample: Option<usize>,
}

impl ClientState {
    /// An empty state with room for a `dim`-residual and a `shard_len`
    /// sampler order — what [`ClientState::reset`] then fills without
    /// allocating — and a placeholder stream.
    pub fn with_capacity(dim: usize, shard_len: usize, batch_size: usize) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(0),
            residual: Vec::with_capacity(dim).into(),
            sampler: MinibatchSampler::from_epoch(Vec::with_capacity(shard_len), 0, batch_size),
            last_batch: Vec::new(),
            probe_sample: None,
        }
    }

    /// Resets to the pristine state of a client that has never
    /// participated: a fresh RNG at `seed`, a zero residual of dimension
    /// `dim`, an identity sampler epoch over `shard_len` samples, and no
    /// estimator bookkeeping. Allocation-free once the buffers have grown.
    pub fn reset(&mut self, seed: u64, dim: usize, shard_len: usize) {
        self.rng = ChaCha8Rng::seed_from_u64(seed);
        self.residual.reset_to_dim(dim);
        self.sampler.reset_identity(shard_len);
        self.last_batch.clear();
        self.probe_sample = None;
    }
}

/// One federated client of Algorithm 1.
///
/// The client owns its persistent state (`ClientState`) — a mini-batch
/// sampler over its shard's sample indices, its residual accumulator `a_i`
/// and a private RNG (so the simulation is deterministic regardless of the
/// order in which clients are processed, including when gradient
/// computation is parallelized across threads). Its data stays in a
/// [`ShardSource`] as client `id`: a gradient step draws the batch indices
/// first and then fetches just those rows into a reused batch buffer, so a
/// client never holds its whole shard.
#[derive(Debug, Clone)]
pub struct Client {
    id: usize,
    weight: f64,
    /// The persistent state; everything below it is round-transient.
    pub(crate) state: ClientState,
    /// The rows the client last fetched from its source: the mini-batch
    /// `last_batch` names, or — for a member that sat a round out — just
    /// its stale probe sample.
    batch: ClientShard,
    /// The row of `batch` holding the probe sample.
    probe_row: usize,
    /// Reused order-key buffer (see `agsfl_sparse::topk`). A `TopKOwn`
    /// build leaves the upload's keys here in index order — the selection's
    /// own, or on a byte-priced round the decoded values' — for
    /// [`Client::rank_upload_into`], whose radix passes ping-pong between
    /// it and the ranked view, so it holds about `k` keys, not `2k`. So
    /// building the uplink message allocates nothing after the first
    /// round.
    topk_scratch: Vec<u64>,
    /// Reused wire-encoding workspace; byte-priced rounds encode the uplink
    /// message here without per-round allocation beyond the emitted frame.
    wire_scratch: WireScratch,
}

impl Client {
    /// Creates client `id` of a [`ShardSource`] whose shard holds
    /// `shard_len` samples.
    ///
    /// `weight` is the aggregation weight `C_i / C`; `dim` the model
    /// dimension; `seed` the client's private RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `shard_len == 0` or `batch_size == 0`.
    pub fn new(
        id: usize,
        shard_len: usize,
        weight: f64,
        dim: usize,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        assert!(shard_len > 0, "client {id} has no local data");
        let mut client = Self::placeholder(dim, batch_size);
        client.bind(id, weight);
        client.state.reset(seed, dim, shard_len);
        client
    }

    /// Creates an unbound cohort slot: no samples, zero weight, and an
    /// empty state with room for a `dim`-residual. The cohort engine binds
    /// a real client onto the slot each round ([`Client::bind`], then either
    /// a population swap or [`ClientState::reset`]); a placeholder never
    /// computes a gradient on its own.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub(crate) fn placeholder(dim: usize, batch_size: usize) -> Self {
        Self {
            id: usize::MAX,
            weight: 0.0,
            state: ClientState::with_capacity(dim, 0, batch_size),
            batch: ClientShard::empty(0),
            probe_row: 0,
            topk_scratch: Vec::new(),
            wire_scratch: WireScratch::new(),
        }
    }

    /// Rebinds this slot to client `id` with aggregation weight `weight`
    /// (cohort hydration; the persistent state is installed separately).
    pub(crate) fn bind(&mut self, id: usize, weight: f64) {
        self.id = id;
        self.weight = weight;
    }

    /// Client identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Aggregation weight `C_i / C`.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Borrows the residual accumulator `a_i`.
    pub fn accumulator(&self) -> &ResidualAccumulator {
        &self.state.residual
    }

    /// Computes the local mini-batch gradient at `params`, adds it to the
    /// accumulator (Line 4 of Algorithm 1) and returns the mini-batch loss.
    ///
    /// Draws the batch indices first, then fetches only those rows of this
    /// client's shard from `source` into the reused batch buffer. The
    /// gradient lands in the residual:
    /// [`Model::loss_and_accumulate_into`] gets the accumulator's slice
    /// (lent by [`ResidualAccumulator::add_with`], which checks its
    /// dimension), so computing and adding are one step, and a model that
    /// folds its products into the residual never materializes the
    /// gradient. Also draws the round's probe sample for the
    /// derivative-sign estimator. The client allocates nothing once its
    /// buffers have grown.
    pub fn compute_local_gradient(
        &mut self,
        source: &dyn ShardSource,
        model: &dyn Model,
        params: &[f32],
    ) -> f32 {
        let state = &mut self.state;
        state
            .sampler
            .next_indices_into(&mut state.rng, &mut state.last_batch);
        source.materialize_rows_into(self.id, &state.last_batch, &mut self.batch);
        let (features, labels) = (&self.batch.features, &self.batch.labels);
        let loss = state.residual.add_with(model.num_params(), |residual| {
            model.loss_and_accumulate_into(params, features, labels, residual)
        });
        self.probe_row = state.rng.gen_range(0..state.last_batch.len());
        state.probe_sample = Some(state.last_batch[self.probe_row]);
        loss
    }

    /// Fetches the probe sample of the client's last online round, for a
    /// member that computes nothing this round but whose stale sample the
    /// probe still evaluates: one row from `source`, no stream advanced.
    /// A client that has never computed a gradient fetches nothing.
    pub(crate) fn fetch_probe_sample(&mut self, source: &dyn ShardSource) {
        if let Some(sample) = self.state.probe_sample {
            source.materialize_rows_into(self.id, &[sample], &mut self.batch);
            self.probe_row = 0;
        }
    }

    /// Builds the uplink message for the current round according to the
    /// sparsifier's [`UploadPlan`], writing the entries into a caller-owned
    /// buffer, in index order for every plan — what a codec encodes and
    /// what the server's sweep and the resets stream through (`Coordinates`
    /// is sorted at plan time). A `TopKOwn` build is the index-ordered
    /// top-k selection, and it leaves the entries' order keys in the
    /// client's key buffer for [`Client::rank_upload_into`]. Top-k
    /// extraction reuses that buffer, so nothing is allocated after the
    /// first round.
    pub(crate) fn build_upload_into(
        &mut self,
        plan: &UploadPlan,
        k: usize,
        out: &mut Vec<(usize, f32)>,
    ) {
        match plan {
            UploadPlan::TopKOwn => {
                self.state
                    .residual
                    .top_k_entries_indexed_into(k, &mut self.topk_scratch, out)
            }
            UploadPlan::Coordinates(coords) => self.state.residual.entries_at_into(coords, out),
            UploadPlan::Dense => self.state.residual.dense_entries_into(out),
        }
    }

    /// Writes the upload's ranked key view into `ranked` (cleared first):
    /// when the plan ranks, one rank — the magnitude passes — of the
    /// index-ordered keys the last `TopKOwn` build or wired decode left in
    /// the client's key buffer; otherwise nothing, since only FAB's scan
    /// and the probe's prefix pricing read the view.
    pub(crate) fn rank_upload_into(&mut self, rank: bool, ranked: &mut Vec<u64>) {
        if rank {
            topk::rank_index_ordered_keys_into(&mut self.topk_scratch, ranked);
        } else {
            ranked.clear();
        }
    }

    /// Encodes an uplink message into `frame` (cleared first) — the bytes
    /// that would actually cross the client's uplink. `entries` must be in
    /// index order, which [`Client::build_upload_into`] emits for every
    /// plan (the codecs debug-assert it): nothing sorts between selection
    /// and encode.
    pub(crate) fn encode_upload_into(
        &mut self,
        codec: Codec,
        dim: usize,
        entries: &[(usize, f32)],
        frame: &mut Vec<u8>,
    ) {
        frame.clear();
        frame.extend_from_slice(codec.encode_into(dim, entries, &mut self.wire_scratch));
    }

    /// Finishes a wired upload from the frame [`Client::encode_upload_into`]
    /// just wrote: decodes it exactly once, writing each decoded `v̂` back
    /// over `entries` in place (a frame carries them in the same index
    /// order), so that `entries` becomes what the server aggregates, bit
    /// for bit (decode is a pure function of the frame). When the codec
    /// changed an entry — `v != v̂`, which only a lossy tier does — `errors`
    /// (cleared first) holds every entry's quantization error `v − v̂`, zero
    /// where the codec was exact, for the residual reset
    /// ([`Client::reset_selected`]); otherwise it stays empty.
    /// When `rank`, the visitor also repacks the client's key buffer with
    /// the decoded values' order keys, for [`Client::rank_upload_into`].
    pub(crate) fn decode_upload_into(
        &mut self,
        frame: &[u8],
        rank: bool,
        entries: &mut [(usize, f32)],
        errors: &mut Vec<f32>,
    ) {
        #[cfg(any(test, debug_assertions))]
        let sent = entries.to_vec();
        errors.clear();
        let keys = &mut self.topk_scratch;
        keys.clear();
        let (mut at, mut changed) = (0usize, false);
        let (_, _codec) = decode_frame_with(frame, |j, decoded| {
            let (_, value) = entries[at];
            let exact = value == decoded;
            errors.push(if exact { 0.0 } else { value - decoded });
            changed |= !exact;
            if rank {
                // The ranked plan's selection asserted the dimension fits
                // the key's 32-bit index field.
                keys.push(topk::order_key(j as u32, decoded));
            }
            entries[at].1 = decoded;
            at += 1;
        })
        .expect("a frame this client just encoded must decode");
        if !changed {
            errors.clear();
        }
        // The one-pass decode against the recipe it replaced: decode into
        // an index-ordered list (on a lossless codec, the list that was
        // encoded), and pack its keys when the plan ranks.
        #[cfg(any(test, debug_assertions))]
        {
            let bits = |list: &[(usize, f32)]| -> Vec<(usize, u32)> {
                list.iter().map(|&(j, v)| (j, v.to_bits())).collect()
            };
            let mut expected = Vec::new();
            agsfl_wire::decode_frame(frame, &mut expected).expect("self-encoded frame must decode");
            if !_codec.is_lossy() {
                assert_eq!(
                    bits(&expected),
                    bits(&sent),
                    "lossless decode must be exact"
                );
            }
            assert_eq!(
                bits(entries),
                bits(&expected),
                "the decoder's visitor must equal decode_frame"
            );
            if rank {
                let expected_keys: Vec<u64> = expected
                    .iter()
                    .map(|&(j, v)| topk::order_key(j as u32, v))
                    .collect();
                assert_eq!(
                    *keys, expected_keys,
                    "the visitor must pack the decoded keys"
                );
            }
        }
    }

    /// Resets the accumulator coordinates the server actually used
    /// (Lines 16–17 of Algorithm 1): the client derives `J ∩ J_i` from the
    /// round's `J` and `sent`, the upload it delivered, in one walk of its
    /// entries ([`ResidualAccumulator::reset_selected`]), seeding each reset
    /// coordinate with its quantization error instead of zero — the lossy
    /// tier's error feedback; `errors` is empty on a lossless round, else
    /// one per sent entry. Returns `|J ∩ J_i|`, the client's contribution.
    pub fn reset_selected(
        &mut self,
        sent: &[(usize, f32)],
        selection: &SelectionResult,
        errors: &[f32],
    ) -> usize {
        self.state.residual.reset_selected(sent, selection, errors)
    }

    /// Capacity of the client's encode workspace, for the engine's
    /// grow-only capacity test.
    #[cfg(test)]
    pub(crate) fn wire_frame_capacity(&self) -> usize {
        self.wire_scratch.frame_capacity()
    }

    /// Loss of the round's probe sample at several weight vectors — the
    /// single-sample losses `f_{i,h}(·)` of the derivative-sign estimator
    /// (Section IV-E of the paper). The sample is read once from the batch
    /// buffer — where [`Client::compute_local_gradient`] left it, or the
    /// round engine's one-row fetch for a member that sat the round out —
    /// and evaluated per vector;
    /// the estimator needs up to three losses per client per probe round
    /// (`w(m-1)`, `w(m)`, `w'(m)`).
    ///
    /// Returns `None` if no gradient has been computed yet this run.
    pub fn probe_losses<const M: usize>(
        &self,
        model: &dyn Model,
        params: [&[f32]; M],
    ) -> Option<[f32; M]> {
        self.state.probe_sample?;
        let (features, label) = self.batch.sample(self.probe_row);
        Some(params.map(|w| model.sample_loss(w, features, label)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agsfl_ml::data::FederatedDataset;
    use agsfl_ml::model::Mlp;
    use agsfl_sparse::{ClientUpload, FabTopK, Sparsifier};
    use agsfl_tensor::Matrix;

    fn shard(n: usize, dim: usize, classes: usize) -> ClientShard {
        ClientShard::new(
            Matrix::from_fn(n, dim, |i, j| ((i * 3 + j) % 5) as f32 * 0.2 - 0.4),
            (0..n).map(|i| i % classes).collect(),
        )
    }

    /// A one-client source over `shard(n, 4, 3)`: client 0's data.
    fn source(n: usize) -> FederatedDataset {
        FederatedDataset::new(vec![shard(n, 4, 3)], shard(3, 4, 3), 3)
    }

    fn client_and_model() -> (Client, Mlp, Vec<f32>, FederatedDataset) {
        let model = Mlp::new(4, &[], 3);
        let client = Client::new(0, 12, 0.5, model.num_params(), 4, 42);
        let params = vec![0.01; model.num_params()];
        (client, model, params, source(12))
    }

    #[test]
    fn gradient_accumulates_in_residual() {
        let (mut client, model, params, data) = client_and_model();
        assert_eq!(client.accumulator().residual_l1(), 0.0);
        let loss = client.compute_local_gradient(&data, &model, &params);
        assert!(loss > 0.0);
        assert!(client.accumulator().residual_l1() > 0.0);
    }

    #[test]
    fn upload_plans_produce_expected_shapes() {
        let (mut client, model, params, data) = client_and_model();
        client.compute_local_gradient(&data, &model, &params);
        let (mut out, mut ranked) = (Vec::new(), Vec::new());
        client.build_upload_into(&UploadPlan::TopKOwn, 3, &mut out);
        // The top three in index order, and their ranking as keys.
        assert_eq!(out.len(), 3);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        let mut expected = client.accumulator().top_k_entries(3);
        client.rank_upload_into(true, &mut ranked);
        let view: Vec<(usize, f32)> = ranked.iter().map(|&key| topk::key_entry(key)).collect();
        assert_eq!(view, expected);
        expected.sort_unstable_by_key(|&(j, _)| j);
        assert_eq!(out, expected);
        client.build_upload_into(&UploadPlan::Coordinates(vec![0, 5]), 3, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 0);
        client.rank_upload_into(false, &mut ranked);
        assert!(ranked.is_empty());
        client.build_upload_into(&UploadPlan::Dense, 3, &mut out);
        assert_eq!(out.len(), model.num_params());
    }

    /// The one wired path over every codec and both plan shapes: after the
    /// encode and the single decode, the entries are the frame's decode bit
    /// for bit, the ranked view (when the plan ranks) is their magnitude
    /// rank, the errors are exactly what the codec changed, and a
    /// second call into the dirty buffers gives the same bits.
    #[test]
    fn wired_upload_equals_its_decoded_frame() {
        use agsfl_sparse::topk::rank_by_magnitude;
        use agsfl_wire::{decode_frame, CodecSpec};
        let bits = |list: &[(usize, f32)]| -> Vec<(usize, u32)> {
            list.iter().map(|&(j, v)| (j, v.to_bits())).collect()
        };
        let (mut client, model, params, data) = client_and_model();
        for _ in 0..3 {
            client.compute_local_gradient(&data, &model, &params);
        }
        let dim = model.num_params();
        let plans = [
            UploadPlan::TopKOwn,
            UploadPlan::Coordinates(vec![0, 3, 5, 9, 14]),
        ];
        let mut lossy_changed = false;
        for spec in CodecSpec::all().into_iter().chain(CodecSpec::lossy()) {
            let codec = spec.build_seeded(5);
            for plan in &plans {
                let rank = matches!(plan, UploadPlan::TopKOwn);
                let (mut entries, mut frame, mut errors) = (Vec::new(), Vec::new(), Vec::new());
                let mut ranked = vec![7];
                let mut first = None;
                for _ in 0..2 {
                    client.build_upload_into(plan, 6, &mut entries);
                    let sent = entries.clone();
                    client.encode_upload_into(codec, dim, &entries, &mut frame);
                    client.decode_upload_into(&frame, rank, &mut entries, &mut errors);
                    client.rank_upload_into(rank, &mut ranked);

                    let mut expected = Vec::new();
                    decode_frame(&frame, &mut expected).unwrap();
                    let mut changed: Vec<f32> = sent
                        .iter()
                        .zip(&expected)
                        .map(|(s, d)| if s.1 != d.1 { s.1 - d.1 } else { 0.0 })
                        .collect();
                    if sent.iter().zip(&expected).all(|(s, d)| s.1 == d.1) {
                        changed.clear();
                    }
                    let error_bits = |errors: &[f32]| -> Vec<u32> {
                        errors.iter().map(|e| e.to_bits()).collect()
                    };
                    assert_eq!(error_bits(&errors), error_bits(&changed), "{}", spec.name());
                    if spec.is_lossy() {
                        lossy_changed |= !errors.is_empty();
                    } else {
                        assert!(errors.is_empty(), "{}", spec.name());
                    }
                    assert_eq!(bits(&entries), bits(&expected), "{}", spec.name());
                    let view: Vec<(usize, f32)> =
                        ranked.iter().map(|&key| topk::key_entry(key)).collect();
                    if rank {
                        rank_by_magnitude(&mut expected, &mut Vec::new());
                        assert_eq!(bits(&view), bits(&expected), "{}", spec.name());
                    } else {
                        assert!(view.is_empty(), "{}", spec.name());
                    }
                    let call = (
                        bits(&entries),
                        error_bits(&errors),
                        frame.clone(),
                        ranked.clone(),
                    );
                    assert_eq!(*first.get_or_insert_with(|| call.clone()), call);
                }
            }
        }
        assert!(lossy_changed, "no lossy codec changed a value");
    }

    #[test]
    fn reset_clears_only_used_coordinates() {
        let (mut client, model, params, data) = client_and_model();
        client.compute_local_gradient(&data, &model, &params);
        let mut upload = Vec::new();
        client.build_upload_into(&UploadPlan::TopKOwn, 2, &mut upload);
        let dim = model.num_params();
        let sent = [ClientUpload::new(0, 1.0, upload.clone())];
        let selection = FabTopK::new().select(&sent, dim, 1);
        let before = client.accumulator().residual_l1();
        assert_eq!(client.reset_selected(&upload, &selection, &[]), 1);
        let after = client.accumulator().residual_l1();
        assert!(after < before);
        assert!(after > 0.0, "non-selected coordinates keep their residual");
    }

    #[test]
    fn probe_losses_available_after_gradient() {
        let (mut client, model, params, data) = client_and_model();
        assert!(client.probe_losses(&model, [&params[..]]).is_none());
        client.compute_local_gradient(&data, &model, &params);
        let [loss] = client.probe_losses(&model, [&params[..]]).unwrap();
        assert!(loss.is_finite() && loss > 0.0);
    }

    #[test]
    fn clients_with_same_seed_are_deterministic() {
        let model = Mlp::new(4, &[], 3);
        let params = vec![0.02; model.num_params()];
        let data = source(10);
        let mut a = Client::new(0, 10, 0.5, model.num_params(), 4, 9);
        let mut b = Client::new(0, 10, 0.5, model.num_params(), 4, 9);
        for _ in 0..3 {
            let la = a.compute_local_gradient(&data, &model, &params);
            let lb = b.compute_local_gradient(&data, &model, &params);
            assert_eq!(la, lb);
        }
        assert_eq!(a.accumulator().as_slice(), b.accumulator().as_slice());
    }

    #[test]
    fn hydrated_placeholder_matches_fresh_client() {
        let model = Mlp::new(4, &[], 3);
        let params = vec![0.02; model.num_params()];
        let data = source(10);
        let mut fresh = Client::new(0, 10, 0.5, model.num_params(), 4, 99);

        let mut slot = Client::placeholder(model.num_params(), 4);
        slot.bind(0, 0.5);
        slot.state.reset(99, model.num_params(), 10);

        for _ in 0..3 {
            let lf = fresh.compute_local_gradient(&data, &model, &params);
            let ls = slot.compute_local_gradient(&data, &model, &params);
            assert_eq!(lf.to_bits(), ls.to_bits());
        }
        assert_eq!(
            fresh.accumulator().as_slice(),
            slot.accumulator().as_slice()
        );

        // Dehydrate the slot's persistent state, rehydrate it into another
        // placeholder, and the gradient stream continues bit-identically.
        let mut parked = ClientState::with_capacity(0, 0, 1);
        std::mem::swap(&mut slot.state, &mut parked);
        let mut slot2 = Client::placeholder(model.num_params(), 4);
        slot2.bind(0, 0.5);
        std::mem::swap(&mut slot2.state, &mut parked);
        // Before it computes, the rehydrated slot holds no rows: fetching
        // its stale probe sample reads what the original batch read.
        let bits = |c: &Client| c.probe_losses(&model, [&params[..]]).map(|[l]| l.to_bits());
        slot2.fetch_probe_sample(&data);
        assert_eq!(bits(&slot2), bits(&fresh));
        assert!(bits(&fresh).is_some());
        let lf = fresh.compute_local_gradient(&data, &model, &params);
        let ls = slot2.compute_local_gradient(&data, &model, &params);
        assert_eq!(lf.to_bits(), ls.to_bits());
        assert_eq!(
            fresh.accumulator().as_slice(),
            slot2.accumulator().as_slice()
        );
    }

    #[test]
    #[should_panic]
    fn empty_shard_panics() {
        let _ = Client::new(0, 0, 0.1, 10, 4, 0);
    }

    #[test]
    fn state_roundtrip_resumes_gradient_stream() {
        use agsfl_wire::snapshot::{SnapshotReader, SnapshotWriter};

        let (mut a, model, params, data) = client_and_model();
        for _ in 0..3 {
            a.compute_local_gradient(&data, &model, &params);
        }
        // Serialize the client's persistent state as one checkpoint row.
        let mut w = SnapshotWriter::new();
        a.state.write(&mut w);
        let bytes = w.into_bytes();

        let (mut b, _, _, _) = client_and_model();
        let mut r = SnapshotReader::new(&bytes);
        b.state = ClientState::read(&mut r, model.num_params(), 12, 4).unwrap();
        r.finish().unwrap();
        assert_eq!(a.accumulator().as_slice(), b.accumulator().as_slice());
        for _ in 0..4 {
            let la = a.compute_local_gradient(&data, &model, &params);
            let lb = b.compute_local_gradient(&data, &model, &params);
            assert_eq!(la.to_bits(), lb.to_bits());
        }
        assert_eq!(a.accumulator().as_slice(), b.accumulator().as_slice());
        assert_eq!(
            a.probe_losses(&model, [&params[..]]).map(|[l]| l.to_bits()),
            b.probe_losses(&model, [&params[..]]).map(|[l]| l.to_bits())
        );
    }
}
