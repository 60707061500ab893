//! The synchronized sparse-gradient FL simulation (Algorithm 1).

use agsfl_exec::{Executor, Parallelism};
use agsfl_ml::data::{ClientShard, FederatedDataset, ShardSource};
use agsfl_ml::metrics::{global_evaluation, GlobalEvaluation};
use agsfl_ml::model::Model;
use agsfl_sparse::{
    ClientUpload, SelectionResult, SelectionScratch, SparseGradient, Sparsifier, UploadPlan,
};
use agsfl_telemetry::{stage, CounterId, GaugeId, NoopRecorder, Recorder, SpanId};
use agsfl_wire::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use agsfl_wire::{
    decode_frame, decode_frame_with, frame_codec, Auto, Codec, CodecSpec, Precision, WireScratch,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use std::time::Instant;

use crate::channel::ChannelModel;
use crate::fault::{
    corrupt_frame, ClientFaultPlan, FaultConfigError, FaultModel, FaultRoundReport, FaultState,
};
use crate::population::{draw_cohort, ClientPopulation, Slot};
use crate::round::{ProbeReport, RoundReport, WireRoundReport};
use crate::time::TimeModel;

/// Byte-priced exchange configuration: which wire codec carries the
/// messages and what channel each client sits behind.
///
/// When [`SimulationConfig::wire`] is set, every round actually encodes the
/// uplink/downlink messages (`agsfl_wire`), the server aggregates each
/// frame's decode, and the reported `round_time` is the [`ChannelModel`] price
/// of the emitted frames instead of the scalar-proxy
/// [`TimeModel`](crate::TimeModel) time. With a lossless codec the
/// trajectory is bit-identical to the un-wired run — the codecs round-trip
/// bit-exactly and the rank order of top-k uploads is a total order of the
/// values — so only the cost signal the controllers see changes.
///
/// A *lossy* uplink tier ([`agsfl_wire::CodecSpec::is_lossy`], or a
/// [`Precision`] override via [`Simulation::set_wire_precision`]) trades
/// that bit-identity-with-lossless for bytes: the server aggregates the
/// quantized reconstruction, and each client feeds its per-entry
/// quantization error back into its residual accumulator in the same fused
/// pass that handles sparsification residuals. What the lossy tier keeps is
/// **reproducibility** — quantization draws from its own seeded stream
/// keyed only on `(quantization seed, frame content)`, so a lossy run is
/// bit-identical to itself across 1–8 workers and across
/// checkpoint/resume. The downlink broadcast always stays lossless (the
/// server holds no residual to absorb a downlink error).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireConfig {
    /// The wire codec (use [`agsfl_wire::CodecSpec::Auto`] for per-message
    /// size-optimal encoding).
    pub codec: agsfl_wire::CodecSpec,
    /// Per-client channel conditions.
    pub channel: ChannelModel,
}

/// Static configuration of a [`Simulation`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// SGD step size `η`. The paper uses 0.01.
    pub learning_rate: f32,
    /// Mini-batch size per client per round. The paper uses 32.
    pub batch_size: usize,
    /// Normalized time model (the paper's "scalars transmitted" proxy).
    pub time_model: TimeModel,
    /// Master seed; client RNGs and the server RNG are derived from it.
    pub seed: u64,
    /// Worker-thread policy for the round engine (client pass, server
    /// selection, probe evaluation). Results are bit-identical for every
    /// setting — parallelism only changes wall-clock time.
    pub parallelism: Parallelism,
    /// Optional byte-priced exchange: encode messages through a wire codec
    /// and price rounds on a per-client [`ChannelModel`] instead of the
    /// scalar proxy.
    pub wire: Option<WireConfig>,
    /// Optional deterministic fault injection: per-client upload dropout,
    /// multi-round crash outages, straggler slowdowns, a round deadline,
    /// and wire-frame corruption with bounded retry. Faults degrade rounds
    /// gracefully — the server aggregates over the surviving cohort and
    /// error feedback absorbs lost updates — and a model with every rate at
    /// zero is bit-identical to `None` (pinned by tests).
    pub fault: Option<FaultModel>,
    /// Optional cohort size: each round a seeded sample of this many
    /// clients participates instead of the whole population (partial
    /// participation, the standard million-client FL setting). Cohorts are
    /// drawn without replacement from a dedicated ChaCha8 stream, serially
    /// before any parallel work. `None` — or any value at least the
    /// population size — runs every client and never touches the cohort
    /// stream, so `Some(N)` is bit-identical to `None`.
    pub cohort: Option<usize>,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.01,
            batch_size: 32,
            time_model: TimeModel::default(),
            seed: 0,
            parallelism: Parallelism::Auto,
            wire: None,
            fault: None,
            cohort: None,
        }
    }
}

impl SimulationConfig {
    /// Validates the configuration before a run starts, returning a typed
    /// error instead of panicking mid-round. Today this covers the fault
    /// model (out-of-range probabilities, non-positive deadlines, oversized
    /// retry limits, and byte-level faults configured without a wire to act
    /// on); the remaining fields are structurally valid by construction.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        if let Some(fault) = &self.fault {
            fault.validate(self.wire.is_some())?;
        }
        Ok(())
    }
}

/// Runtime state of the byte-priced exchange path: the built codecs, the
/// channel, and the server-side encode workspace (downlink frames and
/// hypothetical-`k'` probe pricing reuse it across rounds).
struct WireState {
    /// The configured codec spec; the baseline the precision axis rebuilds
    /// from.
    spec: CodecSpec,
    /// Seed of the quantization RNG stream, derived from the config seed.
    /// Lossy codecs key their stochastic rounding on `(quant_seed, frame
    /// content)` only, so the stream survives any worker schedule and any
    /// checkpoint/resume point.
    quant_seed: u64,
    /// The controller's current precision override (`None` = run the
    /// configured spec). Not checkpointed: the runner re-proposes it from
    /// the restored controller state before the next round.
    precision: Option<Precision>,
    /// The uplink codec currently in force.
    codec: Box<dyn Codec>,
    /// The downlink codec — always lossless: the server holds no residual
    /// accumulator, so a downlink quantization error would be lost forever
    /// rather than fed back.
    downlink: Box<dyn Codec>,
    channel: ChannelModel,
    /// The links a broadcast must be priced over
    /// ([`ChannelModel::downlink_frontier`]), built on the first priced
    /// round — not at construction, which stays O(1) in the population —
    /// so later rounds stop sweeping all `N` links. Derived from `channel`
    /// alone, hence runtime state rather than configuration.
    downlink_frontier: OnceLock<Option<Vec<usize>>>,
    scratch: WireScratch,
}

impl WireState {
    fn new(spec: CodecSpec, quant_seed: u64, channel: ChannelModel) -> Self {
        let downlink: Box<dyn Codec> = if spec.is_lossy() {
            Box::new(Auto)
        } else {
            spec.build()
        };
        Self {
            spec,
            quant_seed,
            precision: None,
            codec: spec.build_seeded(quant_seed),
            downlink,
            channel,
            downlink_frontier: OnceLock::new(),
            scratch: WireScratch::new(),
        }
    }

    /// [`ChannelModel::downlink_phase_time`] of this state's channel, bit
    /// for bit, priced over the frontier links only when the channel has no
    /// trace.
    fn downlink_phase_time(&self, round_idx: usize, downlink_bytes: usize) -> f64 {
        let frontier = self
            .downlink_frontier
            .get_or_init(|| self.channel.downlink_frontier());
        match frontier {
            Some(links) => self.channel.downlink_phase_time_over(
                round_idx,
                links.iter().copied(),
                downlink_bytes,
            ),
            None => self.channel.downlink_phase_time(round_idx, downlink_bytes),
        }
    }

    /// Installs a precision override for subsequent rounds: `None` restores
    /// the configured spec, [`Precision::F32`] pins a lossless uplink (the
    /// configured spec when it is lossless, [`Auto`] otherwise), and the
    /// lossy tiers swap in their codec seeded from the same quantization
    /// stream. Idempotent — re-proposing the current tier rebuilds nothing.
    fn set_precision(&mut self, precision: Option<Precision>) {
        if precision == self.precision {
            return;
        }
        self.precision = precision;
        let spec = match precision {
            None => self.spec,
            Some(Precision::F32) if !self.spec.is_lossy() => self.spec,
            Some(p) => p.codec_spec(),
        };
        self.codec = spec.build_seeded(self.quant_seed);
    }
    /// The channel-priced time a round with sparsity `k'` would have taken:
    /// each client's hypothetical uplink is the `k'`-element prefix of the
    /// message it actually built this round — for top-k plans the first
    /// `k'` keys of its ranked view, exactly its top-`k'` message — priced
    /// at its exact encoded length; the downlink is the probe aggregate.
    ///
    /// A member whose whole upload is the prefix is priced at
    /// `sent_bytes(upload position)`, the length of the frame it actually
    /// sent: every codec's `encoded_len` is a function of the dimension, the
    /// entry count and the index gaps only, all of which the decoded upload
    /// shares with its frame. Proper prefixes are measured without being
    /// encoded (`WireScratch::encoded_len_prefix`: a ranked prefix is
    /// unpacked and index-sorted through the server's packed `keys`).
    ///
    /// Uploads are addressed by their carried client id (not their slot), so
    /// the pricing also holds under fault injection when only a surviving
    /// subset of clients delivered this round; for a full cohort the result
    /// is bit-identical to pricing the complete byte vector.
    fn probe_round_time(
        &mut self,
        round_idx: usize,
        probe_k: usize,
        uploads: &[ClientUpload],
        sent_bytes: impl Fn(usize) -> usize,
        probe_aggregate: &SparseGradient,
        keys: &mut Vec<u64>,
    ) -> f64 {
        let dim = probe_aggregate.dim();
        let mut uplink_phase = 0.0f64;
        for (pos, upload) in uploads.iter().enumerate() {
            let codec = self.codec.as_ref();
            let bytes = if probe_k < upload.len() {
                self.scratch
                    .encoded_len_prefix(codec, dim, upload, probe_k, keys)
            } else {
                debug_assert_eq!(
                    sent_bytes(pos),
                    codec.encoded_len(dim, &upload.entries),
                    "a frame is as long as the pricing of what it decodes to"
                );
                sent_bytes(pos)
            };
            uplink_phase =
                uplink_phase.max(self.channel.uplink_time(round_idx, upload.client, bytes));
        }
        let downlink_bytes = self.downlink.encoded_len_gradient(probe_aggregate);
        self.channel.compute_time()
            + uplink_phase
            + self.downlink_phase_time(round_idx, downlink_bytes)
    }
}

/// A synchronized federated-learning run using sparse gradient aggregation.
///
/// The simulation owns the model architecture, a [`ShardSource`] describing
/// the client population, the persistent per-client state in a
/// struct-of-arrays `ClientPopulation`, a small arena of reusable cohort
/// `Slot`s, and a single global weight vector. Keeping one weight vector
/// is sound because every client applies exactly the same downlink update
/// (the paper's synchronization argument for Algorithm 1); an integration
/// test in `tests/` additionally verifies this by replaying updates on
/// independent per-client copies.
///
/// Each round hydrates the sampled cohort into the slot arena, runs the
/// fused gradient/upload pass over the slots, lends each surviving member's
/// finished entry list and ranked key view to the upload arena the server
/// aggregates from (bookkeeping takes them back, so each buffer has one
/// owner, its slot), and dehydrates the persistent state back into the
/// population — so resident memory is `O(cohort + touched_clients · dim)`
/// rather than `O(N)`, and the round's buffers are reused: what a
/// steady-state round still allocates is its per-round output — the
/// selection's aggregate entries, flat reset list and offsets, and the
/// round report.
pub struct Simulation {
    model: Box<dyn Model>,
    source: Box<dyn ShardSource>,
    sparsifier: Box<dyn Sparsifier>,
    config: SimulationConfig,
    /// Persistent per-client state (RNG stream, residual, sampler epoch,
    /// probe bookkeeping), stored only for clients that have participated.
    population: ClientPopulation,
    /// The reusable cohort arena: one slot per cohort member, rebound to
    /// this round's sample and reused across rounds.
    slots: Vec<Slot>,
    /// Persistent aggregation inputs: the first `survivors` entries are
    /// rebuilt each round, each borrowing its member's finished entry list
    /// and ranked view by a swap with the member's slot, which bookkeeping
    /// swaps back. Between rounds every upload holds empty buffers.
    uploads: Vec<ClientUpload>,
    params: Vec<f32>,
    server_rng: ChaCha8Rng,
    /// Dedicated stream for cohort draws; untouched on full-population
    /// rounds so sampling is opt-in without perturbing any other stream.
    cohort_rng: ChaCha8Rng,
    /// This round's sampled client ids, ascending (reused buffer).
    cohort: Vec<usize>,
    /// Slot indices of the members whose uploads reached the server
    /// (reused buffer, rebuilt each round).
    survivors: Vec<usize>,
    /// Reusable server-side selection workspace; buffers are sized on the
    /// first round and reused (including by the probe's restriction to
    /// `J(k')`), so a steady-state selection allocates only the result it
    /// returns (aggregate entries, flat reset list, offsets). Grow-only,
    /// like every workspace of the round.
    scratch: SelectionScratch,
    /// Reused order keys for index-sorting the ranked prefixes the probe
    /// prices (`WireScratch::encoded_len_prefix`).
    rank_keys: Vec<u64>,
    /// The probe's hypothetical weight vectors — `w(m)` after the round's
    /// own update and `w'(m)` after the `k'`-element one — refilled from
    /// `params` each probing round; empty until the first probe (and
    /// `w_probe` until the first probe whose aggregate is not the round's).
    w_now: Vec<f32>,
    w_probe: Vec<f32>,
    /// The round engine's executor, built once from the configured
    /// [`Parallelism`] and reused by every parallel region.
    executor: Executor,
    /// Byte-priced exchange state, present when the config carries a
    /// [`WireConfig`].
    wire: Option<WireState>,
    /// Fault injector state, present when the config carries a
    /// [`FaultModel`]. Owns its own RNG stream, so its presence never
    /// perturbs the data, client, or server streams.
    fault: Option<FaultState>,
    round: usize,
    elapsed: f64,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("sparsifier", &self.sparsifier.name())
            .field("num_clients", &self.source.num_clients())
            .field("cohort_slots", &self.slots.len())
            .field("dim", &self.params.len())
            .field("round", &self.round)
            .field("elapsed", &self.elapsed)
            .finish()
    }
}

impl Simulation {
    /// Creates a simulation over a fully materialized dataset (the eager
    /// [`ShardSource`]).
    pub fn new(
        model: Box<dyn Model>,
        dataset: FederatedDataset,
        sparsifier: Box<dyn Sparsifier>,
        config: SimulationConfig,
    ) -> Self {
        Self::with_source(model, Box::new(dataset), sparsifier, config)
    }

    /// Creates a simulation over any [`ShardSource`] — eager datasets and
    /// lazily materialized million-client populations alike. A round only
    /// ever fetches its cohort's mini-batch rows, so over a lazy source no
    /// shard is ever resident.
    pub fn with_source(
        model: Box<dyn Model>,
        source: Box<dyn ShardSource>,
        sparsifier: Box<dyn Sparsifier>,
        config: SimulationConfig,
    ) -> Self {
        if let Err(error) = config.validate() {
            panic!("invalid simulation config: {error}");
        }
        assert!(
            config.cohort != Some(0),
            "invalid simulation config: cohort size must be positive"
        );
        assert_eq!(
            model.input_dim(),
            source.feature_dim(),
            "model input dimension {} does not match dataset feature dimension {}",
            model.input_dim(),
            source.feature_dim()
        );
        assert!(
            model.num_classes() >= source.num_classes(),
            "model has fewer classes than the dataset"
        );
        let num_clients = source.num_clients();
        assert!(num_clients > 0, "population must not be empty");
        let mut init_rng = ChaCha8Rng::seed_from_u64(config.seed);
        let params = model.init_params(&mut init_rng);
        let dim = params.len();
        let slot_count = config.cohort.map_or(num_clients, |c| c.min(num_clients));
        let slots = (0..slot_count)
            .map(|_| Slot::new(dim, config.batch_size))
            .collect();
        let wire = config.wire.as_ref().map(|w| {
            assert_eq!(
                w.channel.num_clients(),
                num_clients,
                "channel model covers {} clients but the dataset has {}",
                w.channel.num_clients(),
                num_clients
            );
            WireState::new(w.codec, config.seed ^ QUANT_STREAM, w.channel.clone())
        });
        let executor = config.parallelism.build();
        let server_rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0xABCD_EF01);
        let cohort_rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x5EED_C0C0_4071_0001);
        let fault = config
            .fault
            .clone()
            .map(|m| FaultState::new(m, num_clients));
        Self {
            model,
            source,
            sparsifier,
            config,
            population: ClientPopulation::new(),
            slots,
            uploads: Vec::new(),
            params,
            server_rng,
            cohort_rng,
            cohort: Vec::new(),
            survivors: Vec::new(),
            scratch: SelectionScratch::new(),
            rank_keys: Vec::new(),
            w_now: Vec::new(),
            w_probe: Vec::new(),
            executor,
            wire,
            fault,
            round: 0,
            elapsed: 0.0,
        }
    }

    /// Model dimension `D`.
    pub fn dim(&self) -> usize {
        self.params.len()
    }

    /// Number of clients `N`.
    pub fn num_clients(&self) -> usize {
        self.source.num_clients()
    }

    /// Number of cohort slots (the per-round participant count).
    pub fn cohort_size(&self) -> usize {
        self.slots.len()
    }

    /// Number of clients with persistent state resident in the population
    /// (participated online at least once) — the `touched_clients` factor
    /// of the memory bound, exposed for the scale sweep's audits.
    pub fn resident_clients(&self) -> usize {
        self.population.resident_rows()
    }

    /// Rounds completed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Cumulative normalized time consumed so far.
    pub fn elapsed_time(&self) -> f64 {
        self.elapsed
    }

    /// The current global weight vector.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// The model architecture.
    pub fn model(&self) -> &dyn Model {
        self.model.as_ref()
    }

    /// The sparsifier driving this run.
    pub fn sparsifier(&self) -> &dyn Sparsifier {
        self.sparsifier.as_ref()
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The round engine's executor. Exposed so telemetry owners can enable
    /// the worker pool's observation-only metrics
    /// ([`Executor::set_metrics_enabled`]) and snapshot them between
    /// rounds; the executor's scheduling is not otherwise configurable
    /// after construction.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The shard source driving this run.
    pub fn source(&self) -> &dyn ShardSource {
        self.source.as_ref()
    }

    /// Global training loss `L(w)` over all client data at the current
    /// weights: the evaluation sweep restricted to the client shards.
    pub fn global_train_loss(&self) -> f64 {
        self.sweep(true, false).train_loss as f64
    }

    /// Test-set accuracy at the current weights: the evaluation sweep
    /// restricted to the test set.
    pub fn test_accuracy(&self) -> f64 {
        self.sweep(false, true).test_accuracy as f64
    }

    /// Everything an evaluation point reports — global train loss, global
    /// train accuracy and test accuracy — from **one** fused parallel sweep
    /// over one work list, so an `eval_every` point spawns a single worker
    /// region and forwards every client shard exactly once. Over a lazy
    /// source the train metrics stream shard-by-shard instead, both from
    /// one pass that materializes every shard once.
    ///
    /// Bit-identical to the serial oracles in `agsfl_ml::metrics` at every
    /// worker count, eager or lazy.
    pub fn evaluate(&self) -> GlobalEvaluation {
        self.evaluate_recorded(&mut NoopRecorder)
    }

    /// [`Simulation::evaluate`] with the sweep's wall time recorded as a
    /// [`SpanId::Evaluate`] span. Telemetry is observation only — the
    /// metrics returned are bit-identical to [`Simulation::evaluate`]'s.
    pub fn evaluate_recorded<R: Recorder>(&self, rec: &mut R) -> GlobalEvaluation {
        stage(rec, SpanId::Evaluate, || self.sweep(true, true))
    }

    /// The one evaluation body: [`global_evaluation`] over the resident
    /// client shards (when `train`) and the test set (when `test`); a half
    /// that is left out reads `0.0`.
    ///
    /// A lazy source has no resident shards to put on the work list: its
    /// train metrics stream every shard through one reusable buffer —
    /// evaluation stays `O(shard)` resident even at a million clients —
    /// folding `metric * len` in shard order, which is exactly the serial
    /// association of `agsfl_ml::metrics::global_loss` / `global_accuracy`,
    /// so the lazy sweep is bit-identical to the eager one for a source
    /// that materializes the same shards.
    fn sweep(&self, train: bool, test: bool) -> GlobalEvaluation {
        let model = self.model.as_ref();
        let none = ClientShard::empty(self.source.feature_dim());
        let test_set = if test { self.source.test() } else { &none };
        let resident = self.source.as_dataset().map(FederatedDataset::clients);
        let shards = if train { resident.unwrap_or(&[]) } else { &[] };
        let mut eval = global_evaluation(model, &self.params, shards, test_set, &self.executor);
        let total = self.source.total_samples();
        if train && resident.is_none() && total > 0 {
            let mut shard = ClientShard::empty(self.source.feature_dim());
            let (mut loss, mut accuracy) = (0.0f64, 0.0f64);
            for id in 0..self.source.num_clients() {
                self.source.materialize_into(id, &mut shard);
                if shard.is_empty() {
                    continue;
                }
                let len = shard.len() as f64;
                loss += model.loss(&self.params, &shard.features, &shard.labels) as f64 * len;
                accuracy +=
                    model.accuracy(&self.params, &shard.features, &shard.labels) as f64 * len;
            }
            eval.train_loss = (loss / total as f64) as f32;
            eval.train_accuracy = (accuracy / total as f64) as f32;
        }
        eval
    }

    /// Installs an uplink precision tier for subsequent rounds — the
    /// precision half of the controllers' 2-D `(k × precision)` action
    /// space. `None` restores the configured codec; [`Precision::F32`]
    /// pins a lossless uplink; the lossy tiers swap in their codec seeded
    /// from the run's dedicated quantization stream, so any sequence of
    /// tier switches stays bit-reproducible across worker counts and
    /// checkpoint/resume. A no-op on a simulation without a wire config
    /// (the scalar-proxy path has no bytes to save).
    ///
    /// The override is deliberately not checkpointed: it is controller
    /// policy, not simulation state, and the runner re-proposes it from the
    /// restored controller before the next round.
    pub fn set_wire_precision(&mut self, precision: Option<Precision>) {
        if let Some(wire) = &mut self.wire {
            wire.set_precision(precision);
        }
    }

    /// Runs one round of Algorithm 1 with `k`-element sparsification.
    ///
    /// If `probe_k` is given, the round additionally evaluates the
    /// hypothetical `probe_k`-element update needed by the derivative-sign
    /// estimator (Section IV-E) and attaches a [`ProbeReport`]; following the
    /// paper, the probe's extra single-sample loss computations and the small
    /// difference message are not charged to the round time.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn run_round(&mut self, k: usize, probe_k: Option<usize>) -> RoundReport {
        self.run_round_recorded(k, probe_k, &mut NoopRecorder)
    }

    /// [`Simulation::run_round`] with round-stage telemetry.
    ///
    /// The body is Algorithm 1 as a sequence of stages, each timed into a
    /// [`SpanId`] span by [`stage`]: hydration, the fused client pass with
    /// its in-order server admission (nested in [`SpanId::ClientPass`]:
    /// [`SpanId::WireFault`], admission's time on this thread, and
    /// [`SpanId::ServerDecode`], the workers' decode + rank time summed
    /// over the members), selection, the probe, the broadcast apply, and
    /// the bookkeeping that ends with the downlink pricing
    /// ([`SpanId::DownlinkPricing`] nests inside [`SpanId::Bookkeeping`]).
    /// A faulty round is the same round over the surviving subset — there
    /// is one engine, and a clean round is the one where every member is
    /// admitted. The report's deterministic facts (cohort size, wire bytes,
    /// fault counts) are mirrored into [`CounterId`]/[`GaugeId`] streams.
    ///
    /// Telemetry is **observation only**: it draws no randomness, touches
    /// no simulation state, and every clock read is gated on
    /// [`Recorder::enabled`], so with a [`NoopRecorder`] `run_round`
    /// compiles down to the uninstrumented round. The golden trajectories
    /// are pinned bit-identical with recording on and off at every worker
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn run_round_recorded<R: Recorder>(
        &mut self,
        k: usize,
        probe_k: Option<usize>,
        rec: &mut R,
    ) -> RoundReport {
        assert!(k > 0, "k must be at least 1");
        let dim = self.dim();
        let k = k.min(dim);
        self.round += 1;
        let round_idx = self.round - 1;
        // The cohort buffer is taken out of `self` so the stages can borrow
        // members while mutating other fields.
        let mut cohort = std::mem::take(&mut self.cohort);

        // (0) Cohort draw, fault plan, slot binding.
        let plans = stage(rec, SpanId::Hydrate, || {
            self.bind_cohort(round_idx, &mut cohort)
        });

        // (1) Lines 4–6 on the pool, the server's admission of each
        // finished upload on this thread.
        let (train_loss, uplink_phase, fault_report) =
            self.client_pass(rec, round_idx, k, cohort.len(), plans.as_deref());
        let s = self.survivors.len();

        // (2) Server selection and aggregation, on this thread, reusing
        // the round workspace.
        let selection = stage(rec, SpanId::Selection, || {
            self.sparsifier
                .select_into(&self.uploads[..s], dim, k, &mut self.scratch)
        });

        // Optional probe for the derivative-sign estimator.
        let probe = stage(rec, SpanId::Probe, || {
            probe_k.map(|pk| self.probe(round_idx, cohort.len(), k, pk, &selection))
        });

        // (3) Downlink: every client applies the identical sparse update.
        let (time_before_downlink, wire_report) = stage(rec, SpanId::BroadcastApply, || {
            self.apply_broadcast(cohort.len(), &selection, uplink_phase)
        });

        // (4) End-of-round bookkeeping, then the broadcast pricing.
        let downlink_bytes = wire_report.as_ref().map(|w| w.downlink_bytes);
        let (contributions, downlink_time) =
            self.bookkeep(rec, round_idx, &cohort, &selection, downlink_bytes);
        let round_time = time_before_downlink + downlink_time;
        self.elapsed += round_time;

        let report = RoundReport {
            round: self.round,
            k_used: k,
            train_loss,
            round_time,
            elapsed_time: self.elapsed,
            downlink_elements: selection.downlink_elements(),
            max_uplink_scalars: selection.max_uplink_scalars(),
            cohort: cohort.clone(),
            contributions,
            probe,
            wire: wire_report,
            fault: fault_report,
        };
        if rec.enabled() {
            record_round_report(rec, &report);
            rec.gauge(
                GaugeId::ResidentClients,
                self.population.resident_rows() as u64,
            );
        }
        self.cohort = cohort;
        report
    }

    /// Stage (0): draws the cohort and its fault plan and binds the slot
    /// arena to the members. Everything here is serial and O(cohort), and
    /// every random draw of the round except the sparsifier's happens here,
    /// *before* any parallel work: the plan — never the worker schedule —
    /// decides every fault, so identical seeds give identical bits at any
    /// thread count. A full-population cohort makes no draw at all (see
    /// [`draw_cohort`]). Returns the plans, parallel to the cohort, when a
    /// fault model is configured.
    fn bind_cohort(
        &mut self,
        round_idx: usize,
        cohort: &mut Vec<usize>,
    ) -> Option<Vec<ClientFaultPlan>> {
        draw_cohort(
            &mut self.cohort_rng,
            self.source.num_clients(),
            self.config.cohort,
            cohort,
        );
        debug_assert!(
            cohort.len() <= self.slots.len(),
            "cohort exceeds the slot arena"
        );
        // Aggregation weights are renormalized over the cohort's samples
        // (`C_i / Σ_{j∈cohort} C_j`); with every client participating the
        // denominator is the population total.
        let cohort_samples: usize = cohort.iter().map(|&id| self.source.shard_len(id)).sum();
        assert!(cohort_samples > 0, "cohort holds no samples");
        let plans = self.fault.as_mut().map(|f| {
            let max_attempts = f.model().max_retries + 1;
            f.plan_round_for(round_idx, max_attempts, cohort)
        });
        // Point each slot at its member and swap a returning participant's
        // persistent state in from the population — the only hydration step
        // that mutates shared state. A first-timer's fresh state and the
        // member's row fetch are per-slot work on the pool, in the client
        // pass.
        for (pos, &id) in cohort.iter().enumerate() {
            let slot = &mut self.slots[pos];
            let weight = self.source.shard_len(id) as f64 / cohort_samples as f64;
            slot.client.bind(id, weight);
            slot.offline = plans.as_ref().is_some_and(|p| p[pos].offline);
            slot.loss = 0.0;
            slot.cached_row = self.population.hydrate(id, &mut slot.client);
        }
        plans
    }

    /// Stage (1): the fused client pass and the server's admission of its
    /// output, as the two ends of one pipeline over the slot arena.
    ///
    /// The *producer* runs on the pool, one call per cohort slot, and
    /// finishes the member's upload: a first-timer's fresh state, then local
    /// gradient computation (Line 4: batch indices, then just those rows
    /// from the source) immediately followed by building the uplink message
    /// (Line 6) in index order, so each member's residual is still hot in
    /// cache when its top-k runs. Byte-priced, that message is encoded and
    /// the frame decoded once (`Client::decode_upload_into`): the decoded
    /// list is what the server aggregates, and the entries the codec
    /// changed are the member's quantization errors. Both paths end with
    /// one rank of the upload's index-ordered keys into the slot's ranked
    /// view when the plan ranks. Each slot owns its member's RNG and
    /// sampler and writes only into its own reused buffers, so the pass is
    /// bit-identical to the sequential loop and allocation-free in steady
    /// state. When the recorder is enabled the producer leaves its decode
    /// time in the slot for admission to sum; the producer returns nothing,
    /// so the pipeline's per-chunk result lists stay zero-sized and never
    /// allocate on a worker.
    ///
    /// The *consumer* is the admission step, run on this thread in strict
    /// cohort order as uploads complete, and it only decides each member's
    /// fate from its pre-drawn plan and its own finished frame: offline and
    /// dropped members are tallied; a transmitting member's uplink is priced
    /// on its own link (straggler slowdown included), every planned
    /// corruption is replayed through the *real* validated decoder (the
    /// `WireError` path), and retries, backoff and the round deadline are
    /// applied; an admitted upload's entry and ranked buffers are swapped
    /// into the next aggregation input. A damaged frame that happens to
    /// decode is still treated as detected-corrupt — the link-layer checksum stand-in — so
    /// corruption delays rounds but can never skew the trajectory. The
    /// in-order consumer is what keeps the loss reduction, the uplink-phase
    /// fold and the upload list bit-identical to the sequential loop; a
    /// clean round is the case where every plan is
    /// [`ClientFaultPlan::clean`].
    fn client_pass<R: Recorder>(
        &mut self,
        rec: &mut R,
        round_idx: usize,
        k: usize,
        cohort_len: usize,
        plans: Option<&[ClientFaultPlan]>,
    ) -> (f64, f64, Option<FaultRoundReport>) {
        let dim = self.params.len();
        let plan = self.sparsifier.upload_plan(dim, k, &mut self.server_rng);
        let rank = matches!(plan, UploadPlan::TopKOwn);
        let model = self.model.as_ref();
        let params = &self.params;
        let wire = self.wire.as_ref();
        let source = self.source.as_ref();
        let seed = self.config.seed;
        let clock = rec.enabled();
        let produce = |slot: &mut Slot| {
            // Derive a first-timer's persistent state from `(seed, id)`: a
            // pure function writing only into this slot, so it runs on the
            // pool.
            let id = slot.client.id();
            if slot.cached_row.is_none() {
                slot.client.reset_persistent(
                    seed.wrapping_add(1)
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(id as u64),
                    dim,
                    source.shard_len(id),
                );
            }
            if slot.offline {
                // Mid-outage: no compute, no upload, and none of the
                // member's streams advance, so recovery resumes them at
                // exactly the position an always-online run never left.
                // The probe still evaluates the sample index of the
                // member's last online round, so that one row is fetched.
                slot.client.fetch_probe_sample(source);
                return;
            }
            // Line 4: the batch indices are drawn first and only those rows
            // of the member's shard are fetched from the source.
            slot.loss = slot.client.compute_local_gradient(source, model, params);
            slot.client.build_upload_into(&plan, k, &mut slot.entries);
            // Byte-priced, the decode and the rank after it are the span.
            let mut t_decode = None;
            if let Some(w) = wire {
                // The quantization stream is keyed on frame content, not on
                // the worker schedule, so encoding here is per-slot work too.
                slot.client.encode_upload_into(
                    w.codec.as_ref(),
                    dim,
                    &slot.entries,
                    &mut slot.frame,
                );
                t_decode = clock.then(Instant::now);
                slot.client.decode_upload_into(
                    &slot.frame,
                    rank,
                    &mut slot.entries,
                    &mut slot.errors,
                );
            }
            slot.client.rank_upload_into(rank, &mut slot.ranked);
            slot.decode_ns = t_decode.map_or(0, |t| t.elapsed().as_nanos() as u64);
        };

        let no_faults = FaultModel::default();
        let fmodel = self.fault.as_ref().map_or(&no_faults, FaultState::model);
        let max_attempts = fmodel.max_retries + 1;
        let clean = ClientFaultPlan::clean();
        while self.uploads.len() < cohort_len {
            self.uploads.push(ClientUpload::new(0, 0.0, Vec::new()));
        }
        let uploads = &mut self.uploads;
        let survivors = &mut self.survivors;
        survivors.clear();
        let mut train_loss = 0.0f64;
        let mut uplink_phase = 0.0f64;
        let mut fr = FaultRoundReport::default();
        let mut damaged_entries: Vec<(usize, f32)> = Vec::new();
        // The nested spans accumulate here, one sample per round: the wire
        // faults on this thread, the decodes as each slot reports them.
        let (mut wire_fault_ns, mut decode_ns) = (0u64, 0u64);
        let admit = |pos: usize, slot: &mut Slot, ()| {
            decode_ns += std::mem::take(&mut slot.decode_ns);
            let p = plans.map_or(&clean, |plans| &plans[pos]);
            if p.offline {
                fr.offline += 1;
                return;
            }
            train_loss += slot.client.weight() * slot.loss as f64;
            if p.dropped {
                // Upload lost in transit, no retry. The computed gradient
                // stays in the member's residual accumulator (no reset will
                // target it), so error feedback re-sends the mass later.
                fr.dropped += 1;
                return;
            }
            if let Some(wire) = wire {
                let t_fault = clock.then(Instant::now);
                if p.slowdown > 1.0 {
                    fr.stragglers += 1;
                }
                let frame = &slot.frame;
                let attempt_time = wire.channel.uplink_time_scaled(
                    round_idx,
                    slot.client.id(),
                    frame.len(),
                    p.slowdown,
                );
                for &corruption in &p.corruptions {
                    damaged_entries.clear();
                    let damaged = corrupt_frame(frame, corruption);
                    let _ = decode_frame(&damaged, &mut damaged_entries);
                    fr.corrupt_frames += 1;
                }
                let failures = p.corruptions.len();
                let lost = failures >= max_attempts;
                let attempts_made = if lost { max_attempts } else { failures + 1 };
                fr.retries += attempts_made - 1;
                fr.retransmitted_bytes += frame.len() as u64 * (attempts_made - 1) as u64;
                let total_time = attempt_time * attempts_made as f64
                    + fmodel.retry_backoff * (attempts_made - 1) as f64;
                let late = !lost && fmodel.deadline.is_some_and(|d| total_time > d);
                fr.corrupt_lost += usize::from(lost);
                fr.deadline_dropped += usize::from(late);
                if !late {
                    // The server listened through every attempt — a
                    // corrupt-lost member's futile ones included — so the
                    // time counts toward the uplink phase.
                    uplink_phase = uplink_phase.max(total_time);
                }
                if let Some(t_fault) = t_fault {
                    wire_fault_ns += t_fault.elapsed().as_nanos() as u64;
                }
                if lost || late {
                    return;
                }
            }
            // Delivered: the slot lends its finished entry list and ranked
            // view to the next aggregation input, which held empty buffers;
            // bookkeeping swaps them back.
            let upload = &mut uploads[survivors.len()];
            upload.client = slot.client.id();
            upload.weight = slot.client.weight();
            std::mem::swap(&mut upload.entries, &mut slot.entries);
            std::mem::swap(&mut upload.ranked, &mut slot.ranked);
            survivors.push(pos);
        };
        stage(rec, SpanId::ClientPass, || {
            self.executor
                .pipeline_mut(&mut self.slots[..cohort_len], produce, admit)
        });
        if clock {
            rec.span(SpanId::WireFault, wire_fault_ns);
            rec.span(SpanId::ServerDecode, decode_ns);
        }
        fr.survivors = self.survivors.len();
        #[cfg(test)]
        tests::assert_upload_contract(&self.uploads[..self.survivors.len()], rank);
        // The uplink phase is the slowest delivery the server actually
        // waited out — retries, backoff and straggler slowdown included,
        // corrupt-lost members' futile attempts included — capped at the
        // deadline, which the server waits out in full whenever anyone is
        // missing.
        let uplink_phase = match fmodel.deadline {
            Some(d) if fr.lost() > 0 => d,
            _ => uplink_phase,
        };
        (train_loss, uplink_phase, plans.map(|_| fr))
    }

    /// The probe stage: the losses `L̃(w(m-1))`, `L̃(w(m))`, `L̃(w'(m))` of
    /// the derivative-sign estimator, where `w'(m)` is the weights after the
    /// hypothetical `probe_k`-element update, and the time that round would
    /// have taken.
    ///
    /// The server reads the uploads once per round: the hypothetical
    /// aggregate is [`Sparsifier::probe_aggregate`] — the round's own
    /// `selection.aggregated` restricted to `J(k')`, with an independent
    /// `select_into` only for `probe_k > k` — and when it *is* the round's
    /// aggregate (`k' = k`, or a sparsifier that ignores `k`) `w'(m) = w(m)`
    /// is neither built nor evaluated. The two weight vectors are reused
    /// buffers. On the byte-priced path the hypothetical `θ_m(k')` is priced
    /// through the channel model, as a clean round of the members that
    /// delivered.
    fn probe(
        &mut self,
        round_idx: usize,
        cohort_len: usize,
        k: usize,
        probe_k: usize,
        selection: &SelectionResult,
    ) -> ProbeReport {
        let dim = self.params.len();
        let probe_k = probe_k.clamp(1, dim);
        let uploads = &self.uploads[..self.survivors.len()];
        let probe_aggregate =
            self.sparsifier
                .probe_aggregate(uploads, dim, k, selection, probe_k, &mut self.scratch);
        let lr = self.config.learning_rate;
        let model = self.model.as_ref();
        let params = &self.params;
        let refill = |w: &mut Vec<f32>, aggregate: &SparseGradient| {
            w.clear();
            w.extend_from_slice(params);
            aggregate.apply_sgd(w, lr);
        };
        let (w_now, w_probe) = (&mut self.w_now, &mut self.w_probe);
        refill(w_now, &selection.aggregated);

        // One pass per cohort slot (every hydrated member, offline ones
        // included — their stale probe sample is exactly what an
        // all-client sweep evaluates): the probe sample is fetched once and
        // the weight vectors evaluated together. The per-member results
        // come back in cohort order, so the serial reduction below
        // accumulates exactly as a sequential loop would.
        let slots = &self.slots[..cohort_len];
        let losses: Vec<Option<[f32; 3]>> = match &probe_aggregate {
            Some(aggregate) => {
                refill(w_probe, aggregate);
                self.executor.map_ref(slots, |slot| {
                    slot.client.probe_losses(model, [params, w_now, w_probe])
                })
            }
            None => self.executor.map_ref(slots, |slot| {
                let losses = slot.client.probe_losses(model, [params, w_now]);
                losses.map(|[prev, now]| [prev, now, now])
            }),
        };
        let mut prev_sum = 0.0f64;
        let mut now_sum = 0.0f64;
        let mut probe_sum = 0.0f64;
        let mut count = 0usize;
        for loss in losses {
            let Some([prev, now, probe]) = loss else {
                continue;
            };
            prev_sum += prev as f64;
            now_sum += now as f64;
            probe_sum += probe as f64;
            count += 1;
        }
        let n = count.max(1) as f64;
        let survivors = &self.survivors;
        let report = ProbeReport {
            probe_k,
            loss_prev: prev_sum / n,
            loss_now: now_sum / n,
            loss_probe: probe_sum / n,
            probe_round_time: match &mut self.wire {
                Some(wire) => wire.probe_round_time(
                    round_idx,
                    probe_k,
                    uploads,
                    |pos| slots[survivors[pos]].frame.len(),
                    probe_aggregate.as_ref().unwrap_or(&selection.aggregated),
                    &mut self.rank_keys,
                ),
                None => self.config.time_model.sparse_round_time(dim, probe_k),
            },
        };
        #[cfg(test)]
        assert_eq!(
            tests::probe_bits(&report),
            tests::probe_bits(
                &self.probe_by_second_selection(round_idx, cohort_len, probe_k, selection)
            ),
            "the probe must report what a second selection at k' reports (k = {k})"
        );
        report
    }

    /// Stage (3): advances the weights by the broadcast and returns the
    /// compute + uplink time together with the round's byte accounting. On
    /// the byte-priced path the broadcast is encoded and *decoded* before
    /// application — the weights advance by what crossed the wire
    /// (bit-identical to the local aggregate because the downlink codec is
    /// lossless; debug-asserted below).
    ///
    /// The broadcast *pricing* is not done here: it reads only the
    /// channel and the frame length, and [`Simulation::bookkeep`] does it
    /// at the end of the round.
    fn apply_broadcast(
        &mut self,
        cohort_len: usize,
        selection: &SelectionResult,
        uplink_phase: f64,
    ) -> (f64, Option<WireRoundReport>) {
        let lr = self.config.learning_rate;
        let Some(wire) = &mut self.wire else {
            selection.aggregated.apply_sgd(&mut self.params, lr);
            let round_time = self.config.time_model.round_time(
                self.params.len(),
                selection.max_uplink_scalars(),
                selection.downlink_scalars(),
            );
            return (round_time, None);
        };
        let frame = wire
            .downlink
            .encode_gradient_into(&selection.aggregated, &mut wire.scratch);
        let downlink_codec = frame_codec(frame).expect("freshly encoded frame");
        #[cfg(debug_assertions)]
        {
            let broadcast =
                agsfl_wire::decode_gradient(frame).expect("self-encoded frame must decode");
            debug_assert!(
                broadcast
                    .entries()
                    .iter()
                    .zip(selection.aggregated.entries().iter())
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
                    && broadcast.nnz() == selection.aggregated.nnz(),
                "decoded broadcast must be bit-identical to the aggregate"
            );
        }
        // Streaming application: the decoded broadcast coordinates go
        // straight into the weight vector in frame order — the entry order
        // `apply_sgd` walks — with no intermediate gradient materialized.
        let params = &mut self.params;
        decode_frame_with(frame, |j, v| params[j] -= lr * v)
            .expect("self-encoded frame must decode");
        // Byte accounting is indexed parallel to the cohort: zero bytes for
        // members that never delivered.
        let mut uplink_bytes = vec![0usize; cohort_len];
        for &pos in &self.survivors {
            uplink_bytes[pos] = self.slots[pos].frame.len();
        }
        let report = WireRoundReport {
            max_uplink_bytes: uplink_bytes.iter().copied().max().unwrap_or(0),
            uplink_bytes,
            downlink_bytes: frame.len(),
            uplink_codecs: self
                .survivors
                .iter()
                .map(|&pos| frame_codec(&self.slots[pos].frame).expect("freshly encoded frame"))
                .collect(),
            downlink_codec,
        };
        (wire.channel.compute_time() + uplink_phase, Some(report))
    }

    /// Stage (4): end-of-round bookkeeping, then the broadcast pricing.
    /// Returns the per-member contributions and the downlink phase time.
    ///
    /// Resets and contributions target exactly the members whose uploads
    /// were aggregated, so a lost member's residual keeps its update; the
    /// same loop takes each delivered upload's buffers back into its slot.
    /// A member's resets arrive in index order (its upload's entry order),
    /// so each reset is one forward sweep of its residual. On the lossy
    /// tier each reset coordinate is seeded with its quantization error
    /// instead of zero (error feedback); `errors` is empty on lossless
    /// rounds, which makes that a plain reset. Dehydration then
    /// returns every member's persistent state to the population
    /// (first-time online participants get a new row; pristine offline
    /// first-timers are dropped and recreated identically on their next
    /// appearance).
    ///
    /// The downlink price is a max over the links that can be the slowest
    /// receiver of the broadcast: the channel's frontier, built on the
    /// first priced round, or every link when the channel has a trace. Its
    /// [`SpanId::DownlinkPricing`] span nests inside
    /// [`SpanId::Bookkeeping`].
    fn bookkeep<R: Recorder>(
        &mut self,
        rec: &mut R,
        round_idx: usize,
        cohort: &[usize],
        selection: &SelectionResult,
        downlink_bytes: Option<usize>,
    ) -> (Vec<usize>, f64) {
        let t0 = rec.enabled().then(Instant::now);
        let mut contributions = vec![0usize; cohort.len()];
        for (u_idx, &pos) in self.survivors.iter().enumerate() {
            let slot = &mut self.slots[pos];
            let upload = &mut self.uploads[u_idx];
            std::mem::swap(&mut slot.entries, &mut upload.entries);
            std::mem::swap(&mut slot.ranked, &mut upload.ranked);
            let resets = selection.resets(u_idx);
            slot.client.apply_reset_with_errors(resets, &slot.errors);
            contributions[pos] = resets.len();
        }
        for (slot, &id) in self.slots.iter_mut().zip(cohort) {
            self.population
                .dehydrate(id, slot.cached_row, !slot.offline, &mut slot.client);
            slot.cached_row = None;
        }
        let downlink_time = stage(rec, SpanId::DownlinkPricing, || {
            self.wire
                .as_ref()
                .zip(downlink_bytes)
                .map_or(0.0, |(w, bytes)| w.downlink_phase_time(round_idx, bytes))
        });
        if let Some(t0) = t0 {
            rec.span(SpanId::Bookkeeping, t0.elapsed().as_nanos() as u64);
        }
        (contributions, downlink_time)
    }

    /// Serializes the complete mutable simulation state — round counter,
    /// elapsed time, global weights, server RNG position, every client's
    /// RNG/residual/sampler/probe state, and the fault injector — prefixed
    /// by a configuration fingerprint. A run restored from these bytes into
    /// a simulation built from the same inputs continues *bit-identically*
    /// to the uninterrupted run (pinned by tests across sparsifiers, thread
    /// counts, and interrupt points).
    pub fn save_state(&self) -> Vec<u8> {
        SnapshotWriter::write_exact(|w| self.write_state(w))
    }

    /// [`Simulation::save_state`] appended to a caller's writer, so a run
    /// checkpoint nests the blob ([`SnapshotWriter::nested`]) without
    /// building it on the side first.
    pub fn write_state(&self, w: &mut SnapshotWriter) {
        w.header(SIM_MAGIC, SIM_VERSION);
        // Fingerprint: enough static configuration to reject a restore into
        // a differently-shaped simulation with a typed error.
        w.usize(self.params.len());
        w.usize(self.source.num_clients());
        w.u64(self.config.seed);
        w.usize(self.config.batch_size);
        w.str(self.sparsifier.name());
        w.bool(self.config.wire.is_some());
        w.bool(self.fault.is_some());
        w.opt_usize(self.config.cohort);
        // v3: the configured wire codec, so a lossy-tier checkpoint cannot
        // silently resume under a different quantization scheme.
        w.str(self.config.wire.as_ref().map_or("none", |w| w.codec.name()));
        // Mutable state. Only the *resident* population rows are written
        // (clients that participated online at least once) — an untouched
        // client's state is a pure function of `(seed, id)` and is
        // recreated on demand, so a million-client snapshot stays
        // proportional to the touched set, not `N`.
        w.usize(self.round);
        w.f64(self.elapsed);
        w.f32s(&self.params);
        w.rng(&self.server_rng);
        w.rng(&self.cohort_rng);
        self.population.write_state(w);
        if let Some(fault) = &self.fault {
            fault.write_state(w);
        }
    }

    /// Restores state produced by [`Simulation::save_state`] into a
    /// simulation built from the **same** model, dataset, sparsifier, and
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapshotError`] on malformed or truncated bytes,
    /// on an unsupported format version, and on any fingerprint mismatch
    /// (dimension, client count, seed, batch size, sparsifier, wire/fault
    /// presence, cohort size, wire codec). On error the simulation may be
    /// partially overwritten and must be discarded.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        let version = r.header(SIM_MAGIC, SIM_VERSION)?;
        if version != SIM_VERSION {
            // Version 1 serialized one dense row per client with no cohort
            // stream; the population layout cannot represent its bytes, so
            // the old format is rejected rather than silently misread.
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let checks: [(&'static str, bool); 9] = [
            ("dim", r.usize()? == self.params.len()),
            ("num_clients", r.usize()? == self.source.num_clients()),
            ("seed", r.u64()? == self.config.seed),
            ("batch_size", r.usize()? == self.config.batch_size),
            ("sparsifier", r.str()? == self.sparsifier.name()),
            (
                "wire configuration",
                r.bool()? == self.config.wire.is_some(),
            ),
            ("fault model", r.bool()? == self.fault.is_some()),
            ("cohort size", r.opt_usize()? == self.config.cohort),
            (
                "wire codec",
                r.str()? == self.config.wire.as_ref().map_or("none", |w| w.codec.name()),
            ),
        ];
        for (field, ok) in checks {
            if !ok {
                return Err(SnapshotError::Mismatch { field });
            }
        }
        let round = r.usize()?;
        let elapsed = r.f64()?;
        let params = r.f32s()?;
        if params.len() != self.params.len() {
            return Err(SnapshotError::Invalid("params length"));
        }
        let server_rng = r.rng()?;
        let cohort_rng = r.rng()?;
        let population = ClientPopulation::read_state(
            &mut r,
            self.params.len(),
            self.source.num_clients(),
            |id| self.source.shard_len(id),
        )?;
        if let Some(fault) = &mut self.fault {
            fault.read_state(&mut r)?;
        }
        r.finish()?;
        self.round = round;
        self.elapsed = elapsed;
        self.params = params;
        self.server_rng = server_rng;
        self.cohort_rng = cohort_rng;
        self.population = population;
        Ok(())
    }
}

/// Mirrors a finished round's deterministic facts — cohort size, wire
/// bytes, codec frame counts, fault tallies — into a recorder's counter and
/// gauge streams. Called by [`Simulation::run_round_recorded`] for every
/// round whose recorder is enabled; exposed so callers replaying stored
/// [`RoundReport`]s (the runner's resumed histories, report tooling) can
/// rebuild the same totals.
///
/// Every value recorded here is a pure function of the report, so two
/// bit-identical trajectories produce bit-identical counter streams — the
/// property the byte-identical `metrics.jsonl` contract rests on.
pub fn record_round_report<R: Recorder>(rec: &mut R, report: &RoundReport) {
    rec.counter(CounterId::Rounds, 1);
    rec.counter(CounterId::CohortClients, report.cohort.len() as u64);
    rec.counter(CounterId::DownlinkElements, report.downlink_elements as u64);
    rec.gauge(GaugeId::KUsed, report.k_used as u64);
    if let Some(wire) = &report.wire {
        let uplink: u64 = wire.uplink_bytes.iter().map(|&b| b as u64).sum();
        rec.counter(CounterId::UplinkBytes, uplink);
        rec.counter(CounterId::DownlinkBytes, wire.downlink_bytes as u64);
        rec.counter(CounterId::UplinkFrames, wire.uplink_codecs.len() as u64);
        rec.gauge(GaugeId::MaxUplinkBytes, wire.max_uplink_bytes as u64);
    }
    if let Some(fault) = &report.fault {
        rec.counter(CounterId::FaultOffline, fault.offline as u64);
        rec.counter(CounterId::FaultDropped, fault.dropped as u64);
        rec.counter(CounterId::FaultStragglers, fault.stragglers as u64);
        rec.counter(CounterId::FaultCorruptFrames, fault.corrupt_frames as u64);
        rec.counter(
            CounterId::FaultLost,
            (fault.corrupt_lost + fault.deadline_dropped) as u64,
        );
        rec.counter(CounterId::FaultRetries, fault.retries as u64);
        rec.counter(
            CounterId::FaultRetransmittedBytes,
            fault.retransmitted_bytes,
        );
    }
}

/// Magic bytes of a serialized [`Simulation`] state blob.
const SIM_MAGIC: [u8; 4] = *b"AGSF";
/// Current simulation state format version: v2 replaced the dense
/// per-client state section with the resident [`ClientPopulation`] rows and
/// added the cohort stream/fingerprint (v1 blobs are rejected); v3 added
/// the wire-codec fingerprint field guarding the lossy uplink tier.
const SIM_VERSION: u32 = 3;
/// XOR tweak deriving the quantization RNG stream's seed from the config
/// seed — its own stream, like the server (`^ 0xABCD_EF01`) and cohort
/// (`^ 0x5EED_C0C0_4071_0001`) streams, so enabling a lossy tier never
/// perturbs any other stream.
const QUANT_STREAM: u64 = 0x051A_771F_ED0C_0DEC;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ClientLink;
    use agsfl_ml::data::{SyntheticFemnist, SyntheticFemnistConfig};
    use agsfl_ml::model::LinearSoftmax;
    use agsfl_sparse::{topk, FabTopK, FubTopK, PeriodicK, SendAll, UnidirectionalTopK};
    use std::cell::Cell;

    thread_local! {
        /// Ranked uploads [`assert_upload_contract`] has checked on this
        /// thread.
        static RANKED_CHECKS: Cell<usize> = const { Cell::new(0) };
    }

    /// The upload contract, checked at the end of every client pass of every
    /// test in this module: each delivered upload's entries are strictly
    /// increasing in index, and its ranked view is the magnitude rank of
    /// those entries, bit for bit, when the plan ranks and empty otherwise.
    pub(super) fn assert_upload_contract(uploads: &[ClientUpload], rank: bool) {
        for upload in uploads {
            assert!(
                upload.entries.windows(2).all(|w| w[0].0 < w[1].0),
                "client {}: entries out of index order",
                upload.client
            );
            if rank {
                let mut expected = upload.entries.clone();
                topk::rank_by_magnitude(&mut expected, &mut Vec::new());
                let expected: Vec<u64> = expected
                    .iter()
                    .map(|&(j, v)| topk::order_key(j as u32, v))
                    .collect();
                assert_eq!(upload.ranked, expected, "client {}", upload.client);
            } else {
                assert!(upload.ranked.is_empty(), "client {}", upload.client);
            }
        }
        if rank {
            RANKED_CHECKS.with(|checks| checks.set(checks.get() + uploads.len()));
        }
    }

    fn tiny_sim_with(
        sparsifier: Box<dyn Sparsifier>,
        beta: f64,
        seed: u64,
        parallelism: Parallelism,
    ) -> Simulation {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
        let model = LinearSoftmax::new(fed.feature_dim(), fed.num_classes());
        Simulation::new(
            Box::new(model),
            fed,
            sparsifier,
            SimulationConfig {
                learning_rate: 0.05,
                batch_size: 8,
                time_model: TimeModel::normalized(beta),
                seed,
                parallelism,
                wire: None,
                fault: None,
                cohort: None,
            },
        )
    }

    fn tiny_wire_sim(
        sparsifier: Box<dyn Sparsifier>,
        seed: u64,
        parallelism: Parallelism,
        codec: agsfl_wire::CodecSpec,
        channel: impl Fn(usize) -> ChannelModel,
    ) -> Simulation {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
        let model = LinearSoftmax::new(fed.feature_dim(), fed.num_classes());
        let channel = channel(fed.num_clients());
        Simulation::new(
            Box::new(model),
            fed,
            sparsifier,
            SimulationConfig {
                learning_rate: 0.05,
                batch_size: 8,
                time_model: TimeModel::normalized(5.0),
                seed,
                parallelism,
                wire: Some(WireConfig { codec, channel }),
                fault: None,
                cohort: None,
            },
        )
    }

    /// A tiny simulation with an optional fault model, wired (uniform
    /// channel, auto codec) or scalar-priced.
    fn tiny_fault_sim(
        sparsifier: Box<dyn Sparsifier>,
        seed: u64,
        parallelism: Parallelism,
        wired: bool,
        fault: Option<FaultModel>,
    ) -> Simulation {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
        let model = LinearSoftmax::new(fed.feature_dim(), fed.num_classes());
        let wire = wired.then(|| WireConfig {
            codec: agsfl_wire::CodecSpec::Auto,
            channel: uniform_channel(fed.num_clients()),
        });
        Simulation::new(
            Box::new(model),
            fed,
            sparsifier,
            SimulationConfig {
                learning_rate: 0.05,
                batch_size: 8,
                time_model: TimeModel::normalized(5.0),
                seed,
                parallelism,
                wire,
                fault,
                cohort: None,
            },
        )
    }

    /// An aggressive every-fault-at-once model for robustness tests.
    fn chaos_model(seed: u64) -> FaultModel {
        FaultModel {
            drop_prob: 0.2,
            crash_prob: 0.1,
            outage_rounds: (1, 2),
            straggle_prob: 0.25,
            straggle_factor: 5.0,
            deadline: Some(40.0),
            corrupt_prob: 0.3,
            max_retries: 2,
            retry_backoff: 0.01,
            seed,
        }
    }

    /// Runs rounds `[from, to)` with a probe on even rounds, collecting the
    /// reports.
    fn drive(sim: &mut Simulation, from: usize, to: usize, k: usize) -> Vec<RoundReport> {
        (from..to)
            .map(|round| {
                let probe = (round % 2 == 0).then(|| (k / 2).max(1));
                sim.run_round(k, probe)
            })
            .collect()
    }

    fn uniform_channel(n: usize) -> ChannelModel {
        ChannelModel::uniform(n, 1.0, 2_000.0, 4_000.0, 0.05)
    }

    fn tiny_sim(sparsifier: Box<dyn Sparsifier>, beta: f64, seed: u64) -> Simulation {
        tiny_sim_with(sparsifier, beta, seed, Parallelism::Auto)
    }

    /// The probe as it was computed while the server still selected twice a
    /// round, kept as the spec `Simulation::probe` asserts itself against in
    /// every test of this module: an independent `select_into` at `k'` on a
    /// fresh workspace, fresh clones of the weights, three losses per
    /// member, and every prefix — the ranked view's when the plan ranks,
    /// the entries' otherwise — priced through a copy and a comparison sort.
    impl Simulation {
        pub(super) fn probe_by_second_selection(
            &self,
            round_idx: usize,
            cohort_len: usize,
            probe_k: usize,
            selection: &SelectionResult,
        ) -> ProbeReport {
            let dim = self.params.len();
            let uploads = &self.uploads[..self.survivors.len()];
            let probe_selection = self.sparsifier.select(uploads, dim, probe_k);
            let lr = self.config.learning_rate;
            let mut w_now = self.params.clone();
            selection.aggregated.apply_sgd(&mut w_now, lr);
            let mut w_probe = self.params.clone();
            probe_selection.aggregated.apply_sgd(&mut w_probe, lr);
            let mut sums = [0.0f64; 3];
            let mut count = 0usize;
            for slot in &self.slots[..cohort_len] {
                let weights = [&self.params[..], &w_now, &w_probe];
                if let Some(losses) = slot.client.probe_losses(self.model.as_ref(), weights) {
                    for (sum, loss) in sums.iter_mut().zip(losses) {
                        *sum += loss as f64;
                    }
                    count += 1;
                }
            }
            let n = count.max(1) as f64;
            let probe_round_time = match &self.wire {
                Some(wire) => {
                    let uplink_phase = uploads
                        .iter()
                        .map(|upload| {
                            let mut prefix: Vec<(usize, f32)> = if upload.ranked.is_empty() {
                                upload.entries.clone()
                            } else {
                                upload
                                    .ranked
                                    .iter()
                                    .map(|&key| topk::key_entry(key))
                                    .collect()
                            };
                            prefix.truncate(probe_k);
                            prefix.sort_unstable_by_key(|&(j, _)| j);
                            let bytes = wire.codec.encoded_len(dim, &prefix);
                            wire.channel.uplink_time(round_idx, upload.client, bytes)
                        })
                        .fold(0.0f64, f64::max);
                    let downlink_bytes = wire
                        .downlink
                        .encoded_len_gradient(&probe_selection.aggregated);
                    wire.channel.compute_time()
                        + uplink_phase
                        + wire.downlink_phase_time(round_idx, downlink_bytes)
                }
                None => self.config.time_model.sparse_round_time(dim, probe_k),
            };
            ProbeReport {
                probe_k,
                loss_prev: sums[0] / n,
                loss_now: sums[1] / n,
                loss_probe: sums[2] / n,
                probe_round_time,
            }
        }
    }

    /// Every field of a probe report, floats as their bits.
    pub(super) fn probe_bits(report: &ProbeReport) -> (usize, [u64; 4]) {
        let floats = [
            report.loss_prev,
            report.loss_now,
            report.loss_probe,
            report.probe_round_time,
        ];
        (report.probe_k, floats.map(f64::to_bits))
    }

    /// Every sparsifier under every exchange — scalar-priced, lossless
    /// wired, the QLinear8 lossy tier, and wired under chaos — probing
    /// below `k`, at `k`, one above it (the runner's stochastic-rounding
    /// corner, served by the independent selection) and far above anything
    /// selected. `Simulation::probe` compares each report, bit for bit,
    /// with `probe_by_second_selection`; this test supplies the rounds and
    /// checks the comparison really ran on both sides of `k' <= k`.
    #[test]
    fn probe_reports_what_a_second_selection_reports() {
        type Build = fn(Box<dyn Sparsifier>) -> Simulation;
        let exchanges: [(&str, Build); 4] = [
            ("unwired", |s| {
                tiny_sim_with(s, 5.0, 3, Parallelism::Threads(2))
            }),
            ("lossless", |s| {
                let codec = agsfl_wire::CodecSpec::DeltaVarint;
                tiny_wire_sim(s, 3, Parallelism::Threads(2), codec, uniform_channel)
            }),
            ("qlinear8", |s| {
                let codec = agsfl_wire::CodecSpec::QLinear8;
                tiny_wire_sim(s, 3, Parallelism::Threads(2), codec, uniform_channel)
            }),
            ("faulty", |s| {
                tiny_fault_sim(s, 3, Parallelism::Threads(2), true, Some(chaos_model(9)))
            }),
        ];
        let sparsifiers: [fn() -> Box<dyn Sparsifier>; 5] = [
            || Box::new(FabTopK::new()),
            || Box::new(FubTopK::new()),
            || Box::new(UnidirectionalTopK::new()),
            || Box::new(PeriodicK::new()),
            || Box::new(SendAll::new()),
        ];
        for (exchange, build) in exchanges {
            for sparsifier in sparsifiers {
                let mut sim = build(sparsifier());
                let dim = sim.dim();
                let k = dim / 8;
                for probe_k in [1, k / 2, k - 1, k, k + 1, dim, k / 3, 2 * k] {
                    let report = sim.run_round(k, Some(probe_k));
                    let probe = report.probe.expect("a probe was asked for");
                    assert_eq!(probe.probe_k, probe_k, "{exchange}");
                    assert!(probe.loss_probe.is_finite() && probe.probe_round_time > 0.0);
                    if probe_k == k {
                        assert_eq!(probe.loss_probe.to_bits(), probe.loss_now.to_bits());
                    }
                }
            }
        }
    }

    /// Every reusable buffer a wired round touches, as capacities: the
    /// selection workspace's lists, the server's encode workspace and rank
    /// keys, and each slot's entry, ranked, frame, error and client-side
    /// encode buffers. Between rounds a slot owns its upload buffers — the
    /// upload it lent them to holds none — so a released one lowers its
    /// slot's capacity.
    fn workspace_capacities(sim: &Simulation) -> Vec<usize> {
        assert_uploads_hold_nothing(sim);
        let mut caps = sim.scratch.list_capacities().to_vec();
        caps.push(sim.rank_keys.capacity());
        caps.extend(sim.wire.as_ref().map(|w| w.scratch.frame_capacity()));
        for slot in &sim.slots {
            caps.extend([
                slot.entries.capacity(),
                slot.ranked.capacity(),
                slot.frame.capacity(),
                slot.errors.capacity(),
                slot.client.wire_frame_capacity(),
            ]);
        }
        caps
    }

    /// After bookkeeping every upload holds zero capacity: its member's
    /// buffers went back to the slot.
    fn assert_uploads_hold_nothing(sim: &Simulation) {
        for (u, upload) in sim.uploads.iter().enumerate() {
            assert_eq!(
                (upload.entries.capacity(), upload.ranked.capacity()),
                (0, 0),
                "upload {u} kept a buffer past bookkeeping"
            );
        }
    }

    /// Every plan (ranked top-k, coordinates, dense), unwired and through
    /// every lossless and lossy codec, then wired under chaos: each
    /// delivered upload is index-ordered and carries its own magnitude rank
    /// (checked inside every client pass by [`assert_upload_contract`]),
    /// and after bookkeeping the uploads hold nothing while each slot owns
    /// its buffers again — the ranked one only under the ranked plan.
    #[test]
    fn delivered_uploads_are_index_ordered_and_slots_own_their_buffers() {
        let sparsifiers: [fn() -> Box<dyn Sparsifier>; 3] = [
            || Box::new(FabTopK::new()),
            || Box::new(PeriodicK::new()),
            || Box::new(SendAll::new()),
        ];
        let codecs = [None]
            .into_iter()
            .chain(agsfl_wire::CodecSpec::all().into_iter().map(Some))
            .chain(agsfl_wire::CodecSpec::lossy().into_iter().map(Some));
        let before = RANKED_CHECKS.with(Cell::get);
        for codec in codecs {
            for (which, make) in sparsifiers.iter().enumerate() {
                let mut sim = match codec {
                    None => tiny_sim_with(make(), 5.0, 5, Parallelism::Threads(2)),
                    Some(spec) => {
                        tiny_wire_sim(make(), 5, Parallelism::Threads(2), spec, uniform_channel)
                    }
                };
                let k = sim.dim() / 5;
                for round in 0..3 {
                    sim.run_round(k, (round == 1).then_some(k / 2));
                    assert_uploads_hold_nothing(&sim);
                    for slot in &sim.slots {
                        assert!(slot.entries.capacity() > 0, "{codec:?}, plan {which}");
                        let ranks = which == 0;
                        assert_eq!(slot.ranked.capacity() > 0, ranks, "{codec:?}");
                    }
                }
            }
        }
        assert!(
            RANKED_CHECKS.with(Cell::get) > before,
            "the client pass checked the ranked views"
        );
        // Lost and late members keep their buffers; delivered ones lend and
        // get theirs back.
        let chaos = Some(chaos_model(13));
        let mut sim = tiny_fault_sim(
            Box::new(FabTopK::new()),
            5,
            Parallelism::Threads(2),
            true,
            chaos,
        );
        let k = sim.dim() / 5;
        for _ in 0..6 {
            sim.run_round(k, Some(k / 2));
            assert_uploads_hold_nothing(&sim);
        }
    }

    /// Algorithm 3 keeps moving between a large `k` and a handful of rounds
    /// near `k = 1`, each with a unit probe. Scratch is grow-only: the
    /// `k = D/2` round sizes every buffer once, and no stretch of small
    /// rounds releases what the next large one needs.
    #[test]
    fn workspace_capacity_never_decreases_between_large_and_unit_k_rounds() {
        for sparsifier in [
            Box::new(FabTopK::new()) as Box<dyn Sparsifier>,
            Box::new(FubTopK::new()),
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            let fed = SyntheticFemnist::new(SyntheticFemnistConfig {
                feature_dim: 400,
                ..SyntheticFemnistConfig::tiny()
            })
            .generate(&mut rng);
            let model = LinearSoftmax::new(fed.feature_dim(), fed.num_classes());
            let config = SimulationConfig {
                batch_size: 8,
                seed: 4,
                wire: Some(WireConfig {
                    codec: agsfl_wire::CodecSpec::DeltaVarint,
                    channel: uniform_channel(fed.num_clients()),
                }),
                ..SimulationConfig::default()
            };
            let mut sim = Simulation::new(Box::new(model), fed, sparsifier, config);
            let large = sim.dim() / 2;
            // One large round, then enough unit rounds for a halving demand
            // mark to fall two octaves below it; three times over. How many
            // fill candidates a large round ranks depends on its uploads, so
            // `keys` may still double at the second one; after it nothing
            // moves.
            let ks = [large, 1, 1, 1, 1].repeat(3);
            let mut previous: Vec<usize> = Vec::new();
            let mut settled = Vec::new();
            for (round, &k) in ks.iter().enumerate() {
                sim.run_round(k, Some(1));
                let caps = workspace_capacities(&sim);
                assert!(
                    caps.iter()
                        .zip(&previous)
                        .all(|(now, before)| now >= before),
                    "round {round} (k = {k}) released capacity: {previous:?} -> {caps:?}"
                );
                if round == 5 {
                    // `selected`, the first of the selection's lists.
                    assert!(caps[0] >= large, "{caps:?}");
                    settled = caps.clone();
                } else if round > 5 {
                    assert_eq!(caps, settled, "round {round} (k = {k})");
                }
                previous = caps;
            }
        }
    }

    #[test]
    fn round_advances_time_and_counter() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 10.0, 0);
        let dim = sim.dim();
        let report = sim.run_round(dim / 10, None);
        assert_eq!(report.round, 1);
        assert_eq!(sim.round(), 1);
        assert!(report.round_time > 1.0);
        assert!((sim.elapsed_time() - report.round_time).abs() < 1e-12);
        assert_eq!(report.contributions.len(), sim.num_clients());
    }

    #[test]
    fn training_reduces_global_loss() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 1.0, 1);
        let k = sim.dim() / 5;
        let initial = sim.global_train_loss();
        for _ in 0..150 {
            sim.run_round(k, None);
        }
        let trained = sim.global_train_loss();
        assert!(
            trained < initial * 0.8,
            "global loss did not decrease: {initial} -> {trained}"
        );
        assert!(sim.test_accuracy() > 0.2);
    }

    #[test]
    fn send_all_round_costs_full_comm() {
        let mut sim = tiny_sim(Box::new(SendAll::new()), 10.0, 2);
        let report = sim.run_round(1, None);
        assert!((report.round_time - 11.0).abs() < 1e-9);
    }

    #[test]
    fn fab_round_time_matches_sparse_formula() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 10.0, 3);
        let dim = sim.dim();
        let k = dim / 8;
        let report = sim.run_round(k, None);
        let expected = TimeModel::normalized(10.0).sparse_round_time(dim, k);
        assert!(
            (report.round_time - expected).abs() < 1e-9,
            "round time {} vs expected {expected}",
            report.round_time
        );
    }

    #[test]
    fn probe_report_is_produced_and_sensible() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 10.0, 4);
        let dim = sim.dim();
        let report = sim.run_round(dim / 4, Some(dim / 8));
        let probe = report.probe.expect("probe requested");
        assert_eq!(probe.probe_k, dim / 8);
        assert!(probe.loss_prev.is_finite() && probe.loss_prev > 0.0);
        assert!(probe.loss_now.is_finite());
        assert!(probe.loss_probe.is_finite());
        assert!(probe.probe_round_time < report.round_time);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let mut a = tiny_sim(Box::new(FubTopK::new()), 5.0, 9);
        let mut b = tiny_sim(Box::new(FubTopK::new()), 5.0, 9);
        for _ in 0..5 {
            let ka = a.run_round(50, None);
            let kb = b.run_round(50, None);
            assert_eq!(ka, kb);
        }
        assert_eq!(a.params(), b.params());
    }

    /// The parallel round engine's load-bearing invariant: a serial run and
    /// a multi-threaded run of the same seed produce equal round reports
    /// (probes included) and bit-equal final weights, for every sparsifier
    /// family the engine shards.
    #[test]
    fn serial_and_parallel_runs_are_identical() {
        let sparsifiers: [fn() -> Box<dyn Sparsifier>; 5] = [
            || Box::new(FabTopK::new()),
            || Box::new(FubTopK::new()),
            || Box::new(UnidirectionalTopK::new()),
            || Box::new(PeriodicK::new()),
            || Box::new(SendAll::new()),
        ];
        for (which, make) in sparsifiers.into_iter().enumerate() {
            let seed = 40 + which as u64;
            let mut serial = tiny_sim_with(make(), 5.0, seed, Parallelism::Serial);
            let mut parallel = tiny_sim_with(make(), 5.0, seed, Parallelism::Threads(4));
            let k = serial.dim() / 6;
            for round in 0..4 {
                let probe = if round % 2 == 0 { Some(k / 2) } else { None };
                let rs = serial.run_round(k, probe);
                let rp = parallel.run_round(k, probe);
                assert_eq!(rs, rp, "sparsifier {which}, round {round}");
            }
            assert_eq!(
                serial.params(),
                parallel.params(),
                "final weights diverged for sparsifier {which}"
            );
        }
    }

    /// The accessors are restrictions of the fused evaluation sweep: equal
    /// to its fields bit for bit, serial or parallel, across 1–8 workers.
    #[test]
    fn fused_evaluation_matches_accessors_for_any_worker_count() {
        for threads in [1usize, 2, 3, 4, 5, 8] {
            let parallelism = if threads == 1 {
                Parallelism::Serial
            } else {
                Parallelism::Threads(threads)
            };
            let mut sim = tiny_sim_with(Box::new(FabTopK::new()), 5.0, 21, parallelism);
            for _ in 0..3 {
                sim.run_round(sim.dim() / 6, None);
            }
            let eval = sim.evaluate();
            assert_eq!(
                (eval.train_loss as f64).to_bits(),
                sim.global_train_loss().to_bits(),
                "threads={threads}"
            );
            assert_eq!(
                (eval.test_accuracy as f64).to_bits(),
                sim.test_accuracy().to_bits(),
                "threads={threads}"
            );
        }
    }

    /// Evaluation sweeps are part of the determinism invariant: the same
    /// trained state evaluates to identical bits for every worker count.
    #[test]
    fn serial_and_parallel_evaluations_are_identical() {
        let mut serial = tiny_sim_with(Box::new(FabTopK::new()), 5.0, 22, Parallelism::Serial);
        let mut parallel =
            tiny_sim_with(Box::new(FabTopK::new()), 5.0, 22, Parallelism::Threads(4));
        for _ in 0..3 {
            serial.run_round(40, None);
            parallel.run_round(40, None);
        }
        assert_eq!(serial.evaluate(), parallel.evaluate());
        assert_eq!(serial.global_train_loss(), parallel.global_train_loss());
        assert_eq!(serial.test_accuracy(), parallel.test_accuracy());
    }

    /// The byte-priced path must not perturb training by a single bit: the
    /// codecs are lossless, so decode reproduces every upload and its rank, so
    /// a wired and an un-wired run of the same seed walk the identical
    /// trajectory — only the cost signal (round_time, wire report) differs.
    #[test]
    fn wire_path_keeps_training_bit_identical() {
        let sparsifiers: [fn() -> Box<dyn Sparsifier>; 5] = [
            || Box::new(FabTopK::new()),
            || Box::new(FubTopK::new()),
            || Box::new(UnidirectionalTopK::new()),
            || Box::new(PeriodicK::new()),
            || Box::new(SendAll::new()),
        ];
        for (which, make) in sparsifiers.into_iter().enumerate() {
            let seed = 70 + which as u64;
            let mut plain = tiny_sim(make(), 5.0, seed);
            let mut wired = tiny_wire_sim(
                make(),
                seed,
                Parallelism::Auto,
                agsfl_wire::CodecSpec::Auto,
                uniform_channel,
            );
            let k = plain.dim() / 6;
            for round in 0..3 {
                let probe = if round == 1 { Some(k / 2) } else { None };
                let rp = plain.run_round(k, probe);
                let rw = wired.run_round(k, probe);
                assert_eq!(rp.train_loss, rw.train_loss, "sparsifier {which}");
                assert_eq!(rp.contributions, rw.contributions, "sparsifier {which}");
                assert_eq!(rp.downlink_elements, rw.downlink_elements);
                let wire = rw.wire.expect("wire report present");
                assert_eq!(wire.uplink_bytes.len(), wired.num_clients());
                assert!(wire.downlink_bytes > 0);
                assert!(
                    rw.round_time > wired.config().wire.as_ref().unwrap().channel.compute_time()
                );
            }
            assert_eq!(
                plain.params(),
                wired.params(),
                "weights diverged for sparsifier {which}"
            );
        }
    }

    /// Acceptance invariant: byte-priced simulations stay serial-vs-parallel
    /// identical (full round reports, wire accounting included) across
    /// 1–8 workers.
    #[test]
    fn wire_serial_and_parallel_runs_are_identical() {
        for threads in [2usize, 3, 5, 8] {
            let mut serial = tiny_wire_sim(
                Box::new(FabTopK::new()),
                90,
                Parallelism::Serial,
                agsfl_wire::CodecSpec::Auto,
                uniform_channel,
            );
            let mut parallel = tiny_wire_sim(
                Box::new(FabTopK::new()),
                90,
                Parallelism::Threads(threads),
                agsfl_wire::CodecSpec::Auto,
                uniform_channel,
            );
            let k = serial.dim() / 6;
            for round in 0..3 {
                let probe = if round % 2 == 0 { Some(k / 2) } else { None };
                let rs = serial.run_round(k, probe);
                let rp = parallel.run_round(k, probe);
                assert_eq!(rs, rp, "threads={threads}, round={round}");
            }
            assert_eq!(serial.params(), parallel.params(), "threads={threads}");
        }
    }

    /// A straggler on a heterogeneous channel dominates the round time, and
    /// a bandwidth trace modulates it round by round.
    #[test]
    fn heterogeneous_channel_prices_the_straggler() {
        let mut fast = tiny_wire_sim(
            Box::new(FabTopK::new()),
            91,
            Parallelism::Auto,
            agsfl_wire::CodecSpec::Coo,
            |n| ChannelModel::uniform(n, 1.0, 10_000.0, 10_000.0, 0.0),
        );
        let mut straggler = tiny_wire_sim(
            Box::new(FabTopK::new()),
            91,
            Parallelism::Auto,
            agsfl_wire::CodecSpec::Coo,
            |n| {
                let mut links = vec![ClientLink::new(10_000.0, 10_000.0, 0.0); n];
                links[0] = ClientLink::new(100.0, 10_000.0, 0.0);
                ChannelModel::new(1.0, links)
            },
        );
        let k = fast.dim() / 6;
        let rf = fast.run_round(k, None);
        let rs = straggler.run_round(k, None);
        assert!(
            rs.round_time > rf.round_time * 2.0,
            "straggler {} vs uniform {}",
            rs.round_time,
            rf.round_time
        );
        // Same trajectory regardless of the channel: the channel only
        // prices rounds.
        assert_eq!(rf.train_loss, rs.train_loss);
        assert_eq!(fast.params(), straggler.params());
    }

    #[test]
    fn bandwidth_trace_modulates_round_time() {
        let mut sim = tiny_wire_sim(
            Box::new(FabTopK::new()),
            92,
            Parallelism::Auto,
            agsfl_wire::CodecSpec::Coo,
            |n| {
                ChannelModel::uniform(n, 0.0, 1_000.0, 1_000.0, 0.0)
                    .with_trace(vec![vec![1.0; n], vec![0.25; n]])
            },
        );
        let k = sim.dim() / 8;
        let r0 = sim.run_round(k, None);
        let r1 = sim.run_round(k, None);
        // Round 1 runs at a quarter of the bandwidth: ~4x the comm time.
        assert!(
            r1.round_time > r0.round_time * 3.0,
            "trace did not slow round 1: {} vs {}",
            r1.round_time,
            r0.round_time
        );
    }

    #[test]
    fn periodic_sparsifier_runs() {
        let mut sim = tiny_sim(Box::new(PeriodicK::new()), 10.0, 5);
        let report = sim.run_round(sim.dim() / 10, None);
        assert_eq!(report.downlink_elements, sim.dim() / 10);
    }

    #[test]
    #[should_panic]
    fn zero_k_panics() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 1.0, 6);
        let _ = sim.run_round(0, None);
    }

    /// A fault model with every rate at zero must not perturb a single bit
    /// of the run — same reports (modulo the attached all-zero fault
    /// accounting), same weights — wired or not.
    #[test]
    fn zero_rate_fault_model_is_bit_identical_to_no_fault() {
        for wired in [false, true] {
            let mut plain = tiny_fault_sim(
                Box::new(FabTopK::new()),
                105,
                Parallelism::Auto,
                wired,
                None,
            );
            let mut faulted = tiny_fault_sim(
                Box::new(FabTopK::new()),
                105,
                Parallelism::Auto,
                wired,
                Some(FaultModel::default()),
            );
            let k = plain.dim() / 6;
            let n = plain.num_clients();
            for round in 0..4 {
                let probe = (round % 2 == 0).then_some(k / 2);
                let rp = plain.run_round(k, probe);
                let rf = faulted.run_round(k, probe);
                assert_eq!(
                    rf.fault.expect("fault accounting attached"),
                    FaultRoundReport {
                        survivors: n,
                        ..FaultRoundReport::default()
                    },
                    "wired={wired}, round={round}"
                );
                let stripped = RoundReport { fault: None, ..rf };
                assert_eq!(rp, stripped, "wired={wired}, round={round}");
            }
            assert_eq!(plain.params(), faulted.params(), "wired={wired}");
        }
    }

    /// Acceptance invariant: no fault configuration aborts a round. Chaos
    /// at high rates — dropouts, crashes, stragglers, corruption with
    /// retries, and a deadline all at once — still yields a completed run
    /// with coherent survivor accounting every round.
    #[test]
    fn faults_never_abort_a_round() {
        let mut sim = tiny_fault_sim(
            Box::new(FabTopK::new()),
            106,
            Parallelism::Auto,
            true,
            Some(chaos_model(7)),
        );
        let n = sim.num_clients();
        let k = sim.dim() / 6;
        let mut lost_any = false;
        for round in 0..8 {
            let probe = (round % 2 == 0).then_some(k / 2);
            let report = sim.run_round(k, probe);
            let fault = report.fault.expect("fault accounting attached");
            assert_eq!(fault.survivors + fault.lost(), n, "round {round}");
            assert_eq!(
                fault.corrupt_frames,
                fault.retries + fault.corrupt_lost,
                "round {round}: every corrupt frame is a retry or part of an exhausted client"
            );
            assert!(report.round_time.is_finite() && report.round_time > 0.0);
            assert_eq!(report.contributions.len(), n);
            lost_any |= fault.lost() > 0;
        }
        assert!(lost_any, "chaos rates should lose at least one upload");
    }

    /// Even a total blackout (every upload lost, zero survivors) completes
    /// rounds gracefully: empty aggregate, zero contributions, no panic.
    #[test]
    fn total_blackout_still_completes_rounds() {
        let model = FaultModel {
            drop_prob: 1.0,
            seed: 1,
            ..FaultModel::default()
        };
        let mut sim = tiny_fault_sim(
            Box::new(FabTopK::new()),
            107,
            Parallelism::Auto,
            true,
            Some(model),
        );
        let before = sim.params().to_vec();
        for _ in 0..3 {
            let report = sim.run_round(sim.dim() / 6, None);
            let fault = report.fault.expect("fault accounting attached");
            assert_eq!(fault.survivors, 0);
            assert_eq!(fault.dropped, sim.num_clients());
            assert!(report.contributions.iter().all(|&c| c == 0));
        }
        // Nothing was aggregated, so the weights never moved; the updates
        // wait in the residual accumulators.
        assert_eq!(sim.params(), &before[..]);
    }

    /// Fault injection preserves the serial-vs-parallel identity: the plan,
    /// drawn serially before the parallel client pass, decides every fault.
    #[test]
    fn faulty_serial_and_parallel_runs_are_identical() {
        for threads in [2usize, 4, 8] {
            let mut serial = tiny_fault_sim(
                Box::new(FabTopK::new()),
                108,
                Parallelism::Serial,
                true,
                Some(chaos_model(9)),
            );
            let mut parallel = tiny_fault_sim(
                Box::new(FabTopK::new()),
                108,
                Parallelism::Threads(threads),
                true,
                Some(chaos_model(9)),
            );
            let k = serial.dim() / 6;
            for round in 0..5 {
                let probe = (round % 2 == 0).then_some(k / 2);
                let rs = serial.run_round(k, probe);
                let rp = parallel.run_round(k, probe);
                assert_eq!(rs, rp, "threads={threads}, round={round}");
            }
            assert_eq!(serial.params(), parallel.params(), "threads={threads}");
        }
    }

    /// A deadline drops the client whose uplink cannot finish in time, caps
    /// the uplink phase at the deadline, and leaves the fast clients'
    /// aggregation intact.
    #[test]
    fn deadline_drops_slow_clients_and_caps_the_phase() {
        let mut rng = ChaCha8Rng::seed_from_u64(160);
        let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
        let n = fed.num_clients();
        let model = LinearSoftmax::new(fed.feature_dim(), fed.num_classes());
        let mut links = vec![ClientLink::new(10_000.0, 10_000.0, 0.0); n];
        links[0] = ClientLink::new(10.0, 10_000.0, 0.0); // crawling uplink
        let mut sim = Simulation::new(
            Box::new(model),
            fed,
            Box::new(FabTopK::new()),
            SimulationConfig {
                learning_rate: 0.05,
                batch_size: 8,
                time_model: TimeModel::normalized(5.0),
                seed: 160,
                parallelism: Parallelism::Auto,
                wire: Some(WireConfig {
                    codec: agsfl_wire::CodecSpec::Auto,
                    channel: ChannelModel::new(1.0, links),
                }),
                fault: Some(FaultModel {
                    deadline: Some(5.0),
                    seed: 2,
                    ..FaultModel::default()
                }),
                cohort: None,
            },
        );
        let report = sim.run_round(sim.dim() / 6, None);
        let fault = report.fault.expect("fault accounting attached");
        assert_eq!(fault.deadline_dropped, 1);
        assert_eq!(fault.survivors, n - 1);
        assert_eq!(report.contributions[0], 0);
        // compute (1.0) + deadline (5.0) + a fast broadcast.
        assert!(
            report.round_time > 6.0 && report.round_time < 7.0,
            "phase not capped at the deadline: {}",
            report.round_time
        );
    }

    /// Stragglers slow the round they straggle in but never touch the
    /// training trajectory — the slowdown only scales link timing.
    #[test]
    fn stragglers_slow_the_round_but_not_training() {
        let mut clean = tiny_fault_sim(
            Box::new(FabTopK::new()),
            161,
            Parallelism::Auto,
            true,
            Some(FaultModel {
                seed: 3,
                ..FaultModel::default()
            }),
        );
        let mut straggly = tiny_fault_sim(
            Box::new(FabTopK::new()),
            161,
            Parallelism::Auto,
            true,
            Some(FaultModel {
                straggle_prob: 1.0,
                straggle_factor: 10.0,
                seed: 3,
                ..FaultModel::default()
            }),
        );
        let k = clean.dim() / 6;
        let n = clean.num_clients();
        for _ in 0..3 {
            let rc = clean.run_round(k, None);
            let rs = straggly.run_round(k, None);
            assert!(rs.round_time > rc.round_time);
            assert_eq!(rc.train_loss, rs.train_loss);
            assert_eq!(rs.fault.unwrap().stragglers, n);
        }
        assert_eq!(clean.params(), straggly.params());
    }

    /// Satellite 4, full grid: interrupt at the first round, mid-run, and
    /// last-but-one; resume from the saved bytes; the stitched run must be
    /// bit-identical to the uninterrupted one — for every sparsifier,
    /// serial and parallel, with chaos-level faults active.
    #[test]
    fn resume_is_bit_identical_for_every_sparsifier_and_interrupt() {
        let sparsifiers: [fn() -> Box<dyn Sparsifier>; 5] = [
            || Box::new(FabTopK::new()),
            || Box::new(FubTopK::new()),
            || Box::new(UnidirectionalTopK::new()),
            || Box::new(PeriodicK::new()),
            || Box::new(SendAll::new()),
        ];
        for (which, make) in sparsifiers.into_iter().enumerate() {
            let seed = 120 + which as u64;
            for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
                let fault = Some(chaos_model(seed));
                let mut reference = tiny_fault_sim(make(), seed, parallelism, true, fault.clone());
                let k = reference.dim() / 6;
                let full = drive(&mut reference, 0, 6, k);
                for interrupt in [1usize, 3, 5] {
                    let mut first = tiny_fault_sim(make(), seed, parallelism, true, fault.clone());
                    let before = drive(&mut first, 0, interrupt, k);
                    let bytes = first.save_state();
                    let mut resumed =
                        tiny_fault_sim(make(), seed, parallelism, true, fault.clone());
                    resumed.restore_state(&bytes).unwrap();
                    assert_eq!(resumed.round(), interrupt);
                    let after = drive(&mut resumed, interrupt, 6, k);
                    let stitched: Vec<RoundReport> = before.into_iter().chain(after).collect();
                    assert_eq!(
                        full, stitched,
                        "sparsifier {which}, parallelism {parallelism:?}, interrupt {interrupt}"
                    );
                    assert_eq!(
                        reference.params(),
                        resumed.params(),
                        "sparsifier {which}, interrupt {interrupt}"
                    );
                }
            }
        }
    }

    /// Resume composes with the thread-count invariant: an interrupted run
    /// resumed under any worker count reproduces the serial uninterrupted
    /// run bit for bit.
    #[test]
    fn resume_matches_across_worker_counts() {
        let fault = Some(chaos_model(11));
        let mut reference = tiny_fault_sim(
            Box::new(FabTopK::new()),
            140,
            Parallelism::Serial,
            true,
            fault.clone(),
        );
        let k = reference.dim() / 6;
        let full = drive(&mut reference, 0, 6, k);
        for threads in [1usize, 2, 3, 5, 8] {
            let parallelism = if threads == 1 {
                Parallelism::Serial
            } else {
                Parallelism::Threads(threads)
            };
            let mut first = tiny_fault_sim(
                Box::new(FabTopK::new()),
                140,
                parallelism,
                true,
                fault.clone(),
            );
            let before = drive(&mut first, 0, 3, k);
            let bytes = first.save_state();
            let mut resumed = tiny_fault_sim(
                Box::new(FabTopK::new()),
                140,
                parallelism,
                true,
                fault.clone(),
            );
            resumed.restore_state(&bytes).unwrap();
            let after = drive(&mut resumed, 3, 6, k);
            let stitched: Vec<RoundReport> = before.into_iter().chain(after).collect();
            assert_eq!(full, stitched, "threads={threads}");
            assert_eq!(reference.params(), resumed.params(), "threads={threads}");
        }
    }

    /// Save/resume also holds on the plain scalar-priced path with no fault
    /// model at all — checkpointing is independent of both subsystems.
    #[test]
    fn resume_without_wire_or_faults_is_bit_identical() {
        let mut reference = tiny_sim(Box::new(FabTopK::new()), 5.0, 145);
        let k = reference.dim() / 6;
        let full = drive(&mut reference, 0, 6, k);
        let mut first = tiny_sim(Box::new(FabTopK::new()), 5.0, 145);
        let before = drive(&mut first, 0, 3, k);
        let bytes = first.save_state();
        let mut resumed = tiny_sim(Box::new(FabTopK::new()), 5.0, 145);
        resumed.restore_state(&bytes).unwrap();
        let after = drive(&mut resumed, 3, 6, k);
        let stitched: Vec<RoundReport> = before.into_iter().chain(after).collect();
        assert_eq!(full, stitched);
        assert_eq!(reference.params(), resumed.params());
    }

    /// Restore validates its input: fingerprint mismatches and truncations
    /// yield typed errors, never panics.
    #[test]
    fn restore_rejects_mismatched_or_corrupt_state() {
        let fault = Some(FaultModel::default());
        let mut sim = tiny_fault_sim(
            Box::new(FabTopK::new()),
            150,
            Parallelism::Auto,
            true,
            fault.clone(),
        );
        let k = sim.dim() / 6;
        drive(&mut sim, 0, 2, k);
        let bytes = sim.save_state();

        let mut other_seed = tiny_fault_sim(
            Box::new(FabTopK::new()),
            151,
            Parallelism::Auto,
            true,
            fault.clone(),
        );
        assert!(matches!(
            other_seed.restore_state(&bytes),
            Err(SnapshotError::Mismatch { field: "seed" })
        ));
        let mut no_fault =
            tiny_fault_sim(Box::new(FabTopK::new()), 150, Parallelism::Auto, true, None);
        assert!(matches!(
            no_fault.restore_state(&bytes),
            Err(SnapshotError::Mismatch {
                field: "fault model"
            })
        ));
        let mut other_sparsifier = tiny_fault_sim(
            Box::new(FubTopK::new()),
            150,
            Parallelism::Auto,
            true,
            fault.clone(),
        );
        assert!(matches!(
            other_sparsifier.restore_state(&bytes),
            Err(SnapshotError::Mismatch {
                field: "sparsifier"
            })
        ));

        for cut in [0, 3, 4, 11, bytes.len() / 2, bytes.len() - 1] {
            let mut target = tiny_fault_sim(
                Box::new(FabTopK::new()),
                150,
                Parallelism::Auto,
                true,
                fault.clone(),
            );
            assert!(
                target.restore_state(&bytes[..cut]).is_err(),
                "cut at {cut} must error"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        let mut target = tiny_fault_sim(
            Box::new(FabTopK::new()),
            150,
            Parallelism::Auto,
            true,
            fault,
        );
        assert_eq!(
            target.restore_state(&extended),
            Err(SnapshotError::TrailingBytes)
        );
    }

    /// Misconfigured fault models are rejected before the run starts.
    #[test]
    #[should_panic(expected = "invalid simulation config")]
    fn invalid_fault_config_panics_at_construction() {
        let _ = tiny_fault_sim(
            Box::new(FabTopK::new()),
            155,
            Parallelism::Auto,
            false,
            Some(FaultModel {
                corrupt_prob: 0.5, // requires a wire configuration
                ..FaultModel::default()
            }),
        );
    }

    /// A tiny FAB-top-k simulation with cohort sampling enabled.
    fn tiny_cohort_sim(seed: u64, cohort: usize, parallelism: Parallelism) -> Simulation {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
        let model = LinearSoftmax::new(fed.feature_dim(), fed.num_classes());
        Simulation::new(
            Box::new(model),
            fed,
            Box::new(FabTopK::new()),
            SimulationConfig {
                learning_rate: 0.05,
                batch_size: 8,
                time_model: TimeModel::normalized(5.0),
                seed,
                parallelism,
                wire: None,
                fault: None,
                cohort: Some(cohort),
            },
        )
    }

    /// Partial participation basics: reports carry the sampled members in
    /// ascending order, contributions stay parallel to the cohort, every
    /// client is eventually drawn, and the persistent population grows only
    /// with touched clients.
    #[test]
    fn sampled_cohorts_report_members_and_grow_population_lazily() {
        let mut sim = tiny_cohort_sim(21, 3, Parallelism::Serial);
        let n = sim.num_clients();
        assert!(n > 3, "tiny dataset must be larger than the cohort");
        assert_eq!(sim.cohort_size(), 3);
        assert_eq!(sim.resident_clients(), 0);
        let mut seen = vec![false; n];
        for _ in 0..40 {
            let report = sim.run_round(8, None);
            assert_eq!(report.cohort.len(), 3);
            assert_eq!(report.contributions.len(), 3);
            assert!(report.cohort.windows(2).all(|w| w[0] < w[1]));
            assert!(report.cohort.iter().all(|&id| id < n));
            for &id in &report.cohort {
                seen[id] = true;
            }
            let touched = seen.iter().filter(|&&s| s).count();
            assert_eq!(sim.resident_clients(), touched);
        }
        assert!(seen.iter().all(|&s| s), "sampler starves some clients");
    }

    /// Cohort-sampled rounds are bit-identical for every worker count,
    /// probes included — parallelism stays a pure wall-clock knob under
    /// partial participation.
    #[test]
    fn sampled_cohort_runs_are_identical_across_worker_counts() {
        let mut serial = tiny_cohort_sim(27, 3, Parallelism::Serial);
        let mut runs: Vec<Simulation> = [2, 4, 8]
            .iter()
            .map(|&t| tiny_cohort_sim(27, 3, Parallelism::Threads(t)))
            .collect();
        for round in 0..6 {
            let probe = (round % 2 == 0).then_some(4);
            let reference = serial.run_round(8, probe);
            for sim in &mut runs {
                assert_eq!(sim.run_round(8, probe), reference, "round {round}");
            }
        }
        for sim in &runs {
            assert_eq!(sim.params(), serial.params());
        }
    }

    /// Wired, fault-injected cohort rounds keep the same determinism
    /// contract: byte pricing, retries, and outages are all decided by the
    /// serially drawn plan, never the worker schedule.
    #[test]
    fn wired_fault_cohort_runs_are_identical_across_worker_counts() {
        let build = |parallelism| {
            let mut rng = ChaCha8Rng::seed_from_u64(29);
            let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
            let model = LinearSoftmax::new(fed.feature_dim(), fed.num_classes());
            let channel = uniform_channel(fed.num_clients());
            Simulation::new(
                Box::new(model),
                fed,
                Box::new(FubTopK::new()),
                SimulationConfig {
                    learning_rate: 0.05,
                    batch_size: 8,
                    time_model: TimeModel::normalized(5.0),
                    seed: 29,
                    parallelism,
                    wire: Some(WireConfig {
                        codec: agsfl_wire::CodecSpec::Auto,
                        channel,
                    }),
                    fault: Some(chaos_model(29)),
                    cohort: Some(3),
                },
            )
        };
        let mut serial = build(Parallelism::Serial);
        let mut parallel = build(Parallelism::Threads(4));
        for round in 0..8 {
            let rs = serial.run_round(8, None);
            let rp = parallel.run_round(8, None);
            assert_eq!(rs, rp, "round {round}");
        }
        assert_eq!(serial.params(), parallel.params());
    }

    /// Checkpoint/resume under cohort sampling is bit-identical to the
    /// uninterrupted run at every interrupt point — the snapshot carries
    /// the cohort stream and exactly the resident population rows.
    #[test]
    fn sampled_cohort_resume_is_bit_identical() {
        let mut reference = tiny_cohort_sim(33, 3, Parallelism::Auto);
        let mut reports = Vec::new();
        for round in 0..8 {
            let probe = (round % 2 == 0).then_some(4);
            reports.push(reference.run_round(8, probe));
        }
        for interrupt in [0usize, 1, 3, 7] {
            let mut sim = tiny_cohort_sim(33, 3, Parallelism::Auto);
            for round in 0..interrupt {
                let probe = (round % 2 == 0).then_some(4);
                sim.run_round(8, probe);
            }
            let bytes = sim.save_state();
            let mut resumed = tiny_cohort_sim(33, 3, Parallelism::Serial);
            resumed.restore_state(&bytes).unwrap();
            for (round, report) in reports.iter().enumerate().skip(interrupt) {
                let probe = (round % 2 == 0).then_some(4);
                assert_eq!(
                    &resumed.run_round(8, probe),
                    report,
                    "interrupt {interrupt}, round {round}"
                );
            }
            assert_eq!(
                resumed.params(),
                reference.params(),
                "interrupt {interrupt}"
            );
        }
    }

    /// The v2 format explicitly rejects v1 blobs (the dense per-client
    /// layout cannot be reinterpreted as population rows) and a snapshot
    /// from a different cohort size fails the fingerprint.
    #[test]
    fn restore_rejects_v1_blobs_and_cohort_mismatch() {
        let mut w = SnapshotWriter::new();
        w.header(SIM_MAGIC, 1);
        let v1 = w.into_bytes();
        let mut target = tiny_cohort_sim(40, 3, Parallelism::Serial);
        assert_eq!(
            target.restore_state(&v1),
            Err(SnapshotError::UnsupportedVersion(1))
        );

        let mut donor = tiny_cohort_sim(41, 3, Parallelism::Serial);
        donor.run_round(8, None);
        let bytes = donor.save_state();
        let mut other = tiny_cohort_sim(41, 4, Parallelism::Serial);
        assert_eq!(
            other.restore_state(&bytes),
            Err(SnapshotError::Mismatch {
                field: "cohort size"
            })
        );
    }

    /// A lazy [`ShardSource`] behind `with_source` is indistinguishable
    /// from an eager dataset holding the same bytes: identical round
    /// reports, identical weights, and the streamed evaluation sweeps are
    /// bit-identical to the eager parallel ones.
    #[test]
    fn lazy_source_matches_eager_dataset_with_same_shards() {
        use agsfl_ml::data::LazySyntheticFemnist;

        let cfg = SyntheticFemnistConfig::tiny();
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(4),
            Parallelism::Threads(8),
        ] {
            let src = LazySyntheticFemnist::new(cfg, 5);
            let n = ShardSource::num_clients(&src);
            let mut shards = Vec::new();
            for i in 0..n {
                let mut shard = ClientShard::empty(cfg.feature_dim);
                src.materialize_into(i, &mut shard);
                shards.push(shard);
            }
            let fed = FederatedDataset::new(shards, src.test().clone(), cfg.num_classes);
            let config = SimulationConfig {
                learning_rate: 0.05,
                batch_size: 8,
                time_model: TimeModel::normalized(5.0),
                seed: 5,
                parallelism,
                wire: None,
                fault: None,
                cohort: Some(4),
            };
            let mut lazy = Simulation::with_source(
                Box::new(LinearSoftmax::new(cfg.feature_dim, cfg.num_classes)),
                Box::new(src),
                Box::new(FabTopK::new()),
                config.clone(),
            );
            let mut eager = Simulation::new(
                Box::new(LinearSoftmax::new(cfg.feature_dim, cfg.num_classes)),
                fed,
                Box::new(FabTopK::new()),
                config,
            );
            for round in 0..5 {
                let probe = (round % 2 == 0).then_some(4);
                assert_eq!(
                    lazy.run_round(8, probe),
                    eager.run_round(8, probe),
                    "round {round} under {parallelism:?}"
                );
            }
            assert_eq!(lazy.params(), eager.params());
            let (le, ee) = (lazy.evaluate(), eager.evaluate());
            assert_eq!(le.train_loss.to_bits(), ee.train_loss.to_bits());
            assert_eq!(le.train_accuracy.to_bits(), ee.train_accuracy.to_bits());
            assert_eq!(le.test_accuracy.to_bits(), ee.test_accuracy.to_bits());
            for sim in [&lazy, &eager] {
                assert_eq!(
                    sim.global_train_loss().to_bits(),
                    (le.train_loss as f64).to_bits(),
                    "{parallelism:?}"
                );
                assert_eq!(
                    sim.test_accuracy().to_bits(),
                    (le.test_accuracy as f64).to_bits(),
                    "{parallelism:?}"
                );
            }
        }
    }
}
