//! The synchronized sparse-gradient FL simulation (Algorithm 1): its
//! configuration, its state, and the round as the ordered list of its
//! stages (`crate::stages`).

use agsfl_exec::{Executor, Parallelism};
use agsfl_ml::data::{FederatedDataset, ShardSource};
use agsfl_ml::metrics::GlobalEvaluation;
use agsfl_ml::model::Model;
use agsfl_sparse::{SelectionScratch, Sparsifier};
use agsfl_telemetry::{stage, NoopRecorder, Recorder, SpanId};
use agsfl_wire::Precision;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::channel::ChannelModel;
use crate::fault::{FaultConfigError, FaultModel, FaultState};
use crate::population::{ClientPopulation, Cohort};
use crate::round::RoundReport;
use crate::stages::probe::{self, ProbeWorkspace};
use crate::stages::{bookkeep, broadcast, client_pass, evaluate, hydrate};
use crate::time::TimeModel;
use crate::wire_state::WireState;

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
    /// Worker-thread policy for the round engine's parallel regions: the
    /// client pass, the probe's loss sweep and the evaluation sweep. Server
    /// selection runs on the round thread. Results are bit-identical for
    /// every setting — parallelism only changes wall-clock time.
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
        let has_wire = self.wire.is_some();
        self.fault.as_ref().map_or(Ok(()), |f| f.validate(has_wire))
    }
}

/// What the stages read: the model, the weights, the data, the executor
/// and the configuration. No stage writes it but the broadcast, which
/// advances the weights through `&mut params`.
pub(crate) struct Shared {
    pub model: Box<dyn Model>,
    pub params: Vec<f32>,
    pub source: Box<dyn ShardSource>,
    pub executor: Executor,
    pub config: SimulationConfig,
}

/// A synchronized federated-learning run using sparse gradient aggregation.
///
/// The simulation owns the model architecture, a [`ShardSource`] describing
/// the client population, the persistent per-client state in a
/// `ClientPopulation` (one `ClientState` per client id), a small `Cohort`
/// arena of reusable [`Client`](crate::Client)s, one per cohort member, and
/// a single global weight vector. Keeping one weight vector is sound
/// because every client applies exactly the same downlink update (the
/// paper's synchronization argument for Algorithm 1); an integration test
/// in `tests/` additionally verifies this by replaying updates on
/// independent per-client copies.
///
/// Each round hydrates the sampled cohort into the arena's clients, runs
/// the fused gradient/upload pass over them (a wired member encodes its
/// frame once, into its own encode workspace, where admission, the probe
/// and the broadcast's byte accounting read it), lends each surviving
/// member's finished entry list and ranked key view to the upload arena the
/// server aggregates from (bookkeeping takes them back, so each buffer has
/// one owner, its member), and dehydrates the persistent state back into
/// the population — so resident memory is `O(cohort + touched_clients · dim)`
/// rather than `O(N)`, and the round's buffers are reused: the selection's
/// result goes back into its workspace at the end of the round, so what a
/// steady-state round still allocates is the per-member contribution list
/// and the round report, besides the pool's per-region bookkeeping.
///
/// The fields are the stages' borrow lists' vocabulary: each stage in
/// `crate::stages` takes the ones it reads by `&` and the ones it writes by
/// `&mut`, and the checkpoint format (`crate::checkpoint`) reads and
/// restores the mutable ones.
pub struct Simulation {
    /// The model, the weights, the data, the executor (built once from the
    /// configured [`Parallelism`] and reused by every parallel region) and
    /// the configuration: what every stage reads.
    pub(crate) shared: Shared,
    pub(crate) sparsifier: Box<dyn Sparsifier>,
    /// Persistent per-client state (RNG stream, residual, sampler epoch,
    /// probe bookkeeping), stored only for clients that have participated.
    pub(crate) population: ClientPopulation,
    /// The arena of clients the round's members are hydrated into, and the
    /// aggregation inputs they lend their finished uploads to.
    pub(crate) cohort: Cohort,
    pub(crate) server_rng: ChaCha8Rng,
    /// Dedicated stream for cohort draws; untouched on full-population
    /// rounds so sampling is opt-in without perturbing any other stream.
    pub(crate) cohort_rng: ChaCha8Rng,
    /// Reusable server-side selection workspace: the dense sums the client
    /// pass's admission adds each delivered upload into, and the `J`
    /// bitsets; sized on the first round and reused (including by the
    /// probe's restriction to `J(k')`), and each round's result is recycled
    /// into it, so a steady-state selection allocates nothing. Grow-only,
    /// like every workspace of the round.
    pub(crate) scratch: SelectionScratch,
    pub(crate) probe: ProbeWorkspace,
    /// Byte-priced exchange state, present when the config carries a
    /// [`WireConfig`].
    pub(crate) wire: Option<WireState>,
    /// Fault injector state, present when the config carries a
    /// [`FaultModel`]. Owns its own RNG stream, so its presence never
    /// perturbs the data, client, or server streams.
    pub(crate) fault: Option<FaultState>,
    pub(crate) round: usize,
    pub(crate) elapsed: f64,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("sparsifier", &self.sparsifier.name())
            .field("num_clients", &self.num_clients())
            .field("cohort_slots", &self.cohort_size())
            .field("dim", &self.dim())
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
        config
            .validate()
            .unwrap_or_else(|error| panic!("invalid simulation config: {error}"));
        assert!(
            config.cohort != Some(0),
            "invalid simulation config: cohort size must be positive"
        );
        let (input_dim, feature_dim) = (model.input_dim(), source.feature_dim());
        assert_eq!(
            input_dim, feature_dim,
            "model input dimension {input_dim} does not match dataset feature dimension {feature_dim}"
        );
        assert!(
            model.num_classes() >= source.num_classes(),
            "model has fewer classes than the dataset"
        );
        let num_clients = source.num_clients();
        assert!(num_clients > 0, "population must not be empty");
        let params = model.init_params(&mut ChaCha8Rng::seed_from_u64(config.seed));
        let cohort_size = config.cohort.map_or(num_clients, |c| c.min(num_clients));
        let wire = config.wire.as_ref().map(|w| {
            let covered = w.channel.num_clients();
            assert_eq!(
                covered, num_clients,
                "channel model covers {covered} clients but the dataset has {num_clients}"
            );
            WireState::new(w.codec, config.seed ^ QUANT_STREAM, w.channel.clone())
        });
        Self {
            sparsifier,
            population: ClientPopulation::new(),
            cohort: Cohort::new(cohort_size, params.len(), config.batch_size),
            server_rng: ChaCha8Rng::seed_from_u64(config.seed ^ 0xABCD_EF01),
            cohort_rng: ChaCha8Rng::seed_from_u64(config.seed ^ 0x5EED_C0C0_4071_0001),
            fault: config
                .fault
                .clone()
                .map(|m| FaultState::new(m, num_clients)),
            shared: Shared {
                model,
                params,
                source,
                executor: config.parallelism.build(),
                config,
            },
            scratch: SelectionScratch::new(),
            probe: ProbeWorkspace::default(),
            wire,
            round: 0,
            elapsed: 0.0,
        }
    }

    /// Model dimension `D`.
    pub fn dim(&self) -> usize {
        self.shared.params.len()
    }

    /// Number of clients `N`.
    pub fn num_clients(&self) -> usize {
        self.shared.source.num_clients()
    }

    /// Number of cohort members (the per-round participant count).
    pub fn cohort_size(&self) -> usize {
        self.cohort.members.len()
    }

    /// Number of clients with persistent state resident in the population
    /// (participated online at least once) — the `touched_clients` factor
    /// of the memory bound, exposed for the scale sweep's audits.
    pub fn resident_clients(&self) -> usize {
        self.population.len()
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
        &self.shared.params
    }

    /// The model architecture.
    pub fn model(&self) -> &dyn Model {
        self.shared.model.as_ref()
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.shared.config
    }

    /// The round engine's executor. Exposed so telemetry owners can enable
    /// the worker pool's observation-only metrics
    /// ([`Executor::set_metrics_enabled`]) and snapshot them between
    /// rounds; the executor's scheduling is not otherwise configurable
    /// after construction.
    pub fn executor(&self) -> &Executor {
        &self.shared.executor
    }

    /// The shard source driving this run.
    pub fn source(&self) -> &dyn ShardSource {
        self.shared.source.as_ref()
    }

    /// Global training loss `L(w)` over all client data at the current
    /// weights: the evaluation sweep restricted to the client shards.
    pub fn global_train_loss(&self) -> f64 {
        evaluate::sweep(&self.shared, true, false).train_loss as f64
    }

    /// Test-set accuracy at the current weights: the evaluation sweep
    /// restricted to the test set.
    pub fn test_accuracy(&self) -> f64 {
        evaluate::sweep(&self.shared, false, true).test_accuracy as f64
    }

    /// Everything an evaluation point reports — global train loss, global
    /// train accuracy and test accuracy — from **one** fused parallel sweep
    /// over one work list, so an `eval_every` point spawns a single worker
    /// region and forwards every client shard exactly once. Over a lazy
    /// source the train metrics stream shard by shard instead, on the
    /// calling thread: each shard is materialized once and forwarded once
    /// for both its loss and its accuracy.
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
        stage(rec, SpanId::Evaluate, || {
            evaluate::sweep(&self.shared, true, true)
        })
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
    ///
    /// [`ProbeReport`]: crate::ProbeReport
    pub fn run_round(&mut self, k: usize, probe_k: Option<usize>) -> RoundReport {
        self.run_round_recorded(k, probe_k, &mut NoopRecorder)
    }

    /// [`Simulation::run_round`] with round-stage telemetry.
    ///
    /// The body is Algorithm 1 as the ordered list of its stages, each
    /// timed into a [`SpanId`] span: hydration, the fused client pass with
    /// its in-order server admission (nested in [`SpanId::ClientPass`]:
    /// [`SpanId::WireFault`], admission's time on this thread, and
    /// [`SpanId::ServerDecode`], the workers' decode + rank time summed
    /// over the members), selection, the probe, the broadcast apply, and
    /// the bookkeeping that ends with the downlink pricing
    /// ([`SpanId::DownlinkPricing`] nests inside [`SpanId::Bookkeeping`]).
    /// Each stage's arguments are the fields it borrows. A faulty round is
    /// the same round over the surviving subset — there is one engine, and
    /// a clean round is the one where every member is admitted. The
    /// recorder sees only the spans: the round's deterministic facts
    /// (cohort, wire bytes, fault counts) are the returned report's.
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

        // (0) Cohort draw, fault plans, member binding.
        let cohort = stage(rec, SpanId::Hydrate, || {
            hydrate::bind_cohort(
                &self.shared,
                round_idx,
                &mut self.cohort_rng,
                self.fault.as_mut(),
                &mut self.population,
                &mut self.cohort.members,
            )
        });

        // (1) Lines 4–6 on the pool, the server's admission of each
        // finished upload on this thread, which adds it into the round's
        // sums.
        let upload_plan = self.sparsifier.upload_plan(dim, k, &mut self.server_rng);
        let (train_loss, uplink_phase, fault_report) = client_pass::client_pass(
            rec,
            &self.shared,
            round_idx,
            k,
            &upload_plan,
            self.wire.as_ref(),
            &mut self.cohort,
            &mut self.scratch,
        );

        // (2) Server selection from the admitted sums, on this thread: pick
        // J, gather its sums.
        let selection = stage(rec, SpanId::Selection, || {
            self.sparsifier
                .select_accumulated(self.cohort.delivered(), dim, k, &mut self.scratch)
        });
        #[cfg(test)]
        crate::fixture::record_selection(self.cohort.delivered(), &selection);

        // Optional probe for the derivative-sign estimator.
        let probe = stage(rec, SpanId::Probe, || {
            probe::probe(
                &self.shared,
                self.sparsifier.as_ref(),
                round_idx,
                k,
                probe_k,
                &selection,
                &self.cohort,
                &mut self.scratch,
                &mut self.probe,
                self.wire.as_mut(),
            )
        });

        // (3) Downlink: every client applies the identical sparse update.
        let (time_before_downlink, wire_report) = stage(rec, SpanId::BroadcastApply, || {
            broadcast::apply_broadcast(
                &self.shared.config,
                &mut self.shared.params,
                self.wire.as_mut(),
                &selection,
                &self.cohort,
                uplink_phase,
            )
        });

        // (4) End-of-round bookkeeping, then the broadcast pricing.
        let (contributions, downlink_time) = bookkeep::bookkeep(
            rec,
            &self.shared,
            round_idx,
            &selection,
            wire_report.as_ref().map(|w| w.downlink_bytes),
            self.wire.as_ref(),
            &mut self.cohort,
            &mut self.population,
        );
        let round_time = time_before_downlink + downlink_time;
        self.elapsed += round_time;
        let (downlink_elements, max_uplink_scalars) = (
            selection.downlink_elements(),
            selection.max_uplink_scalars(),
        );
        self.scratch.recycle(selection);

        RoundReport {
            round: self.round,
            k_used: k,
            train_loss,
            round_time,
            elapsed_time: self.elapsed,
            downlink_elements,
            max_uplink_scalars,
            cohort,
            contributions,
            probe,
            wire: wire_report,
            fault: fault_report,
        }
    }
}

/// XOR tweak deriving the quantization RNG stream's seed from the config
/// seed — its own stream, like the server (`^ 0xABCD_EF01`) and cohort
/// (`^ 0x5EED_C0C0_4071_0001`) streams, so enabling a lossy tier never
/// perturbs any other stream.
const QUANT_STREAM: u64 = 0x051A_771F_ED0C_0DEC;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{tiny_sim, SPARSIFIERS};
    use agsfl_sparse::{FabTopK, FubTopK, PeriodicK};

    #[test]
    fn round_advances_time_and_counter() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 0, |c, _| {
            c.time_model = TimeModel::normalized(10.0)
        });
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
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 1, |c, _| {
            c.time_model = TimeModel::normalized(1.0)
        });
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
    fn identical_seeds_give_identical_runs() {
        let mut a = tiny_sim(Box::new(FubTopK::new()), 9, |_, _| {});
        let mut b = tiny_sim(Box::new(FubTopK::new()), 9, |_, _| {});
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
        for (which, make) in SPARSIFIERS.into_iter().enumerate() {
            let seed = 40 + which as u64;
            let mut serial = tiny_sim(make(), seed, |c, _| c.parallelism = Parallelism::Serial);
            let mut parallel =
                tiny_sim(make(), seed, |c, _| c.parallelism = Parallelism::Threads(4));
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

    #[test]
    fn periodic_sparsifier_runs() {
        let mut sim = tiny_sim(Box::new(PeriodicK::new()), 5, |c, _| {
            c.time_model = TimeModel::normalized(10.0)
        });
        let report = sim.run_round(sim.dim() / 10, None);
        assert_eq!(report.downlink_elements, sim.dim() / 10);
    }

    #[test]
    #[should_panic]
    fn zero_k_panics() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 6, |c, _| {
            c.time_model = TimeModel::normalized(1.0)
        });
        let _ = sim.run_round(0, None);
    }

    /// Misconfigured fault models are rejected before the run starts.
    #[test]
    #[should_panic(expected = "invalid simulation config")]
    fn invalid_fault_config_panics_at_construction() {
        let _ = tiny_sim(Box::new(FabTopK::new()), 155, |c, _| {
            c.fault = Some(FaultModel {
                corrupt_prob: 0.5, // requires a wire configuration
                ..FaultModel::default()
            })
        });
    }
}
