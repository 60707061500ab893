//! Declarative experiment configuration.

use agsfl_exec::Parallelism;
use agsfl_fl::{ChannelModel, ClientLink, FaultConfigError, FaultModel, WireConfig};
use agsfl_ml::data::{
    FederatedDataset, SyntheticCifar, SyntheticCifarConfig, SyntheticFemnist,
    SyntheticFemnistConfig,
};
use agsfl_ml::model::{Mlp, Model, SimpleCnn};
use agsfl_sparse::{FabTopK, FubTopK, PeriodicK, SendAll, Sparsifier, UnidirectionalTopK};
use agsfl_wire::CodecSpec;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Which federated dataset to generate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DatasetSpec {
    /// Synthetic FEMNIST-like dataset (writer-partitioned, 62 classes by
    /// default). See [`SyntheticFemnistConfig`].
    Femnist(SyntheticFemnistConfig),
    /// Synthetic CIFAR-10-like dataset with the one-class-per-client
    /// partition. See [`SyntheticCifarConfig`].
    Cifar(SyntheticCifarConfig),
}

impl DatasetSpec {
    /// A small FEMNIST setup for tests, examples and fast benchmarks.
    pub fn femnist_tiny() -> Self {
        Self::Femnist(SyntheticFemnistConfig::tiny())
    }

    /// A mid-sized FEMNIST setup used by the benchmark harness: enough
    /// clients and classes to show the paper's effects while keeping every
    /// figure regenerable in seconds. The noise and writer-shift levels are
    /// chosen so the task does not saturate within the benchmark time
    /// budgets (mirroring the paper's harder 62-class problem).
    pub fn femnist_bench() -> Self {
        Self::Femnist(SyntheticFemnistConfig {
            num_clients: 40,
            samples_per_client: 60,
            feature_dim: 48,
            num_classes: 30,
            classes_per_client: 6,
            writer_shift_std: 0.6,
            noise_std: 0.7,
            test_samples: 400,
        })
    }

    /// A small CIFAR-10 setup for tests and fast benchmarks.
    pub fn cifar_bench() -> Self {
        Self::Cifar(SyntheticCifarConfig {
            num_clients: 30,
            num_classes: 10,
            train_samples: 1_800,
            test_samples: 300,
            feature_dim: 48,
            noise_std: 0.7,
        })
    }

    /// Number of classes of the generated dataset.
    pub fn num_classes(&self) -> usize {
        match self {
            Self::Femnist(cfg) => cfg.num_classes,
            Self::Cifar(cfg) => cfg.num_classes,
        }
    }

    /// Feature dimension of the generated dataset.
    pub fn feature_dim(&self) -> usize {
        match self {
            Self::Femnist(cfg) => cfg.feature_dim,
            Self::Cifar(cfg) => cfg.feature_dim,
        }
    }

    /// Generates the dataset.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> FederatedDataset {
        match self {
            Self::Femnist(cfg) => SyntheticFemnist::new(*cfg).generate(rng),
            Self::Cifar(cfg) => SyntheticCifar::new(*cfg).generate(rng),
        }
    }
}

/// Which model architecture to train.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// Multinomial logistic regression: an [`agsfl_ml::model::Mlp`] with no
    /// hidden layer.
    Linear,
    /// Multi-layer perceptron with the given hidden widths.
    Mlp {
        /// Hidden layer widths.
        hidden: Vec<usize>,
    },
    /// The small CNN; the feature dimension must equal
    /// `channels · height · width`.
    Cnn {
        /// Input channels.
        channels: usize,
        /// Input height.
        height: usize,
        /// Input width.
        width: usize,
        /// Number of 3x3 filters.
        filters: usize,
    },
}

impl ModelSpec {
    /// Instantiates the model for the given input dimension and class count.
    ///
    /// # Panics
    ///
    /// Panics if a [`ModelSpec::Cnn`] spec does not match `input_dim`.
    pub fn build(&self, input_dim: usize, num_classes: usize) -> Box<dyn Model> {
        match self {
            Self::Linear => Box::new(Mlp::new(input_dim, &[], num_classes)),
            Self::Mlp { hidden } => Box::new(Mlp::new(input_dim, hidden, num_classes)),
            Self::Cnn {
                channels,
                height,
                width,
                filters,
            } => {
                assert_eq!(
                    channels * height * width,
                    input_dim,
                    "CNN spec {}x{}x{} does not match input dim {}",
                    channels,
                    height,
                    width,
                    input_dim
                );
                Box::new(SimpleCnn::new(
                    *channels,
                    *height,
                    *width,
                    *filters,
                    num_classes,
                ))
            }
        }
    }
}

/// Which gradient sparsification method the server/clients use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SparsifierSpec {
    /// The paper's fairness-aware bidirectional top-k.
    FabTopK,
    /// Fairness-unaware bidirectional top-k.
    FubTopK,
    /// Unidirectional top-k (downlink up to `kN` elements).
    UnidirectionalTopK,
    /// Random `k` coordinates per round.
    PeriodicK,
    /// Dense exchange every round.
    SendAll,
}

impl SparsifierSpec {
    /// Instantiates the sparsifier.
    pub fn build(&self) -> Box<dyn Sparsifier> {
        match self {
            Self::FabTopK => Box::new(FabTopK::new()),
            Self::FubTopK => Box::new(FubTopK::new()),
            Self::UnidirectionalTopK => Box::new(UnidirectionalTopK::new()),
            Self::PeriodicK => Box::new(PeriodicK::new()),
            Self::SendAll => Box::new(SendAll::new()),
        }
    }

    /// All sparsifier variants compared in Fig. 4, in the paper's order.
    pub fn all() -> [SparsifierSpec; 5] {
        [
            Self::FabTopK,
            Self::FubTopK,
            Self::UnidirectionalTopK,
            Self::PeriodicK,
            Self::SendAll,
        ]
    }

    /// Human-readable name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Self::FabTopK => "FAB-top-k",
            Self::FubTopK => "FUB-top-k",
            Self::UnidirectionalTopK => "Unidirectional top-k",
            Self::PeriodicK => "Periodic-k",
            Self::SendAll => "Always send all",
        }
    }
}

/// Optional sinusoidal bandwidth fluctuation of a [`ChannelSpec`]: client
/// `i`'s bandwidths in round `m` are scaled by
/// `1 − depth · (1 + sin(2π(m/period + i/N))) / 2`, i.e. they oscillate
/// between full capacity and `1 − depth` of it with per-client phase
/// offsets (clients don't all fade at once). Deterministic by construction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fluctuation {
    /// Period of the oscillation in rounds.
    pub period: usize,
    /// Peak-to-trough depth in `(0, 1)`; `0.75` means bandwidth dips to a
    /// quarter of nominal.
    pub depth: f64,
}

/// Declarative description of the per-client channel a byte-priced
/// experiment runs over; [`ChannelSpec::build`] turns it into the concrete
/// [`ChannelModel`] once the client count is known.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelSpec {
    /// Nominal uplink capacity in bytes per normalized time unit.
    pub uplink_bytes_per_unit: f64,
    /// Nominal downlink capacity in bytes per normalized time unit.
    pub downlink_bytes_per_unit: f64,
    /// Fixed per-message latency in normalized time units.
    pub latency: f64,
    /// Per-client heterogeneity: each client's bandwidths are scaled by a
    /// factor drawn log-uniformly from `[1/spread, spread]` (seeded from
    /// the experiment seed, so deterministic). `1.0` = homogeneous.
    pub spread: f64,
    /// Optional per-round bandwidth fluctuation.
    pub fluctuation: Option<Fluctuation>,
}

impl ChannelSpec {
    /// A homogeneous, static channel.
    pub fn uniform(uplink_bytes_per_unit: f64, downlink_bytes_per_unit: f64, latency: f64) -> Self {
        Self {
            uplink_bytes_per_unit,
            downlink_bytes_per_unit,
            latency,
            spread: 1.0,
            fluctuation: None,
        }
    }

    /// Adds log-uniform per-client bandwidth heterogeneity.
    pub fn with_spread(mut self, spread: f64) -> Self {
        assert!(spread >= 1.0, "spread must be >= 1");
        self.spread = spread;
        self
    }

    /// Adds a sinusoidal per-round bandwidth fluctuation.
    pub fn with_fluctuation(mut self, period: usize, depth: f64) -> Self {
        assert!(period > 0, "fluctuation period must be positive");
        assert!((0.0..1.0).contains(&depth), "depth must be in [0, 1)");
        self.fluctuation = Some(Fluctuation { period, depth });
        self
    }

    /// Builds the concrete [`ChannelModel`] for `num_clients` clients.
    /// Per-client heterogeneity is drawn from a ChaCha8 stream derived from
    /// `seed`, so the same spec + seed always yields the same channel.
    ///
    /// # Panics
    ///
    /// Panics if the spec is out of range (`spread < 1`, a fluctuation with
    /// `period == 0` or `depth` outside `[0, 1)`). The builder methods
    /// already enforce these, but the fields are public and the spec is
    /// deserializable, so the ranges are re-checked here — a bad spec must
    /// not silently build a misbehaving channel.
    pub fn build(&self, num_clients: usize, seed: u64) -> ChannelModel {
        assert!(self.spread >= 1.0, "spread must be >= 1");
        if let Some(Fluctuation { period, depth }) = self.fluctuation {
            assert!(period > 0, "fluctuation period must be positive");
            assert!((0.0..1.0).contains(&depth), "depth must be in [0, 1)");
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x00C0_FFEE_A11C_E5E5);
        let links = (0..num_clients)
            .map(|_| {
                let factor = if self.spread > 1.0 {
                    let ln = self.spread.ln();
                    rng.gen_range(-ln..ln).exp()
                } else {
                    1.0
                };
                ClientLink::new(
                    self.uplink_bytes_per_unit * factor,
                    self.downlink_bytes_per_unit * factor,
                    self.latency,
                )
            })
            .collect();
        let model = ChannelModel::new(1.0, links);
        match self.fluctuation {
            None => model,
            Some(Fluctuation { period, depth }) => {
                let trace = (0..period)
                    .map(|m| {
                        (0..num_clients)
                            .map(|i| {
                                let phase =
                                    m as f64 / period as f64 + i as f64 / num_clients.max(1) as f64;
                                let wave = (1.0 + (2.0 * std::f64::consts::PI * phase).sin()) / 2.0;
                                1.0 - depth * wave
                            })
                            .collect()
                    })
                    .collect();
                model.with_trace(trace)
            }
        }
    }
}

/// Byte-priced exchange settings of an [`ExperimentConfig`]: which codec
/// frames the messages and what channel they cross. When present, round
/// times come from the channel model instead of the `comm_time` scalar
/// proxy (training trajectories are unaffected — the codecs are lossless).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WireSpec {
    /// The wire codec.
    pub codec: CodecSpec,
    /// The channel description.
    pub channel: ChannelSpec,
}

impl WireSpec {
    /// Builds the simulator-level [`WireConfig`] for a concrete client
    /// count and seed.
    pub fn build(&self, num_clients: usize, seed: u64) -> WireConfig {
        WireConfig {
            codec: self.codec,
            channel: self.channel.build(num_clients, seed),
        }
    }
}

/// Full description of one experiment workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// The federated dataset.
    pub dataset: DatasetSpec,
    /// The model architecture.
    pub model: ModelSpec,
    /// The sparsification method (FAB-top-k unless an experiment compares
    /// methods).
    pub sparsifier: SparsifierSpec,
    /// SGD step size `η`.
    pub learning_rate: f32,
    /// Mini-batch size per client.
    pub batch_size: usize,
    /// Normalized communication time `β` of a full-gradient exchange.
    pub comm_time: f64,
    /// Evaluate global loss / test accuracy every this many rounds.
    pub eval_every: usize,
    /// Master seed controlling dataset generation, initialization, mini-batch
    /// sampling and stochastic rounding.
    pub seed: u64,
    /// Worker-thread policy for the round engine. Purely a wall-clock knob:
    /// results are bit-identical for every setting (the simulator's
    /// determinism invariant), so sweeps may mix serial and parallel runs.
    pub parallelism: Parallelism,
    /// Optional byte-priced exchange (wire codec + channel model). When
    /// set, `comm_time` is ignored for round pricing — the channel is the
    /// cost signal; training trajectories stay bit-identical either way.
    pub wire: Option<WireSpec>,
    /// Optional seeded fault model: client dropout, crash outages,
    /// stragglers, wire-frame corruption with bounded retries, and a round
    /// deadline. Wire-level faults (corruption, retries, deadline pricing)
    /// require [`ExperimentConfig::wire`] to be set.
    pub fault: Option<FaultModel>,
    /// Optional cohort size: each round samples this many clients without
    /// replacement from the population and only their state is resident.
    /// `None` (the default) runs every client every round; `Some(c)` with
    /// `c >= num_clients` is equivalent to `None` bit-for-bit.
    pub cohort: Option<usize>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            dataset: DatasetSpec::femnist_bench(),
            model: ModelSpec::Mlp { hidden: vec![32] },
            sparsifier: SparsifierSpec::FabTopK,
            learning_rate: 0.01,
            batch_size: 32,
            comm_time: 10.0,
            eval_every: 10,
            seed: 0,
            parallelism: Parallelism::Auto,
            wire: None,
            fault: None,
            cohort: None,
        }
    }
}

/// Typed validation error for an [`ExperimentConfig`].
///
/// Returned by [`ExperimentConfig::try_validate`] and
/// [`ExperimentConfigBuilder::try_build`], so a bad configuration surfaces
/// as a value at build time instead of a panic mid-run.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The learning rate is zero, negative, or not finite.
    InvalidLearningRate,
    /// The mini-batch size is zero.
    ZeroBatchSize,
    /// The scalar communication time is negative or not finite.
    InvalidCommTime,
    /// The evaluation cadence is zero.
    ZeroEvalEvery,
    /// The sampled cohort size is zero.
    ZeroCohort,
    /// The fault model is out of range or needs a wire configuration.
    Fault(FaultConfigError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidLearningRate => write!(f, "learning rate must be positive and finite"),
            Self::ZeroBatchSize => write!(f, "batch size must be positive"),
            Self::InvalidCommTime => write!(f, "comm time must be non-negative and finite"),
            Self::ZeroEvalEvery => write!(f, "eval_every must be positive"),
            Self::ZeroCohort => write!(f, "cohort size must be positive when set"),
            Self::Fault(e) => write!(f, "invalid fault model: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FaultConfigError> for ConfigError {
    fn from(e: FaultConfigError) -> Self {
        Self::Fault(e)
    }
}

impl ExperimentConfig {
    /// Starts a builder pre-populated with the defaults.
    pub fn builder() -> ExperimentConfigBuilder {
        ExperimentConfigBuilder {
            config: Self::default(),
        }
    }

    /// Validates the configuration, returning a typed error on the first
    /// out-of-range field.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if !(self.learning_rate > 0.0 && self.learning_rate.is_finite()) {
            return Err(ConfigError::InvalidLearningRate);
        }
        if self.batch_size == 0 {
            return Err(ConfigError::ZeroBatchSize);
        }
        if !(self.comm_time >= 0.0 && self.comm_time.is_finite()) {
            return Err(ConfigError::InvalidCommTime);
        }
        if self.eval_every == 0 {
            return Err(ConfigError::ZeroEvalEvery);
        }
        if self.cohort == Some(0) {
            return Err(ConfigError::ZeroCohort);
        }
        if let Some(fault) = &self.fault {
            fault.validate(self.wire.is_some())?;
        }
        Ok(())
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if a field is out of range; [`ExperimentConfig::try_validate`]
    /// is the non-panicking form.
    pub fn validate(&self) {
        if let Err(error) = self.try_validate() {
            panic!("invalid experiment config: {error}");
        }
    }
}

/// Non-consuming builder for [`ExperimentConfig`].
#[derive(Debug, Clone)]
pub struct ExperimentConfigBuilder {
    config: ExperimentConfig,
}

impl ExperimentConfigBuilder {
    /// Sets the dataset.
    pub fn dataset(mut self, dataset: DatasetSpec) -> Self {
        self.config.dataset = dataset;
        self
    }

    /// Sets the model.
    pub fn model(mut self, model: ModelSpec) -> Self {
        self.config.model = model;
        self
    }

    /// Sets the sparsifier.
    pub fn sparsifier(mut self, sparsifier: SparsifierSpec) -> Self {
        self.config.sparsifier = sparsifier;
        self
    }

    /// Sets the learning rate.
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.config.learning_rate = lr;
        self
    }

    /// Sets the mini-batch size.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.batch_size = batch_size;
        self
    }

    /// Sets the normalized communication time `β`.
    pub fn comm_time(mut self, comm_time: f64) -> Self {
        self.config.comm_time = comm_time;
        self
    }

    /// Sets the evaluation cadence.
    pub fn eval_every(mut self, eval_every: usize) -> Self {
        self.config.eval_every = eval_every;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the worker-thread policy for the round engine.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Switches the experiment onto the byte-priced exchange path.
    pub fn wire(mut self, wire: WireSpec) -> Self {
        self.config.wire = Some(wire);
        self
    }

    /// Enables fault injection with the given model.
    pub fn fault(mut self, fault: FaultModel) -> Self {
        self.config.fault = Some(fault);
        self
    }

    /// Samples a cohort of this many clients each round instead of running
    /// the full population.
    pub fn cohort(mut self, cohort: usize) -> Self {
        self.config.cohort = Some(cohort);
        self
    }

    /// Finalizes the configuration, returning a typed error if any field is
    /// out of range.
    pub fn try_build(self) -> Result<ExperimentConfig, ConfigError> {
        self.config.try_validate()?;
        Ok(self.config)
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid;
    /// [`ExperimentConfigBuilder::try_build`] is the non-panicking form.
    pub fn build(self) -> ExperimentConfig {
        match self.try_build() {
            Ok(config) => config,
            Err(error) => panic!("invalid experiment config: {error}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn builder_overrides_fields() {
        let cfg = ExperimentConfig::builder()
            .comm_time(100.0)
            .seed(9)
            .learning_rate(0.05)
            .batch_size(16)
            .eval_every(5)
            .sparsifier(SparsifierSpec::FubTopK)
            .build();
        assert_eq!(cfg.comm_time, 100.0);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.learning_rate, 0.05);
        assert_eq!(cfg.batch_size, 16);
        assert_eq!(cfg.eval_every, 5);
        assert_eq!(cfg.sparsifier, SparsifierSpec::FubTopK);
    }

    #[test]
    #[should_panic]
    fn invalid_learning_rate_panics() {
        let _ = ExperimentConfig::builder().learning_rate(0.0).build();
    }

    #[test]
    fn try_build_returns_typed_errors() {
        assert_eq!(
            ExperimentConfig::builder().learning_rate(-1.0).try_build(),
            Err(ConfigError::InvalidLearningRate)
        );
        assert_eq!(
            ExperimentConfig::builder().batch_size(0).try_build(),
            Err(ConfigError::ZeroBatchSize)
        );
        assert_eq!(
            ExperimentConfig::builder().comm_time(f64::NAN).try_build(),
            Err(ConfigError::InvalidCommTime)
        );
        assert_eq!(
            ExperimentConfig::builder().eval_every(0).try_build(),
            Err(ConfigError::ZeroEvalEvery)
        );
        assert!(ExperimentConfig::builder().try_build().is_ok());
    }

    #[test]
    fn wire_dependent_faults_need_a_wire_spec() {
        let fault = FaultModel {
            corrupt_prob: 0.1,
            ..FaultModel::default()
        };
        let err = ExperimentConfig::builder()
            .fault(fault.clone())
            .try_build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::Fault(FaultConfigError::RequiresWire("corrupt_prob"))
        );
        // The same model is fine once a wire spec prices the bytes.
        let ok = ExperimentConfig::builder()
            .fault(fault)
            .wire(WireSpec {
                codec: CodecSpec::Auto,
                channel: ChannelSpec::uniform(500.0, 500.0, 0.0),
            })
            .try_build();
        assert!(ok.is_ok());
    }

    #[test]
    fn out_of_range_fault_probability_is_a_typed_error() {
        let fault = FaultModel {
            drop_prob: 1.5,
            ..FaultModel::default()
        };
        assert!(matches!(
            ExperimentConfig::builder().fault(fault).try_build(),
            Err(ConfigError::Fault(
                FaultConfigError::ProbabilityOutOfRange {
                    field: "drop_prob",
                    ..
                }
            ))
        ));
    }

    #[test]
    fn dataset_specs_generate_consistent_dimensions() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for spec in [DatasetSpec::femnist_tiny(), DatasetSpec::cifar_bench()] {
            let fed = spec.generate(&mut rng);
            assert_eq!(fed.num_classes(), spec.num_classes());
            assert_eq!(fed.feature_dim(), spec.feature_dim());
        }
    }

    #[test]
    fn model_specs_build_expected_architectures() {
        let linear = ModelSpec::Linear.build(10, 4);
        assert_eq!(linear.num_params(), 44);
        let mlp = ModelSpec::Mlp { hidden: vec![8] }.build(10, 4);
        assert_eq!(mlp.num_params(), 10 * 8 + 8 + 8 * 4 + 4);
        let cnn = ModelSpec::Cnn {
            channels: 1,
            height: 6,
            width: 6,
            filters: 2,
        }
        .build(36, 3);
        assert!(cnn.num_params() > 0);
    }

    #[test]
    #[should_panic]
    fn cnn_spec_dimension_mismatch_panics() {
        let _ = ModelSpec::Cnn {
            channels: 1,
            height: 6,
            width: 6,
            filters: 2,
        }
        .build(35, 3);
    }

    #[test]
    fn sparsifier_specs_build_and_name() {
        for spec in SparsifierSpec::all() {
            let sparsifier = spec.build();
            assert_eq!(sparsifier.name(), spec.name());
        }
    }

    #[test]
    fn channel_spec_builds_deterministically() {
        let spec = ChannelSpec::uniform(1_000.0, 2_000.0, 0.1).with_spread(4.0);
        let a = spec.build(6, 9);
        let b = spec.build(6, 9);
        assert_eq!(a, b, "same spec + seed must build the same channel");
        let c = spec.build(6, 10);
        assert_ne!(a, c, "different seeds draw different heterogeneity");
        // Spread actually spreads: not all links equal.
        assert!(a
            .links()
            .iter()
            .any(|l| (l.uplink_bytes_per_unit - a.links()[0].uplink_bytes_per_unit).abs() > 1e-9));
    }

    #[test]
    fn fluctuating_channel_has_positive_multipliers() {
        let spec = ChannelSpec::uniform(1_000.0, 1_000.0, 0.0).with_fluctuation(12, 0.75);
        let channel = spec.build(4, 0);
        for round in 0..30 {
            for client in 0..4 {
                let m = channel.multiplier(round, client);
                assert!(m > 0.0 && m <= 1.0, "round {round} client {client}: {m}");
            }
        }
        // The trace actually moves.
        assert_ne!(channel.multiplier(0, 0), channel.multiplier(6, 0));
    }

    #[test]
    fn wire_builder_sets_spec() {
        let cfg = ExperimentConfig::builder()
            .wire(WireSpec {
                codec: CodecSpec::Auto,
                channel: ChannelSpec::uniform(500.0, 500.0, 0.0),
            })
            .build();
        let wire = cfg.wire.expect("wire set");
        assert_eq!(wire.codec, CodecSpec::Auto);
        let built = wire.build(3, 1);
        assert_eq!(built.channel.num_clients(), 3);
    }
}
