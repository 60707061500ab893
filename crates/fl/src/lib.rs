//! Federated-learning simulator with sparse gradient aggregation.
//!
//! This crate drives Algorithm 1 of the paper: in every round `m` each client
//! adds its freshly computed local mini-batch gradient to its residual
//! accumulator, uploads a sparse message, the server selects and aggregates
//! `k` elements, broadcasts them, and every client applies the identical
//! sparse SGD step `w(m) = w(m-1) - η ∇_s L(w(m-1))`. Because all clients
//! apply the same update, the weight vector stays synchronized and the
//! simulator keeps a single copy of it.
//!
//! Time is *normalized* exactly as in the paper's evaluation (Section V): the
//! computation of one round (all clients in parallel) costs 1, and the
//! communication time is given for a full `D`-element exchange and scaled by
//! the number of scalars actually transmitted. See [`TimeModel`].
//!
//! The crate also contains the paper's baselines that are not plain
//! sparsifiers: [`FedAvgSimulation`] (send-all-or-nothing local SGD with
//! periodic weight averaging at equal average communication overhead).
//!
//! # Byte-priced exchange
//!
//! Alongside the scalar proxy, [`SimulationConfig::wire`] switches a run
//! onto the **byte-accurate** cost path: every uplink/downlink message is
//! encoded through an `agsfl_wire` codec, what the server aggregates is
//! each frame's decode, and the round time comes from a per-client
//! [`ChannelModel`] (heterogeneous bandwidths, latency, optional per-round
//! bandwidth trace; round time = slowest upload + broadcast downlink). The
//! codecs are lossless and the top-k rank order is a total order of the
//! values, so the training trajectory is bit-identical to the un-wired run
//! — only the cost signal the adaptive-`k` controllers observe changes,
//! which is exactly the drop-in additive-cost swap the paper's online
//! formulation permits.
//!
//! # Sampled cohorts and million-client populations
//!
//! Per-client *persistent* state (residual accumulator, RNG stream,
//! sampler cursor) is one `ClientState` value per client id, held by the
//! `ClientPopulation` only for clients that have participated, and each
//! round swaps the participating clients' states whole into a reusable
//! arena of cohort members, one reusable `Client` each.
//! [`SimulationConfig::cohort`] samples that many clients per round
//! (without replacement, from a dedicated seeded stream, drawn serially
//! before the parallel pass); `None` runs everyone and is bit-identical
//! to a full-population cohort. Combined with a lazy
//! [`agsfl_ml::data::ShardSource`] (see [`Simulation::with_source`]),
//! server memory is `O(cohort · k + touched_clients · D)` — independent
//! of the population size, so a million-client round runs in the same
//! resident set as a thousand-client one.
//!
//! # The parallel round engine
//!
//! Each round runs its parallel regions through one reusable
//! [`Executor`] (configured by [`SimulationConfig::parallelism`]): a fused
//! per-client pass that computes the local gradient and builds the uplink
//! message, in index order, while the residual is hot in cache
//! (byte-priced, it also encodes the message and decodes the frame once),
//! then ranks its order keys into the upload's ranked view, so each upload
//! is finished on the pool; on probe rounds, a per-client probe-loss
//! sweep that evaluates all three weight vectors in a single sample fetch;
//! and at the end of the round, each member's reset of its own residual on
//! the downlink set `J`. The client pass is the producer of a pipeline
//! whose consumer — the server's *admission* of each finished upload, in
//! cohort order, which decides its fate and adds a delivered upload into
//! the server's per-coordinate sums — runs on the round thread while the
//! workers finish the rest: a round under a [`FaultModel`] is the same
//! round over the members that survive admission, not a second engine.
//! The server selection after the pass
//! ([`agsfl_sparse::Sparsifier::select_accumulated`]) only picks `J` and
//! gathers its sums, and stays on the round thread. Parallelism is purely a
//! wall-clock knob: every client owns its RNG and sampler and results are
//! concatenated in client order, so identical seeds give identical runs for
//! every thread count. `crates/fl`'s
//! `simulation::tests::serial_and_parallel_runs_are_identical` pins this
//! end to end. Each stage of the round is a module of its own whose
//! signature names the simulation fields it reads and writes.
//!
//! # Checkpoints
//!
//! [`Simulation::save_state`] / [`Simulation::restore_state`] transport the
//! complete mutable state as one fingerprinted blob, and a restored run
//! continues bit-identically. The bytes are written and validated by the
//! workspace's one snapshot codec, [`agsfl_wire::snapshot`] — the fault
//! injector and [`RunHistory`] implement its `Snapshot` trait, a client's
//! `ClientState` keeps an inherent reader because it validates against the
//! model dimension and its shard length — and every failure is a
//! [`SnapshotError`]. [`checkpoint`] owns the blob's format and the atomic
//! file I/O; a failed restore leaves the simulation unchanged.
//!
//! # Example
//!
//! ```
//! use agsfl_fl::{Simulation, SimulationConfig, TimeModel};
//! use agsfl_ml::data::{SyntheticFemnist, SyntheticFemnistConfig};
//! use agsfl_ml::model::Mlp;
//! use agsfl_sparse::FabTopK;
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
//! let model = Mlp::new(fed.feature_dim(), &[], fed.num_classes());
//! let config = SimulationConfig {
//!     learning_rate: 0.05,
//!     batch_size: 8,
//!     time_model: TimeModel::new(1.0, 10.0),
//!     seed: 7,
//!     ..SimulationConfig::default()
//! };
//! let mut sim = Simulation::new(Box::new(model), fed, Box::new(FabTopK::new()), config);
//! let report = sim.run_round(16, None);
//! assert!(report.train_loss > 0.0);
//! assert!(report.round_time > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
pub mod checkpoint;
mod client;
mod fault;
mod fedavg;
#[cfg(test)]
mod fixture;
mod history;
mod population;
mod round;
mod simulation;
mod stages;
mod time;
mod wire_state;

pub use agsfl_exec::{Executor, Parallelism};
pub use agsfl_telemetry::{NoopRecorder, Recorder, SpanId, StageRecorder};
pub use agsfl_wire::snapshot::SnapshotError;
pub use channel::{ChannelModel, ClientLink};
pub use client::Client;
pub use fault::{FaultConfigError, FaultModel, FaultRoundReport, MAX_RETRY_LIMIT};
pub use fedavg::FedAvgSimulation;
pub use history::{FaultTotals, MetricPoint, RunHistory};
pub use round::{ProbeReport, RoundReport, WireRoundReport};
pub use simulation::{Simulation, SimulationConfig, WireConfig};
pub use time::TimeModel;
