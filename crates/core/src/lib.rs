//! High-level experiment API for the AGSFL paper reproduction.
//!
//! This crate is the paper's primary contribution packaged as a usable
//! library: federated learning with **fairness-aware bidirectional top-k
//! gradient sparsification** (FAB-top-k, Algorithm 1) whose sparsity degree
//! `k` is adapted online by the **sign-of-derivative online learning
//! algorithms** (Algorithms 2 and 3). It ties together the substrates from
//! the lower-level crates:
//!
//! * `agsfl-ml` — models, synthetic federated datasets,
//! * `agsfl-sparse` — the sparsification methods,
//! * `agsfl-fl` — the synchronized FL simulator and normalized time model,
//! * `agsfl-online` — the adaptive-`k` controllers.
//!
//! The main entry points are:
//!
//! * [`ExperimentConfig`] / [`DatasetSpec`] / [`ModelSpec`] — declarative
//!   description of a workload,
//! * [`Experiment`] — builds the simulator and runs fixed-`k`, adaptive-`k`,
//!   prescribed-`k`-sequence and FedAvg training loops, producing
//!   [`agsfl_fl::RunHistory`] time series,
//! * [`ControllerSpec`] — which adaptive-`k` method to use,
//! * [`controlled_round`] — the one controller step every run loop (and a
//!   hand-driven [`agsfl_fl::Simulation`]) takes per round,
//! * [`figures`] — one function per figure of the paper's evaluation,
//!   returning the exact series the paper plots.
//!
//! # Example
//!
//! ```
//! use agsfl_core::{ControllerSpec, DatasetSpec, Experiment, ExperimentConfig, ModelSpec, SparsifierSpec, StopCondition};
//!
//! let config = ExperimentConfig::builder()
//!     .dataset(DatasetSpec::femnist_tiny())
//!     .model(ModelSpec::Linear)
//!     .comm_time(10.0)
//!     .seed(42)
//!     .build();
//! let mut experiment = Experiment::new(&config);
//! let history = experiment.run_adaptive(
//!     ControllerSpec::Algorithm3,
//!     &StopCondition::after_rounds(30),
//! );
//! assert_eq!(history.len(), 30);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod controllers;
pub mod figures;
pub mod report;
mod runner;
mod step;
pub mod telemetry;

pub use agsfl_exec::{Executor, Parallelism};
pub use agsfl_fl::{FaultConfigError, FaultModel, FaultRoundReport, FaultTotals, SnapshotError};
pub use agsfl_telemetry::{Histogram, Recorder, SpanId, StageRecorder};
pub use agsfl_wire::CodecSpec;
pub use config::{
    ChannelSpec, ConfigError, DatasetSpec, ExperimentConfig, ExperimentConfigBuilder, Fluctuation,
    ModelSpec, SparsifierSpec, WireSpec,
};
pub use controllers::ControllerSpec;
pub use runner::{CheckpointSpec, Experiment, StopCondition};
pub use step::{controlled_round, rounding_rng};
pub use telemetry::{TelemetrySpec, TelemetryState};
