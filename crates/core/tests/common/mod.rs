//! Shared fixture of the checkpoint byte-surface tests (`checkpoint_format`,
//! `checkpoint_fuzz`): one tiny faulty wired experiment and the seven
//! controller kinds whose snapshots nest inside its AGCK file.

// Each test binary compiles this module and uses its own part of it.
#![allow(dead_code)]

use agsfl_core::{
    ChannelSpec, CheckpointSpec, CodecSpec, ControllerSpec, DatasetSpec, Experiment,
    ExperimentConfig, FaultModel, ModelSpec, StopCondition, WireSpec,
};
use agsfl_fl::RunHistory;
use agsfl_online::{KController, PrecisionController};

/// Every controller kind, in snapshot-tag order.
pub const KINDS: [&str; 7] = [
    "sign OGD",
    "extended sign OGD",
    "value-based descent",
    "fixed k",
    "EXP3",
    "continuous bandit",
    "precision wrapper",
];

/// A fresh controller of kind `kind` (an index into [`KINDS`]).
pub fn build(kind: usize, dim: usize, seed: u64) -> Box<dyn KController> {
    let spec = match kind {
        0 => ControllerSpec::Algorithm2,
        1 => ControllerSpec::Algorithm3,
        2 => ControllerSpec::ValueBased,
        3 => ControllerSpec::Fixed(40.0),
        4 => ControllerSpec::Exp3 { num_arms: 8 },
        5 => ControllerSpec::ContinuousBandit,
        _ => {
            let inner = ControllerSpec::Algorithm3.build(dim, seed);
            return Box::new(PrecisionController::new(inner));
        }
    };
    spec.build(dim, seed)
}

/// `femnist_tiny`, linear model, byte-priced channel and fault injection on.
pub fn faulty_wired_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder()
        .dataset(DatasetSpec::femnist_tiny())
        .model(ModelSpec::Linear)
        .learning_rate(0.05)
        .batch_size(8)
        .comm_time(10.0)
        .eval_every(5)
        .seed(seed)
        .wire(WireSpec {
            codec: CodecSpec::Auto,
            channel: ChannelSpec::uniform(2_000.0, 4_000.0, 0.05),
        })
        .fault(FaultModel {
            drop_prob: 0.15,
            crash_prob: 0.05,
            outage_rounds: (1, 2),
            straggle_prob: 0.2,
            straggle_factor: 4.0,
            deadline: None,
            corrupt_prob: 0.2,
            max_retries: 2,
            retry_backoff: 0.01,
            seed: seed ^ 0xFA,
        })
        .build()
}

/// A per-process, per-tag checkpoint path under the system temp directory.
pub fn ckpt_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("agsfl_ckpt_{}_{tag}.agck", std::process::id()))
}

/// The state of a 6-round run of controller kind `kind` that checkpointed
/// at round 4.
pub struct CheckpointedRun {
    /// The AGCK file as written at round 4.
    pub file: Vec<u8>,
    /// The experiment after round 6.
    pub experiment: Experiment,
    /// The controller after round 6.
    pub controller: Box<dyn KController>,
    /// The six recorded rounds.
    pub history: RunHistory,
}

/// Runs the fixture for controller kind `kind` of [`KINDS`].
pub fn checkpointed_run(cfg: &ExperimentConfig, kind: usize) -> CheckpointedRun {
    let spec = CheckpointSpec::new(ckpt_path(&format!("run{kind}")), 4);
    let mut experiment = Experiment::new(cfg);
    let mut controller = build(kind, experiment.dim(), cfg.seed);
    let history = experiment
        .run_with_controller_checkpointed(
            controller.as_mut(),
            &StopCondition::after_rounds(6),
            KINDS[kind],
            &spec,
        )
        .expect("checkpointed run");
    let file = std::fs::read(&spec.path).expect("checkpoint file");
    std::fs::remove_file(&spec.path).ok();
    CheckpointedRun {
        file,
        experiment,
        controller,
        history,
    }
}
