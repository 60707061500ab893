//! The experiment runner: drives the FL simulator with a `k` controller.

use std::path::PathBuf;

use agsfl_fl::checkpoint;
use agsfl_fl::{
    FedAvgConfig, FedAvgSimulation, MetricPoint, RunHistory, Simulation, SimulationConfig,
    TimeModel,
};
use agsfl_online::{KController, KSequence};
use agsfl_telemetry::{NoopRecorder, Recorder, SpanId};
use agsfl_wire::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::config::ExperimentConfig;
use crate::controllers::ControllerSpec;
use crate::step::{controlled_round, rounding_rng};
use crate::telemetry::{TelemetrySpec, TelemetryState};

/// Magic bytes and version of the run-level checkpoint file: the simulation
/// blob plus the runner's own state (rounding RNG, controller state, round
/// counter, start time, history).
const RUN_MAGIC: [u8; 4] = *b"AGCK";
const RUN_VERSION: u32 = 1;

/// The stream a run's dataset is generated from (its FedAvg baseline runs
/// on the same dataset, see [`Experiment::run_fedavg`]).
fn data_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x5DEECE66D).wrapping_add(11))
}

/// Where and how often a run writes checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Checkpoint file path; each write atomically replaces the previous
    /// checkpoint (tmp + rename), so the file always holds one complete
    /// snapshot.
    pub path: PathBuf,
    /// Write a checkpoint every this many rounds.
    pub every: usize,
}

impl CheckpointSpec {
    /// Creates a spec checkpointing to `path` every `every` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        assert!(every > 0, "checkpoint cadence must be positive");
        Self {
            path: path.into(),
            every,
        }
    }
}

/// When to stop a training run.
///
/// A run stops as soon as **any** enabled criterion triggers.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StopCondition {
    /// Maximum number of rounds.
    pub max_rounds: Option<usize>,
    /// Maximum cumulative normalized time.
    pub max_time: Option<f64>,
    /// Stop once the evaluated global loss drops to this value or below.
    pub target_loss: Option<f64>,
}

impl StopCondition {
    /// Stop after exactly `rounds` rounds.
    pub fn after_rounds(rounds: usize) -> Self {
        Self {
            max_rounds: Some(rounds),
            ..Self::default()
        }
    }

    /// Stop once the normalized time budget is exhausted.
    pub fn after_time(time: f64) -> Self {
        Self {
            max_time: Some(time),
            ..Self::default()
        }
    }

    /// Stop once the global loss reaches `loss` (checked at evaluation
    /// points), with `max_rounds` as a safety net.
    pub fn until_loss(loss: f64, max_rounds: usize) -> Self {
        Self {
            max_rounds: Some(max_rounds),
            target_loss: Some(loss),
            ..Self::default()
        }
    }

    fn rounds_exhausted(&self, round: usize) -> bool {
        self.max_rounds.is_some_and(|m| round >= m)
    }

    fn time_exhausted(&self, elapsed: f64) -> bool {
        self.max_time.is_some_and(|t| elapsed >= t)
    }

    fn loss_reached(&self, loss: Option<f64>) -> bool {
        match (self.target_loss, loss) {
            (Some(target), Some(loss)) => loss <= target,
            _ => false,
        }
    }
}

/// A ready-to-run experiment: the FL simulator built from an
/// [`ExperimentConfig`] plus the bookkeeping needed to drive adaptive-`k`
/// controllers and produce [`RunHistory`] time series.
pub struct Experiment {
    config: ExperimentConfig,
    sim: Simulation,
    rounding_rng: ChaCha8Rng,
    telemetry: Option<TelemetryState>,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("config", &self.config)
            .field("dim", &self.sim.dim())
            .field("clients", &self.sim.num_clients())
            .finish()
    }
}

impl Experiment {
    /// Builds the experiment: generates the dataset (on a pool of the run's
    /// `parallelism`, the same bytes at every worker count), instantiates
    /// the model and sparsifier and wires up the simulator.
    pub fn new(config: &ExperimentConfig) -> Self {
        config.validate();
        let dataset = config
            .dataset
            .generate_on(&mut data_rng(config.seed), &config.parallelism.build());
        let model = config
            .model
            .build(dataset.feature_dim(), dataset.num_classes());
        let wire = config
            .wire
            .as_ref()
            .map(|w| w.build(dataset.num_clients(), config.seed));
        let sim = Simulation::new(
            model,
            dataset,
            config.sparsifier.build(),
            SimulationConfig {
                learning_rate: config.learning_rate,
                batch_size: config.batch_size,
                time_model: TimeModel::normalized(config.comm_time),
                seed: config.seed,
                parallelism: config.parallelism,
                wire,
                fault: config.fault.clone(),
                cohort: config.cohort,
            },
        );
        Self {
            config: config.clone(),
            sim,
            rounding_rng: rounding_rng(config.seed),
            telemetry: None,
        }
    }

    /// Installs a telemetry spec: opens the JSONL sink (truncating any
    /// previous file), resets the recorder, and switches the subsequent runs
    /// onto the recorded round path. When the spec opts into the wall-clock
    /// sets, the executor's worker metrics are enabled too.
    ///
    /// Telemetry is observation only: a run with a spec installed is
    /// bit-identical to one without (pinned by `telemetry_determinism.rs`
    /// and the byte-identity test in `tests/metrics_jsonl.rs`).
    pub fn set_telemetry(&mut self, spec: TelemetrySpec) -> std::io::Result<()> {
        self.sim.executor().set_metrics_enabled(spec.wall_clock);
        self.telemetry = Some(TelemetryState::open(spec)?);
        Ok(())
    }

    /// Uninstalls telemetry, flushing and closing the sink, and returns the
    /// final state (recorder, dispatch histogram, last memory sample) for
    /// post-run summaries.
    pub fn take_telemetry(&mut self) -> Option<TelemetryState> {
        self.sim.executor().set_metrics_enabled(false);
        let mut state = self.telemetry.take()?;
        state.flush().ok();
        Some(state)
    }

    /// Model dimension `D`.
    pub fn dim(&self) -> usize {
        self.sim.dim()
    }

    /// Number of clients `N`.
    pub fn num_clients(&self) -> usize {
        self.sim.num_clients()
    }

    /// The underlying configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Read-only access to the underlying simulation (current weights,
    /// elapsed time, …).
    pub fn simulation(&self) -> &Simulation {
        &self.sim
    }

    /// Runs a fixed-`k` training loop.
    pub fn run_fixed_k(&mut self, k: usize, stop: &StopCondition) -> RunHistory {
        let mut controller = ControllerSpec::Fixed(k as f64).build(self.dim(), self.config.seed);
        self.run_with_controller(controller.as_mut(), stop, "Fixed k")
    }

    /// Runs an adaptive-`k` training loop with the given controller spec.
    pub fn run_adaptive(&mut self, spec: ControllerSpec, stop: &StopCondition) -> RunHistory {
        let mut controller = spec.build(self.dim(), self.config.seed);
        self.run_with_controller(controller.as_mut(), stop, spec.name())
    }

    /// Runs with an externally constructed controller (useful for ablations
    /// that tweak controller parameters directly).
    pub fn run_with_controller(
        &mut self,
        controller: &mut dyn KController,
        stop: &StopCondition,
        label: &str,
    ) -> RunHistory {
        let history = RunHistory::new(label, self.num_clients());
        let start_time = self.sim.elapsed_time();
        self.run_loop(controller, None, stop, history, 0, start_time)
            .expect("a checkpoint-free run can only fail on telemetry sink I/O")
    }

    /// Like [`Experiment::run_with_controller`], but atomically writes a
    /// checkpoint file every [`CheckpointSpec::every`] rounds. A run killed
    /// between checkpoints can be continued with
    /// [`Experiment::resume_with_controller`]; the resumed run is
    /// bit-identical to one that was never interrupted.
    pub fn run_with_controller_checkpointed(
        &mut self,
        controller: &mut dyn KController,
        stop: &StopCondition,
        label: &str,
        spec: &CheckpointSpec,
    ) -> Result<RunHistory, SnapshotError> {
        let history = RunHistory::new(label, self.num_clients());
        let start_time = self.sim.elapsed_time();
        self.run_loop(controller, Some(spec), stop, history, 0, start_time)
    }

    /// Resumes a run from the checkpoint file at [`CheckpointSpec::path`].
    ///
    /// The experiment must be freshly built from the *same*
    /// [`ExperimentConfig`] the checkpointed run used, and `controller` must
    /// be freshly constructed with the same parameters — the checkpoint
    /// transports only mutable state and rejects mismatched configurations
    /// with [`SnapshotError::Mismatch`]. The run continues (checkpointing
    /// on the same spec) until `stop` triggers, counting rounds from the
    /// checkpointed round number.
    pub fn resume_with_controller(
        &mut self,
        controller: &mut dyn KController,
        stop: &StopCondition,
        spec: &CheckpointSpec,
    ) -> Result<RunHistory, SnapshotError> {
        let bytes = checkpoint::read_file(&spec.path)?;
        let mut r = SnapshotReader::new(&bytes);
        r.header(RUN_MAGIC, RUN_VERSION)?;
        let sim_blob = r.bytes()?;
        let rounding_rng = r.rng()?;
        let controller_bytes = r.bytes()?;
        let round_in_run = r.usize()?;
        let start_time = r.f64()?;
        // The label is read from the file; the client count is this run's.
        let mut history = RunHistory::new("", self.num_clients());
        history.read_state(&mut r)?;
        r.finish()?;
        // Restore the simulation first: it fingerprints the configuration
        // and rejects a checkpoint from a different experiment before any
        // runner state is touched.
        self.sim.restore_state(&sim_blob)?;
        controller.restore_state(&controller_bytes)?;
        self.rounding_rng = rounding_rng;
        self.run_loop(
            controller,
            Some(spec),
            stop,
            history,
            round_in_run,
            start_time,
        )
    }

    /// Serializes the full run state (simulation, rounding RNG, controller,
    /// round counter, history) and writes it atomically to `path`.
    fn save_checkpoint(
        &self,
        controller: &dyn KController,
        history: &RunHistory,
        round_in_run: usize,
        start_time: f64,
        path: &std::path::Path,
    ) -> Result<(), SnapshotError> {
        let controller_state = controller.save_state();
        let bytes = SnapshotWriter::write_exact(|w| {
            w.header(RUN_MAGIC, RUN_VERSION);
            w.nested(|w| self.sim.write_state(w));
            w.rng(&self.rounding_rng);
            w.bytes(&controller_state);
            w.usize(round_in_run);
            w.f64(start_time);
            history.write_state(w);
        });
        checkpoint::write_atomic(path, &bytes)
    }

    /// Fills in `point`'s evaluation from one fused sweep
    /// ([`Simulation::evaluate`]), recorded when a telemetry spec is
    /// installed.
    fn evaluate_into(&mut self, point: &mut MetricPoint) {
        let eval = match self.telemetry.as_mut() {
            Some(state) => self.sim.evaluate_recorded(&mut state.recorder),
            None => self.sim.evaluate(),
        };
        point.global_loss = Some(eval.train_loss as f64);
        point.test_accuracy = Some(eval.test_accuracy as f64);
    }

    /// The one GS round loop, behind every `run_*` and `resume_*` entry
    /// point but [`Experiment::run_fedavg`]: each round is one
    /// [`controlled_round`], on the recorded path when a telemetry spec is
    /// installed. Checkpoint writes happen after a round is fully recorded
    /// and never touch any RNG, so a checkpointed run's trajectory is
    /// bit-identical to an unobserved one.
    fn run_loop(
        &mut self,
        controller: &mut dyn KController,
        checkpoint: Option<&CheckpointSpec>,
        stop: &StopCondition,
        mut history: RunHistory,
        mut round_in_run: usize,
        start_time: f64,
    ) -> Result<RunHistory, SnapshotError> {
        loop {
            if stop.rounds_exhausted(round_in_run)
                || stop.time_exhausted(self.sim.elapsed_time() - start_time)
            {
                break;
            }
            round_in_run += 1;

            let rounding_rng = &mut self.rounding_rng;
            let report = match self.telemetry.as_mut() {
                Some(state) => {
                    state.recorder.begin_round();
                    controlled_round(&mut self.sim, controller, rounding_rng, &mut state.recorder)
                }
                None => {
                    controlled_round(&mut self.sim, controller, rounding_rng, &mut NoopRecorder)
                }
            };
            history.record_round(&report);

            // Evaluate strictly on the cadence (plus round 1). The final
            // round of a run that stops off-cadence is filled in after the
            // loop — crucially *after* its checkpoint was written, so a
            // checkpoint never encodes where this particular run chose to
            // stop and a resumed run stays bit-identical to an
            // uninterrupted one.
            let mut point = MetricPoint {
                round: round_in_run,
                elapsed_time: self.sim.elapsed_time() - start_time,
                k: report.k_used,
                train_loss: report.train_loss,
                global_loss: None,
                test_accuracy: None,
            };
            if round_in_run.is_multiple_of(self.config.eval_every) || round_in_run == 1 {
                self.evaluate_into(&mut point);
            }
            let global_loss = point.global_loss;
            history.push(point);
            if let Some(spec) = checkpoint {
                if round_in_run.is_multiple_of(spec.every) {
                    let t0 = self.telemetry.is_some().then(std::time::Instant::now);
                    self.save_checkpoint(
                        controller,
                        &history,
                        round_in_run,
                        start_time,
                        &spec.path,
                    )?;
                    if let (Some(t0), Some(state)) = (t0, self.telemetry.as_mut()) {
                        state
                            .recorder
                            .span(SpanId::CheckpointWrite, t0.elapsed().as_nanos() as u64);
                    }
                }
            }
            self.emit_telemetry_round(&report)
                .map_err(|e| SnapshotError::Io(e.to_string()))?;
            if stop.loss_reached(global_loss) {
                break;
            }
        }
        // Evaluation is a read-only measurement, so filling it in here
        // records exactly the values an in-loop evaluation would have.
        if let Some(last) = history.last_point_mut() {
            if last.global_loss.is_none() {
                self.evaluate_into(last);
            }
        }
        if let Some(state) = self.telemetry.as_mut() {
            state
                .flush()
                .map_err(|e| SnapshotError::Io(e.to_string()))?;
        }
        Ok(history)
    }

    /// Drains per-round pool metrics into the telemetry state and emits the
    /// round's JSONL line. A no-op without an installed spec.
    fn emit_telemetry_round(&mut self, report: &agsfl_fl::RoundReport) -> std::io::Result<()> {
        let Some(state) = self.telemetry.as_mut() else {
            return Ok(());
        };
        let wall_clock = state.spec().wall_clock;
        if wall_clock {
            self.sim
                .executor()
                .drain_dispatch_latency(&mut state.dispatch);
        }
        let pool = wall_clock
            .then(|| self.sim.executor().pool_metrics())
            .flatten();
        state.emit_round(report, pool.as_ref())
    }

    /// Runs with a prescribed sequence of `k` values (used by Figs. 7 and 8
    /// to cross-apply a `{k_m}` sequence adapted for one communication time
    /// to a system with a different communication time), driven by a
    /// [`KSequence`]: if the run lasts longer than the sequence, the last
    /// value is repeated. A replay asks for no probe, and like every other
    /// history has its last point evaluated.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty.
    pub fn run_k_sequence(&mut self, sequence: &[usize], stop: &StopCondition) -> RunHistory {
        let mut controller = KSequence::new(sequence.to_vec());
        self.run_with_controller(&mut controller, stop, "prescribed k sequence")
    }

    /// Runs the FedAvg baseline at the communication overhead equivalent to
    /// `k`-element GS (aggregation every `⌊D/(2k)⌋` rounds), building a fresh
    /// FedAvg simulation from this experiment's configuration, on a copy of
    /// its dataset and on its executor.
    pub fn run_fedavg(&self, k_equivalent: usize, stop: &StopCondition) -> RunHistory {
        let config = &self.config;
        let dataset = self
            .sim
            .source()
            .as_dataset()
            .expect("an experiment generates its dataset eagerly")
            .clone();
        let model = config
            .model
            .build(dataset.feature_dim(), dataset.num_classes());
        let dim = model.num_params();
        let num_clients = dataset.num_clients();
        let mut sim = FedAvgSimulation::new(
            model,
            dataset,
            FedAvgConfig {
                learning_rate: config.learning_rate,
                batch_size: config.batch_size,
                time_model: TimeModel::normalized(config.comm_time),
                aggregation_period: TimeModel::fedavg_period(dim, k_equivalent),
                seed: config.seed,
            },
            self.sim.executor().clone(),
        );
        let evaluate_into = |sim: &FedAvgSimulation, point: &mut MetricPoint| {
            let eval = sim.evaluate();
            point.global_loss = Some(eval.train_loss as f64);
            point.test_accuracy = Some(eval.test_accuracy as f64);
        };
        let mut history = RunHistory::new("FedAvg", num_clients);
        let mut round = 0usize;
        loop {
            if stop.rounds_exhausted(round) || stop.time_exhausted(sim.elapsed_time()) {
                break;
            }
            round += 1;
            let report = sim.run_round();
            let mut point = MetricPoint {
                round,
                elapsed_time: sim.elapsed_time(),
                k: if report.aggregated { dim } else { 0 },
                train_loss: report.train_loss,
                global_loss: None,
                test_accuracy: None,
            };
            if round.is_multiple_of(config.eval_every) || round == 1 {
                evaluate_into(&sim, &mut point);
            }
            let global_loss = point.global_loss;
            history.push(point);
            if stop.loss_reached(global_loss) {
                break;
            }
        }
        // As in `run_loop`: a run stopped off-cadence still ends on an
        // evaluated point, the loss Fig. 4 compares FedAvg by.
        if let Some(last) = history.last_point_mut() {
            if last.global_loss.is_none() {
                evaluate_into(&sim, last);
            }
        }
        history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DatasetSpec, ModelSpec};
    use agsfl_online::PrecisionController;

    fn tiny_config(comm_time: f64, seed: u64) -> ExperimentConfig {
        ExperimentConfig::builder()
            .dataset(DatasetSpec::femnist_tiny())
            .model(ModelSpec::Linear)
            .learning_rate(0.05)
            .batch_size(8)
            .comm_time(comm_time)
            .eval_every(5)
            .seed(seed)
            .build()
    }

    #[test]
    fn stop_conditions_trigger() {
        let rounds = StopCondition::after_rounds(3);
        assert!(rounds.rounds_exhausted(3));
        assert!(!rounds.rounds_exhausted(2));
        let time = StopCondition::after_time(10.0);
        assert!(time.time_exhausted(10.0));
        assert!(!time.time_exhausted(9.9));
        let loss = StopCondition::until_loss(1.0, 100);
        assert!(loss.loss_reached(Some(0.9)));
        assert!(!loss.loss_reached(Some(1.1)));
        assert!(!loss.loss_reached(None));
    }

    #[test]
    fn fixed_k_run_respects_round_budget() {
        let mut exp = Experiment::new(&tiny_config(10.0, 0));
        let history = exp.run_fixed_k(exp.dim() / 10, &StopCondition::after_rounds(12));
        assert_eq!(history.len(), 12);
        assert!(history.points().iter().all(|p| p.k == exp.dim() / 10));
        assert!(history.final_global_loss().is_some());
    }

    #[test]
    fn time_budget_stops_run() {
        let mut exp = Experiment::new(&tiny_config(10.0, 1));
        let history = exp.run_fixed_k(exp.dim() / 10, &StopCondition::after_time(50.0));
        assert!(history.len() < 1000);
        let last = history.points().last().unwrap();
        assert!(last.elapsed_time >= 50.0);
    }

    #[test]
    fn adaptive_run_produces_varying_k() {
        let mut exp = Experiment::new(&tiny_config(100.0, 2));
        let history =
            exp.run_adaptive(ControllerSpec::Algorithm3, &StopCondition::after_rounds(40));
        assert_eq!(history.len(), 40);
        let ks = history.k_sequence();
        assert!(ks.iter().any(|&k| k != ks[0]), "k never changed: {ks:?}");
    }

    #[test]
    fn adaptive_run_with_high_comm_time_prefers_smaller_k() {
        let mut cheap = Experiment::new(&tiny_config(0.1, 3));
        let mut expensive = Experiment::new(&tiny_config(100.0, 3));
        let stop = StopCondition::after_rounds(120);
        let cheap_hist = cheap.run_adaptive(ControllerSpec::Algorithm3, &stop);
        let expensive_hist = expensive.run_adaptive(ControllerSpec::Algorithm3, &stop);
        let tail_mean = |h: &RunHistory| {
            let ks = h.k_sequence();
            let tail = &ks[ks.len() - 30..];
            tail.iter().sum::<usize>() as f64 / tail.len() as f64
        };
        assert!(
            tail_mean(&expensive_hist) < tail_mean(&cheap_hist),
            "expensive comm should push k down: {} vs {}",
            tail_mean(&expensive_hist),
            tail_mean(&cheap_hist)
        );
    }

    #[test]
    fn k_sequence_run_replays_prescribed_values() {
        let mut exp = Experiment::new(&tiny_config(10.0, 4));
        let seq = vec![10, 20, 30];
        let history = exp.run_k_sequence(&seq, &StopCondition::after_rounds(5));
        let ks = history.k_sequence();
        assert_eq!(ks, vec![10, 20, 30, 30, 30]);
    }

    /// A replay stopped off-cadence still ends on an evaluated point — the
    /// loss Figs. 7/8 compare replays by — and is otherwise the simulation
    /// hand-driven with `run_round(k, None)`.
    #[test]
    fn k_sequence_run_evaluates_its_last_point() {
        let cfg = tiny_config(10.0, 4);
        let seq = [10, 20, 30];
        let mut exp = Experiment::new(&cfg);
        let history = exp.run_k_sequence(&seq, &StopCondition::after_rounds(7));
        assert_eq!(history.len(), 7);
        let mut manual = Experiment::new(&cfg);
        for (i, point) in history.points().iter().enumerate() {
            let report = manual.sim.run_round(seq[i.min(2)], None);
            assert!(report.probe.is_none());
            assert_eq!(point.k, report.k_used);
            assert_eq!(point.train_loss.to_bits(), report.train_loss.to_bits());
            assert_eq!(point.elapsed_time.to_bits(), report.elapsed_time.to_bits());
            // eval_every = 5: round 1, the cadence, and the last round.
            if [1, 5, 7].contains(&point.round) {
                let eval = manual.sim.evaluate();
                assert_eq!(point.global_loss, Some(eval.train_loss as f64));
                assert_eq!(point.test_accuracy, Some(eval.test_accuracy as f64));
            } else {
                assert_eq!((point.global_loss, point.test_accuracy), (None, None));
            }
        }
        assert_eq!(exp.sim.params(), manual.sim.params());
        assert_eq!(history.final_global_loss(), history.points()[6].global_loss);
    }

    /// A round probes exactly when its controller asks: never for a fixed
    /// or a replayed `k`, at every round of a learning controller.
    #[test]
    fn a_round_probes_only_when_its_controller_asks() {
        let mut exp = Experiment::new(&tiny_config(10.0, 9));
        let dim = exp.dim();
        let mut controllers = vec![
            ControllerSpec::Fixed(20.0).build(dim, 9),
            Box::new(KSequence::new(vec![10, 20])),
        ];
        let prescribed = controllers.len();
        for spec in ControllerSpec::fig5_lineup() {
            controllers.push(spec.build(dim, 9));
        }
        for (i, controller) in controllers.iter_mut().enumerate() {
            for _ in 0..3 {
                let asks = controller.probe_k().is_some();
                assert_eq!(asks, i >= prescribed, "{}", controller.name());
                let report = controlled_round(
                    &mut exp.sim,
                    controller.as_mut(),
                    &mut exp.rounding_rng,
                    &mut NoopRecorder,
                );
                assert_eq!(report.probe.is_some(), asks, "{}", controller.name());
            }
        }
    }

    #[test]
    fn fedavg_run_produces_history() {
        let exp = Experiment::new(&tiny_config(10.0, 5));
        let history = exp.run_fedavg(exp.dim() / 20, &StopCondition::after_rounds(25));
        assert_eq!(history.len(), 25);
        assert!(history.final_global_loss().is_some());
        // At least one aggregation round happened (k column equals dim there).
        assert!(history.points().iter().any(|p| p.k == exp.dim()));
    }

    /// Like a GS run, a FedAvg run stopped off-cadence ends on an evaluated
    /// point, and the points before it are the cadence's.
    #[test]
    fn fedavg_run_evaluates_its_last_point() {
        let exp = Experiment::new(&tiny_config(10.0, 5));
        let history = exp.run_fedavg(exp.dim() / 20, &StopCondition::after_rounds(7));
        assert_eq!(history.len(), 7);
        // eval_every = 5: round 1, the cadence, and the last round.
        for point in history.points() {
            let evaluated = [1, 5, 7].contains(&point.round);
            assert_eq!(point.global_loss.is_some(), evaluated, "{point:?}");
            assert_eq!(point.test_accuracy.is_some(), evaluated, "{point:?}");
        }
        assert_eq!(history.final_global_loss(), history.points()[6].global_loss);
    }

    /// The baseline runs on the experiment's own dataset: its points are
    /// those of a FedAvg simulation built on a freshly generated copy.
    #[test]
    fn fedavg_run_matches_a_freshly_generated_dataset() {
        let config = tiny_config(10.0, 5);
        let exp = Experiment::new(&config);
        let k = exp.dim() / 20;
        let history = exp.run_fedavg(k, &StopCondition::after_rounds(12));
        let dataset = config.dataset.generate(&mut data_rng(config.seed));
        assert_eq!(exp.sim.source().as_dataset(), Some(&dataset));
        let model = config
            .model
            .build(dataset.feature_dim(), dataset.num_classes());
        let mut sim = FedAvgSimulation::new(
            model,
            dataset,
            FedAvgConfig {
                learning_rate: config.learning_rate,
                batch_size: config.batch_size,
                time_model: TimeModel::normalized(config.comm_time),
                aggregation_period: TimeModel::fedavg_period(exp.dim(), k),
                seed: config.seed,
            },
            exp.sim.executor().clone(),
        );
        assert_eq!(history.len(), 12);
        for (round, point) in (1..).zip(history.points()) {
            let report = sim.run_round();
            let eval = point.global_loss.map(|_| sim.evaluate());
            let expected = MetricPoint {
                round,
                elapsed_time: sim.elapsed_time(),
                k: if report.aggregated { exp.dim() } else { 0 },
                train_loss: report.train_loss,
                global_loss: eval.as_ref().map(|e| e.train_loss as f64),
                test_accuracy: eval.as_ref().map(|e| e.test_accuracy as f64),
            };
            assert_eq!(point, &expected);
        }
    }

    #[test]
    fn target_loss_stops_early() {
        let mut exp = Experiment::new(&tiny_config(0.1, 6));
        // Target slightly below the initial loss: a few rounds should do it.
        let initial = exp.simulation().global_train_loss();
        let history = exp.run_fixed_k(exp.dim(), &StopCondition::until_loss(initial * 0.97, 400));
        assert!(history.len() < 400);
        assert!(history.final_global_loss().unwrap() <= initial * 0.97);
    }

    /// The parallelism knob must be purely a wall-clock knob: a serial and
    /// a multi-threaded experiment with the same seed produce identical
    /// histories (the round engine is bit-deterministic across threads).
    #[test]
    fn serial_and_parallel_experiments_match() {
        use agsfl_exec::Parallelism;
        let mut serial_cfg = tiny_config(10.0, 8);
        serial_cfg.parallelism = Parallelism::Serial;
        let mut parallel_cfg = tiny_config(10.0, 8);
        parallel_cfg.parallelism = Parallelism::Threads(3);
        let stop = StopCondition::after_rounds(8);
        let ha = Experiment::new(&serial_cfg).run_adaptive(ControllerSpec::Algorithm3, &stop);
        let hb = Experiment::new(&parallel_cfg).run_adaptive(ControllerSpec::Algorithm3, &stop);
        assert_eq!(ha.points(), hb.points());
    }

    #[test]
    fn same_seed_same_history() {
        let mut a = Experiment::new(&tiny_config(10.0, 7));
        let mut b = Experiment::new(&tiny_config(10.0, 7));
        let stop = StopCondition::after_rounds(10);
        let ha = a.run_adaptive(ControllerSpec::Algorithm2, &stop);
        let hb = b.run_adaptive(ControllerSpec::Algorithm2, &stop);
        assert_eq!(ha.points(), hb.points());
    }

    fn faulty_wired_config(seed: u64) -> ExperimentConfig {
        use crate::config::{ChannelSpec, WireSpec};
        use agsfl_fl::FaultModel;
        use agsfl_wire::CodecSpec;
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

    fn unique_ckpt_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("agsfl_run_ckpt_{}_{tag}.bin", std::process::id()))
    }

    #[test]
    fn checkpointed_run_resumes_bit_identically() {
        let cfg = tiny_config(10.0, 21);
        let total = 10;
        let mut reference = Experiment::new(&cfg);
        let mut c_ref = ControllerSpec::Algorithm3.build(reference.dim(), cfg.seed);
        let full = reference.run_with_controller(
            c_ref.as_mut(),
            &StopCondition::after_rounds(total),
            "run",
        );
        for interrupt in [1usize, 5, 9] {
            let spec = CheckpointSpec::new(unique_ckpt_path(&format!("plain_{interrupt}")), 1);
            let mut first = Experiment::new(&cfg);
            let mut c1 = ControllerSpec::Algorithm3.build(first.dim(), cfg.seed);
            first
                .run_with_controller_checkpointed(
                    c1.as_mut(),
                    &StopCondition::after_rounds(interrupt),
                    "run",
                    &spec,
                )
                .unwrap();
            // A fresh experiment + fresh controller stand in for a new
            // process picking the run back up from the file.
            let mut second = Experiment::new(&cfg);
            let mut c2 = ControllerSpec::Algorithm3.build(second.dim(), cfg.seed);
            let resumed = second
                .resume_with_controller(c2.as_mut(), &StopCondition::after_rounds(total), &spec)
                .unwrap();
            assert_eq!(
                resumed.points(),
                full.points(),
                "interrupt at round {interrupt} diverged"
            );
            std::fs::remove_file(&spec.path).ok();
        }
    }

    #[test]
    fn faulty_wired_run_resumes_bit_identically() {
        let cfg = faulty_wired_config(31);
        let total = 8;
        let mut reference = Experiment::new(&cfg);
        let mut c_ref = ControllerSpec::Algorithm2.build(reference.dim(), cfg.seed);
        let full = reference.run_with_controller(
            c_ref.as_mut(),
            &StopCondition::after_rounds(total),
            "faulty",
        );
        // Faults actually fired, and the runner recorded them.
        let totals = full.fault_totals();
        assert!(
            totals.lost() + totals.stragglers > 0,
            "chaos model was inert"
        );

        let spec = CheckpointSpec::new(unique_ckpt_path("faulty"), 2);
        let mut first = Experiment::new(&cfg);
        let mut c1 = ControllerSpec::Algorithm2.build(first.dim(), cfg.seed);
        first
            .run_with_controller_checkpointed(
                c1.as_mut(),
                &StopCondition::after_rounds(4),
                "faulty",
                &spec,
            )
            .unwrap();
        let mut second = Experiment::new(&cfg);
        let mut c2 = ControllerSpec::Algorithm2.build(second.dim(), cfg.seed);
        let resumed = second
            .resume_with_controller(c2.as_mut(), &StopCondition::after_rounds(total), &spec)
            .unwrap();
        assert_eq!(resumed.points(), full.points());
        assert_eq!(resumed.fault_totals(), full.fault_totals());
        std::fs::remove_file(&spec.path).ok();
    }

    #[test]
    fn precision_adaptive_run_engages_lossy_tiers_and_resumes_bit_identically() {
        use crate::config::{ChannelSpec, WireSpec};
        use agsfl_wire::CodecSpec;
        let mut cfg = tiny_config(10.0, 51);
        cfg.wire = Some(WireSpec {
            codec: CodecSpec::Auto,
            channel: ChannelSpec::uniform(2_000.0, 4_000.0, 0.05),
        });
        let total = 8;
        let mut reference = Experiment::new(&cfg);
        let mut c0 =
            PrecisionController::new(ControllerSpec::Algorithm3.build(reference.dim(), cfg.seed));
        let full = reference.run_with_controller(
            &mut c0,
            &StopCondition::after_rounds(total),
            "2-D (k × precision)",
        );
        // The wrapper's exploration phase walks every tier, so both lossless
        // (ids 0–2) and lossy (ids 3–5) frames must appear on the wire.
        let counts = full.codec_counts();
        assert!(
            counts[..3].iter().sum::<u64>() > 0,
            "no lossless frames: {counts:?}"
        );
        assert!(
            counts[3..].iter().sum::<u64>() > 0,
            "no lossy frames: {counts:?}"
        );

        // A checkpointed + resumed 2-D run is bit-identical to the
        // uninterrupted one: the restored wrapper re-proposes the precision
        // tier before each round, so the tier schedule survives the resume.
        let spec = CheckpointSpec::new(unique_ckpt_path("precision"), 1);
        let mut first = Experiment::new(&cfg);
        let mut c1 =
            PrecisionController::new(ControllerSpec::Algorithm3.build(first.dim(), cfg.seed));
        first
            .run_with_controller_checkpointed(
                &mut c1,
                &StopCondition::after_rounds(3),
                "2-D (k × precision)",
                &spec,
            )
            .unwrap();
        let mut second = Experiment::new(&cfg);
        let mut c2 =
            PrecisionController::new(ControllerSpec::Algorithm3.build(second.dim(), cfg.seed));
        let resumed = second
            .resume_with_controller(&mut c2, &StopCondition::after_rounds(total), &spec)
            .unwrap();
        assert_eq!(resumed.points(), full.points());
        assert_eq!(resumed.codec_counts(), full.codec_counts());
        std::fs::remove_file(&spec.path).ok();
    }

    #[test]
    fn resume_rejects_checkpoint_from_different_experiment() {
        let cfg = tiny_config(10.0, 41);
        let spec = CheckpointSpec::new(unique_ckpt_path("mismatch"), 1);
        let mut first = Experiment::new(&cfg);
        let mut c1 = ControllerSpec::Algorithm3.build(first.dim(), cfg.seed);
        first
            .run_with_controller_checkpointed(
                c1.as_mut(),
                &StopCondition::after_rounds(2),
                "run",
                &spec,
            )
            .unwrap();
        // Same shape, different seed: the simulation fingerprint must refuse.
        let other_cfg = tiny_config(10.0, 42);
        let mut other = Experiment::new(&other_cfg);
        let mut c2 = ControllerSpec::Algorithm3.build(other.dim(), other_cfg.seed);
        let err = other
            .resume_with_controller(c2.as_mut(), &StopCondition::after_rounds(4), &spec)
            .unwrap_err();
        assert_eq!(err, SnapshotError::Mismatch { field: "seed" });
        // Same experiment, another controller type: the controller's own
        // typed error comes through.
        let mut exp3 = ControllerSpec::Exp3 { num_arms: 8 }.build(first.dim(), cfg.seed);
        Experiment::new(&cfg)
            .run_with_controller_checkpointed(
                exp3.as_mut(),
                &StopCondition::after_rounds(2),
                "run",
                &spec,
            )
            .unwrap();
        let mut sign_ogd = ControllerSpec::Algorithm2.build(first.dim(), cfg.seed);
        let err = Experiment::new(&cfg)
            .resume_with_controller(sign_ogd.as_mut(), &StopCondition::after_rounds(4), &spec)
            .unwrap_err();
        assert_eq!(
            err,
            SnapshotError::WrongController {
                expected: "sign OGD"
            }
        );
        // A missing file is a typed I/O error, not a panic.
        std::fs::remove_file(&spec.path).unwrap();
        let mut c3 = ControllerSpec::Algorithm3.build(other.dim(), other_cfg.seed);
        assert!(matches!(
            Experiment::new(&other_cfg)
                .resume_with_controller(c3.as_mut(), &StopCondition::after_rounds(4), &spec)
                .unwrap_err(),
            SnapshotError::Io(_)
        ));
    }
}
