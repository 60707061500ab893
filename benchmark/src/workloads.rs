//! The four workloads: how each is built from the seed, run once (a
//! "repetition"), and what a repetition reports.
//!
//! Everything here calls the workspace's public API only. Three workloads
//! run through `agsfl_core::Experiment` with a [`Tap`] around the controller;
//! `cohort_million_wired` drives `Simulation::with_source` directly, as
//! `figures::scale_sweep` does, because `Experiment` cannot host a lazy
//! source.

use std::path::{Path, PathBuf};
use std::time::Instant;

use agsfl_core::{
    ChannelSpec, CheckpointSpec, CodecSpec, ControllerSpec, DatasetSpec, Experiment,
    ExperimentConfig, FaultModel, FaultTotals, ModelSpec, Parallelism, SpanId, StageRecorder,
    StopCondition, TelemetrySpec, WireSpec,
};
use agsfl_exec::metrics::PoolMetricsSnapshot;
use agsfl_fl::{ChannelModel, Simulation, SimulationConfig, TimeModel, WireConfig};
use agsfl_ml::data::{LazySyntheticFemnist, SyntheticFemnistConfig};
use agsfl_ml::model::LinearSoftmax;
use agsfl_sparse::FabTopK;
use agsfl_telemetry::Histogram;

use crate::spec::WORKLOADS;
use crate::tap::Tap;

/// Every workload runs the round engine on this many threads (`nproc` on
/// the box the benchmark was sized on). Never `Auto`: numbers must compare.
pub const THREADS: Parallelism = Parallelism::Threads(2);

/// In the order of [`WORKLOADS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperCnnAdaptive,
    SparseWideLinear,
    CohortMillionWired,
    FaultyAutoResume,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperCnnAdaptive,
        Workload::SparseWideLinear,
        Workload::CohortMillionWired,
        Workload::FaultyAutoResume,
    ];

    /// The name `BENCHMARK.json` and the command line know it by.
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].0
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one repetition is run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub parallelism: Parallelism,
    /// Stop after this many rounds whatever the workload's own stop rule
    /// says (`--quick` and the `exec.pool_speedup` legs).
    pub round_cap: Option<usize>,
    /// Record stage spans and pool metrics, and write the per-round lines
    /// here when the repetition ends.
    pub trace: Option<PathBuf>,
    /// Where checkpoint files go.
    pub out_dir: PathBuf,
}

/// One round as seen from outside the round engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSeen {
    pub k_used: usize,
    pub train_loss: f64,
    pub round_time: f64,
    pub elapsed_time: f64,
    pub wall_ns: u64,
    /// Cohort size and wire bytes, where the workload sees `RoundReport`s.
    pub cohort: Option<usize>,
    pub wire_bytes: Option<u64>,
}

/// What the traced repetition collected besides the trace file.
#[derive(Debug, Clone)]
pub struct Traced {
    pub recorder: StageRecorder,
    pub dispatch: Histogram,
    pub pool: Option<PoolMetricsSnapshot>,
    pub pool_regions: u64,
}

/// The outcome of one repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    pub dim: usize,
    pub cohort: usize,
    pub wired: bool,
    pub setup_s: f64,
    pub loop_s: f64,
    pub rounds: Vec<RoundSeen>,
    /// Whether the workload's own stop rule ended the run (as opposed to a
    /// safety net or a `round_cap`).
    pub stop_fired: bool,
    pub final_loss: f64,
    /// The loss of a uniform guess over the classes: a run that ends above
    /// it has learned nothing.
    pub chance_loss: f64,
    pub test_accuracy: f64,
    pub uplink_bytes: u64,
    pub frames: u64,
    pub contributions: u64,
    pub fault: FaultTotals,
    pub resident_clients: usize,
    pub checkpoint_bytes: u64,
    pub checkpoint_restore_s: f64,
    pub final_params_digest: u64,
    pub traced: Option<Traced>,
}

impl Rep {
    pub fn sim_time(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.elapsed_time)
    }

    /// FNV-1a over every round's `k_used`, `train_loss` bits and
    /// `round_time` bits, then the final parameter bits: two repetitions
    /// agree on it only if they followed the same trajectory bit for bit.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for r in &self.rounds {
            h.u64(r.k_used as u64);
            h.u64(r.train_loss.to_bits());
            h.u64(r.round_time.to_bits());
        }
        h.u64(self.final_params_digest);
        h.finish()
    }

    /// Rounds that fail a per-round output check.
    pub fn failed_rounds(&self) -> usize {
        let wire_total_missing = self.wired && self.uplink_bytes == 0;
        let mut previous = 0.0f64;
        let mut failed = 0;
        for r in &self.rounds {
            let ok = r.train_loss.is_finite()
                && (1..=self.dim).contains(&r.k_used)
                && r.elapsed_time > previous
                && r.cohort.is_none_or(|c| c == self.cohort)
                && !(self.wired && r.wire_bytes == Some(0))
                && !wire_total_missing;
            previous = r.elapsed_time;
            failed += usize::from(!ok);
        }
        failed
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn params_digest(params: &[f32]) -> u64 {
    let mut h = Fnv::new();
    for pair in params.chunks(2) {
        let lo = pair[0].to_bits() as u64;
        let hi = pair.get(1).map_or(0, |p| p.to_bits() as u64);
        h.u64(lo | hi << 32);
    }
    h.finish()
}

/// The shapes a workload's layer probes replay.
#[derive(Debug, Clone)]
pub struct Shape {
    pub dataset: SyntheticFemnistConfig,
    pub model: ModelSpec,
    pub batch: usize,
    pub codec: Option<CodecSpec>,
    pub controller: ControllerSpec,
    /// `(m, k, n)` of the model's largest matrix product in one gradient.
    pub gemm: (usize, usize, usize),
    pub lazy: bool,
}

/// An `Experiment`-driven workload.
struct Plan {
    config: ExperimentConfig,
    stop: StopCondition,
    /// `(checkpoint cadence, round at which the run is cut and resumed)`.
    resume: Option<(usize, usize)>,
    shape: Shape,
}

const COHORT_POPULATION: usize = 1_000_000;
const COHORT_SIZE: usize = 256;
const COHORT_K: usize = 32;
const COHORT_ROUNDS: usize = 180;
const COHORT_BATCH: usize = 8;
const COHORT_LOSS_WINDOW: usize = 40;

fn cohort_dataset() -> SyntheticFemnistConfig {
    SyntheticFemnistConfig {
        num_clients: COHORT_POPULATION,
        samples_per_client: 64,
        feature_dim: 32,
        num_classes: 16,
        classes_per_client: 8,
        writer_shift_std: 0.5,
        noise_std: 0.5,
        test_samples: 512,
    }
}

fn femnist(
    num_clients: usize,
    samples_per_client: usize,
    feature_dim: usize,
    writer_shift_std: f32,
    noise_std: f32,
) -> SyntheticFemnistConfig {
    SyntheticFemnistConfig {
        num_clients,
        samples_per_client,
        feature_dim,
        num_classes: 62,
        classes_per_client: 12,
        writer_shift_std,
        noise_std,
        test_samples: 512,
    }
}

fn plan(workload: Workload, opts: &RunOpts) -> Plan {
    let cap = |rounds: usize| opts.round_cap.map_or(rounds, |c| c.min(rounds));
    let base = ExperimentConfig::builder()
        .seed(opts.seed)
        .parallelism(opts.parallelism);
    match workload {
        Workload::PaperCnnAdaptive => {
            let dataset = femnist(8, 64, 784, 0.6, 0.7);
            let model = ModelSpec::Cnn {
                channels: 1,
                height: 28,
                width: 28,
                filters: 40,
            };
            Plan {
                config: base
                    .dataset(DatasetSpec::Femnist(dataset))
                    .model(model.clone())
                    .learning_rate(0.01)
                    .batch_size(32)
                    .comm_time(10.0)
                    .eval_every(5)
                    .build(),
                stop: StopCondition::until_loss(0.30, cap(120)),
                resume: None,
                shape: Shape {
                    dataset,
                    model,
                    batch: 32,
                    codec: None,
                    controller: ControllerSpec::Algorithm3,
                    gemm: (32, 6760, 62),
                    lazy: false,
                },
            }
        }
        Workload::SparseWideLinear => {
            let dataset = femnist(16, 32, 6751, 1.0, 3.0);
            Plan {
                config: base
                    .dataset(DatasetSpec::Femnist(dataset))
                    .model(ModelSpec::Linear)
                    .learning_rate(0.002)
                    .batch_size(8)
                    .eval_every(10)
                    .wire(WireSpec {
                        codec: CodecSpec::QLinear8,
                        channel: ChannelSpec::uniform(2e5, 4e5, 0.05).with_spread(4.0),
                    })
                    .build(),
                stop: StopCondition::after_rounds(cap(30)),
                resume: None,
                shape: Shape {
                    dataset,
                    model: ModelSpec::Linear,
                    batch: 8,
                    codec: Some(CodecSpec::QLinear8),
                    controller: ControllerSpec::Fixed(20_000.0),
                    gemm: (8, 6751, 62),
                    lazy: false,
                },
            }
        }
        Workload::FaultyAutoResume => {
            let dataset = femnist(24, 64, 784, 0.6, 0.7);
            let model = ModelSpec::Mlp { hidden: vec![128] };
            let rounds = cap(40);
            // Checkpoint every tenth of the run; cut it at six tenths.
            let cadence = (rounds / 10).max(1);
            let cut = cadence * (rounds * 6 / 10 / cadence).max(1);
            Plan {
                config: base
                    .dataset(DatasetSpec::Femnist(dataset))
                    .model(model.clone())
                    .learning_rate(0.05)
                    .batch_size(16)
                    .eval_every(10)
                    .wire(WireSpec {
                        codec: CodecSpec::Auto,
                        channel: ChannelSpec::uniform(2e5, 4e5, 0.05)
                            .with_spread(4.0)
                            .with_fluctuation(10, 0.5),
                    })
                    .fault(FaultModel {
                        drop_prob: 0.10,
                        crash_prob: 0.05,
                        outage_rounds: (1, 3),
                        straggle_prob: 0.20,
                        straggle_factor: 4.0,
                        deadline: None,
                        corrupt_prob: 0.15,
                        max_retries: 2,
                        retry_backoff: 0.05,
                        seed: opts.seed ^ 0xFA17,
                    })
                    .build(),
                stop: StopCondition::after_rounds(rounds),
                resume: Some((cadence, cut)),
                shape: Shape {
                    dataset,
                    model,
                    batch: 16,
                    codec: Some(CodecSpec::Auto),
                    controller: ControllerSpec::Algorithm3,
                    gemm: (16, 784, 128),
                    lazy: false,
                },
            }
        }
        Workload::CohortMillionWired => unreachable!("not an Experiment workload"),
    }
}

/// The shapes the layer probes of `workload` replay.
pub fn shape(workload: Workload, opts: &RunOpts) -> Shape {
    match workload {
        Workload::CohortMillionWired => Shape {
            dataset: cohort_dataset(),
            model: ModelSpec::Linear,
            batch: COHORT_BATCH,
            codec: Some(CodecSpec::Auto),
            controller: ControllerSpec::Fixed(COHORT_K as f64),
            gemm: (COHORT_BATCH, 32, 16),
            lazy: true,
        },
        _ => plan(workload, opts).shape,
    }
}

/// Builds the workload up to the point where its first round could begin,
/// and drops it: one sample of `setup_s`.
pub fn setup_once(workload: Workload, opts: &RunOpts) -> f64 {
    let start = Instant::now();
    match workload {
        Workload::CohortMillionWired => drop(build_cohort_sim(opts)),
        _ => drop(Experiment::new(&plan(workload, opts).config)),
    }
    start.elapsed().as_secs_f64()
}

/// Runs one repetition of `workload`.
pub fn run(workload: Workload, opts: &RunOpts) -> Rep {
    match workload {
        Workload::CohortMillionWired => run_cohort(opts),
        _ => run_plan(workload, &plan(workload, opts), opts),
    }
}

fn full_trace(path: &Path) -> TelemetrySpec {
    // Lines stay buffered until the run ends, so file I/O is outside the
    // rounds being traced.
    TelemetrySpec {
        flush_every: usize::MAX,
        ..TelemetrySpec::full(path)
    }
}

fn run_plan(workload: Workload, plan: &Plan, opts: &RunOpts) -> Rep {
    let label = workload.name();
    let setup_start = Instant::now();
    let mut exp = Experiment::new(&plan.config);
    let dim = exp.dim();
    let mut tap = Tap::new(plan.shape.controller.build(dim, plan.config.seed));
    if let Some(path) = &opts.trace {
        exp.set_telemetry(full_trace(path))
            .expect("open the trace file");
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let loop_start = Instant::now();
    let mut taps = Vec::new();
    let mut traced = None;
    let mut checkpoint_bytes = 0;
    let mut checkpoint_restore_s = 0.0;
    let history = match plan.resume {
        None => exp.run_with_controller(&mut tap, &plan.stop, label),
        Some((cadence, cut)) => {
            let file = opts
                .out_dir
                .join(format!("{label}_{}.agck", std::process::id()));
            let spec = CheckpointSpec::new(&file, cadence);
            exp.run_with_controller_checkpointed(
                &mut tap,
                &StopCondition::after_rounds(cut),
                label,
                &spec,
            )
            .expect("checkpointed leg");
            // The last checkpoint is at the cut, so the resumed leg replays
            // nothing the first leg's tap already holds.
            assert_eq!(cut % cadence, 0, "the cut must fall on a checkpoint");
            taps.extend_from_slice(tap.rounds());
            traced = collect_trace(&mut exp);

            // Inside the timed loop: a user who resumes pays the rebuild.
            exp = Experiment::new(&plan.config);
            tap = Tap::new(plan.shape.controller.build(dim, plan.config.seed));
            if let Some(path) = &opts.trace {
                exp.set_telemetry(full_trace(&path.with_extension("resumed")))
                    .expect("open the trace file");
            }
            let restore_start = Instant::now();
            let history = exp
                .resume_with_controller(&mut tap, &plan.stop, &spec)
                .expect("resumed leg");
            checkpoint_restore_s = tap
                .first_round_started()
                .map_or(0.0, |t| (t - restore_start).as_secs_f64());
            checkpoint_bytes = std::fs::metadata(&file).map_or(0, |m| m.len());
            std::fs::remove_file(&file).ok();
            history
        }
    };
    let loop_s = loop_start.elapsed().as_secs_f64();
    taps.extend_from_slice(tap.rounds());

    // Each leg had an experiment, and so a worker pool, of its own.
    let traced = match (traced, collect_trace(&mut exp)) {
        (Some(mut first), Some(second)) => {
            first.recorder.merge(&second.recorder);
            first.dispatch.merge(&second.dispatch);
            if let (Some(a), Some(b)) = (first.pool.as_mut(), second.pool.as_ref()) {
                for (x, y) in a.workers.iter_mut().zip(&b.workers) {
                    x.busy_ns += y.busy_ns;
                    x.idle_ns += y.idle_ns;
                    x.tasks += y.tasks;
                }
            }
            first.pool_regions += second.pool_regions;
            Some(first)
        }
        (first, second) => first.or(second),
    };
    if let (Some(path), Some(_)) = (&opts.trace, plan.resume) {
        append_and_remove(&path.with_extension("resumed"), path);
    }

    let points = history.points();
    assert_eq!(points.len(), taps.len(), "tap and history disagree");
    let rounds: Vec<RoundSeen> = points
        .iter()
        .zip(&taps)
        .map(|(p, t)| RoundSeen {
            k_used: t.k_used,
            train_loss: p.train_loss,
            round_time: t.round_time,
            elapsed_time: p.elapsed_time,
            wall_ns: t.wall_ns,
            cohort: None,
            wire_bytes: None,
        })
        .collect();
    let final_loss = history.final_global_loss().unwrap_or(f64::NAN);
    let stop_fired = match plan.stop.target_loss {
        Some(target) => final_loss <= target,
        None => plan.stop.max_rounds == Some(rounds.len()),
    };
    let cohort = exp.num_clients();
    let wired = plan.config.wire.is_some();
    let uplink_bytes = if wired {
        history.wire_bytes().0
    } else {
        // The scalar proxy: every member uploads k (index, value) pairs.
        rounds.iter().map(|r| 8 * (r.k_used * cohort) as u64).sum()
    };
    let sim = exp.simulation();
    Rep {
        dim,
        cohort,
        wired,
        setup_s,
        loop_s,
        stop_fired,
        final_loss,
        chance_loss: (plan.shape.dataset.num_classes as f64).ln(),
        test_accuracy: history.final_test_accuracy().unwrap_or(f64::NAN),
        uplink_bytes,
        // One broadcast frame per round rides along in the codec counts.
        frames: history.codec_counts().iter().sum(),
        contributions: history.contributions().iter().sum(),
        fault: *history.fault_totals(),
        resident_clients: sim.resident_clients(),
        checkpoint_bytes,
        checkpoint_restore_s,
        final_params_digest: params_digest(sim.params()),
        rounds,
        traced,
    }
}

/// Takes the telemetry state off a traced experiment, with the pool's
/// counters as they stand.
fn collect_trace(exp: &mut Experiment) -> Option<Traced> {
    let executor = exp.simulation().executor().clone();
    let pool = executor.pool_metrics();
    let pool_regions = executor.pool_generations();
    let state = exp.take_telemetry()?;
    Some(Traced {
        recorder: state.recorder().clone(),
        dispatch: state.dispatch_histogram().clone(),
        pool,
        pool_regions,
    })
}

fn append_and_remove(from: &Path, to: &Path) {
    use std::io::Write;
    let tail = std::fs::read(from).expect("read the resumed leg's trace");
    std::fs::OpenOptions::new()
        .append(true)
        .open(to)
        .and_then(|mut f| f.write_all(&tail))
        .expect("append the resumed leg's trace");
    std::fs::remove_file(from).ok();
}

fn build_cohort_sim(opts: &RunOpts) -> Simulation {
    let source = LazySyntheticFemnist::new(cohort_dataset(), opts.seed ^ 0xC0_4087);
    let model = LinearSoftmax::new(32, 16);
    let channel = ChannelModel::uniform(COHORT_POPULATION, 1.0, 2e3, 4e3, 0.05);
    Simulation::with_source(
        Box::new(model),
        Box::new(source),
        Box::new(FabTopK::new()),
        SimulationConfig {
            learning_rate: 0.05,
            batch_size: COHORT_BATCH,
            time_model: TimeModel::normalized(5.0),
            seed: opts.seed,
            parallelism: opts.parallelism,
            wire: Some(WireConfig {
                codec: CodecSpec::Auto,
                channel,
            }),
            fault: None,
            cohort: Some(COHORT_SIZE),
        },
    )
}

fn run_cohort(opts: &RunOpts) -> Rep {
    let setup_start = Instant::now();
    let mut sim = build_cohort_sim(opts);
    let mut recorder = opts.trace.as_ref().map(|_| StageRecorder::new());
    if recorder.is_some() {
        sim.executor().set_metrics_enabled(true);
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let total = opts
        .round_cap
        .map_or(COHORT_ROUNDS, |c| c.min(COHORT_ROUNDS));
    let mut rounds = Vec::with_capacity(total);
    let mut lines = Vec::new();
    let mut dispatch = Histogram::new();
    let (mut uplink_bytes, mut frames, mut contributions) = (0u64, 0u64, 0u64);
    let loop_start = Instant::now();
    for _ in 0..total {
        let round_start = Instant::now();
        let report = match recorder.as_mut() {
            Some(rec) => {
                rec.begin_round();
                sim.run_round_recorded(COHORT_K, None, rec)
            }
            None => sim.run_round(COHORT_K, None),
        };
        let wall_ns = round_start.elapsed().as_nanos() as u64;
        let wire = report.wire.as_ref();
        let round_uplink = wire.map_or(0, |w| w.uplink_bytes.iter().map(|&b| b as u64).sum());
        uplink_bytes += round_uplink;
        frames += wire.map_or(0, |w| w.uplink_codecs.len() as u64 + 1);
        contributions += report.contributions.iter().sum::<usize>() as u64;
        rounds.push(RoundSeen {
            k_used: report.k_used,
            train_loss: report.train_loss,
            round_time: report.round_time,
            elapsed_time: report.elapsed_time,
            wall_ns,
            cohort: Some(report.cohort.len()),
            wire_bytes: wire.map(|w| w.total_bytes()),
        });
        if let Some(rec) = recorder.as_ref() {
            sim.executor().drain_dispatch_latency(&mut dispatch);
            lines.push(cohort_trace_line(&report, wall_ns, rec));
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();

    if let Some(path) = &opts.trace {
        let mut text = lines.join("\n");
        text.push('\n');
        std::fs::write(path, text).expect("write the trace file");
    }
    let traced = recorder.map(|recorder| Traced {
        recorder,
        dispatch,
        pool: sim.executor().pool_metrics(),
        pool_regions: sim.executor().pool_generations(),
    });
    let window = &rounds[rounds.len().saturating_sub(COHORT_LOSS_WINDOW)..];
    let final_loss = window.iter().map(|r| r.train_loss).sum::<f64>() / window.len() as f64;
    Rep {
        dim: sim.dim(),
        cohort: sim.cohort_size(),
        wired: true,
        setup_s,
        loop_s,
        stop_fired: rounds.len() == total,
        final_loss,
        chance_loss: (cohort_dataset().num_classes as f64).ln(),
        test_accuracy: sim.test_accuracy(),
        uplink_bytes,
        frames,
        contributions,
        fault: FaultTotals::default(),
        resident_clients: sim.resident_clients(),
        checkpoint_bytes: 0,
        checkpoint_restore_s: 0.0,
        final_params_digest: params_digest(sim.params()),
        rounds,
        traced,
    }
}

/// One trace line of the cohort workload, in the shape of the lines
/// `Experiment` writes (deterministic facts first, then `spans_ns`).
fn cohort_trace_line(report: &agsfl_fl::RoundReport, wall_ns: u64, rec: &StageRecorder) -> String {
    use std::fmt::Write;
    let mut s = format!(
        "{{\"round\":{},\"k\":{},\"train_loss\":{},\"round_time\":{},\"elapsed_time\":{},\"cohort\":{},\"round_wall_ns\":{},\"spans_ns\":{{",
        report.round,
        report.k_used,
        report.train_loss,
        report.round_time,
        report.elapsed_time,
        report.cohort.len(),
        wall_ns,
    );
    let mut first = true;
    for id in SpanId::ALL {
        let ns = rec.round_span_ns(id);
        if ns > 0 {
            let _ = write!(
                s,
                "{}\"{}\":{}",
                if first { "" } else { "," },
                id.name(),
                ns
            );
            first = false;
        }
    }
    s.push_str("}}");
    s
}
