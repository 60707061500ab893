//! One measured invocation of one workload: the untraced sub-runs that give
//! the end-to-end metrics, or the traced sub-run, speed-up legs and layer
//! probes that give the per-layer metrics.

use std::path::{Path, PathBuf};

use agsfl_core::{Parallelism, SpanId};

use crate::json;
use crate::probes::{self, ProbeInput};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile};
use crate::workloads::{self, Rep, RunOpts, Workload, THREADS};

/// How many sub-runs `--seconds` buys. A sub-run was sized to take 4 to 5 s
/// on the box the benchmark was sized on. `paper_cnn_adaptive` gets nearly
/// twice the others' count: its stop rule and controller make its metrics
/// follow the seed the most (one sub-run's time to target spreads about 20 %
/// across seeds), and only more sub-seeds average that out. The count
/// depends on `--seconds` alone, never on how fast the box is, so a seed
/// reports the same seed-determined values anywhere.
fn sub_runs(workload: Workload, seconds: f64) -> usize {
    let per_second = match workload {
        Workload::PaperCnnAdaptive => 0.3,
        _ => 1.0 / 6.0,
    };
    ((seconds * per_second).round() as usize).max(1)
}

/// Rounds of each `exec.pool_speedup` leg.
const LEG_ROUNDS: usize = 10;

/// Rounds of every repetition and leg under `--quick`.
const QUICK_ROUNDS: usize = 6;

/// The stage spans that tile a round loop. `BatchedForward` is left out: it
/// nests inside `Evaluate`.
const LOOP_SPANS: [(SpanId, &str); 11] = [
    (SpanId::Hydrate, "fl.hydrate_ms"),
    (SpanId::ClientPass, "fl.client_pass_ms"),
    (SpanId::ServerDecode, "fl.server_decode_ms"),
    (SpanId::WireFault, "fl.wire_fault_ms"),
    (SpanId::Selection, "fl.selection_ms"),
    (SpanId::Probe, "fl.probe_ms"),
    (SpanId::DownlinkPricing, "fl.downlink_pricing_ms"),
    (SpanId::BroadcastApply, "fl.broadcast_apply_ms"),
    (SpanId::Bookkeeping, "fl.bookkeeping_ms"),
    (SpanId::Evaluate, "fl.evaluate_ms"),
    (SpanId::CheckpointWrite, "fl.checkpoint_write_ms"),
];

/// What the command line asks of one invocation.
#[derive(Debug, Clone)]
pub struct Request {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// One reported metric: the value and the samples it is the median of.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub request: Request,
    pub sub_runs: usize,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Reported>,
    /// Lines for the human reader, printed ahead of the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Every dataset, channel and fault stream of sub-run `index` is generated
/// from this seed and nothing else.
pub fn sub_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(index as u64)
}

/// Rounds of `rep` that count as failed: those failing a per-round check,
/// or all of them when the workload's stop rule never fired or the run
/// ended no better than a uniform guess. A run capped at a few rounds is
/// held to the per-round checks only.
fn failed_rounds(rep: &Rep, capped: bool) -> usize {
    if capped || (rep.stop_fired && rep.final_loss < rep.chance_loss) {
        rep.failed_rounds()
    } else {
        rep.rounds.len()
    }
}

pub fn run(request: &Request) -> Outcome {
    std::fs::create_dir_all(&request.out_dir).expect("create the output directory");
    if request.trace {
        per_layer(request)
    } else {
        end_to_end(request)
    }
}

fn opts(request: &Request, index: usize) -> RunOpts {
    RunOpts {
        seed: sub_seed(request.seed, index),
        parallelism: THREADS,
        round_cap: request.quick.then_some(QUICK_ROUNDS),
        trace: None,
        out_dir: request.out_dir.clone(),
    }
}

/// Tracing off: a fixed number of sub-runs, each on its own sub-seed, and
/// the median of each metric over them. Host noise and the seed's own luck
/// (which round the stop rule fires at, where the controller wanders) both
/// average out over the sub-runs.
fn end_to_end(request: &Request) -> Outcome {
    let sub_runs = if request.quick {
        1
    } else {
        sub_runs(request.workload, request.seconds)
    };
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut sample = |name: &str, value: f64| {
        let slot = END_TO_END.iter().position(|m| m.metric.name == name);
        samples[slot.unwrap_or_else(|| panic!("{name} is not an end-to-end metric"))].push(value);
        value.is_finite()
    };
    let (mut attempted, mut failed) = (0, 0);
    for index in 0..sub_runs {
        let opts = opts(request, index);
        // A second set-up per sub-run: setup_s is small, so it needs the
        // samples.
        sample("setup_s", workloads::setup_once(request.workload, &opts));
        let rep = workloads::run(request.workload, &opts);
        let rounds = rep.rounds.len();
        let finite = sample("setup_s", rep.setup_s)
            & sample("time_to_target_s", rep.loop_s)
            & sample("rounds_per_s", rounds as f64 / rep.loop_s)
            & sample("test_accuracy", rep.test_accuracy);
        attempted += rounds;
        failed += if finite {
            failed_rounds(&rep, request.quick)
        } else {
            rounds
        };
    }
    let peak = agsfl_exec::mem::peak_rss_bytes().unwrap_or(0);
    sample("peak_rss_mb", peak as f64 / 1e6);
    let metrics = END_TO_END
        .iter()
        .zip(samples)
        .map(|(spec, samples)| Reported {
            name: spec.metric.name,
            unit: spec.metric.unit,
            value: median(&samples),
            samples,
        })
        .collect();
    Outcome {
        request: request.clone(),
        sub_runs,
        attempted,
        failed,
        metrics,
        notes: Vec::new(),
    }
}

/// Tracing on, sub-seed 0 only: an untraced repetition either side of the
/// traced one, a serial and a two-thread leg of a few rounds, and the layer
/// probes at the traced repetition's shapes.
fn per_layer(request: &Request) -> Outcome {
    let workload = request.workload;
    let plain = opts(request, 0);
    let trace_path = request
        .out_dir
        .join(format!("trace_{}.jsonl", workload.name()));
    let before = workloads::run(workload, &plain);
    let traced = workloads::run(
        workload,
        &RunOpts {
            trace: Some(trace_path.clone()),
            ..plain.clone()
        },
    );
    let short = RunOpts {
        round_cap: Some(if request.quick {
            QUICK_ROUNDS
        } else {
            LEG_ROUNDS
        }),
        ..plain.clone()
    };
    // With --quick every repetition is capped like a leg, so the first one
    // doubles as the second untraced one and as the pooled leg.
    let after = (!request.quick).then(|| workloads::run(workload, &plain));
    let serial = workloads::run(
        workload,
        &RunOpts {
            parallelism: Parallelism::Serial,
            ..short.clone()
        },
    );
    let pooled = (!request.quick).then(|| workloads::run(workload, &short));

    let rounds = traced.rounds.len();
    let mut attempted = 0;
    let mut failed = 0;
    for (rep, capped) in [
        (Some(&before), request.quick),
        (Some(&traced), request.quick),
        (after.as_ref(), request.quick),
        (Some(&serial), true),
        (pooled.as_ref(), true),
    ] {
        let Some(rep) = rep else { continue };
        attempted += rep.rounds.len();
        failed += failed_rounds(rep, capped);
    }
    let after = after.as_ref().unwrap_or(&before);
    let pooled = pooled.as_ref().unwrap_or(&before);
    // Recording is observation only, and the worker count is a wall-clock
    // knob: the same sub-seed must give the same trajectory, bit for bit.
    if before.digest() != traced.digest() || after.digest() != traced.digest() {
        failed += rounds;
    }
    if serial.digest() != pooled.digest() {
        failed += pooled.rounds.len();
    }
    failed += trace_file_failures(&trace_path, &traced);

    let mut values = layer_values(&traced, &serial, pooled);
    // The faster untraced repetition is the one the host disturbed least
    // (the first one also warms the process up).
    let untraced_loop_s = before.loop_s.min(after.loop_s);
    values.push((
        "telemetry.overhead_pct",
        (traced.loop_s / untraced_loop_s - 1.0) * 100.0,
    ));
    let ks: Vec<f64> = traced.rounds.iter().map(|r| r.k_used as f64).collect();
    let k_median = median(&ks).round() as usize;
    let k_max = ks.iter().copied().fold(1.0, f64::max) as usize;
    let shape = workloads::shape(workload, &plain);
    values.extend(probes::run(&ProbeInput {
        shape: &shape,
        seed: plain.seed,
        dim: traced.dim,
        cohort: traced.cohort,
        k_median,
        k_max,
        quick: request.quick,
    }));

    let metrics = PER_LAYER
        .iter()
        .map(|spec| {
            let value = values
                .iter()
                .find(|(name, _)| *name == spec.name)
                .unwrap_or_else(|| panic!("no value for {}", spec.name))
                .1;
            Reported {
                name: spec.name,
                unit: spec.unit,
                value,
                samples: vec![value],
            }
        })
        .collect();
    Outcome {
        request: request.clone(),
        sub_runs: 1,
        attempted,
        failed,
        metrics,
        notes: vec![
            format!(
                "loop seconds: untraced {:.3}, traced {:.3}, untraced {:.3}; serial leg {:.3}, pooled leg {:.3}",
                before.loop_s, traced.loop_s, after.loop_s, serial.loop_s, pooled.loop_s
            ),
            format!(
                "trajectory digest {:016x}; probes at D={} cohort={} k_median={} k_max={}",
                traced.digest(),
                traced.dim,
                traced.cohort,
                k_median,
                k_max
            ),
        ],
    }
}

/// The per-layer metrics that come from the traced repetition itself and
/// from the two speed-up legs.
fn layer_values(traced: &Rep, serial: &Rep, pooled: &Rep) -> Vec<(&'static str, f64)> {
    let trace = traced
        .traced
        .as_ref()
        .expect("the traced repetition records");
    let rounds = traced.rounds.len() as f64;
    let span_ms = |id: SpanId| trace.recorder.span_histogram(id).sum() as f64 / 1e6;
    let mut values = Vec::new();
    let mut span_total_ms = 0.0;
    for (id, name) in LOOP_SPANS {
        span_total_ms += span_ms(id);
        values.push((name, span_ms(id) / rounds));
    }
    let loop_ms = traced.loop_s * 1e3;
    values.push(("fl.span_sum_pct", span_total_ms / loop_ms * 100.0));
    let round_ms: Vec<f64> = traced
        .rounds
        .iter()
        .map(|r| r.wall_ns as f64 / 1e6)
        .collect();
    values.push(("fl.round_ms_p50", median(&round_ms)));
    values.push(("fl.round_ms_p90", percentile(&round_ms, 0.9)));
    let outside_ms = loop_ms
        - round_ms.iter().sum::<f64>()
        - span_ms(SpanId::Evaluate)
        - span_ms(SpanId::CheckpointWrite);
    values.push(("core.loop_overhead_pct", outside_ms / loop_ms * 100.0));
    values.push(("core.sim_build_s", traced.setup_s));
    values.push((
        "fl.checkpoint_restore_ms",
        traced.checkpoint_restore_s * 1e3,
    ));
    values.push(("fl.checkpoint_kb", traced.checkpoint_bytes as f64 / 1e3));
    values.push(("fl.resident_clients", traced.resident_clients as f64));

    // Entries the cohort prepared for upload, lost ones included.
    let prepared: f64 = traced
        .rounds
        .iter()
        .map(|r| (r.k_used * traced.cohort) as f64)
        .sum();
    let uploads = rounds * traced.cohort as f64;
    values.push((
        "fl.lost_uploads_pct",
        traced.fault.lost() as f64 / uploads * 100.0,
    ));
    values.push(("fl.retries_per_round", traced.fault.retries as f64 / rounds));
    values.push(("fl.sim_time_to_target", traced.sim_time()));
    values.push(("fl.final_loss", traced.final_loss));
    values.push((
        "fl.uplink_kb_per_round",
        traced.uplink_bytes as f64 / 1e3 / rounds,
    ));
    values.push((
        "sparse.upload_use_pct",
        traced.contributions as f64 / prepared * 100.0,
    ));
    let wire_bytes = if traced.wired {
        traced.uplink_bytes as f64
    } else {
        0.0
    };
    values.push(("wire.bytes_per_entry", wire_bytes / prepared));
    values.push(("wire.frames_per_round", traced.frames as f64 / rounds));

    let ks: Vec<f64> = traced.rounds.iter().map(|r| r.k_used as f64).collect();
    values.push(("online.rounds_to_target", rounds));
    values.push(("online.k_mean", ks.iter().sum::<f64>() / rounds));
    values.push(("online.k_final", ks.last().copied().unwrap_or(0.0)));

    values.push((
        "exec.dispatch_us_p50",
        trace.dispatch.p50().unwrap_or(0) as f64 / 1e3,
    ));
    let pool = trace.pool.as_ref();
    values.push((
        "exec.worker_busy_pct",
        pool.map_or(0.0, |p| p.busy_fraction() * 100.0),
    ));
    values.push((
        "exec.imbalance_ratio",
        pool.map_or(0.0, |p| p.imbalance_ratio()),
    ));
    values.push(("exec.regions_per_round", trace.pool_regions as f64 / rounds));
    values.push(("exec.pool_speedup", serial.loop_s / pooled.loop_s));
    values
}

/// Checks the trace file's own per-round facts: one line per round, the
/// right cohort size, and bytes on the wire when the workload is wired.
/// Returns the number of rounds that fail.
fn trace_file_failures(path: &Path, traced: &Rep) -> usize {
    let text = std::fs::read_to_string(path).expect("read the trace file back");
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != traced.rounds.len() {
        return traced.rounds.len();
    }
    lines
        .iter()
        .filter(|line| {
            let Ok(value) = json::parse(line) else {
                return true;
            };
            let number = |key: &str| value.get(key).and_then(json::Value::as_f64);
            let cohort_ok = number("cohort") == Some(traced.cohort as f64);
            // Lines without byte counts are the cohort workload's own (its
            // rounds were checked from their `RoundReport`s) or an unwired
            // workload's.
            let bytes_ok = match (number("uplink_bytes"), number("downlink_bytes")) {
                (Some(up), Some(down)) => up + down > 0.0,
                _ => true,
            };
            !(cohort_ok && bytes_ok)
        })
        .count()
}
