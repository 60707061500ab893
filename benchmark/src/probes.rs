//! Layer probes: after the traced repetition, each crate's public hot
//! functions are timed alone at that workload's own shapes (D, cohort,
//! median and maximum k, codec, model, batch). Inputs come from the seed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use agsfl_core::{DatasetSpec, Recorder, SpanId, StageRecorder};
use agsfl_exec::Executor;
use agsfl_ml::data::{ClientShard, LazySyntheticFemnist, ShardSource};
use agsfl_online::RoundFeedback;
use agsfl_sparse::{topk, ClientUpload, FabTopK, SelectionScratch, ShardedScratch, Sparsifier};
use agsfl_tensor::{vecops, Matrix};
use agsfl_wire::WireScratch;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::stats::median;
use crate::workloads::Shape;

/// How long one probe keeps sampling; `--quick` only smoke-tests them.
const PROBE_BUDGET: Duration = Duration::from_millis(120);
const QUICK_PROBE_BUDGET: Duration = Duration::from_millis(10);

/// A sample times at least this long, so the clock's own cost stays small
/// beside it.
const MIN_SAMPLE: Duration = Duration::from_micros(50);

/// Median seconds per call of `f`. The first (warm-up) call sizes how many
/// calls make one sample; then at least three samples are taken, and as
/// many more as fit in the budget.
fn seconds_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let first = t.elapsed().as_secs_f64().max(1e-9);
    let calls = ((MIN_SAMPLE.as_secs_f64() / first).ceil() as usize).clamp(1, 100_000);
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / calls as f64);
    }
    median(&samples)
}

/// What the probes need to know about the traced repetition.
pub struct ProbeInput<'a> {
    pub shape: &'a Shape,
    pub seed: u64,
    pub dim: usize,
    pub cohort: usize,
    pub k_median: usize,
    pub k_max: usize,
    pub quick: bool,
}

impl ProbeInput<'_> {
    fn budget(&self) -> Duration {
        if self.quick {
            QUICK_PROBE_BUDGET
        } else {
            PROBE_BUDGET
        }
    }
}

/// Runs every probe; returns `(metric name, value)` pairs.
pub fn run(input: &ProbeInput<'_>) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mut rng = ChaCha8Rng::seed_from_u64(input.seed ^ 0x009B_0BE5);
    tensor(input, &mut rng, &mut out);
    ml(input, &mut rng, &mut out);
    sparse_and_wire(input, &mut rng, &mut out);
    online(input, &mut out);
    out.push(("telemetry.span_record_ns", span_record_ns(input.budget())));
    out
}

fn random_vec(rng: &mut ChaCha8Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn tensor(input: &ProbeInput<'_>, rng: &mut ChaCha8Rng, out: &mut Vec<(&'static str, f64)>) {
    let (m, k, n) = input.shape.gemm;
    let a = Matrix::from_vec(m, k, random_vec(rng, m * k));
    let b = Matrix::from_vec(k, n, random_vec(rng, k * n));
    let mut c = Matrix::zeros(m, n);
    let s = seconds_per_call(input.budget(), || {
        black_box(&a).matmul_into(black_box(&b), &mut c)
    });
    out.push(("tensor.gemm_gflops", (2 * m * k * n) as f64 / s / 1e9));

    let x = random_vec(rng, input.dim);
    let mut y = random_vec(rng, input.dim);
    let s = seconds_per_call(input.budget(), || {
        vecops::axpy(black_box(&mut y), 1e-3, black_box(&x))
    });
    // Two reads and one write of four bytes per element.
    out.push(("tensor.axpy_gbps", (12 * input.dim) as f64 / s / 1e9));
}

fn ml(input: &ProbeInput<'_>, rng: &mut ChaCha8Rng, out: &mut Vec<(&'static str, f64)>) {
    let shape = input.shape;
    let data = shape.dataset;
    let model = shape.model.build(data.feature_dim, data.num_classes);
    let params = model.init_params(rng);
    let batch = |rows: usize, rng: &mut ChaCha8Rng| {
        let x = Matrix::from_vec(
            rows,
            data.feature_dim,
            random_vec(rng, rows * data.feature_dim),
        );
        let labels: Vec<usize> = (0..rows).map(|i| i % data.num_classes).collect();
        (x, labels)
    };
    let (x, labels) = batch(shape.batch, rng);
    let s = seconds_per_call(input.budget(), || {
        black_box(model.loss_and_grad(black_box(&params), &x, &labels));
    });
    out.push(("ml.grad_ms", s * 1e3));
    let (x, _) = batch(256, rng);
    let s = seconds_per_call(input.budget(), || {
        black_box(model.forward(black_box(&params), &x));
    });
    out.push(("ml.forward_ms", s * 1e3));

    // One dataset (or lazy source) build, then one client's shard.
    let started = Instant::now();
    let source: Box<dyn ShardSource> = if shape.lazy {
        Box::new(LazySyntheticFemnist::new(data, input.seed))
    } else {
        Box::new(DatasetSpec::Femnist(data).generate(rng))
    };
    out.push(("ml.dataset_generate_s", started.elapsed().as_secs_f64()));
    let mut shard = ClientShard::empty(data.feature_dim);
    let mut client = 0;
    let s = seconds_per_call(input.budget(), || {
        source.materialize_into(client, &mut shard);
        client = (client + 1) % source.num_clients();
    });
    out.push(("ml.shard_materialize_us", s * 1e6));
}

fn sparse_and_wire(
    input: &ProbeInput<'_>,
    rng: &mut ChaCha8Rng,
    out: &mut Vec<(&'static str, f64)>,
) {
    let (dim, k_med, k_max) = (input.dim, input.k_median, input.k_max);
    let gradient = random_vec(rng, dim);
    let mut scratch = Vec::new();
    let mut entries = Vec::new();
    for (name, k) in [
        ("sparse.client_topk_ms", k_med),
        ("sparse.client_topk_kmax_ms", k_max),
    ] {
        let s = seconds_per_call(input.budget(), || {
            topk::top_k_entries_into(black_box(&gradient), k, &mut scratch, &mut entries)
        });
        out.push((name, s * 1e3));
    }

    // Cohort-many ranked uploads at k_max; their k_median prefixes are the
    // uploads the same clients would have sent at k_median.
    let weight = 1.0 / input.cohort as f64;
    let uploads_max: Vec<ClientUpload> = (0..input.cohort)
        .map(|client| {
            let g = random_vec(rng, dim);
            ClientUpload::new(client, weight, topk::top_k_entries(&g, k_max))
        })
        .collect();
    let uploads_med: Vec<ClientUpload> = uploads_max
        .iter()
        .map(|u| ClientUpload::new(u.client, weight, u.entries[..k_med].to_vec()))
        .collect();
    let fab = FabTopK::new();
    let mut serial = SelectionScratch::new();
    let select_med = seconds_per_call(input.budget(), || {
        drop(black_box(fab.select_into(
            &uploads_med,
            dim,
            k_med,
            &mut serial,
        )))
    });
    out.push(("sparse.select_ms", select_med * 1e3));
    let s = seconds_per_call(input.budget(), || {
        drop(black_box(fab.select_into(
            &uploads_max,
            dim,
            k_max,
            &mut serial,
        )))
    });
    out.push(("sparse.select_kmax_ms", s * 1e3));
    let mut sharded = ShardedScratch::new();
    let executor = Executor::new(2);
    let s = seconds_per_call(input.budget(), || {
        drop(black_box(fab.select_parallel(
            &uploads_med,
            dim,
            k_med,
            &mut sharded,
            &executor,
        )))
    });
    out.push(("sparse.select_parallel_ratio", s / select_med));

    let Some(spec) = input.shape.codec else {
        out.extend([
            ("wire.encode_us", 0.0),
            ("wire.decode_us", 0.0),
            ("wire.reject_us", 0.0),
        ]);
        return;
    };
    let codec = spec.build_seeded(input.seed);
    let mut message = uploads_med[0].entries.clone();
    message.sort_unstable_by_key(|&(index, _)| index);
    let mut wire = WireScratch::new();
    let s = seconds_per_call(input.budget(), || {
        black_box(codec.encode_into(dim, black_box(&message), &mut wire));
    });
    out.push(("wire.encode_us", s * 1e6));
    let frame = codec.encode_into(dim, &message, &mut wire).to_vec();
    let mut decoded = Vec::new();
    let s = seconds_per_call(input.budget(), || {
        codec
            .decode_into(black_box(&frame), &mut decoded)
            .expect("a clean frame decodes");
    });
    out.push(("wire.decode_us", s * 1e6));
    // A frame cut in half, one of the fault model's two corruptions, is
    // always rejected; it carries no checksum, so a flipped value byte is not.
    let damaged = &frame[..frame.len() / 2];
    let s = seconds_per_call(input.budget(), || {
        let rejected = codec.decode_into(black_box(damaged), &mut decoded);
        assert!(rejected.is_err(), "a truncated frame decoded");
    });
    out.push(("wire.reject_us", s * 1e6));
}

fn online(input: &ProbeInput<'_>, out: &mut Vec<(&'static str, f64)>) {
    let mut controller = input.shape.controller.build(input.dim, input.seed);
    let mut round = 0u32;
    let s = seconds_per_call(input.budget(), || {
        round += 1;
        let k = controller.propose_k();
        let probe = controller.probe_k().unwrap_or(k);
        let loss = 1.0 / f64::from(round);
        controller.observe(&RoundFeedback {
            k_used: k as usize,
            round_time: 1.0 + k / input.dim as f64,
            probe_loss_prev: Some(loss * 1.01),
            probe_loss_now: Some(loss),
            probe_loss_alt: Some(loss * 1.001),
            probe_round_time: Some(1.0 + probe / input.dim as f64),
            probe_k: Some(probe as usize),
            loss_decrease: None,
        });
    });
    out.push(("online.step_us", s * 1e6));
}

fn span_record_ns(budget: Duration) -> f64 {
    let mut rec = StageRecorder::new();
    let mut nanos = 0u64;
    let s = seconds_per_call(budget, || {
        nanos += 1;
        black_box(&mut rec).span(SpanId::ClientPass, black_box(nanos));
    });
    s * 1e9
}
