//! `bench-report`: times the selection kernels on the bench-scale workload,
//! writes machine-readable `BENCH_kernels.json` (current snapshot) and
//! appends one line of run metadata + timings to `BENCH_history.jsonl`, so
//! the perf trajectory of the server hot path is tracked *across* PRs
//! instead of each run overwriting the last.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p agsfl-bench --bin bench-report [-- [OUTPUT.json [HISTORY.jsonl]]]
//! ```
//!
//! A regression is judged by `scripts/pair.sh`, which runs this binary at
//! a parent revision and at the working tree in alternation and pairs each
//! kernel's time across the two; the history file is a ledger for reading,
//! not a baseline.
//!
//! Every row goes through one [`Ledger`]. A section builds its inputs,
//! computes the expected value once through the executable spec (usually a
//! `reference` module), makes one [`Ledger::time`] call on the shipped
//! path, which times it with [`time_ns`] (mean ns per iteration over the
//! fastest half of the samples), records one [`KernelReport`] and prints
//! one line, and asserts that the shipped path produced the spec's bits or
//! bytes. The spec is not timed. The snapshot and the history line read
//! the ledger in call order, and a report renders as the same JSON object
//! in both files.
//!
//! The rows: FAB selection at dim = 10⁵, N = 40, k = dim/100
//! (`fab_select`) and at the paper's dimension (`fab_select_wide`/`_kmax`),
//! the probe aggregate as a restriction of the round's own
//! (`probe_restrict_*`), one pool region's dispatch (`pool_dispatch`), the
//! client top-k and the lossy tier's re-rank (`client_top_k*`,
//! `rank_by_magnitude`), the paper-shape CNN forward and gradient
//! (`cnn_*`), one client step — gradient landed in a residual, then the
//! top-k — at the CNN and at `sparse_wide_linear`'s linear model
//! (`client_step`, `linear_step`), that gradient's three matrix products
//! and its fused convolution layer and backward at every dispatch level
//! the host runs (`fc_fwd@avx2`, `conv_relu_pool@avx512`, `conv_bwd@avx512`,
//! …), the fused evaluation sweep (`eval_sweep`), dataset generation on
//! the pool at `sparse_wide_linear`'s shape (`dataset_generate_wide`), the
//! lossless and quantized wire codecs (`wire_*`, `quant_*`), a wired
//! upload's ordering work at `sparse_wide_linear`'s shape
//! (`wired_client_upload`, `server_rank_decoded`, `reset_errors_merge`),
//! the members' bookkeeping resets of a `k = D/2` round
//! (`bookkeeping_reset_kmax`), a checkpoint restore at the paper's scale
//! (`checkpoint_load`) and a noop and a recorded round (`telemetry_noop`,
//! `telemetry_record`). Each section's comment says what it times and
//! which spec it is asserted against.
//!
//! Beyond the kernels, the report records the process' peak RSS and the
//! telemetry recorder's stage quantiles and pool occupancy. The cohort
//! engine's memory bound is not timed here: `examples/million_clients.rs`
//! gates it, and the benchmark's `cohort_million_wired` workload measures
//! a 256-member cohort of a lazy 10⁶-client population.

use std::io::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use agsfl_bench::kernel_workload::{
    checkpoint_workload, cnn_workload, eval_workload, fab_workload, fresh_checkpoint_sim,
    linear_workload, product_workload, residual_workload, server_workload, telemetry_workload,
    topk_workload, wire_workload, wired_workload, CKPT_CLIENTS, CLIENT_STEP_K, CNN_BATCH,
    EVAL_CLIENTS, FAB_CLIENTS, FAB_DIM, FAB_K, PRODUCT_SHAPES, SERVER_SHAPES, TELEM_CLIENTS,
    TELEM_K, TOPK_DIM, TOPK_KS, WIRED_DIM, WIRED_K, WIRED_RESETS,
};
use agsfl_exec::{mem, Executor};
use agsfl_ml::data::{SyntheticFemnist, SyntheticFemnistConfig};
use agsfl_ml::metrics;
use agsfl_ml::model::{CnnScratch, Model};
use agsfl_ml::reference as ml_reference;
use agsfl_sparse::{
    reference, topk, ClientUpload, FabTopK, ResidualAccumulator, SelectionScratch, Sparsifier,
};
use agsfl_telemetry::{SpanId, StageRecorder};
use agsfl_tensor::dispatch::{self, Level};
use agsfl_tensor::reference as tensor_reference;
use agsfl_tensor::{ConvLayer, ConvScratch, ConvShape, Matrix, MatrixView, Product};
use agsfl_wire::{
    decode_frame, decode_frame_with, reference as wire_reference, CodecSpec, WireScratch,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// Samples per kernel; each sample runs enough iterations to cover ~20 ms.
const SAMPLES: usize = 12;
const TARGET_SAMPLE_SECS: f64 = 0.02;

/// Times `f`, returning mean nanoseconds per iteration over the fastest
/// half of the samples. Every result of `f` goes through [`black_box`].
fn time_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    // Warm-up + calibration.
    let start = Instant::now();
    let mut warmup_iters = 0u64;
    while start.elapsed().as_secs_f64() < 0.05 {
        black_box(f());
        warmup_iters += 1;
    }
    let per_iter = start.elapsed().as_secs_f64() / warmup_iters as f64;
    let iters = (TARGET_SAMPLE_SECS / per_iter.max(1e-9)).ceil().max(1.0) as u64;

    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        samples.push(start.elapsed().as_secs_f64() / iters as f64);
    }
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let half = samples.len().div_ceil(2);
    samples[..half].iter().sum::<f64>() / half as f64 * 1e9
}

/// The workload a row ran at: dimension, clients (or batch rows), `k`,
/// and the worker threads of the timed path (1 = serial kernel).
#[derive(Debug, Clone, Copy)]
struct Shape {
    dim: usize,
    clients: usize,
    k: usize,
    threads: usize,
}

impl Shape {
    /// A row whose timed path runs on one thread.
    fn new(dim: usize, clients: usize, k: usize) -> Self {
        Self {
            dim,
            clients,
            k,
            threads: 1,
        }
    }

    /// The same shape with the timed path on `threads` workers.
    fn on_threads(self, threads: usize) -> Self {
        Self { threads, ..self }
    }
}

/// One recorded row: nanoseconds per iteration of a kernel at one shape.
struct KernelReport {
    name: String,
    shape: Shape,
    ns: f64,
}

impl KernelReport {
    /// The row's one JSON object, on one line, written to both the snapshot
    /// and the history line. `scripts/pair.sh` reads its `kernel` and
    /// `scratch_ns_per_iter`.
    fn json_object(&self) -> String {
        let s = self.shape;
        format!(
            "{{\"kernel\":\"{}\",\"dim\":{},\"clients\":{},\"k\":{},\"threads\":{},\"scratch_ns_per_iter\":{:.1}}}",
            self.name, s.dim, s.clients, s.k, s.threads, self.ns
        )
    }
}

/// Every row of the run, in call order.
#[derive(Default)]
struct Ledger {
    kernels: Vec<KernelReport>,
}

impl Ledger {
    /// Times `f`, records the row and prints its line: name, shape, the
    /// time and `note` (if not empty). Returns the time.
    fn time<T>(
        &mut self,
        name: impl Into<String>,
        shape: Shape,
        note: &str,
        f: impl FnMut() -> T,
    ) -> f64 {
        let name = name.into();
        let ns = time_ns(f);
        let note = if note.is_empty() {
            String::new()
        } else {
            format!("; {note}")
        };
        eprintln!(
            "  {name} (D={}, N={}, k={}, threads={}{note}): {ns:.0} ns",
            shape.dim, shape.clients, shape.k, shape.threads
        );
        self.kernels.push(KernelReport { name, shape, ns });
        ns
    }
}

/// The note of a row timed at `level`: `dispatched` at the level the
/// product path runs.
fn level_note(level: Level) -> &'static str {
    if level == Level::detect() {
        "dispatched"
    } else {
        ""
    }
}

/// Times one client step: the gradient of `batch` landed in a dirty
/// residual (`loss_and_accumulate_into`), then its index-ordered top-`k`.
/// Its first step is asserted against the spec's from the same residual:
/// the gradient materialized in a `D`-vector and added, which must leave
/// the same bits and the same loss.
fn time_client_step(
    ledger: &mut Ledger,
    name: &str,
    model: &dyn Model,
    (params, x, labels): (&[f32], &Matrix, &[usize]),
    k: usize,
) {
    let dim = model.num_params();
    let mut spec_acc: ResidualAccumulator = residual_workload(dim).into();
    let mut landed_acc = spec_acc.clone();
    let mut grad = Vec::new();
    let spec_loss = model.loss_and_grad_into(params, x, labels, &mut grad);
    spec_acc.add(&grad);
    let (mut keys, mut entries) = (Vec::new(), Vec::new());
    let mut landed_step = |acc: &mut ResidualAccumulator| {
        let loss = acc.add_with(dim, |residual| {
            model.loss_and_accumulate_into(black_box(params), x, labels, residual)
        });
        acc.top_k_entries_indexed_into(k, &mut keys, &mut entries);
        black_box(&entries);
        loss
    };
    let landed_loss = landed_step(&mut landed_acc);
    assert_eq!(spec_loss.to_bits(), landed_loss.to_bits(), "{name}: loss");
    assert!(
        spec_acc
            .as_slice()
            .iter()
            .zip(landed_acc.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "{name}: the landed gradient must leave the residual bits of the added one"
    );
    ledger.time(name, Shape::new(dim, x.rows(), k), "", || {
        landed_step(&mut landed_acc)
    });
}

/// `objects`, one per line at `indent`, comma-separated.
fn json_lines(objects: &[String], indent: &str) -> String {
    let lines: Vec<String> = objects.iter().map(|o| format!("{indent}{o}")).collect();
    lines.join(",\n")
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.len() > 2 || paths.iter().any(|arg| arg.starts_with('-')) {
        eprintln!("usage: bench-report [OUTPUT.json [HISTORY.jsonl]]");
        std::process::exit(2);
    }
    let out_path = paths
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let history_path = paths
        .get(1)
        .cloned()
        .unwrap_or_else(|| "BENCH_history.jsonl".to_string());

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The pool rows are always measured through the parallel engine (at
    // least two workers), so the machinery is exercised and its overhead
    // honestly recorded even on a single-core box.
    let pool_threads = cores.max(2);

    eprintln!(
        "bench-report: FAB selection workload dim={FAB_DIM}, N={FAB_CLIENTS}, k={FAB_K} ({cores} core(s))"
    );
    let mut ledger = Ledger::default();

    // FAB server selection as the round engine runs it — every upload
    // accumulated into the dense sums, then the rank-major scan into the
    // `J` bitset and the gather — with the result recycled into the
    // workspace. (In the engine the accumulation runs in the client pass's
    // admission, overlapped with the workers; here it is timed in full.)
    let uploads = fab_workload();
    let mut scratch = SelectionScratch::new();
    let select_recycled = |scratch: &mut SelectionScratch, uploads: &[ClientUpload], dim, k| {
        let result = FabTopK::new().select_into(black_box(uploads), dim, k, scratch);
        scratch.recycle(result);
    };
    ledger.time(
        "fab_select",
        Shape::new(FAB_DIM, FAB_CLIENTS, FAB_K),
        "accumulate + select",
        || select_recycled(&mut scratch, &uploads, FAB_DIM, FAB_K),
    );

    // The server's two reads of a round's uploads at the paper's dimension,
    // on `sparse_wide_linear`'s shape and on an adaptive run's k ≈ D/2
    // round. `fab_select_*`: accumulate + the rank-major scan + the gather,
    // asserted against the spec's binary search over hash-set unions.
    // `probe_restrict_*`: the probe aggregate as a restriction of the
    // round's own, in the round's workspace, asserted against an
    // independent selection at k'.
    for (select_name, restrict_name, clients, k, probe_k) in SERVER_SHAPES {
        let uploads = server_workload(clients, k);
        let fab = FabTopK::new();
        ledger.time(
            select_name,
            Shape::new(TOPK_DIM, clients, k),
            "accumulate + select",
            || select_recycled(&mut scratch, &uploads, TOPK_DIM, k),
        );
        let selection = fab.select_into(&uploads, TOPK_DIM, k, &mut scratch);
        assert_eq!(
            selection,
            reference::fab_select(&uploads, TOPK_DIM, k),
            "the rank-major scan must select what the reference selects"
        );
        ledger.time(
            restrict_name,
            Shape::new(TOPK_DIM, clients, probe_k),
            "",
            || {
                let uploads = black_box(&uploads);
                fab.probe_aggregate(uploads, TOPK_DIM, k, &selection, probe_k, &mut scratch)
            },
        );
        assert_eq!(
            fab.probe_aggregate(&uploads, TOPK_DIM, k, &selection, probe_k, &mut scratch),
            Some(fab.select(&uploads, TOPK_DIM, probe_k).aggregated),
            "the restriction must equal the independent selection at k'"
        );
    }

    // Parallel-region dispatch overhead: the persistent channel-fed pool
    // (`Executor::map_mut`) over a deliberately tiny region — trivial
    // per-item work on a small slice — so the row isolates what
    // *dispatching* one region costs, not what the region computes. The
    // round engine pays this cost several times per round.
    const DISPATCH_ITEMS: usize = 64;
    let dispatch_exec = Executor::new(pool_threads);
    let mut items = vec![0u64; DISPATCH_ITEMS];
    ledger.time(
        "pool_dispatch",
        Shape::new(DISPATCH_ITEMS, DISPATCH_ITEMS, 0).on_threads(pool_threads),
        "",
        || {
            dispatch_exec.map_mut(black_box(&mut items), |x| {
                *x = x.wrapping_add(1);
                *x
            })
        },
    );

    // Client-side top-k extraction at the paper's dimension, at a fixed-k
    // round's degree, at an adaptive run's k_max and at Algorithm 3's low
    // end: the integer-key sampled select + radix rank, asserted against
    // the comparator quickselect + sort kept in `reference`. Then the lossy
    // tier's re-rank of an index-sorted (decoded) list by keys, asserted to
    // restore the ranking.
    let values = topk_workload();
    let mut keys = Vec::new();
    for (name, k) in ["client_top_k", "client_top_k_kmax", "client_top_k_min"]
        .into_iter()
        .zip(TOPK_KS)
    {
        let mut ranked = Vec::new();
        ledger.time(name, Shape::new(TOPK_DIM, 1, k), "", || {
            topk::top_k_entries_into(black_box(&values), k, &mut keys, &mut ranked);
            black_box(&ranked);
        });
        assert_eq!(
            ranked,
            reference::top_k_entries(&values, k),
            "keyed top-k must equal the comparator spec"
        );
    }
    let k = TOPK_KS[0];
    let ranked = topk::top_k_entries(&values, k);
    let mut by_index = ranked.clone();
    topk::sort_by_index(&mut by_index, &mut keys);
    let mut entries = Vec::new();
    ledger.time("rank_by_magnitude", Shape::new(TOPK_DIM, 1, k), "", || {
        entries.clone_from(&by_index);
        topk::rank_by_magnitude(&mut entries, &mut keys);
        black_box(&entries);
    });
    assert_eq!(entries, ranked, "keyed re-rank must restore the ranking");

    // CNN forward and gradient at the paper shape (~420k weights, batch
    // 32): the fused convolution kernels (the forward, and for the gradient
    // the backward too) with a reused workspace. Their bits against the
    // scalar loops of `agsfl_ml::reference` are `cnn_equivalence`'s.
    let (cnn, params, x, labels) = cnn_workload();
    let cnn_shape = Shape::new(cnn.num_params(), CNN_BATCH, cnn.filters());
    let (mut cnn_scratch, mut grad) = (CnnScratch::new(), Vec::new());
    ledger.time("cnn_forward", cnn_shape, "", || {
        cnn.forward_with(black_box(&params), black_box(&x).view(), &mut cnn_scratch)
    });
    ledger.time("cnn_grad", cnn_shape, "", || {
        let (params, x) = (black_box(&params), black_box(&x));
        cnn.loss_and_grad_with(params, x, &labels, &mut cnn_scratch, &mut grad)
    });

    // One client step, Line 4 then Line 6 of Algorithm 1, at the paper's
    // CNN (`client_step`) and at `sparse_wide_linear`'s model
    // (`linear_step`); see `time_client_step`.
    time_client_step(
        &mut ledger,
        "client_step",
        &cnn,
        (&params, &x, &labels),
        CLIENT_STEP_K,
    );
    let (linear, linear_params, linear_x, linear_labels) = linear_workload();
    time_client_step(
        &mut ledger,
        "linear_step",
        &linear,
        (&linear_params, &linear_x, &linear_labels),
        WIRED_K,
    );

    // Its convolution layer alone (conv + bias + ReLU + 2x2 pool, 32 rows
    // of 1x28x28, 40 filters): the fused kernel at every vector width this
    // CPU can run, asserted bit for bit against the spec's im2col lowering
    // (columns, a bias-seeded scalar product, a ReLU/pool pass).
    let conv_shape = ConvShape {
        channels: cnn.in_channels(),
        height: cnn.height(),
        width: cnn.width(),
        filters: cnn.filters(),
    };
    // The parameter vector starts with the `[O][C][3][3]` weights, then the
    // `O` biases.
    let conv_weights = cnn.filters() * conv_shape.patch_dim();
    let layer = ConvLayer::new(
        conv_shape,
        &params[..conv_weights],
        &params[conv_weights..conv_weights + cnn.filters()],
    );
    let conv_rows = Shape::new(layer.weights().len(), CNN_BATCH, cnn.filters());
    let mut conv_scratch = ConvScratch::new();
    let mut expected = vec![0.0f32; CNN_BATCH * conv_shape.pooled_dim()];
    tensor_reference::conv_relu_pool(layer, x.view(), &mut expected, None);
    let mut pooled = expected.clone();
    for level in Level::available() {
        ledger.time(
            format!("conv_relu_pool@{}", level.name()),
            conv_rows,
            level_note(level),
            || {
                let images = black_box(&x).view();
                dispatch::conv_relu_pool(level, layer, images, &mut conv_scratch, &mut pooled, None)
            },
        );
        assert!(
            pooled
                .iter()
                .zip(&expected)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "conv_relu_pool at {} must reproduce the im2col lowering bit for bit",
            level.name()
        );
    }

    // Its backward alone (the weight and bias gradients from the pooled
    // gradient, the forward's ReLU mask and the images): the fused kernel
    // at every level, asserted bit for bit against the spec's im2col
    // lowering (the pre-activation gradient written out, a serial row sum
    // per filter for the bias, the columns, and `dpre · colsᵀ` through the
    // scalar product).
    let mut mask = vec![0u8; CNN_BATCH * conv_shape.mask_dim()];
    dispatch::conv_relu_pool(
        Level::detect(),
        layer,
        x.view(),
        &mut conv_scratch,
        &mut pooled,
        Some(&mut mask),
    );
    let dpooled: Vec<f32> = (0..pooled.len())
        .map(|i| ((i * 37 % 101) as f32 - 50.0) * 1e-3)
        .collect();
    let mut expected = (
        vec![0.0f32; layer.weights().len()],
        vec![0.0f32; cnn.filters()],
    );
    tensor_reference::conv_relu_pool_backward(
        conv_shape,
        x.view(),
        &dpooled,
        &mask,
        &mut expected.0,
        &mut expected.1,
    );
    let mut got = expected.clone();
    for level in Level::available() {
        ledger.time(
            format!("conv_bwd@{}", level.name()),
            conv_rows,
            level_note(level),
            || {
                dispatch::conv_relu_pool_backward(
                    level,
                    conv_shape,
                    black_box(&x).view(),
                    &dpooled,
                    &mask,
                    &mut conv_scratch,
                    &mut got.0,
                    &mut got.1,
                )
            },
        );
        assert!(
            got.0
                .iter()
                .chain(&got.1)
                .zip(expected.0.iter().chain(&expected.1))
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "conv_bwd at {} must reproduce the im2col lowering bit for bit",
            level.name()
        );
    }

    // That gradient's three matrix products, one by one: the
    // register-tiled kernel at every vector width this CPU can run,
    // asserted bit for bit against the scalar spec of the product's fold
    // order. The rows justify the levels shipped — a level that does not
    // beat the one below it has no business being dispatched to. The
    // level the product path runs at is noted.
    for (name, op, lhs, rhs) in PRODUCT_SHAPES {
        let (a_data, b_data) = product_workload(lhs, rhs);
        let a = MatrixView::new(lhs.0, lhs.1, &a_data);
        let b = MatrixView::new(rhs.0, rhs.1, &b_data);
        let (rows, cols) = op.output_shape(a, b);
        let mut expected = vec![0.0f32; rows * cols];
        tensor_reference::run(op, a, b, &mut expected);
        let mut out = vec![0.0f32; rows * cols];
        let inner = match op {
            Product::TransposeMatmulGrouped(_) | Product::TransposeMatmul(_) => lhs.0,
            _ => lhs.1,
        };
        for level in Level::available() {
            ledger.time(
                format!("{name}@{}", level.name()),
                Shape::new(rows * cols, lhs.0, inner),
                level_note(level),
                || {
                    out.fill(0.0);
                    dispatch::run(level, op, black_box(a), black_box(b), &mut out);
                    black_box(&out);
                },
            );
            assert!(
                out.iter()
                    .zip(&expected)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{name} at {} must reproduce the scalar spec bit for bit",
                level.name()
            );
        }
    }

    // Per-evaluation metric sweep: the fused executor sweep, asserted
    // bit-identical to the three serial passes it replaced (global loss,
    // global accuracy, test accuracy).
    let (eval_model, eval_params, eval_dataset) = eval_workload();
    let model = eval_model.as_ref();
    let shards = eval_dataset.clients();
    let test = eval_dataset.test();
    let eval_exec = Executor::new(pool_threads);
    ledger.time(
        "eval_sweep",
        Shape::new(eval_model.num_params(), EVAL_CLIENTS, test.len()).on_threads(pool_threads),
        "",
        || metrics::global_evaluation(model, &eval_params, shards, test, &eval_exec),
    );
    let fused = metrics::global_evaluation(model, &eval_params, shards, test, &eval_exec);
    assert_eq!(
        fused.train_loss,
        metrics::global_loss(model, &eval_params, shards)
    );
    assert_eq!(
        fused.train_accuracy,
        metrics::global_accuracy(model, &eval_params, shards)
    );
    assert_eq!(
        fused.test_accuracy,
        model.accuracy(&eval_params, &test.features, &test.labels)
    );

    // Dataset generation at `sparse_wide_linear`'s shape (16 writers × 32
    // rows × 6,751 features, 62 classes, 512 test rows) on a two-worker
    // pool — a sequential pass of the variable-length draws, then every
    // fixed-width Gaussian block filled from a seeked copy of the stream —
    // asserted to build the sequential spec's dataset (every draw in order
    // on one stream) and to leave the stream at the same word.
    let wide = SyntheticFemnistConfig {
        num_clients: 16,
        samples_per_client: 32,
        feature_dim: 6_751,
        num_classes: 62,
        classes_per_client: 12,
        writer_shift_std: 1.0,
        noise_std: 3.0,
        test_samples: 512,
    };
    let generate_exec = Executor::new(2);
    let (mut spec_rng, mut pool_rng) = (ChaCha8Rng::seed_from_u64(5), ChaCha8Rng::seed_from_u64(5));
    assert!(
        ml_reference::femnist_generate(&wide, &mut spec_rng)
            == SyntheticFemnist::new(wide).generate_on(&mut pool_rng, &generate_exec)
            && spec_rng.get_word_pos() == pool_rng.get_word_pos(),
        "the pool path must generate the sequential spec's dataset"
    );
    ledger.time(
        "dataset_generate_wide",
        Shape::new(wide.feature_dim, wide.num_clients, wide.test_samples).on_threads(2),
        "16x32 rows + 512 test rows",
        || {
            SyntheticFemnist::new(wide)
                .generate_on(&mut ChaCha8Rng::seed_from_u64(5), &generate_exec)
        },
    );

    // Wire codec encode/decode at the acceptance shape (a dim = 10⁵
    // message with k = 10³ entries — what a k = D/100 round broadcasts):
    // the scratch-reusing `encode_into`, asserted byte-identical to the
    // allocating byte-at-a-time reference encoder (the executable spec),
    // and `decode_frame` into a caller-reused entry buffer, asserted to
    // invert it.
    let message = wire_workload();
    let wire_shape = Shape::new(FAB_DIM, 1, FAB_K);
    let mut wire_scratch = WireScratch::new();
    let delta = CodecSpec::DeltaVarint.build();
    let frame = delta
        .encode_into(message.dim(), message.entries(), &mut wire_scratch)
        .to_vec();
    assert_eq!(
        frame,
        wire_reference::delta_encode(message.dim(), message.entries()),
        "reference encoder must emit the identical frame"
    );
    ledger.time(
        "wire_encode",
        wire_shape,
        &format!("delta-varint, {} B frame", frame.len()),
        || {
            let message = black_box(&message);
            let frame = delta.encode_into(message.dim(), message.entries(), &mut wire_scratch);
            black_box(frame);
        },
    );
    let mut entries_buf = Vec::new();
    ledger.time("wire_decode", wire_shape, "delta-varint", || {
        decode_frame(black_box(&frame), &mut entries_buf).expect("valid frame")
    });
    decode_frame(&frame, &mut entries_buf).expect("valid frame");
    assert_eq!(
        entries_buf,
        message.entries(),
        "decode must invert encode bit-exactly"
    );

    // Lossy quantized codec on the same message: the scratch-reusing fast
    // path, asserted byte-identical to the allocating reference QLinear8
    // encoder (the executable spec of the quantized frame format, including
    // the content-keyed stochastic-rounding stream), and `decode_frame`
    // into a reused buffer, asserted against the reference decode.
    const QUANT_SEED: u64 = 0x9E37_79B9;
    let quant_codec = CodecSpec::QLinear8.build_seeded(QUANT_SEED);
    let quant_frame = quant_codec
        .encode_into(message.dim(), message.entries(), &mut wire_scratch)
        .to_vec();
    assert_eq!(
        quant_frame,
        wire_reference::qlinear8_encode(QUANT_SEED, message.dim(), message.entries()),
        "reference quantizer must emit the identical frame"
    );
    ledger.time(
        "quant_encode",
        wire_shape,
        &format!("qlinear8, {} B frame", quant_frame.len()),
        || {
            let message = black_box(&message);
            let frame =
                quant_codec.encode_into(message.dim(), message.entries(), &mut wire_scratch);
            black_box(frame);
        },
    );
    ledger.time("quant_decode", wire_shape, "qlinear8", || {
        decode_frame(black_box(&quant_frame), &mut entries_buf).expect("valid frame")
    });
    decode_frame(&quant_frame, &mut entries_buf).expect("valid frame");
    assert_eq!(
        entries_buf,
        wire_reference::decode(&quant_frame).expect("valid frame").1,
        "both quantized decoders must reconstruct the same bits"
    );

    // A wired upload's ordering work at `sparse_wide_linear`'s shape
    // (D = 418,624, k = 20,000, QLinear8). Client: select in index order,
    // encode; asserted against the frame of the ordering it replaced
    // (select ranked, index-sort, encode). Server: rank the decoder
    // visitor's keys into the ranked key view; asserted against decoding
    // to an index-ordered list and ranking it. Each expected value is
    // computed once, on its own workspaces.
    let residual = wired_workload();
    let wired_shape = Shape::new(WIRED_DIM, 1, WIRED_K);
    let mut sorted = Vec::new();
    topk::top_k_entries_into(&residual, WIRED_K, &mut Vec::new(), &mut sorted);
    topk::sort_by_index(&mut sorted, &mut Vec::new());
    let sorted_frame = quant_codec
        .encode_into(WIRED_DIM, &sorted, &mut WireScratch::new())
        .to_vec();
    let (mut indexed, mut wired_frame) = (Vec::new(), Vec::new());
    ledger.time("wired_client_upload", wired_shape, "", || {
        topk::top_k_entries_indexed_into(black_box(&residual), WIRED_K, &mut keys, &mut indexed);
        wired_frame.clear();
        wired_frame.extend_from_slice(quant_codec.encode_into(
            WIRED_DIM,
            &indexed,
            &mut wire_scratch,
        ));
        black_box(&wired_frame);
    });
    assert_eq!(
        wired_frame, sorted_frame,
        "the index-ordered selection must encode to the index-sorted ranking's frame"
    );

    let mut decoded = Vec::new();
    decode_frame(&wired_frame, &mut decoded).expect("valid frame");
    topk::rank_by_magnitude(&mut decoded, &mut Vec::new());
    let mut delivered = Vec::new();
    ledger.time("server_rank_decoded", wired_shape, "", || {
        keys.clear();
        decode_frame_with(black_box(&wired_frame), |j, v| {
            keys.push(topk::order_key(j as u32, v))
        })
        .expect("valid frame");
        topk::rank_index_ordered_keys_into(&mut keys, &mut delivered);
        black_box(&delivered);
    });
    let entry_bits = |entries: &[(usize, f32)]| -> Vec<(usize, u32)> {
        entries.iter().map(|&(j, v)| (j, v.to_bits())).collect()
    };
    let view: Vec<(usize, f32)> = delivered.iter().map(|&key| topk::key_entry(key)).collect();
    assert_eq!(
        entry_bits(&view),
        entry_bits(&decoded),
        "ranking from the decoder's visitor must equal decode + rank_by_magnitude"
    );

    // The errors of the frame above (entries it did not reproduce exactly)
    // and the resets FAB hands one client: a top prefix of its ranking, in
    // the index order of its upload. `reset_errors_merge` times the
    // member's packed walk of its whole upload, which tests each entry
    // against `J` and reads the per-entry errors alongside; it is asserted
    // against the spec's per-index search of the index-keyed errors over a
    // prebuilt reset list.
    decode_frame(&wired_frame, &mut decoded).expect("valid frame");
    let errors: Vec<(usize, f32)> = indexed
        .iter()
        .zip(&decoded)
        .filter(|(&(_, v), &(_, vhat))| v != vhat)
        .map(|(&(j, v), &(_, vhat))| (j, v - vhat))
        .collect();
    let mut resets: Vec<usize> = topk::prefix_indices(&delivered, WIRED_RESETS).collect();
    resets.sort_unstable();
    let reset_upload: Vec<(usize, f32)> = resets.iter().map(|&j| (j, 1.0)).collect();
    let selection = FabTopK::new().select(
        &[ClientUpload::new(0, 1.0, reset_upload)],
        WIRED_DIM,
        WIRED_RESETS,
    );
    let per_entry: Vec<f32> = indexed
        .iter()
        .zip(&decoded)
        .map(|(&(_, v), &(_, vhat))| if v != vhat { v - vhat } else { 0.0 })
        .collect();
    let mut by_search = residual.clone();
    reference::reset_indices_to(&mut by_search, &resets, &errors);
    let mut fused = ResidualAccumulator::new(WIRED_DIM);
    fused.add(&residual);
    ledger.time(
        "reset_errors_merge",
        Shape::new(WIRED_DIM, 1, WIRED_RESETS),
        &format!("{} errors", errors.len()),
        || fused.reset_selected(black_box(&decoded), &selection, black_box(&per_entry)),
    );
    assert!(
        fused
            .as_slice()
            .iter()
            .zip(&by_search)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "the fused walk must leave the residual the per-index search leaves"
    );

    // The bookkeeping stage's residual resets at an adaptive run's k = D/2
    // round (`fab_select_kmax`'s 8 members, index-ordered uploads as the
    // round engine delivers them): each member's fused walk of its upload
    // (`ResidualAccumulator::reset_selected`: the test against `J` is a
    // mask, every entry is stored, no list), asserted against a reset list
    // built from `J` per member and applied — what the server's sweep did.
    // Both leave the same residuals and count the same resets.
    let (_, _, reset_clients, reset_k, _) = SERVER_SHAPES[1];
    let uploads = server_workload(reset_clients, reset_k);
    let selection = FabTopK::new().select(&uploads, TOPK_DIM, reset_k);
    let members = || -> Vec<ResidualAccumulator> {
        (0..reset_clients)
            .map(|_| {
                let mut acc = ResidualAccumulator::new(TOPK_DIM);
                acc.add(&values);
                acc
            })
            .collect()
    };
    let (mut listed, mut walked) = (members(), members());
    for (acc, upload) in listed.iter_mut().zip(&uploads) {
        acc.reset_indices(&selection.resets(upload).collect::<Vec<_>>());
    }
    let reset_count: usize = selection.contributions(&uploads).iter().sum();
    ledger.time(
        "bookkeeping_reset_kmax",
        Shape::new(TOPK_DIM, reset_clients, reset_k),
        &format!("{reset_count} resets"),
        || {
            let mut count = 0;
            for (acc, upload) in walked.iter_mut().zip(black_box(&uploads)) {
                count += acc.reset_selected(&upload.entries, &selection, &[]);
            }
            count
        },
    );
    let walked_count: usize = members()
        .iter_mut()
        .zip(&uploads)
        .map(|(acc, upload)| acc.reset_selected(&upload.entries, &selection, &[]))
        .sum();
    assert_eq!(walked_count, reset_count, "the walk counts every reset");
    assert!(
        listed
            .iter()
            .zip(&walked)
            .all(|(a, b)| a.as_slice() == b.as_slice()),
        "both resets must leave the same residuals"
    );

    // Checkpoint load at the paper's >400k-weight scale: the fault path's
    // resume story priced as a kernel. `checkpoint_load` times
    // `restore_state` of the serialized blob into a freshly built
    // simulation, which must reproduce the saved state bit-exactly.
    let ckpt_sim = checkpoint_workload();
    let blob = ckpt_sim.save_state();
    let mut target = fresh_checkpoint_sim();
    ledger.time(
        "checkpoint_load",
        Shape::new(ckpt_sim.dim(), CKPT_CLIENTS, 0),
        &format!("{} B blob", blob.len()),
        || {
            target
                .restore_state(black_box(&blob))
                .expect("same-fingerprint restore")
        },
    );
    assert_eq!(target.save_state(), blob, "restore must be bit-exact");

    // Telemetry: a noop round and a recorded round price what full
    // instrumentation (stage clock reads, histogram buckets, pool
    // counters) costs per round, and the recorder's own output — stage
    // quantiles plus pool busy/idle fractions — goes into the snapshot so
    // stage-share regressions in the round engine are visible across PRs.
    let mut noop_sim = telemetry_workload();
    let telem_dim = noop_sim.dim();
    let telem_shape = Shape::new(telem_dim, TELEM_CLIENTS, TELEM_K).on_threads(2);
    let mut rec_sim = telemetry_workload();
    rec_sim.executor().set_metrics_enabled(true);
    let mut recorder = StageRecorder::new();
    let noop_ns = ledger.time("telemetry_noop", telem_shape, "noop round", || {
        noop_sim.run_round(TELEM_K, None)
    });
    let recorded_ns = ledger.time("telemetry_record", telem_shape, "recorded round", || {
        recorder.begin_round();
        rec_sim.run_round_recorded(TELEM_K, None, &mut recorder)
    });
    let telemetry_spans: Vec<String> = SpanId::ALL
        .into_iter()
        .filter_map(|id| {
            let h = recorder.span_histogram(id);
            (!h.is_empty()).then(|| {
                format!(
                    "{{\"span\":\"{}\",\"count\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
                    id.name(),
                    h.count(),
                    h.p50().unwrap_or(0),
                    h.p95().unwrap_or(0),
                    h.p99().unwrap_or(0)
                )
            })
        })
        .collect();
    let pool_snapshot = rec_sim.executor().pool_metrics();
    let telemetry_pool_json = pool_snapshot.as_ref().map_or_else(
        || "null".to_string(),
        |s| {
            format!(
                "{{\"workers\":{},\"busy_fraction\":{:.4},\"busy_ns\":{},\"idle_ns\":{},\"tasks\":{},\"imbalance\":{:.3}}}",
                s.workers.len(),
                s.busy_fraction(),
                s.total_busy_ns(),
                s.total_idle_ns(),
                s.total_tasks(),
                s.imbalance_ratio()
            )
        },
    );
    if let Some(s) = &pool_snapshot {
        eprintln!(
            "  pool: {} workers, busy fraction {:.3}, {} tasks, imbalance {:.2}",
            s.workers.len(),
            s.busy_fraction(),
            s.total_tasks(),
            s.imbalance_ratio()
        );
    }

    // Peak RSS of this whole process — an upper bound on every workload
    // above, recorded so memory regressions show up in the snapshot diff.
    let peak_rss_json = mem::peak_rss_bytes().map_or_else(|| "null".to_string(), |b| b.to_string());
    let kernels: Vec<String> = ledger
        .kernels
        .iter()
        .map(KernelReport::json_object)
        .collect();

    let json = format!(
        concat!(
            "{{\n",
            "  \"suite\": \"selection_kernels\",\n",
            "  \"workload\": {{ \"dim\": {}, \"clients\": {}, \"k\": {} }},\n",
            "  \"cores\": {},\n",
            "  \"peak_rss_bytes\": {},\n",
            "  \"kernels\": [\n{}\n  ],\n",
            "  \"telemetry\": {{\n",
            "    \"spans\": [\n{}\n    ],\n",
            "    \"pool\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        FAB_DIM,
        FAB_CLIENTS,
        FAB_K,
        cores,
        peak_rss_json,
        json_lines(&kernels, "    "),
        json_lines(&telemetry_spans, "      "),
        telemetry_pool_json
    );
    std::fs::write(&out_path, json).expect("failed to write bench report");
    eprintln!("bench-report: wrote {out_path}");

    // Append this run to the history log (one JSON object per line), so
    // selection-kernel regressions across PRs stay visible.
    let unix_secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let line = format!(
        "{{\"unix_time\":{},\"suite\":\"selection_kernels\",\"workload\":{{\"dim\":{},\"clients\":{},\"k\":{}}},\"cores\":{},\"peak_rss_bytes\":{},\"kernels\":[{}]}}\n",
        unix_secs,
        FAB_DIM,
        FAB_CLIENTS,
        FAB_K,
        cores,
        peak_rss_json,
        kernels.join(",")
    );
    let mut history = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history_path)
        .expect("failed to open bench history");
    history
        .write_all(line.as_bytes())
        .expect("failed to append bench history");
    // The telemetry suite gets its own history line: the noop and recorded
    // round times, the overhead between them, and the stage quantiles and
    // pool occupancy from the recorded rounds, so both the *cost* of
    // instrumentation and the *shape* of a round (stage shares, worker
    // balance) are tracked.
    let telemetry_line = format!(
        "{{\"unix_time\":{},\"suite\":\"telemetry\",\"workload\":{{\"dim\":{},\"clients\":{},\"k\":{}}},\"noop_ns_per_round\":{:.1},\"recorded_ns_per_round\":{:.1},\"overhead_fraction\":{:.4},\"spans\":[{}],\"pool\":{}}}\n",
        unix_secs,
        telem_dim,
        TELEM_CLIENTS,
        TELEM_K,
        noop_ns,
        recorded_ns,
        recorded_ns / noop_ns - 1.0,
        telemetry_spans.join(","),
        telemetry_pool_json
    );
    history
        .write_all(telemetry_line.as_bytes())
        .expect("failed to append telemetry history");
    eprintln!("bench-report: appended to {history_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `scripts/pair.sh` reads each kernel from one line of the snapshot
    /// with two patterns, `"kernel":"…"` and `"scratch_ns_per_iter":`
    /// followed by the number up to the next `,` or `}`.
    #[test]
    fn json_object_is_the_line_pair_sh_reads() {
        let report = KernelReport {
            name: "fc_fwd@avx2".to_string(),
            shape: Shape::new(7, 3, 2).on_threads(2),
            ns: 1234.5,
        };
        assert_eq!(
            report.json_object(),
            "{\"kernel\":\"fc_fwd@avx2\",\"dim\":7,\"clients\":3,\"k\":2,\"threads\":2,\"scratch_ns_per_iter\":1234.5}"
        );
    }
}
