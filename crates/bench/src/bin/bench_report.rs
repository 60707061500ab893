//! `bench-report`: times the selection kernels on the bench-scale workload,
//! writes machine-readable `BENCH_kernels.json` (current snapshot) and
//! appends one line of run metadata + timings to `BENCH_history.jsonl`, so
//! the perf trajectory of the server hot path is tracked *across* PRs
//! instead of each run overwriting the last.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p agsfl-bench --bin bench-report [-- [--check] [OUTPUT.json [HISTORY.jsonl]]]
//! ```
//!
//! With `--check` nothing is written: every single-threaded pair's ratio is
//! compared with the same pair in the last `selection_kernels` line of the
//! history file recorded at the same core count, and the process exits 1 if
//! one fell more than 15 % below it. Both sides of a pair see the same
//! machine noise, which is why the *ratio* is what is gated; pairs whose
//! optimized side runs on several threads are listed but not gated.
//!
//! Every pair goes through one [`Ledger`]. A section builds its inputs,
//! asserts that both sides produce the same bits or bytes, and makes one
//! ledger call, which times both sides with [`time_ns`] (mean ns per
//! iteration over the fastest half of the samples), records one
//! [`KernelReport`] and prints one line. `--check`, the snapshot and the
//! history line read the ledger in call order, and a report renders as the
//! same JSON object in both files.
//!
//! The pairs, each a baseline (usually the executable spec in a
//! `reference` module) against the shipped fast path: FAB selection at
//! dim = 10⁵, N = 40, k = dim/100 (`fab_select`) and at the paper's
//! dimension (`fab_select_wide`/`_kmax`), the probe aggregate as a
//! restriction of the round's own (`probe_restrict_*`), one pool region's
//! dispatch against a scoped spawn (`pool_dispatch`), the client top-k and
//! the lossy tier's re-rank (`client_top_k*`, `rank_by_magnitude`), the
//! paper-shape CNN forward and gradient (`cnn_*`), one client step —
//! gradient into a residual, then the top-k — with the gradient
//! materialized and added against landed in the residual, at the CNN and
//! at `sparse_wide_linear`'s linear model (`client_step`, `linear_step`),
//! that gradient's three
//! matrix products at every dispatch level the host runs (`fc_fwd@avx2`,
//! …) and its fused convolution layer and backward against the im2col
//! lowering they replaced (`conv_relu_pool@avx512`, `conv_bwd@avx512`, …),
//! the fused evaluation sweep (`eval_sweep`),
//! dataset generation on the pool at `sparse_wide_linear`'s shape
//! (`dataset_generate_wide`), the lossless and
//! quantized wire codecs (`wire_*`, `quant_*`), a wired upload's ordering
//! work at `sparse_wide_linear`'s shape (`wired_client_upload`,
//! `server_rank_decoded`, `reset_errors_merge`), the bookkeeping resets of
//! a `k = D/2` round from a reset list vs the members' fused walk
//! (`bookkeeping_reset_kmax`), a checkpoint restore at
//! the paper's scale (`checkpoint_load`) and the recorded-vs-noop round
//! (`telemetry_record`). Each section's comment says what its two sides
//! are.
//!
//! Beyond the kernels, the report records the process' peak RSS and the
//! telemetry recorder's stage quantiles and pool occupancy. The cohort
//! engine's memory bound is not timed here: `examples/million_clients.rs`
//! gates it, and the benchmark's `cohort_million_wired` workload measures
//! a 256-member cohort of a lazy 10⁶-client population.

use std::cell::RefCell;
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
use agsfl_tensor::reference::{self as tensor_reference, Im2colLowering};
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

/// The `pool_dispatch` baseline: a spawn-per-region map over
/// `std::thread::scope`, chunked like `Executor::map_mut` and returning
/// results in item order.
fn scoped_map_mut<T: Send, R: Send>(
    threads: usize,
    items: &mut [T],
    f: impl Fn(&mut T) -> R + Sync,
) -> Vec<R> {
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|chunk| scope.spawn(move || chunk.iter_mut().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("baseline worker panicked"))
            .collect()
    })
}

/// The workload a pair ran at: dimension, clients (or batch rows), `k`,
/// and the worker threads of the optimized side (1 = serial kernel).
#[derive(Debug, Clone, Copy)]
struct Shape {
    dim: usize,
    clients: usize,
    k: usize,
    threads: usize,
}

impl Shape {
    /// A pair whose optimized side runs on one thread.
    fn new(dim: usize, clients: usize, k: usize) -> Self {
        Self {
            dim,
            clients,
            k,
            threads: 1,
        }
    }

    /// The same shape with the optimized side on `threads` workers.
    fn on_threads(self, threads: usize) -> Self {
        Self { threads, ..self }
    }
}

/// One recorded pair: baseline ("seed") and optimized ("scratch")
/// nanoseconds per iteration at one shape.
struct KernelReport {
    name: String,
    shape: Shape,
    seed_ns: f64,
    scratch_ns: f64,
}

impl KernelReport {
    fn speedup(&self) -> f64 {
        self.seed_ns / self.scratch_ns
    }

    /// The pair's one JSON object, written to both the snapshot and the
    /// history line.
    fn json_object(&self) -> String {
        let s = self.shape;
        format!(
            "{{\"kernel\":\"{}\",\"dim\":{},\"clients\":{},\"k\":{},\"threads\":{},\"seed_ns_per_iter\":{:.1},\"scratch_ns_per_iter\":{:.1},\"speedup\":{:.2}}}",
            self.name, s.dim, s.clients, s.k, s.threads, self.seed_ns, self.scratch_ns, self.speedup()
        )
    }
}

/// Every pair of the run, in call order.
#[derive(Default)]
struct Ledger {
    kernels: Vec<KernelReport>,
}

impl Ledger {
    /// Times `baseline`, then `optimized`, and records the pair.
    fn pair<A, B>(
        &mut self,
        name: &str,
        shape: Shape,
        note: &str,
        baseline: impl FnMut() -> A,
        optimized: impl FnMut() -> B,
    ) -> &KernelReport {
        let seed_ns = time_ns(baseline);
        let scratch_ns = time_ns(optimized);
        self.record(name, shape, note, seed_ns, scratch_ns)
    }

    /// Records a pair whose sides the caller timed and prints its line:
    /// name, shape, both times, the ratio and `note` (if not empty).
    fn record(
        &mut self,
        name: impl Into<String>,
        shape: Shape,
        note: &str,
        seed_ns: f64,
        scratch_ns: f64,
    ) -> &KernelReport {
        let name = name.into();
        let note = if note.is_empty() {
            String::new()
        } else {
            format!("; {note}")
        };
        eprintln!(
            "  {name} (D={}, N={}, k={}, threads={}{note}): {seed_ns:.0} ns -> {scratch_ns:.0} ns, {:.2}x",
            shape.dim, shape.clients, shape.k, shape.threads, seed_ns / scratch_ns
        );
        self.kernels.push(KernelReport {
            name,
            shape,
            seed_ns,
            scratch_ns,
        });
        self.kernels.last().expect("just recorded")
    }
}

/// A pair's ratio may fall this far below its last recorded value before
/// `--check` fails.
const CHECK_TOLERANCE: f64 = 0.15;

/// The `(kernel, speedup)` pairs of the last `selection_kernels` line of
/// `history` that was recorded on `cores` cores. Reads the one format
/// [`KernelReport::json_object`] writes, not JSON in general.
fn last_recorded_ratios(history: &str, cores: usize) -> Option<Vec<(String, f64)>> {
    let cores_field = format!("\"cores\":{cores},");
    let line = history.lines().rev().find(|line| {
        line.contains("\"suite\":\"selection_kernels\"") && line.contains(&cores_field)
    })?;
    Some(
        line.split("{\"kernel\":\"")
            .skip(1)
            .filter_map(|entry| {
                let name = entry.split('"').next()?;
                let speedup = entry.split("\"speedup\":").nth(1)?.split('}').next()?;
                Some((name.to_string(), speedup.parse().ok()?))
            })
            .collect(),
    )
}

/// `--check`: compares every pair with the last history line at the same
/// core count; returns whether a gated pair regressed.
fn check_against_history(kernels: &[KernelReport], history_path: &str, cores: usize) -> bool {
    let history = std::fs::read_to_string(history_path).unwrap_or_default();
    let Some(recorded) = last_recorded_ratios(&history, cores) else {
        eprintln!("bench-report --check: no selection_kernels line at {cores} core(s) in {history_path}; nothing to compare");
        return false;
    };
    let mut regressed = false;
    for kernel in kernels {
        let Some(&(_, before)) = recorded.iter().find(|(name, _)| *name == kernel.name) else {
            eprintln!(
                "  {}: {:.2}x (no recorded ratio)",
                kernel.name,
                kernel.speedup()
            );
            continue;
        };
        let now = kernel.speedup();
        let verdict = if now >= before * (1.0 - CHECK_TOLERANCE) {
            "ok"
        } else if kernel.shape.threads > 1 {
            "below, not gated (multi-threaded pair)"
        } else {
            regressed = true;
            "REGRESSION"
        };
        eprintln!(
            "  {}: {before:.2}x recorded, {now:.2}x now ({:+.1} %) {verdict}",
            kernel.name,
            (now / before - 1.0) * 100.0
        );
    }
    regressed
}

/// Records one client-step pair: the gradient of `batch` added into a
/// dirty residual, then its index-ordered top-`k`. The seed materializes
/// the gradient in a reused `D`-vector and adds it; the optimized side
/// lands it in the residual. Both start from the same residual, and their
/// first steps must leave the same bits and the same loss.
fn client_step_pair(
    ledger: &mut Ledger,
    name: &str,
    model: &dyn Model,
    (params, x, labels): (&[f32], &Matrix, &[usize]),
    k: usize,
) {
    let dim = model.num_params();
    let start: ResidualAccumulator = residual_workload(dim).into();
    let (mut seed_acc, mut landed_acc) = (start.clone(), start);
    let (mut grad, mut seed_keys, mut seed_entries) = (Vec::new(), Vec::new(), Vec::new());
    let mut seed_step = |acc: &mut ResidualAccumulator| {
        let loss = model.loss_and_grad_into(black_box(params), x, labels, &mut grad);
        acc.add(&grad);
        acc.top_k_entries_indexed_into(k, &mut seed_keys, &mut seed_entries);
        black_box(&seed_entries);
        loss
    };
    let (mut keys, mut entries) = (Vec::new(), Vec::new());
    let mut landed_step = |acc: &mut ResidualAccumulator| {
        let loss = acc.add_with(dim, |residual| {
            model.loss_and_accumulate_into(black_box(params), x, labels, residual)
        });
        acc.top_k_entries_indexed_into(k, &mut keys, &mut entries);
        black_box(&entries);
        loss
    };
    let (seed_loss, landed_loss) = (seed_step(&mut seed_acc), landed_step(&mut landed_acc));
    assert_eq!(seed_loss.to_bits(), landed_loss.to_bits(), "{name}: loss");
    assert!(
        seed_acc
            .as_slice()
            .iter()
            .zip(landed_acc.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "{name}: the landed gradient must leave the residual bits of the added one"
    );
    ledger.pair(
        name,
        Shape::new(dim, x.rows(), k),
        "",
        || seed_step(&mut seed_acc),
        || landed_step(&mut landed_acc),
    );
}

/// `objects`, one per line at `indent`, comma-separated.
fn json_lines(objects: &[String], indent: &str) -> String {
    let lines: Vec<String> = objects.iter().map(|o| format!("{indent}{o}")).collect();
    lines.join(",\n")
}

fn main() {
    let (flags, paths): (Vec<String>, Vec<String>) = std::env::args()
        .skip(1)
        .partition(|arg| arg.starts_with("--"));
    if let Some(unknown) = flags.iter().find(|flag| *flag != "--check") {
        eprintln!("bench-report: unknown flag {unknown}; usage: bench-report [--check] [OUTPUT.json [HISTORY.jsonl]]");
        std::process::exit(2);
    }
    let check = !flags.is_empty();
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
    // The pool pairs are always measured through the parallel engine (at
    // least two workers), so the machinery is exercised and its overhead
    // honestly recorded even on a single-core box.
    let pool_threads = cores.max(2);

    eprintln!(
        "bench-report: FAB selection workload dim={FAB_DIM}, N={FAB_CLIENTS}, k={FAB_K} ({cores} core(s))"
    );
    let mut ledger = Ledger::default();

    // FAB server selection: seed vs the shipped path — every upload
    // accumulated into the dense sums, then the rank-major scan into the
    // `J` bitset and the gather — with the result recycled into the
    // workspace, as the round engine runs it. (In the engine the
    // accumulation runs in the client pass's admission, overlapped with
    // the workers; here it is timed in full.)
    let uploads = fab_workload();
    let mut scratch = SelectionScratch::new();
    let select_recycled = |scratch: &mut SelectionScratch, uploads: &[ClientUpload], dim, k| {
        let result = FabTopK::new().select_into(black_box(uploads), dim, k, scratch);
        scratch.recycle(result);
    };
    ledger.pair(
        "fab_select",
        Shape::new(FAB_DIM, FAB_CLIENTS, FAB_K),
        "accumulate + select",
        || reference::fab_select(black_box(&uploads), FAB_DIM, FAB_K),
        || select_recycled(&mut scratch, &uploads, FAB_DIM, FAB_K),
    );

    // The server's two reads of a round's uploads at the paper's dimension,
    // on `sparse_wide_linear`'s shape and on an adaptive run's k ≈ D/2
    // round. `fab_select_*`: accumulate + the rank-major scan + the gather
    // against the seed's binary search over hash-set unions.
    // `probe_restrict_*`: the probe aggregate as a restriction of the
    // round's own against the second `select_into` at k' it replaced; both
    // sides share the round's workspace, as they did in the round. Both
    // sides of each pair must return the same bits.
    for (select_name, restrict_name, clients, k, probe_k) in SERVER_SHAPES {
        let uploads = server_workload(clients, k);
        let fab = FabTopK::new();
        ledger.pair(
            select_name,
            Shape::new(TOPK_DIM, clients, k),
            "accumulate + select",
            || reference::fab_select(black_box(&uploads), TOPK_DIM, k),
            || select_recycled(&mut scratch, &uploads, TOPK_DIM, k),
        );
        let selection = fab.select_into(&uploads, TOPK_DIM, k, &mut scratch);
        assert_eq!(
            selection,
            reference::fab_select(&uploads, TOPK_DIM, k),
            "the rank-major scan must select what the reference selects"
        );
        let shared = RefCell::new(&mut scratch);
        ledger.pair(
            restrict_name,
            Shape::new(TOPK_DIM, clients, probe_k),
            "",
            || {
                let scratch = &mut shared.borrow_mut();
                fab.select_into(black_box(&uploads), TOPK_DIM, probe_k, scratch)
            },
            || {
                let scratch = &mut shared.borrow_mut();
                let uploads = black_box(&uploads);
                fab.probe_aggregate(uploads, TOPK_DIM, k, &selection, probe_k, scratch)
            },
        );
        assert_eq!(
            fab.probe_aggregate(&uploads, TOPK_DIM, k, &selection, probe_k, &mut scratch),
            Some(fab.select(&uploads, TOPK_DIM, probe_k).aggregated),
            "the restriction must equal the independent selection at k'"
        );
    }

    // Parallel-region dispatch overhead: a spawn-per-region `thread::scope`
    // map (`scoped_map_mut` above, the baseline) vs the persistent
    // channel-fed pool (`Executor::map_mut`), over a deliberately tiny
    // region — trivial per-item work on a small slice — so the pair
    // isolates what *dispatching* one region costs, not what the region
    // computes. The round engine pays this cost several times per round;
    // the acceptance bar is pool dispatch below the scope spawn cost.
    const DISPATCH_ITEMS: usize = 64;
    let dispatch_exec = Executor::new(pool_threads);
    let bump = |x: &mut u64| {
        *x = x.wrapping_add(1);
        *x
    };
    let (mut scoped_items, mut pooled_items) =
        (vec![0u64; DISPATCH_ITEMS], vec![0u64; DISPATCH_ITEMS]);
    ledger.pair(
        "pool_dispatch",
        Shape::new(DISPATCH_ITEMS, DISPATCH_ITEMS, 0).on_threads(pool_threads),
        "",
        || scoped_map_mut(pool_threads, black_box(&mut scoped_items), bump),
        || dispatch_exec.map_mut(black_box(&mut pooled_items), bump),
    );

    // Client-side top-k extraction at the paper's dimension, at a fixed-k
    // round's degree, at an adaptive run's k_max and at Algorithm 3's low
    // end: the comparator quickselect + sort kept in `reference` (the
    // executable spec) vs the integer-key sampled select + radix rank.
    // Then the lossy tier's re-rank of an index-sorted (decoded) list:
    // comparator sort vs keys.
    let values = topk_workload();
    let mut keys = Vec::new();
    for (name, k) in ["client_top_k", "client_top_k_kmax", "client_top_k_min"]
        .into_iter()
        .zip(TOPK_KS)
    {
        let mut ranked = Vec::new();
        ledger.pair(
            name,
            Shape::new(TOPK_DIM, 1, k),
            "",
            || reference::top_k_entries(black_box(&values), k),
            || {
                topk::top_k_entries_into(black_box(&values), k, &mut keys, &mut ranked);
                black_box(&ranked);
            },
        );
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
    let (mut sorted, mut entries) = (Vec::new(), Vec::new());
    ledger.pair(
        "rank_by_magnitude",
        Shape::new(TOPK_DIM, 1, k),
        "",
        || {
            sorted.clone_from(&by_index);
            sorted.sort_unstable_by(topk::compare_magnitude_then_index);
            black_box(&sorted);
        },
        || {
            entries.clone_from(&by_index);
            topk::rank_by_magnitude(&mut entries, &mut keys);
            black_box(&entries);
        },
    );
    assert_eq!(entries, ranked, "keyed re-rank must restore the ranking");

    // CNN forward and gradient at the paper shape (~420k weights, batch
    // 32): the seed scalar-loop kernels kept in `agsfl_ml::reference` vs
    // the fused convolution kernels (the forward, and for the gradient the
    // backward too) with a reused workspace.
    let (cnn, params, x, labels) = cnn_workload();
    let cnn_shape = Shape::new(cnn.num_params(), CNN_BATCH, cnn.filters());
    let (mut cnn_scratch, mut grad) = (CnnScratch::new(), Vec::new());
    ledger.pair(
        "cnn_forward",
        cnn_shape,
        "",
        || ml_reference::cnn_forward(&cnn, black_box(&params), black_box(&x)),
        || cnn.forward_with(black_box(&params), black_box(&x).view(), &mut cnn_scratch),
    );
    ledger.pair(
        "cnn_grad",
        cnn_shape,
        "",
        || ml_reference::cnn_loss_and_grad(&cnn, black_box(&params), black_box(&x), &labels),
        || {
            let (params, x) = (black_box(&params), black_box(&x));
            cnn.loss_and_grad_with(params, x, &labels, &mut cnn_scratch, &mut grad)
        },
    );

    // One client step, Line 4 then Line 6 of Algorithm 1: the gradient
    // added into a dirty residual, then the index-ordered top-k of it. The
    // seed materializes the gradient (`loss_and_grad_into` into a reused
    // D-vector) and adds it (`ResidualAccumulator::add`); the optimized
    // side lands it in the residual (`loss_and_accumulate_into`). Both
    // start from the same residual and must agree on its bits. At the
    // paper's CNN (`client_step`) and at `sparse_wide_linear`'s model
    // (`linear_step`).
    client_step_pair(
        &mut ledger,
        "client_step",
        &cnn,
        (&params, &x, &labels),
        CLIENT_STEP_K,
    );
    let (linear, linear_params, linear_x, linear_labels) = linear_workload();
    client_step_pair(
        &mut ledger,
        "linear_step",
        &linear,
        (&linear_params, &linear_x, &linear_labels),
        WIRED_K,
    );

    // Its convolution layer alone (conv + bias + ReLU + 2x2 pool, 32 rows
    // of 1x28x28, 40 filters), at every vector width this CPU can run: the
    // im2col lowering the fused kernel replaced — columns, a bias-seeded
    // `matmul_acc` at the same level, then a ReLU/pool pass reading the
    // pre-activations back — against the fused kernel. Both sides must
    // agree bit for bit.
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
    let (mut lowering, mut conv_scratch) = (Im2colLowering::default(), ConvScratch::new());
    let mut expected = vec![0.0f32; CNN_BATCH * conv_shape.pooled_dim()];
    let mut pooled = expected.clone();
    for level in Level::available() {
        let note = if level == Level::detect() {
            "dispatched"
        } else {
            ""
        };
        ledger.pair(
            &format!("conv_relu_pool@{}", level.name()),
            Shape::new(layer.weights().len(), CNN_BATCH, cnn.filters()),
            note,
            || {
                lowering.run(
                    layer,
                    black_box(&x).view(),
                    &mut expected,
                    |w, cols, pre| dispatch::run(level, Product::MatmulAcc, w, cols, pre),
                )
            },
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
    // gradient, the forward's ReLU mask and the images), at every level:
    // the im2col lowering the fused kernel replaced — the pre-activation
    // gradient written out, a serial row sum per filter for the bias, the
    // columns, and `dpre · colsᵀ` through the dispatched product at the
    // same level — against the fused kernel. Both sides must agree bit for
    // bit.
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
    let mut got = expected.clone();
    for level in Level::available() {
        let note = if level == Level::detect() {
            "dispatched"
        } else {
            ""
        };
        ledger.pair(
            &format!("conv_bwd@{}", level.name()),
            Shape::new(layer.weights().len(), CNN_BATCH, cnn.filters()),
            note,
            || {
                lowering.backward(
                    conv_shape,
                    black_box(&x).view(),
                    (&dpooled, &mask),
                    (&mut expected.0, &mut expected.1),
                    |dpre, cols, out| {
                        dispatch::run(level, Product::MatmulTransposeAcc, dpre, cols, out)
                    },
                )
            },
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

    // That gradient's three matrix products, one by one: the scalar spec of
    // each product's fold order, timed once, against the register-tiled
    // kernel at every vector width this CPU can run. The rows justify the
    // levels shipped — a level that does not beat the one below it on its
    // pair has no business being dispatched to — and both sides must agree
    // bit for bit. The level the product path runs at is noted.
    for (name, op, lhs, rhs) in PRODUCT_SHAPES {
        let (a_data, b_data) = product_workload(lhs, rhs);
        let a = MatrixView::new(lhs.0, lhs.1, &a_data);
        let b = MatrixView::new(rhs.0, rhs.1, &b_data);
        let (rows, cols) = op.output_shape(a, b);
        let mut expected = vec![0.0f32; rows * cols];
        tensor_reference::run(op, a, b, &mut expected);
        let mut out = vec![0.0f32; rows * cols];
        let seed_ns = time_ns(|| {
            out.fill(0.0);
            tensor_reference::run(op, black_box(a), black_box(b), &mut out);
            black_box(&out);
        });
        let inner = match op {
            Product::TransposeMatmulGrouped(_) | Product::TransposeMatmul(_) => lhs.0,
            _ => lhs.1,
        };
        for level in Level::available() {
            let scratch_ns = time_ns(|| {
                out.fill(0.0);
                dispatch::run(level, op, black_box(a), black_box(b), &mut out);
                black_box(&out);
            });
            assert!(
                out.iter()
                    .zip(&expected)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{name} at {} must reproduce the scalar spec bit for bit",
                level.name()
            );
            let note = if level == Level::detect() {
                "dispatched"
            } else {
                ""
            };
            let shape = Shape::new(rows * cols, lhs.0, inner);
            ledger.record(
                format!("{name}@{}", level.name()),
                shape,
                note,
                seed_ns,
                scratch_ns,
            );
        }
    }

    // Per-evaluation metric sweep: the seed's three serial passes (global
    // loss, global accuracy, test accuracy) vs the fused executor sweep,
    // which must be bit-identical to the passes it replaces.
    let (eval_model, eval_params, eval_dataset) = eval_workload();
    let model = eval_model.as_ref();
    let shards = eval_dataset.clients();
    let test = eval_dataset.test();
    let eval_exec = Executor::new(pool_threads);
    ledger.pair(
        "eval_sweep",
        Shape::new(eval_model.num_params(), EVAL_CLIENTS, test.len()).on_threads(pool_threads),
        "",
        || {
            black_box(metrics::global_loss(model, &eval_params, shards));
            black_box(metrics::global_accuracy(model, &eval_params, shards));
            model.accuracy(&eval_params, &test.features, &test.labels)
        },
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
    // rows × 6,751 features, 62 classes, 512 test rows): the sequential
    // spec, every draw in order on one stream, vs the shipped path on a
    // two-worker pool — a sequential pass of the variable-length draws,
    // then every fixed-width Gaussian block filled from a seeked copy of
    // the stream. Both must build the same dataset and leave the stream
    // at the same word.
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
    ledger.pair(
        "dataset_generate_wide",
        Shape::new(wide.feature_dim, wide.num_clients, wide.test_samples).on_threads(2),
        "16x32 rows + 512 test rows",
        || ml_reference::femnist_generate(&wide, &mut ChaCha8Rng::seed_from_u64(5)),
        || {
            SyntheticFemnist::new(wide)
                .generate_on(&mut ChaCha8Rng::seed_from_u64(5), &generate_exec)
        },
    );

    // Wire codec encode/decode at the acceptance shape (a dim = 10⁵
    // message with k = 10³ entries — what a k = D/100 round broadcasts):
    // the allocating byte-at-a-time reference encoder vs the
    // scratch-reusing `encode_into`, and the allocating reference decode
    // vs `decode_frame` into a caller-reused entry buffer. Frames are
    // byte-identical between the variants (the reference is the executable
    // spec).
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
    ledger.pair(
        "wire_encode",
        wire_shape,
        &format!("delta-varint, {} B frame", frame.len()),
        || wire_reference::delta_encode(message.dim(), black_box(message.entries())),
        || {
            let message = black_box(&message);
            let frame = delta.encode_into(message.dim(), message.entries(), &mut wire_scratch);
            black_box(frame);
        },
    );
    let mut entries_buf = Vec::new();
    ledger.pair(
        "wire_decode",
        wire_shape,
        "delta-varint",
        || wire_reference::decode(black_box(&frame)).expect("valid frame"),
        || decode_frame(black_box(&frame), &mut entries_buf).expect("valid frame"),
    );
    decode_frame(&frame, &mut entries_buf).expect("valid frame");
    assert_eq!(
        entries_buf,
        message.entries(),
        "decode must invert encode bit-exactly"
    );

    // Lossy quantized codec on the same message: the allocating reference
    // QLinear8 encoder (the executable spec of the quantized frame format,
    // including the content-keyed stochastic-rounding stream) vs the
    // scratch-reusing fast path, and the allocating reference decode vs
    // `decode_frame` into a reused buffer. As with the lossless pair, the
    // two encoders must emit byte-identical frames.
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
    ledger.pair(
        "quant_encode",
        wire_shape,
        &format!("qlinear8, {} B frame", quant_frame.len()),
        || wire_reference::qlinear8_encode(QUANT_SEED, message.dim(), black_box(message.entries())),
        || {
            let message = black_box(&message);
            let frame =
                quant_codec.encode_into(message.dim(), message.entries(), &mut wire_scratch);
            black_box(frame);
        },
    );
    ledger.pair(
        "quant_decode",
        wire_shape,
        "qlinear8",
        || wire_reference::decode(black_box(&quant_frame)).expect("valid frame"),
        || decode_frame(black_box(&quant_frame), &mut entries_buf).expect("valid frame"),
    );
    decode_frame(&quant_frame, &mut entries_buf).expect("valid frame");
    assert_eq!(
        entries_buf,
        wire_reference::decode(&quant_frame).expect("valid frame").1,
        "both quantized decoders must reconstruct the same bits"
    );

    // A wired upload's ordering work at `sparse_wide_linear`'s shape
    // (D = 418,624, k = 20,000, QLinear8), once per side. Client: select
    // ranked, index-sort, encode (what a wired client did while it ranked)
    // vs select in index order, encode. Server: decode to an index-ordered
    // list, pack and rank it vs rank the decoder visitor's keys into the
    // ranked key view. Reset: one binary search of the error list per reset
    // index vs one merge of the (index-ordered, as delivered) reset indices
    // against it. Each pair asserts equal bits; the baselines keep their
    // own key and codec workspaces.
    let residual = wired_workload();
    let wired_shape = Shape::new(WIRED_DIM, 1, WIRED_K);
    let (mut seed_keys, mut seed_wire) = (Vec::new(), WireScratch::new());
    let (mut ranked, mut indexed) = (Vec::new(), Vec::new());
    let (mut sorted_frame, mut wired_frame) = (Vec::new(), Vec::new());
    ledger.pair(
        "wired_client_upload",
        wired_shape,
        "",
        || {
            topk::top_k_entries_into(black_box(&residual), WIRED_K, &mut seed_keys, &mut ranked);
            topk::sort_by_index(&mut ranked, &mut seed_keys);
            sorted_frame.clear();
            sorted_frame.extend_from_slice(quant_codec.encode_into(
                WIRED_DIM,
                &ranked,
                &mut seed_wire,
            ));
            black_box(&sorted_frame);
        },
        || {
            topk::top_k_entries_indexed_into(
                black_box(&residual),
                WIRED_K,
                &mut keys,
                &mut indexed,
            );
            wired_frame.clear();
            wired_frame.extend_from_slice(quant_codec.encode_into(
                WIRED_DIM,
                &indexed,
                &mut wire_scratch,
            ));
            black_box(&wired_frame);
        },
    );
    assert_eq!(
        wired_frame, sorted_frame,
        "the index-ordered selection must encode to the index-sorted ranking's frame"
    );

    let (mut decoded, mut delivered) = (Vec::new(), Vec::new());
    ledger.pair(
        "server_rank_decoded",
        wired_shape,
        "",
        || {
            decode_frame(black_box(&wired_frame), &mut decoded).expect("valid frame");
            topk::rank_by_magnitude(&mut decoded, &mut seed_keys);
            black_box(&decoded);
        },
        || {
            keys.clear();
            decode_frame_with(black_box(&wired_frame), |j, v| {
                keys.push(topk::order_key(j as u32, v))
            })
            .expect("valid frame");
            topk::rank_index_ordered_keys_into(&mut keys, &mut delivered);
            black_box(&delivered);
        },
    );
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
    // the index order of its upload. `reset_errors_merge`: the spec's
    // per-index search of the index-keyed errors over a prebuilt reset
    // list against the member's packed walk of its whole upload, which
    // tests each entry against `J` and reads the per-entry errors
    // alongside.
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
    let mut fused = ResidualAccumulator::new(WIRED_DIM);
    fused.add(&residual);
    ledger.pair(
        "reset_errors_merge",
        Shape::new(WIRED_DIM, 1, WIRED_RESETS),
        &format!("{} errors", errors.len()),
        || reference::reset_indices_to(&mut by_search, black_box(&resets), black_box(&errors)),
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
    // round engine delivers them): the reset list built from `J` with a
    // branch per entry — what the server's sweep built for every member —
    // and then applied, against each member's fused walk of its upload
    // (`ResidualAccumulator::reset_selected`: the test against `J` is a
    // mask, every entry is stored, no list). Both sides leave the same
    // residuals and count the same resets.
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
    let reset_count: usize = selection.contributions(&uploads).iter().sum();
    let mut list = Vec::with_capacity(reset_k);
    ledger.pair(
        "bookkeeping_reset_kmax",
        Shape::new(TOPK_DIM, reset_clients, reset_k),
        &format!("{reset_count} resets"),
        || {
            for (acc, upload) in listed.iter_mut().zip(black_box(&uploads)) {
                list.clear();
                list.extend(selection.resets(upload));
                acc.reset_indices(&list);
            }
        },
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
    // resume story priced as a kernel. `checkpoint_load` compares rebuilding
    // the simulation from its inputs (dataset regeneration + model init —
    // the no-checkpoint baseline) against `restore_state` of the serialized
    // blob, which must reproduce the saved state bit-exactly.
    let ckpt_sim = checkpoint_workload();
    let blob = ckpt_sim.save_state();
    let mut target = fresh_checkpoint_sim();
    ledger.pair(
        "checkpoint_load",
        Shape::new(ckpt_sim.dim(), CKPT_CLIENTS, 0),
        &format!("{} B blob", blob.len()),
        fresh_checkpoint_sim,
        || {
            target
                .restore_state(black_box(&blob))
                .expect("same-fingerprint restore")
        },
    );
    assert_eq!(target.save_state(), blob, "restore must be bit-exact");

    // Telemetry: the recorded-vs-noop round pair prices what full
    // instrumentation (stage clock reads, histogram buckets, pool
    // counters) costs per round, and the recorder's own output — stage
    // quantiles plus pool busy/idle fractions — goes into the snapshot so
    // stage-share regressions in the round engine are visible across PRs.
    let mut noop_sim = telemetry_workload();
    let telem_dim = noop_sim.dim();
    let mut rec_sim = telemetry_workload();
    rec_sim.executor().set_metrics_enabled(true);
    let mut recorder = StageRecorder::new();
    let telemetry_record = ledger.pair(
        "telemetry_record",
        Shape::new(telem_dim, TELEM_CLIENTS, TELEM_K).on_threads(2),
        "noop vs recorded round",
        || noop_sim.run_round(TELEM_K, None),
        || {
            recorder.begin_round();
            rec_sim.run_round_recorded(TELEM_K, None, &mut recorder)
        },
    );
    let (telem_seed_ns, telem_scratch_ns) = (telemetry_record.seed_ns, telemetry_record.scratch_ns);
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

    if check {
        eprintln!(
            "bench-report --check: ratios against the last {cores}-core line of {history_path}"
        );
        let regressed = check_against_history(&ledger.kernels, &history_path, cores);
        if regressed {
            eprintln!("bench-report --check: a paired ratio fell more than {:.0} % below its recorded value", CHECK_TOLERANCE * 100.0);
        }
        std::process::exit(i32::from(regressed));
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
    // The telemetry suite gets its own history line: the recorded-vs-noop
    // overhead pair plus the stage quantiles and pool occupancy from the
    // recorded rounds, so both the *cost* of instrumentation and the
    // *shape* of a round (stage shares, worker balance) are tracked.
    let telemetry_line = format!(
        "{{\"unix_time\":{},\"suite\":\"telemetry\",\"workload\":{{\"dim\":{},\"clients\":{},\"k\":{}}},\"noop_ns_per_round\":{:.1},\"recorded_ns_per_round\":{:.1},\"overhead_fraction\":{:.4},\"spans\":[{}],\"pool\":{}}}\n",
        unix_secs,
        telem_dim,
        TELEM_CLIENTS,
        TELEM_K,
        telem_seed_ns,
        telem_scratch_ns,
        telem_scratch_ns / telem_seed_ns - 1.0,
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

    fn report(name: &str, threads: usize, seed_ns: f64, scratch_ns: f64) -> KernelReport {
        KernelReport {
            name: name.into(),
            shape: Shape::new(1, 1, 1).on_threads(threads),
            seed_ns,
            scratch_ns,
        }
    }

    #[test]
    fn last_recorded_ratios_reads_the_last_line_at_the_same_core_count() {
        let line = |cores: usize, ratio: f64| {
            format!(
                "{{\"unix_time\":1,\"suite\":\"selection_kernels\",\"workload\":{{\"dim\":1,\"clients\":1,\"k\":1}},\"cores\":{cores},\"peak_rss_bytes\":null,\"kernels\":[{},{}]}}",
                report("fab_select", 1, ratio * 100.0, 100.0).json_object(),
                report("fc_fwd@avx2", 1, 300.0, 100.0).json_object(),
            )
        };
        let history = [
            line(2, 2.0),
            line(2, 4.0),
            "{\"unix_time\":2,\"suite\":\"telemetry\",\"cores\":2,\"spans\":[]}".to_string(),
            line(1, 9.0),
        ]
        .join("\n");
        assert_eq!(
            last_recorded_ratios(&history, 2),
            Some(vec![
                ("fab_select".to_string(), 4.0),
                ("fc_fwd@avx2".to_string(), 3.0)
            ])
        );
        assert_eq!(last_recorded_ratios(&history, 1).unwrap()[0].1, 9.0);
        assert_eq!(last_recorded_ratios(&history, 8), None);
    }

    #[test]
    fn check_fails_only_on_a_single_threaded_pair_more_than_the_tolerance_below() {
        let dir = std::env::temp_dir().join(format!("bench-report-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.jsonl");
        let recorded = [
            report("steady", 1, 400.0, 100.0),
            report("slower", 1, 400.0, 100.0),
            report("pooled", 2, 400.0, 100.0),
        ];
        let body: Vec<String> = recorded.iter().map(KernelReport::json_object).collect();
        std::fs::write(
            &path,
            format!(
                "{{\"suite\":\"selection_kernels\",\"cores\":2,\"kernels\":[{}]}}\n",
                body.join(",")
            ),
        )
        .unwrap();
        let path = path.to_str().unwrap();
        // 4.0x -> 3.5x is inside 15 %; a multi-threaded pair is never gated;
        // a pair with no recorded ratio is only listed.
        let inside = [
            report("steady", 1, 350.0, 100.0),
            report("pooled", 2, 100.0, 100.0),
            report("new", 1, 100.0, 100.0),
        ];
        assert!(!check_against_history(&inside, path, 2));
        // 4.0x -> 3.3x is not.
        assert!(check_against_history(
            &[report("slower", 1, 330.0, 100.0)],
            path,
            2
        ));
        // Another core count has no baseline.
        assert!(!check_against_history(
            &[report("slower", 1, 100.0, 100.0)],
            path,
            4
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
