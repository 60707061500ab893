//! Criterion micro-benchmarks of the computational kernels behind the
//! simulator: top-k selection, the FAB-top-k server selection and a full FL
//! round. These quantify the overhead the sparsification layer adds per
//! round (the paper treats server computation as negligible; this bench
//! backs that assumption for the reproduction).
//!
//! The FAB selection is benchmarked twice at the acceptance workload
//! (dim = 10⁵, N = 40, k = dim/100): once through the seed implementation
//! kept in `agsfl_sparse::reference` and once through the scratch-reusing
//! `select_into` fast path, so the speedup of the zero-allocation pipeline
//! is visible directly in the criterion output. The `bench-report` binary
//! runs the same workloads and writes machine-readable `BENCH_kernels.json`.

use agsfl_bench::femnist_base;
use agsfl_bench::kernel_workload::{
    cnn_workload, eval_workload, fab_workload, topk_workload, wire_workload, CNN_BATCH,
    FAB_CLIENTS, FAB_DIM, FAB_K, TOPK_DIM, TOPK_KS,
};
use agsfl_core::{Experiment, StopCondition};
use agsfl_exec::Executor;
use agsfl_ml::metrics;
use agsfl_ml::model::{Im2colScratch, Model};
use agsfl_ml::reference as ml_reference;
use agsfl_sparse::{reference, topk, FabTopK, SelectionScratch, Sparsifier};
use agsfl_wire::{decode_frame, reference as wire_reference, Codec, DeltaVarint, WireScratch};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn bench_topk_selection(c: &mut Criterion) {
    let values = topk_workload();
    let mut group = c.benchmark_group("topk_selection");
    let mut keys = Vec::new();
    for k in TOPK_KS {
        // The comparator quickselect + sort, kept in `reference` as the spec.
        group.bench_function(format!("top_{k}_of_{TOPK_DIM}_comparator"), |b| {
            b.iter(|| black_box(reference::top_k_entries(black_box(&values), k)))
        });
        // The integer-key histogram select + radix rank.
        let mut ranked = Vec::new();
        group.bench_function(format!("top_{k}_of_{TOPK_DIM}_keyed"), |b| {
            b.iter(|| {
                topk::top_k_entries_into(black_box(&values), k, &mut keys, &mut ranked);
                black_box(&ranked);
            })
        });
    }
    // Re-ranking a decoded (index-sorted) list, as the lossy tier does on
    // both ends of the wire.
    let k = TOPK_KS[0];
    let mut by_index = topk::top_k_entries(&values, k);
    topk::sort_by_index(&mut by_index, &mut keys);
    group.bench_function(format!("rank_{k}_comparator"), |b| {
        b.iter_batched(
            || by_index.clone(),
            |mut entries| {
                entries.sort_unstable_by(topk::compare_magnitude_then_index);
                entries
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function(format!("rank_{k}_keyed"), |b| {
        b.iter_batched(
            || by_index.clone(),
            |mut entries| {
                topk::rank_by_magnitude(&mut entries, &mut keys);
                entries
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_fab_selection(c: &mut Criterion) {
    let uploads = fab_workload();
    let mut group = c.benchmark_group("fab_select");
    // The seed implementation: hash-set union rebuild per binary-search
    // probe, hash-map aggregation.
    group.bench_function(
        format!("seed_{FAB_CLIENTS}clients_k{FAB_K}_d{FAB_DIM}"),
        |b| b.iter(|| black_box(reference::fab_select(black_box(&uploads), FAB_DIM, FAB_K))),
    );
    // The scratch fast path, amortised the way `Simulation::run_round`
    // amortises it: one workspace reused across iterations.
    let mut scratch = SelectionScratch::new();
    group.bench_function(
        format!("scratch_{FAB_CLIENTS}clients_k{FAB_K}_d{FAB_DIM}"),
        |b| {
            b.iter(|| {
                black_box(FabTopK::new().select_into(
                    black_box(&uploads),
                    FAB_DIM,
                    FAB_K,
                    &mut scratch,
                ))
            })
        },
    );
    group.finish();
}

fn bench_cnn_forward(c: &mut Criterion) {
    let (cnn, params, x, labels) = cnn_workload();
    let mut group = c.benchmark_group("cnn_forward");
    let d = cnn.num_params();
    // The seed scalar-loop kernels, kept in `agsfl_ml::reference`.
    group.bench_function(format!("loops_d{d}_b{CNN_BATCH}"), |b| {
        b.iter(|| {
            black_box(ml_reference::cnn_forward(
                &cnn,
                black_box(&params),
                black_box(&x),
            ))
        })
    });
    let mut scratch = Im2colScratch::new();
    group.bench_function(format!("im2col_d{d}_b{CNN_BATCH}"), |b| {
        b.iter(|| black_box(cnn.forward_with(black_box(&params), black_box(&x), &mut scratch)))
    });
    group.bench_function(format!("loops_grad_d{d}_b{CNN_BATCH}"), |b| {
        b.iter(|| {
            black_box(ml_reference::cnn_loss_and_grad(
                &cnn,
                black_box(&params),
                black_box(&x),
                &labels,
            ))
        })
    });
    group.bench_function(format!("im2col_grad_d{d}_b{CNN_BATCH}"), |b| {
        b.iter(|| {
            black_box(cnn.loss_and_grad_with(
                black_box(&params),
                black_box(&x),
                &labels,
                &mut scratch,
            ))
        })
    });
    group.finish();
}

fn bench_eval_sweep(c: &mut Criterion) {
    let (model, params, dataset) = eval_workload();
    let model = model.as_ref();
    let shards = dataset.clients();
    let test = dataset.test();
    let mut group = c.benchmark_group("eval_sweep");
    // The seed path: three separate serial passes per evaluation point.
    group.bench_function("serial_three_passes", |b| {
        b.iter(|| {
            black_box(metrics::global_loss(model, black_box(&params), shards));
            black_box(metrics::global_accuracy(model, black_box(&params), shards));
            black_box(metrics::accuracy(
                model,
                black_box(&params),
                &test.features,
                &test.labels,
            ));
        })
    });
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2);
    let exec = Executor::new(threads);
    group.bench_function(format!("fused_executor_{threads}threads"), |b| {
        b.iter(|| {
            black_box(metrics::global_evaluation(
                model,
                black_box(&params),
                shards,
                test,
                &exec,
            ))
        })
    });
    group.finish();
}

fn bench_wire_codecs(c: &mut Criterion) {
    let message = wire_workload();
    let mut group = c.benchmark_group("wire_codec");
    // Encode: the allocating byte-at-a-time reference vs the
    // scratch-reusing fast path (byte-identical frames; the `bench-report`
    // binary asserts it).
    group.bench_function(format!("encode_alloc_k{FAB_K}_d{FAB_DIM}"), |b| {
        b.iter(|| {
            black_box(wire_reference::delta_encode(
                message.dim(),
                black_box(message.entries()),
            ))
        })
    });
    let mut scratch = WireScratch::new();
    group.bench_function(format!("encode_scratch_k{FAB_K}_d{FAB_DIM}"), |b| {
        b.iter(|| {
            black_box(
                DeltaVarint
                    .encode_gradient_into(black_box(&message), &mut scratch)
                    .len(),
            )
        })
    });
    // Decode: fresh allocation per call vs a caller-reused entry buffer.
    let frame = DeltaVarint
        .encode_gradient_into(&message, &mut scratch)
        .to_vec();
    group.bench_function(format!("decode_alloc_k{FAB_K}_d{FAB_DIM}"), |b| {
        b.iter(|| black_box(wire_reference::decode(black_box(&frame)).expect("valid frame")))
    });
    let mut entries = Vec::new();
    group.bench_function(format!("decode_scratch_k{FAB_K}_d{FAB_DIM}"), |b| {
        b.iter(|| black_box(decode_frame(black_box(&frame), &mut entries).expect("valid frame")))
    });
    group.finish();
}

fn bench_fl_round(c: &mut Criterion) {
    c.bench_function("fl_round_femnist_bench_k2pct", |b| {
        b.iter_batched(
            || Experiment::new(&femnist_base(10.0)),
            |mut experiment| {
                let k = experiment.dim() / 50;
                black_box(experiment.run_fixed_k(k, &StopCondition::after_rounds(1)))
            },
            BatchSize::LargeInput,
        )
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_topk_selection, bench_fab_selection, bench_cnn_forward, bench_eval_sweep, bench_wire_codecs, bench_fl_round
}
criterion_main!(kernels);
