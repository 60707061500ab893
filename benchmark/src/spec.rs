//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics. `BENCHMARK.json` at the repo root carries the same lists;
//! `tests/names.rs` asserts the two agree.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric with its unit and direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// A workload and the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "paper_cnn_adaptive",
        "the paper's setting: a 419,582-parameter CNN with adaptive k, unwired; model math dominates and the controller decides when the run ends",
    ),
    (
        "sparse_wide_linear",
        "same D but cheap model math, fixed k and a lossy wired codec: top-k and selection dominate, the controller is bypassed",
    ),
    (
        "cohort_million_wired",
        "cohort 256 of a lazy 10^6-client population with a tiny model: hydration and shard generation dominate, frames are header-sized",
    ),
    (
        "faulty_auto_resume",
        "an MLP under dropout, crashes, stragglers and corrupt frames with a checkpoint and resume: the faulty barrier path instead of the pipelined one",
    ),
];

/// An end-to-end metric: what a user of the simulator sees, measured with
/// tracing off. `bound` is the share of the parent's median by which the
/// metric may get worse before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub metric: Metric,
    pub bound: f64,
}

/// Gated metrics only. The driver measures each one's spread across ten
/// different seeds and refuses a spread wider than the bound, so a metric
/// that follows the seed's own trajectory (simulated time, final loss, uplink
/// volume) cannot be gated here however exactly it repeats on one seed:
/// those three are per-layer metrics (`fl.*`) instead. `failed_ops_pct` is 0
/// on every healthy run; the result line reports it as `failed` over
/// `attempted`.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        metric: lower("setup_s", "s"),
        bound: 0.25,
    },
    EndToEnd {
        metric: lower("time_to_target_s", "s"),
        bound: 0.25,
    },
    EndToEnd {
        metric: higher("rounds_per_s", "1/s"),
        bound: 0.25,
    },
    EndToEnd {
        metric: higher("test_accuracy", "fraction"),
        bound: 0.25,
    },
    EndToEnd {
        metric: lower("peak_rss_mb", "MB"),
        bound: 0.25,
    },
];

/// Per-layer metrics, prefixed by crate. They come from the traced run and
/// the layer probes and carry no bound.
pub const PER_LAYER: [Metric; 52] = [
    higher("tensor.gemm_gflops", "GFLOP/s"),
    higher("tensor.axpy_gbps", "GB/s"),
    lower("ml.grad_ms", "ms"),
    lower("ml.forward_ms", "ms"),
    lower("ml.shard_materialize_us", "us"),
    lower("ml.dataset_generate_s", "s"),
    lower("sparse.client_topk_ms", "ms"),
    lower("sparse.client_topk_kmax_ms", "ms"),
    lower("sparse.select_ms", "ms"),
    lower("sparse.select_kmax_ms", "ms"),
    lower("sparse.select_parallel_ratio", "ratio"),
    higher("sparse.upload_use_pct", "%"),
    lower("wire.encode_us", "us"),
    lower("wire.decode_us", "us"),
    lower("wire.bytes_per_entry", "B"),
    lower("wire.reject_us", "us"),
    lower("wire.frames_per_round", "count"),
    lower("online.step_us", "us"),
    lower("online.rounds_to_target", "count"),
    lower("online.k_mean", "count"),
    lower("online.k_final", "count"),
    lower("exec.dispatch_us_p50", "us"),
    higher("exec.worker_busy_pct", "%"),
    lower("exec.imbalance_ratio", "ratio"),
    lower("exec.regions_per_round", "count"),
    higher("exec.pool_speedup", "ratio"),
    lower("fl.hydrate_ms", "ms"),
    lower("fl.client_pass_ms", "ms"),
    lower("fl.server_decode_ms", "ms"),
    lower("fl.wire_fault_ms", "ms"),
    lower("fl.selection_ms", "ms"),
    lower("fl.probe_ms", "ms"),
    lower("fl.downlink_pricing_ms", "ms"),
    lower("fl.broadcast_apply_ms", "ms"),
    lower("fl.bookkeeping_ms", "ms"),
    lower("fl.evaluate_ms", "ms"),
    lower("fl.checkpoint_write_ms", "ms"),
    higher("fl.span_sum_pct", "%"),
    lower("fl.round_ms_p50", "ms"),
    lower("fl.round_ms_p90", "ms"),
    lower("fl.checkpoint_restore_ms", "ms"),
    lower("fl.checkpoint_kb", "kB"),
    lower("fl.resident_clients", "count"),
    lower("fl.lost_uploads_pct", "%"),
    lower("fl.retries_per_round", "count"),
    lower("fl.sim_time_to_target", "sim_units"),
    lower("fl.final_loss", "nats"),
    lower("fl.uplink_kb_per_round", "kB"),
    lower("core.sim_build_s", "s"),
    lower("core.loop_overhead_pct", "%"),
    lower("telemetry.overhead_pct", "%"),
    lower("telemetry.span_record_ns", "ns"),
];
