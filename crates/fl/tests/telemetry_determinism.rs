//! Telemetry is observation only: every golden trajectory must reproduce
//! **bit-identically with recording enabled** — stage spans and the worker
//! pool's metrics both on — at every pinned worker count.
//!
//! The hashes here mirror the pins in `golden_trajectory.rs` (5 plain +
//! 5 byte-priced + 1 fault-injected) and `lossy_reproducibility.rs` (6
//! lossy cells). They are the same constants on purpose: if instrumenting
//! a round ever perturbs a trajectory — an RNG draw, a float fold, a
//! schedule-dependent merge — this file fails while the uninstrumented
//! pins still pass, which localizes the break to telemetry.

use agsfl_exec::Parallelism;
use agsfl_fl::{
    ChannelModel, FaultModel, Simulation, SimulationConfig, SpanId, StageRecorder, TimeModel,
    WireConfig,
};
use agsfl_ml::data::{FederatedDataset, SyntheticFemnist, SyntheticFemnistConfig};
use agsfl_ml::model::Mlp;
use agsfl_sparse::{FabTopK, FubTopK, PeriodicK, SendAll, Sparsifier, UnidirectionalTopK};
use agsfl_wire::CodecSpec;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// FNV-1a over the little-endian bytes of the weight vector.
fn fnv(params: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in params {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

fn sparsifiers() -> Vec<Box<dyn Sparsifier>> {
    vec![
        Box::new(FabTopK::new()),
        Box::new(FubTopK::new()),
        Box::new(UnidirectionalTopK::new()),
        Box::new(PeriodicK::new()),
        Box::new(SendAll::new()),
    ]
}

fn tiny_dataset(seed: u64) -> FederatedDataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng)
}

fn chaos_model(seed: u64) -> FaultModel {
    FaultModel {
        drop_prob: 0.2,
        crash_prob: 0.1,
        outage_rounds: (1, 2),
        straggle_prob: 0.25,
        straggle_factor: 5.0,
        deadline: Some(40.0),
        corrupt_prob: 0.3,
        max_retries: 2,
        retry_backoff: 0.01,
        seed,
    }
}

const WORKER_COUNTS: [Parallelism; 4] = [
    Parallelism::Serial,
    Parallelism::Threads(2),
    Parallelism::Threads(4),
    Parallelism::Threads(8),
];

/// Runs `rounds` recorded rounds with every telemetry layer enabled — a
/// [`StageRecorder`] and the executor's pool metrics — and returns the
/// trajectory hash pair plus the recorder for content assertions.
fn run_recorded(sim: &mut Simulation, rounds: usize, probing: bool) -> ((u64, u64), StageRecorder) {
    sim.executor().set_metrics_enabled(true);
    let mut rec = StageRecorder::new();
    for round in 0..rounds {
        rec.begin_round();
        let probe = (probing && round % 2 == 0).then_some(4);
        sim.run_round_recorded(8, probe, &mut rec);
    }
    ((fnv(sim.params()), sim.elapsed_time().to_bits()), rec)
}

/// Mirrors `PLAIN_GOLDEN` in `golden_trajectory.rs`.
const PLAIN_GOLDEN: [(u64, u64); 5] = [
    (0x74fc29cadc8985c7, 0x4017878787878788), // FAB-top-k
    (0xaed054333c0967ee, 0x4017878787878788), // FUB-top-k
    (0xa2102885277a096b, 0x40251e1e1e1e1e1e), // Unidirectional top-k
    (0x0abe9967c7524efa, 0x4017878787878788), // Periodic-k
    (0x892fe4fe8c000b7a, 0x4038000000000000), // Always send all
];

/// Mirrors `WIRE_GOLDEN` in `golden_trajectory.rs`.
const WIRE_GOLDEN: [(u64, u64); 5] = [
    (0x2675f3a18f23e381, 0x401220c49ba5e354), // FAB-top-k
    (0x5b8d5874550c6685, 0x401220c49ba5e354), // FUB-top-k
    (0x5be7d40b4b67ee4c, 0x4012c8b439581063), // Unidirectional top-k
    (0x2c66bd30006b88c5, 0x401220c49ba5e354), // Periodic-k
    (0x6063f78cb8c35c2c, 0x401a15810624dd2f), // Always send all
];

/// Mirrors `FAULT_GOLDEN` in `golden_trajectory.rs`.
const FAULT_GOLDEN: (u64, u64) = (0xe4d0f29a4b5293cc, 0x406ecbb645a1cac1);

/// Mirrors `LOSSY_GOLDEN` in `lossy_reproducibility.rs`.
const LOSSY_GOLDEN: [(&str, &str, u64, u64); 6] = [
    (
        "qlinear8",
        "fab-top-k",
        0x562fb9aa24280654,
        0x4016800000000000,
    ),
    (
        "qlinear8",
        "fub-top-k",
        0xba51a6df4c0464dd,
        0x4016800000000000,
    ),
    ("f16", "fab-top-k", 0x134eb2093e51db03, 0x4016800000000000),
    ("f16", "fub-top-k", 0xadb441f1a255f08c, 0x4016800000000000),
    (
        "sign-norm",
        "fab-top-k",
        0x13dbf61eddaacf23,
        0x401663d70a3d70a4,
    ),
    (
        "sign-norm",
        "fub-top-k",
        0xfaad6c908aec480d,
        0x401663d70a3d70a4,
    ),
];

fn plain_config(seed: u64, parallelism: Parallelism) -> SimulationConfig {
    SimulationConfig {
        learning_rate: 0.05,
        batch_size: 8,
        time_model: TimeModel::normalized(5.0),
        seed,
        parallelism,
        wire: None,
        fault: None,
        cohort: None,
    }
}

fn wire_config(
    seed: u64,
    num_clients: usize,
    codec: CodecSpec,
    fault: Option<FaultModel>,
    parallelism: Parallelism,
) -> SimulationConfig {
    SimulationConfig {
        learning_rate: 0.05,
        batch_size: 8,
        time_model: TimeModel::normalized(5.0),
        seed,
        parallelism,
        wire: Some(WireConfig {
            codec,
            channel: ChannelModel::uniform(num_clients, 1.0, 2_000.0, 4_000.0, 0.05),
        }),
        fault,
        cohort: None,
    }
}

#[test]
fn plain_goldens_hold_with_recording_enabled() {
    for parallelism in WORKER_COUNTS {
        for (sp, &want) in sparsifiers().into_iter().zip(&PLAIN_GOLDEN) {
            let name = sp.name();
            let fed = tiny_dataset(42);
            let model = Mlp::new(fed.feature_dim(), &[], fed.num_classes());
            let mut sim = Simulation::new(Box::new(model), fed, sp, plain_config(42, parallelism));
            let (got, rec) = run_recorded(&mut sim, 4, true);
            assert_eq!(
                got, want,
                "{name} drifted under recording ({parallelism:?})"
            );
            // The recorder timed every round's stages.
            assert_eq!(rec.span_histogram(SpanId::ClientPass).count(), 4);
            assert_eq!(rec.span_histogram(SpanId::Selection).count(), 4);
        }
    }
}

#[test]
fn wire_goldens_hold_with_recording_enabled() {
    for parallelism in WORKER_COUNTS {
        for (sp, &want) in sparsifiers().into_iter().zip(&WIRE_GOLDEN) {
            let name = sp.name();
            let fed = tiny_dataset(7);
            let n = fed.num_clients();
            let model = Mlp::new(fed.feature_dim(), &[], fed.num_classes());
            let mut sim = Simulation::new(
                Box::new(model),
                fed,
                sp,
                wire_config(7, n, CodecSpec::Auto, None, parallelism),
            );
            let (got, rec) = run_recorded(&mut sim, 4, true);
            assert_eq!(
                got, want,
                "{name} drifted under recording ({parallelism:?})"
            );
            assert_eq!(rec.span_histogram(SpanId::ServerDecode).count(), 4);
            assert!(
                rec.span_histogram(SpanId::ServerDecode).sum() > 0,
                "a wired round decodes"
            );
        }
    }
}

#[test]
fn fault_golden_holds_with_recording_enabled() {
    for parallelism in WORKER_COUNTS {
        let fed = tiny_dataset(11);
        let n = fed.num_clients();
        let model = Mlp::new(fed.feature_dim(), &[], fed.num_classes());
        let mut sim = Simulation::new(
            Box::new(model),
            fed,
            Box::new(FubTopK::new()),
            wire_config(11, n, CodecSpec::Auto, Some(chaos_model(11)), parallelism),
        );
        let (got, rec) = run_recorded(&mut sim, 6, false);
        assert_eq!(
            got, FAULT_GOLDEN,
            "fault trajectory drifted under recording ({parallelism:?})"
        );
        // One sample per round for the two spans nested in the client
        // pass. The wire faults are admission's time on the round thread;
        // the decodes are worker time summed over the members, so at most
        // the pass's wall time on every thread, and never nothing on a
        // wired round.
        let span = |id| rec.span_histogram(id);
        assert_eq!(span(SpanId::WireFault).count(), 6);
        assert_eq!(span(SpanId::ServerDecode).count(), 6);
        let client_pass = span(SpanId::ClientPass).sum();
        assert!(
            span(SpanId::WireFault).sum() <= client_pass,
            "wire faults exceed the client pass ({parallelism:?})"
        );
        assert!(
            span(SpanId::ServerDecode).sum() <= client_pass * parallelism.resolve() as u64,
            "decodes exceed the client pass on every worker ({parallelism:?})"
        );
        assert!(
            span(SpanId::ServerDecode).sum() > 0,
            "a wired round decodes ({parallelism:?})"
        );
    }
}

#[test]
fn lossy_pins_hold_with_recording_enabled() {
    type MakeSparsifier = fn() -> Box<dyn Sparsifier>;
    let cells: [(&str, MakeSparsifier); 2] = [
        ("fab-top-k", || Box::new(FabTopK::new())),
        ("fub-top-k", || Box::new(FubTopK::new())),
    ];
    for codec in CodecSpec::lossy() {
        for (sp_name, make) in cells {
            let want = LOSSY_GOLDEN
                .iter()
                .find(|(c, s, _, _)| *c == codec.name() && *s == sp_name)
                .map(|&(_, _, p, e)| (p, e))
                .expect("golden cell present");
            for parallelism in WORKER_COUNTS {
                let fed = tiny_dataset(7);
                let n = fed.num_clients();
                let model = Mlp::new(fed.feature_dim(), &[], fed.num_classes());
                let mut sim = Simulation::new(
                    Box::new(model),
                    fed,
                    make(),
                    wire_config(7, n, codec, None, parallelism),
                );
                let ((params, elapsed), _) = run_recorded(&mut sim, 5, true);
                assert_eq!(
                    (params, elapsed),
                    want,
                    "{} × {sp_name} drifted under recording ({parallelism:?})",
                    codec.name(),
                );
            }
        }
    }
}

#[test]
fn recording_overhead_stays_within_noise_of_the_noop_round() {
    // `run_round` *is* the noop-recorded round (a `NoopRecorder` whose
    // empty default methods compile the instrumentation away), so the
    // meaningful overhead gate is full recording against it: if a change
    // ever makes the record path allocate, lock, or otherwise dominate a
    // round, the recorded median blows past this deliberately generous
    // bound. Median-of-many keeps the gate stable on noisy CI boxes.
    fn median_round_ns(recorded: bool) -> u64 {
        let fed = tiny_dataset(42);
        let model = Mlp::new(fed.feature_dim(), &[], fed.num_classes());
        let mut sim = Simulation::new(
            Box::new(model),
            fed,
            Box::new(FabTopK::new()),
            plain_config(42, Parallelism::Serial),
        );
        sim.executor().set_metrics_enabled(recorded);
        let mut rec = StageRecorder::new();
        let mut samples: Vec<u64> = (0..40)
            .map(|_| {
                let t0 = std::time::Instant::now();
                if recorded {
                    rec.begin_round();
                    sim.run_round_recorded(8, None, &mut rec);
                } else {
                    sim.run_round(8, None);
                }
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    }
    // Warm-up pass (page-in, lazy init), then the measured pair.
    median_round_ns(false);
    let noop = median_round_ns(false);
    let recorded = median_round_ns(true);
    assert!(
        recorded <= noop.saturating_mul(3),
        "recorded round median {recorded} ns exceeds 3x the noop median {noop} ns"
    );
}
