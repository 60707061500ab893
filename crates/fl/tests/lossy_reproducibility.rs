//! Seed-reproducibility pins for the lossy uplink tier.
//!
//! A lossy codec deliberately is *not* bit-identical to the lossless
//! trajectory — that equality is replaced by a stronger-than-it-sounds
//! reproducibility contract: every lossy trajectory is a pure function of
//! the configuration seed. These tests pin that contract three ways, for
//! all three lossy codecs:
//!
//! 1. golden weight-vector hashes, bit-identical across 1–8 worker
//!    threads (the quantization stream is keyed on frame content, never on
//!    the worker schedule);
//! 2. checkpoint/resume at every interrupt round continues the exact
//!    uninterrupted trajectory, including mid-run precision-tier switches;
//! 3. a `Precision::F32` override is a true zero-error configuration — it
//!    reproduces the lossless trajectory bit for bit.

use agsfl_exec::Parallelism;
use agsfl_fl::{ChannelModel, Simulation, SimulationConfig, TimeModel, WireConfig};
use agsfl_ml::data::{FederatedDataset, SyntheticFemnist, SyntheticFemnistConfig};
use agsfl_ml::model::Mlp;
use agsfl_sparse::{FabTopK, FubTopK, Sparsifier};
use agsfl_wire::{CodecSpec, Precision};
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

fn tiny_dataset(seed: u64) -> FederatedDataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng)
}

fn build(
    codec: CodecSpec,
    sparsifier: Box<dyn Sparsifier>,
    parallelism: Parallelism,
) -> Simulation {
    let fed = tiny_dataset(7);
    let n = fed.num_clients();
    let model = Mlp::new(fed.feature_dim(), &[], fed.num_classes());
    Simulation::new(
        Box::new(model),
        fed,
        sparsifier,
        SimulationConfig {
            learning_rate: 0.05,
            batch_size: 8,
            time_model: TimeModel::normalized(5.0),
            seed: 7,
            parallelism,
            wire: Some(WireConfig {
                codec,
                channel: ChannelModel::uniform(n, 1.0, 2_000.0, 4_000.0, 0.05),
            }),
            fault: None,
            cohort: None,
        },
    )
}

const ROUNDS: usize = 5;

fn run(sim: &mut Simulation, rounds: usize) -> (u64, u64) {
    for round in 0..rounds {
        let probe = (round % 2 == 0).then_some(4);
        sim.run_round(8, probe);
    }
    (fnv(sim.params()), sim.elapsed_time().to_bits())
}

fn worker_counts() -> [Parallelism; 4] {
    [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
        Parallelism::Threads(8),
    ]
}

type SparsifierFactory = fn() -> Box<dyn Sparsifier>;

fn fab_and_fub() -> [(&'static str, SparsifierFactory); 2] {
    [
        ("fab-top-k", || Box::new(FabTopK::new())),
        ("fub-top-k", || Box::new(FubTopK::new())),
    ]
}

/// Golden lossy trajectories — `(params hash, elapsed bits)` per
/// `(codec, sparsifier)` cell, captured at the tier's introduction. Any
/// change is a silent break of the reproducibility contract and must be
/// treated as a bug, not re-captured.
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

fn golden_for(codec: &str, sparsifier: &str) -> (u64, u64) {
    LOSSY_GOLDEN
        .iter()
        .find(|(c, s, _, _)| *c == codec && *s == sparsifier)
        .map(|&(_, _, p, e)| (p, e))
        .expect("golden cell present")
}

#[test]
fn lossy_goldens_hold_across_every_worker_count() {
    for codec in CodecSpec::lossy() {
        for (sp_name, make) in fab_and_fub() {
            let want = golden_for(codec.name(), sp_name);
            for parallelism in worker_counts() {
                let mut sim = build(codec, make(), parallelism);
                let got = run(&mut sim, ROUNDS);
                assert_eq!(
                    got,
                    want,
                    "{} × {sp_name} drifted under {parallelism:?}: ({:#x}, {:#x})",
                    codec.name(),
                    got.0,
                    got.1,
                );
            }
        }
    }
}

#[test]
fn lossy_resume_is_bit_identical_at_every_interrupt() {
    for codec in CodecSpec::lossy() {
        for (sp_name, make) in fab_and_fub() {
            let mut reference = build(codec, make(), Parallelism::Serial);
            let want = run(&mut reference, ROUNDS);
            for interrupt in 1..ROUNDS {
                let mut first = build(codec, make(), Parallelism::Threads(4));
                run(&mut first, interrupt);
                let blob = first.save_state();
                let mut resumed = build(codec, make(), Parallelism::Threads(2));
                resumed.restore_state(&blob).expect("restore");
                let got = run(&mut resumed, ROUNDS - interrupt);
                assert_eq!(
                    got,
                    want,
                    "{} × {sp_name} resumed at {interrupt} diverged",
                    codec.name()
                );
            }
        }
    }
}

#[test]
fn f32_precision_override_reproduces_the_lossless_trajectory() {
    // A lossless run...
    let mut lossless = build(
        CodecSpec::Auto,
        Box::new(FabTopK::new()),
        Parallelism::Serial,
    );
    let want = run(&mut lossless, ROUNDS);
    // ...and the same run under an explicit full-precision override: the
    // zero-error quantization configuration must not perturb one bit.
    let mut pinned = build(
        CodecSpec::Auto,
        Box::new(FabTopK::new()),
        Parallelism::Serial,
    );
    pinned.set_wire_precision(Some(Precision::F32));
    assert_eq!(run(&mut pinned, ROUNDS), want);
}

#[test]
fn lossy_tiers_actually_diverge_from_lossless() {
    // Sanity for every pin above: each lossy tier must *engage* — a lossy
    // trajectory that matched lossless bit-for-bit would mean the
    // quantizer never ran.
    let mut lossless = build(
        CodecSpec::Auto,
        Box::new(FabTopK::new()),
        Parallelism::Serial,
    );
    let want = run(&mut lossless, ROUNDS);
    for codec in CodecSpec::lossy() {
        let mut lossy = build(codec, Box::new(FabTopK::new()), Parallelism::Serial);
        assert_ne!(
            run(&mut lossy, ROUNDS).0,
            want.0,
            "{} produced the lossless trajectory",
            codec.name()
        );
    }
}

#[test]
fn mid_run_tier_switches_survive_workers_and_resume() {
    // The controllers re-decide the precision tier every round; the
    // trajectory must be a pure function of the tier *schedule*, not of
    // the worker count or of where a checkpoint interrupted it.
    let schedule: [Option<Precision>; ROUNDS] = [
        Some(Precision::Q8),
        Some(Precision::Q8),
        Some(Precision::F16),
        Some(Precision::Sign),
        None,
    ];
    let run_scheduled = |sim: &mut Simulation, from: usize, to: usize| {
        for (round, tier) in schedule.iter().enumerate().take(to).skip(from) {
            sim.set_wire_precision(*tier);
            let probe = (round % 2 == 0).then_some(4);
            sim.run_round(8, probe);
        }
        (fnv(sim.params()), sim.elapsed_time().to_bits())
    };
    let mut reference = build(
        CodecSpec::Auto,
        Box::new(FabTopK::new()),
        Parallelism::Serial,
    );
    let want = run_scheduled(&mut reference, 0, ROUNDS);
    for parallelism in worker_counts() {
        let mut sim = build(CodecSpec::Auto, Box::new(FabTopK::new()), parallelism);
        assert_eq!(
            run_scheduled(&mut sim, 0, ROUNDS),
            want,
            "tier schedule drifted under {parallelism:?}"
        );
    }
    for interrupt in 1..ROUNDS {
        let mut first = build(
            CodecSpec::Auto,
            Box::new(FabTopK::new()),
            Parallelism::Serial,
        );
        run_scheduled(&mut first, 0, interrupt);
        let blob = first.save_state();
        let mut resumed = build(
            CodecSpec::Auto,
            Box::new(FabTopK::new()),
            Parallelism::Serial,
        );
        resumed.restore_state(&blob).expect("restore");
        // The override is controller policy, not checkpointed state; the
        // runner re-proposes it each round, which `run_scheduled` mirrors.
        assert_eq!(
            run_scheduled(&mut resumed, interrupt, ROUNDS),
            want,
            "tier schedule resumed at {interrupt} diverged"
        );
    }
}
