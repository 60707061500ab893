//! End-to-end claims of byte-priced runs: what the wire codecs and the
//! fault model do to a whole [`Experiment`], asserted on the run's
//! [`RunHistory`].
//!
//! Every test runs one tiny workload (FEMNIST-like synthetic data, a linear
//! model, learning rate 0.05, batch 8). The codec claims run it at seed 13
//! for 25 rounds with a fixed `k` of 15 % of the dimension — large enough
//! that qlinear8's 8-byte range header amortizes the way it does at
//! production scale — or with Algorithm 3 adapting `k`. The fault claims
//! run it on an `Auto` wire at seed 29 for 20 rounds with `k` at 5 %. Each
//! test runs only the runs its claim compares.

use agsfl_core::{
    ChannelSpec, CodecSpec, ControllerSpec, DatasetSpec, Experiment, ExperimentConfig, FaultModel,
    FaultTotals, ModelSpec, StopCondition, WireSpec,
};
use agsfl_fl::RunHistory;
use agsfl_online::PrecisionController;
use agsfl_wire::{CodecId, Precision};

fn uniform() -> ChannelSpec {
    ChannelSpec::uniform(2_000.0, 8_000.0, 0.05)
}

fn fluctuating() -> ChannelSpec {
    uniform().with_fluctuation(8, 0.75)
}

/// The shared workload at `seed` on a `codec` wire over `channel`.
fn config(seed: u64, codec: CodecSpec, channel: ChannelSpec) -> ExperimentConfig {
    ExperimentConfig::builder()
        .dataset(DatasetSpec::femnist_tiny())
        .model(ModelSpec::Linear)
        .learning_rate(0.05)
        .batch_size(8)
        .eval_every(10)
        .seed(seed)
        .wire(WireSpec { codec, channel })
        .build()
}

const CODEC_ROUNDS: usize = 25;

/// A fixed-`k` run of the codec workload on `codec` over `channel`.
fn codec_run(codec: CodecSpec, channel: ChannelSpec) -> RunHistory {
    let mut experiment = Experiment::new(&config(13, codec, channel));
    let k = ((experiment.dim() as f64 * 0.15) as usize).max(1);
    experiment.run_fixed_k(k, &StopCondition::after_rounds(CODEC_ROUNDS))
}

/// The run moved bytes both ways, spent channel time and ended with a
/// finite loss.
fn assert_priced(label: &str, history: &RunHistory) {
    let (up, down) = history.wire_bytes();
    assert!(up > 0 && down > 0, "{label}: {up} up, {down} down");
    let elapsed = history.points().last().map_or(0.0, |p| p.elapsed_time);
    assert!(elapsed > 0.0, "{label}: elapsed {elapsed}");
    assert!(
        history.final_global_loss().is_some_and(f64::is_finite),
        "{label}: final loss {:?}",
        history.final_global_loss()
    );
}

fn total_bytes(history: &RunHistory) -> u64 {
    let (up, down) = history.wire_bytes();
    up + down
}

/// On identical fixed-`k` trajectories (a lossless codec does not touch
/// the math), `Auto`'s total bytes never exceed any lossless codec's and
/// equal the smallest one's — the size-ordering guarantee, end to end.
#[test]
fn auto_is_smallest_on_fixed_trajectories() {
    for (label, channel) in [("uniform", uniform()), ("fluctuating", fluctuating())] {
        let auto = codec_run(CodecSpec::Auto, channel);
        assert_priced(&format!("{label} auto"), &auto);
        let auto_loss = auto.final_global_loss().expect("the run evaluates");
        let mut smallest = u64::MAX;
        for codec in [CodecSpec::Coo, CodecSpec::DeltaVarint, CodecSpec::Bitmap] {
            let concrete = codec_run(codec, channel);
            assert_priced(&format!("{label} {}", codec.name()), &concrete);
            assert!(
                total_bytes(&auto) <= total_bytes(&concrete),
                "{label}: auto {} > {} {}",
                total_bytes(&auto),
                codec.name(),
                total_bytes(&concrete)
            );
            // Identical trajectories: the training outcome is the same bits
            // for every codec.
            assert_eq!(
                concrete.final_global_loss().map(f64::to_bits),
                Some(auto_loss.to_bits()),
                "{label}: {}",
                codec.name()
            );
            smallest = smallest.min(total_bytes(&concrete));
        }
        // Auto may lose the label on a tie, but never the total.
        assert_eq!(total_bytes(&auto), smallest, "{label}");
    }
}

/// Algorithm 3 adapts `k` against the byte-priced round time on every
/// lossless codec, on a steady and on a fluctuating channel: each run moves
/// bytes both ways, spends channel time and ends with a finite loss.
#[test]
fn adaptive_runs_complete_on_every_codec_and_channel() {
    for (label, channel) in [("uniform", uniform()), ("fluctuating", fluctuating())] {
        for codec in CodecSpec::all() {
            let history = Experiment::new(&config(13, codec, channel)).run_adaptive(
                ControllerSpec::Algorithm3,
                &StopCondition::after_rounds(CODEC_ROUNDS),
            );
            assert_eq!(history.k_sequence().len(), CODEC_ROUNDS, "{label}");
            assert_priced(&format!("{label} {}", codec.name()), &history);
        }
    }
}

#[test]
fn auto_records_its_choices() {
    let auto = codec_run(CodecSpec::Auto, uniform());
    assert_eq!(auto.codec_counts().len(), CodecId::ALL.len());
    let frames: u64 = auto.codec_counts().iter().sum();
    assert!(frames > 0, "Auto must record per-frame choices");
    let coo = codec_run(CodecSpec::Coo, uniform());
    let counts = coo.codec_counts();
    assert_eq!(
        (
            counts[CodecId::DeltaVarint as usize],
            counts[CodecId::Bitmap as usize]
        ),
        (0, 0),
        "Coo never emits delta or bitmap frames"
    );
}

/// The byte-budget bar of the lossy tier: at the same fixed `k`, qlinear8
/// (1-byte levels + an 8-byte range header) spends at most 0.35× the
/// uplink bytes of lossless coo-f32 (8 bytes per entry), and each lossier
/// tier spends fewer uplink bytes than the one before it.
#[test]
fn qlinear8_fixed_k_spends_under_035x_of_coo() {
    let tier_bytes: Vec<u64> = Precision::ALL
        .iter()
        .map(|tier| codec_run(tier.codec_spec(), uniform()).wire_bytes().0)
        .collect();
    let q8 = tier_bytes[Precision::Q8 as usize];
    let coo = codec_run(CodecSpec::Coo, uniform()).wire_bytes().0;
    let ratio = q8 as f64 / coo as f64;
    assert!(
        ratio <= 0.35,
        "qlinear8 spent {q8} uplink bytes vs coo-f32's {coo} ({ratio:.3}x > 0.35x)"
    );
    // F32 > F16 > Q8 > Sign.
    assert!(
        tier_bytes.windows(2).all(|w| w[0] > w[1]),
        "uplink bytes per tier {:?}: {tier_bytes:?}",
        Precision::ALL.map(Precision::name)
    );
}

/// The documented tolerance of the lossy tier: error feedback keeps a
/// qlinear8 run's final loss within 10 % (relative) of the lossless run at
/// the same fixed `k`.
#[test]
fn qlinear8_final_loss_tracks_lossless() {
    let final_loss = |precision: Precision| {
        codec_run(precision.codec_spec(), uniform())
            .final_global_loss()
            .expect("the run evaluates")
    };
    let q8 = final_loss(Precision::Q8);
    let lossless = final_loss(Precision::F32);
    assert!(q8.is_finite() && lossless.is_finite());
    assert!(
        (q8 - lossless).abs() <= 0.10 * lossless,
        "qlinear8 final loss {q8:.4} strays >10% from lossless {lossless:.4}"
    );
}

const FAULT_ROUNDS: usize = 20;

/// A diverging run — learning rate 50, where the loss turns NaN, and 1e30,
/// where values overflow to ±inf — finishes all its rounds on every lossy
/// codec and under the precision controller, which picks lossy tiers
/// itself: a message holding a NaN or ±inf goes out in a lossless frame
/// instead of panicking the pool worker that encodes it.
#[test]
fn diverging_runs_complete_on_every_lossy_codec() {
    const ROUNDS: usize = 40;
    let stop = StopCondition::after_rounds(ROUNDS);
    for lr in [50.0, 1e30] {
        let config = |codec| {
            ExperimentConfig::builder()
                .dataset(DatasetSpec::femnist_tiny())
                .model(ModelSpec::Mlp { hidden: vec![16] })
                .learning_rate(lr)
                .batch_size(8)
                .seed(3)
                .wire(WireSpec {
                    codec,
                    channel: uniform(),
                })
                .build()
        };
        for codec in CodecSpec::lossy() {
            let history =
                Experiment::new(&config(codec)).run_adaptive(ControllerSpec::Algorithm3, &stop);
            assert_eq!(history.len(), ROUNDS, "{} at lr {lr:e}", codec.name());
        }
        let mut experiment = Experiment::new(&config(CodecSpec::Auto));
        let inner = ControllerSpec::Algorithm3.build(experiment.dim(), 3);
        let mut controller = PrecisionController::new(inner);
        let history = experiment.run_with_controller(&mut controller, &stop, "precision");
        assert_eq!(history.len(), ROUNDS, "precision controller at lr {lr:e}");
    }
}

fn dropout() -> FaultModel {
    FaultModel {
        drop_prob: 0.1,
        seed: 0xD0,
        ..FaultModel::default()
    }
}

/// Dropout plus corrupted frames, with retries.
fn lossy() -> FaultModel {
    FaultModel {
        drop_prob: 0.05,
        corrupt_prob: 0.15,
        max_retries: 2,
        retry_backoff: 0.05,
        seed: 0xD1,
        ..FaultModel::default()
    }
}

/// Every fault class at once.
fn chaos() -> FaultModel {
    FaultModel {
        drop_prob: 0.1,
        crash_prob: 0.05,
        outage_rounds: (1, 3),
        straggle_prob: 0.2,
        straggle_factor: 4.0,
        corrupt_prob: 0.15,
        max_retries: 2,
        retry_backoff: 0.05,
        seed: 0xD2,
        ..FaultModel::default()
    }
}

fn fault_experiment(fault: Option<FaultModel>) -> Experiment {
    Experiment::new(&ExperimentConfig {
        fault,
        ..config(29, CodecSpec::Auto, uniform())
    })
}

/// A fixed-`k` faulty run, checked to complete priced; its fault counters.
fn fixed_k_fault_totals(fault: Option<FaultModel>) -> FaultTotals {
    let label = format!("{fault:?}");
    let mut experiment = fault_experiment(fault);
    let k = ((experiment.dim() as f64 * 0.05) as usize).max(1);
    let history = experiment.run_fixed_k(k, &StopCondition::after_rounds(FAULT_ROUNDS));
    assert_eq!(history.k_sequence().len(), FAULT_ROUNDS, "{label}");
    assert_priced(&label, &history);
    *history.fault_totals()
}

#[test]
fn fault_free_runs_record_no_faults() {
    assert_eq!(fixed_k_fault_totals(None), FaultTotals::default());
}

#[test]
fn dropout_loses_members_without_aborting_a_fixed_run() {
    let totals = fixed_k_fault_totals(Some(dropout()));
    assert!(totals.dropped > 0, "{totals:?}");
}

#[test]
fn chaos_loses_members_and_slows_stragglers() {
    // Probabilities high enough that 20 rounds x 8 clients cannot stay
    // clean.
    let totals = fixed_k_fault_totals(Some(chaos()));
    assert!(totals.lost() > 0, "{totals:?}");
    assert!(totals.stragglers > 0, "{totals:?}");
    assert!(totals.min_survivors.is_some(), "{totals:?}");
}

#[test]
fn retries_add_retransmitted_bytes_under_corruption() {
    let totals = fixed_k_fault_totals(Some(lossy()));
    assert!(totals.corrupt_frames > 0, "{totals:?}");
    assert!(totals.retries > 0, "{totals:?}");
    assert!(totals.retransmitted_bytes > 0, "{totals:?}");
}

/// Survivor-only aggregation plus error feedback keeps an adaptive run
/// alive at every severity, even when whole cohorts go dark: it completes
/// its round budget with a finite loss and a tail `k` of at least one.
#[test]
fn faults_never_abort_an_adaptive_run() {
    for fault in [None, Some(dropout()), Some(lossy()), Some(chaos())] {
        let label = format!("{fault:?}");
        let history = fault_experiment(fault).run_adaptive(
            ControllerSpec::Algorithm3,
            &StopCondition::after_rounds(FAULT_ROUNDS),
        );
        let ks = history.k_sequence();
        assert_eq!(ks.len(), FAULT_ROUNDS, "{label}");
        let tail = &ks[ks.len() - (ks.len() / 4).max(1)..];
        assert!(tail.iter().all(|&k| k >= 1), "{label}: {ks:?}");
        assert_priced(&label, &history);
    }
}
