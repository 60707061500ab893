//! Checkpoint fuzzing: hostile bytes never panic the resume path.
//!
//! An AGCK file nests all three snapshot byte surfaces — the AGSF simulation
//! blob, the controller snapshot and the run history — and since all three
//! are decoded by the one `agsfl_wire::snapshot` reader, one harness covers
//! them: whatever the file holds, `Experiment::resume_with_controller`
//! either resumes or returns a typed [`SnapshotError`]. Never a panic, never
//! an allocation sized by a corrupt length prefix.

mod common;

use agsfl_core::{CheckpointSpec, Experiment, SnapshotError, StopCondition};
use agsfl_fl::RunHistory;
use agsfl_online::KController;
use agsfl_wire::snapshot::{SnapshotReader, SnapshotWriter};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// One experiment + controller of a kind, resumed over and over from
/// whatever bytes the fuzzer puts into its checkpoint file.
struct Target {
    experiment: Experiment,
    controller: Box<dyn KController>,
    spec: CheckpointSpec,
    attempts: usize,
}

impl Target {
    fn new(cfg: &agsfl_core::ExperimentConfig, kind: usize) -> Self {
        let experiment = Experiment::new(cfg);
        let controller = common::build(kind, experiment.dim(), cfg.seed);
        Self {
            experiment,
            controller,
            spec: CheckpointSpec::new(common::ckpt_path(&format!("fuzz{kind}")), 4),
            attempts: 0,
        }
    }

    /// Resumes from `bytes` and runs up to round `rounds`.
    fn resume(&mut self, bytes: &[u8], rounds: usize) -> Result<RunHistory, SnapshotError> {
        self.attempts += 1;
        std::fs::write(&self.spec.path, bytes).expect("write the fuzzed file");
        self.experiment.resume_with_controller(
            self.controller.as_mut(),
            &StopCondition::after_rounds(rounds),
            &self.spec,
        )
    }

    /// The contract under fuzzing: a mutated file resumes (a flipped payload
    /// bit can be a valid weight) or fails with a typed error whose message
    /// formats. The round budget is already spent, so no round runs on
    /// state that decoded from noise.
    fn assert_total(&mut self, bytes: &[u8]) {
        if let Err(e) = self.resume(bytes, 0) {
            let _ = e.to_string();
        }
    }
}

fn fuzz_kind(kind: usize) {
    let cfg = common::faulty_wired_config(61);
    let run = common::checkpointed_run(&cfg, kind);
    let file = &run.file;
    let mut target = Target::new(&cfg, kind);
    let mut rng = ChaCha8Rng::seed_from_u64(0xF022 + kind as u64);

    // Truncation at every prefix is a typed error.
    for cut in 0..file.len() {
        assert!(target.resume(&file[..cut], 0).is_err(), "cut at {cut}");
    }
    // Seeded bit flips, one to three per blob. The simulation blob (its
    // length sits behind the 8-byte header) is most of the file, so every
    // other blob takes its flips in what follows it: the rounding RNG, the
    // controller snapshot, the counters and the history.
    let tail = 16 + u64::from_le_bytes(file[8..16].try_into().unwrap()) as usize;
    for i in 0..1_500 {
        let mut mutated = file.clone();
        for _ in 0..rng.gen_range(1..=3) {
            let pos = rng.gen_range((i % 2) * tail..mutated.len());
            mutated[pos] ^= 1u8 << rng.gen_range(0..8u32);
        }
        target.assert_total(&mutated);
    }
    // Length-prefix inflation: every aligned-or-not u64 that reads as a
    // plausible length (the three nested blob prefixes and every vector
    // length among them) is grown past the bytes that follow it.
    for at in 0..file.len() - 8 {
        let value = u64::from_le_bytes(file[at..at + 8].try_into().unwrap());
        if value == 0 || value > (file.len() - at) as u64 {
            continue;
        }
        for inflated in [value + 1, file.len() as u64, 1 << 40, u64::MAX / 2] {
            let mut mutated = file.clone();
            mutated[at..at + 8].copy_from_slice(&inflated.to_le_bytes());
            target.assert_total(&mutated);
        }
    }
    // Pure garbage, with and without a valid header in front.
    for len in (0..600).step_by(7) {
        let mut garbage = vec![0u8; len];
        rng.fill_bytes(&mut garbage);
        target.assert_total(&garbage);
        let mut headed = file[..8].to_vec();
        headed.extend_from_slice(&garbage);
        target.assert_total(&headed);
    }
    assert!(target.attempts >= 10_000, "only {} blobs", target.attempts);

    // The un-mutated file still resumes, into the run it was cut from.
    let resumed = target.resume(file, 6).expect("pristine file resumes");
    assert_eq!(resumed.points(), run.history.points());
    std::fs::remove_file(&target.spec.path).ok();
}

macro_rules! fuzz_kinds {
    ($($name:ident: $kind:expr,)*) => {$(
        #[test]
        fn $name() {
            fuzz_kind($kind);
        }
    )*};
}

fuzz_kinds! {
    sign_ogd_checkpoints_never_panic_the_resume: 0,
    extended_sign_ogd_checkpoints_never_panic_the_resume: 1,
    value_based_checkpoints_never_panic_the_resume: 2,
    fixed_k_checkpoints_never_panic_the_resume: 3,
    exp3_checkpoints_never_panic_the_resume: 4,
    bandit_checkpoints_never_panic_the_resume: 5,
    precision_wrapper_checkpoints_never_panic_the_resume: 6,
}

/// Byte ranges of the run history's contribution and codec-count vectors
/// in an AGCK file, each with its length prefix.
fn history_vectors(file: &[u8]) -> [Range<usize>; 2] {
    // Behind the 8-byte header: the simulation blob, the rounding RNG, the
    // controller blob, the round counter and the start time.
    let mut r = SnapshotReader::new(&file[8..]);
    let at = |r: &SnapshotReader| file.len() - r.remaining();
    r.bytes().unwrap();
    r.rng().unwrap();
    r.bytes().unwrap();
    r.usize().unwrap();
    r.f64().unwrap();
    // The history: label, points, contributions, wire bytes, codec counts.
    r.str().unwrap();
    for _ in 0..r.usize().unwrap() {
        r.usize().unwrap();
        r.f64().unwrap();
        r.usize().unwrap();
        r.f64().unwrap();
        r.opt_f64().unwrap();
        r.opt_f64().unwrap();
    }
    let start = at(&r);
    r.u64s().unwrap();
    let contributions = start..at(&r);
    r.u64().unwrap();
    r.u64().unwrap();
    let start = at(&r);
    r.u64s().unwrap();
    [contributions, start..at(&r)]
}

/// A well-formed file whose history has the wrong shape for the run — a
/// contribution vector of another client count, or codec counts that are
/// neither absent nor one per codec — fails the resume with its typed
/// error when rounds are left to run, instead of indexing out of bounds
/// in the first resumed round's bookkeeping.
#[test]
fn a_history_of_the_wrong_shape_fails_the_resume() {
    let cfg = common::faulty_wired_config(61);
    let run = common::checkpointed_run(&cfg, 1);
    let [contributions, codecs] = history_vectors(&run.file);
    let vector = |range: &Range<usize>| SnapshotReader::new(&run.file[range.clone()]).u64s();
    assert_eq!(
        vector(&contributions).unwrap().len(),
        run.experiment.num_clients()
    );
    assert_eq!(
        vector(&codecs).unwrap().len(),
        agsfl_wire::CodecId::ALL.len()
    );
    let rewritten = |range: Range<usize>, values: &[u64]| {
        let mut w = SnapshotWriter::new();
        w.u64s(values);
        let mut file = run.file[..range.start].to_vec();
        file.extend_from_slice(&w.into_bytes());
        file.extend_from_slice(&run.file[range.end..]);
        file
    };
    let mut target = Target::new(&cfg, 1);
    assert_eq!(
        target.resume(&rewritten(contributions, &[]), 6).err(),
        Some(SnapshotError::Mismatch {
            field: "history contributions length"
        })
    );
    assert_eq!(
        target.resume(&rewritten(codecs, &[1]), 6).err(),
        Some(SnapshotError::Invalid("history codec counts"))
    );
    std::fs::remove_file(&target.spec.path).ok();
}
