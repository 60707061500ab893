//! Seeded, deterministic fault injection for the synchronized round loop.
//!
//! The paper motivates adaptive sparsification with *fluctuating, unreliable*
//! edge networks; this module models the unreliable part. A [`FaultModel`]
//! describes per-round per-client Bernoulli upload dropout, multi-round crash
//! outages, straggler slowdown multipliers, a round deadline priced by the
//! `ChannelModel`, and wire-frame corruption with bounded retry. The runtime
//! [`FaultState`] owns its **own** ChaCha8 stream, so a zero-rate model (and
//! any fixed-rate model) never perturbs the data, client, or server RNG
//! streams — the determinism invariant extends unchanged: identical seeds
//! produce bit-identical runs at every thread count, because the fault plan
//! for a round is drawn serially in client order before the parallel client
//! pass begins.

use std::collections::BTreeMap;

use agsfl_wire::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Upper bound on [`FaultModel::max_retries`]; larger values are almost
/// certainly a misconfiguration (each retry re-transmits the full frame).
pub const MAX_RETRY_LIMIT: usize = 16;

/// Configuration of the deterministic fault injector.
///
/// All faults are drawn from a dedicated stream seeded by
/// [`FaultModel::seed`], independent of every other RNG in the simulation.
/// With every rate at zero the simulation is bit-identical to a run without
/// a fault model (pinned by the client pass's tests, `stages/client_pass.rs`).
///
/// Corruption, straggling, and the deadline act on *bytes and link timing*,
/// so they require a wire configuration; [`FaultModel::validate`] rejects
/// them otherwise with a typed error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// Per-round, per-client probability that a computed upload is lost in
    /// transit (no retry — the server simply never hears the client).
    pub drop_prob: f64,
    /// Per-round, per-client probability that an online client crashes and
    /// goes offline for a whole outage (drawn from `outage_rounds`).
    pub crash_prob: f64,
    /// Inclusive `(min, max)` length, in rounds, of a crash outage.
    pub outage_rounds: (usize, usize),
    /// Per-round, per-client probability of straggling: the client's uplink
    /// transmission time is multiplied by `straggle_factor`.
    pub straggle_prob: f64,
    /// Slowdown multiplier applied to a straggler's uplink transmission
    /// time; must be at least 1.
    pub straggle_factor: f64,
    /// Optional uplink-phase deadline in normalized time units. Clients
    /// whose uplink (including retries and slowdown) exceeds it are dropped
    /// for the round, and the server waits out the full deadline whenever
    /// any client is missing.
    pub deadline: Option<f64>,
    /// Per-attempt probability that an uplink frame arrives corrupted
    /// (truncated or bit-flipped) and fails validated decode.
    pub corrupt_prob: f64,
    /// Extra uplink attempts after the first; at most [`MAX_RETRY_LIMIT`].
    pub max_retries: usize,
    /// Latency added before each retry attempt (backoff), in the same
    /// normalized time units as the channel latency.
    pub retry_backoff: f64,
    /// Seed of the dedicated fault stream.
    pub seed: u64,
}

impl Default for FaultModel {
    fn default() -> Self {
        Self {
            drop_prob: 0.0,
            crash_prob: 0.0,
            outage_rounds: (1, 3),
            straggle_prob: 0.0,
            straggle_factor: 4.0,
            deadline: None,
            corrupt_prob: 0.0,
            max_retries: 2,
            retry_backoff: 0.0,
            seed: 0,
        }
    }
}

/// Typed validation error for [`FaultModel`] (and the configs embedding it):
/// misconfiguration is reported before the run starts instead of panicking
/// mid-round.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultConfigError {
    /// A probability field lies outside `[0, 1]` or is not finite.
    ProbabilityOutOfRange {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The deadline is zero, negative, or not finite.
    NonPositiveDeadline(f64),
    /// The straggle factor is below 1 or not finite.
    InvalidStraggleFactor(f64),
    /// The outage range is empty or starts at zero rounds.
    InvalidOutageRange {
        /// Configured minimum outage length.
        min: usize,
        /// Configured maximum outage length.
        max: usize,
    },
    /// The retry backoff is negative or not finite.
    NegativeBackoff(f64),
    /// `max_retries` exceeds [`MAX_RETRY_LIMIT`].
    RetryLimitTooLarge(usize),
    /// A byte-level fault feature was enabled without a wire configuration
    /// to price it.
    RequiresWire(&'static str),
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ProbabilityOutOfRange { field, value } => {
                write!(f, "{field} must be a probability in [0, 1], got {value}")
            }
            Self::NonPositiveDeadline(d) => {
                write!(f, "deadline must be positive and finite, got {d}")
            }
            Self::InvalidStraggleFactor(s) => {
                write!(f, "straggle_factor must be finite and at least 1, got {s}")
            }
            Self::InvalidOutageRange { min, max } => {
                write!(
                    f,
                    "outage_rounds must satisfy 1 <= min <= max, got ({min}, {max})"
                )
            }
            Self::NegativeBackoff(b) => {
                write!(f, "retry_backoff must be finite and non-negative, got {b}")
            }
            Self::RetryLimitTooLarge(n) => {
                write!(f, "max_retries {n} exceeds the limit {MAX_RETRY_LIMIT}")
            }
            Self::RequiresWire(feature) => {
                write!(
                    f,
                    "{feature} requires a wire configuration (bytes and link timing to act on)"
                )
            }
        }
    }
}

impl std::error::Error for FaultConfigError {}

impl FaultModel {
    /// Validates the model, returning a typed error for any out-of-range
    /// field. `has_wire` states whether the simulation prices real bytes;
    /// corruption, straggling, and the deadline are rejected without it.
    pub fn validate(&self, has_wire: bool) -> Result<(), FaultConfigError> {
        let probs = [
            ("drop_prob", self.drop_prob),
            ("crash_prob", self.crash_prob),
            ("straggle_prob", self.straggle_prob),
            ("corrupt_prob", self.corrupt_prob),
        ];
        for (field, value) in probs {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(FaultConfigError::ProbabilityOutOfRange { field, value });
            }
        }
        if let Some(d) = self.deadline {
            if !d.is_finite() || d <= 0.0 {
                return Err(FaultConfigError::NonPositiveDeadline(d));
            }
        }
        if !self.straggle_factor.is_finite() || self.straggle_factor < 1.0 {
            return Err(FaultConfigError::InvalidStraggleFactor(
                self.straggle_factor,
            ));
        }
        let (min, max) = self.outage_rounds;
        if min == 0 || min > max {
            return Err(FaultConfigError::InvalidOutageRange { min, max });
        }
        if !self.retry_backoff.is_finite() || self.retry_backoff < 0.0 {
            return Err(FaultConfigError::NegativeBackoff(self.retry_backoff));
        }
        if self.max_retries > MAX_RETRY_LIMIT {
            return Err(FaultConfigError::RetryLimitTooLarge(self.max_retries));
        }
        if !has_wire {
            if self.corrupt_prob > 0.0 {
                return Err(FaultConfigError::RequiresWire("corrupt_prob"));
            }
            if self.straggle_prob > 0.0 {
                return Err(FaultConfigError::RequiresWire("straggle_prob"));
            }
            if self.deadline.is_some() {
                return Err(FaultConfigError::RequiresWire("deadline"));
            }
        }
        Ok(())
    }
}

/// One way a frame is damaged on the wire. Positions are stored as fractions
/// of the frame length so the draw is independent of the encoded size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Corruption {
    /// Keep only the leading fraction of the frame (always strictly shorter
    /// than the original, so validated decode always fails).
    Truncate(f64),
    /// XOR the byte at the given relative position with a non-zero mask.
    FlipByte {
        /// Relative position in `[0, 1)` of the byte to damage.
        pos: f64,
        /// Non-zero XOR mask.
        mask: u8,
    },
}

/// Applies a [`Corruption`] to a frame, returning the damaged bytes.
pub(crate) fn corrupt_frame(frame: &[u8], corruption: Corruption) -> Vec<u8> {
    match corruption {
        Corruption::Truncate(fraction) => {
            let keep = ((frame.len() as f64) * fraction) as usize;
            frame[..keep.min(frame.len().saturating_sub(1))].to_vec()
        }
        Corruption::FlipByte { pos, mask } => {
            let mut damaged = frame.to_vec();
            if !damaged.is_empty() {
                let i = (((damaged.len() as f64) * pos) as usize).min(damaged.len() - 1);
                damaged[i] ^= mask;
            }
            damaged
        }
    }
}

/// The faults planned for one client in one round.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClientFaultPlan {
    /// The client is mid-outage: it computes nothing and sends nothing, and
    /// none of its RNG streams advance.
    pub offline: bool,
    /// The computed upload is lost in transit without retry; the update
    /// stays in the client's residual accumulator.
    pub dropped: bool,
    /// Uplink transmission slowdown (1.0 = nominal).
    pub slowdown: f64,
    /// Damage applied to the leading uplink attempts; attempt `a` is
    /// corrupted iff `a < corruptions.len()`.
    pub corruptions: Vec<Corruption>,
}

impl ClientFaultPlan {
    /// The plan of a member no fault touches this round — every member's
    /// plan when no fault model is configured.
    pub(crate) fn clean() -> Self {
        Self {
            offline: false,
            dropped: false,
            slowdown: 1.0,
            corruptions: Vec::new(),
        }
    }
}

/// Runtime state of the fault injector: the model, its dedicated RNG
/// stream, and the outage bookkeeping.
///
/// The outage table is *sparse*: only clients currently (or recently) in an
/// outage hold an entry, so the injector's resident footprint scales with
/// the number of crashed clients, not the population size — a requirement
/// of the million-client cohort engine. Planning is cohort-scoped: only the
/// sampled members draw from the fault stream each round, and a
/// full-population cohort replays exactly the stream the old dense planner
/// drew.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    model: FaultModel,
    rng: ChaCha8Rng,
    num_clients: usize,
    /// Client id → exclusive 0-based round index until which that client is
    /// offline. A `BTreeMap` keeps checkpoint serialization and iteration
    /// deterministic; expired entries are dropped lazily when the client is
    /// next planned.
    outage_until: BTreeMap<u64, u64>,
}

impl FaultState {
    /// Builds the runtime state for `num_clients` clients. The stream is
    /// derived from the model's own seed so it never aliases the data,
    /// client, or server streams (which hang off the simulation seed).
    pub fn new(model: FaultModel, num_clients: usize) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(
            model
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0xFA01_7FA0_17FA_017F),
        );
        Self {
            model,
            rng,
            num_clients,
            outage_until: BTreeMap::new(),
        }
    }

    /// The configured model.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// Draws the fault plan for one round's cohort, serially in member
    /// order; the returned plans are parallel to `cohort`. `round` is the
    /// 0-based round index; `max_attempts` is `1 + max_retries` and bounds
    /// the corruption draws per member. With `cohort == 0..num_clients`
    /// the drawn stream is bit-identical to the historical full-population
    /// planner.
    pub fn plan_round_for(
        &mut self,
        round: usize,
        max_attempts: usize,
        cohort: &[usize],
    ) -> Vec<ClientFaultPlan> {
        let mut plans = Vec::with_capacity(cohort.len());
        for &client in cohort {
            debug_assert!(client < self.num_clients, "cohort member out of range");
            let mut plan = ClientFaultPlan::clean();
            let key = client as u64;
            if let Some(&until) = self.outage_until.get(&key) {
                if (round as u64) < until {
                    plan.offline = true;
                    plans.push(plan);
                    continue;
                }
                self.outage_until.remove(&key);
            }
            if self.model.crash_prob > 0.0 && self.rng.gen_bool(self.model.crash_prob) {
                let (min, max) = self.model.outage_rounds;
                let span = if max > min {
                    self.rng.gen_range(min..=max)
                } else {
                    min
                };
                self.outage_until.insert(key, round as u64 + span as u64);
                plan.offline = true;
                plans.push(plan);
                continue;
            }
            if self.model.drop_prob > 0.0 && self.rng.gen_bool(self.model.drop_prob) {
                plan.dropped = true;
                plans.push(plan);
                continue;
            }
            if self.model.straggle_prob > 0.0 && self.rng.gen_bool(self.model.straggle_prob) {
                plan.slowdown = self.model.straggle_factor;
            }
            if self.model.corrupt_prob > 0.0 {
                for _ in 0..max_attempts {
                    if !self.rng.gen_bool(self.model.corrupt_prob) {
                        break;
                    }
                    let corruption = if self.rng.gen::<bool>() {
                        Corruption::Truncate(self.rng.gen::<f64>())
                    } else {
                        Corruption::FlipByte {
                            pos: self.rng.gen::<f64>(),
                            mask: (self.rng.gen_range(1u32..256)) as u8,
                        }
                    };
                    plan.corruptions.push(corruption);
                }
            }
            plans.push(plan);
        }
        plans
    }
}

/// The injector state: RNG position plus the sparse outage table as parallel
/// key/value vectors in ascending client order.
impl Snapshot for FaultState {
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.rng(&self.rng);
        let keys: Vec<u64> = self.outage_until.keys().copied().collect();
        let values: Vec<u64> = self.outage_until.values().copied().collect();
        w.u64s(&keys);
        w.u64s(&values);
    }

    fn read_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.rng = r.rng()?;
        let keys = r.u64s()?;
        let values = r.u64s()?;
        if keys.len() != values.len() {
            return Err(SnapshotError::Mismatch {
                field: "fault outage table length",
            });
        }
        let strictly_ascending = keys.windows(2).all(|w| w[0] < w[1]);
        if !strictly_ascending || keys.iter().any(|&k| k >= self.num_clients as u64) {
            return Err(SnapshotError::Invalid("fault outage table keys"));
        }
        self.outage_until = keys.into_iter().zip(values).collect();
        Ok(())
    }
}

/// Per-round fault accounting, attached to `RoundReport` whenever a fault
/// model is configured (all-zero on clean rounds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultRoundReport {
    /// Clients offline for the whole round (mid-outage).
    pub offline: usize,
    /// Clients whose upload was lost to Bernoulli dropout.
    pub dropped: usize,
    /// Transmitting clients slowed by the straggle factor this round.
    pub stragglers: usize,
    /// Corrupted uplink attempts observed (each hit the validated
    /// `WireError` decode path and was discarded).
    pub corrupt_frames: usize,
    /// Clients lost after exhausting every retry with corrupted frames.
    pub corrupt_lost: usize,
    /// Clients dropped because their uplink exceeded the round deadline.
    pub deadline_dropped: usize,
    /// Extra uplink attempts beyond each client's first.
    pub retries: usize,
    /// Bytes re-transmitted by retry attempts.
    pub retransmitted_bytes: u64,
    /// Uploads that reached the server and were aggregated.
    pub survivors: usize,
}

impl FaultRoundReport {
    /// Total clients that failed to contribute an upload this round.
    pub fn lost(&self) -> usize {
        self.offline + self.dropped + self.corrupt_lost + self.deadline_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_valid_and_fault_free() {
        let model = FaultModel::default();
        model.validate(false).unwrap();
        model.validate(true).unwrap();
        let mut state = FaultState::new(model, 5);
        let cohort: Vec<usize> = (0..5).collect();
        for round in 0..20 {
            for plan in state.plan_round_for(round, 3, &cohort) {
                assert_eq!(plan, ClientFaultPlan::clean());
            }
        }
    }

    #[test]
    fn validation_rejects_each_bad_field() {
        let base = FaultModel::default();
        let bad_prob = FaultModel {
            drop_prob: 1.5,
            ..base.clone()
        };
        assert!(matches!(
            bad_prob.validate(true),
            Err(FaultConfigError::ProbabilityOutOfRange {
                field: "drop_prob",
                ..
            })
        ));
        let nan_prob = FaultModel {
            corrupt_prob: f64::NAN,
            ..base.clone()
        };
        assert!(matches!(
            nan_prob.validate(true),
            Err(FaultConfigError::ProbabilityOutOfRange { .. })
        ));
        let zero_deadline = FaultModel {
            deadline: Some(0.0),
            ..base.clone()
        };
        assert_eq!(
            zero_deadline.validate(true),
            Err(FaultConfigError::NonPositiveDeadline(0.0))
        );
        let weak_straggle = FaultModel {
            straggle_factor: 0.5,
            ..base.clone()
        };
        assert_eq!(
            weak_straggle.validate(true),
            Err(FaultConfigError::InvalidStraggleFactor(0.5))
        );
        let empty_outage = FaultModel {
            outage_rounds: (3, 1),
            ..base.clone()
        };
        assert_eq!(
            empty_outage.validate(true),
            Err(FaultConfigError::InvalidOutageRange { min: 3, max: 1 })
        );
        let zero_outage = FaultModel {
            outage_rounds: (0, 2),
            ..base.clone()
        };
        assert!(zero_outage.validate(true).is_err());
        let negative_backoff = FaultModel {
            retry_backoff: -0.1,
            ..base.clone()
        };
        assert_eq!(
            negative_backoff.validate(true),
            Err(FaultConfigError::NegativeBackoff(-0.1))
        );
        let too_many_retries = FaultModel {
            max_retries: MAX_RETRY_LIMIT + 1,
            ..base.clone()
        };
        assert_eq!(
            too_many_retries.validate(true),
            Err(FaultConfigError::RetryLimitTooLarge(MAX_RETRY_LIMIT + 1))
        );
    }

    #[test]
    fn byte_level_faults_require_wire() {
        let base = FaultModel::default();
        let corrupt = FaultModel {
            corrupt_prob: 0.1,
            ..base.clone()
        };
        assert_eq!(
            corrupt.validate(false),
            Err(FaultConfigError::RequiresWire("corrupt_prob"))
        );
        corrupt.validate(true).unwrap();
        let straggle = FaultModel {
            straggle_prob: 0.1,
            ..base.clone()
        };
        assert!(straggle.validate(false).is_err());
        let deadline = FaultModel {
            deadline: Some(1.0),
            ..base.clone()
        };
        assert_eq!(
            deadline.validate(false),
            Err(FaultConfigError::RequiresWire("deadline"))
        );
        // Dropout and crashes act on scalar timing too: valid without wire.
        let scalar_ok = FaultModel {
            drop_prob: 0.3,
            crash_prob: 0.1,
            ..base
        };
        scalar_ok.validate(false).unwrap();
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let model = FaultModel {
            drop_prob: 0.3,
            crash_prob: 0.1,
            straggle_prob: 0.2,
            corrupt_prob: 0.4,
            seed: 11,
            ..FaultModel::default()
        };
        let mut a = FaultState::new(model.clone(), 8);
        let mut b = FaultState::new(model, 8);
        let cohort: Vec<usize> = (0..8).collect();
        for round in 0..30 {
            assert_eq!(
                a.plan_round_for(round, 3, &cohort),
                b.plan_round_for(round, 3, &cohort)
            );
        }
    }

    #[test]
    fn crashes_span_multiple_rounds() {
        let model = FaultModel {
            crash_prob: 0.5,
            outage_rounds: (2, 4),
            seed: 3,
            ..FaultModel::default()
        };
        let mut state = FaultState::new(model, 4);
        let mut saw_outage_continuation = false;
        let mut previous: Vec<bool> = vec![false; 4];
        let cohort: Vec<usize> = (0..4).collect();
        for round in 0..40 {
            let plans = state.plan_round_for(round, 1, &cohort);
            for (client, plan) in plans.iter().enumerate() {
                if previous[client] && plan.offline {
                    saw_outage_continuation = true;
                }
            }
            previous = plans.iter().map(|p| p.offline).collect();
        }
        assert!(
            saw_outage_continuation,
            "outages of 2+ rounds must keep clients offline across rounds"
        );
    }

    #[test]
    fn outage_table_stays_sparse() {
        let model = FaultModel {
            crash_prob: 0.5,
            outage_rounds: (1, 1),
            seed: 9,
            ..FaultModel::default()
        };
        let mut state = FaultState::new(model, 1000);
        // Only the sampled members can ever enter the table.
        let cohort = [3usize, 400, 999];
        for round in 0..50 {
            state.plan_round_for(round, 1, &cohort);
            assert!(state.outage_until.len() <= cohort.len());
        }
    }

    #[test]
    fn corrupt_frame_truncation_is_strictly_shorter() {
        let frame = vec![1u8, 2, 3, 4, 5];
        for fraction in [0.0, 0.2, 0.5, 0.999, 1.0] {
            let damaged = corrupt_frame(&frame, Corruption::Truncate(fraction));
            assert!(damaged.len() < frame.len(), "fraction {fraction}");
            assert_eq!(&frame[..damaged.len()], &damaged[..]);
        }
    }

    #[test]
    fn corrupt_frame_flip_changes_exactly_one_byte() {
        let frame = vec![7u8; 9];
        let damaged = corrupt_frame(
            &frame,
            Corruption::FlipByte {
                pos: 0.99,
                mask: 0x40,
            },
        );
        assert_eq!(damaged.len(), frame.len());
        let diffs = frame.iter().zip(&damaged).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
    }

    #[test]
    fn state_roundtrip_resumes_plan_stream() {
        let model = FaultModel {
            drop_prob: 0.25,
            crash_prob: 0.15,
            corrupt_prob: 0.3,
            seed: 21,
            ..FaultModel::default()
        };
        let mut a = FaultState::new(model.clone(), 6);
        let cohort: Vec<usize> = (0..6).collect();
        for round in 0..7 {
            a.plan_round_for(round, 2, &cohort);
        }
        let mut b = agsfl_wire::snapshot::roundtrip(&a, || FaultState::new(model.clone(), 6));
        for round in 7..20 {
            assert_eq!(
                a.plan_round_for(round, 2, &cohort),
                b.plan_round_for(round, 2, &cohort)
            );
        }
    }

    /// Clients of the hand-built injector sections.
    const CLIENTS: usize = 6;

    /// An injector section written field by field: the stream position,
    /// then the outage table as key and value vectors.
    fn section(keys: &[u64], values: &[u64]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.rng(&ChaCha8Rng::seed_from_u64(5));
        w.u64s(keys);
        w.u64s(values);
        w.into_bytes()
    }

    /// Reads a whole section into an injector of `CLIENTS` clients;
    /// returns its outage table size.
    fn read(bytes: &[u8]) -> Result<usize, SnapshotError> {
        let mut state = FaultState::new(FaultModel::default(), CLIENTS);
        let mut r = SnapshotReader::new(bytes);
        state.read_state(&mut r)?;
        r.finish()?;
        Ok(state.outage_until.len())
    }

    /// The injector section's shape laws: key and value vectors of
    /// different lengths are a `Mismatch`, keys that are not strictly
    /// ascending client ids are `Invalid`, and every strict prefix of a
    /// valid section is `Truncated`.
    #[test]
    fn fault_sections_obey_their_shape_laws() {
        let valid = section(&[1, 4], &[9, 12]);
        assert_eq!(read(&valid), Ok(2));
        let keys = SnapshotError::Invalid("fault outage table keys");
        let cases = [
            (
                "more keys than values",
                section(&[1, 4], &[9]),
                SnapshotError::Mismatch {
                    field: "fault outage table length",
                },
            ),
            (
                "key past the population",
                section(&[1, 6], &[9, 12]),
                keys.clone(),
            ),
            ("descending keys", section(&[4, 1], &[9, 12]), keys.clone()),
            ("repeated key", section(&[4, 4], &[9, 12]), keys),
        ];
        for (case, bytes, want) in cases {
            assert_eq!(read(&bytes), Err(want), "{case}");
        }
        for cut in 0..valid.len() {
            assert_eq!(
                read(&valid[..cut]),
                Err(SnapshotError::Truncated),
                "cut at {cut}"
            );
        }
    }
}
