//! [`KController`] implementations wiring the algorithms to round feedback.
//!
//! The experiment harness in `agsfl-core` speaks only the [`KController`]
//! interface: it asks for the next `k` (and probe `k'`), runs the FL round,
//! and feeds back a [`RoundFeedback`]. Every algorithm of this crate is its
//! own controller, one type with one snapshot:
//!
//! * [`SignOgd`], [`ExtendedSignOgd`] and [`ValueBasedDescent`] step on the
//!   derivative(-sign) estimate of the probe losses, [`derivative_sign`] /
//!   [`derivative`];
//! * [`Exp3`] and [`ContinuousBandit`] step on the round's scalar cost —
//!   the time spent per unit of single-sample loss decrease, the empirical
//!   analogue of `t(k, l)`;
//! * [`FixedK`] and [`KSequence`] prescribe `k` and ask for no probe;
//! * [`PrecisionController`] wraps any of them and adds the precision axis.

use agsfl_wire::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use agsfl_wire::Precision;
use serde::{Deserialize, Serialize};

use crate::bandit::ContinuousBandit;
use crate::estimator::{derivative, derivative_sign};
use crate::exp3::Exp3;
use crate::extended::ExtendedSignOgd;
use crate::sign_ogd::SignOgd;
use crate::value_based::ValueBasedDescent;
use crate::{KController, RoundFeedback};

/// One-byte controller-type tags guarding [`KController::restore_state`]
/// against snapshots taken from a different controller.
const TAG_SIGN_OGD: u8 = 1;
const TAG_EXTENDED: u8 = 2;
const TAG_VALUE_BASED: u8 = 3;
const TAG_FIXED_K: u8 = 4;
const TAG_EXP3: u8 = 5;
const TAG_BANDIT: u8 = 6;
const TAG_PRECISION: u8 = 7;
const TAG_K_SEQUENCE: u8 = 8;

/// The body of every [`KController::save_state`]: the controller-type tag,
/// then the state.
fn save_tagged<T: Snapshot>(tag: u8, state: &T) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.tag(tag);
    state.write_state(&mut w);
    w.into_bytes()
}

/// The body of every [`KController::restore_state`]: checks the tag (`name`
/// is what a mismatch reports as expected), decodes into a copy of `state`
/// and commits the copy only once the bytes are exhausted, so any error
/// leaves `state` untouched.
fn restore_tagged<T: Snapshot + Clone>(
    tag: u8,
    name: &'static str,
    state: &mut T,
    bytes: &[u8],
) -> Result<(), SnapshotError> {
    let mut r = SnapshotReader::new(bytes);
    r.tag(tag, name)?;
    let mut restored = state.clone();
    restored.read_state(&mut r)?;
    r.finish()?;
    *state = restored;
    Ok(())
}

/// Scalar per-round cost used by the bandit-style baselines: normalized time
/// spent per unit of the probe's loss decrease
/// `L̃(w(m−1)) − L̃(w(m))`. Falls back to the raw round time when the round
/// ran no probe. Reports `None` when the loss did not decrease or a time or
/// loss of the round is not finite: those rounds carry no usable signal.
fn round_cost(feedback: &RoundFeedback) -> Option<f64> {
    let measured = [
        Some(feedback.round_time),
        feedback.probe_round_time,
        feedback.probe_loss_prev,
        feedback.probe_loss_now,
        feedback.probe_loss_alt,
    ];
    if !measured.into_iter().flatten().all(f64::is_finite) {
        return None;
    }
    let decrease = feedback
        .probe_loss_prev
        .zip(feedback.probe_loss_now)
        .map(|(prev, now)| prev - now);
    match decrease {
        Some(d) if d > 1e-9 => Some(feedback.round_time / d),
        Some(_) => None,
        None => Some(feedback.round_time),
    }
    .filter(|cost| cost.is_finite())
}

impl KController for SignOgd {
    fn name(&self) -> &'static str {
        "Algorithm 2 (sign OGD)"
    }

    fn propose_k(&self) -> f64 {
        self.k()
    }

    fn probe_k(&self) -> Option<f64> {
        Some(SignOgd::probe_k(self))
    }

    fn observe(&mut self, feedback: &RoundFeedback) {
        self.step(derivative_sign(feedback));
    }

    fn save_state(&self) -> Vec<u8> {
        save_tagged(TAG_SIGN_OGD, self)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        restore_tagged(TAG_SIGN_OGD, "sign OGD", self, bytes)
    }
}

impl KController for ExtendedSignOgd {
    fn name(&self) -> &'static str {
        "Algorithm 3 (extended sign OGD)"
    }

    fn propose_k(&self) -> f64 {
        self.k()
    }

    fn probe_k(&self) -> Option<f64> {
        Some(ExtendedSignOgd::probe_k(self))
    }

    fn observe(&mut self, feedback: &RoundFeedback) {
        self.step(derivative_sign(feedback));
    }

    fn save_state(&self) -> Vec<u8> {
        save_tagged(TAG_EXTENDED, self)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        restore_tagged(TAG_EXTENDED, "extended sign OGD", self, bytes)
    }
}

impl KController for ValueBasedDescent {
    fn name(&self) -> &'static str {
        "Value-based derivative descent"
    }

    fn propose_k(&self) -> f64 {
        self.k()
    }

    fn probe_k(&self) -> Option<f64> {
        Some(ValueBasedDescent::probe_k(self))
    }

    fn observe(&mut self, feedback: &RoundFeedback) {
        self.step(derivative(feedback));
    }

    fn save_state(&self) -> Vec<u8> {
        save_tagged(TAG_VALUE_BASED, self)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        restore_tagged(TAG_VALUE_BASED, "value-based descent", self, bytes)
    }
}

impl KController for Exp3 {
    fn name(&self) -> &'static str {
        "EXP3"
    }

    fn propose_k(&self) -> f64 {
        self.k()
    }

    /// The cost reads only the probe's losses at `w(m−1)` and `w(m)`, which
    /// no `k'` changes.
    fn probe_k(&self) -> Option<f64> {
        Some(self.k())
    }

    fn observe(&mut self, feedback: &RoundFeedback) {
        self.step(round_cost(feedback));
    }

    fn save_state(&self) -> Vec<u8> {
        save_tagged(TAG_EXP3, self)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        restore_tagged(TAG_EXP3, "EXP3", self, bytes)
    }
}

impl KController for ContinuousBandit {
    fn name(&self) -> &'static str {
        "Continuous bandit"
    }

    fn propose_k(&self) -> f64 {
        self.k()
    }

    /// As for [`Exp3`]: any `k'` yields the cost's two losses.
    fn probe_k(&self) -> Option<f64> {
        Some(self.k())
    }

    fn observe(&mut self, feedback: &RoundFeedback) {
        self.step(round_cost(feedback));
    }

    fn save_state(&self) -> Vec<u8> {
        save_tagged(TAG_BANDIT, self)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        restore_tagged(TAG_BANDIT, "continuous bandit", self, bytes)
    }
}

/// A controller that always proposes the same `k` (the paper's fixed-`k`
/// baselines, e.g. Fig. 1 and Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FixedK {
    k: f64,
}

impl FixedK {
    /// Creates a fixed-`k` controller.
    ///
    /// # Panics
    ///
    /// Panics if `k < 1`.
    pub fn new(k: f64) -> Self {
        assert!(k >= 1.0, "k must be at least 1");
        Self { k }
    }
}

impl KController for FixedK {
    fn name(&self) -> &'static str {
        "Fixed k"
    }

    fn propose_k(&self) -> f64 {
        self.k
    }

    fn probe_k(&self) -> Option<f64> {
        None
    }

    fn observe(&mut self, _feedback: &RoundFeedback) {}

    fn save_state(&self) -> Vec<u8> {
        save_tagged(TAG_FIXED_K, self)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        restore_tagged(TAG_FIXED_K, "fixed k", self, bytes)
    }
}

impl Snapshot for FixedK {
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.f64(self.k);
    }

    fn read_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.k = r.f64()?;
        if !self.k.is_finite() || self.k < 1.0 {
            return Err(SnapshotError::Invalid("fixed k"));
        }
        Ok(())
    }
}

/// A prescribed `{k_m}` sequence, its last value repeated once it runs out
/// (the replays of Figs. 7 and 8). Each observed round advances it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KSequence {
    sequence: Vec<usize>,
    next: usize,
}

impl KSequence {
    /// Creates the controller at the sequence's first value.
    ///
    /// # Panics
    ///
    /// Panics if `sequence` is empty.
    pub fn new(sequence: Vec<usize>) -> Self {
        assert!(!sequence.is_empty(), "k sequence must not be empty");
        Self { sequence, next: 0 }
    }
}

impl KController for KSequence {
    fn name(&self) -> &'static str {
        "prescribed k sequence"
    }

    fn propose_k(&self) -> f64 {
        self.sequence[self.next.min(self.sequence.len() - 1)] as f64
    }

    fn probe_k(&self) -> Option<f64> {
        None
    }

    fn observe(&mut self, _feedback: &RoundFeedback) {
        self.next = self.next.saturating_add(1);
    }

    fn save_state(&self) -> Vec<u8> {
        save_tagged(TAG_K_SEQUENCE, self)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        restore_tagged(TAG_K_SEQUENCE, "k sequence", self, bytes)
    }
}

/// The position only: the sequence is configuration.
impl Snapshot for KSequence {
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.usize(self.next);
    }

    fn read_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.next = r.usize()?;
        Ok(())
    }
}

/// Extends any `k`-controller to the 2-D `(k × precision)` action space.
///
/// The wrapped controller keeps full authority over `k` (all `k`-side calls
/// delegate); this wrapper adds the precision axis by tracking an
/// exponential moving average of the per-round cost (the same
/// time-per-unit-loss-decrease scalar the bandit baselines use) for each
/// [`Precision`] tier and deterministically selecting:
///
/// 1. the first tier that has never been observed (most-precise first, so a
///    run always starts on the lossless tier);
/// 2. every `explore_every`-th round, a round-robin tier, so a tier whose
///    cost estimate went stale keeps being revisited;
/// 3. otherwise the tier with the lowest EMA cost, ties broken toward the
///    most precise tier.
///
/// The selection is a pure function of `(round counter, cost table)` — no
/// RNG — so the precision schedule is reproducible bit-for-bit across
/// worker counts and checkpoint/resume.
#[derive(Debug)]
pub struct PrecisionController {
    inner: Box<dyn KController>,
    cost: [Option<f64>; 4],
    round: usize,
    explore_every: usize,
}

impl PrecisionController {
    /// EMA weight kept on the old cost estimate.
    const EMA_KEEP: f64 = 0.8;

    /// Wraps `inner`, re-exploring each tier every 16th round.
    pub fn new(inner: Box<dyn KController>) -> Self {
        Self {
            inner,
            cost: [None; 4],
            round: 0,
            explore_every: 16,
        }
    }

    /// The EMA cost estimate per tier, indexed like [`Precision::ALL`].
    #[cfg(test)]
    fn tier_costs(&self) -> [Option<f64>; 4] {
        self.cost
    }

    /// The tier the deterministic policy selects for the next round.
    fn selected(&self) -> Precision {
        if let Some(i) = self.cost.iter().position(Option::is_none) {
            return Precision::ALL[i];
        }
        if self.round.is_multiple_of(self.explore_every) {
            return Precision::ALL[(self.round / self.explore_every) % Precision::ALL.len()];
        }
        let mut best = 0;
        for i in 1..Precision::ALL.len() {
            // Strict `<` keeps ties on the lower (more precise) index.
            if self.cost[i].unwrap_or(f64::INFINITY) < self.cost[best].unwrap_or(f64::INFINITY) {
                best = i;
            }
        }
        Precision::ALL[best]
    }
}

impl KController for PrecisionController {
    fn name(&self) -> &'static str {
        "2-D (k × precision)"
    }

    fn propose_k(&self) -> f64 {
        self.inner.propose_k()
    }

    fn probe_k(&self) -> Option<f64> {
        self.inner.probe_k()
    }

    fn propose_precision(&self) -> Option<Precision> {
        Some(self.selected())
    }

    fn observe(&mut self, feedback: &RoundFeedback) {
        // `selected()` recomputes exactly the tier `propose_precision`
        // returned before this round ran, so the cost lands on the tier
        // that actually produced it.
        let tier = self.selected() as usize;
        if let Some(cost) = round_cost(feedback) {
            self.cost[tier] = Some(self.cost[tier].map_or(cost, |old| {
                Self::EMA_KEEP * old + (1.0 - Self::EMA_KEEP) * cost
            }));
        }
        self.round += 1;
        self.inner.observe(feedback);
    }

    fn save_state(&self) -> Vec<u8> {
        let state = PrecisionState {
            round: self.round,
            explore_every: self.explore_every,
            cost: self.cost,
            inner: self.inner.save_state(),
        };
        save_tagged(TAG_PRECISION, &state)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut state = PrecisionState::default();
        restore_tagged(TAG_PRECISION, "precision wrapper", &mut state, bytes)?;
        if state.explore_every != self.explore_every {
            return Err(SnapshotError::Invalid("explore period"));
        }
        // The inner restore is itself atomic, so restoring it before
        // committing the outer fields keeps the whole operation atomic.
        self.inner.restore_state(&state.inner)?;
        self.round = state.round;
        self.cost = state.cost;
        Ok(())
    }
}

/// What a [`PrecisionController`] snapshot carries: the wrapper's own fields
/// and, still encoded, the wrapped controller's snapshot (a `dyn KController`
/// restores only from bytes). `explore_every` is configuration: a snapshot
/// taken under another period is rejected.
#[derive(Debug, Clone, Default)]
struct PrecisionState {
    round: usize,
    explore_every: usize,
    cost: [Option<f64>; 4],
    inner: Vec<u8>,
}

impl Snapshot for PrecisionState {
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.usize(self.round);
        w.usize(self.explore_every);
        for cost in self.cost {
            w.opt_f64(cost);
        }
        w.bytes(&self.inner);
    }

    fn read_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.round = r.usize()?;
        self.explore_every = r.usize()?;
        for slot in &mut self.cost {
            *slot = r.opt_f64()?;
            if slot.is_some_and(|c| !c.is_finite() || c < 0.0) {
                return Err(SnapshotError::Invalid("tier cost"));
            }
        }
        self.inner = r.bytes()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExtendedConfig, SearchInterval};

    fn feedback_with_probe(k: usize, probe_k: usize, faster_small_k: bool) -> RoundFeedback {
        // If the smaller probe k achieves the same loss drop in less time,
        // the derivative sign is positive and k should decrease.
        RoundFeedback {
            probe_loss_prev: Some(2.0),
            probe_loss_now: Some(1.9),
            probe_loss_alt: Some(if faster_small_k { 1.9 } else { 1.99 }),
            probe_round_time: Some(8.0),
            probe_k: Some(probe_k),
            ..RoundFeedback::time_only(k, 10.0)
        }
    }

    /// Feedback of a round whose probe losses fell by exactly `decrease`,
    /// the only loss signal the bandits' cost reads.
    fn loss_decrease(k_used: usize, round_time: f64, decrease: f64) -> RoundFeedback {
        RoundFeedback {
            probe_loss_prev: Some(decrease),
            probe_loss_now: Some(0.0),
            ..RoundFeedback::time_only(k_used, round_time)
        }
    }

    #[test]
    fn sign_ogd_controller_moves_k_down_when_small_k_is_better() {
        let mut c = SignOgd::new(SearchInterval::new(1.0, 1001.0), 800.0);
        let before = KController::propose_k(&c);
        let probe = KController::probe_k(&c).unwrap() as usize;
        c.observe(&feedback_with_probe(800, probe, true));
        assert!(KController::propose_k(&c) < before);
    }

    #[test]
    fn extended_controller_moves_k_up_when_large_k_is_better() {
        let mut c = ExtendedSignOgd::new(ExtendedConfig {
            k_min: 1.0,
            k_max: 1000.0,
            alpha: 1.5,
            update_window: 20,
            initial_k: 500.0,
        });
        let before = KController::propose_k(&c);
        let probe = KController::probe_k(&c).unwrap() as usize;
        c.observe(&feedback_with_probe(500, probe, false));
        assert!(KController::propose_k(&c) > before);
    }

    #[test]
    fn value_based_controller_steps_with_derivative() {
        let mut c = ValueBasedDescent::new(SearchInterval::new(1.0, 1001.0), 500.0);
        let probe = KController::probe_k(&c).unwrap() as usize;
        c.observe(&feedback_with_probe(500, probe, true));
        assert!(KController::propose_k(&c) < 500.0);
    }

    #[test]
    fn missing_probe_data_keeps_sign_controllers_unchanged() {
        let mut c = SignOgd::new(SearchInterval::new(1.0, 101.0), 50.0);
        c.observe(&RoundFeedback::time_only(50, 5.0));
        assert_eq!(KController::propose_k(&c), 50.0);
    }

    #[test]
    fn fixed_k_never_changes() {
        let mut c = FixedK::new(123.0);
        assert_eq!(c.propose_k(), 123.0);
        assert_eq!(KController::probe_k(&c), None);
        c.observe(&RoundFeedback::time_only(123, 2.0));
        assert_eq!(c.propose_k(), 123.0);
    }

    #[test]
    fn k_sequence_replays_then_repeats_its_last_value() {
        let mut c = KSequence::new(vec![10, 20, 30]);
        let mut proposed = Vec::new();
        for _ in 0..5 {
            assert_eq!(KController::probe_k(&c), None);
            proposed.push(c.propose_k());
            c.observe(&RoundFeedback::time_only(1, 2.0));
        }
        assert_eq!(proposed, [10.0, 20.0, 30.0, 30.0, 30.0]);
    }

    /// A sequence long enough that the roundtrip tests restore it mid-way.
    fn k_sequence() -> KSequence {
        KSequence::new((1..=40).map(|i| 7 * i).collect())
    }

    #[test]
    fn exp3_controller_draws_valid_arms_and_learns() {
        let arms = Exp3::geometric_arms(10.0, 1000.0, 6);
        let mut c = Exp3::new(arms.clone(), 0.2, 1);
        for _ in 0..200 {
            let k = c.propose_k();
            assert!(arms.iter().any(|&a| (a - k).abs() < 1e-9));
            // Rounds with small k are cheap per unit loss decrease.
            let cost_time = 1.0 + k / 100.0;
            c.observe(&loss_decrease(k.round() as usize, cost_time, 0.1));
        }
        // The smallest arms should now dominate the probabilities.
        let probs = c.probabilities();
        let small_mass: f64 = probs[..2].iter().sum();
        assert!(small_mass > 0.4, "probabilities {probs:?}");
    }

    #[test]
    fn bandit_controller_normalizes_costs() {
        let mut c =
            ContinuousBandit::with_default_scales(SearchInterval::new(10.0, 1010.0), 500.0, 7);
        for _ in 0..50 {
            let k = c.propose_k();
            assert!((10.0..=1010.0).contains(&k));
            c.observe(&loss_decrease(k.round() as usize, 1.0 + k / 50.0, 0.05));
        }
        assert!(c.center().is_finite());
    }

    /// Deterministic synthetic feedback stream exercising both the probe
    /// path (sign controllers) and the cost path (bandit controllers).
    fn synthetic_feedback(round: usize, k: f64) -> RoundFeedback {
        let phase = (round % 7) as f64;
        let drift = 0.001 * round as f64;
        RoundFeedback {
            probe_loss_prev: Some(2.0 - drift),
            probe_loss_now: Some(1.95 - drift),
            probe_loss_alt: Some(if round.is_multiple_of(3) {
                1.95 - drift
            } else {
                1.99 - drift
            }),
            probe_round_time: Some(4.0 + k / 120.0),
            probe_k: Some(((k * 0.8) as usize).max(1)),
            ..RoundFeedback::time_only(k.round().max(1.0) as usize, 5.0 + k / 100.0 + phase * 0.3)
        }
    }

    /// Drives a controller, snapshots it, restores the snapshot into a fresh
    /// instance, and checks both continue bit-identically.
    fn roundtrip_continues_identically(make: &dyn Fn() -> Box<dyn KController>) {
        let mut original = make();
        for round in 0..25 {
            let k = original.propose_k();
            original.observe(&synthetic_feedback(round, k));
        }
        let snapshot = original.save_state();
        let mut restored = make();
        restored.restore_state(&snapshot).unwrap();
        for round in 25..60 {
            let k_a = original.propose_k();
            let k_b = restored.propose_k();
            assert_eq!(k_a.to_bits(), k_b.to_bits(), "k diverged at round {round}");
            assert_eq!(
                original.probe_k().map(f64::to_bits),
                restored.probe_k().map(f64::to_bits),
                "probe k diverged at round {round}"
            );
            assert_eq!(
                original.propose_precision(),
                restored.propose_precision(),
                "precision diverged at round {round}"
            );
            original.observe(&synthetic_feedback(round, k_a));
            restored.observe(&synthetic_feedback(round, k_b));
        }
    }

    #[test]
    fn every_controller_roundtrips_its_state_bit_identically() {
        let factories: Vec<Box<dyn Fn() -> Box<dyn KController>>> = vec![
            Box::new(|| Box::new(SignOgd::new(SearchInterval::new(1.0, 1001.0), 800.0))),
            Box::new(|| {
                Box::new(ExtendedSignOgd::new(ExtendedConfig {
                    k_min: 1.0,
                    k_max: 1000.0,
                    alpha: 1.5,
                    update_window: 5,
                    initial_k: 500.0,
                }))
            }),
            Box::new(|| {
                Box::new(ValueBasedDescent::new(
                    SearchInterval::new(1.0, 1001.0),
                    500.0,
                ))
            }),
            Box::new(|| Box::new(FixedK::new(123.0))),
            Box::new(|| Box::new(k_sequence())),
            Box::new(|| Box::new(Exp3::new(Exp3::geometric_arms(10.0, 1000.0, 6), 0.2, 42))),
            Box::new(|| {
                Box::new(ContinuousBandit::with_default_scales(
                    SearchInterval::new(10.0, 1010.0),
                    500.0,
                    7,
                ))
            }),
            Box::new(|| {
                Box::new(PrecisionController::new(Box::new(SignOgd::new(
                    SearchInterval::new(1.0, 1001.0),
                    800.0,
                ))))
            }),
            Box::new(|| {
                Box::new(PrecisionController::new(Box::new(Exp3::new(
                    Exp3::geometric_arms(10.0, 1000.0, 6),
                    0.2,
                    42,
                ))))
            }),
        ];
        for factory in &factories {
            roundtrip_continues_identically(factory.as_ref());
        }
    }

    /// The two `agsfl_wire::snapshot::roundtrip` laws on `$fresh` after it
    /// was driven through 25 synthetic rounds, restoring into another `$fresh`.
    macro_rules! roundtrip {
        ($fresh:expr) => {{
            let mut driven = $fresh;
            for round in 0..25 {
                let k = driven.propose_k();
                driven.observe(&synthetic_feedback(round, k));
            }
            agsfl_wire::snapshot::roundtrip(&driven, || $fresh)
        }};
    }

    #[test]
    fn every_persisted_type_obeys_the_roundtrip_laws() {
        use agsfl_wire::snapshot::roundtrip as law;
        let interval = SearchInterval::new(10.0, 1010.0);
        let arms = || Exp3::geometric_arms(10.0, 1000.0, 6);
        assert_eq!(law(&interval, || SearchInterval::new(1.0, 2.0)), interval);
        roundtrip!(SignOgd::new(interval, 800.0));
        roundtrip!(ExtendedSignOgd::new(ExtendedConfig {
            k_min: 1.0,
            k_max: 1000.0,
            alpha: 1.5,
            update_window: 5,
            initial_k: 500.0,
        }));
        roundtrip!(ValueBasedDescent::new(interval, 500.0));
        roundtrip!(FixedK::new(123.0));
        roundtrip!(k_sequence());
        let exp3 = roundtrip!(Exp3::new(arms(), 0.2, 42));
        law(&exp3, || Exp3::new(arms(), 0.2, 42));
        let bandit = || ContinuousBandit::with_default_scales(interval, 500.0, 7);
        let restored = roundtrip!(bandit());
        law(&restored, bandit);
        let wrapper = PrecisionState {
            round: 9,
            explore_every: 16,
            cost: [Some(1.5), None, Some(0.0), Some(7.25)],
            inner: exp3.save_state(),
        };
        law(&wrapper, PrecisionState::default);
    }

    /// The snapshot shape laws on `make`'s type: every strict prefix of a
    /// driven controller's snapshot is a typed error that leaves a fresh
    /// target untouched (its own snapshot unchanged), one trailing byte is
    /// `TrailingBytes`, and the whole snapshot restores.
    fn shape_laws(name: &str, make: &dyn Fn() -> Box<dyn KController>) {
        let mut driven = make();
        for round in 0..25 {
            let k = driven.propose_k();
            driven.observe(&synthetic_feedback(round, k));
        }
        let snapshot = driven.save_state();
        let mut target = make();
        let before = target.save_state();
        for cut in 0..snapshot.len() {
            assert!(
                target.restore_state(&snapshot[..cut]).is_err(),
                "{name}: cut at {cut} restored"
            );
            assert_eq!(
                target.save_state(),
                before,
                "{name}: cut at {cut} mutated the controller"
            );
        }
        let mut extended = snapshot.clone();
        extended.push(0);
        assert_eq!(
            target.restore_state(&extended),
            Err(SnapshotError::TrailingBytes),
            "{name}"
        );
        assert_eq!(target.save_state(), before, "{name}: trailing byte mutated");
        target.restore_state(&snapshot).unwrap();
        assert_eq!(target.save_state(), snapshot, "{name}");
    }

    #[test]
    fn restore_rejects_wrong_controller_and_corrupt_bytes() {
        // A snapshot from another controller type is a typed error.
        let sign = SignOgd::new(SearchInterval::new(1.0, 101.0), 50.0);
        let mut fixed = FixedK::new(10.0);
        assert!(matches!(
            fixed.restore_state(&sign.save_state()),
            Err(SnapshotError::WrongController { .. })
        ));
        assert_eq!(
            k_sequence().restore_state(&fixed.save_state()),
            Err(SnapshotError::WrongController {
                expected: "k sequence"
            })
        );

        let interval = SearchInterval::new(10.0, 1010.0);
        let arms = || Exp3::geometric_arms(10.0, 1000.0, 6);
        shape_laws("FixedK", &|| Box::new(FixedK::new(123.0)));
        shape_laws("KSequence", &|| Box::new(k_sequence()));
        shape_laws("SignOgd", &|| Box::new(SignOgd::new(interval, 800.0)));
        shape_laws("ExtendedSignOgd", &|| {
            Box::new(ExtendedSignOgd::new(ExtendedConfig {
                k_min: 1.0,
                k_max: 1000.0,
                alpha: 1.5,
                update_window: 5,
                initial_k: 500.0,
            }))
        });
        shape_laws("ValueBasedDescent", &|| {
            Box::new(ValueBasedDescent::new(interval, 500.0))
        });
        shape_laws("Exp3", &|| Box::new(Exp3::new(arms(), 0.2, 42)));
        shape_laws("ContinuousBandit", &|| {
            Box::new(ContinuousBandit::with_default_scales(interval, 500.0, 7))
        });
        shape_laws("PrecisionController", &|| {
            Box::new(PrecisionController::new(Box::new(SignOgd::new(
                interval, 800.0,
            ))))
        });
    }

    /// Out-of-range fields, one per case: each blob is well-formed but for
    /// that field, restores to `Invalid(reason)` through `restore_tagged`
    /// and leaves the target's own snapshot unchanged.
    #[test]
    fn restore_rejects_out_of_range_fields() {
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;
        let interval = SearchInterval::new(10.0, 1010.0);
        let exp3 = || Exp3::new(Exp3::geometric_arms(10.0, 1000.0, 6), 0.2, 42);
        let bandit = || ContinuousBandit::with_default_scales(interval, 500.0, 7);
        let sign = || SignOgd::new(interval, 800.0);
        let paper = || ExtendedSignOgd::new(ExtendedConfig::paper_defaults(100_000));
        let blob = |tag: u8, body: &dyn Fn(&mut SnapshotWriter)| {
            SnapshotWriter::write_exact(|w| {
                w.tag(tag);
                body(w);
            })
        };
        let descent = |tag: u8, k: f64| {
            blob(tag, &|w| {
                interval.write_state(w);
                w.f64(k);
                w.usize(3);
            })
        };
        // Algorithm 3: the instance's `interval, k, m`, then `M'`, `n`, the
        // window's min and max and the restarts.
        let extended = |min: f64, max: f64, k: f64, window_count: usize| {
            blob(TAG_EXTENDED, &|w| {
                w.f64(min);
                w.f64(max);
                w.f64(k);
                w.usize(0);
                w.usize(0);
                w.usize(window_count);
                w.f64(f64::INFINITY);
                w.f64(0.0);
                w.usize(0);
            })
        };
        let rng = ChaCha8Rng::seed_from_u64(42);
        // EXP3: six weights, the draws, the rng, the arm and the best cost.
        let exp3_state = |arm: usize, best_cost: f64| {
            blob(TAG_EXP3, &|w| {
                w.f64s(&[1.0; 6]);
                w.usize(1);
                w.rng(&rng);
                w.usize(arm);
                w.f64(best_cost);
            })
        };
        // The bandit: `x, m`, the direction, the rng and the reference cost.
        let bandit_state = |reference: f64| {
            blob(TAG_BANDIT, &|w| {
                w.f64(500.0);
                w.usize(0);
                w.f64(1.0);
                w.rng(&rng);
                w.opt_f64(Some(reference));
            })
        };
        let precision_state = |tier_cost: f64, explore_every: usize| {
            let state = PrecisionState {
                round: 3,
                explore_every,
                cost: [Some(1.0), Some(tier_cost), None, None],
                inner: sign().save_state(),
            };
            blob(TAG_PRECISION, &|w| state.write_state(w))
        };
        let precision = || PrecisionController::new(Box::new(sign()));
        // (what is out of range, the target, its snapshot, the reason)
        type Case = (&'static str, Box<dyn KController>, Vec<u8>, &'static str);
        let cases: Vec<Case> = vec![
            (
                "FixedK k = 0.5",
                Box::new(FixedK::new(123.0)),
                blob(TAG_FIXED_K, &|w| w.f64(0.5)),
                "fixed k",
            ),
            (
                "FixedK k = NaN",
                Box::new(FixedK::new(123.0)),
                blob(TAG_FIXED_K, &|w| w.f64(f64::NAN)),
                "fixed k",
            ),
            (
                "SignOgd k below",
                Box::new(sign()),
                descent(TAG_SIGN_OGD, 5.0),
                "k outside interval",
            ),
            (
                "SignOgd k above",
                Box::new(sign()),
                descent(TAG_SIGN_OGD, 1011.0),
                "k outside interval",
            ),
            (
                "ValueBasedDescent k below",
                Box::new(ValueBasedDescent::new(interval, 500.0)),
                descent(TAG_VALUE_BASED, 5.0),
                "k outside interval",
            ),
            (
                "ValueBasedDescent k above",
                Box::new(ValueBasedDescent::new(interval, 500.0)),
                descent(TAG_VALUE_BASED, 1011.0),
                "k outside interval",
            ),
            // Restored, this one would propose k = 1.5e9, and 20 signs later
            // the window's shrink would build [6.7e8, 1e5] and panic.
            (
                "ExtendedSignOgd instance [1e9, 2e9]",
                Box::new(paper()),
                extended(1e9, 2e9, 1.5e9, 0),
                "instance interval",
            ),
            (
                "ExtendedSignOgd instance below k_min",
                Box::new(paper()),
                extended(100.0, 1000.0, 500.0, 0),
                "instance interval",
            ),
            (
                "ExtendedSignOgd full window",
                Box::new(paper()),
                extended(200.0, 100_000.0, 500.0, 20),
                "window count",
            ),
            (
                "Exp3 arm == num_arms",
                Box::new(exp3()),
                exp3_state(6, 1.0),
                "current arm",
            ),
            (
                "Exp3 NaN best cost",
                Box::new(exp3()),
                exp3_state(0, f64::NAN),
                "best cost",
            ),
            (
                "ContinuousBandit reference 0",
                Box::new(bandit()),
                bandit_state(0.0),
                "reference cost",
            ),
            (
                "ContinuousBandit reference -1",
                Box::new(bandit()),
                bandit_state(-1.0),
                "reference cost",
            ),
            (
                "ContinuousBandit reference inf",
                Box::new(bandit()),
                bandit_state(f64::INFINITY),
                "reference cost",
            ),
            (
                "PrecisionController negative tier cost",
                Box::new(precision()),
                precision_state(-1.0, 16),
                "tier cost",
            ),
            (
                "PrecisionController explore period 8",
                Box::new(precision()),
                precision_state(1.0, 8),
                "explore period",
            ),
        ];
        for (name, mut target, bytes, reason) in cases {
            let before = target.save_state();
            assert_eq!(
                target.restore_state(&bytes),
                Err(SnapshotError::Invalid(reason)),
                "{name}"
            );
            assert_eq!(target.save_state(), before, "{name}: mutated the target");
        }
    }

    /// Non-finite feedback carries no signal, the rule of
    /// [`KController::observe`]: a round whose round time, probe round time
    /// or one probe loss is NaN or +∞ leaves each controller where a round
    /// with no signal (no probe, no loss decrease) leaves it, so only EXP3's
    /// next draw and the round counters of a sequence or the wrapper move.
    /// `k` stays finite and in range, and the snapshot restores into a fresh
    /// controller. Every failing case is listed.
    #[test]
    fn non_finite_feedback_carries_no_signal() {
        let interval = SearchInterval::new(10.0, 1010.0);
        let extended = || {
            ExtendedSignOgd::new(ExtendedConfig {
                k_min: 1.0,
                k_max: 1000.0,
                alpha: 1.5,
                update_window: 5,
                initial_k: 500.0,
            })
        };
        // (the controller, a fresh instance, its k range)
        type Kind = (
            &'static str,
            Box<dyn Fn() -> Box<dyn KController>>,
            [f64; 2],
        );
        let kinds: Vec<Kind> = vec![
            (
                "SignOgd",
                Box::new(move || Box::new(SignOgd::new(interval, 800.0))),
                [10.0, 1010.0],
            ),
            (
                "ExtendedSignOgd",
                Box::new(move || Box::new(extended())),
                [1.0, 1000.0],
            ),
            (
                "ValueBasedDescent",
                Box::new(move || Box::new(ValueBasedDescent::new(interval, 500.0))),
                [10.0, 1010.0],
            ),
            (
                "FixedK",
                Box::new(|| Box::new(FixedK::new(123.0))),
                [123.0, 123.0],
            ),
            (
                "KSequence",
                Box::new(|| Box::new(k_sequence())),
                [7.0, 280.0],
            ),
            (
                "Exp3",
                Box::new(|| Box::new(Exp3::new(Exp3::geometric_arms(10.0, 1000.0, 6), 0.2, 42))),
                [10.0, 1000.0],
            ),
            (
                "ContinuousBandit",
                Box::new(move || {
                    Box::new(ContinuousBandit::with_default_scales(interval, 500.0, 7))
                }),
                [10.0, 1010.0],
            ),
            (
                "PrecisionController over ExtendedSignOgd",
                Box::new(move || Box::new(PrecisionController::new(Box::new(extended())))),
                [1.0, 1000.0],
            ),
            (
                "PrecisionController over FixedK",
                Box::new(|| Box::new(PrecisionController::new(Box::new(FixedK::new(123.0))))),
                [123.0, 123.0],
            ),
        ];
        // Each measured field of a probed round, poisoned in turn.
        type Poison = (&'static str, fn(&mut RoundFeedback, f64));
        let fields: [Poison; 5] = [
            ("round_time", |f, v| f.round_time = v),
            ("probe_round_time", |f, v| f.probe_round_time = Some(v)),
            ("probe_loss_prev", |f, v| f.probe_loss_prev = Some(v)),
            ("probe_loss_now", |f, v| f.probe_loss_now = Some(v)),
            ("probe_loss_alt", |f, v| f.probe_loss_alt = Some(v)),
        ];
        let mut failures = Vec::new();
        for (name, make, [lo, hi]) in &kinds {
            let mut driven = make();
            for round in 0..25 {
                let k = driven.propose_k();
                driven.observe(&synthetic_feedback(round, k));
            }
            let snapshot = driven.save_state();
            let k = driven.propose_k();
            let mut quiet = make();
            quiet.restore_state(&snapshot).unwrap();
            quiet.observe(&loss_decrease(k.round() as usize, 5.0, 0.0));
            for (field, poison) in fields {
                for value in [f64::NAN, f64::INFINITY] {
                    let case = format!("{name}: {field} = {value}");
                    let mut feedback = synthetic_feedback(25, k);
                    poison(&mut feedback, value);
                    let mut target = make();
                    target.restore_state(&snapshot).unwrap();
                    target.observe(&feedback);
                    let next = target.propose_k();
                    if !(next.is_finite() && (*lo..=*hi).contains(&next)) {
                        failures.push(format!("{case}: k = {next}"));
                    }
                    if target.save_state() != quiet.save_state() {
                        failures.push(format!("{case}: the state moved"));
                    }
                    if let Err(e) = make().restore_state(&target.save_state()) {
                        failures.push(format!("{case}: restore failed, {e:?}"));
                    }
                }
            }
        }
        assert!(failures.is_empty(), "{failures:#?}");
    }

    /// Reads `bytes` into `target` bare, as a section inside a snapshot is
    /// read: `read_state`, then `finish`.
    fn read_section<T: Snapshot>(target: &mut T, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        target.read_state(&mut r)?;
        r.finish()
    }

    /// The shape laws of a persisted type that is not a controller, read
    /// through `read_state` + `finish`: every strict prefix of `state`'s
    /// section is `Truncated`, one trailing byte is `TrailingBytes`, each
    /// `(bytes, reason)` of `invalid` is `Invalid(reason)`, and the whole
    /// section restores. These readers write fields before they validate
    /// (only `restore_tagged` commits all or nothing), so every read gets a
    /// fresh target and nothing is said about a failed one.
    fn component_shape_laws<T: Snapshot>(
        name: &str,
        state: &T,
        make: impl Fn() -> T,
        invalid: &[(Vec<u8>, &'static str)],
    ) {
        let bytes = SnapshotWriter::write_exact(|w| state.write_state(w));
        for cut in 0..bytes.len() {
            assert_eq!(
                read_section(&mut make(), &bytes[..cut]),
                Err(SnapshotError::Truncated),
                "{name}: cut at {cut}"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            read_section(&mut make(), &extended),
            Err(SnapshotError::TrailingBytes),
            "{name}"
        );
        for (case, (section, reason)) in invalid.iter().enumerate() {
            assert_eq!(
                read_section(&mut make(), section),
                Err(SnapshotError::Invalid(reason)),
                "{name}: invalid case {case}"
            );
        }
        let mut restored = make();
        read_section(&mut restored, &bytes).unwrap();
        assert_eq!(
            SnapshotWriter::write_exact(|w| restored.write_state(w)),
            bytes,
            "{name}"
        );
    }

    /// Out-of-range fields: `min > max`; a zero weight, a negative weight
    /// and five weights for six arms; an iterate below and above the
    /// interval, and a direction of 0 and of 2.
    #[test]
    fn component_sections_obey_their_shape_laws() {
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;
        let rng = ChaCha8Rng::seed_from_u64(3);

        let interval = SearchInterval::new(10.0, 1010.0);
        let reversed = SnapshotWriter::write_exact(|w| {
            w.f64(1010.0);
            w.f64(10.0);
        });
        component_shape_laws(
            "SearchInterval",
            &interval,
            || SearchInterval::new(1.0, 2.0),
            &[(reversed, "search interval")],
        );

        let arms = || Exp3::geometric_arms(10.0, 1000.0, 6);
        let mut exp3 = Exp3::new(arms(), 0.2, 42);
        for round in 0..25 {
            let arm = exp3.draw();
            exp3.update(arm, (round % 4) as f64 / 4.0);
        }
        let weights = |weights: &[f64]| {
            SnapshotWriter::write_exact(|w| {
                w.f64s(weights);
                w.usize(25);
                w.rng(&rng);
                w.usize(0);
                w.f64(f64::INFINITY);
            })
        };
        component_shape_laws(
            "Exp3",
            &exp3,
            || Exp3::new(arms(), 0.2, 42),
            &[
                (weights(&[1.0, 1.0, 0.0, 1.0, 1.0, 1.0]), "weight value"),
                (weights(&[1.0, -2.0, 1.0, 1.0, 1.0, 1.0]), "weight value"),
                (weights(&[1.0; 5]), "weight count"),
            ],
        );

        let bandit = || ContinuousBandit::with_default_scales(interval, 500.0, 7);
        let mut driven = bandit();
        for round in 0..25 {
            driven.observe_cost(driven.k() / 1000.0 + round as f64 * 0.01);
        }
        let bandit_state = |x: f64, direction: f64| {
            SnapshotWriter::write_exact(|w| {
                w.f64(x);
                w.usize(25);
                w.f64(direction);
                w.rng(&rng);
                w.opt_f64(None);
            })
        };
        let outside = "iterate outside interval";
        let direction = "perturbation direction";
        component_shape_laws(
            "ContinuousBandit",
            &driven,
            bandit,
            &[
                (bandit_state(9.0, 1.0), outside),
                (bandit_state(1011.0, -1.0), outside),
                (bandit_state(500.0, 0.0), direction),
                (bandit_state(500.0, 2.0), direction),
            ],
        );
    }

    #[test]
    fn exp3_restore_rejects_mismatched_arm_count() {
        let donor = Exp3::new(vec![10.0, 100.0, 1000.0], 0.2, 1);
        let snapshot = donor.save_state();
        let mut two_arms = Exp3::new(vec![10.0, 100.0], 0.2, 1);
        assert_eq!(
            two_arms.restore_state(&snapshot),
            Err(SnapshotError::Invalid("weight count"))
        );
    }

    /// Feedback whose scalar cost is exactly `cost` (loss decrease of 1).
    fn feedback_costing(cost: f64) -> RoundFeedback {
        loss_decrease(8, cost, 1.0)
    }

    #[test]
    fn precision_controller_explores_every_tier_then_exploits_the_cheapest() {
        let mut c = PrecisionController::new(Box::new(FixedK::new(8.0)));
        // Fixed per-tier costs: Q8 is cheapest.
        let tier_cost = [8.0, 4.0, 2.0, 6.0];
        let mut seen = Vec::new();
        for round in 0..64 {
            let tier = c.propose_precision().expect("wrapper always proposes");
            seen.push((round, tier));
            c.observe(&feedback_costing(tier_cost[tier as usize]));
        }
        // Rounds 0–3: first-unexplored, most-precise first.
        assert_eq!(
            &seen[..4],
            &[
                (0, Precision::F32),
                (1, Precision::F16),
                (2, Precision::Q8),
                (3, Precision::Sign),
            ]
        );
        // Exploitation rounds pick the cheapest tier...
        for &(round, tier) in &seen[4..] {
            if round % 16 != 0 {
                assert_eq!(tier, Precision::Q8, "round {round}");
            }
        }
        // ...while every 16th round round-robins so stale tiers are revisited.
        assert_eq!(seen[16].1, Precision::F16);
        assert_eq!(seen[32].1, Precision::Q8);
        assert_eq!(seen[48].1, Precision::Sign);
    }

    #[test]
    fn precision_ties_break_toward_the_more_precise_tier() {
        let mut c = PrecisionController::new(Box::new(FixedK::new(8.0)));
        for _ in 0..12 {
            c.observe(&feedback_costing(3.0));
        }
        assert_eq!(c.propose_precision(), Some(Precision::F32));
        assert!(c.tier_costs().iter().all(|cost| *cost == Some(3.0)));
    }

    #[test]
    fn precision_restore_rejects_corruption_and_leaves_state_untouched() {
        let mut donor = PrecisionController::new(Box::new(SignOgd::new(
            SearchInterval::new(1.0, 101.0),
            50.0,
        )));
        for round in 0..9 {
            let k = donor.propose_k();
            donor.observe(&synthetic_feedback(round, k));
        }
        let snapshot = donor.save_state();

        // A snapshot of the bare inner controller is a typed error.
        let mut target = PrecisionController::new(Box::new(SignOgd::new(
            SearchInterval::new(1.0, 101.0),
            50.0,
        )));
        let bare = SignOgd::new(SearchInterval::new(1.0, 101.0), 50.0).save_state();
        assert!(matches!(
            target.restore_state(&bare),
            Err(SnapshotError::WrongController { .. })
        ));

        // Every truncation (including inside the nested inner blob) errors
        // and leaves the wrapper's decisions untouched.
        for cut in 0..snapshot.len() {
            let before = (target.propose_k().to_bits(), target.propose_precision());
            assert!(target.restore_state(&snapshot[..cut]).is_err());
            let after = (target.propose_k().to_bits(), target.propose_precision());
            assert_eq!(before, after, "cut at {cut} mutated the controller");
        }

        // The intact snapshot restores and reproduces the donor's decisions.
        target.restore_state(&snapshot).unwrap();
        assert_eq!(target.propose_precision(), donor.propose_precision());
        assert_eq!(target.propose_k().to_bits(), donor.propose_k().to_bits());
    }

    #[test]
    fn rounds_with_no_loss_decrease_are_skipped_by_bandits() {
        let mut c = Exp3::new(vec![10.0, 100.0], 0.5, 0);
        let draws_before = c.draws();
        c.observe(&loss_decrease(10, 5.0, 0.0));
        // A new arm is still drawn (the round happened), but no update was fed.
        assert_eq!(c.draws(), draws_before + 1);
    }
}
