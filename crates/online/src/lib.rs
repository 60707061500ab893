//! Online learning algorithms for adapting the gradient sparsity degree `k`.
//!
//! Section IV of the paper formulates the choice of `k` as non-stochastic
//! online convex optimization over the unknown per-unit-loss training time
//! `t(k, l)` and proposes two algorithms that only need the *sign* of the
//! derivative of the per-round cost:
//!
//! * [`SignOgd`] — Algorithm 2, projected sign-descent with step
//!   `δ_m = B / √(2m)` and regret `≤ G·B·√(2M)` (Theorem 1), or
//!   `≤ G·H·B·√(2M)` with an estimated sign (Theorem 2);
//! * [`ExtendedSignOgd`] — Algorithm 3, which shrinks the search interval
//!   (and hence the step size) whenever the recently visited range of `k`
//!   becomes small enough, restarting the inner instance;
//! * [`DerivativeSignEstimator`] — the practical sign estimator of
//!   Section IV-E built from three single-sample loss evaluations per round
//!   (Eqs. (10)–(11)).
//!
//! The baselines the paper compares against are also provided:
//! [`ValueBasedDescent`] (derivative descent without the sign), [`Exp3`]
//! (non-stochastic multi-armed bandit over integer arms) and
//! [`ContinuousBandit`] (one-point gradient estimation), plus synthetic
//! convex cost environments and regret accounting ([`regret`]) used to check
//! the theorems empirically.
//!
//! Every controller survives a checkpoint: [`KController::save_state`] /
//! [`KController::restore_state`] carry its mutable state (RNG position
//! included) as a tagged snapshot, so a restored controller reproduces the
//! decision sequence bit for bit and a snapshot of another controller type
//! is a typed `WrongController` error. The bytes go through the workspace's
//! one snapshot codec, [`agsfl_wire::snapshot`], whose `Snapshot` trait the
//! algorithm cores implement.
//!
//! # Example
//!
//! ```
//! use agsfl_online::{SearchInterval, SignOgd};
//!
//! // Optimal k is small: the derivative sign is +1 whenever k is above it.
//! let mut alg = SignOgd::new(SearchInterval::new(10.0, 1000.0), 800.0);
//! for _ in 0..200 {
//!     let sign = if alg.k() > 50.0 { 1 } else { -1 };
//!     alg.step(Some(sign));
//! }
//! assert!(alg.k() < 300.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandit;
mod controllers;
mod estimator;
mod exp3;
mod extended;
pub mod regret;
mod rounding;
mod sign_ogd;
mod value_based;

use agsfl_wire::snapshot::SnapshotError;
// The name `benchmark/src/tap.rs` spells `SnapshotError` by; goes with the
// next PR that may edit `benchmark/` (see ROADMAP).
#[doc(hidden)]
pub use agsfl_wire::snapshot::SnapshotError as StateError;
pub use bandit::ContinuousBandit;
pub use controllers::{BanditController, Exp3Controller, FixedK, KSequence, PrecisionController};
pub use estimator::{DerivativeSignEstimator, EstimatorInputs};
pub use exp3::Exp3;
pub use extended::{ExtendedConfig, ExtendedSignOgd};
pub use rounding::stochastic_round;
pub use sign_ogd::{SearchInterval, SignOgd};
pub use value_based::ValueBasedDescent;

/// A controller that proposes the sparsity degree `k` for the next round and
/// learns from per-round feedback.
///
/// All algorithms in this crate (the paper's and the baselines) implement this
/// trait so the experiment harness in `agsfl-core` can swap them freely.
pub trait KController: Send + std::fmt::Debug {
    /// Human-readable name used in experiment reports.
    fn name(&self) -> &'static str;

    /// The (possibly fractional) sparsity degree to use in the next round.
    /// Callers convert it to an integer with [`stochastic_round`].
    fn propose_k(&self) -> f64;

    /// The probe sparsity `k'` this controller wants evaluated alongside the
    /// next round, or `None` for a round without a probe (the feedback's
    /// `probe_*` fields are then `None`). For the sign-based algorithms this
    /// is `k_m − δ_m / 2` (Section IV-E); the bandits read only the probe's
    /// two losses at `w(m−1)` and `w(m)`, which no `k'` changes, and ask at
    /// their own proposal.
    fn probe_k(&self) -> Option<f64>;

    /// Feeds back the outcome of the round that used [`KController::propose_k`].
    fn observe(&mut self, feedback: &RoundFeedback);

    /// The uplink precision tier this controller wants for the next round —
    /// the second axis of the 2-D `(k × precision)` action space.
    ///
    /// `None` means "no opinion": the harness leaves the configured wire
    /// codec untouched, so pure-`k` controllers keep their lossless
    /// bit-identity guarantees by default. Controllers that do adapt the
    /// precision (see [`PrecisionController`]) must derive the proposal
    /// deterministically from observed feedback so trajectories stay a pure
    /// function of the seed.
    fn propose_precision(&self) -> Option<agsfl_wire::Precision> {
        None
    }

    /// Serializes the controller's mutable state (bit-exact, including any
    /// internal RNG position) for checkpointing. Restoring the bytes into a
    /// freshly constructed controller with the same configuration via
    /// [`KController::restore_state`] must reproduce the exact decision
    /// sequence the snapshotted controller would have produced.
    fn save_state(&self) -> Vec<u8>;

    /// Restores state previously produced by [`KController::save_state`].
    ///
    /// The controller must already be constructed with the same configuration
    /// (search interval, arms, schedules) the snapshot was taken under; only
    /// the mutable state is transported. Malformed or mismatched bytes leave
    /// the controller untouched and return a [`SnapshotError`].
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError>;
}

/// Feedback given to a [`KController`] after each round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundFeedback {
    /// The integer `k` actually used after stochastic rounding.
    pub k_used: usize,
    /// The measured time of the round, `τ_m(k_m)`.
    pub round_time: f64,
    /// Average single-sample loss at the start-of-round weights, `L̃(w(m-1))`.
    pub probe_loss_prev: Option<f64>,
    /// Average single-sample loss after the `k_m` update, `L̃(w(m))`.
    pub probe_loss_now: Option<f64>,
    /// Average single-sample loss after the hypothetical `k'` update,
    /// `L̃(w'(m))`.
    pub probe_loss_alt: Option<f64>,
    /// Time one round would have taken with `k'`-element GS, `θ_m(k')`.
    pub probe_round_time: Option<f64>,
    /// The probe sparsity `k'` that was evaluated, if any.
    pub probe_k: Option<usize>,
    /// Read by nothing: a round's loss decrease is
    /// `probe_loss_prev − probe_loss_now`. Kept only because
    /// `benchmark/src/probes.rs` still spells it in a struct literal; goes
    /// with the next change that may edit `benchmark/` (see ROADMAP).
    #[doc(hidden)]
    pub loss_decrease: Option<f64>,
}

#[cfg(test)]
impl RoundFeedback {
    /// Feedback of a round that ran no probe: only `k` and the round time.
    pub(crate) fn time_only(k_used: usize, round_time: f64) -> Self {
        Self {
            k_used,
            round_time,
            probe_loss_prev: None,
            probe_loss_now: None,
            probe_loss_alt: None,
            probe_round_time: None,
            probe_k: None,
            loss_decrease: None,
        }
    }
}
