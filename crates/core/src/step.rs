//! One controller step: a [`KController`]'s proposal becomes a round's
//! `(k, k', precision)`, and the round's report becomes its feedback.
//! Every controller-driven round — [`Experiment`](crate::Experiment)'s run
//! loop and the examples that hand-drive a [`Simulation`] — goes through
//! [`controlled_round`].

use agsfl_fl::{RoundReport, Simulation};
use agsfl_online::{stochastic_round, KController, RoundFeedback};
use agsfl_telemetry::Recorder;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The stream a run with seed `seed` draws its stochastic rounding
/// (Definition 2) from.
pub fn rounding_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ 0x517C_C1B7_2722_0A95)
}

/// Runs one round of `sim` as `controller` proposes it and feeds the
/// outcome back.
///
/// The proposed `k` is clamped to `[1, D]` and stochastically rounded from
/// `rounding_rng`; the round probes at the controller's `k'` (rounded to an
/// integer, at least 1) only when it asks for one; and the controller's
/// precision proposal is applied to the uplink codec before the round.
/// `propose_k` is called exactly once per round, before it, and `observe`
/// once, after it.
pub fn controlled_round<R: Recorder>(
    sim: &mut Simulation,
    controller: &mut dyn KController,
    rounding_rng: &mut ChaCha8Rng,
    rec: &mut R,
) -> RoundReport {
    let dim = sim.dim();
    let k_cont = controller.propose_k().clamp(1.0, dim as f64);
    let k = stochastic_round(k_cont, rounding_rng).min(dim);
    let probe_k = controller.probe_k().map(|p| p.round().max(1.0) as usize);
    // The second axis of the 2-D (k × precision) action space. Pure-k
    // controllers propose `None` (keep the configured codec), so this is a
    // no-op unless the controller adapts the uplink precision. The override
    // is controller policy, not simulation state: after a resume the
    // restored controller re-proposes it here before the next round.
    sim.set_wire_precision(controller.propose_precision());
    let report = sim.run_round_recorded(k, probe_k, rec);
    controller.observe(&RoundFeedback {
        k_used: report.k_used,
        round_time: report.round_time,
        probe_loss_prev: report.probe.map(|p| p.loss_prev),
        probe_loss_now: report.probe.map(|p| p.loss_now),
        probe_loss_alt: report.probe.map(|p| p.loss_probe),
        probe_round_time: report.probe.map(|p| p.probe_round_time),
        probe_k: report.probe.map(|p| p.probe_k),
        loss_decrease: None,
    });
    report
}
