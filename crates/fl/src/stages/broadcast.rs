//! Stage (3), the broadcast: every client applies the identical sparse
//! update.

use agsfl_sparse::SelectionResult;
use agsfl_wire::{decode_frame_with, frame_codec};

use crate::population::Cohort;
use crate::round::WireRoundReport;
use crate::wire_state::WireState;
use crate::SimulationConfig;

/// Advances the weights by the broadcast and returns the compute + uplink
/// time together with the round's byte accounting. On the byte-priced path
/// the broadcast is encoded and *decoded* before application — the weights
/// advance by what crossed the wire, bit-identical to the local aggregate
/// because the downlink codec is lossless (debug-asserted below; pinned by
/// `wire_path_keeps_training_bit_identical` and the wired goldens).
///
/// The broadcast *pricing* is not done here: it reads only the channel and
/// the frame length, and [`bookkeep`](super::bookkeep::bookkeep) does it at
/// the end of the round.
pub(crate) fn apply_broadcast(
    config: &SimulationConfig,
    params: &mut [f32],
    wire: Option<&mut WireState>,
    selection: &SelectionResult,
    cohort: &Cohort,
    uplink_phase: f64,
) -> (f64, Option<WireRoundReport>) {
    let lr = config.learning_rate;
    let Some(wire) = wire else {
        selection.aggregated.apply_sgd(params, lr);
        let round_time = config.time_model.round_time(
            params.len(),
            selection.max_uplink_scalars(),
            selection.downlink_scalars(),
        );
        return (round_time, None);
    };
    let (dim, aggregate) = (selection.aggregated.dim(), selection.aggregated.entries());
    let frame = wire.downlink.encode_into(dim, aggregate, &mut wire.scratch);
    #[cfg(debug_assertions)]
    {
        let mut broadcast = Vec::new();
        agsfl_wire::decode_frame(frame, &mut broadcast).expect("self-encoded frame must decode");
        debug_assert!(
            broadcast
                .iter()
                .zip(aggregate)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
                && broadcast.len() == aggregate.len(),
            "decoded broadcast must be bit-identical to the aggregate"
        );
    }
    // Streaming application: the decoded broadcast coordinates go straight
    // into the weight vector in frame order — the entry order `apply_sgd`
    // walks — with no intermediate gradient materialized.
    let (_, downlink_codec) = decode_frame_with(frame, |j, v| params[j] -= lr * v)
        .expect("self-encoded frame must decode");
    // Byte accounting is indexed parallel to the cohort: zero bytes for
    // members that never delivered.
    let mut uplink_bytes = vec![0usize; cohort.members.len()];
    for &pos in &cohort.survivors {
        uplink_bytes[pos] = cohort.members[pos].frame().len();
    }
    let report = WireRoundReport {
        max_uplink_bytes: uplink_bytes.iter().copied().max().unwrap_or(0),
        uplink_bytes,
        downlink_bytes: frame.len(),
        uplink_codecs: cohort
            .survivors
            .iter()
            .map(|&pos| frame_codec(cohort.members[pos].frame()).expect("freshly encoded frame"))
            .collect(),
        downlink_codec,
    };
    (wire.channel.compute_time() + uplink_phase, Some(report))
}

#[cfg(test)]
mod tests {
    use crate::fixture::tiny_sim;
    use crate::TimeModel;
    use agsfl_sparse::{FabTopK, SendAll};

    #[test]
    fn send_all_round_costs_full_comm() {
        let mut sim = tiny_sim(Box::new(SendAll::new()), 2, |c, _| {
            c.time_model = TimeModel::normalized(10.0)
        });
        let report = sim.run_round(1, None);
        assert!((report.round_time - 11.0).abs() < 1e-9);
    }

    #[test]
    fn fab_round_time_matches_sparse_formula() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 3, |c, _| {
            c.time_model = TimeModel::normalized(10.0)
        });
        let dim = sim.dim();
        let k = dim / 8;
        let report = sim.run_round(k, None);
        let expected = TimeModel::normalized(10.0).sparse_round_time(dim, k);
        assert!(
            (report.round_time - expected).abs() < 1e-9,
            "round time {} vs expected {expected}",
            report.round_time
        );
    }
}
