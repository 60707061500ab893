//! Per-round reports produced by the simulator.

use agsfl_wire::CodecId;
use serde::{Deserialize, Serialize};

use crate::fault::FaultRoundReport;

/// The extra measurements needed by the derivative-sign estimator of
/// Section IV-E, produced when a round is run with a probe sparsity `k'`.
///
/// All three losses are averages (over clients) of single-sample losses
/// `f_{i,h}(·)` evaluated on the same per-client sample `h`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbeReport {
    /// The probe sparsity `k' = k_m − δ_m/2` that was evaluated.
    pub probe_k: usize,
    /// `L̃(w(m-1))`: average probe-sample loss at the round's starting weights.
    pub loss_prev: f64,
    /// `L̃(w(m))`: average probe-sample loss after the `k_m`-element update.
    pub loss_now: f64,
    /// `L̃(w'(m))`: average probe-sample loss after the hypothetical
    /// `k'`-element update.
    pub loss_probe: f64,
    /// `θ_m(k')`: the time one round would have taken with `k'`-element GS.
    pub probe_round_time: f64,
}

/// Byte-level accounting of one round run with a wire configuration
/// ([`SimulationConfig::wire`](crate::SimulationConfig::wire)): the actual
/// frame sizes the codecs emitted and which encoding carried each message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireRoundReport {
    /// Encoded uplink frame length per client, in bytes.
    pub uplink_bytes: Vec<usize>,
    /// Largest per-client uplink frame (the slowest-link phase input).
    pub max_uplink_bytes: usize,
    /// Encoded downlink (broadcast) frame length in bytes.
    pub downlink_bytes: usize,
    /// The concrete encoding each client's uplink frame used (`Auto`
    /// records its per-message choice here).
    pub uplink_codecs: Vec<CodecId>,
    /// The concrete encoding of the downlink frame.
    pub downlink_codec: CodecId,
}

impl WireRoundReport {
    /// Total bytes on the wire this round: every uplink plus one broadcast
    /// downlink.
    pub fn total_bytes(&self) -> u64 {
        self.uplink_bytes.iter().map(|&b| b as u64).sum::<u64>() + self.downlink_bytes as u64
    }
}

/// Everything the simulator reports about one completed round of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundReport {
    /// Round index `m` (1-based).
    pub round: usize,
    /// The sparsity degree actually used this round (after stochastic
    /// rounding if the controller requested a fractional `k`).
    pub k_used: usize,
    /// Average mini-batch training loss at the start-of-round weights,
    /// weighted by client data sizes.
    pub train_loss: f64,
    /// Normalized time consumed by this round (computation + communication).
    pub round_time: f64,
    /// Cumulative normalized time at the end of this round.
    pub elapsed_time: f64,
    /// Number of gradient elements broadcast on the downlink.
    pub downlink_elements: usize,
    /// Largest number of scalars any client sent on the uplink.
    pub max_uplink_scalars: usize,
    /// The client ids that participated this round, in ascending order.
    /// With no cohort sampling configured this is simply `0..num_clients`;
    /// with [`SimulationConfig::cohort`](crate::SimulationConfig::cohort)
    /// set it is the seeded sample drawn for this round.
    pub cohort: Vec<usize>,
    /// Per-cohort-member count of elements used from that member's upload
    /// (`|J ∩ J_i|`) — the fairness statistic of Fig. 4 (right). Indexed
    /// parallel to [`RoundReport::cohort`]: `contributions[i]` belongs to
    /// client `cohort[i]`, so with a full-population cohort the vector is
    /// per-client exactly as before.
    pub contributions: Vec<usize>,
    /// Probe measurements for the derivative-sign estimator, if requested.
    pub probe: Option<ProbeReport>,
    /// Byte-level wire accounting, present when the round ran with a wire
    /// configuration (in which case `round_time` is the channel-priced
    /// time, not the scalar proxy).
    pub wire: Option<WireRoundReport>,
    /// Fault accounting, present when the round ran with a
    /// [`FaultModel`](crate::FaultModel) (all-zero counters on clean
    /// rounds). `contributions` stays parallel to `cohort`: lost members
    /// simply contribute zero elements this round.
    pub fault: Option<FaultRoundReport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RoundReport {
        RoundReport {
            round: 3,
            k_used: 100,
            train_loss: 2.5,
            round_time: 3.0,
            elapsed_time: 9.0,
            downlink_elements: 100,
            max_uplink_scalars: 200,
            cohort: vec![0, 1],
            contributions: vec![50, 50],
            probe: None,
            wire: None,
            fault: None,
        }
    }

    #[test]
    fn wire_report_totals_bytes() {
        let w = WireRoundReport {
            uplink_bytes: vec![100, 250],
            max_uplink_bytes: 250,
            downlink_bytes: 400,
            uplink_codecs: vec![CodecId::DeltaVarint, CodecId::CooF32],
            downlink_codec: CodecId::Bitmap,
        };
        assert_eq!(w.total_bytes(), 750);
    }

    #[test]
    fn report_serializes() {
        let r = report();
        let clone = r.clone();
        assert_eq!(r, clone);
    }
}
