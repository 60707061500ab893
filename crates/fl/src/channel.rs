//! Byte-accurate heterogeneous channel model.
//!
//! [`TimeModel`](crate::TimeModel) prices a round in the paper's abstract
//! "scalars transmitted" currency, with every client on the same link.
//! [`ChannelModel`] prices the *frames* the wire codecs actually emit
//! (`agsfl_wire`): each client owns an uplink/downlink bandwidth and a
//! latency, bandwidths may fluctuate round by round through a trace, and a
//! round costs what the paper's synchronized protocol implies —
//! computation, then the **slowest** selected client's upload (uplinks run
//! in parallel, the server waits for all of them), then the broadcast
//! downlink (complete when the slowest receiver has it).
//!
//! The online formulation only needs an additive per-round cost (the paper
//! notes the objective extends to any such resource, Sections I and VI), so
//! swapping this byte-priced time for the scalar proxy is a drop-in signal
//! change behind [`SimulationConfig::wire`](crate::SimulationConfig::wire)
//! — the controllers in `agsfl-online` adapt `k` against whichever signal
//! the round reports.

use serde::{Deserialize, Serialize};

/// One client's link: uplink/downlink capacity in **bytes per normalized
/// time unit** plus a fixed per-message latency (in normalized time).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientLink {
    /// Uplink capacity in bytes per normalized time unit.
    pub uplink_bytes_per_unit: f64,
    /// Downlink capacity in bytes per normalized time unit.
    pub downlink_bytes_per_unit: f64,
    /// Fixed per-message latency in normalized time units.
    pub latency: f64,
}

impl ClientLink {
    /// Creates a link.
    ///
    /// # Panics
    ///
    /// Panics if a bandwidth is not strictly positive or the latency is
    /// negative/not finite.
    pub fn new(uplink_bytes_per_unit: f64, downlink_bytes_per_unit: f64, latency: f64) -> Self {
        assert!(
            uplink_bytes_per_unit.is_finite() && uplink_bytes_per_unit > 0.0,
            "uplink bandwidth must be positive"
        );
        assert!(
            downlink_bytes_per_unit.is_finite() && downlink_bytes_per_unit > 0.0,
            "downlink bandwidth must be positive"
        );
        assert!(
            latency.is_finite() && latency >= 0.0,
            "latency must be finite and non-negative"
        );
        Self {
            uplink_bytes_per_unit,
            downlink_bytes_per_unit,
            latency,
        }
    }
}

/// Per-client channel conditions, optionally fluctuating per round.
///
/// # Examples
///
/// ```
/// use agsfl_fl::ChannelModel;
///
/// // 4 clients, 1000 B per time unit each way, latency 0.1, compute 1.
/// let channel = ChannelModel::uniform(4, 1.0, 1_000.0, 1_000.0, 0.1);
/// // 500 B up per client, 800 B broadcast down:
/// // 1 (compute) + 0.1 + 0.5 (slowest upload) + 0.1 + 0.8 (broadcast).
/// let t = channel.round_time(0, &[500, 500, 500, 500], 800);
/// assert!((t - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelModel {
    /// Per-round computation time (all clients in parallel), matching the
    /// normalized convention of [`TimeModel`](crate::TimeModel).
    compute_time: f64,
    /// One link per client.
    links: Vec<ClientLink>,
    /// Optional bandwidth trace: `trace[m % trace.len()][i]` multiplies
    /// client `i`'s bandwidths (both directions) in round `m` (0-based).
    /// Empty means static conditions.
    trace: Vec<Vec<f64>>,
}

impl ChannelModel {
    /// Creates a channel model with per-client links and no trace.
    ///
    /// # Panics
    ///
    /// Panics if `links` is empty or `compute_time` is negative/not finite.
    pub fn new(compute_time: f64, links: Vec<ClientLink>) -> Self {
        assert!(!links.is_empty(), "channel model needs at least one client");
        assert!(
            compute_time.is_finite() && compute_time >= 0.0,
            "compute_time must be finite and non-negative"
        );
        Self {
            compute_time,
            links,
            trace: Vec::new(),
        }
    }

    /// Every client on the same link.
    pub fn uniform(
        num_clients: usize,
        compute_time: f64,
        uplink_bytes_per_unit: f64,
        downlink_bytes_per_unit: f64,
        latency: f64,
    ) -> Self {
        Self::new(
            compute_time,
            vec![
                ClientLink::new(uplink_bytes_per_unit, downlink_bytes_per_unit, latency);
                num_clients
            ],
        )
    }

    /// Attaches a per-round bandwidth trace. Round `m` uses row
    /// `m % trace.len()`; each row holds one multiplier per client.
    ///
    /// # Panics
    ///
    /// Panics if a row's length differs from the client count or a
    /// multiplier is not strictly positive.
    pub fn with_trace(mut self, trace: Vec<Vec<f64>>) -> Self {
        for row in &trace {
            assert_eq!(
                row.len(),
                self.links.len(),
                "trace row length must match client count"
            );
            assert!(
                row.iter().all(|&m| m.is_finite() && m > 0.0),
                "bandwidth multipliers must be positive"
            );
        }
        self.trace = trace;
        self
    }

    /// Number of clients this channel models.
    pub fn num_clients(&self) -> usize {
        self.links.len()
    }

    /// Per-round computation time.
    pub fn compute_time(&self) -> f64 {
        self.compute_time
    }

    /// The configured links.
    pub fn links(&self) -> &[ClientLink] {
        &self.links
    }

    /// The bandwidth multiplier of client `i` in round `round` (0-based).
    pub fn multiplier(&self, round: usize, client: usize) -> f64 {
        if self.trace.is_empty() {
            1.0
        } else {
            self.trace[round % self.trace.len()][client]
        }
    }

    /// Time for client `i` to upload `bytes` in round `round`.
    pub fn uplink_time(&self, round: usize, client: usize, bytes: usize) -> f64 {
        self.uplink_time_scaled(round, client, bytes, 1.0)
    }

    /// [`ChannelModel::uplink_time`] with a transmission slowdown factor:
    /// the latency is unchanged but the transfer term is multiplied by
    /// `slowdown` (stragglers under fault injection). A factor of exactly
    /// `1.0` is bit-identical to the unscaled time.
    pub fn uplink_time_scaled(
        &self,
        round: usize,
        client: usize,
        bytes: usize,
        slowdown: f64,
    ) -> f64 {
        let link = &self.links[client];
        link.latency
            + (bytes as f64 / (link.uplink_bytes_per_unit * self.multiplier(round, client)))
                * slowdown
    }

    /// Time for client `i` to receive a `bytes`-long broadcast in round
    /// `round`.
    pub fn downlink_time(&self, round: usize, client: usize, bytes: usize) -> f64 {
        let link = &self.links[client];
        link.latency
            + bytes as f64 / (link.downlink_bytes_per_unit * self.multiplier(round, client))
    }

    /// Total time of one synchronized round (0-based `round`): computation,
    /// plus the slowest upload across all clients, plus the broadcast
    /// downlink (the slowest receiver; every client needs the update).
    /// `uplink_bytes` holds one frame length per client. The protocol is
    /// synchronized, so every client pays its uplink latency even for a
    /// zero-byte message (it still has to check in before the server can
    /// aggregate).
    ///
    /// # Panics
    ///
    /// Panics if `uplink_bytes.len()` differs from the client count.
    pub fn round_time(&self, round: usize, uplink_bytes: &[usize], downlink_bytes: usize) -> f64 {
        self.compute_time
            + self.uplink_phase_time(round, uplink_bytes)
            + self.downlink_phase_time(round, downlink_bytes)
    }

    /// The uplink phase of a synchronized round: the slowest client's upload
    /// time, with one frame length per client.
    ///
    /// # Panics
    ///
    /// Panics if `uplink_bytes.len()` differs from the client count.
    fn uplink_phase_time(&self, round: usize, uplink_bytes: &[usize]) -> f64 {
        assert_eq!(
            uplink_bytes.len(),
            self.links.len(),
            "one uplink byte count per client"
        );
        uplink_bytes
            .iter()
            .enumerate()
            .map(|(i, &bytes)| self.uplink_time(round, i, bytes))
            .fold(0.0f64, f64::max)
    }

    /// The broadcast phase of a synchronized round: the slowest receiver's
    /// downlink time for a `downlink_bytes`-long frame.
    pub fn downlink_phase_time(&self, round: usize, downlink_bytes: usize) -> f64 {
        self.downlink_phase_time_over(round, 0..self.links.len(), downlink_bytes)
    }

    /// [`ChannelModel::downlink_phase_time`] folded over `members` only.
    pub(crate) fn downlink_phase_time_over(
        &self,
        round: usize,
        members: impl IntoIterator<Item = usize>,
        downlink_bytes: usize,
    ) -> f64 {
        members
            .into_iter()
            .map(|i| self.downlink_time(round, i, downlink_bytes))
            .fold(0.0f64, f64::max)
    }

    /// The links that can be the slowest receiver of a broadcast of *any*
    /// size: the Pareto frontier under "link A dominates B iff
    /// `latency_A ≥ latency_B` and `downlink_bw_A ≤ downlink_bw_B`", as
    /// client ids ordered by ascending latency (and therefore strictly
    /// ascending bandwidth). IEEE division and addition are monotone, so a
    /// dominated link's [`ChannelModel::downlink_time`] never exceeds its
    /// dominator's and [`ChannelModel::downlink_phase_time_over`] the
    /// frontier equals the full sweep bit for bit; a uniform channel has a
    /// frontier of one. `None` when a trace is attached: per-round
    /// multipliers reorder the links, so every one must be priced.
    ///
    /// One pass over the links with a binary-searched sorted insert:
    /// `O(N log F)` for a frontier of `F`.
    pub(crate) fn downlink_frontier(&self) -> Option<Vec<usize>> {
        if !self.trace.is_empty() {
            return None;
        }
        let links = &self.links;
        let mut frontier: Vec<usize> = Vec::new();
        for (i, link) in links.iter().enumerate() {
            let (lat, bw) = (link.latency, link.downlink_bytes_per_unit);
            // Frontier members at `lo..` are at least as late; the first
            // has the least bandwidth of them.
            let lo = frontier.partition_point(|&f| links[f].latency < lat);
            if frontier[lo..]
                .first()
                .is_some_and(|&f| links[f].downlink_bytes_per_unit <= bw)
            {
                continue;
            }
            // Not dominated: evict what it dominates — the members no later
            // than it with at least its bandwidth, a contiguous run ending
            // at `hi` — and take their place.
            let hi = lo + frontier[lo..].partition_point(|&f| links[f].latency <= lat);
            let from = frontier[..lo].partition_point(|&f| links[f].downlink_bytes_per_unit < bw);
            frontier.splice(from..hi, [i]);
        }
        Some(frontier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Pricing a broadcast over the Pareto frontier is `to_bits()`-equal
        /// to the full sweep, for any links (drawn from small grids so
        /// duplicate, zero-latency and mutually dominating links are
        /// common) and any byte count.
        #[test]
        fn prop_frontier_price_equals_full_sweep(
            raw in proptest::collection::vec((0usize..5, 0usize..5, 0u32..3), 1..40),
            bytes in proptest::collection::vec(0usize..1_000_000, 1..6),
            round in 0usize..4,
        ) {
            let links: Vec<ClientLink> = raw
                .iter()
                .map(|&(lat, bw, jitter)| {
                    ClientLink::new(
                        1_000.0,
                        100.0 + 37.5 * bw as f64 + 0.1 * jitter as f64,
                        0.03 * lat as f64,
                    )
                })
                .collect();
            let channel = ChannelModel::new(1.0, links);
            let frontier = channel.downlink_frontier().expect("no trace attached");
            prop_assert!(!frontier.is_empty() && frontier.len() <= channel.num_clients());
            for &b in &bytes {
                prop_assert_eq!(
                    channel
                        .downlink_phase_time_over(round, frontier.iter().copied(), b)
                        .to_bits(),
                    channel.downlink_phase_time(round, b).to_bits()
                );
            }
        }
    }

    #[test]
    fn frontier_of_a_uniform_channel_is_one_link_and_a_trace_disables_it() {
        let channel = ChannelModel::uniform(1_000, 1.0, 100.0, 200.0, 0.1);
        assert_eq!(channel.downlink_frontier(), Some(vec![0]));
        let traced =
            ChannelModel::uniform(2, 1.0, 100.0, 200.0, 0.1).with_trace(vec![vec![1.0, 0.5]]);
        assert_eq!(traced.downlink_frontier(), None);
    }

    #[test]
    fn uniform_round_time_decomposes() {
        let channel = ChannelModel::uniform(3, 1.0, 100.0, 200.0, 0.0);
        // Slowest upload 50/100 = 0.5; broadcast 100/200 = 0.5.
        let t = channel.round_time(0, &[10, 50, 20], 100);
        assert!((t - 2.0).abs() < 1e-12);
    }

    #[test]
    fn latency_is_charged_per_phase() {
        let channel = ChannelModel::uniform(2, 0.0, 1000.0, 1000.0, 0.25);
        // Zero bytes still pay two latencies (uplink + downlink phases).
        let t = channel.round_time(0, &[0, 0], 0);
        assert!((t - 0.5).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_slowest_client_dominates() {
        let links = vec![
            ClientLink::new(1_000.0, 1_000.0, 0.0),
            ClientLink::new(10.0, 1_000.0, 0.0), // straggler uplink
        ];
        let channel = ChannelModel::new(1.0, links);
        let t = channel.round_time(0, &[100, 100], 0);
        // Straggler: 100 / 10 = 10 time units.
        assert!((t - 11.0).abs() < 1e-12);
    }

    #[test]
    fn trace_cycles_and_scales_bandwidth() {
        let channel =
            ChannelModel::uniform(1, 0.0, 100.0, 100.0, 0.0).with_trace(vec![vec![1.0], vec![0.5]]);
        assert_eq!(channel.multiplier(0, 0), 1.0);
        assert_eq!(channel.multiplier(1, 0), 0.5);
        assert_eq!(channel.multiplier(2, 0), 1.0, "trace cycles");
        let fast = channel.round_time(0, &[100], 0);
        let slow = channel.round_time(1, &[100], 0);
        assert!((fast - 1.0).abs() < 1e-12);
        assert!((slow - 2.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_uplink_time_slows_only_the_transfer_term() {
        let channel = ChannelModel::uniform(1, 0.0, 100.0, 100.0, 0.25);
        let nominal = channel.uplink_time(0, 0, 50);
        let slowed = channel.uplink_time_scaled(0, 0, 50, 4.0);
        assert_eq!(
            nominal.to_bits(),
            channel.uplink_time_scaled(0, 0, 50, 1.0).to_bits()
        );
        // latency 0.25 + 0.5 * 4 = 2.25, not 4 * (0.25 + 0.5).
        assert!((slowed - 2.25).abs() < 1e-12);
    }

    #[test]
    fn phase_times_decompose_round_time() {
        let channel = ChannelModel::uniform(3, 1.0, 100.0, 200.0, 0.1);
        let up = channel.uplink_phase_time(2, &[10, 50, 20]);
        let down = channel.downlink_phase_time(2, 100);
        assert_eq!(
            channel.round_time(2, &[10, 50, 20], 100).to_bits(),
            (1.0 + up + down).to_bits()
        );
    }

    #[test]
    #[should_panic]
    fn empty_links_panic() {
        let _ = ChannelModel::new(1.0, vec![]);
    }

    #[test]
    #[should_panic]
    fn trace_row_length_mismatch_panics() {
        let _ = ChannelModel::uniform(2, 1.0, 1.0, 1.0, 0.0).with_trace(vec![vec![1.0]]);
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_panics() {
        let _ = ClientLink::new(0.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn uplink_count_mismatch_panics() {
        let channel = ChannelModel::uniform(2, 1.0, 1.0, 1.0, 0.0);
        let _ = channel.round_time(0, &[1], 1);
    }
}
