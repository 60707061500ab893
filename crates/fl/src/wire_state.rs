//! Runtime state of the byte-priced exchange and its two pricing functions:
//! the broadcast's downlink phase and the probe's hypothetical round.

use agsfl_sparse::{ClientUpload, SparseGradient};
use agsfl_wire::{Codec, CodecSpec, Precision, WireScratch};
use std::sync::OnceLock;

use crate::channel::ChannelModel;

/// Runtime state of the byte-priced exchange path: the built codecs, the
/// channel, and the server-side encode workspace (downlink frames and
/// hypothetical-`k'` probe pricing reuse it across rounds).
pub(crate) struct WireState {
    /// The configured codec spec; the baseline the precision axis rebuilds
    /// from.
    spec: CodecSpec,
    /// Seed of the quantization RNG stream, derived from the config seed.
    /// Lossy codecs key their stochastic rounding on `(quant_seed, frame
    /// content)` only, so the stream survives any worker schedule and any
    /// checkpoint/resume point.
    quant_seed: u64,
    /// The controller's current precision override (`None` = run the
    /// configured spec). Not checkpointed: the runner re-proposes it from
    /// the restored controller state before the next round.
    precision: Option<Precision>,
    /// The uplink codec currently in force.
    pub codec: Codec,
    /// The downlink codec — always lossless: the server holds no residual
    /// accumulator, so a downlink quantization error would be lost forever
    /// rather than fed back.
    pub downlink: Codec,
    pub channel: ChannelModel,
    /// The links a broadcast must be priced over
    /// ([`ChannelModel::downlink_frontier`]), built on the first priced
    /// round — not at construction, which stays O(1) in the population —
    /// so later rounds stop sweeping all `N` links. Derived from `channel`
    /// alone, hence runtime state rather than configuration.
    downlink_frontier: OnceLock<Option<Vec<usize>>>,
    pub scratch: WireScratch,
}

impl WireState {
    pub fn new(spec: CodecSpec, quant_seed: u64, channel: ChannelModel) -> Self {
        Self {
            spec,
            quant_seed,
            precision: None,
            codec: spec.build_seeded(quant_seed),
            downlink: if spec.is_lossy() {
                CodecSpec::Auto.build()
            } else {
                spec.build()
            },
            channel,
            downlink_frontier: OnceLock::new(),
            scratch: WireScratch::new(),
        }
    }

    /// [`ChannelModel::downlink_phase_time`] of this state's channel, bit
    /// for bit, priced over the frontier links only when the channel has no
    /// trace.
    pub fn downlink_phase_time(&self, round_idx: usize, downlink_bytes: usize) -> f64 {
        let frontier = self
            .downlink_frontier
            .get_or_init(|| self.channel.downlink_frontier());
        match frontier {
            Some(links) => self.channel.downlink_phase_time_over(
                round_idx,
                links.iter().copied(),
                downlink_bytes,
            ),
            None => self.channel.downlink_phase_time(round_idx, downlink_bytes),
        }
    }

    /// Installs a precision override for subsequent rounds: `None` restores
    /// the configured spec, [`Precision::F32`] pins a lossless uplink (the
    /// configured spec when it is lossless, [`CodecSpec::Auto`] otherwise),
    /// and the lossy tiers swap in their codec seeded from the same
    /// quantization stream. Idempotent — re-proposing the current tier rebuilds nothing.
    pub fn set_precision(&mut self, precision: Option<Precision>) {
        if precision == self.precision {
            return;
        }
        self.precision = precision;
        let spec = match precision {
            None => self.spec,
            Some(Precision::F32) if !self.spec.is_lossy() => self.spec,
            Some(p) => p.codec_spec(),
        };
        self.codec = spec.build_seeded(self.quant_seed);
    }

    /// The channel-priced time a round with sparsity `k'` would have taken:
    /// each client's hypothetical uplink is the `k'`-element prefix of the
    /// message it actually built this round — for top-k plans the first
    /// `k'` keys of its ranked view, exactly its top-`k'` message — priced
    /// at its exact encoded length; the downlink is the probe aggregate.
    ///
    /// A member whose whole upload is the prefix is priced at
    /// `sent_bytes(upload position)`, the length of the frame it actually
    /// sent: every codec's `encoded_len` is a function of the dimension, the
    /// entry count and the index gaps only, all of which the decoded upload
    /// shares with its frame (debug-asserted below). Proper prefixes are
    /// measured without being encoded (`WireScratch::encoded_len_prefix`: a
    /// ranked prefix is unpacked and index-sorted through the server's
    /// packed `keys`).
    ///
    /// Uploads are addressed by their carried client id (not their cohort position), so
    /// the pricing also holds under fault injection when only a surviving
    /// subset of clients delivered this round; for a full cohort the result
    /// is bit-identical to pricing the complete byte vector.
    pub fn probe_round_time(
        &mut self,
        round_idx: usize,
        probe_k: usize,
        uploads: &[ClientUpload],
        sent_bytes: impl Fn(usize) -> usize,
        probe_aggregate: &SparseGradient,
        keys: &mut Vec<u64>,
    ) -> f64 {
        let dim = probe_aggregate.dim();
        let mut uplink_phase = 0.0f64;
        for (pos, upload) in uploads.iter().enumerate() {
            let bytes = if probe_k < upload.len() {
                self.scratch
                    .encoded_len_prefix(self.codec, dim, upload, probe_k, keys)
            } else {
                debug_assert_eq!(
                    sent_bytes(pos),
                    self.codec.encoded_len(dim, &upload.entries),
                    "a frame is as long as the pricing of what it decodes to"
                );
                sent_bytes(pos)
            };
            uplink_phase =
                uplink_phase.max(self.channel.uplink_time(round_idx, upload.client, bytes));
        }
        let downlink_bytes = self.downlink.encoded_len(dim, probe_aggregate.entries());
        self.channel.compute_time()
            + uplink_phase
            + self.downlink_phase_time(round_idx, downlink_bytes)
    }
}

#[cfg(test)]
mod tests {
    use crate::fixture::tiny_sim;
    use crate::{ChannelModel, ClientLink, WireConfig};
    use agsfl_sparse::FabTopK;
    use agsfl_wire::CodecSpec;

    /// A straggler on a heterogeneous channel dominates the round time, and
    /// a bandwidth trace modulates it round by round.
    #[test]
    fn heterogeneous_channel_prices_the_straggler() {
        let build = |channel: fn(usize) -> ChannelModel| {
            tiny_sim(Box::new(FabTopK::new()), 91, |c, n| {
                c.wire = Some(WireConfig {
                    codec: CodecSpec::Coo,
                    channel: channel(n),
                })
            })
        };
        let mut fast = build(|n| ChannelModel::uniform(n, 1.0, 10_000.0, 10_000.0, 0.0));
        let mut straggler = build(|n| {
            let mut links = vec![ClientLink::new(10_000.0, 10_000.0, 0.0); n];
            links[0] = ClientLink::new(100.0, 10_000.0, 0.0);
            ChannelModel::new(1.0, links)
        });
        let k = fast.dim() / 6;
        let rf = fast.run_round(k, None);
        let rs = straggler.run_round(k, None);
        assert!(
            rs.round_time > rf.round_time * 2.0,
            "straggler {} vs uniform {}",
            rs.round_time,
            rf.round_time
        );
        // Same trajectory regardless of the channel: the channel only
        // prices rounds.
        assert_eq!(rf.train_loss, rs.train_loss);
        assert_eq!(fast.params(), straggler.params());
    }

    #[test]
    fn bandwidth_trace_modulates_round_time() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 92, |c, n| {
            let channel = ChannelModel::uniform(n, 0.0, 1_000.0, 1_000.0, 0.0)
                .with_trace(vec![vec![1.0; n], vec![0.25; n]]);
            c.wire = Some(WireConfig {
                codec: CodecSpec::Coo,
                channel,
            })
        });
        let k = sim.dim() / 8;
        let r0 = sim.run_round(k, None);
        let r1 = sim.run_round(k, None);
        // Round 1 runs at a quarter of the bandwidth: ~4x the comm time.
        assert!(
            r1.round_time > r0.round_time * 3.0,
            "trace did not slow round 1: {} vs {}",
            r1.round_time,
            r0.round_time
        );
    }
}
