//! Enumerated instrument names: span, counter, and gauge identities.
//!
//! Keeping the identities closed enums (instead of string keys) is what
//! makes the recorders allocation-free: every instrument is an index into
//! a fixed array, and a new stage is a compile-time change, not a hash
//! insert on the hot path.

/// One timed stage of the round engine (or of the runner around it).
///
/// The variants mirror the round's dependency graph: the fused client
/// gradient+encode+decode pass with six spans nested inside it (the
/// workers' local gradients, upload selections, encodes, decode + rank
/// with the ranks nested in it, and the wire-fault part of the server's
/// admission), the server selection, the probe sweep, the broadcast weight
/// apply, end-of-round bookkeeping with downlink pricing nested inside it,
/// and the runner-level evaluation and checkpoint writes. A nested span's
/// time is also counted by the span it nests in; the worker spans
/// (gradient, select, encode, decode, rank) are summed over workers, so
/// each is bounded by its parent's wall time times the worker count rather
/// than by the wall time alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum SpanId {
    /// The serial part of cohort hydration: cohort draw, fault plan, slot
    /// binding, and population states swapped into the reusable slot arena.
    Hydrate,
    /// The pipelined client pass: on the pool, each member's first-timer
    /// reset, batch-row fetch, local gradient and uplink message — wired,
    /// encoded and decoded once; on the round thread, the in-order admission
    /// of every finished upload ([`SpanId::ClientGradient`],
    /// [`SpanId::ClientSelect`], [`SpanId::ClientEncode`],
    /// [`SpanId::ServerDecode`], [`SpanId::ClientRank`] and
    /// [`SpanId::WireFault`] nest in here).
    ClientPass,
    /// Each member's local gradient — batch-row fetch, forward and
    /// backward, and the gradient's add into the residual, which is no
    /// separate step: the gradient lands in the residual as the backward
    /// stores it — on a pool worker. Worker time, summed over the members
    /// into one sample per round, like [`SpanId::ServerDecode`].
    ClientGradient,
    /// Each member's upload selection (its top-k, or the plan's coordinate
    /// list) right after its gradient, on a pool worker. Worker time,
    /// summed over the members into one sample per round.
    ClientSelect,
    /// Each wired member's encode of its upload into a frame, on a pool
    /// worker. Worker time, summed over the members into one sample per
    /// round; zero on unwired rounds.
    ClientEncode,
    /// Each member's rank of its upload's index-ordered keys into the
    /// ranked view, when the plan ranks, on a pool worker — after the
    /// decode on a wired round, and nested in [`SpanId::ServerDecode`]
    /// then. Worker time, summed over the members into one sample per
    /// round.
    ClientRank,
    /// The decode + rank of every wired upload, which each member's
    /// producer runs on a pool worker right after encoding (the decoded list
    /// is what the server aggregates; [`SpanId::ClientRank`] nests in it).
    /// Worker time, summed over the members into one sample per round, so
    /// it may exceed the wall time of [`SpanId::ClientPass`] by up to the
    /// worker count; zero on unwired rounds.
    ServerDecode,
    /// The wire-level part of admission: uplink pricing, corruption replay
    /// through the real decoder, retry/backoff/deadline accounting. Nested
    /// inside [`SpanId::ClientPass`], one sample per round.
    WireFault,
    /// Server selection of the `k` broadcast elements, on the round thread.
    Selection,
    /// The probe-loss sweep for the derivative-sign estimator.
    Probe,
    /// Pricing the broadcast over the channel model: the frontier links,
    /// or all N when the channel carries a bandwidth trace. Runs on the
    /// round thread at the end of — and nested inside —
    /// [`SpanId::Bookkeeping`].
    DownlinkPricing,
    /// Applying the broadcast sparse update to the shared weights.
    BroadcastApply,
    /// End-of-round bookkeeping (dehydration, residual writeback).
    Bookkeeping,
    /// A full evaluation sweep (global loss/accuracy + test accuracy).
    Evaluate,
    /// Serializing and writing one checkpoint.
    CheckpointWrite,
}

impl SpanId {
    /// Number of span identities.
    pub const COUNT: usize = 15;

    /// Every span, in declaration (and index) order.
    pub const ALL: [SpanId; Self::COUNT] = [
        SpanId::Hydrate,
        SpanId::ClientPass,
        SpanId::ClientGradient,
        SpanId::ClientSelect,
        SpanId::ClientEncode,
        SpanId::ClientRank,
        SpanId::ServerDecode,
        SpanId::WireFault,
        SpanId::Selection,
        SpanId::Probe,
        SpanId::DownlinkPricing,
        SpanId::BroadcastApply,
        SpanId::Bookkeeping,
        SpanId::Evaluate,
        SpanId::CheckpointWrite,
    ];

    /// The span's array index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, used as the JSONL field key.
    pub fn name(self) -> &'static str {
        match self {
            SpanId::Hydrate => "hydrate",
            SpanId::ClientPass => "client_pass",
            SpanId::ClientGradient => "client_gradient",
            SpanId::ClientSelect => "client_select",
            SpanId::ClientEncode => "client_encode",
            SpanId::ClientRank => "client_rank",
            SpanId::ServerDecode => "server_decode",
            SpanId::WireFault => "wire_fault",
            SpanId::Selection => "selection",
            SpanId::Probe => "probe",
            SpanId::DownlinkPricing => "downlink_pricing",
            SpanId::BroadcastApply => "broadcast_apply",
            SpanId::Bookkeeping => "bookkeeping",
            SpanId::Evaluate => "evaluate",
            SpanId::CheckpointWrite => "checkpoint_write",
        }
    }
}

/// A monotonically increasing counter.
///
/// Every counter is sourced from `agsfl_fl::RoundReport` fields that are
/// themselves bit-identical across thread counts, so counter values in
/// the JSONL sink reproduce byte-for-byte between identically seeded runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum CounterId {
    /// Rounds recorded.
    Rounds,
    /// Client-rounds: cohort members summed over rounds.
    CohortClients,
    /// Encoded uplink bytes (all clients, all rounds).
    UplinkBytes,
    /// Encoded downlink (broadcast) bytes.
    DownlinkBytes,
    /// Gradient elements broadcast on the downlink.
    DownlinkElements,
    /// Uplink frames encoded.
    UplinkFrames,
    /// Client-rounds spent offline in crash outages.
    FaultOffline,
    /// Uploads lost to Bernoulli dropout.
    FaultDropped,
    /// Straggler client-rounds.
    FaultStragglers,
    /// Corrupted uplink frames observed.
    FaultCorruptFrames,
    /// Uploads lost to any fault (offline + dropped + corrupt + deadline).
    FaultLost,
    /// Extra uplink attempts beyond each client's first.
    FaultRetries,
    /// Bytes re-transmitted by retry attempts.
    FaultRetransmittedBytes,
}

impl CounterId {
    /// Number of counter identities.
    pub const COUNT: usize = 13;

    /// Every counter, in declaration (and index) order.
    pub const ALL: [CounterId; Self::COUNT] = [
        CounterId::Rounds,
        CounterId::CohortClients,
        CounterId::UplinkBytes,
        CounterId::DownlinkBytes,
        CounterId::DownlinkElements,
        CounterId::UplinkFrames,
        CounterId::FaultOffline,
        CounterId::FaultDropped,
        CounterId::FaultStragglers,
        CounterId::FaultCorruptFrames,
        CounterId::FaultLost,
        CounterId::FaultRetries,
        CounterId::FaultRetransmittedBytes,
    ];

    /// The counter's array index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, used as the JSONL field key.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::Rounds => "rounds",
            CounterId::CohortClients => "cohort_clients",
            CounterId::UplinkBytes => "uplink_bytes",
            CounterId::DownlinkBytes => "downlink_bytes",
            CounterId::DownlinkElements => "downlink_elements",
            CounterId::UplinkFrames => "uplink_frames",
            CounterId::FaultOffline => "fault_offline",
            CounterId::FaultDropped => "fault_dropped",
            CounterId::FaultStragglers => "fault_stragglers",
            CounterId::FaultCorruptFrames => "fault_corrupt_frames",
            CounterId::FaultLost => "fault_lost",
            CounterId::FaultRetries => "fault_retries",
            CounterId::FaultRetransmittedBytes => "fault_retransmitted_bytes",
        }
    }
}

/// A last-value gauge (the recorder also tracks each gauge's maximum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum GaugeId {
    /// The sparsity degree `k` used this round.
    KUsed,
    /// Largest per-client uplink frame this round, in bytes.
    MaxUplinkBytes,
    /// Peak pending tasks observed in the worker-pool queue.
    QueueDepthPeak,
    /// Worker threads in the pool.
    PoolWorkers,
    /// Process resident set, bytes.
    RssBytes,
    /// Process peak resident set (high-water mark), bytes.
    RssPeakBytes,
    /// OS threads in the process.
    Threads,
    /// Clients with resident persistent state.
    ResidentClients,
}

impl GaugeId {
    /// Number of gauge identities.
    pub const COUNT: usize = 8;

    /// Every gauge, in declaration (and index) order.
    pub const ALL: [GaugeId; Self::COUNT] = [
        GaugeId::KUsed,
        GaugeId::MaxUplinkBytes,
        GaugeId::QueueDepthPeak,
        GaugeId::PoolWorkers,
        GaugeId::RssBytes,
        GaugeId::RssPeakBytes,
        GaugeId::Threads,
        GaugeId::ResidentClients,
    ];

    /// The gauge's array index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, used as the JSONL field key.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::KUsed => "k_used",
            GaugeId::MaxUplinkBytes => "max_uplink_bytes",
            GaugeId::QueueDepthPeak => "queue_depth_peak",
            GaugeId::PoolWorkers => "pool_workers",
            GaugeId::RssBytes => "rss_bytes",
            GaugeId::RssPeakBytes => "rss_peak_bytes",
            GaugeId::Threads => "threads",
            GaugeId::ResidentClients => "resident_clients",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_declaration_order() {
        for (i, s) in SpanId::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, c) in CounterId::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, g) in GaugeId::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
    }

    #[test]
    fn names_are_unique_snake_case() {
        let mut seen = std::collections::BTreeSet::new();
        for s in SpanId::ALL {
            assert!(seen.insert(s.name()), "duplicate span name {}", s.name());
        }
        for c in CounterId::ALL {
            assert!(seen.insert(c.name()), "duplicate counter name {}", c.name());
        }
        for g in GaugeId::ALL {
            assert!(seen.insert(g.name()), "duplicate gauge name {}", g.name());
        }
        for name in seen {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit()),
                "{name} is not snake_case"
            );
        }
    }
}
