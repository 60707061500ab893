//! The enumerated span identities: one per timed stage of the round.
//!
//! Keeping the identities a closed enum (instead of string keys) is what
//! makes the recorders allocation-free: every span is an index into a
//! fixed array, and a new stage is a compile-time change, not a hash
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_match_declaration_order() {
        for (i, s) in SpanId::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn names_are_unique_snake_case() {
        let mut seen = std::collections::BTreeSet::new();
        for s in SpanId::ALL {
            assert!(seen.insert(s.name()), "duplicate span name {}", s.name());
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
