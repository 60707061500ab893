//! The client population behind the cohort engine, and the slot arena its
//! members are hydrated into.
//!
//! A million-client simulation cannot afford a [`Client`] per client: each
//! one owns a batch buffer, reusable scratch buffers, and a resident
//! residual vector. [`ClientPopulation`] keeps only what is genuinely
//! *persistent* across rounds — one [`ClientState`] (the private RNG
//! stream, the residual accumulator, the mini-batch sampler epoch, and the
//! estimator bookkeeping) per client id — and only for clients that have
//! actually participated online at least once. Everything transient (the
//! batch rows, top-k scratch, wire scratch) lives in a small reusable arena
//! of cohort [`Slot`]s that is rebound to the round's sampled members. No
//! slot ever holds a whole shard: a member fetches only its mini-batch rows
//! from the `ShardSource`.
//!
//! Resident memory is therefore `O(slots · batch + touched_clients · (dim +
//! shard_len))` — the second factor is each stored state's residual and
//! sampler epoch — rather than `O(N · (shard + dim))`: with a fixed round
//! budget and cohort size the footprint is flat in the population size
//! `N`. `crates/fl/tests/cohort_determinism.rs` asserts the participation
//! bound at N = 50 and 10⁶, `examples/million_clients.rs` prints a
//! 10⁶-client run's RSS (its `--smoke` mode is the bounded-RSS step of
//! `scripts/verify.sh`), and the benchmark's `cohort_million_wired` times
//! that engine.
//!
//! # Determinism
//!
//! Hydration is a map lookup and one swap of the whole [`ClientState`]
//! (serial: the population is the one shared structure), and a fresh
//! client's state is a pure function of `(simulation seed, client id)`
//! ([`ClientState::reset`], run per slot inside the parallel client pass,
//! ahead of the member's row fetch), so which rounds touch which clients —
//! and in which slot, on which worker, a client lands — never changes any
//! stream. Cohort draws ([`draw_cohort`]) advance a dedicated ChaCha8
//! stream serially before the parallel client pass, and a full-population
//! cohort makes *no* draw at all, which pins the sampled engine
//! bit-identical to the historical owned-client path.

use std::collections::{BTreeMap, BTreeSet};

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use agsfl_sparse::ClientUpload;

use crate::client::{Client, ClientState};
use crate::fault::ClientFaultPlan;

/// Every client's persistent state, by client id, for the clients that
/// have participated online at least once. A `BTreeMap` keeps iteration
/// (and therefore checkpoint bytes) in ascending id order.
pub(crate) type ClientPopulation = BTreeMap<usize, ClientState>;

/// One reusable cohort slot: a transient [`Client`] arena entry — its batch
/// buffer holds this round's rows of the member's shard, never the shard —
/// plus the round-scoped bookkeeping the engine needs between phases.
#[derive(Debug)]
pub(crate) struct Slot {
    /// The transient client the round's member is hydrated into.
    pub client: Client,
    /// Whether hydration swapped the member's stored state in (`false` for
    /// a first-time participant, whose state the client pass freshly
    /// resets instead). Hydration sets it every round.
    pub hydrated: bool,
    /// The member's fault plan for this round ([`ClientFaultPlan::clean`]
    /// without a fault model): hydration writes it, the client pass reads
    /// it, and bookkeeping stores no state for an offline first-timer.
    pub plan: ClientFaultPlan,
    /// Mini-batch loss of this round's local step.
    pub loss: f32,
    /// Whether admission delivered this round's upload to the server, so
    /// bookkeeping resets the member's residual on the round's `J`.
    pub delivered: bool,
    /// Nanoseconds the producer spent on this round's local gradient,
    /// upload selection, frame encode, frame decode and rank, when the
    /// recorder is enabled (zero otherwise); admission takes them into the
    /// round's
    /// [`SpanId::ClientGradient`](agsfl_telemetry::SpanId::ClientGradient),
    /// [`SpanId::ClientSelect`](agsfl_telemetry::SpanId::ClientSelect),
    /// [`SpanId::ClientEncode`](agsfl_telemetry::SpanId::ClientEncode),
    /// [`SpanId::ServerDecode`](agsfl_telemetry::SpanId::ServerDecode) and
    /// [`SpanId::ClientRank`](agsfl_telemetry::SpanId::ClientRank)
    /// samples.
    pub worker_ns: WorkerNs,
    /// This round's finished upload entries, exactly as the server
    /// aggregates them: in index order, and byte-priced, the decode of
    /// `frame`. A grow-only buffer the slot owns: admission lends it to an
    /// aggregation input, and bookkeeping takes it back.
    pub entries: Vec<(usize, f32)>,
    /// The entries' order keys in the magnitude order when the plan ranks
    /// (empty otherwise), owned and lent like `entries`.
    pub ranked: Vec<u64>,
    /// The encoded uplink frame (reused buffer; empty on scalar rounds).
    pub frame: Vec<u8>,
    /// The quantization error `v - v̂` of each of this round's uplink
    /// entries, zero where the codec was exact (reused buffer; empty unless
    /// a lossy codec changed a value), fed back into the residual at reset
    /// time.
    pub errors: Vec<f32>,
}

/// A producer's timed steps, in nanoseconds (see [`Slot::worker_ns`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WorkerNs {
    /// The local gradient, landed in the residual.
    pub gradient: u64,
    /// Building the upload (the member's selection).
    pub select: u64,
    /// Encoding the wired upload into its frame.
    pub encode: u64,
    /// Decoding the wired frame and ranking the decoded upload.
    pub decode: u64,
    /// Ranking the upload's keys into the ranked view.
    pub rank: u64,
}

impl std::ops::AddAssign for WorkerNs {
    fn add_assign(&mut self, other: WorkerNs) {
        self.gradient += other.gradient;
        self.select += other.select;
        self.encode += other.encode;
        self.decode += other.decode;
        self.rank += other.rank;
    }
}

impl Slot {
    /// Creates an empty slot arena entry.
    pub fn new(dim: usize, batch_size: usize) -> Self {
        Self {
            client: Client::placeholder(dim, batch_size),
            hydrated: false,
            plan: ClientFaultPlan::clean(),
            loss: 0.0,
            delivered: false,
            worker_ns: WorkerNs::default(),
            entries: Vec::new(),
            ranked: Vec::new(),
            frame: Vec::new(),
            errors: Vec::new(),
        }
    }
}

/// The reusable cohort arena: one slot per cohort member, rebound to each
/// round's sample, and the aggregation inputs the delivered members lend
/// their finished buffers to. The first `survivors.len()` uploads are
/// rebuilt each round, each borrowing its member's entry list and ranked
/// view by a swap with the member's slot, which bookkeeping swaps back:
/// between rounds every upload holds empty buffers and each buffer has one
/// owner, its slot.
pub(crate) struct Cohort {
    pub slots: Vec<Slot>,
    pub uploads: Vec<ClientUpload>,
    /// Slot index of each delivered upload, in cohort order.
    pub survivors: Vec<usize>,
}

impl Cohort {
    /// `size` empty slots and as many empty uploads.
    pub fn new(size: usize, dim: usize, batch_size: usize) -> Self {
        Self {
            slots: (0..size).map(|_| Slot::new(dim, batch_size)).collect(),
            uploads: vec![ClientUpload::new(0, 0.0, Vec::new()); size],
            survivors: Vec::new(),
        }
    }

    /// This round's delivered uploads, in cohort order.
    pub fn delivered(&self) -> &[ClientUpload] {
        &self.uploads[..self.survivors.len()]
    }
}

/// Draws one round's cohort into `out` (ascending client ids).
///
/// With `cohort` unset — or at least the population size — every client
/// participates and **no random draw happens**, so configuring
/// `cohort: Some(N)` is bit-identical to no cohort at all (and both leave
/// the cohort stream untouched for later rounds). A strict subset is drawn
/// with Floyd's sampling-without-replacement, which advances `rng` by
/// exactly `cohort` uniform draws regardless of the population size.
pub(crate) fn draw_cohort(
    rng: &mut ChaCha8Rng,
    num_clients: usize,
    cohort: Option<usize>,
    out: &mut Vec<usize>,
) {
    out.clear();
    match cohort {
        Some(c) if c < num_clients => {
            debug_assert!(c > 0, "cohort size must be positive");
            let mut chosen = BTreeSet::new();
            for j in (num_clients - c)..num_clients {
                let t = rng.gen_range(0..=j);
                if !chosen.insert(t) {
                    chosen.insert(j);
                }
            }
            out.extend(chosen);
        }
        _ => out.extend(0..num_clients),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cohort(rng: &mut ChaCha8Rng, n: usize, c: Option<usize>) -> Vec<usize> {
        let mut out = Vec::new();
        draw_cohort(rng, n, c, &mut out);
        out
    }

    #[test]
    fn full_cohort_never_touches_the_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(5);
        let mut b = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(cohort(&mut a, 7, None), (0..7).collect::<Vec<_>>());
        assert_eq!(cohort(&mut a, 7, Some(7)), (0..7).collect::<Vec<_>>());
        assert_eq!(cohort(&mut a, 7, Some(100)), (0..7).collect::<Vec<_>>());
        // The stream is untouched: both rngs still agree on the next draw.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn sampled_cohorts_are_sorted_exact_sized_and_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for round in 0..50 {
            let members = cohort(&mut rng, 100, Some(12));
            assert_eq!(members.len(), 12, "round {round}");
            assert!(members.windows(2).all(|w| w[0] < w[1]));
            assert!(members.iter().all(|&m| m < 100));
        }
    }

    #[test]
    fn cohort_draws_are_deterministic_and_seed_sensitive() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(1);
        let mut c = ChaCha8Rng::seed_from_u64(2);
        let mut differs = false;
        for _ in 0..20 {
            let x = cohort(&mut a, 1000, Some(8));
            assert_eq!(x, cohort(&mut b, 1000, Some(8)));
            differs |= x != cohort(&mut c, 1000, Some(8));
        }
        assert!(differs, "different seeds should draw different cohorts");
    }

    #[test]
    fn every_client_is_eventually_sampled() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut seen = [false; 30];
        for _ in 0..200 {
            for m in cohort(&mut rng, 30, Some(5)) {
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "sampler starves some clients");
    }
}
