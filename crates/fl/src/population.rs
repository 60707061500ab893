//! The struct-of-arrays client population behind the cohort engine.
//!
//! A million-client simulation cannot afford a [`Client`] per client: each
//! one owns a batch buffer, reusable scratch buffers, and a resident
//! residual vector. [`ClientPopulation`] keeps only what is genuinely
//! *persistent* across rounds — the private RNG stream, the residual
//! accumulator contents, the mini-batch sampler epoch, and the estimator
//! bookkeeping — in flat parallel columns, and only for clients that have
//! actually participated online at least once. Everything transient (the
//! batch rows, top-k scratch, wire scratch) lives in a small reusable arena
//! of cohort [`Slot`]s that is rebound to the round's sampled members. No
//! slot ever holds a whole shard: a member fetches only its mini-batch rows
//! from the `ShardSource`.
//!
//! Resident memory is therefore `O(slots · batch + touched_clients · (dim +
//! shard_len))` — the second factor is each stored row's residual and
//! sampler epoch — rather than `O(N · (shard + dim))`: with a fixed round
//! budget and cohort size the footprint is flat in the population size
//! `N`, which is the tentpole claim audited by `figures::scale_sweep` in
//! `agsfl-core` and the bounded-RSS smoke step of `scripts/verify.sh`.
//!
//! # Determinism
//!
//! Hydration is a pure O(1) swap ([`Client::swap_persistent`], serial:
//! the population is the one shared structure) and a fresh client's state
//! is a pure function of `(simulation seed, client id)`
//! ([`Client::reset_persistent`], run per slot inside the parallel client
//! pass, ahead of the member's row fetch), so which rounds touch which clients — and
//! in which slot, on which worker, a client lands — never changes any
//! stream. Cohort draws ([`draw_cohort`]) advance a dedicated ChaCha8
//! stream serially before the parallel client pass, and a full-population
//! cohort makes *no* draw at all, which pins the sampled engine
//! bit-identical to the historical owned-client path.

use std::collections::{BTreeMap, BTreeSet};

use agsfl_wire::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use agsfl_sparse::ClientUpload;

use crate::client::Client;
use crate::fault::ClientFaultPlan;

/// One reusable cohort slot: a transient [`Client`] arena entry — its batch
/// buffer holds this round's rows of the member's shard, never the shard —
/// plus the round-scoped bookkeeping the engine needs between phases.
#[derive(Debug)]
pub(crate) struct Slot {
    /// The transient client the round's member is hydrated into.
    pub client: Client,
    /// The population row this slot borrowed this round (`None` for a
    /// first-time participant, whose state the client pass freshly resets
    /// instead). Hydration sets it every round.
    pub cached_row: Option<usize>,
    /// The member's fault plan for this round ([`ClientFaultPlan::clean`]
    /// without a fault model): hydration writes it, the client pass reads
    /// it, and bookkeeping dehydrates an offline member without a new row.
    pub plan: ClientFaultPlan,
    /// Mini-batch loss of this round's local step.
    pub loss: f32,
    /// Nanoseconds the producer spent on this round's local gradient,
    /// upload selection and frame decode, when the recorder is enabled
    /// (zero otherwise); admission takes them into the round's
    /// [`SpanId::ClientGradient`](agsfl_telemetry::SpanId::ClientGradient),
    /// [`SpanId::ClientSelect`](agsfl_telemetry::SpanId::ClientSelect) and
    /// [`SpanId::ServerDecode`](agsfl_telemetry::SpanId::ServerDecode)
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
    /// Per-entry quantization errors `(j, v - v̂)` of this round's uplink
    /// (reused buffer; empty unless a lossy codec changed a value), fed
    /// back into the residual at reset time.
    pub errors: Vec<(usize, f32)>,
}

/// A producer's timed steps, in nanoseconds (see [`Slot::worker_ns`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WorkerNs {
    /// The local gradient.
    pub gradient: u64,
    /// Building the upload (the member's selection).
    pub select: u64,
    /// Decoding and ranking the wired frame.
    pub decode: u64,
}

impl std::ops::AddAssign for WorkerNs {
    fn add_assign(&mut self, other: WorkerNs) {
        self.gradient += other.gradient;
        self.select += other.select;
        self.decode += other.decode;
    }
}

impl Slot {
    /// Creates an empty slot arena entry.
    pub fn new(dim: usize, batch_size: usize) -> Self {
        Self {
            client: Client::placeholder(dim, batch_size),
            cached_row: None,
            plan: ClientFaultPlan::clean(),
            loss: 0.0,
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

/// Persistent per-client state in struct-of-arrays layout, indexed by a
/// deterministic map from client id to row (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct ClientPopulation {
    /// Client id → row in the columns below. A `BTreeMap` keeps iteration
    /// (and therefore checkpoint bytes) deterministic.
    index: BTreeMap<usize, usize>,
    rng: Vec<ChaCha8Rng>,
    residual: Vec<Vec<f32>>,
    order: Vec<Vec<usize>>,
    cursor: Vec<usize>,
    last_batch: Vec<Vec<usize>>,
    probe_sample: Vec<Option<usize>>,
}

impl ClientPopulation {
    /// An empty population: no client has participated yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of clients with a stored row (participated online at least
    /// once) — the `touched_clients` factor of the memory bound.
    pub fn resident_rows(&self) -> usize {
        self.index.len()
    }

    /// Installs client `id`'s persistent state into `client` and returns
    /// the borrowed row, or `None` if the client has never participated
    /// (the caller must [`Client::reset_persistent`] the slot instead).
    pub fn hydrate(&mut self, id: usize, client: &mut Client) -> Option<usize> {
        let row = *self.index.get(&id)?;
        self.swap_row(row, client);
        Some(row)
    }

    /// Returns a slot's persistent state to the population after the round.
    ///
    /// A slot that borrowed a row swaps it back; a first-time participant
    /// gets a new row *only if it was online* — an offline first-timer's
    /// state is still pristine (offline clients advance no stream), so it
    /// is dropped and recreated identically on its next appearance.
    pub fn dehydrate(
        &mut self,
        id: usize,
        slot_row: Option<usize>,
        online: bool,
        client: &mut Client,
    ) {
        match slot_row {
            Some(row) => {
                debug_assert_eq!(self.index.get(&id), Some(&row), "row index out of sync");
                self.swap_row(row, client);
            }
            None if online => {
                // The new row takes the slot's buffers; the slot gets
                // pre-sized replacements, allocated here on the round
                // thread, so the next first-timer's reset — on a pool
                // worker — allocates nothing and the population's rows do
                // not migrate into the workers' allocator arenas.
                let row = self.rng.len();
                self.rng.push(ChaCha8Rng::seed_from_u64(0));
                self.residual
                    .push(Vec::with_capacity(client.accumulator().dim()));
                self.order.push(Vec::with_capacity(client.num_samples()));
                self.cursor.push(0);
                self.last_batch.push(Vec::new());
                self.probe_sample.push(None);
                self.index.insert(id, row);
                self.swap_row(row, client);
            }
            None => {}
        }
    }

    /// O(1) state exchange between row `row` and `client`.
    fn swap_row(&mut self, row: usize, client: &mut Client) {
        client.swap_persistent(
            &mut self.rng[row],
            &mut self.residual[row],
            &mut self.order[row],
            &mut self.cursor[row],
            &mut self.last_batch[row],
            &mut self.probe_sample[row],
        );
    }

    /// Panics unless the population is well formed: every column has
    /// [`ClientPopulation::resident_rows`] entries, the id index is a
    /// bijection onto `0..resident_rows()`, and no two of `slots` borrow
    /// the same row. Debug builds check it at the end of every round's
    /// bookkeeping, when the slots still name the rows they returned.
    #[cfg(any(test, debug_assertions))]
    pub fn check_invariants(&self, slots: &[Slot]) {
        let rows = self.resident_rows();
        let columns = [
            self.rng.len(),
            self.residual.len(),
            self.order.len(),
            self.cursor.len(),
            self.last_batch.len(),
            self.probe_sample.len(),
        ];
        assert_eq!(columns, [rows; 6], "population column lengths");
        let indexed = self.index.values().copied();
        assert!(
            distinct_below(indexed, rows),
            "population index is not a bijection onto its rows"
        );
        let bound = slots.iter().filter_map(|slot| slot.cached_row);
        assert!(
            distinct_below(bound, rows),
            "two slots borrow one population row"
        );
    }

    /// Serializes every stored row in ascending client-id order.
    pub fn write_state(&self, w: &mut SnapshotWriter) {
        w.usize(self.index.len());
        for (&id, &row) in &self.index {
            w.usize(id);
            w.rng(&self.rng[row]);
            w.f32s(&self.residual[row]);
            w.usizes(&self.order[row]);
            w.usize(self.cursor[row]);
            w.usizes(&self.last_batch[row]);
            w.opt_usize(self.probe_sample[row]);
        }
    }

    /// Rebuilds a population serialized by [`ClientPopulation::write_state`].
    ///
    /// `dim` is the model dimension every residual must match;
    /// `num_clients` bounds the ids; `shard_len(id)` is the sample count
    /// the sampler epoch and estimator indices are validated against.
    pub fn read_state(
        r: &mut SnapshotReader<'_>,
        dim: usize,
        num_clients: usize,
        shard_len: impl Fn(usize) -> usize,
    ) -> Result<Self, SnapshotError> {
        let rows = r.usize()?;
        let mut pop = Self::new();
        let mut previous: Option<usize> = None;
        for _ in 0..rows {
            let id = r.usize()?;
            if id >= num_clients || previous.is_some_and(|p| p >= id) {
                return Err(SnapshotError::Invalid("population row ids"));
            }
            previous = Some(id);
            let rng = r.rng()?;
            let residual = r.f32s()?;
            if residual.len() != dim {
                return Err(SnapshotError::Mismatch {
                    field: "client residual length",
                });
            }
            let len = shard_len(id);
            let order = r.usizes()?;
            if order.len() != len {
                return Err(SnapshotError::Mismatch {
                    field: "client sampler order length",
                });
            }
            let cursor = r.usize()?;
            if cursor >= order.len().max(1) {
                return Err(SnapshotError::Invalid("sampler cursor out of range"));
            }
            if !distinct_below(order.iter().copied(), order.len()) {
                return Err(SnapshotError::Invalid("sampler order not a permutation"));
            }
            let last_batch = r.usizes()?;
            if last_batch.iter().any(|&i| i >= len) {
                return Err(SnapshotError::Invalid("batch index out of range"));
            }
            let probe_sample = r.opt_usize()?;
            if probe_sample.is_some_and(|i| i >= len) {
                return Err(SnapshotError::Invalid("probe sample out of range"));
            }
            let row = pop.rng.len();
            pop.rng.push(rng);
            pop.residual.push(residual);
            pop.order.push(order);
            pop.cursor.push(cursor);
            pop.last_batch.push(last_batch);
            pop.probe_sample.push(probe_sample);
            pop.index.insert(id, row);
        }
        Ok(pop)
    }
}

/// Whether `rows` are distinct and each below `bound`.
fn distinct_below(rows: impl IntoIterator<Item = usize>, bound: usize) -> bool {
    let mut seen = vec![false; bound];
    rows.into_iter()
        .all(|row| row < bound && !std::mem::replace(&mut seen[row], true))
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

    /// A population with rows for clients 3 and 5, and one slot bound to
    /// each row.
    fn two_rows() -> (ClientPopulation, Vec<Slot>) {
        let mut pop = ClientPopulation::new();
        let mut slots = Vec::new();
        for id in [3, 5] {
            let mut client = Client::new(id, 4, 0.5, 6, 2, id as u64);
            pop.dehydrate(id, None, true, &mut client);
            let mut slot = Slot::new(6, 2);
            slot.cached_row = pop.hydrate(id, &mut slot.client);
            slots.push(slot);
        }
        pop.check_invariants(&slots);
        (pop, slots)
    }

    #[test]
    #[should_panic(expected = "population column lengths")]
    fn invariants_catch_a_column_out_of_step() {
        let (mut pop, slots) = two_rows();
        pop.cursor.push(0);
        pop.check_invariants(&slots);
    }

    #[test]
    #[should_panic(expected = "not a bijection")]
    fn invariants_catch_two_ids_on_one_row() {
        let (mut pop, slots) = two_rows();
        pop.index.insert(5, 0);
        pop.check_invariants(&slots);
    }

    #[test]
    #[should_panic(expected = "two slots borrow one population row")]
    fn invariants_catch_two_slots_on_one_row() {
        let (pop, mut slots) = two_rows();
        slots[0].cached_row = Some(1);
        pop.check_invariants(&slots);
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
