//! The client population behind the cohort engine, and the arena of
//! [`Client`]s its members are hydrated into.
//!
//! A million-client simulation cannot afford a [`Client`] per client: each
//! one owns a batch buffer, reusable scratch and upload buffers, and a
//! resident residual vector. [`ClientPopulation`] keeps only what is
//! genuinely *persistent* across rounds — one [`ClientState`] (the private
//! RNG stream, the residual accumulator, the mini-batch sampler epoch, and
//! the estimator bookkeeping) per client id — and only for clients that
//! have actually participated online at least once. Everything transient
//! (the batch rows, top-k scratch, wire scratch and frame, upload buffers,
//! the round's bookkeeping) lives in the [`Cohort`]: a small reusable arena
//! of `Client`s, one per member, rebound to the round's sampled members.
//! No member ever holds a whole shard: it fetches only its mini-batch rows
//! from the `ShardSource`.
//!
//! Resident memory is therefore `O(members · batch + touched_clients · (dim +
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
//! ([`ClientState::reset`], run per member inside the parallel client
//! pass, ahead of the member's row fetch), so which rounds touch which
//! clients — and in which arena entry, on which worker, a client lands —
//! never changes any stream. Cohort draws ([`draw_cohort`]) advance a dedicated ChaCha8
//! stream serially before the parallel client pass, and a full-population
//! cohort makes *no* draw at all, which pins the sampled engine
//! bit-identical to the historical owned-client path.

use std::collections::{BTreeMap, BTreeSet};

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use agsfl_sparse::ClientUpload;

use crate::client::{Client, ClientState};

/// Every client's persistent state, by client id, for the clients that
/// have participated online at least once. A `BTreeMap` keeps iteration
/// (and therefore checkpoint bytes) in ascending id order.
pub(crate) type ClientPopulation = BTreeMap<usize, ClientState>;

/// The reusable cohort arena: one [`Client`] per cohort member, rebound to
/// each round's sample, and the aggregation inputs the delivered members
/// lend their finished buffers to. The first `survivors.len()` uploads are
/// rebuilt each round, each borrowing its member's entry list and ranked
/// view by a swap with the member, which bookkeeping swaps back: between
/// rounds every upload holds empty buffers and each buffer has one owner,
/// its member.
pub(crate) struct Cohort {
    pub members: Vec<Client>,
    pub uploads: Vec<ClientUpload>,
    /// Index in `members` of each delivered upload, in cohort order.
    pub survivors: Vec<usize>,
}

impl Cohort {
    /// `size` unbound members and as many empty uploads.
    pub fn new(size: usize, dim: usize, batch_size: usize) -> Self {
        Self {
            members: (0..size)
                .map(|_| Client::placeholder(dim, batch_size))
                .collect(),
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
