//! Property tests for the sampled-cohort engine's determinism contract:
//! for *any* seed, cohort size, thread count, fault shape and interrupt
//! point, a cohort-sampled run is bit-identical to its serial /
//! uninterrupted twin — over an eager dataset and over a lazy
//! [`ShardSource`] alike.
//!
//! These generalize the hand-picked cases in the unit tests of
//! `crates/fl/src/stages/hydrate.rs` and `crates/fl/src/checkpoint.rs`
//! (and the historical pins in `golden_trajectory.rs`) across the whole
//! configuration space: cohort draws and RNG streams advance serially in
//! client order before any parallel region, and the per-member work that runs
//! *inside* the parallel client pass (a first-timer's fresh state, the
//! member's batch-row fetch) is a pure function of `(source, seed, id)` and
//! the member's own stream, so neither the worker count nor a
//! checkpoint/restore cycle may perturb a single bit.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use agsfl_exec::Parallelism;
use agsfl_fl::{
    ChannelModel, FaultModel, FaultRoundReport, RoundReport, Simulation, SimulationConfig,
    TimeModel, WireConfig,
};
use agsfl_ml::data::{
    ClientShard, FederatedDataset, LazySyntheticFemnist, ShardSource, SyntheticFemnist,
    SyntheticFemnistConfig,
};
use agsfl_ml::model::Mlp;
use agsfl_sparse::FubTopK;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn tiny_dataset(seed: u64) -> FederatedDataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng)
}

/// The eager dataset holding exactly the shards `source` materializes.
fn eager_twin(source: &dyn ShardSource) -> FederatedDataset {
    let clients = (0..source.num_clients())
        .map(|id| {
            let mut shard = ClientShard::empty(source.feature_dim());
            source.materialize_into(id, &mut shard);
            shard
        })
        .collect();
    FederatedDataset::new(clients, source.test().clone(), source.num_classes())
}

fn sim_over(
    source: Box<dyn ShardSource>,
    seed: u64,
    cohort: Option<usize>,
    parallelism: Parallelism,
    wired: bool,
    fault: Option<FaultModel>,
) -> Simulation {
    let num_clients = source.num_clients();
    let model = Mlp::new(source.feature_dim(), &[], source.num_classes());
    let wire = wired.then(|| WireConfig {
        codec: agsfl_wire::CodecSpec::Auto,
        channel: ChannelModel::uniform(num_clients, 1.0, 2_000.0, 4_000.0, 0.05),
    });
    Simulation::with_source(
        Box::new(model),
        source,
        Box::new(FubTopK::new()),
        SimulationConfig {
            learning_rate: 0.05,
            batch_size: 8,
            time_model: TimeModel::normalized(5.0),
            seed,
            parallelism,
            wire,
            fault,
            cohort,
        },
    )
}

fn build_sim(
    seed: u64,
    cohort: usize,
    parallelism: Parallelism,
    wired: bool,
    lazy: bool,
    fault: Option<FaultModel>,
) -> Simulation {
    let source: Box<dyn ShardSource> = if lazy {
        Box::new(LazySyntheticFemnist::new(
            SyntheticFemnistConfig::tiny(),
            seed,
        ))
    } else {
        Box::new(tiny_dataset(seed))
    };
    sim_over(source, seed, Some(cohort), parallelism, wired, fault)
}

/// The drawn fault shape as a model: `None` one time in four, otherwise
/// drop / crash / straggle / corrupt probabilities, an optional deadline a
/// straggler or a twice-retried member misses, and 0–3 retries. Unwired,
/// the byte-level faults are zeroed (validation rejects them without a
/// wire), which leaves the unwired + faulty shape: dropout and outages.
fn fault_model(
    seed: u64,
    wired: bool,
    (drop_prob, crash_prob, straggle_prob, corrupt_prob): (f64, f64, f64, f64),
    (fault_draw, deadline_bit, max_retries): (u32, u32, usize),
) -> Option<FaultModel> {
    let byte_level = |p: f64| if wired { p } else { 0.0 };
    (fault_draw > 0).then(|| FaultModel {
        drop_prob,
        crash_prob,
        outage_rounds: (1, 3),
        straggle_prob: byte_level(straggle_prob),
        straggle_factor: 5.0,
        deadline: (wired && deadline_bit == 1).then_some(0.3),
        corrupt_prob: byte_level(corrupt_prob),
        max_retries,
        retry_backoff: 0.01,
        seed,
    })
}

/// One round of the fingerprinted schedule: k = 16, probes on even rounds.
fn step(sim: &mut Simulation, round: usize) -> RoundReport {
    sim.run_round(16, round.is_multiple_of(2).then_some(4))
}

/// What the fingerprint keeps of each round: the cohort members and the
/// fault tallies.
type RoundFacts = (Vec<usize>, Option<FaultRoundReport>);

fn round_facts(sim: &mut Simulation, round: usize) -> RoundFacts {
    let report = step(sim, round);
    (report.cohort, report.fault)
}

/// Advances `rounds` rounds and returns a bit-exact fingerprint: weight
/// bits, elapsed-time bits and per-round cohort members and fault tallies.
fn run_fingerprint(sim: &mut Simulation, rounds: usize) -> (Vec<u32>, u64, Vec<RoundFacts>) {
    let facts = (0..rounds).map(|round| round_facts(sim, round)).collect();
    let params = sim.params().iter().map(|v| v.to_bits()).collect();
    (params, sim.elapsed_time().to_bits(), facts)
}

/// Every call a [`CountingSource`] saw, from whichever pool worker made it.
#[derive(Debug, Default)]
struct CallLog {
    /// `(client, rows)` of each `materialize_rows_into` call.
    rows: Vec<(usize, Vec<usize>)>,
    /// The client of each `materialize_into` call.
    shards: Vec<usize>,
    /// Set around an evaluation sweep, the one caller allowed whole shards:
    /// a round fetches rows only, so a whole-shard call outside a sweep
    /// panics.
    evaluating: bool,
}

/// A [`ShardSource`] that logs every fetch into a [`CallLog`] and otherwise
/// delegates.
#[derive(Debug)]
struct CountingSource<S> {
    inner: S,
    log: Arc<Mutex<CallLog>>,
}

impl<S: ShardSource> CountingSource<S> {
    fn new(inner: S) -> (Self, Arc<Mutex<CallLog>>) {
        let log = Arc::new(Mutex::new(CallLog::default()));
        let source = Self {
            inner,
            log: Arc::clone(&log),
        };
        (source, log)
    }
}

impl<S: ShardSource> ShardSource for CountingSource<S> {
    fn num_clients(&self) -> usize {
        self.inner.num_clients()
    }
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }
    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }
    fn shard_len(&self, client: usize) -> usize {
        self.inner.shard_len(client)
    }
    fn test(&self) -> &ClientShard {
        self.inner.test()
    }
    fn materialize_into(&self, client: usize, out: &mut ClientShard) {
        let evaluating = {
            let mut log = self.log.lock().expect("call log");
            log.shards.push(client);
            log.evaluating
        };
        assert!(
            evaluating,
            "a round materialized client {client}'s whole shard"
        );
        self.inner.materialize_into(client, out);
    }
    fn materialize_rows_into(&self, client: usize, rows: &[usize], out: &mut ClientShard) {
        let mut log = self.log.lock().expect("call log");
        log.rows.push((client, rows.to_vec()));
        drop(log);
        self.inner.materialize_rows_into(client, rows, out);
    }
}

/// Drains the row fetches, keyed by client (workers log in schedule
/// order); a client fetching twice in one round fails.
fn drain_rows(log: &Mutex<CallLog>) -> BTreeMap<usize, Vec<usize>> {
    let calls = std::mem::take(&mut log.lock().expect("call log").rows);
    let mut by_client = BTreeMap::new();
    for (client, rows) in calls {
        assert!(
            by_client.insert(client, rows).is_none(),
            "client {client} fetched rows twice in one round"
        );
    }
    by_client
}

/// Drains the whole-shard calls, sorted.
fn drain_shards(log: &Mutex<CallLog>) -> Vec<usize> {
    let mut ids = std::mem::take(&mut log.lock().expect("call log").shards);
    ids.sort_unstable();
    ids
}

/// Asserts `rows` is one mini-batch of a `shard_len`-row shard under
/// [`sim_over`]'s batch size 8: `min(8, shard_len)` rows, all in range.
fn assert_one_batch(client: usize, rows: &[usize], shard_len: usize) {
    assert_eq!(rows.len(), shard_len.min(8), "client {client}: {rows:?}");
    assert!(
        rows.iter().all(|&r| r < shard_len),
        "client {client}: {rows:?}"
    );
}

/// Crash-heavy faults with outages that outlast several cohort draws, so
/// members keep landing — offline, with the probe sample of their last
/// online round — in slots that held somebody else's shard. No drops and no
/// corruption: a wired member delivered zero bytes iff it was offline.
fn long_outages(seed: u64) -> FaultModel {
    FaultModel {
        crash_prob: 0.3,
        outage_rounds: (3, 6),
        seed,
        ..FaultModel::default()
    }
}

proptest! {
    // Each case runs several full simulations; a handful of cases per
    // property already sweeps seeds, cohort sizes and thread counts far
    // beyond the hand-picked unit tests.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serial and 2/4/8-worker runs (plus one more drawn count) of the same
    /// sampled-cohort configuration are bit-identical, wired or not, eager
    /// or lazy, under any fault shape.
    #[test]
    fn prop_cohort_runs_identical_across_worker_counts(
        seed in 0u64..10_000,
        cohort in 1usize..9,
        threads in 2usize..9,
        wired_bit in 0u32..2,
        lazy_bit in 0u32..2,
        rounds in 1usize..6,
        fault_probs in (0.0f64..0.4, 0.0f64..0.3, 0.0f64..0.5, 0.0f64..0.6),
        fault_shape in (0u32..4, 0u32..2, 0usize..=3),
    ) {
        let (wired, lazy) = (wired_bit == 1, lazy_bit == 1);
        let fault = fault_model(seed, wired, fault_probs, fault_shape);
        let build = |parallelism| build_sim(seed, cohort, parallelism, wired, lazy, fault.clone());
        let mut serial = build(Parallelism::Serial);
        let want = run_fingerprint(&mut serial, rounds);
        for workers in [2, 4, 8, threads] {
            let mut threaded = build(Parallelism::Threads(workers));
            let got = run_fingerprint(&mut threaded, rounds);
            prop_assert_eq!(&got, &want, "serial vs {} workers diverged", workers);
        }
    }

    /// Interrupting a sampled-cohort run with a checkpoint/restore cycle at
    /// any round leaves the remainder bit-identical to the uninterrupted
    /// run — the cohort stream resumes exactly where it stopped, and a lazy
    /// source refills every slot of the fresh arena on the resumed side.
    #[test]
    fn prop_cohort_resume_is_bit_identical(
        seed in 0u64..10_000,
        cohort in 1usize..9,
        wired_bit in 0u32..2,
        lazy_bit in 0u32..2,
        fault_probs in (0.0f64..0.4, 0.0f64..0.3, 0.0f64..0.5, 0.0f64..0.6),
        fault_shape in (0u32..4, 0u32..2, 0usize..=3),
    ) {
        let (wired, lazy) = (wired_bit == 1, lazy_bit == 1);
        let fault = fault_model(seed, wired, fault_probs, fault_shape);
        let build = |parallelism| build_sim(seed, cohort, parallelism, wired, lazy, fault.clone());
        let rounds = 6;
        let mut baseline = build(Parallelism::Serial);
        let want = run_fingerprint(&mut baseline, rounds);

        for interrupt in 0..=rounds {
            let mut first = build(Parallelism::Threads(2));
            let (_, _, mut facts) = run_fingerprint(&mut first, interrupt);
            let blob = first.save_state();
            let mut resumed = build(Parallelism::Threads(2));
            resumed.restore_state(&blob).expect("same-shape restore");
            facts.extend((interrupt..rounds).map(|round| round_facts(&mut resumed, round)));
            let got = (
                resumed.params().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                resumed.elapsed_time().to_bits(),
                facts,
            );
            prop_assert_eq!(&got, &want, "resume at round {} diverged", interrupt);
        }
    }
}

/// A faulty, probed, wired run over the lazy source is bit-identical — probe
/// losses included — to the same run over the eager dataset built from the
/// same shards, at every worker count; and every member fetches exactly the
/// rows it reads, *offline members included*: an offline member computes
/// nothing, but the probe still evaluates the sample index of its last
/// online round, so it fetches that one row — the same row every round of
/// its outage — while an online member fetches one batch and a member that
/// was never online fetches nothing.
#[test]
fn offline_members_with_a_stale_probe_sample_fetch_just_that_row() {
    let (seed, cohort, rounds) = (23, 5, 16);
    let writers = SyntheticFemnistConfig {
        num_clients: 12,
        ..SyntheticFemnistConfig::tiny()
    };
    let lazy = LazySyntheticFemnist::new(writers, seed);
    let fault = Some(long_outages(seed));

    let mut eager = sim_over(
        Box::new(eager_twin(&lazy)),
        seed,
        Some(cohort),
        Parallelism::Serial,
        true,
        fault.clone(),
    );
    let want: Vec<RoundReport> = (0..rounds).map(|_| eager.run_round(16, Some(4))).collect();

    for parallelism in [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
        Parallelism::Threads(8),
    ] {
        let (source, log) = CountingSource::new(lazy.clone());
        let mut sim = sim_over(
            Box::new(source),
            seed,
            Some(cohort),
            parallelism,
            true,
            fault.clone(),
        );
        // Each member's last online batch (whose rows hold its probe
        // sample), and the row an offline member fetched for it.
        let mut last_batch: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut stale_row: BTreeMap<usize, usize> = BTreeMap::new();
        let mut stale_fetches = 0;
        for (round, want) in want.iter().enumerate() {
            let report = sim.run_round(16, Some(4));
            assert_eq!(&report, want, "round {round} at {parallelism:?}");
            let delivered = &report.wire.as_ref().expect("wired run").uplink_bytes;
            let mut fetched = drain_rows(&log);
            for (pos, &id) in report.cohort.iter().enumerate() {
                let rows = fetched.remove(&id);
                let at = format!("client {id}, round {round} at {parallelism:?}");
                if delivered[pos] > 0 {
                    let rows = rows.unwrap_or_else(|| panic!("{at}: online, fetched nothing"));
                    assert_one_batch(id, &rows, writers.samples_per_client);
                    last_batch.insert(id, rows);
                    stale_row.remove(&id);
                } else if let Some(batch) = last_batch.get(&id) {
                    let rows = rows.unwrap_or_else(|| panic!("{at}: stale probe not fetched"));
                    let [row] = rows[..] else {
                        panic!("{at}: fetched {rows:?} for one probe sample")
                    };
                    assert!(batch.contains(&row), "{at}: row {row} not in {batch:?}");
                    assert_eq!(*stale_row.entry(id).or_insert(row), row, "{at}");
                    stale_fetches += 1;
                } else {
                    assert_eq!(rows, None, "{at}: never online, yet fetched");
                }
            }
            assert!(fetched.is_empty(), "non-members fetched {fetched:?}");
        }
        assert!(
            stale_fetches > 0,
            "the scenario never put an offline, previously sampled member into the cohort"
        );
        assert_eq!(drain_shards(&log), Vec::<usize>::new());
        assert_eq!(sim.params(), eager.params());
    }
}

/// Every online member of every round fetches exactly one mini-batch —
/// `min(batch, shard_len)` of its rows — and no round materializes a whole
/// shard, over an eager dataset and over a lazy source whose shards are
/// shorter than a batch, for a full cohort (every slot keeps its member)
/// and a sampled one.
#[test]
fn each_online_member_fetches_exactly_one_batch() {
    fn check<S: ShardSource + 'static>(make: impl Fn() -> S, shard_len: usize) {
        for cohort in [None, Some(3)] {
            let (source, log) = CountingSource::new(make());
            let mut sim = sim_over(
                Box::new(source),
                5,
                cohort,
                Parallelism::Threads(4),
                false,
                None,
            );
            for round in 0..5 {
                let report = step(&mut sim, round);
                let fetched = drain_rows(&log);
                assert_eq!(
                    fetched.keys().copied().collect::<Vec<_>>(),
                    report.cohort,
                    "round {round}, cohort {cohort:?}"
                );
                for (&id, rows) in &fetched {
                    assert_one_batch(id, rows, shard_len);
                }
            }
            assert_eq!(drain_shards(&log), Vec::<usize>::new());
        }
    }
    check(|| tiny_dataset(5), 32);
    let short = SyntheticFemnistConfig {
        samples_per_client: 5,
        ..SyntheticFemnistConfig::tiny()
    };
    check(|| LazySyntheticFemnist::new(short, 5), 5);
}

/// Over a lazy source `evaluate()` streams the population once — every
/// shard materialized exactly once for both train metrics — and each field
/// is bit-identical to its individual accessor.
#[test]
fn lazy_evaluate_materializes_each_shard_once() {
    let (source, log) =
        CountingSource::new(LazySyntheticFemnist::new(SyntheticFemnistConfig::tiny(), 9));
    let n = source.num_clients();
    let mut sim = sim_over(
        Box::new(source),
        9,
        Some(3),
        Parallelism::Threads(2),
        false,
        None,
    );
    run_fingerprint(&mut sim, 4);
    {
        let mut log = log.lock().expect("call log");
        log.rows.clear();
        log.evaluating = true;
    }

    let eval = sim.evaluate();
    assert_eq!(drain_shards(&log), (0..n).collect::<Vec<_>>());
    assert_eq!(
        (eval.train_loss as f64).to_bits(),
        sim.global_train_loss().to_bits()
    );
    assert_eq!(
        (eval.test_accuracy as f64).to_bits(),
        sim.test_accuracy().to_bits()
    );
}

/// Resident client state is bounded by participation, never by the
/// population: over a lazy source of 50 or 1,000,000 writers, at most
/// `rounds · cohort` clients — exactly the ones drawn so far — hold state,
/// and a cohort larger than the population clamps to it.
#[test]
fn lazy_residency_is_bounded_by_participation_not_population() {
    for (population, cohort) in [(50, 8), (50, 64), (1_000_000, 8)] {
        let writers = SyntheticFemnistConfig {
            num_clients: population,
            ..SyntheticFemnistConfig::tiny()
        };
        let mut sim = sim_over(
            Box::new(LazySyntheticFemnist::new(writers, 13)),
            13,
            Some(cohort),
            Parallelism::Threads(2),
            false,
            None,
        );
        let members = cohort.min(population);
        assert_eq!(sim.cohort_size(), members, "N = {population}");
        assert_eq!(sim.resident_clients(), 0);
        let mut drawn = BTreeSet::new();
        for round in 0..4 {
            let report = step(&mut sim, round);
            assert_eq!(report.cohort.len(), members, "N = {population}");
            drawn.extend(report.cohort.iter().copied());
            assert_eq!(sim.resident_clients(), drawn.len(), "N = {population}");
            assert!(sim.resident_clients() <= (round + 1) * members);
        }
    }
}
