//! Property tests for the sampled-cohort engine's determinism contract:
//! for *any* seed, cohort size, thread count, fault shape and interrupt
//! point, a cohort-sampled run is bit-identical to its serial /
//! uninterrupted twin — over an eager dataset and over a lazy
//! [`ShardSource`] alike.
//!
//! These generalize the hand-picked cases in `simulation.rs`'s unit tests
//! (and the historical pins in `golden_trajectory.rs`) across the whole
//! configuration space: cohort draws and RNG streams advance serially in
//! client order before any parallel region, and the per-slot fill that runs
//! *inside* the parallel client pass (shard materialization, a first-timer's
//! fresh state) is a pure function of `(source, seed, id)`, so neither the
//! worker count nor a checkpoint/restore cycle may perturb a single bit.

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
use agsfl_ml::model::LinearSoftmax;
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
    let model = LinearSoftmax::new(source.feature_dim(), source.num_classes());
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

/// A [`ShardSource`] that logs the client id of every `materialize_into`
/// call (from whichever pool worker makes it) and otherwise delegates.
#[derive(Debug)]
struct CountingSource<S> {
    inner: S,
    calls: Arc<Mutex<Vec<usize>>>,
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
        self.calls.lock().expect("call log").push(client);
        self.inner.materialize_into(client, out);
    }
}

/// Drains the call log, sorted (workers log in schedule order).
fn drain_sorted(calls: &Mutex<Vec<usize>>) -> Vec<usize> {
    let mut ids = std::mem::take(&mut *calls.lock().expect("call log"));
    ids.sort_unstable();
    ids
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
/// same shards, at every worker count; and every slot whose member changed
/// is refilled exactly once that round, *offline members included*: an
/// offline member computes nothing, but the probe still evaluates the
/// sample index of its last online round against the slot's shard, so a
/// fill skipped behind the offline early-out would read somebody else's
/// data.
#[test]
fn offline_members_with_a_stale_probe_sample_still_get_their_shard() {
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
        let calls = Arc::new(Mutex::new(Vec::new()));
        let source = CountingSource {
            inner: lazy.clone(),
            calls: Arc::clone(&calls),
        };
        let mut sim = sim_over(
            Box::new(source),
            seed,
            Some(cohort),
            parallelism,
            true,
            fault.clone(),
        );
        // What the reports alone say about the arena: who sits in each
        // slot, and who has been online before (and so carries a probe
        // sample).
        let mut occupant: Vec<Option<usize>> = vec![None; cohort];
        let mut sampled = std::collections::BTreeSet::new();
        let mut stale_refills = 0;
        for (round, want) in want.iter().enumerate() {
            let report = sim.run_round(16, Some(4));
            assert_eq!(&report, want, "round {round} at {parallelism:?}");
            let delivered = &report.wire.as_ref().expect("wired run").uplink_bytes;
            let mut refilled = Vec::new();
            for (pos, &id) in report.cohort.iter().enumerate() {
                let offline = delivered[pos] == 0;
                if occupant[pos] != Some(id) {
                    refilled.push(id);
                    stale_refills += usize::from(offline && sampled.contains(&id));
                    occupant[pos] = Some(id);
                }
                if !offline {
                    sampled.insert(id);
                }
            }
            refilled.sort_unstable();
            assert_eq!(
                drain_sorted(&calls),
                refilled,
                "round {round} at {parallelism:?}"
            );
        }
        assert!(
            stale_refills > 0,
            "the scenario never put an offline, previously sampled member into a changed slot"
        );
        assert_eq!(sim.params(), eager.params());
    }
}

/// Over a full cohort every slot keeps its member, so the shard cache hits
/// from round 2 on: `N` materializations in round 1, none afterwards.
#[test]
fn full_cohort_materializes_each_shard_once() {
    let calls = Arc::new(Mutex::new(Vec::new()));
    let source = CountingSource {
        inner: tiny_dataset(5),
        calls: Arc::clone(&calls),
    };
    let n = source.num_clients();
    let mut sim = sim_over(
        Box::new(source),
        5,
        None,
        Parallelism::Threads(4),
        false,
        None,
    );
    step(&mut sim, 0);
    assert_eq!(drain_sorted(&calls), (0..n).collect::<Vec<_>>());
    for round in 1..5 {
        step(&mut sim, round);
    }
    assert_eq!(drain_sorted(&calls), Vec::<usize>::new());
}

/// Over a lazy source `evaluate()` streams the population once — every
/// shard materialized exactly once for both train metrics — and each field
/// is bit-identical to its individual accessor.
#[test]
fn lazy_evaluate_materializes_each_shard_once() {
    let calls = Arc::new(Mutex::new(Vec::new()));
    let source = CountingSource {
        inner: LazySyntheticFemnist::new(SyntheticFemnistConfig::tiny(), 9),
        calls: Arc::clone(&calls),
    };
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
    drain_sorted(&calls);

    let eval = sim.evaluate();
    assert_eq!(drain_sorted(&calls), (0..n).collect::<Vec<_>>());
    assert_eq!(
        (eval.train_loss as f64).to_bits(),
        sim.global_train_loss().to_bits()
    );
    assert_eq!(
        (eval.test_accuracy as f64).to_bits(),
        sim.test_accuracy().to_bits()
    );
}
