//! Lifecycle of the persistent worker pool under a real simulation.
//!
//! The round engine used to spawn a fresh `std::thread::scope` for every
//! parallel region; the executor now feeds a long-lived channel-fed pool.
//! This test pins the lifecycle half of that contract at the integration
//! level: after the first round has spawned the pool, many further rounds
//! reuse the same workers — the process thread count read *between* rounds
//! stays **flat** (no leak per round, no extra thread left behind).
//! Threads spawned and joined inside one round are invisible to that read;
//! `scripts/verify.sh`'s `thread::scope`/`thread::spawn` grep gate is what
//! keeps product code from opening its own. The companion properties —
//! panic propagation to the submitter, drop joining every worker, and
//! bit-identity at each worker count — are pinned by the `agsfl-exec` unit
//! tests and `golden_trajectory.rs` respectively.
//!
//! The file holds a single `#[test]` so no sibling test can perturb the
//! process-wide thread count between the two probe reads.

use agsfl_exec::Parallelism;
use agsfl_fl::{Simulation, SimulationConfig, TimeModel};
use agsfl_ml::data::{FederatedDataset, SyntheticFemnist, SyntheticFemnistConfig};
use agsfl_ml::model::Mlp;
use agsfl_sparse::FabTopK;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn rounds_reuse_the_pool_without_respawning() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let fed: FederatedDataset =
        SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
    let model = Mlp::new(fed.feature_dim(), &[], fed.num_classes());
    let config = SimulationConfig {
        learning_rate: 0.05,
        batch_size: 8,
        time_model: TimeModel::normalized(5.0),
        seed: 42,
        parallelism: Parallelism::Threads(4),
        wire: None,
        fault: None,
        cohort: None,
    };
    let mut sim = Simulation::new(Box::new(model), fed, Box::new(FabTopK::new()), config);

    // The first round's client pass spawns the pool workers.
    sim.run_round(8, None);
    let Some(after_first) = agsfl_exec::mem::thread_count() else {
        return; // no procfs on this platform — nothing to observe
    };

    // Every further round (several parallel regions each) must reuse those
    // exact workers: a leaked or lingering extra thread shows up here as a
    // moved count (a scoped spawn joined within its round would not).
    for _ in 0..6 {
        sim.run_round(8, None);
    }
    let after_many = agsfl_exec::mem::thread_count().expect("procfs was readable above");
    assert_eq!(
        after_many, after_first,
        "thread count moved across rounds: the pool respawned or leaked workers"
    );
}
