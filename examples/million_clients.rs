//! A million-client population on a laptop: fixed-cohort rounds over a
//! lazily materialized client population, with the OS attesting to the
//! memory bound.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release --example million_clients             # N = 10⁶
//! cargo run --release --example million_clients -- --smoke  # CI assertion
//! ```
//!
//! Each run drives `Simulation::with_source` + `run_round` over a
//! [`LazySyntheticFemnist`] population: 8 rounds of a 256-member cohort at
//! k = 32 on a 32-feature, 16-class linear model, FAB-top-k, serial. Only
//! the sampled cohort's shards are ever materialized and only touched
//! clients keep persistent state, so resident state is bounded by
//! participation (≤ rounds · cohort clients), not by N: the server is
//! O(cohort · k). The default mode runs N = 10⁶ and prints rounds/s,
//! resident clients, RSS and peak RSS; the benchmark's
//! `cohort_million_wired` workload times the same engine at that N.
//!
//! `--smoke` is the bounded-RSS gate `scripts/verify.sh` runs: N = 10⁵,
//! which must keep the participation bound and finish with peak process
//! RSS under a hard budget, so a regression that re-materializes the
//! population (or lets a scratch grow with N) fails fast instead of
//! quietly eating memory.

use std::time::Instant;

use agsfl::exec::{mem, Parallelism};
use agsfl::fl::{Simulation, SimulationConfig, TimeModel};
use agsfl::ml::data::{LazySyntheticFemnist, SyntheticFemnistConfig};
use agsfl::ml::model::Mlp;
use agsfl::sparse::FabTopK;

const COHORT: usize = 256;
const ROUNDS: usize = 8;
const K: usize = 32;
const SAMPLES_PER_CLIENT: usize = 64;
const FEATURES: usize = 32;
const CLASSES: usize = 16;
const BATCH: usize = 8;
const SEED: u64 = 97;

/// Peak-RSS budget for the smoke gate. The N = 10⁵ run needs a few tens
/// of MiB (cohort shards + touched-client residuals + the binary itself);
/// 256 MiB leaves headroom for allocator and platform noise while still
/// catching any O(N·D) re-materialization, which would need gigabytes.
const SMOKE_PEAK_RSS_LIMIT: u64 = 256 * 1024 * 1024;

fn mib(bytes: Option<u64>) -> String {
    bytes.map_or_else(
        || "n/a".to_string(),
        |b| format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0)),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let population = if smoke { 100_000 } else { 1_000_000 };
    let source = LazySyntheticFemnist::new(
        SyntheticFemnistConfig {
            num_clients: population,
            samples_per_client: SAMPLES_PER_CLIENT,
            feature_dim: FEATURES,
            num_classes: CLASSES,
            classes_per_client: CLASSES / 2,
            writer_shift_std: 0.5,
            noise_std: 0.5,
            test_samples: 128,
        },
        SEED ^ (population as u64).rotate_left(17),
    );
    let mut sim = Simulation::with_source(
        Box::new(Mlp::new(FEATURES, &[], CLASSES)),
        Box::new(source),
        Box::new(FabTopK::new()),
        SimulationConfig {
            learning_rate: 0.05,
            batch_size: BATCH,
            time_model: TimeModel::normalized(5.0),
            seed: SEED,
            parallelism: Parallelism::Serial,
            wire: None,
            fault: None,
            cohort: Some(COHORT),
        },
    );
    let start = Instant::now();
    for _ in 0..ROUNDS {
        sim.run_round(K, None);
    }
    let rounds_per_sec = ROUNDS as f64 / start.elapsed().as_secs_f64().max(1e-9);
    let cohort = sim.cohort_size();
    let resident = sim.resident_clients();
    let peak = mem::peak_rss_bytes();
    println!(
        "N={population} cohort={cohort} rounds={ROUNDS} rounds/s={rounds_per_sec:.1} \
         resident={resident} rss={} peak rss={}",
        mib(mem::current_rss_bytes()),
        mib(peak)
    );
    let budget = ROUNDS * cohort;
    assert!(
        resident <= budget,
        "resident clients {resident} exceed the participation bound {budget}"
    );
    if !smoke {
        return;
    }
    match peak {
        Some(peak) => {
            println!(
                "smoke: peak rss {} (budget {})",
                mib(Some(peak)),
                mib(Some(SMOKE_PEAK_RSS_LIMIT))
            );
            assert!(
                peak <= SMOKE_PEAK_RSS_LIMIT,
                "peak rss {peak} B blew the {SMOKE_PEAK_RSS_LIMIT} B budget: \
                 the population is being re-materialized somewhere"
            );
            println!("smoke: ok");
        }
        // No procfs on this platform; the participation bound above still
        // ran, so don't fail the gate — just say so.
        None => println!("smoke: no rss probe on this platform, memory assertion skipped"),
    }
}
