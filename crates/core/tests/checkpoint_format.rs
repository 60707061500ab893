//! Byte-format pins for the three checkpoint surfaces: the AGCK run file,
//! the AGSF simulation blob and each controller's snapshot.
//!
//! The hashes were captured while `agsfl-fl` and `agsfl-online` each had a
//! codec of their own, before the two were merged into
//! `agsfl_wire::snapshot`. A change to any of them means files written by an
//! earlier build no longer restore and must come with a `SIM_VERSION` /
//! `RUN_VERSION` bump, not a re-capture.

mod common;

/// FNV-1a over a byte stream.
fn fnv_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Per controller kind of `common::KINDS`: the AGCK file written at round 4,
/// then `Simulation::save_state()` and `KController::save_state()` after
/// round 6.
const FORMAT_GOLDEN: [(u64, u64, u64); 7] = [
    (0x43e89ca76ee4ca32, 0x3151349bf356943c, 0xeae3ec3546fb55f0), // sign OGD
    (0x2d125c03e4b332ca, 0x3151349bf356943c, 0xeec8a5d38e2cfa78), // extended sign OGD
    (0x3819f702088134ff, 0x034c021f8934ff5b, 0x5c5c3dd7029b0449), // value-based descent
    (0xe8a446a1b40fa044, 0xe01925c823f5bc6d, 0xbae1f3c3d2e83b97), // fixed k
    (0xff11167a5c9e021a, 0x1527538348e85daa, 0x5d7f3ebafda890ce), // EXP3
    (0x8f2ffcb00fd40e1a, 0xebd071f1678e63ae, 0x08c91b5c69b2ed57), // continuous bandit
    (0x3a84b71cf6c22161, 0x83a2209da9857fcb, 0x8aed0391d0dfeaaa), // precision wrapper
];

#[test]
fn checkpoint_bytes_are_pinned_for_every_controller_kind() {
    let cfg = common::faulty_wired_config(61);
    let got: Vec<(u64, u64, u64)> = (0..common::KINDS.len())
        .map(|kind| {
            let run = common::checkpointed_run(&cfg, kind);
            (
                fnv_bytes(&run.file),
                fnv_bytes(&run.experiment.simulation().save_state()),
                fnv_bytes(&run.controller.save_state()),
            )
        })
        .collect();
    assert_eq!(got, FORMAT_GOLDEN, "{got:#018x?}");
}

/// `Simulation::save_state()` of a sampled, faulty, wired run after
/// [`SAMPLED_ROUNDS`] rounds: a cohort of 4 out of 12 `femnist_tiny`-shaped
/// clients with crashes on. The blob holds rows only for the members that
/// were ever online, so it pins the population section's sparse layout,
/// including the dropped offline first-timer the test asserts.
const SAMPLED_COHORT_GOLDEN: u64 = 0xa034_75c5_c399_6240;
const SAMPLED_ROUNDS: usize = 4;

#[test]
fn sampled_cohort_checkpoint_bytes_are_pinned() {
    use agsfl_core::ChannelSpec;
    use agsfl_fl::{Simulation, SimulationConfig, WireConfig};
    use agsfl_ml::data::{SyntheticFemnist, SyntheticFemnistConfig};
    use agsfl_ml::model::Mlp;
    use agsfl_sparse::FabTopK;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    let seed = 71;
    let data = SyntheticFemnist::new(SyntheticFemnistConfig {
        num_clients: 12,
        ..SyntheticFemnistConfig::tiny()
    })
    .generate(&mut ChaCha8Rng::seed_from_u64(seed));
    let model = Mlp::new(data.feature_dim(), &[], data.num_classes());
    let n = data.num_clients();
    let config = SimulationConfig {
        batch_size: 8,
        seed,
        wire: Some(WireConfig {
            codec: agsfl_core::CodecSpec::Auto,
            channel: ChannelSpec::uniform(2_000.0, 4_000.0, 0.05).build(n, seed),
        }),
        fault: Some(agsfl_core::FaultModel {
            drop_prob: 0.15,
            crash_prob: 0.4,
            outage_rounds: (2, 4),
            corrupt_prob: 0.2,
            max_retries: 2,
            seed: seed ^ 0xFA,
            ..agsfl_core::FaultModel::default()
        }),
        cohort: Some(4),
        ..SimulationConfig::default()
    };
    let mut sim = Simulation::new(Box::new(model), data, Box::new(FabTopK::new()), config);
    let k = sim.dim() / 8;
    let mut touched = vec![false; n];
    for round in 0..SAMPLED_ROUNDS {
        let report = sim.run_round(k, (round % 2 == 0).then_some(k / 2));
        for &id in &report.cohort {
            touched[id] = true;
        }
    }
    let touched = touched.iter().filter(|&&t| t).count();
    assert!(touched < n, "every client was sampled");
    assert!(
        sim.resident_clients() < touched,
        "no offline first-timer was dropped ({} rows, {touched} touched)",
        sim.resident_clients()
    );
    let got = fnv_bytes(&sim.save_state());
    assert_eq!(got, SAMPLED_COHORT_GOLDEN, "{got:#018x}");
}
