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
