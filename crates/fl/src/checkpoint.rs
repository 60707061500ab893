//! The simulation's checkpoint format and atomic checkpoint file I/O.
//!
//! [`Simulation::save_state`] / [`Simulation::restore_state`] are the one
//! reader and writer of the `AGSF` blob: a configuration fingerprint
//! followed by the complete mutable state, all encoded by the one snapshot
//! codec, [`agsfl_wire::snapshot`]. Files are written atomically: the
//! payload goes to a `<path>.tmp` sibling first and is then renamed over the
//! destination, so an interrupt mid-write leaves either the previous
//! complete checkpoint or none — never a torn file (see [`write_atomic`]).

use agsfl_ml::data::{MinibatchSampler, ShardSource};
use agsfl_wire::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::client::ClientState;
use crate::population::ClientPopulation;
use crate::Simulation;

/// Magic bytes of a serialized [`Simulation`] state blob.
const SIM_MAGIC: [u8; 4] = *b"AGSF";
/// Current simulation state format version: v2 replaced the dense
/// per-client state section with the resident [`ClientPopulation`] rows and
/// added the cohort stream/fingerprint (v1 blobs are rejected); v3 added
/// the wire-codec fingerprint field guarding the lossy uplink tier.
const SIM_VERSION: u32 = 3;

impl Simulation {
    /// Serializes the complete mutable simulation state — round counter,
    /// elapsed time, global weights, server RNG position, every client's
    /// RNG/residual/sampler/probe state, and the fault injector — prefixed
    /// by a configuration fingerprint. A run restored from these bytes into
    /// a simulation built from the same inputs continues *bit-identically*
    /// to the uninterrupted run (pinned by tests across sparsifiers, thread
    /// counts, and interrupt points).
    pub fn save_state(&self) -> Vec<u8> {
        SnapshotWriter::write_exact(|w| self.write_state(w))
    }

    /// [`Simulation::save_state`] appended to a caller's writer, so a run
    /// checkpoint nests the blob ([`SnapshotWriter::nested`]) without
    /// building it on the side first.
    pub fn write_state(&self, w: &mut SnapshotWriter) {
        let config = self.config();
        w.header(SIM_MAGIC, SIM_VERSION);
        // Fingerprint: enough static configuration to reject a restore into
        // a differently-shaped simulation with a typed error.
        w.usize(self.dim());
        w.usize(self.num_clients());
        w.u64(config.seed);
        w.usize(config.batch_size);
        w.str(self.sparsifier.name());
        w.bool(config.wire.is_some());
        w.bool(self.fault.is_some());
        w.opt_usize(config.cohort);
        // v3: the configured wire codec, so a lossy-tier checkpoint cannot
        // silently resume under a different quantization scheme.
        w.str(config.wire.as_ref().map_or("none", |w| w.codec.name()));
        // Mutable state. Only the *resident* population rows are written
        // (clients that participated online at least once) — an untouched
        // client's state is a pure function of `(seed, id)` and is
        // recreated on demand, so a million-client snapshot stays
        // proportional to the touched set, not `N`.
        w.usize(self.round);
        w.f64(self.elapsed);
        w.f32s(&self.shared.params);
        w.rng(&self.server_rng);
        w.rng(&self.cohort_rng);
        w.usize(self.population.len());
        for (&id, state) in &self.population {
            w.usize(id);
            state.write(w);
        }
        if let Some(fault) = &self.fault {
            fault.write_state(w);
        }
    }

    /// Restores state produced by [`Simulation::save_state`] into a
    /// simulation built from the **same** model, dataset, sparsifier, and
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapshotError`] on malformed or truncated bytes,
    /// on an unsupported format version, and on any fingerprint mismatch
    /// (dimension, client count, seed, batch size, sparsifier, wire/fault
    /// presence, cohort size, wire codec). On error the simulation is
    /// unchanged: every section is read into a fresh value, and the values
    /// are committed only once the whole blob has been read.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        let version = r.header(SIM_MAGIC, SIM_VERSION)?;
        if version != SIM_VERSION {
            // Version 1 serialized one dense row per client with no cohort
            // stream; the population layout cannot represent its bytes, so
            // the old format is rejected rather than silently misread.
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let config = self.config();
        let codec = config.wire.as_ref().map_or("none", |w| w.codec.name());
        let checks: [(&'static str, bool); 9] = [
            ("dim", r.usize()? == self.dim()),
            ("num_clients", r.usize()? == self.num_clients()),
            ("seed", r.u64()? == config.seed),
            ("batch_size", r.usize()? == config.batch_size),
            ("sparsifier", r.str()? == self.sparsifier.name()),
            ("wire configuration", r.bool()? == config.wire.is_some()),
            ("fault model", r.bool()? == self.fault.is_some()),
            ("cohort size", r.opt_usize()? == config.cohort),
            ("wire codec", r.str()? == codec),
        ];
        for (field, ok) in checks {
            if !ok {
                return Err(SnapshotError::Mismatch { field });
            }
        }
        let (round, elapsed, params) = (r.usize()?, r.f64()?, r.f32s()?);
        if params.len() != self.dim() {
            return Err(SnapshotError::Invalid("params length"));
        }
        let (server_rng, cohort_rng) = (r.rng()?, r.rng()?);
        let source = self.shared.source.as_ref();
        let population = read_population(&mut r, self.dim(), config.batch_size, source)?;
        let mut fault = self.fault.clone();
        if let Some(fault) = &mut fault {
            fault.read_state(&mut r)?;
        }
        r.finish()?;
        self.round = round;
        self.elapsed = elapsed;
        self.shared.params = params;
        self.server_rng = server_rng;
        self.cohort_rng = cohort_rng;
        self.population = population;
        self.fault = fault;
        Ok(())
    }
}

/// Reads the population section [`Simulation::write_state`] writes: a row
/// count, then each row's client id — strictly ascending and a client of
/// `source`, else [`SnapshotError::Invalid`] — and its [`ClientState`], read
/// against `dim` and the client's shard length.
fn read_population(
    r: &mut SnapshotReader<'_>,
    dim: usize,
    batch_size: usize,
    source: &dyn ShardSource,
) -> Result<ClientPopulation, SnapshotError> {
    let mut population = ClientPopulation::new();
    for _ in 0..r.usize()? {
        let id = r.usize()?;
        let after = population
            .last_key_value()
            .is_none_or(|(&last, _)| last < id);
        if id >= source.num_clients() || !after {
            return Err(SnapshotError::Invalid("population row ids"));
        }
        let state = ClientState::read(r, dim, source.shard_len(id), batch_size)?;
        population.insert(id, state);
    }
    Ok(population)
}

impl ClientState {
    /// Writes one population row's state, after its client id: the stream,
    /// the residual, the sampler's order and cursor, the last batch and the
    /// probe sample.
    pub(crate) fn write(&self, w: &mut SnapshotWriter) {
        w.rng(&self.rng);
        w.f32s(self.residual.as_slice());
        w.usizes(self.sampler.order());
        w.usize(self.sampler.cursor());
        w.usizes(&self.last_batch);
        w.opt_usize(self.probe_sample);
    }

    /// Reads a state written by [`ClientState::write`] for a client whose
    /// shard holds `shard_len` samples: a residual that is not `dim` long or
    /// a sampler order that is not `shard_len` long is a
    /// [`SnapshotError::Mismatch`]; a cursor out of range, an order that is
    /// not a permutation, or a batch index or probe sample past the shard is
    /// [`SnapshotError::Invalid`]. The sampler draws batches of
    /// `batch_size`, which the blob's fingerprint has already checked.
    pub(crate) fn read(
        r: &mut SnapshotReader<'_>,
        dim: usize,
        shard_len: usize,
        batch_size: usize,
    ) -> Result<Self, SnapshotError> {
        let mismatch = |field| SnapshotError::Mismatch { field };
        let rng = r.rng()?;
        let residual = r.f32s()?;
        if residual.len() != dim {
            return Err(mismatch("client residual length"));
        }
        let order = r.usizes()?;
        if order.len() != shard_len {
            return Err(mismatch("client sampler order length"));
        }
        let cursor = r.usize()?;
        if cursor >= shard_len.max(1) {
            return Err(SnapshotError::Invalid("sampler cursor out of range"));
        }
        let mut seen = vec![false; shard_len];
        if order
            .iter()
            .any(|&i| i >= shard_len || std::mem::replace(&mut seen[i], true))
        {
            return Err(SnapshotError::Invalid("sampler order not a permutation"));
        }
        let last_batch = r.usizes()?;
        if last_batch.iter().any(|&i| i >= shard_len) {
            return Err(SnapshotError::Invalid("batch index out of range"));
        }
        let probe_sample = r.opt_usize()?;
        if probe_sample.is_some_and(|i| i >= shard_len) {
            return Err(SnapshotError::Invalid("probe sample out of range"));
        }
        Ok(Self {
            rng,
            residual: residual.into(),
            sampler: MinibatchSampler::from_epoch(order, cursor, batch_size),
            last_batch,
            probe_sample,
        })
    }
}

/// Writes `bytes` to `path` atomically: the payload lands in a `<path>.tmp`
/// sibling first and is renamed over the destination, so a crash mid-write
/// can never leave a torn checkpoint behind.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    let io = |e: std::io::Error| SnapshotError::Io(e.to_string());
    std::fs::write(&tmp, bytes).map_err(io)?;
    std::fs::rename(&tmp, path).map_err(io)
}

/// Reads a checkpoint file written by [`write_atomic`].
pub fn read_file(path: &std::path::Path) -> Result<Vec<u8>, SnapshotError> {
    std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{chaos_model, drive, tiny_sim, uniform_wire, SPARSIFIERS};
    use crate::{FaultModel, Parallelism, RoundReport};
    use agsfl_ml::data::{ClientShard, FederatedDataset};
    use agsfl_sparse::{FabTopK, FubTopK, Sparsifier};
    use agsfl_tensor::Matrix;
    use agsfl_wire::CodecSpec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A wired (`Auto` codec) simulation under `fault`.
    fn faulty_sim(
        sparsifier: Box<dyn Sparsifier>,
        seed: u64,
        parallelism: Parallelism,
        fault: Option<FaultModel>,
    ) -> Simulation {
        tiny_sim(sparsifier, seed, |c, n| {
            c.parallelism = parallelism;
            c.wire = uniform_wire(CodecSpec::Auto, n);
            c.fault = fault;
        })
    }

    /// A FAB-top-k simulation sampling `cohort` clients a round.
    fn cohort_sim(seed: u64, cohort: usize, parallelism: Parallelism) -> Simulation {
        tiny_sim(Box::new(FabTopK::new()), seed, |c, _| {
            c.parallelism = parallelism;
            c.cohort = Some(cohort);
        })
    }

    /// Interrupt at the first round, mid-run, and last-but-one; resume from
    /// the saved bytes; the stitched run must be bit-identical to the
    /// uninterrupted one — for every sparsifier, serial and parallel, with
    /// chaos-level faults active.
    #[test]
    fn resume_is_bit_identical_for_every_sparsifier_and_interrupt() {
        for (which, make) in SPARSIFIERS.into_iter().enumerate() {
            let seed = 120 + which as u64;
            for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
                let fault = Some(chaos_model(seed));
                let mut reference = faulty_sim(make(), seed, parallelism, fault.clone());
                let k = reference.dim() / 6;
                let full = drive(&mut reference, 0, 6, k);
                for interrupt in [1usize, 3, 5] {
                    let mut first = faulty_sim(make(), seed, parallelism, fault.clone());
                    let before = drive(&mut first, 0, interrupt, k);
                    let bytes = first.save_state();
                    let mut resumed = faulty_sim(make(), seed, parallelism, fault.clone());
                    resumed.restore_state(&bytes).unwrap();
                    assert_eq!(resumed.round(), interrupt);
                    let after = drive(&mut resumed, interrupt, 6, k);
                    let stitched: Vec<RoundReport> = before.into_iter().chain(after).collect();
                    assert_eq!(
                        full, stitched,
                        "sparsifier {which}, parallelism {parallelism:?}, interrupt {interrupt}"
                    );
                    assert_eq!(
                        reference.params(),
                        resumed.params(),
                        "sparsifier {which}, interrupt {interrupt}"
                    );
                }
            }
        }
    }

    /// Resume composes with the thread-count invariant: an interrupted run
    /// resumed under any worker count reproduces the serial uninterrupted
    /// run bit for bit.
    #[test]
    fn resume_matches_across_worker_counts() {
        let fault = Some(chaos_model(11));
        let build =
            |parallelism| faulty_sim(Box::new(FabTopK::new()), 140, parallelism, fault.clone());
        let mut reference = build(Parallelism::Serial);
        let k = reference.dim() / 6;
        let full = drive(&mut reference, 0, 6, k);
        for threads in [1usize, 2, 3, 5, 8] {
            let parallelism = if threads == 1 {
                Parallelism::Serial
            } else {
                Parallelism::Threads(threads)
            };
            let mut first = build(parallelism);
            let before = drive(&mut first, 0, 3, k);
            let bytes = first.save_state();
            let mut resumed = build(parallelism);
            resumed.restore_state(&bytes).unwrap();
            let after = drive(&mut resumed, 3, 6, k);
            let stitched: Vec<RoundReport> = before.into_iter().chain(after).collect();
            assert_eq!(full, stitched, "threads={threads}");
            assert_eq!(reference.params(), resumed.params(), "threads={threads}");
        }
    }

    /// Save/resume also holds on the plain scalar-priced path with no fault
    /// model at all — checkpointing is independent of both subsystems.
    #[test]
    fn resume_without_wire_or_faults_is_bit_identical() {
        let build = || tiny_sim(Box::new(FabTopK::new()), 145, |_, _| {});
        let mut reference = build();
        let k = reference.dim() / 6;
        let full = drive(&mut reference, 0, 6, k);
        let mut first = build();
        let before = drive(&mut first, 0, 3, k);
        let bytes = first.save_state();
        let mut resumed = build();
        resumed.restore_state(&bytes).unwrap();
        let after = drive(&mut resumed, 3, 6, k);
        let stitched: Vec<RoundReport> = before.into_iter().chain(after).collect();
        assert_eq!(full, stitched);
        assert_eq!(reference.params(), resumed.params());
    }

    /// Restore validates its input: fingerprint mismatches, truncations,
    /// trailing bytes and a corrupt fault section yield typed errors, never
    /// panics — and a rejected restore changes nothing: the target saves
    /// the same bytes after the attempt as before it. The donor's dropout
    /// draws move its fault stream away from a fresh one, so a fault
    /// section restored ahead of a later error would show.
    #[test]
    fn restore_rejects_mismatched_or_corrupt_state() {
        let fault = Some(FaultModel {
            drop_prob: 0.3,
            seed: 150,
            ..FaultModel::default()
        });
        let build = |sparsifier: Box<dyn Sparsifier>, seed, fault: Option<FaultModel>| {
            faulty_sim(sparsifier, seed, Parallelism::Auto, fault)
        };
        let mut sim = build(Box::new(FabTopK::new()), 150, fault.clone());
        let k = sim.dim() / 6;
        drive(&mut sim, 0, 2, k);
        let bytes = sim.save_state();
        let rejects = |target: &mut Simulation, bytes: &[u8]| {
            let before = target.save_state();
            let error = target.restore_state(bytes).expect_err("restore must fail");
            assert_eq!(
                target.save_state(),
                before,
                "a failed restore ({error}) changed state"
            );
            error
        };

        let mut other_seed = build(Box::new(FabTopK::new()), 151, fault.clone());
        assert_eq!(
            rejects(&mut other_seed, &bytes),
            SnapshotError::Mismatch { field: "seed" }
        );
        let mut no_fault = build(Box::new(FabTopK::new()), 150, None);
        assert_eq!(
            rejects(&mut no_fault, &bytes),
            SnapshotError::Mismatch {
                field: "fault model"
            }
        );
        let mut other_sparsifier = build(Box::new(FubTopK::new()), 150, fault.clone());
        assert_eq!(
            rejects(&mut other_sparsifier, &bytes),
            SnapshotError::Mismatch {
                field: "sparsifier"
            }
        );

        let mut target = build(Box::new(FabTopK::new()), 150, fault.clone());
        for cut in [0, 3, 4, 11, bytes.len() / 2, bytes.len() - 1] {
            rejects(&mut target, &bytes[..cut]);
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            rejects(&mut target, &extended),
            SnapshotError::TrailingBytes
        );
        // The blob ends in the fault section's empty outage table: two
        // zero-length `u64` lists. Replace it with an out-of-range key.
        let mut bad_keys = bytes[..bytes.len() - 16].to_vec();
        let mut w = SnapshotWriter::new();
        w.u64s(&[u64::MAX]);
        w.u64s(&[1]);
        bad_keys.extend(w.into_bytes());
        assert_eq!(
            rejects(&mut target, &bad_keys),
            SnapshotError::Invalid("fault outage table keys")
        );
        target.restore_state(&bytes).unwrap();
        assert_eq!(target.save_state(), bytes);
    }

    /// Checkpoint/resume under cohort sampling is bit-identical to the
    /// uninterrupted run at every interrupt point — the snapshot carries
    /// the cohort stream and exactly the resident population rows.
    #[test]
    fn sampled_cohort_resume_is_bit_identical() {
        let mut reference = cohort_sim(33, 3, Parallelism::Auto);
        let mut reports = Vec::new();
        for round in 0..8 {
            let probe = (round % 2 == 0).then_some(4);
            reports.push(reference.run_round(8, probe));
        }
        for interrupt in [0usize, 1, 3, 7] {
            let mut sim = cohort_sim(33, 3, Parallelism::Auto);
            for round in 0..interrupt {
                let probe = (round % 2 == 0).then_some(4);
                sim.run_round(8, probe);
            }
            let bytes = sim.save_state();
            let mut resumed = cohort_sim(33, 3, Parallelism::Serial);
            resumed.restore_state(&bytes).unwrap();
            for (round, report) in reports.iter().enumerate().skip(interrupt) {
                let probe = (round % 2 == 0).then_some(4);
                assert_eq!(
                    &resumed.run_round(8, probe),
                    report,
                    "interrupt {interrupt}, round {round}"
                );
            }
            assert_eq!(
                resumed.params(),
                reference.params(),
                "interrupt {interrupt}"
            );
        }
    }

    /// The v2 format explicitly rejects v1 blobs (the dense per-client
    /// layout cannot be reinterpreted as population rows) and a snapshot
    /// from a different cohort size fails the fingerprint.
    #[test]
    fn restore_rejects_v1_blobs_and_cohort_mismatch() {
        let mut w = SnapshotWriter::new();
        w.header(SIM_MAGIC, 1);
        let v1 = w.into_bytes();
        let mut target = cohort_sim(40, 3, Parallelism::Serial);
        assert_eq!(
            target.restore_state(&v1),
            Err(SnapshotError::UnsupportedVersion(1))
        );

        let mut donor = cohort_sim(41, 3, Parallelism::Serial);
        donor.run_round(8, None);
        let bytes = donor.save_state();
        let mut other = cohort_sim(41, 4, Parallelism::Serial);
        assert_eq!(
            other.restore_state(&bytes),
            Err(SnapshotError::Mismatch {
                field: "cohort size"
            })
        );
    }

    /// One hand-built row of the population section, field by field in
    /// the section's order (the stream is seeded by the id).
    #[derive(Clone)]
    struct Row {
        id: usize,
        residual: Vec<f32>,
        order: Vec<usize>,
        cursor: usize,
        last_batch: Vec<usize>,
        probe_sample: Option<usize>,
    }

    const DIM: usize = 5;
    const SHARD: usize = 4;
    const CLIENTS: usize = 6;

    fn row(id: usize) -> Row {
        Row {
            id,
            residual: vec![0.5; DIM],
            order: vec![2, 0, 3, 1],
            cursor: 1,
            last_batch: vec![2, 0],
            probe_sample: Some(0),
        }
    }

    fn section(rows: &[Row]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.usize(rows.len());
        for row in rows {
            w.usize(row.id);
            w.rng(&ChaCha8Rng::seed_from_u64(row.id as u64));
            w.f32s(&row.residual);
            w.usizes(&row.order);
            w.usize(row.cursor);
            w.usizes(&row.last_batch);
            w.opt_usize(row.probe_sample);
        }
        w.into_bytes()
    }

    /// Reads a whole section against `DIM` and a source of `CLIENTS`
    /// shards of `SHARD` samples; returns its row count.
    fn read(bytes: &[u8]) -> Result<usize, SnapshotError> {
        let shard = || ClientShard::new(Matrix::zeros(SHARD, 1), vec![0; SHARD]);
        let source = FederatedDataset::new(vec![shard(); CLIENTS], shard(), 1);
        let mut r = SnapshotReader::new(bytes);
        let population = read_population(&mut r, DIM, 2, &source)?;
        r.finish()?;
        Ok(population.len())
    }

    /// The population section's shape laws: a row whose residual or
    /// sampler order has the wrong length is a `Mismatch`, a row whose
    /// values do not fit its shard or whose id breaks the ascending order
    /// is `Invalid`, and every strict prefix of a valid section is an
    /// error, never a panic.
    #[test]
    fn population_rows_obey_their_shape_laws() {
        let valid = [row(1), row(4)];
        assert_eq!(read(&section(&valid)), Ok(2));
        let mismatch = |field| SnapshotError::Mismatch { field };
        let residual = mismatch("client residual length");
        let order = mismatch("client sampler order length");
        let ids = SnapshotError::Invalid("population row ids");
        type Edit = fn(&mut [Row; 2]);
        let cases: [(&str, Edit, SnapshotError); 11] = [
            (
                "residual of dim - 1",
                |r| r[1].residual.truncate(DIM - 1),
                residual.clone(),
            ),
            ("residual of dim + 1", |r| r[1].residual.push(0.0), residual),
            (
                "order shorter than the shard",
                |r| r[1].order.truncate(SHARD - 1),
                order.clone(),
            ),
            ("order longer than the shard", |r| r[1].order.push(4), order),
            (
                "cursor out of range",
                |r| r[0].cursor = SHARD,
                SnapshotError::Invalid("sampler cursor out of range"),
            ),
            (
                "order not a permutation",
                |r| r[1].order[1] = 2,
                SnapshotError::Invalid("sampler order not a permutation"),
            ),
            (
                "batch index past the shard",
                |r| r[1].last_batch[1] = SHARD,
                SnapshotError::Invalid("batch index out of range"),
            ),
            (
                "probe sample past the shard",
                |r| r[0].probe_sample = Some(SHARD),
                SnapshotError::Invalid("probe sample out of range"),
            ),
            ("repeated id", |r| r[1].id = 1, ids.clone()),
            ("descending ids", |r| r[0].id = 5, ids.clone()),
            ("id past the population", |r| r[1].id = CLIENTS, ids),
        ];
        for (case, edit, want) in cases {
            let mut rows = valid.clone();
            edit(&mut rows);
            assert_eq!(read(&section(&rows)), Err(want), "{case}");
        }
        let bytes = section(&valid);
        for cut in 0..bytes.len() {
            assert!(read(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn atomic_write_then_read() {
        let path = std::env::temp_dir().join(format!("agsfl_ckpt_test_{}.bin", std::process::id()));
        write_atomic(&path, b"payload").unwrap();
        assert_eq!(read_file(&path).unwrap(), b"payload");
        // Overwrite goes through the same tmp+rename path.
        write_atomic(&path, b"second").unwrap();
        assert_eq!(read_file(&path).unwrap(), b"second");
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(read_file(&path), Err(SnapshotError::Io(_))));
    }
}
