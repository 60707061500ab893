//! The unit tests' one simulation fixture, and the hooks every in-crate
//! test build runs inside the round: the client pass checks the upload
//! contract ([`assert_upload_contract`]), the round records its selection
//! ([`record_selection`]) and the probe checks itself against
//! [`probe_by_second_selection`].

use agsfl_exec::Parallelism;
use agsfl_ml::data::{SyntheticFemnist, SyntheticFemnistConfig};
use agsfl_ml::model::Mlp;
use agsfl_sparse::{
    topk, ClientUpload, FabTopK, FubTopK, PeriodicK, SelectionResult, SendAll, Sparsifier,
    UnidirectionalTopK,
};
use agsfl_wire::CodecSpec;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::{Cell, RefCell};

use crate::population::Slot;
use crate::simulation::Shared;
use crate::wire_state::WireState;
use crate::{
    ChannelModel, FaultModel, ProbeReport, RoundReport, Simulation, SimulationConfig, TimeModel,
    WireConfig,
};

/// The five sparsifiers, each built fresh per call.
pub(crate) const SPARSIFIERS: [fn() -> Box<dyn Sparsifier>; 5] = [
    || Box::new(FabTopK::new()),
    || Box::new(FubTopK::new()),
    || Box::new(UnidirectionalTopK::new()),
    || Box::new(PeriodicK::new()),
    || Box::new(SendAll::new()),
];

/// A linear-softmax simulation over `SyntheticFemnistConfig::tiny()` data
/// drawn from `seed`: learning rate 0.05, batch 8, `β = 5`, the `Auto`
/// worker policy, no wire, no faults, every client every round — after
/// `tweak` edits that configuration, given the client count (for building
/// channels).
pub(crate) fn tiny_sim(
    sparsifier: Box<dyn Sparsifier>,
    seed: u64,
    tweak: impl FnOnce(&mut SimulationConfig, usize),
) -> Simulation {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let fed = SyntheticFemnist::new(SyntheticFemnistConfig::tiny()).generate(&mut rng);
    let model = Mlp::new(fed.feature_dim(), &[], fed.num_classes());
    let mut config = SimulationConfig {
        learning_rate: 0.05,
        batch_size: 8,
        time_model: TimeModel::normalized(5.0),
        seed,
        parallelism: Parallelism::Auto,
        wire: None,
        fault: None,
        cohort: None,
    };
    tweak(&mut config, fed.num_clients());
    Simulation::new(Box::new(model), fed, sparsifier, config)
}

/// A wire configuration over [`uniform_channel`].
pub(crate) fn uniform_wire(codec: CodecSpec, num_clients: usize) -> Option<WireConfig> {
    Some(WireConfig {
        codec,
        channel: uniform_channel(num_clients),
    })
}

/// Identical links for `n` clients: compute 1, up 2,000, down 4,000,
/// latency 0.05.
pub(crate) fn uniform_channel(n: usize) -> ChannelModel {
    ChannelModel::uniform(n, 1.0, 2_000.0, 4_000.0, 0.05)
}

/// An aggressive every-fault-at-once model for robustness tests.
pub(crate) fn chaos_model(seed: u64) -> FaultModel {
    FaultModel {
        drop_prob: 0.2,
        crash_prob: 0.1,
        outage_rounds: (1, 2),
        straggle_prob: 0.25,
        straggle_factor: 5.0,
        deadline: Some(40.0),
        corrupt_prob: 0.3,
        max_retries: 2,
        retry_backoff: 0.01,
        seed,
    }
}

/// Runs rounds `[from, to)` with a probe on even rounds, collecting the
/// reports.
pub(crate) fn drive(sim: &mut Simulation, from: usize, to: usize, k: usize) -> Vec<RoundReport> {
    (from..to)
        .map(|round| {
            let probe = (round % 2 == 0).then(|| (k / 2).max(1));
            sim.run_round(k, probe)
        })
        .collect()
}

thread_local! {
    /// Ranked uploads [`assert_upload_contract`] has checked on this
    /// thread.
    pub(crate) static RANKED_CHECKS: Cell<usize> = const { Cell::new(0) };
    /// The last round's delivered uploads and the selection the round
    /// engine made from its admitted sums, on this thread
    /// ([`record_selection`]).
    pub(crate) static LAST_SELECTION: RefCell<Option<(Vec<ClientUpload>, SelectionResult)>> =
        const { RefCell::new(None) };
}

/// Keeps a copy of the round's delivered uploads and its selection, right
/// after selection, for a test to compare with an independent one.
pub(crate) fn record_selection(delivered: &[ClientUpload], selection: &SelectionResult) {
    LAST_SELECTION.with(|last| *last.borrow_mut() = Some((delivered.to_vec(), selection.clone())));
}

/// The upload contract, checked at the end of every client pass of every
/// unit test: each delivered upload's entries are strictly increasing in
/// index, and its ranked view is the magnitude rank of those entries, bit
/// for bit, when the plan ranks and empty otherwise.
pub(crate) fn assert_upload_contract(uploads: &[ClientUpload], rank: bool) {
    for upload in uploads {
        assert!(
            upload.entries.windows(2).all(|w| w[0].0 < w[1].0),
            "client {}: entries out of index order",
            upload.client
        );
        if rank {
            let mut expected = upload.entries.clone();
            topk::rank_by_magnitude(&mut expected, &mut Vec::new());
            let expected: Vec<u64> = expected
                .iter()
                .map(|&(j, v)| topk::order_key(j as u32, v))
                .collect();
            assert_eq!(upload.ranked, expected, "client {}", upload.client);
        } else {
            assert!(upload.ranked.is_empty(), "client {}", upload.client);
        }
    }
    if rank {
        RANKED_CHECKS.with(|checks| checks.set(checks.get() + uploads.len()));
    }
}

/// The probe as it was computed while the server still selected twice a
/// round, kept as the spec the probe stage asserts itself against in every
/// unit test: an independent `select_into` at `k'` on a fresh workspace,
/// fresh clones of the weights, three losses per member, and every prefix —
/// the ranked view's when the plan ranks, the entries' otherwise — priced
/// through a copy and a comparison sort.
#[allow(clippy::too_many_arguments)]
pub(crate) fn probe_by_second_selection(
    shared: &Shared,
    sparsifier: &dyn Sparsifier,
    round_idx: usize,
    probe_k: usize,
    selection: &SelectionResult,
    uploads: &[ClientUpload],
    slots: &[Slot],
    wire: Option<&WireState>,
) -> ProbeReport {
    let (params, config) = (&shared.params[..], &shared.config);
    let dim = params.len();
    let probe_selection = sparsifier.select(uploads, dim, probe_k);
    let lr = config.learning_rate;
    let mut w_now = params.to_vec();
    selection.aggregated.apply_sgd(&mut w_now, lr);
    let mut w_probe = params.to_vec();
    probe_selection.aggregated.apply_sgd(&mut w_probe, lr);
    let mut sums = [0.0f64; 3];
    let mut count = 0usize;
    for slot in slots {
        let weights = [params, &w_now, &w_probe];
        if let Some(losses) = slot.client.probe_losses(shared.model.as_ref(), weights) {
            for (sum, loss) in sums.iter_mut().zip(losses) {
                *sum += loss as f64;
            }
            count += 1;
        }
    }
    let n = count.max(1) as f64;
    let probe_round_time = match wire {
        Some(wire) => {
            let uplink_phase = uploads
                .iter()
                .map(|upload| {
                    let mut prefix: Vec<(usize, f32)> = if upload.ranked.is_empty() {
                        upload.entries.clone()
                    } else {
                        upload
                            .ranked
                            .iter()
                            .map(|&key| topk::key_entry(key))
                            .collect()
                    };
                    prefix.truncate(probe_k);
                    prefix.sort_unstable_by_key(|&(j, _)| j);
                    let bytes = wire.codec.encoded_len(dim, &prefix);
                    wire.channel.uplink_time(round_idx, upload.client, bytes)
                })
                .fold(0.0f64, f64::max);
            let aggregate = &probe_selection.aggregated;
            let downlink_bytes = wire
                .downlink
                .encoded_len(aggregate.dim(), aggregate.entries());
            wire.channel.compute_time()
                + uplink_phase
                + wire.downlink_phase_time(round_idx, downlink_bytes)
        }
        None => config.time_model.sparse_round_time(dim, probe_k),
    };
    ProbeReport {
        probe_k,
        loss_prev: sums[0] / n,
        loss_now: sums[1] / n,
        loss_probe: sums[2] / n,
        probe_round_time,
    }
}

/// Every field of a probe report, floats as their bits.
pub(crate) fn probe_bits(report: &ProbeReport) -> (usize, [u64; 4]) {
    let floats = [
        report.loss_prev,
        report.loss_now,
        report.loss_probe,
        report.probe_round_time,
    ];
    (report.probe_k, floats.map(f64::to_bits))
}

/// Every reusable buffer a wired round touches, as capacities: the
/// selection workspace's buffers (the dense sums first, then the `J`
/// bitsets), the server's encode workspace and rank
/// keys, and each slot's entry, ranked, frame, error and client-side encode
/// buffers. Between rounds a slot owns its upload buffers — the upload it
/// lent them to holds none — so a released one lowers its slot's capacity.
pub(crate) fn workspace_capacities(sim: &Simulation) -> Vec<usize> {
    assert_uploads_hold_nothing(sim);
    let mut caps = sim.scratch.capacities().to_vec();
    caps.push(sim.probe.rank_keys.capacity());
    caps.extend(sim.wire.as_ref().map(|w| w.scratch.frame_capacity()));
    for slot in &sim.cohort.slots {
        caps.extend([
            slot.entries.capacity(),
            slot.ranked.capacity(),
            slot.frame.capacity(),
            slot.errors.capacity(),
            slot.client.wire_frame_capacity(),
        ]);
    }
    caps
}

/// After bookkeeping every upload holds zero capacity: its member's buffers
/// went back to the slot.
pub(crate) fn assert_uploads_hold_nothing(sim: &Simulation) {
    for (u, upload) in sim.cohort.uploads.iter().enumerate() {
        assert_eq!(
            (upload.entries.capacity(), upload.ranked.capacity()),
            (0, 0),
            "upload {u} kept a buffer past bookkeeping"
        );
    }
}
