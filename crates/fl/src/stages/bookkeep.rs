//! Stage (4), bookkeeping: the residual resets, the dehydration of the
//! cohort, and the broadcast's pricing.

use agsfl_sparse::SelectionResult;
use agsfl_telemetry::{stage, Recorder, SpanId};
use std::time::Instant;

use crate::client::ClientState;
use crate::population::{ClientPopulation, Cohort};
use crate::simulation::Shared;
use crate::wire_state::WireState;

/// End-of-round bookkeeping, then the broadcast pricing. Returns the
/// per-member contributions and the downlink phase time.
///
/// Each delivered upload's buffers go back into its member first. Then every
/// member resets its own residual on the pool, as Algorithm 1's clients do:
/// a member that delivered derives `J ∩ J_i` from the round's `J` (the
/// selection's bitset) and its own upload in one walk of its entries, which
/// tests each against `J` without a branch and writes only the selected
/// coordinates ([`Client::reset_selected`](crate::client::Client::reset_selected)),
/// and counts the member's contribution; a lost or offline member resets
/// nothing, so its residual keeps its update. The member's entries are in
/// index order, so the walk is one forward sweep of its residual. On the
/// lossy tier each reset coordinate is seeded with its quantization error
/// instead of zero (error feedback); `errors` is empty on lossless rounds,
/// which makes that a plain reset. The server builds no reset list.
/// Dehydration then swaps every hydrated member's [`ClientState`] back into
/// the population. A first-time participant's state is stored only if it
/// was online: the population takes the member's state whole, and the
/// member gets an empty one pre-sized here, on the round thread, so the next
/// first-timer's reset — on a pool worker — allocates nothing and the
/// population's states do not migrate into the workers' allocator arenas.
/// A pristine offline first-timer's state is dropped (offline clients
/// advance no stream) and recreated identically on its next appearance.
///
/// The downlink price is a max over the links that can be the slowest
/// receiver of the broadcast: the channel's frontier, built on the first
/// priced round, or every link when the channel has a trace. Its
/// [`SpanId::DownlinkPricing`] span nests inside [`SpanId::Bookkeeping`].
pub(crate) fn bookkeep<R: Recorder>(
    rec: &mut R,
    shared: &Shared,
    round_idx: usize,
    selection: &SelectionResult,
    downlink_bytes: Option<usize>,
    wire: Option<&WireState>,
    cohort: &mut Cohort,
    population: &mut ClientPopulation,
) -> (Vec<usize>, f64) {
    let t0 = rec.enabled().then(Instant::now);
    for (upload, &pos) in cohort.uploads.iter_mut().zip(&cohort.survivors) {
        let member = &mut cohort.members[pos];
        std::mem::swap(&mut member.entries, &mut upload.entries);
        std::mem::swap(&mut member.ranked, &mut upload.ranked);
    }
    let contributions = shared.executor.map_mut(&mut cohort.members, |member| {
        if !member.delivered {
            return 0;
        }
        member.reset_selected(selection)
    });
    for member in &mut cohort.members {
        let (id, state) = (member.id(), &mut member.state);
        if member.hydrated {
            let stored = population
                .get_mut(&id)
                .expect("a hydrated member is stored");
            std::mem::swap(stored, state);
        } else if !member.plan.offline {
            let (dim, len) = (state.residual.dim(), state.sampler.order().len());
            let empty = ClientState::with_capacity(dim, len, state.sampler.batch_size());
            population.insert(id, std::mem::replace(state, empty));
        }
    }
    let downlink_time = stage(rec, SpanId::DownlinkPricing, || {
        wire.zip(downlink_bytes)
            .map_or(0.0, |(w, bytes)| w.downlink_phase_time(round_idx, bytes))
    });
    if let Some(t0) = t0 {
        rec.span(SpanId::Bookkeeping, t0.elapsed().as_nanos() as u64);
    }
    (contributions, downlink_time)
}

#[cfg(test)]
mod tests {
    use crate::fixture::{uniform_channel, workspace_capacities};
    use crate::{Simulation, SimulationConfig, WireConfig};
    use agsfl_ml::data::{SyntheticFemnist, SyntheticFemnistConfig};
    use agsfl_ml::model::Mlp;
    use agsfl_sparse::{FabTopK, FubTopK, Sparsifier};
    use agsfl_wire::CodecSpec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Algorithm 3 keeps moving between a large `k` and a handful of rounds
    /// near `k = 1`, each with a unit probe. Scratch is grow-only: the
    /// `k = D/2` round sizes every buffer once, and no stretch of small
    /// rounds releases what the next large one needs.
    #[test]
    fn workspace_capacity_never_decreases_between_large_and_unit_k_rounds() {
        for sparsifier in [
            Box::new(FabTopK::new()) as Box<dyn Sparsifier>,
            Box::new(FubTopK::new()),
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            let fed = SyntheticFemnist::new(SyntheticFemnistConfig {
                feature_dim: 400,
                ..SyntheticFemnistConfig::tiny()
            })
            .generate(&mut rng);
            let model = Mlp::new(fed.feature_dim(), &[], fed.num_classes());
            let config = SimulationConfig {
                batch_size: 8,
                seed: 4,
                wire: Some(WireConfig {
                    codec: CodecSpec::DeltaVarint,
                    channel: uniform_channel(fed.num_clients()),
                }),
                ..SimulationConfig::default()
            };
            let mut sim = Simulation::new(Box::new(model), fed, sparsifier, config);
            let large = sim.dim() / 2;
            // One large round, then enough unit rounds for a halving demand
            // mark to fall two octaves below it; three times over. How many
            // candidates a large round ranks (FAB's fill level, FUB's
            // aggregated union) depends on its uploads, so `keys` may still
            // double at the second one; after it nothing moves.
            let ks = [large, 1, 1, 1, 1].repeat(3);
            let mut previous: Vec<usize> = Vec::new();
            let mut settled = Vec::new();
            for (round, &k) in ks.iter().enumerate() {
                sim.run_round(k, Some(1));
                let caps = workspace_capacities(&sim);
                assert!(
                    caps.iter()
                        .zip(&previous)
                        .all(|(now, before)| now >= before),
                    "round {round} (k = {k}) released capacity: {previous:?} -> {caps:?}"
                );
                if round == 5 {
                    // The dense sums and the `J` bitset, the first two of
                    // the selection's buffers.
                    assert!(
                        caps[0] >= sim.dim() && caps[1] >= sim.dim() / 64,
                        "{caps:?}"
                    );
                    settled = caps.clone();
                } else if round > 5 {
                    assert_eq!(caps, settled, "round {round} (k = {k})");
                }
                previous = caps;
            }
        }
    }
}
