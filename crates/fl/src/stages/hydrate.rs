//! Stage (0), hydration: the cohort draw, its fault plans and the
//! members' binding.

use agsfl_ml::data::ShardSource;
use rand_chacha::ChaCha8Rng;

use crate::client::Client;
use crate::fault::{ClientFaultPlan, FaultState};
use crate::population::{draw_cohort, ClientPopulation};
use crate::simulation::Shared;

/// Draws the cohort and its fault plans and binds the cohort arena to the
/// members; returns the members' ids, ascending. Everything here is serial
/// and O(cohort), and every random draw of the round except the
/// sparsifier's happens here, *before* any parallel work: the plan — never
/// the worker schedule — decides every fault, so identical seeds give
/// identical bits at any thread count. A full-population cohort makes no
/// draw at all (see [`draw_cohort`]). Each member's plan lands in its
/// arena entry;
/// without a fault model every plan is [`ClientFaultPlan::clean`].
pub(crate) fn bind_cohort(
    shared: &Shared,
    round_idx: usize,
    cohort_rng: &mut ChaCha8Rng,
    fault: Option<&mut FaultState>,
    population: &mut ClientPopulation,
    members: &mut [Client],
) -> Vec<usize> {
    let source = shared.source.as_ref();
    let mut cohort = Vec::with_capacity(members.len());
    draw_cohort(
        cohort_rng,
        source.num_clients(),
        shared.config.cohort,
        &mut cohort,
    );
    let plans = fault.map(|f| f.plan_round_for(round_idx, f.model().max_retries + 1, &cohort));
    bind_members(source, &cohort, plans, population, members);
    cohort
}

/// Points each arena entry at its member and swaps a returning
/// participant's [`ClientState`](crate::client::ClientState) in from the
/// population — the only hydration step that mutates shared state. A
/// first-timer's fresh state and the member's row fetch are per-member work
/// on the pool, in the client pass.
///
/// The members must be distinct (debug builds check that they ascend):
/// two arena entries bound to one client would each swap with its one
/// stored state, and dehydration would store the wrong one.
fn bind_members(
    source: &dyn ShardSource,
    cohort: &[usize],
    plans: Option<Vec<ClientFaultPlan>>,
    population: &mut ClientPopulation,
    members: &mut [Client],
) {
    debug_assert_eq!(cohort.len(), members.len(), "one member per cohort id");
    debug_assert!(
        cohort.windows(2).all(|w| w[0] < w[1]),
        "cohort members are not distinct and ascending: {cohort:?}"
    );
    // Aggregation weights are renormalized over the cohort's samples
    // (`C_i / Σ_{j∈cohort} C_j`); with every client participating the
    // denominator is the population total.
    let cohort_samples: usize = cohort.iter().map(|&id| source.shard_len(id)).sum();
    assert!(cohort_samples > 0, "cohort holds no samples");
    let mut plans = plans.into_iter().flatten();
    for (member, &id) in members.iter_mut().zip(cohort) {
        let weight = source.shard_len(id) as f64 / cohort_samples as f64;
        member.bind(id, weight);
        member.plan = plans.next().unwrap_or_else(ClientFaultPlan::clean);
        let stored = population.get_mut(&id);
        member.hydrated = stored.is_some();
        if let Some(state) = stored {
            std::mem::swap(&mut member.state, state);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::fixture::{chaos_model, tiny_sim, uniform_wire};
    use crate::{Parallelism, Simulation};
    use agsfl_sparse::{FabTopK, FubTopK};
    use agsfl_wire::CodecSpec;

    /// Partial participation basics: reports carry the sampled members in
    /// ascending order, contributions stay parallel to the cohort, every
    /// client is eventually drawn, and the persistent population grows only
    /// with touched clients.
    #[test]
    fn sampled_cohorts_report_members_and_grow_population_lazily() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 21, |c, _| {
            c.parallelism = Parallelism::Serial;
            c.cohort = Some(3);
        });
        let n = sim.num_clients();
        assert!(n > 3, "tiny dataset must be larger than the cohort");
        assert_eq!(sim.cohort_size(), 3);
        assert_eq!(sim.resident_clients(), 0);
        let mut seen = vec![false; n];
        for _ in 0..40 {
            let report = sim.run_round(8, None);
            assert_eq!(report.cohort.len(), 3);
            assert_eq!(report.contributions.len(), 3);
            assert!(report.cohort.windows(2).all(|w| w[0] < w[1]));
            assert!(report.cohort.iter().all(|&id| id < n));
            for &id in &report.cohort {
                seen[id] = true;
            }
            let touched = seen.iter().filter(|&&s| s).count();
            assert_eq!(sim.resident_clients(), touched);
        }
        assert!(seen.iter().all(|&s| s), "sampler starves some clients");
    }

    /// Cohort-sampled rounds are bit-identical for every worker count,
    /// probes included — parallelism stays a pure wall-clock knob under
    /// partial participation.
    #[test]
    fn sampled_cohort_runs_are_identical_across_worker_counts() {
        let build = |parallelism| {
            tiny_sim(Box::new(FabTopK::new()), 27, |c, _| {
                c.parallelism = parallelism;
                c.cohort = Some(3);
            })
        };
        let mut serial = build(Parallelism::Serial);
        let mut runs: Vec<Simulation> = [2, 4, 8].map(|t| build(Parallelism::Threads(t))).into();
        for round in 0..6 {
            let probe = (round % 2 == 0).then_some(4);
            let reference = serial.run_round(8, probe);
            for sim in &mut runs {
                assert_eq!(sim.run_round(8, probe), reference, "round {round}");
            }
        }
        for sim in &runs {
            assert_eq!(sim.params(), serial.params());
        }
    }

    /// Wired, fault-injected cohort rounds keep the same determinism
    /// contract: byte pricing, retries, and outages are all decided by the
    /// serially drawn plan, never the worker schedule.
    #[test]
    fn wired_fault_cohort_runs_are_identical_across_worker_counts() {
        let build = |parallelism| {
            tiny_sim(Box::new(FubTopK::new()), 29, |c, n| {
                c.parallelism = parallelism;
                c.wire = uniform_wire(CodecSpec::Auto, n);
                c.fault = Some(chaos_model(29));
                c.cohort = Some(3);
            })
        };
        let mut serial = build(Parallelism::Serial);
        let mut parallel = build(Parallelism::Threads(4));
        for round in 0..8 {
            let rs = serial.run_round(8, None);
            let rp = parallel.run_round(8, None);
            assert_eq!(rs, rp, "round {round}");
        }
        assert_eq!(serial.params(), parallel.params());
    }

    /// The distinct-members check is a `debug_assert`, so its test and
    /// imports exist only where it does.
    #[cfg(debug_assertions)]
    mod debug {
        use super::super::bind_members;
        use crate::client::Client;
        use crate::fixture::tiny_sim;
        use crate::population::ClientPopulation;
        use agsfl_sparse::FabTopK;

        /// Binding one client to two arena entries trips the
        /// distinct-members check before either entry swaps its state.
        #[test]
        #[should_panic(expected = "cohort members are not distinct")]
        fn binding_one_client_to_two_slots_panics() {
            let sim = tiny_sim(Box::new(FabTopK::new()), 23, |_, _| {});
            let mut population = ClientPopulation::new();
            let mut members: Vec<Client> =
                (0..2).map(|_| Client::placeholder(sim.dim(), 4)).collect();
            let source = sim.shared.source.as_ref();
            bind_members(source, &[1, 1], None, &mut population, &mut members);
        }
    }
}
