//! The probe stage: the derivative-sign estimator's three losses and the
//! hypothetical round's time (Section IV-E).

use agsfl_sparse::{SelectionResult, SelectionScratch, SparseGradient, Sparsifier};

use crate::population::Cohort;
use crate::round::ProbeReport;
use crate::simulation::Shared;
use crate::wire_state::WireState;

/// The probe's reused buffers: the hypothetical weight vectors — `w(m)`
/// after the round's own update and `w'(m)` after the `k'`-element one —
/// refilled from the weights each probing round (empty until the first
/// probe, and `w_probe` until the first probe whose aggregate is not the
/// round's), and the order keys for index-sorting the ranked prefixes the
/// probe prices (`WireScratch::encoded_len_prefix`).
#[derive(Default)]
pub(crate) struct ProbeWorkspace {
    w_now: Vec<f32>,
    w_probe: Vec<f32>,
    pub rank_keys: Vec<u64>,
}

/// When a probe is asked for (`probe_k`), the losses `L̃(w(m-1))`,
/// `L̃(w(m))`, `L̃(w'(m))` of the derivative-sign estimator, where `w'(m)`
/// is the weights after the hypothetical `probe_k`-element update, and the
/// time that round would have taken.
///
/// The server reads the uploads once per round: the hypothetical aggregate
/// is [`Sparsifier::probe_aggregate`] — the round's own
/// `selection.aggregated` restricted to `J(k')`, with an independent
/// `select_into` only for `probe_k > k` — and when it *is* the round's
/// aggregate (`k' = k`, or a sparsifier that ignores `k`) `w'(m) = w(m)` is
/// neither built nor evaluated. On the byte-priced path the hypothetical
/// `θ_m(k')` is priced through the channel model, as a clean round of the
/// members that delivered.
///
/// Every `#[cfg(test)]` build re-derives the report the way it was computed
/// while the server still selected twice a round
/// (`fixture::probe_by_second_selection`) and asserts equal bits.
pub(crate) fn probe(
    shared: &Shared,
    sparsifier: &dyn Sparsifier,
    round_idx: usize,
    k: usize,
    probe_k: Option<usize>,
    selection: &SelectionResult,
    cohort: &Cohort,
    scratch: &mut SelectionScratch,
    workspace: &mut ProbeWorkspace,
    mut wire: Option<&mut WireState>,
) -> Option<ProbeReport> {
    let (model, params) = (shared.model.as_ref(), &shared.params[..]);
    let dim = params.len();
    let probe_k = probe_k?.clamp(1, dim);
    let (slots, delivered) = (&cohort.slots, cohort.delivered());
    let probe_aggregate =
        sparsifier.probe_aggregate(delivered, dim, k, selection, probe_k, scratch);
    let lr = shared.config.learning_rate;
    let refill = |w: &mut Vec<f32>, aggregate: &SparseGradient| {
        w.clear();
        w.extend_from_slice(params);
        aggregate.apply_sgd(w, lr);
    };
    refill(&mut workspace.w_now, &selection.aggregated);

    // One pass per cohort slot (every hydrated member, offline ones
    // included — their stale probe sample is exactly what an all-client
    // sweep evaluates): the probe sample is fetched once and the weight
    // vectors evaluated together. The per-member results come back in
    // cohort order, so the serial reduction below accumulates exactly as a
    // sequential loop would.
    let losses: Vec<Option<[f32; 3]>> = match &probe_aggregate {
        Some(aggregate) => {
            refill(&mut workspace.w_probe, aggregate);
            let (w_now, w_probe) = (&workspace.w_now, &workspace.w_probe);
            shared.executor.map_ref(slots, |slot| {
                slot.client.probe_losses(model, [params, w_now, w_probe])
            })
        }
        None => shared.executor.map_ref(slots, |slot| {
            let losses = slot.client.probe_losses(model, [params, &workspace.w_now]);
            losses.map(|[prev, now]| [prev, now, now])
        }),
    };
    let (mut sums, mut count) = ([0.0f64; 3], 0usize);
    for member in losses.into_iter().flatten() {
        for (sum, loss) in sums.iter_mut().zip(member) {
            *sum += loss as f64;
        }
        count += 1;
    }
    let n = count.max(1) as f64;
    let report = ProbeReport {
        probe_k,
        loss_prev: sums[0] / n,
        loss_now: sums[1] / n,
        loss_probe: sums[2] / n,
        probe_round_time: match &mut wire {
            Some(wire) => wire.probe_round_time(
                round_idx,
                probe_k,
                delivered,
                |pos| slots[cohort.survivors[pos]].frame.len(),
                probe_aggregate.as_ref().unwrap_or(&selection.aggregated),
                &mut workspace.rank_keys,
            ),
            None => shared.config.time_model.sparse_round_time(dim, probe_k),
        },
    };
    #[cfg(test)]
    {
        use crate::fixture::{probe_bits, probe_by_second_selection};
        let spec = probe_by_second_selection(
            shared,
            sparsifier,
            round_idx,
            probe_k,
            selection,
            delivered,
            slots,
            wire.as_deref(),
        );
        assert_eq!(
            probe_bits(&report),
            probe_bits(&spec),
            "the probe must report what a second selection at k' reports (k = {k})"
        );
    }
    Some(report)
}

#[cfg(test)]
mod tests {
    use crate::fixture::{chaos_model, tiny_sim, uniform_wire, SPARSIFIERS};
    use crate::{Parallelism, Simulation, SimulationConfig, TimeModel};
    use agsfl_sparse::FabTopK;
    use agsfl_wire::CodecSpec;

    type Tweak = fn(&mut SimulationConfig, usize);

    /// Scalar-priced, lossless wired, the QLinear8 lossy tier, and wired
    /// under chaos.
    const EXCHANGES: [(&str, Tweak); 4] = [
        ("unwired", |_, _| {}),
        ("lossless", |c, n| {
            c.wire = uniform_wire(CodecSpec::DeltaVarint, n)
        }),
        ("qlinear8", |c, n| {
            c.wire = uniform_wire(CodecSpec::QLinear8, n)
        }),
        ("faulty", |c, n| {
            c.wire = uniform_wire(CodecSpec::Auto, n);
            c.fault = Some(chaos_model(9));
        }),
    ];

    /// Every sparsifier under every exchange, probing below `k`, at `k`,
    /// one above it (a rounded `k'` above the stochastic draw, served by
    /// the independent selection) and far above anything selected. The
    /// probe stage compares each report, bit for bit, with
    /// `fixture::probe_by_second_selection`; this test supplies the rounds
    /// and checks the comparison really ran on both sides of `k' <= k`.
    #[test]
    fn probe_reports_what_a_second_selection_reports() {
        for (exchange, tweak) in EXCHANGES {
            for sparsifier in SPARSIFIERS {
                let mut sim: Simulation = tiny_sim(sparsifier(), 3, |c, n| {
                    c.parallelism = Parallelism::Threads(2);
                    tweak(c, n);
                });
                let dim = sim.dim();
                let k = dim / 8;
                for probe_k in [1, k / 2, k - 1, k, k + 1, dim, k / 3, 2 * k] {
                    let report = sim.run_round(k, Some(probe_k));
                    let probe = report.probe.expect("a probe was asked for");
                    assert_eq!(probe.probe_k, probe_k, "{exchange}");
                    assert!(probe.loss_probe.is_finite() && probe.probe_round_time > 0.0);
                    if probe_k == k {
                        assert_eq!(probe.loss_probe.to_bits(), probe.loss_now.to_bits());
                    }
                }
            }
        }
    }

    /// The probe is observation only: a run that probes every round,
    /// cycling `k'` through `k/2`, `k`, `k + 1` and `2k`, and one that never
    /// probes end with the same weights, clock and checkpoint bytes, and
    /// report the same rounds but for the probe — for every sparsifier,
    /// exchange and worker count. A round whose controller asks for no
    /// probe can therefore skip it.
    #[test]
    fn probing_never_changes_the_trajectory() {
        for (exchange, tweak) in EXCHANGES {
            for sparsifier in SPARSIFIERS {
                for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
                    let build = || {
                        tiny_sim(sparsifier(), 5, |c, n| {
                            c.parallelism = parallelism;
                            tweak(c, n);
                        })
                    };
                    let name = format!("{exchange} {} {parallelism:?}", sparsifier().name());
                    let (mut probed, mut plain) = (build(), build());
                    let k = probed.dim() / 8;
                    for probe_k in [k / 2, k, k + 1, 2 * k].repeat(2) {
                        let mut with_probe = probed.run_round(k, Some(probe_k));
                        assert!(with_probe.probe.take().is_some(), "{name}");
                        assert_eq!(with_probe, plain.run_round(k, None), "{name}");
                    }
                    assert_eq!(probed.params(), plain.params(), "{name}");
                    assert_eq!(
                        probed.elapsed_time().to_bits(),
                        plain.elapsed_time().to_bits(),
                        "{name}"
                    );
                    assert_eq!(probed.save_state(), plain.save_state(), "{name}");
                }
            }
        }
    }

    #[test]
    fn probe_report_is_produced_and_sensible() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 4, |c, _| {
            c.time_model = TimeModel::normalized(10.0)
        });
        let dim = sim.dim();
        let report = sim.run_round(dim / 4, Some(dim / 8));
        let probe = report.probe.expect("probe requested");
        assert_eq!(probe.probe_k, dim / 8);
        assert!(probe.loss_prev.is_finite() && probe.loss_prev > 0.0);
        assert!(probe.loss_now.is_finite());
        assert!(probe.loss_probe.is_finite());
        assert!(probe.probe_round_time < report.round_time);
    }
}
