//! Stage (1), the client pass: Lines 4–6 of Algorithm 1 on the pool, and the
//! server's admission of each finished upload on the round thread.

use agsfl_sparse::{SelectionScratch, UploadPlan};
use agsfl_telemetry::{stage, Recorder, SpanId};
use agsfl_wire::decode_frame;
use std::time::Instant;

use crate::client::{Client, WorkerNs};
use crate::fault::{corrupt_frame, FaultModel, FaultRoundReport};
use crate::population::Cohort;
use crate::simulation::Shared;
use crate::wire_state::WireState;

/// The fused client pass and the server's admission of its output, as the
/// two ends of one pipeline over the cohort's members. Returns the weighted
/// training loss, the uplink phase and — with a fault model — the round's
/// fault accounting.
///
/// The *producer* runs on the pool, one call per cohort member, and
/// finishes the member's upload: a first-timer's fresh state, then local
/// gradient computation (Line 4: batch indices, then just those rows from
/// the source) immediately followed by building the uplink message (Line
/// 6) in index order, so each member's residual is still hot in cache when
/// its top-k runs. Byte-priced, that message is encoded into the member's
/// frame and the frame decoded once (`Client::decode_upload`): the decoded
/// list is what the server aggregates, and the entries the codec changed
/// are the member's quantization errors. Both paths end with one rank of
/// the upload's index-ordered keys into the member's ranked view when the
/// plan ranks. Each member owns its RNG and sampler and writes only into
/// its own reused buffers, so the pass is bit-identical to the sequential
/// loop and allocation-free in steady state. When the recorder is enabled
/// the producer leaves its gradient, selection, encode, decode and rank
/// times in the member for admission to sum; the producer returns nothing,
/// so the pipeline's per-chunk result lists stay zero-sized and never
/// allocate on a worker.
///
/// The *consumer* is the admission step, run on this thread in strict
/// cohort order as uploads complete, and it only decides each member's fate
/// from its pre-drawn plan and its own finished frame: offline and dropped
/// members are tallied; a transmitting member's uplink is priced on its own
/// link (straggler slowdown included), every planned corruption is replayed
/// through the *real* validated decoder (the `WireError` path), and
/// retries, backoff and the round deadline are applied. A delivered
/// upload's entry and ranked buffers are swapped into the next aggregation
/// input, and the server adds it into the round's sums right there
/// ([`SelectionScratch::accumulate`], begun at the model's dimension before
/// the pass): the consumer sees every delivered upload, in cohort order,
/// while the workers finish the rest, so a dropped, corrupt-lost, late or
/// offline member's entries never enter the sums and selection only picks
/// `J` and gathers. A damaged frame that happens to decode is still treated
/// as detected-corrupt — the link-layer checksum stand-in — so corruption
/// delays rounds but can never skew the trajectory. The in-order consumer
/// is what keeps the loss reduction, the uplink-phase fold, the upload list
/// and every coordinate's sum bit-identical to the sequential loop; a clean
/// round is the case where every plan is
/// [`ClientFaultPlan::clean`](crate::fault::ClientFaultPlan::clean).
///
/// [`SpanId::WireFault`] (admission's time on this thread) and the worker
/// spans — [`SpanId::ClientGradient`], [`SpanId::ClientSelect`],
/// [`SpanId::ClientEncode`], [`SpanId::ServerDecode`] (decode + rank) and
/// [`SpanId::ClientRank`] (nested in the decode span on a wired round),
/// each summed over the members — nest in [`SpanId::ClientPass`].
pub(crate) fn client_pass<R: Recorder>(
    rec: &mut R,
    shared: &Shared,
    round_idx: usize,
    k: usize,
    upload_plan: &UploadPlan,
    wire: Option<&WireState>,
    cohort: &mut Cohort,
    scratch: &mut SelectionScratch,
) -> (f64, f64, Option<FaultRoundReport>) {
    let (model, params) = (shared.model.as_ref(), &shared.params[..]);
    let (source, dim) = (shared.source.as_ref(), params.len());
    let seed = shared.config.seed.wrapping_add(1).wrapping_mul(0x9E37_79B9);
    let rank = matches!(upload_plan, UploadPlan::TopKOwn);
    let clock = rec.enabled();
    let produce = |member: &mut Client| {
        // Derive a first-timer's persistent state from `(seed, id)`: a
        // pure function writing only into this member, so it runs on the
        // pool.
        let id = member.id();
        if !member.hydrated {
            let client_seed = seed.wrapping_add(id as u64);
            member.state.reset(client_seed, dim, source.shard_len(id));
        }
        if member.plan.offline {
            // Mid-outage: no compute, no upload, and none of the member's
            // streams advance, so recovery resumes them at exactly the
            // position an always-online run never left. The probe still
            // evaluates the sample index of the member's last online
            // round, so that one row is fetched.
            member.fetch_probe_sample(source);
            return;
        }
        // Line 4: the batch indices are drawn first and only those rows of
        // the member's shard are fetched from the source.
        let elapsed = |t: Option<Instant>| t.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let t_gradient = clock.then(Instant::now);
        member.loss = member.compute_local_gradient(source, model, params);
        let gradient = elapsed(t_gradient);
        let t_select = clock.then(Instant::now);
        member.build_upload(upload_plan, k);
        let select = elapsed(t_select);
        // Byte-priced, the decode and the rank after it are the decode
        // span; the rank is its own span too, wired or not.
        let (mut encode, mut t_decode) = (0, None);
        if let Some(w) = wire {
            // The quantization stream is keyed on frame content, not on the
            // worker schedule, so encoding here is per-member work too.
            let t_encode = clock.then(Instant::now);
            member.encode_upload(w.codec, dim);
            encode = elapsed(t_encode);
            t_decode = clock.then(Instant::now);
            member.decode_upload(rank);
        }
        let t_rank = clock.then(Instant::now);
        member.rank_upload(rank);
        let rank = elapsed(t_rank);
        member.worker_ns = WorkerNs {
            gradient,
            select,
            encode,
            decode: elapsed(t_decode),
            rank,
        };
    };

    let no_faults = FaultModel::default();
    let fault = shared.config.fault.as_ref();
    let fmodel = fault.unwrap_or(&no_faults);
    let max_attempts = fmodel.max_retries + 1;
    cohort.survivors.clear();
    scratch.begin(dim);
    let mut train_loss = 0.0f64;
    let mut uplink_phase = 0.0f64;
    let mut fr = FaultRoundReport::default();
    let mut damaged_entries: Vec<(usize, f32)> = Vec::new();
    // The nested spans accumulate here, one sample per round: the wire
    // faults on this thread, the worker spans as each member reports them.
    let (mut wire_fault_ns, mut worker_ns) = (0u64, WorkerNs::default());
    let admit = |pos: usize, member: &mut Client, ()| {
        worker_ns += std::mem::take(&mut member.worker_ns);
        member.delivered = false;
        let (id, p) = (member.id(), &member.plan);
        if p.offline {
            fr.offline += 1;
            return;
        }
        train_loss += member.weight() * member.loss as f64;
        if p.dropped {
            // Upload lost in transit, no retry. The computed gradient stays
            // in the member's residual accumulator (no reset will target
            // it), so error feedback re-sends the mass later.
            fr.dropped += 1;
            return;
        }
        if let Some(wire) = wire {
            let t_fault = clock.then(Instant::now);
            fr.stragglers += usize::from(p.slowdown > 1.0);
            let frame = member.frame();
            let attempt_time =
                wire.channel
                    .uplink_time_scaled(round_idx, id, frame.len(), p.slowdown);
            for &corruption in &p.corruptions {
                let _ = decode_frame(&corrupt_frame(frame, corruption), &mut damaged_entries);
            }
            fr.corrupt_frames += p.corruptions.len();
            let failures = p.corruptions.len();
            let lost = failures >= max_attempts;
            let attempts_made = if lost { max_attempts } else { failures + 1 };
            fr.retries += attempts_made - 1;
            fr.retransmitted_bytes += frame.len() as u64 * (attempts_made - 1) as u64;
            let total_time = attempt_time * attempts_made as f64
                + fmodel.retry_backoff * (attempts_made - 1) as f64;
            let late = !lost && fmodel.deadline.is_some_and(|d| total_time > d);
            fr.corrupt_lost += usize::from(lost);
            fr.deadline_dropped += usize::from(late);
            if !late {
                // The server listened through every attempt — a
                // corrupt-lost member's futile ones included — so the time
                // counts toward the uplink phase.
                uplink_phase = uplink_phase.max(total_time);
            }
            wire_fault_ns += t_fault.map_or(0, |t| t.elapsed().as_nanos() as u64);
            if lost || late {
                return;
            }
        }
        // Delivered: the member lends its finished entry list and ranked
        // view to the next aggregation input, which held empty buffers
        // (bookkeeping swaps them back), and the server adds it in.
        let upload = &mut cohort.uploads[cohort.survivors.len()];
        upload.client = id;
        upload.weight = member.weight();
        std::mem::swap(&mut upload.entries, &mut member.entries);
        std::mem::swap(&mut upload.ranked, &mut member.ranked);
        scratch.accumulate(upload);
        member.delivered = true;
        cohort.survivors.push(pos);
    };
    stage(rec, SpanId::ClientPass, || {
        shared
            .executor
            .pipeline_mut(&mut cohort.members, produce, admit)
    });
    if clock {
        rec.span(SpanId::WireFault, wire_fault_ns);
        rec.span(SpanId::ClientGradient, worker_ns.gradient);
        rec.span(SpanId::ClientSelect, worker_ns.select);
        rec.span(SpanId::ClientEncode, worker_ns.encode);
        rec.span(SpanId::ServerDecode, worker_ns.decode);
        rec.span(SpanId::ClientRank, worker_ns.rank);
    }
    fr.survivors = cohort.survivors.len();
    #[cfg(test)]
    crate::fixture::assert_upload_contract(cohort.delivered(), rank);
    // The uplink phase is the slowest delivery the server actually waited
    // out — retries, backoff and straggler slowdown included, corrupt-lost
    // members' futile attempts included — capped at the deadline, which the
    // server waits out in full whenever anyone is missing.
    let uplink_phase = match fmodel.deadline {
        Some(d) if fr.lost() > 0 => d,
        _ => uplink_phase,
    };
    (train_loss, uplink_phase, fault.map(|_| fr))
}

#[cfg(test)]
mod tests {
    use crate::fixture::{
        assert_uploads_hold_nothing, chaos_model, tiny_sim, uniform_wire, LAST_SELECTION,
        RANKED_CHECKS, SPARSIFIERS,
    };
    use crate::{
        ChannelModel, ClientLink, FaultModel, FaultRoundReport, Parallelism, RoundReport,
        WireConfig,
    };
    use agsfl_sparse::{reference, FabTopK, PeriodicK, SendAll, SparseGradient, Sparsifier};

    /// A gradient's entries, values as their bits.
    fn bits(gradient: &SparseGradient) -> Vec<(usize, u32)> {
        let entries = gradient.entries().iter();
        entries.map(|&(j, v)| (j, v.to_bits())).collect()
    }
    use agsfl_wire::CodecSpec;
    use std::cell::Cell;

    /// Every plan (ranked top-k, coordinates, dense), unwired and through
    /// every lossless and lossy codec, then wired under chaos: each
    /// delivered upload is index-ordered and carries its own magnitude rank
    /// (checked inside every client pass by `fixture::assert_upload_contract`),
    /// and after bookkeeping the uploads hold nothing while each member owns
    /// its buffers again — the ranked one only under the ranked plan.
    #[test]
    fn delivered_uploads_are_index_ordered_and_slots_own_their_buffers() {
        let sparsifiers: [fn() -> Box<dyn Sparsifier>; 3] = [
            || Box::new(FabTopK::new()),
            || Box::new(PeriodicK::new()),
            || Box::new(SendAll::new()),
        ];
        let codecs = [None]
            .into_iter()
            .chain(CodecSpec::all().into_iter().map(Some))
            .chain(CodecSpec::lossy().into_iter().map(Some));
        let before = RANKED_CHECKS.with(Cell::get);
        for codec in codecs {
            for (which, make) in sparsifiers.iter().enumerate() {
                let mut sim = tiny_sim(make(), 5, |c, n| {
                    c.parallelism = Parallelism::Threads(2);
                    c.wire = codec.and_then(|spec| uniform_wire(spec, n));
                });
                let k = sim.dim() / 5;
                for round in 0..3 {
                    sim.run_round(k, (round == 1).then_some(k / 2));
                    assert_uploads_hold_nothing(&sim);
                    for member in &sim.cohort.members {
                        assert!(member.entries.capacity() > 0, "{codec:?}, plan {which}");
                        let ranks = which == 0;
                        assert_eq!(member.ranked.capacity() > 0, ranks, "{codec:?}");
                    }
                }
            }
        }
        assert!(
            RANKED_CHECKS.with(Cell::get) > before,
            "the client pass checked the ranked views"
        );
        // Lost and late members keep their buffers; delivered ones lend and
        // get theirs back.
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 5, |c, n| {
            c.parallelism = Parallelism::Threads(2);
            c.wire = uniform_wire(CodecSpec::Auto, n);
            c.fault = Some(chaos_model(13));
        });
        let k = sim.dim() / 5;
        for _ in 0..6 {
            sim.run_round(k, Some(k / 2));
            assert_uploads_hold_nothing(&sim);
        }
    }

    /// The server sums only what it was delivered. Under chaos — drops,
    /// outages, corrupt-lost frames and a deadline — for every sparsifier,
    /// every round: the aggregate the engine selected from its admitted
    /// sums equals an independent `select_into` over the delivered uploads,
    /// bit for bit; those uploads are exactly the members admission
    /// delivered; each delivered member's contribution is the spec's
    /// `|J ∩ J_i|` and its residual is reset there and nowhere else; and a
    /// member that computed an upload the server never received keeps all
    /// of its mass.
    #[test]
    fn only_delivered_uploads_are_summed() {
        let mut lost_any = false;
        for (which, make) in SPARSIFIERS.into_iter().enumerate() {
            let mut sim = tiny_sim(make(), 40 + which as u64, |c, n| {
                c.parallelism = Parallelism::Threads(2);
                c.wire = uniform_wire(CodecSpec::Auto, n);
                c.fault = Some(chaos_model(11));
            });
            let (dim, k) = (sim.dim(), sim.dim() / 6);
            for round in 0..8 {
                let report = sim.run_round(k, (round % 2 == 0).then_some(k / 2));
                let (delivered, selection) = LAST_SELECTION
                    .with(|last| last.borrow_mut().take())
                    .expect("the round recorded its selection");
                let fault = report.fault.as_ref().expect("fault accounting attached");
                assert_eq!(delivered.len(), fault.survivors, "round {round}");
                let spec = make().select(&delivered, dim, k);
                assert_eq!(
                    bits(&selection.aggregated),
                    bits(&spec.aggregated),
                    "sparsifier {which}, round {round}"
                );
                let j: Vec<usize> = spec.aggregated.indices().collect();
                let (_, spec_resets) = reference::aggregate_selected(&delivered, &j, dim);
                let mut spec_contributions = vec![0; report.cohort.len()];
                let mut uploads = delivered.iter().zip(&spec_resets);
                for (pos, member) in sim.cohort.members.iter().enumerate() {
                    let id = member.id();
                    let residual = || sim.population[&id].residual.as_slice();
                    if member.delivered {
                        let (upload, resets) = uploads.next().expect("one upload per delivery");
                        assert_eq!((upload.client, &upload.entries), (id, &member.entries));
                        spec_contributions[pos] = resets.len();
                        for &(j, v) in &upload.entries {
                            let reset = resets.contains(&j);
                            assert_eq!(residual()[j] == 0.0, reset || v == 0.0, "client {id}, {j}");
                        }
                    } else if !member.plan.offline {
                        // Computed, never received: nothing was reset.
                        lost_any = true;
                        for &(j, v) in &member.entries {
                            assert_eq!(residual()[j], v, "client {id} lost mass at {j}");
                        }
                    }
                }
                assert!(uploads.next().is_none(), "round {round}");
                assert_eq!(report.contributions, spec_contributions, "round {round}");
            }
        }
        assert!(
            lost_any,
            "chaos rates should lose at least one computed upload"
        );
    }

    /// The byte-priced path must not perturb training by a single bit: the
    /// codecs are lossless, so decode reproduces every upload and its rank, so
    /// a wired and an un-wired run of the same seed walk the identical
    /// trajectory — only the cost signal (round_time, wire report) differs.
    #[test]
    fn wire_path_keeps_training_bit_identical() {
        for (which, make) in SPARSIFIERS.into_iter().enumerate() {
            let seed = 70 + which as u64;
            let mut plain = tiny_sim(make(), seed, |_, _| {});
            let mut wired = tiny_sim(make(), seed, |c, n| {
                c.wire = uniform_wire(CodecSpec::Auto, n)
            });
            let k = plain.dim() / 6;
            for round in 0..3 {
                let probe = if round == 1 { Some(k / 2) } else { None };
                let rp = plain.run_round(k, probe);
                let rw = wired.run_round(k, probe);
                assert_eq!(rp.train_loss, rw.train_loss, "sparsifier {which}");
                assert_eq!(rp.contributions, rw.contributions, "sparsifier {which}");
                assert_eq!(rp.downlink_elements, rw.downlink_elements);
                let wire = rw.wire.expect("wire report present");
                assert_eq!(wire.uplink_bytes.len(), wired.num_clients());
                assert!(wire.downlink_bytes > 0);
                assert!(
                    rw.round_time > wired.config().wire.as_ref().unwrap().channel.compute_time()
                );
            }
            assert_eq!(
                plain.params(),
                wired.params(),
                "weights diverged for sparsifier {which}"
            );
        }
    }

    /// Acceptance invariant: byte-priced simulations stay serial-vs-parallel
    /// identical (full round reports, wire accounting included) across
    /// 1–8 workers.
    #[test]
    fn wire_serial_and_parallel_runs_are_identical() {
        let build = |parallelism| {
            tiny_sim(Box::new(FabTopK::new()), 90, |c, n| {
                c.parallelism = parallelism;
                c.wire = uniform_wire(CodecSpec::Auto, n);
            })
        };
        for threads in [2usize, 3, 5, 8] {
            let mut serial = build(Parallelism::Serial);
            let mut parallel = build(Parallelism::Threads(threads));
            let k = serial.dim() / 6;
            for round in 0..3 {
                let probe = if round % 2 == 0 { Some(k / 2) } else { None };
                let rs = serial.run_round(k, probe);
                let rp = parallel.run_round(k, probe);
                assert_eq!(rs, rp, "threads={threads}, round={round}");
            }
            assert_eq!(serial.params(), parallel.params(), "threads={threads}");
        }
    }

    /// A fault model with every rate at zero must not perturb a single bit
    /// of the run — same reports (modulo the attached all-zero fault
    /// accounting), same weights — wired or not.
    #[test]
    fn zero_rate_fault_model_is_bit_identical_to_no_fault() {
        for wire in [false, true] {
            let build = |fault: Option<FaultModel>| {
                tiny_sim(Box::new(FabTopK::new()), 105, |c, n| {
                    c.wire = uniform_wire(CodecSpec::Auto, n).filter(|_| wire);
                    c.fault = fault;
                })
            };
            let mut plain = build(None);
            let mut faulted = build(Some(FaultModel::default()));
            let k = plain.dim() / 6;
            let n = plain.num_clients();
            for round in 0..4 {
                let probe = (round % 2 == 0).then_some(k / 2);
                let rp = plain.run_round(k, probe);
                let rf = faulted.run_round(k, probe);
                assert_eq!(
                    rf.fault.expect("fault accounting attached"),
                    FaultRoundReport {
                        survivors: n,
                        ..FaultRoundReport::default()
                    },
                    "wired={wire}, round={round}"
                );
                let stripped = RoundReport { fault: None, ..rf };
                assert_eq!(rp, stripped, "wired={wire}, round={round}");
            }
            assert_eq!(plain.params(), faulted.params(), "wired={wire}");
        }
    }

    /// Acceptance invariant: no fault configuration aborts a round. Chaos
    /// at high rates — dropouts, crashes, stragglers, corruption with
    /// retries, and a deadline all at once — still yields a completed run
    /// with coherent survivor accounting every round.
    #[test]
    fn faults_never_abort_a_round() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 106, |c, n| {
            c.wire = uniform_wire(CodecSpec::Auto, n);
            c.fault = Some(chaos_model(7));
        });
        let n = sim.num_clients();
        let k = sim.dim() / 6;
        let mut lost_any = false;
        for round in 0..8 {
            let probe = (round % 2 == 0).then_some(k / 2);
            let report = sim.run_round(k, probe);
            let fault = report.fault.expect("fault accounting attached");
            assert_eq!(fault.survivors + fault.lost(), n, "round {round}");
            assert_eq!(
                fault.corrupt_frames,
                fault.retries + fault.corrupt_lost,
                "round {round}: every corrupt frame is a retry or part of an exhausted client"
            );
            assert!(report.round_time.is_finite() && report.round_time > 0.0);
            assert_eq!(report.contributions.len(), n);
            lost_any |= fault.lost() > 0;
        }
        assert!(lost_any, "chaos rates should lose at least one upload");
    }

    /// Even a total blackout (every upload lost, zero survivors) completes
    /// rounds gracefully: empty aggregate, zero contributions, no panic.
    #[test]
    fn total_blackout_still_completes_rounds() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 107, |c, n| {
            c.wire = uniform_wire(CodecSpec::Auto, n);
            c.fault = Some(FaultModel {
                drop_prob: 1.0,
                seed: 1,
                ..FaultModel::default()
            });
        });
        let before = sim.params().to_vec();
        for _ in 0..3 {
            let report = sim.run_round(sim.dim() / 6, None);
            let fault = report.fault.expect("fault accounting attached");
            assert_eq!(fault.survivors, 0);
            assert_eq!(fault.dropped, sim.num_clients());
            assert!(report.contributions.iter().all(|&c| c == 0));
        }
        // Nothing was aggregated, so the weights never moved; the updates
        // wait in the residual accumulators.
        assert_eq!(sim.params(), &before[..]);
    }

    /// Fault injection preserves the serial-vs-parallel identity: the plan,
    /// drawn serially before the parallel client pass, decides every fault.
    #[test]
    fn faulty_serial_and_parallel_runs_are_identical() {
        let build = |parallelism| {
            tiny_sim(Box::new(FabTopK::new()), 108, |c, n| {
                c.parallelism = parallelism;
                c.wire = uniform_wire(CodecSpec::Auto, n);
                c.fault = Some(chaos_model(9));
            })
        };
        for threads in [2usize, 4, 8] {
            let mut serial = build(Parallelism::Serial);
            let mut parallel = build(Parallelism::Threads(threads));
            let k = serial.dim() / 6;
            for round in 0..5 {
                let probe = (round % 2 == 0).then_some(k / 2);
                let rs = serial.run_round(k, probe);
                let rp = parallel.run_round(k, probe);
                assert_eq!(rs, rp, "threads={threads}, round={round}");
            }
            assert_eq!(serial.params(), parallel.params(), "threads={threads}");
        }
    }

    /// A deadline drops the client whose uplink cannot finish in time, caps
    /// the uplink phase at the deadline, and leaves the fast clients'
    /// aggregation intact.
    #[test]
    fn deadline_drops_slow_clients_and_caps_the_phase() {
        let mut sim = tiny_sim(Box::new(FabTopK::new()), 160, |c, n| {
            let mut links = vec![ClientLink::new(10_000.0, 10_000.0, 0.0); n];
            links[0] = ClientLink::new(10.0, 10_000.0, 0.0); // crawling uplink
            c.wire = Some(WireConfig {
                codec: CodecSpec::Auto,
                channel: ChannelModel::new(1.0, links),
            });
            c.fault = Some(FaultModel {
                deadline: Some(5.0),
                seed: 2,
                ..FaultModel::default()
            });
        });
        let n = sim.num_clients();
        let report = sim.run_round(sim.dim() / 6, None);
        let fault = report.fault.expect("fault accounting attached");
        assert_eq!(fault.deadline_dropped, 1);
        assert_eq!(fault.survivors, n - 1);
        assert_eq!(report.contributions[0], 0);
        // compute (1.0) + deadline (5.0) + a fast broadcast.
        assert!(
            report.round_time > 6.0 && report.round_time < 7.0,
            "phase not capped at the deadline: {}",
            report.round_time
        );
    }

    /// Stragglers slow the round they straggle in but never touch the
    /// training trajectory — the slowdown only scales link timing.
    #[test]
    fn stragglers_slow_the_round_but_not_training() {
        let build = |fault: FaultModel| {
            tiny_sim(Box::new(FabTopK::new()), 161, |c, n| {
                c.wire = uniform_wire(CodecSpec::Auto, n);
                c.fault = Some(fault);
            })
        };
        let mut clean = build(FaultModel {
            seed: 3,
            ..FaultModel::default()
        });
        let mut straggly = build(FaultModel {
            straggle_prob: 1.0,
            straggle_factor: 10.0,
            seed: 3,
            ..FaultModel::default()
        });
        let k = clean.dim() / 6;
        let n = clean.num_clients();
        for _ in 0..3 {
            let rc = clean.run_round(k, None);
            let rs = straggly.run_round(k, None);
            assert!(rs.round_time > rc.round_time);
            assert_eq!(rc.train_loss, rs.train_loss);
            assert_eq!(rs.fault.unwrap().stragglers, n);
        }
        assert_eq!(clean.params(), straggly.params());
    }

    /// The worker sub-spans of the client pass: one sample per round each
    /// for the members' gradients, upload selections, encodes and ranks,
    /// worker time summed over the members — positive (the encode only on
    /// a wired run), and at most the pass's wall time on every worker; the
    /// rank nested in the decode + rank span on a wired run — and
    /// recording them moves nothing.
    #[test]
    fn client_gradient_and_select_spans_are_worker_time_per_round() {
        use agsfl_telemetry::{SpanId, StageRecorder};
        for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
            for wired in [false, true] {
                let build = || {
                    tiny_sim(Box::new(FabTopK::new()), 9, |c, n| {
                        c.parallelism = parallelism;
                        c.wire = wired
                            .then(|| uniform_wire(CodecSpec::DeltaVarint, n))
                            .flatten();
                    })
                };
                let (mut recorded, mut plain) = (build(), build());
                let k = recorded.dim() / 5;
                let mut rec = StageRecorder::new();
                for _ in 0..4 {
                    rec.begin_round();
                    recorded.run_round_recorded(k, None, &mut rec);
                    plain.run_round(k, None);
                }
                let case = format!("{parallelism:?}, wired {wired}");
                assert_eq!(recorded.params(), plain.params(), "{case}");
                let client_pass = rec.span_histogram(SpanId::ClientPass).sum();
                for id in [
                    SpanId::ClientGradient,
                    SpanId::ClientSelect,
                    SpanId::ClientEncode,
                    SpanId::ClientRank,
                ] {
                    let span = rec.span_histogram(id);
                    assert_eq!(span.count(), 4, "{id:?}, {case}");
                    let timed = wired || id != SpanId::ClientEncode;
                    assert_eq!(span.sum() > 0, timed, "{id:?}, {case}");
                    assert!(
                        span.sum() <= client_pass * parallelism.resolve() as u64,
                        "{id:?} exceeds the client pass on every worker ({case})"
                    );
                }
                // On a wired round the rank nests in the decode span.
                let decode = rec.span_histogram(SpanId::ServerDecode).sum();
                let rank = rec.span_histogram(SpanId::ClientRank).sum();
                assert_eq!(decode >= rank && decode > 0, wired, "{case}");
            }
        }
    }
}
