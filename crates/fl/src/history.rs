//! Run histories: the time series the paper's figures plot.

use agsfl_tensor::stats::Ecdf;
use agsfl_wire::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use agsfl_wire::CodecId;
use serde::{Deserialize, Serialize};

use crate::fault::FaultRoundReport;
use crate::round::{RoundReport, WireRoundReport};

/// Run-level fault accounting: the per-round
/// [`FaultRoundReport`](crate::FaultRoundReport) counters summed over every
/// recorded round, plus the worst-case surviving cohort size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultTotals {
    /// Rounds recorded through [`RunHistory::record_fault`].
    pub rounds: u64,
    /// Client-rounds spent offline in crash outages.
    pub offline: u64,
    /// Uploads lost to Bernoulli dropout.
    pub dropped: u64,
    /// Straggler client-rounds (slowed uplink transmissions).
    pub stragglers: u64,
    /// Corrupted uplink frames observed (each failed validated decode).
    pub corrupt_frames: u64,
    /// Clients lost after exhausting retries on corrupted frames.
    pub corrupt_lost: u64,
    /// Clients dropped for exceeding the round deadline.
    pub deadline_dropped: u64,
    /// Extra uplink attempts beyond each client's first.
    pub retries: u64,
    /// Bytes re-transmitted by retry attempts.
    pub retransmitted_bytes: u64,
    /// Smallest surviving cohort aggregated in any recorded round; `None`
    /// until a fault round is recorded.
    pub min_survivors: Option<u64>,
}

impl FaultTotals {
    /// Total uploads lost to any fault over the run.
    pub fn lost(&self) -> u64 {
        self.offline + self.dropped + self.corrupt_lost + self.deadline_dropped
    }
}

/// One evaluated point of a training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricPoint {
    /// Round index `m`.
    pub round: usize,
    /// Cumulative normalized time at this point.
    pub elapsed_time: f64,
    /// Sparsity degree used in this round. A FedAvg run, which sends whole
    /// models, records the elements exchanged instead: `D` on a round that
    /// aggregated and 0 on one that did not.
    pub k: usize,
    /// Mini-batch training loss observed in this round.
    pub train_loss: f64,
    /// Global training loss `L(w)` (weighted over all client data), if it was
    /// evaluated at this point.
    pub global_loss: Option<f64>,
    /// Test-set accuracy, if it was evaluated at this point.
    pub test_accuracy: Option<f64>,
}

/// The full history of one training run, plus the per-client contribution
/// counters that back the fairness CDF of Fig. 4 (right).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunHistory {
    /// Human-readable label of the run (method name, comm time, …).
    pub label: String,
    points: Vec<MetricPoint>,
    contributions: Vec<u64>,
    /// Total uplink bytes over the run (0 unless byte-priced rounds were
    /// recorded through [`RunHistory::record_wire`]).
    uplink_bytes: u64,
    /// Total downlink bytes over the run.
    downlink_bytes: u64,
    /// Per-[`CodecId`] uplink frame counts (index = `CodecId as usize`);
    /// empty until a wire round is recorded.
    codec_counts: Vec<u64>,
    /// Summed fault counters (all-zero unless fault rounds were recorded
    /// through [`RunHistory::record_fault`]).
    fault: FaultTotals,
}

impl RunHistory {
    /// Creates an empty history with the given label and client count.
    pub fn new(label: impl Into<String>, num_clients: usize) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
            contributions: vec![0; num_clients],
            uplink_bytes: 0,
            downlink_bytes: 0,
            codec_counts: Vec::new(),
            fault: FaultTotals::default(),
        }
    }

    /// Appends an evaluated point.
    pub fn push(&mut self, point: MetricPoint) {
        self.points.push(point);
    }

    /// Adds a sampled-cohort round's contribution counts, scattering
    /// `per_member[i]` to global client `cohort[i]`. With a full-population
    /// cohort (`cohort == [0, 1, .., N-1]`) `per_member` is per-client.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or a member id is out of range.
    fn add_cohort_contributions(&mut self, cohort: &[usize], per_member: &[usize]) {
        assert_eq!(
            cohort.len(),
            per_member.len(),
            "cohort / contribution vector length mismatch"
        );
        for (&client, &c) in cohort.iter().zip(per_member.iter()) {
            self.contributions[client] += c as u64;
        }
    }

    /// The recorded points in chronological order.
    pub fn points(&self) -> &[MetricPoint] {
        &self.points
    }

    /// Mutable access to the most recent point, if any. Used by runners to
    /// fill in a final evaluation after their loop exits.
    pub fn last_point_mut(&mut self) -> Option<&mut MetricPoint> {
        self.points.last_mut()
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if no points have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total contributions per client accumulated over the run.
    pub fn contributions(&self) -> &[u64] {
        &self.contributions
    }

    /// Accumulates everything a [`RoundReport`] contributes to the run
    /// totals in one call: per-client contribution counts, the wire
    /// accounting when the round was byte-priced, and the fault tallies
    /// when a fault model was active ([`RunHistory::record_fault`]). This is
    /// the single bookkeeping entry point the runners use after every
    /// round, so no caller re-derives which sections are present.
    pub fn record_round(&mut self, report: &RoundReport) {
        self.add_cohort_contributions(&report.cohort, &report.contributions);
        if let Some(wire) = &report.wire {
            self.record_wire(wire);
        }
        if let Some(fault) = &report.fault {
            self.record_fault(fault);
        }
    }

    /// Accumulates a byte-priced round's wire accounting.
    fn record_wire(&mut self, wire: &WireRoundReport) {
        self.uplink_bytes += wire.uplink_bytes.iter().map(|&b| b as u64).sum::<u64>();
        self.downlink_bytes += wire.downlink_bytes as u64;
        if self.codec_counts.is_empty() {
            self.codec_counts = vec![0; CodecId::ALL.len()];
        }
        for &id in &wire.uplink_codecs {
            self.codec_counts[id as usize] += 1;
        }
        self.codec_counts[wire.downlink_codec as usize] += 1;
    }

    /// Accumulates a fault-injected round's accounting (call once per round
    /// whenever a fault model is configured; clean rounds contribute zeros
    /// but still advance the round counter and the survivor minimum).
    pub fn record_fault(&mut self, fault: &FaultRoundReport) {
        self.fault.rounds += 1;
        self.fault.offline += fault.offline as u64;
        self.fault.dropped += fault.dropped as u64;
        self.fault.stragglers += fault.stragglers as u64;
        self.fault.corrupt_frames += fault.corrupt_frames as u64;
        self.fault.corrupt_lost += fault.corrupt_lost as u64;
        self.fault.deadline_dropped += fault.deadline_dropped as u64;
        self.fault.retries += fault.retries as u64;
        self.fault.retransmitted_bytes += fault.retransmitted_bytes;
        let survivors = fault.survivors as u64;
        self.fault.min_survivors = Some(match self.fault.min_survivors {
            Some(current) => current.min(survivors),
            None => survivors,
        });
    }

    /// The summed fault counters over the run (all-zero defaults for runs
    /// without a fault model).
    pub fn fault_totals(&self) -> &FaultTotals {
        &self.fault
    }

    /// Total `(uplink, downlink)` bytes on the wire over the run; zeros for
    /// scalar-proxy runs.
    pub fn wire_bytes(&self) -> (u64, u64) {
        (self.uplink_bytes, self.downlink_bytes)
    }

    /// Frame counts per concrete encoding (uplinks and downlinks combined),
    /// indexed by `CodecId as usize`. Empty for scalar-proxy runs.
    pub fn codec_counts(&self) -> &[u64] {
        &self.codec_counts
    }

    /// Empirical CDF of per-client total contributions (the paper's Fig. 4,
    /// right panel: "number of gradient elements used from each client").
    pub fn contribution_cdf(&self) -> Ecdf {
        Ecdf::new(self.contributions.iter().map(|&c| c as f32).collect())
    }

    /// The last recorded global loss, if any point evaluated it.
    pub fn final_global_loss(&self) -> Option<f64> {
        self.points.iter().rev().find_map(|p| p.global_loss)
    }

    /// The last recorded test accuracy, if any point evaluated it.
    pub fn final_test_accuracy(&self) -> Option<f64> {
        self.points.iter().rev().find_map(|p| p.test_accuracy)
    }

    /// First normalized time at which the recorded global loss dropped to
    /// `target` or below. `None` if the run never reached it.
    pub fn time_to_loss(&self, target: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.global_loss.is_some_and(|l| l <= target))
            .map(|p| p.elapsed_time)
    }

    /// Global loss interpolated at a given normalized time (nearest recorded
    /// point at or before `time`). `None` before the first evaluation.
    pub fn loss_at_time(&self, time: f64) -> Option<f64> {
        self.points
            .iter()
            .take_while(|p| p.elapsed_time <= time)
            .filter_map(|p| p.global_loss.map(|l| (p.elapsed_time, l)))
            .last()
            .map(|(_, l)| l)
    }

    /// Accuracy at a given normalized time (nearest recorded point at or
    /// before `time`).
    pub fn accuracy_at_time(&self, time: f64) -> Option<f64> {
        self.points
            .iter()
            .take_while(|p| p.elapsed_time <= time)
            .filter_map(|p| p.test_accuracy.map(|a| (p.elapsed_time, a)))
            .last()
            .map(|(_, a)| a)
    }

    /// The sequence of `k` values used, one entry per recorded point.
    pub fn k_sequence(&self) -> Vec<usize> {
        self.points.iter().map(|p| p.k).collect()
    }
}

/// The full history (checkpointing). Floats are stored as raw bits, so a
/// restored history is bit-identical. Restore into a history built for the
/// same client count: a contribution vector of another length is a
/// `Mismatch`, and codec counts are absent or one per [`CodecId`].
impl Snapshot for RunHistory {
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.str(&self.label);
        w.usize(self.points.len());
        for p in &self.points {
            w.usize(p.round);
            w.f64(p.elapsed_time);
            w.usize(p.k);
            w.f64(p.train_loss);
            w.opt_f64(p.global_loss);
            w.opt_f64(p.test_accuracy);
        }
        w.u64s(&self.contributions);
        w.u64(self.uplink_bytes);
        w.u64(self.downlink_bytes);
        w.u64s(&self.codec_counts);
        w.u64(self.fault.rounds);
        w.u64(self.fault.offline);
        w.u64(self.fault.dropped);
        w.u64(self.fault.stragglers);
        w.u64(self.fault.corrupt_frames);
        w.u64(self.fault.corrupt_lost);
        w.u64(self.fault.deadline_dropped);
        w.u64(self.fault.retries);
        w.u64(self.fault.retransmitted_bytes);
        w.bool(self.fault.min_survivors.is_some());
        if let Some(v) = self.fault.min_survivors {
            w.u64(v);
        }
    }

    fn read_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.label = r.str()?;
        // 34 bytes is the smallest encoded point (both options absent), so a
        // corrupt count is rejected before anything is reserved for it.
        let num_points = r.len(34)?;
        self.points = Vec::with_capacity(num_points);
        for _ in 0..num_points {
            self.points.push(MetricPoint {
                round: r.usize()?,
                elapsed_time: r.f64()?,
                k: r.usize()?,
                train_loss: r.f64()?,
                global_loss: r.opt_f64()?,
                test_accuracy: r.opt_f64()?,
            });
        }
        let contributions = r.u64s()?;
        if contributions.len() != self.contributions.len() {
            return Err(SnapshotError::Mismatch {
                field: "history contributions length",
            });
        }
        self.contributions = contributions;
        self.uplink_bytes = r.u64()?;
        self.downlink_bytes = r.u64()?;
        self.codec_counts = r.u64s()?;
        if !self.codec_counts.is_empty() && self.codec_counts.len() != CodecId::ALL.len() {
            return Err(SnapshotError::Invalid("history codec counts"));
        }
        self.fault = FaultTotals {
            rounds: r.u64()?,
            offline: r.u64()?,
            dropped: r.u64()?,
            stragglers: r.u64()?,
            corrupt_frames: r.u64()?,
            corrupt_lost: r.u64()?,
            deadline_dropped: r.u64()?,
            retries: r.u64()?,
            retransmitted_bytes: r.u64()?,
            min_survivors: if r.bool()? { Some(r.u64()?) } else { None },
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agsfl_wire::snapshot::roundtrip;

    fn point(round: usize, time: f64, loss: Option<f64>, acc: Option<f64>) -> MetricPoint {
        MetricPoint {
            round,
            elapsed_time: time,
            k: 10,
            train_loss: 1.0,
            global_loss: loss,
            test_accuracy: acc,
        }
    }

    #[test]
    fn push_and_accessors() {
        let mut h = RunHistory::new("test", 3);
        assert!(h.is_empty());
        h.push(point(1, 2.0, Some(3.0), Some(0.1)));
        h.push(point(2, 4.0, Some(2.0), Some(0.2)));
        assert_eq!(h.len(), 2);
        assert_eq!(h.final_global_loss(), Some(2.0));
        assert_eq!(h.final_test_accuracy(), Some(0.2));
        assert_eq!(h.k_sequence(), vec![10, 10]);
    }

    #[test]
    fn time_to_loss_finds_first_crossing() {
        let mut h = RunHistory::new("test", 1);
        h.push(point(1, 1.0, Some(3.0), None));
        h.push(point(2, 2.0, Some(1.5), None));
        h.push(point(3, 3.0, Some(1.0), None));
        assert_eq!(h.time_to_loss(1.5), Some(2.0));
        assert_eq!(h.time_to_loss(0.5), None);
    }

    #[test]
    fn loss_and_accuracy_at_time() {
        let mut h = RunHistory::new("test", 1);
        h.push(point(1, 1.0, Some(3.0), Some(0.3)));
        h.push(point(2, 5.0, Some(2.0), Some(0.5)));
        assert_eq!(h.loss_at_time(0.5), None);
        assert_eq!(h.loss_at_time(1.0), Some(3.0));
        assert_eq!(h.loss_at_time(4.9), Some(3.0));
        assert_eq!(h.loss_at_time(100.0), Some(2.0));
        assert_eq!(h.accuracy_at_time(6.0), Some(0.5));
    }

    #[test]
    fn contributions_accumulate_and_cdf() {
        let mut h = RunHistory::new("test", 3);
        h.add_cohort_contributions(&[0, 1, 2], &[1, 0, 2]);
        h.add_cohort_contributions(&[0, 1, 2], &[1, 0, 2]);
        assert_eq!(h.contributions(), &[2, 0, 4]);
        let cdf = h.contribution_cdf();
        assert_eq!(cdf.eval(0.0), 1.0 / 3.0);
        assert_eq!(cdf.eval(4.0), 1.0);
    }

    #[test]
    fn cohort_contributions_scatter_by_member_id() {
        let mut h = RunHistory::new("cohort", 5);
        h.add_cohort_contributions(&[4, 1], &[7, 2]);
        h.add_cohort_contributions(&[1, 3], &[1, 9]);
        assert_eq!(h.contributions(), &[0, 3, 0, 9, 7]);
    }

    #[test]
    #[should_panic]
    fn cohort_contribution_out_of_range_panics() {
        let mut h = RunHistory::new("cohort", 2);
        h.add_cohort_contributions(&[2], &[1]);
    }

    #[test]
    #[should_panic]
    fn contribution_length_mismatch_panics() {
        let mut h = RunHistory::new("test", 3);
        h.add_cohort_contributions(&[0, 1], &[1, 2, 3]);
    }

    #[test]
    fn wire_totals_accumulate() {
        use agsfl_wire::CodecId;
        let mut h = RunHistory::new("wire", 2);
        assert_eq!(h.wire_bytes(), (0, 0));
        assert!(h.codec_counts().is_empty());
        h.record_wire(&WireRoundReport {
            uplink_bytes: vec![100, 50],
            max_uplink_bytes: 100,
            downlink_bytes: 30,
            uplink_codecs: vec![CodecId::DeltaVarint, CodecId::DeltaVarint],
            downlink_codec: CodecId::CooF32,
        });
        h.record_wire(&WireRoundReport {
            uplink_bytes: vec![10, 10],
            max_uplink_bytes: 10,
            downlink_bytes: 5,
            uplink_codecs: vec![CodecId::Bitmap, CodecId::CooF32],
            downlink_codec: CodecId::CooF32,
        });
        assert_eq!(h.wire_bytes(), (170, 35));
        assert_eq!(h.codec_counts(), &[3, 2, 1, 0, 0, 0]);
    }

    #[test]
    fn fault_totals_accumulate_and_track_min_survivors() {
        let mut h = RunHistory::new("faulty", 4);
        assert_eq!(h.fault_totals(), &FaultTotals::default());
        h.record_fault(&FaultRoundReport {
            offline: 1,
            dropped: 2,
            stragglers: 1,
            corrupt_frames: 3,
            corrupt_lost: 1,
            deadline_dropped: 0,
            retries: 4,
            retransmitted_bytes: 120,
            survivors: 1,
        });
        h.record_fault(&FaultRoundReport {
            survivors: 4,
            ..FaultRoundReport::default()
        });
        let totals = h.fault_totals();
        assert_eq!(totals.rounds, 2);
        assert_eq!(totals.dropped, 2);
        assert_eq!(totals.lost(), 4);
        assert_eq!(totals.retransmitted_bytes, 120);
        assert_eq!(totals.min_survivors, Some(1));
    }

    #[test]
    fn record_round_matches_the_manual_call_sequence() {
        use crate::round::RoundReport;
        let report = RoundReport {
            round: 3,
            k_used: 5,
            train_loss: 0.7,
            round_time: 1.0,
            elapsed_time: 3.0,
            downlink_elements: 5,
            max_uplink_scalars: 5,
            cohort: vec![2, 0],
            contributions: vec![4, 1],
            probe: None,
            wire: Some(WireRoundReport {
                uplink_bytes: vec![40, 25],
                max_uplink_bytes: 40,
                downlink_bytes: 12,
                uplink_codecs: vec![CodecId::CooF32, CodecId::Bitmap],
                downlink_codec: CodecId::DeltaVarint,
            }),
            fault: Some(FaultRoundReport {
                offline: 1,
                retries: 2,
                retransmitted_bytes: 80,
                survivors: 1,
                ..FaultRoundReport::default()
            }),
        };
        let mut fused = RunHistory::new("fused", 3);
        fused.record_round(&report);
        let mut manual = RunHistory::new("fused", 3);
        manual.add_cohort_contributions(&report.cohort, &report.contributions);
        manual.record_wire(report.wire.as_ref().unwrap());
        manual.record_fault(report.fault.as_ref().unwrap());
        assert_eq!(fused, manual);
        // Sections absent from the report contribute nothing.
        let plain = RoundReport {
            wire: None,
            fault: None,
            ..report
        };
        let mut h = RunHistory::new("plain", 3);
        h.record_round(&plain);
        assert_eq!(h.wire_bytes(), (0, 0));
        assert_eq!(h.fault_totals(), &FaultTotals::default());
        assert_eq!(h.contributions(), &[1, 0, 4]);
    }

    #[test]
    fn state_roundtrip_is_exact() {
        let mut h = RunHistory::new("snapshot", 2);
        h.push(point(1, 1.5, Some(2.0), None));
        h.push(point(2, 3.0, None, Some(0.4)));
        h.add_cohort_contributions(&[0, 1], &[3, 1]);
        h.record_wire(&WireRoundReport {
            uplink_bytes: vec![10, 20],
            max_uplink_bytes: 20,
            downlink_bytes: 15,
            uplink_codecs: vec![CodecId::CooF32, CodecId::Bitmap],
            downlink_codec: CodecId::DeltaVarint,
        });
        h.record_fault(&FaultRoundReport {
            dropped: 1,
            survivors: 1,
            ..FaultRoundReport::default()
        });
        assert_eq!(roundtrip(&h, || RunHistory::new("", 2)), h);

        // A hostile point count is refused by the length guard before a
        // single point is read or reserved: the reader stops right behind
        // the count.
        let mut w = SnapshotWriter::new();
        h.write_state(&mut w);
        let mut bytes = w.into_bytes();
        let count_at = 8 + h.label.len();
        bytes[count_at..count_at + 8].copy_from_slice(&(1u64 << 20).to_le_bytes());
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(
            RunHistory::new("", 2).read_state(&mut r),
            Err(SnapshotError::Truncated)
        );
        assert_eq!(r.remaining(), bytes.len() - count_at - 8);
    }

    /// Clients of the hand-built history sections.
    const CLIENTS: usize = 3;

    /// A history section written field by field in the section's order:
    /// `points` is the declared point count, and two encoded points follow
    /// whatever it says.
    fn section(points: usize, contributions: &[u64], codec_counts: &[u64]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.str("laws");
        w.usize(points);
        for round in 1..=2 {
            w.usize(round);
            w.f64(round as f64);
            w.usize(7);
            w.f64(0.5);
            w.opt_f64(Some(0.4));
            w.opt_f64(None);
        }
        w.u64s(contributions);
        w.u64(10);
        w.u64(20);
        w.u64s(codec_counts);
        for total in 0..9 {
            w.u64(total);
        }
        w.bool(true);
        w.u64(2);
        w.into_bytes()
    }

    /// Reads a whole section into a history of `CLIENTS` clients; returns
    /// its point count.
    fn read(bytes: &[u8]) -> Result<usize, SnapshotError> {
        let mut h = RunHistory::new("", CLIENTS);
        let mut r = SnapshotReader::new(bytes);
        h.read_state(&mut r)?;
        r.finish()?;
        Ok(h.len())
    }

    /// The history section's shape laws: a contribution vector of another
    /// client count is a `Mismatch`, codec counts that are neither absent
    /// nor one per codec are `Invalid`, a point count the bytes cannot hold
    /// and every strict prefix of a valid section are `Truncated`.
    #[test]
    fn history_sections_obey_their_shape_laws() {
        let contributions = [4, 0, 1];
        let codecs = [1, 0, 2, 0, 0, 3];
        let valid = section(2, &contributions, &codecs);
        assert_eq!(read(&valid), Ok(2));
        assert_eq!(read(&section(2, &contributions, &[])), Ok(2));
        let mismatch = SnapshotError::Mismatch {
            field: "history contributions length",
        };
        let cases = [
            (
                "contributions of N - 1",
                section(2, &[4, 0], &codecs),
                mismatch.clone(),
            ),
            (
                "contributions of N + 1",
                section(2, &[4, 0, 1, 1], &codecs),
                mismatch,
            ),
            (
                "codec counts of length 1",
                section(2, &contributions, &[1]),
                SnapshotError::Invalid("history codec counts"),
            ),
            (
                "point count past the bytes",
                section(1 << 20, &contributions, &codecs),
                SnapshotError::Truncated,
            ),
        ];
        for (case, bytes, want) in cases {
            assert_eq!(read(&bytes), Err(want), "{case}");
        }
        for cut in 0..valid.len() {
            assert_eq!(
                read(&valid[..cut]),
                Err(SnapshotError::Truncated),
                "cut at {cut}"
            );
        }
    }
}
