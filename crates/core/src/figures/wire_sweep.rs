//! Wire-codec × channel-regime sweep (a byte-accurate companion to the
//! paper's communication-time sweeps of Figs. 7–8).
//!
//! The paper's evaluation prices communication with the `2k`-scalar proxy;
//! this figure re-prices it in bytes: every codec in
//! [`WireSweepConfig::codecs`] runs under every channel regime in
//! [`WireSweepConfig::channels`], once with a **fixed** `k` and once with
//! Algorithm 3 **adapting** `k` against the byte-priced round time.
//!
//! The fixed-`k` rows isolate pure codec efficiency: the training
//! trajectory (and therefore every message) is bit-identical across codecs
//! — lossless codecs don't touch the math — so the byte totals compare the
//! encodings on exactly the same message stream, and `Auto` is guaranteed
//! to sit at or below every concrete codec. The adaptive rows show the
//! paper's controllers responding to the channel: a cheaper codec or a
//! faster regime affords a larger sparsity degree `k`, which is the
//! "codec-dependent optimal k" effect the scalar proxy cannot express.

use agsfl_wire::{CodecSpec, Precision};
use serde::{Deserialize, Serialize};

use crate::config::{ChannelSpec, ExperimentConfig, WireSpec};
use crate::controllers::ControllerSpec;
use crate::runner::{Experiment, StopCondition};

/// Configuration of the wire sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSweepConfig {
    /// Base workload; its `wire` field is overridden per sweep cell.
    pub base: ExperimentConfig,
    /// Codecs to compare.
    pub codecs: Vec<CodecSpec>,
    /// Labelled channel regimes to compare.
    pub channels: Vec<(String, ChannelSpec)>,
    /// Rounds per run.
    pub rounds: usize,
    /// The fixed sparsity degree, as a fraction of the model dimension.
    pub fixed_k_fraction: f64,
}

impl Default for WireSweepConfig {
    fn default() -> Self {
        Self {
            base: ExperimentConfig::default(),
            codecs: CodecSpec::all().to_vec(),
            channels: vec![
                (
                    "uniform".to_string(),
                    ChannelSpec::uniform(2_000.0, 8_000.0, 0.05),
                ),
                (
                    "heterogeneous".to_string(),
                    ChannelSpec::uniform(2_000.0, 8_000.0, 0.05).with_spread(4.0),
                ),
                (
                    "fluctuating".to_string(),
                    ChannelSpec::uniform(2_000.0, 8_000.0, 0.05).with_fluctuation(20, 0.75),
                ),
            ],
            rounds: 120,
            fixed_k_fraction: 0.05,
        }
    }
}

/// One sweep cell: a codec under a channel regime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSweepCell {
    /// Channel regime label.
    pub channel: String,
    /// The codec under test.
    pub codec: CodecSpec,
    /// Total uplink bytes over the run.
    pub uplink_bytes: u64,
    /// Total downlink bytes over the run.
    pub downlink_bytes: u64,
    /// Channel-priced time the run consumed.
    pub elapsed_time: f64,
    /// Final global loss.
    pub final_loss: f64,
    /// Mean `k` over the last quarter of the run.
    pub tail_mean_k: f64,
    /// Frame counts per concrete encoding (index = `CodecId as usize`);
    /// shows what `Auto` actually picked.
    pub codec_counts: Vec<u64>,
}

impl WireSweepCell {
    /// Total bytes on the wire (uplink + downlink).
    pub fn total_bytes(&self) -> u64 {
        self.uplink_bytes + self.downlink_bytes
    }
}

/// One point on the bytes-vs-accuracy Pareto frontier: a fixed-`k` run
/// under one [`Precision`] tier (same `k`, same channel, same seed — only
/// the uplink value precision differs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrecisionParetoPoint {
    /// The precision tier's name (`f32`, `f16`, `q8`, `sign`).
    pub precision: String,
    /// The run's byte totals and training outcome.
    pub cell: WireSweepCell,
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSweepResult {
    /// Fixed-`k` cells: identical trajectories per channel, isolating codec
    /// size.
    pub fixed: Vec<WireSweepCell>,
    /// Adaptive-`k` cells: Algorithm 3 responding to the byte-priced
    /// channel.
    pub adaptive: Vec<WireSweepCell>,
    /// Bytes-vs-accuracy Pareto frontier over the precision tiers, on the
    /// first channel regime (ordered most → least precise).
    pub pareto: Vec<PrecisionParetoPoint>,
}

impl WireSweepResult {
    fn render_table(out: &mut String, title: &str, cells: &[WireSweepCell]) {
        out.push_str(&format!("\n{title}\n"));
        out.push_str(&format!(
            "{:>14}{:>14}{:>14}{:>14}{:>12}{:>12}{:>12}\n",
            "channel", "codec", "up [B]", "down [B]", "time", "loss", "tail k"
        ));
        for c in cells {
            out.push_str(&format!(
                "{:>14}{:>14}{:>14}{:>14}{:>12.1}{:>12.4}{:>12.0}\n",
                c.channel,
                c.codec.name(),
                c.uplink_bytes,
                c.downlink_bytes,
                c.elapsed_time,
                c.final_loss,
                c.tail_mean_k
            ));
        }
    }

    /// Renders all three tables.
    pub fn render(&self) -> String {
        let mut out = String::from("Wire codec x channel sweep (byte-priced rounds)\n");
        Self::render_table(
            &mut out,
            "Fixed k (identical trajectories; bytes compare codecs)",
            &self.fixed,
        );
        Self::render_table(
            &mut out,
            "Adaptive k (Algorithm 3 against the byte-priced channel)",
            &self.adaptive,
        );
        out.push_str("\nPrecision Pareto (fixed k; uplink bytes vs final loss)\n");
        out.push_str(&format!(
            "{:>10}{:>14}{:>12}{:>12}\n",
            "precision", "up [B]", "loss", "time"
        ));
        for p in &self.pareto {
            out.push_str(&format!(
                "{:>10}{:>14}{:>12.4}{:>12.1}\n",
                p.precision, p.cell.uplink_bytes, p.cell.final_loss, p.cell.elapsed_time
            ));
        }
        out
    }
}

/// Cell lookups for the tests, which assert on single cells.
#[cfg(test)]
impl WireSweepResult {
    /// The fixed-`k` cell for a channel/codec pair.
    fn fixed_cell(&self, channel: &str, codec: CodecSpec) -> Option<&WireSweepCell> {
        self.fixed
            .iter()
            .find(|c| c.channel == channel && c.codec == codec)
    }

    /// For a channel regime, the codec whose fixed-`k` run put the fewest
    /// bytes on the wire.
    fn smallest_codec_for(&self, channel: &str) -> Option<CodecSpec> {
        self.fixed
            .iter()
            .filter(|c| c.channel == channel)
            .min_by_key(|c| c.total_bytes())
            .map(|c| c.codec)
    }

    /// The Pareto point for a precision tier, by name.
    fn pareto_point(&self, precision: Precision) -> Option<&PrecisionParetoPoint> {
        self.pareto.iter().find(|p| p.precision == precision.name())
    }
}

fn run_cell(
    config: &WireSweepConfig,
    channel_label: &str,
    channel: ChannelSpec,
    codec: CodecSpec,
    adaptive: bool,
) -> WireSweepCell {
    let experiment_config = ExperimentConfig {
        wire: Some(WireSpec { codec, channel }),
        ..config.base.clone()
    };
    let mut experiment = Experiment::new(&experiment_config);
    let stop = StopCondition::after_rounds(config.rounds);
    let history = if adaptive {
        experiment.run_adaptive(ControllerSpec::Algorithm3, &stop)
    } else {
        let k = ((experiment.dim() as f64 * config.fixed_k_fraction) as usize).max(1);
        experiment.run_fixed_k(k, &stop)
    };
    let (uplink_bytes, downlink_bytes) = history.wire_bytes();
    WireSweepCell {
        channel: channel_label.to_string(),
        codec,
        uplink_bytes,
        downlink_bytes,
        elapsed_time: history
            .points()
            .last()
            .map(|p| p.elapsed_time)
            .unwrap_or(0.0),
        final_loss: history.final_global_loss().unwrap_or(f64::NAN),
        tail_mean_k: super::tail_mean_k(&history.k_sequence()),
        codec_counts: history.codec_counts().to_vec(),
    }
}

/// Runs the sweep, including the precision-tier Pareto frontier on the
/// first channel regime.
pub fn run(config: &WireSweepConfig) -> WireSweepResult {
    assert!(!config.codecs.is_empty(), "need at least one codec");
    assert!(!config.channels.is_empty(), "need at least one channel");
    let mut fixed = Vec::new();
    let mut adaptive = Vec::new();
    for (label, channel) in &config.channels {
        for &codec in &config.codecs {
            fixed.push(run_cell(config, label, *channel, codec, false));
            adaptive.push(run_cell(config, label, *channel, codec, true));
        }
    }
    let (pareto_label, pareto_channel) = &config.channels[0];
    let pareto = Precision::ALL
        .iter()
        .map(|&tier| PrecisionParetoPoint {
            precision: tier.name().to_string(),
            cell: run_cell(
                config,
                pareto_label,
                *pareto_channel,
                tier.codec_spec(),
                false,
            ),
        })
        .collect();
    WireSweepResult {
        fixed,
        adaptive,
        pareto,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DatasetSpec, ModelSpec};

    fn tiny_sweep() -> WireSweepConfig {
        WireSweepConfig {
            base: ExperimentConfig::builder()
                .dataset(DatasetSpec::femnist_tiny())
                .model(ModelSpec::Linear)
                .learning_rate(0.05)
                .batch_size(8)
                .eval_every(10)
                .seed(13)
                .build(),
            codecs: CodecSpec::all().to_vec(),
            channels: vec![
                (
                    "uniform".into(),
                    ChannelSpec::uniform(2_000.0, 8_000.0, 0.05),
                ),
                (
                    "fluctuating".into(),
                    ChannelSpec::uniform(2_000.0, 8_000.0, 0.05).with_fluctuation(8, 0.75),
                ),
            ],
            rounds: 25,
            // Large enough that per-frame headers (QLinear8's 8-byte value
            // range) amortize the way they do at production scale.
            fixed_k_fraction: 0.15,
        }
    }

    #[test]
    fn sweep_covers_every_cell_and_counts_bytes() {
        let result = run(&tiny_sweep());
        assert_eq!(result.fixed.len(), 8);
        assert_eq!(result.adaptive.len(), 8);
        for cell in result.fixed.iter().chain(result.adaptive.iter()) {
            assert!(cell.uplink_bytes > 0, "{cell:?}");
            assert!(cell.downlink_bytes > 0, "{cell:?}");
            assert!(cell.final_loss.is_finite());
            assert!(cell.elapsed_time > 0.0);
        }
    }

    /// On identical fixed-k trajectories, Auto's total bytes never exceed
    /// any concrete codec's — the size-ordering guarantee, end to end.
    #[test]
    fn auto_is_smallest_on_fixed_trajectories() {
        let result = run(&tiny_sweep());
        for (label, _) in &tiny_sweep().channels {
            let auto = result.fixed_cell(label, CodecSpec::Auto).unwrap();
            for codec in [CodecSpec::Coo, CodecSpec::DeltaVarint, CodecSpec::Bitmap] {
                let concrete = result.fixed_cell(label, codec).unwrap();
                assert!(
                    auto.total_bytes() <= concrete.total_bytes(),
                    "{label}: auto {} > {} {}",
                    auto.total_bytes(),
                    codec.name(),
                    concrete.total_bytes()
                );
                // Identical trajectories: the training outcome is the same
                // bits for every codec.
                assert_eq!(auto.final_loss, concrete.final_loss, "{label}");
            }
            // Auto ties the smallest concrete codec byte-for-byte (it may
            // lose the label on a tie, but never the total).
            let smallest = result.smallest_codec_for(label).unwrap();
            let smallest_total = result.fixed_cell(label, smallest).unwrap().total_bytes();
            assert_eq!(auto.total_bytes(), smallest_total, "{label}");
        }
    }

    #[test]
    fn auto_records_its_choices() {
        let result = run(&tiny_sweep());
        let auto = result.fixed_cell("uniform", CodecSpec::Auto).unwrap();
        assert_eq!(auto.codec_counts.len(), agsfl_wire::CodecId::ALL.len());
        let frames: u64 = auto.codec_counts.iter().sum();
        assert!(frames > 0, "Auto must record per-frame choices");
        let coo = result.fixed_cell("uniform", CodecSpec::Coo).unwrap();
        assert_eq!(coo.codec_counts[1], 0, "Coo never emits delta frames");
        assert_eq!(coo.codec_counts[2], 0, "Coo never emits bitmap frames");
    }

    #[test]
    fn render_lists_all_tables() {
        let mut cfg = tiny_sweep();
        cfg.codecs = vec![CodecSpec::Auto];
        cfg.rounds = 6;
        let result = run(&cfg);
        let text = result.render();
        assert!(text.contains("Fixed k"));
        assert!(text.contains("Adaptive k"));
        assert!(text.contains("auto"));
        assert!(text.contains("Precision Pareto"));
        for tier in Precision::ALL {
            assert!(text.contains(tier.name()), "missing tier {}", tier.name());
        }
    }

    /// The issue's byte-budget acceptance bar: at the same fixed `k`,
    /// QLinear8 (1-byte levels + an 8-byte range header) must spend at most
    /// 0.35× the uplink bytes of lossless CooF32 (8 bytes per entry).
    #[test]
    fn qlinear8_fixed_k_spends_under_035x_of_coo() {
        let result = run(&tiny_sweep());
        let q8 = result.pareto_point(Precision::Q8).unwrap();
        let coo = result.fixed_cell("uniform", CodecSpec::Coo).unwrap();
        let ratio = q8.cell.uplink_bytes as f64 / coo.uplink_bytes as f64;
        assert!(
            ratio <= 0.35,
            "qlinear8 spent {} uplink bytes vs coo-f32's {} ({ratio:.3}x > 0.35x)",
            q8.cell.uplink_bytes,
            coo.uplink_bytes
        );
        // Lossier tiers keep shrinking the frontier's byte axis.
        let f16 = result.pareto_point(Precision::F16).unwrap();
        let sign = result.pareto_point(Precision::Sign).unwrap();
        let f32_tier = result.pareto_point(Precision::F32).unwrap();
        assert!(f16.cell.uplink_bytes < f32_tier.cell.uplink_bytes);
        assert!(q8.cell.uplink_bytes < f16.cell.uplink_bytes);
        assert!(sign.cell.uplink_bytes < q8.cell.uplink_bytes);
    }

    /// Convergence sanity for the documented tolerance: the error-feedback
    /// loop keeps a QLinear8 run's final loss within 10% (relative) of the
    /// lossless run at the same fixed `k`.
    #[test]
    fn qlinear8_final_loss_tracks_lossless() {
        let result = run(&tiny_sweep());
        let q8 = result.pareto_point(Precision::Q8).unwrap().cell.final_loss;
        let lossless = result.pareto_point(Precision::F32).unwrap().cell.final_loss;
        assert!(q8.is_finite() && lossless.is_finite());
        assert!(
            (q8 - lossless).abs() <= 0.10 * lossless,
            "qlinear8 final loss {q8:.4} strays >10% from lossless {lossless:.4}"
        );
    }
}
