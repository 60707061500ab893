//! Population-scale sweep: rounds/sec and server resident memory as the
//! client count grows from 10³ to 10⁶ at a fixed cohort size.
//!
//! This is the audit for the cohort engine's memory claim: the server is
//! `O(cohort · k + touched_clients · D)` resident, *independent of the
//! population size `N`*. Each sweep point builds a lazily materialized
//! population ([`LazySyntheticFemnist`] — shards exist only while a round
//! holds them), samples the same fixed-size cohort per round, and records
//! wall-clock round throughput plus the process' resident set as observed
//! by the OS ([`agsfl_exec::mem`]). A healthy table shows RSS flat across
//! four orders of magnitude of `N` while rounds/sec stays roughly constant
//! (the per-round cost is a function of the cohort, not the population).
//!
//! The result also serializes to one line of bench-history JSON
//! ([`ScaleSweepResult::history_json_line`]) so `BENCH_history.jsonl`
//! tracks the scale claim across PRs alongside the kernel timings.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use agsfl_exec::{mem, Parallelism};
use agsfl_fl::{Simulation, SimulationConfig, TimeModel};
use agsfl_ml::data::{LazySyntheticFemnist, SyntheticFemnistConfig};
use agsfl_ml::model::Mlp;
use agsfl_sparse::FabTopK;
use agsfl_telemetry::{SpanId, StageRecorder};

/// Configuration of the scale sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleSweepConfig {
    /// Population sizes to sweep (the `N` axis).
    pub populations: Vec<usize>,
    /// Fixed per-round cohort size shared by every point.
    pub cohort: usize,
    /// Rounds per point.
    pub rounds: usize,
    /// Sparsity degree `k` uploaded/selected each round.
    pub k: usize,
    /// Samples held by each client's (lazily materialized) shard.
    pub samples_per_client: usize,
    /// Feature dimension of the synthetic workload.
    pub feature_dim: usize,
    /// Class count of the synthetic workload.
    pub num_classes: usize,
    /// Per-client mini-batch size.
    pub batch_size: usize,
    /// Master seed (population `N` is mixed in per point so the sweep's
    /// points draw distinct but reproducible workloads).
    pub seed: u64,
}

impl Default for ScaleSweepConfig {
    fn default() -> Self {
        Self {
            populations: vec![1_000, 10_000, 100_000, 1_000_000],
            cohort: 256,
            rounds: 8,
            k: 32,
            samples_per_client: 64,
            feature_dim: 32,
            num_classes: 16,
            batch_size: 8,
            seed: 97,
        }
    }
}

impl ScaleSweepConfig {
    fn dataset_config(&self, num_clients: usize) -> SyntheticFemnistConfig {
        SyntheticFemnistConfig {
            num_clients,
            samples_per_client: self.samples_per_client,
            feature_dim: self.feature_dim,
            num_classes: self.num_classes,
            classes_per_client: (self.num_classes / 2).max(1),
            writer_shift_std: 0.5,
            noise_std: 0.5,
            test_samples: 128,
        }
    }
}

/// One sweep point: a population size under the shared cohort.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleSweepPoint {
    /// Population size `N`.
    pub population: usize,
    /// Cohort size actually run (`min(cohort, N)`).
    pub cohort: usize,
    /// Rounds executed.
    pub rounds: usize,
    /// Wall-clock round throughput.
    pub rounds_per_sec: f64,
    /// Clients whose persistent state is resident after the run — the
    /// `touched_clients` factor of the memory bound, always ≤ rounds·cohort.
    pub resident_clients: usize,
    /// Process resident set after the point's rounds (`None` off Linux).
    pub current_rss_bytes: Option<u64>,
    /// Process peak resident set so far (`None` off Linux). Monotone across
    /// points — the kernel never lowers the high-water mark — so flatness
    /// is read off `current_rss_bytes`.
    pub peak_rss_bytes: Option<u64>,
    /// Per-stage wall time over the point's rounds, `(stage name, total
    /// nanoseconds)` from the round engine's [`StageRecorder`] — only
    /// stages that actually ran appear. A healthy sweep shows the same
    /// stage shares at every `N`: hydration and the client pass scale with
    /// the cohort, never with the population.
    pub stage_ns: Vec<(String, u64)>,
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleSweepResult {
    /// One point per population size, in sweep order.
    pub points: Vec<ScaleSweepPoint>,
}

impl ScaleSweepResult {
    /// Renders the sweep as a text table.
    pub fn render(&self) -> String {
        fn mib(bytes: Option<u64>) -> String {
            match bytes {
                Some(b) => format!("{:.1}", b as f64 / (1024.0 * 1024.0)),
                None => "n/a".to_string(),
            }
        }
        let mut out = String::from("Scale sweep: fixed cohort, lazily materialized population\n");
        out.push_str(&format!(
            "{:>12}{:>9}{:>8}{:>12}{:>10}{:>12}{:>12}\n",
            "N", "cohort", "rounds", "rounds/s", "resident", "rss [MiB]", "peak [MiB]"
        ));
        for p in &self.points {
            out.push_str(&format!(
                "{:>12}{:>9}{:>8}{:>12.1}{:>10}{:>12}{:>12}\n",
                p.population,
                p.cohort,
                p.rounds,
                p.rounds_per_sec,
                p.resident_clients,
                mib(p.current_rss_bytes),
                mib(p.peak_rss_bytes)
            ));
        }
        out.push_str("\nPer-stage wall time [ms] (flat columns = O(cohort) rounds):\n");
        let stages: Vec<&str> = self
            .points
            .first()
            .map(|p| p.stage_ns.iter().map(|(n, _)| n.as_str()).collect())
            .unwrap_or_default();
        out.push_str(&format!("{:>12}", "N"));
        for stage in &stages {
            out.push_str(&format!("{:>16}", stage));
        }
        out.push('\n');
        for p in &self.points {
            out.push_str(&format!("{:>12}", p.population));
            for stage in &stages {
                let ns = p
                    .stage_ns
                    .iter()
                    .find(|(n, _)| n == stage)
                    .map_or(0, |&(_, ns)| ns);
                out.push_str(&format!("{:>16.2}", ns as f64 / 1_000_000.0));
            }
            out.push('\n');
        }
        out
    }

    /// One line of bench-history JSON (`suite: "scale_sweep"`), matching
    /// the hand-rolled format `bench-report` appends for the kernel suite.
    pub fn history_json_line(&self, unix_secs: u64) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(ScaleSweepPoint::json_object)
            .collect();
        format!(
            "{{\"unix_time\":{},\"suite\":\"scale_sweep\",\"points\":[{}]}}\n",
            unix_secs,
            points.join(",")
        )
    }
}

impl ScaleSweepPoint {
    /// One self-describing JSON object for this point (no trailing
    /// newline), used both for the `scale_sweep` bench-history suite and
    /// the `--metrics` sink of the `million_clients` example.
    pub fn json_object(&self) -> String {
        fn opt(bytes: Option<u64>) -> String {
            bytes.map_or_else(|| "null".to_string(), |b| b.to_string())
        }
        let stages: Vec<String> = self
            .stage_ns
            .iter()
            .map(|(name, ns)| format!("\"{name}\":{ns}"))
            .collect();
        format!(
            "{{\"population\":{},\"cohort\":{},\"rounds\":{},\"rounds_per_sec\":{:.2},\"resident_clients\":{},\"current_rss_bytes\":{},\"peak_rss_bytes\":{},\"stage_ns\":{{{}}}}}",
            self.population,
            self.cohort,
            self.rounds,
            self.rounds_per_sec,
            self.resident_clients,
            opt(self.current_rss_bytes),
            opt(self.peak_rss_bytes),
            stages.join(",")
        )
    }
}

/// Runs one sweep point: `rounds` cohort rounds over a lazily materialized
/// population of `num_clients` writers.
pub fn run_point(config: &ScaleSweepConfig, num_clients: usize) -> ScaleSweepPoint {
    assert!(config.cohort > 0, "cohort must be positive");
    assert!(config.rounds > 0, "need at least one round");
    let source = LazySyntheticFemnist::new(
        config.dataset_config(num_clients),
        config.seed ^ (num_clients as u64).rotate_left(17),
    );
    let model = Mlp::new(config.feature_dim, &[], config.num_classes);
    let mut sim = Simulation::with_source(
        Box::new(model),
        Box::new(source),
        Box::new(FabTopK::new()),
        SimulationConfig {
            learning_rate: 0.05,
            batch_size: config.batch_size,
            time_model: TimeModel::normalized(5.0),
            seed: config.seed,
            parallelism: Parallelism::Serial,
            wire: None,
            fault: None,
            cohort: Some(config.cohort),
        },
    );
    let k = config.k.clamp(1, sim.dim());
    // The round engine's recorder supplies the per-stage breakdown; one
    // outer clock read per point covers total throughput.
    let mut rec = StageRecorder::new();
    let start = Instant::now();
    for _ in 0..config.rounds {
        rec.begin_round();
        sim.run_round_recorded(k, None, &mut rec);
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let stage_ns = SpanId::ALL
        .into_iter()
        .filter_map(|id| {
            let total = rec.span_histogram(id).sum();
            (total > 0).then(|| (id.name().to_string(), total))
        })
        .collect();
    ScaleSweepPoint {
        population: num_clients,
        cohort: sim.cohort_size(),
        rounds: config.rounds,
        rounds_per_sec: config.rounds as f64 / elapsed,
        resident_clients: sim.resident_clients(),
        current_rss_bytes: mem::current_rss_bytes(),
        peak_rss_bytes: mem::peak_rss_bytes(),
        stage_ns,
    }
}

/// Runs the sweep, one point per population size.
pub fn run(config: &ScaleSweepConfig) -> ScaleSweepResult {
    assert!(
        !config.populations.is_empty(),
        "need at least one population size"
    );
    let points = config
        .populations
        .iter()
        .map(|&n| run_point(config, n))
        .collect();
    ScaleSweepResult { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleSweepConfig {
        ScaleSweepConfig {
            populations: vec![50, 5_000],
            cohort: 8,
            rounds: 3,
            k: 16,
            samples_per_client: 16,
            feature_dim: 12,
            num_classes: 6,
            batch_size: 4,
            seed: 3,
        }
    }

    #[test]
    fn sweep_covers_every_population_and_bounds_residency() {
        let result = run(&tiny());
        assert_eq!(result.points.len(), 2);
        for p in &result.points {
            assert_eq!(p.cohort, 8);
            assert!(p.rounds_per_sec > 0.0);
            // Residency is bounded by participation, never by N: at most
            // rounds · cohort clients can ever have been touched.
            assert!(p.resident_clients <= p.rounds * p.cohort, "{p:?}");
            assert!(p.resident_clients > 0, "{p:?}");
            // The recorder saw the round stages: every point carries a
            // hydration and client-pass share.
            let stage = |name: &str| p.stage_ns.iter().any(|(n, ns)| n == name && *ns > 0);
            assert!(stage("hydrate"), "{p:?}");
            assert!(stage("client_pass"), "{p:?}");
        }
    }

    #[test]
    fn cohort_clamps_to_small_populations() {
        let mut config = tiny();
        config.populations = vec![5];
        let result = run(&config);
        assert_eq!(result.points[0].cohort, 5);
    }

    #[test]
    fn render_and_history_line_carry_the_memory_columns() {
        let mut config = tiny();
        config.populations = vec![50];
        let result = run(&config);
        let table = result.render();
        assert!(table.contains("rounds/s"));
        assert!(table.contains("rss [MiB]"));
        let line = result.history_json_line(123);
        assert!(line.contains("\"suite\":\"scale_sweep\""));
        assert!(line.contains("\"unix_time\":123"));
        assert!(line.contains("\"peak_rss_bytes\":"));
        assert!(line.contains("\"stage_ns\":{\"hydrate\":"), "{line}");
        assert!(line.ends_with('\n'));
        assert!(table.contains("client_pass"), "{table}");
    }
}
