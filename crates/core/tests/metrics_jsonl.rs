//! The `metrics.jsonl` contract: a run with a deterministic
//! [`TelemetrySpec`] writes a **byte-identical** metrics file on every
//! identically-seeded run at every worker count, its lines total to the
//! run's [`RunHistory`](agsfl_fl::RunHistory), telemetry never perturbs the
//! trajectory, and the opt-in wall-clock sets append their fields after the
//! stable prefix.

use agsfl_core::telemetry::TelemetrySpec;
use agsfl_core::{
    report, ChannelSpec, ControllerSpec, DatasetSpec, Experiment, ExperimentConfig, FaultModel,
    ModelSpec, Parallelism, SpanId, StopCondition, WireSpec,
};
use agsfl_wire::CodecSpec;

fn wired_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder()
        .dataset(DatasetSpec::femnist_tiny())
        .model(ModelSpec::Linear)
        .learning_rate(0.05)
        .batch_size(8)
        .comm_time(10.0)
        .eval_every(3)
        .seed(seed)
        .parallelism(Parallelism::Threads(2))
        .wire(WireSpec {
            codec: CodecSpec::Auto,
            channel: ChannelSpec::uniform(2_000.0, 4_000.0, 0.05),
        })
        .build()
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("agsfl_metrics_{}_{tag}.jsonl", std::process::id()))
}

#[test]
fn deterministic_metrics_files_are_byte_identical_across_runs() {
    let cfg = wired_config(97);
    let stop = StopCondition::after_rounds(7);
    let run = |tag: &str| {
        let path = temp_path(tag);
        let mut exp = Experiment::new(&cfg);
        exp.set_telemetry(TelemetrySpec::deterministic(&path))
            .unwrap();
        let history = exp.run_adaptive(ControllerSpec::Algorithm3, &stop);
        exp.take_telemetry();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        (history, body)
    };
    let (history_a, body_a) = run("det_a");
    let (history_b, body_b) = run("det_b");
    assert_eq!(body_a, body_b, "deterministic metrics files diverged");
    assert_eq!(history_a.points(), history_b.points());
    assert_eq!(body_a.lines().count(), 7, "one line per round");
    // The stable prefix carries the round's deterministic facts.
    let first = body_a.lines().next().unwrap();
    assert!(first.starts_with("{\"round\":1,\"k\":"), "{first}");
    assert!(first.contains("\"uplink_bytes\":"), "{first}");
    assert!(first.contains("\"downlink_codec\":"), "{first}");
    // No wall-clock set leaked into the deterministic file.
    assert!(!body_a.contains("\"spans_ns\""), "{first}");
    assert!(!body_a.contains("\"pool\""), "{first}");
    assert!(!body_a.contains("\"mem\""), "{first}");
}

/// The unsigned integer after the first `"key":` in a metrics line.
fn field(line: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":");
    let at = line
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    let digits: String = line[at + tag.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

/// On a wired run with outages, dropouts and corrupt frames, the lines'
/// wire bytes and fault tallies sum to the history's totals, there is one
/// line per round, and the file is the same bytes whatever the schedule.
#[test]
fn metrics_lines_total_to_the_history_at_every_worker_count() {
    const ROUNDS: usize = 12;
    let mut reference: Option<String> = None;
    for parallelism in [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Threads(4),
    ] {
        let mut cfg = wired_config(95);
        cfg.parallelism = parallelism;
        cfg.fault = Some(FaultModel {
            drop_prob: 0.2,
            crash_prob: 0.1,
            outage_rounds: (1, 2),
            straggle_prob: 0.25,
            straggle_factor: 5.0,
            deadline: Some(40.0),
            corrupt_prob: 0.3,
            max_retries: 2,
            retry_backoff: 0.01,
            seed: 95,
        });
        let path = temp_path(&format!("chaos_{parallelism:?}"));
        let mut exp = Experiment::new(&cfg);
        exp.set_telemetry(TelemetrySpec::deterministic(&path))
            .unwrap();
        let history = exp.run_adaptive(
            ControllerSpec::Algorithm3,
            &StopCondition::after_rounds(ROUNDS),
        );
        exp.take_telemetry();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let totals = history.fault_totals();
        assert!(
            totals.offline > 0 && totals.dropped > 0 && totals.corrupt_frames > 0,
            "the chaos run must have outages, dropouts and corruption: {totals:?}"
        );
        assert_eq!(body.lines().count(), ROUNDS, "one line per round");
        assert_eq!(history.len(), ROUNDS);
        let sum = |key: &str| body.lines().map(|line| field(line, key)).sum::<u64>();
        assert_eq!(
            (sum("uplink_bytes"), sum("downlink_bytes")),
            history.wire_bytes()
        );
        assert_eq!(sum("lost"), totals.lost());
        assert_eq!(sum("retransmitted_bytes"), totals.retransmitted_bytes);
        match &reference {
            None => reference = Some(body),
            Some(want) => assert!(
                body == *want,
                "the metrics file differs under {parallelism:?}"
            ),
        }
    }
}

#[test]
fn telemetry_is_observation_only_at_the_runner_level() {
    let cfg = wired_config(98);
    let stop = StopCondition::after_rounds(6);
    let plain = Experiment::new(&cfg).run_adaptive(ControllerSpec::Algorithm3, &stop);
    let path = temp_path("observed");
    let mut observed = Experiment::new(&cfg);
    observed.set_telemetry(TelemetrySpec::full(&path)).unwrap();
    let recorded = observed.run_adaptive(ControllerSpec::Algorithm3, &stop);
    assert_eq!(
        plain.points(),
        recorded.points(),
        "full telemetry perturbed the trajectory"
    );
    let state = observed.take_telemetry().unwrap();
    std::fs::remove_file(&path).ok();
    // The recorder timed every round's stages.
    let rec = state.recorder();
    assert_eq!(rec.span_histogram(SpanId::ClientPass).count(), 6);
    assert!(rec.span_histogram(SpanId::Evaluate).count() > 0);
    // The summary table renders the observed stages, the pool's dispatch
    // latency and the memory sample.
    let table = report::telemetry_summary(&state);
    assert!(table.contains("client_pass"), "{table}");
    assert!(table.contains("pool_dispatch"), "{table}");
    assert!(table.contains("memory: rss "), "{table}");
}

#[test]
fn full_spec_appends_wallclock_sets_after_the_stable_prefix() {
    let cfg = wired_config(99);
    let path = temp_path("full");
    let mut exp = Experiment::new(&cfg);
    exp.set_telemetry(TelemetrySpec::full(&path)).unwrap();
    exp.run_adaptive(ControllerSpec::Algorithm3, &StopCondition::after_rounds(4));
    exp.take_telemetry();
    let body = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(body.lines().count(), 4);
    for line in body.lines() {
        assert!(line.contains("\"spans_ns\":{"), "{line}");
        assert!(line.contains("\"client_pass\":"), "{line}");
        assert!(line.contains("\"pool\":{"), "{line}");
        assert!(line.contains("\"busy_ns\":"), "{line}");
    }
    // Memory probes sample on the flush cadence: with the default cadence
    // of 32, only the first line carries them.
    let with_mem = body.lines().filter(|l| l.contains("\"mem\":{")).count();
    assert_eq!(with_mem, 1, "{body}");
    assert!(body.lines().next().unwrap().contains("\"rss_bytes\":"));
}

#[test]
fn checkpointed_recorded_run_resumes_bit_identically_and_times_the_write() {
    let cfg = wired_config(96);
    let total = 8;
    let plain = Experiment::new(&cfg).run_adaptive(
        ControllerSpec::Algorithm2,
        &StopCondition::after_rounds(total),
    );

    let ckpt = temp_path("ckpt_file");
    let metrics = temp_path("ckpt_metrics");
    let spec = agsfl_core::CheckpointSpec::new(&ckpt, 2);
    let mut first = Experiment::new(&cfg);
    first.set_telemetry(TelemetrySpec::full(&metrics)).unwrap();
    let mut c1 = ControllerSpec::Algorithm2.build(first.dim(), cfg.seed);
    first
        .run_with_controller_checkpointed(
            c1.as_mut(),
            &StopCondition::after_rounds(4),
            "AGS",
            &spec,
        )
        .unwrap();
    let state = first.take_telemetry().unwrap();
    assert_eq!(
        state
            .recorder()
            .span_histogram(SpanId::CheckpointWrite)
            .count(),
        2,
        "checkpoint writes on rounds 2 and 4 were timed"
    );

    // A fresh experiment resumes from the file; telemetry on the resumed
    // run starts a fresh recorder but the trajectory stays bit-identical.
    let mut second = Experiment::new(&cfg);
    second
        .set_telemetry(TelemetrySpec::deterministic(&metrics))
        .unwrap();
    let mut c2 = ControllerSpec::Algorithm2.build(second.dim(), cfg.seed);
    let resumed = second
        .resume_with_controller(c2.as_mut(), &StopCondition::after_rounds(total), &spec)
        .unwrap();
    assert_eq!(resumed.points(), plain.points());
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&metrics).ok();
}
