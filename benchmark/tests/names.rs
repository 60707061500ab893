//! The names compiled into the benchmark must be the names `BENCHMARK.json`
//! declares, and must fit the limits the driver puts on that file.

use std::collections::BTreeSet;

use agsfl_benchmark::json::{self, Value};
use agsfl_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use agsfl_benchmark::workloads::Workload;

fn declared() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("parse")
}

fn field<'a>(item: &'a Value, key: &str) -> &'a str {
    item.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing from {item:?}"))
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[test]
fn names_are_well_formed_unique_and_within_the_limits() {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().map(|m| m.metric.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for name in &names {
        assert!(well_formed(name), "{name}");
    }
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    for (_, why) in WORKLOADS {
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    for m in END_TO_END.iter().map(|m| &m.metric).chain(&PER_LAYER) {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        assert!(
            (1..=16).contains(&m.unit.len()) && m.unit.chars().all(ok),
            "{}",
            m.unit
        );
    }
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(END_TO_END.iter().any(|m| m.metric.name == "setup_s"));
}

#[test]
fn every_listed_workload_is_runnable_under_its_name() {
    assert_eq!(Workload::ALL.len(), WORKLOADS.len());
    for (workload, (name, _)) in Workload::ALL.into_iter().zip(WORKLOADS) {
        assert_eq!(Workload::from_name(name), Some(workload));
    }
}

#[test]
fn benchmark_json_declares_the_same_lists() {
    let file = declared();
    let keys: Vec<&str> = file.as_object().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads: Vec<(&str, &str)> = file
        .get("workloads")
        .unwrap()
        .as_array()
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let end_to_end = file.get("end_to_end").unwrap().as_array();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (item, spec) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(field(item, "name"), spec.metric.name);
        assert_eq!(field(item, "unit"), spec.metric.unit);
        assert_eq!(field(item, "better"), spec.metric.better.as_str());
        assert_eq!(item.get("bound").and_then(Value::as_f64), Some(spec.bound));
    }

    let per_layer = file.get("per_layer").unwrap().as_array();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (item, spec) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(field(item, "name"), spec.name);
        assert_eq!(field(item, "unit"), spec.unit);
        assert_eq!(field(item, "better"), spec.better.as_str());
    }
}
