//! The AGSFL benchmark: four workloads, eight end-to-end metrics and 49
//! per-layer metrics, measured from outside the workspace's crates. See
//! `README.md` in this directory and `BENCHMARK.json` at the repo root.

pub mod compare;
pub mod json;
pub mod measure;
pub mod probes;
pub mod spec;
pub mod stats;
pub mod tap;
pub mod workloads;
