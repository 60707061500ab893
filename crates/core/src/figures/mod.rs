//! One module per figure of the paper's evaluation (Section V).
//!
//! Every figure has a `*Config` describing the workload (with defaults sized
//! so the whole suite regenerates in seconds on a laptop: synthetic data and
//! smaller models stand in for FEMNIST, CIFAR-10 and the paper's CNN) and a
//! `*Result` holding the exact series the paper plots plus a `render()`
//! method that prints them as text tables. The benchmark crate
//! (`agsfl-bench`) runs the paper's figures and the regret check, one
//! `cargo bench` target each. What the wire codecs and the fault model do
//! to a whole run is asserted on [`crate::Experiment`] runs directly, in
//! `crates/core/tests/byte_priced_runs.rs`; the cohort engine's memory
//! bound is gated by `examples/million_clients.rs`.
//!
//! | Paper figure | Function |
//! |---|---|
//! | Fig. 1 (Assumption 1 validation) | [`fig1::run`] |
//! | Fig. 4 (GS method comparison) | [`fig4::run`] |
//! | Fig. 5 (adaptive-`k` method comparison) | [`fig5::run`] |
//! | Fig. 6 (Algorithm 2 vs Algorithm 3) | [`fig6::run`] |
//! | Fig. 7 (comm-time sweep, FEMNIST) | [`sweep::run_femnist`] |
//! | Fig. 8 (comm-time sweep, CIFAR-10) | [`sweep::run_cifar`] |
//! | Theorems 1–2 (regret bounds) | [`regret_check::run`] |

pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod regret_check;
pub mod sweep;
