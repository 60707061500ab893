//! One module per figure of the paper's evaluation (Section V).
//!
//! Every figure has a `*Config` describing the workload (with defaults sized
//! so the whole suite regenerates in seconds on a laptop: synthetic data and
//! smaller models stand in for FEMNIST, CIFAR-10 and the paper's CNN) and a
//! result holding the exact series the paper plots plus a `render()`
//! method that prints them as text tables. Figs. 4–6 are one experiment —
//! a lineup of methods at one communication time — and share one result,
//! [`Comparison`]. The benchmark crate (`agsfl-bench`) runs the paper's
//! figures and the regret check, one `cargo bench` target each. What the
//! wire codecs and the fault model do to a whole run is asserted on
//! [`crate::Experiment`] runs directly, in
//! `crates/core/tests/byte_priced_runs.rs`; the cohort engine's memory
//! bound is gated by `examples/million_clients.rs`.
//!
//! | Paper figure | Function |
//! |---|---|
//! | Fig. 1 (Assumption 1 validation) | [`fig1::run`] |
//! | Fig. 4 (GS method comparison) | [`fig4::run`] |
//! | Fig. 5 (adaptive-`k` method comparison) | [`fig5::run`] |
//! | Fig. 6 (Algorithm 2 vs Algorithm 3) | [`fig5::run`] with `controllers: vec![Algorithm3, Algorithm2]` at β = 100 |
//! | Fig. 7 (comm-time sweep, FEMNIST) | [`sweep::run_femnist`] |
//! | Fig. 8 (comm-time sweep, CIFAR-10) | [`sweep::run_cifar`] |
//! | Theorems 1–2 (regret bounds) | [`regret_check::run`] |

use agsfl_fl::RunHistory;
use serde::{Deserialize, Serialize};

use crate::report;

pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod regret_check;
pub mod sweep;

/// The result of a comparison figure (Figs. 4–6): one history per method,
/// all run at the same communication time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// What was compared, with the configured communication time (and
    /// Fig. 4's `k`).
    pub title: String,
    /// One history per method, in lineup order.
    pub histories: Vec<RunHistory>,
}

impl Comparison {
    /// The history of a method by label; `None` if not present.
    pub fn history(&self, label: &str) -> Option<&RunHistory> {
        self.histories.iter().find(|h| h.label == label)
    }

    /// Final global loss per method as `(label, loss)` pairs.
    pub fn final_losses(&self) -> Vec<(String, f64)> {
        self.histories
            .iter()
            .map(|h| (h.label.clone(), h.final_global_loss().unwrap_or(f64::NAN)))
            .collect()
    }

    /// Final test accuracy per method as `(label, accuracy)` pairs.
    pub fn final_accuracies(&self) -> Vec<(String, f64)> {
        self.histories
            .iter()
            .map(|h| (h.label.clone(), h.final_test_accuracy().unwrap_or(f64::NAN)))
            .collect()
    }

    /// The stability of each method's `k` trajectory measured as the spread
    /// (max − min) of `k` over the last `window` rounds.
    pub fn k_spread(&self, window: usize) -> Vec<(String, f64)> {
        self.histories
            .iter()
            .map(|h| {
                let ks = h.k_sequence();
                let tail = &ks[ks.len().saturating_sub(window)..];
                let max = tail.iter().copied().max().unwrap_or(0) as f64;
                let min = tail.iter().copied().min().unwrap_or(0) as f64;
                (h.label.clone(), max - min)
            })
            .collect()
    }

    /// Renders the loss/accuracy-vs-time tables, the sub-sampled `k_m`
    /// trajectories, the contribution CDF summary and each method's `k`
    /// spread over the final 50 rounds.
    pub fn render(&self, max_time: f64) -> String {
        let refs: Vec<&RunHistory> = self.histories.iter().collect();
        let times = report::sample_times(max_time, 10);
        let mut out = format!("{}\n", self.title);
        out.push_str("\nGlobal loss vs normalized time\n");
        out.push_str(&report::loss_table(&refs, &times));
        out.push_str("\nTest accuracy vs normalized time\n");
        out.push_str(&report::accuracy_table(&refs, &times));
        out.push_str("\nk_m trajectories (FedAvg: elements exchanged, D or 0)\n");
        out.push_str(&report::k_trajectory_table(&refs, 15));
        out.push_str("\nPer-client contributed gradient elements (CDF summary)\n");
        out.push_str(&report::contribution_summary(&refs));
        out.push_str("\nk spread over the final 50 rounds (FedAvg: of elements exchanged)\n");
        for (label, spread) in self.k_spread(50) {
            out.push_str(&format!("  {label:<40} {spread:>8.0}\n"));
        }
        out
    }
}
