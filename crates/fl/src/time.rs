//! The normalized time model of the paper's evaluation.
//!
//! The paper simulates the FL system with a *normalized* notion of time
//! (Section V): the local computation of one round — performed by all clients
//! in parallel — costs a fixed 1 unit, and the "communication time" `β` is
//! defined as the time required to send the entire `D`-dimensional gradient
//! vector both uplink and downlink between the clients and the server. When
//! fewer elements are sent, the communication time scales proportionally to
//! the number of scalars actually transmitted, assuming equal uplink and
//! downlink speeds. Sparse messages carry an index alongside every value, so
//! `k` sparse elements cost `2k` scalars — this is the factor behind the
//! paper's FedAvg period of `⌊D/(2k)⌋`.
//!
//! The `2k`-scalar convention is a *proxy*: no bytes exist and every client
//! shares one link. For byte-accurate pricing of the frames the wire codecs
//! actually emit — per-client heterogeneous bandwidths, latency, bandwidth
//! traces — use [`ChannelModel`](crate::ChannelModel) via
//! [`SimulationConfig::wire`](crate::SimulationConfig::wire); the two cost
//! models are interchangeable signals for the online controllers.

use serde::{Deserialize, Serialize};

/// Normalized computation/communication time accounting for one FL system.
///
/// # Examples
///
/// ```
/// use agsfl_fl::TimeModel;
///
/// // Computation 1 per round; sending the full gradient (up + down) costs 10.
/// let tm = TimeModel::new(1.0, 10.0);
/// // A dense exchange of D scalars each way costs the full comm time.
/// assert_eq!(tm.round_time(1000, 1000, 1000), 11.0);
/// // A sparse exchange of k = 100 elements costs 2*100 scalars each way.
/// let sparse = tm.round_time(1000, 200, 200);
/// assert!((sparse - 3.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeModel {
    compute_time: f64,
    full_comm_time: f64,
}

impl TimeModel {
    /// Creates a time model with the given per-round computation time and the
    /// communication time of a full `D`-element (up + down) exchange.
    ///
    /// # Panics
    ///
    /// Panics if either time is negative or not finite.
    pub fn new(compute_time: f64, full_comm_time: f64) -> Self {
        assert!(
            compute_time.is_finite() && compute_time >= 0.0,
            "compute_time must be finite and non-negative"
        );
        assert!(
            full_comm_time.is_finite() && full_comm_time >= 0.0,
            "full_comm_time must be finite and non-negative"
        );
        Self {
            compute_time,
            full_comm_time,
        }
    }

    /// The paper's default: computation 1 per round, communication `beta` for
    /// a full-gradient exchange.
    pub fn normalized(beta: f64) -> Self {
        Self::new(1.0, beta)
    }

    /// Per-round computation time.
    pub fn compute_time(&self) -> f64 {
        self.compute_time
    }

    /// Communication time of exchanging `uplink_scalars` + `downlink_scalars`
    /// scalars for a model of dimension `dim`: the full communication time
    /// covers `2 * dim` scalars (D up, D down), and partial exchanges scale
    /// proportionally.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn comm_time(&self, dim: usize, uplink_scalars: usize, downlink_scalars: usize) -> f64 {
        assert!(dim > 0, "model dimension must be positive");
        let fraction = (uplink_scalars + downlink_scalars) as f64 / (2.0 * dim as f64);
        self.full_comm_time * fraction
    }

    /// Total time of one round: computation plus communication.
    pub fn round_time(&self, dim: usize, uplink_scalars: usize, downlink_scalars: usize) -> f64 {
        self.compute_time + self.comm_time(dim, uplink_scalars, downlink_scalars)
    }

    /// Time of one round of `k`-element bidirectional sparsified GS (both
    /// directions carry `k` values plus `k` indices).
    pub fn sparse_round_time(&self, dim: usize, k: usize) -> f64 {
        self.round_time(dim, 2 * k, 2 * k)
    }

    /// Time of one round with a full dense exchange (FedAvg aggregation round
    /// or always-send-all).
    pub fn dense_round_time(&self, dim: usize) -> f64 {
        self.round_time(dim, dim, dim)
    }

    /// Time of a computation-only round (FedAvg round without aggregation).
    pub fn local_round_time(&self) -> f64 {
        self.compute_time
    }

    /// The FedAvg aggregation period `⌊D / (2k)⌋` that equalizes the average
    /// communication overhead with `k`-element GS (the division by 2 accounts
    /// for index transmission in GS). Returns at least 1.
    pub fn fedavg_period(dim: usize, k: usize) -> usize {
        if k == 0 {
            return usize::MAX;
        }
        (dim / (2 * k)).max(1)
    }
}

impl Default for TimeModel {
    fn default() -> Self {
        Self::normalized(10.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dense_round_is_compute_plus_full_comm() {
        let tm = TimeModel::new(1.0, 10.0);
        assert_eq!(tm.dense_round_time(500), 11.0);
        assert_eq!(tm.local_round_time(), 1.0);
    }

    #[test]
    fn sparse_round_scales_with_k() {
        let tm = TimeModel::normalized(10.0);
        let d = 1000usize;
        // k = D/2 means 2k = D scalars per direction: same as dense.
        assert!((tm.sparse_round_time(d, 500) - tm.dense_round_time(d)).abs() < 1e-9);
        // k = D/4 costs half the communication.
        assert!((tm.sparse_round_time(d, 250) - (1.0 + 5.0)).abs() < 1e-9);
    }

    #[test]
    fn fedavg_period_equalizes_average_overhead() {
        let d = 10_000usize;
        let k = 100usize;
        let period = TimeModel::fedavg_period(d, k);
        assert_eq!(period, 50);
        let tm = TimeModel::normalized(20.0);
        // Average FedAvg comm per round = full comm / period.
        let fedavg_avg = tm.comm_time(d, d, d) / period as f64;
        let gs_per_round = tm.comm_time(d, 2 * k, 2 * k);
        assert!((fedavg_avg - gs_per_round).abs() < 1e-9);
    }

    #[test]
    fn fedavg_period_edge_cases() {
        assert_eq!(TimeModel::fedavg_period(100, 0), usize::MAX);
        assert_eq!(TimeModel::fedavg_period(10, 50), 1);
    }

    #[test]
    fn zero_comm_time_is_allowed() {
        let tm = TimeModel::new(1.0, 0.0);
        assert_eq!(tm.sparse_round_time(100, 10), 1.0);
    }

    #[test]
    #[should_panic]
    fn negative_time_panics() {
        let _ = TimeModel::new(-1.0, 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_dim_panics() {
        let tm = TimeModel::default();
        let _ = tm.comm_time(0, 1, 1);
    }

    proptest! {
        #[test]
        fn prop_round_time_monotone_in_scalars(
            dim in 1usize..10_000,
            up in 0usize..5_000,
            down in 0usize..5_000,
            beta in 0.0f64..100.0,
        ) {
            let tm = TimeModel::normalized(beta);
            let t1 = tm.round_time(dim, up, down);
            let t2 = tm.round_time(dim, up + 1, down + 1);
            prop_assert!(t2 >= t1);
            prop_assert!(t1 >= tm.compute_time());
        }

        #[test]
        fn prop_comm_time_linear(
            dim in 1usize..10_000,
            k in 0usize..2_000,
            beta in 0.0f64..50.0,
        ) {
            let tm = TimeModel::normalized(beta);
            let single = tm.comm_time(dim, k, k);
            let double = tm.comm_time(dim, 2 * k, 2 * k);
            prop_assert!((double - 2.0 * single).abs() < 1e-9);
        }
    }
}
