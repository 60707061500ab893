//! A pass-through `KController` that lets the benchmark see each round from
//! outside: `Experiment`'s round loop calls `propose_k` once before a round
//! and `observe` once after it, so the two calls bracket the round.

use std::cell::Cell;
use std::time::Instant;

use agsfl_online::{KController, RoundFeedback, StateError};
use agsfl_wire::Precision;

/// What the tap saw of one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TapRound {
    pub k_used: usize,
    /// Simulated time of the round.
    pub round_time: f64,
    /// Host time from `propose_k` to `observe`.
    pub wall_ns: u64,
}

/// Wraps the workload's real controller; decisions are the inner
/// controller's, bit for bit.
#[derive(Debug)]
pub struct Tap {
    inner: Box<dyn KController>,
    round_started: Cell<Option<Instant>>,
    first_round_started: Cell<Option<Instant>>,
    rounds: Vec<TapRound>,
}

impl Tap {
    pub fn new(inner: Box<dyn KController>) -> Self {
        Self {
            inner,
            round_started: Cell::new(None),
            first_round_started: Cell::new(None),
            rounds: Vec::new(),
        }
    }

    pub fn rounds(&self) -> &[TapRound] {
        &self.rounds
    }

    /// When the first round of this run began (for a resumed run: when the
    /// restore was complete).
    pub fn first_round_started(&self) -> Option<Instant> {
        self.first_round_started.get()
    }
}

impl KController for Tap {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn propose_k(&self) -> f64 {
        let now = Instant::now();
        self.round_started.set(Some(now));
        if self.first_round_started.get().is_none() {
            self.first_round_started.set(Some(now));
        }
        self.inner.propose_k()
    }

    fn probe_k(&self) -> Option<f64> {
        self.inner.probe_k()
    }

    fn observe(&mut self, feedback: &RoundFeedback) {
        let wall_ns = self
            .round_started
            .take()
            .map_or(0, |t| t.elapsed().as_nanos() as u64);
        self.rounds.push(TapRound {
            k_used: feedback.k_used,
            round_time: feedback.round_time,
            wall_ns,
        });
        self.inner.observe(feedback);
    }

    fn propose_precision(&self) -> Option<Precision> {
        self.inner.propose_precision()
    }

    fn save_state(&self) -> Vec<u8> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        self.inner.restore_state(bytes)
    }
}
