//! Observability substrate for the AGSFL workspace: monotonic span timers
//! over the round's stages, log-bucketed HDR-style histograms with exact
//! count/sum, and a line-buffered JSONL metrics sink.
//!
//! The crate observes **time only**. A round's deterministic facts — `k`,
//! the round time, the cohort, wire bytes, fault tallies — are recorded
//! once, in `agsfl_fl::RoundReport`; the metrics line is written from the
//! report and the run history totals it, so nothing here keeps a copy.
//!
//! The crate is dependency-free (consistent with the workspace's
//! vendored-shim policy) and **read-only with respect to the training
//! trajectory**: nothing in here draws randomness, touches fold orders, or
//! allocates on the hot path once a recorder exists. Instrumented code
//! follows one idiom:
//!
//! ```
//! use agsfl_telemetry::{stage, NoopRecorder, SpanId};
//!
//! let mut rec = NoopRecorder;
//! let selected = stage(&mut rec, SpanId::Selection, || {
//!     // ... the stage's work ...
//!     42
//! });
//! assert_eq!(selected, 42);
//! ```
//!
//! With the default [`NoopRecorder`] the `enabled()` gate is a constant
//! `false` and `stage` never reads the clock — after monomorphization the
//! instrumentation compiles down to the bare closure call, which is the
//! overhead contract `bench-report` and `scripts/verify.sh` check. A
//! [`StageRecorder`] collects the same calls into per-stage histograms plus
//! each stage's nanoseconds in the current round.
//!
//! All histogram state is integer: shard merges fold bit-identically in
//! worker order, exactly like every other merge in the codebase, and the
//! bucket scheme (16 sub-buckets per octave, exact below 16) is pinned by
//! proptests in `tests/histogram_props.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod ids;
mod recorder;
mod sink;

use std::time::Instant;

pub use hist::{Histogram, NUM_BUCKETS};
pub use ids::SpanId;
pub use recorder::{NoopRecorder, Recorder, StageRecorder};
pub use sink::JsonlSink;

/// Runs `f` as one timed stage: its wall time is recorded under `id` if —
/// and only if — the recorder is enabled.
///
/// With [`NoopRecorder`] this is the bare call `f()`: the monotonic clock
/// is never read on un-instrumented runs.
#[inline]
pub fn stage<R: Recorder + ?Sized, T>(rec: &mut R, id: SpanId, f: impl FnOnce() -> T) -> T {
    if !rec.enabled() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    rec.span(id, t0.elapsed().as_nanos() as u64);
    out
}
