//! Gradient sparsification methods for federated learning.
//!
//! This crate implements the communication-side machinery of the paper:
//!
//! * [`SparseGradient`] — an index/value representation of a sparse gradient
//!   vector together with merge/apply helpers,
//! * [`topk`] — selection of the `k` largest-magnitude coordinates,
//! * [`ResidualAccumulator`] — the per-client accumulated local gradient
//!   `a_i` of Algorithm 1 (error feedback / residual accumulation),
//! * [`Sparsifier`] implementations:
//!   [`FabTopK`] (the paper's fairness-aware bidirectional top-k),
//!   [`FubTopK`] (fairness-unaware bidirectional top-k, as in global top-k),
//!   [`UnidirectionalTopK`] (downlink may carry up to `kN` elements),
//!   [`PeriodicK`] (random `k` coordinates each round) and
//!   [`SendAll`] (dense exchange every round).
//!
//! The sparsifiers are pure selection/aggregation logic: they know nothing
//! about models, datasets or time. The federated-learning simulator in
//! `agsfl-fl` drives them round by round.
//!
//! # The selection pipeline and its complexity
//!
//! The server hot path of Algorithm 1 — executed once per round for every
//! figure sweep, ablation and bench target — runs in two phases over a
//! caller-owned [`SelectionScratch`]. Every upload is *accumulated* into a
//! dense `f64` sum per coordinate ([`SelectionScratch::accumulate`]:
//! `weight × value`, in entry order); then the sparsifier picks `J` (its own
//! rule) into a bitset — FAB-top-k by its rank-major scan, FUB-top-k and
//! unidirectional top-k from the union of the uploads, periodic-k and
//! send-all from their plan — and the aggregate is that bitset read in
//! index order, each coordinate with its sum: one gather
//! ([`Sparsifier::select_accumulated`]). [`Sparsifier::select_into`] is the
//! two phases in one call; the round engine in `agsfl-fl` accumulates each
//! delivered upload as it is admitted and selects once the pass is over.
//! The server builds no reset list: the result keeps `J`, and each client
//! derives its own resets `J ∩ J_i` from its own upload
//! ([`SelectionResult::resets`], fused into the reset itself by
//! [`ResidualAccumulator::reset_selected`]). The sums are zeroed by one
//! fill of the dimension after each selection, and a result handed back
//! ([`SelectionScratch::recycle`]) lends its two buffers to the next one, so
//! a steady-state round allocates nothing here, however many clients it
//! has.
//!
//! With `N` clients, degree `k`, dimension `D` and `U = Σ_i |uploads_i|`
//! (`U ≤ N·k`):
//!
//! | stage | seed implementation | scratch implementation |
//! |---|---|---|
//! | FAB `κ` search | `HashSet` union rebuild per probe: O(U) hashing × O(log k) probes | rank-major scan of each upload's ranked key view ([`ClientUpload::ranked`]): level `r` is every client's rank-`r` key, the indices first seen there are the ones whose minimum rank is `r`, so union sizes grow level by level and the scan stops at the first level that overflows `k` — `N·(κ+1)` keys read, not `U`; `J` is a bitset, read in index order, never sorted |
//! | aggregation + resets | `HashSet` membership + `HashMap` sums + sort/dedup in `from_entries`, one reset `Vec` per client | each upload added into dense `f64` sums as it arrives (O(U), in the round engine overlapped with the client pass), then one gather of `J`'s sums off the bitset (O(D/64 + k)) and one fill of the sums; entries emitted sorted via [`SparseGradient::from_sorted_entries`]; no reset list — each client tests its own entries against `J`, on the pool in the round engine |
//! | client top-k | comparator quickselect + sort over a fresh `16·D`-byte `(usize, f32)` candidate buffer per client per round | [`topk::top_k_entries_indexed_into`]: packed `u64` order keys in one reused per-client buffer — one read of the residual (a stratified sample bounds the `k`-th magnitude, a masked pass gathers the candidates, a histogram cut over them alone makes it exact), no float comparison; its output *is* the index order an upload holds and a codec encodes — then one radix rank of the keys into the ranked view ([`topk::rank_index_ordered_keys_into`]; byte-priced, of the decoded frame's keys) |
//! | residual reset (lossy tier) | one binary search of the index-sorted error list per reset index | the client's walk of its own upload ([`ResidualAccumulator::reset_selected`]): each entry's `J` bit packs it into a stack chunk without a branch, the per-entry errors ride along, and only the selected coordinates are written |
//!
//! Measured on the kernel benchmark (`bench-report`, dim = 10⁵, N = 40,
//! k = dim/100), the scratch path selects faster than the seed path it
//! replaced (the older lines of `BENCH_history.jsonl` hold the ratio); the
//! [`mod@reference`] module keeps the seed implementations as the
//! executable specification the fast paths are property-tested against.
//!
//! Selection is serial on purpose: what is left of it after the
//! accumulation — the scan, the gather and the fill — is small next to
//! dispatching and merging it across worker threads (see
//! `benchmark/README.md`, finding 3). It is also the only *read* of the
//! uploads: the derivative-sign probe's hypothetical `k'`-element aggregate
//! is [`Sparsifier::probe_aggregate`], the round's own aggregate restricted
//! to `J(k')`, not a second selection. `agsfl_fl::Simulation` runs both on
//! the round thread over one reused [`SelectionScratch`].
//!
//! # Example
//!
//! ```
//! use agsfl_sparse::{ClientUpload, FabTopK, Sparsifier};
//!
//! let sparsifier = FabTopK::new();
//! // Two clients, dimension 6, k = 2.
//! let uploads = vec![
//!     ClientUpload::new(0, 0.5, vec![(0, 4.0), (3, -3.0)]),
//!     ClientUpload::new(1, 0.5, vec![(5, 2.0), (1, 1.0)]),
//! ];
//! let result = sparsifier.select(&uploads, 6, 2);
//! assert_eq!(result.aggregated.nnz(), 2);
//! // Fairness: each client contributes at least floor(k/N) = 1 element.
//! assert!(result.contributions(&uploads).iter().all(|&c| c >= 1));
//! // Each client derives its own resets from the downlink set.
//! assert_eq!(result.resets(&uploads[0]).collect::<Vec<_>>(), [0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accumulator;
mod fab;
mod fub;
mod periodic;
pub mod reference;
mod scratch;
mod send_all;
mod sparse_vec;
mod sparsifier;
pub mod topk;
mod unidirectional;

pub use accumulator::ResidualAccumulator;
pub use fab::FabTopK;
pub use fub::FubTopK;
pub use periodic::PeriodicK;
pub use scratch::SelectionScratch;
pub use send_all::SendAll;
pub use sparse_vec::SparseGradient;
pub use sparsifier::{ClientUpload, SelectionResult, Sparsifier, UploadPlan};
pub use unidirectional::UnidirectionalTopK;

#[doc(hidden)]
pub type ShardedScratch = SelectionScratch; // benchmark/ compat; see `Sparsifier::select_parallel`
