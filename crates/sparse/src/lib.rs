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
//! figure sweep, ablation and bench target — is `Sparsifier::select_into`,
//! which threads a caller-owned [`SelectionScratch`] through selection and
//! aggregation. Every sparsifier follows one contract: step one picks `J`
//! (its own rule) and leaves it sorted and marked in the scratch; step two
//! is one shared sweep over the uploads that aggregates `J` and writes
//! every upload's resets `J ∩ J_i` into one flat list with per-upload end
//! offsets ([`SelectionResult::resets`]). The workspace holds
//! epoch/generation-stamped dense buffers: "clearing" is a counter bump,
//! never a `memset` or a hash-map rebuild, so a steady-state round
//! allocates only the returned result — the aggregate's entries, the flat
//! reset list and its offsets — however many clients it has.
//!
//! With `N` clients, degree `k`, dimension `D` and `U = Σ_i |uploads_i|`
//! (`U ≤ N·k`):
//!
//! | stage | seed implementation | scratch implementation |
//! |---|---|---|
//! | FAB `κ` search | `HashSet` union rebuild per probe: O(U) hashing × O(log k) probes | rank-major scan of each upload's ranked key view ([`ClientUpload::ranked`]): level `r` is every client's rank-`r` key, the indices first seen there are the ones whose minimum rank is `r`, so union sizes grow level by level and the scan stops at the first level that overflows `k` — `N·(κ+1)` keys read, not `U`; `J` is sorted by the index radix ([`topk::sort_indices`]) |
//! | aggregation + resets | `HashSet` membership + `HashMap` sums + sort/dedup in `from_entries`, one reset `Vec` per client | one shared sweep for all five sparsifiers: stamped dense `f64` sums, O(U) array probes — monotone per upload, since uploads are index-ordered — entries emitted sorted via [`SparseGradient::from_sorted_entries`], resets appended to one flat list reserved once |
//! | client top-k | comparator quickselect + sort over a fresh `16·D`-byte `(usize, f32)` candidate buffer per client per round | [`topk::top_k_entries_indexed_into`]: packed `u64` order keys in one reused per-client buffer — one read of the residual (a stratified sample bounds the `k`-th magnitude, a masked pass gathers the candidates, a histogram cut over them alone makes it exact), no float comparison; its output *is* the index order an upload holds and a codec encodes — then one radix rank of the keys into the ranked view ([`topk::rank_index_ordered_keys_into`]; byte-priced, of the decoded frame's keys) |
//! | residual reset (lossy tier) | one binary search of the index-sorted error list per reset index | one merge of the (already ascending) reset indices against the error list ([`ResidualAccumulator::reset_indices_to`]) |
//!
//! Measured on the kernel benchmark (`bench-report`, dim = 10⁵, N = 40,
//! k = dim/100), the scratch path selects ~5× faster than the seed path it
//! replaced (see `BENCH_kernels.json`); the [`mod@reference`] module
//! keeps the seed implementations as the executable specification the fast
//! paths are property-tested against.
//!
//! `select_into` is the only server-selection path, and it is serial on
//! purpose: Algorithm 1's server step is one O(U) sweep that the paper's
//! time model does not even charge for, so handing it to worker threads
//! costs more in dispatch and merging than the sweep itself (see
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
//! assert!(result.contributions().iter().all(|&c| c >= 1));
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
