//! The selection's allocations do not grow with the number of clients or
//! the number of resets.
//!
//! `Sparsifier::select_into` keeps every temporary in the caller's
//! `SelectionScratch`, and its result keeps `J` as a bitset from which each
//! client derives its own resets — the server builds no reset list. So once
//! a warm-up call has sized the scratch, a call whose previous result was
//! dropped allocates exactly its two result buffers (the aggregate's
//! entries, reserved once at `|J|`, and the bitset), and one whose previous
//! result was recycled allocates nothing, whether its uploads come from 1,
//! 8 or 64 clients and however many entries they reset. A per-client list
//! makes the count grow with `N`; a list that grows by doubling makes it
//! grow with the resets.
//!
//! The counter is a `#[global_allocator]` of this test binary alone,
//! counting the calls that obtain memory (`alloc`, `alloc_zeroed`,
//! `realloc`) on the calling thread only, so the harness's other threads
//! do not show up in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use agsfl_sparse::{
    ClientUpload, FabTopK, FubTopK, PeriodicK, SelectionScratch, SendAll, Sparsifier,
    UnidirectionalTopK,
};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell`, which neither allocates nor needs a destructor.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations of a warm `select_into` after a dropped result, for every
/// sparsifier, client count and reset total: the aggregate's entries and
/// the `J` bitset, once each.
const WARM_SELECT_ALLOCATIONS: usize = 2;

/// Allocations of a warm `select_into` after a recycled result
/// (`SelectionScratch::recycle`), as the round engine runs it.
const RECYCLED_SELECT_ALLOCATIONS: usize = 0;

/// Uploaded entries per round, whatever the client count: two totals, so
/// the resets differ too.
const TOTALS: [usize; 2] = [512, 4096];

/// One round's uploads from `n` clients, and the model dimension.
type Round = (Vec<ClientUpload>, usize);
/// Builds the round a sparsifier is counted on, for a client count and an
/// upload total.
type RoundFor = fn(usize, usize) -> Round;

/// Top-k uploads: each client uploads its own `total / n` indices in index
/// order, the shape the round engine delivers — disjoint, so the union is
/// all `total`.
fn disjoint_top_k(n: usize, total: usize) -> Round {
    let len = total / n;
    let uploads = (0..n)
        .map(|i| {
            let entries = (0..len)
                .map(|r| (i * len + r, (len - r) as f32 * 0.5 + i as f32))
                .collect();
            ClientUpload::new(i, 1.0 / n as f64, entries)
        })
        .collect();
    (uploads, total)
}

/// Every client uploads the same first `total / n` coordinates, so the
/// shared set shrinks as the clients grow.
fn shared_prefix(n: usize, total: usize) -> Vec<ClientUpload> {
    (0..n)
        .map(|i| {
            let entries = (0..total / n).map(|j| (j, (i + j) as f32 - 3.0)).collect();
            ClientUpload::new(i, 1.0 / n as f64, entries)
        })
        .collect()
}

/// Periodic-k: the shared set is a subset of the coordinates.
fn periodic(n: usize, total: usize) -> Round {
    (shared_prefix(n, total), total)
}

/// Send-all: the shared set is every coordinate.
fn dense(n: usize, total: usize) -> Round {
    (shared_prefix(n, total), total / n)
}

/// Allocations of the second of two `select_into` calls on one scratch —
/// after dropping the first result, and after recycling it — with the
/// number of reset entries it produced.
fn warm_allocations(
    sparsifier: &dyn Sparsifier,
    uploads: &[ClientUpload],
    dim: usize,
    k: usize,
) -> (usize, usize, usize) {
    let mut scratch = SelectionScratch::new();
    drop(sparsifier.select_into(uploads, dim, k, &mut scratch));
    let before = ALLOCATIONS.with(Cell::get);
    let result = sparsifier.select_into(uploads, dim, k, &mut scratch);
    let dropped = ALLOCATIONS.with(Cell::get) - before;
    let resets = result.contributions(uploads).iter().sum();
    scratch.recycle(result);
    let before = ALLOCATIONS.with(Cell::get);
    let result = sparsifier.select_into(uploads, dim, k, &mut scratch);
    let recycled = ALLOCATIONS.with(Cell::get) - before;
    scratch.recycle(result);
    (dropped, recycled, resets)
}

#[test]
fn warm_selection_allocations_do_not_depend_on_the_client_count_or_the_resets() {
    // (sparsifier, round builder, resets as a fraction of the total: the
    // bidirectional two select k = total / 8, each index reset in exactly
    // one of the disjoint uploads; the other three reset every entry).
    let cases: [(&dyn Sparsifier, RoundFor, usize); 5] = [
        (&FabTopK::new(), disjoint_top_k, 8),
        (&FubTopK::new(), disjoint_top_k, 8),
        (&UnidirectionalTopK::new(), disjoint_top_k, 1),
        (&PeriodicK::new(), periodic, 1),
        (&SendAll::new(), dense, 1),
    ];
    for (sparsifier, round, divisor) in cases {
        let mut counts = Vec::new();
        for total in TOTALS {
            let k = total / 8;
            for n in [1, 8, 64] {
                let (uploads, dim) = round(n, total);
                assert_eq!(uploads.iter().map(ClientUpload::len).sum::<usize>(), total);
                let (dropped, recycled, resets) = warm_allocations(sparsifier, &uploads, dim, k);
                assert_eq!(resets, total / divisor, "{} N={n}", sparsifier.name());
                counts.push((total, n, dropped, recycled));
            }
        }
        assert!(
            counts.iter().all(|&(_, _, dropped, recycled)| {
                (dropped, recycled) == (WARM_SELECT_ALLOCATIONS, RECYCLED_SELECT_ALLOCATIONS)
            }),
            "{}: allocations of a warm select_into by (upload total, N, after a dropped \
             result, after a recycled one): {counts:?}",
            sparsifier.name()
        );
    }
}
