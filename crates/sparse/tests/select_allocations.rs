//! The selection's allocations do not grow with the number of clients.
//!
//! `Sparsifier::select_into` keeps every temporary in the caller's
//! `SelectionScratch`, and its result stores the resets as one flat list
//! with per-upload end offsets. So once a warm-up call has sized the
//! scratch, a call allocates the same number of times whether its uploads
//! come from 1, 8 or 64 clients — as long as the total of uploaded and
//! reset entries stays the same. A reset `Vec` per client, or any other
//! per-client list, makes the count grow with `N`.
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

/// Uploaded entries per round, whatever the client count.
const TOTAL: usize = 512;
/// Downlink budget of the two bidirectional top-k sparsifiers: with the
/// uploads disjoint, each selected index is reset in exactly one upload.
const K: usize = 64;

/// One round's uploads from `n` clients, and the model dimension.
type Round = (Vec<ClientUpload>, usize);
/// Builds the round a sparsifier is counted on, for a client count.
type RoundFor = fn(usize) -> Round;

/// Top-k uploads: each client uploads its own `TOTAL / n` indices, ranked
/// by decreasing magnitude — disjoint, so the union is all `TOTAL`.
fn disjoint_ranked(n: usize) -> Round {
    let len = TOTAL / n;
    let uploads = (0..n)
        .map(|i| {
            let entries = (0..len)
                .map(|r| (i * len + r, (len - r) as f32 * 0.5 + i as f32))
                .collect();
            ClientUpload::new(i, 1.0 / n as f64, entries)
        })
        .collect();
    (uploads, TOTAL)
}

/// Every client uploads the same first `TOTAL / n` coordinates, so the
/// shared set shrinks as the clients grow.
fn shared_prefix(n: usize) -> Vec<ClientUpload> {
    (0..n)
        .map(|i| {
            let entries = (0..TOTAL / n).map(|j| (j, (i + j) as f32 - 3.0)).collect();
            ClientUpload::new(i, 1.0 / n as f64, entries)
        })
        .collect()
}

/// Periodic-k: the shared set is a subset of the coordinates.
fn periodic(n: usize) -> Round {
    (shared_prefix(n), TOTAL)
}

/// Send-all: the shared set is every coordinate.
fn dense(n: usize) -> Round {
    (shared_prefix(n), TOTAL / n)
}

/// Allocations of the second of two `select_into` calls on one scratch,
/// with the number of reset entries it produced.
fn warm_allocations(
    sparsifier: &dyn Sparsifier,
    uploads: &[ClientUpload],
    dim: usize,
    k: usize,
) -> (usize, usize) {
    let mut scratch = SelectionScratch::new();
    drop(sparsifier.select_into(uploads, dim, k, &mut scratch));
    let before = ALLOCATIONS.with(Cell::get);
    let result = sparsifier.select_into(uploads, dim, k, &mut scratch);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let resets = result.contributions().iter().sum();
    (allocations, resets)
}

#[test]
fn warm_selection_allocations_do_not_depend_on_the_client_count() {
    let cases: [(&dyn Sparsifier, RoundFor, usize); 5] = [
        (&FabTopK::new(), disjoint_ranked, K),
        (&FubTopK::new(), disjoint_ranked, K),
        (&UnidirectionalTopK::new(), disjoint_ranked, TOTAL),
        (&PeriodicK::new(), periodic, TOTAL),
        (&SendAll::new(), dense, TOTAL),
    ];
    for (sparsifier, round, expected_resets) in cases {
        let counts: Vec<(usize, usize)> = [1, 8, 64]
            .into_iter()
            .map(|n| {
                let (uploads, dim) = round(n);
                assert_eq!(uploads.iter().map(ClientUpload::len).sum::<usize>(), TOTAL);
                let (allocations, resets) = warm_allocations(sparsifier, &uploads, dim, K);
                assert_eq!(resets, expected_resets, "{} N={n}", sparsifier.name());
                (n, allocations)
            })
            .collect();
        assert!(
            counts.iter().all(|&(_, a)| a == counts[0].1),
            "{}: allocations of a warm select_into by client count (N, count): {counts:?}",
            sparsifier.name()
        );
    }
}
