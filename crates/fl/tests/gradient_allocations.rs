//! A client's gradient step allocates nothing once it is warm.
//!
//! `Client::compute_local_gradient` draws the batch indices into the
//! client's reused index buffer, fetches just those rows from the
//! `ShardSource` into its reused batch buffer, and writes the gradient into
//! the thread's reused buffer. So after one warm-up call has sized them,
//! a step allocates nothing — across epoch boundaries too, where the
//! sampler reshuffles its order in place. A batch drawn into a fresh index
//! `Vec`, or copied out of the shard into a fresh matrix, shows up here.
//!
//! The model is a stand-in whose gradient is a plain sum written into the
//! caller's buffer, so the count is the client's alone: the real models
//! allocate their logits, which is theirs to fix, not the client's.
//!
//! The counter is a `#[global_allocator]` of this test binary alone,
//! counting the calls that obtain memory (`alloc`, `alloc_zeroed`,
//! `realloc`) on the calling thread only, so the harness's other threads
//! do not show up in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use agsfl_fl::Client;
use agsfl_ml::data::{FederatedDataset, ShardSource, SyntheticFemnist, SyntheticFemnistConfig};
use agsfl_ml::model::Model;
use agsfl_tensor::{Matrix, MatrixView};
use rand::RngCore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

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

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// A model whose gradient step allocates nothing: one weight per feature,
/// the gradient is the column sum of the batch and the loss a dot product.
#[derive(Debug)]
struct SumModel {
    input_dim: usize,
    num_classes: usize,
}

impl Model for SumModel {
    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn num_params(&self) -> usize {
        self.input_dim
    }

    fn init_params(&self, _rng: &mut dyn RngCore) -> Vec<f32> {
        vec![0.0; self.input_dim]
    }

    fn forward_view(&self, _params: &[f32], x: MatrixView<'_>) -> Matrix {
        Matrix::zeros(x.rows(), self.num_classes)
    }

    fn loss_and_grad_into(
        &self,
        params: &[f32],
        x: &Matrix,
        labels: &[usize],
        grad: &mut Vec<f32>,
    ) -> f32 {
        grad.clear();
        grad.resize(self.input_dim, 0.0);
        let mut loss = 0.0;
        for (row, &label) in x.iter_rows().zip(labels) {
            for ((g, &w), &v) in grad.iter_mut().zip(params).zip(row) {
                *g += v;
                loss += w * v;
            }
            loss += label as f32;
        }
        loss
    }
}

#[test]
fn a_warm_gradient_step_allocates_nothing() {
    let cfg = SyntheticFemnistConfig::tiny();
    let data: FederatedDataset =
        SyntheticFemnist::new(cfg).generate(&mut ChaCha8Rng::seed_from_u64(4));
    let model = SumModel {
        input_dim: cfg.feature_dim,
        num_classes: cfg.num_classes,
    };
    let params = vec![0.01; model.num_params()];
    let id = 3;
    // A batch of 5 over 32 rows: batches straddle the epoch boundary, where
    // the sampler reshuffles.
    let mut client = Client::new(id, data.shard_len(id), 0.5, model.num_params(), 5, 7);
    client.compute_local_gradient(&data, &model, &params);

    let mut losses = 0.0f32;
    for step in 0..40 {
        let before = allocations();
        let loss = client.compute_local_gradient(&data, &model, &params);
        assert_eq!(allocations() - before, 0, "step {step} allocated");
        losses += loss;
    }
    assert!(losses.is_finite());
    assert!(client.accumulator().residual_l1() > 0.0);
}
