//! A client's gradient step allocates nothing once it is warm, and a real
//! model's step allocates only what the model itself still does.
//!
//! `Client::compute_local_gradient` draws the batch indices into the
//! client's reused index buffer, fetches just those rows from the
//! `ShardSource` into its reused batch buffer, and lets the model land the
//! gradient in its residual (`Model::loss_and_accumulate_into`, through
//! `ResidualAccumulator::add_with`). So after one warm-up call has sized
//! them, a step allocates nothing of the client's — across epoch
//! boundaries too, where the sampler reshuffles its order in place. A batch
//! drawn into a fresh index `Vec`, or copied out of the shard into a fresh
//! matrix, shows up here.
//!
//! The stand-in model's gradient is a plain column sum, folded per
//! coordinate and added into the residual (`Model::loss_and_land` with
//! `Store::Add`), so its count is the client's alone: zero. The real models' counts
//! are pinned per step, each allocation named — the model's own, which are
//! theirs to fix: the product kernels allocate nothing, and neither does
//! landing the gradient.
//!
//! The counter is a `#[global_allocator]` of this test binary alone,
//! counting the calls that obtain memory (`alloc`, `alloc_zeroed`,
//! `realloc`) on the calling thread only, so the harness's other threads
//! do not show up in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use agsfl_fl::Client;
use agsfl_ml::data::{FederatedDataset, ShardSource, SyntheticFemnist, SyntheticFemnistConfig};
use agsfl_ml::model::{LinearSoftmax, Model, SimpleCnn};
use agsfl_tensor::{Matrix, MatrixView, Store};
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

    fn loss_and_land(
        &self,
        params: &[f32],
        x: &Matrix,
        labels: &[usize],
        out: &mut [f32],
        store: Store,
    ) -> f32 {
        assert_eq!(out.len(), self.input_dim, "gradient length mismatch");
        for (j, o) in out.iter_mut().enumerate() {
            let mut g = 0.0;
            for row in x.iter_rows() {
                g += row[j];
            }
            match store {
                Store::Overwrite => *o = g,
                Store::Add => *o += g,
            }
        }
        let mut loss = 0.0;
        for (row, &label) in x.iter_rows().zip(labels) {
            for (&w, &v) in params.iter().zip(row) {
                loss += w * v;
            }
            loss += label as f32;
        }
        loss
    }
}

/// Rows per batch: a batch of 5 over 32 rows straddles the epoch
/// boundary, where the sampler reshuffles.
const BATCH: usize = 5;

/// A warm `LinearSoftmax` step: the logits matrix, the logit-gradient
/// matrix, one soft-max row per sample and the bias gradient's
/// `sum_rows` — nothing of the `D`-sized gradient or the residual add.
const LINEAR_STEP_ALLOCATIONS: usize = 3 + BATCH;

/// A warm `SimpleCnn` step: the logits matrix, the logit-gradient matrix,
/// one soft-max row per sample and the classifier biases' `sum_rows`. The
/// convolution and its backward run in the thread's reused workspace and
/// the product kernels allocate nothing.
const CNN_STEP_ALLOCATIONS: usize = 3 + BATCH;

/// Warm `client` up with one step, then returns the allocations of each of
/// 40 more steps.
fn warm_step_allocations(
    model: &dyn Model,
    data: &FederatedDataset,
    seed: u64,
) -> (Vec<usize>, Client) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let params = model.init_params(&mut rng);
    let id = 3;
    let mut client = Client::new(id, data.shard_len(id), 0.5, model.num_params(), BATCH, 7);
    client.compute_local_gradient(data, model, &params);
    let mut counts = Vec::with_capacity(40);
    let mut losses = 0.0f32;
    for _ in 0..40 {
        let before = allocations();
        let loss = client.compute_local_gradient(data, model, &params);
        counts.push(allocations() - before);
        losses += loss;
    }
    assert!(losses.is_finite());
    assert!(client.accumulator().residual_l1() > 0.0);
    (counts, client)
}

fn dataset(feature_dim: usize) -> FederatedDataset {
    let cfg = SyntheticFemnistConfig {
        feature_dim,
        ..SyntheticFemnistConfig::tiny()
    };
    SyntheticFemnist::new(cfg).generate(&mut ChaCha8Rng::seed_from_u64(4))
}

#[test]
fn a_warm_gradient_step_allocates_nothing() {
    let cfg = SyntheticFemnistConfig::tiny();
    let data = dataset(cfg.feature_dim);
    let model = SumModel {
        input_dim: cfg.feature_dim,
        num_classes: cfg.num_classes,
    };
    let (counts, _) = warm_step_allocations(&model, &data, 1);
    for (step, &count) in counts.iter().enumerate() {
        assert_eq!(count, 0, "step {step} allocated");
    }
}

/// The real models through the client: every warm step allocates exactly
/// the model's pinned count, whatever the epoch boundary does.
#[test]
fn a_warm_real_model_step_allocates_only_its_pinned_count() {
    let cfg = SyntheticFemnistConfig::tiny();
    let linear_data = dataset(cfg.feature_dim);
    let linear = LinearSoftmax::new(cfg.feature_dim, cfg.num_classes);
    // 1 x 8 x 8 images: a 6 x 6 convolution, pooled to 3 x 3.
    let cnn_data = dataset(64);
    let cnn = SimpleCnn::new(1, 8, 8, 4, cfg.num_classes);
    let cases: [(&dyn Model, &FederatedDataset, usize); 2] = [
        (&linear, &linear_data, LINEAR_STEP_ALLOCATIONS),
        (&cnn, &cnn_data, CNN_STEP_ALLOCATIONS),
    ];
    for (model, data, pinned) in cases {
        let (counts, _) = warm_step_allocations(model, data, 2);
        for (step, &count) in counts.iter().enumerate() {
            assert_eq!(count, pinned, "{model:?}: step {step}");
        }
    }
}
