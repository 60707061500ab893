//! Models with flat parameter vectors.
//!
//! Every model implements [`Model`], which exposes the model as an opaque
//! `D`-dimensional parameter vector plus functions to compute logits, loss and
//! the loss gradient on a mini-batch. Keeping the parameters flat is what lets
//! the sparsification layer (`agsfl-sparse`) and the FL simulator (`agsfl-fl`)
//! treat the model exactly as the paper does: a weight vector `w ∈ R^D`
//! updated by `w(m) = w(m-1) - η ∇_s L(w(m-1))` (Eq. (1)).

mod cnn;
mod mlp;
mod scratch;

pub use cnn::SimpleCnn;
pub use mlp::{LinearSoftmax, Mlp};
pub use scratch::CnnScratch;

use agsfl_tensor::{Matrix, MatrixView, Store};
use rand::RngCore;

use crate::loss::batch_cross_entropy;

/// A classification model whose parameters live in a single flat `Vec<f32>`.
///
/// # Contract
///
/// Implementations must uphold the following, which the rest of the
/// workspace (the sparsification layer, the parallel round engine and the
/// sharded evaluation sweeps) relies on:
///
/// * **Purity.** Every method is a pure function of `(params, inputs)`: the
///   model object itself holds only the architecture (dimensions), never
///   learned state. This guarantees that two federated clients holding
///   identical parameter vectors compute identical losses and gradients —
///   the synchronization invariant of Algorithm 1 in the paper.
/// * **Stable parameter layout.** A model defines a fixed layout of its
///   parameter blocks inside the flat vector (documented per model, e.g.
///   [`SimpleCnn`]'s `conv_w | conv_b | fc_w | fc_b`), and
///   [`Model::init_params`] and [`Model::loss_and_grad`] must agree on it.
///   The sparsifiers treat coordinates as opaque, so the layout may never
///   change between calls. Because the weight blocks are row-major inside
///   the vector, implementations multiply straight out of `params` through
///   borrowed [`MatrixView`]s and never stage a copy.
/// * **Sample-major gradient accumulation order.** The gradient returned by
///   [`Model::loss_and_grad`] is accumulated over the batch rows in
///   ascending sample order (row 0 first). Callers compare gradients across
///   implementations (the `agsfl_ml::reference` equivalence tests), so the
///   accumulation order is part of the observable behaviour, not an
///   implementation detail.
/// * **One gradient, two landings.** [`Model::loss_and_land`] is the one
///   backward body: it folds every gradient coordinate from `+0.0` and
///   stores it once, over `out` ([`Store::Overwrite`]) or added to it
///   ([`Store::Add`]). So [`Model::loss_and_accumulate_into`] on a residual
///   is exactly `residual += loss_and_grad` bit for bit, and a client step
///   (Line 4 of Algorithm 1) never materializes its gradient.
/// * **Row independence.** [`Model::forward`] must compute each output row
///   as a function of that row's input alone — no batch statistics. This is
///   what makes the executor's row-chunked evaluation sweeps
///   ([`crate::metrics`]) bit-identical to the serial pass for any chunking:
///   splitting a batch into contiguous sub-batches and concatenating the
///   logits yields exactly the bits of the unsplit call.
pub trait Model: Send + Sync + std::fmt::Debug {
    /// Dimension of a single input feature vector.
    fn input_dim(&self) -> usize;

    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// Total number of parameters `D`.
    fn num_params(&self) -> usize;

    /// Draws an initial parameter vector.
    ///
    /// The returned vector always has length [`Model::num_params`].
    fn init_params(&self, rng: &mut dyn RngCore) -> Vec<f32>;

    /// Computes logits for a borrowed batch `x` of shape
    /// `(batch, input_dim)` — rows of a larger matrix, or a single feature
    /// row, without copying them into a [`Matrix`] first.
    ///
    /// # Panics
    ///
    /// Implementations panic if `params.len() != self.num_params()` or the
    /// input width differs from [`Model::input_dim`].
    fn forward_view(&self, params: &[f32], x: MatrixView<'_>) -> Matrix;

    /// Computes logits for a batch `x` of shape `(batch, input_dim)`:
    /// [`Model::forward_view`] on the whole matrix.
    ///
    /// # Panics
    ///
    /// Like [`Model::forward_view`].
    fn forward(&self, params: &[f32], x: &Matrix) -> Matrix {
        self.forward_view(params, x.view())
    }

    /// Computes the mean cross-entropy loss on a mini-batch and lands its
    /// gradient `g` with respect to the flat parameter vector in `out`
    /// (`num_params` long) as `store` says: [`Store::Overwrite`] writes
    /// `out[j] = g[j]` whatever `out` held, [`Store::Add`] writes
    /// `out[j] += g[j]`. Both are the same bits of `g`: a model folds each
    /// coordinate from `+0.0` and stores the fold once, by the store mode —
    /// its weight-gradient products straight from their registers — so
    /// neither landing materializes, zeroes or re-reads a gradient vector.
    ///
    /// Callers use the two wrappers: [`Model::loss_and_grad_into`] and
    /// [`Model::loss_and_accumulate_into`].
    ///
    /// # Panics
    ///
    /// Implementations panic on parameter/input/label dimension mismatches
    /// and if `out.len() != self.num_params()`.
    fn loss_and_land(
        &self,
        params: &[f32],
        x: &Matrix,
        labels: &[usize],
        out: &mut [f32],
        store: Store,
    ) -> f32;

    /// Computes the mean cross-entropy loss on a mini-batch and writes its
    /// gradient with respect to the flat parameter vector into `grad`,
    /// which is overwritten — resized to [`Model::num_params`] whatever it
    /// held — so a caller can reuse one buffer across calls.
    fn loss_and_grad_into(
        &self,
        params: &[f32],
        x: &Matrix,
        labels: &[usize],
        grad: &mut Vec<f32>,
    ) -> f32 {
        // Every coordinate is stored, so stale values need no clear.
        grad.resize(self.num_params(), 0.0);
        self.loss_and_land(params, x, labels, grad, Store::Overwrite)
    }

    /// Computes the mean cross-entropy loss on a mini-batch and adds its
    /// gradient into `residual` — Line 4 of Algorithm 1,
    /// `a_i ← a_i + ∇f_i(w)`. The result is `residual[j] += g[j]` bit for
    /// bit, where `g` is what [`Model::loss_and_grad_into`] writes, and the
    /// loss is the same: [`Model::loss_and_land`] with [`Store::Add`], so
    /// no `D`-sized gradient buffer, no zeroing pass and no separate add
    /// pass.
    ///
    /// # Panics
    ///
    /// Panics if `residual.len() != self.num_params()` ("gradient length
    /// mismatch"), and wherever [`Model::loss_and_land`] panics.
    fn loss_and_accumulate_into(
        &self,
        params: &[f32],
        x: &Matrix,
        labels: &[usize],
        residual: &mut [f32],
    ) -> f32 {
        assert_eq!(
            residual.len(),
            self.num_params(),
            "gradient length mismatch"
        );
        self.loss_and_land(params, x, labels, residual, Store::Add)
    }

    /// [`Model::loss_and_grad_into`] into a fresh vector.
    ///
    /// The gradient has length [`Model::num_params`].
    fn loss_and_grad(&self, params: &[f32], x: &Matrix, labels: &[usize]) -> (f32, Vec<f32>) {
        let mut grad = Vec::new();
        let loss = self.loss_and_grad_into(params, x, labels, &mut grad);
        (loss, grad)
    }

    /// Computes the mean cross-entropy loss on a mini-batch.
    ///
    /// The default implementation runs [`Model::forward`] and evaluates the
    /// batch cross-entropy; implementations may override it with a cheaper
    /// fused version.
    fn loss(&self, params: &[f32], x: &Matrix, labels: &[usize]) -> f32 {
        batch_cross_entropy(&self.forward(params, x), labels)
    }

    /// Loss of a single sample, used by the derivative-sign estimator of the
    /// paper (Section IV-E) which evaluates one randomly chosen sample per
    /// client per round.
    fn sample_loss(&self, params: &[f32], features: &[f32], label: usize) -> f32 {
        let x = MatrixView::new(1, features.len(), features);
        batch_cross_entropy(&self.forward_view(params, x), &[label])
    }

    /// Classification accuracy on a batch, in `[0, 1]`.
    fn accuracy(&self, params: &[f32], x: &Matrix, labels: &[usize]) -> f32 {
        if labels.is_empty() {
            return 0.0;
        }
        let logits = self.forward(params, x);
        let mut correct = 0usize;
        for (row, &label) in logits.iter_rows().zip(labels.iter()) {
            if agsfl_tensor::vecops::argmax(row) == Some(label) {
                correct += 1;
            }
        }
        correct as f32 / labels.len() as f32
    }
}

/// Checks a parameter slice against the model's expected dimension.
///
/// Shared helper used by all model implementations.
pub(crate) fn check_params(model: &dyn Model, params: &[f32]) {
    assert_eq!(
        params.len(),
        model.num_params(),
        "parameter vector has length {} but the model expects {}",
        params.len(),
        model.num_params()
    );
}

/// Puts the gradient block `g` into `out` as `store` says: `out = g`, or
/// `out[j] += g[j]` — the one add a residual gets per coordinate.
///
/// # Panics
///
/// Panics if the lengths differ ("gradient length mismatch").
pub(crate) fn land(out: &mut [f32], g: &[f32], store: Store) {
    assert_eq!(out.len(), g.len(), "gradient length mismatch");
    match store {
        Store::Overwrite => out.copy_from_slice(g),
        Store::Add => {
            for (o, &g) in out.iter_mut().zip(g) {
                *o += g;
            }
        }
    }
}

/// Checks a batch against the model's expected input width.
pub(crate) fn check_input(model: &dyn Model, x: MatrixView<'_>) {
    assert_eq!(
        x.cols(),
        model.input_dim(),
        "input batch has width {} but the model expects {}",
        x.cols(),
        model.input_dim()
    );
}

/// Verifies a model's analytic gradient against a central finite difference
/// on a handful of randomly selected coordinates; each model's unit tests
/// run it. Returns the maximum absolute deviation observed.
#[cfg(test)]
pub(crate) fn finite_difference_check(
    model: &dyn Model,
    params: &[f32],
    x: &Matrix,
    labels: &[usize],
    coords: &[usize],
    eps: f32,
) -> f32 {
    let (_, grad) = model.loss_and_grad(params, x, labels);
    let mut worst = 0.0f32;
    for &c in coords {
        assert!(c < params.len(), "coordinate {c} out of range");
        let mut plus = params.to_vec();
        plus[c] += eps;
        let mut minus = params.to_vec();
        minus[c] -= eps;
        let fd = (model.loss(&plus, x, labels) - model.loss(&minus, x, labels)) / (2.0 * eps);
        worst = worst.max((fd - grad[c]).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_batch(input_dim: usize, classes: usize) -> (Matrix, Vec<usize>) {
        let x = Matrix::from_fn(4, input_dim, |i, j| {
            ((i * 7 + j * 3) % 5) as f32 * 0.1 - 0.2
        });
        let labels = (0..4).map(|i| i % classes).collect();
        (x, labels)
    }

    #[test]
    fn default_loss_matches_forward_cross_entropy() {
        let model = Mlp::new(6, &[], 3);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let params = model.init_params(&mut rng);
        let (x, labels) = tiny_batch(6, 3);
        let via_default = model.loss(&params, &x, &labels);
        let via_forward = batch_cross_entropy(&model.forward(&params, &x), &labels);
        assert!((via_default - via_forward).abs() < 1e-6);
    }

    #[test]
    fn sample_loss_matches_batch_of_one() {
        let model = Mlp::new(5, &[], 4);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let params = model.init_params(&mut rng);
        let features: Vec<f32> = (0..5).map(|i| i as f32 * 0.1).collect();
        let single = model.sample_loss(&params, &features, 2);
        let batch = model.loss(&params, &Matrix::from_vec(1, 5, features), &[2]);
        assert!((single - batch).abs() < 1e-6);
    }

    /// One gradient buffer reused across all three models — so every call
    /// finds stale values of another length in it — must give exactly what
    /// a fresh `loss_and_grad` gives. And `loss_and_accumulate_into` on a
    /// dirty residual (signed zeros, infinities, subnormals) is
    /// `residual += loss_and_grad` bit for bit with the same loss, for every
    /// model (the CNN in even and odd convolution geometry); a residual of
    /// the wrong length panics.
    #[test]
    fn loss_and_grad_into_overwrites_a_dirty_buffer() {
        let models: Vec<Box<dyn Model>> = vec![
            Box::new(Mlp::new(36, &[], 3)),
            Box::new(Mlp::new(36, &[7, 5], 3)),
            Box::new(SimpleCnn::new(1, 6, 6, 2, 3)),
            Box::new(SimpleCnn::new(1, 9, 4, 3, 3)),
        ];
        let dirty = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|j| match j % 7 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::from_bits(1 + j as u32),
                    3 => -f32::from_bits(0x7F_FFFF - j as u32),
                    4 if j % 2 == 0 => f32::INFINITY,
                    4 => f32::NEG_INFINITY,
                    _ => (j as f32 - 20.0) * 0.37,
                })
                .collect()
        };
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let (x, labels) = tiny_batch(36, 3);
        let mut grad = vec![f32::NAN; 11];
        for _ in 0..2 {
            for model in &models {
                let params = model.init_params(&mut rng);
                let (fresh_loss, fresh_grad) = model.loss_and_grad(&params, &x, &labels);
                let loss = model.loss_and_grad_into(&params, &x, &labels, &mut grad);
                assert_eq!(loss.to_bits(), fresh_loss.to_bits(), "{model:?}");
                assert_eq!(grad.len(), model.num_params());
                for (a, b) in grad.iter().zip(&fresh_grad) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{model:?}");
                }

                let mut expected = dirty(model.num_params());
                for (r, g) in expected.iter_mut().zip(&fresh_grad) {
                    *r += g;
                }
                let mut residual = dirty(model.num_params());
                let loss = model.loss_and_accumulate_into(&params, &x, &labels, &mut residual);
                assert_eq!(loss.to_bits(), fresh_loss.to_bits(), "{model:?}");
                assert_eq!(bits(&residual), bits(&expected), "{model:?}");

                let mut short = dirty(model.num_params() - 1);
                let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    model.loss_and_accumulate_into(&params, &x, &labels, &mut short)
                }));
                assert!(rejected.is_err(), "{model:?} took a short residual");
            }
        }
    }

    /// `sample_loss` evaluates the borrowed feature row where it lies and
    /// equals the loss of the same row as a batch of one, bit for bit.
    #[test]
    fn sample_loss_borrows_the_feature_row() {
        let models: Vec<Box<dyn Model>> = vec![
            Box::new(Mlp::new(36, &[], 3)),
            Box::new(Mlp::new(36, &[7], 3)),
            Box::new(SimpleCnn::new(1, 6, 6, 2, 3)),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let (x, labels) = tiny_batch(36, 3);
        for model in &models {
            let params = model.init_params(&mut rng);
            for (i, &label) in labels.iter().enumerate() {
                let single = model.sample_loss(&params, x.row(i), label);
                let row = Matrix::from_vec(1, 36, x.row(i).to_vec());
                let batch = model.loss(&params, &row, &[label]);
                assert_eq!(single.to_bits(), batch.to_bits(), "{model:?}");
            }
        }
    }

    #[test]
    fn accuracy_is_between_zero_and_one() {
        let model = Mlp::new(8, &[6], 3);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let params = model.init_params(&mut rng);
        let (x, labels) = tiny_batch(8, 3);
        let acc = model.accuracy(&params, &x, &labels);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn accuracy_of_empty_batch_is_zero() {
        let model = Mlp::new(3, &[], 2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let params = model.init_params(&mut rng);
        assert_eq!(model.accuracy(&params, &Matrix::zeros(0, 3), &[]), 0.0);
    }

    #[test]
    fn models_are_object_safe() {
        let models: Vec<Box<dyn Model>> = vec![
            Box::new(Mlp::new(4, &[], 2)),
            Box::new(Mlp::new(4, &[3], 2)),
        ];
        for m in &models {
            assert!(m.num_params() > 0);
        }
    }
}
