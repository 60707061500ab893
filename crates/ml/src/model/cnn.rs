use agsfl_tensor::conv::KERNEL;
use agsfl_tensor::{init, ConvLayer, ConvShape, Matrix, MatrixView, Store};
use rand::RngCore;

use crate::loss::batch_cross_entropy_with_grad;
use crate::model::scratch::CnnScratch;
use crate::model::{check_input, check_params, land, Model};

/// A small convolutional network: one 3x3 convolution, ReLU, 2x2 average
/// pooling and a fully connected soft-max output layer.
///
/// The paper trains a CNN with more than 400,000 weights; this model provides
/// the same *kind* of parameter structure (convolutional filters followed by a
/// dense classifier) at a configurable size, so experiments that want a
/// convolutional gradient spectrum rather than an MLP one can use it. Inputs
/// are flattened images in
/// channel-major order: element `(c, y, x)` lives at index
/// `c * height * width + y * width + x`.
///
/// Parameter layout in the flat vector:
///
/// 1. convolution weights `[out_channels][in_channels][3][3]`,
/// 2. convolution biases `[out_channels]`,
/// 3. fully connected weights `[pooled_dim x num_classes]` (row-major),
/// 4. fully connected biases `[num_classes]`.
///
/// # Implementation
///
/// The convolution layer — 3x3 convolution, bias, ReLU and 2x2 average
/// pooling — is **one fused kernel** straight from the images
/// ([`ConvLayer::relu_pool`], dispatched to the CPU's vector width like the
/// matrix products): a forward writes only the pooled activations, never
/// the pre-activations. The gradient asks the same kernel for a ReLU mask
/// too (one bit per pre-activation: where ReLU was active), and its
/// convolution backward is **one fused kernel** as well
/// ([`ConvLayer::relu_pool_backward`]): the weight and bias gradients
/// straight from the images, the pooled gradient and the mask, with the
/// gradient at each pre-activation recomputed where it is used. Both keep
/// the folds of the im2col lowering they replaced (see
/// [`agsfl_tensor::conv`]), so every output is bit-identical to it; no
/// pre-activation, pre-activation gradient or column matrix is ever
/// stored (see [`CnnScratch`]). Every product multiplies straight out of `params`
/// through borrowed [`MatrixView`]s — no weight block is copied first — and
/// the forward pass runs in blocks of at most
/// [`FORWARD_BLOCK`](SimpleCnn::FORWARD_BLOCK) rows, so its workspace is
/// sized by the block, not by the batch.
///
/// One backward body serves both landings of the gradient. The fully
/// connected weight gradient (all but 462 of the paper shape's 419,582
/// coordinates) is folded over the batch in registers and stored once by
/// the product's [`Store`]: over the gradient vector for
/// [`Model::loss_and_grad_into`], or added into the client's residual for
/// [`Model::loss_and_accumulate_into`] — so a client step never
/// materializes, zeroes or re-reads a `D`-vector. The small blocks (the
/// convolution's weights and biases, the classifier's biases) are computed
/// into small buffers and land the same way.
///
/// The original scalar-loop implementation survives as the executable spec
/// in [`crate::reference`], and `crates/ml/tests/cnn_equivalence.rs` pins
/// the two against each other. The plain [`Model`] methods reuse a
/// per-thread workspace, so `dyn Model` callers (the FL round engine)
/// amortize the buffers too; callers that want explicit control can hold
/// a [`CnnScratch`] and use [`SimpleCnn::forward_with`] /
/// [`SimpleCnn::loss_and_grad_with`].
///
/// # Examples
///
/// ```
/// use agsfl_ml::model::{Model, SimpleCnn};
///
/// let cnn = SimpleCnn::new(1, 8, 8, 4, 10);
/// assert_eq!(cnn.input_dim(), 64);
/// assert!(cnn.num_params() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimpleCnn {
    in_channels: usize,
    height: usize,
    width: usize,
    out_channels: usize,
    num_classes: usize,
}

thread_local! {
    /// Per-thread workspace behind the plain [`Model`] methods, so
    /// trait-object callers (the FL round engine's `dyn Model` clients) get
    /// scratch reuse without threading a workspace through the trait: a
    /// round-engine worker processing its chunk of clients allocates once
    /// per thread, not once per client. Sound because the scratch carries no
    /// state between calls (observational purity, pinned by the
    /// equivalence proptests), so the shared buffer never changes results.
    static THREAD_SCRATCH: std::cell::RefCell<CnnScratch> =
        std::cell::RefCell::new(CnnScratch::new());
}

impl SimpleCnn {
    /// Creates a CNN for `in_channels x height x width` inputs with
    /// `out_channels` 3x3 filters and `num_classes` outputs.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the image is smaller than the 3x3
    /// kernel.
    pub fn new(
        in_channels: usize,
        height: usize,
        width: usize,
        out_channels: usize,
        num_classes: usize,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && num_classes > 0);
        assert!(
            height >= KERNEL && width >= KERNEL,
            "image must be at least {KERNEL}x{KERNEL}"
        );
        Self {
            in_channels,
            height,
            width,
            out_channels,
            num_classes,
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Input image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Input image width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of 3x3 convolution filters (output channels).
    pub fn filters(&self) -> usize {
        self.out_channels
    }

    /// Spatial size of the convolution output (`height - 2`, `width - 2`).
    pub fn conv_output_size(&self) -> (usize, usize) {
        self.conv_shape().conv_size()
    }

    /// Spatial size after 2x2 average pooling.
    pub fn pooled_size(&self) -> (usize, usize) {
        self.conv_shape().pooled_size()
    }

    /// The convolution layer's geometry.
    fn conv_shape(&self) -> ConvShape {
        ConvShape {
            channels: self.in_channels,
            height: self.height,
            width: self.width,
            filters: self.out_channels,
        }
    }

    /// Length of a flattened receptive field (`in_channels · 3 · 3`): the
    /// weights per filter.
    fn patch_dim(&self) -> usize {
        self.conv_shape().patch_dim()
    }

    fn conv_weight_len(&self) -> usize {
        self.out_channels * self.patch_dim()
    }

    fn pooled_dim(&self) -> usize {
        self.conv_shape().pooled_dim()
    }

    fn fc_weight_len(&self) -> usize {
        self.pooled_dim() * self.num_classes
    }

    /// Offsets of the four parameter blocks: `(conv_w, conv_b, fc_w, fc_b)`.
    pub(crate) fn offsets(&self) -> (usize, usize, usize, usize) {
        let conv_w = 0;
        let conv_b = conv_w + self.conv_weight_len();
        let fc_w = conv_b + self.out_channels;
        let fc_b = fc_w + self.fc_weight_len();
        (conv_w, conv_b, fc_w, fc_b)
    }

    #[inline]
    pub(crate) fn input_index(&self, c: usize, y: usize, x: usize) -> usize {
        c * self.height * self.width + y * self.width + x
    }

    #[inline]
    pub(crate) fn conv_w_index(&self, o: usize, c: usize, ky: usize, kx: usize) -> usize {
        ((o * self.in_channels + c) * KERNEL + ky) * KERNEL + kx
    }

    /// The convolution layer over its weights and biases inside `params`.
    fn conv_layer<'p>(&self, params: &'p [f32]) -> ConvLayer<'p> {
        let (conv_w_off, conv_b_off, fc_w_off, _) = self.offsets();
        ConvLayer::new(
            self.conv_shape(),
            &params[conv_w_off..conv_b_off],
            &params[conv_b_off..fc_w_off],
        )
    }

    /// The fully connected weights inside `params`, as a
    /// `pooled_dim x num_classes` view.
    fn fc_weights<'p>(&self, params: &'p [f32]) -> MatrixView<'p> {
        let (_, _, fc_w_off, fc_b_off) = self.offsets();
        MatrixView::new(
            self.pooled_dim(),
            self.num_classes,
            &params[fc_w_off..fc_b_off],
        )
    }

    /// Runs the fused convolution layer over `x` into `scratch.pooled`,
    /// and — for the backward pass — where ReLU was active into
    /// `scratch.relu_mask`.
    fn forward_conv(
        &self,
        params: &[f32],
        x: MatrixView<'_>,
        scratch: &mut CnnScratch,
        keep_mask: bool,
    ) {
        let shape = self.conv_shape();
        scratch
            .pooled
            .resize_for_overwrite(x.rows(), shape.pooled_dim());
        let relu_mask = if keep_mask {
            let len = x.rows() * shape.mask_dim();
            if scratch.relu_mask.len() < len {
                scratch.relu_mask.resize(len, 0);
            }
            Some(&mut scratch.relu_mask[..len])
        } else {
            None
        };
        self.conv_layer(params).relu_pool(
            x,
            &mut scratch.conv,
            scratch.pooled.as_mut_slice(),
            relu_mask,
        );
    }

    /// Rows per pass of the forward: [`SimpleCnn::forward_with`] convolves
    /// and pools at most this many samples at a time, so the pooled buffer
    /// of a 256-row evaluation chunk is as large as a training batch's, not
    /// eight times that. Even, so the fully connected product's row pairing
    /// is the same in every block as in the whole batch.
    pub const FORWARD_BLOCK: usize = 32;

    /// Forward pass reusing an explicit [`CnnScratch`] (the
    /// allocation-free hot path; the [`Model::forward_view`] impl wraps this
    /// with the thread's workspace), in blocks of
    /// [`SimpleCnn::FORWARD_BLOCK`] rows — bit-identical to one pass over
    /// the whole batch because every output row depends on its own input
    /// row only (the row independence of the [`Model`] contract).
    ///
    /// # Panics
    ///
    /// Panics on parameter/input dimension mismatches, like
    /// [`Model::forward`].
    pub fn forward_with(
        &self,
        params: &[f32],
        x: MatrixView<'_>,
        scratch: &mut CnnScratch,
    ) -> Matrix {
        check_params(self, params);
        check_input(self, x);
        let (_, _, _, fc_b_off) = self.offsets();
        let mut logits = Matrix::zeros(x.rows(), self.num_classes);
        for start in (0..x.rows()).step_by(Self::FORWARD_BLOCK) {
            let rows = start..(start + Self::FORWARD_BLOCK).min(x.rows());
            self.forward_conv(params, x.row_block(rows.clone()), scratch, false);
            scratch.pooled.view().matmul_acc(
                self.fc_weights(params),
                &mut logits.as_mut_slice()
                    [rows.start * self.num_classes..rows.end * self.num_classes],
            );
        }
        logits.add_row_broadcast(&params[fc_b_off..fc_b_off + self.num_classes]);
        logits
    }

    /// Loss + gradient reusing an explicit [`CnnScratch`] (the
    /// allocation-free hot path; the [`Model::loss_and_land`] impl runs the
    /// same body with the thread's workspace). `grad` is overwritten:
    /// resized to [`Model::num_params`], every coordinate stored, whatever
    /// it held.
    ///
    /// # Panics
    ///
    /// Panics on parameter/input/label dimension mismatches, like
    /// [`Model::loss_and_grad`].
    pub fn loss_and_grad_with(
        &self,
        params: &[f32],
        x: &Matrix,
        labels: &[usize],
        scratch: &mut CnnScratch,
        grad: &mut Vec<f32>,
    ) -> f32 {
        grad.resize(self.num_params(), 0.0);
        self.loss_and_land_with(params, x, labels, scratch, grad, Store::Overwrite)
    }

    /// The forward and backward pass, with the gradient landing in `out`
    /// (`num_params` long) as `store` says — over a gradient vector, or
    /// added into a residual.
    ///
    /// The forward is the fused convolution kernel, which also hands back
    /// where ReLU was active; the backward pass runs the classifier's
    /// products, then the fused convolution backward, in the sample-major
    /// order documented on the [`Model`] trait. The fully connected weight
    /// gradient — 419,120 of the paper shape's 419,582 coordinates — is
    /// folded in registers and stored into `out` once, by the product's
    /// own [`Store`]; the convolution's weights and biases go through the
    /// scratch's small block buffer and land with the classifier biases.
    fn loss_and_land_with(
        &self,
        params: &[f32],
        x: &Matrix,
        labels: &[usize],
        scratch: &mut CnnScratch,
        out: &mut [f32],
        store: Store,
    ) -> f32 {
        check_params(self, params);
        check_input(self, x.view());
        let (_, conv_b_off, fc_w_off, fc_b_off) = self.offsets();
        let batch = x.rows();

        self.forward_conv(params, x.view(), scratch, true);
        let mut logits = Matrix::zeros(batch, self.num_classes);
        scratch
            .pooled
            .view()
            .matmul_acc(self.fc_weights(params), logits.as_mut_slice());
        logits.add_row_broadcast(&params[fc_b_off..fc_b_off + self.num_classes]);
        let (loss, dlogits) = batch_cross_entropy_with_grad(&logits, labels);

        // Fully connected layer: both gradients and the back-propagated
        // pooled gradient are single matmuls.
        scratch.pooled.view().transpose_matmul_grouped(
            dlogits.view(),
            &mut out[fc_w_off..fc_b_off],
            store,
        );
        land(&mut out[fc_b_off..], &dlogits.sum_rows(), store);
        scratch
            .dpooled
            .resize_for_overwrite(batch, self.pooled_dim());
        scratch.dpooled.fill(0.0);
        dlogits
            .view()
            .matmul_transpose_acc(self.fc_weights(params), scratch.dpooled.as_mut_slice());

        // The convolution's weights and biases, into the small block
        // buffer: one fused pass over the images, the pooled gradient and
        // the mask the forward kept.
        let conv_grad = &mut scratch.conv_grad;
        conv_grad.resize(fc_w_off, 0.0);
        let (dweights, dbias) = conv_grad.split_at_mut(conv_b_off);
        self.conv_layer(params).relu_pool_backward(
            x.view(),
            scratch.dpooled.as_slice(),
            &scratch.relu_mask[..batch * self.conv_shape().mask_dim()],
            &mut scratch.conv,
            dweights,
            dbias,
        );
        land(&mut out[..fc_w_off], conv_grad, store);

        loss
    }
}

impl Model for SimpleCnn {
    fn input_dim(&self) -> usize {
        self.in_channels * self.height * self.width
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn num_params(&self) -> usize {
        self.conv_weight_len() + self.out_channels + self.fc_weight_len() + self.num_classes
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vec<f32> {
        let mut params = Vec::with_capacity(self.num_params());
        let conv_fan_in = self.in_channels * KERNEL * KERNEL;
        params.extend(init::normal_vec(
            self.conv_weight_len(),
            0.0,
            (2.0 / conv_fan_in as f32).sqrt(),
            rng,
        ));
        params.extend(std::iter::repeat_n(0.0f32, self.out_channels));
        let fc = init::xavier_uniform(self.pooled_dim(), self.num_classes, rng);
        params.extend_from_slice(fc.as_slice());
        params.extend(std::iter::repeat_n(0.0f32, self.num_classes));
        params
    }

    fn forward_view(&self, params: &[f32], x: MatrixView<'_>) -> Matrix {
        THREAD_SCRATCH.with(|s| self.forward_with(params, x, &mut s.borrow_mut()))
    }

    fn loss_and_land(
        &self,
        params: &[f32],
        x: &Matrix,
        labels: &[usize],
        out: &mut [f32],
        store: Store,
    ) -> f32 {
        THREAD_SCRATCH
            .with(|s| self.loss_and_land_with(params, x, labels, &mut s.borrow_mut(), out, store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::finite_difference_check;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn toy_cnn() -> SimpleCnn {
        SimpleCnn::new(1, 6, 6, 2, 3)
    }

    fn toy_batch(model: &SimpleCnn, batch: usize) -> (Matrix, Vec<usize>) {
        let x = Matrix::from_fn(batch, model.input_dim(), |i, j| {
            (((i * 13 + j * 7) % 11) as f32) * 0.1 - 0.5
        });
        let labels = (0..batch).map(|i| i % model.num_classes()).collect();
        (x, labels)
    }

    #[test]
    fn dimensions_and_param_count() {
        let m = toy_cnn();
        assert_eq!(m.input_dim(), 36);
        assert_eq!(m.conv_output_size(), (4, 4));
        assert_eq!(m.pooled_size(), (2, 2));
        // conv: 2*1*3*3 = 18, conv bias 2, fc: 2*2*2*3 = 24, fc bias 3.
        assert_eq!(m.num_params(), 18 + 2 + 24 + 3);
    }

    #[test]
    fn forward_shape_and_finiteness() {
        let m = toy_cnn();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let params = m.init_params(&mut rng);
        assert_eq!(params.len(), m.num_params());
        let (x, _) = toy_batch(&m, 3);
        let logits = m.forward(&params, &x);
        assert_eq!(logits.shape(), (3, 3));
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_matches_reference_loops() {
        let m = SimpleCnn::new(2, 7, 6, 3, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let params = m.init_params(&mut rng);
        let (x, _) = toy_batch(&m, 5);
        let fast = m.forward(&params, &x);
        let slow = crate::reference::cnn_forward(&m, &params, &x);
        for (a, b) in fast.as_slice().iter().zip(slow.as_slice().iter()) {
            assert!(
                (a - b).abs() <= 1e-4 * a.abs().max(b.abs()).max(1.0),
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let m = toy_cnn();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let params = m.init_params(&mut rng);
        let (x, labels) = toy_batch(&m, 4);
        let coords: Vec<usize> = (0..m.num_params()).step_by(2).collect();
        let worst = finite_difference_check(&m, &params, &x, &labels, &coords, 1e-2);
        assert!(worst < 1.5e-2, "worst deviation {worst}");
    }

    #[test]
    fn scratch_reuse_is_observationally_pure() {
        let m = SimpleCnn::new(1, 6, 6, 2, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let params = m.init_params(&mut rng);
        let (x, labels) = toy_batch(&m, 4);
        let mut scratch = CnnScratch::new();
        // Warm the scratch on a *different* geometry first: stale contents
        // must never leak into a later call.
        let other = SimpleCnn::new(2, 8, 5, 4, 2);
        let other_params = vec![0.02; other.num_params()];
        let (ox, olabels) = toy_batch(&other, 3);
        // ... into a gradient buffer that starts out dirty and wrongly sized.
        let mut grad = vec![f32::NAN; 5];
        let _ = other.loss_and_grad_with(&other_params, &ox, &olabels, &mut scratch, &mut grad);

        let fresh = m.loss_and_grad(&params, &x, &labels);
        let loss = m.loss_and_grad_with(&params, &x, &labels, &mut scratch, &mut grad);
        assert_eq!(fresh, (loss, grad.clone()));
        let again = m.loss_and_grad_with(&params, &x, &labels, &mut scratch, &mut grad);
        assert_eq!(fresh, (again, grad));
        assert_eq!(
            m.forward(&params, &x),
            m.forward_with(&params, x.view(), &mut scratch)
        );
    }

    #[test]
    fn zero_filter_model_predicts_from_bias_only() {
        let m = toy_cnn();
        let mut params = vec![0.0f32; m.num_params()];
        let (_, _, _, fc_b_off) = m.offsets();
        params[fc_b_off + 1] = 3.0;
        let (x, _) = toy_batch(&m, 2);
        let logits = m.forward(&params, &x);
        for i in 0..2 {
            assert_eq!(agsfl_tensor::vecops::argmax(logits.row(i)), Some(1));
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let m = toy_cnn();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let params = m.init_params(&mut rng);
        let x = Matrix::zeros(0, m.input_dim());
        assert_eq!(m.forward(&params, &x).shape(), (0, 3));
        let (loss, grad) = m.loss_and_grad(&params, &x, &[]);
        assert_eq!(loss, 0.0);
        assert_eq!(grad.len(), m.num_params());
    }

    #[test]
    fn training_reduces_loss() {
        let m = SimpleCnn::new(1, 6, 6, 4, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut params = m.init_params(&mut rng);
        // Class 0: bright top-left corner; class 1: bright bottom-right corner.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for s in 0..8 {
            let class = s % 2;
            let mut img = vec![0.0f32; 36];
            if class == 0 {
                img[0] = 1.0;
                img[1] = 1.0;
                img[6] = 1.0;
                img[7] = 1.0;
            } else {
                img[35] = 1.0;
                img[34] = 1.0;
                img[29] = 1.0;
                img[28] = 1.0;
            }
            // A little per-sample jitter so the batch is not two duplicated rows.
            img[12 + s] += 0.1;
            rows.push(img);
            labels.push(class);
        }
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        let x = Matrix::from_vec(8, 36, flat);
        let initial = m.loss(&params, &x, &labels);
        let mut scratch = CnnScratch::new();
        let mut grad = Vec::new();
        for _ in 0..500 {
            m.loss_and_grad_with(&params, &x, &labels, &mut scratch, &mut grad);
            crate::optim::sgd_step(&mut params, &grad, 0.3);
        }
        let trained = m.loss(&params, &x, &labels);
        assert!(trained < initial, "loss {initial} -> {trained}");
        assert!(m.accuracy(&params, &x, &labels) >= 0.75);
    }

    #[test]
    #[should_panic]
    fn too_small_image_panics() {
        let _ = SimpleCnn::new(1, 2, 2, 1, 2);
    }
}
