use agsfl_tensor::{init, ops, Matrix, MatrixView, Store};
use rand::RngCore;

use crate::loss::batch_cross_entropy_with_grad;
use crate::model::{check_input, check_params, land, Model};

/// A fully connected multi-layer perceptron with ReLU activations.
///
/// The architecture is `input_dim -> hidden[0] -> ... -> hidden[n-1] ->
/// num_classes`, with ReLU after every hidden layer and raw logits at the
/// output. Parameters are stored flat, layer by layer, each layer contributing
/// its row-major `in x out` weight matrix followed by its `out` biases.
///
/// With no hidden layer, `Mlp::new(d, &[], c)` is multinomial logistic
/// regression — one Xavier-initialised linear layer with zero biases under
/// soft-max cross-entropy — the model `ModelSpec::Linear` builds. With
/// `Mlp::new(784, &[128], 62)` it has ~100k parameters, which plays the
/// role of the paper's >400k-parameter CNN at a size that keeps the full
/// benchmark suite runnable on a laptop.
///
/// The input batch is borrowed, never copied, and the backward pass keeps
/// only the post-ReLU hidden activations: ReLU's derivative reads the same
/// off `relu(z)` as off `z`.
///
/// # Examples
///
/// ```
/// use agsfl_ml::model::{Mlp, Model};
///
/// let mlp = Mlp::new(16, &[8, 8], 4);
/// assert_eq!(mlp.num_params(), 16 * 8 + 8 + 8 * 8 + 8 + 8 * 4 + 4);
/// let linear = Mlp::new(16, &[], 4);
/// assert_eq!(linear.num_params(), 16 * 4 + 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mlp {
    /// Layer widths including input and output: `[input, h1, ..., classes]`.
    dims: Vec<usize>,
}

/// Multinomial logistic regression under its former name: the
/// zero-hidden-layer [`Mlp`].
#[doc(hidden)]
pub enum LinearSoftmax {}

impl LinearSoftmax {
    /// `Mlp::new(input_dim, &[], num_classes)`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(input_dim: usize, num_classes: usize) -> Mlp {
        Mlp::new(input_dim, &[], num_classes)
    }
}

impl Mlp {
    /// Creates an MLP with the given hidden layer widths.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` or `num_classes` is zero, or any hidden width is
    /// zero.
    pub fn new(input_dim: usize, hidden: &[usize], num_classes: usize) -> Self {
        assert!(input_dim > 0, "input_dim must be positive");
        assert!(num_classes > 0, "num_classes must be positive");
        assert!(
            hidden.iter().all(|&h| h > 0),
            "hidden layer widths must be positive"
        );
        let mut dims = Vec::with_capacity(hidden.len() + 2);
        dims.push(input_dim);
        dims.extend_from_slice(hidden);
        dims.push(num_classes);
        Self { dims }
    }

    /// Number of weight layers (hidden layers + output layer).
    fn num_layers(&self) -> usize {
        self.dims.len() - 1
    }

    /// Returns `(weight_offset, bias_offset, in, out)` for layer `l`.
    fn layer_offsets(&self, l: usize) -> (usize, usize, usize, usize) {
        let mut offset = 0usize;
        for i in 0..l {
            offset += self.dims[i] * self.dims[i + 1] + self.dims[i + 1];
        }
        let fan_in = self.dims[l];
        let fan_out = self.dims[l + 1];
        (offset, offset + fan_in * fan_out, fan_in, fan_out)
    }

    fn layer_weights<'p>(&self, params: &'p [f32], l: usize) -> MatrixView<'p> {
        let (w_off, b_off, fan_in, fan_out) = self.layer_offsets(l);
        MatrixView::new(fan_in, fan_out, &params[w_off..b_off])
    }

    fn layer_biases<'p>(&self, params: &'p [f32], l: usize) -> &'p [f32] {
        let (_, b_off, _, fan_out) = self.layer_offsets(l);
        &params[b_off..b_off + fan_out]
    }

    /// `input · W_l + b_l`, the pre-activation of layer `l`.
    fn affine(&self, params: &[f32], l: usize, input: MatrixView<'_>) -> Matrix {
        let mut z = Matrix::zeros(input.rows(), self.dims[l + 1]);
        input.matmul_acc(self.layer_weights(params, l), z.as_mut_slice());
        z.add_row_broadcast(self.layer_biases(params, l));
        z
    }

    /// Runs the forward pass over the borrowed batch `x`. Returns the
    /// post-ReLU output of every hidden layer, which is all the backward
    /// pass keeps, and the logits.
    fn forward_hidden(&self, params: &[f32], x: MatrixView<'_>) -> (Vec<Matrix>, Matrix) {
        let output = self.num_layers() - 1;
        let mut hidden: Vec<Matrix> = Vec::with_capacity(output);
        for l in 0..output {
            let mut a = self.affine(params, l, hidden.last().map_or(x, Matrix::view));
            a.map_inplace(ops::relu);
            hidden.push(a);
        }
        let logits = self.affine(params, output, hidden.last().map_or(x, Matrix::view));
        (hidden, logits)
    }
}

impl Model for Mlp {
    fn input_dim(&self) -> usize {
        self.dims[0]
    }

    fn num_classes(&self) -> usize {
        *self.dims.last().expect("dims is never empty")
    }

    fn num_params(&self) -> usize {
        (0..self.num_layers())
            .map(|l| self.dims[l] * self.dims[l + 1] + self.dims[l + 1])
            .sum()
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vec<f32> {
        let mut params = Vec::with_capacity(self.num_params());
        for l in 0..self.num_layers() {
            let fan_in = self.dims[l];
            let fan_out = self.dims[l + 1];
            // He initialisation for ReLU hidden layers, Xavier for the output.
            let w = if l + 1 < self.num_layers() {
                init::he_normal(fan_in, fan_out, rng)
            } else {
                init::xavier_uniform(fan_in, fan_out, rng)
            };
            params.extend_from_slice(w.as_slice());
            params.extend(std::iter::repeat_n(0.0f32, fan_out));
        }
        params
    }

    fn forward_view(&self, params: &[f32], x: MatrixView<'_>) -> Matrix {
        check_params(self, params);
        check_input(self, x);
        self.forward_hidden(params, x).1
    }

    /// Back-propagation layer by layer, last first: each layer's `dW`
    /// lands straight from the product's registers, its `db` (the column
    /// sums of the layer's delta) with it.
    fn loss_and_land(
        &self,
        params: &[f32],
        x: &Matrix,
        labels: &[usize],
        out: &mut [f32],
        store: Store,
    ) -> f32 {
        check_params(self, params);
        check_input(self, x.view());
        assert_eq!(out.len(), self.num_params(), "gradient length mismatch");
        let (hidden, logits) = self.forward_hidden(params, x.view());
        let (loss, mut delta) = batch_cross_entropy_with_grad(&logits, labels);

        // Backwards over layers: delta is dLoss/dZ_l for the current layer l.
        for l in (0..self.num_layers()).rev() {
            let (w_off, b_off, fan_in, fan_out) = self.layer_offsets(l);
            let input = if l == 0 {
                x.view()
            } else {
                hidden[l - 1].view()
            };
            // dW_l = A_l^T * delta ; db_l = column sums of delta.
            input.transpose_matmul(delta.view(), &mut out[w_off..b_off], store);
            land(&mut out[b_off..b_off + fan_out], &delta.sum_rows(), store);
            if l > 0 {
                // delta_{l-1} = (delta_l * W_l^T) ⊙ relu'(A_l), A_l = relu(Z_{l-1}).
                let mut prev = Matrix::zeros(delta.rows(), fan_in);
                delta
                    .view()
                    .matmul_transpose_into(self.layer_weights(params, l), prev.as_mut_slice());
                for (v, &a) in prev.as_mut_slice().iter_mut().zip(input.as_slice()) {
                    *v *= ops::relu_grad(a);
                }
                delta = prev;
            }
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::finite_difference_check;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn param_count_matches_layout() {
        let m = Mlp::new(10, &[5, 4], 3);
        assert_eq!(m.num_params(), 10 * 5 + 5 + 5 * 4 + 4 + 4 * 3 + 3);
        assert_eq!(m.num_layers(), 3);
    }

    #[test]
    fn no_hidden_layer_is_the_linear_layout() {
        let m = Mlp::new(10, &[], 4);
        assert_eq!(m.num_params(), 10 * 4 + 4);
        assert_eq!(m.num_layers(), 1);
        assert_eq!(m.input_dim(), 10);
        assert_eq!(m.num_classes(), 4);
        assert_eq!(m.layer_offsets(0), (0, 40, 10, 4));
    }

    #[test]
    fn no_hidden_layer_inits_xavier_weights_and_zero_biases() {
        let m = Mlp::new(7, &[], 3);
        let p = m.init_params(&mut ChaCha8Rng::seed_from_u64(0));
        assert_eq!(p.len(), m.num_params());
        let xavier = agsfl_tensor::init::xavier_uniform(7, 3, &mut ChaCha8Rng::seed_from_u64(0));
        assert_eq!(&p[..21], xavier.as_slice());
        assert!(p[21..].iter().all(|&b| b.to_bits() == 0));
    }

    #[test]
    fn no_hidden_layer_forward_known_values() {
        let m = Mlp::new(2, &[], 2);
        let x = Matrix::from_vec(1, 2, vec![2.0, 3.0]);
        let zero = m.forward(&[0.0; 6], &x);
        assert!(zero.as_slice().iter().all(|&v| v == 0.0));
        // W = [[1, 0], [0, 1]], b = [0.5, -0.5]
        let params = [1.0, 0.0, 0.0, 1.0, 0.5, -0.5];
        assert_eq!(m.forward(&params, &x).as_slice(), &[2.5, 2.5]);
    }

    #[test]
    fn no_hidden_layer_gradient_matches_finite_difference() {
        let m = Mlp::new(5, &[], 3);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let params = m.init_params(&mut rng);
        let x = Matrix::from_fn(6, 5, |i, j| ((i + 2 * j) % 7) as f32 * 0.1 - 0.3);
        let labels = vec![0, 1, 2, 0, 1, 2];
        let coords: Vec<usize> = (0..m.num_params()).step_by(3).collect();
        let worst = finite_difference_check(&m, &params, &x, &labels, &coords, 1e-2);
        assert!(worst < 5e-3, "worst deviation {worst}");
    }

    #[test]
    fn no_hidden_layer_training_separates_separable_data() {
        let m = Mlp::new(4, &[], 2);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut params = m.init_params(&mut rng);
        let rows = [
            [1.0, 1.0, 0.0, 0.0],
            [0.9, 1.1, 0.1, 0.0],
            [0.0, 0.0, 1.0, 1.0],
            [0.1, 0.0, 0.9, 1.1],
        ];
        let x = Matrix::from_vec(4, 4, rows.concat());
        let labels = vec![0, 0, 1, 1];
        let initial = m.loss(&params, &x, &labels);
        for _ in 0..200 {
            let (_, grad) = m.loss_and_grad(&params, &x, &labels);
            crate::optim::sgd_step(&mut params, &grad, 0.5);
        }
        let trained = m.loss(&params, &x, &labels);
        assert!(trained < initial * 0.2, "loss {initial} -> {trained}");
        assert_eq!(m.accuracy(&params, &x, &labels), 1.0);
    }

    #[test]
    #[should_panic(expected = "parameter vector has length 4")]
    fn wrong_param_length_panics() {
        let m = Mlp::new(3, &[], 2);
        let _ = m.forward(&[0.0; 4], &Matrix::zeros(1, 3));
    }

    #[test]
    #[should_panic(expected = "input batch has width 5")]
    fn wrong_input_width_panics() {
        let m = Mlp::new(3, &[], 2);
        let params = vec![0.0; m.num_params()];
        let _ = m.forward(&params, &Matrix::zeros(1, 5));
    }

    #[test]
    fn layer_offsets_are_contiguous() {
        let m = Mlp::new(7, &[5, 3], 2);
        let mut expected = 0usize;
        for l in 0..m.num_layers() {
            let (w_off, b_off, fan_in, fan_out) = m.layer_offsets(l);
            assert_eq!(w_off, expected);
            assert_eq!(b_off, expected + fan_in * fan_out);
            expected = b_off + fan_out;
        }
        assert_eq!(expected, m.num_params());
    }

    #[test]
    fn forward_shape() {
        let m = Mlp::new(12, &[9], 5);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let params = m.init_params(&mut rng);
        let x = Matrix::from_fn(3, 12, |i, j| ((i * j) % 4) as f32 * 0.25 - 0.5);
        assert_eq!(m.forward(&params, &x).shape(), (3, 5));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let m = Mlp::new(6, &[5], 3);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let params = m.init_params(&mut rng);
        let x = Matrix::from_fn(5, 6, |i, j| ((i * 3 + j) % 7) as f32 * 0.15 - 0.4);
        let labels = vec![0, 1, 2, 1, 0];
        let coords: Vec<usize> = (0..m.num_params()).step_by(5).collect();
        let worst = finite_difference_check(&m, &params, &x, &labels, &coords, 1e-2);
        assert!(worst < 1e-2, "worst deviation {worst}");
    }

    #[test]
    fn deep_gradient_matches_finite_difference() {
        let m = Mlp::new(4, &[6, 5], 3);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let params = m.init_params(&mut rng);
        let x = Matrix::from_fn(4, 4, |i, j| ((i + j * 2) % 5) as f32 * 0.2 - 0.4);
        let labels = vec![2, 0, 1, 2];
        let coords: Vec<usize> = (0..m.num_params()).step_by(7).collect();
        let worst = finite_difference_check(&m, &params, &x, &labels, &coords, 1e-2);
        assert!(worst < 1.5e-2, "worst deviation {worst}");
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let m = Mlp::new(2, &[8], 2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut params = m.init_params(&mut rng);
        // XOR-ish data that a linear model cannot fit but an MLP can.
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0]);
        let labels = vec![0, 0, 1, 1];
        let initial = m.loss(&params, &x, &labels);
        for _ in 0..2000 {
            let (_, grad) = m.loss_and_grad(&params, &x, &labels);
            crate::optim::sgd_step(&mut params, &grad, 0.5);
        }
        let trained = m.loss(&params, &x, &labels);
        assert!(trained < initial * 0.5, "loss {initial} -> {trained}");
        assert!(m.accuracy(&params, &x, &labels) >= 0.75);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_gradient_is_finite_and_right_sized(
            hidden in 0usize..6,
            batch in 1usize..4,
        ) {
            let widths: &[usize] = if hidden == 0 { &[] } else { &[hidden] };
            let m = Mlp::new(5, widths, 3);
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let params = m.init_params(&mut rng);
            let x = Matrix::from_fn(batch, 5, |i, j| ((i * 2 + j) % 3) as f32 * 0.3 - 0.3);
            let labels: Vec<usize> = (0..batch).map(|i| i % 3).collect();
            let (loss, grad) = m.loss_and_grad(&params, &x, &labels);
            prop_assert!(loss.is_finite());
            prop_assert_eq!(grad.len(), m.num_params());
            prop_assert!(grad.iter().all(|g| g.is_finite()));
        }
    }
}
