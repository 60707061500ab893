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
/// This is the default experiment model of the reproduction: with
/// `Mlp::new(784, &[128], 62)` it has ~100k parameters, which plays the role
/// of the paper's >400k-parameter CNN at a size that keeps the full benchmark
/// suite runnable on a laptop.
///
/// # Examples
///
/// ```
/// use agsfl_ml::model::{Mlp, Model};
///
/// let mlp = Mlp::new(16, &[8, 8], 4);
/// assert_eq!(mlp.num_params(), 16 * 8 + 8 + 8 * 8 + 8 + 8 * 4 + 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mlp {
    /// Layer widths including input and output: `[input, h1, ..., classes]`.
    dims: Vec<usize>,
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

    /// Runs the forward pass keeping the pre-activation of every layer, which
    /// the backward pass needs.
    ///
    /// Returns `(activations, pre_activations)` where `activations[0]` is the
    /// input batch and `activations[i]` the post-ReLU output of layer `i-1`.
    fn forward_cached(&self, params: &[f32], x: MatrixView<'_>) -> (Vec<Matrix>, Vec<Matrix>) {
        let layers = self.num_layers();
        let mut activations: Vec<Matrix> = Vec::with_capacity(layers + 1);
        let mut pre_activations: Vec<Matrix> = Vec::with_capacity(layers);
        activations.push(Matrix::from_vec(x.rows(), x.cols(), x.as_slice().to_vec()));
        for l in 0..layers {
            let mut z = Matrix::zeros(x.rows(), self.dims[l + 1]);
            activations[l]
                .view()
                .matmul_acc(self.layer_weights(params, l), z.as_mut_slice());
            z.add_row_broadcast(self.layer_biases(params, l));
            pre_activations.push(z.clone());
            if l + 1 < layers {
                z.map_inplace(ops::relu);
            }
            activations.push(z);
        }
        (activations, pre_activations)
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
        let (activations, _) = self.forward_cached(params, x);
        activations.into_iter().last().expect("at least the input")
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
        let layers = self.num_layers();
        let (activations, pre_activations) = self.forward_cached(params, x.view());
        let logits = activations.last().expect("forward produced output");
        let (loss, mut delta) = batch_cross_entropy_with_grad(logits, labels);

        // Backwards over layers: delta is dLoss/dZ_l for the current layer l.
        for l in (0..layers).rev() {
            let (w_off, b_off, fan_in, fan_out) = self.layer_offsets(l);
            // dW_l = A_{l}^T * delta ; db_l = column sums of delta.
            activations[l]
                .view()
                .transpose_matmul(delta.view(), &mut out[w_off..b_off], store);
            land(&mut out[b_off..b_off + fan_out], &delta.sum_rows(), store);
            if l > 0 {
                // delta_{l-1} = (delta_l * W_l^T) ⊙ relu'(Z_{l-1})
                let mut prev = Matrix::zeros(delta.rows(), fan_in);
                delta
                    .view()
                    .matmul_transpose_into(self.layer_weights(params, l), prev.as_mut_slice());
                let z_prev = &pre_activations[l - 1];
                for i in 0..prev.rows() {
                    let row = prev.row_mut(i);
                    for (v, &z) in row.iter_mut().zip(z_prev.row(i).iter()) {
                        *v *= ops::relu_grad(z);
                    }
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
    fn no_hidden_layers_reduces_to_linear_shape() {
        let m = Mlp::new(6, &[], 4);
        assert_eq!(m.num_params(), 6 * 4 + 4);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let params = m.init_params(&mut rng);
        let x = Matrix::from_fn(2, 6, |i, j| (i + j) as f32 * 0.1);
        assert_eq!(m.forward(&params, &x).shape(), (2, 4));
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
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[0.0, 1.0], &[1.0, 0.0]]);
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
            hidden in 1usize..6,
            batch in 1usize..4,
        ) {
            let m = Mlp::new(5, &[hidden], 3);
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
